//! Exact tail of the round service time by characteristic-function
//! inversion (Gil–Pelaez).
//!
//! The model of eq. 3.1.1 has a known characteristic function — the same
//! product as the Laplace–Stieltjes transform of eq. 3.1.4 evaluated at
//! `s = −iω`:
//!
//! ```text
//! φ(ω) = e^{iω·SEEK} · ((e^{iω·ROT} − 1)/(iω·ROT))^N · (α/(α − iω))^{βN}
//! ```
//!
//! Gil–Pelaez inverts it directly:
//!
//! ```text
//! P[T ≤ t] = 1/2 − (1/π) ∫₀^∞ Im(e^{−iωt}·φ(ω)) / ω dω
//! ```
//!
//! The Gamma factor decays like `(1 + ω²/α²)^{−βN/2}` — brutally fast for
//! the paper's `βN ≈ 100` — so a panel Gauss–Legendre rule over a finite
//! `[0, ω_max]` gives 10+ digits. This is the model's **exact** answer
//! (up to quadrature), against which both the Chernoff bound and the
//! saddlepoint estimate can be judged without simulation noise.
//!
//! Cost: the rule has thousands of nodes (~6.6k for `N = 28` at
//! `t = 1 s`; small `N` need far more), about 1 ms per [`p_late_exact`]
//! call. `cdf_grid` evaluates the CF once per node for a whole grid of
//! points, so each extra point costs one complex multiply per node.

use crate::chernoff::RoundService;
use crate::CoreError;
use mzd_numerics::complex::Complex;
use mzd_numerics::integrate::GaussLegendre;
use std::f64::consts::PI;

/// `ln(φ(ω)·e^{−iω·SEEK})`: the log characteristic function of the round
/// total above its deterministic seek floor,
/// `N·Ln((e^{iωROT} − 1)/(iωROT)) + βN·(ln α − Ln(α − iω))`. `N` is an
/// integer, so the principal branch of the rotation factor's log is
/// exact once exponentiated.
fn log_cf_above_seek(model: &RoundService, omega: f64) -> Complex {
    let n = f64::from(model.n());
    let alpha = model.transfer().alpha();
    let x = omega * model.rotation_time();
    let rot_base = if x.abs() < 1e-8 {
        // Series: 1 + ix/2 − x²/6 + …
        Complex::new(1.0 - x * x / 6.0, x / 2.0)
    } else {
        (Complex::from_polar(1.0, x) - Complex::ONE) / Complex::new(0.0, x)
    };
    let gamma = Complex::from(alpha.ln()) - Complex::new(alpha, -omega).ln();
    rot_base.ln() * n + gamma * (model.transfer().beta() * n)
}

/// Characteristic function `φ(ω)` of the round total.
pub(crate) fn round_cf(model: &RoundService, omega: f64) -> Complex {
    (log_cf_above_seek(model, omega) + Complex::new(0.0, omega * model.seek_constant())).exp()
}

/// The `(ω_k, w_k)` nodes of the Gauss–Legendre panel rule that inverts
/// `model`'s CF at any point in `(0, t_max]`. Every node is strictly
/// interior to `[0, ω_max]`, so `ω_k > 0`.
pub(crate) fn quadrature(model: &RoundService, t_max: f64) -> Result<Vec<(f64, f64)>, CoreError> {
    // Integration extent: |φ(ω)| decays algebraically with combined power
    // N (rotation factor, |·| ≈ 2/(ωROT) per request) + βN (Gamma factor)
    // — find the truncation point by doubling until |φ(ω)|/ω is far below
    // target accuracy (checked on the actual CF, robust for any N).
    let sigma = model.variance().sqrt().max(1e-9);
    let mut omega_max = (40.0 / sigma).max(model.transfer().alpha());
    while round_cf(model, omega_max).abs() / omega_max > 1e-15 && omega_max < 1e9 {
        omega_max *= 2.0;
    }
    // Panel width: resolve the e^{−iωt} oscillation (period 2π/t) and the
    // mean-scale phase of φ (period 2π/E[T]): several points per period
    // of the faster one.
    let period = (2.0 * PI / t_max).min(2.0 * PI / model.mean().max(1e-9));
    let panels = ((omega_max / period) * 4.0).ceil().clamp(64.0, 400_000.0) as usize;
    Ok(GaussLegendre::new(16)?.panel_points(0.0, omega_max, panels))
}

/// Exact `P[T_N ≥ t]` by Gil–Pelaez inversion.
///
/// Absolute accuracy ~1e-10 for the parameter ranges this workspace uses
/// (validated against closed forms and quadrature refinement); returned
/// values below ~1e-12 are quadrature noise floor, not resolved
/// probabilities. Clamped to `[0, 1]`.
///
/// # Errors
/// [`CoreError::Invalid`] for a non-positive `t`.
pub fn p_late_exact(model: &RoundService, t: f64) -> Result<f64, CoreError> {
    if !(t > 0.0) || !t.is_finite() {
        return Err(CoreError::Invalid(format!(
            "round length must be positive, got {t}"
        )));
    }
    if model.n() == 0 {
        return Ok(f64::from(u8::from(t <= model.seek_constant())));
    }
    let integral: f64 = quadrature(model, t)?
        .iter()
        .map(|&(omega, w)| {
            w * (Complex::from_polar(1.0, -omega * t) * round_cf(model, omega)).im / omega
        })
        .sum();
    let cdf = 0.5 - integral / PI;
    Ok((1.0 - cdf).clamp(0.0, 1.0))
}

/// Nodes per chunk of [`cdf_grid`]: a chunk's rotors (32 bytes a node)
/// stay in L1 across every grid point, and ~10k-node rules still split
/// across any sane worker count.
const CF_CHUNK: usize = 512;

/// One chunk of quadrature nodes as struct-of-arrays rotors: node `k`
/// holds `(w_k/ω_k)·φ(ω_k)·e^{−iω_k·t}` for the current grid point `t`
/// and its step `e^{−iω_kΔ}` to the next. Unused slots stay zero.
struct Rotors {
    re: [f64; CF_CHUNK],
    im: [f64; CF_CHUNK],
    step_re: [f64; CF_CHUNK],
    step_im: [f64; CF_CHUNK],
}

impl Rotors {
    /// Start every node at the seek floor, where the `e^{iω·SEEK}` phase
    /// of `φ` cancels: one complex `exp` of the log CF per node, one
    /// `from_polar` for its step of `delta`.
    fn at_seek_floor(model: &RoundService, nodes: &[(f64, f64)], delta: f64) -> Self {
        let mut r = Self {
            re: [0.0; CF_CHUNK],
            im: [0.0; CF_CHUNK],
            step_re: [0.0; CF_CHUNK],
            step_im: [0.0; CF_CHUNK],
        };
        for (k, &(omega, w)) in nodes.iter().enumerate() {
            let log = log_cf_above_seek(model, omega);
            let z = Complex::from_polar(w / omega * log.re.exp(), log.im);
            let step = Complex::from_polar(1.0, -omega * delta);
            (r.re[k], r.im[k], r.step_re[k], r.step_im[k]) = (z.re, z.im, step.re, step.im);
        }
        r
    }

    /// This chunk's share of `∫ Im(e^{−iωt}·φ(ω))/ω dω` at each of
    /// `points` grid points, stepping every rotor once per point.
    fn integrals(mut self, points: usize) -> Vec<f64> {
        // Interleaved partial sums: a fixed order the compiler vectorises.
        const LANES: usize = 8;
        (0..points)
            .map(|_| {
                let mut lanes = [0.0; LANES];
                for block in self.im.chunks_exact(LANES) {
                    for (lane, &x) in lanes.iter_mut().zip(block) {
                        *lane += x;
                    }
                }
                for k in 0..CF_CHUNK {
                    let (r, i) = (self.re[k], self.im[k]);
                    self.re[k] = r * self.step_re[k] - i * self.step_im[k];
                    self.im[k] = r * self.step_im[k] + i * self.step_re[k];
                }
                lanes.iter().sum()
            })
            .collect()
    }
}

/// `F(t_j) = P[T ≤ t_j]` by Gil–Pelaez inversion, clamped to `[0, 1]`,
/// on the uniform grid `t_j = SEEK + j·(hi − SEEK)/(points − 1)`.
///
/// One pass over the quadrature nodes for the fastest oscillation (at
/// `hi`). Chunks of nodes fan out over the global worker pool and their
/// partial sums are added in chunk order, so the grid is bit-identical
/// for any worker count.
///
/// # Errors
/// [`CoreError::Invalid`] for an empty round (`n == 0` has a degenerate,
/// deterministic distribution) or fewer than 2 points.
pub(crate) fn cdf_grid(
    model: &RoundService,
    hi: f64,
    points: usize,
) -> Result<Vec<f64>, CoreError> {
    if model.n() == 0 || points < 2 {
        return Err(CoreError::Invalid(format!(
            "CDF grid needs n >= 1 and >= 2 points, got n = {}, {points} points",
            model.n()
        )));
    }
    let lo = model.seek_constant();
    let nodes = quadrature(model, hi)?;
    let delta = (hi - lo) / (points - 1) as f64;
    let partials = mzd_par::par_map_indexed(nodes.len().div_ceil(CF_CHUNK), |c| {
        let chunk = &nodes[c * CF_CHUNK..((c + 1) * CF_CHUNK).min(nodes.len())];
        Rotors::at_seek_floor(model, chunk, delta).integrals(points)
    });
    let mut integral = vec![0.0; points];
    for partial in partials {
        for (sum, p) in integral.iter_mut().zip(partial) {
            *sum += p;
        }
    }
    Ok(integral
        .into_iter()
        .map(|s| (0.5 - s / PI).clamp(0.0, 1.0))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::TransferTimeModel;
    use crate::GuaranteeModel;

    fn paper_round(n: u32) -> RoundService {
        GuaranteeModel::paper_reference()
            .unwrap()
            .round_service(n)
            .unwrap()
    }

    #[test]
    fn matches_gamma_closed_form_without_seek_or_rotation() {
        // With negligible rotation and zero SEEK, T_N ~ Gamma(Nβ, α).
        let transfer = TransferTimeModel::from_moments(0.02, 2e-4).unwrap();
        let m = RoundService::new(0.0, 1e-9, transfer, 20).unwrap();
        let shape = 20.0 * transfer.beta();
        let rate = transfer.alpha();
        for &t in &[0.3, 0.45, 0.6, 0.8] {
            let exact_gamma = 1.0 - mzd_numerics::special::gamma_p(shape, rate * t).unwrap();
            let inverted = p_late_exact(&m, t).unwrap();
            assert!(
                (inverted - exact_gamma).abs() < 1e-7,
                "t = {t}: inversion {inverted} vs closed form {exact_gamma}"
            );
        }
    }

    #[test]
    fn bracketed_by_saddlepoint_intuition_and_chernoff() {
        // exact <= chernoff always; saddlepoint within ~15% of exact in
        // the moderate tail.
        for n in [26u32, 28, 30] {
            let m = paper_round(n);
            let exact = p_late_exact(&m, 1.0).unwrap();
            let chernoff = m.p_late_bound(1.0).probability;
            let saddle = crate::saddlepoint::p_late_saddlepoint(&m, 1.0)
                .unwrap()
                .probability;
            assert!(exact <= chernoff + 1e-12, "n = {n}");
            assert!(
                (saddle / exact - 1.0).abs() < 0.15,
                "n = {n}: saddlepoint {saddle} vs exact {exact}"
            );
        }
    }

    #[test]
    fn median_is_near_the_mean_for_mild_skew() {
        // At t = E[T_N] the tail should be close to (slightly above) 1/2
        // for the mildly right-skewed round total.
        let m = paper_round(27);
        let p = p_late_exact(&m, m.mean()).unwrap();
        assert!((p - 0.5).abs() < 0.05, "P[T >= mean] = {p}");
    }

    #[test]
    fn cdf_is_monotone_in_t() {
        let m = paper_round(28);
        let mut prev = 1.0;
        for i in 0..10 {
            let t = 0.7 + 0.05 * f64::from(i);
            let p = p_late_exact(&m, t).unwrap();
            assert!(p <= prev + 1e-9, "t = {t}: {p} > {prev}");
            prev = p;
        }
    }

    #[test]
    fn probabilities_in_range_and_edges() {
        let m = paper_round(26);
        for &t in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            let p = p_late_exact(&m, t).unwrap();
            assert!((0.0..=1.0).contains(&p), "t = {t}: {p}");
        }
        // Far left: certainly late. Far right: certainly on time.
        assert!(p_late_exact(&m, 0.05).unwrap() > 0.999_99);
        assert!(p_late_exact(&m, 3.0).unwrap() < 1e-6);
        assert!(p_late_exact(&m, 0.0).is_err());
        let empty = RoundService::new(
            0.0,
            0.00834,
            TransferTimeModel::from_moments(0.02, 1e-4).unwrap(),
            0,
        )
        .unwrap();
        assert_eq!(p_late_exact(&empty, 1.0).unwrap(), 0.0);
    }

    #[test]
    fn tracks_simulation_closely_at_paper_settings() {
        // EXPERIMENTS.md E1 (20k rounds): sim p_late(29) = 0.0149
        // [0.0133, 0.0167], p_late(31) = 0.0885 [0.0846, 0.0925]. The
        // exact model tail should sit inside or just above those CIs (the
        // model's SEEK is worst-case, so "exact" is still slightly
        // conservative vs the simulated system).
        let p29 = p_late_exact(&paper_round(29), 1.0).unwrap();
        assert!((0.012..0.030).contains(&p29), "exact p_late(29) = {p29}");
        let p31 = p_late_exact(&paper_round(31), 1.0).unwrap();
        assert!((0.08..0.16).contains(&p31), "exact p_late(31) = {p31}");
    }
}
