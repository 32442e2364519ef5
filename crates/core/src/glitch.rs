//! Per-stream glitch probability (§3.3).
//!
//! When a round overruns, only the requests served after the deadline are
//! late. With fragments allocated at uncorrelated sweep positions across
//! rounds, the late streams are a uniformly random subset, so
//!
//! ```text
//! P[stream i glitches in one round] = (1/N) Σ_{k=1..N} p_late(k, t)   (eq. 3.3.2)
//! ```
//!
//! Over a stream of `M` rounds the glitch count is Binomial(M, p_glitch)
//! (eq. 3.3.4); its tail is bounded by the Hagerup–Rüb form of the
//! Chernoff bound (eq. 3.3.5), with the exact tail also provided for
//! validation.

use mzd_numerics::special::ln_choose;

use crate::CoreError;

/// The per-round, per-stream glitch probability bound
/// `b_glitch(N, t) = (1/N) Σ_{k=1..N} b_late(k, t)` (eq. 3.3.3), kept as
/// one lazily extended prefix sum of the clamped `p_late(k)` terms.
///
/// `p_late(k)` must return the (bound on the) probability that a round of
/// `k` requests misses the deadline. Every bound at `n` reuses the terms
/// already summed for smaller `n`, so an upward `N_max` scan (eq. 3.3.6)
/// evaluates each `k` once — one Chernoff minimization per candidate —
/// and a later walk back down evaluates nothing. The terms are added
/// left to right from `k = 1`, so the bound at `n` has the same bits
/// whatever order the `n` are asked in.
#[derive(Debug)]
pub struct GlitchScan<F> {
    p_late: F,
    /// `prefix[k] = Σ_{j=1..k} clamp(p_late(j), 0, 1)`; `prefix[0] = 0`.
    prefix: Vec<f64>,
}

impl<F: FnMut(u32) -> f64> GlitchScan<F> {
    /// An empty scan over `p_late`; nothing is evaluated until a bound
    /// is asked for.
    pub fn new(p_late: F) -> Self {
        Self {
            p_late,
            prefix: vec![0.0],
        }
    }

    /// `b_glitch(n, t)` (eq. 3.3.3), clamped to 1. Evaluates `p_late(k)`
    /// only for the `k ≤ n` not yet summed. Returns 0 for `n == 0`.
    pub fn p_glitch(&mut self, n: u32) -> f64 {
        if n == 0 {
            return 0.0;
        }
        while self.prefix.len() <= n as usize {
            let k = self.prefix.len() as u32;
            let sum = self.prefix[k as usize - 1] + (self.p_late)(k).clamp(0.0, 1.0);
            self.prefix.push(sum);
        }
        (self.prefix[n as usize] / f64::from(n)).min(1.0)
    }

    /// `p_error(n, t, m, g)` (eq. 3.3.5): the Hagerup–Rüb tail at
    /// [`Self::p_glitch`].
    pub fn p_error(&mut self, n: u32, m: u64, g: u64) -> f64 {
        stream_error_bound(self.p_glitch(n), m, g)
    }

    /// `N_max` under the per-stream glitch-rate criterion (eq. 3.3.6):
    /// the largest `n` with `p_error(n, t, m, g) ≤ epsilon`. Evaluates
    /// `p_late(k)` for `k = 1..=N_max + 1` at most, each once.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for `epsilon` outside `(0, 1]`.
    pub fn n_max_error(&mut self, m: u64, g: u64, epsilon: f64) -> Result<u32, CoreError> {
        crate::validate_threshold(epsilon)?;
        Ok(crate::admission::n_max(|n| self.p_error(n, m, g), epsilon))
    }
}

/// The Hagerup–Rüb Chernoff bound on the upper binomial tail
/// `P[Bin(m, p) ≥ g]` (eq. 3.3.5):
///
/// ```text
/// (mp/g)^g · ((m − mp)/(m − g))^(m−g)      for g/m > p
/// ```
///
/// Evaluated in the log domain. Returns 1 when `g/m ≤ p` (the bound is
/// only valid — and only useful — above the mean), 1 for `g == 0`, and
/// `p^m` for `g == m` (the formula's continuous limit, which equals the
/// exact tail there).
#[must_use]
pub fn binomial_tail_chernoff(p: f64, m: u64, g: u64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    if g == 0 || m == 0 {
        return 1.0;
    }
    if g > m {
        return 0.0;
    }
    let mf = m as f64;
    let gf = g as f64;
    if gf / mf <= p {
        return 1.0;
    }
    if p == 0.0 {
        return 0.0;
    }
    let mut ln_bound = gf * (mf * p / gf).ln();
    if g < m {
        ln_bound += (mf - gf) * ((mf - mf * p) / (mf - gf)).ln();
    }
    ln_bound.exp().min(1.0)
}

/// Exact upper binomial tail `P[Bin(m, p) ≥ g]`, summed in the log domain
/// with a max shift for numerical stability. `O(m − g)` terms; fine for
/// the paper's `M = 1200`.
#[must_use]
pub fn binomial_tail_exact(p: f64, m: u64, g: u64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    if g == 0 {
        return 1.0;
    }
    if g > m {
        return 0.0;
    }
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    let ln_p = p.ln();
    let ln_q = (-p).ln_1p(); // ln(1 − p) without cancellation for small p
    let terms: Vec<f64> = (g..=m)
        .map(|k| ln_choose(m, k) + k as f64 * ln_p + (m - k) as f64 * ln_q)
        .collect();
    let max = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return 0.0;
    }
    let sum: f64 = terms.iter().map(|&t| (t - max).exp()).sum();
    (max + sum.ln()).exp().min(1.0)
}

/// The probability that a stream of `m` rounds suffers `g` or more
/// glitches, given the per-round glitch probability bound — the paper's
/// `p_error` (eq. 3.3.5). Uses Hagerup–Rüb by default.
#[must_use]
pub fn stream_error_bound(p_glitch: f64, m: u64, g: u64) -> f64 {
    binomial_tail_chernoff(p_glitch, m, g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glitch_bound_averages_p_late() {
        // p_late(k) = k/10 → average over k=1..4 is (1+2+3+4)/(10·4) = 0.25.
        let b = GlitchScan::new(|k| f64::from(k) / 10.0).p_glitch(4);
        assert!((b - 0.25).abs() < 1e-12);
    }

    #[test]
    fn glitch_bound_edge_cases() {
        assert_eq!(GlitchScan::new(|_| 0.5).p_glitch(0), 0.0);
        // Clamped to 1 even if the per-round bounds are vacuous.
        assert_eq!(GlitchScan::new(|_| 2.0).p_glitch(5), 1.0);
        // All-zero late probabilities → zero glitch probability.
        assert_eq!(GlitchScan::new(|_| 0.0).p_glitch(5), 0.0);
    }

    #[test]
    fn glitch_bound_evaluates_every_k_once() {
        let mut calls = Vec::new();
        let mut scan = GlitchScan::new(|k| {
            calls.push(k);
            f64::from(k) / 64.0
        });
        // Up, down, repeated and past the end: each k is summed once,
        // in order, and a bound below the summed prefix costs nothing.
        let b6 = scan.p_glitch(6);
        let b3 = scan.p_glitch(3);
        assert_eq!(scan.p_glitch(6).to_bits(), b6.to_bits());
        let b8 = scan.p_glitch(8);
        drop(scan);
        assert_eq!(calls, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert!((b3 - 2.0 / 64.0).abs() < 1e-15);
        assert!(b3 < b6 && b6 < b8);
    }

    #[test]
    fn scan_n_max_probes_to_the_first_violation_only() {
        let mut calls = 0;
        // p_glitch(n) = (n + 1)/200 for a linear p_late(k) = k/100.
        let mut scan = GlitchScan::new(|k| {
            calls += 1;
            f64::from(k) / 100.0
        });
        // Binomial tail of 1 glitch in 1 round = p_glitch itself.
        let n = scan.n_max_error(1, 1, 0.1025).unwrap();
        assert!(scan.n_max_error(1, 1, 0.0).is_err());
        assert!(scan.n_max_error(1, 1, 1.5).is_err());
        drop(scan);
        // (n + 1)/200 ≤ 0.1025 ⇔ n ≤ 19; n = 20 is the first violation.
        assert_eq!(n, 19);
        assert_eq!(calls, 20);
    }

    #[test]
    fn scan_sums_left_to_right_like_the_eq_333_fold() {
        // Terms whose sum depends on the association order.
        let p = |k: u32| [1e-3, 1e-19, 3e-17, 0.7, 1e-16, 0.2, 5e-18][k as usize - 1];
        let mut scan = GlitchScan::new(p);
        for n in (1..=7u32).rev().chain(1..=7) {
            let fold: f64 = (1..=n).map(p).sum();
            let want = (fold / f64::from(n)).min(1.0);
            assert_eq!(scan.p_glitch(n).to_bits(), want.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn chernoff_tail_dominates_exact_tail() {
        for &p in &[0.001, 0.005, 0.02, 0.1] {
            for &(m, g) in &[(1200u64, 12u64), (1200, 24), (100, 5), (50, 50)] {
                let exact = binomial_tail_exact(p, m, g);
                let bound = binomial_tail_chernoff(p, m, g);
                assert!(
                    bound >= exact - 1e-12,
                    "p={p}, m={m}, g={g}: bound {bound} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn chernoff_tail_paper_example() {
        // §3.3: N = 28 gives p_glitch such that P[≥ 12 glitches in 1200
        // rounds] ≤ 0.14e-3. With p_glitch ≈ 2.4e-3 the bound is ≈ 1.4e-4;
        // check the formula's value for a representative p.
        let b = binomial_tail_chernoff(0.0024, 1200, 12);
        assert!(b < 1e-3 && b > 1e-6, "bound = {b}");
    }

    #[test]
    fn tails_handle_edges() {
        // g = 0: trivially 1.
        assert_eq!(binomial_tail_chernoff(0.5, 100, 0), 1.0);
        assert_eq!(binomial_tail_exact(0.5, 100, 0), 1.0);
        // g > m: impossible.
        assert_eq!(binomial_tail_chernoff(0.5, 10, 11), 0.0);
        assert_eq!(binomial_tail_exact(0.5, 10, 11), 0.0);
        // g = m: both equal p^m.
        let p = 0.3f64;
        assert!((binomial_tail_chernoff(p, 10, 10) - p.powi(10)).abs() < 1e-15);
        assert!((binomial_tail_exact(p, 10, 10) - p.powi(10)).abs() < 1e-15);
        // Below-mean g: the bound is vacuous.
        assert_eq!(binomial_tail_chernoff(0.5, 100, 40), 1.0);
        // p = 0 / p = 1.
        assert_eq!(binomial_tail_chernoff(0.0, 100, 5), 0.0);
        assert_eq!(binomial_tail_exact(0.0, 100, 5), 0.0);
        assert_eq!(binomial_tail_exact(1.0, 100, 5), 1.0);
        // m = 0 with g = 0.
        assert_eq!(binomial_tail_exact(0.5, 0, 0), 1.0);
    }

    #[test]
    fn exact_tail_matches_direct_small_case() {
        // Bin(4, 0.5): P[X ≥ 3] = (4 + 1)/16 = 0.3125.
        let t = binomial_tail_exact(0.5, 4, 3);
        assert!((t - 0.3125).abs() < 1e-12);
        // Bin(3, 0.2): P[X ≥ 1] = 1 − 0.8³ = 0.488.
        let t = binomial_tail_exact(0.2, 3, 1);
        assert!((t - 0.488).abs() < 1e-12);
    }

    #[test]
    fn exact_tail_extreme_small_probability() {
        // P[Bin(1200, 1e-5) ≥ 12] is astronomically small but must not
        // underflow to garbage.
        let t = binomial_tail_exact(1e-5, 1200, 12);
        assert!(t > 0.0 && t < 1e-20);
        let b = binomial_tail_chernoff(1e-5, 1200, 12);
        assert!(b >= t);
    }

    #[test]
    fn chernoff_tail_is_monotone_in_p() {
        let mut prev = 0.0;
        for i in 1..40 {
            let p = f64::from(i) * 0.0002;
            let b = binomial_tail_chernoff(p, 1200, 12);
            assert!(b >= prev - 1e-15, "p = {p}");
            prev = b;
        }
    }

    #[test]
    fn stream_error_bound_is_hagerup_rub() {
        assert_eq!(
            stream_error_bound(0.002, 1200, 12),
            binomial_tail_chernoff(0.002, 1200, 12)
        );
    }
}
