//! Stochastic service guarantees for continuous data on multi-zone disks.
//!
//! A production-oriented implementation of the analytic model of
//! **Nerjes, Muth & Weikum, "Stochastic Service Guarantees for Continuous
//! Data on Multi-Zone Disks", PODS 1997**: given a disk (crate
//! [`mzd_disk`]), a fragment-size workload (crate [`mzd_workload`]) and a
//! round length, the model bounds
//!
//! 1. `p_late(N, t)` — the probability that a SCAN round serving `N`
//!    requests overruns the round length `t` (§3.1–3.2, Chernoff bound on
//!    the Laplace–Stieltjes transform of the round service time);
//! 2. `p_glitch(N, t)` — the probability that a *particular* stream
//!    glitches in one round (§3.3, eq. 3.3.3);
//! 3. `p_error(N, t, M, g)` — the probability that a stream of `M` rounds
//!    suffers `g` or more glitches (§3.3, Hagerup–Rüb binomial tail);
//!
//! and derives the admission limits `N_max` (eq. 3.1.7, 3.3.6) plus the
//! deterministic worst-case baseline (eq. 4.1) for comparison.
//!
//! # Quick example
//!
//! ```
//! use mzd_core::GuaranteeModel;
//!
//! // The paper's reference configuration: Quantum Viking 2.1, Gamma
//! // fragments with mean 200 KB and standard deviation 100 KB.
//! let model = GuaranteeModel::paper_reference().unwrap();
//!
//! // How many concurrent streams keep the per-round overrun probability
//! // under 1% with 1-second rounds? (The paper's answer: 26.)
//! let n_max = model.n_max_late(1.0, 0.01).unwrap();
//! assert_eq!(n_max, 26);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod baselines;
pub mod cdf;
pub mod chernoff;
pub mod exact;
pub mod glitch;
pub mod mixed;
pub mod planning;
pub mod saddlepoint;
pub mod transfer;
pub mod transform;
pub mod worstcase;

pub use admission::AdmissionTable;
pub use baselines::{BaselineTail, SeekMoments, TailMethod};
pub use cdf::ServiceTimeCdf;
pub use chernoff::{ChernoffBound, RoundService};
pub use exact::p_late_exact;
pub use mixed::MixedRoundModel;
pub use planning::{disks_for_population, min_round_length, round_length_sweep, RoundLengthPlan};
pub use saddlepoint::{p_late_saddlepoint, SaddlepointTail};
pub use transfer::{TransferTimeDensity, TransferTimeModel, ZoneHandling};
pub use worstcase::{WorstCaseInputs, WorstCaseRate};

use mzd_disk::{oyang, Disk};

/// Errors from the analytic model.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A model parameter was invalid.
    Invalid(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Invalid(msg) => write!(f, "invalid model parameters: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<mzd_numerics::NumericsError> for CoreError {
    fn from(e: mzd_numerics::NumericsError) -> Self {
        CoreError::Invalid(e.to_string())
    }
}

/// The complete service-guarantee model for one disk and one fragment-size
/// workload: the crate's main entry point.
///
/// All probabilities returned are *upper bounds* (the model is
/// conservative by construction — Figure 1 of the paper); all `N` values
/// are per disk, with load assumed balanced across disks by round-robin
/// striping (§2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct GuaranteeModel {
    disk: Disk,
    size_mean: f64,
    size_variance: f64,
    handling: ZoneHandling,
    transfer: TransferTimeModel,
}

impl GuaranteeModel {
    /// Build a model for `disk` and Gamma fragments with the given moments
    /// (bytes, bytes²), handling zones per `handling`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for non-positive moments or a zone handling
    /// incompatible with the disk (continuous on a single-zone drive).
    pub fn new(
        disk: Disk,
        size_mean: f64,
        size_variance: f64,
        handling: ZoneHandling,
    ) -> Result<Self, CoreError> {
        let transfer = TransferTimeModel::multi_zone(&disk, size_mean, size_variance, handling)?;
        Ok(Self {
            disk,
            size_mean,
            size_variance,
            handling,
            transfer,
        })
    }

    /// The paper's reference configuration (Table 1): Quantum Viking 2.1
    /// with Gamma(mean 200 KB, sd 100 KB) fragments, exact discrete zone
    /// handling.
    ///
    /// # Errors
    /// Never in practice; propagated for uniformity.
    pub fn paper_reference() -> Result<Self, CoreError> {
        let disk = mzd_disk::profiles::quantum_viking_2_1()
            .build()
            .map_err(|e| CoreError::Invalid(e.to_string()))?;
        Self::new(disk, 200_000.0, 1e10, ZoneHandling::Discrete)
    }

    /// The same model with its transfer time inflated by a fault model
    /// (`mzd_fault::FaultModel`): media-error rereads, transient stalls
    /// and remap detours enter as the moment-matched mixture of
    /// [`TransferTimeModel::with_faults`], and every downstream guarantee
    /// — `p_late`, `n_max`, the admission tables, the service-time CDF —
    /// then prices the faults automatically. With a non-trivial fault
    /// model the admitted `n_max` shrinks relative to the clean model.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for an out-of-range fault model.
    pub fn with_faults(&self, faults: &mzd_fault::FaultModel) -> Result<Self, CoreError> {
        let full_seek = self.disk.seek_curve().max_seek_time(self.disk.cylinders());
        let transfer = self
            .transfer
            .with_faults(faults, self.disk.rotation_time(), full_seek)?;
        Ok(Self {
            transfer,
            ..self.clone()
        })
    }

    /// The disk this model describes.
    #[must_use]
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Fragment-size mean, bytes.
    #[must_use]
    pub fn size_mean(&self) -> f64 {
        self.size_mean
    }

    /// Fragment-size variance, bytes².
    #[must_use]
    pub fn size_variance(&self) -> f64 {
        self.size_variance
    }

    /// The zone handling in effect.
    #[must_use]
    pub fn zone_handling(&self) -> ZoneHandling {
        self.handling
    }

    /// The moment-matched per-request transfer-time Gamma.
    #[must_use]
    pub fn transfer_model(&self) -> &TransferTimeModel {
        &self.transfer
    }

    /// The Oyang `SEEK` constant for a round of `n` requests, seconds.
    #[must_use]
    pub fn seek_constant(&self, n: u32) -> f64 {
        oyang::seek_bound(self.disk.seek_curve(), self.disk.cylinders(), n)
    }

    /// The round service-time model for `n` requests.
    ///
    /// # Errors
    /// Never for a validly-constructed model; propagated for uniformity.
    pub fn round_service(&self, n: u32) -> Result<RoundService, CoreError> {
        RoundService::new(
            self.seek_constant(n),
            self.disk.rotation_time(),
            self.transfer,
            n,
        )
    }

    /// Bound on `P[round of n requests overruns t]` — `b_late(n, t)` of
    /// eq. 3.1.6 / 3.2.12.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for a non-positive round length.
    pub fn p_late_bound(&self, n: u32, t: f64) -> Result<f64, CoreError> {
        validate_round_length(t)?;
        Ok(self.round_service(n)?.p_late_bound(t).probability)
    }

    /// Saddlepoint (Lugannani–Rice) *estimate* of `P[T_N ≥ t]` — near-
    /// exact, but not a bound; see [`saddlepoint`]. Use it for capacity
    /// studies; use [`Self::p_late_bound`] for guarantees.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for a non-positive round length.
    pub fn p_late_estimate(&self, n: u32, t: f64) -> Result<f64, CoreError> {
        validate_round_length(t)?;
        Ok(saddlepoint::p_late_saddlepoint(&self.round_service(n)?, t)?.probability)
    }

    /// *Exact* `P[T_N ≥ t]` for the model, by Gil–Pelaez inversion of the
    /// characteristic function (see [`exact`]). The ground truth for the
    /// modeled distribution — slower than the bound, noise-free unlike a
    /// simulation.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for a non-positive round length.
    pub fn p_late_exact(&self, n: u32, t: f64) -> Result<f64, CoreError> {
        validate_round_length(t)?;
        exact::p_late_exact(&self.round_service(n)?, t)
    }

    /// The predicted CDF `F_n(t) = P[T_n ≤ t]` at a single point, by the
    /// exact inversion — the complement of [`Self::p_late_exact`], with
    /// `t ≤ 0` mapping to 0. This is the probability-integral-transform
    /// primitive for online conformance checking; for repeated
    /// evaluation at a fixed `n` prefer the tabulated
    /// [`cdf::ServiceTimeCdf`].
    ///
    /// # Errors
    /// Numeric errors propagated from the exact inversion.
    pub fn service_time_cdf(&self, n: u32, t: f64) -> Result<f64, CoreError> {
        if !(t > 0.0) {
            return Ok(0.0);
        }
        Ok((1.0 - exact::p_late_exact(&self.round_service(n)?, t)?).clamp(0.0, 1.0))
    }

    /// Bound on the per-round glitch probability of one stream among `n` —
    /// `b_glitch(n, t)` of eq. 3.3.3.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for a non-positive round length.
    pub fn p_glitch_bound(&self, n: u32, t: f64) -> Result<f64, CoreError> {
        validate_round_length(t)?;
        Ok(glitch::glitch_probability_bound(n, |k| {
            self.round_service(k)
                .map(|r| r.p_late_bound(t).probability)
                .unwrap_or(1.0)
        }))
    }

    /// Bound on `P[stream of m rounds suffers ≥ g glitches]` — `p_error`
    /// of eq. 3.3.5 (Hagerup–Rüb over the per-round glitch bound).
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for a non-positive round length.
    pub fn p_error_bound(&self, n: u32, t: f64, m: u64, g: u64) -> Result<f64, CoreError> {
        let p_glitch = self.p_glitch_bound(n, t)?;
        Ok(glitch::stream_error_bound(p_glitch, m, g))
    }

    /// The fully *exact* model pipeline for `p_error`: exact per-round
    /// tails (Gil-Pelaez) through eq. 3.3.2 and the exact binomial tail -
    /// no Chernoff step anywhere. Ground truth for the modeled system;
    /// `O(n)` characteristic-function inversions per call.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for a non-positive round length.
    pub fn p_error_exact(&self, n: u32, t: f64, m: u64, g: u64) -> Result<f64, CoreError> {
        validate_round_length(t)?;
        let mut err = None;
        let p_glitch = glitch::glitch_probability_bound(n, |k| {
            match self
                .round_service(k)
                .and_then(|r| exact::p_late_exact(&r, t))
            {
                Ok(p) => p,
                Err(e) => {
                    err = Some(e);
                    1.0
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        Ok(glitch::binomial_tail_exact(p_glitch, m, g))
    }

    /// `N_max` under the per-round overrun criterion (eq. 3.1.7):
    /// the largest `N` with `p_late(N, t) ≤ delta`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for a non-positive round length or a
    /// threshold outside `(0, 1]`.
    pub fn n_max_late(&self, t: f64, delta: f64) -> Result<u32, CoreError> {
        validate_threshold(delta)?;
        validate_round_length(t)?;
        Ok(admission::n_max(
            |n| {
                self.round_service(n)
                    .map(|r| r.p_late_bound(t).probability)
                    .unwrap_or(1.0)
            },
            delta,
        ))
    }

    /// `N_max` under the per-stream glitch-rate criterion (eq. 3.3.6):
    /// the largest `N` with `p_error(N, t, m, g) ≤ epsilon`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for invalid `t` or `epsilon`.
    pub fn n_max_error(&self, t: f64, m: u64, g: u64, epsilon: f64) -> Result<u32, CoreError> {
        validate_threshold(epsilon)?;
        validate_round_length(t)?;
        Ok(admission::n_max(
            |n| {
                self.p_error_bound(n, t, m, g)
                    .expect("round length validated above")
            },
            epsilon,
        ))
    }

    /// Precompute the §5 admission lookup table over per-round overrun
    /// tolerances.
    ///
    /// # Errors
    /// Propagates threshold-validation errors.
    pub fn admission_table_late(
        &self,
        t: f64,
        thresholds: &[f64],
    ) -> Result<AdmissionTable, CoreError> {
        validate_round_length(t)?;
        AdmissionTable::build(thresholds, |n| {
            self.p_late_bound(n, t).expect("validated above")
        })
    }

    /// Precompute the §5 admission lookup table over per-stream `p_error`
    /// tolerances.
    ///
    /// # Errors
    /// Propagates threshold-validation errors.
    pub fn admission_table_error(
        &self,
        t: f64,
        m: u64,
        g: u64,
        thresholds: &[f64],
    ) -> Result<AdmissionTable, CoreError> {
        validate_round_length(t)?;
        AdmissionTable::build(thresholds, |n| {
            self.p_error_bound(n, t, m, g).expect("validated above")
        })
    }

    /// The deterministic worst-case admission limit (eq. 4.1) for this
    /// disk and workload, for contrast with the stochastic limits.
    ///
    /// # Errors
    /// Propagates input-derivation failures.
    pub fn n_max_worst_case(
        &self,
        t: f64,
        size_percentile: f64,
        rate: WorstCaseRate,
    ) -> Result<u32, CoreError> {
        let sizes = mzd_workload::SizeDistribution::gamma(self.size_mean, self.size_variance)
            .map_err(|e| CoreError::Invalid(e.to_string()))?;
        let inputs = worstcase::worst_case_inputs(&self.disk, &sizes, size_percentile, rate)?;
        worstcase::n_max_worst_case(t, &inputs)
    }
}

fn validate_threshold(x: f64) -> Result<(), CoreError> {
    if !(x > 0.0) || x > 1.0 {
        return Err(CoreError::Invalid(format!(
            "probability threshold must be in (0, 1], got {x}"
        )));
    }
    Ok(())
}

fn validate_round_length(t: f64) -> Result<(), CoreError> {
    if !(t > 0.0) || !t.is_finite() {
        return Err(CoreError::Invalid(format!(
            "round length must be positive, got {t}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GuaranteeModel {
        GuaranteeModel::paper_reference().unwrap()
    }

    #[test]
    fn paper_32_example_p_late() {
        // §3.2: on the Table 1 disk with t = 1 s, p_late(26) ≈ 0.00324 and
        // p_late(27) ≈ 0.0133.
        let m = model();
        let p26 = m.p_late_bound(26, 1.0).unwrap();
        let p27 = m.p_late_bound(27, 1.0).unwrap();
        assert!((p26 - 0.00324).abs() < 0.001, "p_late(26) = {p26}");
        assert!((p27 - 0.0133).abs() < 0.004, "p_late(27) = {p27}");
    }

    #[test]
    fn paper_32_n_max_under_one_percent() {
        // §3.2: "if the goal is to limit the probability of one round
        // being late by 1 percent, then N = 26 is the maximum".
        assert_eq!(model().n_max_late(1.0, 0.01).unwrap(), 26);
    }

    #[test]
    fn fault_inflation_shrinks_admission() {
        // A 1% media-error profile must strictly lower n_max: every
        // reread burns a rotation plus a full re-transfer, so the
        // inflated transfer law admits fewer streams at the same risk.
        let clean = model();
        let faults = mzd_fault::FaultModel {
            p_media: 0.01,
            ..mzd_fault::FaultModel::clean()
        };
        let faulty = clean.with_faults(&faults).unwrap();
        assert!(faulty.transfer_model().mean() > clean.transfer_model().mean());
        assert!(faulty.transfer_model().variance() > clean.transfer_model().variance());
        // Glitch-rate criterion (eq. 3.3.6): the paper's 28 drops to 27.
        let n_clean = clean.n_max_error(1.0, 1200, 12, 0.01).unwrap();
        let n_faulty = faulty.n_max_error(1.0, 1200, 12, 0.01).unwrap();
        assert_eq!(n_clean, 28);
        assert!(n_faulty < n_clean, "faulty n_max {n_faulty} ≥ {n_clean}");
        // Overrun criterion: 1% media errors eat most of the 0.01-margin
        // (p_late(26) roughly doubles) without crossing it; the `flaky`
        // preset's added stalls and remaps push it over.
        assert_eq!(clean.n_max_late(1.0, 0.01).unwrap(), 26);
        assert!(faulty.p_late_bound(26, 1.0).unwrap() > 2.0 * clean.p_late_bound(26, 1.0).unwrap());
        let flaky = mzd_fault::FaultModel::from_config(
            &mzd_fault::FaultConfig::preset("flaky").expect("known preset"),
        );
        let degraded = clean.with_faults(&flaky).unwrap();
        assert!(degraded.n_max_late(1.0, 0.01).unwrap() < 26);
        // A clean fault model is the identity.
        let same = clean.with_faults(&mzd_fault::FaultModel::clean()).unwrap();
        assert_eq!(same.n_max_error(1.0, 1200, 12, 0.01).unwrap(), n_clean);
    }

    #[test]
    fn paper_33_example_p_error() {
        // §3.3: N = 28, M = 1200, g = 12 → p_error ≤ 0.14e-3.
        let p = model().p_error_bound(28, 1.0, 1200, 12).unwrap();
        assert!(p < 1e-3, "p_error(28) = {p}");
        assert!(p > 1e-6, "p_error(28) = {p} suspiciously small");
    }

    #[test]
    fn paper_table_2_analytic_column() {
        // Table 2: p_error = 0.00014 at N=28, 0.318 at N=29, 1 at N=30+.
        let m = model();
        let p28 = m.p_error_bound(28, 1.0, 1200, 12).unwrap();
        let p29 = m.p_error_bound(29, 1.0, 1200, 12).unwrap();
        let p30 = m.p_error_bound(30, 1.0, 1200, 12).unwrap();
        assert!(
            (p28.log10() - (0.00014f64).log10()).abs() < 0.7,
            "p28 = {p28}"
        );
        #[allow(clippy::approx_constant)] // 0.318 is Table 2's value, not 1/pi
        let paper_p29 = 0.318;
        assert!((p29 - paper_p29).abs() < 0.15, "p29 = {p29}");
        assert!(p30 > 0.9, "p30 = {p30}");
    }

    #[test]
    fn paper_33_n_max_error() {
        // §4: "The analytic bound according to (3.3.6) would be 28".
        assert_eq!(model().n_max_error(1.0, 1200, 12, 0.01).unwrap(), 28);
    }

    #[test]
    fn worst_case_limits() {
        let m = model();
        assert_eq!(
            m.n_max_worst_case(1.0, 0.99, WorstCaseRate::Innermost)
                .unwrap(),
            10
        );
        assert_eq!(
            m.n_max_worst_case(1.0, 0.95, WorstCaseRate::MidRange)
                .unwrap(),
            14
        );
    }

    #[test]
    fn glitch_bound_below_late_bound() {
        // b_glitch averages b_late(k) over k ≤ N, so it is at most
        // b_late(N).
        let m = model();
        for n in [10u32, 20, 26, 30] {
            let g = m.p_glitch_bound(n, 1.0).unwrap();
            let l = m.p_late_bound(n, 1.0).unwrap();
            assert!(g <= l + 1e-12, "n = {n}: glitch {g} > late {l}");
        }
    }

    #[test]
    fn admission_tables_match_direct_searches() {
        let m = model();
        let table = m
            .admission_table_late(1.0, &[0.001, 0.01, 0.05, 0.2])
            .unwrap();
        for (thr, nm) in table.rows() {
            assert_eq!(nm, m.n_max_late(1.0, thr).unwrap(), "threshold {thr}");
        }
        let table = m
            .admission_table_error(1.0, 1200, 12, &[0.001, 0.01, 0.1])
            .unwrap();
        for (thr, nm) in table.rows() {
            assert_eq!(nm, m.n_max_error(1.0, 1200, 12, thr).unwrap());
        }
    }

    #[test]
    fn exact_p_error_pipeline_vs_table_2() {
        // The exact pipeline should land between the simulated Table 2
        // values and the Chernoff-bound column: near 0 at N = 28-29,
        // transitioning around N = 31.
        let m = model();
        let p28 = m.p_error_exact(28, 1.0, 1200, 12).unwrap();
        assert!(p28 < 1e-4, "exact p_error(28) = {p28}");
        let p31 = m.p_error_exact(31, 1.0, 1200, 12).unwrap();
        let p32 = m.p_error_exact(32, 1.0, 1200, 12).unwrap();
        assert!(p31 < p32, "monotone in N");
        assert!(p32 > 0.5, "exact p_error(32) = {p32} (paper sim: 0.454)");
        // Always dominated by the full Chernoff pipeline.
        for n in [28u32, 30, 32] {
            let exact = m.p_error_exact(n, 1.0, 1200, 12).unwrap();
            let bound = m.p_error_bound(n, 1.0, 1200, 12).unwrap();
            assert!(exact <= bound + 1e-9, "n = {n}: {exact} > {bound}");
        }
    }

    #[test]
    fn input_validation() {
        let m = model();
        assert!(m.p_late_bound(26, 0.0).is_err());
        assert!(m.p_glitch_bound(26, -1.0).is_err());
        assert!(m.n_max_late(1.0, 0.0).is_err());
        assert!(m.n_max_late(1.0, 1.5).is_err());
        assert!(m.n_max_late(0.0, 0.01).is_err());
        assert!(m.n_max_error(1.0, 1200, 12, 0.0).is_err());
        assert!(m.admission_table_late(0.0, &[0.01]).is_err());
        assert!(m.admission_table_error(-1.0, 1200, 12, &[0.01]).is_err());
    }

    #[test]
    fn accessors() {
        let m = model();
        assert_eq!(m.size_mean(), 200_000.0);
        assert_eq!(m.size_variance(), 1e10);
        assert_eq!(m.zone_handling(), ZoneHandling::Discrete);
        assert_eq!(m.disk().cylinders(), 6720);
        assert!(m.transfer_model().mean() > 0.0);
        assert!((m.seek_constant(27) - 0.10932).abs() < 5e-6);
    }

    #[test]
    fn zone_handling_changes_the_answer() {
        // The MeanRate flattening is optimistic: it admits at least as
        // many streams as the true multi-zone model.
        let disk = mzd_disk::profiles::quantum_viking_2_1().build().unwrap();
        let exact = GuaranteeModel::new(disk.clone(), 200_000.0, 1e10, ZoneHandling::Discrete)
            .unwrap()
            .n_max_late(1.0, 0.01)
            .unwrap();
        let flat = GuaranteeModel::new(disk, 200_000.0, 1e10, ZoneHandling::MeanRate)
            .unwrap()
            .n_max_late(1.0, 0.01)
            .unwrap();
        assert!(flat >= exact, "flat {flat} < exact {exact}");
    }

    #[test]
    fn longer_rounds_admit_more_streams() {
        let m = model();
        let n1 = m.n_max_late(1.0, 0.01).unwrap();
        let n2 = m.n_max_late(2.0, 0.01).unwrap();
        // Rotational and transfer demand scale linearly with N while the
        // per-round SEEK constant is amortized over more requests, and a
        // longer horizon also averages out variance — so doubling t more
        // than doubles N_max.
        assert!(n2 >= 2 * n1, "t=2s admits {n2} < 2x t=1s {n1}");
    }
}
