//! The deterministic worst-case admission baseline (eq. 4.1).
//!
//! A worst-case design assumes every request pays the maximum rotational
//! latency, the maximum seek and the maximum transfer time:
//!
//! ```text
//! N_max^wc = ⌊ t / (T_rot^max + T_seek^max + T_trans^max) ⌋
//! ```
//!
//! where `T_trans^max` is a high size percentile over a conservative rate.
//! The paper contrasts `N_max^wc = 10` (99th percentile, innermost-zone
//! rate) and `14` (95th percentile, mid rate) against the stochastic
//! model's 26–28 — the headline motivation for stochastic guarantees.

use crate::CoreError;
use mzd_disk::Disk;
use mzd_workload::SizeDistribution;

/// The three worst-case components, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstCaseInputs {
    /// Maximum rotational latency (one full revolution).
    pub t_rot_max: f64,
    /// Maximum seek time (full stroke).
    pub t_seek_max: f64,
    /// "Maximum" transfer time (a high percentile over a pessimistic rate).
    pub t_trans_max: f64,
}

impl WorstCaseInputs {
    /// Worst-case per-request service time.
    #[must_use]
    fn per_request(&self) -> f64 {
        self.t_rot_max + self.t_seek_max + self.t_trans_max
    }
}

/// Which transfer rate the worst-case transfer time assumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorstCaseRate {
    /// The innermost-zone rate `C_min / ROT` — fully pessimistic
    /// (the paper's first calculation).
    Innermost,
    /// The mid rate `(C_min + C_max) / (2·ROT)` — the paper's
    /// "optimistic" variant.
    MidRange,
}

/// Derive the worst-case inputs from a disk and a size distribution,
/// using the `size_percentile`-quantile of the fragment size (the paper
/// uses 0.99 and 0.95) over the chosen conservative rate.
///
/// # Errors
/// [`CoreError::Invalid`] if the size law has no analytic quantile
/// (lognormal/empirical) or the percentile is out of range.
pub fn worst_case_inputs(
    disk: &Disk,
    sizes: &SizeDistribution,
    size_percentile: f64,
    rate: WorstCaseRate,
) -> Result<WorstCaseInputs, CoreError> {
    let q = sizes
        .quantile(size_percentile)
        .map_err(|e| CoreError::Invalid(e.to_string()))?
        .ok_or_else(|| {
            CoreError::Invalid(format!(
                "size distribution `{}` has no analytic quantile; \
                 supply WorstCaseInputs directly",
                sizes.name()
            ))
        })?;
    let r = match rate {
        WorstCaseRate::Innermost => disk.min_rate(),
        WorstCaseRate::MidRange => (disk.min_rate() + disk.max_rate()) / 2.0,
    };
    Ok(WorstCaseInputs {
        t_rot_max: disk.rotation_time(),
        t_seek_max: disk.seek_curve().max_seek_time(disk.cylinders()),
        t_trans_max: q / r,
    })
}

/// The deterministic admission limit `N_max^wc` (eq. 4.1).
///
/// # Errors
/// [`CoreError::Invalid`] for a non-positive round length or degenerate
/// inputs.
pub fn n_max_worst_case(round_length: f64, inputs: &WorstCaseInputs) -> Result<u32, CoreError> {
    if !(round_length > 0.0) || !round_length.is_finite() {
        return Err(CoreError::Invalid(format!(
            "round length must be positive, got {round_length}"
        )));
    }
    let per = inputs.per_request();
    if !(per > 0.0) || !per.is_finite() {
        return Err(CoreError::Invalid(format!(
            "worst-case per-request time must be positive, got {per}"
        )));
    }
    Ok((round_length / per).floor() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mzd_disk::profiles;

    fn viking() -> Disk {
        profiles::quantum_viking_2_1().build().unwrap()
    }

    #[test]
    fn reproduces_paper_pessimistic_case() {
        // Paper: T_rot = 8.34 ms, T_seek = 18 ms, T_trans = 71.7 ms
        // (99-pct size over C_min/ROT) → N_max^wc = 10.
        let d = viking();
        let inputs = worst_case_inputs(
            &d,
            &SizeDistribution::paper_default(),
            0.99,
            WorstCaseRate::Innermost,
        )
        .unwrap();
        assert!((inputs.t_rot_max - 0.00834).abs() < 1e-12);
        assert!(
            (inputs.t_seek_max - 0.018).abs() < 2e-4,
            "{}",
            inputs.t_seek_max
        );
        assert!(
            (inputs.t_trans_max - 0.0717).abs() < 5e-4,
            "t_trans_max = {}",
            inputs.t_trans_max
        );
        assert_eq!(n_max_worst_case(1.0, &inputs).unwrap(), 10);
    }

    #[test]
    fn reproduces_paper_optimistic_case() {
        // Paper: 95-pct size over the mid rate → T_trans = 41.9 ms,
        // N_max^wc = 14.
        let d = viking();
        let inputs = worst_case_inputs(
            &d,
            &SizeDistribution::paper_default(),
            0.95,
            WorstCaseRate::MidRange,
        )
        .unwrap();
        assert!(
            (inputs.t_trans_max - 0.0419).abs() < 5e-4,
            "t_trans_max = {}",
            inputs.t_trans_max
        );
        assert_eq!(n_max_worst_case(1.0, &inputs).unwrap(), 14);
    }

    #[test]
    fn constant_sizes_have_exact_quantile() {
        let d = viking();
        let inputs = worst_case_inputs(
            &d,
            &SizeDistribution::constant(200_000.0).unwrap(),
            0.99,
            WorstCaseRate::Innermost,
        )
        .unwrap();
        assert!((inputs.t_trans_max - 200_000.0 / d.min_rate()).abs() < 1e-12);
    }

    #[test]
    fn lognormal_has_no_analytic_quantile() {
        let d = viking();
        let r = worst_case_inputs(
            &d,
            &SizeDistribution::log_normal(200_000.0, 1e10).unwrap(),
            0.99,
            WorstCaseRate::Innermost,
        );
        assert!(r.is_err());
    }

    #[test]
    fn invalid_round_length_rejected() {
        let inputs = WorstCaseInputs {
            t_rot_max: 0.008,
            t_seek_max: 0.018,
            t_trans_max: 0.07,
        };
        assert!(n_max_worst_case(0.0, &inputs).is_err());
        assert!(n_max_worst_case(f64::NAN, &inputs).is_err());
        let zero = WorstCaseInputs {
            t_rot_max: 0.0,
            t_seek_max: 0.0,
            t_trans_max: 0.0,
        };
        assert!(n_max_worst_case(1.0, &zero).is_err());
    }

    #[test]
    fn longer_rounds_admit_proportionally_more() {
        let inputs = WorstCaseInputs {
            t_rot_max: 0.01,
            t_seek_max: 0.02,
            t_trans_max: 0.07,
        };
        assert_eq!(n_max_worst_case(1.0, &inputs).unwrap(), 10);
        assert_eq!(n_max_worst_case(2.0, &inputs).unwrap(), 20);
        assert_eq!(n_max_worst_case(0.05, &inputs).unwrap(), 0);
    }
}
