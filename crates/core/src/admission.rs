//! Admission-control searches and lookup tables (eq. 3.1.7, eq. 3.3.6, §5).
//!
//! Both `N_max` definitions are maxima of a monotone predicate — the
//! quality bound degrades as `N` grows — so a linear upward scan with a
//! hard cap is exact, simple and fast. A probe of `p_late(N)` is one
//! Chernoff minimization (microseconds). A probe of `p_error(N)` averages
//! `p_late(k)` over `k ≤ N` (eq. 3.3.3), and
//! [`crate::glitch::GlitchScan`] keeps that sum as a running prefix, so
//! it too adds one minimization per candidate. The paper's answers are
//! ~26–28, so either search is ~30 minimizations: too little work to be
//! worth a worker pool. §5
//! suggests precomputing a lookup table of `N_max` per tolerance
//! threshold so the run-time admission decision is a table lookup;
//! [`AdmissionTable`] is that table.

use crate::CoreError;

/// Hard cap on the admission search: no single disk round can hold more
/// requests than this in any configuration this model targets.
pub const N_SEARCH_CAP: u32 = 100_000;

/// Largest `n` with `quality(n) ≤ threshold`, where `quality` is
/// nondecreasing in `n` (e.g. `p_late(·, t)` or `p_error(·, t, M, g)`).
/// Returns 0 if even `n = 1` violates the threshold.
///
/// The scan is linear from 1 but exits as soon as the (monotone) bound
/// crosses the threshold; for realistic parameters that is < 100 probes.
pub fn n_max<F: FnMut(u32) -> f64>(mut quality: F, threshold: f64) -> u32 {
    let mut best = 0;
    for n in 1..=N_SEARCH_CAP {
        if quality(n) <= threshold {
            best = n;
        } else {
            break;
        }
    }
    best
}

/// A precomputed tolerance → `N_max` lookup table (§5: "a lookup table
/// with precomputed values of N_max for different tolerance thresholds …
/// incurs almost no run-time overhead").
///
/// Thresholds are stored ascending; looking up a tolerance returns the
/// `N_max` of the largest table threshold that does not exceed it.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionTable {
    thresholds: Vec<f64>,
    n_max: Vec<u32>,
}

impl AdmissionTable {
    /// Build the table with one resumed upward scan of the monotone
    /// `quality` bound, probing each candidate `n` at most once.
    /// `thresholds` must be strictly ascending and in `(0, 1]`.
    ///
    /// # Errors
    /// [`CoreError::Invalid`] for an empty, unsorted or out-of-range
    /// threshold list.
    pub fn build<F: FnMut(u32) -> f64>(
        thresholds: &[f64],
        mut quality: F,
    ) -> Result<Self, CoreError> {
        Self::validate(thresholds)?;
        // The quality bound is monotone in n, so N_max is nondecreasing in
        // the threshold: resume each search where the previous stopped.
        // The candidate that crossed one threshold is the first one the
        // next threshold tests, so its probe is carried over, not
        // repeated: every n is evaluated exactly once.
        let mut n_max_col = Vec::with_capacity(thresholds.len());
        let mut n = 0u32;
        let mut next: Option<f64> = None;
        for &thr in thresholds {
            while n < N_SEARCH_CAP {
                let q = *next.get_or_insert_with(|| quality(n + 1));
                // NaN counts as a violation, like any failed `<=`.
                if !(q <= thr) {
                    break;
                }
                n += 1;
                next = None;
            }
            n_max_col.push(n);
        }
        Ok(Self {
            thresholds: thresholds.to_vec(),
            n_max: n_max_col,
        })
    }

    fn validate(thresholds: &[f64]) -> Result<(), CoreError> {
        if thresholds.is_empty() {
            return Err(CoreError::Invalid("threshold list is empty".into()));
        }
        let mut prev = 0.0;
        for &t in thresholds {
            if !(t > prev) || t > 1.0 {
                return Err(CoreError::Invalid(format!(
                    "thresholds must be strictly ascending in (0, 1], got {t} after {prev}"
                )));
            }
            prev = t;
        }
        Ok(())
    }

    /// The admission limit for the given tolerance: the `N_max` of the
    /// largest stored threshold `≤ tolerance` (0 if the tolerance is below
    /// every stored threshold — conservative by construction).
    #[must_use]
    pub fn lookup(&self, tolerance: f64) -> u32 {
        match self
            .thresholds
            .partition_point(|&t| t <= tolerance)
            .checked_sub(1)
        {
            Some(i) => self.n_max[i],
            None => 0,
        }
    }

    /// The stored (threshold, `N_max`) rows.
    pub fn rows(&self) -> impl Iterator<Item = (f64, u32)> + '_ {
        self.thresholds
            .iter()
            .copied()
            .zip(self.n_max.iter().copied())
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.thresholds.len()
    }

    /// Whether the table is empty (never after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.thresholds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_max_of_linear_quality() {
        // quality(n) = n/100 → N_max(0.25) = 25.
        assert_eq!(n_max(|n| f64::from(n) / 100.0, 0.25), 25);
        assert_eq!(n_max(|n| f64::from(n) / 100.0, 1.0), 100);
        // Threshold below quality(1).
        assert_eq!(n_max(|n| f64::from(n) / 100.0, 0.001), 0);
    }

    #[test]
    fn n_max_counts_evaluations_lazily() {
        let mut evals = 0;
        let _ = n_max(
            |n| {
                evals += 1;
                f64::from(n) / 10.0
            },
            0.3,
        );
        // Stops at the first violation: n = 1, 2, 3 pass, 4 fails.
        assert_eq!(evals, 4);
    }

    #[test]
    fn n_max_treats_nan_as_a_violation_and_stops_at_the_cap() {
        // Unbounded quality: the scan hits the cap.
        assert_eq!(n_max(|_| 0.0, 0.5), N_SEARCH_CAP);
        // NaN is a violation, like any failed `<=`.
        let spiky = |n: u32| {
            if n == 7 {
                f64::NAN
            } else {
                f64::from(n) / 100.0
            }
        };
        assert_eq!(n_max(spiky, 0.5), 6);
    }

    #[test]
    fn table_treats_nan_as_a_violation_and_stops_at_the_cap() {
        let spiky = |n: u32| {
            if n == 7 {
                f64::NAN
            } else {
                f64::from(n) / 100.0
            }
        };
        let t = AdmissionTable::build(&[0.03, 0.5, 0.9], spiky).unwrap();
        assert_eq!(t.rows().map(|(_, n)| n).collect::<Vec<_>>(), [3, 6, 6]);
        let capped = AdmissionTable::build(&[0.1, 0.5], |_| 0.0).unwrap();
        assert_eq!(capped.lookup(0.1), N_SEARCH_CAP);
    }

    #[test]
    fn table_build_probes_each_n_once() {
        let mut probes = Vec::new();
        let t = AdmissionTable::build(&[0.1, 0.3, 0.5], |n| {
            probes.push(n);
            f64::from(n) / 10.0
        })
        .unwrap();
        assert_eq!(t.rows().map(|(_, n)| n).collect::<Vec<_>>(), [1, 3, 5]);
        // 1..=6, each once: 6 is the first violation of the largest
        // threshold. The candidates 2 and 4, which crossed the smaller
        // thresholds, are not probed again.
        assert_eq!(probes, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn table_build_and_lookup() {
        let quality = |n: u32| f64::from(n) / 100.0;
        let t = AdmissionTable::build(&[0.01, 0.05, 0.10, 0.50], quality).unwrap();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.lookup(0.01), 1);
        assert_eq!(t.lookup(0.05), 5);
        assert_eq!(t.lookup(0.07), 5); // rounds down to the 0.05 row
        assert_eq!(t.lookup(0.5), 50);
        assert_eq!(t.lookup(0.99), 50); // beyond the last row: last row
        assert_eq!(t.lookup(0.001), 0); // below the first row: conservative 0
        let rows: Vec<_> = t.rows().collect();
        assert_eq!(rows[0], (0.01, 1));
        assert_eq!(rows[3], (0.50, 50));
    }

    #[test]
    fn table_resumed_search_matches_independent_search() {
        let quality = |n: u32| (f64::from(n) / 37.0).powi(2);
        let t = AdmissionTable::build(&[0.01, 0.1, 0.5, 0.9], quality).unwrap();
        for (thr, nm) in t.rows() {
            assert_eq!(nm, n_max(quality, thr), "threshold {thr}");
        }
    }

    #[test]
    fn table_rejects_bad_thresholds() {
        let q = |_: u32| 0.5;
        assert!(AdmissionTable::build(&[], q).is_err());
        assert!(AdmissionTable::build(&[0.5, 0.2], q).is_err());
        assert!(AdmissionTable::build(&[0.0, 0.5], q).is_err());
        assert!(AdmissionTable::build(&[0.5, 1.5], q).is_err());
        assert!(AdmissionTable::build(&[0.5, 0.5], q).is_err());
    }
}
