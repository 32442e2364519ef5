//! Streaming and batch statistics for simulation output analysis.
//!
//! The validation experiments (§4 of the paper) estimate small tail
//! probabilities (`p_late`, `p_error`) from simulation runs; this module
//! provides Welford streaming moments, empirical quantiles, and binomial
//! proportion confidence intervals (Wilson score — appropriate for the
//! small counts that arise when estimating probabilities near zero).

use crate::special::standard_normal_quantile;

/// Numerically stable streaming mean/variance/min/max (Welford).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Create an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (`NaN` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` for fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Empirical quantile of a sample with linear interpolation
/// (type-7 / the default of most statistics packages).
///
/// Sorts a copy of the data; `q` is clamped to `[0, 1]`. Returns `NaN`
/// for an empty slice.
#[must_use]
pub fn quantile(data: &[f64], q: f64) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = data.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Whether the interval contains `x`.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Interval width.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Wilson score interval for a binomial proportion with `successes` out of
/// `trials` at confidence `level` (e.g. `0.95`).
///
/// Well-behaved near 0 and 1 — exactly where the paper's tail-probability
/// estimates live (e.g. 4 late rounds out of 10⁴).
///
/// Returns a degenerate `[0, 1]` interval when `trials == 0`.
#[must_use]
pub fn wilson_interval(successes: u64, trials: u64, level: f64) -> ConfidenceInterval {
    if trials == 0 {
        return ConfidenceInterval { lo: 0.0, hi: 1.0 };
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z = standard_normal_quantile(0.5 + 0.5 * level.clamp(0.0, 1.0 - 1e-12));
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ConfidenceInterval {
        lo: (center - half).max(0.0),
        hi: (center + half).min(1.0),
    }
}

/// Sample mean of a slice (`NaN` when empty).
#[must_use]
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Unbiased sample variance of a slice (`NaN` for fewer than 2 points).
#[must_use]
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return f64::NAN;
    }
    let m = mean(data);
    data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (data.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_batch() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - mean(&data)).abs() < 1e-12);
        assert!((s.variance() - variance(&data)).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_and_single() {
        let s = OnlineStats::new();
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        let mut s = OnlineStats::new();
        s.push(7.0);
        assert_eq!(s.mean(), 7.0);
        assert!(s.variance().is_nan());
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let a_data = [1.0, 2.0, 3.5, -1.0];
        let b_data = [10.0, 0.5, 2.2];
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut all = OnlineStats::new();
        for &x in &a_data {
            a.push(x);
            all.push(x);
        }
        for &x in &b_data {
            b.push(x);
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);

        // Merging into / from empty.
        let mut e = OnlineStats::new();
        e.merge(&all);
        assert_eq!(e.count(), all.count());
        let snapshot = e;
        e.merge(&OnlineStats::new());
        assert_eq!(e, snapshot);
    }

    #[test]
    fn quantile_interpolation() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 4.0);
        assert!((quantile(&data, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&data, 1.0 / 3.0) - 2.0).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
        // Clamping out-of-range q.
        assert_eq!(quantile(&data, -3.0), 1.0);
        assert_eq!(quantile(&data, 7.0), 4.0);
    }

    #[test]
    fn wilson_interval_sane() {
        let ci = wilson_interval(50, 100, 0.95);
        assert!(ci.contains(0.5));
        assert!(ci.lo > 0.39 && ci.hi < 0.61);
        // Zero successes still yields a nonzero upper bound.
        let ci = wilson_interval(0, 1000, 0.95);
        assert_eq!(ci.lo, 0.0);
        assert!(ci.hi > 0.0 && ci.hi < 0.01);
        // All successes.
        let ci = wilson_interval(1000, 1000, 0.95);
        assert_eq!(ci.hi, 1.0);
        assert!(ci.lo > 0.99);
        // Degenerate trials.
        let ci = wilson_interval(0, 0, 0.95);
        assert_eq!((ci.lo, ci.hi), (0.0, 1.0));
        assert_eq!(ci.width(), 1.0);
    }

    #[test]
    fn wilson_narrower_at_lower_confidence() {
        let a = wilson_interval(30, 200, 0.99);
        let b = wilson_interval(30, 200, 0.90);
        assert!(b.width() < a.width());
    }

    #[test]
    fn batch_mean_variance_edge_cases() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[2.0, 4.0]), 2.0);
    }
}
