//! Object-popularity models.
//!
//! The paper's admission analysis treats streams as interchangeable; a
//! cache in front of the disks does not — its value comes entirely from
//! *skew* in which objects streams open. Video-on-demand request
//! popularity is classically Zipf-like (Dan & Sitaram's interval-caching
//! work and the delayed-hits line both assume it), so the workload crate
//! provides a [`Zipf`] rank-popularity law: rank `i` (0-based) is chosen
//! with probability proportional to `1 / (i + 1)^s`, `s` the skew.
//!
//! `s = 0` degenerates to uniform choice; `s ≈ 1` is the classical video
//! -store fit; larger `s` concentrates traffic further onto the head.

use crate::WorkloadError;
use rand::{Rng, RngExt as _};

/// Zipf rank-popularity law over a finite catalog.
///
/// Sampling is `O(log n)` (binary search over the precomputed CDF) and
/// fully deterministic given the caller's RNG.
///
/// ```
/// use mzd_workload::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = Zipf::new(10, 1.0).unwrap();
/// let mut rng = StdRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 10);
/// // Rank 0 is the most popular.
/// assert!(zipf.probability(0) > zipf.probability(9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    /// Cumulative probabilities; `cdf[i]` = P(rank ≤ i), `cdf[n-1] = 1`.
    cdf: Vec<f64>,
    skew: f64,
}

impl Zipf {
    /// A Zipf law over `n` ranks with skew `s ≥ 0`.
    ///
    /// # Errors
    /// [`WorkloadError::Invalid`] if `n == 0` or `s` is negative or
    /// non-finite.
    pub fn new(n: usize, s: f64) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(WorkloadError::Invalid(
                "Zipf law needs at least one rank".into(),
            ));
        }
        if !(s >= 0.0) || !s.is_finite() {
            return Err(WorkloadError::Invalid(format!(
                "Zipf skew must be finite and non-negative, got {s}"
            )));
        }
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += ((i + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard the tail against rounding: the last bucket must catch
        // every u ∈ [0, 1).
        cdf[n - 1] = 1.0;
        Ok(Self { cdf, skew: s })
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the law is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The skew parameter `s`.
    #[must_use]
    pub fn skew(&self) -> f64 {
        self.skew
    }

    /// Probability of rank `i` (0-based). Zero for out-of-range ranks.
    #[must_use]
    pub fn probability(&self, rank: usize) -> f64 {
        match rank {
            0 => self.cdf[0],
            i if i < self.cdf.len() => self.cdf[i] - self.cdf[i - 1],
            _ => 0.0,
        }
    }

    /// Draw a rank (0-based; 0 is the most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c <= u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(5, -0.1).is_err());
        assert!(Zipf::new(5, f64::NAN).is_err());
        assert!(Zipf::new(5, f64::INFINITY).is_err());
    }

    #[test]
    fn zero_skew_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for i in 0..4 {
            assert!((z.probability(i) - 0.25).abs() < 1e-12);
        }
        assert_eq!(z.probability(4), 0.0);
    }

    #[test]
    fn classic_skew_probabilities() {
        // s = 1, n = 3: weights 1, 1/2, 1/3 → H = 11/6.
        let z = Zipf::new(3, 1.0).unwrap();
        assert!((z.probability(0) - 6.0 / 11.0).abs() < 1e-12);
        assert!((z.probability(1) - 3.0 / 11.0).abs() < 1e-12);
        assert!((z.probability(2) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(z.len(), 3);
        assert!(!z.is_empty());
        assert_eq!(z.skew(), 1.0);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let z = Zipf::new(8, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mut counts = [0u32; 8];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let observed = f64::from(c) / f64::from(n);
            let expected = z.probability(i);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {i}: observed {observed}, expected {expected}"
            );
        }
        // Monotone: popularity decreases with rank.
        for i in 1..8 {
            assert!(z.probability(i) < z.probability(i - 1));
        }
    }

    #[test]
    fn higher_skew_concentrates_the_head() {
        let flat = Zipf::new(100, 0.5).unwrap();
        let steep = Zipf::new(100, 1.5).unwrap();
        // Traffic share of the ten most popular titles.
        let head = |z: &Zipf| (0..10).map(|i| z.probability(i)).sum::<f64>();
        assert!(head(&steep) > head(&flat));
        assert!(head(&steep) > 0.8);
    }
}
