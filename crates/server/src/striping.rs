//! Coarse-grained round-robin striping (§2.1).
//!
//! In the paper's scheme, fragment `k` of an object that starts on disk
//! `d₀` lives on disk `(d₀ + k) mod D`: consecutive fragments — consumed
//! in consecutive rounds — hit consecutive disks, a stream imposes
//! exactly one request per round on exactly one disk, and staggered start
//! disks keep the per-disk multiprogramming level balanced.
//! The layout generalizes this to the cluster/stride family the paper
//! cites.

use crate::ServerError;

/// The fragment→disk map: the general coarse-grained striping family of
/// \[BGM94\]/\[ÖRS96\], `disk(k) = (start + ⌊k/cluster⌋·stride) mod D`.
/// The paper's scheme (§2.1) is the `cluster = 1, stride = 1` special
/// case; larger clusters keep a stream on one disk for several
/// consecutive rounds (fewer arm hand-offs, lumpier short-term balance),
/// and strides > 1 stagger successive segments across the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripingLayout {
    disks: u32,
    cluster: u32,
    stride: u32,
}

impl StripingLayout {
    /// The paper's layout over `disks ≥ 1` disks (cluster 1, stride 1).
    ///
    /// # Errors
    /// [`ServerError::Invalid`] for zero disks.
    pub fn new(disks: u32) -> Result<Self, ServerError> {
        Self::with_geometry(disks, 1, 1)
    }

    /// A general layout. `stride` must be coprime with `disks` so every
    /// object visits every disk (the load-balancing property §2.1 relies
    /// on); `cluster ≥ 1`.
    ///
    /// # Errors
    /// [`ServerError::Invalid`] for zero disks/cluster/stride or a stride
    /// sharing a factor with the disk count.
    fn with_geometry(disks: u32, cluster: u32, stride: u32) -> Result<Self, ServerError> {
        if disks == 0 {
            return Err(ServerError::Invalid(
                "a server needs at least one disk".into(),
            ));
        }
        if cluster == 0 || stride == 0 {
            return Err(ServerError::Invalid(
                "cluster and stride must be at least 1".into(),
            ));
        }
        if gcd(stride, disks) != 1 {
            return Err(ServerError::Invalid(format!(
                "stride {stride} shares a factor with the disk count {disks}:                  objects would never touch some disks"
            )));
        }
        Ok(Self {
            disks,
            cluster,
            stride,
        })
    }

    /// Number of disks.
    #[must_use]
    pub fn disks(&self) -> u32 {
        self.disks
    }

    /// Fragments per cluster (consecutive fragments on one disk).
    #[must_use]
    pub fn cluster(&self) -> u32 {
        self.cluster
    }

    /// Disk step between consecutive clusters.
    #[must_use]
    pub fn stride(&self) -> u32 {
        self.stride
    }

    /// The disk holding fragment `fragment` of an object whose fragment 0
    /// is on `start_disk`.
    #[must_use]
    pub fn disk_of_fragment(&self, start_disk: u32, fragment: u32) -> u32 {
        let segment = u64::from(fragment / self.cluster);
        let step = (segment * u64::from(self.stride)) % u64::from(self.disks);
        (start_disk + step as u32) % self.disks
    }
}

/// Greatest common divisor (Euclid).
fn gcd(a: u32, b: u32) -> u32 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_disks() {
        assert!(StripingLayout::new(0).is_err());
    }

    #[test]
    fn geometry_validation() {
        assert!(StripingLayout::with_geometry(4, 0, 1).is_err());
        assert!(StripingLayout::with_geometry(4, 1, 0).is_err());
        // stride 2 with 4 disks: objects would only see 2 disks.
        assert!(StripingLayout::with_geometry(4, 1, 2).is_err());
        // stride 3 with 4 disks is coprime: fine.
        let s = StripingLayout::with_geometry(4, 2, 3).unwrap();
        assert_eq!((s.cluster(), s.stride()), (2, 3));
    }

    #[test]
    fn cluster_keeps_streams_on_one_disk_for_cluster_rounds() {
        let s = StripingLayout::with_geometry(4, 3, 1).unwrap();
        let seq: Vec<u32> = (0..12).map(|k| s.disk_of_fragment(0, k)).collect();
        assert_eq!(seq, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn coprime_stride_visits_every_disk() {
        let s = StripingLayout::with_geometry(5, 1, 3).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..5 {
            seen.insert(s.disk_of_fragment(1, k));
        }
        assert_eq!(seen.len(), 5, "stride 3 must cover all 5 disks");
        // Order: 1, 4, 2, 0, 3.
        let seq: Vec<u32> = (0..5).map(|k| s.disk_of_fragment(1, k)).collect();
        assert_eq!(seq, vec![1, 4, 2, 0, 3]);
    }

    #[test]
    fn paper_layout_is_cluster_1_stride_1() {
        let s = StripingLayout::new(4).unwrap();
        assert_eq!((s.cluster(), s.stride()), (1, 1));
        let general = StripingLayout::with_geometry(4, 1, 1).unwrap();
        for k in 0..16 {
            assert_eq!(s.disk_of_fragment(2, k), general.disk_of_fragment(2, k));
        }
    }

    #[test]
    fn no_fragment_index_overflow() {
        let s = StripingLayout::with_geometry(7, 2, 5).unwrap();
        // u32::MAX fragments: the u64 arithmetic must not wrap.
        let d = s.disk_of_fragment(3, u32::MAX);
        assert!(d < 7);
    }

    #[test]
    fn fragments_cycle_over_disks() {
        let s = StripingLayout::new(4).unwrap();
        assert_eq!(s.disks(), 4);
        let seq: Vec<u32> = (0..8).map(|k| s.disk_of_fragment(1, k)).collect();
        assert_eq!(seq, vec![1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn single_disk_degenerates() {
        let s = StripingLayout::new(1).unwrap();
        for k in 0..5 {
            assert_eq!(s.disk_of_fragment(0, k), 0);
        }
    }

    #[test]
    fn per_round_load_is_balanced_for_staggered_streams() {
        // With S staggered streams all playing in lockstep, every round
        // puts exactly ceil/floor(S/D) requests on each disk.
        let s = StripingLayout::new(4).unwrap();
        let streams = 10u64;
        for round in 0..12u32 {
            let mut load = [0u32; 4];
            for i in 0..streams {
                // Round-robin start disks.
                let d = s.disk_of_fragment((i % 4) as u32, round);
                load[d as usize] += 1;
            }
            let (min, max) = (*load.iter().min().unwrap(), *load.iter().max().unwrap());
            assert!(max - min <= 1, "round {round}: load {load:?}");
        }
    }
}
