//! Coarse-grained round-robin striping (§2.1).
//!
//! In the paper's scheme, fragment `k` of an object that starts on disk
//! `d₀` lives on disk `(d₀ + k) mod D`: consecutive fragments — consumed
//! in consecutive rounds — hit consecutive disks, a stream imposes
//! exactly one request per round on exactly one disk, and staggered start
//! disks keep the per-disk multiprogramming level balanced.

use crate::ServerError;

/// The paper's fragment→disk map over `D` disks:
/// `disk(k) = (start + k) mod D`.
///
/// The server's round path never evaluates the closed form: each stream
/// carries the disk of its next fragment and steps it with
/// [`Self::next_disk`]. [`Self::disk_of_fragment`] is the reference the
/// carried disks are checked against, and the work-ahead lookahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripingLayout {
    disks: u32,
}

impl StripingLayout {
    /// The paper's layout over `disks ≥ 1` disks.
    ///
    /// # Errors
    /// [`ServerError::Invalid`] for zero disks.
    pub fn new(disks: u32) -> Result<Self, ServerError> {
        if disks == 0 {
            return Err(ServerError::Invalid(
                "a server needs at least one disk".into(),
            ));
        }
        Ok(Self { disks })
    }

    /// The disk holding fragment `fragment` of an object whose fragment 0
    /// is on `start_disk`.
    #[must_use]
    pub fn disk_of_fragment(&self, start_disk: u32, fragment: u32) -> u32 {
        ((u64::from(start_disk) + u64::from(fragment)) % u64::from(self.disks)) as u32
    }

    /// The disk after `disk` in the rotation — where the fragment after
    /// one on `disk` lives. A compare, not a division.
    #[inline]
    #[must_use]
    pub fn next_disk(&self, disk: u32) -> u32 {
        if disk + 1 == self.disks {
            0
        } else {
            disk + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_disks() {
        assert!(StripingLayout::new(0).is_err());
    }

    #[test]
    fn fragments_cycle_over_disks() {
        let s = StripingLayout::new(4).unwrap();
        let seq: Vec<u32> = (0..8).map(|k| s.disk_of_fragment(1, k)).collect();
        assert_eq!(seq, vec![1, 2, 3, 0, 1, 2, 3, 0]);
        for w in seq.windows(2) {
            assert_eq!(s.next_disk(w[0]), w[1]);
        }
    }

    #[test]
    fn single_disk_degenerates() {
        let s = StripingLayout::new(1).unwrap();
        for k in 0..5 {
            assert_eq!(s.disk_of_fragment(0, k), 0);
        }
        assert_eq!(s.next_disk(0), 0);
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
