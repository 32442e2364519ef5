//! Multi-zone disk modeling for continuous-media service.
//!
//! This crate is the substrate the PODS'97 model sits on: a parametric
//! description of a multi-zone disk drive — geometry, zoning, seek-time
//! kinematics, rotation — together with the derived quantities the analytic
//! model (crate `mzd-core`) and the simulator (crate `mzd-sim`) consume:
//!
//! * [`seek::SeekCurve`] — the piecewise `a + b√d` / `c + e·d` seek-time
//!   function of Ruemmler & Wilkes, as used in the paper's Table 1;
//! * [`zones::ZoneModel`] — zone track capacities, per-zone transfer rates,
//!   and the capacity-weighted zone-selection distribution induced by
//!   storing data uniformly over all sectors (§3.2);
//! * [`scan`] — the cost of one SCAN (elevator) sweep over a set of
//!   cylinder positions;
//! * [`oyang`] — Oyang's tight upper bound on the lumped seek time of a
//!   SCAN sweep (equidistant worst case), the `SEEK` constant of eq. 3.1.1;
//! * [`profiles`] — ready-made drive profiles, including the Quantum
//!   Viking 2.1 parameters from Table 1 of the paper.
//!
//! Units: seconds for all times, bytes for all capacities/sizes, cylinder
//! indices for positions. A "cylinder" here stands for a seek position;
//! track/head structure within a cylinder is folded into the zone's track
//! capacity, matching the granularity of the paper's model.

#![warn(missing_docs)]

pub mod oyang;
pub mod placement;
pub mod profiles;
pub mod scan;
pub mod seek;
pub mod zones;

pub use placement::PlacementPolicy;
pub use profiles::DiskProfile;
pub use seek::SeekCurve;
pub use zones::ZoneModel;

/// A complete parametric disk: geometry + kinematics.
///
/// Immutable after construction; cheap to clone (the zone table is the only
/// allocation).
///
/// ```
/// let disk = mzd_disk::profiles::quantum_viking_2_1().build().unwrap();
/// assert_eq!(disk.cylinders(), 6720);
/// assert_eq!(disk.zone_count(), 15);
/// // Outer tracks transfer ~1.64x faster than inner ones.
/// assert!((disk.max_rate() / disk.min_rate() - 1.64).abs() < 0.005);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Disk {
    cylinders: u32,
    rotation_time: f64,
    seek: SeekCurve,
    zones: ZoneModel,
}

impl Disk {
    /// Assemble a disk from its parts.
    ///
    /// # Errors
    /// [`DiskError::Invalid`] if `cylinders == 0`, `rotation_time ≤ 0`, or
    /// there are more zones than cylinders.
    pub fn new(
        cylinders: u32,
        rotation_time: f64,
        seek: SeekCurve,
        zones: ZoneModel,
    ) -> Result<Self, DiskError> {
        if cylinders == 0 {
            return Err(DiskError::Invalid("cylinder count must be positive".into()));
        }
        if !(rotation_time > 0.0) || !rotation_time.is_finite() {
            return Err(DiskError::Invalid(format!(
                "rotation time must be positive and finite, got {rotation_time}"
            )));
        }
        if zones.zone_count() as u32 > cylinders {
            return Err(DiskError::Invalid(format!(
                "{} zones cannot fit in {} cylinders",
                zones.zone_count(),
                cylinders
            )));
        }
        Ok(Self {
            cylinders,
            rotation_time,
            seek,
            zones,
        })
    }

    /// Total number of cylinders (`CYL` in the paper).
    #[must_use]
    pub fn cylinders(&self) -> u32 {
        self.cylinders
    }

    /// Time for one full revolution in seconds (`ROT` in the paper).
    #[must_use]
    pub fn rotation_time(&self) -> f64 {
        self.rotation_time
    }

    /// The seek-time curve.
    #[must_use]
    pub fn seek_curve(&self) -> &SeekCurve {
        &self.seek
    }

    /// The zone model.
    #[must_use]
    pub fn zones(&self) -> &ZoneModel {
        &self.zones
    }

    /// Number of zones (`Z`).
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.zones.zone_count()
    }

    /// Transfer rate of zone `zone` in bytes/second (`R_i = C_i / ROT`).
    ///
    /// # Panics
    /// Panics if `zone` is out of range.
    #[must_use]
    pub fn zone_rate(&self, zone: usize) -> f64 {
        self.zones.track_capacity(zone) / self.rotation_time
    }

    /// Lowest transfer rate (innermost zone), bytes/second.
    #[must_use]
    pub fn min_rate(&self) -> f64 {
        self.zones.min_capacity() / self.rotation_time
    }

    /// Highest transfer rate (outermost zone), bytes/second.
    #[must_use]
    pub fn max_rate(&self) -> f64 {
        self.zones.max_capacity() / self.rotation_time
    }

    /// Mean transfer rate under the capacity-weighted zone distribution,
    /// bytes/second: `E[R] = Σ (C_i/C) · C_i/ROT`.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        self.zones.capacity_weighted_capacity_moment(1) / self.rotation_time
    }

    /// `E[R^{-k}]` under the capacity-weighted zone distribution — the
    /// quantity that turns size moments into transfer-time moments
    /// (`E[T^k] = E[S^k]·E[R^{-k}]` for independent size and zone).
    #[must_use]
    pub fn inverse_rate_moment(&self, k: i32) -> f64 {
        self.rotation_time.powi(k) * self.zones.capacity_weighted_capacity_moment(-k)
    }

    /// Transfer time in seconds for `bytes` stored in `zone`.
    ///
    /// # Panics
    /// Panics if `zone` is out of range.
    #[must_use]
    pub fn transfer_time(&self, zone: usize, bytes: f64) -> f64 {
        bytes / self.zone_rate(zone)
    }

    /// Number of cylinders assigned to each zone (equal split, paper §3.2;
    /// any remainder is given to the outermost zone).
    #[must_use]
    fn cylinders_per_zone(&self) -> u32 {
        self.cylinders / self.zones.zone_count() as u32
    }

    /// The zone containing `cylinder`, with cylinder 0 innermost and zone 0
    /// innermost.
    ///
    /// # Panics
    /// Panics if `cylinder ≥ self.cylinders()`.
    #[must_use]
    pub fn zone_of_cylinder(&self, cylinder: u32) -> usize {
        assert!(
            cylinder < self.cylinders,
            "cylinder {cylinder} out of range (disk has {})",
            self.cylinders
        );
        let per = self.cylinders_per_zone();
        ((cylinder / per) as usize).min(self.zones.zone_count() - 1)
    }

    /// First (innermost) cylinder of `zone`.
    ///
    /// # Panics
    /// Panics if `zone` is out of range.
    #[must_use]
    pub fn zone_first_cylinder(&self, zone: usize) -> u32 {
        assert!(zone < self.zones.zone_count(), "zone {zone} out of range");
        self.cylinders_per_zone() * zone as u32
    }

    /// Number of cylinders in `zone` (the outermost zone absorbs any
    /// division remainder).
    ///
    /// # Panics
    /// Panics if `zone` is out of range.
    #[must_use]
    pub fn zone_cylinder_count(&self, zone: usize) -> u32 {
        assert!(zone < self.zones.zone_count(), "zone {zone} out of range");
        if zone == self.zones.zone_count() - 1 {
            self.cylinders - self.zone_first_cylinder(zone)
        } else {
            self.cylinders_per_zone()
        }
    }

    /// Total usable capacity in bytes: `Σ_i tracks_i · C_i`, with one track
    /// per cylinder at the model's granularity.
    #[must_use]
    pub fn total_capacity(&self) -> f64 {
        (0..self.zones.zone_count())
            .map(|z| f64::from(self.zone_cylinder_count(z)) * self.zones.track_capacity(z))
            .sum()
    }

    /// Worst-case single-request service time for a request of `bytes`:
    /// max seek + full rotation + transfer at the innermost-zone rate. This
    /// is the per-request term of the deterministic admission bound
    /// (paper eq. 4.1).
    #[must_use]
    pub fn worst_case_request_time(&self, bytes: f64) -> f64 {
        self.seek.max_seek_time(self.cylinders) + self.rotation_time + bytes / self.min_rate()
    }
}

/// Errors from disk construction and geometry queries.
#[derive(Debug, Clone, PartialEq)]
pub enum DiskError {
    /// A structural parameter was invalid.
    Invalid(String),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Invalid(msg) => write!(f, "invalid disk parameters: {msg}"),
        }
    }
}

impl std::error::Error for DiskError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn viking() -> Disk {
        profiles::quantum_viking_2_1().build().unwrap()
    }

    #[test]
    fn viking_matches_table_1() {
        let d = viking();
        assert_eq!(d.cylinders(), 6720);
        assert_eq!(d.zone_count(), 15);
        assert!((d.rotation_time() - 0.00834).abs() < 1e-12);
        assert!((d.zones().min_capacity() - 58368.0).abs() < 1e-9);
        assert!((d.zones().max_capacity() - 95744.0).abs() < 1e-9);
    }

    #[test]
    fn viking_rate_span_is_about_1_64x() {
        // Table 1: 95744 / 58368 ≈ 1.64 between outermost and innermost.
        let d = viking();
        assert!((d.max_rate() / d.min_rate() - 95744.0 / 58368.0).abs() < 1e-12);
        assert!(d.mean_rate() > d.min_rate() && d.mean_rate() < d.max_rate());
    }

    #[test]
    fn zone_of_cylinder_partitions_disk() {
        let d = viking();
        assert_eq!(d.zone_of_cylinder(0), 0);
        assert_eq!(d.zone_of_cylinder(6719), 14);
        // 6720 / 15 = 448 cylinders per zone.
        assert_eq!(d.cylinders_per_zone(), 448);
        assert_eq!(d.zone_of_cylinder(447), 0);
        assert_eq!(d.zone_of_cylinder(448), 1);
        let mut counts = vec![0u32; d.zone_count()];
        for c in 0..d.cylinders() {
            counts[d.zone_of_cylinder(c)] += 1;
        }
        for (z, &n) in counts.iter().enumerate() {
            assert_eq!(n, d.zone_cylinder_count(z), "zone {z}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zone_of_cylinder_rejects_overflow() {
        let _ = viking().zone_of_cylinder(6720);
    }

    #[test]
    fn total_capacity_matches_zone_sum() {
        let d = viking();
        // 448 tracks per zone × Σ C_i = 448 × 15 × (58368+95744)/2
        let expected = 448.0 * 15.0 * (58368.0 + 95744.0) / 2.0;
        assert!((d.total_capacity() - expected).abs() < 1.0);
    }

    #[test]
    fn inverse_rate_moment_identity() {
        let d = viking();
        // k = 0 must be exactly 1 (it is a probability-weighted sum of 1s).
        assert!((d.inverse_rate_moment(0) - 1.0).abs() < 1e-12);
        // E[1/R] must lie between 1/max and 1/min.
        let m1 = d.inverse_rate_moment(1);
        assert!(m1 > 1.0 / d.max_rate() && m1 < 1.0 / d.min_rate());
        // Jensen: E[1/R] ≥ 1/E[R].
        assert!(m1 >= 1.0 / d.mean_rate());
    }

    #[test]
    fn transfer_time_scales_with_zone() {
        let d = viking();
        let inner = d.transfer_time(0, 200_000.0);
        let outer = d.transfer_time(14, 200_000.0);
        assert!(inner > outer);
        assert!((inner / outer - 95744.0 / 58368.0).abs() < 1e-12);
    }

    #[test]
    fn worst_case_request_time_components() {
        let d = viking();
        let t = d.worst_case_request_time(0.0);
        // max seek ≈ 18 ms (paper) + one rotation 8.34 ms.
        assert!((t - (d.seek_curve().max_seek_time(6720) + 0.00834)).abs() < 1e-12);
        assert!(d.seek_curve().max_seek_time(6720) > 0.0175);
        assert!(d.seek_curve().max_seek_time(6720) < 0.0185);
    }

    #[test]
    fn invalid_disks_rejected() {
        let seek = SeekCurve::paper_form(1.867e-3, 1.315e-4, 3.8635e-3, 2.1e-6, 1344.0).unwrap();
        let zones = ZoneModel::linear(15, 58368.0, 95744.0).unwrap();
        assert!(Disk::new(0, 0.00834, seek.clone(), zones.clone()).is_err());
        assert!(Disk::new(6720, 0.0, seek.clone(), zones.clone()).is_err());
        assert!(Disk::new(6720, f64::NAN, seek.clone(), zones.clone()).is_err());
        assert!(Disk::new(10, 0.00834, seek, ZoneModel::linear(15, 1.0, 2.0).unwrap()).is_err());
    }
}
