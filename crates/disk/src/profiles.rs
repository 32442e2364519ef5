//! Ready-made drive profiles.
//!
//! [`quantum_viking_2_1`] is the drive from Table 1 of the paper; the
//! other profiles are synthetic variants used by the ablation experiments
//! (single-zone re-profilings, higher-zoning drives). Profiles are plain
//! builders so every parameter can be overridden before [`DiskProfile::build`].

use crate::seek::SeekCurve;
use crate::zones::ZoneModel;
use crate::{Disk, DiskError};

/// A builder for [`Disk`] with named, overridable parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskProfile {
    /// Profile name (for reports).
    pub name: &'static str,
    /// Number of cylinders.
    pub cylinders: u32,
    /// Rotation time, seconds.
    pub rotation_time: f64,
    /// Number of zones.
    pub zones: usize,
    /// Innermost-zone track capacity, bytes.
    pub c_min: f64,
    /// Outermost-zone track capacity, bytes.
    pub c_max: f64,
    /// Short-seek branch constant, seconds.
    pub seek_sqrt_offset: f64,
    /// Short-seek branch √-coefficient.
    pub seek_sqrt_coeff: f64,
    /// Long-seek branch constant, seconds.
    pub seek_lin_offset: f64,
    /// Long-seek branch slope.
    pub seek_lin_coeff: f64,
    /// Branch switch distance, cylinders.
    pub seek_threshold: f64,
}

impl DiskProfile {
    /// Materialize the profile into a [`Disk`].
    ///
    /// # Errors
    /// Propagates validation errors from the component constructors.
    pub fn build(&self) -> Result<Disk, DiskError> {
        let seek = SeekCurve::paper_form(
            self.seek_sqrt_offset,
            self.seek_sqrt_coeff,
            self.seek_lin_offset,
            self.seek_lin_coeff,
            self.seek_threshold,
        )?;
        let zones = ZoneModel::linear(self.zones, self.c_min, self.c_max)?;
        Disk::new(self.cylinders, self.rotation_time, seek, zones)
    }

    /// The same drive with the innermost-zone rate everywhere — the
    /// conservative single-zone reading used by worst-case designs.
    #[must_use]
    pub fn pessimistic_single_zone(&self) -> DiskProfile {
        DiskProfile {
            name: "innermost-rate flattening",
            zones: 1,
            c_min: self.c_min,
            c_max: self.c_min,
            ..self.clone()
        }
    }
}

/// The Quantum Viking 2.1 parameters from Table 1 of the paper:
/// 6720 cylinders, 15 zones, 8.34 ms revolution, track capacities
/// 58368–95744 bytes, and the measured piecewise seek curve.
#[must_use]
pub fn quantum_viking_2_1() -> DiskProfile {
    DiskProfile {
        name: "Quantum Viking 2.1",
        cylinders: 6720,
        rotation_time: 0.00834,
        zones: 15,
        c_min: 58_368.0,
        c_max: 95_744.0,
        seek_sqrt_offset: 1.867e-3,
        seek_sqrt_coeff: 1.315e-4,
        seek_lin_offset: 3.8635e-3,
        seek_lin_coeff: 2.1e-6,
        seek_threshold: 1344.0,
    }
}

/// The conventional disk of the paper's §3.1 worked example: a single zone
/// with a 75 KB (75 000 byte) track capacity and the Viking's kinematics.
#[must_use]
pub fn single_zone_75kb() -> DiskProfile {
    DiskProfile {
        name: "single-zone 75 KB/track",
        zones: 1,
        c_min: 75_000.0,
        c_max: 75_000.0,
        ..quantum_viking_2_1()
    }
}

/// A mid-1990s single-zone drive in the class the pre-multi-zone
/// literature modeled (constant 45 KB tracks, 5400 rpm, slower arm):
/// useful for showing how much of the era's capacity the §3.1 model
/// already captures without zoning.
#[must_use]
pub fn legacy_single_zone() -> DiskProfile {
    DiskProfile {
        name: "legacy single-zone (mid-90s class)",
        cylinders: 4000,
        rotation_time: 60.0 / 5400.0,
        zones: 1,
        c_min: 45_000.0,
        c_max: 45_000.0,
        seek_sqrt_offset: 2.5e-3,
        seek_sqrt_coeff: 2.0e-4,
        seek_lin_offset: 5.5e-3,
        seek_lin_coeff: 3.5e-6,
        seek_threshold: 800.0,
    }
}

/// A late-90s successor drive: more cylinders, 7200 rpm, faster arm and
/// roughly 1.8× zoning — for studying how the guarantees scale with a
/// generation of hardware.
#[must_use]
pub fn next_generation() -> DiskProfile {
    DiskProfile {
        name: "next-generation (late-90s class)",
        cylinders: 10_000,
        rotation_time: 60.0 / 7200.0,
        zones: 20,
        c_min: 100_000.0,
        c_max: 180_000.0,
        seek_sqrt_offset: 1.4e-3,
        seek_sqrt_coeff: 1.0e-4,
        seek_lin_offset: 3.0e-3,
        seek_lin_coeff: 1.4e-6,
        seek_threshold: 2000.0,
    }
}

/// A synthetic "wide-zoning" drive with a 2× rate spread (the factor the
/// paper quotes for typical high-performance disks, §2.2): useful for
/// stressing the multi-zone machinery beyond the Viking's 1.64×.
#[must_use]
pub fn synthetic_two_to_one() -> DiskProfile {
    DiskProfile {
        name: "synthetic 2:1 zoning",
        cylinders: 8192,
        rotation_time: 0.006,
        zones: 16,
        c_min: 65_536.0,
        c_max: 131_072.0,
        seek_sqrt_offset: 1.5e-3,
        seek_sqrt_coeff: 1.1e-4,
        seek_lin_offset: 3.2e-3,
        seek_lin_coeff: 1.8e-6,
        seek_threshold: 1638.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn viking_builds() {
        let d = quantum_viking_2_1().build().unwrap();
        assert_eq!(d.cylinders(), 6720);
        assert_eq!(d.zone_count(), 15);
    }

    #[test]
    fn single_zone_example_builds() {
        let d = single_zone_75kb().build().unwrap();
        assert_eq!(d.zone_count(), 1);
        // Rate = 75 000 / 0.00834 ≈ 8.993 MB/s.
        assert!((d.min_rate() - 75_000.0 / 0.00834).abs() < 1e-6);
        assert_eq!(d.min_rate(), d.max_rate());
    }

    #[test]
    fn pessimistic_uses_innermost_rate() {
        let p = quantum_viking_2_1();
        let multi = p.build().unwrap();
        let pess = p.pessimistic_single_zone().build().unwrap();
        assert_eq!(pess.max_rate(), multi.min_rate());
    }

    #[test]
    fn synthetic_profile_has_2x_spread() {
        let d = synthetic_two_to_one().build().unwrap();
        assert!((d.max_rate() / d.min_rate() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn legacy_drive_is_slower_than_viking() {
        let legacy = legacy_single_zone().build().unwrap();
        let viking = quantum_viking_2_1().build().unwrap();
        assert_eq!(legacy.zone_count(), 1);
        assert!(legacy.mean_rate() < viking.min_rate());
        assert!(legacy.rotation_time() > viking.rotation_time());
        assert!(
            legacy.seek_curve().max_seek_time(legacy.cylinders())
                > viking.seek_curve().max_seek_time(viking.cylinders())
        );
    }

    #[test]
    fn next_generation_outperforms_viking() {
        let next = next_generation().build().unwrap();
        let viking = quantum_viking_2_1().build().unwrap();
        assert!(next.min_rate() > viking.max_rate());
        assert!(next.rotation_time() < viking.rotation_time());
        assert!((next.max_rate() / next.min_rate() - 1.8).abs() < 1e-12);
    }
}
