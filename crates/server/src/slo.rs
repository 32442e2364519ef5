//! Server-side SLO monitoring: glitch-budget burn alerting and online
//! model conformance.
//!
//! [`crate::VideoServer::enable_slo`] attaches an `SloState` built
//! from [`SloSettings`]; [`crate::VideoServer::run_round`] then feeds it
//! every round:
//!
//! * the **burn engine** ([`mzd_slo::BurnRateEngine`]) consumes
//!   `(stream-rounds served, glitches)` against the budget the admission
//!   target promises ([`QualityTarget::glitch_budget`]). A fast-burn
//!   alert freezes cache-aware over-admission — the measured-hit-ratio
//!   inflation is exactly the part of the limit *not* covered by the
//!   analytic proof, so it is the part that must yield when the glitch
//!   budget burns too fast;
//! * the **conformance checker** ([`mzd_slo::ConformanceChecker`])
//!   consumes each busy disk's observed sweep time pushed through the
//!   model's predicted CDF (a probability integral transform; uniform
//!   iff the §3 model still describes the disks) and raises `slo.drift`
//!   when the observed tail provably exceeds the predicted one.
//!
//! Causal tracing is a separate layer ([`crate::VideoServer::enable_tracing`]).

use crate::admission::QualityTarget;
use mzd_core::{GuaranteeModel, ServiceTimeCdf};
use mzd_slo::{BurnConfig, BurnRateEngine, ConformanceChecker, ConformanceConfig};
use std::collections::HashMap;

/// Grid resolution of the per-`n` predicted-CDF tables built for online
/// conformance: coarse enough to build lazily mid-run, fine enough that
/// interpolation error is far below the checker's tail tolerance.
const CDF_GRID_POINTS: usize = 65;

/// How the server's SLO layer is configured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSettings {
    /// Burn-rate engine configuration. [`SloSettings::for_target`]
    /// derives the budget from the admission target.
    pub burn: BurnConfig,
    /// Online model-conformance checking; `None` skips the per-round
    /// exact-CDF evaluations entirely.
    pub conformance: Option<ConformanceConfig>,
}

impl SloSettings {
    /// Default settings for an admission target: burn windows/factors
    /// from [`BurnConfig::for_budget`] on the target's glitch budget,
    /// conformance on with defaults.
    #[must_use]
    pub fn for_target(target: QualityTarget) -> Self {
        let budget = target.glitch_budget();
        Self {
            burn: BurnConfig::for_budget(if budget > 0.0 { budget } else { 1e-9 }),
            conformance: Some(ConformanceConfig::default()),
        }
    }
}

/// A point-in-time summary of the SLO layer, for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloStatus {
    /// Whether a fast-burn alert is active right now.
    pub alert_active: bool,
    /// Fast-burn alerts raised so far.
    pub alerts_raised: u64,
    /// Burn rate over the fast window.
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// Burn rate over the long reporting window.
    pub burn_long: f64,
    /// Whether model drift is flagged right now (false when conformance
    /// is disabled).
    pub drift_active: bool,
    /// Drift alarms raised so far.
    pub drifts_raised: u64,
    /// KS-style PIT uniformity deviation (0 when conformance is off).
    pub ks_statistic: f64,
    /// Observed fraction of sweeps beyond the monitored model quantile.
    pub tail_exceedance: f64,
    /// Whether cache-aware over-admission is currently frozen.
    pub over_admission_frozen: bool,
}

/// Global-registry handles for the SLO gauges and counters, cached like
/// the server's other metric handles.
#[derive(Debug)]
pub(crate) struct SloMetrics {
    pub burn_fast: mzd_telemetry::Gauge,
    pub burn_slow: mzd_telemetry::Gauge,
    pub burn_long: mzd_telemetry::Gauge,
    pub alerts: mzd_telemetry::Counter,
    pub ks: mzd_telemetry::Gauge,
    pub tail: mzd_telemetry::Gauge,
    pub drifts: mzd_telemetry::Counter,
}

impl SloMetrics {
    fn new() -> Self {
        let g = mzd_telemetry::global();
        Self {
            burn_fast: g.gauge("slo.burn_rate.fast"),
            burn_slow: g.gauge("slo.burn_rate.slow"),
            burn_long: g.gauge("slo.burn_rate.long"),
            alerts: g.counter("slo.alerts_raised"),
            ks: g.gauge("slo.conformance.ks"),
            tail: g.gauge("slo.conformance.tail_exceedance"),
            drifts: g.counter("slo.drifts_raised"),
        }
    }
}

/// The server's attached SLO machinery (crate-internal; summarized for
/// callers by [`SloStatus`]).
#[derive(Debug)]
pub(crate) struct SloState {
    pub burn: BurnRateEngine,
    pub conformance: Option<ConformanceChecker>,
    /// The analytic model the conformance CDFs are derived from; kept in
    /// lockstep with workload reconfiguration.
    pub model: GuaranteeModel,
    /// Lazily built predicted-CDF tables, one per observed batch size;
    /// `None` records a failed build so it is never retried.
    cdfs: HashMap<u32, Option<ServiceTimeCdf>>,
    pub metrics: SloMetrics,
}

impl SloState {
    pub(crate) fn new(
        settings: SloSettings,
        model: GuaranteeModel,
    ) -> Result<Self, mzd_slo::SloError> {
        let burn = BurnRateEngine::new(settings.burn)?;
        let conformance = settings
            .conformance
            .map(ConformanceChecker::new)
            .transpose()?;
        Ok(Self {
            burn,
            conformance,
            model,
            cdfs: HashMap::new(),
            metrics: SloMetrics::new(),
        })
    }

    /// The predicted CDF `F_n`, tabulating it on first use for this `n`.
    /// `None` if the grid build fails (degenerate `n`); the failure is
    /// cached like a table, so each `n` is built at most once.
    pub(crate) fn cdf_for(&mut self, n: u32) -> Option<&ServiceTimeCdf> {
        let model = &self.model;
        self.cdfs
            .entry(n)
            .or_insert_with(|| ServiceTimeCdf::with_resolution(model, n, CDF_GRID_POINTS).ok())
            .as_ref()
    }

    pub(crate) fn status(&self, over_admission_frozen: bool) -> SloStatus {
        SloStatus {
            alert_active: self.burn.alert_active(),
            alerts_raised: self.burn.alerts_raised(),
            burn_fast: self.burn.burn_fast(),
            burn_slow: self.burn.burn_slow(),
            burn_long: self.burn.burn_long(),
            drift_active: self
                .conformance
                .as_ref()
                .is_some_and(ConformanceChecker::drift_active),
            drifts_raised: self
                .conformance
                .as_ref()
                .map_or(0, ConformanceChecker::drifts_raised),
            ks_statistic: self
                .conformance
                .as_ref()
                .map_or(0.0, ConformanceChecker::ks_statistic),
            tail_exceedance: self
                .conformance
                .as_ref()
                .map_or(0.0, ConformanceChecker::tail_exceedance),
            over_admission_frozen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_derive_budget_from_target() {
        let s = SloSettings::for_target(QualityTarget::GlitchRate {
            m: 1200,
            g: 12,
            epsilon: 0.01,
        });
        assert!((s.burn.budget - 0.01).abs() < 1e-15);
        assert!(s.conformance.is_some());
        assert!(
            SloSettings::for_target(QualityTarget::RoundOverrun { delta: 0.02 })
                .burn
                .budget
                > 0.019
        );
        // Degenerate budget clamps instead of failing validation.
        let s = SloSettings::for_target(QualityTarget::GlitchRate {
            m: 0,
            g: 1,
            epsilon: 0.01,
        });
        assert!(s.burn.budget > 0.0);
    }

    #[test]
    fn state_builds_and_reports_idle_status() {
        let model = GuaranteeModel::paper_reference().unwrap();
        let settings = SloSettings::for_target(QualityTarget::RoundOverrun { delta: 0.01 });
        let st = SloState::new(settings, model).unwrap();
        let status = st.status(false);
        assert!(!status.alert_active);
        assert!(!status.drift_active);
    }

    #[test]
    fn cdf_tables_are_cached_per_n_and_reject_zero() {
        let model = GuaranteeModel::paper_reference().unwrap();
        let settings = SloSettings::for_target(QualityTarget::RoundOverrun { delta: 0.01 });
        let mut st = SloState::new(settings, model).unwrap();
        assert!(st.cdf_for(0).is_none());
        let v1 = st.cdf_for(4).unwrap().evaluate(1.0);
        let v2 = st.cdf_for(4).unwrap().evaluate(1.0);
        assert_eq!(v1, v2);
    }

    #[test]
    fn a_failed_cdf_build_is_attempted_only_once() {
        let model = GuaranteeModel::paper_reference().unwrap();
        let settings = SloSettings::for_target(QualityTarget::RoundOverrun { delta: 0.01 });
        let mut st = SloState::new(settings, model).unwrap();
        // n = 0 has no continuous CDF, so its build fails; the failure is
        // cached and later rounds hit the cache instead of rebuilding.
        assert!(st.cdf_for(0).is_none());
        assert!(matches!(st.cdfs.get(&0), Some(None)));
        assert!(st.cdf_for(0).is_none());
        assert_eq!(st.cdfs.len(), 1);
    }
}
