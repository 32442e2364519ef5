//! Server-side SLO monitoring: glitch-budget burn alerting, online
//! model conformance, and per-stream causal tracing.
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
//!   when the observed tail provably exceeds the predicted one;
//! * the **tracer** ([`mzd_slo::Tracer`]), when enabled, records one
//!   causal span chain per stream per round (admission → round → cache
//!   or disk disposition → glitch) plus per-disk sweep spans, exportable
//!   as Chrome trace-event JSON.

use crate::admission::QualityTarget;
use mzd_core::{GuaranteeModel, ServiceTimeCdf};
use mzd_slo::{BurnConfig, BurnRateEngine, ConformanceChecker, ConformanceConfig, Tracer};
use mzd_telemetry::SpanContext;
use std::collections::HashMap;

/// Grid resolution of the per-`n` predicted-CDF tables built for online
/// conformance: coarse enough to build lazily mid-run, fine enough that
/// interpolation error is far below the checker's tail tolerance.
const CDF_GRID_POINTS: usize = 65;

/// Disk-sweep spans get trace ids in a reserved high range so they never
/// collide with stream trace ids (raw stream ids).
const DISK_TRACE_BASE: u64 = 1 << 48;

/// How the server's SLO layer is configured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSettings {
    /// Burn-rate engine configuration. [`SloSettings::for_target`]
    /// derives the budget from the admission target.
    pub burn: BurnConfig,
    /// Online model-conformance checking; `None` skips the per-round
    /// exact-CDF evaluations entirely.
    pub conformance: Option<ConformanceConfig>,
    /// Whether to record causal spans for Chrome trace export.
    pub tracing: bool,
}

impl SloSettings {
    /// Default settings for an admission target: burn windows/factors
    /// from [`BurnConfig::for_budget`] on the target's glitch budget,
    /// conformance on with defaults, tracing off.
    #[must_use]
    pub fn for_target(target: QualityTarget) -> Self {
        let budget = target.glitch_budget();
        Self {
            burn: BurnConfig::for_budget(if budget > 0.0 { budget } else { 1e-9 }),
            conformance: Some(ConformanceConfig::default()),
            tracing: false,
        }
    }

    /// The same settings with tracing switched on or off.
    #[must_use]
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
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
    /// Causal spans recorded so far (0 when tracing is off).
    pub trace_spans: usize,
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
    /// Lazily built predicted-CDF tables, one per observed batch size.
    cdfs: HashMap<u32, ServiceTimeCdf>,
    pub tracer: Option<Tracer>,
    /// Root span per live stream (tracing only).
    stream_roots: HashMap<u64, SpanContext>,
    /// An externally minted root to adopt for the *next* stream seen —
    /// how a cluster dispatcher propagates its submission-time
    /// `SpanContext` into this node's trace so cross-node chains stitch.
    pending_root: Option<SpanContext>,
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
            tracer: settings.tracing.then(Tracer::new),
            stream_roots: HashMap::new(),
            pending_root: None,
            metrics: SloMetrics::new(),
        })
    }

    /// The predicted CDF `F_n`, tabulating it on first use for this `n`.
    /// `None` if the grid build fails (degenerate `n`).
    pub(crate) fn cdf_for(&mut self, n: u32) -> Option<&ServiceTimeCdf> {
        if n == 0 {
            return None;
        }
        if !self.cdfs.contains_key(&n) {
            let built = ServiceTimeCdf::with_resolution(&self.model, n, CDF_GRID_POINTS).ok()?;
            self.cdfs.insert(n, built);
        }
        self.cdfs.get(&n)
    }

    /// The root span context of a stream: an externally staged root
    /// ([`Self::stage_root`]) is adopted first, otherwise one is minted
    /// on first sight. `None` when tracing is off.
    pub(crate) fn stream_root(&mut self, stream: u64) -> Option<SpanContext> {
        let tracer = self.tracer.as_mut()?;
        match self.stream_roots.entry(stream) {
            std::collections::hash_map::Entry::Occupied(e) => Some(*e.get()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let root = self
                    .pending_root
                    .take()
                    .unwrap_or_else(|| tracer.root(stream));
                Some(*e.insert(root))
            }
        }
    }

    /// Stage an externally minted root context to adopt for the next
    /// stream that needs one (consumed by [`Self::stream_root`]). The
    /// cluster dispatcher uses this to thread its submission-time span
    /// through admission on whichever node the stream lands on.
    pub(crate) fn stage_root(&mut self, root: SpanContext) {
        if self.tracer.is_some() {
            self.pending_root = Some(root);
        }
    }

    /// Drop a staged root that was never adopted (the stream it was
    /// minted for was rejected by admission).
    pub(crate) fn clear_staged_root(&mut self) {
        self.pending_root = None;
    }

    /// Drop the root context of a finished stream (the recorded spans
    /// stay in the tracer).
    pub(crate) fn forget_stream(&mut self, stream: u64) {
        self.stream_roots.remove(&stream);
    }

    /// Record a span as a child of `parent`, returning the new context
    /// so further children can hang off it. `None` when tracing is off.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_under(
        &mut self,
        parent: SpanContext,
        name: &'static str,
        cat: &'static str,
        pid: u32,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        args: &[(&'static str, u64)],
    ) -> Option<SpanContext> {
        let tracer = self.tracer.as_mut()?;
        let ctx = tracer.child(&parent);
        tracer.record(name, cat, pid, tid, ts_us, dur_us, ctx, args);
        Some(ctx)
    }

    /// Record a span on a stream's causal chain (pid 1, tid = stream
    /// id), directly under the stream's root. `None` when tracing is
    /// off.
    pub(crate) fn record_stream_span(
        &mut self,
        stream: u64,
        name: &'static str,
        cat: &'static str,
        ts_us: u64,
        dur_us: u64,
        args: &[(&'static str, u64)],
    ) -> Option<SpanContext> {
        let root = self.stream_root(stream)?;
        self.record_under(root, name, cat, 1, stream, ts_us, dur_us, args)
    }

    /// Record a per-disk span (pid 2, tid = disk index). Disk sweeps are
    /// their own roots in a reserved trace-id range so stream trace ids
    /// (raw stream ids) never collide with them.
    pub(crate) fn record_disk_span(
        &mut self,
        disk: u64,
        name: &'static str,
        ts_us: u64,
        dur_us: u64,
        args: &[(&'static str, u64)],
    ) {
        if let Some(tracer) = self.tracer.as_mut() {
            let ctx = tracer.root(DISK_TRACE_BASE + disk);
            tracer.record(name, "disk", 2, disk, ts_us, dur_us, ctx, args);
        }
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
            trace_spans: self.tracer.as_ref().map_or(0, Tracer::len),
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
        assert!(!s.tracing);
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
        assert!(s.with_tracing(true).tracing);
    }

    #[test]
    fn state_builds_and_reports_idle_status() {
        let model = GuaranteeModel::paper_reference().unwrap();
        let settings =
            SloSettings::for_target(QualityTarget::RoundOverrun { delta: 0.01 }).with_tracing(true);
        let mut st = SloState::new(settings, model).unwrap();
        let status = st.status(false);
        assert!(!status.alert_active);
        assert!(!status.drift_active);
        assert_eq!(status.trace_spans, 0);
        // Stream roots are stable per stream and distinct across streams.
        let a = st.stream_root(1).unwrap();
        let b = st.stream_root(1).unwrap();
        let c = st.stream_root(2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.span, c.span);
        st.forget_stream(1);
        let d = st.stream_root(1).unwrap();
        assert_ne!(a.span, d.span);
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
}
