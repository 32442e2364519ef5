//! Observability substrate for the mzd workspace.
//!
//! The paper's subject is *quantified* service quality — glitch rates,
//! round-overrun probabilities, admission headroom — so the reproduction
//! must be able to measure itself: how long a Chernoff minimization takes,
//! how the simulated round service time is actually distributed, what the
//! admission controller accepted and rejected. This crate provides the
//! three primitives the rest of the workspace records into:
//!
//! * [`Registry`] — a thread-safe metrics registry of named
//!   [`Counter`]s, [`Gauge`]s and atomic [`Histogram`]s.
//!   [`Registry::snapshot`] renders the whole registry as JSON (see
//!   [`Snapshot`]).
//! * [`QuantileSketch`] — the one histogram *value*: a fixed-layout
//!   log-bucket sketch with quantile estimation (p50/p95/p99/p999)
//!   suitable for service-time and seek-time tails, mergeable exactly
//!   across nodes. A [`Histogram`] records atomically and
//!   [`Histogram::load`]s into one.
//! * [`Span`] — a timer guard: created against a histogram name, it
//!   records the elapsed wall-clock seconds into that histogram on drop.
//!   The [`span!`] macro is the one-line form against the global
//!   registry.
//! * [`event::Event`] + [`event::EventSink`] — a structured event log
//!   with pluggable sinks ([`event::NullSink`], [`event::StderrSink`],
//!   [`event::JsonlSink`], [`event::MemorySink`]) for per-round records
//!   and admission decisions.
//! * [`prom::render`] — Prometheus text exposition of a whole
//!   [`Registry`], including histogram buckets as cumulative
//!   `_bucket{le="..."}` series (the `--prom-out` surface).
//!
//! # Global vs. scoped
//!
//! Library code records into the process-wide [`global()`] registry and
//! [`event::emit`]s to the process-wide sink so instrumentation needs no
//! plumbing through every constructor. Everything is also available as
//! plain values ([`Registry::new`], any `EventSink` instance) for tests
//! that need isolation.
//!
//! Metric handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap
//! `Arc`s: look them up once (`global().counter("x")`), store the clone,
//! and increment lock-free on the hot path. A counter increment is one
//! relaxed atomic add; a histogram record is an atomic add plus a handful
//! of atomic updates (< 50 ns — see the `telemetry_overhead` bench in
//! `mzd-bench`).
//!
//! # Naming convention
//!
//! Dotted paths, `crate.subsystem.quantity`:
//! `core.chernoff.iterations`, `sim.round.service_time`,
//! `server.admission.rejected`. Durations recorded by [`Span`]s are in
//! seconds.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod prom;
mod registry;
mod span;

pub use event::{emit, events_enabled, set_sink, Event, EventSink};
pub use registry::{
    geometry, global, Counter, Gauge, Histogram, QuantileSketch, Registry, Snapshot,
    QUANTILE_LABELS,
};
pub use span::{Span, SpanContext};

/// Time a scope into a histogram of the [`global()`] registry.
///
/// ```
/// # fn chernoff_minimize() {}
/// let _span = mzd_telemetry::span!("core.chernoff.minimize");
/// chernoff_minimize();
/// // elapsed seconds recorded into histogram "core.chernoff.minimize"
/// // when `_span` drops
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($crate::global().execution_histogram($name))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_agrees_with_histogram_buckets() {
        // The atomic recording path and a directly recorded sketch hold
        // the same state, NaN and out-of-range values included.
        let hist = Registry::new().histogram("t");
        let mut sketch = QuantileSketch::new();
        for v in [f64::NAN, 0.0, 1e-12, 2.0, 1e9]
            .into_iter()
            .chain((1..=500).map(|i| f64::from(i) * 1e-3))
        {
            hist.record(v);
            sketch.record(v);
        }
        assert_eq!(hist.load(), sketch);
        assert_eq!(Histogram::default().load(), QuantileSketch::new());
    }

    #[test]
    fn empty_sketch_quantile_is_nan() {
        let s = QuantileSketch::new();
        assert!(s.quantile(0.5).is_nan());
        assert_eq!(s.count(), 0);
        // NaN observations are dropped, not binned.
        let mut s = QuantileSketch::new();
        s.record(f64::NAN);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merged_quantile_matches_concatenated_within_one_bucket() {
        // Two disjoint populations; the merged p99 must equal the p99
        // of the concatenation up to bucket resolution (~29% width).
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut all = QuantileSketch::new();
        for i in 1..=300 {
            let low = f64::from(i) * 1e-4;
            let high = f64::from(i) * 2e-3;
            a.record(low);
            b.record(high);
            all.record(low);
            all.record(high);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.bucket_counts(), all.bucket_counts());
        for (_, q) in QUANTILE_LABELS {
            assert_eq!(merged.quantile(q), all.quantile(q));
        }
    }
}
