//! Span timing: RAII guards that record elapsed wall-clock seconds into
//! a histogram.

use crate::registry::Histogram;
use std::time::Instant;

/// Causal identity of a span within a trace: the trace it belongs to,
/// its own span id, and its parent span (`None` for a root).
///
/// This is the linkage type the SLO layer's tracer uses to thread one
/// stream's journey (admission → queueing → cache lookup → disk sweep →
/// delivery) through parent/child spans; it carries no timing itself —
/// pair it with [`Span`] for wall-clock histograms or with logical
/// (round-derived) timestamps for deterministic trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Trace id shared by every span of one causal chain (by convention
    /// the stream id).
    pub trace: u64,
    /// This span's id, unique within the trace's tracer.
    pub span: u64,
    /// The parent span's id; `None` for a root span.
    pub parent: Option<u64>,
}

impl SpanContext {
    /// A root context: no parent.
    #[must_use]
    pub fn root(trace: u64, span: u64) -> Self {
        Self {
            trace,
            span,
            parent: None,
        }
    }

    /// A child context: same trace, this context as parent.
    #[must_use]
    pub fn child(&self, span: u64) -> Self {
        Self {
            trace: self.trace,
            span,
            parent: Some(self.span),
        }
    }
}

/// A running timer that records its elapsed seconds into a histogram
/// when dropped (or explicitly finished).
///
/// Obtain one from the [`crate::span!`] macro (global registry) or
/// [`Span::enter`] (any histogram handle):
///
/// ```
/// use mzd_telemetry::{Registry, Span};
/// let registry = Registry::new();
/// {
///     let _span = Span::enter(registry.histogram("solver.iteration"));
///     // ... timed work ...
/// } // recorded here
/// assert_eq!(registry.histogram("solver.iteration").load().count(), 1);
/// ```
#[derive(Debug)]
pub struct Span {
    histogram: Histogram,
    start: Instant,
    finished: bool,
}

impl Span {
    /// Start timing against `histogram`.
    #[must_use]
    pub fn enter(histogram: Histogram) -> Self {
        Self {
            histogram,
            start: Instant::now(),
            finished: false,
        }
    }

    /// Stop now, record, and return the elapsed seconds.
    pub fn finish(mut self) -> f64 {
        let elapsed = self.start.elapsed().as_secs_f64();
        self.histogram.record(elapsed);
        self.finished = true;
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.finished {
            self.histogram.record(self.start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn drop_records_once() {
        let r = Registry::new();
        {
            let _span = Span::enter(r.histogram("t"));
        }
        assert_eq!(r.histogram("t").load().count(), 1);
    }

    #[test]
    fn finish_records_once_and_reports_elapsed() {
        let r = Registry::new();
        let span = Span::enter(r.histogram("t"));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let elapsed = span.finish();
        assert!(elapsed >= 0.002, "elapsed {elapsed}");
        assert_eq!(r.histogram("t").load().count(), 1);
        assert!(r.histogram("t").load().min() >= 0.002);
    }

    #[test]
    fn span_context_child_links_to_parent() {
        let root = SpanContext::root(9, 1);
        assert_eq!(root.parent, None);
        let child = root.child(2);
        assert_eq!(child.trace, 9);
        assert_eq!(child.parent, Some(1));
        let grandchild = child.child(3);
        assert_eq!(grandchild.parent, Some(2));
        assert_eq!(grandchild.trace, 9);
    }

    #[test]
    fn global_span_macro_compiles_and_records() {
        let before = crate::global().histogram("test.span_macro").load().count();
        {
            let _span = crate::span!("test.span_macro");
        }
        assert_eq!(
            crate::global().histogram("test.span_macro").load().count(),
            before + 1
        );
    }
}
