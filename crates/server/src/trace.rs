//! Per-stream causal tracing, a server layer of its own.
//!
//! [`crate::VideoServer::enable_tracing`] attaches a [`StreamTracer`].
//! It records one span chain per stream per round (admission → round →
//! cache or disk disposition → glitch) plus per-disk sweep spans, and
//! feeds no monitor and no decision: a traced run differs from an
//! untraced one in its trace alone.

use mzd_slo::Tracer;
use mzd_telemetry::SpanContext;
use std::collections::HashMap;

/// Disk-sweep spans get trace ids in a reserved high range so they never
/// collide with stream trace ids (raw stream ids).
const DISK_TRACE_BASE: u64 = 1 << 48;

/// The server's tracer and the root span of every live stream.
#[derive(Debug)]
pub(crate) struct StreamTracer {
    pub tracer: Tracer,
    /// Root span per live stream: minted on first sight, or adopted
    /// from a cluster dispatcher at admission.
    pub stream_roots: HashMap<u64, SpanContext>,
}

impl StreamTracer {
    /// A tracer allocating span ids from `span_base + 1`.
    pub(crate) fn new(span_base: u64) -> Self {
        let mut tracer = Tracer::new();
        tracer.set_span_base(span_base);
        Self {
            tracer,
            stream_roots: HashMap::new(),
        }
    }

    /// Record a span on a stream's causal chain (pid 1, tid = stream
    /// id) directly under the stream's root, returning its context.
    pub(crate) fn record_stream_span(
        &mut self,
        stream: u64,
        name: &'static str,
        cat: &'static str,
        ts_us: u64,
        dur_us: u64,
        args: &[(&'static str, u64)],
    ) -> SpanContext {
        let tracer = &mut self.tracer;
        let root = *self
            .stream_roots
            .entry(stream)
            .or_insert_with(|| tracer.root(stream));
        let ctx = tracer.child(&root);
        tracer.record(name, cat, 1, stream, ts_us, dur_us, ctx, args);
        ctx
    }

    /// Record an argument-less span of `stream` under `parent`.
    pub(crate) fn record_under(
        &mut self,
        parent: SpanContext,
        stream: u64,
        name: &'static str,
        cat: &'static str,
        ts_us: u64,
        dur_us: u64,
    ) {
        let ctx = self.tracer.child(&parent);
        self.tracer
            .record(name, cat, 1, stream, ts_us, dur_us, ctx, &[]);
    }

    /// Record a per-disk span (pid 2, tid = disk index) as its own root.
    pub(crate) fn record_disk_span(
        &mut self,
        disk: u64,
        name: &'static str,
        ts_us: u64,
        dur_us: u64,
        args: &[(&'static str, u64)],
    ) {
        let ctx = self.tracer.root(DISK_TRACE_BASE + disk);
        self.tracer
            .record(name, "disk", 2, disk, ts_us, dur_us, ctx, args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_roots_are_stable_per_stream_and_distinct_across_streams() {
        let mut t = StreamTracer::new(0);
        let a = t.record_stream_span(1, "a", "stream", 0, 1, &[]);
        let b = t.record_stream_span(1, "b", "stream", 0, 1, &[]);
        let c = t.record_stream_span(2, "c", "stream", 0, 1, &[]);
        assert_eq!((a.trace, a.parent), (b.trace, b.parent));
        assert_ne!(a.parent, c.parent);
        t.stream_roots.remove(&1);
        let d = t.record_stream_span(1, "d", "stream", 0, 1, &[]);
        assert_ne!(a.parent, d.parent);
    }
}
