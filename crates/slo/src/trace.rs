//! Causal trace collection and Chrome trace-event export.
//!
//! A [`Tracer`] accumulates complete spans (`ph: "X"` duration events)
//! and renders them as Chrome trace-event JSON — the format Perfetto
//! and `chrome://tracing` load directly. Span identity and causality
//! use [`mzd_telemetry::SpanContext`]: every span carries its trace id,
//! its own span id and its parent span id in `args`, so per-stream
//! causal chains (admission → queue wait → cache lookup → disk fetch →
//! delivery) survive the export.
//!
//! Timestamps are **logical**: the workspace deliberately records no
//! wall-clock time (seeded replays must be byte-identical), so callers
//! supply microseconds derived from `round index × round length`.

use mzd_telemetry::json::{write_escaped, write_f64};
use mzd_telemetry::SpanContext;

/// One complete span (a Chrome `ph: "X"` duration event).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name (e.g. `stream.round`, `disk.sweep`).
    pub name: String,
    /// Category, used by trace viewers for filtering.
    pub cat: &'static str,
    /// Process lane (1 = streams, 2 = disks by convention).
    pub pid: u32,
    /// Thread lane (stream id or disk index).
    pub tid: u64,
    /// Start, microseconds of logical time.
    pub ts_us: u64,
    /// Duration, microseconds (at least 1 so viewers render it).
    pub dur_us: u64,
    /// Causal identity: trace, span and parent ids.
    pub ctx: SpanContext,
    /// Extra numeric arguments rendered into `args`.
    pub args: Vec<(&'static str, u64)>,
}

/// Collects spans and renders Chrome trace-event JSON.
///
/// Bounded: beyond `capacity` spans new records are counted as dropped
/// instead of stored, so a long run cannot exhaust memory.
#[derive(Debug)]
pub struct Tracer {
    events: Vec<TraceEvent>,
    next_span: u64,
    capacity: usize,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer holding up to one million spans.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(1 << 20)
    }

    /// A tracer with an explicit span capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::new(),
            next_span: 1,
            capacity,
            dropped: 0,
        }
    }

    /// Rebase span-id allocation to start at `base + 1`.
    ///
    /// A fleet runs one tracer per node plus one at the dispatcher; when
    /// their spans are stitched into a single trace, ids allocated from
    /// the default counter would collide across tracers. Each node's
    /// tracer is rebased into a disjoint range (node `i` at
    /// `(i + 1) << 40` by cluster convention, the fleet tracer at 0), so
    /// a merged trace keeps every parent/span edge unambiguous.
    ///
    /// Call before any span is allocated; ids already handed out are not
    /// rewritten.
    pub fn set_span_base(&mut self, base: u64) {
        self.next_span = self.next_span.max(base + 1);
    }

    fn alloc_span_id(&mut self) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        id
    }

    /// Open a new root context for `trace` (e.g. a stream id).
    pub fn root(&mut self, trace: u64) -> SpanContext {
        let span = self.alloc_span_id();
        SpanContext::root(trace, span)
    }

    /// Derive a child context under `parent`.
    pub fn child(&mut self, parent: &SpanContext) -> SpanContext {
        let span = self.alloc_span_id();
        parent.child(span)
    }

    /// Record one complete span. `dur_us` is clamped up to 1 so zero-
    /// length spans stay visible in viewers.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        pid: u32,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        ctx: SpanContext,
        args: &[(&'static str, u64)],
    ) {
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            pid,
            tid,
            ts_us,
            dur_us: dur_us.max(1),
            ctx,
            args: args.to_vec(),
        });
    }

    /// Spans discarded after the capacity was reached.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded spans, in recording order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Render the Chrome trace-event JSON object
    /// (`{"traceEvents": [...], ...}`).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        render_chrome_json(&self.events, self.dropped)
    }
}

/// Render an arbitrary span collection as one Chrome trace-event JSON
/// object — the shared exporter behind [`Tracer::to_chrome_json`], and
/// what a fleet uses to stitch several tracers' events (dispatcher +
/// every node) into a single trace file. Events render in slice order;
/// callers control that order for byte-stable output.
#[must_use]
pub fn render_chrome_json(events: &[TraceEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_escaped(&mut out, &e.name);
        out.push_str(",\"cat\":");
        write_escaped(&mut out, e.cat);
        out.push_str(",\"ph\":\"X\",\"ts\":");
        out.push_str(&e.ts_us.to_string());
        out.push_str(",\"dur\":");
        out.push_str(&e.dur_us.to_string());
        out.push_str(",\"pid\":");
        out.push_str(&e.pid.to_string());
        out.push_str(",\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"args\":{\"trace\":");
        out.push_str(&e.ctx.trace.to_string());
        out.push_str(",\"span\":");
        out.push_str(&e.ctx.span.to_string());
        if let Some(parent) = e.ctx.parent {
            out.push_str(",\"parent\":");
            out.push_str(&parent.to_string());
        }
        for &(k, v) in &e.args {
            out.push(',');
            write_escaped(&mut out, k);
            out.push(':');
            // u64 args are written through the f64 path only when
            // needed; integers render exactly.
            if v <= (1u64 << 53) {
                out.push_str(&v.to_string());
            } else {
                write_f64(&mut out, v as f64);
            }
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":");
    out.push_str(&dropped.to_string());
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mzd_telemetry::json;

    #[test]
    fn span_ids_are_unique_and_causal() {
        let mut t = Tracer::new();
        let root = t.root(7);
        let child = t.child(&root);
        let grandchild = t.child(&child);
        assert_eq!(root.trace, 7);
        assert_eq!(child.trace, 7);
        assert_eq!(child.parent, Some(root.span));
        assert_eq!(grandchild.parent, Some(child.span));
        assert_ne!(root.span, child.span);
        assert_ne!(child.span, grandchild.span);
    }

    #[test]
    fn chrome_json_parses_and_carries_causality() {
        let mut t = Tracer::new();
        let root = t.root(42);
        t.record(
            "stream.round",
            "stream",
            1,
            42,
            1_000_000,
            800_000,
            root,
            &[("round", 1)],
        );
        let child = t.child(&root);
        t.record("disk.fetch", "disk", 1, 42, 1_000_000, 750_000, child, &[]);
        let parsed = json::parse(&t.to_chrome_json()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_f64().is_some());
            assert!(e.get("dur").unwrap().as_f64().is_some());
            assert!(e.get("pid").unwrap().as_f64().is_some());
            assert!(e.get("tid").unwrap().as_f64().is_some());
            assert_eq!(
                e.get("args").unwrap().get("trace").unwrap().as_f64(),
                Some(42.0)
            );
        }
        let fetch = &events[1];
        assert_eq!(
            fetch.get("args").unwrap().get("parent").unwrap().as_f64(),
            Some(root.span as f64)
        );
    }

    #[test]
    fn capacity_bounds_memory() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5 {
            let ctx = t.root(i);
            t.record("s", "c", 1, i, 0, 1, ctx, &[]);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        let parsed = json::parse(&t.to_chrome_json()).unwrap();
        assert_eq!(
            parsed
                .get("otherData")
                .unwrap()
                .get("dropped")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn span_base_partitions_id_ranges() {
        let mut fleet = Tracer::new();
        let mut node0 = Tracer::new();
        let mut node2 = Tracer::new();
        node0.set_span_base(1u64 << 40);
        node2.set_span_base(3u64 << 40);
        let root = fleet.root(9);
        let a = node0.child(&root);
        let b = node2.child(&root);
        assert_eq!(root.span, 1);
        assert_eq!(a.span, (1u64 << 40) + 1);
        assert_eq!(b.span, (3u64 << 40) + 1);
        assert_eq!(a.parent, Some(root.span));
        assert_eq!(b.parent, Some(root.span));
        // Rebasing never moves the counter backwards.
        node2.set_span_base(0);
        assert_eq!(node2.child(&root).span, (3u64 << 40) + 2);
    }

    #[test]
    fn merged_events_render_as_one_trace() {
        let mut fleet = Tracer::new();
        let mut node = Tracer::new();
        node.set_span_base(1u64 << 40);
        let root = fleet.root(5);
        fleet.record("fleet.submit", "cluster", 0, 5, 0, 1, root, &[]);
        let admit = node.child(&root);
        node.record("admit", "admission", 1, 5, 10, 1, admit, &[]);
        let mut merged: Vec<TraceEvent> = fleet.events().to_vec();
        merged.extend_from_slice(node.events());
        let text = render_chrome_json(&merged, fleet.dropped() + node.dropped());
        let parsed = json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        // Both spans carry the same trace id and a connected parent edge.
        for e in events {
            assert_eq!(
                e.get("args").unwrap().get("trace").unwrap().as_f64(),
                Some(5.0)
            );
        }
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn zero_duration_clamped_to_one_microsecond() {
        let mut t = Tracer::new();
        let ctx = t.root(1);
        t.record("hit", "cache", 1, 1, 5, 0, ctx, &[]);
        assert_eq!(t.events()[0].dur_us, 1);
    }
}
