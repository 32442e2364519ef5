//! Fleet-wide observability plane for the mzd workspace.
//!
//! A multi-node fleet cannot audit its composed stochastic guarantee
//! with per-node averages of averages: the p99 of a merged population
//! is not a function of per-node p99s. The fleet path records into
//! [`mzd_telemetry::QuantileSketch`] — the workspace's one histogram
//! value, whose fixed layout merges *exactly* by bucket-wise addition,
//! so a merged sketch's quantiles are true fleet-level p50/p99/p999 up
//! to one bucket width. This crate adds the labeled scopes around it:
//!
//! * [`LabelSet`] — a sorted label scope (`node="3"`, `disk="0"`)
//!   rendered with full Prometheus value escaping.
//! * [`NodeScope`] / [`SketchFleet`] — one labeled sketch registry per
//!   node plus the fleet aggregator that merges them and renders
//!   Prometheus text: per-node `_bucket{node="N",le="…"}` series and a
//!   fleet-level `_fleet` summary with `quantile` labels. The `_bucket`
//!   / `_sum` / `_count` lines come from the same writer as the
//!   registry exposition ([`mzd_telemetry::prom::write_histogram`]).
//!
//! Like its siblings the crate is dependency-free beyond
//! `mzd-telemetry` itself, and everything here is a pure function of
//! recorded values — no clocks, no I/O — so fleet exposition is
//! byte-identical across reruns.

#![warn(missing_docs)]

use mzd_telemetry::{prom, QuantileSketch};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A sorted, immutable-after-build label scope.
///
/// Keys are held sorted so rendering — and therefore every exposition
/// byte — is independent of insertion order. Values may contain any
/// characters; rendering escapes the three the exposition format
/// reserves (see [`mzd_telemetry::prom::escape_label_value`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LabelSet {
    pairs: Vec<(String, String)>,
}

impl LabelSet {
    /// The empty label set (renders as no label block at all).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add or replace one label, keeping keys sorted.
    #[must_use]
    pub fn with(mut self, key: &str, value: &str) -> Self {
        match self.pairs.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.pairs[i].1 = value.to_string(),
            Err(i) => self.pairs.insert(i, (key.to_string(), value.to_string())),
        }
        self
    }

    /// The sorted `(key, value)` pairs.
    #[must_use]
    pub fn pairs(&self) -> &[(String, String)] {
        &self.pairs
    }

    /// Render as `{k="v",...}` (empty string when no labels), with
    /// values escaped for the exposition format.
    #[must_use]
    pub fn render(&self) -> String {
        let pairs: Vec<(&str, &str)> = self
            .pairs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        prom::render_label_set(&pairs)
    }
}

/// One node's sketch registry: a label scope (`node="N"`) plus named
/// sketches, recorded into by the cluster round loop.
#[derive(Debug, Clone, Default)]
pub struct NodeScope {
    labels: LabelSet,
    sketches: BTreeMap<String, QuantileSketch>,
}

impl NodeScope {
    /// A scope under the given labels.
    #[must_use]
    pub fn new(labels: LabelSet) -> Self {
        Self {
            labels,
            sketches: BTreeMap::new(),
        }
    }

    /// This scope's labels.
    #[must_use]
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Record one observation into the named sketch (created on first
    /// use).
    pub fn record(&mut self, name: &str, value: f64) {
        self.sketches
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Pre-register a sketch so it is exposed (empty) from round zero —
    /// the same catalog-stability rule eager `fault.*` / `cluster.*`
    /// registration follows.
    fn declare(&mut self, name: &str) {
        self.sketches.entry(name.to_string()).or_default();
    }

    /// The named sketch, if any value was recorded or declared.
    #[must_use]
    pub fn sketch(&self, name: &str) -> Option<&QuantileSketch> {
        self.sketches.get(name)
    }

    /// Sketch names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sketches.keys().map(String::as_str)
    }
}

/// The fleet aggregator: one [`NodeScope`] per node, merged roll-ups,
/// and Prometheus exposition of both.
#[derive(Debug, Clone, Default)]
pub struct SketchFleet {
    scopes: Vec<NodeScope>,
}

impl SketchFleet {
    /// A fleet of `nodes` scopes labeled `node="0"` … `node="N-1"`.
    #[must_use]
    pub fn with_nodes(nodes: u32) -> Self {
        Self {
            scopes: (0..nodes)
                .map(|i| NodeScope::new(LabelSet::new().with("node", &i.to_string())))
                .collect(),
        }
    }

    /// Number of node scopes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.scopes.len()
    }

    /// Mutable access to one node's scope.
    pub fn node_mut(&mut self, node: u32) -> &mut NodeScope {
        &mut self.scopes[node as usize]
    }

    /// One node's scope.
    #[must_use]
    pub fn node(&self, node: u32) -> &NodeScope {
        &self.scopes[node as usize]
    }

    /// Declare `name` on every node scope (eager catalog registration).
    pub fn declare_all(&mut self, name: &str) {
        for scope in &mut self.scopes {
            scope.declare(name);
        }
    }

    /// The fleet-level merge of the named sketch across all nodes, in
    /// node-index order (merge is order-independent on buckets; the
    /// fixed order also pins the f64 `sum` byte-for-byte).
    #[must_use]
    pub fn merged(&self, name: &str) -> QuantileSketch {
        let mut out = QuantileSketch::new();
        for scope in &self.scopes {
            if let Some(s) = scope.sketch(name) {
                out.merge(s);
            }
        }
        out
    }

    /// Every sketch name present on any node, sorted and deduplicated.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .scopes
            .iter()
            .flat_map(|s| s.names().map(ToString::to_string))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Render the whole fleet as Prometheus text: for each sketch name,
    /// per-node labeled histogram series (`_bucket{node="N",le="…"}`,
    /// `_sum{node="N"}`, `_count{node="N"}`) followed by a fleet-level
    /// `<name>_fleet` summary carrying `quantile="0.5|0.95|0.99|0.999"`
    /// samples of the *merged* sketch. Byte-stable: names sorted, nodes
    /// in index order, no timestamps.
    #[must_use]
    pub fn render_prom(&self) -> String {
        let mut out = String::with_capacity(4096);
        for name in self.names() {
            let n = prom::sanitize_name(&name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            for scope in &self.scopes {
                let Some(sketch) = scope.sketch(&name) else {
                    continue;
                };
                render_sketch_series(&mut out, &n, scope.labels(), sketch);
            }
            let merged = self.merged(&name);
            let _ = writeln!(out, "# TYPE {n}_fleet summary");
            for (_, q) in mzd_telemetry::QUANTILE_LABELS {
                let labels = LabelSet::new().with("quantile", &prom::format_value(q));
                let _ = writeln!(
                    out,
                    "{n}_fleet{} {}",
                    labels.render(),
                    prom::format_value(merged.quantile(q))
                );
            }
            let _ = writeln!(out, "{n}_fleet_sum {}", prom::format_value(merged.sum()));
            let _ = writeln!(out, "{n}_fleet_count {}", merged.count());
        }
        out
    }
}

/// Render one sketch's labeled `_bucket` / `_sum` / `_count` lines
/// through the exposition's shared histogram writer.
fn render_sketch_series(
    out: &mut String,
    sanitized_name: &str,
    labels: &LabelSet,
    sketch: &QuantileSketch,
) {
    prom::write_histogram(out, sanitized_name, &labels.render(), sketch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn label_sets_sort_and_escape() {
        let l = LabelSet::new().with("node", "3").with("disk", "0");
        assert_eq!(l.render(), "{disk=\"0\",node=\"3\"}");
        let l = LabelSet::new().with("zone", "a\"b\\c\nd");
        assert_eq!(l.render(), "{zone=\"a\\\"b\\\\c\\nd\"}");
        // Replacement keeps a single entry per key.
        let l = LabelSet::new().with("node", "1").with("node", "2");
        assert_eq!(l.render(), "{node=\"2\"}");
        assert_eq!(LabelSet::new().render(), "");
    }

    #[test]
    fn fleet_renders_labeled_series_and_fleet_summary() {
        let mut fleet = SketchFleet::with_nodes(2);
        for i in 1..=50 {
            fleet
                .node_mut(0)
                .record("cluster.node.service_time", f64::from(i) * 1e-3);
            fleet
                .node_mut(1)
                .record("cluster.node.service_time", f64::from(i) * 5e-3);
        }
        let text = fleet.render_prom();
        assert!(text.contains("# TYPE mzd_cluster_node_service_time histogram"));
        assert!(text.contains("_bucket{node=\"0\",le=\""), "{text}");
        assert!(
            text.contains("_bucket{node=\"1\",le=\"+Inf\"} 50"),
            "{text}"
        );
        assert!(text.contains("_sum{node=\"0\"}"), "{text}");
        assert!(text.contains("# TYPE mzd_cluster_node_service_time_fleet summary"));
        assert!(text.contains("_fleet{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("_fleet_count 100"), "{text}");
        // Determinism: rendering is a pure function of recorded values.
        assert_eq!(text, fleet.render_prom());
    }

    #[test]
    fn declared_sketches_expose_empty_series() {
        let mut fleet = SketchFleet::with_nodes(2);
        fleet.declare_all("cluster.node.queue_depth");
        let text = fleet.render_prom();
        assert!(text.contains("_bucket{node=\"0\",le=\"+Inf\"} 0"), "{text}");
        assert!(text.contains("_fleet_count 0"), "{text}");
    }

    proptest! {
        /// Merge is commutative and associative on the bucket counts —
        /// the property that makes fleet roll-ups independent of node
        /// visiting order (satellite: sketch merge proptest).
        #[test]
        fn merge_order_never_changes_buckets(
            xs in prop::collection::vec(0.0f64..10.0, 0..40),
            ys in prop::collection::vec(0.0f64..10.0, 0..40),
            zs in prop::collection::vec(0.0f64..10.0, 0..40),
        ) {
            let sketch = |vals: &[f64]| {
                let mut s = QuantileSketch::new();
                for &v in vals {
                    s.record(v);
                }
                s
            };
            let (a, b, c) = (sketch(&xs), sketch(&ys), sketch(&zs));
            // Commutativity: a+b == b+a.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab.bucket_counts(), ba.bucket_counts());
            prop_assert_eq!(ab.count(), ba.count());
            // Associativity: (a+b)+c == a+(b+c).
            let mut abc = ab.clone();
            abc.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(abc.bucket_counts(), a_bc.bucket_counts());
            // And the rendered bucket/count lines of the two merge
            // orders are byte-identical (quantiles come off the
            // buckets; min/max clamp is order-independent too). The
            // `_sum` line is excluded: f64 addition is not associative,
            // which is why the fleet always merges in node-index order.
            let buckets_only = |s: &QuantileSketch| {
                let mut out = String::new();
                let labels = LabelSet::new().with("node", "0");
                render_sketch_series(&mut out, "mzd_t", &labels, s);
                out.lines()
                    .filter(|l| !l.contains("_sum"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            prop_assert_eq!(buckets_only(&abc), buckets_only(&a_bc));
        }

        /// A merged sketch always has exactly the bucket counts of the
        /// concatenated samples.
        #[test]
        fn merge_equals_concatenation(
            xs in prop::collection::vec(1e-6f64..1e3, 0..60),
            split in 0usize..60,
        ) {
            let split = split.min(xs.len());
            let mut left = QuantileSketch::new();
            let mut right = QuantileSketch::new();
            let mut whole = QuantileSketch::new();
            for (i, &v) in xs.iter().enumerate() {
                if i < split { left.record(v); } else { right.record(v); }
                whole.record(v);
            }
            left.merge(&right);
            prop_assert_eq!(left.bucket_counts(), whole.bucket_counts());
            prop_assert_eq!(left.count(), whole.count());
            prop_assert_eq!(left.min(), whole.min());
            prop_assert_eq!(left.max(), whole.max());
        }
    }
}
