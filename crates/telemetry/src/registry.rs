//! The metrics registry: named counters, gauges and quantile histograms.
//!
//! Handles are `Arc`-backed and lock-free on the hot path; the registry
//! itself is only locked when a handle is first looked up or when a
//! snapshot is taken.

use crate::json;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// The quantiles every histogram snapshot reports, with their labels.
pub const QUANTILE_LABELS: [(&str, f64); 4] =
    [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)];

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge (queue depth, buffer bytes).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (atomic read-modify-write).
    pub fn add(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// The fixed log-bucket geometry every histogram and sketch uses.
///
/// Nine log-spaced buckets per factor of ten across thirteen decades
/// starting at `1e-9`, plus one underflow and one overflow slot. The
/// layout is a compile-time constant — never adapted to the data — so
/// two sketches over the same unit merge *exactly* by bucket-wise
/// addition, in any order, which is what makes fleet-level quantiles
/// byte-stable at any `--jobs` width.
pub mod geometry {
    /// Log-spaced buckets per factor of 10.
    pub const BUCKETS_PER_DECADE: usize = 9;
    /// Decades spanned by the regular buckets.
    pub const DECADES: usize = 13;
    /// Number of regular (finite-bound) buckets.
    pub const BUCKET_COUNT: usize = BUCKETS_PER_DECADE * DECADES;
    /// Total storage slots: `[underflow, BUCKET_COUNT regular, overflow]`.
    pub const SLOT_COUNT: usize = BUCKET_COUNT + 2;
    /// Lower edge of the first regular bucket (1 ns when the unit is
    /// seconds).
    pub const LOW: f64 = 1e-9;

    /// Storage slot (0 = underflow, `BUCKET_COUNT + 1` = overflow) for a
    /// recorded value. Zero, negatives and NaN all land in the underflow
    /// slot (callers that want to drop NaN must do so before indexing).
    #[must_use]
    pub fn bucket_index(value: f64) -> usize {
        if !(value > LOW) {
            return 0;
        }
        let position = (value / LOW).log10() * BUCKETS_PER_DECADE as f64;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let idx = position as usize; // truncation; position > 0 here
        if idx >= BUCKET_COUNT {
            BUCKET_COUNT + 1
        } else {
            idx + 1
        }
    }

    /// Representative value (geometric bucket midpoint) for a slot; the
    /// underflow slot reports `LOW`.
    #[must_use]
    pub(super) fn bucket_value(index: usize) -> f64 {
        if index == 0 {
            return LOW;
        }
        #[allow(clippy::cast_precision_loss)]
        let exp = (index - 1) as f64 + 0.5;
        LOW * 10f64.powf(exp / BUCKETS_PER_DECADE as f64)
    }

    /// Upper edge of the slot at `index`: `LOW` for the underflow slot,
    /// `+∞` for the overflow slot.
    #[must_use]
    pub fn bucket_bound(index: usize) -> f64 {
        if index == 0 {
            return LOW;
        }
        if index > BUCKET_COUNT {
            return f64::INFINITY;
        }
        #[allow(clippy::cast_precision_loss)]
        let exp = index as f64;
        LOW * 10f64.powf(exp / BUCKETS_PER_DECADE as f64)
    }
}

use geometry::{bucket_index, bucket_value, SLOT_COUNT};

/// A mergeable quantile sketch on the shared log-bucket [`geometry`].
///
/// Values spanning `1e-9` to `1e4` land in one of 117 log-spaced
/// buckets (relative width ≈ 29%, so quantile estimates carry at most
/// ~13% relative error — ample for service-time tails). Values at or
/// below `1e-9` (including zero and negatives) land in an underflow
/// slot, values above `1e4` in an overflow slot; exact `min`/`max`/`sum`
/// are tracked separately, and NaNs are dropped.
///
/// Because the layout is a constant, merging is bucket-wise `u64`
/// addition: **exact**, associative and commutative, so the merged
/// sketch's quantiles equal the quantiles of the concatenated samples
/// up to one bucket width.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// `[underflow, BUCKET_COUNT regular, overflow]` observation counts.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: vec![0; SLOT_COUNT],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. NaN is dropped.
    pub fn record(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merge another sketch into this one: bucket-wise addition, exact
    /// by construction of the fixed layout. `merge` is associative and
    /// commutative on the bucket counts, so fleet roll-ups are
    /// independent of node visiting order.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum (+∞ when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact maximum (−∞ when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The raw per-slot counts, underflow first and overflow last.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Estimate the `q`-quantile (`0 ≤ q ≤ 1`): rank `ceil(q·count)`
    /// located in the cumulative buckets, the bucket midpoint clamped
    /// into the observed `[min, max]`. NaN when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The atomic, shareable recording side of a [`QuantileSketch`]: any
/// thread may [`record`](Histogram::record) through a cloned handle,
/// and [`load`](Histogram::load) copies the state out as a sketch for
/// quantiles, exposition and merging. Same bucket layout, same NaN
/// rule.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    /// `[underflow, 117 regular buckets..., overflow]`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// f64 bits, CAS-accumulated.
    sum: AtomicU64,
    /// f64 bits, CAS-minimized.
    min: AtomicU64,
    /// f64 bits, CAS-maximized.
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        Self {
            buckets: (0..SLOT_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
            min: AtomicU64::new(f64::INFINITY.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

impl Histogram {
    /// Record one observation. NaN is dropped.
    pub fn record(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        let inner = &*self.0;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        // CAS-accumulate the f64 bit patterns.
        let mut bits = inner.sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(bits) + value).to_bits();
            match inner
                .sum
                .compare_exchange_weak(bits, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => bits = actual,
            }
        }
        let mut bits = inner.min.load(Ordering::Relaxed);
        while value < f64::from_bits(bits) {
            match inner.min.compare_exchange_weak(
                bits,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => bits = actual,
            }
        }
        let mut bits = inner.max.load(Ordering::Relaxed);
        while value > f64::from_bits(bits) {
            match inner.max.compare_exchange_weak(
                bits,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => bits = actual,
            }
        }
    }

    /// The current state as a plain [`QuantileSketch`].
    #[must_use]
    pub fn load(&self) -> QuantileSketch {
        let inner = &*self.0;
        QuantileSketch {
            buckets: inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: inner.count.load(Ordering::Relaxed),
            sum: f64::from_bits(inner.sum.load(Ordering::Relaxed)),
            min: f64::from_bits(inner.min.load(Ordering::Relaxed)),
            max: f64::from_bits(inner.max.load(Ordering::Relaxed)),
        }
    }
}

/// A named collection of metrics.
///
/// Cloning a returned handle and storing it is the intended hot-path
/// pattern; `counter`/`gauge`/`histogram` take a read–write lock only on
/// first registration.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, Counter>>,
    gauges: RwLock<HashMap<String, Gauge>>,
    histograms: RwLock<HashMap<String, Histogram>>,
    /// Names of metrics that describe the *execution* rather than the
    /// modeled system: wall-clock span timers, scheduler effort
    /// (task/steal counts), solver iteration tallies. Their values vary
    /// with real elapsed time or with `--jobs`, so exporters that
    /// promise byte-identity (the Prometheus exposition) skip them; the
    /// JSON snapshot keeps them as diagnostics.
    execution: RwLock<std::collections::HashSet<String>>,
}

fn get_or_insert<T: Clone + Default>(map: &RwLock<HashMap<String, T>>, name: &str) -> T {
    if let Some(found) = map.read().expect("metrics lock").get(name) {
        return found.clone();
    }
    map.write()
        .expect("metrics lock")
        .entry(name.to_string())
        .or_default()
        .clone()
}

impl Registry {
    /// An empty registry (tests, scoped measurement).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        get_or_insert(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_insert(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_insert(&self.histograms, name)
    }

    fn mark_execution(&self, name: &str) {
        {
            let marked = self.execution.read().expect("metrics lock");
            if marked.contains(name) {
                return;
            }
        }
        self.execution
            .write()
            .expect("metrics lock")
            .insert(name.to_string());
    }

    /// The histogram named `name`, additionally marked execution-scoped
    /// ([`Registry::is_execution_scoped`]). Span timers use this: their
    /// values are real elapsed time, so they are excluded from the
    /// deterministic Prometheus exposition and live only in the JSON
    /// snapshot (like the phase profiler, wall-clock data is outside
    /// the byte-identity contract). Solver iteration histograms use it
    /// too — the work a parallel scan performs depends on how the range
    /// was split.
    #[must_use]
    pub fn execution_histogram(&self, name: &str) -> Histogram {
        self.mark_execution(name);
        get_or_insert(&self.histograms, name)
    }

    /// The counter named `name`, additionally marked execution-scoped
    /// ([`Registry::is_execution_scoped`]). Scheduler-effort counters
    /// (tasks dispatched, ranges stolen) use this: their values depend
    /// on the `--jobs` width, not on the modeled system.
    #[must_use]
    pub fn execution_counter(&self, name: &str) -> Counter {
        self.mark_execution(name);
        get_or_insert(&self.counters, name)
    }

    /// Whether `name` was registered through
    /// [`Registry::execution_histogram`] or
    /// [`Registry::execution_counter`].
    #[must_use]
    pub fn is_execution_scoped(&self, name: &str) -> bool {
        self.execution.read().expect("metrics lock").contains(name)
    }

    /// A point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("metrics lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.load()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, QuantileSketch>,
}

impl Snapshot {
    /// Render as a pretty-printed JSON document:
    ///
    /// ```json
    /// {
    ///   "counters": {"server.admission.rejected": 3},
    ///   "gauges": {"server.buffer.occupancy_bytes": 123456.0},
    ///   "histograms": {
    ///     "sim.round.service_time": {
    ///       "count": 100, "sum": 81.2, "mean": 0.812,
    ///       "min": 0.7, "max": 1.1,
    ///       "p50": 0.81, "p95": 0.93, "p99": 1.02, "p999": 1.1
    ///     }
    ///   }
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::write_escaped(&mut out, name);
            out.push_str(": ");
            out.push_str(&value.to_string());
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::write_escaped(&mut out, name);
            out.push_str(": ");
            json::write_f64(&mut out, *value);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            json::write_escaped(&mut out, name);
            let mean = if h.count() == 0 {
                f64::NAN
            } else {
                h.sum() / h.count() as f64
            };
            out.push_str(&format!(": {{\"count\": {}, \"sum\": ", h.count()));
            json::write_f64(&mut out, h.sum());
            out.push_str(", \"mean\": ");
            json::write_f64(&mut out, mean);
            out.push_str(", \"min\": ");
            json::write_f64(&mut out, h.min());
            out.push_str(", \"max\": ");
            json::write_f64(&mut out, h.max());
            for (label, q) in QUANTILE_LABELS {
                out.push_str(&format!(", \"{label}\": "));
                json::write_f64(&mut out, h.quantile(q));
            }
            out.push('}');
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// The process-wide registry library code records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::geometry::{bucket_index, bucket_value, BUCKET_COUNT};
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("a.b").get(), 5); // same underlying metric
        let g = r.gauge("q");
        g.set(2.5);
        g.add(-1.0);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn bucket_geometry_is_monotone_and_consistent() {
        // Index is monotone in the value and bucket_value lands in its
        // own bucket.
        let mut prev = 0;
        for i in 0..200 {
            let v = 1e-10 * 1.35f64.powi(i);
            let idx = bucket_index(v);
            assert!(idx >= prev, "index went backwards at {v}");
            prev = idx;
        }
        for idx in 1..=BUCKET_COUNT {
            assert_eq!(bucket_index(bucket_value(idx)), idx);
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::INFINITY), BUCKET_COUNT + 1);
        assert_eq!(bucket_index(1e9), BUCKET_COUNT + 1);
    }

    #[test]
    fn histogram_empty_state() {
        let h = Histogram::default().load();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_nan());
        assert_eq!(h.min(), f64::INFINITY);
        let json = Registry::new().snapshot().to_json();
        assert!(json.contains("\"histograms\": {\n  }"), "{json}");
    }

    #[test]
    fn concurrent_counter_increments_are_exact() {
        let r = Registry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = r.counter("hot");
                let h = r.histogram("hist");
                scope.spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        h.record(1e-3 * (1.0 + (i % 7) as f64));
                    }
                });
            }
        });
        assert_eq!(r.counter("hot").get(), threads * per_thread);
        let hist = r.histogram("hist").load();
        assert_eq!(hist.count(), threads * per_thread);
        // The CAS-accumulated sum is exact here: every addend is a small
        // multiple of 1e-3, far above f64 rounding at this magnitude.
        let per_thread_sum: u64 = (0..per_thread).map(|i| 1 + i % 7).sum();
        let expected_sum = threads as f64 * 1e-3 * per_thread_sum as f64;
        let sum = hist.sum();
        assert!(
            (sum - expected_sum).abs() / expected_sum < 1e-9,
            "sum {sum} vs {expected_sum}"
        );
    }

    #[test]
    fn quantiles_track_a_uniform_distribution() {
        // 10_000 evenly spaced values on (0, 1]: the q-quantile is q, up
        // to the ~13% relative bucket resolution.
        let h = Histogram::default();
        for i in 1..=10_000 {
            h.record(f64::from(i) / 10_000.0);
        }
        let h = h.load();
        for (q, expected) in [(0.5, 0.5), (0.95, 0.95), (0.99, 0.99)] {
            let est = h.quantile(q);
            assert!(
                (est / expected - 1.0).abs() < 0.15,
                "q = {q}: estimate {est} vs {expected}"
            );
        }
        // Extremes clamp to the exact observed range.
        assert!(h.quantile(0.0) >= 1e-4);
        assert!(h.quantile(1.0) <= 1.0 + 1e-12);
    }

    #[test]
    fn quantiles_track_an_exponential_distribution() {
        // Inverse-CDF samples of Exp(1): quantile q is -ln(1-q). A
        // long-tailed distribution exercises many decades of buckets.
        let h = Histogram::default();
        let n = 20_000;
        for i in 0..n {
            let u = (f64::from(i) + 0.5) / f64::from(n);
            h.record(-(1.0 - u).ln());
        }
        let h = h.load();
        for q in [0.5f64, 0.95, 0.99, 0.999] {
            let expected = -(1.0 - q).ln();
            let est = h.quantile(q);
            assert!(
                (est / expected - 1.0).abs() < 0.15,
                "q = {q}: estimate {est} vs {expected}"
            );
        }
    }

    #[test]
    fn cumulative_buckets_cover_underflow_and_overflow() {
        let h = Histogram::default();
        for v in [0.0, 1e-12, 5e-4, 5e-4, 2.0, 1e9] {
            h.record(v);
        }
        let mut text = String::new();
        crate::prom::write_histogram(&mut text, "t", "", &h.load());
        // `(bound, cumulative count)` per `_bucket` line.
        let buckets: Vec<(f64, u64)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("t_bucket{le=\""))
            .map(|rest| {
                let (bound, count) = rest.split_once("\"} ").unwrap();
                let bound = if bound == "+Inf" {
                    f64::INFINITY
                } else {
                    bound.parse().unwrap()
                };
                (bound, count.parse().unwrap())
            })
            .collect();
        // Ascending bounds, cumulative counts, closed by +Inf at count.
        for window in buckets.windows(2) {
            assert!(window[0].0 < window[1].0, "{text}");
            assert!(window[0].1 <= window[1].1, "{text}");
        }
        assert_eq!(buckets.last(), Some(&(f64::INFINITY, 6)));
        // Underflow observations (0.0 and 1e-12) count under the first
        // regular bound; the 1e9 overflow only shows in +Inf.
        assert_eq!(buckets[0], (geometry::bucket_bound(1), 2));
        assert_eq!(buckets.len(), 4, "{text}");
        assert!(text.contains("t_count 6"), "{text}");
    }

    #[test]
    fn snapshot_json_parses_back() {
        let r = Registry::new();
        r.counter("c.one").add(7);
        r.gauge("g \"quoted\"").set(1.25);
        let h = r.histogram("h.x");
        for i in 1..=100 {
            h.record(f64::from(i) * 0.01);
        }
        let text = r.snapshot().to_json();
        let doc = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("counters").unwrap().get("c.one").unwrap().as_f64(),
            Some(7.0)
        );
        assert_eq!(
            doc.get("gauges")
                .unwrap()
                .get("g \"quoted\"")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
        let hx = doc.get("histograms").unwrap().get("h.x").unwrap();
        assert_eq!(hx.get("count").unwrap().as_f64(), Some(100.0));
        let p50 = hx.get("p50").unwrap().as_f64().unwrap();
        assert!((p50 - 0.5).abs() / 0.5 < 0.15, "p50 {p50}");
    }
}
