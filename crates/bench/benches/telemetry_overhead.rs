//! Cost of the observability substrate itself.
//!
//! Telemetry rides on every hot path — each simulated round records four
//! histograms, each admission decision bumps a counter — so the per-call
//! cost must be negligible next to the work being measured. Targets: a
//! counter increment is one relaxed atomic add (single-digit ns), a
//! histogram record stays under ~50 ns, and emitting an event against the
//! disabled [`NullSink`](mzd_telemetry::event::NullSink) costs one atomic
//! load (the `events_enabled` fast path) rather than the cost of
//! formatting the event.

use criterion::{criterion_group, criterion_main, Criterion};
use mzd_telemetry::event::{set_sink, Event, MemorySink, NullSink};
use mzd_telemetry::Registry;
use std::hint::black_box;
use std::sync::Arc;

fn bench_telemetry(c: &mut Criterion) {
    let registry = Registry::new();
    let counter = registry.counter("bench.counter");
    let gauge = registry.gauge("bench.gauge");
    let histogram = registry.histogram("bench.histogram");

    c.bench_function("counter_inc", |b| b.iter(|| counter.inc()));

    c.bench_function("gauge_set", |b| {
        b.iter(|| gauge.set(black_box(42.5)));
    });

    c.bench_function("histogram_record", |b| {
        b.iter(|| histogram.record(black_box(0.0123)));
    });

    c.bench_function("histogram_quantile_p99", |b| {
        for i in 1..=10_000u32 {
            histogram.record(f64::from(i) * 1e-4);
        }
        b.iter(|| histogram.load().quantile(black_box(0.99)));
    });

    // Event emission with the sink disabled: the guard is the price every
    // uninstrumented run pays, so it must be branch-plus-atomic-load cheap.
    let previous = set_sink(Arc::new(NullSink));
    c.bench_function("event_emit_disabled", |b| {
        b.iter(|| {
            if mzd_telemetry::events_enabled() {
                mzd_telemetry::emit(
                    Event::new("bench.round")
                        .u64("round", black_box(7))
                        .f64("service_time", black_box(0.81)),
                );
            }
        });
    });

    // Full price with a live sink: build, serialize, store.
    set_sink(Arc::new(MemorySink::new()));
    c.bench_function("event_emit_memory_sink", |b| {
        b.iter(|| {
            mzd_telemetry::emit(
                Event::new("bench.round")
                    .u64("round", black_box(7))
                    .f64("service_time", black_box(0.81))
                    .bool("late", black_box(false)),
            );
        });
    });
    set_sink(previous);

    c.bench_function("registry_snapshot_json", |b| {
        b.iter(|| registry.snapshot().to_json());
    });
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
