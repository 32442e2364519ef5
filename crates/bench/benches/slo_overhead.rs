//! Cost of the SLO monitoring layer.
//!
//! The burn-rate engine and the conformance checker run once per server
//! round, and the tracer records a handful of spans per stream per
//! round — all on the scheduling hot path. Targets: a burn observation
//! is ring-buffer arithmetic (tens of ns), a PIT observation is one CDF
//! interpolation plus bin bookkeeping (sub-µs), and a span record is a
//! vector push. Building the predicted CDF table is the one expensive
//! step: one characteristic-function evaluation per quadrature node
//! (thousands of them) plus one complex multiply per node per grid
//! point, ~1.6 ms for the server's 65-point table at N = 28. It happens
//! once per distinct batch size and is benchmarked separately to justify
//! the caching in the server.

use criterion::{criterion_group, criterion_main, Criterion};
use mzd_core::{GuaranteeModel, ServiceTimeCdf};
use mzd_slo::{BurnConfig, BurnRateEngine, ConformanceChecker, ConformanceConfig, Tracer};
use std::hint::black_box;

fn bench_slo(c: &mut Criterion) {
    c.bench_function("burn_observe_round", |b| {
        let mut engine = BurnRateEngine::new(BurnConfig::for_budget(0.01)).expect("valid config");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(engine.observe_round(black_box(28), black_box(i % 2)));
        });
    });

    let model = GuaranteeModel::paper_reference().expect("reference model");
    let cdf = ServiceTimeCdf::with_resolution(&model, 26, 65).expect("valid table");

    c.bench_function("cdf_evaluate", |b| {
        let mut t = 0.5f64;
        b.iter(|| {
            t = if t > 1.4 { 0.5 } else { t + 1e-4 };
            black_box(cdf.evaluate(black_box(t)));
        });
    });

    c.bench_function("conformance_observe", |b| {
        let mut checker =
            ConformanceChecker::new(ConformanceConfig::default()).expect("valid config");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let u = (i % 1000) as f64 / 1000.0;
            black_box(checker.observe(black_box(u)));
        });
    });

    c.bench_function("tracer_record_span", |b| {
        let mut tracer = Tracer::new();
        let root = tracer.root(1);
        let mut ts = 0u64;
        b.iter(|| {
            ts += 1;
            let ctx = tracer.child(&root);
            tracer.record(
                "stream.round",
                "stream",
                1,
                black_box(7),
                ts,
                1_000_000,
                ctx,
                &[("round", ts), ("disk", 0)],
            );
        });
    });

    // The one expensive step: building a predicted-CDF table by exact
    // inversion. Run once per distinct per-disk batch size, then cached —
    // this bench is the justification for that cache. One build is a
    // single pass over the quadrature nodes; chunks of nodes fan out
    // across the worker pool on multi-core hosts.
    c.bench_function("cdf_build_n26_65pt", |b| {
        b.iter(|| {
            black_box(ServiceTimeCdf::with_resolution(&model, black_box(26), 65).expect("builds"))
        });
    });
}

criterion_group!(benches, bench_slo);
criterion_main!(benches);
