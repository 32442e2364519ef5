//! Cost of precomputing the §5 admission lookup tables — the operation an
//! operator re-runs whenever the disk configuration or the workload
//! statistics change.

use criterion::{criterion_group, criterion_main, Criterion};
use mzd_core::GuaranteeModel;
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    let model = GuaranteeModel::paper_reference().expect("valid model");
    let thresholds = [0.0001, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25];

    c.bench_function("admission_table_late_8_thresholds", |b| {
        b.iter(|| {
            model
                .admission_table_late(black_box(1.0), black_box(&thresholds))
                .expect("valid")
        })
    });

    c.bench_function("admission_table_error_8_thresholds", |b| {
        b.iter(|| {
            model
                .admission_table_error(
                    black_box(1.0),
                    black_box(1200),
                    black_box(12),
                    black_box(&thresholds),
                )
                .expect("valid")
        })
    });

    c.bench_function("guarantee_model_construction", |b| {
        let disk = mzd_disk::profiles::quantum_viking_2_1()
            .build()
            .expect("valid disk");
        b.iter(|| {
            GuaranteeModel::new(
                black_box(disk.clone()),
                black_box(200_000.0),
                black_box(1e10),
                mzd_core::ZoneHandling::Discrete,
            )
            .expect("valid")
        })
    });
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
