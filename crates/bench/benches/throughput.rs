//! Packing throughput per policy (items/second) across sequence length
//! and dimensionality — the X6 scaling study. The interesting contrasts:
//! Next Fit is O(1) per arrival while the scanning policies are
//! O(open bins); Best/Worst Fit pay the load-measure evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dvbp_bench::bench_instance;
use dvbp_core::{PackRequest, PolicyKind};
use std::hint::black_box;

fn bench_by_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_by_n");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    for &n in &[100usize, 400, 1600] {
        let inst = bench_instance(2, n, 50, 7);
        group.throughput(Throughput::Elements(n as u64));
        for kind in PolicyKind::paper_suite(7) {
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &inst, |b, inst| {
                b.iter(|| black_box(PackRequest::new(kind.clone()).run(inst).unwrap().cost()))
            });
        }
    }
    group.finish();
}

fn bench_by_d(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_by_d");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    for &d in &[1usize, 2, 5, 8, 16] {
        let inst = bench_instance(d, 400, 50, 11);
        group.throughput(Throughput::Elements(400));
        for kind in [
            PolicyKind::MoveToFront,
            PolicyKind::FirstFit,
            PolicyKind::BestFit(dvbp_core::LoadMeasure::Linf),
        ] {
            group.bench_with_input(BenchmarkId::new(kind.name(), d), &inst, |b, inst| {
                b.iter(|| black_box(PackRequest::new(kind.clone()).run(inst).unwrap().cost()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_by_n, bench_by_d);
criterion_main!(benches);
