//! Batch-engine scaling: the same cell matrix at 1/2/4/8 workers.
//!
//! `batch_matrix/<threads>` times [`Campaign::run_all`] of the registry's
//! `faults` study — every tool × fuzz workload × fault axis × seed, 1050
//! independent cells. On a multi-core host the curve shows the engine's
//! scaling; on a single-core host all points collapse onto the serial time
//! (work stealing adds only the per-cell atomic increment).
//! `batch_overhead/{inline,pool}` isolates the pure scheduling overhead:
//! 4096 trivial cells on the inline path against a 2-worker pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use giantsan_harness::campaign::Campaign;
use giantsan_harness::{BatchRunner, StudyOpts, StudyRegistry};

fn bench_batch_matrix(c: &mut Criterion) {
    let registry = StudyRegistry::builtin();
    let study = registry.get("faults").expect("faults study registered");
    let campaign = Campaign::new(study, StudyOpts::default()).expect("default opts are valid");
    let mut group = c.benchmark_group("batch_matrix");
    group.sample_size(10);
    group.throughput(Throughput::Elements(campaign.labels().len() as u64));
    for threads in [1usize, 2, 4, 8] {
        let runner = BatchRunner::new(threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &runner,
            |b, runner| b.iter(|| campaign.run_all(runner).len()),
        );
    }
    group.finish();
}

fn bench_batch_overhead(c: &mut Criterion) {
    // Tiny cells make the scheduling cost visible relative to the work.
    let items: Vec<u64> = (0..4096).collect();
    let job = |i: usize, x: &u64| (i as u64).wrapping_mul(31).wrapping_add(*x);
    let mut group = c.benchmark_group("batch_overhead");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.bench_function("inline", |b| {
        let runner = BatchRunner::serial();
        b.iter(|| runner.map(&items, job).len())
    });
    group.bench_function("pool", |b| {
        let runner = BatchRunner::new(2);
        b.iter(|| runner.map(&items, job).len())
    });
    group.finish();
}

criterion_group!(benches, bench_batch_matrix, bench_batch_overhead);
criterion_main!(benches);
