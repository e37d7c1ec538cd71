//! Shadow-kernel backend comparison: `scalar` vs `swar` vs `simd` on the
//! four kernel loops, across region sizes.
//!
//! Each backend is obtained explicitly through [`kernel::select`] — the
//! process-wide dispatch is untouched, so the backends can be interleaved in
//! one run. Scan inputs are clean-shadow worst cases (no early exit): the
//! exact loops a full region check or ASan guardian walk pays on clean
//! memory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use giantsan_shadow::codes::GOOD;
use giantsan_shadow::kernel::{self, Backend};

/// Application-region sizes (bytes); the shadow slices are 1/8 of these.
const REGION_SIZES: [u64; 4] = [1024, 4096, 16384, 65536];

fn backends() -> Vec<(&'static str, &'static kernel::Kernels)> {
    Backend::ALL
        .into_iter()
        .map(|b| (kernel::select(b).name(), kernel::select(b)))
        .collect()
}

fn bench_scans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_first_ge");
    for size in REGION_SIZES {
        let shadow = vec![GOOD; (size / 8) as usize];
        group.throughput(Throughput::Bytes(shadow.len() as u64));
        for (name, k) in backends() {
            group.bench_with_input(BenchmarkId::new(name, size), &shadow, |b, shadow| {
                b.iter(|| k.first_ge(shadow, GOOD + 1))
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("kernel_first_ne");
    for size in REGION_SIZES {
        let shadow = vec![GOOD; (size / 8) as usize];
        group.throughput(Throughput::Bytes(shadow.len() as u64));
        for (name, k) in backends() {
            group.bench_with_input(BenchmarkId::new(name, size), &shadow, |b, shadow| {
                b.iter(|| k.first_ne(shadow, GOOD))
            });
        }
    }
    group.finish();
}

fn bench_writes(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_fill");
    for size in REGION_SIZES {
        let segs = (size / 8) as usize;
        group.throughput(Throughput::Bytes(segs as u64));
        for (name, k) in backends() {
            let mut dst = vec![0u8; segs];
            group.bench_with_input(BenchmarkId::new(name, size), &size, |b, _| {
                b.iter(|| k.fill(&mut dst, GOOD))
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("kernel_write_folded_run");
    for size in REGION_SIZES {
        let segs = (size / 8) as usize;
        group.throughput(Throughput::Bytes(segs as u64));
        for (name, k) in backends() {
            let mut dst = vec![0u8; segs];
            group.bench_with_input(BenchmarkId::new(name, size), &size, |b, _| {
                b.iter(|| k.write_folded_run(&mut dst))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scans, bench_writes);
criterion_main!(benches);
