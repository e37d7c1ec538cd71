//! Figure 11 (wall-clock): traversal patterns for Native / GiantSan / ASan.
//!
//! Groups are `fig11/<pattern>/<size>`; the three series correspond to the
//! figure's three lines. The paper's findings to look for: GiantSan beats
//! ASan on forward and random traversals and loses on reverse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use giantsan_bench::plans_for;
use giantsan_harness::Tool;
use giantsan_workloads::{traversal_program, Pattern};

const TOOLS: [Tool; 3] = [Tool::Native, Tool::GiantSan, Tool::Asan];

fn bench_traversals(c: &mut Criterion) {
    for pattern in Pattern::ALL {
        for size in [4096u64, 16384] {
            let (prog, inputs) = traversal_program(pattern, size, 1);
            let mut group = c.benchmark_group(format!("fig11/{}/{}", pattern.name(), size));
            group.sample_size(20);
            for (spec, plan) in plans_for(&prog, &TOOLS) {
                group.bench_with_input(
                    BenchmarkId::from_parameter(spec.tool().name()),
                    &plan,
                    |b, plan| {
                        b.iter(|| {
                            let out = spec.run_planned(&prog, plan, &inputs);
                            assert!(out.result.reports.is_empty());
                            out.result.checksum
                        })
                    },
                );
            }
            group.finish();
        }
    }
}

criterion_group!(benches, bench_traversals);
criterion_main!(benches);
