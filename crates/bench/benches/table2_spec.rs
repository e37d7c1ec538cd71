//! Table 2 (wall-clock): the SPEC-like suite under each sanitizer.
//!
//! Each benchmark group is one SPEC-like row; within it, one bench per tool.
//! Criterion's reports give the per-tool ratios whose geometric means
//! correspond to the paper's Table 2 columns.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use giantsan_bench::plans_for;
use giantsan_harness::Tool;
use giantsan_workloads::spec_suite;

const TOOLS: [Tool; 5] = [
    Tool::Native,
    Tool::GiantSan,
    Tool::Asan,
    Tool::AsanMinusMinus,
    Tool::Lfp,
];

fn bench_spec(c: &mut Criterion) {
    // A representative subset keeps the default bench run short; pass
    // `--bench table2_spec -- <filter>` to focus on one row.
    let subset = [
        "500.perlbench_r",
        "505.mcf_r",
        "508.namd_r",
        "519.lbm_r",
        "520.omnetpp_r",
        "523.xalancbmk_r",
        "541.leela_r",
        "557.xz_r",
    ];
    for w in spec_suite(1) {
        if !subset.contains(&w.id.as_str()) {
            continue;
        }
        let mut group = c.benchmark_group(format!("table2/{}", w.id));
        group.sample_size(10);
        for (spec, plan) in plans_for(&w.program, &TOOLS) {
            group.bench_with_input(
                BenchmarkId::from_parameter(spec.tool().name()),
                &plan,
                |b, plan| {
                    b.iter(|| {
                        let out = spec.run_planned(&w.program, plan, &w.inputs);
                        assert!(out.result.reports.is_empty());
                        out.result.checksum
                    })
                },
            );
        }
        group.finish();
    }
}

criterion_group!(benches, bench_spec);
criterion_main!(benches);
