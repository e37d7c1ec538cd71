//! End-to-end interpreter throughput per tool and traversal pattern.
//!
//! Two questions, one artefact:
//!
//! * `interp_throughput/<pattern>/<size>` — how fast does each sanitizer
//!   drive the interpreter on forward/random/reverse traversals? This is the
//!   wall-clock realisation of the analytic overhead model, and the group
//!   where the word-wide guardian walk shows up for ASan.
//! * `interp_dispatch/<pattern>` — what does monomorphization buy? The same
//!   GiantSan run through the statically-dispatched
//!   [`giantsan_harness::SessionSpec::run_planned`] path versus a boxed
//!   session through [`giantsan_ir::run_dyn`].

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use giantsan_bench::{bench_config, plans_for, traversal_cases};
use giantsan_harness::Tool;
use giantsan_ir::{run_dyn, ExecConfig};
use giantsan_workloads::Pattern;

const TOOLS: [Tool; 5] = [
    Tool::Native,
    Tool::GiantSan,
    Tool::Asan,
    Tool::AsanMinusMinus,
    Tool::Lfp,
];

fn bench_interp_throughput(c: &mut Criterion) {
    for case in traversal_cases(&[4096, 65536]) {
        let mut group = c.benchmark_group(format!("interp_throughput/{}", case.label()));
        group.sample_size(20);
        group.throughput(Throughput::Bytes(case.size));
        for (spec, plan) in plans_for(&case.program, &TOOLS) {
            let tool = spec.tool();
            // LFP's anchor-relative bounds flag every reverse-traversal
            // access (a known baseline artifact); everyone else must be
            // report-free on these in-bounds workloads.
            let must_be_clean = !(tool == Tool::Lfp && case.pattern == Pattern::Reverse);
            group.bench_with_input(
                BenchmarkId::from_parameter(tool.name()),
                &plan,
                |b, plan| {
                    b.iter(|| {
                        let out = spec.run_planned(&case.program, plan, &case.inputs);
                        assert!(!must_be_clean || out.result.reports.is_empty());
                        out.result.checksum
                    })
                },
            );
        }
        group.finish();
    }
}

fn bench_dispatch(c: &mut Criterion) {
    let spec = Tool::GiantSan.builder().config(bench_config()).spec();
    let exec = ExecConfig::default();
    for case in traversal_cases(&[16384]) {
        let plan = spec.plan(&case.program);
        let mut group = c.benchmark_group(format!("interp_dispatch/{}", case.pattern.name()));
        group.sample_size(20);
        group.bench_function("monomorphized", |b| {
            b.iter(|| {
                let out = spec.run_planned(&case.program, &plan, &case.inputs);
                out.result.checksum
            })
        });
        group.bench_function("dyn", |b| {
            b.iter(|| {
                let mut san = spec.session();
                let out = run_dyn(&case.program, &case.inputs, san.as_mut(), &plan, &exec);
                out.checksum
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_interp_throughput, bench_dispatch);
criterion_main!(benches);
