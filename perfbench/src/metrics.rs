//! The metric catalogue: every metric the benchmark reports, with its unit,
//! direction, the layer it belongs to, and the end-to-end metric it should
//! move on which workload. `BENCHMARK.json` is generated from this table
//! (`python3 perfbench/run.py --write-spec`), and every run checks that it
//! emits exactly these names.
//!
//! A "pass" is one run of every program of the workload under one tool.
//! Per-layer times are per pass and per tool summed over the tools of the
//! pass unless the name carries a tool. A per-layer metric that a workload
//! does not exercise (for example `core.check_calls` on `churn`, where
//! every GiantSan check is eliminated) reads 0. The `harness.*` metrics
//! and `bench.gen_lag_ms` come from the service phase, which only `spec`'s
//! traced run has; on `bulk` and `churn` they read 0.
//!
//! The end-to-end times are scaled to the reference host (see
//! `reference.rs`); the per-layer times are as measured.

use std::fmt;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl fmt::Display for Better {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        })
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
    /// What the metric measures.
    pub doc: &'static str,
    /// The end-to-end metric it should move, and on which workloads.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    doc: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        doc,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    doc: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        doc,
        moves,
    }
}

use Better::{Higher, Lower};

/// Measured with tracing off (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "median of 25 set-ups per process, spread over its measuring time, scaled to the \
         reference host: generate the programs, plan them for every tool, build one session \
         per tool",
    ),
    e2e(
        "run_s.native",
        "s",
        Lower,
        0.25,
        "upper quartile of the time of one pass over the programs natively, through \
         SessionSpec::run_planned, scaled to the reference host",
    ),
    e2e(
        "run_s.giantsan",
        "s",
        Lower,
        0.25,
        "upper quartile of the time of one pass under GiantSan, through \
         SessionSpec::run_planned, scaled to the reference host",
    ),
    e2e(
        "run_s.asan",
        "s",
        Lower,
        0.25,
        "upper quartile of the time of one pass under ASan, through SessionSpec::run_planned, \
         scaled to the reference host",
    ),
    e2e(
        "mem_ratio.giantsan",
        "ratio",
        Lower,
        0.1,
        "sum over programs of heap high-water under GiantSan (redzones and quarantine \
         included) over the native sum; deterministic",
    ),
    e2e(
        "mem_ratio.asan",
        "ratio",
        Lower,
        0.1,
        "the same ratio under ASan; deterministic",
    ),
];

/// Measured by the traced run (`--trace 1`), except counts.
pub const PER_LAYER: &[Def] = &[
    layer(
        "analysis.plan_ms.giantsan",
        "ms",
        Lower,
        "time in SessionSpec::plan for every program, GiantSan",
        "setup_s on all",
    ),
    layer(
        "analysis.plan_ms.asan",
        "ms",
        Lower,
        "time in SessionSpec::plan for every program, ASan",
        "setup_s on all",
    ),
    layer(
        "analysis.sites_optimised_share.giantsan",
        "ratio",
        Higher,
        "share of GiantSan sites planned as region, cached or skipped rather than a plain check",
        "run_s.giantsan on spec",
    ),
    layer(
        "analysis.self_s",
        "s",
        Lower,
        "traced pass: time in plan spans, all tools",
        "setup_s",
    ),
    layer(
        "ir.ns_per_step.native",
        "ns",
        Lower,
        "native pass time over interpreter steps (untraced)",
        "every run_s.* on spec",
    ),
    layer(
        "ir.steps",
        "count",
        Lower,
        "interpreter steps in one native pass",
        "every run_s.*",
    ),
    layer(
        "ir.self_s.giantsan",
        "s",
        Lower,
        "traced pass: GiantSan exec time minus time inside sanitizer calls",
        "run_s.giantsan on spec",
    ),
    layer(
        "ir.self_s.asan",
        "s",
        Lower,
        "traced pass: ASan exec time minus time inside sanitizer calls",
        "run_s.asan on spec",
    ),
    layer(
        "ir.self_s",
        "s",
        Lower,
        "traced pass: exec minus sanitizer calls, all tools",
        "every run_s.*",
    ),
    layer(
        "core.check_s",
        "s",
        Lower,
        "traced pass: time in GiantSan check_*, cached_check and loop_final_check",
        "run_s.giantsan on spec, bulk",
    ),
    layer(
        "core.ns_per_check",
        "ns",
        Lower,
        "core.check_s over core.check_calls",
        "run_s.giantsan on spec, bulk",
    ),
    layer(
        "core.check_calls",
        "count",
        Lower,
        "GiantSan check calls in one pass",
        "run_s.giantsan on spec, bulk",
    ),
    layer(
        "core.slow_share",
        "ratio",
        Lower,
        "GiantSan slow checks over fast plus slow checks",
        "run_s.giantsan on spec",
    ),
    layer(
        "core.cache_hit_ratio",
        "ratio",
        Higher,
        "GiantSan quasi-bound cache hits over hits plus updates",
        "run_s.giantsan on spec",
    ),
    layer(
        "baselines.self_s",
        "s",
        Lower,
        "traced pass: time in checks of ASan, ASan-- and LFP",
        "run_s.asan",
    ),
    layer(
        "baselines.check_s.asan",
        "s",
        Lower,
        "traced pass: time in ASan checks",
        "run_s.asan on bulk",
    ),
    layer(
        "baselines.ns_per_check.asan",
        "ns",
        Lower,
        "ASan check time over its check calls",
        "run_s.asan on bulk",
    ),
    layer(
        "shadow.loads_per_check.giantsan",
        "count",
        Lower,
        "GiantSan shadow loads over check calls (protection density)",
        "run_s.giantsan on bulk",
    ),
    layer(
        "shadow.loads_per_check.asan",
        "count",
        Lower,
        "ASan shadow loads over check calls",
        "run_s.asan on bulk",
    ),
    layer(
        "shadow.first_ne_ns_per_kib",
        "ns",
        Lower,
        "kernel::active().first_ne over the shadow of the workload's allocation sizes, per KiB",
        "run_s.asan on bulk",
    ),
    layer(
        "shadow.stores_per_alloc.giantsan",
        "count",
        Lower,
        "GiantSan shadow stores over allocations",
        "run_s.giantsan on churn",
    ),
    layer(
        "shadow.stores_per_alloc.asan",
        "count",
        Lower,
        "ASan shadow stores over allocations",
        "run_s.asan on churn",
    ),
    layer(
        "shadow.fill_ns_per_kib",
        "ns",
        Lower,
        "kernel fill plus write_folded_run over the shadow of the allocation sizes, per KiB",
        "run_s.giantsan on churn",
    ),
    layer(
        "runtime.self_s",
        "s",
        Lower,
        "traced pass: session set-up plus allocator and frame calls, all tools",
        "every run_s.*",
    ),
    layer(
        "runtime.alloc_ns.giantsan",
        "ns",
        Lower,
        "mean GiantSan alloc/realloc call",
        "run_s.giantsan on churn",
    ),
    layer(
        "runtime.alloc_ns.asan",
        "ns",
        Lower,
        "mean ASan alloc/realloc call",
        "run_s.asan on churn",
    ),
    layer(
        "runtime.free_ns.giantsan",
        "ns",
        Lower,
        "mean GiantSan free call",
        "run_s.giantsan on churn",
    ),
    layer(
        "runtime.free_ns.asan",
        "ns",
        Lower,
        "mean ASan free call",
        "run_s.asan on churn",
    ),
    layer(
        "runtime.heap_high_water_bytes.native",
        "bytes",
        Lower,
        "sum over programs of native heap high-water",
        "mem_ratio.* on churn, spec",
    ),
    layer(
        "runtime.heap_high_water_bytes.giantsan",
        "bytes",
        Lower,
        "sum over programs of GiantSan heap high-water",
        "mem_ratio.giantsan on churn, spec",
    ),
    layer(
        "runtime.heap_high_water_bytes.asan",
        "bytes",
        Lower,
        "sum over programs of ASan heap high-water",
        "mem_ratio.asan on churn, spec",
    ),
    layer(
        "runtime.session_us",
        "us",
        Lower,
        "median SessionSpec::session() for GiantSan (address space and shadow)",
        "every run_s.*, harness.job_latency_ms",
    ),
    layer(
        "harness.jobs_per_s",
        "1/s",
        Higher,
        "echo jobs served per second to 2 closed-loop clients (seeded 0-10 ms think time)",
        "none gated (the service is too noisy to gate on this host); spec only",
    ),
    layer(
        "harness.job_latency_ms",
        "ms",
        Lower,
        "median open-loop job latency, scheduled send to terminal state, Poisson arrivals at \
         40 jobs/s",
        "none gated; spec only",
    ),
    layer(
        "harness.job_latency_tail_ms",
        "ms",
        Lower,
        "open-loop job latency at the highest percentile with 10 samples beyond it",
        "harness.slo_miss_share on spec",
    ),
    layer(
        "harness.slo_miss_share",
        "ratio",
        Lower,
        "open-loop jobs over the 100 ms latency limit, failed or refused, over sent",
        "none gated; spec only",
    ),
    layer(
        "harness.submit_ms",
        "ms",
        Lower,
        "median POST /v1/jobs round trip",
        "harness.job_latency_ms, harness.jobs_per_s on spec",
    ),
    layer(
        "harness.job_ms",
        "ms",
        Lower,
        "median closed-loop submit to terminal state",
        "harness.jobs_per_s on spec",
    ),
    layer(
        "harness.inproc_job_ms",
        "ms",
        Lower,
        "median time to run the same echo study in-process and serially",
        "harness.job_latency_ms, harness.jobs_per_s on spec",
    ),
    layer(
        "harness.service_overhead_ms",
        "ms",
        Lower,
        "harness.job_ms minus harness.inproc_job_ms",
        "harness.job_latency_ms, harness.jobs_per_s on spec",
    ),
    layer(
        "telemetry.trace_overhead_pct",
        "%",
        Lower,
        "GiantSan run_planned_recorded with TraceRecorder over NoopRecorder, minus 100",
        "none today",
    ),
    layer(
        "study.overhead_pct.giantsan",
        "%",
        Lower,
        "geomean over programs of median GiantSan time over median native time, as a % of \
         native (Table 2's convention)",
        "not gated; tracks Table 2",
    ),
    layer(
        "study.overhead_pct.asan",
        "%",
        Lower,
        "the same for ASan",
        "not gated",
    ),
    layer(
        "study.overhead_pct.asan_mm",
        "%",
        Lower,
        "the same for ASan--",
        "not gated",
    ),
    layer(
        "study.overhead_pct.lfp",
        "%",
        Lower,
        "the same for LFP",
        "not gated",
    ),
    layer(
        "study.giantsan_beats_asan_share",
        "ratio",
        Higher,
        "share of programs whose median GiantSan time is below ASan's",
        "not gated",
    ),
    layer(
        "bench.pass_s",
        "s",
        Lower,
        "traced pass wall time, all tools",
        "the benchmark",
    ),
    layer(
        "bench.layer_sum_s",
        "s",
        Lower,
        "analysis + runtime + core + baselines + ir self times of a traced pass",
        "the benchmark",
    ),
    layer(
        "bench.unattributed_share",
        "ratio",
        Lower,
        "traced pass time outside every layer and the timer, over pass time",
        "the benchmark",
    ),
    layer(
        "bench.trace_overhead_pct",
        "%",
        Lower,
        "traced session + exec time over the untraced pass time, minus 100",
        "the benchmark",
    ),
    layer(
        "bench.clock_ns",
        "ns",
        Lower,
        "calibrated cost of timing one call",
        "the benchmark",
    ),
    layer(
        "bench.gen_lag_ms",
        "ms",
        Lower,
        "median delay of the open-loop generator behind its schedule",
        "the benchmark, on spec",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn catalogue_meets_the_benchmark_contract() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "{}", d.name);
            assert_eq!(
                all.iter().filter(|e| e.name == d.name).count(),
                1,
                "{}",
                d.name
            );
            assert!(d.unit.len() <= 16, "{}", d.unit);
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "set-up gets the largest bound");
        assert!(PER_LAYER.len() <= 128);
    }
}
