#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! Shared helpers for the criterion benchmarks.
//!
//! The benches regenerate the paper's timing artefacts with wall-clock
//! measurements (the analytic counterparts live in `giantsan-harness`):
//!
//! * `table2_spec` — Table 2: the SPEC-like suite under every tool;
//! * `fig11_traversal` — Figure 11: forward/random/reverse traversals;
//! * `region_check` — §4.2's headline: O(1) folded region checks vs ASan's
//!   linear guardian across region sizes;
//! * `poisoning` — §4.1: linear-time folding poisoner vs flat poisoning;
//! * `quasi_bound` — §4.3: cached vs uncached loop protection;
//! * `interp_throughput` — end-to-end interpreter throughput per tool and
//!   traversal pattern, plus monomorphized-vs-dynamic dispatch.
//!
//! These are ungated per-size microbenches. The repository's gated
//! benchmark, which times whole sanitized runs against the parent commit,
//! is `perfbench/` (see `BENCHMARK.json`).

use giantsan_baselines::Asan;
use giantsan_core::GiantSan;
use giantsan_harness::{SessionSpec, Tool};
use giantsan_ir::{CheckPlan, Program};
use giantsan_runtime::{Allocation, Region, RuntimeConfig, Sanitizer};
use giantsan_workloads::{traversal_program, Pattern};

/// Builds a bench-config session spec and its plan for `program` per tool,
/// reusing plans across criterion iterations.
pub fn plans_for(program: &Program, tools: &[Tool]) -> Vec<(SessionSpec, CheckPlan)> {
    tools
        .iter()
        .map(|t| {
            let spec = t.builder().config(bench_config()).spec();
            let plan = spec.plan(program);
            (spec, plan)
        })
        .collect()
}

/// The runtime configuration used by all wall-clock benches.
pub fn bench_config() -> RuntimeConfig {
    RuntimeConfig::default()
}

/// A GiantSan instance with one live `size`-byte heap object — the standard
/// fixture for region-check microbenches.
pub fn prepped_giantsan(size: u64) -> (GiantSan, Allocation) {
    let mut san = GiantSan::new(bench_config());
    let a = san.alloc(size, Region::Heap).expect("bench alloc");
    (san, a)
}

/// An ASan instance with one live `size`-byte heap object.
pub fn prepped_asan(size: u64) -> (Asan, Allocation) {
    let mut san = Asan::new(bench_config());
    let a = san.alloc(size, Region::Heap).expect("bench alloc");
    (san, a)
}

/// One traversal workload instance: the program, its inputs, and its label.
#[derive(Debug)]
pub struct TraversalCase {
    /// Access pattern (forward/random/reverse).
    pub pattern: Pattern,
    /// Buffer size in bytes.
    pub size: u64,
    /// The built program.
    pub program: Program,
    /// Program inputs.
    pub inputs: Vec<i64>,
}

impl TraversalCase {
    /// `<pattern>/<size>` — the criterion group label.
    pub fn label(&self) -> String {
        format!("{}/{}", self.pattern.name(), self.size)
    }
}

/// The traversal matrix of `interp_throughput`: every pattern at each given
/// size.
pub fn traversal_cases(sizes: &[u64]) -> Vec<TraversalCase> {
    let mut out = Vec::new();
    for pattern in Pattern::ALL {
        for &size in sizes {
            let (program, inputs) = traversal_program(pattern, size, 1);
            out.push(TraversalCase {
                pattern,
                size,
                program,
                inputs,
            });
        }
    }
    out
}
