//! Shadow-kernel backends are a speed choice only: a clean SPEC-like mix run
//! end to end under each forced `kernel::Backend` yields byte-identical
//! interpreter results and sanitizer counters.

use giantsan::harness::Tool;
use giantsan::runtime::Counters;
use giantsan::shadow::kernel::{self, Backend};
use giantsan::workloads::spec_workload;

/// Per workload: (interpreter digest, counters) under the active backend.
fn clean_mix_outcomes() -> Vec<(u64, Counters)> {
    let spec = Tool::GiantSan.builder().spec();
    ["519.lbm_r", "505.mcf_r", "557.xz_r"]
        .iter()
        .map(|id| {
            let w = spec_workload(id, 2).expect("known workload");
            let plan = spec.plan(&w.program);
            let out = spec.run_planned(&w.program, &plan, &w.inputs);
            assert!(out.result.reports.is_empty(), "{id} must run clean");
            (out.result.digest(), out.counters)
        })
        .collect()
}

#[test]
fn every_backend_produces_identical_end_to_end_digests() {
    let restore = kernel::active().backend();
    let per_backend: Vec<_> = Backend::ALL
        .iter()
        .map(|&backend| {
            kernel::force(backend);
            (kernel::active().name(), clean_mix_outcomes())
        })
        .collect();
    kernel::force(restore);
    assert_eq!(kernel::active().backend(), restore);
    let (first_name, first) = &per_backend[0];
    for (name, outcomes) in &per_backend[1..] {
        assert_eq!(outcomes, first, "{name} diverges from {first_name}");
    }
}
