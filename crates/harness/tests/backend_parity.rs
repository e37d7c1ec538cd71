//! Differential test pinning detection behaviour across heap backends: the
//! Juliet, CVE, and Magma workloads must produce byte-identical outcomes —
//! the same detection verdict and the same execution digest per case —
//! whether GiantSan allocates from the legacy free-list heap or the
//! Immix-style block/line heap. Allocator policy may move objects around,
//! but it must never change what the sanitizer reports.

use giantsan_harness::{SessionSpec, Tool};
use giantsan_runtime::{HeapBackend, RuntimeConfig};
use giantsan_workloads::flaws::cve_scenarios;
use giantsan_workloads::juliet::juliet_suite_scaled;
use giantsan_workloads::magma::{magma_cases, magma_templates};

/// The two GiantSan sessions under comparison (free-list, block/line):
/// identical except for the heap backend behind the allocator.
fn specs() -> [SessionSpec; 2] {
    let freelist = RuntimeConfig::default();
    let blockline = freelist
        .to_builder()
        .heap_backend(HeapBackend::BlockLine)
        .build();
    [freelist, blockline].map(|cfg| Tool::GiantSan.builder().config(cfg).spec())
}

/// (detected, execution digest) for one planned run.
fn outcome(
    spec: &SessionSpec,
    program: &giantsan_ir::Program,
    plan: &giantsan_ir::CheckPlan,
    inputs: &[i64],
) -> (bool, u64) {
    let out = spec.run_planned(program, plan, inputs);
    (out.detected(), out.result.digest())
}

#[test]
fn juliet_outcomes_are_backend_invariant() {
    let suite = juliet_suite_scaled(8);
    let [fl, bl] = specs();
    let plans: Vec<_> = suite.templates.iter().map(|p| fl.plan(p)).collect();
    assert!(!suite.cases.is_empty());
    for case in &suite.cases {
        let program = &suite.templates[case.template];
        let plan = &plans[case.template];
        for inputs in [&case.buggy_inputs, &case.safe_inputs] {
            let a = outcome(&fl, program, plan, inputs);
            let b = outcome(&bl, program, plan, inputs);
            assert_eq!(
                a, b,
                "CWE-{} {:?} diverges between heap backends",
                case.cwe, inputs
            );
        }
    }
}

#[test]
fn cve_outcomes_are_backend_invariant() {
    let scenarios = cve_scenarios();
    let [fl, bl] = specs();
    assert!(!scenarios.is_empty());
    for c in &scenarios {
        let plan = fl.plan(&c.program);
        let a = outcome(&fl, &c.program, &plan, &c.inputs);
        let b = outcome(&bl, &c.program, &plan, &c.inputs);
        assert_eq!(a, b, "{} diverges between heap backends", c.cve);
        assert!(a.0, "{} must be detected under both backends", c.cve);
    }
}

#[test]
fn magma_outcomes_are_backend_invariant() {
    let templates = magma_templates();
    let cases = magma_cases(256);
    let [fl, bl] = specs();
    let plans: Vec<_> = templates.iter().map(|p| fl.plan(p)).collect();
    assert!(!cases.is_empty());
    for case in &cases {
        let program = &templates[case.template];
        let plan = &plans[case.template];
        let a = outcome(&fl, program, plan, &case.inputs);
        let b = outcome(&bl, program, plan, &case.inputs);
        assert_eq!(
            a, b,
            "magma {} {:?} diverges between heap backends",
            case.project, case.inputs
        );
    }
}
