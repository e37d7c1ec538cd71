//! Differential tests: every sanitizer must agree with native execution on
//! safe programs — same data results, zero reports — across random programs
//! exercising the full pipeline (builder → planner → interpreter → runtime).

use giantsan::workloads::fuzz;

use giantsan::harness::{RunOutcome, Tool};
use giantsan::ir::Program;
use giantsan::runtime::RuntimeConfig;

const SEEDS: u64 = 60;

/// Runs `program` under `tool` in a fresh session with the small config.
fn run_small(tool: Tool, program: &Program, inputs: &[i64]) -> RunOutcome {
    tool.builder()
        .config(RuntimeConfig::small())
        .spec()
        .run(program, inputs)
}

#[test]
fn no_false_positives_on_random_safe_programs() {
    for seed in 0..SEEDS {
        let sp = fuzz::safe_program(seed);
        for tool in Tool::ALL {
            let out = run_small(tool, &sp.program, &sp.inputs);
            assert!(
                out.result.reports.is_empty(),
                "seed {seed}: {} reported {:?}",
                tool.name(),
                out.result.reports.first()
            );
            assert!(
                matches!(out.result.termination, giantsan::ir::Termination::Finished),
                "seed {seed}: {} ended {:?}",
                tool.name(),
                out.result.termination
            );
        }
    }
}

#[test]
fn checksums_agree_across_all_tools() {
    for seed in 0..SEEDS {
        let sp = fuzz::safe_program(seed);
        let reference = run_small(Tool::Native, &sp.program, &sp.inputs);
        for tool in Tool::ALL {
            let out = run_small(tool, &sp.program, &sp.inputs);
            assert_eq!(
                out.result.checksum,
                reference.result.checksum,
                "seed {seed}: {} diverged from native data flow",
                tool.name()
            );
        }
    }
}

#[test]
fn shadow_stays_consistent_through_random_programs() {
    // After any safe program, GiantSan's shadow must still satisfy every
    // encoding invariant w.r.t. the allocator state.
    use giantsan::analysis::{analyze, ToolProfile};
    use giantsan::core::{validate_shadow, GiantSan};
    use giantsan::ir::{run, ExecConfig};
    for seed in 0..SEEDS {
        let sp = fuzz::safe_program(seed);
        let plan = analyze(&sp.program, &ToolProfile::giantsan()).plan;
        let mut san = GiantSan::new(RuntimeConfig::small());
        let _ = run(
            &sp.program,
            &sp.inputs,
            &mut san,
            &plan,
            &ExecConfig::default(),
        );
        let issues = validate_shadow(&san);
        assert!(issues.is_empty(), "seed {seed}: {}", issues[0]);
    }
}

#[test]
fn giantsan_loads_no_more_shadow_than_asan() {
    // The whole point of segment folding: on safe programs GiantSan never
    // needs more metadata than ASan.
    let mut total_gs = 0u64;
    let mut total_asan = 0u64;
    for seed in 0..SEEDS {
        let sp = fuzz::safe_program(seed);
        let gs = run_small(Tool::GiantSan, &sp.program, &sp.inputs);
        let asan = run_small(Tool::Asan, &sp.program, &sp.inputs);
        total_gs += gs.counters.shadow_loads;
        total_asan += asan.counters.shadow_loads;
    }
    assert!(
        total_gs < total_asan / 2,
        "GiantSan {total_gs} loads vs ASan {total_asan}: folding is not paying off"
    );
}

#[test]
fn ablations_bracket_full_giantsan() {
    let mut gs = 0u64;
    let mut cache_only = 0u64;
    let mut elim_only = 0u64;
    for seed in 0..SEEDS {
        let sp = fuzz::safe_program(seed);
        gs += run_small(Tool::GiantSan, &sp.program, &sp.inputs)
            .counters
            .shadow_loads;
        cache_only += run_small(Tool::CacheOnly, &sp.program, &sp.inputs)
            .counters
            .shadow_loads;
        elim_only += run_small(Tool::EliminationOnly, &sp.program, &sp.inputs)
            .counters
            .shadow_loads;
    }
    assert!(gs <= cache_only, "full {gs} vs cache-only {cache_only}");
    assert!(gs <= elim_only, "full {gs} vs elim-only {elim_only}");
}
