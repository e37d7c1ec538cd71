//! Bug-injection differential testing: random safe programs with one
//! injected memory-safety violation of known geometry (see
//! `giantsan::workloads::fuzz`). Verifies each tool's verdict against what
//! its mechanism predicts — in particular that GiantSan's anchored
//! operation-level checks *dominate* ASan's instruction-level ones.

use giantsan::harness::Tool;
use giantsan::ir::Program;
use giantsan::runtime::RuntimeConfig;
use giantsan::workloads::fuzz::{buggy_program, InjectedBug};

fn detected(tool: Tool, prog: &Program) -> bool {
    tool.builder()
        .config(RuntimeConfig::small())
        .spec()
        .run(prog, &[])
        .detected()
}

#[test]
fn giantsan_detects_every_injected_bug() {
    for seed in 0..40u64 {
        for bug in InjectedBug::ALL {
            let fp = buggy_program(seed, bug);
            assert!(
                detected(Tool::GiantSan, &fp.program),
                "GiantSan missed {} at seed {seed}",
                bug.name()
            );
        }
    }
}

#[test]
fn giantsan_dominates_asan_per_program() {
    let mut gs_total = 0u32;
    let mut asan_total = 0u32;
    for seed in 0..40u64 {
        for bug in InjectedBug::ALL {
            let fp = buggy_program(seed, bug);
            let gs = detected(Tool::GiantSan, &fp.program);
            let asan = detected(Tool::Asan, &fp.program);
            assert!(
                gs >= asan,
                "dominance violated on {} seed {seed}: asan={asan} gs={gs}",
                bug.name()
            );
            gs_total += gs as u32;
            asan_total += asan as u32;
        }
    }
    assert!(
        gs_total > asan_total,
        "GiantSan should strictly out-detect ASan on far overflows \
         (gs {gs_total} vs asan {asan_total})"
    );
}

#[test]
fn far_overflows_are_the_asan_gap() {
    // Every far overflow that ASan misses lands inside a live neighbour;
    // GiantSan's anchored check flags the region between base and access.
    let mut missed_by_asan = 0;
    for seed in 0..40u64 {
        let fp = buggy_program(seed, InjectedBug::OverflowFar);
        if !detected(Tool::Asan, &fp.program) {
            missed_by_asan += 1;
            assert!(detected(Tool::GiantSan, &fp.program), "seed {seed}");
        }
    }
    assert!(
        missed_by_asan > 10,
        "the generator should produce real bypasses, got {missed_by_asan}"
    );
}

#[test]
fn near_bugs_are_caught_by_all_location_tools() {
    for seed in 0..20u64 {
        for bug in [
            InjectedBug::OverflowNear,
            InjectedBug::UnderflowNear,
            InjectedBug::UseAfterFree,
            InjectedBug::StackStrcpy,
        ] {
            let fp = buggy_program(seed, bug);
            for tool in [Tool::GiantSan, Tool::Asan, Tool::AsanMinusMinus] {
                assert!(
                    detected(tool, &fp.program),
                    "{} missed {} at seed {seed}",
                    tool.name(),
                    bug.name()
                );
            }
        }
    }
}

#[test]
fn lfp_geometry_profile() {
    // LFP's mechanism: bounds from size-class slots, anchored arithmetic,
    // no stack coverage. Near overflows inside slack are missed; far
    // overflows escape the slot and are caught; stack strcpy is invisible.
    let mut near_missed = 0;
    for seed in 0..40u64 {
        let fp = buggy_program(seed, InjectedBug::OverflowNear);
        if !detected(Tool::Lfp, &fp.program) {
            near_missed += 1;
        }
        assert!(
            detected(
                Tool::Lfp,
                &buggy_program(seed, InjectedBug::OverflowFar).program
            ),
            "far overflow escapes the slot, seed {seed}"
        );
        assert!(
            !detected(
                Tool::Lfp,
                &buggy_program(seed, InjectedBug::StackStrcpy).program
            ),
            "stack is unprotected for LFP, seed {seed}"
        );
    }
    assert!(
        near_missed > 5,
        "rounding slack should hide some near overflows"
    );
}
