//! The interpreter's end-to-end oracle: one FNV-1a over the outcome of every
//! run in a fixed corpus, pinned in `tests/golden/exec_digest.txt`.
//!
//! The corpus covers every way a run can end and every recovery policy:
//!
//! * the SPEC-like suite at scale 1 under all seven tools (`Continue`);
//! * one SPEC program cut off by a 1000-step budget (`StepLimit`);
//! * the Juliet-like suite (1/8 sample, buggy and safe inputs), the
//!   Magma-like cases (1/256 sample), the CVE scenarios and 500 safe plus
//!   500 buggy fuzz programs, each under GiantSan, ASan and LFP with
//!   `Continue`, `Halt` and `recover()`.
//!
//! Each run contributes its [`ExecResult::digest`] (checksum, steps, native
//! work, termination, rendered reports) and the `Debug` rendering of the
//! tool's counters, so a change in step accounting, check paths, shadow
//! traffic, containment or frame handling moves the digest. The pinned value
//! was produced by the tree-walking interpreter the lowered one replaced.

use giantsan::harness::{SessionSpec, Tool};
use giantsan::ir::{run, CheckPlan, ExecConfig, ExecResult, Program, Termination};
use giantsan::runtime::{Counters, RecoveryPolicy, RuntimeConfig};
use giantsan::telemetry::Fnv1a;
use giantsan::workloads::{
    buggy_program, cve_scenarios, juliet_suite_scaled, magma_cases, magma_templates, safe_program,
    spec_suite, spec_workload, InjectedBug,
};

const GOLDEN: &str = include_str!("golden/exec_digest.txt");

/// The digest plus a tally of how the runs ended, so the test can show the
/// corpus reaches every termination and containment path.
#[derive(Default)]
struct Fold {
    h: Fnv1a,
    /// Finished, Halted, Crashed, StepLimit.
    ends: [u64; 4],
    contained: u64,
}

impl Fold {
    /// Folds one run's observable outcome.
    fn eat(&mut self, result: &ExecResult, counters: &Counters) {
        self.h.eat(&result.digest().to_le_bytes());
        self.h.eat(format!("{counters:?}").as_bytes());
        self.ends[match result.termination {
            Termination::Finished => 0,
            Termination::Halted => 1,
            Termination::Crashed { .. } => 2,
            Termination::StepLimit => 3,
        }] += 1;
        self.contained += counters.errors_recovered + counters.errors_suppressed;
    }
}

/// Every program of the detection corpus, with its inputs.
fn detection_corpus() -> Vec<(Program, Vec<i64>)> {
    let mut out = Vec::new();
    let juliet = juliet_suite_scaled(8);
    for case in &juliet.cases {
        let program = &juliet.templates[case.template];
        out.push((program.clone(), case.buggy_inputs.clone()));
        out.push((program.clone(), case.safe_inputs.clone()));
    }
    let templates = magma_templates();
    for case in magma_cases(256) {
        out.push((templates[case.template].clone(), case.inputs));
    }
    for cve in cve_scenarios() {
        out.push((cve.program, cve.inputs));
    }
    for seed in 0..500u64 {
        let p = safe_program(seed);
        out.push((p.program, p.inputs));
        let bug = InjectedBug::ALL[(seed % InjectedBug::ALL.len() as u64) as usize];
        let p = buggy_program(seed, bug);
        out.push((p.program, p.inputs));
    }
    out
}

fn corpus_digest() -> Fold {
    let mut fold = Fold::default();

    for tool in Tool::ALL {
        let spec = tool.builder().config(RuntimeConfig::default()).spec();
        for w in spec_suite(1) {
            let plan = spec.plan(&w.program);
            let out = spec.run_planned(&w.program, &plan, &w.inputs);
            fold.eat(&out.result, &out.counters);
        }
    }

    let spec = Tool::GiantSan.builder().spec();
    let w = spec_workload("505.mcf_r", 1).expect("known workload");
    let mut san = spec.session();
    let cut = ExecConfig {
        max_steps: 1000,
        ..spec.exec_config()
    };
    let r = run(
        &w.program,
        &w.inputs,
        san.as_mut(),
        &spec.plan(&w.program),
        &cut,
    );
    assert_eq!(r.steps, 1001, "the budget trips on the step after the last");
    fold.eat(&r, san.counters());

    let corpus = detection_corpus();
    let policies = [
        RecoveryPolicy::Continue,
        RecoveryPolicy::Halt,
        RecoveryPolicy::recover(),
    ];
    for tool in [Tool::GiantSan, Tool::Asan, Tool::Lfp] {
        let specs: Vec<SessionSpec> = policies
            .iter()
            .map(|&p| {
                let cfg = RuntimeConfig::small().to_builder().recovery(p).build();
                tool.builder().config(cfg).spec()
            })
            .collect();
        for (program, inputs) in &corpus {
            // The plan depends on the tool's profile, not on its policy.
            let plan: CheckPlan = specs[0].plan(program);
            for spec in &specs {
                let out = spec.run_planned(program, &plan, inputs);
                fold.eat(&out.result, &out.counters);
            }
        }
    }
    fold
}

#[test]
fn every_run_matches_the_pinned_interpreter_digest() {
    let fold = corpus_digest();
    assert!(
        fold.ends.iter().all(|&n| n > 0) && fold.contained > 0,
        "the corpus must reach every termination and containment: {:?}, {} contained",
        fold.ends,
        fold.contained
    );
    let got = format!("{:#018x}", fold.h.finish());
    assert_eq!(
        got,
        GOLDEN.trim(),
        "interpreter outcomes diverge from tests/golden/exec_digest.txt"
    );
}
