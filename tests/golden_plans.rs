//! Golden-file snapshots of emitted `CheckPlan`s.
//!
//! The pass-pipeline refactor of the planner is *behavior-locked*: for the
//! Figure-8 program and three representative SPEC-model workloads, across
//! every tool profile, the emitted plan must stay byte-identical. Each golden
//! file records an FNV-1a digest of the canonical plan rendering plus the
//! rendered fate table, so a drift fails with a readable diff, not just a
//! hash mismatch.
//!
//! To regenerate after an *intentional* plan change (requires justification
//! in review): `GOLDEN_REGEN=1 cargo test --test golden_plans`.

use std::fmt::Write as _;
use std::path::PathBuf;

use giantsan::analysis::{analyze, Analysis, ToolProfile};
use giantsan::ir::Program;
use giantsan::telemetry::fnv1a;
use giantsan::workloads::{figure8_program, spec_workload};

/// The profiles under snapshot: the four performance-study tools plus the
/// two ablation variants (Native plans nothing and is omitted).
fn profiles() -> Vec<ToolProfile> {
    vec![
        ToolProfile::giantsan(),
        ToolProfile::asan(),
        ToolProfile::asan_minus_minus(),
        ToolProfile::lfp(),
        ToolProfile::giantsan_cache_only(),
        ToolProfile::giantsan_elimination_only(),
    ]
}

/// The snapshotted programs: Figure 8 plus three SPEC-model workloads with
/// distinct planner behavior (stencil, pointer-chasing, byte-stream).
fn programs() -> Vec<(&'static str, Program)> {
    let mut v = vec![("figure8", figure8_program(100).0)];
    for id in ["519.lbm_r", "505.mcf_r", "557.xz_r"] {
        let w = spec_workload(id, 1).expect("known SPEC-model id");
        v.push((id, w.program));
    }
    v
}

/// Canonical, exhaustive rendering of an analysis result: every site action
/// (with expressions), every loop plan sorted by id, the cache count, then
/// the human-readable fate table.
fn render_analysis(a: &Analysis) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "num_caches={}", a.plan.num_caches);
    for (i, act) in a.plan.sites.iter().enumerate() {
        let _ = writeln!(s, "s{i}: {act:?}");
    }
    let mut loops: Vec<_> = a.plan.loops.iter().collect();
    loops.sort_by_key(|(id, _)| **id);
    for (id, lp) in loops {
        let _ = writeln!(s, "loop {id:?}: {lp:?}");
    }
    s.push_str("-- fates --\n");
    s.push_str(&a.render());
    s
}

/// One golden document per program: a section per profile with the digest
/// line first, then the full rendering.
fn golden_document(program: &Program) -> String {
    let mut doc = String::new();
    for profile in profiles() {
        let a = analyze(program, &profile);
        let body = render_analysis(&a);
        let _ = writeln!(doc, "=== profile: {} ===", profile.name);
        let _ = writeln!(doc, "fnv1a: {:016x}", fnv1a(body.as_bytes()));
        doc.push_str(&body);
        doc.push('\n');
    }
    doc
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.plan.txt", name.replace('.', "_")))
}

#[test]
fn check_plans_match_golden_snapshots() {
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let mut failures = Vec::new();
    for (name, program) in programs() {
        let doc = golden_document(&program);
        let path = golden_path(name);
        if regen {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &doc).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        if want != doc {
            // Pin the first differing line for a readable failure.
            let diff = want
                .lines()
                .zip(doc.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .map(|(i, (a, b))| format!("line {}: golden `{a}` vs got `{b}`", i + 1))
                .unwrap_or_else(|| "document lengths differ".to_string());
            failures.push(format!("{name}: {diff}"));
        }
    }
    assert!(
        failures.is_empty(),
        "CheckPlan drift against golden snapshots (regenerate only if the \
         plan change is intentional: GOLDEN_REGEN=1):\n{}",
        failures.join("\n")
    );
}

/// The digests alone, pinned in-source as a second tripwire: catches a
/// wholesale (accidental) regeneration of the golden files.
#[test]
fn figure8_giantsan_digest_is_pinned() {
    let (prog, _) = figure8_program(100);
    let a = analyze(&prog, &ToolProfile::giantsan());
    let body = render_analysis(&a);
    assert_eq!(
        format!("{:016x}", fnv1a(body.as_bytes())),
        PINNED_FIGURE8_GIANTSAN_DIGEST,
        "Figure-8 GiantSan plan changed — this digest is the paper's worked \
         example and must only move with an intentional planner change"
    );
}

/// Captured from the pre-refactor (monolithic-planner) implementation.
const PINNED_FIGURE8_GIANTSAN_DIGEST: &str = "fa8b05841e41f9a6";
