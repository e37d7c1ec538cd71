//! Serial-vs-parallel determinism: the batch engine's core contract.
//!
//! The `BatchRunner` promises that results are a function of the cell
//! matrix alone — never of the thread count, the scheduling order, or how
//! the matrix is split into shards. These tests drive every deterministic
//! registry study through the same `Campaign` path `repro` uses and require
//! byte-identical digest-bearing outputs: CSVs, JSON documents, and digests.
//! Observation is held to the same standard: a traced run must execute
//! exactly like an untraced one.

use giantsan::harness::campaign::{shard_range, Campaign};
use giantsan::harness::{BatchRunner, Record, Study, StudyOpts, StudyRegistry, Tool};
use giantsan::telemetry::{NoopRecorder, TraceRecorder};
use giantsan::workloads::spec_workload;

/// The outputs named in `keep` (artifact file names, or `"json"` for the
/// machine-readable document), rendered from `records`.
fn outputs(
    study: &dyn Study,
    opts: &StudyOpts,
    records: &[Record],
    keep: &[&str],
) -> Vec<(String, String)> {
    let out = study.render(opts, records).expect("records render");
    let mut files: Vec<(String, String)> = out.artifacts;
    files.extend(out.main_artifacts);
    files.extend(out.json.map(|j| ("json".to_string(), j)));
    let picked: Vec<(String, String)> = files
        .into_iter()
        .filter(|(name, _)| keep.contains(&name.as_str()))
        .collect();
    assert_eq!(picked.len(), keep.len(), "{}: {keep:?}", study.name());
    picked
}

/// `StudyOpts::default()` with `f` applied.
fn opts_with(f: impl FnOnce(&mut StudyOpts)) -> StudyOpts {
    let mut opts = StudyOpts::default();
    f(&mut opts);
    opts
}

/// Runs the registry study `name` under `opts` serially, on 4 workers, and
/// as a 3-way `run_range` split, and requires the outputs named in `keep`
/// to be byte-identical across all three. Returns the serial outputs.
fn assert_thread_and_shard_invariant(
    name: &str,
    opts: &StudyOpts,
    keep: &[&str],
) -> Vec<(String, String)> {
    let registry = StudyRegistry::builtin();
    let study = registry.get(name).expect("registered study");
    let campaign = Campaign::new(study, opts.clone()).expect("valid opts");
    let tag = format!("{name} {:?}", opts.params());

    let serial = campaign.run_all(&BatchRunner::serial());
    let expected = outputs(study, opts, &serial, keep);
    let parallel = campaign.run_all(&BatchRunner::new(4));
    assert_eq!(
        outputs(study, opts, &parallel, keep),
        expected,
        "{tag}: 4 threads"
    );

    // Three shards, each run on its own, merged in index order.
    let cells = campaign.labels().len();
    let split: Vec<Record> = (0..3)
        .flat_map(|shard| {
            let range = shard_range(cells, shard, 3);
            let payloads = study.run_range(opts, range.clone(), &BatchRunner::serial());
            range.zip(payloads).map(|(index, payload)| Record {
                index,
                label: campaign.labels()[index].clone(),
                payload,
            })
        })
        .collect();
    assert_eq!(
        outputs(study, opts, &split, keep),
        expected,
        "{tag}: 3-way split"
    );
    expected
}

#[test]
fn table2_csv_is_byte_identical_across_thread_counts() {
    assert_thread_and_shard_invariant("table2", &StudyOpts::default(), &["table2.csv"]);
}

#[test]
fn detection_tables_are_thread_count_invariant() {
    assert_thread_and_shard_invariant("table3", &opts_with(|o| o.div = 40), &["table3.csv"]);
    assert_thread_and_shard_invariant("table4", &StudyOpts::default(), &["table4.csv"]);
    assert_thread_and_shard_invariant("table5", &opts_with(|o| o.div = 60), &["table5.csv"]);
}

#[test]
fn sweep_and_plan_outputs_are_thread_count_invariant() {
    assert_thread_and_shard_invariant("fig10", &StudyOpts::default(), &["fig10.csv"]);
    assert_thread_and_shard_invariant(
        "plan",
        &StudyOpts::default(),
        &["json", "plan_provenance.csv"],
    );
}

#[test]
fn matrix_digests_agree_across_three_seed_sets_and_thread_counts() {
    // The fault campaign is the fuzz workload x every tool x fault axis x
    // seed matrix; each campaign seed unfolds a different set of fault
    // plans over it.
    let keep = &["faults.csv", "faults_digest.txt"];
    for seed in [0, 0x9aa2_c0de, 0xdead_beef] {
        let opts = opts_with(|o| o.seed = seed);
        let digests = assert_thread_and_shard_invariant("faults", &opts, keep);
        // And re-running serially reproduces the digest exactly (the runs
        // share no state).
        let again = assert_thread_and_shard_invariant("faults", &opts, keep);
        assert_eq!(digests, again, "seed {seed:#x}");
    }
}

#[test]
fn telemetry_data_plane_is_thread_count_invariant() {
    // The telemetry layer's determinism contract: the JSONL event stream,
    // its FNV-1a digest, the histograms, the Prometheus exposition and the
    // span chain are byte-identical at any thread count and shard split.
    // Only the Chrome trace — the presentation plane — may (and does)
    // differ.
    let keep = &[
        "trace_events.jsonl",
        "trace_metrics.prom",
        "trace_digest.txt",
        "trace_spans.jsonl",
        "trace_span_digest.txt",
        "trace_counters.csv",
    ];
    for (workload, tool) in [
        ("figure8", Tool::GiantSan),
        ("figure8", Tool::Asan),
        ("519.lbm_r", Tool::GiantSan),
    ] {
        let opts = opts_with(|o| {
            o.workload = workload.to_string();
            o.tool = tool;
        });
        assert_thread_and_shard_invariant("trace", &opts, keep);
    }
}

#[test]
fn tracing_never_perturbs_execution() {
    // The same clean SPEC-like mix run with the recorder compiled out and
    // with a live TraceRecorder: identical interpreter results and counters,
    // and the traced run really did observe something.
    let spec = Tool::GiantSan.builder().spec();
    for id in ["519.lbm_r", "505.mcf_r", "557.xz_r"] {
        let w = spec_workload(id, 2).expect("known workload");
        let plan = spec.plan(&w.program);
        let noop = spec.run_planned_recorded(&w.program, &plan, &w.inputs, &mut NoopRecorder);
        let mut rec = TraceRecorder::for_cell(0);
        let traced = spec.run_planned_recorded(&w.program, &plan, &w.inputs, &mut rec);
        assert!(noop.result.reports.is_empty(), "{id} must run clean");
        assert_eq!(noop.result.digest(), traced.result.digest(), "{id}");
        assert_eq!(noop.counters, traced.counters, "{id}");
        assert!(
            !rec.events().is_empty(),
            "{id}: traced run captured no events"
        );
    }
}
