//! Serial-vs-parallel determinism: the batch engine's core contract.
//!
//! The `BatchRunner` promises that results are a function of the cell
//! matrix alone — never of the thread count or of scheduling order. These
//! tests run the same experiments serially and with a 4-worker pool and
//! require byte-identical modelled outputs: CSV rows, detection counters,
//! and matrix digests. Observation is held to the same standard: a traced
//! run must execute exactly like an untraced one.

use giantsan::harness::experiments::{table2, table3, table4, table5, trace};
use giantsan::harness::{csv, matrix, BatchRunner, Tool};
use giantsan::runtime::RuntimeConfig;
use giantsan::telemetry::{NoopRecorder, TraceRecorder};
use giantsan::workloads::spec_workload;

#[test]
fn table2_csv_is_byte_identical_across_thread_counts() {
    let serial = csv::table2_csv(&table2::table2_with(&BatchRunner::serial(), 1));
    for threads in [2, 4, 8] {
        let parallel = csv::table2_csv(&table2::table2_with(&BatchRunner::new(threads), 1));
        assert_eq!(serial, parallel, "{threads} threads");
    }
}

#[test]
fn detection_tables_are_thread_count_invariant() {
    let runner4 = BatchRunner::new(4);

    let t3s = table3::table3_with(&BatchRunner::serial(), 40);
    let t3p = table3::table3_with(&runner4, 40);
    assert_eq!(csv::table3_csv(&t3s), csv::table3_csv(&t3p));

    let t4s = table4::table4_with(&BatchRunner::serial());
    let t4p = table4::table4_with(&runner4);
    assert_eq!(csv::table4_csv(&t4s), csv::table4_csv(&t4p));

    let t5s = table5::table5_with(&BatchRunner::serial(), 60);
    let t5p = table5::table5_with(&runner4, 60);
    assert_eq!(csv::table5_csv(&t5s), csv::table5_csv(&t5p));
}

#[test]
fn matrix_digests_agree_across_three_seed_sets_and_thread_counts() {
    let cfg = RuntimeConfig::small();
    for seeds in [[0u64, 1, 2], [7, 11, 13], [100, 200, 300]] {
        let cells = matrix::default_matrix(1, &seeds);
        let serial = matrix::run_matrix(&BatchRunner::serial(), &cells, &cfg);
        let serial_digest = matrix::digest(&serial);
        for threads in [2, 4] {
            let parallel = matrix::run_matrix(&BatchRunner::new(threads), &cells, &cfg);
            assert_eq!(serial, parallel, "seeds {seeds:?}, {threads} threads");
            assert_eq!(serial_digest, matrix::digest(&parallel));
        }
        // And re-running serially reproduces the digest exactly (the runs
        // share no state).
        let again = matrix::run_matrix(&BatchRunner::serial(), &cells, &cfg);
        assert_eq!(serial_digest, matrix::digest(&again));
    }
}

#[test]
fn telemetry_data_plane_is_thread_count_invariant() {
    // The telemetry layer's determinism contract: the JSONL event stream,
    // its FNV-1a digest, the histograms, and the Prometheus exposition are
    // byte-identical at any thread count. Only the Chrome trace — the
    // presentation plane — may (and does) differ.
    for (workload, tool) in [
        ("figure8", Tool::GiantSan),
        ("figure8", Tool::Asan),
        ("519.lbm_r", Tool::GiantSan),
    ] {
        let serial = trace::trace_study_with(&BatchRunner::serial(), workload, tool, 1).unwrap();
        for threads in [2, 4] {
            let parallel =
                trace::trace_study_with(&BatchRunner::new(threads), workload, tool, 1).unwrap();
            let tag = format!("{workload} / {} / {threads} threads", tool.name());
            assert_eq!(serial.events_jsonl(), parallel.events_jsonl(), "{tag}");
            assert_eq!(serial.digest(), parallel.digest(), "{tag}");
            assert_eq!(serial.hists, parallel.hists, "{tag}");
            assert_eq!(serial.prometheus(), parallel.prometheus(), "{tag}");
            assert_eq!(
                csv::trace_counters_csv(&serial),
                csv::trace_counters_csv(&parallel),
                "{tag}"
            );
        }
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
        let plan = Tool::GiantSan.plan(&w.program);
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
