#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each artefact is one [`Study`] in the [`StudyRegistry`]: its cells are
//! the independent runs the batch engine shards, and its `render` turns the
//! completed [`Record`]s into the report, CSV and JSON. A study is the only
//! implementation of its experiment: `repro`, `repro serve`, sharded
//! campaigns and the tests all run it through [`Campaign`], and its typed
//! result is rebuilt from the records by `from_records`.
//!
//! | Paper artefact | Study | Typed result | CLI |
//! |---|---|---|---|
//! | Table 2 (SPEC overhead + ablation) | [`experiments::table2::Table2Entry`] | [`experiments::table2::Table2`] | `repro table2` |
//! | Figure 10 (check breakdown) | [`experiments::fig10::Fig10Entry`] | [`experiments::fig10::Fig10`] | `repro fig10` |
//! | Table 3 (Juliet detection) | [`experiments::table3::Table3Entry`] | [`experiments::table3::Table3`] | `repro table3` |
//! | Table 4 (CVE detection) | [`experiments::table4::Table4Entry`] | [`experiments::table4::Table4`] | `repro table4` |
//! | Table 5 (Magma redzones) | [`experiments::table5::Table5Entry`] | [`experiments::table5::Table5`] | `repro table5` |
//! | Figure 11 (traversals) | [`experiments::fig11::Fig11Entry`] | [`experiments::fig11::Fig11`] | `repro fig11` |
//! | Fault-injection campaign | [`experiments::fault_study::FaultsEntry`] | [`experiments::fault_study::FaultStudy`] | `repro faults` |
//! | Telemetry trace (JSONL + Chrome + Prometheus) | [`experiments::trace::TraceEntry`] | [`experiments::trace::TraceStudy`] | `repro trace` |
//!
//! Timing experiments report both an analytic cost model
//! ([`CostModel`], paper-style overhead percentages) and wall-clock ratios.
//!
//! # Example
//!
//! ```no_run
//! use giantsan_harness::experiments::table2::{Table2, Table2Entry};
//! use giantsan_harness::{BatchRunner, Campaign, StudyOpts};
//!
//! let opts = StudyOpts::default();
//! let records = Campaign::new(&Table2Entry, opts.clone())?.run_all(&BatchRunner::default());
//! println!("{}", Table2::from_records(&opts, &records).render());
//! # Ok::<(), giantsan_harness::CampaignError>(())
//! ```

pub mod batch;
pub mod campaign;
pub mod cli;
pub mod cost;
pub mod csv;
pub mod experiments;
pub mod faults;
pub mod json;
pub mod serve;
pub mod session;
pub mod study;
mod table;
mod tool;

pub use batch::{
    BatchOutcome, BatchRunner, BatchSpan, BatchTrace, CellFailure, CellSpan, FailureSummary,
    TraceSink,
};
pub use campaign::{Campaign, CampaignError, ResumeStats, ShardSpec};
pub use cli::CliOpts;
pub use cost::{geomean, CostModel};
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultySanitizer};
pub use session::{RunOutcome, SessionSpec, ToolBuilder};
pub use study::{Record, Study, StudyOpts, StudyOutput, StudyRegistry};
pub use table::{pct, TextTable};
pub use tool::Tool;
