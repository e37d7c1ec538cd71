#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! Experiment harness: regenerates every table and figure of the paper.
//!
//! | Paper artefact | Function | CLI |
//! |---|---|---|
//! | Table 2 (SPEC overhead + ablation) | [`experiments::table2::table2`] | `repro table2` |
//! | Figure 10 (check breakdown) | [`experiments::fig10::fig10`] | `repro fig10` |
//! | Table 3 (Juliet detection) | [`experiments::table3::table3`] | `repro table3` |
//! | Table 4 (CVE detection) | [`experiments::table4::table4`] | `repro table4` |
//! | Table 5 (Magma redzones) | [`experiments::table5::table5`] | `repro table5` |
//! | Figure 11 (traversals) | [`experiments::fig11::fig11`] | `repro fig11` |
//! | Fault-injection campaign | [`experiments::fault_study::fault_study`] | `repro faults` |
//! | Telemetry trace (JSONL + Chrome + Prometheus) | [`experiments::trace::trace_study`] | `repro trace` |
//!
//! Timing experiments report both an analytic cost model
//! ([`CostModel`], paper-style overhead percentages) and wall-clock ratios.
//!
//! # Example
//!
//! ```no_run
//! use giantsan_harness::experiments::table2::table2;
//! let t = table2(1);
//! println!("{}", t.render());
//! ```

pub mod batch;
pub mod campaign;
pub mod cli;
pub mod cost;
pub mod csv;
pub mod experiments;
pub mod faults;
pub mod json;
pub mod matrix;
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
pub use session::{SessionSpec, ToolBuilder};
pub use study::{Record, Study, StudyOpts, StudyOutput, StudyRegistry};
pub use table::{pct, TextTable};
pub use tool::{run_planned, run_tool, RunOutcome, Tool};
