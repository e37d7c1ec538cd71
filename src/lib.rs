#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! # giantsan
//!
//! A comprehensive Rust reproduction of **GiantSan: Efficient Memory
//! Sanitization with Segment Folding** (Ling, Huang, Wang, Cai, Zhang —
//! ASPLOS 2024, <https://doi.org/10.1145/3620665.3640391>).
//!
//! This facade crate re-exports every subsystem of the workspace:
//!
//! * [`shadow`] — simulated address space + raw shadow memory substrate;
//! * [`telemetry`] — event recorders, span ids, exports, and the workspace's
//!   one FNV-1a digest;
//! * [`runtime`] — allocator runtime (redzones, quarantine, stack) and the
//!   [`runtime::Sanitizer`] trait;
//! * [`core`] — the paper's contribution: segment-folding shadow encoding,
//!   O(1) region checks, quasi-bound history caching, anchor-based checks;
//! * [`baselines`] — ASan, ASan--, and LFP comparators;
//! * [`ir`] — the mini-IR and interpreter standing in for LLVM;
//! * [`analysis`] — static analyses and the instrumentation planner;
//! * [`workloads`] — SPEC-like, Juliet-like, CVE, Magma-like and traversal
//!   workload generators;
//! * [`harness`] — table/figure reproduction drivers.
//!
//! # Quickstart
//!
//! ```
//! use giantsan::core::GiantSan;
//! use giantsan::runtime::{AccessKind, Region, RuntimeConfig, Sanitizer};
//!
//! let mut san = GiantSan::new(RuntimeConfig::small());
//! let buf = san.alloc(1024, Region::Heap).unwrap();
//!
//! // One O(1) check protects the whole 1 KiB operation: this is the
//! // paper's headline over ASan's 128 shadow loads for the same region.
//! assert!(san
//!     .check_region(buf.base, buf.base + 1024, AccessKind::Write)
//!     .is_ok());
//!
//! // Overflows past the redzone-protected end are reported.
//! assert!(san
//!     .check_region(buf.base, buf.base + 1025, AccessKind::Write)
//!     .is_err());
//! ```

pub use giantsan_analysis as analysis;
pub use giantsan_baselines as baselines;
pub use giantsan_core as core;
pub use giantsan_harness as harness;
pub use giantsan_ir as ir;
pub use giantsan_runtime as runtime;
pub use giantsan_shadow as shadow;
pub use giantsan_telemetry as telemetry;
pub use giantsan_workloads as workloads;
