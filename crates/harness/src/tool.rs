//! The tool registry: every sanitizer configuration the paper evaluates.
//!
//! `Tool` is the identity half of the session API: it names a column of
//! Table 2 and knows nothing about configuration. [`Tool::builder`] starts a
//! [`crate::ToolBuilder`], which produces a [`crate::SessionSpec`] — the
//! complete description workers of the batch engine build sessions from,
//! and the one way to run a session.

use crate::session::ToolBuilder;

/// A sanitizer configuration (one column of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tool {
    /// Uninstrumented execution (the overhead baseline).
    Native,
    /// Full GiantSan.
    GiantSan,
    /// AddressSanitizer.
    Asan,
    /// ASan-- (elimination-only instrumentation on the ASan runtime).
    AsanMinusMinus,
    /// Low-fat pointers.
    Lfp,
    /// Ablation: GiantSan with history caching only.
    CacheOnly,
    /// Ablation: GiantSan with check elimination only.
    EliminationOnly,
}

impl Tool {
    /// The five columns of the performance study plus the two ablations.
    pub const ALL: [Tool; 7] = [
        Tool::Native,
        Tool::GiantSan,
        Tool::Asan,
        Tool::AsanMinusMinus,
        Tool::Lfp,
        Tool::CacheOnly,
        Tool::EliminationOnly,
    ];

    /// Parses a tool by its display name, case-insensitively.
    ///
    /// This is the single CLI-facing lookup every `repro` subcommand shares
    /// (`--tool asan--`, `--tool GiantSan`, …).
    pub fn parse(name: &str) -> Option<Tool> {
        Tool::ALL
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(name))
    }

    /// Display name matching the paper's column headers.
    pub fn name(self) -> &'static str {
        match self {
            Tool::Native => "Native",
            Tool::GiantSan => "GiantSan",
            Tool::Asan => "ASan",
            Tool::AsanMinusMinus => "ASan--",
            Tool::Lfp => "LFP",
            Tool::CacheOnly => "CacheOnly",
            Tool::EliminationOnly => "EliminationOnly",
        }
    }

    /// Starts building a [`crate::SessionSpec`] for this tool.
    pub fn builder(self) -> ToolBuilder {
        ToolBuilder::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::RunOutcome;
    use giantsan_ir::{Program, ProgramBuilder};
    use giantsan_runtime::RuntimeConfig;

    fn tiny_program() -> (Program, Vec<i64>) {
        let mut b = ProgramBuilder::new("tiny");
        let p = b.alloc_heap(64);
        b.for_loop(0i64, 8i64, |b, i| {
            b.store(p, giantsan_ir::Expr::var(i) * 8, 8, 1i64);
        });
        b.free(p);
        (b.build(), vec![])
    }

    fn run(tool: Tool, prog: &Program, inputs: &[i64]) -> RunOutcome {
        tool.builder()
            .config(RuntimeConfig::small())
            .spec()
            .run(prog, inputs)
    }

    #[test]
    fn every_tool_runs_the_same_program() {
        let (prog, inputs) = tiny_program();
        for tool in Tool::ALL {
            let out = run(tool, &prog, &inputs);
            assert!(!out.detected(), "{} raised on clean code", tool.name());
        }
    }

    #[test]
    fn check_counts_reflect_capabilities() {
        let (prog, inputs) = tiny_program();
        let native = run(Tool::Native, &prog, &inputs);
        let asan = run(Tool::Asan, &prog, &inputs);
        let gs = run(Tool::GiantSan, &prog, &inputs);
        assert_eq!(native.counters.shadow_loads, 0);
        assert_eq!(asan.counters.shadow_loads, 8, "one per store");
        assert!(
            gs.counters.shadow_loads <= 2,
            "promoted loop: one region check"
        );
    }

    #[test]
    fn names_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for t in Tool::ALL {
            assert!(seen.insert(t.name()));
        }
    }
}
