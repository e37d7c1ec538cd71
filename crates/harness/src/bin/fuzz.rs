//! `fuzz` — differential fuzzing across sanitizers.
//!
//! ```text
//! fuzz [--seeds N] [--threads N] [--verbose]
//! ```
//!
//! Generates `N` random safe programs plus `N` buggy programs per injected
//! geometry (see `giantsan_workloads::fuzz`), runs every tool on each, and
//! reports:
//!
//! * **false positives** — reports on safe programs (must be zero for every
//!   tool; a non-zero cell fails the run);
//! * **data divergence** — checksum mismatches vs native execution (must be
//!   zero; instrumentation must never change program behaviour);
//! * **false negatives per geometry** — misses on buggy programs, which for
//!   the baselines are *expected* in the geometries their mechanisms cannot
//!   see (that asymmetry is the paper's detection story).
//!
//! The seed matrix is sharded across `--threads N` workers (default: the
//! host's available parallelism); verdicts are merged in seed order, so the
//! output is identical for every thread count.
//!
//! Exits non-zero if GiantSan misses anything, reports a false positive, or
//! any tool diverges from native data flow.

use std::collections::BTreeMap;
use std::env;
use std::process::ExitCode;

use giantsan_harness::{BatchRunner, RunOutcome, Tool};
use giantsan_runtime::RuntimeConfig;
use giantsan_workloads::fuzz::{buggy_program, safe_program, FuzzProgram, InjectedBug};

const TOOLS: [Tool; 5] = [
    Tool::GiantSan,
    Tool::Asan,
    Tool::AsanMinusMinus,
    Tool::Lfp,
    Tool::CacheOnly,
];

/// One safe-program seed's verdicts, per tool.
struct SafeVerdict {
    /// Rendered first report when the tool falsely fired.
    false_positive: Option<String>,
    diverged: bool,
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut seeds = 50u64;
    let mut threads = BatchRunner::available_parallelism();
    let mut verbose = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => seeds = v,
                _ => {
                    eprintln!("--seeds needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(v)) => threads = v,
                _ => {
                    eprintln!("--threads needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--verbose" => verbose = true,
            other => {
                eprintln!("unknown option {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let runner = BatchRunner::new(threads);
    let run = |tool: Tool, fp: &FuzzProgram| -> RunOutcome {
        tool.builder()
            .config(RuntimeConfig::small())
            .spec()
            .run(&fp.program, &fp.inputs)
    };
    let mut failures = 0u32;
    let seed_list: Vec<u64> = (0..seeds).collect();

    // Phase 1: safe programs — FP and divergence sweep.
    println!(
        "phase 1: {seeds} safe programs x {} tools ({} workers)",
        TOOLS.len(),
        runner.threads()
    );
    let safe_verdicts = runner.map(&seed_list, |_, &seed| {
        let fp = safe_program(seed);
        let native = run(Tool::Native, &fp);
        TOOLS
            .iter()
            .map(|&tool| {
                let out = run(tool, &fp);
                SafeVerdict {
                    false_positive: out.detected().then(|| match out.result.reports.first() {
                        Some(r) => r.to_string(),
                        None => "crashed without a report".to_string(),
                    }),
                    diverged: out.result.checksum != native.result.checksum,
                }
            })
            .collect::<Vec<_>>()
    });
    let mut fps: BTreeMap<&str, u32> = BTreeMap::new();
    let mut divergences = 0u32;
    for (seed, verdicts) in seed_list.iter().zip(&safe_verdicts) {
        for (tool, v) in TOOLS.iter().zip(verdicts) {
            if let Some(report) = &v.false_positive {
                *fps.entry(tool.name()).or_default() += 1;
                failures += 1;
                if verbose {
                    println!("  FP: {} on seed {seed}: {report}", tool.name());
                }
            }
            if v.diverged {
                divergences += 1;
                failures += 1;
                println!("  DIVERGENCE: {} on seed {seed}", tool.name());
            }
        }
    }
    println!(
        "  false positives: {} | data divergences: {divergences}",
        fps.values().sum::<u32>()
    );

    // Phase 2: buggy programs — FN matrix over (geometry × seed) cells.
    println!(
        "\nphase 2: {seeds} buggy programs x {} geometries x {} tools",
        InjectedBug::ALL.len(),
        TOOLS.len()
    );
    println!(
        "\n{:<16} {}",
        "geometry",
        TOOLS.map(|t| format!("{:>10}", t.name())).join(" ")
    );
    let cells: Vec<(InjectedBug, u64)> = InjectedBug::ALL
        .iter()
        .flat_map(|&bug| seed_list.iter().map(move |&s| (bug, s)))
        .collect();
    let missed_matrix = runner.map(&cells, |_, &(bug, seed)| {
        let fp = buggy_program(seed, bug);
        TOOLS.map(|tool| !run(tool, &fp).detected())
    });
    for (bi, bug) in InjectedBug::ALL.iter().enumerate() {
        let mut missed = [0u32; TOOLS.len()];
        for (si, seed) in seed_list.iter().enumerate() {
            let cell_missed = &missed_matrix[bi * seed_list.len() + si];
            for (i, (&tool, &m)) in TOOLS.iter().zip(cell_missed).enumerate() {
                if m {
                    missed[i] += 1;
                    if tool == Tool::GiantSan || tool == Tool::CacheOnly {
                        failures += 1;
                        if verbose {
                            println!("  GiantSan-family MISS: {} seed {seed}", bug.name());
                        }
                    }
                }
            }
        }
        println!(
            "{:<16} {}",
            bug.name(),
            missed
                .iter()
                .map(|m| format!("{:>4} missed", m))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    println!(
        "\nexpected asymmetries: instruction-level tools miss overflow-far; LFP \
         additionally\nmisses stack-strcpy (unprotected stack) and near overflows \
         within rounding slack."
    );
    if failures == 0 {
        println!("\nfuzzing clean: no FPs, no divergence, no GiantSan misses.");
        ExitCode::SUCCESS
    } else {
        println!("\n{failures} failure(s).");
        ExitCode::FAILURE
    }
}
