//! The repository benchmark: sanitized run time, memory and service latency
//! on three seeded workloads.
//!
//! ```text
//! perfbench --workload spec|bulk|churn --seed N --seconds S --trace 0|1
//!           [--scratch DIR] [--inject check:NS|alloc:NS]
//! perfbench --catalogue      # the metric catalogue as JSON
//! perfbench --list           # the catalogue as a Markdown table
//! ```
//!
//! A run prints a human table on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`). `perfbench/run.py` builds this binary and wraps
//! it; see `perfbench/README.md`.
//!
//! An untraced run measures in [`PROCESSES`] child processes in turn (this
//! binary with `--child`), each for an equal share of `--seconds`, and
//! pools their samples: a process's speed level depends on where its data
//! landed in memory, and one process is a sample of one. Each process's
//! times are first scaled to the reference host by the kernel in
//! [`mod@reference`].

mod adapter;
mod bench;
mod metrics;
mod reference;
mod serve;
mod stats;
mod trace;
mod work;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::adapter::Delay;
use crate::bench::{describe, Args, Report};
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::work::Kind;

/// Measuring processes per untraced run. Within one process the upper
/// quartile of pass times holds within 2 % for 40 s; between processes it
/// moves by about 5 %, so a run pools several.
const PROCESSES: usize = 4;

const USAGE: &str = "usage: perfbench --workload spec|bulk|churn --seed N --seconds S \
                     --trace 0|1 [--scratch DIR] [--inject check:NS|alloc:NS]\n       \
                     perfbench --catalogue | --list";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = PathBuf::from(".bench_build/perfbench-scratch");
    let mut delay = None;
    let mut child = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|_| format!("bad seed `{value}`"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--scratch" => scratch = PathBuf::from(value),
            "--inject" => delay = Some(Delay::parse(value)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch,
        delay,
        child,
    })
}

fn catalogue_json() -> String {
    let workloads: Vec<String> = Kind::ALL
        .iter()
        .map(|k| format!(r#"{{"name":"{}","why":{:?}}}"#, k.name(), k.why()))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                r#"{{"name":"{}","unit":"{}","better":"{}","bound":{}}}"#,
                d.name, d.unit, d.better, d.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                r#"{{"name":"{}","unit":"{}","better":"{}"}}"#,
                d.name, d.unit, d.better
            )
        })
        .collect();
    format!(
        r#"{{"workloads":[{}],"end_to_end":[{}],"per_layer":[{}]}}"#,
        workloads.join(","),
        e2e.join(","),
        layers.join(",")
    )
}

fn markdown() -> String {
    let mut out = String::from(
        "| metric | unit | better | measures | should move |\n|---|---|---|---|---|\n",
    );
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let moves = if d.moves.is_empty() {
            format!("end-to-end, bound {}", d.bound)
        } else {
            d.moves.to_string()
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            d.name, d.unit, d.better, d.doc, moves
        ));
    }
    out
}

/// Prints the human table and returns the result line.
fn render(args: &Args, report: &mut Report) -> String {
    let defs: &[Def] = if args.trace { PER_LAYER } else { END_TO_END };
    let emitted: Vec<&str> = report.values.keys().copied().collect();
    let mut expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    expected.sort_unstable();
    assert_eq!(emitted, expected, "a run emits exactly its catalogue list");
    for (name, v) in &report.values {
        if !v.is_finite() {
            report.tally.attempted += 1;
            report.tally.failed += 1;
            report
                .tally
                .failures
                .push(format!("{name} is not a number"));
        }
    }
    let t = &report.tally;
    eprintln!(
        "== perfbench {} seed {} ({}s, trace {}) ==",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &report.host {
        eprintln!("  host.{k}: {v}");
    }
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for d in defs {
        let v = report.values[d.name];
        let detail = report
            .summaries
            .get(d.name)
            .map(describe)
            .unwrap_or_default();
        eprintln!(
            "  {:<42} {:>16.6} {:<6} {:<6} {}",
            d.name, v, d.unit, d.better, detail
        );
    }
    eprintln!(
        "  error_rate: {}/{} = {:.6}",
        t.failed,
        t.attempted,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for f in &t.failures {
        eprintln!("  FAILURE: {f}");
    }
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = report.values[d.name];
            let v = if v.is_finite() { v } else { 0.0 };
            format!(r#""{}":{{"value":{v},"unit":"{}"}}"#, d.name, d.unit)
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        metrics.join(",")
    )
}

/// `argv` with `--seconds` replaced by `share`, plus `--child`.
fn child_argv(argv: &[String], share: f64) -> Vec<String> {
    let mut out = Vec::with_capacity(argv.len() + 1);
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        out.push(a.clone());
        if a == "--seconds" {
            it.next();
            out.push(share.to_string());
        }
    }
    out.push("--child".to_string());
    out
}

/// Runs [`PROCESSES`] children in turn, each measuring for its share of
/// `--seconds`, and returns their samples.
fn measure_in_children(argv: &[String], args: &Args) -> Result<Vec<bench::Samples>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let child_args = child_argv(argv, args.seconds / PROCESSES as f64);
    (0..PROCESSES)
        .map(|k| {
            let out = std::process::Command::new(&exe)
                .args(&child_args)
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start measuring process {k}: {e}"))?;
            if !out.status.success() {
                return Err(format!("measuring process {k} failed: {}", out.status));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            let line = text.lines().last().unwrap_or_default();
            bench::Samples::from_json(line).map_err(|e| format!("measuring process {k}: {e}"))
        })
        .collect()
}

/// Keeps the full result (host fingerprint, sample summaries, the result
/// line) under the scratch directory.
fn write_record(args: &Args, report: &Report, line: &str) -> std::io::Result<()> {
    let host: Vec<String> = report
        .host
        .iter()
        .map(|(k, v)| format!("{k:?}:{v:?}"))
        .collect();
    let summaries: Vec<String> = report
        .summaries
        .iter()
        .map(|(name, s)| {
            format!(
                r#"{name:?}:{{"median":{},"tail_pct":{},"tail":{},"n":{}}}"#,
                s.median, s.tail_pct, s.tail, s.n
            )
        })
        .collect();
    std::fs::create_dir_all(&args.scratch)?;
    let path = args.scratch.join(format!(
        "result-{}-{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        path,
        format!(
            r#"{{"workload":"{}","seed":{},"seconds":{},"host":{{{}}},"summaries":{{{}}},"result":{line}}}"#,
            args.kind.name(),
            args.seed,
            args.seconds,
            host.join(","),
            summaries.join(",")
        ) + "\n",
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--catalogue") => {
            println!("{}", catalogue_json());
            return ExitCode::SUCCESS;
        }
        Some("--list") => {
            print!("{}", markdown());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        println!("{}", bench::measure_untraced(&args).to_json());
        return ExitCode::SUCCESS;
    }
    let mut report = if args.trace {
        bench::run_traced(&args)
    } else {
        match measure_in_children(&argv, &args) {
            Ok(parts) => bench::report_untraced(&parts),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let line = render(&args, &mut report);
    if let Err(e) = write_record(&args, &report, &line) {
        eprintln!("perfbench: result record not written: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a =
            parse_args(&argv("--workload churn --seed 7 --seconds 2 --trace 1")).expect("valid");
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::Churn, 7, 2.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload spec --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload spec --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload spec --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload spec --seed")).is_err());
    }

    #[test]
    fn children_get_a_share_of_the_time() {
        let parent = argv("--workload spec --seconds 10 --seed 3 --trace 0");
        let child = child_argv(&parent, 2.5);
        assert_eq!(
            child,
            argv("--workload spec --seconds 2.5 --seed 3 --trace 0 --child")
        );
        let a = parse_args(&child).expect("a child's arguments parse");
        assert!(a.child && a.seconds == 2.5);
    }

    #[test]
    fn readme_documents_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                readme.contains(&format!("`{}`", d.name)),
                "README lacks {}",
                d.name
            );
        }
        for k in Kind::ALL {
            assert!(
                readme.contains(&format!("`{}`", k.name())),
                "README lacks {}",
                k.name()
            );
        }
    }
}
