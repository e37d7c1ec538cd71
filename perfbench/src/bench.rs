//! One benchmark run: set-up, timed passes, oracle, and (with `--trace 1`)
//! the per-layer breakdown.
//!
//! A run with tracing off measures the end-to-end metrics through the path
//! users run, [`SessionSpec::run_planned`]. A traced run repeats the passes
//! twice: once the same way, as the baseline for the tracing overhead, and
//! once through the timing adapter, where every program run is a span tree
//! `pass → run → {session, plan, exec → calls}`. `spec`'s traced run ends
//! with the service phase, echo jobs over HTTP against an in-process server;
//! the phase does not depend on the workload, so it runs once, there.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use giantsan_harness::json::Json;
use giantsan_harness::{SessionSpec, StudyRegistry, Tool};
use giantsan_ir::{CheckPlan, ExecResult, SiteAction};
use giantsan_runtime::{Counters, Sanitizer};
use giantsan_shadow::kernel;
use giantsan_telemetry::TraceRecorder;

use crate::adapter::{CallStats, ClockCost, Delay, Method, Timed};
use crate::reference::{self, Reference};
use crate::serve::{self, Service};
use crate::stats::{geomean, median, ratio, summarize, Summary};
use crate::trace::Spans;
use crate::work::{generate, service_jobs, Kind, Workload, TOOLS};

/// Set-ups timed per measuring process; `setup_s` is the median of all.
/// They are spread over the process's measuring time, one before each
/// slice of passes, so they meet the same fast and slow stretches of the
/// host as the passes do.
const SETUP_REPEATS: usize = 25;
/// Passes run even when they overrun `--seconds`.
const MIN_PASSES: usize = 5;
/// Buggy programs run (under GiantSan and ASan) after each pass.
const BUGGY_PER_PASS: usize = 2;

const NATIVE: usize = 0;
const GIANTSAN: usize = 1;
const ASAN: usize = 2;
const ASAN_MM: usize = 3;
const LFP: usize = 4;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the server keeps its data and the trace is written.
    pub scratch: PathBuf,
    /// Run every tool through the adapter, with this delay in front of
    /// GiantSan's calls (the sensitivity check).
    pub delay: Option<Delay>,
    /// Measure and print raw samples for the parent process to pool.
    pub child: bool,
}

/// Counts every verified output and keeps the first failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub values: BTreeMap<&'static str, f64>,
    /// Sample summaries behind the timing values, for the human table.
    pub summaries: BTreeMap<&'static str, Summary>,
    /// The host fingerprint: (key, value).
    pub host: Vec<(&'static str, String)>,
    /// Extra lines for the human table (layer breakdown, trace file).
    pub notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets `name` to the median of `samples` scaled by `scale`.
    fn timing(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        let s = self.summary(name, samples, scale);
        self.values.insert(name, s.median);
    }

    /// Sets `name` to the upper quartile of `samples`. The gated pass and
    /// latency times use it: on a shared host, runs of speed-ups come and
    /// go (a pass then reads up to a quarter faster), and how many of them
    /// a run catches moves its median several times more than its upper
    /// quartile.
    fn upper(&mut self, name: &'static str, samples: &[f64]) {
        let s = self.summary(name, samples, 1.0);
        self.values.insert(name, s.upper_quartile);
    }

    fn summary(&mut self, name: &'static str, samples: &[f64], scale: f64) -> Summary {
        let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
        let s = summarize(&scaled);
        self.summaries.insert(name, s);
        s
    }
}

/// Everything set-up produces.
struct Prepared {
    work: Workload,
    specs: Vec<SessionSpec>,
    /// `[tool][case]`.
    plans: Vec<Vec<CheckPlan>>,
    /// `[case][GiantSan, ASan]`.
    buggy_plans: Vec<[CheckPlan; 2]>,
}

/// Time spent in each set-up step.
#[derive(Debug, Default, Clone)]
struct SetupTimes {
    total: f64,
    plan: [f64; 5],
}

fn prepare(args: &Args) -> (Prepared, SetupTimes) {
    let mut times = SetupTimes::default();
    let start = Instant::now();
    let work = generate(args.kind, args.seed);
    let specs: Vec<SessionSpec> = TOOLS.iter().map(|t| t.builder().spec()).collect();
    let mut plans = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let t = Instant::now();
        plans.push(work.clean.iter().map(|c| spec.plan(&c.program)).collect());
        times.plan[i] = t.elapsed().as_secs_f64();
    }
    let buggy_plans = work
        .buggy
        .iter()
        .map(|c| {
            [
                specs[GIANTSAN].plan(&c.program),
                specs[ASAN].plan(&c.program),
            ]
        })
        .collect();
    for spec in &specs {
        black_box(spec.session());
    }
    times.total = start.elapsed().as_secs_f64();
    (
        Prepared {
            work,
            specs,
            plans,
            buggy_plans,
        },
        times,
    )
}

/// One program run through the user-facing path, or through the adapter
/// when a delay is being injected.
fn run_case(
    p: &Prepared,
    tool: usize,
    case: usize,
    delay: Option<Delay>,
) -> (ExecResult, Duration) {
    let spec = &p.specs[tool];
    let c = &p.work.clean[case];
    let plan = &p.plans[tool][case];
    match delay {
        None => {
            let t = Instant::now();
            let out = spec.run_planned(&c.program, plan, &c.inputs);
            (out.result, t.elapsed())
        }
        Some(d) => {
            let t = Instant::now();
            let mut san = Timed::passthrough(spec.session(), (tool == GIANTSAN).then_some(d));
            let r = giantsan_ir::run(&c.program, &c.inputs, &mut san, plan, &spec.exec_config());
            (r, t.elapsed())
        }
    }
}

/// The clean-program oracle: the native digest, and no report.
fn verify_clean(
    tally: &mut Tally,
    p: &Prepared,
    tool: usize,
    case: usize,
    r: &ExecResult,
    native: u64,
) {
    tally.check(r.digest() == native && r.reports.is_empty(), || {
        format!(
            "{} on {}: digest {:#x} vs native {native:#x}, {} report(s)",
            TOOLS[tool].name(),
            p.work.clean[case].name,
            r.digest(),
            r.reports.len()
        )
    });
}

/// Samples from untraced passes.
#[derive(Debug, Default)]
struct Passes {
    /// `[tool]` → one pass time per pass.
    run_s: Vec<Vec<f64>>,
    /// `[tool][case]` → one run time per pass.
    per_case: Vec<Vec<Vec<f64>>>,
    /// Interpreter steps of one native pass.
    native_steps: u64,
    count: usize,
}

impl Passes {
    fn new(cases: usize) -> Passes {
        Passes {
            run_s: vec![Vec::new(); TOOLS.len()],
            per_case: vec![vec![Vec::new(); cases]; TOOLS.len()],
            ..Passes::default()
        }
    }
}

/// Runs every tool on every case once, natives first, and returns the
/// native digests every later run is checked against.
fn warm_up(p: &Prepared, tally: &mut Tally) -> Vec<u64> {
    let native: Vec<u64> = (0..p.work.clean.len())
        .map(|c| run_case(p, NATIVE, c, None).0.digest())
        .collect();
    for tool in 1..TOOLS.len() {
        for (c, &d) in native.iter().enumerate() {
            let (r, _) = run_case(p, tool, c, None);
            verify_clean(tally, p, tool, c, &r, d);
        }
    }
    native
}

fn shuffled(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// Adds untraced passes to `out` until `budget` is spent: at least one,
/// and at least [`MIN_PASSES`] in all.
fn passes(
    p: &Prepared,
    native: &[u64],
    rng: &mut StdRng,
    budget: Duration,
    delay: Option<Delay>,
    tally: &mut Tally,
    out: &mut Passes,
) {
    let cases = p.work.clean.len();
    let start = Instant::now();
    loop {
        for tool in shuffled(rng, TOOLS.len()) {
            let mut total = 0.0;
            let mut steps = 0;
            for case in shuffled(rng, cases) {
                let (r, dt) = run_case(p, tool, case, delay);
                let dt = dt.as_secs_f64();
                total += dt;
                steps += r.steps;
                out.per_case[tool][case].push(dt);
                verify_clean(tally, p, tool, case, &r, native[case]);
            }
            out.run_s[tool].push(total);
            if tool == NATIVE {
                out.native_steps = steps;
            }
        }
        buggy_round(p, out.count, tally);
        out.count += 1;
        if out.count >= MIN_PASSES && start.elapsed() >= budget {
            return;
        }
    }
}

/// A few injected-bug programs that GiantSan and ASan must both report.
fn buggy_round(p: &Prepared, pass: usize, tally: &mut Tally) {
    for k in 0..BUGGY_PER_PASS {
        let i = (pass * BUGGY_PER_PASS + k) % p.work.buggy.len();
        let c = &p.work.buggy[i];
        for (slot, tool) in [GIANTSAN, ASAN].into_iter().enumerate() {
            let r = p.specs[tool].run_planned(&c.program, &p.buggy_plans[i][slot], &c.inputs);
            tally.check(r.detected(), || {
                format!("{} missed the bug in {}", TOOLS[tool].name(), c.name)
            });
        }
    }
}

/// Sum over programs of each tool's heap high-water; runs are checked
/// against the native digests too.
fn high_water(p: &Prepared, native: &[u64], tally: &mut Tally) -> [f64; 5] {
    let mut sums = [0.0; 5];
    for (tool, spec) in p.specs.iter().enumerate() {
        for (case, c) in p.work.clean.iter().enumerate() {
            let mut san = spec.session();
            let r = giantsan_ir::run(
                &c.program,
                &c.inputs,
                &mut *san,
                &p.plans[tool][case],
                &spec.exec_config(),
            );
            verify_clean(tally, p, tool, case, &r, native[case]);
            sums[tool] += san.world().heap().high_water() as f64;
        }
    }
    sums
}

/// Serve phases: in-process oracle, closed loop, open loop.
#[derive(Debug, Default)]
struct Served {
    inproc_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    job_ms: Vec<f64>,
    jobs_per_s: f64,
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    slo_miss: u64,
    sent: u64,
}

/// The service phase of a traced run: an in-process server, the echo jobs'
/// digests computed in-process beforehand, a closed loop, an open loop.
fn serve_phases(args: &Args, budget: Duration, tally: &mut Tally, spans: &mut Spans) -> Served {
    let jobs = service_jobs(args.seed);
    let registry = StudyRegistry::builtin();
    let mut s = Served::default();
    // In-process oracle: every job's digest, computed serially beforehand.
    let mut expect = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    while expect.len() < jobs.len() || start.elapsed() < budget / 10 {
        let job = &jobs[s.inproc_ms.len() % jobs.len()];
        let t = Instant::now();
        let d = serve::inproc_digest(&registry, job);
        s.inproc_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if expect.len() < jobs.len() {
            expect.push(d);
        }
    }
    let dir = args.scratch.join(format!("serve-{}", std::process::id()));
    let service = Service::start(dir).expect("the server starts");
    let addr = service.addr();
    let closed = serve::closed_loop(addr, &jobs, &expect, budget * 3 / 10, args.seed);
    let mut completed = 0u64;
    for (i, id, out) in &closed.outcomes {
        completed += u64::from(out.ok);
        s.submit_ms.push(out.submit.as_secs_f64() * 1e3);
        s.job_ms.push(out.job.as_secs_f64() * 1e3);
        spans.job(id.as_deref().unwrap_or("refused"), out);
        tally.check(out.ok, || format!("closed-loop job {i} failed: {out:?}"));
    }
    s.jobs_per_s = completed as f64 / closed.elapsed.as_secs_f64();
    for j in serve::open_loop(addr, &jobs, &expect, budget * 6 / 10, args.seed) {
        s.sent += 1;
        let ms = j.latency.as_secs_f64() * 1e3;
        s.slo_miss += u64::from(!j.outcome.ok || ms > serve::LATENCY_LIMIT_MS);
        s.latency_ms.push(ms);
        s.lag_ms.push(j.lag.as_secs_f64() * 1e3);
        tally.check(j.outcome.ok, || format!("open-loop job failed: {j:?}"));
    }
    // Drains the server, joins its threads and deletes its data.
    drop(service);
    s
}

/// The host fingerprint every result carries.
fn fingerprint(spec: &SessionSpec) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc", nproc.to_string()),
        ("kernel_backend", kernel::active().name().to_string()),
        ("heap_backend", format!("{:?}", spec.config().heap_backend)),
        ("build_profile", profile.to_string()),
        (
            "commit",
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
        ),
    ]
}

/// What one measuring process of an untraced run collects.
#[derive(Debug, Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// Pass times under native, GiantSan and ASan.
    pub run_s: [Vec<f64>; 3],
    /// Times of the host-speed reference kernel, one per slice.
    pub reference_s: Vec<f64>,
    /// Heap high-water ratios of GiantSan and ASan over native.
    pub mem_ratio: [f64; 2],
    pub tally: Tally,
}

fn floats(xs: &[f64]) -> Json {
    Json::Array(xs.iter().map(|&x| Json::from(x)).collect())
}

impl Samples {
    /// One JSON line, for the process that pools them.
    pub fn to_json(&self) -> String {
        let runs: Vec<Json> = self.run_s.iter().map(|r| floats(r)).collect();
        let failures: Vec<Json> = self
            .tally
            .failures
            .iter()
            .map(|f| Json::from(f.as_str()))
            .collect();
        Json::obj()
            .field("setup_s", floats(&self.setup_s))
            .field("run_s", Json::Array(runs))
            .field("reference_s", floats(&self.reference_s))
            .field("mem_ratio", floats(&self.mem_ratio))
            .field("attempted", self.tally.attempted)
            .field("failed", self.tally.failed)
            .field("failures", Json::Array(failures))
            .render_compact()
    }

    pub fn from_json(text: &str) -> Result<Samples, String> {
        let doc = Json::parse(text)?;
        let list = |j: Option<&Json>| -> Result<Vec<f64>, String> {
            j.and_then(Json::as_array)
                .ok_or("missing array")?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| "not a number".to_string()))
                .collect()
        };
        let runs = doc
            .get("run_s")
            .and_then(Json::as_array)
            .ok_or("missing run_s")?;
        if runs.len() != 3 {
            return Err("run_s needs three tools".to_string());
        }
        let mem = list(doc.get("mem_ratio"))?;
        if mem.len() != 2 {
            return Err("mem_ratio needs two tools".to_string());
        }
        let count = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("missing {k}"))
        };
        Ok(Samples {
            setup_s: list(doc.get("setup_s"))?,
            run_s: [list(runs.first())?, list(runs.get(1))?, list(runs.get(2))?],
            reference_s: list(doc.get("reference_s"))?,
            mem_ratio: [mem[0], mem[1]],
            tally: Tally {
                attempted: count("attempted")?,
                failed: count("failed")?,
                failures: doc
                    .get("failures")
                    .and_then(Json::as_array)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|f| f.as_str().map(str::to_string))
                    .collect(),
            },
        })
    }
}

/// One measuring process of the end-to-end run (`--trace 0`).
pub fn measure_untraced(args: &Args) -> Samples {
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut out = Samples::default();
    let (p, times) = prepare(args);
    out.setup_s.push(times.total);
    let native = warm_up(&p, &mut out.tally);
    let mut ps = Passes::new(p.work.clean.len());
    let mut reference = Reference::default();
    let slice = Duration::from_secs_f64(args.seconds / SETUP_REPEATS as f64);
    for k in 0..SETUP_REPEATS {
        out.reference_s.push(reference.time());
        if k > 0 {
            out.setup_s.push(prepare(args).1.total);
        }
        passes(
            &p,
            &native,
            &mut rng,
            slice,
            args.delay,
            &mut out.tally,
            &mut ps,
        );
    }
    for (i, tool) in [NATIVE, GIANTSAN, ASAN].into_iter().enumerate() {
        out.run_s[i] = std::mem::take(&mut ps.run_s[tool]);
    }
    let hw = high_water(&p, &native, &mut out.tally);
    out.mem_ratio = [hw[GIANTSAN] / hw[NATIVE], hw[ASAN] / hw[NATIVE]];
    out
}

/// The end-to-end report from the samples of every measuring process:
/// each process's times are scaled to the reference host by its own
/// reference kernel times, then pooled; the memory ratios, deterministic
/// for a seed, must agree.
pub fn report_untraced(parts: &[Samples]) -> Report {
    let mut report = Report {
        host: fingerprint(&Tool::GiantSan.builder().spec()),
        ..Report::default()
    };
    let scales: Vec<f64> = parts
        .iter()
        .map(|s| reference::scale(&s.reference_s))
        .collect();
    let pool = |f: &dyn Fn(&Samples) -> &[f64]| -> Vec<f64> {
        parts
            .iter()
            .zip(&scales)
            .flat_map(|(s, k)| f(s).iter().map(move |x| x * k))
            .collect()
    };
    report.timing("setup_s", &pool(&|s| &s.setup_s), 1.0);
    report.upper("run_s.native", &pool(&|s| &s.run_s[0]));
    report.upper("run_s.giantsan", &pool(&|s| &s.run_s[1]));
    report.upper("run_s.asan", &pool(&|s| &s.run_s[2]));
    for s in parts {
        report.tally.attempted += s.tally.attempted;
        report.tally.failed += s.tally.failed;
        report
            .tally
            .failures
            .extend(s.tally.failures.iter().cloned());
    }
    let first = parts.first().map_or([0.0; 2], |s| s.mem_ratio);
    for s in parts {
        report.tally.check(s.mem_ratio == first, || {
            format!(
                "memory ratios differ between processes: {:?} vs {first:?}",
                s.mem_ratio
            )
        });
    }
    report.set("mem_ratio.giantsan", first[0]);
    report.set("mem_ratio.asan", first[1]);
    report.notes.push(format!(
        "{} measuring process(es), samples pooled",
        parts.len()
    ));
    let shown: Vec<String> = scales.iter().map(|k| format!("{k:.3}")).collect();
    report.notes.push(format!(
        "times scaled to the reference host by [{}] (reference kernel {:.3} ms there)",
        shown.join(", "),
        reference::NOMINAL_S * 1e3
    ));
    report
}

/// Per-tool totals of one traced pass.
#[derive(Debug, Default, Clone)]
struct TracedPass {
    wall: f64,
    session: [f64; 5],
    plan: [f64; 5],
    exec: [f64; 5],
    calls: [CallStats; 5],
    counters: [Counters; 5],
    high_water: [f64; 5],
}

fn traced_pass(
    p: &Prepared,
    native: &[u64],
    rng: &mut StdRng,
    spans: &mut Spans,
    sizes: &mut Vec<u64>,
    tally: &mut Tally,
) -> TracedPass {
    let mut tp = TracedPass::default();
    let pass = spans.open("pass", spans.root());
    let start = Instant::now();
    for tool in shuffled(rng, TOOLS.len()) {
        let spec = &p.specs[tool];
        for case in shuffled(rng, p.work.clean.len()) {
            let c = &p.work.clean[case];
            let run = spans.open(format!("run {} {}", c.name, TOOLS[tool].name()), pass);
            let t = Instant::now();
            let session = spec.session();
            tp.session[tool] += spans.child("session", run, t).1;
            let t = Instant::now();
            let plan = spec.plan(&c.program);
            tp.plan[tool] += spans.child("plan", run, t).1;
            let t = Instant::now();
            let mut san = Timed::timing(session);
            let r = giantsan_ir::run(&c.program, &c.inputs, &mut san, &plan, &spec.exec_config());
            let (exec, secs) = spans.child("exec", run, t);
            tp.exec[tool] += secs;
            spans.calls(exec, san.stats());
            spans.close(run);
            verify_clean(tally, p, tool, case, &r, native[case]);
            tp.calls[tool].add(san.stats());
            tp.counters[tool].merge(san.counters());
            tp.high_water[tool] += san.world().heap().high_water() as f64;
            if tool == GIANTSAN && sizes.len() < 4096 {
                sizes.extend_from_slice(san.sizes());
            }
        }
    }
    tp.wall = start.elapsed().as_secs_f64();
    spans.close(pass);
    tp
}

/// Layer self times of one traced pass, in seconds, clock cost removed.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    analysis: f64,
    runtime: f64,
    core: f64,
    baselines: f64,
    ir: f64,
    ir_tool: [f64; 5],
    check_tool: [f64; 5],
    clock: f64,
}

impl Layers {
    fn sum(&self) -> f64 {
        self.analysis + self.runtime + self.core + self.baselines + self.ir
    }
}

fn layers(tp: &TracedPass, clock: &ClockCost) -> Layers {
    let mut l = Layers::default();
    for tool in 0..TOOLS.len() {
        let st = &tp.calls[tool];
        let corrected = |f: &dyn Fn(Method) -> bool| {
            (st.nanos_where(f) as f64 - st.calls_where(f) as f64 * clock.inside_ns) * 1e-9
        };
        let checks = corrected(&Method::is_check);
        let runtime = corrected(&|m: Method| !m.is_check());
        let calls = st.total_calls() as f64;
        let ir = tp.exec[tool]
            - st.nanos_where(|_| true) as f64 * 1e-9
            - calls * clock.outside_ns * 1e-9;
        l.analysis += tp.plan[tool];
        l.runtime += tp.session[tool] + runtime;
        if tool == GIANTSAN {
            l.core += checks;
        } else {
            l.baselines += checks;
        }
        l.ir += ir;
        l.ir_tool[tool] = ir;
        l.check_tool[tool] = checks;
        l.clock += calls * clock.per_call_ns() * 1e-9;
    }
    l
}

/// Mean time of one call of the `f` methods, clock cost removed.
fn ns_per_call(st: &CallStats, clock: &ClockCost, f: impl Fn(Method) -> bool + Copy) -> f64 {
    let calls = st.calls_where(f) as f64;
    ratio(st.nanos_where(f) as f64 - calls * clock.inside_ns, calls)
}

/// `first_ne` and fill/write_folded_run throughput over the shadow of
/// `sizes` bytes each, in ns per KiB of shadow.
fn kernels(sizes: &[u64], budget: Duration) -> (f64, f64) {
    let k = kernel::active();
    let lens: Vec<usize> = sizes
        .iter()
        .take(256)
        .map(|&s| (s as usize).div_ceil(8).max(1))
        .collect();
    let max = lens.iter().copied().max().unwrap_or(1);
    let mut buf = vec![0u8; max];
    let bytes: usize = lens.iter().sum();
    let kib = bytes as f64 / 1024.0;
    let (mut scan, mut fill) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while scan.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for &n in &lens {
            black_box(k.first_ne(black_box(&buf[..n]), 0));
        }
        scan.push(t.elapsed().as_nanos() as f64 / kib);
        let t = Instant::now();
        for &n in &lens {
            k.fill(black_box(&mut buf[..n]), 0xfa);
            k.write_folded_run(black_box(&mut buf[..n]));
        }
        fill.push(t.elapsed().as_nanos() as f64 / (2.0 * kib));
        buf.fill(0);
    }
    (median(&scan), median(&fill))
}

/// `run_planned` under GiantSan with a `TraceRecorder` against the no-op
/// recorder, interleaved per program. Digests must agree.
fn telemetry_overhead(p: &Prepared, budget: Duration, tally: &mut Tally) -> f64 {
    let spec = &p.specs[GIANTSAN];
    let (mut noop, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while noop.len() < 3 || start.elapsed() < budget {
        let (mut a, mut b) = (0.0, 0.0);
        for (case, c) in p.work.clean.iter().enumerate() {
            let plan = &p.plans[GIANTSAN][case];
            let t = Instant::now();
            let plain = spec.run_planned(&c.program, plan, &c.inputs);
            a += t.elapsed().as_secs_f64();
            let mut rec = TraceRecorder::for_cell(0);
            let t = Instant::now();
            let rec_out = spec.run_planned_recorded(&c.program, plan, &c.inputs, &mut rec);
            b += t.elapsed().as_secs_f64();
            tally.check(
                plain.result.digest() == rec_out.result.digest()
                    && plain.counters == rec_out.counters,
                || format!("tracing changed the result of {}", c.name),
            );
        }
        noop.push(a);
        traced.push(b);
    }
    (median(&traced) / median(&noop) - 1.0) * 100.0
}

fn sites_optimised_share(plans: &[CheckPlan]) -> f64 {
    let (mut opt, mut all) = (0usize, 0usize);
    for plan in plans {
        for a in &plan.sites {
            all += 1;
            opt += usize::from(!matches!(a, SiteAction::Direct | SiteAction::Anchored));
        }
    }
    ratio(opt as f64, all as f64)
}

/// The per-layer run (`--trace 1`).
pub fn run_traced(args: &Args) -> Report {
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let (p, times) = prepare(args);
    report.host = fingerprint(&p.specs[GIANTSAN]);
    let mut tally = Tally::default();
    let mut spans = Spans::default();
    let clock = ClockCost::calibrate();
    report.set("bench.clock_ns", clock.per_call_ns());
    report.set("analysis.plan_ms.giantsan", times.plan[GIANTSAN] * 1e3);
    report.set("analysis.plan_ms.asan", times.plan[ASAN] * 1e3);
    report.set(
        "analysis.sites_optimised_share.giantsan",
        sites_optimised_share(&p.plans[GIANTSAN]),
    );
    let session_us: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            black_box(p.specs[GIANTSAN].session());
            t.elapsed().as_secs_f64()
        })
        .collect();
    report.timing("runtime.session_us", &session_us, 1e6);

    let native = warm_up(&p, &mut tally);
    // Shares of --seconds: untraced passes, traced passes, telemetry,
    // kernels, service (spec only).
    let share = |f: f64| budget.mul_f64(f);

    // Untraced passes: the baseline for the tracing overhead, and the
    // per-program medians of the Table 2 study.
    let mut ps = Passes::new(p.work.clean.len());
    passes(&p, &native, &mut rng, share(0.2), None, &mut tally, &mut ps);
    let native_pass = median(&ps.run_s[NATIVE]);
    report.set(
        "ir.ns_per_step.native",
        ratio(native_pass * 1e9, ps.native_steps as f64),
    );
    report.set("ir.steps", ps.native_steps as f64);
    let case_medians =
        |tool: usize| -> Vec<f64> { ps.per_case[tool].iter().map(|s| median(s)).collect() };
    let base = case_medians(NATIVE);
    let study = |tool: usize| -> f64 {
        let r: Vec<f64> = case_medians(tool)
            .iter()
            .zip(&base)
            .map(|(t, n)| t / n)
            .collect();
        geomean(&r) * 100.0
    };
    report.set("study.overhead_pct.giantsan", study(GIANTSAN));
    report.set("study.overhead_pct.asan", study(ASAN));
    report.set("study.overhead_pct.asan_mm", study(ASAN_MM));
    report.set("study.overhead_pct.lfp", study(LFP));
    let (g, a) = (case_medians(GIANTSAN), case_medians(ASAN));
    let beats = g.iter().zip(&a).filter(|(g, a)| g < a).count();
    report.set(
        "study.giantsan_beats_asan_share",
        ratio(beats as f64, g.len() as f64),
    );
    let untraced_pass: f64 = (0..TOOLS.len()).map(|t| median(&ps.run_s[t])).sum();

    // Traced passes.
    let mut sizes = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while traced.len() < MIN_PASSES || start.elapsed() < share(0.3) {
        traced.push(traced_pass(
            &p, &native, &mut rng, &mut spans, &mut sizes, &mut tally,
        ));
    }
    let ls: Vec<Layers> = traced.iter().map(|tp| layers(tp, &clock)).collect();
    let per_pass = |f: &dyn Fn(&TracedPass, &Layers) -> f64| -> f64 {
        let v: Vec<f64> = traced.iter().zip(&ls).map(|(tp, l)| f(tp, l)).collect();
        median(&v)
    };
    report.set("analysis.self_s", per_pass(&|_, l| l.analysis));
    report.set("runtime.self_s", per_pass(&|_, l| l.runtime));
    report.set("core.check_s", per_pass(&|_, l| l.core));
    report.set("baselines.self_s", per_pass(&|_, l| l.baselines));
    report.set(
        "baselines.check_s.asan",
        per_pass(&|_, l| l.check_tool[ASAN]),
    );
    report.set("ir.self_s", per_pass(&|_, l| l.ir));
    report.set("ir.self_s.giantsan", per_pass(&|_, l| l.ir_tool[GIANTSAN]));
    report.set("ir.self_s.asan", per_pass(&|_, l| l.ir_tool[ASAN]));
    let pass_s = per_pass(&|tp, _| tp.wall);
    report.set("bench.pass_s", pass_s);
    report.set("bench.layer_sum_s", per_pass(&|_, l| l.sum()));
    report.set(
        "bench.unattributed_share",
        per_pass(&|tp, l| (tp.wall - l.sum() - l.clock) / tp.wall),
    );
    let traced_exec = per_pass(&|tp, _| tp.session.iter().chain(&tp.exec).sum());
    report.set(
        "bench.trace_overhead_pct",
        (traced_exec / untraced_pass - 1.0) * 100.0,
    );

    let last = traced.last().expect("at least one traced pass");
    let (gs, asan) = (&last.calls[GIANTSAN], &last.calls[ASAN]);
    let gc = gs.calls_where(Method::is_check) as f64;
    let ac = asan.calls_where(Method::is_check) as f64;
    report.set("core.check_calls", gc);
    report.set(
        "core.ns_per_check",
        ns_per_call(gs, &clock, Method::is_check),
    );
    report.set(
        "baselines.ns_per_check.asan",
        ns_per_call(asan, &clock, Method::is_check),
    );
    let (cg, ca) = (&last.counters[GIANTSAN], &last.counters[ASAN]);
    report.set(
        "core.slow_share",
        ratio(
            cg.slow_checks as f64,
            (cg.fast_checks + cg.slow_checks) as f64,
        ),
    );
    report.set(
        "core.cache_hit_ratio",
        ratio(
            cg.cache_hits as f64,
            (cg.cache_hits + cg.cache_updates) as f64,
        ),
    );
    report.set(
        "shadow.loads_per_check.giantsan",
        ratio(cg.shadow_loads as f64, gc),
    );
    report.set(
        "shadow.loads_per_check.asan",
        ratio(ca.shadow_loads as f64, ac),
    );
    report.set(
        "shadow.stores_per_alloc.giantsan",
        ratio(cg.shadow_stores as f64, cg.allocs as f64),
    );
    report.set(
        "shadow.stores_per_alloc.asan",
        ratio(ca.shadow_stores as f64, ca.allocs as f64),
    );
    let is_alloc = |m: Method| matches!(m, Method::Alloc | Method::Realloc);
    let is_free = |m: Method| m == Method::Free;
    report.set(
        "runtime.alloc_ns.giantsan",
        ns_per_call(gs, &clock, is_alloc),
    );
    report.set("runtime.alloc_ns.asan", ns_per_call(asan, &clock, is_alloc));
    report.set("runtime.free_ns.giantsan", ns_per_call(gs, &clock, is_free));
    report.set("runtime.free_ns.asan", ns_per_call(asan, &clock, is_free));
    report.set(
        "runtime.heap_high_water_bytes.native",
        last.high_water[NATIVE],
    );
    report.set(
        "runtime.heap_high_water_bytes.giantsan",
        last.high_water[GIANTSAN],
    );
    report.set("runtime.heap_high_water_bytes.asan", last.high_water[ASAN]);

    report.set(
        "telemetry.trace_overhead_pct",
        telemetry_overhead(&p, share(0.1), &mut tally),
    );
    let (scan, fill) = kernels(&sizes, share(0.05));
    report.set("shadow.first_ne_ns_per_kib", scan);
    report.set("shadow.fill_ns_per_kib", fill);

    let s = if args.kind == Kind::Spec {
        serve_phases(args, share(0.35), &mut tally, &mut spans)
    } else {
        Served::default()
    };
    report.set("harness.jobs_per_s", s.jobs_per_s);
    report.timing("harness.job_latency_ms", &s.latency_ms, 1.0);
    report.set("harness.job_latency_tail_ms", summarize(&s.latency_ms).tail);
    report.set(
        "harness.slo_miss_share",
        ratio(s.slo_miss as f64, s.sent as f64),
    );
    report.timing("harness.submit_ms", &s.submit_ms, 1.0);
    report.timing("harness.job_ms", &s.job_ms, 1.0);
    report.timing("harness.inproc_job_ms", &s.inproc_ms, 1.0);
    report.set(
        "harness.service_overhead_ms",
        median(&s.job_ms) - median(&s.inproc_ms),
    );
    report.timing("bench.gen_lag_ms", &s.lag_ms, 1.0);

    let l = ls.last().expect("at least one traced pass");
    let t = traced.last().expect("at least one traced pass");
    report.notes.push(format!(
        "layers (last traced pass, s): analysis {:.4} runtime {:.4} core {:.4} baselines {:.4} \
         ir {:.4} | sum {:.4} + clock {:.4} + unattributed {:.4} = pass {:.4}",
        l.analysis,
        l.runtime,
        l.core,
        l.baselines,
        l.ir,
        l.sum(),
        l.clock,
        t.wall - l.sum() - l.clock,
        t.wall
    ));
    report.notes.push(format!(
        "clock: {:.1} ns inside + {:.1} ns outside per timed call",
        clock.inside_ns, clock.outside_ns
    ));
    let path = args
        .scratch
        .join(format!("trace-{}-{}.jsonl", args.kind.name(), args.seed));
    match spans.write(&path) {
        Ok(n) => report
            .notes
            .push(format!("trace: {n} spans written to {}", path.display())),
        Err(e) => report.notes.push(format!("trace: not written: {e}")),
    }
    report.tally = tally;
    report
}

/// Summary of a sample set for the human table.
pub fn describe(s: &Summary) -> String {
    format!(
        "median {:.6} p75 {:.6} p{} {:.6} n={}",
        s.median, s.upper_quartile, s.tail_pct, s.tail, s.n
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With the timing adapter on (and with it passing calls through, as
    /// the sensitivity check runs it), every program of every workload
    /// yields the same digest and the same counters as the user-facing
    /// `run_planned` path.
    #[test]
    fn adapter_is_transparent() {
        for kind in Kind::ALL {
            let work = generate(kind, 11);
            for tool in TOOLS {
                let spec = tool.builder().spec();
                for c in work.clean.iter().chain(&work.buggy) {
                    let plan = spec.plan(&c.program);
                    let plain = spec.run_planned(&c.program, &plan, &c.inputs);
                    let exec = spec.exec_config();
                    let mut timed = Timed::timing(spec.session());
                    let r = giantsan_ir::run(&c.program, &c.inputs, &mut timed, &plan, &exec);
                    let mut pass = Timed::passthrough(spec.session(), None);
                    let q = giantsan_ir::run(&c.program, &c.inputs, &mut pass, &plan, &exec);
                    let what = format!("{} {} {}", kind.name(), tool.name(), c.name);
                    assert_eq!(r.digest(), plain.result.digest(), "{what}");
                    assert_eq!(*timed.counters(), plain.counters, "{what}");
                    assert_eq!(q.digest(), plain.result.digest(), "{what}");
                    assert_eq!(*pass.counters(), plain.counters, "{what}");
                }
            }
        }
    }

    #[test]
    fn samples_survive_the_process_boundary() {
        let s = Samples {
            setup_s: vec![0.5, 0.25],
            run_s: [vec![1.0], vec![2.0, 3.5], vec![]],
            reference_s: vec![0.003, 0.004],
            mem_ratio: [1.5, 1.25],
            tally: Tally {
                attempted: 7,
                failed: 1,
                failures: vec!["x \"quoted\"".to_string()],
            },
        };
        let t = Samples::from_json(&s.to_json()).expect("round trip");
        assert_eq!(
            (t.setup_s, t.run_s, t.reference_s, t.mem_ratio),
            (s.setup_s, s.run_s, s.reference_s, s.mem_ratio)
        );
        assert_eq!(
            (t.tally.attempted, t.tally.failed, t.tally.failures),
            (7, 1, s.tally.failures)
        );
        assert!(Samples::from_json("{}").is_err());
    }

    #[test]
    fn each_process_is_scaled_by_its_own_reference_times() {
        // The second process ran on a host half as fast: every time it took,
        // the reference kernel's too, is doubled.
        let part = |slow: f64| Samples {
            setup_s: vec![slow * 1e-3],
            run_s: [vec![slow * 0.01], vec![slow * 0.02], vec![slow * 0.03]],
            reference_s: vec![slow * reference::NOMINAL_S * 1.25],
            mem_ratio: [1.5, 1.25],
            tally: Tally::default(),
        };
        let r = report_untraced(&[part(1.0), part(2.0)]);
        let close = |name: &str, want: f64| {
            let got = r.values[name];
            assert!((got - want).abs() < 1e-12, "{name}: {got} vs {want}");
        };
        close("setup_s", 0.8e-3);
        close("run_s.native", 0.008);
        close("run_s.giantsan", 0.016);
        close("run_s.asan", 0.024);
        close("mem_ratio.giantsan", 1.5);
        assert_eq!(r.tally.failed, 0);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "bad".to_string());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.failures, vec!["bad".to_string()]);
    }

    #[test]
    fn layers_add_up_to_the_pass() {
        let mut tp = TracedPass {
            wall: 1.0,
            ..TracedPass::default()
        };
        tp.plan[NATIVE] = 0.1;
        tp.session[GIANTSAN] = 0.2;
        tp.exec[GIANTSAN] = 0.5;
        tp.calls[GIANTSAN].calls[Method::CheckAccess as usize] = 1000;
        tp.calls[GIANTSAN].nanos[Method::CheckAccess as usize] = 100_000_000;
        let clock = ClockCost {
            inside_ns: 10.0,
            outside_ns: 20.0,
        };
        let l = layers(&tp, &clock);
        assert!((l.core - (0.1 - 1000.0 * 10e-9)).abs() < 1e-12);
        assert!((l.ir - (0.5 - 0.1 - 1000.0 * 20e-9)).abs() < 1e-12);
        assert!((l.clock - 1000.0 * 30e-9).abs() < 1e-12);
        // exec = ir + checks + clock, so the pass is fully covered.
        assert!((l.sum() + l.clock - 0.8).abs() < 1e-12);
    }
}
