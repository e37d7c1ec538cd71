//! The three workloads, generated from the seed, and the service phase's
//! jobs.
//!
//! Each workload is a set of clean programs every tool must run with the
//! native result and a pool of programs with one injected bug that GiantSan
//! and ASan must report. The seed fixes all of it; sizes are drawn
//! stratified, so the total work of a workload barely moves from seed to
//! seed and the seed picks *which* inputs, not *how much*. The seed also
//! fixes the echo jobs `spec`'s traced run submits to the service.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use giantsan_harness::Tool;
use giantsan_ir::{Expr, Program, ProgramBuilder};
use giantsan_workloads::fuzz::{buggy_program, InjectedBug};
use giantsan_workloads::spec_suite;

/// Which traffic a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Spec,
    Bulk,
    Churn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Spec, Kind::Bulk, Kind::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Spec => "spec",
            Kind::Bulk => "bulk",
            Kind::Churn => "churn",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Why the workload is in the benchmark (one line, for BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Kind::Spec => {
                "the 24 SPEC-like Table 2 rows: interpreter dispatch and cached or \
                 eliminated checks dominate, kernels and allocator do little"
            }
            Kind::Bulk => {
                "4 KiB-1 MiB buffers hit by memset/memcpy/strcpy, promoted loops and \
                 far anchored accesses: exercises shadow read kernels and region checks"
            }
            Kind::Churn => {
                "log-uniform 8 B-64 KiB alloc/free/realloc stream, live set above the \
                 quarantine: heap, quarantine and shadow poisoning writes dominate"
            }
        }
    }
}

/// The five tools of the paper's Table 2, in column order.
pub const TOOLS: [Tool; 5] = [
    Tool::Native,
    Tool::GiantSan,
    Tool::Asan,
    Tool::AsanMinusMinus,
    Tool::Lfp,
];

/// Injected bugs that both GiantSan and ASan must report. Far overflows are
/// left out: they land inside a live neighbour, where ASan is blind by
/// design.
const BOTH_DETECT: [InjectedBug; 4] = [
    InjectedBug::OverflowNear,
    InjectedBug::UnderflowNear,
    InjectedBug::UseAfterFree,
    InjectedBug::StackStrcpy,
];

/// Size of the buggy pool; each pass runs a few of them in turn.
const BUGGY_POOL: usize = 8;

/// One program with its inputs.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub program: Program,
    pub inputs: Vec<i64>,
}

/// One echo-study job the service client submits.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub seed: u64,
    pub rounds: u64,
    pub tool: Tool,
}

impl Job {
    /// The `POST /v1/jobs` body.
    pub fn body(&self) -> String {
        format!(
            r#"{{"study":"echo","params":{{"scale":1,"rounds":{},"seed":"{:#x}","tool":"{}"}},"shards":1}}"#,
            self.rounds,
            self.seed,
            self.tool.name()
        )
    }
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub clean: Vec<Case>,
    pub buggy: Vec<Case>,
}

/// Generates `kind`'s inputs from `seed`.
pub fn generate(kind: Kind, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let clean = match kind {
        Kind::Spec => spec_cases(),
        Kind::Bulk => bulk_cases(&mut rng),
        Kind::Churn => churn_cases(&mut rng),
    };
    let buggy = (0..BUGGY_POOL)
        .map(|i| {
            let bug = BOTH_DETECT[i % BOTH_DETECT.len()];
            let fp = buggy_program(rng.next_u64(), bug);
            Case {
                name: format!("buggy-{}-{i}", bug.name()),
                program: fp.program,
                inputs: fp.inputs,
            }
        })
        .collect();
    Workload { clean, buggy }
}

fn spec_cases() -> Vec<Case> {
    spec_suite(1)
        .into_iter()
        .map(|w| Case {
            name: w.id,
            program: w.program,
            inputs: w.inputs,
        })
        .collect()
}

/// `n` sizes, log-uniform in `[lo, hi)` bytes: one per equal-width stratum
/// of the log range, near its middle (seeded jitter of a tenth of the
/// stratum), in seeded order, rounded down to 8 bytes. The seed decides
/// which size goes where; the total barely moves, so run time does not
/// swing with the seed.
fn stratified_sizes(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<i64> {
    let (llo, lhi) = (lo.ln(), hi.ln());
    let mut sizes: Vec<i64> = (0..n)
        .map(|k| {
            let jitter = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let u = (k as f64 + 0.5 + 0.1 * jitter) / n as f64;
            let s = (llo + (lhi - llo) * u).exp() as i64;
            (s & !7).max(8)
        })
        .collect();
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.gen_range(0..=i));
    }
    sizes
}

const BULK_PROGRAMS: usize = 12;
const BULK_REPEATS: i64 = 2;
const BULK_FAR_ACCESSES: i64 = 768;
const BULK_STRIDE: i64 = 256;

/// `bulk`: large buffers, whole-buffer memory operations repeated in a loop
/// of unknown trip count, one strided bounded loop per buffer (promoted to
/// one region check by GiantSan), and a data-dependent stream of far-offset
/// accesses (anchored checks).
fn bulk_cases(rng: &mut StdRng) -> Vec<Case> {
    let sizes = stratified_sizes(rng, 3 * BULK_PROGRAMS, 4096.0, 1048576.0);
    sizes
        .chunks(3)
        .enumerate()
        .map(|(i, s)| {
            let mut b = ProgramBuilder::new(format!("bulk-{i}"));
            let bufs: Vec<_> = s.iter().map(|&n| (b.alloc_heap(n), n)).collect();
            let (d, sd) = bufs[2];
            // Every operation stays inside one buffer and scales with that
            // buffer's size alone, so a pass costs the same whichever sizes
            // the seed puts together: the first half is set and copied onto
            // the second, and a NUL-terminated string at the start is copied
            // to the middle.
            let reps = b.input(0);
            b.for_loop_opaque(0i64, reps, |b, _| {
                for &(p, n) in &bufs {
                    let half = n / 2;
                    let strlen = (n / 16).min(4096) - 1;
                    b.memset(p, 0i64, half, 0x5ai64);
                    b.memcpy(p, half, p, 0i64, half);
                    b.memset(p, 0i64, strlen, 65i64);
                    b.store(p, strlen, 1, 0i64);
                    b.strcpy(p, half, p, 0i64);
                }
            });
            for &(p, n) in &bufs {
                b.for_loop(0i64, n / BULK_STRIDE, |b, j| {
                    b.store(p, Expr::var(j) * BULK_STRIDE, 8, Expr::var(j));
                });
            }
            // Far-offset reads at offsets from the input tape: nothing is
            // known statically, so every one is a real (anchored) check.
            let n_far = b.input(1);
            b.for_loop_opaque(0i64, n_far, |b, j| {
                b.load_discard(d, Expr::input_at(Expr::var(j) + 2), 8);
            });
            for &(p, _) in &bufs {
                b.free(p);
            }
            let mut inputs = vec![BULK_REPEATS, BULK_FAR_ACCESSES];
            inputs.extend((0..BULK_FAR_ACCESSES).map(|_| rng.gen_range(sd / 16..sd / 8 - 1) * 8));
            Case {
                name: format!("bulk-{i}"),
                program: b.build(),
                inputs,
            }
        })
        .collect()
}

const CHURN_PROGRAMS: usize = 4;
const CHURN_SLOTS: usize = 256;
const CHURN_OPS: usize = 2048;

/// `churn`: a live set of `CHURN_SLOTS` objects (about 2 MiB, above the
/// 1 MiB quarantine) replaced one at a time by free + alloc or realloc,
/// each new object touched once.
fn churn_cases(rng: &mut StdRng) -> Vec<Case> {
    (0..CHURN_PROGRAMS)
        .map(|i| {
            let sizes = stratified_sizes(rng, CHURN_SLOTS + CHURN_OPS, 8.0, 65536.0);
            let mut sizes = sizes.into_iter();
            let mut next_size = || sizes.next().expect("one size per allocation");
            let mut b = ProgramBuilder::new(format!("churn-{i}"));
            let mut live: Vec<_> = (0..CHURN_SLOTS)
                .map(|_| {
                    let n = next_size();
                    let p = b.alloc_heap(n);
                    b.store(p, 0i64, 8, n);
                    (p, n)
                })
                .collect();
            for op in 0..CHURN_OPS {
                let slot = rng.gen_range(0..CHURN_SLOTS);
                let (p, _) = live[slot];
                let n = next_size();
                if rng.gen_range(0..4) == 0 {
                    b.realloc(p, n);
                    b.store(p, n - 8, 8, op as i64);
                    live[slot] = (p, n);
                } else {
                    b.free(p);
                    let q = b.alloc_heap(n);
                    b.store(q, n - 8, 8, op as i64);
                    live[slot] = (q, n);
                }
            }
            for (p, n) in live {
                b.load_discard(p, n - 8, 8);
                b.free(p);
            }
            Case {
                name: format!("churn-{i}"),
                program: b.build(),
                inputs: Vec::new(),
            }
        })
        .collect()
}

const SERVICE_JOBS: usize = 12;
const SERVICE_ROUNDS: u64 = 50;

/// The echo jobs the service client submits: seeded, tools cycling through
/// native, GiantSan and ASan.
pub fn service_jobs(seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e5e);
    let tools = [Tool::Native, Tool::GiantSan, Tool::Asan];
    (0..SERVICE_JOBS)
        .map(|i| Job {
            seed: rng.next_u64() >> 4,
            rounds: SERVICE_ROUNDS,
            tool: tools[i % tools.len()],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for kind in Kind::ALL {
            let a = generate(kind, 7);
            let b = generate(kind, 7);
            assert_eq!(a.clean.len(), b.clean.len());
            for (x, y) in a.clean.iter().zip(&b.clean) {
                assert_eq!(x.program, y.program);
                assert_eq!(x.inputs, y.inputs);
            }
            assert_eq!(a.buggy.len(), b.buggy.len());
        }
        assert_ne!(
            generate(Kind::Churn, 1).clean[0].program,
            generate(Kind::Churn, 2).clean[0].program
        );
        assert_eq!(service_jobs(5), service_jobs(5));
        assert_ne!(service_jobs(5), service_jobs(6));
    }

    #[test]
    fn stratified_sizes_cover_the_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = stratified_sizes(&mut rng, 64, 8.0, 65536.0);
        assert_eq!(s.len(), 64);
        assert!(s.iter().all(|&n| (8..65536).contains(&n) && n % 8 == 0));
        assert!(s.iter().any(|&n| n < 64) && s.iter().any(|&n| n > 32768));
        let mut again = StdRng::seed_from_u64(4);
        let t = stratified_sizes(&mut again, 64, 8.0, 65536.0);
        assert_ne!(s, t, "the seed moves sizes around");
    }

    #[test]
    fn job_bodies_name_the_echo_study() {
        let job = Job {
            seed: 0x2a,
            rounds: 3,
            tool: Tool::Asan,
        };
        assert_eq!(
            job.body(),
            r#"{"study":"echo","params":{"scale":1,"rounds":3,"seed":"0x2a","tool":"ASan"},"shards":1}"#
        );
    }
}
