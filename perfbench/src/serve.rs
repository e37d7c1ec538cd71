//! The service phase's client side: an in-process [`Server`] and a
//! minimal HTTP/1.1 client that submits echo jobs and polls the job listing
//! until they are terminal, in a closed loop and in an open loop at a fixed
//! rate.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use giantsan_harness::campaign::{records_digest, Campaign};
use giantsan_harness::json::Json;
use giantsan_harness::serve::{ServeConfig, Server};
use giantsan_harness::{BatchRunner, StudyOpts, StudyRegistry};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::work::Job;

/// Uniform in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Server workers; the host has two cores and the client gets no more
/// connections than that either.
const WORKERS: usize = 2;
/// Client connections in the closed loop.
const CLIENTS: usize = 2;
/// Open-loop mean send rate, jobs per second. Well under the closed-loop
/// capacity on a 2-core host, so the queue does not grow.
const OPEN_LOOP_RATE: f64 = 40.0;
/// Longest closed-loop think time. The server's acceptor polls every
/// 10 ms when idle; a client that resubmits at once locks onto that cycle
/// and runs settle in one of two throughput modes. A seeded random think
/// time (and random open-loop arrivals) samples every phase instead.
const THINK_MAX: Duration = Duration::from_millis(10);
/// Latency limit on the open loop's tail percentile.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Poll interval while waiting for a job to finish.
const POLL: Duration = Duration::from_micros(500);
/// A job that has not finished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server with its own data directory.
pub struct Service {
    server: Option<Server>,
    addr: SocketAddr,
    dir: PathBuf,
}

impl Service {
    pub fn start(dir: PathBuf) -> std::io::Result<Service> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            queue_capacity: 1024,
            rate: 0,
            burst: 8,
            max_connections: 64,
            workers: WORKERS,
            threads_per_job: 1,
            cell_deadline: Duration::from_secs(10),
            default_job_deadline: Duration::from_secs(60),
        })?;
        Ok(Service {
            addr: server.addr(),
            server: Some(server),
            dir,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains the server, joins its threads and deletes its data.
    fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
            server.join();
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The digest the echo study produces for `job`, computed in-process and
/// serially: the oracle for served results.
pub fn inproc_digest(registry: &StudyRegistry, job: &Job) -> u64 {
    let study = registry.get("echo").expect("echo is a built-in study");
    let opts = StudyOpts {
        scale: 1,
        rounds: job.rounds,
        seed: job.seed,
        tool: job.tool,
        ..StudyOpts::default()
    };
    let campaign = Campaign::new(study, opts).expect("echo campaign spec is valid");
    records_digest(&campaign.run_all(&BatchRunner::serial()))
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// How one submitted job ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// When the submission was sent.
    pub sent: Instant,
    /// Completed with the in-process digest.
    pub ok: bool,
    /// POST round trip.
    pub submit: Duration,
    /// Submission sent → terminal state observed.
    pub job: Duration,
}

/// Submits `job`; returns the server-assigned id when it was admitted. The
/// outcome is not yet `ok`: the caller polls the job to a terminal state.
fn submit(addr: SocketAddr, job: &Job) -> (Option<String>, JobOutcome) {
    let sent = Instant::now();
    let reply = http(addr, "POST", "/v1/jobs", &job.body());
    let submit = sent.elapsed();
    let id = match reply {
        Ok((202, body)) => Json::parse(&body)
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string)),
        _ => None,
    };
    let outcome = JobOutcome {
        sent,
        ok: false,
        submit,
        job: submit,
    };
    (id, outcome)
}

/// One poll of every job (`GET /v1/jobs`): id → `Some(digest matches)`
/// for the terminal ones, `None` for the rest. The listing is scanned, not
/// parsed: every job object starts with its id and carries no nested
/// `state` or `digest` key, and the listing grows with every job of the run.
fn poll_all(addr: SocketAddr, expect: &HashMap<String, u64>) -> HashMap<String, Option<bool>> {
    let mut out = HashMap::new();
    let Ok((200, body)) = http(addr, "GET", "/v1/jobs", "") else {
        return out;
    };
    let field = |chunk: &str, key: &str| -> Option<String> {
        let at = chunk.find(key)? + key.len();
        let rest = chunk[at..]
            .trim_start_matches([' ', ':'])
            .strip_prefix('"')?;
        Some(rest[..rest.find('"')?].to_string())
    };
    for chunk in body.split("\"id\"").skip(1) {
        let Some(id) = field(chunk, "") else { continue };
        let Some(&want) = expect.get(&id) else {
            continue;
        };
        let state = field(chunk, "\"state\"");
        let verdict = match state.as_deref() {
            Some("queued" | "running") | None => None,
            Some("completed") => Some(
                field(chunk, "\"digest\"")
                    .and_then(|d| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
                    == Some(want),
            ),
            Some(_) => Some(false),
        };
        out.insert(id, verdict);
    }
    out
}

/// Polls until terminal or [`JOB_TIMEOUT`]; returns whether it completed
/// with the expected digest.
fn wait(addr: SocketAddr, id: &str, expect: u64, since: Instant) -> bool {
    let want = HashMap::from([(id.to_string(), expect)]);
    loop {
        if let Some(&Some(ok)) = poll_all(addr, &want).get(id) {
            return ok;
        }
        if since.elapsed() > JOB_TIMEOUT {
            return false;
        }
        std::thread::sleep(POLL);
    }
}

/// A closed loop's result.
#[derive(Debug)]
pub struct ClosedLoop {
    /// Job index, server-assigned id (when admitted), outcome.
    pub outcomes: Vec<(usize, Option<String>, JobOutcome)>,
    pub elapsed: Duration,
}

/// [`CLIENTS`] clients, each submitting its next job a random think time
/// after the previous one finished, cycling through `jobs`, for `duration`.
pub fn closed_loop(
    addr: SocketAddr,
    jobs: &[Job],
    expect: &[u64],
    duration: Duration,
    seed: u64,
) -> ClosedLoop {
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (next, outcomes) = (&next, &outcomes);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (c as u64 + 1));
                while start.elapsed() < duration {
                    std::thread::sleep(THINK_MAX.mul_f64(unit(&mut rng)));
                    let i = next.fetch_add(1, Ordering::Relaxed) % jobs.len();
                    let sent = Instant::now();
                    let (id, mut out) = submit(addr, &jobs[i]);
                    if let Some(id) = &id {
                        out.ok = wait(addr, id, expect[i], sent);
                        out.job = sent.elapsed();
                    }
                    outcomes
                        .lock()
                        .expect("no client panicked")
                        .push((i, id, out));
                }
            });
        }
    });
    ClosedLoop {
        outcomes: outcomes.into_inner().expect("no client panicked"),
        elapsed: start.elapsed(),
    }
}

/// One open-loop job: its outcome plus how late the generator sent it.
#[derive(Debug, Clone, Copy)]
pub struct OpenJob {
    pub outcome: JobOutcome,
    /// Scheduled send time → terminal state observed.
    pub latency: Duration,
    /// Scheduled send time → actual send.
    pub lag: Duration,
}

/// An open-loop job the poller is waiting on.
#[derive(Debug, Clone)]
struct InFlight {
    id: String,
    expect: u64,
    due: Instant,
    lag: Duration,
    outcome: JobOutcome,
}

/// Sends jobs on a seeded Poisson schedule of [`OPEN_LOOP_RATE`] per second
/// for `duration`, whatever the server's state; one thread sends, one
/// polls.
pub fn open_loop(
    addr: SocketAddr,
    jobs: &[Job],
    expect: &[u64],
    duration: Duration,
    seed: u64,
) -> Vec<OpenJob> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0;
    let mut schedule = Vec::new();
    while at < duration.as_secs_f64() {
        schedule.push(Duration::from_secs_f64(at));
        at -= (1.0 - unit(&mut rng)).ln() / OPEN_LOOP_RATE;
    }
    let n = schedule.len();
    let pending: Mutex<Vec<InFlight>> = Mutex::new(Vec::new());
    let done = Mutex::new(Vec::with_capacity(n));
    let sending = std::sync::atomic::AtomicBool::new(true);
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for (k, offset) in schedule.iter().enumerate() {
                let due = start + *offset;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let lag = due.elapsed();
                let i = k % jobs.len();
                match submit(addr, &jobs[i]) {
                    (Some(id), outcome) => pending.lock().expect("poller alive").push(InFlight {
                        id,
                        expect: expect[i],
                        due,
                        lag,
                        outcome,
                    }),
                    (None, out) => done.lock().expect("poller alive").push(OpenJob {
                        outcome: out,
                        latency: due.elapsed(),
                        lag,
                    }),
                }
            }
            sending.store(false, Ordering::SeqCst);
        });
        s.spawn(|| loop {
            let batch: Vec<_> = pending.lock().expect("sender alive").clone();
            if batch.is_empty() && !sending.load(Ordering::SeqCst) {
                break;
            }
            // One request per sweep however many jobs are in flight: every
            // request waits for a turn of the server's acceptor.
            let want: HashMap<String, u64> =
                batch.iter().map(|j| (j.id.clone(), j.expect)).collect();
            let states = if want.is_empty() {
                HashMap::new()
            } else {
                poll_all(addr, &want)
            };
            let mut finished = Vec::new();
            for mut j in batch {
                let seen = states.get(&j.id).copied().flatten();
                let timed_out = j.due.elapsed() > JOB_TIMEOUT;
                if let Some(ok) = seen.or_else(|| timed_out.then_some(false)) {
                    j.outcome.ok = ok;
                    j.outcome.job = j.due.elapsed();
                    done.lock().expect("sender alive").push(OpenJob {
                        outcome: j.outcome,
                        latency: j.due.elapsed(),
                        lag: j.lag,
                    });
                    finished.push(j.id);
                }
            }
            pending
                .lock()
                .expect("sender alive")
                .retain(|j| !finished.contains(&j.id));
            std::thread::sleep(POLL);
        });
    });
    done.into_inner().expect("client threads joined")
}
