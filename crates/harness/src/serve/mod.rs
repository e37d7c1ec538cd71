//! `repro serve`: the sanitizer-as-a-service HTTP front-end.
//!
//! A long-lived HTTP/1.1 server, hand-rolled over `std::net` +
//! `std::thread` (the repo vendors no async runtime or HTTP stack), that
//! accepts study submissions as JSON, schedules them onto the existing
//! campaign/batch machinery, and degrades gracefully under overload:
//!
//! * [`admission`] — per-client token-bucket rate limits and a bounded
//!   admission queue; past saturation requests are shed in O(1) with
//!   `429 + Retry-After` instead of queueing without bound.
//! * [`scheduler`] — a worker pool that drives each job shard-by-shard
//!   through the durable campaign checkpoint path, bounding runaway cells
//!   with the per-cell watchdog and parking in-flight jobs at shard
//!   boundaries when a drain begins.
//! * [`jobs`] — durable job state: every job directory is resumable, so a
//!   crash or SIGKILL loses at most the uncommitted shard.
//! * [`router`] — the URL space, including `/metrics` (Prometheus text),
//!   `/healthz`, `/readyz`, and JSONL event streams.
//! * [`signal`] — SIGTERM/SIGINT → graceful drain, no libc crate needed.
//!
//! The accept loop itself lives here: nonblocking accepts polled against
//! the shutdown flags, thread-per-connection handling capped by a
//! connection limit (excess connections get an immediate `503`), and a
//! drain sequence that keeps `/metrics` scrapeable while the workers park.

pub mod admission;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod router;
pub mod scheduler;
pub mod signal;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::serve::admission::BoundedQueue;
use crate::serve::http::{ParseError, Response};
use crate::serve::jobs::JobRegistry;
use crate::serve::metrics::ServiceMetrics;
use crate::serve::router::Router;
use crate::serve::scheduler::{Scheduler, SchedulerConfig, SchedulerShared};
use crate::study::StudyRegistry;

/// Everything `repro serve` can tune from the command line.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:7341` by default; port 0 for tests).
    pub addr: String,
    /// Durable state root (job descriptors + campaign checkpoints).
    pub data_dir: PathBuf,
    /// Admission queue capacity; beyond it submissions shed with 429.
    pub queue_capacity: usize,
    /// Per-client submissions/second (0 disables rate limiting).
    pub rate: u32,
    /// Per-client burst allowance.
    pub burst: u32,
    /// Concurrent handler connections; beyond it connections get 503.
    pub max_connections: usize,
    /// Job worker threads.
    pub workers: usize,
    /// `BatchRunner` threads per job.
    pub threads_per_job: usize,
    /// Per-cell watchdog budget.
    pub cell_deadline: Duration,
    /// Job deadline applied when a submission names none.
    pub default_job_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7341".to_string(),
            data_dir: PathBuf::from("serve-data"),
            queue_capacity: 64,
            rate: 0,
            burst: 8,
            max_connections: 128,
            workers: 2,
            threads_per_job: 2,
            cell_deadline: Duration::from_secs(10),
            default_job_deadline: Duration::from_secs(300),
        }
    }
}

/// The `repro serve` flag grammar, for the usage string.
pub const FLAG_USAGE: &str = "[--addr HOST:PORT] [--data-dir DIR] [--queue-cap N] \
     [--rate N/S] [--burst N] [--max-conns N] [--workers N] [--threads-per-job N] \
     [--cell-deadline-ms N] [--job-deadline-ms N]";

impl ServeConfig {
    /// Parses `repro serve` flags into a config. Unknown flags, missing
    /// values, and malformed numbers are usage errors.
    pub fn parse(args: &[String]) -> Result<ServeConfig, String> {
        let mut cfg = ServeConfig::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
            match flag.as_str() {
                "--addr" => cfg.addr = value("--addr")?,
                "--data-dir" => cfg.data_dir = PathBuf::from(value("--data-dir")?),
                "--queue-cap" => cfg.queue_capacity = parse_num(&value("--queue-cap")?)?,
                "--rate" => cfg.rate = parse_num(&value("--rate")?)?,
                "--burst" => cfg.burst = parse_num(&value("--burst")?)?,
                "--max-conns" => cfg.max_connections = parse_num(&value("--max-conns")?)?,
                "--workers" => cfg.workers = parse_num(&value("--workers")?)?,
                "--threads-per-job" => {
                    cfg.threads_per_job = parse_num(&value("--threads-per-job")?)?
                }
                "--cell-deadline-ms" => {
                    cfg.cell_deadline =
                        Duration::from_millis(parse_num(&value("--cell-deadline-ms")?)?)
                }
                "--job-deadline-ms" => {
                    cfg.default_job_deadline =
                        Duration::from_millis(parse_num(&value("--job-deadline-ms")?)?)
                }
                other => return Err(format!("unknown serve flag `{other}`")),
            }
        }
        if cfg.queue_capacity == 0 || cfg.workers == 0 || cfg.threads_per_job == 0 {
            return Err("--queue-cap/--workers/--threads-per-job must be >= 1".to_string());
        }
        Ok(cfg)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number `{s}`"))
}

/// The blocking entry point `repro serve` calls: install signal handlers,
/// start, print the bound address, and serve until SIGTERM/SIGINT or
/// `/admin/drain`, then drain gracefully.
pub fn run(config: ServeConfig) -> std::io::Result<()> {
    signal::install_handlers();
    let server = Server::start(config)?;
    println!("repro serve: listening on http://{}", server.addr());
    println!(
        "repro serve: data dir {}",
        server.shared().jobs.data_dir().display()
    );
    server.join();
    println!("repro serve: drained; durable jobs are resumable on restart");
    Ok(())
}

/// A running server instance.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<SchedulerShared>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    scheduler: Option<Scheduler>,
}

impl Server {
    /// Binds, recovers durable jobs, starts the workers and the accept
    /// loop, and returns without blocking ([`Server::join`] blocks).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(SchedulerShared {
            queue: BoundedQueue::new(config.queue_capacity),
            metrics: ServiceMetrics::default(),
            studies: StudyRegistry::builtin(),
            jobs: JobRegistry::open(&config.data_dir)?,
            draining: AtomicBool::new(false),
            config: SchedulerConfig {
                workers: config.workers,
                threads_per_job: config.threads_per_job,
                cell_deadline: config.cell_deadline,
                default_job_deadline: config.default_job_deadline,
            },
            flight: Arc::new(giantsan_telemetry::FlightRecorder::new(
                config.threads_per_job.max(1),
                giantsan_telemetry::DEFAULT_FLIGHT_CAPACITY,
            )),
            active_job: std::sync::Mutex::new(None),
        });
        // A watchdog-cancelled cell requests a flight dump before its panic
        // unwinds: the supervisor loop (join) writes the bundle, exactly as
        // if the operator had sent SIGUSR1 at the moment of the timeout.
        giantsan_ir::watchdog::set_timeout_hook(signal::request_dump);
        // Recovery: every job left queued or mid-run by the previous
        // process goes back onto the queue; its campaign directory already
        // holds the committed shards, so the re-run resumes, not restarts.
        for job in shared.jobs.recover(&shared.studies) {
            shared.metrics.jobs_resumed.fetch_add(1, Ordering::Relaxed);
            if shared.queue.push(Arc::clone(&job)).is_err() {
                // Stays `queued` on disk; the next restart retries it.
                eprintln!(
                    "repro serve: queue full during recovery; {} deferred to next restart",
                    job.id
                );
            }
        }
        let scheduler = Scheduler::start(Arc::clone(&shared));
        let router = Arc::new(Router::new(Arc::clone(&shared), config.rate, config.burst));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let max_connections = config.max_connections.max(1);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(listener, router, &stop, max_connections))
                .expect("spawn acceptor")
        };
        Ok(Server {
            addr,
            shared,
            stop,
            accept_thread: Some(accept_thread),
            scheduler: Some(scheduler),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared scheduler state (metrics, registries).
    pub fn shared(&self) -> &Arc<SchedulerShared> {
        &self.shared
    }

    /// Requests shutdown from code (tests; signals and `/admin/drain` are
    /// the production paths).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until shutdown is requested, then drains: stops admitting,
    /// closes the queue, waits for the workers to park or finish their
    /// jobs at a shard boundary, and finally stops the accept loop — in
    /// that order, so `/metrics` and `/readyz` stay scrapeable while the
    /// drain runs.
    pub fn join(mut self) {
        while !(self.stop.load(Ordering::SeqCst)
            || signal::shutdown_requested()
            || self.shared.draining.load(Ordering::SeqCst))
        {
            if signal::take_dump_request() {
                Self::dump_flight_now(&self.shared);
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        // One last chance: a dump requested during the final poll interval
        // (e.g. by a watchdog timeout racing the drain) still lands.
        if signal::take_dump_request() {
            Self::dump_flight_now(&self.shared);
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        if let Some(s) = self.scheduler.take() {
            s.join();
        }
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Dumps the flight recorder into the most recently started job's
    /// directory (the job most likely wedged), or the data dir when no job
    /// has started yet. Fired by SIGUSR1 and by the watchdog timeout hook.
    fn dump_flight_now(shared: &Arc<SchedulerShared>) {
        let target = shared
            .active_job
            .lock()
            .expect("active job poisoned")
            .clone();
        match target {
            Some(job) => {
                scheduler::dump_flight(&shared.flight, &job.dir, &job.id);
                eprintln!(
                    "repro serve: flight recorder dumped to {}",
                    job.dir.display()
                );
            }
            None => {
                scheduler::dump_flight(&shared.flight, shared.jobs.data_dir(), "serve");
                eprintln!(
                    "repro serve: flight recorder dumped to {}",
                    shared.jobs.data_dir().display()
                );
            }
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    router: Arc<Router>,
    stop: &Arc<AtomicBool>,
    max_connections: usize,
) {
    let active = Arc::new(AtomicUsize::new(0));
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, peer)) => {
                let _ = http::configure_stream(&stream);
                if active.load(Ordering::SeqCst) >= max_connections {
                    // Last-ditch shed: never queue connections we cannot
                    // serve promptly.
                    router.shared().metrics.count_response(503);
                    let _ = Response::error(503, "connection limit reached")
                        .header("Retry-After", 1)
                        .write_to(&mut stream);
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let router = Arc::clone(&router);
                let active_in = Arc::clone(&active);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        handle_connection(&router, stream, peer);
                        active_in.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    active.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                // Transient accept errors (EMFILE under load, aborted
                // connections) must not kill the acceptor.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn handle_connection(router: &Router, mut stream: TcpStream, peer: SocketAddr) {
    let started = std::time::Instant::now();
    let metrics = &router.shared().metrics;
    let response = match http::read_request(&mut stream) {
        Ok(req) => {
            let client = peer.ip().to_string();
            router.handle(&req, &client)
        }
        // The client connected and went away (or sent nothing): no
        // response to write, nothing to count.
        Err(ParseError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => return,
        Err(ParseError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Response::error(408, "timed out reading the request")
        }
        Err(ParseError::Io(_)) => return,
        Err(ParseError::Malformed(m)) => Response::error(400, m),
        Err(ParseError::TooLarge(m)) => Response::error(413, m),
    };
    metrics.count_response(response.status);
    metrics.observe_request(started);
    let _ = response.write_to(&mut stream);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::io::{Read, Write};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "giantsan-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        let status: u16 = out
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = out
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn end_to_end_submit_poll_report_drain() {
        let dir = tmpdir("e2e");
        let srv = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = srv.addr();
        let (st, _) = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(st, 200);
        let body = r#"{"study":"echo","params":{"scale":3,"rounds":1},"shards":3}"#;
        let (st, resp) = request(
            addr,
            &format!(
                "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert_eq!(st, 202, "{resp}");
        let id = Json::parse(&resp)
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        // Poll to completion.
        let t0 = std::time::Instant::now();
        loop {
            let (st, body) = request(
                addr,
                &format!("GET /v1/jobs/{id} HTTP/1.1\r\nHost: x\r\n\r\n"),
            );
            assert_eq!(st, 200);
            if body.contains("\"completed\"") {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "job never completed: {body}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
        let (st, report) = request(
            addr,
            &format!("GET /v1/jobs/{id}/report HTTP/1.1\r\nHost: x\r\n\r\n"),
        );
        assert_eq!(st, 200);
        assert!(report.contains("campaign digest"));
        let (st, metrics) = request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(st, 200);
        assert!(metrics.contains("giantsan_serve_jobs_completed_total 1"));
        assert!(metrics.contains("giantsan_serve_responses_5xx_total 0"));
        // Exemplar-style linkage: the completed job is addressable from the
        // exposition by id and root span.
        assert!(metrics.contains(&format!("giantsan_serve_last_job_info{{job_id=\"{id}\"")));
        assert!(metrics.contains("repro_build_info{"));
        // Drain via the admin endpoint: readyz flips, submissions bounce.
        let (st, _) = request(addr, "POST /admin/drain HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(st, 202);
        let (st, _) = request(addr, "GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(st, 503);
        srv.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn submit(addr: SocketAddr, client: &str, body: &str) -> (u16, String) {
        request(
            addr,
            &format!(
                "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nX-Client: {client}\r\nContent-Length: \
                 {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn overload_burst_is_shed_accounted_and_served_digests_stay_exact() {
        let dir = tmpdir("overload");
        let queue_capacity = 4;
        let srv = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            queue_capacity,
            workers: 2,
            threads_per_job: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = srv.addr();

        // One small job served end to end anchors the digest check.
        let (st, resp) = submit(
            addr,
            "anchor",
            r#"{"study":"echo","params":{"scale":4,"rounds":1,"seed":"0xbe9c"},"shards":1}"#,
        );
        assert_eq!(st, 202, "{resp}");
        let id = Json::parse(&resp)
            .unwrap()
            .get("id")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let t0 = std::time::Instant::now();
        let served = loop {
            let (_, body) = request(
                addr,
                &format!("GET /v1/jobs/{id} HTTP/1.1\r\nHost: x\r\n\r\n"),
            );
            let job = Json::parse(&body).unwrap();
            if job.get("state").and_then(Json::as_str) == Some("completed") {
                break job.get("digest").and_then(Json::as_hex).unwrap();
            }
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "anchor job stuck: {body}"
            );
            std::thread::sleep(Duration::from_millis(5));
        };

        // Past saturation: an open-loop burst of heavy jobs, several times the
        // queue capacity, from more clients than workers. Every submission is
        // either admitted or shed with 429; nothing else is acceptable.
        let (clients, per_client) = (4, 8);
        let heavy =
            r#"{"study":"echo","params":{"scale":64,"rounds":8,"seed":"0xbe9c"},"shards":16}"#;
        let (mut accepted, mut shed) = (0, 0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        (0..per_client)
                            .map(|_| submit(addr, &format!("burst-{c}"), heavy))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (st, body) in h.join().unwrap() {
                    match st {
                        202 => accepted += 1,
                        429 => shed += 1,
                        other => panic!("burst submission answered {other}: {body}"),
                    }
                }
            }
        });
        let offered = clients * per_client;
        assert!(offered > queue_capacity);
        assert_eq!(
            accepted + shed,
            offered,
            "every submission is accounted for"
        );
        assert!(shed > 0, "the burst must overflow the admission queue");
        let (_, metrics) = request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(
            metrics.contains("giantsan_serve_responses_5xx_total 0\n"),
            "{metrics}"
        );
        srv.stop();
        srv.join();
        let _ = std::fs::remove_dir_all(&dir);

        // The served digest equals the same study run serially in-process.
        let opts = crate::study::StudyOpts {
            scale: 4,
            rounds: 1,
            seed: 0xbe9c,
            ..crate::study::StudyOpts::default()
        };
        let registry = StudyRegistry::builtin();
        let records = crate::campaign::Campaign::new(registry.get("echo").unwrap(), opts)
            .unwrap()
            .run_all(&crate::batch::BatchRunner::serial());
        assert_eq!(served, crate::campaign::records_digest(&records));
    }

    #[test]
    fn malformed_requests_get_4xx_not_hangs() {
        let dir = tmpdir("malformed");
        let srv = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = srv.addr();
        let (st, _) = request(addr, "NONSENSE\r\n\r\n");
        assert_eq!(st, 400);
        let (st, _) = request(addr, "PUT /v1/jobs HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(st, 405);
        srv.stop();
        srv.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
