//! The parallel batch-execution engine.
//!
//! Every experiment in this harness is a *cell matrix*: a list of
//! independent (tool × workload × size × seed) runs whose results are folded
//! into one table. [`BatchRunner`] executes such a matrix across a scoped
//! worker pool with dynamic scheduling — workers steal the next unclaimed
//! cell from a shared atomic cursor, so a straggler cell never idles the
//! rest of the pool — and reassembles results **by cell index**, which makes
//! the merged output independent of thread count and completion order.
//!
//! Determinism contract: for a pure `job`, `runner.map(items, job)` returns
//! byte-for-byte the same `Vec` for every thread count, including 1. The
//! differential test `tests/determinism.rs` and the CI smoke job enforce
//! this end-to-end on the experiment CSVs.
//!
//! Fault tolerance: each cell runs inside `catch_unwind`, so a panicking
//! cell is *isolated* — it is retried up to [`BatchRunner::MAX_ATTEMPTS`]
//! times with a bounded deterministic backoff, then quarantined as a
//! [`CellFailure`] while every other cell completes normally.
//! [`BatchRunner::try_map`] reports partial results plus a
//! [`FailureSummary`]; [`BatchRunner::map`] keeps the infallible signature
//! by panicking with the summary *after* the whole matrix has drained.
//!
//! # Example
//!
//! ```
//! use giantsan_harness::BatchRunner;
//! let runner = BatchRunner::new(4);
//! let squares = runner.map(&[1u64, 2, 3, 4, 5], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::fmt;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use giantsan_telemetry::{span_id, FlightEventKind, FlightRecorder, SpanKind};

/// Flight-recorder attachment (see [`BatchRunner::with_flight`]): the shared
/// recorder, the causal span the batch's cells hang under, and the global
/// index of the batch's first cell (shard-relative batches record global
/// cell indices so dumps correlate with campaign labels; see
/// [`BatchRunner::rebased`]).
#[derive(Debug, Clone)]
struct FlightPlan {
    recorder: Arc<FlightRecorder>,
    parent_span: u64,
    index_base: u64,
}

impl FlightPlan {
    fn cell_span(&self, i: usize) -> (u64, u64) {
        let cell = self.index_base + i as u64;
        (span_id(self.parent_span, SpanKind::Cell, cell), cell)
    }
}

/// One cell that kept failing after every retry and was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Index of the failed cell in the input matrix.
    pub index: usize,
    /// How many times the cell was attempted before quarantine.
    pub attempts: u32,
    /// The panic message of the final attempt.
    pub message: String,
    /// `true` when the cell was cancelled by the per-cell watchdog (see
    /// [`BatchRunner::with_cell_deadline`]) rather than crashing. Timed-out
    /// cells are never retried: re-running a runaway cell would only burn
    /// another full deadline.
    pub timed_out: bool,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.timed_out {
            return write!(f, "cell {} exceeded its deadline", self.index);
        }
        write!(
            f,
            "cell {} failed after {} attempts: {}",
            self.index, self.attempts, self.message
        )
    }
}

/// Aggregate failure/retry record of one [`BatchRunner::try_map`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureSummary {
    /// Permanently failed (quarantined) cells, sorted by cell index.
    pub failures: Vec<CellFailure>,
    /// Total retry attempts across all cells (a cell that succeeded on its
    /// second attempt contributes 1).
    pub retries: u64,
}

impl FailureSummary {
    /// `true` when every cell eventually succeeded.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of quarantined cells.
    pub fn quarantined(&self) -> usize {
        self.failures.len()
    }

    /// Number of quarantined cells that were watchdog timeouts.
    pub fn timed_out(&self) -> usize {
        self.failures.iter().filter(|f| f.timed_out).count()
    }
}

impl fmt::Display for FailureSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "all cells succeeded ({} retries)", self.retries);
        }
        write!(
            f,
            "{} cell(s) quarantined, {} retries; first: {}",
            self.failures.len(),
            self.retries,
            self.failures[0]
        )
    }
}

/// Partial results plus the failure record of a fault-isolated batch run.
#[derive(Debug)]
pub struct BatchOutcome<R> {
    /// Per-cell results in item order; `None` marks a quarantined cell.
    pub results: Vec<Option<R>>,
    /// What failed, what was retried.
    pub summary: FailureSummary,
}

/// A worker pool that executes experiment cells with deterministic merging.
///
/// The pool is scoped: threads are spawned per map call and joined before it
/// returns, so borrowed cell data needs no `'static` lifetime. Panicking
/// cells do **not** tear down the pool: each cell runs inside
/// `catch_unwind`, is retried with bounded deterministic backoff, and is
/// quarantined into a [`FailureSummary`] if it keeps failing, while the
/// remaining cells complete and merge normally.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    threads: usize,
    cell_deadline: Option<Duration>,
    flight: Option<FlightPlan>,
}

impl BatchRunner {
    /// Attempts per cell before it is quarantined (1 initial + 2 retries).
    pub const MAX_ATTEMPTS: u32 = 3;

    /// A runner with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        BatchRunner {
            threads: threads.max(1),
            cell_deadline: None,
            flight: None,
        }
    }

    /// Arms the per-cell watchdog: every cell gets at most `budget` of wall
    /// clock. A cell that overruns is cancelled at its next cooperative poll
    /// point (`giantsan_ir::watchdog::poll` — the interpreter polls every
    /// [`giantsan_ir::watchdog::POLL_INTERVAL`] steps) and quarantined as a
    /// timed-out [`CellFailure`] **without retry**, so a runaway cell costs
    /// one deadline, not `MAX_ATTEMPTS` of them, and never wedges the pool.
    ///
    /// Cancellation is cooperative: a cell that never reaches a poll point
    /// (a tight loop outside the interpreter) is not interruptible. Service
    /// submissions always execute through the interpreter, which is the
    /// runaway surface this protects.
    #[must_use]
    pub fn with_cell_deadline(mut self, budget: Duration) -> Self {
        self.cell_deadline = Some(budget);
        self
    }

    /// Attaches a crash [`FlightRecorder`]: every subsequent `map`/`try_map`
    /// call records cell lifecycle events (start, end, retry, timeout,
    /// quarantine) into the bounded ring, attributed to the causal span
    /// `span_id(parent_span, SpanKind::Cell, index)`. The index is the
    /// cell's position in the batch; `Campaign::run_shard` rebases it to
    /// the shard's first cell, so every campaign run records
    /// campaign-global cell indices. Recording is lock-free
    /// and allocation-free, and it is observation-only: results and their
    /// ordering are unchanged. This is the engine's only observer — the
    /// `--telemetry` schedule dump and `repro serve`'s crash dumps both
    /// render the same ring ([`FlightRecorder::to_chrome`]).
    #[must_use]
    pub fn with_flight(mut self, recorder: Arc<FlightRecorder>, parent_span: u64) -> Self {
        self.flight = Some(FlightPlan {
            recorder,
            parent_span,
            index_base: 0,
        });
        self
    }

    /// This runner with its flight attachment (if any) rebased so the
    /// batch's first cell records global index `index_base` — how a
    /// campaign shard keeps campaign-global cell indices in the ring.
    pub(crate) fn rebased(&self, index_base: u64) -> Self {
        let mut runner = self.clone();
        if let Some(plan) = &mut runner.flight {
            plan.index_base = index_base;
        }
        runner
    }

    /// A single-threaded runner: cells run inline, in order.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// A runner sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(Self::available_parallelism())
    }

    /// The host's available parallelism (1 when it cannot be queried).
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Number of workers this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `job` over every item and returns the results in item order.
    ///
    /// `job` receives the cell index alongside the item (seed derivation and
    /// labelling often need it). With one worker — or one item — everything
    /// runs inline on the caller's thread with zero scheduling overhead,
    /// which is also the reference ordering the parallel path must match.
    ///
    /// # Panics
    ///
    /// If any cell fails permanently (panics on every attempt), this panics
    /// with the [`FailureSummary`] — but only after every other cell has
    /// completed. Callers that want the partial results instead use
    /// [`BatchRunner::try_map`].
    pub fn map<T, R, F>(&self, items: &[T], job: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let outcome = self.try_map(items, job);
        if !outcome.summary.is_clean() {
            panic!("batch failed: {}", outcome.summary);
        }
        outcome
            .results
            .into_iter()
            .map(|r| r.expect("clean batch must have every result"))
            .collect()
    }

    /// Fault-isolated variant of [`BatchRunner::map`]: never panics because
    /// of a failing cell. Each cell is attempted up to
    /// [`BatchRunner::MAX_ATTEMPTS`] times; a cell that keeps panicking is
    /// quarantined (its slot is `None`) and recorded in the summary, while
    /// all other cells run to completion.
    ///
    /// The summary is deterministic for a deterministic `job`: failures are
    /// sorted by cell index and retry totals are scheduling-independent.
    pub fn try_map<T, R, F>(&self, items: &[T], job: F) -> BatchOutcome<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let deadline = self.cell_deadline;
        let flight = self.flight.as_ref();
        let run_cell = |i: usize, worker: usize, item: &T| -> (u32, Result<R, CellFailure>) {
            // (recorder, cell span id, global cell index) when a flight
            // recorder is attached; the span links the ring dump back to
            // the causal chain in `spans.jsonl`.
            let black_box = flight.map(|f| {
                let (span, cell) = f.cell_span(i);
                (&*f.recorder, span, cell)
            });
            let flight_mark = |kind: FlightEventKind, b: u64| {
                if let Some((fr, span, cell)) = black_box {
                    fr.record(worker, kind, span, cell, b);
                }
            };
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                flight_mark(FlightEventKind::CellStart, attempts as u64);
                let attempt = || {
                    // Arm the watchdog for this attempt only; the guard
                    // disarms on every exit path, timeout panic included.
                    let _watch = deadline.map(giantsan_ir::watchdog::arm);
                    job(i, item)
                };
                match std::panic::catch_unwind(AssertUnwindSafe(attempt)) {
                    Ok(r) => {
                        flight_mark(FlightEventKind::CellEnd, attempts as u64);
                        break (attempts, Ok(r));
                    }
                    Err(payload) if giantsan_ir::watchdog::is_timeout_payload(payload.as_ref()) => {
                        // A timed-out cell is quarantined immediately:
                        // retrying a runaway cell cannot succeed, it only
                        // stalls the worker for another full deadline.
                        flight_mark(FlightEventKind::Timeout, attempts as u64);
                        flight_mark(FlightEventKind::Quarantine, attempts as u64);
                        break (
                            attempts,
                            Err(CellFailure {
                                index: i,
                                attempts,
                                message: giantsan_ir::watchdog::TIMEOUT_PAYLOAD.to_string(),
                                timed_out: true,
                            }),
                        );
                    }
                    Err(payload) if attempts >= Self::MAX_ATTEMPTS => {
                        flight_mark(FlightEventKind::Quarantine, attempts as u64);
                        break (
                            attempts,
                            Err(CellFailure {
                                index: i,
                                attempts,
                                message: panic_message(payload.as_ref()),
                                timed_out: false,
                            }),
                        );
                    }
                    Err(_) => {
                        flight_mark(FlightEventKind::Retry, attempts as u64);
                        backoff(attempts);
                    }
                }
            }
        };

        let cells: Vec<CellRecord<R>> = if self.threads == 1 || n <= 1 {
            items
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let (attempts, r) = run_cell(i, 0, t);
                    (i, attempts, r)
                })
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let workers = self.threads.min(n);
            let shards: Vec<Vec<CellRecord<R>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let run_cell = &run_cell;
                        let cursor = &cursor;
                        scope.spawn(move || {
                            let mut local = Vec::new();
                            loop {
                                // Work stealing: claim the next cell.
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(item) = items.get(i) else { break };
                                let (attempts, r) = run_cell(i, w, item);
                                local.push((i, attempts, r));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        // Worker bodies never unwind (cells are caught),
                        // so a join error is a harness bug.
                        h.join().expect("batch worker must not panic")
                    })
                    .collect()
            });
            shards.into_iter().flatten().collect()
        };

        // Deterministic merge: place every result at its cell index, so the
        // output order owes nothing to scheduling.
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut summary = FailureSummary::default();
        let mut failed: Vec<CellFailure> = Vec::new();
        for (i, attempts, r) in cells {
            summary.retries += (attempts - 1) as u64;
            match r {
                Ok(v) => {
                    debug_assert!(results[i].is_none(), "cell {i} executed twice");
                    results[i] = Some(v);
                }
                Err(fail) => failed.push(fail),
            }
        }
        failed.sort_by_key(|f| f.index);
        summary.failures = failed;
        BatchOutcome { results, summary }
    }
}

/// One executed cell: its index, attempt count, and result.
type CellRecord<R> = (usize, u32, Result<R, CellFailure>);

/// Renders a caught panic payload (the `&str`/`String` cases panics almost
/// always carry).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Bounded deterministic backoff between attempts: a fixed spin that grows
/// with the attempt number. No clocks, no randomness — retry schedules are
/// identical run to run.
fn backoff(attempt: u32) {
    let spins = 1u64 << (6 + attempt.min(8));
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

impl Default for BatchRunner {
    /// Defaults to [`BatchRunner::auto`].
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let reference = BatchRunner::serial().map(&items, |i, x| (i as u64) * 1000 + x);
        for threads in [2, 3, 4, 8, 64] {
            let got = BatchRunner::new(threads).map(&items, |i, x| (i as u64) * 1000 + x);
            assert_eq!(got, reference, "{threads} threads");
        }
    }

    #[test]
    fn empty_and_singleton_matrices() {
        let r = BatchRunner::new(8);
        assert_eq!(r.map(&[] as &[u64], |_, x| *x), Vec::<u64>::new());
        assert_eq!(r.map(&[42u64], |i, x| x + i as u64), vec![42]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(BatchRunner::new(0).threads(), 1);
        assert!(BatchRunner::auto().threads() >= 1);
    }

    #[test]
    fn uneven_cell_costs_still_merge_deterministically() {
        // Cells with wildly different costs exercise the stealing path: the
        // long cell is claimed once and the rest drain around it.
        let items: Vec<u64> = (0..64).collect();
        let job = |_: usize, x: &u64| {
            let rounds = if *x == 0 { 200_000 } else { 100 };
            (0..rounds).fold(*x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        assert_eq!(
            BatchRunner::new(4).map(&items, job),
            BatchRunner::serial().map(&items, job)
        );
    }

    #[test]
    fn panicking_cell_is_quarantined_not_fatal() {
        for threads in [1, 2, 8] {
            let items: Vec<u64> = (0..8).collect();
            let outcome = BatchRunner::new(threads).try_map(&items, |i, x| {
                if i == 3 {
                    panic!("cell 3 panicked");
                }
                x * 2
            });
            assert_eq!(outcome.summary.quarantined(), 1, "{threads} threads");
            let fail = &outcome.summary.failures[0];
            assert_eq!(fail.index, 3);
            assert_eq!(fail.attempts, BatchRunner::MAX_ATTEMPTS);
            assert!(fail.message.contains("cell 3 panicked"));
            assert_eq!(
                outcome.summary.retries,
                (BatchRunner::MAX_ATTEMPTS - 1) as u64
            );
            // Every other cell still completed and merged in order.
            assert!(outcome.results[3].is_none());
            for (i, r) in outcome.results.iter().enumerate() {
                if i != 3 {
                    assert_eq!(*r, Some(i as u64 * 2));
                }
            }
            assert!(!outcome.summary.is_clean());
            assert!(outcome.summary.to_string().contains("quarantined"));
        }
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        use std::sync::atomic::AtomicU32;
        let items: Vec<u64> = (0..4).collect();
        let first_tries: Vec<AtomicU32> = items.iter().map(|_| AtomicU32::new(0)).collect();
        let outcome = BatchRunner::new(2).try_map(&items, |i, x| {
            // Cell 1 fails on its first attempt only (a transient fault).
            if i == 1 && first_tries[i].fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            *x + 10
        });
        assert!(outcome.summary.is_clean());
        assert_eq!(outcome.summary.retries, 1);
        let got: Vec<u64> = outcome.results.into_iter().map(Option::unwrap).collect();
        assert_eq!(got, vec![10, 11, 12, 13]);
    }

    #[test]
    fn timed_out_cells_are_quarantined_without_retry() {
        let items: Vec<u64> = (0..6).collect();
        let attempts = AtomicUsize::new(0);
        let outcome = BatchRunner::new(2)
            .with_cell_deadline(Duration::from_millis(20))
            .try_map(&items, |i, x| {
                if i == 2 {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    // Unbounded cooperative loop: spins until the watchdog
                    // cancels it at a poll point.
                    loop {
                        giantsan_ir::watchdog::poll();
                        std::hint::spin_loop();
                    }
                }
                x * 3
            });
        assert_eq!(outcome.summary.quarantined(), 1);
        assert_eq!(outcome.summary.timed_out(), 1);
        let fail = &outcome.summary.failures[0];
        assert!(fail.timed_out);
        assert_eq!(fail.index, 2);
        // One attempt only: timeouts are not retried.
        assert_eq!(fail.attempts, 1);
        assert_eq!(attempts.load(Ordering::Relaxed), 1);
        assert!(fail.to_string().contains("deadline"));
        for (i, r) in outcome.results.iter().enumerate() {
            if i != 2 {
                assert_eq!(*r, Some(i as u64 * 3));
            }
        }
    }

    #[test]
    fn deadline_leaves_fast_cells_untouched() {
        let items: Vec<u64> = (0..32).collect();
        let plain = BatchRunner::new(4).map(&items, |_, x| x + 1);
        let timed = BatchRunner::new(4)
            .with_cell_deadline(Duration::from_secs(60))
            .map(&items, |_, x| x + 1);
        assert_eq!(plain, timed);
    }

    #[test]
    fn flight_recorder_sees_the_cell_lifecycle_with_global_indices() {
        let fr = Arc::new(FlightRecorder::new(2, 64));
        let items: Vec<u64> = (0..4).collect();
        let parent = 0x5111;
        let outcome = BatchRunner::new(2)
            .with_flight(Arc::clone(&fr), parent)
            .rebased(100)
            .try_map(&items, |i, x| {
                if i == 1 {
                    panic!("boom");
                }
                x + 1
            });
        assert_eq!(outcome.summary.quarantined(), 1);
        let snap = fr.snapshot();
        // Cells record *global* indices (index_base + i) and spans derived
        // from the given parent, so the dump correlates with spans.jsonl.
        assert!(snap
            .iter()
            .any(|e| e.kind == FlightEventKind::CellEnd && e.a == 100));
        let q = snap
            .iter()
            .find(|e| e.kind == FlightEventKind::Quarantine)
            .unwrap();
        assert_eq!(q.a, 101);
        assert_eq!(q.span, span_id(parent, SpanKind::Cell, 101));
        let retries = snap
            .iter()
            .filter(|e| e.kind == FlightEventKind::Retry)
            .count();
        assert_eq!(retries, (BatchRunner::MAX_ATTEMPTS - 1) as usize);
        let starts = snap
            .iter()
            .filter(|e| e.kind == FlightEventKind::CellStart)
            .count();
        // 3 clean cells + MAX_ATTEMPTS attempts on the failing one.
        assert_eq!(starts, 3 + BatchRunner::MAX_ATTEMPTS as usize);
    }

    #[test]
    fn map_surfaces_permanent_failures_after_draining() {
        let items: Vec<u64> = (0..8).collect();
        let done = AtomicUsize::new(0);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            BatchRunner::new(2).map(&items, |i, x| {
                if i == 5 {
                    panic!("boom");
                }
                done.fetch_add(1, Ordering::Relaxed);
                *x
            })
        }))
        .unwrap_err();
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("batch failed"), "{msg}");
        assert!(msg.contains("cell 5"), "{msg}");
        // The other 7 cells all ran before the failure surfaced.
        assert_eq!(done.load(Ordering::Relaxed), 7);
    }
}
