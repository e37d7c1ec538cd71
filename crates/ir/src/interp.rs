//! The mini-IR interpreter.
//!
//! Executes a [`Program`] against a [`Sanitizer`]'s world, performing *real*
//! data loads and stores in the simulated address space and running the
//! checks prescribed by a [`CheckPlan`]. The [`RecoveryPolicy`] on
//! [`ExecConfig`] decides what a report does: [`RecoveryPolicy::Continue`]
//! (the paper's SPEC configuration) records every report and keeps going,
//! [`RecoveryPolicy::Halt`] stops at the first one, and
//! [`RecoveryPolicy::Recover`] deduplicates reports per site, rate-limits
//! them per kind, and *contains* each faulting access — the access is
//! skipped and the tool's [`Sanitizer::contain`] hook heals its metadata —
//! so execution continues on a sound state. Unmapped accesses behave like
//! hardware faults and abort the run for every tool, native included.
//!
//! Each call first *lowers* the program, its plan and its inputs into flat
//! code (`crate::lower`): a vector of ops with resolved jump targets, folded
//! affine expressions, one op variant per site action, and each loop's plan
//! attached to its entry and exit ops. Execution is then a single loop over
//! a program counter. The statement tree's observable behaviour carries
//! over exactly: `For`, `If` and `Frame` count one step each while loop
//! iterations count none; the trip counter is separate from the induction
//! variable and the bounds are evaluated once; pre-checks run only for a
//! non-empty range, while cache resets and loop-final checks run on every
//! normal loop exit; and a run that halts, crashes or hits the step limit
//! pops every open frame, innermost first.
//!
//! [`run`] is generic over the sanitizer (`S: ?Sized`): calling it with a
//! concrete tool monomorphizes the whole interpreter loop around that
//! tool's check methods, so the per-access fast path inlines instead of
//! going through a vtable; calling it with a `&mut dyn Sanitizer` (a boxed
//! session's `as_mut()`) gives the virtual-dispatch instantiation.
//!
//! [`run_with`] additionally threads a [`Recorder`] through the loop. Every
//! emission site is guarded by `if R::ENABLED`, so [`run`] — which delegates
//! with [`NoopRecorder`] — monomorphizes to exactly the untraced
//! interpreter: telemetry is zero-cost unless a [`TraceRecorder`] is passed.
//! Events are classified from the sanitizer's own counter deltas (the tool
//! needs no telemetry hooks beyond the read-only
//! [`Sanitizer::shadow_probe`]), so traced and untraced runs execute
//! byte-identically.
//!
//! [`TraceRecorder`]: giantsan_telemetry::TraceRecorder

use giantsan_runtime::{
    AccessKind, Admission, CacheSlot, Counters, ErrorReport, RecoveryPolicy, RecoveryState, Region,
    Sanitizer,
};
use giantsan_shadow::Addr;
use giantsan_telemetry::{
    CheckPathKind, EventKind, Fnv1a, NoopRecorder, Recorder, LOOP_FINAL_SITE, PRE_CHECK_SITE,
};

use crate::lower::{lower, Access, Code, MemSite, Op, PreCheck, Val};
use crate::plan::CheckPlan;
use crate::program::Program;

/// Interpreter limits and error policy.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Abort after this many executed statements (runaway-loop backstop).
    pub max_steps: u64,
    /// What a raised report does: halt, record-and-continue (the paper's
    /// configuration, the default), or recover with dedup + containment.
    pub recovery: RecoveryPolicy,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_steps: 200_000_000,
            recovery: RecoveryPolicy::Continue,
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Termination {
    /// Ran to completion.
    Finished,
    /// Stopped at the first report (only with [`RecoveryPolicy::Halt`]).
    Halted,
    /// Hardware-fault analogue: an access left the simulated address space.
    Crashed {
        /// Human-readable fault description.
        reason: String,
    },
    /// Exceeded [`ExecConfig::max_steps`].
    StepLimit,
}

/// The observable outcome of one run.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Error reports raised by the sanitizer, in order.
    pub reports: Vec<ErrorReport>,
    /// How the run ended.
    pub termination: Termination,
    /// XOR-rotate digest of every loaded value: identical across sanitizers
    /// for the same program and inputs (checked by differential tests).
    pub checksum: u64,
    /// Executed statement count.
    pub steps: u64,
    /// Abstract units of real memory work (accesses + memop segments); the
    /// denominator of the analytic overhead model.
    pub native_work: u64,
}

impl ExecResult {
    /// `true` if the run produced at least one report or crashed — the
    /// "detected" predicate of the detection studies (Tables 3–5).
    pub fn detected(&self) -> bool {
        !self.reports.is_empty() || matches!(self.termination, Termination::Crashed { .. })
    }

    /// FNV-1a digest of every deterministic field: checksum, steps, native
    /// work, termination, and the rendered reports.
    ///
    /// Two runs with equal digests behaved identically as far as the
    /// interpreter can observe; the batch engine's determinism checks
    /// compare these instead of whole results.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.eat(&self.checksum.to_le_bytes());
        h.eat(&self.steps.to_le_bytes());
        h.eat(&self.native_work.to_le_bytes());
        match &self.termination {
            Termination::Finished => h.eat(b"finished"),
            Termination::Halted => h.eat(b"halted"),
            Termination::Crashed { reason } => {
                h.eat(b"crashed:");
                h.eat(reason.as_bytes());
            }
            Termination::StepLimit => h.eat(b"step-limit"),
        }
        for r in &self.reports {
            h.eat(r.to_string().as_bytes());
        }
        h.finish()
    }
}

/// Runs `program` with `inputs` under `san`, instrumented per `plan`.
///
/// # Example
///
/// ```
/// use giantsan_ir::{CheckPlan, ExecConfig, ProgramBuilder, run, Expr};
/// use giantsan_runtime::{NullSanitizer, RuntimeConfig};
///
/// let mut b = ProgramBuilder::new("sum");
/// let buf = b.alloc_heap(80);
/// b.for_loop(0i64, 10i64, |b, i| {
///     b.store(buf, Expr::var(i) * 8, 8, Expr::var(i));
/// });
/// let prog = b.build();
///
/// let mut native = NullSanitizer::new(RuntimeConfig::small());
/// let plan = CheckPlan::none(&prog);
/// let result = run(&prog, &[], &mut native, &plan, &ExecConfig::default());
/// assert!(!result.detected());
/// assert_eq!(result.native_work, 10);
/// ```
pub fn run<S: Sanitizer + ?Sized>(
    program: &Program,
    inputs: &[i64],
    san: &mut S,
    plan: &CheckPlan,
    config: &ExecConfig,
) -> ExecResult {
    run_with(program, inputs, san, plan, config, &mut NoopRecorder)
}

/// [`run`] with a telemetry [`Recorder`] attached.
///
/// With [`NoopRecorder`] (what [`run`] passes) every `if R::ENABLED` guard
/// is a compile-time `false` and this is exactly the untraced interpreter.
/// With an enabled recorder the loop additionally emits a structured
/// [`EventKind`] per check (site, path classified from counter deltas,
/// shadow loads, region size, observed folded code), per quasi-bound
/// refresh, per allocator operation (with poisoning spans), per report or
/// containment, and one end-of-run summary. Tracing never changes execution:
/// the recorder only observes counters the sanitizer already maintains.
pub fn run_with<S: Sanitizer + ?Sized, R: Recorder>(
    program: &Program,
    inputs: &[i64],
    san: &mut S,
    plan: &CheckPlan,
    config: &ExecConfig,
    rec: &mut R,
) -> ExecResult {
    debug_assert_eq!(plan.sites.len(), program.num_sites as usize);
    let code = lower(program, plan, inputs);
    let mut m = Machine {
        san,
        rec,
        config,
        inputs,
        code: &code,
        vars: vec![0; program.num_vars as usize],
        ptrs: vec![0; program.num_ptrs as usize],
        slots: vec![CacheSlot::new(); plan.num_caches as usize],
        counters: vec![(0, 0); code.counters as usize],
        frames: 0,
        recovery: RecoveryState::new(),
        result: ExecResult {
            reports: Vec::new(),
            termination: Termination::Finished,
            checksum: 0,
            steps: 0,
            native_work: 0,
        },
    };
    if let Err(stop) = m.execute() {
        // A terminating error leaves every open frame's scope: pop them,
        // innermost first, as the structured program would on unwinding.
        for _ in 0..m.frames {
            m.san.pop_frame();
        }
        m.result.termination = stop;
    }
    if R::ENABLED {
        m.rec.record(EventKind::Run {
            steps: m.result.steps,
            native_work: m.result.native_work,
            reports: m.result.reports.len() as u64,
        });
    }
    m.result
}

struct Machine<'a, S: Sanitizer + ?Sized, R: Recorder> {
    san: &'a mut S,
    rec: &'a mut R,
    config: &'a ExecConfig,
    inputs: &'a [i64],
    code: &'a Code,
    vars: Vec<i64>,
    ptrs: Vec<u64>,
    slots: Vec<CacheSlot>,
    /// Per loop: the trip counter and its end bound. Kept apart from the
    /// induction variable, so a body that writes the variable does not
    /// change the trip count.
    counters: Vec<(i64, i64)>,
    /// Frames pushed and not yet popped.
    frames: u32,
    recovery: RecoveryState,
    result: ExecResult,
}

/// The check a lowered access op runs; always a constant at its call site,
/// so each op variant inlines only its own check.
#[derive(Clone, Copy)]
enum Guard {
    Skip,
    Direct,
    Anchored,
    Region(u32),
    Cached(u32),
}

/// The first step count after `steps` that needs [`step_slow`]: the step
/// limit or the next watchdog poll, whichever comes first.
fn next_stop(steps: u64, max_steps: u64) -> u64 {
    let poll = crate::watchdog::POLL_INTERVAL;
    (steps / poll + 1)
        .saturating_mul(poll)
        .min(max_steps.saturating_add(1))
}

/// The rare part of counting step number `steps`: the step limit and the
/// watchdog poll. Returns the next step count that needs it.
#[cold]
fn step_slow(steps: u64, max_steps: u64) -> Result<u64, Termination> {
    if steps > max_steps {
        return Err(Termination::StepLimit);
    }
    // Cooperative cancellation: a cell running under an armed batch-engine
    // deadline is aborted here (by the watchdog's distinguished panic)
    // instead of wedging its worker for the rest of the budget.
    if steps.is_multiple_of(crate::watchdog::POLL_INTERVAL) {
        crate::watchdog::poll();
    }
    Ok(next_stop(steps, max_steps))
}

/// Classifies the path one check took from the counter delta it left.
///
/// Precedence mirrors the paths' cost ordering: a cache refresh implies a
/// real check underneath it, an anchored slow path may also bump the
/// underflow counter, so the most specific counter wins.
fn classify_path(before: &Counters, after: &Counters) -> CheckPathKind {
    if after.cache_hits > before.cache_hits {
        CheckPathKind::CacheHit
    } else if after.cache_updates > before.cache_updates {
        CheckPathKind::CacheUpdate
    } else if after.slow_checks > before.slow_checks {
        CheckPathKind::Slow
    } else if after.underflow_checks > before.underflow_checks {
        CheckPathKind::Underflow
    } else if after.arith_checks > before.arith_checks {
        CheckPathKind::Arith
    } else if after.fast_checks > before.fast_checks {
        CheckPathKind::Fast
    } else {
        CheckPathKind::Skipped
    }
}

fn crash(what: &str, addr: Addr) -> Termination {
    Termination::Crashed {
        reason: format!("{what} fault at {addr}"),
    }
}

impl<S: Sanitizer + ?Sized, R: Recorder> Machine<'_, S, R> {
    #[inline(always)]
    fn eval(&self, v: &Val) -> i64 {
        v.eval(&self.vars, self.inputs, &self.code.exprs)
    }

    /// Snapshot of the tool's counters, taken only when tracing.
    #[inline]
    fn counters_snapshot(&self) -> Counters {
        if R::ENABLED {
            *self.san.counters()
        } else {
            Counters::default()
        }
    }

    /// Emits one `Check` event classified against the `before` snapshot.
    #[inline]
    fn record_check(
        &mut self,
        site: u32,
        before: &Counters,
        kind: AccessKind,
        region: u64,
        probe: Addr,
    ) {
        let after = *self.san.counters();
        self.rec.record(EventKind::Check {
            site,
            path: classify_path(before, &after),
            write: kind == AccessKind::Write,
            loads: after.shadow_loads.saturating_sub(before.shadow_loads) as u32,
            region,
            code: self.san.shadow_probe(probe),
        });
    }

    /// Handles a raised report per the recovery policy.
    ///
    /// Returns `Ok(true)` when the faulting access must be *contained*
    /// (skipped) rather than performed — only under
    /// [`RecoveryPolicy::Recover`], where the tool's
    /// [`Sanitizer::contain`] hook has already been given a chance to heal
    /// its metadata. `Ok(false)` is the historical record-and-continue path.
    #[inline(never)]
    fn note_report(&mut self, report: ErrorReport) -> Result<bool, Termination> {
        match self.recovery.admit(&self.config.recovery, &report) {
            Admission::Halt => {
                if R::ENABLED {
                    self.rec.record(EventKind::Report { site: report.site });
                }
                self.result.reports.push(report);
                Err(Termination::Halted)
            }
            Admission::Record => {
                let contain = self.config.recovery.contains_faults();
                if contain {
                    self.san.counters_mut().errors_recovered += 1;
                    self.san.contain(&report);
                }
                if R::ENABLED {
                    self.rec.record(EventKind::Report { site: report.site });
                    if contain {
                        self.rec.record(EventKind::Contained {
                            site: report.site,
                            suppressed: false,
                        });
                    }
                }
                self.result.reports.push(report);
                Ok(contain)
            }
            Admission::Suppress => {
                self.san.counters_mut().errors_suppressed += 1;
                self.san.contain(&report);
                if R::ENABLED {
                    self.rec.record(EventKind::Contained {
                        site: report.site,
                        suppressed: true,
                    });
                }
                Ok(true)
            }
        }
    }

    /// Runs the planned check for an ordinary access site.
    ///
    /// Returns whether the real access should be performed: `false` only
    /// when a failed check was contained under [`RecoveryPolicy::Recover`].
    #[inline(always)]
    fn check_site(
        &mut self,
        acc: &Access,
        base: Addr,
        offset: i64,
        kind: AccessKind,
        guard: Guard,
    ) -> Result<bool, Termination> {
        let width = acc.width;
        let before = self.counters_snapshot();
        // (cache index, pre-check bound) for the quasi-bound refresh event.
        let mut cached_pre: Option<(usize, u64)> = None;
        let mut region = width as u64;
        let verdict = match guard {
            Guard::Skip => {
                region = 0;
                Ok(())
            }
            Guard::Direct => self
                .san
                .check_access(base.offset(offset), width as u32, kind),
            Guard::Anchored => {
                if R::ENABLED {
                    // Anchored checks cover base..access end (both directions).
                    let lo = base.min(base.offset(offset));
                    let hi = base.max(base.offset(offset + width as i64));
                    region = hi.raw().saturating_sub(lo.raw());
                }
                self.san.check_anchored(
                    base,
                    base.offset(offset),
                    base.offset(offset + width as i64),
                    kind,
                )
            }
            Guard::Region(i) => {
                // The planner already folded any anchoring into `lo`, so a
                // plain region check keeps non-anchored tools honest.
                let (lo, hi) = self.code.regions[i as usize];
                let lo = self.eval(&lo);
                let hi = self.eval(&hi);
                if R::ENABLED {
                    region = (hi.max(lo) - lo) as u64;
                }
                self.san
                    .check_region(base.offset(lo), base.offset(hi.max(lo)), kind)
            }
            Guard::Cached(slot) => {
                let idx = slot as usize;
                if R::ENABLED {
                    cached_pre = Some((idx, self.slots[idx].ub));
                }
                let slot = &mut self.slots[idx];
                self.san
                    .cached_check(slot, base, offset, width as u32, kind)
            }
        };
        if R::ENABLED {
            self.record_check(acc.site, &before, kind, region, base.offset(offset));
            if let Some((idx, old_ub)) = cached_pre {
                let slot = self.slots[idx];
                if slot.ub != old_ub {
                    self.rec.record(EventKind::QuasiBound {
                        site: acc.site,
                        old_ub,
                        new_ub: slot.ub,
                        step: slot.updates,
                    });
                }
            }
        }
        match verdict {
            Ok(()) => Ok(true),
            Err(r) => Ok(!self.note_report(r.with_site(acc.site))?),
        }
    }

    #[inline(always)]
    fn load(&mut self, acc: &Access, dst: Option<u32>, guard: Guard) -> Result<(), Termination> {
        let off = self.eval(&acc.offset);
        let base = Addr::new(self.ptrs[acc.ptr as usize]);
        if !self.check_site(acc, base, off, AccessKind::Read, guard)? {
            // Contained: the load is skipped and yields a safe zero.
            if let Some(d) = dst {
                self.vars[d as usize] = 0;
            }
            return Ok(());
        }
        let addr = base.offset(off);
        self.result.native_work += 1;
        match self.san.world().space().read_uint(addr, acc.width as u32) {
            Ok(v) => {
                self.result.checksum = self.result.checksum.rotate_left(1) ^ v;
                if let Some(d) = dst {
                    self.vars[d as usize] = v as i64;
                }
                Ok(())
            }
            Err(_) => Err(crash("load", addr)),
        }
    }

    #[inline(always)]
    fn store(&mut self, acc: &Access, value: &Val, guard: Guard) -> Result<(), Termination> {
        let off = self.eval(&acc.offset);
        let val = self.eval(value);
        let base = Addr::new(self.ptrs[acc.ptr as usize]);
        if !self.check_site(acc, base, off, AccessKind::Write, guard)? {
            return Ok(()); // contained: the store never lands
        }
        let addr = base.offset(off);
        self.result.native_work += 1;
        self.san
            .world_mut()
            .space_mut()
            .write_uint(addr, val as u64, acc.width as u32)
            .map_err(|_| crash("store", addr))
    }

    /// Runs a (possibly skipped) region check for a memory intrinsic.
    ///
    /// Returns whether the memop's real data movement should be performed
    /// (see [`Machine::check_site`]).
    fn check_memop(
        &mut self,
        at: MemSite,
        lo: Addr,
        hi: Addr,
        kind: AccessKind,
    ) -> Result<bool, Termination> {
        let before = self.counters_snapshot();
        let verdict = if at.checked {
            self.san.check_region(lo, hi, kind)
        } else {
            Ok(())
        };
        if R::ENABLED {
            let region = hi.raw().saturating_sub(lo.raw());
            self.record_check(at.site, &before, kind, region, lo);
        }
        match verdict {
            Ok(()) => Ok(true),
            Err(r) => Ok(!self.note_report(r.with_site(at.site))?),
        }
    }

    fn alloc(&mut self, ptr: u32, size: &Val, region: Region) -> Result<(), Termination> {
        let size = self.eval(size).max(0) as u64;
        let stores_before = self.counters_snapshot().shadow_stores;
        match self.san.alloc(size, region) {
            Ok(a) => {
                self.ptrs[ptr as usize] = a.base.raw();
                if R::ENABLED {
                    self.rec.record(EventKind::Alloc {
                        size,
                        stack: region == Region::Stack,
                        poison: self
                            .san
                            .counters()
                            .shadow_stores
                            .saturating_sub(stores_before),
                        placement: a.placement.map(|p| giantsan_telemetry::AllocPlacement {
                            block: p.block,
                            line: p.line,
                            class: p.class,
                        }),
                    });
                }
                Ok(())
            }
            Err(e) => Err(Termination::Crashed {
                reason: format!("allocation failure: {e}"),
            }),
        }
    }

    fn free(&mut self, ptr: u32, offset: &Val) -> Result<(), Termination> {
        let off = self.eval(offset);
        let addr = Addr::new(self.ptrs[ptr as usize]).offset(off);
        let stores_before = self.counters_snapshot().shadow_stores;
        if let Err(r) = self.san.free(addr) {
            // A rejected free performed no deallocation; there is nothing
            // further to contain.
            self.note_report(r)?;
        } else if R::ENABLED {
            self.rec.record(EventKind::Free {
                poison: self
                    .san
                    .counters()
                    .shadow_stores
                    .saturating_sub(stores_before),
            });
        }
        Ok(())
    }

    fn realloc(&mut self, ptr: u32, size: &Val) -> Result<(), Termination> {
        let size = self.eval(size).max(0) as u64;
        let addr = Addr::new(self.ptrs[ptr as usize]);
        let stores_before = self.counters_snapshot().shadow_stores;
        match self.san.realloc(addr, size) {
            Ok(a) => {
                self.ptrs[ptr as usize] = a.base.raw();
                if R::ENABLED {
                    self.rec.record(EventKind::Realloc {
                        new_size: size,
                        poison: self
                            .san
                            .counters()
                            .shadow_stores
                            .saturating_sub(stores_before),
                    });
                }
            }
            Err(r) => {
                self.note_report(r)?;
            }
        }
        Ok(())
    }

    fn memset(
        &mut self,
        at: MemSite,
        ptr: u32,
        offset: &Val,
        len: &Val,
        value: &Val,
    ) -> Result<(), Termination> {
        let off = self.eval(offset);
        let len = self.eval(len).max(0) as u64;
        let val = self.eval(value) as u8;
        let base = Addr::new(self.ptrs[ptr as usize]);
        let lo = base.offset(off);
        let hi = lo.offset(len as i64);
        if !self.check_memop(at, lo, hi, AccessKind::Write)? {
            return Ok(());
        }
        self.result.native_work += len / 8 + 1;
        if len > 0 && self.san.world_mut().space_mut().fill(lo, val, len).is_err() {
            return Err(crash("memset", lo));
        }
        Ok(())
    }

    /// `memcpy` when `len` is given, else `strcpy` (length found by scanning
    /// the source for its NUL).
    fn copy(
        &mut self,
        at: MemSite,
        dst: u32,
        dst_offset: &Val,
        src: u32,
        src_offset: &Val,
        len: Option<&Val>,
    ) -> Result<(), Termination> {
        let doff = self.eval(dst_offset);
        let soff = self.eval(src_offset);
        let len = len.map(|l| self.eval(l).max(0) as u64);
        let dbase = Addr::new(self.ptrs[dst as usize]);
        let sbase = Addr::new(self.ptrs[src as usize]);
        let dlo = dbase.offset(doff);
        let slo = sbase.offset(soff);
        let (len, what) = match len {
            Some(len) => (len, "memcpy"),
            None => {
                // The libc scan: find the NUL. Reading an unterminated
                // string off the end of the space is a fault.
                let space = self.san.world().space();
                let mut len = 1u64; // include the NUL
                loop {
                    match space.read_uint(slo.offset(len as i64 - 1), 1) {
                        Ok(0) => break,
                        Ok(_) => len += 1,
                        Err(_) => return Err(crash("strcpy scan", slo)),
                    }
                }
                (len, "strcpy")
            }
        };
        // The guardian checks both regions before the copy.
        let src_ok = self.check_memop(at, slo, slo.offset(len as i64), AccessKind::Read)?;
        let dst_ok = self.check_memop(at, dlo, dlo.offset(len as i64), AccessKind::Write)?;
        if !(src_ok && dst_ok) {
            return Ok(());
        }
        self.result.native_work += len / 8 + 1;
        if len > 0
            && self
                .san
                .world_mut()
                .space_mut()
                .copy(dlo, slo, len)
                .is_err()
        {
            return Err(crash(what, dlo));
        }
        Ok(())
    }

    /// A loop plan's promoted region checks, run at loop entry.
    fn pre_checks(&mut self, pres: &[PreCheck]) -> Result<(), Termination> {
        pres.iter().try_for_each(|p| self.pre_check(p))
    }

    fn pre_check(&mut self, pre: &PreCheck) -> Result<(), Termination> {
        let plo = self.eval(&pre.lo);
        let phi = self.eval(&pre.hi);
        let base = Addr::new(self.ptrs[pre.ptr as usize]);
        let before = self.counters_snapshot();
        let verdict = self
            .san
            .check_region(base.offset(plo), base.offset(phi.max(plo)), pre.kind);
        if R::ENABLED {
            let region = (phi.max(plo) - plo) as u64;
            self.record_check(PRE_CHECK_SITE, &before, pre.kind, region, base.offset(plo));
        }
        if let Err(r) = verdict {
            self.note_report(r)?;
        }
        Ok(())
    }

    /// The final check of each cache slot a loop guards, at its exit
    /// (Figure 9 line 14).
    fn loop_finals(&mut self, caches: &[(u32, u32)]) -> Result<(), Termination> {
        caches
            .iter()
            .try_for_each(|&(cache, ptr)| self.loop_final(cache, ptr))
    }

    fn loop_final(&mut self, cache: u32, ptr: u32) -> Result<(), Termination> {
        let slot = self.slots[cache as usize];
        let base = Addr::new(self.ptrs[ptr as usize]);
        let before = self.counters_snapshot();
        let verdict = self.san.loop_final_check(&slot, base, AccessKind::Read);
        if R::ENABLED {
            self.record_check(LOOP_FINAL_SITE, &before, AccessKind::Read, slot.ub, base);
        }
        if let Err(r) = verdict {
            self.note_report(r)?;
        }
        Ok(())
    }

    /// Runs the lowered code from its first op to [`Op::End`] or the first
    /// terminating error.
    fn execute(&mut self) -> Result<(), Termination> {
        let code = self.code;
        let ops = &code.ops[..];
        let mut pc = 0;
        // The step count stays in a register until the run ends.
        let max_steps = self.config.max_steps;
        let mut steps = 0;
        let mut stop = next_stop(0, max_steps);
        // The value of an op's `Ok`; an `Err` ends the run.
        macro_rules! tri {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(t) => break Err(t),
                }
            };
        }
        // Counts one statement.
        macro_rules! step {
            () => {
                steps += 1;
                if steps >= stop {
                    stop = tri!(step_slow(steps, max_steps));
                }
            };
        }
        let end = loop {
            let op = &ops[pc];
            pc += 1;
            match op {
                Op::Let { var, val } => {
                    step!();
                    self.vars[*var as usize] = self.eval(val);
                }
                Op::LoadSkip { acc, dst } => {
                    step!();
                    tri!(self.load(acc, *dst, Guard::Skip));
                }
                Op::LoadDirect { acc, dst } => {
                    step!();
                    tri!(self.load(acc, *dst, Guard::Direct));
                }
                Op::LoadAnchored { acc, dst } => {
                    step!();
                    tri!(self.load(acc, *dst, Guard::Anchored));
                }
                Op::LoadRegion { acc, dst, region } => {
                    step!();
                    tri!(self.load(acc, *dst, Guard::Region(*region)));
                }
                Op::LoadCached { acc, dst, slot } => {
                    step!();
                    tri!(self.load(acc, *dst, Guard::Cached(*slot)));
                }
                Op::StoreSkip { acc, value } => {
                    step!();
                    tri!(self.store(acc, value, Guard::Skip));
                }
                Op::StoreDirect { acc, value } => {
                    step!();
                    tri!(self.store(acc, value, Guard::Direct));
                }
                Op::StoreAnchored { acc, value } => {
                    step!();
                    tri!(self.store(acc, value, Guard::Anchored));
                }
                Op::StoreRegion { acc, value, region } => {
                    step!();
                    tri!(self.store(acc, value, Guard::Region(*region)));
                }
                Op::StoreCached { acc, value, slot } => {
                    step!();
                    tri!(self.store(acc, value, Guard::Cached(*slot)));
                }
                Op::ForEnter {
                    counter,
                    var,
                    lo,
                    hi,
                    reverse,
                    pre,
                    caches,
                    exit,
                } => {
                    step!();
                    let lo = self.eval(lo);
                    let hi = self.eval(hi);
                    // Loop pre-header: promoted region checks (guarded by a
                    // non-zero trip count, as a real compiler guards hoisted
                    // checks) and cache resets.
                    if hi > lo {
                        tri!(self.pre_checks(pre.of(&code.pre_checks)));
                    }
                    for &(cache, _) in caches.of(&code.caches) {
                        self.slots[cache as usize] = CacheSlot::new();
                    }
                    if hi > lo {
                        let (first, end) = if *reverse { (hi - 1, lo) } else { (lo, hi) };
                        self.counters[*counter as usize] = (first, end);
                        self.vars[*var as usize] = first;
                    } else {
                        pc = *exit as usize;
                    }
                }
                Op::ForNextUp { counter, var, body } => {
                    let (i, end) = &mut self.counters[*counter as usize];
                    *i += 1;
                    if *i < *end {
                        self.vars[*var as usize] = *i;
                        pc = *body as usize;
                    }
                }
                Op::ForNextDown { counter, var, body } => {
                    let (i, lo) = &mut self.counters[*counter as usize];
                    *i -= 1;
                    if *i >= *lo {
                        self.vars[*var as usize] = *i;
                        pc = *body as usize;
                    }
                }
                Op::LoopFinal { caches } => tri!(self.loop_finals(caches.of(&code.caches))),
                Op::IfNot { cond, to } => {
                    step!();
                    if self.eval(cond) == 0 {
                        pc = *to as usize;
                    }
                }
                Op::Jump { to } => pc = *to as usize,
                Op::FramePush => {
                    step!();
                    self.san.push_frame();
                    self.frames += 1;
                }
                Op::FramePop => {
                    self.san.pop_frame();
                    self.frames -= 1;
                }
                Op::Alloc { ptr, size, region } => {
                    step!();
                    tri!(self.alloc(*ptr, size, *region));
                }
                Op::Free { ptr, offset } => {
                    step!();
                    tri!(self.free(*ptr, offset));
                }
                Op::Realloc { ptr, size } => {
                    step!();
                    tri!(self.realloc(*ptr, size));
                }
                Op::PtrCopy { dst, src, offset } => {
                    step!();
                    let off = self.eval(offset);
                    self.ptrs[*dst as usize] =
                        Addr::new(self.ptrs[*src as usize]).offset(off).raw();
                }
                Op::MemSet {
                    at,
                    ptr,
                    offset,
                    len,
                    value,
                } => {
                    step!();
                    tri!(self.memset(*at, *ptr, offset, len, value));
                }
                Op::MemCpy {
                    at,
                    dst,
                    dst_offset,
                    src,
                    src_offset,
                    len,
                } => {
                    step!();
                    tri!(self.copy(*at, *dst, dst_offset, *src, src_offset, Some(len)));
                }
                Op::StrCpy {
                    at,
                    dst,
                    dst_offset,
                    src,
                    src_offset,
                } => {
                    step!();
                    tri!(self.copy(*at, *dst, dst_offset, *src, src_offset, None));
                }
                Op::End => break Ok(()),
            }
        };
        self.result.steps = steps;
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckPlan, Expr, ProgramBuilder, Stmt};
    use giantsan_runtime::{NullSanitizer, RuntimeConfig};

    fn native() -> NullSanitizer {
        NullSanitizer::new(RuntimeConfig::small())
    }

    #[test]
    fn arithmetic_and_memory_round_trip() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(64);
        b.store(p, 0i64, 8, 0xdeadi64);
        let v = b.load(p, 0i64, 8);
        let q = b.alloc_heap(8);
        b.store(q, 0i64, 8, Expr::var(v) + 1);
        let w = b.load(q, 0i64, 8);
        let out = b.alloc_heap(8);
        b.store(out, 0i64, 8, Expr::var(w));
        let prog = b.build();
        let mut san = native();
        let plan = CheckPlan::all_direct(&prog);
        let r = run(&prog, &[], &mut san, &plan, &ExecConfig::default());
        assert_eq!(r.termination, Termination::Finished);
        // checksum folds 0xdead then 0xdeae.
        assert_ne!(r.checksum, 0);
        assert_eq!(
            san.world()
                .space()
                .read_u64(san.world().objects().iter_live().last().unwrap().base)
                .unwrap(),
            0xdeae
        );
    }

    #[test]
    fn loops_forward_and_reverse() {
        // The induction variable keeps its last trip's value: hi - 1 going
        // up, lo going down.
        for (reverse, last) in [(false, 9u64), (true, 0)] {
            let mut b = ProgramBuilder::new("t");
            let p = b.alloc_heap(88);
            let mut iv = None;
            let body = |b: &mut ProgramBuilder, i| {
                iv = Some(i);
                b.store(p, Expr::var(i) * 8, 8, Expr::var(i));
            };
            if reverse {
                b.for_loop_rev(0i64, 10i64, body);
            } else {
                b.for_loop(0i64, 10i64, body);
            }
            b.store(p, 80i64, 8, Expr::var(iv.unwrap()));
            let prog = b.build();
            let mut san = native();
            let plan = CheckPlan::none(&prog);
            let r = run(&prog, &[], &mut san, &plan, &ExecConfig::default());
            assert_eq!(r.native_work, 11);
            let base = san.world().objects().iter_live().next().unwrap().base;
            for i in 0..10u64 {
                assert_eq!(san.world().space().read_u64(base + i * 8).unwrap(), i);
            }
            assert_eq!(san.world().space().read_u64(base + 80).unwrap(), last);
        }
    }

    #[test]
    fn empty_and_negative_ranges_skip() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        b.for_loop(5i64, 5i64, |b, i| b.store(p, Expr::var(i), 8, 0i64));
        b.for_loop(5i64, 2i64, |b, i| b.store(p, Expr::var(i), 8, 0i64));
        let prog = b.build();
        let mut san = native();
        let r = run(
            &prog,
            &[],
            &mut san,
            &CheckPlan::none(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.native_work, 0);
    }

    #[test]
    fn inputs_parameterise_runs() {
        let mut b = ProgramBuilder::new("t");
        let n = b.input(0);
        let p = b.alloc_heap(Expr::input(0) * 8);
        b.for_loop(0i64, n, |b, i| {
            b.store(p, Expr::var(i) * 8, 8, Expr::var(i) * 2);
        });
        let prog = b.build();
        for n in [1i64, 7, 32] {
            let mut san = native();
            let r = run(
                &prog,
                &[n],
                &mut san,
                &CheckPlan::none(&prog),
                &ExecConfig::default(),
            );
            assert_eq!(r.native_work as i64, n);
        }
    }

    #[test]
    fn null_dereference_crashes() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        let q = b.ptr_add(p, 0i64);
        // Simulate p = NULL by pointer arithmetic down to zero.
        let null = b.ptr_add(q, Expr::Const(-(1i64 << 62)));
        b.load_discard(null, 0i64, 8);
        let prog = b.build();
        let mut san = native();
        let r = run(
            &prog,
            &[],
            &mut san,
            &CheckPlan::none(&prog),
            &ExecConfig::default(),
        );
        assert!(matches!(r.termination, Termination::Crashed { .. }));
        assert!(r.detected());
    }

    #[test]
    fn step_limit_stops_runaway_loops() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        b.for_loop(0i64, 1_000_000i64, |b, _| {
            b.store(p, 0i64, 8, 1i64);
        });
        let prog = b.build();
        let mut san = native();
        let cfg = ExecConfig {
            max_steps: 1000,
            recovery: RecoveryPolicy::Continue,
        };
        let r = run(&prog, &[], &mut san, &CheckPlan::none(&prog), &cfg);
        assert_eq!(r.termination, Termination::StepLimit);
        // The limit trips on the step after the last allowed one.
        assert_eq!(r.steps, 1001);
    }

    #[test]
    fn writing_the_induction_variable_keeps_the_trip_count() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        let mut iv = None;
        b.for_loop(0i64, 10i64, |b, i| {
            iv = Some(i);
            b.store(p, 0i64, 8, Expr::var(i));
        });
        let mut prog = b.build();
        // A raw `i = 100` at the top of the body (the builder never emits
        // one): the trip counter is not the variable.
        let Stmt::For { body, .. } = &mut prog.stmts[1] else {
            panic!("the loop follows the allocation");
        };
        body.insert(
            0,
            Stmt::Let {
                var: iv.unwrap(),
                expr: Expr::Const(100),
            },
        );
        let mut san = native();
        let r = run(
            &prog,
            &[],
            &mut san,
            &CheckPlan::none(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.native_work, 10);
        // alloc + for + 10 × (let + store); iterations themselves are free.
        assert_eq!(r.steps, 2 + 10 * 2);
        let base = san.world().objects().iter_live().next().unwrap().base;
        assert_eq!(san.world().space().read_u64(base).unwrap(), 100);
    }

    #[test]
    fn loop_final_checks_run_on_zero_trips_but_pre_checks_do_not() {
        use crate::{CacheId, LoopId, LoopPlan, PreCheck, SiteAction};
        use giantsan_telemetry::TraceRecorder;

        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(64);
        let n = b.input(0);
        b.for_loop(0i64, n, |b, i| b.store(p, Expr::var(i) * 8, 8, 0i64));
        let prog = b.build();
        let mut plan = CheckPlan::all_direct(&prog);
        plan.sites[0] = SiteAction::Cached { cache: CacheId(0) };
        plan.num_caches = 1;
        plan.loops.insert(
            LoopId(0),
            LoopPlan {
                pre_checks: vec![PreCheck {
                    ptr: p,
                    lo: Expr::Const(0),
                    hi: Expr::input(0) * 8,
                    kind: AccessKind::Write,
                }],
                caches: vec![(CacheId(0), p)],
            },
        );
        for (trips, expected) in [
            (0i64, vec![LOOP_FINAL_SITE]),
            (2, vec![PRE_CHECK_SITE, 0, 0, LOOP_FINAL_SITE]),
        ] {
            let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
            let mut rec = TraceRecorder::for_cell(0);
            let r = run_with(
                &prog,
                &[trips],
                &mut gs,
                &plan,
                &ExecConfig::default(),
                &mut rec,
            );
            assert!(r.reports.is_empty());
            let checks: Vec<u32> = rec
                .events()
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Check { site, .. } => Some(site),
                    _ => None,
                })
                .collect();
            assert_eq!(checks, expected, "{trips} trips");
        }
    }

    #[test]
    fn every_stop_pops_all_open_frames() {
        // Nested frames around an out-of-bounds store, a wild load and a
        // runaway loop: halting, crashing and the step limit all unwind.
        let programs: Vec<(Program, RecoveryPolicy, u64)> = (0..3)
            .map(|stop| {
                let mut b = ProgramBuilder::new("t");
                b.frame(|b| {
                    let _outer = b.alloc_stack(16);
                    b.frame(|b| {
                        let inner = b.alloc_stack(16);
                        match stop {
                            0 => b.store(inner, 16i64, 8, 0i64),
                            1 => {
                                let wild = b.ptr_add(inner, Expr::Const(-(1i64 << 62)));
                                b.load_discard(wild, 0i64, 8);
                            }
                            _ => {
                                b.for_loop(0i64, 1_000_000i64, |b, _| {
                                    b.store(inner, 0i64, 8, 1i64)
                                });
                            }
                        }
                    });
                });
                let policy = if stop == 0 {
                    RecoveryPolicy::Halt
                } else {
                    RecoveryPolicy::Continue
                };
                (b.build(), policy, if stop == 2 { 100 } else { u64::MAX })
            })
            .collect();
        let ends = [
            Termination::Halted,
            Termination::Crashed {
                reason: String::new(),
            },
            Termination::StepLimit,
        ];
        for ((prog, recovery, max_steps), end) in programs.iter().zip(ends) {
            let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
            let cfg = ExecConfig {
                max_steps: *max_steps,
                recovery: *recovery,
            };
            let r = run(prog, &[], &mut gs, &CheckPlan::all_direct(prog), &cfg);
            assert_eq!(
                std::mem::discriminant(&r.termination),
                std::mem::discriminant(&end)
            );
            assert_eq!(gs.world().stack().depth(), 0, "{:?}", r.termination);
            assert_eq!(gs.world().stack().bytes_in_use(), 0);
        }
    }

    #[test]
    fn frames_push_and_pop() {
        let mut b = ProgramBuilder::new("t");
        b.frame(|b| {
            let s = b.alloc_stack(32);
            b.store(s, 0i64, 8, 42i64);
        });
        b.frame(|b| {
            let s = b.alloc_stack(32);
            b.store(s, 0i64, 8, 43i64);
        });
        let prog = b.build();
        let mut san = native();
        let r = run(
            &prog,
            &[],
            &mut san,
            &CheckPlan::none(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.termination, Termination::Finished);
        assert_eq!(san.world().stack().bytes_in_use(), 0);
        assert_eq!(san.world().stack().depth(), 0);
    }

    #[test]
    fn memops_move_data() {
        let mut b = ProgramBuilder::new("t");
        let a = b.alloc_heap(64);
        let c = b.alloc_heap(64);
        b.memset(a, 0i64, 64i64, 0x5ai64);
        b.memcpy(c, 0i64, a, 0i64, 64i64);
        let v = b.load(c, 56i64, 8);
        let out = b.alloc_heap(8);
        b.store(out, 0i64, 8, Expr::var(v));
        let prog = b.build();
        let mut san = native();
        let r = run(
            &prog,
            &[],
            &mut san,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.termination, Termination::Finished);
        let out_base = san.world().objects().iter_live().last().unwrap().base;
        assert_eq!(
            san.world().space().read_u64(out_base).unwrap(),
            0x5a5a_5a5a_5a5a_5a5a
        );
    }

    #[test]
    fn strcpy_copies_through_the_nul() {
        let mut b = ProgramBuilder::new("t");
        let src = b.alloc_heap(32);
        let dst = b.alloc_heap(32);
        // Build "abc\0" at src.
        b.store(src, 0i64, 1, 97i64);
        b.store(src, 1i64, 1, 98i64);
        b.store(src, 2i64, 1, 99i64);
        b.store(src, 3i64, 1, 0i64);
        b.memset(dst, 0i64, 32i64, 0x7fi64);
        b.strcpy(dst, 0i64, src, 0i64);
        let prog = b.build();
        let mut san = native();
        let r = run(
            &prog,
            &[],
            &mut san,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.termination, Termination::Finished);
        let dst_base = san.world().objects().iter_live().last().unwrap().base;
        assert_eq!(
            san.world().space().read_uint(dst_base, 8).unwrap() & 0xff_ffff_ffff,
            0x7f00_636261, // "abc\0" then untouched 0x7f
        );
    }

    #[test]
    fn strcpy_overflow_detected_by_the_guardian() {
        // The classic bug: a long string into a short stack buffer.
        let mut b = ProgramBuilder::new("t");
        let src = b.alloc_heap(64);
        b.memset(src, 0i64, 48i64, 65i64); // 48 'A's, no NUL yet
        b.store(src, 48i64, 1, 0i64);
        b.frame(|b| {
            let buf = b.alloc_stack(16);
            b.strcpy(buf, 0i64, src, 0i64);
        });
        let prog = b.build();
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let r = run(
            &prog,
            &[],
            &mut gs,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.reports.len(), 1, "{:?}", r.reports);
        assert!(r.reports[0].kind.is_spatial());
    }

    #[test]
    fn checksum_is_sanitizer_independent() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(128);
        b.for_loop(0i64, 16i64, |b, i| {
            b.store(p, Expr::var(i) * 8, 8, Expr::var(i) * 31);
        });
        b.for_loop(0i64, 16i64, |b, i| {
            b.load_discard(p, Expr::var(i) * 8, 8);
        });
        let prog = b.build();

        let mut native = native();
        let r1 = run(
            &prog,
            &[],
            &mut native,
            &CheckPlan::none(&prog),
            &ExecConfig::default(),
        );
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let r2 = run(
            &prog,
            &[],
            &mut gs,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r1.checksum, r2.checksum);
    }

    #[test]
    fn halt_on_error_stops_at_first_report() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        b.for_loop(0i64, 10i64, |b, i| {
            b.store(p, Expr::var(i) * 8 + 8, 8, 0i64); // always OOB
        });
        let prog = b.build();
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let cfg = ExecConfig {
            recovery: RecoveryPolicy::Halt,
            ..ExecConfig::default()
        };
        let r = run(&prog, &[], &mut gs, &CheckPlan::all_direct(&prog), &cfg);
        assert_eq!(r.reports.len(), 1);
        assert_eq!(r.termination, Termination::Halted);
        // And without halting we get one report per iteration (offset 8..80
        // stays inside the 16-byte redzone for the first iteration only —
        // farther offsets are still poisoned, some land in the next block's
        // left zone, all invalid).
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let r = run(
            &prog,
            &[],
            &mut gs,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert!(r.reports.len() >= 2);
    }

    #[test]
    fn recover_mode_dedups_and_contains() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        b.store(p, 0i64, 8, 0x55i64);
        b.for_loop(0i64, 10i64, |b, _| {
            b.load_discard(p, 8i64, 8); // always OOB, same site
        });
        let v = b.load(p, 8i64, 8); // second OOB site
        let out = b.alloc_heap(8);
        b.store(out, 0i64, 8, Expr::var(v));
        let prog = b.build();
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let cfg = ExecConfig {
            recovery: RecoveryPolicy::recover(),
            ..ExecConfig::default()
        };
        let r = run(&prog, &[], &mut gs, &CheckPlan::all_direct(&prog), &cfg);
        assert_eq!(r.termination, Termination::Finished);
        assert_eq!(r.reports.len(), 2, "one report per (site, kind)");
        assert_eq!(gs.counters().errors_recovered, 2);
        assert_eq!(gs.counters().errors_suppressed, 9);
        // The contained load never touched memory: its destination holds the
        // safe zero, not redzone bytes.
        let out_base = gs.world().objects().iter_live().last().unwrap().base;
        assert_eq!(gs.world().space().read_u64(out_base).unwrap(), 0);
    }

    #[test]
    fn reports_carry_site_ids() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(8);
        b.load_discard(p, 16i64, 8);
        let prog = b.build();
        let mut gs = giantsan_core::GiantSan::new(RuntimeConfig::small());
        let r = run(
            &prog,
            &[],
            &mut gs,
            &CheckPlan::all_direct(&prog),
            &ExecConfig::default(),
        );
        assert_eq!(r.reports.len(), 1);
        assert_eq!(r.reports[0].site, Some(0));
    }
}
