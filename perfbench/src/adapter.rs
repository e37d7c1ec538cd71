//! The timing adapter: a [`Sanitizer`] that delegates every call to the real
//! session and times it from outside.
//!
//! The interpreter calls the tool only through the `Sanitizer` trait, so
//! wrapping the session the way [`giantsan_ir::run`] sees it attributes
//! time to the crates behind each method without touching their code:
//! checks go to `giantsan-core` (GiantSan) or `giantsan-baselines` (ASan and
//! the other baselines), allocation, frees and frames to the runtime.
//!
//! The adapter can also inject a fixed busy-wait delay in front of one class
//! of calls. The sensitivity check uses this to show that a slower check
//! layer or a slower allocator shows up in the end-to-end metric the
//! benchmark maps it to, and nowhere else.

use std::hint::black_box;
use std::time::{Duration, Instant};

use giantsan_runtime::{
    AccessKind, Allocation, CacheSlot, CheckResult, Counters, ErrorReport, HeapError,
    MetadataFault, Region, Sanitizer, World,
};
use giantsan_shadow::Addr;

/// The sanitizer methods the adapter times, one slot each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Alloc,
    Free,
    Realloc,
    PushFrame,
    PopFrame,
    NoteStackAlloc,
    CheckAccess,
    CheckRegion,
    CheckAnchored,
    CachedCheck,
    LoopFinalCheck,
    Contain,
}

impl Method {
    pub const ALL: [Method; 12] = [
        Method::Alloc,
        Method::Free,
        Method::Realloc,
        Method::PushFrame,
        Method::PopFrame,
        Method::NoteStackAlloc,
        Method::CheckAccess,
        Method::CheckRegion,
        Method::CheckAnchored,
        Method::CachedCheck,
        Method::LoopFinalCheck,
        Method::Contain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Method::Alloc => "alloc",
            Method::Free => "free",
            Method::Realloc => "realloc",
            Method::PushFrame => "push_frame",
            Method::PopFrame => "pop_frame",
            Method::NoteStackAlloc => "note_stack_alloc",
            Method::CheckAccess => "check_access",
            Method::CheckRegion => "check_region",
            Method::CheckAnchored => "check_anchored",
            Method::CachedCheck => "cached_check",
            Method::LoopFinalCheck => "loop_final_check",
            Method::Contain => "contain",
        }
    }

    /// The check calls: what `core.*` (GiantSan) and `baselines.*` (ASan)
    /// time.
    pub fn is_check(self) -> bool {
        matches!(
            self,
            Method::CheckAccess
                | Method::CheckRegion
                | Method::CheckAnchored
                | Method::CachedCheck
                | Method::LoopFinalCheck
        )
    }

    /// Allocator calls: what `runtime.alloc_ns` / `runtime.free_ns` time.
    pub fn is_alloc(self) -> bool {
        matches!(self, Method::Alloc | Method::Free | Method::Realloc)
    }
}

/// Which calls an injected delay goes in front of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayTarget {
    Checks,
    AllocFree,
}

/// A fixed delay in front of one class of calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delay {
    pub target: DelayTarget,
    pub nanos: u64,
}

impl Delay {
    /// Parses `check:NS` or `alloc:NS`.
    pub fn parse(s: &str) -> Result<Delay, String> {
        let (what, ns) = s
            .split_once(':')
            .ok_or_else(|| format!("bad delay `{s}`: want check:NS or alloc:NS"))?;
        let target = match what {
            "check" => DelayTarget::Checks,
            "alloc" => DelayTarget::AllocFree,
            other => return Err(format!("bad delay target `{other}`")),
        };
        let nanos = ns.parse().map_err(|_| format!("bad delay `{ns}`"))?;
        Ok(Delay { target, nanos })
    }

    fn applies(self, m: Method) -> bool {
        match self.target {
            DelayTarget::Checks => m.is_check(),
            DelayTarget::AllocFree => m.is_alloc(),
        }
    }
}

fn spin(nanos: u64) {
    let until = Instant::now() + Duration::from_nanos(nanos);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Call count and summed duration per [`Method`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    pub calls: [u64; 12],
    pub nanos: [u64; 12],
}

impl CallStats {
    pub fn add(&mut self, other: &CallStats) {
        for i in 0..self.calls.len() {
            self.calls[i] += other.calls[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    pub fn calls_where(&self, f: impl Fn(Method) -> bool) -> u64 {
        Method::ALL
            .iter()
            .filter(|m| f(**m))
            .map(|m| self.calls[*m as usize])
            .sum()
    }

    pub fn nanos_where(&self, f: impl Fn(Method) -> bool) -> u64 {
        Method::ALL
            .iter()
            .filter(|m| f(**m))
            .map(|m| self.nanos[*m as usize])
            .sum()
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// Cost of the timer itself, measured on this host.
///
/// `inside` is what one timed call of an empty body reads (charged to the
/// callee); `outside` is the rest of the wrapper's cost per call (charged to
/// the caller's self time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockCost {
    pub inside_ns: f64,
    pub outside_ns: f64,
}

impl ClockCost {
    /// Times `rounds` empty timed sections and takes the median of several
    /// batches.
    pub fn calibrate() -> ClockCost {
        const ROUNDS: u32 = 20_000;
        let mut inside = Vec::new();
        let mut total = Vec::new();
        for _ in 0..9 {
            let mut read = 0u64;
            let start = Instant::now();
            for i in 0..ROUNDS {
                let t = Instant::now();
                black_box(i);
                read += t.elapsed().as_nanos() as u64;
            }
            let all = start.elapsed().as_nanos() as f64;
            inside.push(read as f64 / f64::from(ROUNDS));
            total.push(all / f64::from(ROUNDS));
        }
        let inside_ns = crate::stats::median(&inside);
        let total_ns = crate::stats::median(&total);
        ClockCost {
            inside_ns,
            outside_ns: (total_ns - inside_ns).max(0.0),
        }
    }

    /// Total cost of one timed call.
    pub fn per_call_ns(&self) -> f64 {
        self.inside_ns + self.outside_ns
    }
}

/// Wraps a session; delegates every [`Sanitizer`] method to it.
pub struct Timed<S: Sanitizer + ?Sized> {
    inner: Box<S>,
    timing: bool,
    delay: Option<Delay>,
    stats: CallStats,
    sizes: Vec<u64>,
}

/// Allocation sizes the timing adapter keeps, for the kernel measurements.
const MAX_SIZES: usize = 4096;

impl<S: Sanitizer + ?Sized> Timed<S> {
    /// An adapter that times every call.
    pub fn timing(inner: Box<S>) -> Self {
        Timed {
            inner,
            timing: true,
            delay: None,
            stats: CallStats::default(),
            sizes: Vec::new(),
        }
    }

    /// An adapter that only delegates (and delays, when `delay` is set).
    pub fn passthrough(inner: Box<S>, delay: Option<Delay>) -> Self {
        Timed {
            inner,
            timing: false,
            delay,
            stats: CallStats::default(),
            sizes: Vec::new(),
        }
    }

    pub fn stats(&self) -> &CallStats {
        &self.stats
    }

    /// Sizes of the first allocations and reallocations seen while timing.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    fn note_size(&mut self, size: u64) {
        if self.timing && self.sizes.len() < MAX_SIZES {
            self.sizes.push(size);
        }
    }

    #[inline(always)]
    fn around<T>(
        stats: &mut CallStats,
        timing: bool,
        delay: Option<Delay>,
        m: Method,
        f: impl FnOnce() -> T,
    ) -> T {
        if let Some(d) = delay {
            if d.applies(m) {
                spin(d.nanos);
            }
        }
        if !timing {
            return f();
        }
        let t = Instant::now();
        let r = f();
        stats.nanos[m as usize] += t.elapsed().as_nanos() as u64;
        stats.calls[m as usize] += 1;
        r
    }
}

macro_rules! timed {
    ($self:ident, $m:expr, |$inner:ident| $call:expr) => {{
        let $inner = &mut $self.inner;
        Self::around(&mut $self.stats, $self.timing, $self.delay, $m, || $call)
    }};
}

impl<S: Sanitizer + ?Sized> Sanitizer for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn world(&self) -> &World {
        self.inner.world()
    }

    fn world_mut(&mut self) -> &mut World {
        self.inner.world_mut()
    }

    fn counters(&self) -> &Counters {
        self.inner.counters()
    }

    fn counters_mut(&mut self) -> &mut Counters {
        self.inner.counters_mut()
    }

    fn alloc(&mut self, size: u64, region: Region) -> Result<Allocation, HeapError> {
        self.note_size(size);
        timed!(self, Method::Alloc, |s| s.alloc(size, region))
    }

    fn free(&mut self, base: Addr) -> CheckResult {
        timed!(self, Method::Free, |s| s.free(base))
    }

    fn realloc(&mut self, base: Addr, new_size: u64) -> Result<Allocation, ErrorReport> {
        self.note_size(new_size);
        timed!(self, Method::Realloc, |s| s.realloc(base, new_size))
    }

    fn push_frame(&mut self) {
        timed!(self, Method::PushFrame, |s| s.push_frame())
    }

    fn pop_frame(&mut self) {
        timed!(self, Method::PopFrame, |s| s.pop_frame())
    }

    fn check_access(&mut self, addr: Addr, width: u32, kind: AccessKind) -> CheckResult {
        timed!(self, Method::CheckAccess, |s| s
            .check_access(addr, width, kind))
    }

    fn check_region(&mut self, lo: Addr, hi: Addr, kind: AccessKind) -> CheckResult {
        timed!(self, Method::CheckRegion, |s| s.check_region(lo, hi, kind))
    }

    fn check_anchored(
        &mut self,
        anchor: Addr,
        access_lo: Addr,
        access_hi: Addr,
        kind: AccessKind,
    ) -> CheckResult {
        timed!(self, Method::CheckAnchored, |s| s
            .check_anchored(anchor, access_lo, access_hi, kind))
    }

    fn cached_check(
        &mut self,
        slot: &mut CacheSlot,
        base: Addr,
        offset: i64,
        width: u32,
        kind: AccessKind,
    ) -> CheckResult {
        timed!(self, Method::CachedCheck, |s| s
            .cached_check(slot, base, offset, width, kind))
    }

    fn loop_final_check(&mut self, slot: &CacheSlot, base: Addr, kind: AccessKind) -> CheckResult {
        timed!(self, Method::LoopFinalCheck, |s| s
            .loop_final_check(slot, base, kind))
    }

    fn supports_caching(&self) -> bool {
        self.inner.supports_caching()
    }

    fn note_stack_alloc(&mut self) {
        timed!(self, Method::NoteStackAlloc, |s| s.note_stack_alloc())
    }

    fn contain(&mut self, report: &ErrorReport) {
        timed!(self, Method::Contain, |s| s.contain(report))
    }

    fn inject_metadata_fault(&mut self, addr: Addr, fault: MetadataFault) -> bool {
        self.inner.inject_metadata_fault(addr, fault)
    }

    fn shadow_probe(&self, addr: Addr) -> Option<u8> {
        self.inner.shadow_probe(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_parses() {
        assert_eq!(
            Delay::parse("check:250"),
            Ok(Delay {
                target: DelayTarget::Checks,
                nanos: 250
            })
        );
        assert!(Delay::parse("alloc:x").is_err());
        assert!(Delay::parse("free:1").is_err());
        assert!(Delay::parse("check").is_err());
    }

    #[test]
    fn delay_classes_are_disjoint() {
        for m in Method::ALL {
            assert!(!(m.is_check() && m.is_alloc()), "{}", m.name());
        }
        assert_eq!(Method::ALL.iter().filter(|m| m.is_check()).count(), 5);
        assert_eq!(Method::ALL.iter().filter(|m| m.is_alloc()).count(), 3);
    }

    #[test]
    fn clock_cost_is_positive() {
        let c = ClockCost::calibrate();
        assert!(c.inside_ns > 0.0 && c.per_call_ns() >= c.inside_ns);
    }
}
