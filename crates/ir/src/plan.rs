//! Instrumentation plans: what check, if any, runs at each access site.
//!
//! A [`CheckPlan`] is the mini-IR analogue of the instrumented binary the
//! paper's compiler pass produces: per-site actions (Figure 8c), per-loop
//! promoted region checks and cache slots (Figure 9), all as *data* the
//! interpreter executes. `giantsan-analysis` constructs plans; this module
//! only defines their shape plus the trivial "check everything" plan that
//! models un-optimised ASan instrumentation.

use std::collections::HashMap;

use giantsan_runtime::AccessKind;

use crate::expr::Expr;
use crate::program::{LoopId, Program, PtrId};

/// Identifier of a history-cache slot (one local `ub` variable, Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheId(pub u32);

/// The runtime action at one access site.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteAction {
    /// Instruction-level check of exactly the accessed bytes (ASan's mode).
    Direct,
    /// Anchor-based operation check: validate `[ptr, access end)` (§4.4.1).
    Anchored,
    /// Merged check: validate `[ptr + lo, ptr + hi)` at this site, covering
    /// this access and the aliased ones whose own sites were eliminated.
    Region {
        /// Inclusive start offset of the covered region.
        lo: Expr,
        /// Exclusive end offset of the covered region.
        hi: Expr,
    },
    /// History-cached check through the given quasi-bound slot (§4.3).
    Cached {
        /// Cache slot consulted and refreshed by this site.
        cache: CacheId,
    },
    /// No runtime action: the access is covered by a merged or promoted
    /// check elsewhere (`Eliminated` in Figure 10's terms).
    Skip,
}

/// A region check hoisted to a loop pre-header (check-in-loop promotion).
#[derive(Debug, Clone, PartialEq)]
pub struct PreCheck {
    /// Anchor pointer of the region.
    pub ptr: PtrId,
    /// Inclusive start offset.
    pub lo: Expr,
    /// Exclusive end offset (e.g. `4 * N` for Figure 8c's `CI(x, x+4N)`).
    pub hi: Expr,
    /// Read or write.
    pub kind: AccessKind,
}

/// Per-loop instrumentation: promoted checks and cache slots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopPlan {
    /// Region checks executed once at loop entry.
    pub pre_checks: Vec<PreCheck>,
    /// Cache slots reset at loop entry and finalised at loop exit, with the
    /// pointer each one guards.
    pub caches: Vec<(CacheId, PtrId)>,
}

/// A complete instrumentation plan for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckPlan {
    /// Action per access site, indexed by [`SiteId`](crate::SiteId).
    pub sites: Vec<SiteAction>,
    /// Per-loop instrumentation.
    pub loops: HashMap<LoopId, LoopPlan>,
    /// Number of cache slots the interpreter must allocate.
    pub num_caches: u32,
}

impl CheckPlan {
    /// The un-optimised plan: every site checked directly, no promotion, no
    /// caching. This is ASan's instruction-level instrumentation.
    pub fn all_direct(program: &Program) -> Self {
        CheckPlan {
            sites: vec![SiteAction::Direct; program.num_sites as usize],
            loops: HashMap::new(),
            num_caches: 0,
        }
    }

    /// A plan with *no* checks at all — native execution.
    pub fn none(program: &Program) -> Self {
        CheckPlan {
            sites: vec![SiteAction::Skip; program.num_sites as usize],
            loops: HashMap::new(),
            num_caches: 0,
        }
    }

    /// Counts sites per action kind: `(direct, anchored, region, cached,
    /// skipped)`.
    pub fn census(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for s in &self.sites {
            match s {
                SiteAction::Direct => c.0 += 1,
                SiteAction::Anchored => c.1 += 1,
                SiteAction::Region { .. } => c.2 += 1,
                SiteAction::Cached { .. } => c.3 += 1,
                SiteAction::Skip => c.4 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, ProgramBuilder};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(64);
        let _ = b.load(p, 0i64, 8);
        b.store(p, 8i64, 8, 1i64);
        b.build()
    }

    #[test]
    fn all_direct_covers_every_site() {
        let prog = sample();
        let plan = CheckPlan::all_direct(&prog);
        assert_eq!(plan.sites.len(), 2);
        assert_eq!(plan.census(), (2, 0, 0, 0, 0));
        assert_eq!(plan.sites[0], SiteAction::Direct);
    }

    #[test]
    fn none_skips_every_site() {
        let prog = sample();
        let plan = CheckPlan::none(&prog);
        assert_eq!(plan.census(), (0, 0, 0, 0, 2));
    }

    #[test]
    fn census_distinguishes_kinds() {
        let prog = sample();
        let mut plan = CheckPlan::all_direct(&prog);
        plan.sites[0] = SiteAction::Cached { cache: CacheId(0) };
        plan.sites[1] = SiteAction::Region {
            lo: Expr::Const(0),
            hi: Expr::Const(16),
        };
        plan.num_caches = 1;
        assert_eq!(plan.census(), (0, 0, 1, 1, 0));
    }
}
