//! Lowering: one run's [`Program`], [`CheckPlan`] and inputs flattened into
//! the code the interpreter executes.
//!
//! The structured statement tree becomes a flat [`Op`] vector with resolved
//! jump targets, so execution is a loop over a program counter instead of a
//! recursive walk. Everything that is fixed for the run is decided here,
//! once:
//!
//! * **Expressions.** `Input(k)` folds to a constant, and an expression that
//!   is affine in at most one variable (after wrapping-arithmetic
//!   simplification, which is exact in the ring of 64-bit integers) becomes
//!   a single [`Val`]: `c`, `v`, `v*m+k` or `inputs[v*m+k]`, and one affine
//!   in several variables a sum `k + Σ m·v` over a term table. Anything else
//!   becomes a short postfix sequence whose leaves are such values.
//! * **Site actions.** Each access site's [`SiteAction`] picks the op
//!   variant, so an unchecked load or store carries no check at all, and a
//!   cached site carries its slot.
//! * **Loop plans.** A loop's promoted pre-checks and cache slots are
//!   resolved into its [`Op::ForEnter`] and [`Op::LoopFinal`] ops.
//!
//! Lowering runs per call inside [`crate::run_with`]: it depends on the
//! inputs (folded constants), and the plan stays the analysis' only output.

use giantsan_runtime::{AccessKind, Region};

use crate::expr::{input_at, Expr};
use crate::plan::{CheckPlan, SiteAction};
use crate::program::{Program, Stmt};

/// A lowered scalar expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Val {
    /// A constant (literals and folded inputs).
    Const(i64),
    /// `vars[v]`.
    Var(u32),
    /// `vars[v] * mul + add`.
    Lin { var: u32, mul: i64, add: i64 },
    /// `inputs[vars[v] * mul + add]`, 0 when out of range.
    Input { var: u32, mul: i64, add: i64 },
    /// `add + Σ vars[v] * m` over the `(v, m)` pairs `terms[at..at + len]`.
    Sum { at: u32, len: u32, add: i64 },
    /// The postfix sequence `post[at..at + len]`, needing `depth` stack
    /// slots.
    Post { at: u32, len: u32, depth: u32 },
}

/// One postfix instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Post {
    /// Push a value (never [`Val::Post`]).
    Push(Val),
    /// Pop `b`, pop `a`, push `a + b` (wrapping).
    Add,
    /// Pop `b`, pop `a`, push `a - b` (wrapping).
    Sub,
    /// Pop `b`, pop `a`, push `a * b` (wrapping).
    Mul,
    /// Replace the top `i` with `inputs[i]` (0 when out of range).
    Input,
}

/// Postfix sequences up to this depth evaluate on a fixed stack array.
const FIXED_DEPTH: usize = 16;

impl Val {
    /// Evaluates the value against the current variables.
    #[inline(always)]
    pub(crate) fn eval(&self, vars: &[i64], inputs: &[i64], code: &Exprs) -> i64 {
        match *self {
            Val::Const(c) => c,
            Val::Var(v) => vars[v as usize],
            Val::Lin { var, mul, add } => vars[var as usize].wrapping_mul(mul).wrapping_add(add),
            Val::Input { var, mul, add } => input_at(
                inputs,
                vars[var as usize].wrapping_mul(mul).wrapping_add(add),
            ),
            Val::Sum { at, len, add } => code.terms[at as usize..(at + len) as usize]
                .iter()
                .fold(add, |acc, &(v, m)| {
                    acc.wrapping_add(vars[v as usize].wrapping_mul(m))
                }),
            Val::Post { at, len, depth } => {
                let post = &code.post[at as usize..(at + len) as usize];
                if depth as usize <= FIXED_DEPTH {
                    eval_post(post, vars, inputs, code, &mut [0; FIXED_DEPTH])
                } else {
                    eval_post(post, vars, inputs, code, &mut vec![0; depth as usize])
                }
            }
        }
    }
}

#[inline(never)]
fn eval_post(post: &[Post], vars: &[i64], inputs: &[i64], code: &Exprs, stack: &mut [i64]) -> i64 {
    let mut sp = 0;
    for op in post {
        match op {
            Post::Push(v) => {
                stack[sp] = v.eval(vars, inputs, code);
                sp += 1;
            }
            Post::Input => stack[sp - 1] = input_at(inputs, stack[sp - 1]),
            bin => {
                sp -= 1;
                let (a, b) = (stack[sp - 1], stack[sp]);
                stack[sp - 1] = match bin {
                    Post::Add => a.wrapping_add(b),
                    Post::Sub => a.wrapping_sub(b),
                    _ => a.wrapping_mul(b),
                };
            }
        }
    }
    stack[0]
}

/// An ordinary load or store site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Access {
    pub site: u32,
    pub ptr: u32,
    pub width: u8,
    pub offset: Val,
}

/// A memory intrinsic's site: whether its plan checks it at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MemSite {
    pub site: u32,
    pub checked: bool,
}

/// A promoted region check run at loop entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PreCheck {
    pub ptr: u32,
    pub lo: Val,
    pub hi: Val,
    pub kind: AccessKind,
}

/// A `start..start + len` range of one of [`Code`]'s side tables.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Span {
    pub start: u32,
    pub len: u32,
}

impl Span {
    pub(crate) fn of<T>(self, table: &[T]) -> &[T] {
        &table[self.start as usize..(self.start + self.len) as usize]
    }
}

/// One flat instruction. Ops marked *step* are the lowered statements and
/// count one interpreter step each; the rest are control flow that the
/// statement tree expressed by nesting.
#[derive(Debug)]
pub(crate) enum Op {
    /// *step* `vars[var] = val`.
    Let { var: u32, val: Val },
    /// *step* `ptrs[ptr] = alloc(size)`.
    Alloc { ptr: u32, size: Val, region: Region },
    /// *step* `free(ptrs[ptr] + offset)`.
    Free { ptr: u32, offset: Val },
    /// *step* `ptrs[ptr] = realloc(ptrs[ptr], size)`.
    Realloc { ptr: u32, size: Val },
    /// *step* `ptrs[dst] = ptrs[src] + offset`.
    PtrCopy { dst: u32, src: u32, offset: Val },
    /// *step* Unchecked load.
    LoadSkip { acc: Access, dst: Option<u32> },
    /// *step* Load checked on exactly its bytes.
    LoadDirect { acc: Access, dst: Option<u32> },
    /// *step* Load checked from its anchor.
    LoadAnchored { acc: Access, dst: Option<u32> },
    /// *step* Load covered by the merged region `regions[region]`.
    LoadRegion {
        acc: Access,
        dst: Option<u32>,
        region: u32,
    },
    /// *step* Load checked through cache slot `slot`.
    LoadCached {
        acc: Access,
        dst: Option<u32>,
        slot: u32,
    },
    /// *step* Unchecked store.
    StoreSkip { acc: Access, value: Val },
    /// *step* Store checked on exactly its bytes.
    StoreDirect { acc: Access, value: Val },
    /// *step* Store checked from its anchor.
    StoreAnchored { acc: Access, value: Val },
    /// *step* Store covered by the merged region `regions[region]`.
    StoreRegion {
        acc: Access,
        value: Val,
        region: u32,
    },
    /// *step* Store checked through cache slot `slot`.
    StoreCached { acc: Access, value: Val, slot: u32 },
    /// *step* `memset(ptrs[ptr] + offset, value, len)`.
    MemSet {
        at: MemSite,
        ptr: u32,
        offset: Val,
        len: Val,
        value: Val,
    },
    /// *step* `memcpy(ptrs[dst] + dst_offset, ptrs[src] + src_offset, len)`.
    MemCpy {
        at: MemSite,
        dst: u32,
        dst_offset: Val,
        src: u32,
        src_offset: Val,
        len: Val,
    },
    /// *step* `strcpy(ptrs[dst] + dst_offset, ptrs[src] + src_offset)`.
    StrCpy {
        at: MemSite,
        dst: u32,
        dst_offset: Val,
        src: u32,
        src_offset: Val,
    },
    /// *step* Loop entry: evaluate the bounds once, run the loop plan's
    /// pre-checks (non-empty range only) and cache resets, then enter the
    /// body at the next op or, for an empty range, continue at `exit`.
    ForEnter {
        counter: u32,
        var: u32,
        lo: Val,
        hi: Val,
        reverse: bool,
        pre: Span,
        caches: Span,
        exit: u32,
    },
    /// Ascending back edge: advance `counters[counter]`, and while it is
    /// below its end, set `vars[var]` and jump to `body`.
    ForNextUp { counter: u32, var: u32, body: u32 },
    /// Descending back edge: step down while at or above the low bound.
    ForNextDown { counter: u32, var: u32, body: u32 },
    /// Loop exit: the final check of every cache slot the loop guards.
    LoopFinal { caches: Span },
    /// *step* Continue at `to` when `cond` is zero.
    IfNot { cond: Val, to: u32 },
    /// Continue at `to`.
    Jump { to: u32 },
    /// *step* Push a stack frame.
    FramePush,
    /// Pop the innermost stack frame.
    FramePop,
    /// End of program.
    End,
}

/// The tables [`Val::Sum`] and [`Val::Post`] index.
#[derive(Debug, Default)]
pub(crate) struct Exprs {
    pub terms: Vec<(u32, i64)>,
    pub post: Vec<Post>,
}

/// A lowered run: the ops plus their side tables.
#[derive(Debug, Default)]
pub(crate) struct Code {
    pub ops: Vec<Op>,
    pub exprs: Exprs,
    /// Merged-check bounds `(lo, hi)` of [`SiteAction::Region`] sites.
    pub regions: Vec<(Val, Val)>,
    pub pre_checks: Vec<PreCheck>,
    /// `(cache slot, guarded pointer)` pairs of the loop plans.
    pub caches: Vec<(u32, u32)>,
    /// Number of loop trip counters.
    pub counters: u32,
}

/// Lowers `program` under `plan` for one run with `inputs`.
pub(crate) fn lower(program: &Program, plan: &CheckPlan, inputs: &[i64]) -> Code {
    let mut l = Lowerer {
        code: Code::default(),
        plan,
        inputs,
        num_vars: program.num_vars,
    };
    // Exact for straight-line programs, where every statement runs once
    // and growing the vector would cost as much as the run.
    l.code.ops.reserve(program.stmts.len() + 1);
    l.block(&program.stmts);
    l.code.ops.push(Op::End);
    l.code
}

/// Most distinct variables one [`Val::Sum`] takes; wider sums lower to
/// postfix.
const MAX_TERMS: usize = 6;

/// `k + Σ m·v`: an expression linear in its variables, under wrapping
/// arithmetic. Fixed-size and built in place, so lowering an expression
/// allocates and copies nothing.
#[derive(Debug, Clone, Copy, Default)]
struct Linear {
    terms: [(u32, i64); MAX_TERMS],
    n: usize,
    k: i64,
}

impl Linear {
    fn terms(&self) -> &[(u32, i64)] {
        &self.terms[..self.n]
    }

    fn as_const(&self) -> Option<i64> {
        (self.n == 0).then_some(self.k)
    }

    /// Drops the terms whose coefficient cancelled to zero.
    fn compact(&mut self) {
        let mut n = 0;
        for i in 0..self.n {
            if self.terms[i].1 != 0 {
                self.terms[n] = self.terms[i];
                n += 1;
            }
        }
        self.n = n;
    }

    /// Adds `m·v`; `false` past [`MAX_TERMS`] distinct variables.
    fn add(&mut self, v: u32, m: i64) -> bool {
        if let Some(t) = self.terms[..self.n].iter_mut().find(|t| t.0 == v) {
            t.1 = t.1.wrapping_add(m);
            return true;
        }
        if self.n == MAX_TERMS {
            self.compact();
        }
        match self.terms.get_mut(self.n) {
            Some(t) => {
                *t = (v, m);
                self.n += 1;
                true
            }
            None => false,
        }
    }

    /// The single-variable form `(v, m, k)`, if exactly one variable
    /// remains.
    fn single(&self) -> Option<(u32, i64, i64)> {
        match self.terms() {
            [(v, m)] => Some((*v, *m, self.k)),
            _ => None,
        }
    }
}

struct Lowerer<'a> {
    code: Code,
    plan: &'a CheckPlan,
    inputs: &'a [i64],
    num_vars: u32,
}

impl Lowerer<'_> {
    fn pc(&self) -> u32 {
        self.code.ops.len() as u32
    }

    /// `e` as a linear form, or `None` if it multiplies two non-constant
    /// terms or reads an input at a non-constant index.
    fn linear(&self, e: &Expr) -> Option<Linear> {
        let mut l = Linear::default();
        if !self.accumulate(e, 1, &mut l) {
            return None;
        }
        l.compact();
        Some(l)
    }

    /// The value of `e` if it is a constant for this run.
    fn constant(&self, e: &Expr) -> Option<i64> {
        match e {
            Expr::Const(c) => Some(*c),
            Expr::Var(v) if v.0 < self.num_vars => None,
            _ => self.linear(e)?.as_const(),
        }
    }

    /// Adds `scale · e` to `acc`; `false` if `e` is not linear.
    fn accumulate(&self, e: &Expr, scale: i64, acc: &mut Linear) -> bool {
        let c = match e {
            Expr::Const(c) => *c,
            Expr::Input(k) => self.inputs.get(*k).copied().unwrap_or(0),
            // Unbound variables read 0.
            Expr::Var(v) if v.0 >= self.num_vars => 0,
            Expr::Var(v) => return acc.add(v.0, scale),
            Expr::InputDyn(i) => match self.constant(i) {
                Some(idx) => input_at(self.inputs, idx),
                None => return false,
            },
            Expr::Add(a, b) => {
                return self.accumulate(a, scale, acc) && self.accumulate(b, scale, acc)
            }
            Expr::Sub(a, b) => {
                return self.accumulate(a, scale, acc)
                    && self.accumulate(b, scale.wrapping_neg(), acc)
            }
            Expr::Mul(a, b) => {
                return match (self.constant(a), self.constant(b)) {
                    (_, Some(m)) => self.accumulate(a, scale.wrapping_mul(m), acc),
                    (Some(m), _) => self.accumulate(b, scale.wrapping_mul(m), acc),
                    _ => false,
                }
            }
        };
        acc.k = acc.k.wrapping_add(scale.wrapping_mul(c));
        true
    }

    /// `e` as one postfix-free value, if it has one.
    fn simple(&mut self, e: &Expr) -> Option<Val> {
        if let Some(lin) = self.linear(e) {
            return Some(match (lin.as_const(), lin.single()) {
                (Some(c), _) => Val::Const(c),
                (_, Some((var, 1, 0))) => Val::Var(var),
                (_, Some((var, mul, add))) => Val::Lin { var, mul, add },
                _ => {
                    let terms = &mut self.code.exprs.terms;
                    let at = terms.len() as u32;
                    terms.extend_from_slice(lin.terms());
                    Val::Sum {
                        at,
                        len: lin.n as u32,
                        add: lin.k,
                    }
                }
            });
        }
        match e {
            Expr::InputDyn(i) => {
                let (var, mul, add) = self.linear(i)?.single()?;
                Some(Val::Input { var, mul, add })
            }
            _ => None,
        }
    }

    fn val(&mut self, e: &Expr) -> Val {
        // Most operands are literals or plain variables: skip the linear
        // form for them, since straight-line programs lower every
        // statement to run it once.
        match e {
            Expr::Const(c) => return Val::Const(*c),
            Expr::Var(v) if v.0 < self.num_vars => return Val::Var(v.0),
            _ => {}
        }
        if let Some(v) = self.simple(e) {
            return v;
        }
        let at = self.code.exprs.post.len() as u32;
        let depth = self.post(e);
        Val::Post {
            at,
            len: self.code.exprs.post.len() as u32 - at,
            depth,
        }
    }

    /// Emits `e` in postfix; returns the stack depth it needs.
    fn post(&mut self, e: &Expr) -> u32 {
        if let Some(v) = self.simple(e) {
            self.code.exprs.post.push(Post::Push(v));
            return 1;
        }
        let (a, b, op) = match e {
            Expr::InputDyn(i) => {
                let depth = self.post(i);
                self.code.exprs.post.push(Post::Input);
                return depth;
            }
            Expr::Add(a, b) => (a, b, Post::Add),
            Expr::Sub(a, b) => (a, b, Post::Sub),
            Expr::Mul(a, b) => (a, b, Post::Mul),
            // Leaves are always simple.
            Expr::Const(_) | Expr::Var(_) | Expr::Input(_) => unreachable!(),
        };
        let da = self.post(a);
        let db = self.post(b);
        self.code.exprs.post.push(op);
        da.max(db + 1)
    }

    fn access(&mut self, site: u32, ptr: u32, width: u8, offset: &Expr) -> Access {
        Access {
            site,
            ptr,
            width,
            offset: self.val(offset),
        }
    }

    fn mem_site(&self, site: u32) -> MemSite {
        MemSite {
            site,
            checked: self.plan.sites[site as usize] != SiteAction::Skip,
        }
    }

    fn region(&mut self, lo: &Expr, hi: &Expr) -> u32 {
        let bounds = (self.val(lo), self.val(hi));
        self.code.regions.push(bounds);
        self.code.regions.len() as u32 - 1
    }

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        let op = match stmt {
            Stmt::Let { var, expr } => Op::Let {
                var: var.0,
                val: self.val(expr),
            },
            Stmt::Alloc { ptr, size, region } => Op::Alloc {
                ptr: ptr.0,
                size: self.val(size),
                region: *region,
            },
            Stmt::Free { ptr, offset } => Op::Free {
                ptr: ptr.0,
                offset: self.val(offset),
            },
            Stmt::Realloc { ptr, new_size } => Op::Realloc {
                ptr: ptr.0,
                size: self.val(new_size),
            },
            Stmt::PtrCopy { dst, src, offset } => Op::PtrCopy {
                dst: dst.0,
                src: src.0,
                offset: self.val(offset),
            },
            Stmt::Load {
                site,
                ptr,
                offset,
                width,
                dst,
            } => {
                let acc = self.access(site.0, ptr.0, *width, offset);
                let dst = dst.map(|d| d.0);
                match &self.plan.sites[site.0 as usize] {
                    SiteAction::Skip => Op::LoadSkip { acc, dst },
                    SiteAction::Direct => Op::LoadDirect { acc, dst },
                    SiteAction::Anchored => Op::LoadAnchored { acc, dst },
                    SiteAction::Region { lo, hi } => Op::LoadRegion {
                        acc,
                        dst,
                        region: self.region(lo, hi),
                    },
                    SiteAction::Cached { cache } => Op::LoadCached {
                        acc,
                        dst,
                        slot: cache.0,
                    },
                }
            }
            Stmt::Store {
                site,
                ptr,
                offset,
                width,
                value,
            } => {
                let acc = self.access(site.0, ptr.0, *width, offset);
                let value = self.val(value);
                match &self.plan.sites[site.0 as usize] {
                    SiteAction::Skip => Op::StoreSkip { acc, value },
                    SiteAction::Direct => Op::StoreDirect { acc, value },
                    SiteAction::Anchored => Op::StoreAnchored { acc, value },
                    SiteAction::Region { lo, hi } => Op::StoreRegion {
                        acc,
                        value,
                        region: self.region(lo, hi),
                    },
                    SiteAction::Cached { cache } => Op::StoreCached {
                        acc,
                        value,
                        slot: cache.0,
                    },
                }
            }
            Stmt::MemSet {
                site,
                ptr,
                offset,
                len,
                value,
            } => Op::MemSet {
                at: self.mem_site(site.0),
                ptr: ptr.0,
                offset: self.val(offset),
                len: self.val(len),
                value: self.val(value),
            },
            Stmt::MemCpy {
                site,
                dst,
                dst_offset,
                src,
                src_offset,
                len,
            } => Op::MemCpy {
                at: self.mem_site(site.0),
                dst: dst.0,
                dst_offset: self.val(dst_offset),
                src: src.0,
                src_offset: self.val(src_offset),
                len: self.val(len),
            },
            Stmt::StrCpy {
                site,
                dst,
                dst_offset,
                src,
                src_offset,
            } => Op::StrCpy {
                at: self.mem_site(site.0),
                dst: dst.0,
                dst_offset: self.val(dst_offset),
                src: src.0,
                src_offset: self.val(src_offset),
            },
            Stmt::For {
                id,
                var,
                lo,
                hi,
                reverse,
                body,
                ..
            } => return self.for_loop(*id, var.0, lo, hi, *reverse, body),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.val(cond);
                let at = self.pc() as usize;
                self.code.ops.push(Op::IfNot { cond, to: 0 });
                self.block(then_body);
                let else_at = if else_body.is_empty() {
                    self.pc()
                } else {
                    let jump = self.pc() as usize;
                    self.code.ops.push(Op::Jump { to: 0 });
                    let else_at = self.pc();
                    self.block(else_body);
                    self.code.ops[jump] = Op::Jump { to: self.pc() };
                    else_at
                };
                self.code.ops[at] = Op::IfNot { cond, to: else_at };
                return;
            }
            Stmt::Frame { body } => {
                self.code.ops.push(Op::FramePush);
                self.block(body);
                Op::FramePop
            }
        };
        self.code.ops.push(op);
    }

    fn for_loop(
        &mut self,
        id: crate::program::LoopId,
        var: u32,
        lo: &Expr,
        hi: &Expr,
        reverse: bool,
        body: &[Stmt],
    ) {
        let (lo, hi) = (self.val(lo), self.val(hi));
        let mut pre = Span {
            start: self.code.pre_checks.len() as u32,
            len: 0,
        };
        let mut caches = Span {
            start: self.code.caches.len() as u32,
            len: 0,
        };
        if let Some(lp) = self.plan.loops.get(&id) {
            for p in &lp.pre_checks {
                let check = PreCheck {
                    ptr: p.ptr.0,
                    lo: self.val(&p.lo),
                    hi: self.val(&p.hi),
                    kind: p.kind,
                };
                self.code.pre_checks.push(check);
            }
            self.code
                .caches
                .extend(lp.caches.iter().map(|(c, p)| (c.0, p.0)));
            pre.len = lp.pre_checks.len() as u32;
            caches.len = lp.caches.len() as u32;
        }
        let counter = self.code.counters;
        self.code.counters += 1;
        let enter = self.pc() as usize;
        self.code.ops.push(Op::End); // patched below
        self.block(body);
        let body_at = enter as u32 + 1;
        self.code.ops.push(if reverse {
            Op::ForNextDown {
                counter,
                var,
                body: body_at,
            }
        } else {
            Op::ForNextUp {
                counter,
                var,
                body: body_at,
            }
        });
        let exit = self.pc();
        if caches.len > 0 {
            self.code.ops.push(Op::LoopFinal { caches });
        }
        self.code.ops[enter] = Op::ForEnter {
            counter,
            var,
            lo,
            hi,
            reverse,
            pre,
            caches,
            exit,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarId;
    use crate::ProgramBuilder;

    fn lowerer<'a>(plan: &'a CheckPlan, inputs: &'a [i64]) -> Lowerer<'a> {
        Lowerer {
            code: Code::default(),
            plan,
            inputs,
            num_vars: 8,
        }
    }

    fn v(i: u32) -> Expr {
        Expr::var(VarId(i))
    }

    #[test]
    fn affine_expressions_fold_to_one_value() {
        let prog = ProgramBuilder::new("t").build();
        let plan = CheckPlan::none(&prog);
        let inputs = [5, 7, 11];
        let mut l = lowerer(&plan, &inputs);
        assert_eq!(l.val(&(Expr::input(1) * 2 + 1)), Val::Const(15));
        assert_eq!(l.val(&v(2)), Val::Var(2));
        assert_eq!(l.val(&(v(9) + 3)), Val::Const(3), "unbound reads 0");
        assert_eq!(
            l.val(&((v(0) + 3) * 8)),
            Val::Lin {
                var: 0,
                mul: 8,
                add: 24
            }
        );
        // refcnt - refcnt + h: the cancelled variable drops out.
        assert_eq!(l.val(&(v(1) - v(1) + v(2))), Val::Var(2));
        assert_eq!(
            l.val(&Expr::input_at(v(0) + 2)),
            Val::Input {
                var: 0,
                mul: 1,
                add: 2
            }
        );
        assert_eq!(l.val(&Expr::input_at(Expr::Const(2))), Val::Const(11));
        assert!(l.code.exprs.post.is_empty());
    }

    #[test]
    fn other_expressions_evaluate_like_the_tree() {
        let prog = ProgramBuilder::new("t").build();
        let plan = CheckPlan::none(&prog);
        let inputs = [3, -1, 40, 2];
        let sums = [
            // lbm's stencil offsets and sums.
            (v(0) * 64 + v(1) - 1) * 8,
            v(0) + v(1) * 4 - Expr::Const(i64::MAX) * v(2) + v(3),
        ];
        let posts = [
            v(0) * v(1),
            Expr::input_at(v(0) + 1) * 8 + v(2),
            Expr::input_at(v(0) + v(1)),
            Expr::input_at(Expr::input_at(v(3)) - v(0)),
            v(0) - (v(1) - (v(2) - (v(3) * v(0)))),
            // One variable more than a sum takes.
            (0..7).fold(Expr::Const(1), |e, i| e + v(i) * (i as i64 + 2)),
        ];
        let mut l = lowerer(&plan, &inputs);
        let lowered: Vec<(&Expr, Val)> = sums.iter().chain(&posts).map(|e| (e, l.val(e))).collect();
        for (i, (e, val)) in lowered.iter().enumerate() {
            if i < sums.len() {
                assert!(matches!(val, Val::Sum { .. }), "{e}");
            } else {
                assert!(matches!(val, Val::Post { .. }), "{e}");
            }
        }
        for vars in [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [2, -7, 9, 1, 0, -3, 8, 8],
            [i64::MAX, i64::MIN, 3, 0, i64::MAX, 1, -1, 2],
        ] {
            for (e, val) in &lowered {
                assert_eq!(
                    val.eval(&vars, &inputs, &l.code.exprs),
                    e.eval(&vars, &inputs),
                    "{e} at {vars:?}"
                );
            }
        }
    }

    #[test]
    fn deep_postfix_uses_the_heap_stack() {
        let prog = ProgramBuilder::new("t").build();
        let plan = CheckPlan::none(&prog);
        // Right-nested products need one slot per level.
        let mut e = v(0) * v(1);
        for _ in 0..40 {
            e = v(1) * (v(0) + e);
        }
        let mut l = lowerer(&plan, &[]);
        let val = l.val(&e);
        assert!(matches!(val, Val::Post { depth, .. } if depth as usize > FIXED_DEPTH));
        let vars = [3, 5, 0, 0, 0, 0, 0, 0];
        assert_eq!(val.eval(&vars, &[], &l.code.exprs), e.eval(&vars, &[]));
    }

    #[test]
    fn control_flow_resolves_jump_targets() {
        let mut b = ProgramBuilder::new("t");
        let p = b.alloc_heap(64);
        b.for_loop(0i64, 8i64, |b, i| {
            b.if_nonzero(Expr::var(i), |b| b.store(p, Expr::var(i) * 8, 8, 1i64));
        });
        b.frame(|b| {
            let _ = b.alloc_stack(8);
        });
        let prog = b.build();
        let code = lower(&prog, &CheckPlan::none(&prog), &[]);
        let ops = &code.ops;
        assert!(matches!(ops[0], Op::Alloc { .. }));
        assert!(matches!(ops[1], Op::ForEnter { exit: 5, .. }));
        assert!(matches!(ops[2], Op::IfNot { to: 4, .. }));
        assert!(matches!(ops[3], Op::StoreSkip { .. }));
        assert!(matches!(ops[4], Op::ForNextUp { body: 2, .. }));
        assert!(matches!(ops[5], Op::FramePush));
        assert!(matches!(ops[6], Op::Alloc { .. }));
        assert!(matches!(ops[7], Op::FramePop));
        assert!(matches!(ops[8], Op::End));
        assert_eq!(code.counters, 1);
    }
}
