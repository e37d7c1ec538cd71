//! Scalar expressions of the mini-IR.
//!
//! Expressions are deliberately close to what LLVM's scalar-evolution and
//! constant-propagation passes reason about: integer constants, local
//! variables, program inputs, and the three arithmetic operators. Loop index
//! computations in the workloads are affine in these terms, which is what
//! lets `giantsan-analysis` recognise promotable checks the same way the
//! paper's SCEV-based pass does (§4.4.2).

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Identifier of a scalar local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A scalar expression tree.
///
/// # Example
///
/// ```
/// use giantsan_ir::Expr;
/// let e = Expr::var(giantsan_ir::VarId(0)) * 4 + 8;
/// assert_eq!(format!("{e}"), "((v0 * 4) + 8)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// An integer constant.
    Const(i64),
    /// A local variable.
    Var(VarId),
    /// The `k`-th runtime input of the program.
    Input(usize),
    /// The input at a computed index (`inputs[expr]`): a read-only data
    /// tape, used by workloads for shuffled index sequences and other
    /// data-driven values. Out-of-range indexes read 0.
    InputDyn(Box<Expr>),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two expressions.
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Shorthand for a variable reference.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// Shorthand for an input reference.
    pub fn input(k: usize) -> Expr {
        Expr::Input(k)
    }

    /// Returns the constant value if the expression is a literal constant
    /// (without any folding).
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Expr::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Evaluates the expression with wrapping 64-bit arithmetic.
    ///
    /// `vars` maps every [`VarId`] below its length to a value; `inputs` maps
    /// input indexes. Unbound variables and missing inputs evaluate to 0 (the
    /// simulator's model of an uninitialised read).
    pub fn eval(&self, vars: &[i64], inputs: &[i64]) -> i64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(v) => vars.get(v.0 as usize).copied().unwrap_or(0),
            Expr::Input(k) => inputs.get(*k).copied().unwrap_or(0),
            Expr::InputDyn(e) => input_at(inputs, e.eval(vars, inputs)),
            Expr::Add(a, b) => a.eval(vars, inputs).wrapping_add(b.eval(vars, inputs)),
            Expr::Sub(a, b) => a.eval(vars, inputs).wrapping_sub(b.eval(vars, inputs)),
            Expr::Mul(a, b) => a.eval(vars, inputs).wrapping_mul(b.eval(vars, inputs)),
        }
    }

    /// Returns every variable the expression reads.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Const(_) | Expr::Input(_) => {}
            Expr::Var(v) => out.push(*v),
            Expr::InputDyn(e) => e.collect_vars(out),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Shorthand for a dynamically-indexed input read.
    pub fn input_at(idx: Expr) -> Expr {
        Expr::InputDyn(Box::new(idx))
    }

    /// Returns `true` if the expression reads any of the given variables.
    pub fn uses_any(&self, vars: &[VarId]) -> bool {
        self.vars().iter().any(|v| vars.contains(v))
    }
}

/// `inputs[idx]`, or 0 for a negative or out-of-range index.
#[inline]
pub(crate) fn input_at(inputs: &[i64], idx: i64) -> i64 {
    usize::try_from(idx)
        .ok()
        .and_then(|i| inputs.get(i))
        .copied()
        .unwrap_or(0)
}

impl From<i64> for Expr {
    fn from(c: i64) -> Self {
        Expr::Const(c)
    }
}

impl From<VarId> for Expr {
    fn from(v: VarId) -> Self {
        Expr::Var(v)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $variant:ident) => {
        impl $trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::$variant(Box::new(self), Box::new(rhs))
            }
        }
        impl $trait<i64> for Expr {
            type Output = Expr;
            fn $method(self, rhs: i64) -> Expr {
                Expr::$variant(Box::new(self), Box::new(Expr::Const(rhs)))
            }
        }
    };
}

impl_binop!(Add, add, Add);
impl_binop!(Sub, sub, Sub);
impl_binop!(Mul, mul, Mul);

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Input(k) => write!(f, "in{k}"),
            Expr::InputDyn(e) => write!(f, "in[{e}]"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_basics() {
        let vars = [10, 20];
        let inputs = [100];
        let e = Expr::var(VarId(0)) * 4 + 8;
        assert_eq!(e.eval(&vars, &inputs), 48);
        let e = Expr::input(0) - Expr::var(VarId(1));
        assert_eq!(e.eval(&vars, &inputs), 80);
        assert_eq!(Expr::Const(-3).eval(&vars, &inputs), -3);
    }

    #[test]
    fn unbound_reads_are_zero() {
        let e = Expr::var(VarId(9)) + Expr::input(9);
        assert_eq!(e.eval(&[], &[]), 0);
    }

    #[test]
    fn wrapping_semantics() {
        let e = Expr::Const(i64::MAX) + 1;
        assert_eq!(e.eval(&[], &[]), i64::MIN);
    }

    #[test]
    fn var_collection() {
        let e = (Expr::var(VarId(0)) + Expr::var(VarId(2))) * Expr::input(0);
        assert_eq!(e.vars(), vec![VarId(0), VarId(2)]);
        assert!(e.uses_any(&[VarId(2)]));
        assert!(!e.uses_any(&[VarId(1)]));
    }

    #[test]
    fn input_dyn_semantics() {
        let inputs = [10, 20, 30];
        // inputs[v0] with v0 = 2.
        let e = Expr::input_at(Expr::var(VarId(0)));
        assert_eq!(e.eval(&[2], &inputs), 30);
        // Negative and out-of-range indexes read 0.
        assert_eq!(e.eval(&[-1], &inputs), 0);
        assert_eq!(e.eval(&[99], &inputs), 0);
        // Nested arithmetic in the index.
        let e = Expr::input_at(Expr::var(VarId(0)) + 1) * 2;
        assert_eq!(e.eval(&[0], &inputs), 40);
        // Vars inside the index are collected.
        assert_eq!(Expr::input_at(Expr::var(VarId(3))).vars(), vec![VarId(3)]);
        assert_eq!(format!("{}", Expr::input_at(Expr::Const(7))), "in[7]");
    }

    #[test]
    fn conversions_and_display() {
        let e: Expr = 7i64.into();
        assert_eq!(e.as_const(), Some(7));
        let v: Expr = VarId(3).into();
        assert_eq!(v.as_const(), None);
        assert_eq!(format!("{}", Expr::input(2) - 1), "(in2 - 1)");
    }
}
