//! Terms and constraints of the solver's input language.
//!
//! The language mirrors the paper's "tiny source language" (§3.3):
//!
//! ```text
//! ⟨exp⟩ ::= ⟨const⟩ | ⟨var⟩ | ⟨exp⟩ opb ⟨exp⟩ | opu ⟨exp⟩
//! ⟨stm⟩ ::= ⟨var⟩ = ⟨exp⟩ | brt(e) | brf(e)
//! ```
//!
//! Variables have already been mapped to symbols by the alias-aware
//! `Xm : AS → X` function (Def. 4) on the PATA side; here a [`SymId`] *is*
//! an alias set's symbol.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An SMT symbol. In PATA every symbol stands for one alias set (Def. 4),
/// which is what makes the constraint systems small.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymId(pub u32);

impl SymId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Comparison operators of the constraint language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Disequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

impl CmpOp {
    /// The comparison that holds exactly when this one does not.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Operators the linearizer cannot interpret; their applications become
/// congruence-classed opaque symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpaqueOp {
    /// Multiplication of two non-constant terms.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Right shift.
    Shr,
}

/// An expression term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// An integer constant (`NULL` is the constant 0).
    Const(i64),
    /// A symbol (one alias set).
    Sym(SymId),
    /// Addition.
    Add(Box<Term>, Box<Term>),
    /// Subtraction.
    Sub(Box<Term>, Box<Term>),
    /// Multiplication (linear only when one side is constant).
    Mul(Box<Term>, Box<Term>),
    /// An application the solver treats as uninterpreted.
    Opaque(OpaqueOp, Box<Term>, Box<Term>),
    /// Unary negation.
    Neg(Box<Term>),
}

impl Term {
    /// A constant term.
    pub fn int(v: i64) -> Term {
        Term::Const(v)
    }

    /// A symbol term.
    pub fn sym(s: SymId) -> Term {
        Term::Sym(s)
    }

    /// An uninterpreted application.
    pub fn opaque(op: OpaqueOp, lhs: Term, rhs: Term) -> Term {
        Term::Opaque(op, Box::new(lhs), Box::new(rhs))
    }
}

/// `self + rhs`.
impl Add for Term {
    type Output = Term;
    fn add(self, rhs: Term) -> Term {
        Term::Add(Box::new(self), Box::new(rhs))
    }
}

/// `self - rhs`.
impl Sub for Term {
    type Output = Term;
    fn sub(self, rhs: Term) -> Term {
        Term::Sub(Box::new(self), Box::new(rhs))
    }
}

/// `self * rhs`.
impl Mul for Term {
    type Output = Term;
    fn mul(self, rhs: Term) -> Term {
        Term::Mul(Box::new(self), Box::new(rhs))
    }
}

/// `-self`.
impl Neg for Term {
    type Output = Term;
    fn neg(self) -> Term {
        Term::Neg(Box::new(self))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v}"),
            Term::Sym(s) => write!(f, "{s}"),
            Term::Add(a, b) => write!(f, "({a} + {b})"),
            Term::Sub(a, b) => write!(f, "({a} - {b})"),
            Term::Mul(a, b) => write!(f, "({a} * {b})"),
            Term::Opaque(op, a, b) => write!(f, "({a} {op:?} {b})"),
            Term::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

/// One constraint: `lhs op rhs`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Comparison operator.
    pub op: CmpOp,
    /// Left term.
    pub lhs: Term,
    /// Right term.
    pub rhs: Term,
}

impl Constraint {
    /// Creates a constraint.
    pub fn new(op: CmpOp, lhs: Term, rhs: Term) -> Self {
        Constraint { op, lhs, rhs }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negate_involution() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn term_builders_display() {
        let t = Term::sym(SymId(0)) + Term::int(1) - Term::sym(SymId(1));
        assert_eq!(t.to_string(), "((x0 + 1) - x1)");
    }
}
