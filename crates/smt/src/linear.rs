//! Linearization of terms into `Σ coeffᵢ·symᵢ + constant` form.
//!
//! Non-linear sub-terms are replaced by congruence-classed opaque symbols
//! supplied by the caller (the solver hash-conses them), so the linear form
//! is always exact over the extended symbol space.

use crate::term::{OpaqueOp, SymId, Term};
use std::collections::BTreeMap;
use std::ops::{Add, Sub};

/// A linear expression: `Σ coeff·sym + konst`.
///
/// Coefficient maps never contain zero entries, so structural equality is
/// semantic equality.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    /// Coefficients per symbol (no zero entries).
    pub coeffs: BTreeMap<SymId, i64>,
    /// The constant offset.
    pub konst: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(v: i64) -> Self {
        LinExpr {
            coeffs: BTreeMap::new(),
            konst: v,
        }
    }

    /// A single-symbol expression.
    pub fn symbol(s: SymId) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(s, 1);
        LinExpr { coeffs, konst: 0 }
    }

    /// Adds `coeff·sym` in place, dropping zero entries.
    pub fn add_term(&mut self, sym: SymId, coeff: i64) {
        let entry = self.coeffs.entry(sym).or_insert(0);
        *entry = entry.saturating_add(coeff);
        if *entry == 0 {
            self.coeffs.remove(&sym);
        }
    }

    /// `self * k`.
    pub fn scale(mut self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        for c in self.coeffs.values_mut() {
            *c = c.saturating_mul(k);
        }
        self.coeffs.retain(|_, c| *c != 0);
        self.konst = self.konst.saturating_mul(k);
        self
    }

    /// Whether the expression is a pure constant.
    pub fn as_const(&self) -> Option<i64> {
        if self.coeffs.is_empty() {
            Some(self.konst)
        } else {
            None
        }
    }

    /// If `self` is `±1·sym + c`, returns `(sym, coeff, c)`.
    pub fn as_single(&self) -> Option<(SymId, i64, i64)> {
        if self.coeffs.len() == 1 {
            let (&s, &c) = self.coeffs.iter().next().unwrap();
            if c == 1 || c == -1 {
                return Some((s, c, self.konst));
            }
        }
        None
    }

    /// If `self` is `x - y + c`, returns `(x, y, c)`.
    pub fn as_difference(&self) -> Option<(SymId, SymId, i64)> {
        if self.coeffs.len() == 2 {
            let mut pos = None;
            let mut neg = None;
            for (&s, &c) in &self.coeffs {
                match c {
                    1 => pos = Some(s),
                    -1 => neg = Some(s),
                    _ => return None,
                }
            }
            if let (Some(p), Some(n)) = (pos, neg) {
                return Some((p, n, self.konst));
            }
        }
        None
    }
}

/// `self + other`.
impl Add<&LinExpr> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, other: &LinExpr) -> LinExpr {
        for (&s, &c) in &other.coeffs {
            self.add_term(s, c);
        }
        self.konst = self.konst.saturating_add(other.konst);
        self
    }
}

/// `self - other`.
impl Sub<&LinExpr> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, other: &LinExpr) -> LinExpr {
        for (&s, &c) in &other.coeffs {
            self.add_term(s, -c);
        }
        self.konst = self.konst.saturating_sub(other.konst);
        self
    }
}

/// A canonical key identifying an opaque application for congruence
/// hash-consing: same operator + same linearized operands ⇒ same symbol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OpaqueKey {
    /// The uninterpreted operator.
    pub op: OpaqueOp,
    /// Canonicalized left operand (sorted coeff pairs + constant).
    pub lhs: (Vec<(SymId, i64)>, i64),
    /// Canonicalized right operand.
    pub rhs: (Vec<(SymId, i64)>, i64),
}

fn canon(e: &LinExpr) -> (Vec<(SymId, i64)>, i64) {
    (e.coeffs.iter().map(|(&s, &c)| (s, c)).collect(), e.konst)
}

/// Provides fresh/congruent symbols for opaque applications.
pub trait OpaqueInterner {
    /// Returns the symbol for an opaque application, reusing symbols for
    /// congruent keys.
    fn opaque_symbol(&mut self, key: OpaqueKey) -> SymId;
}

/// Linearizes `term`, sending non-linear parts through `interner`.
pub fn linearize<I: OpaqueInterner>(term: &Term, interner: &mut I) -> LinExpr {
    match term {
        Term::Const(v) => LinExpr::constant(*v),
        Term::Sym(s) => LinExpr::symbol(*s),
        Term::Add(a, b) => linearize(a, interner) + &linearize(b, interner),
        Term::Sub(a, b) => linearize(a, interner) - &linearize(b, interner),
        Term::Neg(a) => LinExpr::zero() - &linearize(a, interner),
        Term::Mul(a, b) => {
            let la = linearize(a, interner);
            let lb = linearize(b, interner);
            if let Some(k) = la.as_const() {
                lb.scale(k)
            } else if let Some(k) = lb.as_const() {
                la.scale(k)
            } else {
                let key = OpaqueKey {
                    op: OpaqueOp::Mul,
                    lhs: canon(&la),
                    rhs: canon(&lb),
                };
                LinExpr::symbol(interner.opaque_symbol(key))
            }
        }
        Term::Opaque(op, a, b) => {
            let la = linearize(a, interner);
            let lb = linearize(b, interner);
            // Constant-fold fully constant applications where semantics are
            // clear; otherwise intern.
            if let (Some(x), Some(y)) = (la.as_const(), lb.as_const()) {
                if let Some(v) = eval_opaque(*op, x, y) {
                    return LinExpr::constant(v);
                }
            }
            let key = OpaqueKey {
                op: *op,
                lhs: canon(&la),
                rhs: canon(&lb),
            };
            LinExpr::symbol(interner.opaque_symbol(key))
        }
    }
}

fn eval_opaque(op: OpaqueOp, a: i64, b: i64) -> Option<i64> {
    match op {
        OpaqueOp::Mul => a.checked_mul(b),
        OpaqueOp::Div => a.checked_div(b),
        OpaqueOp::Rem => a.checked_rem(b),
        OpaqueOp::And => Some(a & b),
        OpaqueOp::Or => Some(a | b),
        OpaqueOp::Xor => Some(a ^ b),
        OpaqueOp::Shl => {
            if (0..64).contains(&b) {
                a.checked_shl(b as u32)
            } else {
                None
            }
        }
        OpaqueOp::Shr => {
            if (0..64).contains(&b) {
                a.checked_shr(b as u32)
            } else {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct TestInterner {
        next: u32,
        map: HashMap<OpaqueKey, SymId>,
    }

    impl TestInterner {
        fn new() -> Self {
            TestInterner {
                next: 1000,
                map: HashMap::new(),
            }
        }
    }

    impl OpaqueInterner for TestInterner {
        fn opaque_symbol(&mut self, key: OpaqueKey) -> SymId {
            *self.map.entry(key).or_insert_with(|| {
                let s = SymId(self.next);
                self.next += 1;
                s
            })
        }
    }

    #[test]
    fn linear_arithmetic_folds() {
        let mut i = TestInterner::new();
        // (x + 1) - (x - 2) == 3
        let x = SymId(0);
        let t = Term::sym(x) + Term::int(1) - (Term::sym(x) - Term::int(2));
        let lin = linearize(&t, &mut i);
        assert_eq!(lin.as_const(), Some(3));
    }

    #[test]
    fn difference_form_detected() {
        let mut i = TestInterner::new();
        let (x, y) = (SymId(0), SymId(1));
        let t = Term::sym(x) - Term::sym(y) + Term::int(5);
        let lin = linearize(&t, &mut i);
        assert_eq!(lin.as_difference(), Some((x, y, 5)));
    }

    #[test]
    fn mul_by_const_is_linear() {
        let mut i = TestInterner::new();
        let x = SymId(0);
        let t = Term::sym(x) * Term::int(3) + Term::int(1);
        let lin = linearize(&t, &mut i);
        assert_eq!(lin.coeffs.get(&x), Some(&3));
        assert_eq!(lin.konst, 1);
        assert!(i.map.is_empty());
    }

    #[test]
    fn nonlinear_mul_congruent() {
        let mut i = TestInterner::new();
        let (x, y) = (SymId(0), SymId(1));
        let t1 = Term::sym(x) * Term::sym(y);
        let t2 = Term::sym(x) * Term::sym(y);
        let l1 = linearize(&t1, &mut i);
        let l2 = linearize(&t2, &mut i);
        assert_eq!(l1, l2);
        assert_eq!(i.map.len(), 1);
    }

    #[test]
    fn opaque_constant_folds() {
        let mut i = TestInterner::new();
        let t = Term::opaque(OpaqueOp::And, Term::int(0b1100), Term::int(0b1010));
        let lin = linearize(&t, &mut i);
        assert_eq!(lin.as_const(), Some(0b1000));
    }

    #[test]
    fn single_symbol_form() {
        let mut i = TestInterner::new();
        let x = SymId(7);
        let t = Term::int(4) - Term::sym(x);
        let lin = linearize(&t, &mut i);
        assert_eq!(lin.as_single(), Some((x, -1, 4)));
    }
}
