//! Solver scenario tests: the constraint shapes PATA's path validation
//! actually produces, plus robustness corners.

use pata_smt::{CmpOp, OpaqueOp, SatResult, Solver, Term};

fn solver_with(n: usize) -> (Solver, Vec<pata_smt::SymId>) {
    let mut s = Solver::new();
    let syms = (0..n).map(|_| s.fresh_symbol()).collect();
    (s, syms)
}

#[test]
fn constant_only_constraints() {
    let mut s = Solver::new();
    s.assert_cmp(CmpOp::Lt, Term::int(1), Term::int(2));
    s.assert_cmp(CmpOp::Ne, Term::int(3), Term::int(4));
    assert_eq!(s.check(), SatResult::Sat);
    s.assert_cmp(CmpOp::Ge, Term::int(1), Term::int(2));
    assert_eq!(s.check(), SatResult::Unsat);
}

#[test]
fn constant_on_left_normalizes() {
    let (mut s, syms) = solver_with(1);
    // 5 < x and x < 5 contradict regardless of operand order.
    s.assert_cmp(CmpOp::Lt, Term::int(5), Term::sym(syms[0]));
    s.assert_cmp(CmpOp::Lt, Term::sym(syms[0]), Term::int(5));
    assert_eq!(s.check(), SatResult::Unsat);
}

#[test]
fn boundary_inclusive_exclusive() {
    let (mut s, syms) = solver_with(1);
    s.assert_cmp(CmpOp::Ge, Term::sym(syms[0]), Term::int(5));
    s.assert_cmp(CmpOp::Le, Term::sym(syms[0]), Term::int(5));
    assert_eq!(s.check(), SatResult::Sat, "x == 5 satisfies both");
    s.assert_cmp(CmpOp::Ne, Term::sym(syms[0]), Term::int(5));
    assert_eq!(s.check(), SatResult::Unsat);
}

#[test]
fn long_equality_chain_with_contradiction_at_ends() {
    let (mut s, syms) = solver_with(64);
    for w in syms.windows(2) {
        s.assert_cmp(CmpOp::Eq, Term::sym(w[0]), Term::sym(w[1]));
    }
    s.assert_cmp(CmpOp::Eq, Term::sym(syms[0]), Term::int(1));
    s.assert_cmp(CmpOp::Eq, Term::sym(syms[63]), Term::int(2));
    assert_eq!(s.check(), SatResult::Unsat);
}

#[test]
fn npd_branch_shape_feasible() {
    // p == NULL taken, then an unrelated guard: the validator's common case.
    let (mut s, syms) = solver_with(3);
    let (p, state, count) = (syms[0], syms[1], syms[2]);
    s.assert_cmp(CmpOp::Eq, Term::sym(p), Term::int(0));
    s.assert_cmp(CmpOp::Gt, Term::sym(state), Term::int(2));
    s.assert_cmp(CmpOp::Eq, Term::sym(count), Term::sym(state) + Term::int(1));
    assert_eq!(s.check(), SatResult::Sat);
}

#[test]
fn loop_exit_shape() {
    // i0 == 0, i0 < n, i1 == i0 + 1, i1 >= n  ⇒ n == 1: feasible.
    let (mut s, syms) = solver_with(3);
    let (i0, i1, n) = (syms[0], syms[1], syms[2]);
    s.assert_cmp(CmpOp::Eq, Term::sym(i0), Term::int(0));
    s.assert_cmp(CmpOp::Lt, Term::sym(i0), Term::sym(n));
    s.assert_cmp(CmpOp::Eq, Term::sym(i1), Term::sym(i0) + Term::int(1));
    s.assert_cmp(CmpOp::Ge, Term::sym(i1), Term::sym(n));
    assert_eq!(s.check(), SatResult::Sat);
    // Additionally requiring n >= 2 contradicts.
    s.assert_cmp(CmpOp::Ge, Term::sym(n), Term::int(2));
    assert_eq!(s.check(), SatResult::Unsat);
}

#[test]
fn subtraction_and_negation() {
    let (mut s, syms) = solver_with(2);
    let (a, b) = (syms[0], syms[1]);
    s.assert_cmp(CmpOp::Eq, Term::sym(a) - Term::sym(b), Term::int(10));
    s.assert_cmp(CmpOp::Eq, Term::sym(b), Term::int(-3));
    s.assert_cmp(CmpOp::Ne, Term::sym(a), Term::int(7));
    assert_eq!(s.check(), SatResult::Unsat, "a must be 7");
}

#[test]
fn multiplication_by_negative_constant() {
    let (mut s, syms) = solver_with(1);
    // -2x <= -10  ⇒  x >= 5.
    s.assert_cmp(
        CmpOp::Le,
        Term::sym(syms[0]) * Term::int(-2),
        Term::int(-10),
    );
    s.assert_cmp(CmpOp::Lt, Term::sym(syms[0]), Term::int(5));
    assert_eq!(s.check(), SatResult::Unsat);
}

#[test]
fn opaque_bitops_fold_on_constants() {
    let mut s = Solver::new();
    let t = Term::opaque(OpaqueOp::Shl, Term::int(1), Term::int(4));
    s.assert_cmp(CmpOp::Eq, t, Term::int(16));
    assert_eq!(s.check(), SatResult::Sat);
    let t2 = Term::opaque(OpaqueOp::Or, Term::int(0b01), Term::int(0b10));
    s.assert_cmp(CmpOp::Ne, t2, Term::int(3));
    assert_eq!(s.check(), SatResult::Unsat);
}

#[test]
fn opaque_variable_terms_stay_open() {
    let (mut s, syms) = solver_with(2);
    let masked = Term::opaque(OpaqueOp::And, Term::sym(syms[0]), Term::int(0xFF));
    s.assert_cmp(CmpOp::Gt, masked.clone(), Term::int(0));
    s.assert_cmp(CmpOp::Eq, Term::sym(syms[1]), masked);
    // Congruent opaque terms share a symbol: syms[1] > 0 must follow.
    s.assert_cmp(CmpOp::Le, Term::sym(syms[1]), Term::int(0));
    assert_eq!(s.check(), SatResult::Unsat);
}

#[test]
fn large_magnitudes_no_overflow_panic() {
    let (mut s, syms) = solver_with(2);
    s.assert_cmp(CmpOp::Eq, Term::sym(syms[0]), Term::int(i64::MAX / 2));
    s.assert_cmp(
        CmpOp::Eq,
        Term::sym(syms[1]),
        Term::sym(syms[0]) + Term::int(i64::MAX / 2),
    );
    // Saturating arithmetic: must not panic; result may be Sat or Unknown.
    let r = s.check();
    assert_ne!(r, SatResult::Unsat);
}

#[test]
fn many_disequalities() {
    let (mut s, syms) = solver_with(10);
    for (i, &x) in syms.iter().enumerate() {
        s.assert_cmp(CmpOp::Eq, Term::sym(x), Term::int(i as i64));
    }
    for w in syms.windows(2) {
        s.assert_cmp(CmpOp::Ne, Term::sym(w[0]), Term::sym(w[1]));
    }
    assert_eq!(s.check(), SatResult::Sat);
}

#[test]
fn stats_track_unknown_fragment() {
    let (mut s, syms) = solver_with(3);
    s.assert_cmp(
        CmpOp::Gt,
        Term::sym(syms[0]) * Term::sym(syms[1]) + Term::sym(syms[2]) + Term::sym(syms[0]),
        Term::int(0),
    );
    let (r, stats) = s.check_with_stats();
    assert_eq!(r, SatResult::Unknown);
    assert_eq!(stats.unknown, 1);
}
