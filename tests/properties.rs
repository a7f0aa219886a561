//! Randomized property tests (seeded, dependency-free) on the core data
//! structures and the solver — the invariants the whole analysis relies on.
//! Each property runs over a fixed number of deterministic cases driven by
//! the corpus crate's splitmix64 [`Prng`], so failures reproduce exactly.

use pata::core::alias::{AliasGraph, Label};
use pata::corpus::Prng;
use pata::smt::{CmpOp, SatResult, Solver, SymId, Term};
use pata_ir::{Interner, VarId};

const CASES: u64 = 128;

// ====================================================================
// Alias-graph invariants
// ====================================================================

/// The operations of Fig. 5 over a small variable universe.
#[derive(Debug, Clone)]
enum Op {
    Move(u8, u8),
    Store(u8, u8),
    Load(u8, u8),
    Gep(u8, u8, u8),
    AddrOf(u8, u8),
    Const(u8),
}

fn random_op(rng: &mut Prng) -> Op {
    let a = rng.gen_range(0, 12) as u8;
    let b = rng.gen_range(0, 12) as u8;
    match rng.gen_range(0, 6) {
        0 => Op::Move(a, b),
        1 => Op::Store(a, b),
        2 => Op::Load(a, b),
        3 => Op::Gep(a, b, rng.gen_range(0, 3) as u8),
        4 => Op::AddrOf(a, b),
        _ => Op::Const(a),
    }
}

fn random_ops(rng: &mut Prng, lo: usize, hi: usize) -> Vec<Op> {
    let n = rng.gen_range(lo, hi);
    (0..n).map(|_| random_op(rng)).collect()
}

fn apply(g: &mut AliasGraph, fields: &[pata_ir::Symbol], op: &Op) {
    let v = |i: u8| VarId::from_index(i as usize);
    match op {
        Op::Move(a, b) => {
            g.handle_move(v(*a), v(*b));
        }
        Op::Store(a, b) => {
            g.handle_store(v(*a), v(*b));
        }
        Op::Load(a, b) => {
            g.handle_load(v(*a), v(*b));
        }
        Op::Gep(a, b, f) => {
            g.handle_gep(v(*a), v(*b), fields[*f as usize]);
        }
        Op::AddrOf(a, b) => {
            g.handle_addr_of(v(*a), v(*b));
        }
        Op::Const(a) => {
            g.handle_const(v(*a));
        }
    }
}

fn test_fields(interner: &mut Interner) -> Vec<pata_ir::Symbol> {
    vec![
        interner.intern("f"),
        interner.intern("g"),
        interner.intern("h"),
    ]
}

/// Per-variable residence and the sorted out-edge set of every variable's
/// node.
type Snapshot = (Vec<Option<usize>>, Vec<Vec<(String, usize)>>);

/// Structural snapshot for rollback comparison.
fn snapshot(g: &AliasGraph) -> Snapshot {
    let residence: Vec<Option<usize>> = (0..12)
        .map(|i| g.node_of_var(VarId::from_index(i)).map(|n| n.index()))
        .collect();
    let edges: Vec<Vec<(String, usize)>> = (0..12)
        .map(|i| {
            let mut out = Vec::new();
            if let Some(n) = g.node_of_var(VarId::from_index(i)) {
                for (l, t) in g.out_edges(n) {
                    out.push((format!("{l:?}"), t.index()));
                }
            }
            // Edge order within a node is not semantically meaningful.
            out.sort();
            out
        })
        .collect();
    (residence, edges)
}

/// Definition 1: at most one outgoing edge per label, and every variable
/// resides in exactly one node.
#[test]
fn alias_graph_structural_invariants() {
    let mut rng = Prng::seed_from_u64(0xa11a5);
    for case in 0..CASES {
        let mut interner = Interner::new();
        let fields = test_fields(&mut interner);
        let mut g = AliasGraph::new();
        for op in random_ops(&mut rng, 1, 60) {
            apply(&mut g, &fields, &op);
        }
        for i in 0..12 {
            let v = VarId::from_index(i);
            if let Some(n) = g.node_of_var(v) {
                assert!(g.vars(n).contains(&v), "case {case}: var not in its node");
                let edges = g.out_edges(n);
                let mut labels: Vec<Label> = edges.iter().map(|(l, _)| *l).collect();
                let before = labels.len();
                labels.sort_by_key(|l| format!("{l:?}"));
                labels.dedup();
                assert_eq!(
                    before,
                    labels.len(),
                    "case {case}: duplicate label on a node"
                );
            }
        }
    }
}

/// Rollback is an exact inverse of any operation suffix.
#[test]
fn alias_graph_rollback_is_exact() {
    let mut rng = Prng::seed_from_u64(0xb011);
    for case in 0..CASES {
        let mut interner = Interner::new();
        let fields = test_fields(&mut interner);
        let mut g = AliasGraph::new();
        for op in random_ops(&mut rng, 0, 30) {
            apply(&mut g, &fields, &op);
        }
        let before = snapshot(&g);
        let nodes_before = g.node_count();
        let mark = g.mark();
        for op in random_ops(&mut rng, 1, 30) {
            apply(&mut g, &fields, &op);
        }
        g.rollback(mark);
        assert_eq!(g.node_count(), nodes_before, "case {case}");
        assert_eq!(snapshot(&g), before, "case {case}");
    }
}

/// MOVE really merges alias classes: after `a = b`, both have the same node
/// and share every subsequent field access path.
#[test]
fn move_merges_classes() {
    let mut rng = Prng::seed_from_u64(0x30);
    for case in 0..CASES {
        let a = rng.gen_range(0, 6);
        let b = rng.gen_range(0, 6);
        if a == b {
            continue;
        }
        let mut interner = Interner::new();
        let f = interner.intern("f");
        let mut g = AliasGraph::new();
        let (va, vb) = (VarId::from_index(a), VarId::from_index(b));
        g.handle_move(va, vb);
        assert_eq!(g.node_of_var(va), g.node_of_var(vb), "case {case}");
        let (ta, tb) = (VarId::from_index(6), VarId::from_index(7));
        let na = g.handle_gep(ta, va, f);
        let nb = g.handle_gep(tb, vb, f);
        assert_eq!(na, nb, "case {case}: field paths of aliases must coincide");
    }
}

// ====================================================================
// Solver soundness
// ====================================================================

/// Constraints that are true under a random concrete assignment must never
/// be UNSAT.
#[test]
fn satisfiable_systems_never_refuted() {
    let mut rng = Prng::seed_from_u64(0x5a7);
    for case in 0..CASES {
        let n_vals = rng.gen_range(2, 8);
        let values: Vec<i64> = (0..n_vals)
            .map(|_| rng.gen_range(0, 100) as i64 - 50)
            .collect();
        let mut solver = Solver::new();
        let syms: Vec<SymId> = values.iter().map(|_| solver.fresh_symbol()).collect();
        let n_pairs = rng.gen_range(1, 20);
        for _ in 0..n_pairs {
            let i = rng.gen_range(0, values.len());
            let j = rng.gen_range(0, values.len());
            let (vi, vj) = (values[i], values[j]);
            // Assert the true relation between the two concrete values.
            let op = if vi == vj {
                CmpOp::Eq
            } else if vi < vj {
                CmpOp::Lt
            } else {
                CmpOp::Gt
            };
            solver.assert_cmp(op, Term::sym(syms[i]), Term::sym(syms[j]));
        }
        // Pin a symbol to its concrete value too.
        solver.assert_cmp(CmpOp::Eq, Term::sym(syms[0]), Term::int(values[0]));
        assert_ne!(solver.check(), SatResult::Unsat, "case {case}: {values:?}");
    }
}

/// Incremental scopes agree with batch solving on random systems: asserting
/// prefix, push, suffix must decide exactly like a fresh solver given
/// prefix + suffix — and popping must restore the prefix verdict.
#[test]
fn incremental_scopes_match_batch_solving() {
    let mut rng = Prng::seed_from_u64(0x1c4);
    let random_constraint = |rng: &mut Prng| {
        let a = SymId(rng.gen_range(0, 5) as u32);
        let b = SymId(rng.gen_range(0, 5) as u32);
        let c = rng.gen_range(0, 11) as i64 - 5;
        let op = match rng.gen_range(0, 5) {
            0 => CmpOp::Le,
            1 => CmpOp::Lt,
            2 => CmpOp::Eq,
            3 => CmpOp::Ne,
            _ => CmpOp::Ge,
        };
        pata::smt::Constraint::new(op, Term::sym(a), Term::sym(b) + Term::int(c))
    };
    for case in 0..CASES {
        let prefix: Vec<_> = (0..rng.gen_range(0, 8))
            .map(|_| random_constraint(&mut rng))
            .collect();
        let suffix: Vec<_> = (0..rng.gen_range(1, 6))
            .map(|_| random_constraint(&mut rng))
            .collect();

        let mut incremental = Solver::new();
        incremental.reserve_symbols(5);
        for c in &prefix {
            incremental.assert_constraint(c.clone());
        }
        let prefix_verdict = incremental.check();
        incremental.push();
        for c in &suffix {
            incremental.assert_constraint(c.clone());
        }

        let mut batch = Solver::new();
        batch.reserve_symbols(5);
        for c in prefix.iter().chain(&suffix) {
            batch.assert_constraint(c.clone());
        }
        assert_eq!(
            incremental.check(),
            batch.check(),
            "case {case}: {prefix:?} + {suffix:?}"
        );

        incremental.pop();
        assert_eq!(
            incremental.check(),
            prefix_verdict,
            "case {case}: pop must restore"
        );
    }
}

#[test]
fn contradiction_always_refuted() {
    let mut rng = Prng::seed_from_u64(0xc0);
    for _ in 0..CASES {
        let v = rng.gen_range(0, 200) as i64 - 100;
        let delta = rng.gen_range(1, 50) as i64;
        let mut solver = Solver::new();
        let x = solver.fresh_symbol();
        solver.assert_cmp(CmpOp::Eq, Term::sym(x), Term::int(v));
        solver.assert_cmp(CmpOp::Eq, Term::sym(x), Term::int(v + delta));
        assert_eq!(
            solver.check(),
            SatResult::Unsat,
            "x == {v} && x == {}",
            v + delta
        );
    }
}

#[test]
fn offset_chains_consistent() {
    let mut rng = Prng::seed_from_u64(0x0ff);
    for case in 0..CASES {
        // x0 = x1 + o1, x1 = x2 + o2, … — then x0 - xn == Σo must hold and
        // its negation must be refuted.
        let n = rng.gen_range(1, 10);
        let offsets: Vec<i64> = (0..n).map(|_| rng.gen_range(0, 40) as i64 - 20).collect();
        let mut solver = Solver::new();
        let syms: Vec<SymId> = (0..=offsets.len()).map(|_| solver.fresh_symbol()).collect();
        for (i, &o) in offsets.iter().enumerate() {
            solver.assert_cmp(
                CmpOp::Eq,
                Term::sym(syms[i]),
                Term::sym(syms[i + 1]) + Term::int(o),
            );
        }
        let total: i64 = offsets.iter().sum();
        solver.assert_cmp(
            CmpOp::Ne,
            Term::sym(syms[0]) - Term::sym(*syms.last().unwrap()),
            Term::int(total),
        );
        assert_eq!(solver.check(), SatResult::Unsat, "case {case}: {offsets:?}");
    }
}

// ====================================================================
// Front-end robustness
// ====================================================================

/// The lexer/parser never panic on arbitrary input — they either parse or
/// return a diagnostic.
#[test]
fn parser_total_on_arbitrary_input() {
    let mut rng = Prng::seed_from_u64(0xf022);
    for _ in 0..64 {
        let len = rng.gen_range(0, 200);
        let input: String = (0..len)
            .map(|_| {
                // Printable ASCII plus newline.
                match rng.gen_range(0, 96) {
                    95 => '\n',
                    c => (b' ' + c as u8) as char,
                }
            })
            .collect();
        let _ = pata::cc::Parser::parse_source("fuzz.c", &input);
    }
}

/// One seeded mutation of `text`: a truncation, a deleted, duplicated or
/// overwritten byte span, or an inserted token fragment.
fn mutate(rng: &mut Prng, text: &str) -> String {
    const FRAGMENTS: &[&str] = &[
        "}",
        "{",
        "(",
        ")",
        ";",
        ",",
        "*",
        "&",
        "->",
        ".",
        "=",
        "[",
        "]",
        "goto L;",
        "L:",
        "break;",
        "continue;",
        "return;",
        "return",
        "int",
        "struct",
        "void",
        "NULL",
        "if",
        "else",
        "while",
        "for",
        "0x",
        "99999999999999999999",
        "'",
        "\"",
        "/*",
        "//",
        "\\",
        "\0",
        "é",
        "#",
        ".probe = ",
        "malloc(",
        "free(",
        "&&",
        "||",
        "!",
    ];
    let mut bytes = text.as_bytes().to_vec();
    let at = rng.gen_range(0, bytes.len() + 1);
    match rng.gen_range(0, 5) {
        0 => bytes.truncate(at),
        1 => {
            let end = (at + rng.gen_range(1, 16)).min(bytes.len());
            bytes.drain(at..end);
        }
        2 => {
            let end = (at + rng.gen_range(1, 64)).min(bytes.len());
            let span = bytes[at..end].to_vec();
            bytes.splice(at..at, span);
        }
        3 => {
            for _ in 0..rng.gen_range(1, 4) {
                let i = rng.gen_range(0, bytes.len().max(1));
                if i < bytes.len() {
                    bytes[i] = rng.gen_range(0, 256) as u8;
                }
            }
        }
        _ => {
            let frag = rng.choose(FRAGMENTS).as_bytes();
            bytes.splice(at..at, frag.iter().copied());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Seeded truncations and byte mutations of generated corpus files, each
/// compiled together with an unmutated neighbour file through the whole
/// front end (lexer, parser, lowering), end in a module or diagnostics,
/// never a panic.
#[test]
fn front_end_total_on_mutated_corpus_files() {
    const MUTATION_CASES: u64 = 400;
    let mut rng = Prng::seed_from_u64(0xf022_c0de);
    let corpora: Vec<pata::corpus::Corpus> = [
        pata::corpus::OsProfile::linux().with_scale(0.1),
        pata::corpus::OsProfile::zephyr().with_scale(0.3),
    ]
    .iter()
    .map(pata::corpus::Corpus::generate)
    .collect();
    for case in 0..MUTATION_CASES {
        let corpus = rng.choose(&corpora);
        let victim = rng.choose(&corpus.files);
        let neighbour = rng.choose(&corpus.files);
        let mut text = victim.text.clone();
        for _ in 0..rng.gen_range(1, 4) {
            text = mutate(&mut rng, &text);
        }
        let outcome = std::panic::catch_unwind(|| {
            let mut cc = pata::cc::Compiler::new();
            cc.add_source(&neighbour.path, &neighbour.text);
            cc.add_source(&victim.path, &text);
            let _ = cc.compile();
        });
        assert!(
            outcome.is_ok(),
            "case {case}: the front end panicked on this mutation of {}:\n{text}",
            victim.path
        );
    }
}

/// Any corpus seed produces a compiling, verifying module.
#[test]
fn corpus_compiles_for_any_seed() {
    let mut rng = Prng::seed_from_u64(0xc02b);
    for _ in 0..24 {
        let seed = rng.next_u64() % 1_000_000;
        let profile = pata::corpus::OsProfile::tencent()
            .with_scale(0.12)
            .with_seed(seed);
        let corpus = pata::corpus::Corpus::generate(&profile);
        let module = corpus.compile().expect("generated corpus compiles");
        assert!(pata_ir::verify_module(&module).is_ok(), "seed {seed}");
    }
}
