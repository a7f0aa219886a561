//! IR-level API tests: drive the analyzer on modules built directly with
//! [`pata_ir::FunctionBuilder`] — the integration path for tools that
//! produce PIR from their own front-ends (e.g. an LLVM-bitcode importer).

use pata_core::{AnalysisConfig, AnalysisSession, BugKind};
use pata_ir::{CmpOp, ConstVal, FunctionBuilder, Module, Operand, Type};

fn analyze(module: Module) -> pata_core::SessionOutcome {
    AnalysisSession::new(AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::all_checkers()
    })
    .analyze_module(module)
}

/// Hand-builds the paper's Fig. 7 `foo`/`bar` pair with a null dereference:
///
/// ```text
/// bar(p) { r = &p->s; t = *r; a = *t; }          // deref of t
/// foo(p) { r = &p->s; t = *r; if (!t) bar(p); }  // t NULL on that path
/// ```
#[test]
fn fig7_hand_built_ir() {
    let mut m = Module::new();
    let file = m.add_file("fig7.c");
    let s_field = m.interner.intern("s");

    // bar
    let mut b = FunctionBuilder::new(&mut m, "bar", file);
    let p_bar = b.param("p", Type::ptr(Type::Int));
    let r = b.temp(Type::ptr(Type::ptr(Type::Int)));
    let t = b.temp(Type::ptr(Type::Int));
    let a = b.temp(Type::Int);
    b.gep(r, p_bar, s_field, 10);
    b.load(t, r, 11);
    b.load(a, t, 12);
    b.ret(None, 13);
    let bar = b.finish();

    // foo
    let mut b = FunctionBuilder::new(&mut m, "foo", file);
    let p = b.param("p", Type::ptr(Type::Int));
    let r = b.temp(Type::ptr(Type::ptr(Type::Int)));
    let t = b.temp(Type::ptr(Type::Int));
    let cond = b.temp(Type::Bool);
    b.gep(r, p, s_field, 2);
    b.load(t, r, 3);
    b.cmp(
        cond,
        CmpOp::Eq,
        Operand::Var(t),
        Operand::Const(ConstVal::Null),
        4,
    );
    let then_bb = b.new_block();
    let else_bb = b.new_block();
    b.branch(cond, then_bb, else_bb, 4);
    b.switch_to(then_bb);
    b.call(None, pata_ir::Callee::Direct(bar), vec![Operand::Var(p)], 5);
    b.ret(None, 6);
    b.switch_to(else_bb);
    b.ret(None, 8);
    b.finish();

    assert!(pata_ir::verify_module(&m).is_ok());
    let out = analyze(m);
    let npd: Vec<_> = out
        .report
        .reports
        .iter()
        .filter(|r| r.kind == BugKind::NullPointerDeref)
        .collect();
    assert_eq!(npd.len(), 1, "{:?}", out.report.reports);
    assert_eq!(npd[0].function, "bar");
    assert_eq!(npd[0].site_line, 12, "the `a = *t` load in bar");
    assert_eq!(npd[0].origin_line, 4, "the `if (!t)` branch in foo");
}

/// A leak built straight from IR: malloc, a conditional early return, a
/// free on the fall-through.
#[test]
fn leak_hand_built_ir() {
    let mut m = Module::new();
    let file = m.add_file("leak.c");
    let mut b = FunctionBuilder::new(&mut m, "grab", file);
    let n = b.param("n", Type::Int);
    let p = b.local("p", Type::ptr(Type::Int));
    b.malloc(p, 2);
    let cond = b.temp(Type::Bool);
    b.cmp(
        cond,
        CmpOp::Lt,
        Operand::Var(n),
        Operand::Const(ConstVal::Int(0)),
        3,
    );
    let early = b.new_block();
    let rest = b.new_block();
    b.branch(cond, early, rest, 3);
    b.switch_to(early);
    b.ret(Some(Operand::Const(ConstVal::Int(-1))), 4);
    b.switch_to(rest);
    b.free(p, 6);
    b.ret(Some(Operand::Const(ConstVal::Int(0))), 7);
    b.finish();

    let out = analyze(m);
    let ml: Vec<_> = out
        .report
        .reports
        .iter()
        .filter(|r| r.kind == BugKind::MemoryLeak)
        .collect();
    assert_eq!(ml.len(), 1, "{:?}", out.report.reports);
    assert_eq!(ml[0].site_line, 4);
}

/// State sharing across an IR-level store/load roundtrip through a field.
#[test]
fn store_load_alias_roundtrip_ir() {
    let mut m = Module::new();
    let file = m.add_file("rt.c");
    let f = m.interner.intern("slot");
    let mut b = FunctionBuilder::new(&mut m, "rt", file);
    let d = b.param("d", Type::ptr(Type::Int));
    let null_ptr = b.local("np", Type::ptr(Type::Int));
    let gep1 = b.temp(Type::ptr(Type::ptr(Type::Int)));
    let gep2 = b.temp(Type::ptr(Type::ptr(Type::Int)));
    let loaded = b.temp(Type::ptr(Type::Int));
    let sink = b.temp(Type::Int);
    // np = NULL; d->slot = np; loaded = d->slot; sink = *loaded;
    b.assign_const(null_ptr, ConstVal::Null, 2);
    b.gep(gep1, d, f, 3);
    b.store(gep1, null_ptr, 3);
    b.gep(gep2, d, f, 4);
    b.load(loaded, gep2, 4);
    b.load(sink, loaded, 5);
    b.ret(None, 6);
    b.finish();

    let out = analyze(m);
    assert!(
        out.report
            .reports
            .iter()
            .any(|r| r.kind == BugKind::NullPointerDeref && r.site_line == 5),
        "NULL must survive the store/load roundtrip: {:?}",
        out.report.reports
    );
}

/// Budgets bound hand-built pathological CFGs (2^20 paths).
#[test]
fn exponential_cfg_is_bounded() {
    let mut m = Module::new();
    let file = m.add_file("exp.c");
    let mut b = FunctionBuilder::new(&mut m, "wide", file);
    let x = b.param("x", Type::Int);
    // 20 sequential diamonds.
    for i in 0..20u32 {
        let c = b.temp(Type::Bool);
        b.cmp(
            c,
            CmpOp::Gt,
            Operand::Var(x),
            Operand::Const(ConstVal::Int(i as i64)),
            i + 1,
        );
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(c, t, e, i + 1);
        b.switch_to(t);
        b.jump(j, i + 1);
        b.switch_to(e);
        b.jump(j, i + 1);
        b.switch_to(j);
    }
    b.ret(None, 30);
    b.finish();

    let config = AnalysisConfig {
        threads: 1,
        budget: pata_core::PathBudget {
            max_paths: 100,
            ..Default::default()
        },
        ..AnalysisConfig::default()
    };
    let out = AnalysisSession::new(config).analyze_module(m);
    assert!(
        out.stats.paths_explored <= 101,
        "budget must bound exploration"
    );
    assert_eq!(out.stats.budget_exhausted_roots, 1);
}
