//! Front-end integration tests: tricky syntax, control flow and lowering
//! corners that the corpus generator and real OS code rely on.

use pata_cc::{compile_one, Compiler};
use pata_ir::{verify_module, Callee, InstKind, Terminator};

fn compile(src: &str) -> pata_ir::Module {
    let m = compile_one("fe.c", src).expect("compiles");
    assert!(verify_module(&m).is_ok(), "verify: {:?}", verify_module(&m));
    m
}

fn body_kinds(m: &pata_ir::Module, func: &str) -> Vec<String> {
    let f = m.function(m.function_by_name(func).unwrap());
    f.blocks()
        .iter()
        .flat_map(|b| &b.insts)
        .map(|i| format!("{:?}", std::mem::discriminant(&i.kind)))
        .collect()
}

#[test]
fn goto_backward_forms_loop() {
    let m = compile(
        r#"
        int f(int n) {
            int total = 0;
        again:
            total = total + 1;
            if (total < n) {
                goto again;
            }
            return total;
        }
        "#,
    );
    let f = m.function(m.function_by_name("f").unwrap());
    let has_back = f
        .blocks()
        .iter()
        .enumerate()
        .any(|(bi, b)| b.term.successors().iter().any(|s| s.index() < bi));
    assert!(has_back, "backward goto must create a back edge");
}

#[test]
fn while_true_with_break() {
    let m = compile(
        r#"
        int f(int n) {
            int i = 0;
            while (1) {
                i = i + 1;
                if (i > n) {
                    break;
                }
            }
            return i;
        }
        "#,
    );
    assert!(m.function_by_name("f").is_some());
}

#[test]
fn continue_in_for() {
    compile(
        r#"
        int f(int n) {
            int acc = 0;
            int i;
            for (i = 0; i < n; i++) {
                if (i == 3) {
                    continue;
                }
                acc += i;
            }
            return acc;
        }
        "#,
    );
}

#[test]
fn nested_field_chain() {
    let m = compile(
        r#"
        struct inner { int x; };
        struct middle { struct inner *in; };
        struct outer { struct middle *mid; };
        int f(struct outer *o) {
            return o->mid->in->x;
        }
        "#,
    );
    let geps = body_kinds(&m, "f")
        .iter()
        .filter(|k| {
            let probe = InstKind::Gep {
                dst: pata_ir::VarId::from_index(0),
                base: pata_ir::VarId::from_index(0),
                field: m.interner.get("x").unwrap(),
            };
            **k == format!("{:?}", std::mem::discriminant(&probe))
        })
        .count();
    assert_eq!(geps, 3, "three field hops");
}

#[test]
fn for_with_empty_clauses() {
    compile(
        r#"
        int f(void) {
            int i = 0;
            for (;;) {
                i++;
                if (i > 3) {
                    break;
                }
            }
            return i;
        }
        "#,
    );
}

#[test]
fn global_read_write() {
    let m = compile(
        r#"
        int g_counter;
        void bump(void) { g_counter = g_counter + 1; }
        int read_it(void) { return g_counter; }
        "#,
    );
    let g = m.globals();
    assert_eq!(g.len(), 1);
    assert_eq!(m.var(g[0]).name, "g_counter");
}

#[test]
fn call_chain_in_expression() {
    let m = compile(
        r#"
        int a(int x) { return x + 1; }
        int b(int x) { return a(x) * a(x + 1); }
        "#,
    );
    let f = m.function(m.function_by_name("b").unwrap());
    let calls = f
        .blocks()
        .iter()
        .flat_map(|bl| &bl.insts)
        .filter(|i| {
            matches!(
                i.kind,
                InstKind::Call {
                    callee: Callee::Direct(_),
                    ..
                }
            )
        })
        .count();
    assert_eq!(calls, 2);
}

#[test]
fn cast_chain_transparent() {
    compile(
        r#"
        struct a { int x; };
        struct b { int y; };
        int f(int *raw) {
            struct a *pa = (struct a *)raw;
            struct b *pb = (struct b *)(struct a *)raw;
            return pa->x + pb->y;
        }
        "#,
    );
}

#[test]
fn char_and_hex_literals() {
    compile(
        r#"
        int f(int c) {
            if (c == 'x') {
                return 0x1F;
            }
            return 'a' + 1;
        }
        "#,
    );
}

#[test]
fn string_literals_as_arguments() {
    compile(
        r#"
        void f(int code) {
            log_warn("something failed", code);
            panic("fatal: unrecoverable\n");
        }
        "#,
    );
}

#[test]
fn logical_ops_in_value_position() {
    compile(
        r#"
        int f(int a, int b) {
            int both = a > 0 && b > 0;
            int either = a > 0 || b > 0;
            return both + either;
        }
        "#,
    );
}

#[test]
fn unary_minus_and_bitnot() {
    compile(
        r#"
        int f(int x) {
            int neg = -x;
            int inv = ~x;
            return neg ^ inv;
        }
        "#,
    );
}

#[test]
fn return_in_all_branches() {
    let m = compile(
        r#"
        int f(int c) {
            if (c > 0) {
                return 1;
            } else {
                return 2;
            }
        }
        "#,
    );
    let f = m.function(m.function_by_name("f").unwrap());
    let rets = f
        .blocks()
        .iter()
        .filter(|b| matches!(b.term, Terminator::Ret(Some(_))))
        .count();
    assert!(rets >= 2);
}

#[test]
fn break_outside_loop_is_sema_error() {
    let mut cc = Compiler::new();
    cc.add_source("bad.c", "void f(void) { break; }");
    let err = cc.compile().unwrap_err();
    assert!(err.iter().any(|d| d.message.contains("break")), "{err:?}");
}

#[test]
fn unknown_variable_assignment_is_sema_error() {
    let mut cc = Compiler::new();
    cc.add_source("bad.c", "void f(void) { nonexistent = 1; }");
    let err = cc.compile().unwrap_err();
    assert!(
        err.iter().any(|d| d.message.contains("unknown variable")),
        "{err:?}"
    );
}

#[test]
fn multiple_files_share_structs() {
    let mut cc = Compiler::new();
    cc.add_source("defs.c", "struct shared { int v; };");
    cc.add_source(
        "use.c",
        "struct shared { int v; }; int f(struct shared *s) { return s->v; }",
    );
    let m = cc.compile().unwrap();
    assert!(m.struct_by_name("shared").is_some());
}

#[test]
fn scopes_shadow_correctly() {
    compile(
        r#"
        int f(int x) {
            int y = x;
            if (x > 0) {
                int y = 2 * x;
                return y;
            }
            return y;
        }
        "#,
    );
}

#[test]
fn array_field_in_struct() {
    compile(
        r#"
        struct buf { int data[16]; int len; };
        int f(struct buf *b) {
            return b->len;
        }
        "#,
    );
}

#[test]
fn function_pointer_value_lowered_as_funcaddr() {
    let m = compile(
        r#"
        int cb(int x) { return x; }
        void reg(void) {
            install_handler(cb);
        }
        "#,
    );
    let f = m.function(m.function_by_name("reg").unwrap());
    let has_fa = f
        .blocks()
        .iter()
        .flat_map(|b| &b.insts)
        .any(|i| matches!(i.kind, InstKind::FuncAddr { .. }));
    assert!(has_fa);
}

#[test]
fn assignment_in_condition_value() {
    let m = compile(
        r#"
        int f(void) {
            int *p;
            if ((p = acquire()) == NULL) {
                return -1;
            }
            return *p;
        }
        "#,
    );
    assert!(m.function_by_name("f").is_some());
}

#[test]
fn lines_attributed_to_source() {
    let m = compile("int f(void)\n{\n    int x = 1;\n    return x;\n}\n");
    let f = m.function(m.function_by_name("f").unwrap());
    let lines: Vec<u32> = f
        .blocks()
        .iter()
        .flat_map(|b| &b.insts)
        .map(|i| i.loc.line)
        .collect();
    assert!(lines.contains(&3), "{lines:?}");
}

/// Array declarators cut off before their `]` end in a diagnostic; the
/// parser used to spin forever on the end-of-input token.
#[test]
fn unterminated_array_declarators_are_diagnosed() {
    for src in [
        "int f(int n) { int t[",
        "int f(int n) { int t[4",
        "struct s { int a[",
        "struct s { int a[8",
    ] {
        assert!(
            compile_one("fe.c", src).is_err(),
            "{src:?} must not compile"
        );
    }
}
