//! Scenario battery: focused mini-C programs with exact expectations about
//! what PATA must and must not report. These pin down the semantics of the
//! alias rules, the checker FSMs and the validator on realistic idioms.

use pata::core::{AnalysisConfig, AnalysisSession, BugKind, SessionOutcome};

fn analyze(src: &str) -> SessionOutcome {
    let module = pata::cc::compile_one("scenario.c", src).expect("scenario compiles");
    AnalysisSession::new(AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::all_checkers()
    })
    .analyze_module(module)
}

fn kinds(out: &SessionOutcome) -> Vec<BugKind> {
    out.report.reports.iter().map(|r| r.kind).collect()
}

fn assert_reports(src: &str, expected: &[BugKind]) {
    let out = analyze(src);
    let mut got = kinds(&out);
    got.sort();
    let mut want = expected.to_vec();
    want.sort();
    assert_eq!(got, want, "reports: {:#?}", out.report.reports);
}

// ====================================================================
// NPD semantics
// ====================================================================

#[test]
fn npd_reassignment_clears_null_state() {
    assert_reports(
        r#"
        struct dev { int *res; int *alt; };
        int f(struct dev *d) {
            int *p = d->res;
            if (p == NULL) {
                p = d->alt;
            }
            return *p;
        }
        "#,
        &[],
    );
}

#[test]
fn npd_null_via_else_branch_of_nonnull_test() {
    assert_reports(
        r#"
        int f(int *p) {
            if (p != NULL) {
                return *p;
            }
            return *p;
        }
        "#,
        &[BugKind::NullPointerDeref],
    );
}

#[test]
fn npd_short_circuit_guard_respected() {
    // `p && *p` never dereferences NULL.
    assert_reports(
        r#"
        int f(int *p) {
            if (p != NULL && *p > 0) {
                return 1;
            }
            return 0;
        }
        "#,
        &[],
    );
}

#[test]
fn npd_or_guard_insufficient() {
    // `p == NULL || mode` then deref inside: when mode is true and p NULL,
    // the branch is taken and the dereference crashes.
    assert_reports(
        r#"
        int f(int *p, int mode) {
            if (p == NULL || mode > 0) {
                return *p;
            }
            return 0;
        }
        "#,
        &[BugKind::NullPointerDeref],
    );
}

#[test]
fn npd_alias_through_double_move() {
    assert_reports(
        r#"
        int f(int *p) {
            int *q = p;
            int *r = q;
            if (r == NULL) {
                report(0);
            }
            return *p;
        }
        "#,
        &[BugKind::NullPointerDeref],
    );
}

#[test]
fn npd_guard_through_alias_suppresses() {
    // Check on the alias, early return: the deref through the original
    // name is safe — needs shared state, not per-variable state.
    assert_reports(
        r#"
        int f(int *p) {
            int *q = p;
            if (q == NULL) {
                return -1;
            }
            return *p;
        }
        "#,
        &[],
    );
}

#[test]
fn npd_two_fields_are_independent() {
    // Field sensitivity: a NULL d->a must not taint d->b.
    assert_reports(
        r#"
        struct dev { int *a; int *b; };
        int f(struct dev *d) {
            if (d->a == NULL) {
                return *d->b;
            }
            return 0;
        }
        "#,
        &[],
    );
}

#[test]
fn npd_callee_guard_does_not_leak_to_caller_path() {
    // The callee checks and returns early — caller's continued use is the
    // callee's non-null path, so no report.
    assert_reports(
        r#"
        struct dev { int *res; };
        int check(struct dev *d) {
            if (d->res == NULL) {
                return -1;
            }
            return 0;
        }
        int f(struct dev *d) {
            int rc = check(d);
            if (rc < 0) {
                return rc;
            }
            return *d->res;
        }
        "#,
        &[],
    );
}

// ====================================================================
// UVA semantics
// ====================================================================

#[test]
fn uva_both_branches_initialize() {
    assert_reports(
        r#"
        int f(int c) {
            int x;
            if (c > 0) {
                x = 1;
            } else {
                x = 2;
            }
            return x;
        }
        "#,
        &[],
    );
}

#[test]
fn uva_init_through_two_deep_out_param() {
    assert_reports(
        r#"
        void inner(int *out) { *out = 3; }
        void outer(int *out) { inner(out); }
        int f(void) {
            int v;
            outer(&v);
            return v;
        }
        "#,
        &[],
    );
}

#[test]
fn uva_partial_field_init_detected() {
    // One field written, the *other* read — field-sensitive UVA.
    assert_reports(
        r#"
        struct pair { int a; int b; };
        int f(void) {
            struct pair p;
            p.a = 1;
            return p.b;
        }
        "#,
        &[BugKind::UninitVarAccess],
    );
}

#[test]
fn uva_kzalloc_is_initialized() {
    assert_reports(
        r#"
        struct cfg { int mode; };
        int f(void) {
            struct cfg *c = kzalloc(16);
            if (c == NULL) {
                return -1;
            }
            int m = c->mode;
            free(c);
            return m;
        }
        "#,
        &[],
    );
}

#[test]
fn uva_use_in_condition_counts() {
    assert_reports(
        r#"
        int f(void) {
            int x;
            if (x > 0) {
                return 1;
            }
            return 0;
        }
        "#,
        &[BugKind::UninitVarAccess],
    );
}

// ====================================================================
// ML semantics
// ====================================================================

#[test]
fn ml_goto_error_path_leak() {
    assert_reports(
        r#"
        int f(int n) {
            int *a = malloc(8);
            if (a == NULL) {
                return -1;
            }
            int *b = malloc(8);
            if (b == NULL) {
                goto fail;
            }
            free(a);
            free(b);
            return 0;
        fail:
            return -2;
        }
        "#,
        &[BugKind::MemoryLeak],
    );
}

#[test]
fn ml_free_in_both_orders_ok() {
    assert_reports(
        r#"
        void f(void) {
            int *a = malloc(8);
            int *b = malloc(8);
            free(b);
            free(a);
        }
        "#,
        &[],
    );
}

#[test]
fn ml_escape_via_external_registration() {
    assert_reports(
        r#"
        void f(void) {
            int *a = malloc(8);
            register_buffer(a);
        }
        "#,
        &[],
    );
}

#[test]
fn ml_conditional_free_leaks_other_path() {
    assert_reports(
        r#"
        int f(int c) {
            int *a = malloc(8);
            if (a == NULL) {
                return -1;
            }
            if (c > 0) {
                free(a);
            }
            return 0;
        }
        "#,
        &[BugKind::MemoryLeak],
    );
}

// ====================================================================
// Lock / arithmetic checkers
// ====================================================================

#[test]
fn double_unlock_detected() {
    assert_reports(
        r#"
        struct lk { int w; };
        void f(struct lk *l, int c) {
            spin_lock(&l->w);
            spin_unlock(&l->w);
            if (c > 0) {
                spin_unlock(&l->w);
            }
        }
        "#,
        &[BugKind::DoubleLock],
    );
}

#[test]
fn unlock_of_caller_held_lock_silent() {
    // Unlock without local lock evidence: the caller may hold it.
    assert_reports(
        r#"
        struct lk { int w; };
        void f(struct lk *l) {
            spin_unlock(&l->w);
        }
        "#,
        &[],
    );
}

#[test]
fn lock_through_two_paths_balanced() {
    assert_reports(
        r#"
        struct lk { int w; };
        void f(struct lk *l, int c) {
            spin_lock(&l->w);
            if (c > 0) {
                spin_unlock(&l->w);
                return;
            }
            spin_unlock(&l->w);
        }
        "#,
        &[],
    );
}

#[test]
fn dbz_guarded_division_silent() {
    assert_reports(
        r#"
        int f(int n, int d) {
            if (d == 0) {
                return -1;
            }
            return n / d;
        }
        "#,
        &[],
    );
}

#[test]
fn dbz_zero_constant_assignment() {
    assert_reports(
        r#"
        int f(int n, int c) {
            int d = 0;
            if (c > 0) {
                d = c;
            }
            return n / d;
        }
        "#,
        &[BugKind::DivisionByZero],
    );
}

#[test]
fn aiu_checked_index_silent() {
    assert_reports(
        r#"
        int f(int i) {
            int a[8];
            a[0] = 1;
            if (i >= 0) {
                return a[i];
            }
            return 0;
        }
        "#,
        &[],
    );
}

// ====================================================================
// Validation semantics
// ====================================================================

#[test]
fn contradictory_int_guards_filtered() {
    // state > 5 and state < 3 cannot both hold — candidate dropped.
    let out = analyze(
        r#"
        struct dev { int *res; int state; };
        int f(struct dev *d) {
            if (d->state > 5) {
                if (d->res == NULL) {
                    if (d->state < 3) {
                        return *d->res;
                    }
                }
            }
            return 0;
        }
        "#,
    );
    assert!(
        !kinds(&out).contains(&BugKind::NullPointerDeref),
        "{:?}",
        out.report.reports
    );
    assert!(out.stats.false_bugs_dropped >= 1);
}

#[test]
fn arithmetic_chain_feasibility() {
    // j == i + 1 with i >= 7 makes j >= 8; the j < 4 guard is infeasible.
    let out = analyze(
        r#"
        int f(int i, int *p) {
            if (i >= 7) {
                int j = i + 1;
                if (p == NULL) {
                    log(1);
                }
                if (j < 4) {
                    return *p;
                }
            }
            return 0;
        }
        "#,
    );
    assert!(
        !kinds(&out).contains(&BugKind::NullPointerDeref),
        "{:?}",
        out.report.reports
    );
}

#[test]
fn feasible_arithmetic_kept() {
    let out = analyze(
        r#"
        int f(int i, int *p) {
            if (i >= 7) {
                int j = i + 1;
                if (p == NULL) {
                    log(1);
                }
                if (j > 4) {
                    return *p;
                }
            }
            return 0;
        }
        "#,
    );
    assert!(
        kinds(&out).contains(&BugKind::NullPointerDeref),
        "{:?}",
        out.report.reports
    );
}

// ====================================================================
// Interface functions & roots
// ====================================================================

#[test]
fn bug_in_helper_reached_only_via_root() {
    // `helper` has a caller, so it is not a root; its bug is still found
    // through the root's inlined exploration.
    let out = analyze(
        r#"
        struct dev { int *res; };
        int helper(struct dev *d) {
            return *d->res;
        }
        int entry(struct dev *d) {
            if (d->res == NULL) {
                return helper(d);
            }
            return 0;
        }
        "#,
    );
    let npd: Vec<_> = out
        .report
        .reports
        .iter()
        .filter(|r| r.kind == BugKind::NullPointerDeref)
        .collect();
    assert_eq!(npd.len(), 1, "{:?}", out.report.reports);
    assert_eq!(npd[0].function, "helper");
}

#[test]
fn recursion_is_cut_not_looped() {
    let out = analyze(
        r#"
        int depth(int n) {
            if (n <= 0) {
                return 0;
            }
            return 1 + depth(n - 1);
        }
        "#,
    );
    assert!(out.stats.paths_explored >= 1);
    assert!(out.report.reports.is_empty());
}

#[test]
fn globals_shared_across_roots() {
    // Both roots touch the same global; analyses are independent, so no
    // cross-root state pollution may occur.
    let out = analyze(
        r#"
        int g_mode;
        void seta(void) { g_mode = 1; }
        int use_it(void) {
            if (g_mode > 0) {
                return 1;
            }
            return 0;
        }
        "#,
    );
    assert!(out.report.reports.is_empty(), "{:?}", out.report.reports);
}
