//! Fork-cost tests for the copy-on-write path state (ISSUE 8): forking a
//! branch must cost O(changed), not O(live state).
//!
//! The corpus generator below builds roots whose live state at the single
//! branch point grows with `k` (k heap objects, k placed pointers), so a
//! representation that copies the live state pays more per fork as `k`
//! grows. The copy-on-write journal must instead pay a fixed-size mark:
//! `driver.explore.fork.bytes_copied / forks` stays exactly flat in `k`,
//! while the clone-based baseline (`cow_state(false)`) grows.
//!
//! Independently, both representations must be observationally equivalent:
//! byte-identical report documents, stats and exploration counters across
//! cow on/off and threads 1/2/4 — with every checker, under tight loop
//! budgets, and for roots truncated by the instruction budget.

use pata_core::{AnalysisConfig, AnalysisSession, BugKind, SessionOutcome};

/// One interface root with `k` live heap allocations before a single
/// branch: the deeper the state, the more a clone-based fork must copy.
fn deep_src(k: usize) -> String {
    let mut s = String::from("int deep_probe(int *p, int n) {\n");
    for i in 0..k {
        s.push_str(&format!("    int *m{i} = malloc(8);\n"));
    }
    s.push_str("    int acc = 0;\n");
    s.push_str("    if (n > 0) { acc = 1; } else { acc = 2; }\n");
    for i in 0..k {
        s.push_str(&format!("    free(m{i});\n"));
    }
    s.push_str("    return acc;\n}\n");
    s
}

fn config(cow: bool, threads: usize, telemetry: bool) -> AnalysisConfig {
    AnalysisConfig::builder()
        .threads(threads)
        .telemetry(telemetry)
        .cow_state(cow)
        .build()
        .unwrap()
}

/// Runs stage 1+2 on `src` and returns the run's fork telemetry:
/// `(forks, bytes_copied)`.
fn fork_counters(src: &str, cow: bool) -> (u64, u64) {
    let module = pata_cc::compile_one("deep.c", src).unwrap();
    let session = AnalysisSession::new(config(cow, 1, true));
    let _ = session.analyze_module(module);
    let snap = session.telemetry().snapshot();
    (
        snap.counter_sum("driver.explore.fork.forks"),
        snap.counter_sum("driver.explore.fork.bytes_copied"),
    )
}

/// The acceptance criterion: `bytes_copied` per fork is flat as path depth
/// grows under copy-on-write, and grows under clone-based forking.
#[test]
fn fork_cost_is_flat_in_live_state_depth() {
    let mut cow_cost = Vec::new();
    let mut clone_cost = Vec::new();
    for k in [4usize, 16, 64] {
        let src = deep_src(k);
        let (forks, copied) = fork_counters(&src, true);
        assert!(forks > 0, "the branch must fork (k = {k})");
        cow_cost.push(copied / forks);

        let (clone_forks, clone_copied) = fork_counters(&src, false);
        assert_eq!(clone_forks, forks, "fork count is representation-free");
        clone_cost.push(clone_copied / clone_forks);
    }
    assert!(
        cow_cost.windows(2).all(|w| w[0] == w[1]),
        "cow fork cost must be O(changed) — flat across state depth, got {cow_cost:?}"
    );
    assert!(
        clone_cost.windows(2).all(|w| w[0] < w[1]),
        "clone fork cost must grow with live state, got {clone_cost:?}"
    );
    assert!(
        cow_cost[0] < clone_cost[0],
        "a cow fork ({} bytes) must be cheaper than the shallowest clone ({} bytes)",
        cow_cost[0],
        clone_cost[0]
    );
}

/// Byte-identical report documents across the fork representation and
/// every tested thread count, on a corpus with enough roots to schedule.
#[test]
fn reports_identical_across_cow_and_threads() {
    let mut src = String::new();
    for r in 0..6 {
        let mut f = format!("int probe_{r}(int *p, int n) {{\n");
        f.push_str("    int *buf = malloc(16);\n");
        f.push_str(&format!(
            "    if (n > {r}) {{ if (p == NULL) {{ log_warn(\"probe\"); }} return *p; }}\n"
        ));
        f.push_str("    free(buf);\n    return 0;\n}\n");
        src.push_str(&f);
    }
    let module = pata_cc::compile_one("many.c", &src).unwrap();

    let report = |cow: bool, threads: usize| {
        AnalysisSession::new(config(cow, threads, false))
            .analyze_module(module.clone())
            .report
            .to_json()
    };
    let base = report(true, 1);
    assert!(
        base.contains("null-pointer-dereference"),
        "a non-empty report document is expected: {base}"
    );
    for cow in [true, false] {
        for threads in [1usize, 2, 4] {
            assert_eq!(
                report(cow, threads),
                base,
                "cow {cow}, threads {threads} must match the sequential cow run"
            );
        }
    }
}

/// Driver-style code with reconvergent diamonds, a helper called from
/// several sites, heap traffic and real bugs on some paths, so verdict
/// equality is meaningful.
const DRIVER_SRC: &str = r#"
    struct dev { int flags; int mode; int irq; int *res; };

    static int clamp(int n) {
        if (n > 4) { n = 4; }
        if (n < 0) { n = 0; }
        return n;
    }

    static int tune(struct dev *d) {
        int rate = 0;
        int win = 0;
        int depth = 0;
        if (d->flags > 0) { rate = 100; } else { rate = 10; }
        if (d->mode > 1) { win = 8; } else { win = 1; }
        if (d->irq > 0) { depth = clamp(2); } else { depth = clamp(2); }
        if (d->flags > 2) { rate = rate + win; } else { rate = rate - win; }
        if (d->res == NULL) { log_warn("tune"); }
        return *d->res + rate + depth;
    }

    static int probe(struct dev *d) {
        int *buf = malloc(64);
        int a = 0;
        if (d->mode > 0) { a = clamp(3); } else { a = clamp(3); }
        if (a > 0) {
            return a;
        }
        free(buf);
        return 0;
    }

    static struct ops dev_ops = { .tune = tune, .probe = probe };
"#;

fn report_json(o: &SessionOutcome) -> String {
    o.report.to_json()
}

/// Every telemetry counter outside the `driver.*` family (scheduler and
/// fork-cost metrics) is a pure function of the explored program.
fn program_counters(o: &SessionOutcome) -> Vec<(String, Option<String>, u64)> {
    let mut cs: Vec<_> = o
        .telemetry
        .counters()
        .into_iter()
        .filter(|(name, _, _)| !name.starts_with("driver."))
        .map(|(n, l, v)| (n.to_owned(), l.map(str::to_owned), v))
        .collect();
    cs.sort();
    cs
}

/// Runs `module` under `builder` at every (cow, threads) combination and
/// asserts the report document, the exploration stats and the program
/// counters all match the sequential copy-on-write run. Returns that run.
fn assert_equivalent(
    module: &pata_ir::Module,
    builder: impl Fn() -> pata_core::AnalysisConfigBuilder,
    what: &str,
) -> SessionOutcome {
    let run = |cow: bool, threads: usize| {
        let config = builder()
            .threads(threads)
            .cow_state(cow)
            .telemetry(true)
            .build()
            .unwrap();
        AnalysisSession::new(config).analyze_module(module.clone())
    };
    let base = run(true, 1);
    for cow in [true, false] {
        for threads in [1usize, 2, 4] {
            let o = run(cow, threads);
            let at = format!("{what}: cow {cow}, threads {threads}");
            assert_eq!(report_json(&o), report_json(&base), "{at}");
            assert_eq!(o.report.budget_notes, base.report.budget_notes, "{at}");
            assert_eq!(o.stats.paths_explored, base.stats.paths_explored, "{at}");
            assert_eq!(o.stats.insts_processed, base.stats.insts_processed, "{at}");
            assert_eq!(program_counters(&o), program_counters(&base), "{at}");
        }
    }
    base
}

/// Report and counter identity with every built-in checker enabled,
/// including the value-tracking ones (AIU, DBZ).
#[test]
fn all_checkers_reports_and_counters_identical_across_threads() {
    let module = pata_cc::compile_one("driver.c", DRIVER_SRC).unwrap();
    let base = assert_equivalent(
        &module,
        || AnalysisConfig::builder().checkers(BugKind::ALL.to_vec()),
        "all checkers",
    );
    assert!(!base.report.reports.is_empty(), "expected real bugs");
    assert!(
        program_counters(&base)
            .iter()
            .any(|(n, _, v)| n == "path.paths" && *v > 0),
        "expected real exploration work"
    );
}

/// The loop cut: a tighter loop budget explores strictly fewer paths, and
/// at every budget the result is independent of fork representation and
/// thread count.
#[test]
fn loop_budget_is_deterministic_and_monotone() {
    const LOOP_SRC: &str = r#"
        struct dev { int n; int *res; };

        static int drain(struct dev *d) {
            int total = 0;
            int i;
            for (i = 0; i < d->n; i++) {
                if (d->res == NULL) { log_warn("drain"); }
                total += *d->res;
            }
            return total;
        }

        static struct ops drain_ops = { .drain = drain };
    "#;
    let module = pata_cc::compile_one("loop.c", LOOP_SRC).unwrap();
    let mut paths = Vec::new();
    for iterations in [1usize, 2, 3] {
        let base = assert_equivalent(
            &module,
            || AnalysisConfig::builder().loop_iterations(iterations),
            &format!("loop iterations {iterations}"),
        );
        assert!(!base.report.reports.is_empty(), "iterations {iterations}");
        paths.push(base.stats.paths_explored);
    }
    assert!(
        paths.windows(2).all(|w| w[0] < w[1]),
        "each extra iteration must add paths: {paths:?}"
    );
}

/// Roots truncated by the instruction budget stay deterministic: the same
/// budget notes and the same truncated verdicts at every thread count and
/// fork representation.
#[test]
fn budget_exhausted_roots_are_deterministic_across_threads() {
    let module = pata_cc::compile_one("driver.c", DRIVER_SRC).unwrap();
    let mut truncated = 0;
    for max_insts in [50usize, 200, 1000] {
        let base = assert_equivalent(
            &module,
            || AnalysisConfig::builder().max_insts(max_insts),
            &format!("max_insts {max_insts}"),
        );
        for note in &base.report.budget_notes {
            assert_eq!(note.reason, "max_insts", "{note:?}");
        }
        truncated += base.report.budget_notes.len();
    }
    assert!(truncated > 0, "some budget must truncate a root");
}
