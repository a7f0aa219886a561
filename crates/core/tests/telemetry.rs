//! Integration tests for the telemetry subsystem and the open API
//! (registry, builder, versioned report) across a full pipeline run.

use pata_core::typestate::{Checker, FsmSpec, TrackCtx, UpdateInfo};
use pata_core::{
    filter, AnalysisConfig, AnalysisSession, BugKind, CheckerFactory, CheckerRegistry,
    RegistryError, Report, SessionOutcome, REPORT_SCHEMA_VERSION,
};
use pata_ir::InstKind;

/// A module with several interface functions so the parallel scheduler has
/// real work to spread, and enough state machinery to exercise every
/// counter family (alias ops, typestates, constraints, validation).
const MULTI_ROOT_SRC: &str = r#"
    struct dev { int *res; int lock; int n; };

    static int probe_npd(struct dev *d) {
        if (d->res == NULL) { log_warn("x"); }
        return *d->res;
    }

    static int probe_leak(int n) {
        int *buf = malloc(32);
        if (n > 0) {
            return n;
        }
        free(buf);
        return 0;
    }

    static int probe_clean(struct dev *d) {
        if (d->res == NULL) {
            return -1;
        }
        return *d->res;
    }

    static int probe_infeasible(struct dev *d, int x) {
        if (x == 0) {
            if (d->res == NULL) { log_warn("y"); }
        }
        if (x != 0) {
            return *d->res;
        }
        return 0;
    }

    static struct drv drivers = {
        .p1 = probe_npd,
        .p2 = probe_leak,
        .p3 = probe_clean,
        .p4 = probe_infeasible,
    };
"#;

fn run_on_threads(threads: usize) -> SessionOutcome {
    let module = pata_cc::compile_one("multi.c", MULTI_ROOT_SRC).unwrap();
    let config = AnalysisConfig::builder()
        .checkers(BugKind::ALL.to_vec())
        .threads(threads)
        .telemetry(true)
        .build()
        .unwrap();
    AnalysisSession::new(config).analyze_module(module)
}

/// Merging per-worker shards must be lossless: every monotonic counter is
/// a commutative sum, so a 4-thread run reports exactly the same counter
/// values as a single-threaded one. (Durations, gauges, and scheduler
/// metrics like `driver.work_steals` legitimately depend on the schedule
/// and are excluded.)
#[test]
fn counters_exact_across_thread_counts() {
    let seq = run_on_threads(1);
    let par = run_on_threads(4);

    let counters = |outcome: &SessionOutcome| {
        let mut cs: Vec<(String, Option<String>, u64)> = outcome
            .telemetry
            .counters()
            .into_iter()
            .filter(|(name, _, _)| !name.starts_with("driver."))
            .map(|(n, l, v)| (n.to_owned(), l.map(str::to_owned), v))
            .collect();
        cs.sort();
        cs
    };
    let seq_counters = counters(&seq);
    assert!(
        seq_counters
            .iter()
            .any(|(n, _, v)| n == "path.paths" && *v > 0),
        "expected real exploration work: {seq_counters:?}"
    );
    assert_eq!(seq_counters, counters(&par));

    // The verdict stream is identical too.
    let render = |o: &SessionOutcome| {
        o.report
            .reports
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&seq), render(&par));
}

#[test]
fn parallel_run_records_thread_gauge() {
    let par = run_on_threads(4);
    // 4 requested threads capped by the number of roots (4).
    assert_eq!(par.telemetry.gauge("driver.threads"), Some(4));
    let seq = run_on_threads(1);
    assert_eq!(seq.telemetry.gauge("driver.threads"), Some(1));
}

#[test]
fn per_root_histogram_covers_every_root() {
    let out = run_on_threads(2);
    for root in ["probe_npd", "probe_leak", "probe_clean", "probe_infeasible"] {
        let hist = out
            .telemetry
            .get("explore.root", Some(root))
            .unwrap_or_else(|| panic!("missing explore.root histogram for {root}"));
        match hist {
            pata_core::telemetry::Metric::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("explore.root should be a histogram: {other:?}"),
        }
    }
}

#[test]
fn disabled_telemetry_yields_empty_snapshot() {
    let module = pata_cc::compile_one("multi.c", MULTI_ROOT_SRC).unwrap();
    let config = AnalysisConfig::builder().threads(1).build().unwrap();
    let outcome = AnalysisSession::new(config).analyze_module(module);
    assert!(outcome.telemetry.is_empty());
    assert!(outcome.stats.roots > 0, "analysis itself still ran");
}

/// End-to-end schema round-trip on real pipeline output, not hand-built
/// reports.
#[test]
fn pipeline_report_round_trips_through_json() {
    let outcome = run_on_threads(1);
    assert!(!outcome.report.reports.is_empty());
    let json = outcome.report.to_json();
    let back = Report::from_json(&json).unwrap();
    assert_eq!(back.schema_version, REPORT_SCHEMA_VERSION);
    assert_eq!(back, outcome.report);
}

#[test]
fn registry_rejects_duplicate_id_at_api_boundary() {
    let mut registry = CheckerRegistry::with_builtins();
    let err = registry
        .register(Box::new(pata_core::BuiltinChecker(
            BugKind::NullPointerDeref,
        )))
        .unwrap_err();
    assert_eq!(
        err,
        RegistryError::DuplicateId("null-pointer-dereference".to_owned())
    );
    // The failed registration must not have corrupted the registry.
    assert_eq!(registry.ids().len(), 7);
}

/// An out-of-tree plugin: reports an unlock of an alias set whose last
/// lock operation was already an unlock.
struct StrictUnlock;

impl Checker for StrictUnlock {
    fn kind(&self) -> BugKind {
        BugKind::DoubleLock
    }

    fn fsm(&self) -> FsmSpec {
        FsmSpec {
            states: vec!["S0", "LOCKED", "UNLOCKED", "SBUG"],
            events: vec!["lock", "unlock"],
            bug_state: "SBUG",
        }
    }

    fn on_inst(&self, cx: &mut TrackCtx<'_>, inst: &InstKind, info: &UpdateInfo) {
        let id = self.kind().id();
        let Some(key) = info.lock_key else { return };
        let prior = cx.state(id, key);
        match inst {
            InstKind::Lock { .. } => cx.transition(id, key, 1, prior),
            InstKind::Unlock { .. } => match prior {
                Some(entry) if entry.state == 1 => cx.transition(id, key, 2, prior),
                Some(entry) => cx.report(self.kind(), key, entry, Vec::new()),
                None => {}
            },
            _ => {}
        }
    }
}

struct StrictUnlockFactory;

impl CheckerFactory for StrictUnlockFactory {
    fn id(&self) -> &str {
        "strict-unlock"
    }

    fn description(&self) -> &str {
        "reports an unlock of an already unlocked alias set"
    }

    fn create(&self) -> Box<dyn Checker> {
        Box::new(StrictUnlock)
    }
}

/// The P1+P2 entry point instantiates checkers through the session's
/// registry, so a plugin under a non-built-in id reaches the same reports
/// through `collect_candidates` + `filter` as through the full pipeline.
#[test]
fn collect_candidates_runs_registry_plugins() {
    let src = r#"
        struct dev { int lock; };
        static void irq(struct dev *d) {
            spin_lock(&d->lock);
            spin_unlock(&d->lock);
            spin_unlock(&d->lock);
        }
        static struct irq_ops ops = { .h = irq };
    "#;
    let module = pata_cc::compile_one("irq.c", src).unwrap();
    let mut registry = CheckerRegistry::with_builtins();
    registry.register(Box::new(StrictUnlockFactory)).unwrap();
    // Only NPD is selected: every double-unlock report is the plugin's.
    let config = AnalysisConfig::builder()
        .checkers(vec![BugKind::NullPointerDeref])
        .build()
        .unwrap();
    let session = AnalysisSession::with_registry(config, registry);

    let full = session.analyze_module(module.clone());
    assert_eq!(full.report.reports.len(), 1, "{:?}", full.report.reports);
    assert_eq!(full.report.reports[0].kind, BugKind::DoubleLock);

    let (marked, candidates, mut stats) = session.collect_candidates(module);
    let split = filter::filter(&marked, candidates, true, None, None, &mut stats);
    assert_eq!(split.reports, full.report.reports);
}
