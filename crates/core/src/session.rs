//! The analysis session — the one public entry point of the crate.
//!
//! [`AnalysisSession`] wraps the internal pipeline driver with the pieces
//! a long-lived analysis service needs: source compilation, an optional
//! on-disk store ([`crate::persist`]), fingerprint-based change detection,
//! and incremental re-analysis that re-explores only *dirty* roots.
//!
//! ```text
//! AnalysisConfig::builder() … .build()
//!     → AnalysisSession::open(config, store_path)   // or ::new for in-memory
//!     → session.analyze(&request)                   // → versioned Report
//! ```
//!
//! # Determinism
//!
//! A session produces byte-identical reports whether a root's candidates
//! come from a fresh exploration, the in-memory warm state, or the
//! on-disk store, at any thread count. The argument: per-root exploration
//! is deterministic and independent, results are merged in root order,
//! and a root is only treated as *clean* when every function transitively
//! reachable from it has an unchanged IR fingerprint — so the cached
//! candidates are exactly what re-exploring would produce. Stage-2
//! validation consumes the same candidate stream either way, and its
//! cache is keyed canonically (verdict-neutral by construction).

use crate::collector;
use crate::config::AnalysisConfig;
use crate::driver::{Pata, RootRun};
use crate::faultinject;
use crate::filter;
use crate::persist::{
    closure_fps, config_fingerprint, fnv64, FunctionDb, Store, StoredBug, StoredRoot,
};
use crate::registry::CheckerRegistry;
use crate::report::{DegradedRoot, PossibleBug, Report};
use crate::stats::{AnalysisStats, BudgetNote};
use crate::telemetry::{Span, Telemetry, TelemetrySnapshot};
use crate::typestate::Checker;
use crate::validate::ValidationCache;
use pata_ir::Module;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One source file of an [`AnalysisRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// File name (used in reports and for change attribution).
    pub name: String,
    /// Mini-C source text.
    pub text: String,
}

/// A batch of sources to analyze together as one module.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisRequest {
    /// The module's source files, in compilation order.
    pub files: Vec<SourceFile>,
}

impl AnalysisRequest {
    /// An empty request.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one source file (builder style).
    pub fn file(mut self, name: impl Into<String>, text: impl Into<String>) -> Self {
        self.files.push(SourceFile {
            name: name.into(),
            text: text.into(),
        });
        self
    }
}

/// What incremental re-analysis did for one [`AnalysisSession::analyze`]
/// call — the counters behind the `driver.serve.*` telemetry family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Total analysis roots in the request.
    pub roots: u64,
    /// Roots re-explored because their closure fingerprint changed (or no
    /// warm result existed).
    pub dirty_roots: u64,
    /// Roots answered from the warm cache without re-exploration.
    pub clean_roots: u64,
    /// Functions whose IR fingerprint differs from the previous run.
    pub changed_functions: u64,
    /// Whether warm state (in-memory or loaded from the store) was
    /// available when the request arrived.
    pub warm_start: bool,
}

/// Why [`AnalysisSession::analyze`] refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The request contained no source files.
    EmptyRequest,
    /// The sources did not compile; one rendered diagnostic per entry.
    Compile(Vec<String>),
    /// The pipeline panicked outside every per-root containment boundary.
    /// The session survives: its warm state is reset, so the next request
    /// cold-starts (re-loading the store if one is open happens lazily via
    /// re-exploration, never through the poisoned in-memory image).
    Internal(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::EmptyRequest => f.write_str("request contains no source files"),
            SessionError::Compile(diags) => {
                write!(f, "compilation failed:\n{}", diags.join("\n"))
            }
            SessionError::Internal(reason) => {
                write!(f, "internal analysis failure: {reason}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// The result of one session analysis.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The versioned report document (schema
    /// [`crate::report::REPORT_SCHEMA_VERSION`]), budget notes attached.
    pub report: Report,
    /// Aggregate statistics, cached roots included (their counters replay
    /// from the store; their wall-clock does not).
    pub stats: AnalysisStats,
    /// Telemetry snapshot taken at the end of the run; empty unless
    /// [`AnalysisConfig::telemetry`] is set.
    pub telemetry: TelemetrySnapshot,
    /// What incremental re-analysis did for this request.
    pub incremental: IncrementalStats,
}

/// Warm per-corpus state carried between `analyze` calls (and to/from the
/// on-disk store).
#[derive(Debug)]
struct WarmState {
    functions: FunctionDb,
    /// Per-source-file `(name, content hash)` in request order. When a
    /// prefix of the new request matches byte-for-byte, functions in
    /// those files keep their previous fingerprints without re-printing
    /// their IR (fingerprint prefix reuse).
    file_hashes: Vec<(String, u64)>,
    roots: Vec<StoredRoot>,
}

/// A persistent analysis session.
///
/// ```
/// use pata_core::{AnalysisConfig, AnalysisRequest, AnalysisSession};
///
/// let mut session = AnalysisSession::new(AnalysisConfig::default());
/// let request = AnalysisRequest::new().file(
///     "demo.c",
///     r#"
///     struct dev { int *res; };
///     static int demo_probe(struct dev *d) {
///         if (d->res == NULL) { }
///         return *d->res;        // NPD when d->res is NULL
///     }
///     static struct drv demo_driver = { .probe = demo_probe };
///     "#,
/// );
/// let outcome = session.analyze(&request).unwrap();
/// assert!(outcome
///     .report
///     .reports
///     .iter()
///     .any(|r| r.kind.as_str() == "null-pointer-dereference"));
///
/// // The second identical request is answered from the warm cache.
/// let again = session.analyze(&request).unwrap();
/// assert_eq!(again.incremental.clean_roots, again.incremental.roots);
/// assert_eq!(again.report.to_json(), outcome.report.to_json());
/// ```
#[derive(Debug)]
pub struct AnalysisSession {
    driver: Pata,
    config_fp: u64,
    store_path: Option<PathBuf>,
    warm: Option<WarmState>,
    /// True when the on-disk store is known to equal the in-memory warm
    /// state, with `synced_validation_len` verdicts — lets a fully-clean
    /// request skip the redundant store rewrite.
    store_synced: bool,
    synced_validation_len: usize,
}

impl AnalysisSession {
    /// An in-memory session (no on-disk store) with the built-in checkers.
    pub fn new(config: AnalysisConfig) -> Self {
        Self::with_registry(config, CheckerRegistry::with_builtins())
    }

    /// An in-memory session with a custom [`CheckerRegistry`] (out-of-tree
    /// checkers run alongside the built-ins; see `examples/`).
    pub fn with_registry(config: AnalysisConfig, registry: CheckerRegistry) -> Self {
        let config_fp = config_fingerprint(&config);
        AnalysisSession {
            driver: Pata::create_with_registry(config, registry),
            config_fp,
            store_path: None,
            warm: None,
            store_synced: false,
            synced_validation_len: 0,
        }
    }

    /// A session backed by the on-disk store at `path`.
    ///
    /// Loading is infallible: a missing, corrupt, schema-incompatible or
    /// configuration-incompatible store is treated as a clean cold start.
    /// Every successful `analyze` call re-saves the store.
    pub fn open(config: AnalysisConfig, path: impl AsRef<Path>) -> Self {
        Self::open_with_registry(config, CheckerRegistry::with_builtins(), path)
    }

    /// [`AnalysisSession::open`] with a custom [`CheckerRegistry`].
    pub fn open_with_registry(
        config: AnalysisConfig,
        registry: CheckerRegistry,
        path: impl AsRef<Path>,
    ) -> Self {
        let mut session = Self::with_registry(config, registry);
        let path = path.as_ref().to_path_buf();
        let t0 = Instant::now();
        if let Some(store) = Store::load(&path, session.config_fp) {
            session.driver.validation_cache().import(store.validation);
            session.warm = Some(WarmState {
                functions: store.functions,
                file_hashes: store.files,
                roots: store.roots,
            });
            session.store_synced = true;
            session.synced_validation_len = session.driver.validation_cache().len();
        }
        let load_ns = t0.elapsed().as_nanos() as u64;
        session.driver.telemetry().record_direct(|sink| {
            sink.record_ns("driver.serve.store_load", None, load_ns);
            sink.add(
                "driver.serve.store_loaded",
                u64::from(session.warm.is_some()),
            );
        });
        session.store_path = Some(path);
        session
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalysisConfig {
        self.driver.config()
    }

    /// The session's telemetry registry (metrics accumulate across calls).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.driver.telemetry()
    }

    /// The session's shared stage-2 validation cache.
    pub fn validation_cache(&self) -> &Arc<ValidationCache> {
        self.driver.validation_cache()
    }

    /// The session's checker registry.
    pub fn registry(&self) -> &CheckerRegistry {
        self.driver.registry()
    }

    /// Runs the full pipeline on an already-compiled module, without
    /// touching the warm state or the store. The in-memory equivalent of
    /// the retired `Pata::new(config).analyze(module)` pattern; stage-2
    /// verdicts still share the session's validation cache across calls.
    pub fn analyze_module(&self, module: Module) -> crate::driver::AnalysisOutcome {
        self.driver.analyze(module)
    }

    /// [`AnalysisSession::analyze_module`] with explicit checker instances
    /// (e.g. user-defined FSMs; see `examples/custom_checker.rs`).
    pub fn analyze_module_with(
        &self,
        module: Module,
        checkers: &[Box<dyn Checker>],
    ) -> crate::driver::AnalysisOutcome {
        self.driver.analyze_with(module, checkers)
    }

    /// Runs phases P1 + P2 only (see [`Pata::collect_candidates`]); used
    /// by benchmarks that time stage-2 validation in isolation.
    pub fn collect_candidates(&self, module: Module) -> (Module, Vec<PossibleBug>, AnalysisStats) {
        self.driver.collect_candidates(module)
    }

    /// Compiles and analyzes `request`, re-exploring only roots whose
    /// transitive callee fingerprints changed since the previous call (or
    /// the persisted store), then updates the warm state and re-saves the
    /// store.
    pub fn analyze(&mut self, request: &AnalysisRequest) -> Result<SessionOutcome, SessionError> {
        let start = Instant::now();
        if request.files.is_empty() {
            return Err(SessionError::EmptyRequest);
        }
        let mut cc = pata_cc::Compiler::new();
        for f in &request.files {
            cc.add_source(&f.name, &f.text);
        }
        let module = cc.compile().map_err(|diags| {
            SessionError::Compile(diags.iter().map(ToString::to_string).collect())
        })?;
        let compile_ns = start.elapsed().as_nanos() as u64;
        let telemetry = Arc::clone(self.driver.telemetry());
        if telemetry.is_enabled() {
            telemetry
                .record_direct(|sink| sink.record_ns("driver.serve.compile", None, compile_ns));
        }
        let file_hashes: Vec<(String, u64)> = request
            .files
            .iter()
            .map(|f| (f.name.clone(), fnv64(f.text.as_bytes())))
            .collect();
        // The last containment boundary: per-root faults are absorbed by
        // the quarantine/demotion ladder below, but a panic outside those
        // scopes (collection, fingerprinting, splicing, store writing)
        // must not take down a long-lived session — or the serve worker
        // wrapping it. Warm state may be half-updated at the panic point,
        // so it is discarded wholesale.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.analyze_compiled(module, start, file_hashes)
        })) {
            Ok(outcome) => Ok(outcome),
            Err(payload) => {
                self.reset_warm();
                Err(SessionError::Internal(crate::driver::panic_reason(
                    &*payload,
                )))
            }
        }
    }

    /// Discards the in-memory warm state so the next request cold-starts.
    /// Used after a contained internal panic, when the warm image can no
    /// longer be trusted to mirror either the sources or the store.
    pub(crate) fn reset_warm(&mut self) {
        self.warm = None;
        self.store_synced = false;
        self.synced_validation_len = 0;
    }

    /// The incremental pipeline on a compiled module. `file_hashes` are
    /// the per-source-file content hashes in request order (which is also
    /// the compiler's `FileId` order).
    fn analyze_compiled(
        &mut self,
        mut module: Module,
        start: Instant,
        file_hashes: Vec<(String, u64)>,
    ) -> SessionOutcome {
        let telemetry = Arc::clone(self.driver.telemetry());
        let tel_on = telemetry.is_enabled();
        let checkers = self.driver.instantiate_checkers();
        let config = self.driver.config().clone();
        faultinject::maybe_panic(config.fault_plan.as_deref(), "session.analyze", "");

        // P1: information collection.
        let span = Span::start(tel_on, "stage.collect");
        let (roots, call_graph) = collector::mark_interfaces_with_graph(&mut module);
        if tel_on {
            telemetry.record_direct(|sink| {
                span.finish(sink);
                sink.add("collect.roots", roots.len() as u64);
                sink.add("collect.call_edges", call_graph.edge_count() as u64);
            });
        }

        // Change detection. `db` is `None` when function names are
        // ambiguous — then nothing can be cached and every root is dirty.
        // Fingerprint prefix reuse: a function's printed IR depends only
        // on its own source file and the files lowered before it
        // (module-global variable numbering), and `FileId`s are assigned
        // in request order — so when the first `unchanged_prefix` files
        // are byte-identical to the previous run, functions in those
        // files keep their fingerprints without re-printing their IR.
        let fp_start = Instant::now();
        let unchanged_prefix = self.warm.as_ref().map_or(0, |w| {
            w.file_hashes
                .iter()
                .zip(&file_hashes)
                .take_while(|(a, b)| a == b)
                .count()
        });
        let db = FunctionDb::build_with_reuse(
            &module,
            self.warm.as_ref().map(|w| &w.functions),
            unchanged_prefix,
        );
        let closures: Vec<u64> = match &db {
            Some(db) => {
                let fps = closure_fps(&module, &call_graph, config.resolve_fptrs, db);
                roots.iter().map(|r| fps[r.index()]).collect()
            }
            None => vec![0; roots.len()],
        };
        let warm_start = self.warm.is_some();
        let changed_functions = match (&db, &self.warm) {
            (Some(db), Some(warm)) => db.changed_since(&warm.functions),
            (Some(db), None) => db.entries.len() as u64,
            (None, _) => module.functions().len() as u64,
        };

        // Classify each root: clean roots resolve their cached candidates
        // against the new module up front — a resolution failure demotes
        // the root to dirty (never to a wrong answer).
        let warm_by_name: HashMap<&str, &StoredRoot> = self
            .warm
            .as_ref()
            .map(|w| w.roots.iter().map(|r| (r.root.as_str(), r)).collect())
            .unwrap_or_default();
        enum Plan<'a> {
            Clean(&'a StoredRoot, Vec<PossibleBug>),
            Dirty,
        }
        let plans: Vec<Plan> = roots
            .iter()
            .zip(&closures)
            .map(|(&root, &closure_fp)| {
                if db.is_none() {
                    return Plan::Dirty;
                }
                let name = module.function(root).name();
                let Some(&stored) = warm_by_name.get(name) else {
                    return Plan::Dirty;
                };
                if stored.closure_fp != closure_fp {
                    return Plan::Dirty;
                }
                let resolved: Option<Vec<PossibleBug>> = stored
                    .candidates
                    .iter()
                    .map(|b| b.resolve(&module, root))
                    .collect();
                match resolved {
                    Some(candidates) => Plan::Clean(stored, candidates),
                    None => Plan::Dirty,
                }
            })
            .collect();
        let dirty_ids: Vec<pata_ir::FuncId> = roots
            .iter()
            .zip(&plans)
            .filter(|(_, p)| matches!(p, Plan::Dirty))
            .map(|(&r, _)| r)
            .collect();
        let incremental = IncrementalStats {
            roots: roots.len() as u64,
            dirty_roots: dirty_ids.len() as u64,
            clean_roots: (roots.len() - dirty_ids.len()) as u64,
            changed_functions,
            warm_start,
        };
        let fingerprint_ns = fp_start.elapsed().as_nanos() as u64;
        if tel_on {
            telemetry.record_direct(|sink| {
                sink.record_ns("driver.serve.fingerprint", None, fingerprint_ns);
                sink.add("driver.serve.requests", 1);
                sink.add("driver.serve.dirty_roots", incremental.dirty_roots);
                sink.add("driver.serve.clean_roots", incremental.clean_roots);
                sink.add("driver.serve.changed_functions", changed_functions);
                // Invalidation fan-out: roots re-explored *because of* a
                // change (as opposed to cold-start exploration).
                if warm_start {
                    sink.add("driver.serve.invalidated_roots", incremental.dirty_roots);
                }
            });
        }

        // P2: explore the dirty roots, splice clean results from the cache.
        let span = Span::start(tel_on, "stage.explore");
        let mut stats = AnalysisStats {
            files_analyzed: module.files().len() as u64,
            loc_analyzed: module.total_loc(),
            ..AnalysisStats::default()
        };
        let runs = self
            .driver
            .explore_roots(&module, &checkers, &dirty_ids, &mut stats);
        if tel_on {
            telemetry.record_direct(|sink| span.finish(sink));
        }
        let mut runs_iter = runs.into_iter();
        let mut candidates: Vec<PossibleBug> = Vec::new();
        let mut notes: Vec<BudgetNote> = Vec::new();
        let mut degraded: Vec<DegradedRoot> = Vec::new();
        let mut new_roots: Vec<StoredRoot> = Vec::with_capacity(roots.len());
        for ((&root, closure_fp), plan) in roots.iter().zip(&closures).zip(plans) {
            match plan {
                Plan::Clean(stored, resolved) => {
                    stats += &stored.stats;
                    candidates.extend(resolved);
                    notes.extend(stored.note.clone());
                    degraded.extend(stored.degraded.clone());
                    new_roots.push(stored.clone());
                }
                Plan::Dirty => {
                    let run: RootRun = runs_iter
                        .next()
                        .expect("one exploration result per dirty root");
                    let run_degraded = run.failure.as_ref().map(|f| f.to_degraded());
                    let quarantined = run
                        .failure
                        .as_ref()
                        .is_some_and(|f| f.action == "quarantined");
                    // A quarantined root produced no trustworthy result:
                    // never persist it, so the next request re-explores it
                    // instead of replaying an empty answer as "clean". A
                    // demoted root's bounded result *is* deterministic —
                    // persist it together with its degraded entry so warm
                    // replays reproduce the report byte-identically.
                    if !quarantined {
                        new_roots.push(StoredRoot {
                            root: module.function(root).name().to_owned(),
                            closure_fp: *closure_fp,
                            candidates: run
                                .candidates
                                .iter()
                                .map(|b| StoredBug::from_possible(b, &module))
                                .collect(),
                            stats: run.stats,
                            note: run.note.clone(),
                            degraded: run_degraded.clone(),
                        });
                    }
                    degraded.extend(run_degraded);
                    candidates.extend(run.candidates);
                    notes.extend(run.note);
                }
            }
        }

        // P3: bug filtering (dedup + path validation).
        let span = Span::start(tel_on, "stage.filter");
        let cache = config
            .validation_cache
            .then(|| &**self.driver.validation_cache());
        let result = filter::filter_with_faults(
            &module,
            candidates,
            config.validate_paths,
            cache,
            Some(&telemetry),
            &mut stats,
            config.fault_plan.as_deref(),
        );
        degraded.extend(result.failures.iter().cloned());
        if tel_on {
            telemetry.record_direct(|sink| span.finish(sink));
        }
        stats.time = start.elapsed();

        // Update the warm state and (if open) the on-disk store. A fully
        // clean request (no dirty roots, no function changes, no new
        // validation verdicts, same root/function sets) would rewrite the
        // store byte-identically — skip the redundant serialization.
        let prev_counts = self
            .warm
            .as_ref()
            .map(|w| (w.functions.entries.len(), w.roots.len()));
        let files_unchanged = self
            .warm
            .as_ref()
            .is_some_and(|w| w.file_hashes == file_hashes);
        self.warm = db.map(|functions| WarmState {
            functions,
            file_hashes,
            roots: new_roots,
        });
        let store_unchanged = self.store_synced
            && files_unchanged
            && incremental.dirty_roots == 0
            && changed_functions == 0
            && self.driver.validation_cache().len() == self.synced_validation_len
            && prev_counts
                == self
                    .warm
                    .as_ref()
                    .map(|w| (w.functions.entries.len(), w.roots.len()));
        if store_unchanged {
            // Nothing to write; the on-disk store already matches.
        } else if let (Some(path), Some(warm)) = (&self.store_path, &self.warm) {
            let store = Store {
                config_fp: self.config_fp,
                corpus_fp: warm.functions.corpus_fingerprint(),
                functions: warm.functions.clone(),
                files: warm.file_hashes.clone(),
                roots: warm.roots.clone(),
                validation: if config.validation_cache {
                    self.driver.validation_cache().export()
                } else {
                    Vec::new()
                },
            };
            let t0 = Instant::now();
            let saved = store
                .save_with_faults(path, config.fault_plan.as_deref())
                .is_ok();
            let save_ns = t0.elapsed().as_nanos() as u64;
            self.store_synced = saved;
            self.synced_validation_len = self.driver.validation_cache().len();
            if tel_on {
                telemetry.record_direct(|sink| {
                    sink.record_ns("driver.serve.store_save", None, save_ns);
                    if !saved {
                        sink.add("driver.serve.store_save_errors", 1);
                    }
                });
            }
        } else {
            // No store path or nothing cacheable (ambiguous function
            // names): the disk state no longer mirrors the session.
            self.store_synced = false;
        }

        let report = Report::new(result.reports)
            .with_budget_notes(notes)
            .with_degraded(degraded);
        SessionOutcome {
            report,
            stats,
            telemetry: telemetry.snapshot(),
            incremental,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_ROOTS: &str = r#"
        struct dev { int *res; };
        int probe_a(struct dev *d) {
            if (d->res == NULL) { }
            return *d->res;
        }
        int probe_b(int n) {
            int *m = malloc(n);
            if (m == NULL) { return -1; }
            if (n < 0) { return -2; }
            free(m);
            return 0;
        }
    "#;

    fn request(files: &[(&str, &str)]) -> AnalysisRequest {
        let mut r = AnalysisRequest::new();
        for (name, text) in files {
            r = r.file(*name, *text);
        }
        r
    }

    fn config() -> AnalysisConfig {
        AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        }
    }

    #[test]
    fn empty_request_refused() {
        let mut s = AnalysisSession::new(config());
        assert_eq!(
            s.analyze(&AnalysisRequest::new()).unwrap_err(),
            SessionError::EmptyRequest
        );
    }

    #[test]
    fn compile_errors_reported() {
        let mut s = AnalysisSession::new(config());
        let err = s.analyze(&request(&[("bad.c", "int f( {")])).unwrap_err();
        assert!(matches!(err, SessionError::Compile(_)), "{err}");
    }

    #[test]
    fn second_identical_request_is_fully_clean() {
        let mut s = AnalysisSession::new(config());
        let req = request(&[("t.c", TWO_ROOTS)]);
        let first = s.analyze(&req).unwrap();
        assert!(!first.incremental.warm_start);
        assert_eq!(first.incremental.clean_roots, 0);
        let second = s.analyze(&req).unwrap();
        assert!(second.incremental.warm_start);
        assert_eq!(second.incremental.dirty_roots, 0);
        assert_eq!(second.incremental.changed_functions, 0);
        assert_eq!(second.report.to_json(), first.report.to_json());
    }

    #[test]
    fn editing_one_root_dirties_only_it() {
        let mut s = AnalysisSession::new(config());
        s.analyze(&request(&[("t.c", TWO_ROOTS)])).unwrap();
        // Append a new root in a second file: probe_a / probe_b unchanged.
        let grown = s
            .analyze(&request(&[
                ("t.c", TWO_ROOTS),
                (
                    "u.c",
                    "int probe_c(int *q) { if (q == NULL) { } return *q; }",
                ),
            ]))
            .unwrap();
        assert_eq!(grown.incremental.roots, 3);
        assert_eq!(grown.incremental.dirty_roots, 1);
        assert_eq!(grown.incremental.clean_roots, 2);
        assert_eq!(grown.incremental.changed_functions, 1);
    }

    #[test]
    fn session_outcome_matches_one_shot_driver() {
        let mut s = AnalysisSession::new(config());
        let warm = {
            let req = request(&[("t.c", TWO_ROOTS)]);
            s.analyze(&req).unwrap();
            s.analyze(&req).unwrap() // warm replay
        };
        let cold = AnalysisSession::new(config())
            .analyze_module(pata_cc::compile_one("t.c", TWO_ROOTS).unwrap());
        let cold_report = Report::new(cold.reports).with_budget_notes(cold.budget_notes);
        assert_eq!(warm.report.to_json(), cold_report.to_json());
    }
}
