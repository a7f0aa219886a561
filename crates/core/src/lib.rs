//! # pata-core — the PATA analysis framework
//!
//! This crate implements the three key techniques of *"Path-Sensitive and
//! Alias-Aware Typestate Analysis for Detecting OS Bugs"* (ASPLOS'22):
//!
//! 1. **Path-based alias analysis** (§3.1) — [`alias::AliasGraph`] maintains
//!    one alias graph per control-flow path, updated by the `MOVE` / `STORE`
//!    / `LOAD` / `GEP` rules of Fig. 5, without any points-to information.
//!    Function calls become parameter `MOVE`s (Fig. 6).
//! 2. **Alias-aware typestate tracking** (§3.2) — [`typestate`] keeps *one*
//!    state per alias set (graph node) per checker instead of one state per
//!    variable; the six built-in [`checkers`] cover null-pointer
//!    dereferences, uninitialized-variable accesses, memory leaks (Table 2)
//!    and double lock/unlock, array-index underflow, division by zero
//!    (Table 7).
//! 3. **Alias-aware path validation** (§3.3) — [`validate`] maps every alias
//!    set to a single SMT symbol (Def. 4) and translates the candidate
//!    bug's path to constraints (Table 3), discharging them with
//!    [`pata_smt`]'s conjunction solver to drop infeasible (false) bugs.
//!
//! The pipeline mirrors the paper's three phases (§4): the information
//! collector ([`collector`]) finds *module interface functions* (functions
//! with no explicit caller — e.g. driver `probe` callbacks registered via
//! function-pointer fields, Fig. 1); the code analyzer ([`path`]) explores
//! paths from those roots while tracking alias graphs and typestates; the
//! bug filter ([`filter`]) deduplicates repeated bugs and validates path
//! feasibility. One pipeline in [`session`] runs the three phases for every
//! entry point, scheduling roots across threads with a work-stealing
//! scheduler.
//!
//! Everything is reachable through one entry point: build an
//! [`AnalysisConfig`], open an [`AnalysisSession`] (optionally backed by an
//! on-disk store for warm restarts, see [`persist`]), and submit
//! [`AnalysisRequest`]s. The [`serve`] module wraps a session in a
//! newline-delimited JSON protocol (`pata serve`) so concurrent clients
//! share one warm cache.
//!
//! # Quick start
//!
//! ```
//! use pata_core::{AnalysisConfig, AnalysisRequest, AnalysisSession};
//!
//! let mut session = AnalysisSession::new(AnalysisConfig::default());
//! let request = AnalysisRequest::new().file(
//!     "demo.c",
//!     r#"
//!     struct dev { int *res; };
//!     static int demo_probe(struct dev *d) {
//!         if (d->res == NULL) { }
//!         return *d->res;        // NPD when d->res is NULL
//!     }
//!     static struct drv demo_driver = { .probe = demo_probe };
//!     "#,
//! );
//!
//! let outcome = session.analyze(&request).unwrap();
//! assert!(outcome.report.reports.iter().any(|r| r.kind.as_str() == "null-pointer-dereference"));
//!
//! // Submitting the same sources again replays every root from the
//! // session's warm cache — no re-exploration, identical report.
//! let warm = session.analyze(&request).unwrap();
//! assert_eq!(warm.incremental.dirty_roots, 0);
//! assert_eq!(warm.report.to_json(), outcome.report.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod checkers;
pub mod collector;
pub mod config;
pub(crate) mod driver;
pub mod faultinject;
pub mod filter;
pub(crate) mod fingerprint;
pub mod json;
pub mod path;
pub mod persist;
pub mod registry;
pub mod report;
pub mod serve;
pub mod session;
pub mod stats;
pub mod telemetry;
pub mod typestate;
pub mod validate;

pub use checkers::BugKind;
pub use config::{AliasMode, AnalysisConfig, AnalysisConfigBuilder, ConfigError, PathBudget};
pub use faultinject::{FaultAction, FaultPlan, FaultPlanError};
pub use persist::STORE_SCHEMA_VERSION;
pub use registry::{BuiltinChecker, CheckerFactory, CheckerRegistry, RegistryError};
pub use report::{
    BugReport, DegradedRoot, PossibleBug, Report, ReportError, DEGRADED_SECTION_VERSION,
    REPORT_SCHEMA_VERSION,
};
#[cfg(unix)]
pub use serve::{client_request, serve_unix, serve_unix_with};
pub use serve::{
    handle_line, serve_loop, serve_loop_with, ServeOptions, ServeTotals, SERVE_PROTOCOL_VERSION,
};
pub use session::{
    AnalysisRequest, AnalysisSession, IncrementalStats, SessionError, SessionOutcome, SourceFile,
};
pub use stats::{AnalysisStats, BudgetNote};
pub use telemetry::{Telemetry, TelemetrySink, TelemetrySnapshot};
pub use validate::{PathValidator, ValidationCache};
