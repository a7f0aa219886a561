//! The on-disk analysis store behind [`crate::AnalysisSession`].
//!
//! A store file is one versioned JSON document (written through the same
//! in-crate [`crate::json`] machinery as the report schema) holding
//! everything a later process needs to skip re-exploring unchanged roots:
//!
//! * a **header** — [`STORE_SCHEMA_VERSION`], a fingerprint of the
//!   verdict-relevant configuration, and a corpus fingerprint over every
//!   function's printed IR;
//! * the **function database** (paper §4 P1: "records function information
//!   in a database") — one `(name, fingerprint)` pair per function, the
//!   input to change detection;
//! * **per-root results** — the stage-1 candidates, exploration counters
//!   and budget note of each analysis root, keyed by the root's *closure
//!   fingerprint* (a hash covering every function transitively reachable
//!   from it). A root whose closure fingerprint is unchanged is *clean*:
//!   its exploration is deterministic, so the cached candidates are
//!   exactly what re-exploring would produce;
//! * the **validation cache** — stage-2 conjunction verdicts under their
//!   canonical keys (α-equivalent constraint systems share one entry).
//!
//! Loading is infallible by design: a missing file, malformed JSON, a
//! schema-version bump, a configuration change, or a candidate that no
//! longer resolves against the new module all degrade to a cold start
//! (`None`), never an error. Saving goes through a temp file + rename so a
//! crashed writer leaves either the old store or the new one, not a
//! truncated hybrid (which the infallible loader would shrug off anyway).
//!
//! Function fingerprints hash the function's printed IR
//! ([`pata_ir::function_text`]), which includes module-global variable
//! numbers and source line numbers. That makes them *conservative*: an
//! edit early in a file can shift the printed form of later functions and
//! over-invalidate — but never under-invalidate, which is the soundness
//! direction that matters.
//!
//! Closure fingerprints are Merkle hashes over the call graph's strongly
//! connected components (`closure_fps`): one bottom-up pass hashes each
//! component's members' `(name, fingerprint)` pairs together with the
//! hashes of the components it calls, so every function's closure is
//! fingerprinted in O(V+E) total rather than one reachability walk per
//! root. A component's hash covers everything reachable from it, so a
//! changed function moves the hash of exactly the roots that can reach
//! it.

use crate::checkers::BugKind;
use crate::collector::CallGraph;
use crate::config::{AliasMode, AnalysisConfig};
use crate::faultinject::{self, FaultPlan};
use crate::json::{quote, JsonValue};
use crate::report::{DegradedRoot, PossibleBug};
use crate::stats::{AnalysisStats, BudgetNote};
use pata_ir::{function_text, BlockId, FileId, FuncId, InstId, Loc, Module};
use pata_smt::{CmpOp, Constraint, OpaqueOp, SatResult, Term};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Version of the on-disk store schema. Bump on any change to the layout
/// or meaning of the document; [`Store::parse`] treats a mismatch as a
/// cold start, so old stores are silently discarded, never misread.
pub const STORE_SCHEMA_VERSION: u64 = 3;

// --------------------------------------------------------------------
// Fingerprints
// --------------------------------------------------------------------

/// Streaming FNV-1a. Stable across processes and platforms (unlike
/// `std`'s `DefaultHasher`, which documents no such guarantee) — a hard
/// requirement for fingerprints that outlive the process.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// FNV-1a over a byte string.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.0
}

/// The per-function change-detection fingerprint: FNV-1a over the
/// function's printed IR.
pub(crate) fn function_fingerprint(module: &Module, func: FuncId) -> u64 {
    fnv64(function_text(module, module.function(func)).as_bytes())
}

/// Fingerprint of the verdict-relevant configuration. Two configurations
/// with equal fingerprints produce byte-identical reports on the same
/// input, so cached results can be shared between them. Deliberately
/// excluded: `threads`, `telemetry`, and the verdict-neutral switches
/// `validation_cache` (stage-2 verdict cache) and `cow_state` (journaled
/// vs cloned branch forks) — the load-bearing determinism invariant says
/// they never change a verdict.
pub(crate) fn config_fingerprint(config: &AnalysisConfig) -> u64 {
    let mut text = String::new();
    for kind in &config.checkers {
        text.push_str(kind.as_str());
        text.push(',');
    }
    text.push_str(match config.alias_mode {
        AliasMode::PathBased => ";alias=path",
        AliasMode::None => ";alias=none",
    });
    let b = &config.budget;
    text.push_str(&format!(
        ";paths={};insts={};depth={};len={};loops={};validate={};fptrs={}",
        b.max_paths,
        b.max_insts,
        b.max_call_depth,
        b.max_path_len,
        b.loop_iterations,
        config.validate_paths,
        config.resolve_fptrs,
    ));
    // Fault-containment knobs are verdict-relevant: a deadline or ceiling
    // can demote/quarantine a root (changing its stored verdicts), and a
    // fault plan injects failures by design — never share cached results
    // across different settings. Zero/none render as the historical empty
    // suffix so existing stores stay warm.
    if config.root_deadline_ms != 0 {
        text.push_str(&format!(";deadline_ms={}", config.root_deadline_ms));
    }
    if config.max_live_bytes != 0 {
        text.push_str(&format!(";max_live_bytes={}", config.max_live_bytes));
    }
    if let Some(plan) = &config.fault_plan {
        if !plan.spec().is_empty() {
            text.push_str(";faults=");
            text.push_str(plan.spec());
        }
    }
    fnv64(text.as_bytes())
}

/// The function database: every function's name mapped to its
/// fingerprint, sorted by name so serialization (and the corpus
/// fingerprint) is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FunctionDb {
    pub(crate) entries: BTreeMap<String, u64>,
}

impl FunctionDb {
    /// Builds the database for `module`. Returns `None` when two functions
    /// share a name — names are the cross-process identity of functions,
    /// so an ambiguous module cannot be persisted (the session then runs
    /// every root cold, which is always safe).
    #[cfg(test)]
    pub(crate) fn build(module: &Module) -> Option<FunctionDb> {
        Self::build_with_reuse(module, None, 0)
    }

    /// Builds the database for `module` with source-prefix reuse:
    /// functions defined in the first `unchanged_files` source files of
    /// the module reuse their fingerprint from `prev` instead of
    /// re-printing their IR. Returns `None` when two functions share a
    /// name — names are the cross-process identity of functions, so an
    /// ambiguous module cannot be persisted (the session then runs every
    /// root cold, which is always safe).
    ///
    /// This is sound because the printed IR of a function depends only on
    /// its own source file and the files lowered before it (module-global
    /// variable numbering): when every file up to index `unchanged_files`
    /// is byte-identical to the previous request, the IR of the functions
    /// in those files is too. The caller establishes that prefix by
    /// comparing per-file source hashes.
    pub(crate) fn build_with_reuse(
        module: &Module,
        prev: Option<&FunctionDb>,
        unchanged_files: usize,
    ) -> Option<FunctionDb> {
        let mut entries = BTreeMap::new();
        for f in module.functions() {
            let fp = prev
                .filter(|_| f.file().index() < unchanged_files)
                .and_then(|db| db.entries.get(f.name()).copied())
                .unwrap_or_else(|| function_fingerprint(module, f.id()));
            if entries.insert(f.name().to_owned(), fp).is_some() {
                return None;
            }
        }
        Some(FunctionDb { entries })
    }

    /// Hash of the whole corpus — the store-header fingerprint.
    pub(crate) fn corpus_fingerprint(&self) -> u64 {
        let mut text = String::new();
        for (name, fp) in &self.entries {
            text.push_str(name);
            text.push_str(&format!("={fp:016x};"));
        }
        fnv64(text.as_bytes())
    }

    /// How many functions changed (different fingerprint) or appeared
    /// relative to `old`.
    pub(crate) fn changed_since(&self, old: &FunctionDb) -> u64 {
        self.entries
            .iter()
            .filter(|(name, fp)| old.entries.get(*name) != Some(fp))
            .count() as u64
    }
}

/// The closure fingerprint of every function, indexed by [`FuncId`]: a
/// Merkle hash over the call graph's SCC condensation, computed bottom-up
/// in one O(V+E) pass.
///
/// Each strongly connected component hashes its members' `(name,
/// fingerprint)` pairs in name order, then the sorted, deduplicated hashes
/// of the components it calls into. A function's closure fingerprint is
/// its component's hash, so it covers every function transitively
/// reachable through direct calls: a change to any of them changes the
/// hash (up to 64-bit collisions), and a change to nothing reachable
/// leaves it alone. With `resolve_fptrs` the explorer can enter *any*
/// function whose address flows along a path, so every closure
/// conservatively widens to the whole module: one corpus-wide hash.
///
/// The SCCs come from an iterative Tarjan walk, so deep call chains
/// cannot overflow the stack.
pub(crate) fn closure_fps(
    module: &Module,
    graph: &CallGraph,
    resolve_fptrs: bool,
    db: &FunctionDb,
) -> Vec<u64> {
    let n = module.functions().len();
    if resolve_fptrs {
        return vec![db.corpus_fingerprint(); n];
    }
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    // SCC id of each function; ids are assigned in completion order, which
    // is a reverse topological order of the condensation: every SCC a
    // component calls into completes (and is hashed) before it.
    let mut comp = vec![0usize; n];
    let mut comp_hash: Vec<u64> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    // The explicit DFS stack: (function, next callee position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut members: Vec<usize> = Vec::new();
    let mut succs: Vec<u64> = Vec::new();
    let mut next = 0u32;
    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        index[start] = next;
        low[start] = next;
        next += 1;
        stack.push(start);
        on_stack[start] = true;
        frames.push((start, 0));
        while let Some((v, pos)) = frames.last_mut() {
            let v = *v;
            if let Some(w) = graph.callees[v].get(*pos) {
                *pos += 1;
                let w = w.index();
                if index[w] == UNVISITED {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(u, _)) = frames.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] != index[v] {
                continue;
            }
            // `v` roots an SCC: pop its members and hash them.
            let id = comp_hash.len();
            members.clear();
            loop {
                let w = stack.pop().expect("SCC root is on the stack");
                on_stack[w] = false;
                comp[w] = id;
                members.push(w);
                if w == v {
                    break;
                }
            }
            members.sort_unstable_by_key(|&f| module.function(FuncId::from_index(f)).name());
            succs.clear();
            for &f in &members {
                for callee in &graph.callees[f] {
                    let c = comp[callee.index()];
                    if c != id {
                        succs.push(comp_hash[c]);
                    }
                }
            }
            succs.sort_unstable();
            succs.dedup();
            let mut h = Fnv::new();
            h.write(&(members.len() as u64).to_le_bytes());
            for &f in &members {
                let name = module.function(FuncId::from_index(f)).name();
                h.write(name.as_bytes());
                h.write(&[0]);
                h.write(&db.entries.get(name).copied().unwrap_or(0).to_le_bytes());
            }
            for s in &succs {
                h.write(&s.to_le_bytes());
            }
            comp_hash.push(h.0);
        }
    }
    comp.iter().map(|&c| comp_hash[c]).collect()
}

// --------------------------------------------------------------------
// Stored candidates
// --------------------------------------------------------------------

/// One source location in module-independent form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoredLoc {
    pub(crate) file: String,
    pub(crate) line: u32,
}

/// One instruction identity in module-independent form: function *name*
/// plus block/instruction indices. Indices are stable for an unchanged
/// function (the fingerprint covers the printed block structure), and a
/// failed bounds check at resolution time just marks the root dirty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoredInst {
    pub(crate) func: String,
    pub(crate) block: usize,
    pub(crate) inst: usize,
}

/// A [`PossibleBug`] detached from module-specific ids, so it can be
/// replayed into a freshly compiled module. SMT symbol ids are kept
/// verbatim: exploration is deterministic, so an unchanged root assigns
/// the same `SymId`s it assigned when the bug was recorded.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoredBug {
    pub(crate) kind: BugKind,
    pub(crate) origin: StoredInst,
    pub(crate) origin_loc: StoredLoc,
    pub(crate) site: StoredInst,
    pub(crate) site_loc: StoredLoc,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) extra: Vec<Constraint>,
    pub(crate) alias_paths: Vec<String>,
}

impl StoredBug {
    pub(crate) fn from_possible(bug: &PossibleBug, module: &Module) -> StoredBug {
        let inst = |id: InstId| StoredInst {
            func: module.function(id.func).name().to_owned(),
            block: id.block.index(),
            inst: id.inst,
        };
        let loc = |l: Loc| StoredLoc {
            file: module.file(l.file).name.clone(),
            line: l.line,
        };
        StoredBug {
            kind: bug.kind,
            origin: inst(bug.origin_id),
            origin_loc: loc(bug.origin_loc),
            site: inst(bug.site_id),
            site_loc: loc(bug.site_loc),
            constraints: bug.constraints.clone(),
            extra: bug.extra.clone(),
            alias_paths: bug.alias_paths.clone(),
        }
    }

    /// Re-binds the bug to `module`. `None` when a function or file named
    /// in the record no longer exists or an index is out of range — the
    /// caller then treats the whole root as dirty.
    pub(crate) fn resolve(&self, module: &Module, root: FuncId) -> Option<PossibleBug> {
        let inst = |s: &StoredInst| -> Option<InstId> {
            let func = module.function_by_name(&s.func)?;
            let blocks = module.function(func).blocks();
            let block = blocks.get(s.block)?;
            // `inst == len` denotes the terminator.
            if s.inst > block.insts.len() {
                return None;
            }
            Some(InstId {
                func,
                block: BlockId::from_index(s.block),
                inst: s.inst,
            })
        };
        let loc = |s: &StoredLoc| -> Option<Loc> {
            let idx = module.files().iter().position(|f| f.name == s.file)?;
            Some(Loc::new(FileId::from_index(idx), s.line))
        };
        Some(PossibleBug {
            kind: self.kind,
            origin_loc: loc(&self.origin_loc)?,
            origin_id: inst(&self.origin)?,
            site_loc: loc(&self.site_loc)?,
            site_id: inst(&self.site)?,
            constraints: self.constraints.clone(),
            extra: self.extra.clone(),
            alias_paths: self.alias_paths.clone(),
            root,
        })
    }
}

/// One root's persisted exploration result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoredRoot {
    /// Root function name.
    pub(crate) root: String,
    /// Closure fingerprint at the time the result was recorded.
    pub(crate) closure_fp: u64,
    /// Stage-1 candidates, in exploration order.
    pub(crate) candidates: Vec<StoredBug>,
    /// The root's exploration counters (`time` is not persisted — replayed
    /// roots contribute zero wall-clock, which is the point).
    pub(crate) stats: AnalysisStats,
    /// Budget-exhaustion note, if the root was truncated.
    pub(crate) note: Option<BudgetNote>,
    /// Degraded entry for a root the fault-containment ladder demoted —
    /// persisted so a warm replay reproduces the report's `degraded`
    /// section byte-identically. Quarantined roots are never persisted
    /// (they re-explore on the next request), so this is only ever the
    /// `"demoted"` record. Absent in older stores (parsed as `None`).
    pub(crate) degraded: Option<DegradedRoot>,
}

// --------------------------------------------------------------------
// The store document
// --------------------------------------------------------------------

/// An in-memory image of the on-disk store.
#[derive(Debug, Clone, Default)]
pub(crate) struct Store {
    /// Fingerprint of the verdict-relevant configuration.
    pub(crate) config_fp: u64,
    /// Corpus fingerprint (hash of the function database).
    pub(crate) corpus_fp: u64,
    /// The function database: `(name, fingerprint)`, sorted by name.
    pub(crate) functions: FunctionDb,
    /// Per-source-file `(name, content hash)` in request order — the
    /// basis for fingerprint prefix reuse (see
    /// [`FunctionDb::build_with_reuse`]).
    pub(crate) files: Vec<(String, u64)>,
    /// Per-root cached results, in the recorded root order.
    pub(crate) roots: Vec<StoredRoot>,
    /// Stage-2 verdicts under canonical keys, sorted by key.
    pub(crate) validation: Vec<(Vec<u8>, SatResult)>,
}

impl Store {
    /// Serializes the store to its versioned JSON document.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema_version\": ");
        out.push_str(&STORE_SCHEMA_VERSION.to_string());
        out.push_str(&format!(
            ", \"config_fingerprint\": \"{:016x}\"",
            self.config_fp
        ));
        out.push_str(&format!(
            ", \"corpus_fingerprint\": \"{:016x}\"",
            self.corpus_fp
        ));
        out.push_str(", \"functions\": [");
        for (i, (name, fp)) in self.functions.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"fp\": \"{fp:016x}\"}}",
                quote(name)
            ));
        }
        out.push_str("], \"files\": [");
        for (i, (name, hash)) in self.files.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"hash\": \"{hash:016x}\"}}",
                quote(name)
            ));
        }
        out.push_str("], \"roots\": [");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_root(&mut out, r);
        }
        out.push_str("], \"validation\": [");
        for (i, (key, verdict)) in self.validation.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"key\": \"");
            for b in key {
                out.push_str(&format!("{b:02x}"));
            }
            out.push_str("\", \"verdict\": \"");
            out.push_str(match verdict {
                SatResult::Sat => "sat",
                SatResult::Unsat => "unsat",
                SatResult::Unknown => "unknown",
            });
            out.push_str("\"}");
        }
        out.push_str("]}");
        out
    }

    /// Parses a store document written with the *current* schema version
    /// and `expect_config_fp`. Any deviation — malformed JSON, version or
    /// fingerprint mismatch, missing or mistyped field — yields `None`:
    /// the caller starts cold.
    pub(crate) fn parse(text: &str, expect_config_fp: u64) -> Option<Store> {
        let doc = JsonValue::parse(text).ok()?;
        if doc.get("schema_version")?.as_u64()? != STORE_SCHEMA_VERSION {
            return None;
        }
        let config_fp = parse_hex64(doc.get("config_fingerprint")?.as_str()?)?;
        if config_fp != expect_config_fp {
            return None;
        }
        let corpus_fp = parse_hex64(doc.get("corpus_fingerprint")?.as_str()?)?;
        let mut functions = FunctionDb::default();
        for item in doc.get("functions")?.as_array()? {
            let name = item.get("name")?.as_str()?.to_owned();
            let fp = parse_hex64(item.get("fp")?.as_str()?)?;
            functions.entries.insert(name, fp);
        }
        let mut files = Vec::new();
        for item in doc.get("files")?.as_array()? {
            let name = item.get("name")?.as_str()?.to_owned();
            let hash = parse_hex64(item.get("hash")?.as_str()?)?;
            files.push((name, hash));
        }
        let mut roots = Vec::new();
        for item in doc.get("roots")?.as_array()? {
            roots.push(parse_root(item)?);
        }
        let mut validation = Vec::new();
        for item in doc.get("validation")?.as_array()? {
            let key = parse_hex_bytes(item.get("key")?.as_str()?)?;
            let verdict = match item.get("verdict")?.as_str()? {
                "sat" => SatResult::Sat,
                "unsat" => SatResult::Unsat,
                "unknown" => SatResult::Unknown,
                _ => return None,
            };
            validation.push((key, verdict));
        }
        Some(Store {
            config_fp,
            corpus_fp,
            functions,
            files,
            roots,
            validation,
        })
    }

    /// Loads a store from disk. Infallible: any I/O or parse problem is a
    /// cold start.
    pub(crate) fn load(path: &Path, expect_config_fp: u64) -> Option<Store> {
        let text = std::fs::read_to_string(path).ok()?;
        Store::parse(&text, expect_config_fp)
    }

    /// Writes the store atomically (temp file in the same directory, then
    /// rename), so a crash mid-write never leaves a truncated store.
    /// Production callers thread their fault plan through
    /// [`Store::save_with_faults`]; this fault-free spelling serves tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn save(&self, path: &Path) -> io::Result<()> {
        self.save_with_faults(path, None)
    }

    /// [`Store::save`] with fault-injection crash points around the
    /// temp+rename protocol. Each `store.save.*` site simulates a process
    /// killed at that exact instant (a panic the crash-safety tests catch);
    /// the plain `store.save` site yields an IO error the session treats
    /// like any other failed save. Whatever the crash point, the next
    /// [`Store::load`] sees either the old store, the new store, or a
    /// stray `.tmp` it never reads — all of which cold-start cleanly.
    pub(crate) fn save_with_faults(
        &self,
        path: &Path,
        fault: Option<&FaultPlan>,
    ) -> io::Result<()> {
        faultinject::maybe_io(fault, "store.save")?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        faultinject::maybe_panic(fault, "store.save.before_tmp", "");
        let json = self.to_json();
        if fault.is_some_and(|p| p.should_fire("store.save.mid_tmp", "")) {
            // Simulate dying halfway through the temp write: leave a
            // truncated temp file behind, then "crash".
            let _ = std::fs::write(&tmp, &json.as_bytes()[..json.len() / 2]);
            panic!("fault injected: store.save.mid_tmp");
        }
        std::fs::write(&tmp, json)?;
        faultinject::maybe_panic(fault, "store.save.before_rename", "");
        std::fs::rename(&tmp, path)?;
        faultinject::maybe_panic(fault, "store.save.after_rename", "");
        Ok(())
    }
}

// --------------------------------------------------------------------
// JSON helpers (roots, bugs, constraints, stats)
// --------------------------------------------------------------------

fn parse_hex64(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

fn parse_hex_bytes(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok())
        .collect()
}

fn write_root(out: &mut String, r: &StoredRoot) {
    out.push_str("{\"root\": ");
    out.push_str(&quote(&r.root));
    out.push_str(&format!(", \"closure_fp\": \"{:016x}\"", r.closure_fp));
    out.push_str(", \"candidates\": [");
    for (i, b) in r.candidates.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_bug(out, b);
    }
    out.push_str("], \"stats\": ");
    write_stats(out, &r.stats);
    match &r.note {
        Some(n) => {
            out.push_str(&format!(
                ", \"note\": {{\"root\": {}, \"reason\": {}}}",
                quote(&n.root),
                quote(&n.reason)
            ));
        }
        None => out.push_str(", \"note\": null"),
    }
    // Emitted only when present so zero-fault stores keep their exact
    // pre-existing byte layout (and older readers' parse shape).
    if let Some(d) = &r.degraded {
        out.push_str(&format!(
            ", \"degraded\": {{\"root\": {}, \"stage\": {}, \"reason\": {}, \"action\": {}}}",
            quote(&d.root),
            quote(&d.stage),
            quote(&d.reason),
            quote(&d.action)
        ));
    }
    out.push('}');
}

fn parse_root(v: &JsonValue) -> Option<StoredRoot> {
    let mut candidates = Vec::new();
    for item in v.get("candidates")?.as_array()? {
        candidates.push(parse_bug(item)?);
    }
    let note = match v.get("note")? {
        JsonValue::Null => None,
        n => Some(BudgetNote {
            root: n.get("root")?.as_str()?.to_owned(),
            reason: n.get("reason")?.as_str()?.to_owned(),
        }),
    };
    let degraded = match v.get("degraded") {
        None | Some(JsonValue::Null) => None,
        Some(d) => Some(DegradedRoot {
            root: d.get("root")?.as_str()?.to_owned(),
            stage: d.get("stage")?.as_str()?.to_owned(),
            reason: d.get("reason")?.as_str()?.to_owned(),
            action: d.get("action")?.as_str()?.to_owned(),
        }),
    };
    Some(StoredRoot {
        root: v.get("root")?.as_str()?.to_owned(),
        closure_fp: parse_hex64(v.get("closure_fp")?.as_str()?)?,
        candidates,
        stats: parse_stats(v.get("stats")?)?,
        note,
        degraded,
    })
}

/// The per-root exploration counters worth persisting: everything the
/// explorer itself accumulates. Filter-stage counters (candidates,
/// reported, validation hits) are recomputed live on every run.
const STAT_FIELDS: [&str; 8] = [
    "roots",
    "paths_explored",
    "insts_processed",
    "typestates_aware",
    "typestates_unaware",
    "constraints_aware",
    "constraints_unaware",
    "budget_exhausted_roots",
];

fn stat_field(s: &AnalysisStats, name: &str) -> u64 {
    match name {
        "roots" => s.roots,
        "paths_explored" => s.paths_explored,
        "insts_processed" => s.insts_processed,
        "typestates_aware" => s.typestates_aware,
        "typestates_unaware" => s.typestates_unaware,
        "constraints_aware" => s.constraints_aware,
        "constraints_unaware" => s.constraints_unaware,
        "budget_exhausted_roots" => s.budget_exhausted_roots,
        _ => unreachable!("unknown stat field"),
    }
}

fn stat_field_mut<'a>(s: &'a mut AnalysisStats, name: &str) -> &'a mut u64 {
    match name {
        "roots" => &mut s.roots,
        "paths_explored" => &mut s.paths_explored,
        "insts_processed" => &mut s.insts_processed,
        "typestates_aware" => &mut s.typestates_aware,
        "typestates_unaware" => &mut s.typestates_unaware,
        "constraints_aware" => &mut s.constraints_aware,
        "constraints_unaware" => &mut s.constraints_unaware,
        "budget_exhausted_roots" => &mut s.budget_exhausted_roots,
        _ => unreachable!("unknown stat field"),
    }
}

fn write_stats(out: &mut String, s: &AnalysisStats) {
    out.push('{');
    for (i, name) in STAT_FIELDS.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {}", stat_field(s, name)));
    }
    out.push('}');
}

fn parse_stats(v: &JsonValue) -> Option<AnalysisStats> {
    let mut s = AnalysisStats::default();
    for name in STAT_FIELDS {
        *stat_field_mut(&mut s, name) = v.get(name)?.as_u64()?;
    }
    Some(s)
}

fn write_bug(out: &mut String, b: &StoredBug) {
    let inst = |s: &StoredInst| {
        format!(
            "{{\"func\": {}, \"block\": {}, \"inst\": {}}}",
            quote(&s.func),
            s.block,
            s.inst
        )
    };
    let loc = |l: &StoredLoc| format!("{{\"file\": {}, \"line\": {}}}", quote(&l.file), l.line);
    out.push_str("{\"kind\": ");
    out.push_str(&quote(b.kind.as_str()));
    out.push_str(", \"origin\": ");
    out.push_str(&inst(&b.origin));
    out.push_str(", \"origin_loc\": ");
    out.push_str(&loc(&b.origin_loc));
    out.push_str(", \"site\": ");
    out.push_str(&inst(&b.site));
    out.push_str(", \"site_loc\": ");
    out.push_str(&loc(&b.site_loc));
    out.push_str(", \"constraints\": [");
    for (i, c) in b.constraints.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_constraint(out, c);
    }
    out.push_str("], \"extra\": [");
    for (i, c) in b.extra.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_constraint(out, c);
    }
    out.push_str("], \"alias_paths\": [");
    for (i, p) in b.alias_paths.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&quote(p));
    }
    out.push_str("]}");
}

fn parse_bug(v: &JsonValue) -> Option<StoredBug> {
    let inst = |v: &JsonValue| -> Option<StoredInst> {
        Some(StoredInst {
            func: v.get("func")?.as_str()?.to_owned(),
            block: usize::try_from(v.get("block")?.as_u64()?).ok()?,
            inst: usize::try_from(v.get("inst")?.as_u64()?).ok()?,
        })
    };
    let loc = |v: &JsonValue| -> Option<StoredLoc> {
        Some(StoredLoc {
            file: v.get("file")?.as_str()?.to_owned(),
            line: u32::try_from(v.get("line")?.as_u64()?).ok()?,
        })
    };
    let constraints = |name: &str| -> Option<Vec<Constraint>> {
        v.get(name)?
            .as_array()?
            .iter()
            .map(parse_constraint)
            .collect()
    };
    let alias_paths = v
        .get("alias_paths")?
        .as_array()?
        .iter()
        .map(|p| p.as_str().map(str::to_owned))
        .collect::<Option<Vec<_>>>()?;
    Some(StoredBug {
        kind: BugKind::parse(v.get("kind")?.as_str()?)?,
        origin: inst(v.get("origin")?)?,
        origin_loc: loc(v.get("origin_loc")?)?,
        site: inst(v.get("site")?)?,
        site_loc: loc(v.get("site_loc")?)?,
        constraints: constraints("constraints")?,
        extra: constraints("extra")?,
        alias_paths,
    })
}

// --------------------------------------------------------------------
// Constraint / term serialization
// --------------------------------------------------------------------

fn cmp_op_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn parse_cmp_op(s: &str) -> Option<CmpOp> {
    Some(match s {
        "==" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        _ => return None,
    })
}

fn opaque_op_str(op: OpaqueOp) -> &'static str {
    match op {
        OpaqueOp::Mul => "mul",
        OpaqueOp::Div => "div",
        OpaqueOp::Rem => "rem",
        OpaqueOp::And => "and",
        OpaqueOp::Or => "or",
        OpaqueOp::Xor => "xor",
        OpaqueOp::Shl => "shl",
        OpaqueOp::Shr => "shr",
    }
}

fn parse_opaque_op(s: &str) -> Option<OpaqueOp> {
    Some(match s {
        "mul" => OpaqueOp::Mul,
        "div" => OpaqueOp::Div,
        "rem" => OpaqueOp::Rem,
        "and" => OpaqueOp::And,
        "or" => OpaqueOp::Or,
        "xor" => OpaqueOp::Xor,
        "shl" => OpaqueOp::Shl,
        "shr" => OpaqueOp::Shr,
        _ => return None,
    })
}

fn write_constraint(out: &mut String, c: &Constraint) {
    out.push_str(&format!("{{\"op\": \"{}\", \"l\": ", cmp_op_str(c.op)));
    write_term(out, &c.lhs);
    out.push_str(", \"r\": ");
    write_term(out, &c.rhs);
    out.push('}');
}

fn parse_constraint(v: &JsonValue) -> Option<Constraint> {
    Some(Constraint::new(
        parse_cmp_op(v.get("op")?.as_str()?)?,
        parse_term(v.get("l")?)?,
        parse_term(v.get("r")?)?,
    ))
}

fn write_term(out: &mut String, t: &Term) {
    match t {
        Term::Const(v) => out.push_str(&format!("{{\"c\": {v}}}")),
        Term::Sym(s) => out.push_str(&format!("{{\"s\": {}}}", s.0)),
        Term::Add(a, b) => write_binary(out, "+", a, b),
        Term::Sub(a, b) => write_binary(out, "-", a, b),
        Term::Mul(a, b) => write_binary(out, "*", a, b),
        Term::Opaque(op, a, b) => write_binary(out, opaque_op_str(*op), a, b),
        Term::Neg(a) => {
            out.push_str("{\"o\": \"neg\", \"a\": ");
            write_term(out, a);
            out.push('}');
        }
    }
}

fn write_binary(out: &mut String, op: &str, a: &Term, b: &Term) {
    out.push_str(&format!("{{\"o\": \"{op}\", \"a\": "));
    write_term(out, a);
    out.push_str(", \"b\": ");
    write_term(out, b);
    out.push('}');
}

fn parse_term(v: &JsonValue) -> Option<Term> {
    if let Some(c) = v.get("c") {
        return Some(Term::Const(c.as_i64()?));
    }
    if let Some(s) = v.get("s") {
        return Some(Term::Sym(pata_smt::SymId(u32::try_from(s.as_u64()?).ok()?)));
    }
    let op = v.get("o")?.as_str()?;
    let a = parse_term(v.get("a")?)?;
    if op == "neg" {
        return Some(Term::Neg(Box::new(a)));
    }
    let b = parse_term(v.get("b")?)?;
    Some(match op {
        "+" => Term::Add(Box::new(a), Box::new(b)),
        "-" => Term::Sub(Box::new(a), Box::new(b)),
        "*" => Term::Mul(Box::new(a), Box::new(b)),
        other => Term::Opaque(parse_opaque_op(other)?, Box::new(a), Box::new(b)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pata_smt::SymId;

    fn sample_constraint() -> Constraint {
        Constraint::new(
            CmpOp::Le,
            -(Term::sym(SymId(3)) + Term::int(-2)),
            Term::opaque(OpaqueOp::Shr, Term::sym(SymId(1)), Term::int(4))
                * (Term::sym(SymId(0)) - Term::int(7)),
        )
    }

    fn sample_store() -> Store {
        let mut functions = FunctionDb::default();
        functions.entries.insert("probe".into(), 0xdead_beef);
        functions.entries.insert("helper".into(), 42);
        let corpus_fp = functions.corpus_fingerprint();
        Store {
            config_fp: 7,
            corpus_fp,
            functions,
            files: vec![("a.c".into(), 0xfeed_f00d), ("dir/b.c".into(), 3)],
            roots: vec![StoredRoot {
                root: "probe".into(),
                closure_fp: 0x1234,
                candidates: vec![StoredBug {
                    kind: BugKind::NullPointerDeref,
                    origin: StoredInst {
                        func: "probe".into(),
                        block: 0,
                        inst: 2,
                    },
                    origin_loc: StoredLoc {
                        file: "a.c".into(),
                        line: 10,
                    },
                    site: StoredInst {
                        func: "helper".into(),
                        block: 1,
                        inst: 0,
                    },
                    site_loc: StoredLoc {
                        file: "a.c".into(),
                        line: 14,
                    },
                    constraints: vec![sample_constraint()],
                    extra: vec![],
                    alias_paths: vec!["probe:p".into()],
                }],
                stats: AnalysisStats {
                    roots: 1,
                    paths_explored: 9,
                    insts_processed: 100,
                    ..AnalysisStats::default()
                },
                note: Some(BudgetNote {
                    root: "probe".into(),
                    reason: "max_paths".into(),
                }),
                degraded: Some(DegradedRoot {
                    root: "probe".into(),
                    stage: "explore".into(),
                    reason: "deadline".into(),
                    action: "demoted".into(),
                }),
            }],
            validation: vec![
                (vec![0u8, 255, 16], SatResult::Unsat),
                (vec![1u8], SatResult::Sat),
                (vec![2u8], SatResult::Unknown),
            ],
        }
    }

    #[test]
    fn store_round_trips() {
        let store = sample_store();
        let back = Store::parse(&store.to_json(), store.config_fp).expect("parses");
        assert_eq!(back.config_fp, store.config_fp);
        assert_eq!(back.corpus_fp, store.corpus_fp);
        assert_eq!(back.functions, store.functions);
        assert_eq!(back.files, store.files);
        assert_eq!(back.roots, store.roots);
        assert_eq!(back.validation, store.validation);
        // Byte-stable: serializing the parsed image reproduces the text.
        assert_eq!(back.to_json(), store.to_json());
    }

    #[test]
    fn wrong_config_fingerprint_is_cold_start() {
        let store = sample_store();
        assert!(Store::parse(&store.to_json(), store.config_fp + 1).is_none());
    }

    #[test]
    fn wrong_schema_version_is_cold_start() {
        let text = sample_store().to_json().replace(
            &format!("\"schema_version\": {STORE_SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        assert!(Store::parse(&text, 7).is_none());
    }

    #[test]
    fn truncated_document_is_cold_start() {
        let text = sample_store().to_json();
        for cut in [1, text.len() / 2, text.len() - 1] {
            assert!(
                Store::parse(&text[..cut], 7).is_none(),
                "cut at {cut} must not parse"
            );
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: the fingerprint format is part of the store schema.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn config_fingerprint_tracks_verdict_relevant_fields_only() {
        let base = AnalysisConfig::default();
        let base_fp = config_fingerprint(&base);
        // Verdict-neutral switches share the fingerprint…
        let mut neutral = base.clone();
        neutral.threads = 7;
        neutral.telemetry = true;
        neutral.validation_cache = false;
        neutral.cow_state = false;
        assert_eq!(config_fingerprint(&neutral), base_fp);
        // …verdict-relevant knobs do not.
        let mut relevant = base.clone();
        relevant.budget.loop_iterations = 2;
        assert_ne!(config_fingerprint(&relevant), base_fp);
        let mut relevant = base.clone();
        relevant.validate_paths = false;
        assert_ne!(config_fingerprint(&relevant), base_fp);
        let mut relevant = base.clone();
        relevant.checkers = vec![BugKind::MemoryLeak];
        assert_ne!(config_fingerprint(&relevant), base_fp);
        // Fault-containment knobs are verdict-relevant too…
        let mut relevant = base.clone();
        relevant.root_deadline_ms = 100;
        assert_ne!(config_fingerprint(&relevant), base_fp);
        let mut relevant = base.clone();
        relevant.max_live_bytes = 1 << 20;
        assert_ne!(config_fingerprint(&relevant), base_fp);
        let mut relevant = base.clone();
        relevant.fault_plan = Some(std::sync::Arc::new(
            crate::faultinject::FaultPlan::parse("explore:r@1").unwrap(),
        ));
        assert_ne!(config_fingerprint(&relevant), base_fp);
        // …but an empty plan renders as the historical fingerprint so
        // existing stores stay warm.
        let mut empty = base;
        empty.fault_plan = Some(std::sync::Arc::new(
            crate::faultinject::FaultPlan::parse("").unwrap(),
        ));
        assert_eq!(config_fingerprint(&empty), base_fp);
    }

    #[test]
    fn degraded_field_is_optional_and_backward_compatible() {
        let mut store = sample_store();
        store.roots[0].degraded = None;
        let json = store.to_json();
        assert!(!json.contains("\"degraded\""), "omitted when None");
        let back = Store::parse(&json, store.config_fp).expect("parses");
        assert_eq!(back.roots[0].degraded, None);
    }

    /// Satellite: the store crash-safety matrix. A save killed at any
    /// crash point of the temp+rename protocol leaves the path in a state
    /// the next cold start handles: either the old store, the new store,
    /// or nothing readable — never a truncated document that parses.
    #[test]
    fn save_crash_points_cold_start_cleanly() {
        use crate::faultinject::FaultPlan;
        let dir = std::env::temp_dir().join(format!("pata-crash-matrix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let old = sample_store();
        let mut new = sample_store();
        new.roots[0].closure_fp ^= 0x5555;
        let old_json = old.to_json();
        let new_json = new.to_json();

        for (site, survives_as_new) in [
            ("store.save.before_tmp", false),
            ("store.save.mid_tmp", false),
            ("store.save.before_rename", false),
            ("store.save.after_rename", true),
        ] {
            let path = dir.join(format!("{site}.store"));
            // Baseline: the previous save landed intact.
            old.save(&path).unwrap();
            let plan = FaultPlan::parse(site).unwrap();
            let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                new.save_with_faults(&path, Some(&plan))
            }));
            assert!(killed.is_err(), "{site}: crash point fires");
            // Cold start after the "kill": load never errors, and the
            // surviving content is exactly old-or-new, never a hybrid.
            let text = std::fs::read_to_string(&path).unwrap();
            if survives_as_new {
                assert_eq!(text, new_json, "{site}: rename completed");
            } else {
                assert_eq!(text, old_json, "{site}: old store intact");
            }
            let loaded = Store::load(&path, old.config_fp);
            assert!(loaded.is_some(), "{site}: cold start parses");
            // A retry with no plan finishes the interrupted save.
            new.save(&path).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), new_json);
        }

        // The plain `store.save` site is an IO error, not a crash: the
        // caller sees `Err`, the old store is untouched.
        let path = dir.join("ioerror.store");
        old.save(&path).unwrap();
        let plan = FaultPlan::parse("store.save@1").unwrap();
        assert!(new.save_with_faults(&path, Some(&plan)).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), old_json);
        // Second attempt (hit 2) succeeds.
        new.save_with_faults(&path, Some(&plan)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), new_json);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reference oracle for `closure_fps`: a per-root walk over direct
    /// calls. `reachable(graph, root)[f]` says whether `f` is in `root`'s
    /// closure.
    fn reachable(graph: &CallGraph, root: FuncId) -> Vec<bool> {
        let mut seen = vec![false; graph.callees.len()];
        let mut stack = vec![root];
        seen[root.index()] = true;
        while let Some(f) = stack.pop() {
            for &callee in &graph.callees[f.index()] {
                if !seen[callee.index()] {
                    seen[callee.index()] = true;
                    stack.push(callee);
                }
            }
        }
        seen
    }

    /// Reference closure fingerprint: a hash over the name-sorted `(name,
    /// fingerprint)` list of the reachable set, one walk per root.
    fn flat_closure_fp(module: &Module, graph: &CallGraph, root: FuncId, db: &FunctionDb) -> u64 {
        let seen = reachable(graph, root);
        let mut names: Vec<&str> = module
            .functions()
            .iter()
            .filter(|f| seen[f.id().index()])
            .map(|f| f.name())
            .collect();
        names.sort_unstable();
        let mut text = String::new();
        for name in names {
            text.push_str(&format!("{name}={:016x};", db.entries[name]));
        }
        fnv64(text.as_bytes())
    }

    /// Checks `closure_fps` against the reachable-set oracle, taking every
    /// function of `m` as a root:
    /// * roots share a Merkle hash exactly when they share a flat closure
    ///   fingerprint (equal reachable sets mean the same SCC);
    /// * for every single-function fingerprint change, the roots whose
    ///   hash moves are exactly the roots that can reach the function;
    /// * with `resolve_fptrs`, every root's hash moves.
    fn assert_merkle_matches_oracle(m: &Module) {
        let cg = CallGraph::build(m);
        let db = FunctionDb::build(m).expect("unique names");
        let n = m.functions().len();
        let ids: Vec<FuncId> = (0..n).map(FuncId::from_index).collect();
        let base = closure_fps(m, &cg, false, &db);
        let base_all = closure_fps(m, &cg, true, &db);
        let reach: Vec<Vec<bool>> = ids.iter().map(|&r| reachable(&cg, r)).collect();
        let flat: Vec<u64> = ids
            .iter()
            .map(|&r| flat_closure_fp(m, &cg, r, &db))
            .collect();
        for a in 0..n {
            for b in 0..n {
                assert_eq!(
                    base[a] == base[b],
                    flat[a] == flat[b],
                    "grouping of {} and {}",
                    m.function(ids[a]).name(),
                    m.function(ids[b]).name()
                );
            }
        }
        for f in m.functions() {
            let mut changed = db.clone();
            *changed.entries.get_mut(f.name()).unwrap() ^= 0x9e37_79b9_7f4a_7c15;
            let after = closure_fps(m, &cg, false, &changed);
            for r in 0..n {
                assert_eq!(
                    after[r] != base[r],
                    reach[r][f.id().index()],
                    "root {} after changing {}",
                    m.function(ids[r]).name(),
                    f.name()
                );
            }
            let after_all = closure_fps(m, &cg, true, &changed);
            assert!(
                after_all.iter().zip(&base_all).all(|(x, y)| x != y),
                "with fptr resolution every root reacts to {}",
                f.name()
            );
        }
    }

    #[test]
    fn closure_fp_only_reacts_to_reachable_changes() {
        let src = r#"
            int leaf(int x) { return x; }
            int mid(int x) { return leaf(x); }
            int top(void) { return mid(3); }
            int lonely(void) { return 5; }
        "#;
        let m = pata_cc::compile_one("cf.c", src).unwrap();
        let db = FunctionDb::build(&m).unwrap();
        let cg = CallGraph::build(&m);
        let top = m.function_by_name("top").unwrap().index();
        let lonely = m.function_by_name("lonely").unwrap().index();
        let before = closure_fps(&m, &cg, false, &db);

        // Change `leaf` by pretending its fingerprint moved: top's closure
        // reacts, lonely's does not.
        let mut db2 = db.clone();
        *db2.entries.get_mut("leaf").unwrap() ^= 1;
        let after = closure_fps(&m, &cg, false, &db2);
        assert_ne!(after[top], before[top]);
        assert_eq!(after[lonely], before[lonely]);

        // With fptr resolution the closure is the whole module.
        assert_ne!(
            closure_fps(&m, &cg, true, &db2)[lonely],
            closure_fps(&m, &cg, true, &db)[lonely]
        );
    }

    #[test]
    fn merkle_closures_match_reachable_sets_on_cyclic_graphs() {
        let src = r#"
            void self_rec(int n) { if (n > 0) { self_rec(n - 1); } }
            void self_top(void) { self_rec(3); }
            void ping(int n) { if (n > 0) { pong(n - 1); } }
            void pong(int n) { if (n > 0) { ping(n - 1); } leaf(n); }
            void pair_top(void) { ping(2); }
            void leaf(int n) { }
            void cyc_a(int n) { cyc_b(n); }
            void cyc_b(int n) { cyc_c(n); }
            void cyc_c(int n) { if (n > 0) { cyc_a(n - 1); } }
            void cyc_root1(void) { cyc_a(1); }
            void cyc_root2(void) { cyc_b(1); leaf(2); }
            void d_bot(int n) { }
            void d_left(int n) { d_bot(n); }
            void d_right(int n) { d_bot(n); }
            void d_top(void) { d_left(1); d_right(2); }
        "#;
        let m = pata_cc::compile_one("cyc.c", src).unwrap();
        assert_merkle_matches_oracle(&m);
        // The 3-cycle's members share one hash; its two roots differ.
        let cg = CallGraph::build(&m);
        let db = FunctionDb::build(&m).unwrap();
        let fps = closure_fps(&m, &cg, false, &db);
        let fp = |name: &str| fps[m.function_by_name(name).unwrap().index()];
        assert_eq!(fp("cyc_a"), fp("cyc_b"));
        assert_eq!(fp("cyc_b"), fp("cyc_c"));
        assert_eq!(fp("ping"), fp("pong"));
        assert_ne!(fp("cyc_root1"), fp("cyc_root2"));
        assert_ne!(fp("d_left"), fp("d_right"));
    }

    /// A seeded random program: `n` functions, each calling up to three
    /// others drawn uniformly (self-calls and cycles included).
    fn random_program(seed: u64, n: usize) -> String {
        let mut rng = pata_corpus::Prng::seed_from_u64(seed);
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("void g{i}(int n) {{"));
            for _ in 0..rng.gen_range(0, 4) {
                src.push_str(&format!(" g{}(n);", rng.gen_range(0, n)));
            }
            src.push_str(" }\n");
        }
        src
    }

    #[test]
    fn merkle_closures_match_reachable_sets_on_seeded_programs() {
        for seed in 0..24u64 {
            let n = 4 + (seed as usize * 7) % 29;
            let src = random_program(seed, n);
            let m = pata_cc::compile_one("rand.c", &src).unwrap();
            assert_merkle_matches_oracle(&m);
        }
    }

    #[test]
    fn merkle_closures_match_reachable_sets_on_generated_corpora() {
        for (profile, seed) in [
            (pata_corpus::OsProfile::zephyr(), 1),
            (pata_corpus::OsProfile::linux(), 2),
            (pata_corpus::OsProfile::tencent(), 3),
        ] {
            let corpus = pata_corpus::Corpus::generate(&profile.with_scale(0.4).with_seed(seed));
            let m = corpus.compile().expect("corpus compiles");
            assert_merkle_matches_oracle(&m);
        }
    }

    #[test]
    fn closure_fps_survive_deep_call_chains() {
        // A 100k-deep chain would overflow a recursive SCC walk on the
        // default test-thread stack.
        let depth = 100_000;
        let mut m = Module::new();
        let file = m.add_file("chain.c");
        // `c{i}` calls `c{i - 1}`, so `c0` is the leaf at the bottom.
        for i in 0..depth {
            let mut b = pata_ir::FunctionBuilder::new(&mut m, &format!("c{i}"), file);
            if i > 0 {
                let callee = pata_ir::Callee::Direct(FuncId::from_index(i - 1));
                b.call(None, callee, Vec::new(), 1);
            }
            b.ret(None, 1);
            b.finish();
        }
        let cg = CallGraph::build(&m);
        let mut db = FunctionDb::default();
        for f in m.functions() {
            db.entries.insert(f.name().to_owned(), 1);
        }
        let before = closure_fps(&m, &cg, false, &db);
        *db.entries.get_mut("c0").unwrap() = 2;
        let after = closure_fps(&m, &cg, false, &db);
        assert!(before.iter().zip(&after).all(|(x, y)| x != y));
    }

    #[test]
    fn prefix_reuse_matches_fresh_fingerprints() {
        let first = "int alpha(int x) { return x + 1; }\n";
        let second = "int beta(int *p) { if (p == NULL) { } return *p; }\n";
        let compile = |second_text: &str| {
            let mut cc = pata_cc::Compiler::new();
            cc.add_source("a.c", first);
            cc.add_source("b.c", second_text);
            cc.compile().unwrap()
        };
        let m1 = compile(second);
        let fresh = FunctionDb::build(&m1).unwrap();

        // Unchanged prefix of 2 (both files identical): reused fingerprints
        // equal freshly computed ones even when `prev` holds poison values
        // for functions outside the prefix.
        let reused = FunctionDb::build_with_reuse(&m1, Some(&fresh), 2).unwrap();
        assert_eq!(reused, fresh);

        // Edit the second file: with prefix 1, alpha's fingerprint is
        // reused verbatim and beta's is recomputed, matching a fresh build
        // of the edited module.
        let m2 = compile("int beta(int *p) { if (p == NULL) { return 0; } return *p; }\n");
        let fresh2 = FunctionDb::build(&m2).unwrap();
        let reused2 = FunctionDb::build_with_reuse(&m2, Some(&fresh), 1).unwrap();
        assert_eq!(reused2, fresh2);
        assert_eq!(reused2.entries["alpha"], fresh.entries["alpha"]);
        assert_ne!(reused2.entries["beta"], fresh.entries["beta"]);
    }
}
