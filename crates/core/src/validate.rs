//! Alias-aware path validation (paper §3.3).
//!
//! Stage 1 reports possible bugs without checking code-path feasibility;
//! stage 2 translates each candidate's path to SMT constraints and asks the
//! solver whether their conjunction is satisfiable. Because stage 1 already
//! mapped every alias set to a single symbol (Def. 4/5), the constraint
//! systems are small: copy equalities and implicit field equalities
//! (Fig. 9b) never appear — they hold by symbol identity (Fig. 9c).
//!
//! An `Unsat` verdict means the path cannot execute, so the candidate is a
//! false bug and is dropped. `Sat`/`Unknown` keep the candidate (the paper
//! keeps candidates its Z3 encoding cannot refute, §5.2).
//!
//! ## Validation performance
//!
//! Two layers make stage 2 cheap (see DESIGN.md "Performance
//! architecture"):
//!
//! * [`PathValidator`] keeps one incremental solver alive across
//!   candidates. Path snapshots of the same bug share long constraint
//!   prefixes (they diverge only at late branches), so the validator diffs
//!   each conjunction against the previously asserted one, pops back to the
//!   common prefix and re-asserts only the suffix.
//! * [`ValidationCache`] memoizes whole conjunctions by a canonical
//!   (order- and symbol-rename-independent) key, so identical constraint
//!   systems — across candidates, roots, or whole runs — are solved once.
//!   α-renaming and reordering preserve satisfiability, so a shared key is
//!   always sound; imperfect canonicalization only costs extra misses.

use crate::report::PossibleBug;
use crate::telemetry::TelemetrySink;
use pata_smt::{Constraint, SatResult, Solver, SolverStats, Term};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// The verdict for one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// The path (plus bug condition) is satisfiable — a real report.
    Feasible,
    /// The conjunction is unsatisfiable — a false bug, dropped.
    Infeasible,
}

fn to_feasibility(result: SatResult) -> Feasibility {
    match result {
        SatResult::Unsat => Feasibility::Infeasible,
        SatResult::Sat | SatResult::Unknown => Feasibility::Feasible,
    }
}

/// Validates one candidate bug's code path with a fresh solver.
///
/// # Example
///
/// ```
/// use pata_core::validate::{validate_constraints, Feasibility};
/// use pata_smt::{Constraint, CmpOp, Term, SymId};
///
/// // x == 0 together with x != 0 — infeasible path.
/// let cs = vec![
///     Constraint::new(CmpOp::Eq, Term::sym(SymId(0)), Term::int(0)),
///     Constraint::new(CmpOp::Ne, Term::sym(SymId(0)), Term::int(0)),
/// ];
/// let (verdict, _) = validate_constraints(&cs, &[]);
/// assert_eq!(verdict, Feasibility::Infeasible);
/// ```
pub fn validate_constraints(
    path: &[Constraint],
    extra: &[Constraint],
) -> (Feasibility, SolverStats) {
    let mut solver = Solver::new();
    // Reserve ids at least as high as any symbol mentioned.
    let mut max_sym = 0u32;
    for c in path.iter().chain(extra) {
        max_sym = max_sym.max(max_sym_in(&c.lhs)).max(max_sym_in(&c.rhs));
    }
    solver.reserve_symbols(max_sym + 1);
    for c in path.iter().chain(extra) {
        solver.assert_constraint(c.clone());
    }
    let (result, stats) = solver.check_with_stats();
    (to_feasibility(result), stats)
}

fn max_sym_in(t: &Term) -> u32 {
    use pata_smt::Term::*;
    match t {
        Const(_) => 0,
        Sym(s) => s.0,
        Add(a, b) | Sub(a, b) | Mul(a, b) | Opaque(_, a, b) => max_sym_in(a).max(max_sym_in(b)),
        Neg(a) => max_sym_in(a),
    }
}

/// Validates a candidate bug with a fresh solver.
pub fn validate(bug: &PossibleBug) -> Feasibility {
    validate_constraints(&bug.constraints, &bug.extra).0
}

// --------------------------------------------------------------------
// Canonical conjunction keys
// --------------------------------------------------------------------

/// Builds a canonical byte key for a conjunction: constraints are sorted by
/// a symbol-independent structural skeleton, then symbols are renamed in
/// first-occurrence order and the renamed set is serialized. Conjunctions
/// that differ only by constraint order or by a symbol renaming map to the
/// same key.
///
/// The encoding is a compact byte stream (operator tags plus little-endian
/// constants) rather than text — key construction runs on every validated
/// conjunction, so it has to be cheaper than solving the (tiny) system.
fn canonical_key(conj: &[&Constraint]) -> Vec<u8> {
    // Pass 1: symbol-masked skeletons into one scratch buffer; `ranges`
    // remembers each constraint's slice.
    let mut skel = Vec::with_capacity(conj.len() * 24);
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(conj.len());
    for c in conj {
        let start = skel.len();
        encode_constraint(c, None, &mut skel);
        ranges.push((start, skel.len()));
    }
    // Skeleton ties keep input order: deterministic, and ambiguity only
    // costs cache misses, never wrong hits (the key holds the full set).
    let mut order: Vec<u32> = (0..conj.len() as u32).collect();
    order.sort_by(|&a, &b| {
        let (sa, ea) = ranges[a as usize];
        let (sb, eb) = ranges[b as usize];
        skel[sa..ea].cmp(&skel[sb..eb]).then(a.cmp(&b))
    });
    // Pass 2: re-encode in canonical order with symbols renamed in
    // first-occurrence order (index into `rename` = canonical id).
    let mut rename: Vec<pata_smt::SymId> = Vec::new();
    let mut key = Vec::with_capacity(skel.len() + 4 * conj.len());
    for i in order {
        encode_constraint(conj[i as usize], Some(&mut rename), &mut key);
        key.push(b';');
    }
    key
}

fn encode_constraint(
    c: &Constraint,
    mut rename: Option<&mut Vec<pata_smt::SymId>>,
    out: &mut Vec<u8>,
) {
    out.push(c.op as u8);
    encode_term(&c.lhs, rename.as_deref_mut(), out);
    encode_term(&c.rhs, rename, out);
}

// Term tags; CmpOp occupies 0..=5 but streams never interleave ambiguously
// (every position's interpretation is fixed by the grammar).
const TAG_CONST: u8 = 0x10;
const TAG_SYM: u8 = 0x11;
const TAG_SYM_MASKED: u8 = 0x12;
const TAG_ADD: u8 = 0x13;
const TAG_SUB: u8 = 0x14;
const TAG_MUL: u8 = 0x15;
const TAG_NEG: u8 = 0x16;
const TAG_OPAQUE: u8 = 0x17;

fn encode_term(t: &Term, mut rename: Option<&mut Vec<pata_smt::SymId>>, out: &mut Vec<u8>) {
    match t {
        Term::Const(v) => {
            out.push(TAG_CONST);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Term::Sym(s) => match rename {
            Some(map) => {
                // Linear scan: conjunctions mention a handful of symbols.
                let id = map.iter().position(|m| m == s).unwrap_or_else(|| {
                    map.push(*s);
                    map.len() - 1
                }) as u32;
                out.push(TAG_SYM);
                out.extend_from_slice(&id.to_le_bytes());
            }
            None => out.push(TAG_SYM_MASKED),
        },
        Term::Add(a, b) => {
            out.push(TAG_ADD);
            encode_term(a, rename.as_deref_mut(), out);
            encode_term(b, rename, out);
        }
        Term::Sub(a, b) => {
            out.push(TAG_SUB);
            encode_term(a, rename.as_deref_mut(), out);
            encode_term(b, rename, out);
        }
        Term::Mul(a, b) => {
            out.push(TAG_MUL);
            encode_term(a, rename.as_deref_mut(), out);
            encode_term(b, rename, out);
        }
        Term::Neg(a) => {
            out.push(TAG_NEG);
            encode_term(a, rename, out);
        }
        Term::Opaque(op, a, b) => {
            out.push(TAG_OPAQUE);
            out.push(*op as u8);
            encode_term(a, rename.as_deref_mut(), out);
            encode_term(b, rename, out);
        }
    }
}

// --------------------------------------------------------------------
// The shared validation cache
// --------------------------------------------------------------------

const SHARD_COUNT: usize = 16;

/// A concurrent map from canonical conjunction keys to solver verdicts,
/// shared across candidates, analysis runs and threads (it is `Sync`; PATA
/// keeps one per analyzer so repeated runs — e.g. benchmark iterations or
/// re-analysis after small edits — reuse earlier verdicts).
#[derive(Debug, Default)]
pub struct ValidationCache {
    shards: [Mutex<HashMap<Vec<u8>, SatResult>>; SHARD_COUNT],
}

impl ValidationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, key: &[u8]) -> &Mutex<HashMap<Vec<u8>, SatResult>> {
        // FNV-1a over the key picks the shard.
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        &self.shards[(h as usize) % SHARD_COUNT]
    }

    /// Looks up a canonical key.
    fn get(&self, key: &[u8]) -> Option<SatResult> {
        let shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        shard.get(key).copied()
    }

    /// Records a verdict.
    fn insert(&self, key: Vec<u8>, result: SatResult) {
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        shard.insert(key, result);
    }

    /// Number of cached conjunctions.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached verdict.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// Snapshots every cached verdict, sorted by key — the deterministic
    /// order the persistence layer serializes (identical caches produce
    /// identical store bytes).
    pub fn export(&self) -> Vec<(Vec<u8>, SatResult)> {
        let mut entries: Vec<(Vec<u8>, SatResult)> = Vec::with_capacity(self.len());
        for s in &self.shards {
            let shard = s.lock().unwrap_or_else(|e| e.into_inner());
            entries.extend(shard.iter().map(|(k, v)| (k.clone(), *v)));
        }
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries
    }

    /// Bulk-loads verdicts (from a persisted store). Existing entries for
    /// the same key are overwritten; a cached verdict is always safe to
    /// adopt because keys canonically identify the conjunction they answer.
    pub fn import(&self, entries: Vec<(Vec<u8>, SatResult)>) {
        for (key, verdict) in entries {
            self.insert(key, verdict);
        }
    }
}

/// Counters for one validator's lifetime, merged into
/// [`crate::AnalysisStats`] by the filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationStats {
    /// Conjunctions answered from the cache without solving.
    pub cache_hits: u64,
    /// Conjunctions solved and inserted into the cache.
    pub cache_misses: u64,
    /// Prefix constraints reused across consecutive solves via solver
    /// scopes (instead of being re-asserted from scratch).
    pub scope_reuse: u64,
    /// Conjunctions validated (with or without a cache).
    pub validated: u64,
}

// --------------------------------------------------------------------
// The incremental path validator
// --------------------------------------------------------------------

/// External symbols stay below this id; opaque symbols interned by the
/// solver are allocated above it so scope rollback can never collide them
/// with alias-set symbols. Candidates mentioning larger ids (never produced
/// by the explorer) fall back to fresh solving.
const OPAQUE_SYM_BASE: u32 = 1 << 16;

/// Validates a stream of candidate conjunctions with one incremental
/// solver, reusing shared constraint prefixes between consecutive
/// candidates and (optionally) a [`ValidationCache`].
///
/// # Example
///
/// ```
/// use pata_core::validate::{Feasibility, PathValidator, ValidationCache};
/// use pata_smt::{CmpOp, Constraint, SymId, Term};
///
/// let cache = ValidationCache::new();
/// let mut v = PathValidator::new(Some(&cache));
/// let guard = Constraint::new(CmpOp::Eq, Term::sym(SymId(0)), Term::int(0));
/// let deref = Constraint::new(CmpOp::Ne, Term::sym(SymId(0)), Term::int(0));
/// assert_eq!(v.feasibility(&[guard.clone()], &[]), Feasibility::Feasible);
/// assert_eq!(v.feasibility(&[guard, deref], &[]), Feasibility::Infeasible);
/// assert_eq!(v.stats().scope_reuse, 1); // the shared guard was not re-asserted
/// ```
#[derive(Debug)]
pub struct PathValidator<'a> {
    solver: Solver,
    /// The conjunction currently asserted, one solver scope per constraint.
    asserted: Vec<Constraint>,
    cache: Option<&'a ValidationCache>,
    stats: ValidationStats,
    /// Telemetry gate, checked once per record site (a plain bool: the
    /// validator is single-threaded, the atomic gate lives on
    /// [`crate::telemetry::Telemetry`]).
    tel_enabled: bool,
    sink: TelemetrySink,
    solve_calls: u64,
    pushes: u64,
    pops: u64,
    max_scope_depth: usize,
}

impl<'a> PathValidator<'a> {
    /// Creates a validator, optionally backed by a shared cache.
    pub fn new(cache: Option<&'a ValidationCache>) -> Self {
        Self::with_telemetry(cache, false)
    }

    /// Creates a validator that records solver telemetry when `telemetry`
    /// is true (drain it with [`PathValidator::take_telemetry`]).
    pub fn with_telemetry(cache: Option<&'a ValidationCache>, telemetry: bool) -> Self {
        let mut solver = Solver::new();
        solver.reserve_symbols(OPAQUE_SYM_BASE);
        PathValidator {
            solver,
            asserted: Vec::new(),
            cache,
            stats: ValidationStats::default(),
            tel_enabled: telemetry,
            sink: TelemetrySink::new(),
            solve_calls: 0,
            pushes: 0,
            pops: 0,
            max_scope_depth: 0,
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ValidationStats {
        self.stats
    }

    /// Drains the recorded telemetry: `validate.*` counters, the
    /// `validate.solve` histogram, and the `smt.*` solver-traffic metrics.
    /// Empty when telemetry was disabled.
    pub fn take_telemetry(&mut self) -> TelemetrySink {
        if !self.tel_enabled {
            return TelemetrySink::new();
        }
        let mut sink = std::mem::take(&mut self.sink);
        sink.add("validate.conjunctions", self.stats.validated);
        sink.add("validate.cache_hit", self.stats.cache_hits);
        sink.add("validate.cache_miss", self.stats.cache_misses);
        sink.add("validate.scope_reuse", self.stats.scope_reuse);
        sink.add("smt.solve_calls", self.solve_calls);
        sink.add("smt.push", self.pushes);
        sink.add("smt.pop", self.pops);
        sink.add("smt.propagations", self.solver.propagations());
        sink.gauge_max("smt.scope_depth.max", self.max_scope_depth as i64);
        sink
    }

    /// Validates one candidate bug.
    pub fn validate(&mut self, bug: &PossibleBug) -> Feasibility {
        self.feasibility(&bug.constraints, &bug.extra)
    }

    /// Decides feasibility of `path ∧ extra`.
    pub fn feasibility(&mut self, path: &[Constraint], extra: &[Constraint]) -> Feasibility {
        self.stats.validated += 1;
        let conj: Vec<&Constraint> = path.iter().chain(extra).collect();
        if let Some(cache) = self.cache {
            let key = canonical_key(&conj);
            if let Some(result) = cache.get(&key) {
                self.stats.cache_hits += 1;
                return to_feasibility(result);
            }
            let result = self.solve(&conj);
            self.stats.cache_misses += 1;
            cache.insert(key, result);
            to_feasibility(result)
        } else {
            to_feasibility(self.solve(&conj))
        }
    }

    fn solve(&mut self, conj: &[&Constraint]) -> SatResult {
        let started = if self.tel_enabled {
            Some(Instant::now())
        } else {
            None
        };
        let result = self.solve_inner(conj);
        if let Some(started) = started {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.sink.record_ns("validate.solve", None, ns);
            self.solve_calls += 1;
            self.max_scope_depth = self.max_scope_depth.max(self.solver.scope_depth());
        }
        result
    }

    fn solve_inner(&mut self, conj: &[&Constraint]) -> SatResult {
        let mut max_sym = 0u32;
        for c in conj {
            max_sym = max_sym.max(max_sym_in(&c.lhs)).max(max_sym_in(&c.rhs));
        }
        if max_sym >= OPAQUE_SYM_BASE {
            // Ids this large would collide with interned opaque symbols;
            // solve from scratch (correct, just not incremental).
            let mut solver = Solver::new();
            solver.reserve_symbols(max_sym + 1);
            for c in conj {
                solver.assert_constraint((*c).clone());
            }
            return solver.check();
        }

        // Pop back to the longest prefix shared with the previous
        // conjunction, then assert only the suffix — one scope each, so the
        // next candidate can rewind to any prefix boundary.
        let shared = self
            .asserted
            .iter()
            .zip(conj)
            .take_while(|(have, want)| *have == **want)
            .count();
        if self.tel_enabled {
            self.pops += self.asserted.len().saturating_sub(shared) as u64;
            self.pushes += (conj.len() - shared) as u64;
        }
        while self.asserted.len() > shared {
            self.solver.pop();
            self.asserted.pop();
        }
        self.stats.scope_reuse += shared as u64;
        for c in &conj[shared..] {
            self.solver.push();
            self.solver.assert_constraint((*c).clone());
            self.asserted.push((*c).clone());
        }
        self.solver.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pata_smt::{CmpOp, Constraint, SymId, Term};

    fn eq0(s: u32) -> Constraint {
        Constraint::new(CmpOp::Eq, Term::sym(SymId(s)), Term::int(0))
    }

    fn ne0(s: u32) -> Constraint {
        Constraint::new(CmpOp::Ne, Term::sym(SymId(s)), Term::int(0))
    }

    #[test]
    fn feasible_when_unconstrained() {
        let (v, _) = validate_constraints(&[], &[]);
        assert_eq!(v, Feasibility::Feasible);
    }

    #[test]
    fn fig9_alias_merged_symbols_refute() {
        // R(p->f)==0 (line 3) and R(t->f)!=0 (line 6) where p->f and t->f
        // share one symbol because p and t alias — paper Fig. 9c.
        let cs = vec![eq0(0), ne0(0)];
        assert_eq!(validate_constraints(&cs, &[]).0, Feasibility::Infeasible);
    }

    #[test]
    fn fig9_unaware_symbols_do_not_refute() {
        // The alias-unaware encoding gives p->f and t->f distinct symbols
        // with no connecting constraint — the false bug survives (PATA-NA's
        // higher false-positive rate, Table 6).
        let cs = vec![eq0(0), ne0(1)];
        assert_eq!(validate_constraints(&cs, &[]).0, Feasibility::Feasible);
    }

    #[test]
    fn extra_bug_condition_participates() {
        // Path says d > 0; bug condition says d == 0 — infeasible.
        let d = SymId(3);
        let path = vec![Constraint::new(CmpOp::Gt, Term::sym(d), Term::int(0))];
        let extra = vec![Constraint::new(CmpOp::Eq, Term::sym(d), Term::int(0))];
        assert_eq!(
            validate_constraints(&path, &extra).0,
            Feasibility::Infeasible
        );
    }

    #[test]
    fn incremental_matches_fresh_on_mixed_stream() {
        // Candidates sharing prefixes of different lengths, mixing verdicts.
        let streams: Vec<Vec<Constraint>> = vec![
            vec![eq0(0), eq0(1)],
            vec![eq0(0), eq0(1), ne0(0)],         // infeasible suffix
            vec![eq0(0), eq0(1), ne0(2)],         // feasible again
            vec![ne0(0)],                         // no shared prefix
            vec![eq0(0), eq0(1), ne0(2), ne0(0)], // deep infeasible
            vec![eq0(0), eq0(1), ne0(2)],         // repeat
        ];
        let mut incremental = PathValidator::new(None);
        for cs in &streams {
            let fresh = validate_constraints(cs, &[]).0;
            assert_eq!(incremental.feasibility(cs, &[]), fresh, "{cs:?}");
        }
        assert!(incremental.stats().scope_reuse > 0);
    }

    #[test]
    fn cache_hits_skip_solving_and_agree() {
        let cache = ValidationCache::new();
        let mut v = PathValidator::new(Some(&cache));
        let cs = vec![eq0(0), ne0(0)];
        assert_eq!(v.feasibility(&cs, &[]), Feasibility::Infeasible);
        assert_eq!(v.feasibility(&cs, &[]), Feasibility::Infeasible);
        assert_eq!(v.stats().cache_hits, 1);
        assert_eq!(v.stats().cache_misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_key_ignores_order_and_renaming() {
        let a = vec![eq0(4), ne0(4)];
        let b = vec![ne0(9), eq0(9)]; // reordered + renamed
        let ka = canonical_key(&a.iter().collect::<Vec<_>>());
        let kb = canonical_key(&b.iter().collect::<Vec<_>>());
        assert_eq!(ka, kb);

        let cache = ValidationCache::new();
        let mut v = PathValidator::new(Some(&cache));
        assert_eq!(v.feasibility(&a, &[]), Feasibility::Infeasible);
        assert_eq!(v.feasibility(&b, &[]), Feasibility::Infeasible);
        assert_eq!(v.stats().cache_hits, 1, "α-equivalent conjunction must hit");
    }

    #[test]
    fn cache_key_distinguishes_different_structure() {
        let a = [eq0(0), ne0(0)]; // same symbol: unsat
        let b = [eq0(0), ne0(1)]; // different symbols: sat
        let ka = canonical_key(&a.iter().collect::<Vec<_>>());
        let kb = canonical_key(&b.iter().collect::<Vec<_>>());
        assert_ne!(ka, kb);
    }

    #[test]
    fn huge_symbol_ids_fall_back_to_fresh_solving() {
        let big = OPAQUE_SYM_BASE + 7;
        let cs = vec![eq0(big), ne0(big)];
        let mut v = PathValidator::new(None);
        assert_eq!(v.feasibility(&cs, &[]), Feasibility::Infeasible);
        let sat = vec![eq0(big), ne0(big + 1)];
        assert_eq!(v.feasibility(&sat, &[]), Feasibility::Feasible);
    }

    #[test]
    fn telemetry_reflects_solver_traffic() {
        let cache = ValidationCache::new();
        let mut v = PathValidator::with_telemetry(Some(&cache), true);
        v.feasibility(&[eq0(0), eq0(1)], &[]);
        v.feasibility(&[eq0(0), eq0(1), ne0(0)], &[]);
        v.feasibility(&[eq0(0), eq0(1)], &[]); // repeat: cache hit, no solve
        let sink = v.take_telemetry();
        let tel = crate::telemetry::Telemetry::new(true);
        tel.merge(sink);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("validate.conjunctions"), 3);
        assert_eq!(snap.counter("validate.cache_hit"), 1);
        assert_eq!(snap.counter("validate.cache_miss"), 2);
        assert_eq!(snap.counter("smt.solve_calls"), 2);
        assert_eq!(snap.counter("smt.push"), 3);
        assert!(snap.gauge("smt.scope_depth.max") >= Some(2));
        assert_eq!(snap.histogram("validate.solve").unwrap().count, 2);
    }

    #[test]
    fn telemetry_disabled_records_nothing() {
        let mut v = PathValidator::new(None);
        v.feasibility(&[eq0(0), ne0(0)], &[]);
        assert!(v.take_telemetry().is_empty());
    }

    #[test]
    fn cache_is_shared_across_validators() {
        let cache = ValidationCache::new();
        {
            let mut v = PathValidator::new(Some(&cache));
            v.feasibility(&[eq0(0), ne0(0)], &[]);
        }
        let mut v2 = PathValidator::new(Some(&cache));
        assert_eq!(
            v2.feasibility(&[eq0(0), ne0(0)], &[]),
            Feasibility::Infeasible
        );
        assert_eq!(v2.stats().cache_hits, 1);
    }
}
