//! The path explorer: depth-first control-flow-path enumeration with
//! in-lockstep alias-graph updates (§3.1, Fig. 6), typestate tracking
//! (§3.2) and SMT-constraint collection for later path validation (§3.3).
//!
//! ## Traversal (paper Fig. 6)
//!
//! Analysis starts at a *module interface function* and walks the CFG
//! depth-first. At a conditional branch the current state (alias graph,
//! typestates, condition definitions, symbols, constraint trace) is marked,
//! one successor is fully explored, and the state is rolled back before the
//! other successor — the paper's per-path "COPY" of the alias graph (Fig. 7)
//! implemented with undo journals instead of clones. The copy-on-write
//! discipline is switchable ([`crate::AnalysisConfig::cow_state`], DESIGN.md
//! "Copy-on-write path state"): with it off, every branch arm restores by
//! deep-cloning the live state at the fork — the paper's literal COPY
//! semantics — which doubles as the differential oracle for the journaled
//! mode and as the baseline the `driver.explore.fork.*` telemetry (forks,
//! bytes copied vs shared, undo-journal depth) quantifies the win against.
//!
//! Loops and recursion are unrolled once: a successor block already on the
//! current within-frame DFS stack is not re-entered, and a callee already on
//! the call stack is treated as opaque (the paper's Fig. 6 lines 32-38 and
//! §3.1 soundness discussion).
//!
//! ## Calls (paper Fig. 6, HandleCALL)
//!
//! A direct call is inlined: actual arguments `MOVE` into formal parameters
//! (making them aliases), the callee is explored as a continuation of the
//! same path, and its `return` value `MOVE`s into the caller's destination.
//! External and indirect callees are opaque (PATA does not resolve
//! function pointers, §7); their pointer arguments conservatively escape.
//!
//! ## Constraints (paper §3.3, Table 3)
//!
//! Every alias set maps to one SMT symbol (Def. 4). `MOVE`/`LOAD`/`GEP`
//! therefore emit *no* constraints — the symbol identity makes the explicit
//! copy equalities and the implicit field equalities of Fig. 9 hold by
//! construction; the explorer counts what an alias-unaware encoding would
//! have emitted instead (Table 5's "SMT constraints unaware" column).

use crate::alias::{AliasGraph, Label, Mark as GraphMark, NodeId};
use crate::checkers::ml;
use crate::config::{AliasMode, AnalysisConfig};
use crate::faultinject;
use crate::fingerprint::FxHashMap;
use crate::report::PossibleBug;
use crate::stats::{AnalysisStats, BudgetNote};
use crate::typestate::{
    BranchEvent, Checker, FrameEndEvent, HeapObject, OperandKey, PendingBug, StateMark, StateTable,
    TrackCtx, TrackKey, UpdateInfo,
};
use pata_ir::{
    BlockId, Callee, CmpOp, ConstVal, FuncId, Inst, InstId, InstKind, Loc, Module, Operand,
    Terminator, VarId,
};
use pata_smt::{CmpOp as SmtOp, Constraint, SymId, Term};
use std::hash::Hash;

/// The definition of a branch-condition temporary (`c = a < b`).
#[derive(Debug, Clone, Copy)]
struct PredDef {
    op: CmpOp,
    lhs: Operand,
    rhs: Operand,
}

/// One inlined function activation.
#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    /// Explorer-unique id; heap-journal entries name their frame by serial
    /// so rollback can tell a dead frame's leftover entries (nothing to
    /// undo — the frame itself is gone) from entries of the frame currently
    /// at that depth.
    serial: u64,
    /// Per-block visit counts on the current DFS stack within this frame
    /// (the loop cut: a block may appear `loop_iterations + 1` times on a
    /// path, letting a loop body run `loop_iterations` times and the path
    /// still leave through the header's exit edge). Dense, indexed by
    /// `BlockId::index()`: block ids are small per-function integers, and
    /// this counter is hit on every block entry/exit, so an array beats a
    /// hash map on both lookup cost and allocation churn.
    visited: Vec<u32>,
    /// Heap objects allocated while this frame was active.
    heap_objects: Vec<HeapObject>,
}

impl Frame {
    fn new(func: FuncId, serial: u64, block_count: usize) -> Self {
        Frame {
            func,
            serial,
            visited: vec![0; block_count],
            heap_objects: Vec::new(),
        }
    }

    /// Rough heap footprint of one deep-cloned frame.
    fn approx_bytes(&self) -> u64 {
        (self.visited.len() * std::mem::size_of::<u32>()
            + self.heap_objects.len() * std::mem::size_of::<HeapObject>()) as u64
    }
}

/// One journaled heap-object push: which frame (by serial, see
/// [`Frame::serial`]) received an object, and at which depth it sat. The
/// journal makes [`Explorer::full_mark`] O(1) — the old design snapshotted
/// every frame's heap-object count into a `Vec`, making every branch fork
/// O(call depth) with an allocation.
#[derive(Debug, Clone, Copy)]
struct HeapPush {
    serial: u64,
    depth: u32,
}

/// A pending return site while a callee is being explored.
#[derive(Debug, Clone, Copy)]
struct Cont {
    func: FuncId,
    block: BlockId,
    next_inst: usize,
    dst: Option<VarId>,
}

/// A combined rollback point across all journaled structures. `Copy` and
/// fixed-size by design: taking one allocates nothing, so a branch fork
/// costs O(changed) regardless of call depth or path length.
#[derive(Debug, Clone, Copy)]
struct FullMark {
    graph: GraphMark,
    states: StateMark,
    conds: usize,
    syms: usize,
    fptrs: usize,
    /// Symbol counter at the mark. Restoring it makes symbol allocation a
    /// pure function of (state, remaining program): sibling branch arms
    /// allocate identical ids for identical work. (Constraints never escape
    /// their path, so reuse across rolled-back siblings cannot collide.)
    next_sym: u32,
    trace: usize,
    heap: usize,
}

/// A deep copy of every forkable structure, taken per branch arm when
/// [`crate::AnalysisConfig::cow_state`] is off — the paper's literal
/// per-successor COPY of the live state (Fig. 7). Restoring move-assigns
/// the clones back, which is observationally identical to the journal
/// rollback CoW mode performs (the equivalence tests assert byte-identical
/// reports across both). It exists as the measured baseline for the
/// `driver.explore.fork.*` telemetry and as a differential oracle for the
/// journaled mode. The continuation stack is deliberately absent: branch
/// arms are call-balanced, so `conts` returns to its fork-time value on its
/// own.
struct CloneSnapshot {
    graph: AliasGraph,
    states: StateTable,
    cond_defs: FxHashMap<VarId, PredDef>,
    cond_journal: Vec<(VarId, Option<PredDef>)>,
    syms: FxHashMap<TrackKey, SymId>,
    sym_journal: Vec<(TrackKey, Option<SymId>)>,
    fptrs: FxHashMap<TrackKey, FuncId>,
    fptr_journal: Vec<(TrackKey, Option<FuncId>)>,
    heap_journal: Vec<HeapPush>,
    next_sym: u32,
    trace: Vec<Constraint>,
    frames: Vec<Frame>,
}

/// The per-root path explorer. Construct one per analysis root via
/// [`Explorer::new`] and run [`Explorer::explore`].
pub struct Explorer<'a> {
    module: &'a Module,
    config: &'a AnalysisConfig,
    checkers: &'a [Box<dyn Checker>],

    graph: AliasGraph,
    states: StateTable,
    cond_defs: FxHashMap<VarId, PredDef>,
    cond_journal: Vec<(VarId, Option<PredDef>)>,
    syms: FxHashMap<TrackKey, SymId>,
    sym_journal: Vec<(TrackKey, Option<SymId>)>,
    /// Function addresses pinned to alias sets along the current path
    /// (the §7 function-pointer extension; populated by `FuncAddr`).
    fptrs: FxHashMap<TrackKey, FuncId>,
    fptr_journal: Vec<(TrackKey, Option<FuncId>)>,
    /// Journal of heap-object pushes (see [`HeapPush`]); gives the combined
    /// mark a single O(1) length instead of a per-frame length vector.
    heap_journal: Vec<HeapPush>,
    /// Next frame serial (see [`Frame::serial`]).
    frame_serial: u64,
    next_sym: u32,
    trace: Vec<Constraint>,

    frames: Vec<Frame>,
    call_stack: Vec<FuncId>,

    root: FuncId,
    exhausted: bool,
    pending: Vec<PendingBug>,
    seen: FxHashMap<(crate::checkers::BugKind, InstId, InstId), u8>,
    candidates: Vec<PossibleBug>,
    /// Counters for this root (merged by the driver).
    pub stats: AnalysisStats,
    /// Telemetry gate, latched once from `config.telemetry` at
    /// construction: the per-instruction cost when disabled is one branch.
    tel_enabled: bool,
    /// Alias-graph updates by rule, indexed by [`ALIAS_OP_NAMES`].
    alias_ops: [u64; ALIAS_OP_NAMES.len()],

    /// Which budget tripped first ("max_insts" / "max_paths" /
    /// "deadline" / "live_bytes"), if any.
    budget_reason: Option<&'static str>,
    /// Wall-clock deadline for this root, armed at `explore` entry when
    /// [`AnalysisConfig::root_deadline_ms`] is non-zero; checked at fork
    /// points by `check_resource_budgets`.
    deadline: Option<std::time::Instant>,
    /// Reusable per-instruction alias-resolution scratch; cleared (keeping
    /// its `Vec` capacity) instead of reallocated on every instruction.
    info_scratch: UpdateInfo,
    /// Branch-fork telemetry (`driver.explore.fork.*`), tallied only when
    /// telemetry is enabled.
    fork_stats: ForkStats,
}

/// Branch-fork cost counters for one root, merged into the
/// `driver.explore.fork.*` telemetry family by the driver. Kept out of
/// [`AnalysisStats`] on purpose: fork cost depends on the CoW knob, while
/// `AnalysisStats` must stay bit-identical across it (the equivalence
/// tests compare it directly).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ForkStats {
    /// Branch arms explored through a state fork (mark/rollback or clone).
    pub(crate) forks: u64,
    /// Bytes materialized per fork: the fixed-size mark in CoW mode, the
    /// deep-clone estimate in clone mode.
    pub(crate) bytes_copied: u64,
    /// Bytes left shared (journal-backed) at fork points in CoW mode.
    pub(crate) bytes_shared: u64,
    /// Deepest combined undo-journal length observed at a fork.
    pub(crate) journal_depth_max: u64,
    /// Largest live-state estimate observed at a fork.
    pub(crate) live_bytes_max: u64,
}

impl ForkStats {
    pub(crate) fn merge(&mut self, other: &ForkStats) {
        self.forks += other.forks;
        self.bytes_copied += other.bytes_copied;
        self.bytes_shared += other.bytes_shared;
        self.journal_depth_max = self.journal_depth_max.max(other.journal_depth_max);
        self.live_bytes_max = self.live_bytes_max.max(other.live_bytes_max);
    }
}

/// Labels for the `alias.op` telemetry counter, in `alias_ops` index order.
pub(crate) const ALIAS_OP_NAMES: [&str; 7] =
    ["move", "const", "load", "store", "gep", "addr", "index"];

/// The output of exploring one root.
pub struct ExploreResult {
    /// Candidate bugs (already path-locally deduplicated).
    pub candidates: Vec<PossibleBug>,
    /// This root's statistics.
    pub stats: AnalysisStats,
    /// Alias-graph updates by rule, in move/const/load/store/gep/addr/index
    /// order; all zero unless [`crate::AnalysisConfig::telemetry`] is set.
    /// Plain counters rather than a sink: the driver sums arrays per worker
    /// and materializes labeled metrics once per run, keeping the per-root
    /// cost away from map operations.
    pub alias_ops: [u64; 7],
    /// Set when this root hit an exploration budget (which one).
    pub budget_note: Option<BudgetNote>,
    /// Branch-fork cost counters (all zero unless telemetry is enabled).
    pub(crate) fork_stats: ForkStats,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer for `root`.
    pub fn new(
        module: &'a Module,
        config: &'a AnalysisConfig,
        checkers: &'a [Box<dyn Checker>],
        root: FuncId,
    ) -> Self {
        Explorer {
            module,
            config,
            checkers,
            graph: AliasGraph::new(),
            states: StateTable::new(),
            cond_defs: FxHashMap::default(),
            cond_journal: Vec::new(),
            syms: FxHashMap::default(),
            sym_journal: Vec::new(),
            fptrs: FxHashMap::default(),
            fptr_journal: Vec::new(),
            heap_journal: Vec::new(),
            frame_serial: 0,
            next_sym: 0,
            trace: Vec::new(),
            frames: Vec::new(),
            call_stack: Vec::new(),
            root,
            exhausted: false,
            pending: Vec::new(),
            seen: FxHashMap::default(),
            candidates: Vec::new(),
            stats: AnalysisStats::default(),
            tel_enabled: config.telemetry,
            alias_ops: [0; ALIAS_OP_NAMES.len()],
            budget_reason: None,
            deadline: None,
            info_scratch: UpdateInfo::default(),
            fork_stats: ForkStats::default(),
        }
    }

    /// Runs the exploration and returns candidates plus statistics.
    pub fn explore(mut self) -> ExploreResult {
        faultinject::maybe_panic(
            self.config.fault_plan.as_deref(),
            "explore",
            self.module.function(self.root).name(),
        );
        if self.config.root_deadline_ms > 0 {
            self.deadline = Some(
                std::time::Instant::now()
                    + std::time::Duration::from_millis(self.config.root_deadline_ms),
            );
        }
        let nblocks = self.module.function(self.root).blocks().len();
        let frame = self.new_frame(self.root, nblocks);
        self.frames.push(frame);
        self.call_stack.push(self.root);
        let entry = self.module.function(self.root).entry();
        let mut conts = Vec::new();
        self.exec_block(self.root, entry, &mut conts);
        if self.exhausted {
            self.stats.budget_exhausted_roots += 1;
        }
        self.stats.roots += 1;
        let budget_note = self.budget_reason.map(|reason| BudgetNote {
            root: self.module.function(self.root).name().to_string(),
            reason: reason.to_string(),
        });
        ExploreResult {
            candidates: self.candidates,
            stats: self.stats,
            alias_ops: self.alias_ops,
            budget_note,
            fork_stats: self.fork_stats,
        }
    }

    /// Allocates a frame with a fresh serial (see [`Frame::serial`]).
    fn new_frame(&mut self, func: FuncId, block_count: usize) -> Frame {
        let serial = self.frame_serial;
        self.frame_serial += 1;
        Frame::new(func, serial, block_count)
    }

    /// Counts one alias-graph update of rule `op` (index into
    /// [`ALIAS_OP_NAMES`]). Inlined into the already-taken instruction
    /// arms so the disabled cost is one predicted branch, with no second
    /// dispatch on the instruction kind.
    #[inline]
    fn tally_alias_op(&mut self, op: usize) {
        if self.tel_enabled {
            self.alias_ops[op] += 1;
        }
    }

    // ==============================================================
    // Marks & rollback across all journals
    // ==============================================================

    fn full_mark(&self) -> FullMark {
        FullMark {
            graph: self.graph.mark(),
            states: self.states.mark(),
            conds: self.cond_journal.len(),
            syms: self.sym_journal.len(),
            fptrs: self.fptr_journal.len(),
            next_sym: self.next_sym,
            trace: self.trace.len(),
            heap: self.heap_journal.len(),
        }
    }

    fn full_rollback(&mut self, mark: &FullMark) {
        self.graph.rollback(mark.graph);
        self.states.rollback(mark.states);
        undo_writes(&mut self.cond_defs, &mut self.cond_journal, mark.conds);
        undo_writes(&mut self.syms, &mut self.sym_journal, mark.syms);
        undo_writes(&mut self.fptrs, &mut self.fptr_journal, mark.fptrs);
        self.next_sym = mark.next_sym;
        self.trace.truncate(mark.trace);
        while self.heap_journal.len() > mark.heap {
            let e = self.heap_journal.pop().unwrap();
            let d = e.depth as usize;
            // An entry whose frame has since been discarded (a callee frame
            // dropped at its call site, possibly with objects its dead-end
            // paths never released) needs no undo: the objects went with the
            // frame. The serial distinguishes that case from the live frame
            // now at depth `d`.
            if let Some(frame) = self.frames.get_mut(d) {
                if frame.serial == e.serial {
                    frame.heap_objects.pop();
                }
            }
        }
    }

    /// Appends a heap object to the top frame's ownership list, journaling
    /// the push so a later [`Explorer::full_rollback`] can undo it without
    /// the mark having snapshotted any per-frame lengths.
    fn push_heap(&mut self, obj: HeapObject) {
        let d = self.frames.len() - 1;
        let frame = self.frames.last_mut().expect("frame");
        self.heap_journal.push(HeapPush {
            serial: frame.serial,
            depth: d as u32,
        });
        frame.heap_objects.push(obj);
    }

    // ==============================================================
    // Keys, symbols, terms
    // ==============================================================

    fn key_of(&mut self, v: VarId) -> TrackKey {
        match self.config.alias_mode {
            AliasMode::PathBased => TrackKey::Node(self.graph.node_of(v)),
            AliasMode::None => TrackKey::Var(v),
        }
    }

    fn sym_for(&mut self, key: TrackKey) -> SymId {
        if let Some(&s) = self.syms.get(&key) {
            return s;
        }
        self.fresh_sym_for(key)
    }

    /// Gives `key` a fresh symbol (used on variable redefinition in PATA-NA
    /// mode, where keys are variables and must be versioned explicitly; in
    /// alias mode fresh nodes provide versioning for free).
    fn fresh_sym_for(&mut self, key: TrackKey) -> SymId {
        let s = SymId(self.next_sym);
        self.next_sym += 1;
        bind(&mut self.syms, &mut self.sym_journal, key, s);
        s
    }

    fn operand_term(&mut self, op: Operand) -> Term {
        match op {
            Operand::Const(c) => Term::int(c.as_int()),
            Operand::Var(v) => {
                let key = self.key_of(v);
                Term::sym(self.sym_for(key))
            }
        }
    }

    fn push_constraint(&mut self, c: Constraint) {
        self.stats.constraints_aware += 1;
        self.stats.constraints_unaware += 1;
        self.trace.push(c);
    }

    /// Counts what an alias-unaware encoding would have emitted for an
    /// aliasing operation on `v`: one explicit copy equality plus one
    /// implicit equality per (transitively reachable, depth-2) struct
    /// field (paper Fig. 9: `R'(p1)==R'(p2) → R'(p1->f)==R'(p2->f)`).
    fn count_unaware_alias_op(&mut self, v: VarId) {
        let mut fields = 0u64;
        if let Some(sid) = self.module.var(v).ty.struct_id() {
            let def = self.module.struct_def(sid);
            fields += def.field_count() as u64;
            for (_, fty) in &def.fields {
                if let Some(inner) = fty.struct_id() {
                    fields += self.module.struct_def(inner).field_count() as u64;
                }
            }
        }
        self.stats.constraints_unaware += 1 + fields;
    }

    /// Counts the per-variable state synchronizations an alias-unaware
    /// tracker would perform when `dst` joins a node carrying states
    /// (paper Fig. 8a's explicit "sync" transitions).
    fn count_unaware_sync(&mut self, key: TrackKey) {
        for c in self.checkers {
            if self.states.get(c.kind().id(), key).is_some() {
                self.stats.typestates_unaware += 1;
            }
        }
    }

    // ==============================================================
    // Checker dispatch
    // ==============================================================

    fn run_checkers_inst(
        &mut self,
        kind: &InstKind,
        info: &crate::typestate::UpdateInfo,
        loc: Loc,
        inst_id: InstId,
    ) {
        // Checker callbacks are arbitrary user code (CheckerRegistry); this
        // is the site where a misbehaving checker's panic is simulated.
        faultinject::maybe_panic(
            self.config.fault_plan.as_deref(),
            "checker",
            self.module.function(self.root).name(),
        );
        let graph = &self.graph;
        let set_size = |k: TrackKey| match k {
            TrackKey::Node(n) => graph.alias_set_size(n),
            TrackKey::Var(_) => 1,
        };
        let mut cx = TrackCtx {
            states: &mut self.states,
            mode: self.config.alias_mode,
            bugs: &mut self.pending,
            stats: &mut self.stats,
            set_size: &set_size,
            loc,
            inst_id,
        };
        for c in self.checkers {
            c.on_inst(&mut cx, kind, info);
        }
        self.flush_pending();
    }

    fn run_checkers_branch(&mut self, ev: &BranchEvent) {
        let graph = &self.graph;
        let set_size = |k: TrackKey| match k {
            TrackKey::Node(n) => graph.alias_set_size(n),
            TrackKey::Var(_) => 1,
        };
        let mut cx = TrackCtx {
            states: &mut self.states,
            mode: self.config.alias_mode,
            bugs: &mut self.pending,
            stats: &mut self.stats,
            set_size: &set_size,
            loc: ev.loc,
            inst_id: ev.inst_id,
        };
        for c in self.checkers {
            c.on_branch(&mut cx, ev);
        }
        self.flush_pending();
    }

    fn run_checkers_frame_end(&mut self, ev: &FrameEndEvent<'_>) {
        let graph = &self.graph;
        let set_size = |k: TrackKey| match k {
            TrackKey::Node(n) => graph.alias_set_size(n),
            TrackKey::Var(_) => 1,
        };
        let mut cx = TrackCtx {
            states: &mut self.states,
            mode: self.config.alias_mode,
            bugs: &mut self.pending,
            stats: &mut self.stats,
            set_size: &set_size,
            loc: ev.loc,
            inst_id: ev.inst_id,
        };
        for c in self.checkers {
            c.on_frame_end(&mut cx, ev);
        }
        self.flush_pending();
    }

    /// How many distinct path snapshots are kept per problematic
    /// instruction pair: one would lose a real bug whose first discovered
    /// path happens to be infeasible (the validator then sees only the
    /// unsatisfiable snapshot), while unbounded snapshots explode on loopy
    /// code. Stage 2 reports the bug if *any* kept path validates.
    const MAX_PATHS_PER_BUG: u8 = 4;

    /// Converts pending checker reports into candidates, deduplicating by
    /// problematic-instruction pair (§4 P3) *before* rendering alias paths
    /// and cloning the trace.
    fn flush_pending(&mut self) {
        while let Some(pb) = self.pending.pop() {
            let count = self
                .seen
                .entry((pb.kind, pb.origin_id, pb.site_id))
                .or_insert(0);
            if *count >= Self::MAX_PATHS_PER_BUG {
                self.stats.repeated_bugs_dropped += 1;
                continue;
            }
            *count += 1;
            self.stats.candidates += 1;
            let alias_paths = self.render_alias_paths(pb.key);
            self.candidates
                .push(pb.into_possible(self.trace.clone(), alias_paths, self.root));
        }
    }

    /// Renders up to four access paths of the offending alias set in the
    /// paper's `func:var` notation (Fig. 7) for the human-readable report.
    fn render_alias_paths(&self, key: Option<TrackKey>) -> Vec<String> {
        const MAX_PATHS: usize = 4;
        let module = self.module;
        let name_of = |v: VarId| {
            let info = module.var(v);
            match info.func {
                Some(f) => format!("{}:{}", module.function(f).name(), info.name),
                None => info.name.clone(),
            }
        };
        match key {
            Some(TrackKey::Node(n)) => self
                .graph
                .access_paths(n, 1)
                .into_iter()
                .filter(|ap| {
                    // Skip compiler temporaries; they mean nothing to users.
                    module.var(ap.base).kind != pata_ir::VarKind::Temp
                })
                .take(MAX_PATHS)
                .map(|ap| ap.render(name_of, &module.interner))
                .collect(),
            Some(TrackKey::Var(v)) => vec![name_of(v)],
            None => Vec::new(),
        }
    }

    /// Clears states for a redefined variable in PATA-NA mode.
    fn na_clear_def(&mut self, dst: VarId) {
        if self.config.alias_mode != AliasMode::None {
            return;
        }
        for c in self.checkers {
            self.states.clear(c.kind().id(), TrackKey::Var(dst));
        }
        self.fresh_sym_for(TrackKey::Var(dst));
    }

    // ==============================================================
    // Execution
    // ==============================================================

    fn budget_ok(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        let b = &self.config.budget;
        if self.stats.insts_processed >= b.max_insts as u64 {
            self.exhausted = true;
            self.budget_reason.get_or_insert("max_insts");
            return false;
        }
        if self.stats.paths_explored >= b.max_paths as u64 {
            self.exhausted = true;
            self.budget_reason.get_or_insert("max_paths");
            return false;
        }
        true
    }

    fn path_end(&mut self) {
        self.stats.paths_explored += 1;
    }

    /// Resource-budget check at a branch fork point: injected `deadline` /
    /// `live_bytes` faults first (deterministic by construction), then the
    /// real wall-clock deadline and live-bytes ceiling. Returns whether a
    /// budget tripped *now* — the root is then marked exhausted with the
    /// budget reason and the driver's demote-then-quarantine ladder takes
    /// over.
    fn check_resource_budgets(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        let mut trip: Option<&'static str> = None;
        if let Some(plan) = self.config.fault_plan.as_deref() {
            let name = self.module.function(self.root).name();
            if plan.should_fire("deadline", name) {
                trip = Some("deadline");
            } else if plan.should_fire("live_bytes", name) {
                trip = Some("live_bytes");
            }
        }
        if trip.is_none() {
            if let Some(deadline) = self.deadline {
                if std::time::Instant::now() >= deadline {
                    trip = Some("deadline");
                }
            }
        }
        if trip.is_none()
            && self.config.max_live_bytes > 0
            && self.live_bytes_estimate() > self.config.max_live_bytes
        {
            trip = Some("live_bytes");
        }
        match trip {
            Some(reason) => {
                self.exhausted = true;
                self.budget_reason.get_or_insert(reason);
                true
            }
            None => false,
        }
    }

    /// Whether the loop cut still allows entering `block` in this frame.
    fn may_enter(&self, block: BlockId) -> bool {
        let limit = self.config.budget.loop_iterations as u32 + 1;
        let frame = self.frames.last().expect("frame");
        frame.visited[block.index()] < limit
    }

    fn exec_block(&mut self, func: FuncId, block: BlockId, conts: &mut Vec<Cont>) {
        if !self.budget_ok() {
            return;
        }
        debug_assert_eq!(self.frames.last().expect("frame").func, func);
        self.frames.last_mut().expect("frame").visited[block.index()] += 1;
        self.exec_from(func, block, 0, conts);
        self.frames.last_mut().expect("frame").visited[block.index()] -= 1;
    }

    fn exec_from(&mut self, func: FuncId, block: BlockId, start: usize, conts: &mut Vec<Cont>) {
        let f = self.module.function(func);
        let b = f.block(block);
        for i in start..b.insts.len() {
            if !self.budget_ok() {
                return;
            }
            self.stats.insts_processed += 1;
            let inst = &b.insts[i];
            let inst_id = InstId {
                func,
                block,
                inst: i,
            };
            match self.apply_inst(func, inst_id, inst, conts) {
                Flow::Continue => {}
                Flow::EnteredCall => return, // rest ran via continuation
            }
        }
        self.stats.insts_processed += 1;
        self.exec_terminator(func, block, conts);
    }

    fn exec_terminator(&mut self, func: FuncId, block: BlockId, conts: &mut Vec<Cont>) {
        let f = self.module.function(func);
        let b = f.block(block);
        let term_id = InstId {
            func,
            block,
            inst: b.insts.len(),
        };
        let term_loc = b.term_loc;
        match b.term.clone() {
            Terminator::Jump(target) => {
                if !self.may_enter(target) {
                    // Loop cut reached: the path ends here (§3.1).
                    self.path_end();
                } else {
                    self.exec_block(func, target, conts);
                }
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                if self.check_resource_budgets() {
                    // A freshly tripped deadline/ceiling truncates here,
                    // exactly like an instruction-budget trip in
                    // `budget_ok` (no `path_end` for a truncated path).
                    return;
                }
                let pred = self.cond_defs.get(&cond).copied();
                let mut any = false;
                for (succ, taken) in [(then_bb, true), (else_bb, false)] {
                    if !self.may_enter(succ) {
                        continue;
                    }
                    // Constant-foldable branches prune trivially dead edges.
                    if let Some(p) = pred {
                        if let (Operand::Const(l), Operand::Const(r)) = (p.lhs, p.rhs) {
                            let holds = p.op.eval(l.as_int(), r.as_int());
                            if holds != taken {
                                continue;
                            }
                        }
                    }
                    any = true;
                    let cow = self.config.cow_state;
                    if self.tel_enabled {
                        self.note_fork(cow);
                    }
                    if cow {
                        // Copy-on-write fork: a fixed-size mark; sibling
                        // arms restore by journal rollback, O(changed).
                        let mark = self.full_mark();
                        self.run_branch_arm(pred, taken, term_loc, term_id, func, succ, conts);
                        self.full_rollback(&mark);
                    } else {
                        // Literal COPY semantics (paper Fig. 7): deep-clone
                        // the live state, restore by move-assignment. The
                        // measured baseline and differential oracle for the
                        // journaled mode.
                        let snap = self.clone_snapshot();
                        self.run_branch_arm(pred, taken, term_loc, term_id, func, succ, conts);
                        self.restore_snapshot(snap);
                    }
                }
                if !any {
                    self.path_end();
                }
            }
            Terminator::Ret(value) => {
                self.handle_ret(value, term_loc, term_id, conts);
            }
            Terminator::Unreachable => {
                self.path_end();
            }
        }
    }

    /// One branch successor: assert the effective predicate, then explore.
    /// The caller brackets this with a fork (mark/rollback or clone/restore
    /// depending on [`crate::AnalysisConfig::cow_state`]).
    #[allow(clippy::too_many_arguments)]
    fn run_branch_arm(
        &mut self,
        pred: Option<PredDef>,
        taken: bool,
        loc: Loc,
        inst_id: InstId,
        func: FuncId,
        succ: BlockId,
        conts: &mut Vec<Cont>,
    ) {
        if let Some(p) = pred {
            self.assert_branch(p, taken, loc, inst_id);
        }
        if !self.exhausted {
            self.exec_block(func, succ, conts);
        }
    }

    /// Tallies one branch-arm fork into the `driver.explore.fork.*` family:
    /// what this fork materializes (a fixed-size mark in CoW mode, a deep
    /// clone otherwise), what stays shared, and the journal depth at the
    /// fork point. Only called when telemetry is enabled.
    fn note_fork(&mut self, cow: bool) {
        let journal_depth = (self.graph.journal_len()
            + self.states.journal_len()
            + self.cond_journal.len()
            + self.sym_journal.len()
            + self.fptr_journal.len()
            + self.heap_journal.len()) as u64;
        let live = self.live_bytes_estimate();
        let copied = if cow {
            std::mem::size_of::<FullMark>() as u64
        } else {
            live
        };
        let fs = &mut self.fork_stats;
        fs.forks += 1;
        fs.bytes_copied += copied;
        if cow {
            fs.bytes_shared += live;
        }
        fs.journal_depth_max = fs.journal_depth_max.max(journal_depth);
        fs.live_bytes_max = fs.live_bytes_max.max(live);
    }

    /// Estimate of the live path-state heap bytes a clone-based fork copies.
    /// Everything but the per-frame walk (bounded by call depth) is O(1).
    fn live_bytes_estimate(&self) -> u64 {
        use std::mem::size_of;
        self.graph.approx_bytes()
            + self.states.approx_bytes()
            + (self.cond_defs.len() * size_of::<(VarId, PredDef)>()) as u64
            + (self.cond_journal.len() * size_of::<(VarId, Option<PredDef>)>()) as u64
            + (self.syms.len() * size_of::<(TrackKey, SymId)>()) as u64
            + (self.sym_journal.len() * size_of::<(TrackKey, Option<SymId>)>()) as u64
            + (self.fptrs.len() * size_of::<(TrackKey, FuncId)>()) as u64
            + (self.fptr_journal.len() * size_of::<(TrackKey, Option<FuncId>)>()) as u64
            + (self.heap_journal.len() * size_of::<HeapPush>()) as u64
            + (self.trace.len() * size_of::<Constraint>()) as u64
            + (self.frames.len() * size_of::<Frame>()) as u64
            + self.frames.iter().map(Frame::approx_bytes).sum::<u64>()
    }

    /// Deep-copies every forkable structure (clone-fork mode).
    fn clone_snapshot(&self) -> CloneSnapshot {
        CloneSnapshot {
            graph: self.graph.clone(),
            states: self.states.clone(),
            cond_defs: self.cond_defs.clone(),
            cond_journal: self.cond_journal.clone(),
            syms: self.syms.clone(),
            sym_journal: self.sym_journal.clone(),
            fptrs: self.fptrs.clone(),
            fptr_journal: self.fptr_journal.clone(),
            heap_journal: self.heap_journal.clone(),
            next_sym: self.next_sym,
            trace: self.trace.clone(),
            frames: self.frames.clone(),
        }
    }

    /// Restores a clone-fork snapshot by move-assignment. Journals are
    /// restored to their fork-time prefixes, so marks taken before the fork
    /// stay valid, exactly as under rollback.
    fn restore_snapshot(&mut self, snap: CloneSnapshot) {
        self.graph = snap.graph;
        self.states = snap.states;
        self.cond_defs = snap.cond_defs;
        self.cond_journal = snap.cond_journal;
        self.syms = snap.syms;
        self.sym_journal = snap.sym_journal;
        self.fptrs = snap.fptrs;
        self.fptr_journal = snap.fptr_journal;
        self.heap_journal = snap.heap_journal;
        self.next_sym = snap.next_sym;
        self.trace = snap.trace;
        self.frames = snap.frames;
    }

    fn assert_branch(&mut self, p: PredDef, taken: bool, loc: Loc, inst_id: InstId) {
        // Normalize the variable (if any) to the lhs.
        let (mut op, mut lhs, mut rhs) = (p.op, p.lhs, p.rhs);
        if lhs.as_var().is_none() && rhs.as_var().is_some() {
            std::mem::swap(&mut lhs, &mut rhs);
            op = op.swap();
        }
        let eff_op = if taken { op } else { op.negate() };

        // Table 3: brt(e) / brf(e) constraints.
        let lt = self.operand_term(lhs);
        let rt = self.operand_term(rhs);
        let smt_op = to_smt_op(eff_op);
        self.push_constraint(Constraint::new(smt_op, lt, rt));

        // Checker branch events.
        let lhs_is_pointer = match lhs {
            Operand::Var(v) => self.module.var(v).ty.is_pointer(),
            Operand::Const(_) => false,
        };
        let lhs_key = match lhs {
            Operand::Var(v) => OperandKey::Var(v, self.key_of(v)),
            Operand::Const(c) => OperandKey::Const(c.as_int()),
        };
        let rhs_key = match rhs {
            Operand::Var(v) => OperandKey::Var(v, self.key_of(v)),
            Operand::Const(c) => OperandKey::Const(c.as_int()),
        };
        let ev = BranchEvent {
            op: eff_op,
            lhs: lhs_key,
            rhs: rhs_key,
            lhs_is_pointer,
            loc,
            inst_id,
        };
        self.run_checkers_branch(&ev);
    }

    fn handle_ret(
        &mut self,
        value: Option<Operand>,
        loc: Loc,
        inst_id: InstId,
        conts: &mut Vec<Cont>,
    ) {
        // Frame-end events (memory-leak finalization).
        let ret_val_key = match value {
            Some(Operand::Var(v)) => Some(self.key_of(v)),
            _ => None,
        };
        let frame_objects = std::mem::take(&mut self.frames.last_mut().unwrap().heap_objects);
        {
            let ev = FrameEndEvent {
                heap_objects: &frame_objects,
                ret_val_key,
                loc,
                inst_id,
            };
            self.run_checkers_frame_end(&ev);
        }
        self.frames.last_mut().unwrap().heap_objects = frame_objects;

        // UVA `use` of the returned value.
        if let Some(Operand::Var(v)) = value {
            let key = self.key_of(v);
            let info = crate::typestate::UpdateInfo {
                use_keys: vec![(v, key)],
                ..Default::default()
            };
            // Reuse the Move shape so checkers treat it as a plain use.
            let kind = InstKind::Move { dst: v, src: v };
            self.run_checkers_inst(&kind, &info, loc, inst_id);
        }

        if conts.is_empty() {
            // Root return: the path is complete.
            self.path_end();
            return;
        }

        // Return into the caller's continuation.
        let cont = conts.pop().expect("cont");
        let frame = self.frames.pop().expect("frame");
        let callee = self.call_stack.pop().unwrap();
        self.ret_into_caller(value, loc, inst_id, &cont, conts);
        // Restore structural stacks for sibling paths in the callee.
        self.call_stack.push(callee);
        self.frames.push(frame);
        conts.push(cont);
    }

    /// The caller-side tail of a return: bind the value, re-own returned
    /// heap objects, and continue the caller's block.
    fn ret_into_caller(
        &mut self,
        value: Option<Operand>,
        loc: Loc,
        inst_id: InstId,
        cont: &Cont,
        conts: &mut Vec<Cont>,
    ) {
        if let Some(dst) = cont.dst {
            self.bind_value(dst, value, loc, inst_id);
            // Re-own heap objects transferred by `return p` (ML RETURNED →
            // SNF in the caller's frame).
            let dst_key = self.key_of(dst);
            let ml_id = crate::checkers::BugKind::MemoryLeak.id();
            if let Some(entry) = self.states.get(ml_id, dst_key) {
                if entry.state == ml::S_RETURNED {
                    let graph = &self.graph;
                    let set_size = |k: TrackKey| match k {
                        TrackKey::Node(n) => graph.alias_set_size(n),
                        TrackKey::Var(_) => 1,
                    };
                    let mut cx = TrackCtx {
                        states: &mut self.states,
                        mode: self.config.alias_mode,
                        bugs: &mut self.pending,
                        stats: &mut self.stats,
                        set_size: &set_size,
                        loc,
                        inst_id,
                    };
                    cx.transition(ml_id, dst_key, ml::S_NF, Some(entry));
                    self.push_heap(HeapObject {
                        key: dst_key,
                        loc: entry.origin_loc,
                        inst_id: entry.origin_id,
                    });
                }
            }
        }

        self.exec_from(cont.func, cont.block, cont.next_inst, conts);
    }

    /// Binds `value` into `dst` as the paper's return-MOVE (Fig. 6 line 20).
    fn bind_value(&mut self, dst: VarId, value: Option<Operand>, loc: Loc, inst_id: InstId) {
        match value {
            Some(Operand::Var(src)) => {
                self.na_clear_def(dst);
                let info = match self.config.alias_mode {
                    AliasMode::PathBased => {
                        let n = self.graph.handle_move(dst, src);
                        self.count_unaware_alias_op(src);
                        self.count_unaware_sync(nkey(n));
                        crate::typestate::UpdateInfo {
                            dst_key: Some(nkey(n)),
                            move_pair: Some((nkey(n), nkey(n))),
                            ..Default::default()
                        }
                    }
                    AliasMode::None => {
                        let dk = TrackKey::Var(dst);
                        let sk = TrackKey::Var(src);
                        let d = self.sym_for(dk);
                        let s = self.sym_for(sk);
                        self.push_constraint(Constraint::new(
                            SmtOp::Eq,
                            Term::sym(d),
                            Term::sym(s),
                        ));
                        crate::typestate::UpdateInfo {
                            dst_key: Some(dk),
                            move_pair: Some((dk, sk)),
                            ..Default::default()
                        }
                    }
                };
                let kind = InstKind::Move { dst, src };
                self.run_checkers_inst(&kind, &info, loc, inst_id);
            }
            Some(Operand::Const(c)) => {
                self.na_clear_def(dst);
                let key = match self.config.alias_mode {
                    AliasMode::PathBased => nkey(self.graph.handle_const(dst)),
                    AliasMode::None => TrackKey::Var(dst),
                };
                let s = self.sym_for(key);
                self.push_constraint(Constraint::new(
                    SmtOp::Eq,
                    Term::sym(s),
                    Term::int(c.as_int()),
                ));
                let kind = InstKind::Const { dst, value: c };
                let info = crate::typestate::UpdateInfo {
                    dst_key: Some(key),
                    ..Default::default()
                };
                self.run_checkers_inst(&kind, &info, loc, inst_id);
            }
            None => {
                // void return into a destination: havoc.
                self.na_clear_def(dst);
                if self.config.alias_mode == AliasMode::PathBased {
                    self.graph.handle_const(dst);
                }
            }
        }
    }

    // ==============================================================
    // Instructions
    // ==============================================================

    fn apply_inst(
        &mut self,
        func: FuncId,
        inst_id: InstId,
        inst: &Inst,
        conts: &mut Vec<Cont>,
    ) -> Flow {
        let loc = inst.loc;
        let alias = self.config.alias_mode == AliasMode::PathBased;
        // Calls carry their own scratch discipline (checker dispatch happens
        // before recursing into the callee); delegate before borrowing ours.
        if let InstKind::Call { dst, callee, args } = &inst.kind {
            return self.apply_call(func, inst_id, loc, *dst, *callee, args, &inst.kind, conts);
        }
        // Reuse one scratch `UpdateInfo` per explorer: `clear` keeps the
        // `use_keys`/`escape_keys` capacity, removing an alloc/free pair
        // from every instruction step.
        let mut info = std::mem::take(&mut self.info_scratch);
        info.clear();
        match &inst.kind {
            InstKind::Move { dst, src } => {
                info.use_keys.push((*src, self.key_of(*src)));
                self.na_clear_def(*dst);
                if alias {
                    self.tally_alias_op(0);
                    let n = self.graph.handle_move(*dst, *src);
                    self.count_unaware_alias_op(*src);
                    self.count_unaware_sync(nkey(n));
                    info.dst_key = Some(nkey(n));
                    info.move_pair = Some((nkey(n), nkey(n)));
                } else {
                    let dk = TrackKey::Var(*dst);
                    let sk = TrackKey::Var(*src);
                    let d = self.sym_for(dk);
                    let s = self.sym_for(sk);
                    self.push_constraint(Constraint::new(SmtOp::Eq, Term::sym(d), Term::sym(s)));
                    info.dst_key = Some(dk);
                    info.move_pair = Some((dk, sk));
                }
            }
            InstKind::Const { dst, value } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    self.tally_alias_op(1);
                    nkey(self.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                let s = self.sym_for(key);
                self.push_constraint(Constraint::new(
                    SmtOp::Eq,
                    Term::sym(s),
                    Term::int(value.as_int()),
                ));
                info.dst_key = Some(key);
            }
            InstKind::Load { dst, addr } => {
                info.use_keys.push((*addr, self.key_of(*addr)));
                info.deref_key = Some(self.key_of(*addr));
                self.na_clear_def(*dst);
                if alias {
                    self.tally_alias_op(2);
                    let n = self.graph.handle_load(*dst, *addr);
                    self.count_unaware_alias_op(*dst);
                    self.count_unaware_sync(nkey(n));
                    info.dst_key = Some(nkey(n));
                } else {
                    info.dst_key = Some(TrackKey::Var(*dst));
                }
            }
            InstKind::Store { addr, val } => {
                info.use_keys.push((*addr, self.key_of(*addr)));
                info.deref_key = Some(self.key_of(*addr));
                if let Operand::Var(v) = val {
                    info.use_keys.push((*v, self.key_of(*v)));
                }
                if alias {
                    self.tally_alias_op(3);
                    match val {
                        Operand::Var(v) => {
                            // A stored function pointer keeps its binding:
                            // the value's node IS the new deref target, so
                            // the fptr map needs no update in alias mode.
                            let si = self.graph.handle_store(*addr, *v);
                            self.count_unaware_alias_op(*v);
                            info.stored_val_key = Some(nkey(si.new_target));
                            info.store_old_target = si.old_target.map(nkey);
                        }
                        Operand::Const(c) => {
                            let si = self.graph.handle_store_const(*addr);
                            let key = nkey(si.new_target);
                            let s = self.sym_for(key);
                            self.push_constraint(Constraint::new(
                                SmtOp::Eq,
                                Term::sym(s),
                                Term::int(c.as_int()),
                            ));
                            info.stored_const = Some((key, *c));
                            info.store_old_target = si.old_target.map(nkey);
                        }
                    }
                }
            }
            InstKind::Gep { dst, base, field } => {
                info.use_keys.push((*base, self.key_of(*base)));
                info.deref_key = Some(self.key_of(*base));
                self.na_clear_def(*dst);
                if alias {
                    self.tally_alias_op(4);
                    let n = self.graph.handle_gep(*dst, *base, *field);
                    self.count_unaware_alias_op(*dst);
                    self.count_unaware_sync(nkey(n));
                    info.dst_key = Some(nkey(n));
                } else {
                    info.dst_key = Some(TrackKey::Var(*dst));
                }
            }
            InstKind::AddrOf { dst, src } => {
                self.na_clear_def(*dst);
                if alias {
                    self.tally_alias_op(5);
                    let n = self.graph.handle_addr_of(*dst, *src);
                    self.count_unaware_alias_op(*dst);
                    info.dst_key = Some(nkey(n));
                } else {
                    info.dst_key = Some(TrackKey::Var(*dst));
                }
            }
            InstKind::Index { dst, base, index } => {
                info.use_keys.push((*base, self.key_of(*base)));
                info.deref_key = Some(self.key_of(*base));
                if let Operand::Var(v) = index {
                    info.use_keys.push((*v, self.key_of(*v)));
                    info.index_key = Some(self.key_of(*v));
                }
                info.index_const = index.as_const().map(|c| c.as_int());
                self.na_clear_def(*dst);
                if alias {
                    // Element access paths are keyed by the index operand
                    // (paper §5.2: array-insensitive access paths).
                    let label = match index {
                        Operand::Const(c) => Label::ElemConst(c.as_int()),
                        Operand::Var(v) => Label::ElemVar(v.index() as u32),
                    };
                    self.tally_alias_op(6);
                    let n = self.graph.handle_index(*dst, *base, label);
                    self.count_unaware_alias_op(*dst);
                    info.dst_key = Some(nkey(n));
                } else {
                    info.dst_key = Some(TrackKey::Var(*dst));
                }
            }
            InstKind::Bin { dst, op, lhs, rhs } => {
                for o in [lhs, rhs] {
                    if let Operand::Var(v) = o {
                        info.use_keys.push((*v, self.key_of(*v)));
                    }
                }
                if op.traps_on_zero() {
                    if let Operand::Var(v) = rhs {
                        info.divisor_key = Some(self.key_of(*v));
                    }
                    info.divisor_const = rhs.as_const().map(|c| c.as_int());
                }
                let lt = self.operand_term(*lhs);
                let rt = self.operand_term(*rhs);
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                let s = self.sym_for(key);
                let rhs_term = bin_term(*op, lt, rt);
                self.push_constraint(Constraint::new(SmtOp::Eq, Term::sym(s), rhs_term));
                info.dst_key = Some(key);
            }
            InstKind::Cmp { dst, op, lhs, rhs } => {
                for o in [lhs, rhs] {
                    if let Operand::Var(v) = o {
                        info.use_keys.push((*v, self.key_of(*v)));
                    }
                }
                // Remember the predicate for the branch that consumes dst.
                let pred = PredDef {
                    op: *op,
                    lhs: *lhs,
                    rhs: *rhs,
                };
                bind(&mut self.cond_defs, &mut self.cond_journal, *dst, pred);
                self.na_clear_def(*dst);
                if alias {
                    let n = self.graph.handle_const(*dst);
                    info.dst_key = Some(nkey(n));
                } else {
                    info.dst_key = Some(TrackKey::Var(*dst));
                }
            }
            InstKind::Call { .. } => unreachable!("calls are delegated before the scratch borrow"),
            InstKind::FuncAddr { dst, func: target } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                bind(&mut self.fptrs, &mut self.fptr_journal, key, *target);
                info.dst_key = Some(key);
            }
            InstKind::Alloca { dst, .. } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                info.dst_key = Some(key);
            }
            InstKind::Malloc { dst } => {
                self.na_clear_def(*dst);
                let key = if alias {
                    nkey(self.graph.handle_const(*dst))
                } else {
                    TrackKey::Var(*dst)
                };
                info.dst_key = Some(key);
                self.push_heap(HeapObject { key, loc, inst_id });
            }
            InstKind::Free { ptr } => {
                info.use_keys.push((*ptr, self.key_of(*ptr)));
                info.free_key = Some(self.key_of(*ptr));
            }
            InstKind::Memset { ptr } => {
                info.use_keys.push((*ptr, self.key_of(*ptr)));
                info.deref_key = Some(self.key_of(*ptr));
            }
            InstKind::Lock { obj } | InstKind::Unlock { obj } => {
                info.use_keys.push((*obj, self.key_of(*obj)));
                info.lock_key = Some(self.key_of(*obj));
            }
        }
        self.run_checkers_inst(&inst.kind, &info, loc, inst_id);
        self.info_scratch = info;
        Flow::Continue
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_call(
        &mut self,
        func: FuncId,
        inst_id: InstId,
        loc: Loc,
        dst: Option<VarId>,
        callee: Callee,
        args: &[Operand],
        kind: &InstKind,
        conts: &mut Vec<Cont>,
    ) -> Flow {
        let mut info = std::mem::take(&mut self.info_scratch);
        info.clear();
        for a in args {
            if let Operand::Var(v) = a {
                info.use_keys.push((*v, self.key_of(*v)));
            }
        }

        // §7 extension: an indirect call whose function pointer's alias set
        // is pinned to a FuncAddr along this path resolves like a direct
        // call (e.g. `d->ops = my_handler; … d->ops(d);`).
        let effective = match callee {
            Callee::Indirect(v) if self.config.resolve_fptrs => {
                let key = self.key_of(v);
                match self.fptrs.get(&key) {
                    Some(&f) => Callee::Direct(f),
                    None => callee,
                }
            }
            other => other,
        };
        let inline_target = match effective {
            Callee::Direct(f)
                if !self.call_stack.contains(&f)
                    && self.call_stack.len() < self.config.budget.max_call_depth =>
            {
                Some(f)
            }
            _ => None,
        };

        if inline_target.is_none() {
            // Opaque call (external, indirect, recursion cut, depth cap):
            // pointer arguments escape; the result is havoced.
            for a in args {
                if let Operand::Var(v) = a {
                    if self.module.var(*v).ty.is_pointer() {
                        info.escape_keys.push(self.key_of(*v));
                    }
                }
            }
            if let Some(d) = dst {
                self.na_clear_def(d);
                let key = if self.config.alias_mode == AliasMode::PathBased {
                    nkey(self.graph.handle_const(d))
                } else {
                    TrackKey::Var(d)
                };
                info.dst_key = Some(key);
            }
            // Dispatch on the original instruction — no rebuilt `InstKind`
            // (the old path cloned the argument vector just to hand the
            // checkers a value identical to `kind`).
            self.run_checkers_inst(kind, &info, loc, inst_id);
            self.info_scratch = info;
            return Flow::Continue;
        }

        let f = inline_target.unwrap();
        // Report uses (e.g. passing an uninitialized value) before binding.
        self.run_checkers_inst(kind, &info, loc, inst_id);
        self.info_scratch = info;

        // HandleCALL (Fig. 6): parameter passing is a sequence of MOVEs.
        // Borrowed straight from the module (its lifetime outlives `self`
        // borrows) — the old copy into a fresh `Vec` was pure churn.
        let module: &Module = self.module;
        let params: &[VarId] = module.function(f).params();
        for (i, &param) in params.iter().enumerate() {
            let arg = args
                .get(i)
                .copied()
                .unwrap_or(Operand::Const(ConstVal::Int(0)));
            self.bind_value(param, Some(arg), loc, inst_id);
        }

        conts.push(Cont {
            func,
            block: inst_id.block,
            next_inst: inst_id.inst + 1,
            dst,
        });
        self.call_stack.push(f);
        let nblocks = self.module.function(f).blocks().len();
        let frame = self.new_frame(f, nblocks);
        self.frames.push(frame);
        let entry = self.module.function(f).entry();
        self.exec_block(f, entry, conts);
        self.frames.pop();
        self.call_stack.pop();
        conts.pop();
        Flow::EnteredCall
    }
}

enum Flow {
    Continue,
    EnteredCall,
}

fn nkey(n: NodeId) -> TrackKey {
    TrackKey::Node(n)
}

/// Binds `k` to `v` in a journaled path-local map.
fn bind<K: Copy + Eq + Hash, V>(
    map: &mut FxHashMap<K, V>,
    journal: &mut Vec<(K, Option<V>)>,
    k: K,
    v: V,
) {
    let old = map.insert(k, v);
    journal.push((k, old));
}

/// Rolls a journaled path-local map back to journal length `len`.
fn undo_writes<K: Eq + Hash, V>(
    map: &mut FxHashMap<K, V>,
    journal: &mut Vec<(K, Option<V>)>,
    len: usize,
) {
    while journal.len() > len {
        let (k, old) = journal.pop().unwrap();
        match old {
            Some(v) => {
                map.insert(k, v);
            }
            None => {
                map.remove(&k);
            }
        }
    }
}

fn to_smt_op(op: CmpOp) -> SmtOp {
    match op {
        CmpOp::Eq => SmtOp::Eq,
        CmpOp::Ne => SmtOp::Ne,
        CmpOp::Lt => SmtOp::Lt,
        CmpOp::Le => SmtOp::Le,
        CmpOp::Gt => SmtOp::Gt,
        CmpOp::Ge => SmtOp::Ge,
    }
}

fn bin_term(op: pata_ir::BinOp, lhs: Term, rhs: Term) -> Term {
    use pata_ir::BinOp as B;
    use pata_smt::OpaqueOp as O;
    match op {
        B::Add => lhs + rhs,
        B::Sub => lhs - rhs,
        B::Mul => lhs * rhs,
        B::Div => Term::opaque(O::Div, lhs, rhs),
        B::Rem => Term::opaque(O::Rem, lhs, rhs),
        B::And => Term::opaque(O::And, lhs, rhs),
        B::Or => Term::opaque(O::Or, lhs, rhs),
        B::Xor => Term::opaque(O::Xor, lhs, rhs),
        B::Shl => Term::opaque(O::Shl, lhs, rhs),
        B::Shr => Term::opaque(O::Shr, lhs, rhs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnalysisConfig;

    /// Forked diamonds with a helper call, a loop, heap traffic and real
    /// bugs on some paths: every forked structure (graph, states,
    /// cond/sym/fptr maps, frames, visit counts, heap objects) is
    /// exercised, and both fork directions carry different state.
    const DIAMOND_SRC: &str = r#"
        struct pkt { int len; int mode; int *payload; };

        static int clamp(int n) {
            if (n > 8) { n = 8; }
            if (n < 0) { n = 0; }
            return n;
        }

        static int drain(struct pkt *p) {
            int total = 0;
            int i = 0;
            while (i < 3) {
                if (p->mode > 0) { total = total + clamp(i); } else { total = total - 1; }
                i = i + 1;
            }
            if (p->payload == NULL) { log_warn("drain"); }
            return *p->payload + total;
        }

        static int route(struct pkt *p) {
            int *scratch = malloc(32);
            int acc = 0;
            if (p->len > 0) { acc = clamp(p->len); } else { acc = 1; }
            if (p->mode > 1) { acc = acc + drain(p); } else { acc = acc + 2; }
            if (acc > 4) {
                return acc;
            }
            free(scratch);
            return 0;
        }

        void pkt_entry(struct pkt *p) {
            int r = 0;
            if (p == NULL) { return; }
            r = route(p);
            if (r < 0) { log_warn("entry"); }
        }
    "#;

    fn explore_all(config: &AnalysisConfig) -> (usize, u64, ForkStats) {
        let mut module = pata_cc::compile_one("d.c", DIAMOND_SRC).unwrap();
        let checkers: Vec<Box<dyn Checker>> =
            config.checkers.iter().map(|k| k.instantiate()).collect();
        let roots = crate::collector::mark_interfaces(&mut module);
        assert!(!roots.is_empty());
        let mut candidates = 0;
        let mut paths = 0;
        let mut forks = ForkStats::default();
        for root in roots {
            let result = Explorer::new(&module, config, &checkers, root).explore();
            candidates += result.candidates.len();
            paths += result.stats.paths_explored;
            forks.merge(&result.fork_stats);
        }
        (candidates, paths, forks)
    }

    /// CoW and clone forking are observationally identical, and the fork
    /// telemetry sees CoW copy fixed-size marks while clone mode copies
    /// the (larger) live state.
    #[test]
    fn cow_and_clone_forking_agree_and_fork_costs_differ() {
        let cow = AnalysisConfig {
            telemetry: true,
            ..AnalysisConfig::default()
        };
        let clone = AnalysisConfig {
            telemetry: true,
            cow_state: false,
            ..AnalysisConfig::default()
        };
        let (c1, p1, f1) = explore_all(&cow);
        let (c2, p2, f2) = explore_all(&clone);
        assert!(p1 > 8, "diamond corpus should fork: {p1} paths");
        assert!(c1 > 0, "corpus should produce candidate bugs");
        assert_eq!((c1, p1), (c2, p2));
        assert_eq!(f1.forks, f2.forks, "same branches explored");
        assert!(f1.forks > 0);
        assert_eq!(
            f1.bytes_copied,
            f1.forks * std::mem::size_of::<FullMark>() as u64,
            "CoW forks copy exactly one fixed-size mark each"
        );
        assert!(
            f2.bytes_copied > f1.bytes_copied,
            "clone forks copy the live state: {} vs {}",
            f2.bytes_copied,
            f1.bytes_copied
        );
        assert!(f1.bytes_shared > 0);
        assert_eq!(f2.bytes_shared, 0);
    }
}
