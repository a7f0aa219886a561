//! Andersen-style inclusion-based points-to analysis.
//!
//! This is the substrate the SVF/Saber tool family builds on (paper §8.1):
//! flow- and path-insensitive subset constraints solved to a fixpoint, with
//! a per-allocation-site heap model. It exhibits exactly the weakness the
//! paper identifies as difficulty **D1**: pointer parameters of module
//! interface functions are never assigned an object, so their points-to
//! sets stay *empty* and aliases flowing through them are missed.
//!
//! Constraint generation (field-insensitive, as in the classic algorithm):
//!
//! * `p = &x`      → `loc(x) ∈ pts(p)`
//! * `p = malloc`  → `heap(site) ∈ pts(p)`
//! * `p = q`       → `pts(p) ⊇ pts(q)`
//! * `p = *q`      → `∀ o ∈ pts(q): pts(p) ⊇ contents(o)`
//! * `*q = p`      → `∀ o ∈ pts(q): contents(o) ⊇ pts(p)`
//! * direct calls  → parameter/return copies (`⊇`)

use pata_ir::{Callee, InstKind, Module, Operand, Terminator, VarId};
use std::collections::{BTreeSet, HashMap};

/// An abstract object: a stack slot or a heap allocation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbsObj {
    /// The storage of an address-taken variable.
    Stack(VarId),
    /// A heap allocation site (function index, site counter).
    Heap(u32, u32),
}

/// The points-to solution.
#[derive(Debug, Default)]
pub struct PointsTo {
    pts: HashMap<VarId, BTreeSet<AbsObj>>,
    contents: HashMap<AbsObj, BTreeSet<AbsObj>>,
}

impl PointsTo {
    /// The points-to set of `v` (empty if never constrained — the D1 case).
    pub fn pts(&self, v: VarId) -> &BTreeSet<AbsObj> {
        static EMPTY: std::sync::OnceLock<BTreeSet<AbsObj>> = std::sync::OnceLock::new();
        self.pts
            .get(&v)
            .unwrap_or_else(|| EMPTY.get_or_init(BTreeSet::new))
    }

    /// Whether two variables may alias: their points-to sets intersect.
    /// Variables with empty sets alias nothing — the paper's D1 blind spot.
    pub fn may_alias(&self, a: VarId, b: VarId) -> bool {
        if a == b {
            return true;
        }
        let pa = self.pts(a);
        if pa.is_empty() {
            return false;
        }
        self.pts(b).iter().any(|o| pa.contains(o))
    }

    /// Runs Andersen's algorithm on `module` to a fixpoint.
    pub fn analyze(module: &Module) -> Self {
        #[derive(Debug)]
        enum C {
            Addr(VarId, AbsObj),
            Copy(VarId, VarId),  // pts(dst) ⊇ pts(src)
            Load(VarId, VarId),  // p = *q
            Store(VarId, VarId), // *q = p  (q, p)
        }
        let mut cons = Vec::new();
        let mut heap_counter = 0u32;
        for func in module.functions() {
            let fidx = func.id().index() as u32;
            for block in func.blocks() {
                for inst in &block.insts {
                    match &inst.kind {
                        InstKind::Move { dst, src } => cons.push(C::Copy(*dst, *src)),
                        InstKind::AddrOf { dst, src } => {
                            cons.push(C::Addr(*dst, AbsObj::Stack(*src)));
                        }
                        InstKind::Alloca { dst, storage: true } => {
                            cons.push(C::Addr(*dst, AbsObj::Stack(*dst)));
                        }
                        InstKind::Malloc { dst } => {
                            cons.push(C::Addr(*dst, AbsObj::Heap(fidx, heap_counter)));
                            heap_counter += 1;
                        }
                        InstKind::Load { dst, addr } => cons.push(C::Load(*dst, *addr)),
                        InstKind::Store {
                            addr,
                            val: Operand::Var(v),
                        } => cons.push(C::Store(*addr, *v)),
                        // Field-insensitive: &q->f and &q[i] are treated as
                        // copies of the base pointer's target.
                        InstKind::Gep { dst, base, .. } | InstKind::Index { dst, base, .. } => {
                            cons.push(C::Copy(*dst, *base));
                        }
                        InstKind::Call {
                            dst,
                            callee: Callee::Direct(f),
                            args,
                        } => {
                            let params = module.function(*f).params().to_vec();
                            for (i, p) in params.iter().enumerate() {
                                if let Some(Operand::Var(a)) = args.get(i) {
                                    cons.push(C::Copy(*p, *a));
                                }
                            }
                            if let Some(d) = dst {
                                // Return copies.
                                for block in module.function(*f).blocks() {
                                    if let Terminator::Ret(Some(Operand::Var(r))) = &block.term {
                                        cons.push(C::Copy(*d, *r));
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }

        let mut solution = PointsTo::default();
        // Naive fixpoint iteration — fine at corpus scale, and faithful to
        // the cubic worst case the paper cites for whole-OS unscalability.
        loop {
            let mut changed = false;
            for c in &cons {
                match c {
                    C::Addr(p, o) => {
                        changed |= solution.pts.entry(*p).or_default().insert(*o);
                    }
                    C::Copy(dst, src) => {
                        let add: Vec<AbsObj> = solution
                            .pts
                            .get(src)
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default();
                        let set = solution.pts.entry(*dst).or_default();
                        for o in add {
                            changed |= set.insert(o);
                        }
                    }
                    C::Load(p, q) => {
                        let objs: Vec<AbsObj> = solution
                            .pts
                            .get(q)
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default();
                        let mut add = Vec::new();
                        for o in objs {
                            if let Some(cs) = solution.contents.get(&o) {
                                add.extend(cs.iter().copied());
                            }
                        }
                        let set = solution.pts.entry(*p).or_default();
                        for o in add {
                            changed |= set.insert(o);
                        }
                    }
                    C::Store(q, p) => {
                        let objs: Vec<AbsObj> = solution
                            .pts
                            .get(q)
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default();
                        let vals: Vec<AbsObj> = solution
                            .pts
                            .get(p)
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default();
                        for o in objs {
                            let set = solution.contents.entry(o).or_default();
                            for v in &vals {
                                changed |= set.insert(*v);
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Module {
        pata_cc::compile_one("pt.c", src).unwrap()
    }

    fn var(m: &Module, func: &str, name: &str) -> VarId {
        let f = m.function(m.function_by_name(func).unwrap());
        let fid = f.id();
        (0..m.var_count())
            .map(VarId::from_index)
            .find(|&v| {
                let info = m.var(v);
                info.func == Some(fid) && info.name == name
            })
            .unwrap_or_else(|| panic!("no var {name} in {func}"))
    }

    #[test]
    fn addr_of_gives_alias() {
        let m = compile(
            r#"
            void f(void) {
                int x = 0;
                int *p = &x;
                int *q = &x;
                *p = 1;
            }
            "#,
        );
        let pt = PointsTo::analyze(&m);
        let p = var(&m, "f", "p");
        let q = var(&m, "f", "q");
        assert!(pt.may_alias(p, q));
    }

    #[test]
    fn distinct_heap_sites_do_not_alias() {
        let m = compile(
            r#"
            void f(void) {
                int *a = malloc(8);
                int *b = malloc(8);
                free(a);
                free(b);
            }
            "#,
        );
        let pt = PointsTo::analyze(&m);
        let a = var(&m, "f", "a");
        let b = var(&m, "f", "b");
        assert!(!pt.may_alias(a, b));
        assert!(pt.may_alias(a, a));
    }

    #[test]
    fn interface_param_has_empty_pts_d1() {
        // The paper's D1: `probe` has no caller, so `d` points at nothing
        // and the load through it yields an empty set too.
        let m = compile(
            r#"
            struct dev { int *res; };
            static int my_probe(struct dev *d) {
                int *r = d->res;
                return *r;
            }
            static struct drv drv_reg = { .probe = my_probe };
            "#,
        );
        let pt = PointsTo::analyze(&m);
        let d = var(&m, "my_probe", "d");
        let r = var(&m, "my_probe", "r");
        assert!(
            pt.pts(d).is_empty(),
            "interface parameter must have empty pts"
        );
        assert!(pt.pts(r).is_empty());
        assert!(!pt.may_alias(d, r));
    }

    #[test]
    fn flow_through_direct_call() {
        let m = compile(
            r#"
            int *identity(int *p) { return p; }
            void f(void) {
                int x = 0;
                int *a = &x;
                int *b = identity(a);
                *b = 1;
            }
            "#,
        );
        let pt = PointsTo::analyze(&m);
        let a = var(&m, "f", "a");
        let b = var(&m, "f", "b");
        assert!(pt.may_alias(a, b));
    }

    #[test]
    fn store_load_through_heap() {
        let m = compile(
            r#"
            void f(void) {
                int x = 0;
                int **cell = malloc(8);
                *cell = &x;
                int *out = *cell;
                *out = 1;
            }
            "#,
        );
        let pt = PointsTo::analyze(&m);
        let out = var(&m, "f", "out");
        assert!(pt.pts(out).contains(&AbsObj::Stack(var(&m, "f", "x"))));
    }
}
