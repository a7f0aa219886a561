//! A textual printer for PIR modules, for debugging and documentation.
//!
//! The output resembles LLVM IR:
//!
//! ```text
//! fn friend_set(%3: struct#0*) -> void {
//! bb0:
//!   %4 = gep %3, user_data      ; file#0:2709
//!   ...
//! }
//! ```

use crate::function::{Function, VarId};
use crate::inst::{Callee, InstKind, Operand, Terminator};
use crate::module::Module;
use std::fmt::{self, Display, Write};

/// A variable as `%N<name>`, written straight into the formatter.
struct Var<'a>(&'a Module, VarId);

impl Display for Var<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}<{}>", self.1.index(), self.0.var(self.1).name)
    }
}

/// An operand: a [`Var`] or a constant.
struct Opnd<'a>(&'a Module, &'a Operand);

impl Display for Opnd<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            Operand::Var(v) => Var(self.0, *v).fmt(f),
            Operand::Const(c) => c.fmt(f),
        }
    }
}

/// Writes one instruction's text (without indent, padding or location)
/// into `line`.
fn write_inst(m: &Module, kind: &InstKind, line: &mut String) -> fmt::Result {
    let v = |id: VarId| Var(m, id);
    match kind {
        InstKind::Move { dst, src } => write!(line, "{} = move {}", v(*dst), v(*src)),
        InstKind::Const { dst, value } => write!(line, "{} = const {value}", v(*dst)),
        InstKind::Load { dst, addr } => write!(line, "{} = load *{}", v(*dst), v(*addr)),
        InstKind::Store { addr, val } => write!(line, "store *{} = {}", v(*addr), Opnd(m, val)),
        InstKind::Gep { dst, base, field } => write!(
            line,
            "{} = gep {}, {}",
            v(*dst),
            v(*base),
            m.interner.resolve(*field)
        ),
        InstKind::FuncAddr { dst, func } => {
            write!(line, "{} = func-addr {}", v(*dst), m.function(*func).name())
        }
        InstKind::AddrOf { dst, src } => write!(line, "{} = addr-of {}", v(*dst), v(*src)),
        InstKind::Index { dst, base, index } => {
            write!(line, "{} = index {}[{}]", v(*dst), v(*base), Opnd(m, index))
        }
        InstKind::Bin { dst, op, lhs, rhs } => {
            write!(line, "{} = {} {op} {}", v(*dst), Opnd(m, lhs), Opnd(m, rhs))
        }
        InstKind::Cmp { dst, op, lhs, rhs } => write!(
            line,
            "{} = cmp {} {op} {}",
            v(*dst),
            Opnd(m, lhs),
            Opnd(m, rhs)
        ),
        InstKind::Call { dst, callee, args } => {
            if let Some(d) = dst {
                write!(line, "{} = ", v(*d))?;
            }
            match callee {
                Callee::Direct(f) => write!(line, "call {}(", m.function(*f).name())?,
                Callee::External(s) => write!(line, "call extern:{}(", m.interner.resolve(*s))?,
                Callee::Indirect(p) => write!(line, "call *{}(", v(*p))?,
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    line.push_str(", ");
                }
                write!(line, "{}", Opnd(m, a))?;
            }
            line.push(')');
            Ok(())
        }
        InstKind::Alloca { dst, storage } => write!(
            line,
            "alloca {}{}",
            v(*dst),
            if *storage { " [storage]" } else { "" }
        ),
        InstKind::Malloc { dst } => write!(line, "{} = malloc", v(*dst)),
        InstKind::Free { ptr } => write!(line, "free {}", v(*ptr)),
        InstKind::Memset { ptr } => write!(line, "memset {}", v(*ptr)),
        InstKind::Lock { obj } => write!(line, "lock {}", v(*obj)),
        InstKind::Unlock { obj } => write!(line, "unlock {}", v(*obj)),
    }
}

/// Writes a block terminator's text into `line`.
fn write_term(m: &Module, term: &Terminator, line: &mut String) -> fmt::Result {
    match term {
        Terminator::Jump(b) => write!(line, "jump bb{}", b.index()),
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => write!(
            line,
            "br {} ? bb{} : bb{}",
            Var(m, *cond),
            then_bb.index(),
            else_bb.index()
        ),
        Terminator::Ret(Some(v)) => write!(line, "ret {}", Opnd(m, v)),
        Terminator::Ret(None) => write!(line, "ret"),
        Terminator::Unreachable => write!(line, "unreachable"),
    }
}

fn print_function(m: &Module, f: &Function, out: &mut String) {
    let _ = write!(out, "fn {}(", f.name());
    for (i, &p) in f.params().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", Var(m, p), m.var(p).ty);
    }
    let _ = writeln!(
        out,
        ") -> {} {}{{",
        f.ret_ty(),
        if f.is_interface() { "[interface] " } else { "" }
    );
    // One line buffer for the whole function: each instruction is
    // rendered into it, then padded into `out`.
    let mut line = String::new();
    for (bi, block) in f.blocks().iter().enumerate() {
        let _ = writeln!(out, "bb{bi}:");
        for inst in &block.insts {
            line.clear();
            let _ = write_inst(m, &inst.kind, &mut line);
            let _ = writeln!(out, "  {line:<50} ; {}", inst.loc);
        }
        line.clear();
        let _ = write_term(m, &block.term, &mut line);
        let _ = writeln!(out, "  {line:<50} ; {}", block.term_loc);
    }
    out.push_str("}\n");
}

/// Renders one function as human-readable text — the same shape
/// [`print_module`] emits for it.
///
/// The text covers everything that decides the function's analysis
/// behaviour (instructions, operand identities, callee names, source
/// locations), which makes it a sound — if conservative — change-detection
/// fingerprint input: any edit that alters the function's lowered form, its
/// line numbers, or the module-wide numbering of its operands changes the
/// text.
pub fn function_text(m: &Module, f: &Function) -> String {
    let mut out = String::new();
    print_function(m, f, &mut out);
    out
}

/// Renders the whole module as human-readable text.
///
/// # Example
///
/// ```
/// use pata_ir::{Module, FunctionBuilder, print_module};
///
/// let mut m = Module::new();
/// let file = m.add_file("hello.c");
/// let mut b = FunctionBuilder::new(&mut m, "nop", file);
/// b.ret(None, 1);
/// b.finish();
/// let text = print_module(&m);
/// assert!(text.contains("fn nop()"));
/// ```
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    for s in m.structs() {
        let fields: Vec<String> = s
            .fields
            .iter()
            .map(|(f, t)| format!("{}: {t}", m.interner.resolve(*f)))
            .collect();
        let _ = writeln!(out, "struct {} {{ {} }}", s.name, fields.join(", "));
    }
    for f in m.functions() {
        print_function(m, f, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, CmpOp, ConstVal};
    use crate::module::FuncId;
    use crate::types::Type;

    /// One function exercising every instruction and terminator form, plus
    /// parameters, calls with arguments (direct, external and indirect), a
    /// line wider than the 50-column padding and the `[interface]` marker.
    fn kitchen_sink() -> (Module, FuncId) {
        let mut m = Module::new();
        let file = m.add_file("p.c");
        let fld = m.interner.intern("next");
        let ext = m.interner.intern("copy_from_user");
        let mut h = FunctionBuilder::new(&mut m, "helper", file);
        h.set_ret_ty(Type::Int);
        let n = h.param("n", Type::Int);
        h.ret(Some(n.into()), 1);
        let helper = h.finish();

        let mut b = FunctionBuilder::new(&mut m, "kitchen_sink", file);
        b.set_ret_ty(Type::Int);
        let p = b.param("p", Type::ptr(Type::Int));
        let len = b.param("len", Type::Int);
        let q = b.local("q", Type::ptr(Type::Int));
        let x = b.local("x", Type::Int);
        let long = b.local("a_rather_long_local_variable_name", Type::Int);
        let fp = b.local("fp", Type::ptr(Type::Int));
        b.alloca(x, false, 1);
        b.alloca(q, true, 1);
        b.mov(q, p, 2);
        b.assign_const(x, ConstVal::Int(3), 3);
        b.assign_const(q, ConstVal::Null, 3);
        b.load(x, p, 4);
        b.store(p, x, 5);
        b.store(p, -1i64, 5);
        b.gep(q, p, fld, 6);
        b.index(q, p, 0i64, 7);
        b.index(q, p, len, 7);
        b.bin(x, BinOp::Add, x, 1i64, 8);
        let c = b.temp(Type::Bool);
        b.cmp(c, CmpOp::Ne, x, 0i64, 9);
        b.malloc(q, 10);
        b.memset(q, 11);
        b.free(q, 12);
        b.lock(p, 13);
        b.unlock(p, 14);
        b.addr_of(q, x, 15);
        b.func_addr(fp, helper, 16);
        b.call(
            Some(x),
            Callee::Direct(helper),
            vec![x.into(), 7i64.into()],
            17,
        );
        b.call(
            None,
            Callee::External(ext),
            vec![q.into(), p.into(), len.into()],
            18,
        );
        b.call(None, Callee::Indirect(fp), Vec::new(), 19);
        b.bin(long, BinOp::Mul, long, long, 20);
        b.cmp(c, CmpOp::Le, long, long, 20);
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        let dead = b.new_block();
        b.branch(c, then_bb, else_bb, 21);
        b.switch_to(then_bb);
        b.ret(Some(x.into()), 22);
        b.switch_to(else_bb);
        b.jump(then_bb, 23);
        b.switch_to(dead);
        b.unreachable(24);
        let id = b.finish();
        m.function_mut(id).set_interface(true);
        (m, id)
    }

    #[test]
    fn prints_all_instruction_forms() {
        let (m, _) = kitchen_sink();
        let text = print_module(&m);
        for needle in [
            "move",
            "const",
            "load",
            "store",
            "gep",
            "index",
            "cmp",
            "malloc",
            "memset",
            "free",
            "lock",
            "unlock",
            "addr-of",
            "func-addr",
            "call",
            "br",
            "jump",
            "unreachable",
            "ret",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    /// The printed form is the input of every stored function fingerprint:
    /// any byte that moves here invalidates every store on disk. A printer
    /// change that alters this text must bump the store schema version.
    #[test]
    fn kitchen_sink_text_is_pinned() {
        let (m, id) = kitchen_sink();
        let text = function_text(&m, m.function(id));
        assert_eq!(text, GOLDEN);
    }

    const GOLDEN: &str = r#"fn kitchen_sink(%1<p>: int*, %2<len>: int) -> int [interface] {
bb0:
  alloca %4<x>                                       ; file#0:1
  alloca %3<q> [storage]                             ; file#0:1
  %3<q> = move %1<p>                                 ; file#0:2
  %4<x> = const 3                                    ; file#0:3
  %3<q> = const null                                 ; file#0:3
  %4<x> = load *%1<p>                                ; file#0:4
  store *%1<p> = %4<x>                               ; file#0:5
  store *%1<p> = -1                                  ; file#0:5
  %3<q> = gep %1<p>, next                            ; file#0:6
  %3<q> = index %1<p>[0]                             ; file#0:7
  %3<q> = index %1<p>[%2<len>]                       ; file#0:7
  %4<x> = %4<x> + 1                                  ; file#0:8
  %7<t0> = cmp %4<x> != 0                            ; file#0:9
  %3<q> = malloc                                     ; file#0:10
  memset %3<q>                                       ; file#0:11
  free %3<q>                                         ; file#0:12
  lock %1<p>                                         ; file#0:13
  unlock %1<p>                                       ; file#0:14
  %3<q> = addr-of %4<x>                              ; file#0:15
  %6<fp> = func-addr helper                          ; file#0:16
  %4<x> = call helper(%4<x>, 7)                      ; file#0:17
  call extern:copy_from_user(%3<q>, %1<p>, %2<len>)  ; file#0:18
  call *%6<fp>()                                     ; file#0:19
  %5<a_rather_long_local_variable_name> = %5<a_rather_long_local_variable_name> * %5<a_rather_long_local_variable_name> ; file#0:20
  %7<t0> = cmp %5<a_rather_long_local_variable_name> <= %5<a_rather_long_local_variable_name> ; file#0:20
  br %7<t0> ? bb1 : bb2                              ; file#0:21
bb1:
  ret %4<x>                                          ; file#0:22
bb2:
  jump bb1                                           ; file#0:23
bb3:
  unreachable                                        ; file#0:24
}
"#;
}
