//! Authoring a custom typestate checker on the public API — the paper's
//! generality claim (§5.5): "PATA can conveniently detect different types
//! of OS bugs with different checkers … each implemented with just 100-200
//! lines of code".
//!
//! This example writes an **unchecked-allocation** checker (not one of the
//! seven built-ins) in ~70 lines: `kmalloc` can fail, so dereferencing its
//! result before *any* NULL test is a kernel-style bug. Thanks to the
//! alias-aware state sharing, checking one alias clears the whole set.
//!
//! ```sh
//! cargo run --example custom_checker
//! ```

use pata::core::checkers::BugKind;
use pata::core::typestate::{BranchEvent, Checker, FsmSpec, TrackCtx, UpdateInfo};
use pata::core::{AnalysisConfig, AnalysisSession};
use pata_ir::InstKind;

/// FSM: S0 --malloc--> UNCHECKED --null-test--> CHECKED;
///      UNCHECKED --deref--> bug.
struct UncheckedAllocChecker;

const S_UNCHECKED: u8 = 1;
const S_CHECKED: u8 = 2;

impl Checker for UncheckedAllocChecker {
    fn kind(&self) -> BugKind {
        // An example checker piggybacks on an unused built-in slot rather
        // than extending BugKind; a production checker would add a variant.
        BugKind::DoubleLock
    }

    fn fsm(&self) -> FsmSpec {
        FsmSpec {
            states: vec!["S0", "UNCHECKED", "CHECKED", "SBUG"],
            events: vec!["malloc", "null_test", "deref"],
            bug_state: "SBUG",
        }
    }

    fn on_inst(&self, cx: &mut TrackCtx<'_>, inst: &InstKind, info: &UpdateInfo) {
        let id = self.kind().id();
        if let InstKind::Malloc { .. } = inst {
            if let Some(key) = info.dst_key {
                cx.transition(id, key, S_UNCHECKED, None);
            }
        }
        if let Some(key) = info.deref_key {
            if let Some(entry) = cx.state(id, key) {
                if entry.state == S_UNCHECKED {
                    cx.report(self.kind(), key, entry, Vec::new());
                    cx.transition(id, key, S_CHECKED, Some(entry));
                }
            }
        }
    }

    fn on_branch(&self, cx: &mut TrackCtx<'_>, ev: &BranchEvent) {
        // Any comparison of the pointer against NULL counts as a check,
        // whichever way the branch goes.
        if !ev.lhs_is_pointer || ev.rhs.as_const() != Some(0) {
            return;
        }
        let id = self.kind().id();
        if let Some(key) = ev.lhs.key() {
            if let Some(entry) = cx.state(id, key) {
                if entry.state == S_UNCHECKED {
                    cx.transition(id, key, S_CHECKED, Some(entry));
                }
            }
        }
    }
}

fn main() {
    let source = r#"
        struct pkt { int len; };
        static int rx_bad(int n) {
            struct pkt *p = kmalloc(n);
            return p->len;                  /* deref before any check */
        }
        static int rx_good(int n) {
            struct pkt *q = kmalloc(n);
            if (q == NULL) {
                return -1;
            }
            int len = q->len;               /* checked first: fine */
            kfree(q);
            return len;
        }
        static struct net_ops ops = { .rx1 = rx_bad, .rx2 = rx_good };
    "#;
    let module = pata::cc::compile_one("net/rx_demo.c", source).expect("valid mini-C");

    let checkers: Vec<Box<dyn Checker>> = vec![Box::new(UncheckedAllocChecker)];
    let outcome =
        AnalysisSession::new(AnalysisConfig::default()).analyze_module_with(module, &checkers);

    println!("Unchecked-allocation checker reports:");
    for r in &outcome.report.reports {
        println!(
            "  `{}` line {}: allocation dereferenced before a NULL check",
            r.function, r.site_line
        );
    }
    assert_eq!(outcome.report.reports.len(), 1);
    assert_eq!(outcome.report.reports[0].function, "rx_bad");
    println!("\nOne FSM + the existing alias machinery = a new kernel checker.");
}
