//! Template contracts: every corpus template must behave as designed when
//! compiled standalone — bug templates are found by PATA (with the right
//! checker), trap templates are reported by the tools they target and not
//! by the tools they exempt. These contracts are what make the Table 5-8
//! numbers meaningful.

use pata_core::{AnalysisConfig, AnalysisSession, BugKind};
use pata_corpus::templates::{self, Ctx, Snippet};

fn compile_snippet(name: &str, snippet: &Snippet, ctx: &Ctx) -> pata_ir::Module {
    let mut text = templates::struct_defs(ctx).join("\n");
    text.push('\n');
    text.push_str(&snippet.lines.join("\n"));
    text.push('\n');
    // Register every entry function so it becomes an analysis root even
    // standalone.
    let fields: Vec<String> = snippet
        .interfaces
        .iter()
        .enumerate()
        .map(|(i, f)| format!(".op{i} = {f}"))
        .collect();
    text.push_str(&format!(
        "static struct ops_t reg = {{ {} }};\n",
        fields.join(", ")
    ));
    pata_cc::compile_one(&format!("{name}.c"), &text).expect("template compiles")
}

fn pata_kinds(module: pata_ir::Module, all: bool) -> Vec<BugKind> {
    let config = if all {
        AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::all_checkers()
        }
    } else {
        AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        }
    };
    AnalysisSession::new(config)
        .analyze_module(module)
        .report
        .reports
        .iter()
        .map(|r| r.kind)
        .collect()
}

#[test]
fn every_bug_template_is_found_by_pata() {
    let ctx = Ctx::new(7);
    for (name, template) in templates::main_bug_templates()
        .into_iter()
        .chain(templates::extra_bug_templates())
    {
        let snippet = template(&ctx);
        let expected: Vec<BugKind> = snippet
            .marks
            .iter()
            .filter(|m| !m.trap)
            .map(|m| m.kind)
            .collect();
        let module = compile_snippet(name, &snippet, &ctx);
        let found = pata_kinds(module, true);
        for kind in &expected {
            assert!(
                found.contains(kind),
                "template {name}: PATA must find the injected {kind}; found {found:?}"
            );
        }
    }
}

#[test]
fn clean_templates_produce_no_reports() {
    let ctx = Ctx::new(8);
    for (name, template) in templates::clean_templates() {
        let snippet = template(&ctx);
        let module = compile_snippet(name, &snippet, &ctx);
        let found = pata_kinds(module, true);
        assert!(
            found.is_empty(),
            "clean template {name} must be silent; got {found:?}"
        );
    }
}

#[test]
fn pata_visible_traps_fire() {
    // These traps model the paper's §5.2 FP taxonomy — PATA itself reports
    // them (they are counted as PATA false positives in Tables 5/8).
    let pata_traps = [
        "trap_npd_extern_contract",
        "trap_npd_loop",
        "trap_uva_concurrent_init",
        "trap_uva_array",
        "trap_dbz_contract",
        "trap_aiu_contract",
    ];
    let ctx = Ctx::new(9);
    for (name, template) in templates::trap_templates() {
        if !pata_traps.contains(&name) {
            continue;
        }
        let snippet = template(&ctx);
        let expected: Vec<BugKind> = snippet.marks.iter().map(|m| m.kind).collect();
        let module = compile_snippet(name, &snippet, &ctx);
        let found = pata_kinds(module, true);
        for kind in &expected {
            assert!(
                found.contains(kind),
                "trap {name}: PATA should report the {kind} FP; found {found:?}"
            );
        }
    }
}

#[test]
fn pata_exempt_traps_stay_silent() {
    // These traps target *other* tools; PATA's alias-aware validation or
    // state tracking must not report them.
    let exempt = [
        "trap_npd_infeasible_alias",
        "trap_ml_callee_free",
        "trap_uva_out_param",
        "trap_npd_flow_insensitive",
    ];
    let ctx = Ctx::new(10);
    for (name, template) in templates::trap_templates() {
        if !exempt.contains(&name) {
            continue;
        }
        let snippet = template(&ctx);
        let module = compile_snippet(name, &snippet, &ctx);
        let found = pata_kinds(module, true);
        assert!(
            found.is_empty(),
            "trap {name} targets other tools; PATA must stay silent, got {found:?}"
        );
    }
}

#[test]
fn na_reports_its_targeted_traps() {
    use pata_core::AliasMode;
    let na_traps = ["trap_npd_infeasible_alias", "trap_ml_callee_free"];
    let ctx = Ctx::new(11);
    for (name, template) in templates::trap_templates() {
        if !na_traps.contains(&name) {
            continue;
        }
        let snippet = template(&ctx);
        let expected: Vec<BugKind> = snippet.marks.iter().map(|m| m.kind).collect();
        let module = compile_snippet(name, &snippet, &ctx);
        let out = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            alias_mode: AliasMode::None,
            ..AnalysisConfig::default()
        })
        .analyze_module(module);
        let found: Vec<BugKind> = out.report.reports.iter().map(|r| r.kind).collect();
        for kind in &expected {
            assert!(
                found.contains(kind),
                "trap {name}: PATA-NA should FP with {kind}; found {found:?}"
            );
        }
    }
}
