//! End-to-end pipeline invariants on generated corpora: the qualitative
//! claims of the paper's evaluation must hold on every run.

use pata::baselines::{
    intra::IntraPatternAnalyzer, pata_na::PataNaAnalyzer, svf_null::SvfNullAnalyzer,
    value_flow::ValueFlowLeakAnalyzer, Analyzer,
};
use pata::core::{AnalysisConfig, AnalysisSession};
use pata::corpus::{Corpus, OsProfile};

fn small(profile: OsProfile) -> Corpus {
    Corpus::generate(&profile.with_scale(0.25))
}

#[test]
fn pata_finds_all_injected_main_bugs() {
    // The three main checkers find every injected NPD/UVA/ML bug (the
    // extra-checker bugs need Table 7's configuration).
    for profile in OsProfile::all() {
        let corpus = small(profile);
        let module = corpus.compile().unwrap();
        let outcome = AnalysisSession::new(AnalysisConfig::default()).analyze_module(module);
        let score = corpus.manifest.score(&outcome.report.reports);
        let main_bugs = corpus
            .manifest
            .bugs
            .iter()
            .filter(|b| pata::core::BugKind::MAIN.contains(&b.kind))
            .count();
        assert_eq!(
            score.total_real(),
            main_bugs,
            "{}: real {} != injected main bugs {}",
            corpus.profile.name,
            score.total_real(),
            main_bugs
        );
    }
}

#[test]
fn pata_fp_rate_below_baselines() {
    let corpus = small(OsProfile::linux());
    let module = corpus.compile().unwrap();
    let pata = AnalysisSession::new(AnalysisConfig::default()).analyze_module(module);
    let pata_score = corpus.manifest.score(&pata.report.reports);

    let baselines: Vec<Box<dyn Analyzer>> = vec![
        Box::new(IntraPatternAnalyzer),
        Box::new(SvfNullAnalyzer),
        Box::new(PataNaAnalyzer::default()),
    ];
    let module = corpus.compile().unwrap();
    for b in baselines {
        let reports = b.run(&module);
        let score = corpus.manifest.score(&reports);
        assert!(
            pata_score.total_real() >= score.total_real(),
            "{} finds more real bugs than PATA?",
            b.name()
        );
        if score.total_found() > 0 {
            assert!(
                pata_score.false_positive_rate() <= score.false_positive_rate() + 1e-9,
                "{}: PATA fp {:.2} vs {:.2}",
                b.name(),
                pata_score.false_positive_rate(),
                score.false_positive_rate()
            );
        }
    }
}

#[test]
fn na_real_bugs_are_subset_of_pata() {
    // Paper §5.4: "These 194 real bugs are all found by PATA".
    let corpus = small(OsProfile::riot());
    let module = corpus.compile().unwrap();
    let pata = AnalysisSession::new(AnalysisConfig::default()).analyze_module(module);
    let pata_score = corpus.manifest.score(&pata.report.reports);

    let module = corpus.compile().unwrap();
    let na_reports = PataNaAnalyzer::default().run(&module);
    let na_score = corpus.manifest.score(&na_reports);

    assert!(na_score.total_real() <= pata_score.total_real());
    assert!(
        na_score.false_positive_rate() > pata_score.false_positive_rate(),
        "NA fp {:.2} must exceed PATA fp {:.2}",
        na_score.false_positive_rate(),
        pata_score.false_positive_rate()
    );
}

#[test]
fn value_flow_finds_only_leaks() {
    let corpus = small(OsProfile::linux());
    let module = corpus.compile().unwrap();
    let reports = ValueFlowLeakAnalyzer.run(&module);
    assert!(reports
        .iter()
        .all(|r| r.kind == pata::core::BugKind::MemoryLeak));
}

#[test]
fn alias_awareness_reduces_costs() {
    // The paper's headline efficiency claim (Table 5): alias-aware tracking
    // drops a large share of typestates and SMT constraints.
    let corpus = small(OsProfile::linux());
    let module = corpus.compile().unwrap();
    let outcome = AnalysisSession::new(AnalysisConfig::default()).analyze_module(module);
    let s = &outcome.stats;
    assert!(
        s.typestates_dropped_ratio() > 0.30,
        "typestate reduction too small: {:.2}",
        s.typestates_dropped_ratio()
    );
    assert!(
        s.constraints_dropped_ratio() > 0.55,
        "constraint reduction too small: {:.2}",
        s.constraints_dropped_ratio()
    );
}

#[test]
fn validation_drops_false_bugs() {
    // With validation disabled, reports can only grow.
    let corpus = small(OsProfile::tencent());
    let with =
        AnalysisSession::new(AnalysisConfig::default()).analyze_module(corpus.compile().unwrap());
    let without = AnalysisSession::new(AnalysisConfig {
        validate_paths: false,
        ..AnalysisConfig::default()
    })
    .analyze_module(corpus.compile().unwrap());
    assert!(without.report.reports.len() >= with.report.reports.len());
}

#[test]
fn analysis_is_deterministic_across_runs() {
    let corpus = small(OsProfile::zephyr());
    let run = |threads: usize| {
        let outcome = AnalysisSession::new(AnalysisConfig {
            threads,
            ..AnalysisConfig::default()
        })
        .analyze_module(corpus.compile().unwrap());
        let mut keys: Vec<String> = outcome
            .report
            .reports
            .iter()
            .map(|r| format!("{}:{}:{}:{}", r.kind, r.file, r.origin_line, r.site_line))
            .collect();
        keys.sort();
        keys
    };
    let a = run(1);
    let b = run(1);
    let c = run(4);
    assert_eq!(a, b);
    assert_eq!(a, c, "parallel analysis must match sequential");
}

#[test]
fn all_checkers_config_finds_extra_bugs() {
    let corpus = small(OsProfile::linux());
    let module = corpus.compile().unwrap();
    let outcome = AnalysisSession::new(AnalysisConfig::all_checkers()).analyze_module(module);
    let score = corpus.manifest.score(&outcome.report.reports);
    assert_eq!(
        score.missed, 0,
        "with all six checkers every injected bug is found: {:?}",
        score
    );
}

#[test]
fn budget_exhaustion_is_graceful() {
    let corpus = small(OsProfile::linux());
    let module = corpus.compile().unwrap();
    let outcome = AnalysisSession::new(AnalysisConfig {
        budget: pata::core::PathBudget {
            max_paths: 2,
            max_insts: 500,
            max_call_depth: 3,
            ..pata::core::PathBudget::default()
        },
        ..AnalysisConfig::default()
    })
    .analyze_module(module);
    // Tiny budgets must not crash; they simply find fewer bugs.
    assert!(outcome.stats.budget_exhausted_roots > 0);
}

#[test]
fn fp_rate_stable_across_seeds() {
    // The headline FP-rate shape must not be a seed artifact.
    for seed in [7u64, 1234, 98765] {
        let corpus = Corpus::generate(&OsProfile::riot().with_scale(0.3).with_seed(seed));
        let module = corpus.compile().unwrap();
        let outcome = AnalysisSession::new(AnalysisConfig::default()).analyze_module(module);
        let score = corpus.manifest.score(&outcome.report.reports);
        let fp = score.false_positive_rate();
        assert!(
            (0.0..0.55).contains(&fp),
            "seed {seed}: FP rate {fp:.2} out of plausible band ({score:?})"
        );
        assert_eq!(
            score.missed,
            {
                corpus
                    .manifest
                    .bugs
                    .iter()
                    .filter(|b| !pata::core::BugKind::MAIN.contains(&b.kind))
                    .count()
            },
            "seed {seed}: only extra-checker bugs may be missed by the default config"
        );
    }
}
