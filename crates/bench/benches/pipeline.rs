//! End-to-end pipeline benchmarks: mini-C compilation, path-sensitive
//! analysis (alias-aware vs PATA-NA — the Table 6 time comparison), and
//! validation, on a fixed small corpus.

use pata_bench::harness::{bench, hold};
use pata_core::{AnalysisConfig, AnalysisSession};
use pata_corpus::{Corpus, OsProfile};

fn main() {
    let profile = OsProfile::tencent().with_scale(0.15);
    let corpus = Corpus::generate(&profile);

    bench("pipeline/compile_corpus", || {
        hold(corpus.compile().unwrap().functions().len())
    });

    let module = corpus.compile().unwrap();
    bench("pipeline/analyze_alias_aware", || {
        let out = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        })
        .analyze_module(module.clone());
        hold(out.report.reports.len())
    });

    bench("pipeline/analyze_pata_na", || {
        let out = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::without_alias()
        })
        .analyze_module(module.clone());
        hold(out.report.reports.len())
    });

    bench("pipeline/analyze_no_validation", || {
        let out = AnalysisSession::new(AnalysisConfig {
            threads: 1,
            validate_paths: false,
            ..AnalysisConfig::default()
        })
        .analyze_module(module.clone());
        hold(out.report.reports.len())
    });
}
