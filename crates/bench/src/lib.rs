//! # pata-bench — harness regenerating the paper's tables and figures
//!
//! One binary per evaluation artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table4` | Table 4 — information about the four checked OSes |
//! | `table5` | Table 5 — analysis results (typestates, SMT constraints, dropped/found/real bugs, time) |
//! | `table6` | Table 6 — sensitivity: PATA vs PATA-NA |
//! | `table7` | Table 7 — three additional checkers |
//! | `table8` | Table 8 — comparison with baseline tool families |
//! | `fig11`  | Figure 11 — distribution of found bugs by OS part |
//!
//! Every binary accepts `--scale <f64>` (default 0.5) to size the generated
//! corpus, and prints machine-readable rows followed by the paper's
//! reference values for shape comparison. Micro-benches (run with
//! `cargo bench`, no external harness) live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod results;

use pata_baselines::Analyzer;
use pata_core::{AnalysisConfig, AnalysisSession, BugKind, SessionOutcome};
use pata_corpus::{Corpus, OsProfile, Score};
use std::time::Instant;

/// Everything measured for one OS profile.
pub struct ProfileRun {
    /// The generated corpus.
    pub corpus: Corpus,
    /// PATA's outcome (reports + stats).
    pub outcome: SessionOutcome,
    /// PATA's score against ground truth.
    pub score: Score,
    /// Wall-clock seconds for analysis only.
    pub seconds: f64,
}

/// Parses `--scale <f>` from argv (default 0.5).
pub fn parse_scale() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5)
}

/// Generates + analyzes one profile with the given config.
pub fn run_profile(profile: &OsProfile, config: AnalysisConfig) -> ProfileRun {
    let corpus = Corpus::generate(profile);
    let module = corpus.compile().expect("generated corpus must compile");
    let start = Instant::now();
    let outcome = AnalysisSession::new(config).analyze_module(module);
    let seconds = start.elapsed().as_secs_f64();
    let score = corpus.manifest.score(&outcome.report.reports);
    ProfileRun {
        corpus,
        outcome,
        score,
        seconds,
    }
}

/// Runs a baseline analyzer on an existing corpus, returning its score and
/// wall-clock seconds.
pub fn run_baseline(corpus: &Corpus, analyzer: &dyn Analyzer) -> (Score, f64) {
    let module = corpus.compile().expect("generated corpus must compile");
    let start = Instant::now();
    let reports = analyzer.run(&module);
    let seconds = start.elapsed().as_secs_f64();
    (corpus.manifest.score(&reports), seconds)
}

/// Formats a `total (NPD/UVA/ML)` cell in the paper's layout.
pub fn kind_cell(score: &Score, which: &str) -> String {
    let get = |kind: BugKind| match which {
        "found" => score.found_of(kind),
        _ => score.real_of(kind),
    };
    let total: usize = match which {
        "found" => score.total_found(),
        _ => score.total_real(),
    };
    format!(
        "{total} ({}/{}/{})",
        get(BugKind::NullPointerDeref),
        get(BugKind::UninitVarAccess),
        get(BugKind::MemoryLeak)
    )
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Renders seconds as `XmYYs`.
pub fn fmt_time(seconds: f64) -> String {
    let total = seconds.round() as u64;
    format!("{}m{:02}s", total / 60, total % 60)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_profile_end_to_end() {
        let run = run_profile(
            &OsProfile::tencent().with_scale(0.3),
            AnalysisConfig {
                threads: 1,
                ..AnalysisConfig::default()
            },
        );
        assert!(run.score.total_found() > 0, "PATA should report something");
        assert!(
            run.score.total_real() > 0,
            "PATA should find injected bugs: {:?}",
            run.score
        );
        // The headline claim: FP rate well below 50%.
        assert!(
            run.score.false_positive_rate() < 0.5,
            "FP rate too high: {:.2} ({:?})",
            run.score.false_positive_rate(),
            run.score
        );
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(0.2), "0m00s");
        assert_eq!(fmt_time(61.0), "1m01s");
        assert_eq!(fmt_time(3601.0), "60m01s");
    }
}
