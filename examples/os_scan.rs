//! Full-pipeline scan of a generated OS corpus: generate → compile →
//! analyze → score against ground truth — the workload behind Tables 4/5.
//!
//! ```sh
//! cargo run --release --example os_scan            # Zephyr model
//! cargo run --release --example os_scan -- linux 0.3
//! ```

use pata::core::{AnalysisConfig, AnalysisSession};
use pata::corpus::{Corpus, OsProfile};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("zephyr");
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.5);

    let profile = match which {
        "linux" => OsProfile::linux(),
        "riot" => OsProfile::riot(),
        "tencent" => OsProfile::tencent(),
        _ => OsProfile::zephyr(),
    }
    .with_scale(scale);

    println!("Generating the {} model at scale {scale}…", profile.name);
    let corpus = Corpus::generate(&profile);
    println!(
        "  {} files, {} LOC, {} injected bugs, {} FP traps",
        corpus.files.len(),
        corpus.loc(),
        corpus.manifest.bugs.len(),
        corpus.manifest.traps.len()
    );

    let module = corpus.compile().expect("generated corpus compiles");
    println!("  compiled into {} PIR functions", module.functions().len());

    let outcome = AnalysisSession::new(AnalysisConfig::default()).analyze_module(module);
    let s = &outcome.stats;
    println!("\nAnalysis (paper Table 5 counters):");
    println!("  interface-function roots : {}", s.roots);
    println!("  paths explored           : {}", s.paths_explored);
    println!(
        "  typestates aware/unaware : {}/{}",
        s.typestates_aware, s.typestates_unaware
    );
    println!(
        "  constraints aware/unaware: {}/{}",
        s.constraints_aware, s.constraints_unaware
    );
    println!("  repeated bugs dropped    : {}", s.repeated_bugs_dropped);
    println!("  false bugs dropped       : {}", s.false_bugs_dropped);
    println!("  wall time                : {:?}", s.time);

    let score = corpus.manifest.score(&outcome.report.reports);
    println!("\nScoring against ground truth:");
    println!(
        "  found: {}  real: {}  FPs: {}  missed: {}",
        score.total_found(),
        score.total_real(),
        score.false_positives,
        score.missed
    );
    println!(
        "  false-positive rate: {:.1}% (paper: 28%)",
        100.0 * score.false_positive_rate()
    );

    println!("\nSample reports:");
    for r in outcome.report.reports.iter().take(8) {
        println!("  {r}");
    }
}
