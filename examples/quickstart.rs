//! Quickstart: compile a mini-C snippet and run the full PATA pipeline.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pata::core::{AnalysisConfig, AnalysisSession};

fn main() {
    // A buggy driver probe: the resource pointer is checked against NULL,
    // but the error path falls through to the dereference (paper Fig. 1).
    let source = r#"
        struct resource { int start; };
        struct my_dev { struct resource *res; int state; };

        static int my_probe(struct my_dev *dev) {
            if (dev->res == NULL) {
                log_warn("no MMIO resource");
            }
            return dev->res->start;      /* null-pointer dereference */
        }

        static int my_remove(struct my_dev *dev) {
            if (dev->res == NULL) {
                return -1;               /* properly guarded */
            }
            dev->res->start = 0;
            return 0;
        }

        static struct platform_driver my_driver = {
            .probe = my_probe,
            .remove = my_remove,
        };
    "#;

    let module =
        pata::cc::compile_one("drivers/my_dev.c", source).expect("the snippet is valid mini-C");

    let outcome = AnalysisSession::new(AnalysisConfig::default()).analyze_module(module);

    println!(
        "PATA analyzed {} paths across {} interface functions\n",
        outcome.stats.paths_explored, outcome.stats.roots
    );
    for report in &outcome.report.reports {
        println!("  {report}");
    }
    println!(
        "\n{} possible bug(s); {} false candidate(s) dropped by path validation",
        outcome.report.reports.len(),
        outcome.stats.false_bugs_dropped
    );
    assert_eq!(outcome.report.reports.len(), 1, "only my_probe is buggy");
    assert_eq!(outcome.report.reports[0].function, "my_probe");
}
