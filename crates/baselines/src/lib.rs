//! # pata-baselines — comparison analyzers for the PATA evaluation
//!
//! The paper compares PATA against seven static tools (Table 8) and against
//! an alias-unaware variant of itself (Table 6). This crate reproduces the
//! *mechanisms* of those tool families so the comparison's shape can be
//! regenerated:
//!
//! | Module | Stands in for | Mechanism |
//! |---|---|---|
//! | [`pata_na`] | PATA-NA (Table 6) | PATA with alias analysis disabled |
//! | [`points_to`] | SVF / Saber's substrate | Andersen-style inclusion-based points-to analysis |
//! | [`svf_null`] | SVF-Null (Table 8) | points-to-aliasing + flow-based NPD detection |
//! | [`intra`] | Cppcheck / Smatch / Coccinelle | intraprocedural, alias-blind pattern checking |
//! | [`value_flow`] | Saber (Table 8) | source-sink leak detection on a def-use value-flow graph |
//!
//! All analyzers implement [`Analyzer`], producing the same
//! [`pata_core::BugReport`]s that PATA produces, so the corpus scorer can
//! grade every tool identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod intra;
pub mod pata_na;
pub mod points_to;
pub mod svf_null;
pub mod value_flow;

use pata_core::BugReport;
use pata_ir::Module;

/// A uniform interface over every analyzer in the comparison.
pub trait Analyzer {
    /// Tool name as it appears in the comparison tables.
    fn name(&self) -> &'static str;

    /// Runs the analyzer over a module, producing bug reports.
    fn run(&self, module: &Module) -> Vec<BugReport>;
}

/// Instantiates the full comparison roster (Table 8's baseline side).
pub fn all_baselines() -> Vec<Box<dyn Analyzer>> {
    vec![
        Box::new(intra::IntraPatternAnalyzer),
        Box::new(svf_null::SvfNullAnalyzer),
        Box::new(value_flow::ValueFlowLeakAnalyzer),
        Box::new(pata_na::PataNaAnalyzer::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_distinct_names() {
        let names: Vec<&str> = all_baselines().iter().map(|a| a.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
