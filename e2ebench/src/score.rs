//! Scoring a report against the corpus manifest, restricted to the bug
//! kinds whose checkers ran.

use pata_core::{BugKind, BugReport};
use pata_corpus::Manifest;

/// Ground-truth outcome of one report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Manifest bugs of an enabled kind that no report matches.
    pub seeded_missed: usize,
    /// Manifest bugs of an enabled kind (the denominator of the miss count).
    pub seeded: usize,
    /// Reports that match no manifest bug.
    pub false_reports: usize,
}

/// Scores `reports` against `manifest`, counting only manifest bugs whose
/// kind is in `enabled`: a bug no enabled checker can find is not a miss.
pub fn score(manifest: &Manifest, enabled: &[BugKind], reports: &[BugReport]) -> Outcome {
    let filtered = Manifest {
        bugs: manifest
            .bugs
            .iter()
            .filter(|b| enabled.contains(&b.kind))
            .cloned()
            .collect(),
        traps: manifest.traps.clone(),
    };
    let s = filtered.score(reports);
    Outcome {
        seeded_missed: s.missed,
        seeded: filtered.bugs.len(),
        false_reports: s.false_positives,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pata_corpus::GroundTruth;
    use pata_ir::Category;

    fn truth(kind: BugKind, file: &str, line: u32) -> GroundTruth {
        GroundTruth {
            id: format!("{file}:{line}"),
            file: file.to_owned(),
            function: "f".to_owned(),
            kind,
            line,
            category: Category::Drivers,
            template: "t".to_owned(),
        }
    }

    fn report(kind: BugKind, file: &str, line: u32) -> BugReport {
        BugReport {
            kind,
            file: file.to_owned(),
            function: "f".to_owned(),
            origin_line: line,
            site_line: line,
            category: Category::Drivers,
            alias_paths: Vec::new(),
            message: String::new(),
        }
    }

    #[test]
    fn disabled_kinds_are_not_misses() {
        let manifest = Manifest {
            bugs: vec![
                truth(BugKind::NullPointerDeref, "a.c", 10),
                truth(BugKind::DivisionByZero, "a.c", 20),
                truth(BugKind::MemoryLeak, "b.c", 5),
            ],
            traps: Vec::new(),
        };
        let enabled = [BugKind::NullPointerDeref, BugKind::MemoryLeak];
        let reports = [
            report(BugKind::NullPointerDeref, "a.c", 11),
            report(BugKind::UninitVarAccess, "b.c", 9),
        ];
        let o = score(&manifest, &enabled, &reports);
        assert_eq!(o.seeded, 2);
        assert_eq!(o.seeded_missed, 1, "only the leak is missed");
        assert_eq!(o.false_reports, 1);
        let all = score(&manifest, &BugKind::ALL, &reports);
        assert_eq!(all.seeded_missed, 2);
    }
}
