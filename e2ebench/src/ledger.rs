//! The per-layer time ledger of one traced operation.

/// Layer times (seconds) set against the traced end-to-end time they
/// should account for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    steps: Vec<(&'static str, f64)>,
    total: f64,
}

impl Ledger {
    /// An empty ledger for an operation that took `total` seconds.
    pub fn new(total: f64) -> Self {
        Ledger {
            steps: Vec::new(),
            total,
        }
    }

    /// Books `seconds` to `layer`.
    pub fn add(&mut self, layer: &'static str, seconds: f64) {
        self.steps.push((layer, seconds));
    }

    /// The traced end-to-end seconds.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The booked layers, in booking order.
    pub fn steps(&self) -> &[(&'static str, f64)] {
        &self.steps
    }

    /// Share of the end-to-end time the booked layers account for.
    pub fn coverage(&self) -> f64 {
        self.booked() / self.total
    }

    /// End-to-end seconds no layer accounts for (negative when the layers
    /// overlap or were measured outside the operation and ran longer).
    pub fn unaccounted(&self) -> f64 {
        self.total - self.booked()
    }

    fn booked(&self) -> f64 {
        self.steps.iter().map(|(_, s)| s).sum()
    }
}

/// The part of `outer` not spent in `inner`, e.g. lowering as compile time
/// minus the parse time measured on the same sources. Clamped at zero: the
/// two are separate measurements, so noise can make `inner` the larger.
pub fn self_time(outer: f64, inner: f64) -> f64 {
    (outer - inner).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_booked_over_total() {
        let mut l = Ledger::new(2.0);
        l.add("cc", 0.5);
        l.add("explore", 1.4);
        assert!((l.coverage() - 0.95).abs() < 1e-12);
        assert!((l.unaccounted() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn overlapping_layers_show_as_negative_residual() {
        let mut l = Ledger::new(1.0);
        l.add("a", 0.7);
        l.add("b", 0.5);
        assert!(l.coverage() > 1.0);
        assert!(l.unaccounted() < 0.0);
    }

    #[test]
    fn self_time_clamps_at_zero() {
        assert_eq!(self_time(0.3, 0.1), 0.3 - 0.1);
        assert_eq!(self_time(0.1, 0.3), 0.0);
    }
}
