//! Order statistics over per-operation samples.

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// there are no samples, which only a run whose operations all failed has.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail sample the benchmark reports: the highest percentile that
/// still has at least `beyond` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, as the share of samples at or below `value` (0–100).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples above it (always `beyond` or more).
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The highest percentile of `xs` with at least `beyond` samples above it,
/// or `None` when there are not more than `beyond` samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<Tail> {
    if xs.len() <= beyond {
        return None;
    }
    let s = sorted(xs);
    let i = s.len() - 1 - beyond;
    Some(Tail {
        percentile: 100.0 * (i + 1) as f64 / s.len() as f64,
        value: s[i],
        beyond,
        samples: s.len(),
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&xs, 10).expect("40 samples");
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.samples, 40);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_needs_more_samples_than_beyond() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), None);
        let t = tail(&[5.0; 11], 10).expect("11 samples");
        assert_eq!((t.percentile, t.value), (100.0 / 11.0, 5.0));
    }
}
