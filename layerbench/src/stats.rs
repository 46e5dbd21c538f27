//! Order statistics for repetition samples: median and quartiles as
//! Python's `statistics.quantiles(values, n=4)` computes them (the
//! benchmark contract's spread is defined in those terms), plus the
//! tail rule "the highest percentile that has at least ten samples
//! beyond it".

/// Percentiles the tail rule chooses from, ascending, in hundredths of
/// a percent (so ranks are computed in integers).
const TAIL_LADDER: [usize; 5] = [9000, 9500, 9900, 9990, 9999];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// What one metric's samples reduce to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// The reported value.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// ten samples beyond it; `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Interquartile range as a share of the median (the contract's
    /// "spread"); 0 for a zero median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// `(q1, median, q3)` by the exclusive method: quantile `i` of 4 sits
/// at position `i·(m+1)/4` of the sorted samples, interpolated
/// linearly and clamped to the ends. One sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample — both are harness bugs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    quartiles_of_sorted(&sorted(values))
}

fn quartiles_of_sorted(sorted: &[f64]) -> (f64, f64, f64) {
    let m = sorted.len();
    if m == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The highest ladder percentile with at least ten samples beyond it,
/// and the nearest-rank sample at that percentile.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    tail_of_sorted(&sorted(values))
}

fn tail_of_sorted(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = (p * n).div_ceil(10_000);
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| (p as f64 / 100.0, sorted[rank - 1]))
    })
}

/// Reduces samples to their [`Summary`].
pub fn summarize(values: &[f64]) -> Summary {
    let sorted = sorted(values);
    let (q1, median, q3) = quartiles_of_sorted(&sorted);
    Summary { n: sorted.len(), q1, median, q3, tail: tail_of_sorted(&sorted) }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "a metric needs at least one sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), (1.5, 3.0, 4.5));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(quartiles(&[9.0, 1.0, 5.0]).1, 5.0);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]).1, 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&ramp(15)), None, "p90 of 15 leaves 1 beyond");
        assert_eq!(tail(&ramp(99)), None, "p90 of 99 leaves 9 beyond");
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&ramp(10));
        assert_eq!(s.n, 10);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(summarize(&[0.0, 0.0]).spread(), 0.0);
    }
}
