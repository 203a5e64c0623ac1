//! Order statistics shared by every workload and by `compare`.
//!
//! One rule for tails, from the benchmark's method: a timing is reported
//! as its median and the highest standard percentile that still has at
//! least [`TAIL_BEYOND`] samples beyond it.

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_BEYOND: f64 = 10.0;

/// Percentiles the tail rule picks from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Summary of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile (Python's `statistics.quantiles(n=4)` method).
    pub q1: f64,
    /// Third quartile (same method).
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

impl Summary {
    /// Summarize `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let sorted = sorted(values);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let median = quantile(&sorted, 0.5);
        let (q1, q3) = quartiles(&sorted);
        let deviations: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
        let mad = quantile(&self::sorted(&deviations), 0.5);
        Some(Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
            min,
            max,
            mad,
        })
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// A copy of `values`, sorted ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of an ascending slice, interpolating linearly
/// between closest ranks. 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// First and third quartile of an ascending slice, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive"
/// method), so spreads printed here match an outside check.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    if ld < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] of `n` samples beyond it, or `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // The tolerance absorbs rounding in `100 - 99.9`.
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_a_fixed_vector() {
        let s = Summary::of(&[7.0, 1.0, 3.0, 5.0, 9.0]).expect("non-empty");
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 5.0);
        assert_eq!((s.min, s.max), (1.0, 9.0));
        // Python: statistics.quantiles([1, 3, 5, 7, 9], n=4) == [2.0, 5.0, 8.0]
        assert_eq!((s.q1, s.q3), (2.0, 8.0));
        // |x - 5| = 4, 2, 0, 2, 4 -> median 2.
        assert_eq!(s.mad, 2.0);
        assert!((s.spread() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_on_even_and_tied_samples() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([4, 4], n=4) == [4.0, 4.0, 4.0]
        assert_eq!(quartiles(&[4.0, 4.0]), (4.0, 4.0));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((quantile(&v, 0.99) - 990.01).abs() < 1e-9);
    }

    #[test]
    fn empty_and_constant_samples() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[2.0; 6]).expect("non-empty");
        assert_eq!((s.median, s.q1, s.q3, s.mad), (2.0, 2.0, 2.0, 0.0));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
