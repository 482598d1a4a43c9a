//! Order statistics for repeated measurements.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the exclusive method), because that is what the acceptance check of
//! this benchmark uses: a spread computed here and one computed there
//! from the same numbers must agree.

/// Five-number summary of a sample, plus its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarise an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles_sorted(&v);
        Summary {
            n: v.len(),
            min: v[0],
            q1,
            median,
            q3,
            max: v[v.len() - 1],
        }
    }

    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread the metric bounds are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// `[q1, median, q3]` of an ascending sample, exclusive method. A single
/// value is its own quartiles.
fn quartiles_sorted(v: &[f64]) -> [f64; 3] {
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3.1, 2.9, 4.6], n=4) == [2.9, 3.1, 4.6]
        let s = Summary::of(&[3.1, 2.9, 4.6]);
        assert_eq!((s.q1, s.median, s.q3), (2.9, 3.1, 4.6));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
    }

    #[test]
    fn single_value_is_its_own_summary() {
        let s = Summary::of(&[4.2]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (4.2, 4.2, 4.2, 4.2, 4.2)
        );
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn median_is_order_independent_and_even_sizes_average() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(s.spread(), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_is_rejected() {
        Summary::of(&[]);
    }
}
