//! Order statistics for benchmark samples.
//!
//! Every timing the benchmark reports is a median, shown with its
//! quartiles, the highest percentile that still has at least
//! [`TAIL_BEYOND`] samples beyond it, and the sample count. Quartiles use
//! the "exclusive" interpolation of Python's `statistics.quantiles`, so a
//! spread printed here is the spread a Python reader of the same values
//! computes.

/// Samples a reported tail percentile must have above it.
pub const TAIL_BEYOND: usize = 10;

/// The shape of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the middle pair for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Level of the tail percentile, in `[0.5, 1)`.
    pub tail_level: f64,
    /// Value at `tail_level`.
    pub tail: f64,
}

impl Spread {
    /// The spread of `values`; all fields are 0 for an empty slice.
    pub fn of(values: &[f64]) -> Spread {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Spread {
                n,
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                tail_level: 0.5,
                tail: 0.0,
            };
        }
        let (q1, q3) = quartiles(&sorted);
        let tail_level = tail_level(n);
        Spread {
            n,
            median: quantile(&sorted, 0.5),
            q1,
            q3,
            tail_level,
            tail: quantile(&sorted, tail_level),
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Highest percentile level with at least [`TAIL_BEYOND`] of `n` samples
/// above it, never below the median.
pub fn tail_level(n: usize) -> f64 {
    (1.0 - TAIL_BEYOND as f64 / n.max(1) as f64).max(0.5)
}

/// Linear-interpolated quantile of ascending `sorted` at level `p`.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = p.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// First and third quartile of ascending `sorted`, by the exclusive
/// method of Python's `statistics.quantiles(data, n=4)`.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert!(close(q1, 1.25) && close(q3, 3.75), "{q1} {q3}");
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        let (q1, q3) = quartiles(&[5.0, 7.0]);
        assert!(close(q1, 4.5) && close(q3, 7.5), "{q1} {q3}");
    }

    #[test]
    fn median_and_order_independence() {
        let a = Spread::of(&[3.0, 1.0, 2.0]);
        assert!(close(a.median, 2.0));
        let b = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert!(close(b.median, 2.5));
        assert_eq!(b.n, 4);
        assert_eq!(Spread::of(&[2.0, 4.0, 1.0, 3.0]), b);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert!(close(tail_level(1000), 0.99));
        assert!(close(tail_level(100), 0.9));
        assert!(close(tail_level(20), 0.5));
        // too few samples for any tail: fall back to the median
        assert!(close(tail_level(5), 0.5));
        for n in [20usize, 37, 100, 1000, 4321] {
            let beyond = n as f64 * (1.0 - tail_level(n));
            assert!(beyond >= TAIL_BEYOND as f64 - 1e-9, "n={n}");
        }
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let s = Spread::of(&values);
        assert!(close(s.tail, 89.1), "{}", s.tail);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let empty = Spread::of(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.iqr_frac(), 0.0);
        let one = Spread::of(&[7.0]);
        assert!(close(one.median, 7.0) && close(one.q1, 7.0) && close(one.q3, 7.0));
        assert!(close(Spread::of(&[1.0, 1.0, 1.0]).iqr_frac(), 0.0));
    }

    #[test]
    fn iqr_frac_is_relative_to_the_median() {
        let s = Spread::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!(close(s.iqr_frac(), (8.25 - 2.75) / 5.5));
    }
}
