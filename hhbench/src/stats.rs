//! Order statistics for repeated measurements.
//!
//! Quartiles follow the "exclusive" method of Python's
//! `statistics.quantiles(values, n=4)`, so the spread this benchmark prints
//! is the spread a reader computes from the same samples.

/// Median, quartiles, extremes and tail of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// `(percentile, value)` for the highest percentile of the ladder
    /// 50, 90, 99, 99.9, 99.99 that still has at least ten samples beyond
    /// it; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none. Non-finite samples
    /// sort last and are kept, so a bad measurement shows in the extremes.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&s);
        Some(Summary {
            n: s.len(),
            min: s[0],
            q1,
            median: median_sorted(&s),
            q3,
            max: s[s.len() - 1],
            tail: tail_percentile(s.len()).map(|p| (p, percentile_sorted(&s, p))),
        })
    }
}

/// The median of `samples` (NaN when there are none).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.median)
}

fn median_sorted(s: &[f64]) -> f64 {
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile of sorted `s`, by the exclusive method; a
/// single sample is its own quartiles.
fn quartiles(s: &[f64]) -> (f64, f64) {
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The highest ladder percentile with at least ten of `n` samples beyond
/// it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of sorted, non-empty `s`.
pub fn percentile_sorted(s: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));

        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let summary = Summary::of(&s).unwrap();
        // Ten samples (991..=1000) lie beyond the 99th percentile.
        assert_eq!(summary.tail, Some((99.0, 990.0)));
        assert_eq!(s.iter().filter(|&&x| x > 990.0).count(), 10);
        assert_eq!(percentile_sorted(&s, 50.0), 500.0);
        assert_eq!(percentile_sorted(&s, 100.0), 1000.0);
    }
}
