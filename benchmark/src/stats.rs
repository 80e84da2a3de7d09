//! Order statistics over small timing samples.

/// Sorted copy of `v` (timings are finite, so `total_cmp` is a plain
/// numeric order).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linear-interpolated percentile (`p` in 0..=100) of an already sorted
/// sample.
fn percentile_sorted(s: &[f64], p: f64) -> f64 {
    assert!(!s.is_empty(), "percentile of an empty sample");
    let pos = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`; panics on an empty sample (every caller has run at
/// least one operation).
pub fn median(v: &[f64]) -> f64 {
    percentile_sorted(&sorted(v), 50.0)
}

/// First and third quartile, the way Python's
/// `statistics.quantiles(v, n=4)` (exclusive method) computes them —
/// the rule the acceptance spread is defined by. Needs two samples.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two samples");
    let s = sorted(v);
    let n = s.len();
    let at = |i: usize| {
        // Python clamps the rank and then lets `delta` run outside 0..4,
        // which extrapolates for tiny samples; keep that, so the spread
        // printed here is the spread the acceptance rule computes.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a bound is compared against.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// The tail percentiles a timing may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, with its value; `None` when even the lowest rung
/// does not (fewer than 40 samples).
pub fn tail_percentile(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len() as f64;
    let p = TAIL_LADDER.into_iter().find(|p| n * (100.0 - p) / 100.0 >= 10.0)?;
    Some((p, percentile_sorted(&sorted(v), p)))
}

/// Largest sample.
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::MIN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ramp(39)), None, "p75 of 39 leaves 9.75 beyond");
        assert_eq!(tail_percentile(&ramp(40)).map(|t| t.0), Some(75.0));
        assert_eq!(tail_percentile(&ramp(99)).map(|t| t.0), Some(75.0));
        assert_eq!(tail_percentile(&ramp(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail_percentile(&ramp(200)).map(|t| t.0), Some(95.0));
        assert_eq!(tail_percentile(&ramp(1000)).map(|t| t.0), Some(99.0));
        let (p, v) = tail_percentile(&ramp(101)).expect("101 samples reach p90");
        assert_eq!((p, v), (90.0, 90.0));
    }
}
