//! Order statistics for the benchmark's own reporting: percentiles,
//! quartiles as Python's `statistics.quantiles(values, n=4)` gives them
//! (the acceptance rule for this benchmark is stated in those terms), and
//! the median absolute deviation.

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks. Empty input yields 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Element-wise median of equally long sample series: entry `i` is the
/// median of every series' `i`-th sample. Rounds of a run do identical
/// work step by step, so this is each step's time with the host's
/// interference (which hits a step in some rounds and not others)
/// filtered out. Series are cut to the shortest.
pub fn median_profile(series: &[Vec<f64>]) -> Vec<f64> {
    let len = series.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| median(&series.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .collect()
}

/// `(q1, q2, q3)` by the exclusive method (`statistics.quantiles`'
/// default). Needs at least two values; fewer yield the single value (or
/// 0) three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (the spread the
/// benchmark's bounds are judged against). 0 when the median is 0.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Median absolute deviation as a share of the median. 0 when the
/// median is 0.
pub fn relative_mad(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_profile_filters_a_disturbed_round() {
        let rounds = vec![
            vec![1.0, 2.0, 3.0],
            vec![9.0, 2.0, 3.0, 4.0],
            vec![1.0, 2.5, 30.0],
        ];
        assert_eq!(median_profile(&rounds), vec![1.0, 2.0, 3.0]);
        assert_eq!(median_profile(&[vec![4.0, 6.0]]), vec![4.0, 6.0]);
        assert!(median_profile(&[]).is_empty());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn relative_spreads() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        // median 3, deviations {2,1,0,1,2} -> MAD 1
        assert!((relative_mad(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(relative_mad(&[0.0, 0.0]), 0.0);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), 0.0);
    }
}
