//! Summary statistics used by the fleet-level evaluation figures.
//!
//! The paper's figures are distributions: CDFs of per-job quantities
//! (Figures 3, 7, 8, 9), violin/box summaries across machines (Figures 2
//! and 6), and percentile-based SLO checks (the 98th-percentile promotion
//! rate). This module provides exact, deterministic implementations of those
//! summaries over `f64` samples.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::SdfmError;

/// A percentile in `[0, 100]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Percentile(f64);

impl Percentile {
    /// The median.
    pub const P50: Percentile = Percentile(50.0);
    /// The 90th percentile.
    pub const P90: Percentile = Percentile(90.0);
    /// The 98th percentile — the fleet-wide SLO enforcement point (§5.3).
    pub const P98: Percentile = Percentile(98.0);
    /// The 99th percentile.
    pub const P99: Percentile = Percentile(99.0);

    /// Creates a percentile.
    ///
    /// # Errors
    ///
    /// Returns [`SdfmError::InvalidParameter`] unless `0 <= p <= 100`.
    pub fn new(p: f64) -> Result<Self, SdfmError> {
        if p.is_finite() && (0.0..=100.0).contains(&p) {
            Ok(Percentile(p))
        } else {
            Err(SdfmError::invalid_parameter(format!(
                "percentile must be in [0, 100], got {p}"
            )))
        }
    }

    /// Returns the percentile value in `[0, 100]`.
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns the percentile as a quantile in `[0, 1]`.
    pub fn quantile(self) -> f64 {
        self.0 / 100.0
    }
}

impl fmt::Display for Percentile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Computes the `p`-th percentile of `samples` by linear interpolation
/// between closest ranks (the same convention as numpy's default).
///
/// Returns `None` for an empty sample set. Does not require the input to be
/// sorted; NaN samples are ignored.
///
/// Only the two closest ranks are needed, so this is a selection, not a
/// sort: `select_nth_unstable_by` places the lower rank, and the upper one
/// is the minimum of what landed to its right. The result has the bits
/// [`percentile_of_sorted`] returns over the stably sorted samples, with
/// one exception: `0.0` and `-0.0` compare equal, so a sort leaves such a
/// tie in input order while the selection orders it `-0.0` first. No
/// caller can produce that tie — every sample set in the tree is rates,
/// ratios and durations computed from unsigned counts, which are never
/// `-0.0`.
///
/// # Examples
///
/// ```
/// use sdfm_types::stats::{percentile, Percentile};
///
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, Percentile::P50), Some(2.5));
/// ```
pub fn percentile(samples: &[f64], p: Percentile) -> Option<f64> {
    let mut xs: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    if xs.len() <= 1 {
        return xs.first().copied();
    }
    let (lo, hi, frac) = closest_ranks(xs.len(), p);
    let (_, &mut lower, above) = xs.select_nth_unstable_by(lo, f64::total_cmp);
    let upper = if hi == lo {
        lower
    } else {
        // `hi == lo + 1 < len`, so `above` is not empty.
        above
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .unwrap_or(lower)
    };
    Some(interpolate(lower, upper, frac))
}

/// The two closest ranks to `p` among `len >= 1` sorted samples, and the
/// weight of the upper one.
fn closest_ranks(len: usize, p: Percentile) -> (usize, usize, f64) {
    let rank = p.quantile() * (len - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

fn interpolate(lower: f64, upper: f64, frac: f64) -> f64 {
    lower + (upper - lower) * frac
}

/// Like [`percentile`], but assumes `sorted` is already ascending and
/// NaN-free. Useful when taking many percentiles of the same data.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_of_sorted(sorted: &[f64], p: Percentile) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let (lo, hi, frac) = closest_ranks(sorted.len(), p);
    interpolate(sorted[lo], sorted[hi], frac)
}

/// Arithmetic mean; `None` for an empty set. NaN samples are ignored.
pub fn mean(samples: &[f64]) -> Option<f64> {
    let (sum, n) = samples
        .iter()
        .filter(|x| !x.is_nan())
        .fold((0.0, 0u64), |(s, n), &x| (s + x, n + 1));
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// The five-number summary plus 1.5×IQR whiskers — the statistics drawn by
/// the violin/box plots of Figures 2 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FiveNumberSummary {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Lower whisker: `max(min, q1 - 1.5*IQR)`.
    pub whisker_lo: f64,
    /// Upper whisker: `min(max, q3 + 1.5*IQR)`.
    pub whisker_hi: f64,
    /// Number of samples summarized.
    pub count: usize,
}

impl FiveNumberSummary {
    /// Summarizes a sample set.
    ///
    /// Returns `None` when `samples` is empty (after dropping NaNs).
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        let mut xs: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered above"));
        let q1 = percentile_of_sorted(&xs, Percentile::new(25.0).expect("25 is valid"));
        let median = percentile_of_sorted(&xs, Percentile::P50);
        let q3 = percentile_of_sorted(&xs, Percentile::new(75.0).expect("75 is valid"));
        let iqr = q3 - q1;
        let min = xs[0];
        let max = *xs.last().expect("non-empty");
        Some(FiveNumberSummary {
            min,
            q1,
            median,
            q3,
            max,
            whisker_lo: (q1 - 1.5 * iqr).max(min),
            whisker_hi: (q3 + 1.5 * iqr).min(max),
            count: xs.len(),
        })
    }

    /// The interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

impl fmt::Display for FiveNumberSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "min={:.3} q1={:.3} med={:.3} q3={:.3} max={:.3} (n={})",
            self.min, self.q1, self.median, self.q3, self.max, self.count
        )
    }
}

/// An empirical cumulative distribution function over `f64` samples.
///
/// Built once from samples, then queried for fractions-below and for
/// evenly spaced plot points (the series the CDF figures print).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples, ignoring NaNs.
    ///
    /// # Errors
    ///
    /// Returns [`SdfmError::EmptyInput`] when no non-NaN samples remain.
    pub fn from_samples(samples: &[f64]) -> Result<Self, SdfmError> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        if sorted.is_empty() {
            return Err(SdfmError::empty_input("cdf requires at least one sample"));
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered above"));
        Ok(Cdf { sorted })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty sample sets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Fraction of samples `<= x`.
    ///
    /// ```
    /// # use sdfm_types::stats::Cdf;
    /// let cdf = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    /// assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
    /// ```
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        let n_below = self.sorted.partition_point(|&s| s <= x);
        n_below as f64 / self.sorted.len() as f64
    }

    /// The value at percentile `p`.
    pub fn value_at(&self, p: Percentile) -> f64 {
        percentile_of_sorted(&self.sorted, p)
    }

    /// `steps + 1` evenly spaced `(value, cumulative fraction)` points from
    /// p0 to p100, suitable for printing a CDF series.
    ///
    /// # Panics
    ///
    /// Panics when `steps` is zero.
    pub fn series(&self, steps: usize) -> Vec<(f64, f64)> {
        assert!(steps > 0, "series needs at least one step");
        (0..=steps)
            .map(|i| {
                let q = i as f64 / steps as f64;
                let p = Percentile::new(q * 100.0).expect("q in [0,1]");
                (percentile_of_sorted(&self.sorted, p), q)
            })
            .collect()
    }

    /// Access to the sorted samples.
    pub fn sorted_samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_linear_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, Percentile::P50), Some(2.5));
        assert_eq!(percentile(&xs, Percentile::new(0.0).unwrap()), Some(1.0));
        assert_eq!(percentile(&xs, Percentile::new(100.0).unwrap()), Some(4.0));
        // p25 of [1,2,3,4]: rank = 0.25*3 = 0.75 -> 1 + 0.75*(2-1) = 1.75
        assert_eq!(percentile(&xs, Percentile::new(25.0).unwrap()), Some(1.75));
    }

    #[test]
    fn percentile_single_sample_and_empty() {
        assert_eq!(percentile(&[7.0], Percentile::P98), Some(7.0));
        assert_eq!(percentile(&[], Percentile::P50), None);
        assert_eq!(percentile(&[f64::NAN], Percentile::P50), None);
    }

    #[test]
    fn percentile_ignores_nan() {
        let xs = [1.0, f64::NAN, 3.0];
        assert_eq!(percentile(&xs, Percentile::P50), Some(2.0));
    }

    #[test]
    fn percentile_rejects_out_of_range() {
        assert!(Percentile::new(-1.0).is_err());
        assert!(Percentile::new(100.1).is_err());
        assert!(Percentile::new(f64::NAN).is_err());
        assert!(Percentile::new(98.0).is_ok());
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[f64::NAN, 4.0]), Some(4.0));
    }

    #[test]
    fn five_number_summary_of_uniform() {
        let xs: Vec<f64> = (1..=101).map(|i| i as f64).collect();
        let s = FiveNumberSummary::from_samples(&xs).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 51.0);
        assert_eq!(s.max, 101.0);
        assert_eq!(s.q1, 26.0);
        assert_eq!(s.q3, 76.0);
        assert_eq!(s.iqr(), 50.0);
        // whiskers clamp to data range here since 26-75 < 1 is false:
        // q1 - 1.5*50 = -49 -> clamped to min=1
        assert_eq!(s.whisker_lo, 1.0);
        assert_eq!(s.whisker_hi, 101.0);
        assert_eq!(s.count, 101);
    }

    #[test]
    fn five_number_summary_whiskers_inside_range() {
        // Outlier-heavy data: whisker must stop short of max.
        let mut xs: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        xs.push(1000.0);
        let s = FiveNumberSummary::from_samples(&xs).unwrap();
        assert!(s.whisker_hi < 1000.0);
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn five_number_summary_empty() {
        assert!(FiveNumberSummary::from_samples(&[]).is_none());
    }

    #[test]
    fn cdf_fraction_and_values() {
        let cdf = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.5);
        assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
        assert_eq!(cdf.value_at(Percentile::P50), 2.5);
        assert_eq!(cdf.len(), 4);
    }

    #[test]
    fn cdf_series_is_monotonic() {
        let xs: Vec<f64> = (0..50).map(|i| ((i * 37) % 50) as f64).collect();
        let cdf = Cdf::from_samples(&xs).unwrap();
        let series = cdf.series(20);
        assert_eq!(series.len(), 21);
        for w in series.windows(2) {
            assert!(w[1].0 >= w[0].0, "values must be non-decreasing");
            assert!(w[1].1 >= w[0].1, "fractions must be non-decreasing");
        }
    }

    #[test]
    fn cdf_rejects_empty() {
        assert!(Cdf::from_samples(&[]).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Percentile::P98.to_string(), "p98");
        let s = FiveNumberSummary::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert!(s.to_string().contains("med=2.000"));
    }
}
