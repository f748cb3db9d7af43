//! Property-based tests for the core histogram and statistics invariants.

use proptest::prelude::*;
use sdfm_types::histogram::{ColdAgeHistogram, PageAge, PromotionHistogram};
use sdfm_types::stats::{percentile, percentile_of_sorted, Cdf, FiveNumberSummary, Percentile};
use sdfm_types::time::SimDuration;

proptest! {
    /// Suffix sums over a cold-age histogram are monotonically non-increasing
    /// in the threshold: raising the threshold can only shrink cold memory.
    #[test]
    fn cold_histogram_suffix_monotonic(entries in prop::collection::vec((0u8..=255, 0u64..1000), 0..64)) {
        let mut h = ColdAgeHistogram::new();
        for (age, n) in &entries {
            h.record_page(PageAge::from_scans(*age), *n);
        }
        let mut prev = h.pages_colder_than(PageAge::from_scans(0));
        prop_assert_eq!(prev, h.total_pages());
        for t in 1u8..=255 {
            let cur = h.pages_colder_than(PageAge::from_scans(t));
            prop_assert!(cur <= prev, "threshold {} grew cold memory", t);
            prev = cur;
        }
    }

    /// Promotion suffix sums are likewise monotone, and the histogram merge
    /// is exactly bucketwise addition of the query results.
    #[test]
    fn promotion_merge_is_additive(
        a in prop::collection::vec((0u8..=255, 0u64..1000), 0..32),
        b in prop::collection::vec((0u8..=255, 0u64..1000), 0..32),
        t in 0u8..=255,
    ) {
        let mut ha = PromotionHistogram::new();
        for (age, n) in &a {
            ha.record_promotion(PageAge::from_scans(*age), *n);
        }
        let mut hb = PromotionHistogram::new();
        for (age, n) in &b {
            hb.record_promotion(PageAge::from_scans(*age), *n);
        }
        let qa = ha.promotions_colder_than(PageAge::from_scans(t));
        let qb = hb.promotions_colder_than(PageAge::from_scans(t));
        ha.merge(&hb);
        prop_assert_eq!(ha.promotions_colder_than(PageAge::from_scans(t)), qa + qb);
    }

    /// Quantizing a duration to an age never under-reports: the resulting
    /// age always covers at least the requested duration (until saturation).
    #[test]
    fn age_quantization_rounds_up(secs in 0u64..200_000) {
        let d = SimDuration::from_secs(secs);
        let age = PageAge::from_duration(d);
        if !age.is_saturated() {
            prop_assert!(age.as_duration().as_secs() >= secs);
            // ...and is tight: one scan less would under-cover.
            if age.as_scans() > 0 {
                let one_less = PageAge::from_scans(age.as_scans() - 1);
                prop_assert!(one_less.as_duration().as_secs() < secs);
            }
        }
    }

    /// Percentiles are monotone in p and bounded by the sample range.
    #[test]
    fn percentiles_monotone_and_bounded(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for p in (0..=100).step_by(5) {
            let v = percentile(&xs, Percentile::new(p as f64).unwrap()).unwrap();
            prop_assert!(v >= prev - 1e-9);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            prev = v;
        }
    }

    /// The selection behind `percentile` returns, bit for bit, what
    /// sorting the NaN-free samples and interpolating would: duplicates
    /// (values drawn from a handful of levels), NaNs, infinities, and the
    /// lengths around the rank arithmetic's edge cases. Zero appears with
    /// one sign only — a `0.0` / `-0.0` tie is the documented exception.
    #[test]
    fn percentile_selection_matches_the_sorted_oracle(
        xs in prop::collection::vec(
            prop_oneof![
                (0u8..6).prop_map(|level| f64::from(level) * 0.25),
                -1e9f64..1e9,
                Just(f64::NAN),
                Just(f64::INFINITY),
            ],
            0..300,
        ),
    ) {
        for len in [1, 2, 3, xs.len()] {
            let xs = &xs[..len.min(xs.len())];
            let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered above"));
            for p in [0.0, 50.0, 98.0, 100.0] {
                let p = Percentile::new(p).unwrap();
                let want = (!sorted.is_empty()).then(|| percentile_of_sorted(&sorted, p));
                prop_assert_eq!(
                    percentile(xs, p).map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{} of {:?}", p, xs
                );
            }
        }
    }

    /// The CDF evaluated at its own percentile values is consistent up to
    /// the interpolation granularity: with linear interpolation between
    /// closest ranks, the fraction of samples at or below the p-quantile
    /// value can fall short of p by at most one sample.
    #[test]
    fn cdf_value_fraction_consistency(xs in prop::collection::vec(0f64..100.0, 1..100), q in 0f64..=100.0) {
        let cdf = Cdf::from_samples(&xs).unwrap();
        let v = cdf.value_at(Percentile::new(q).unwrap());
        let frac = cdf.fraction_at_or_below(v);
        let slack = 1.0 / xs.len() as f64;
        prop_assert!(frac >= q / 100.0 - slack - 1e-9,
            "fraction {} below value at p{}", frac, q);
    }

    /// Five-number summaries are correctly ordered and whiskers stay inside
    /// the data range.
    #[test]
    fn five_number_summary_ordered(xs in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let s = FiveNumberSummary::from_samples(&xs).unwrap();
        prop_assert!(s.min <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.max + 1e-9);
        prop_assert!(s.whisker_lo >= s.min - 1e-9 && s.whisker_hi <= s.max + 1e-9);
        prop_assert_eq!(s.count, xs.len());
    }
}
