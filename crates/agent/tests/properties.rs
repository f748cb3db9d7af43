//! Property tests for the threshold controller's invariants.

use proptest::prelude::*;
use sdfm_agent::{
    best_threshold_for_delta, best_threshold_for_window, AgentParams, JobController, SloConfig,
};
use sdfm_types::histogram::{ColdAgeHistogram, PageAge, PromotionHistogram, MAX_AGE_SCANS};
use sdfm_types::rate::NormalizedPromotionRate;
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime, MINUTE};

fn promo_hist(entries: &[(u8, u64)]) -> PromotionHistogram {
    let mut h = PromotionHistogram::new();
    for &(age, n) in entries {
        h.record_promotion(PageAge::from_scans(age), n);
    }
    h
}

/// The linear scan `best_threshold_for_window` ran before the budget test
/// moved behind the suffix-table form: walk down from the maximum age,
/// accumulating the window's delta, until the budget breaks.
fn linear_scan_best_threshold(
    promo_now: &PromotionHistogram,
    promo_prev: &PromotionHistogram,
    working_set: PageCount,
    window: SimDuration,
    slo: &SloConfig,
) -> PageAge {
    let budget = slo.target.fraction_per_min() * working_set.get() as f64;
    let window_mins = window.as_mins_f64();
    if window_mins <= 0.0 {
        return slo.min_threshold;
    }
    let delta: Vec<u64> = promo_now
        .iter()
        .zip(promo_prev.iter())
        .map(|((_, now), (_, prev))| now - prev)
        .collect();
    let mut suffix = 0u64;
    let mut best = PageAge::MAX;
    for scans in (slo.min_threshold.as_scans()..=MAX_AGE_SCANS).rev() {
        suffix += delta[scans as usize];
        if suffix as f64 / window_mins <= budget {
            best = PageAge::from_scans(scans);
        } else {
            break;
        }
    }
    best
}

proptest! {
    /// Both entry points agree with the linear scan they replaced — under
    /// any SLO, a nonzero previous snapshot, a zero working set and a
    /// zero-length window: the live form over two cumulative histograms,
    /// and the delta form over the window's own histogram.
    #[test]
    fn both_forms_match_the_linear_scan(
        prev_entries in prop::collection::vec((0u8..=255, 0u64..300), 0..12),
        delta_entries in prop::collection::vec((0u8..=255, 0u64..500), 0..40),
        wss in 0u64..100_000,
        window_secs in prop_oneof![Just(0u64), 1u64..900],
        min_scans in 0u8..=255,
        target_percent in 0.0f64..1.0,
    ) {
        let prev = promo_hist(&prev_entries);
        let delta = promo_hist(&delta_entries);
        let mut now = prev.clone();
        now.merge(&delta);
        let slo = SloConfig {
            target: NormalizedPromotionRate::from_percent_per_min(target_percent),
            min_threshold: PageAge::from_scans(min_scans),
        };
        let (wss, window) = (PageCount::new(wss), SimDuration::from_secs(window_secs));
        let want = linear_scan_best_threshold(&now, &prev, wss, window, &slo);
        prop_assert_eq!(best_threshold_for_window(&now, &prev, wss, window, &slo), want);
        prop_assert_eq!(best_threshold_for_delta(&delta, wss, window, &slo), want);
    }

    /// The chosen best threshold always satisfies the budget (unless it is
    /// MAX, when nothing does), and the threshold one scan below it never
    /// does — minimality.
    #[test]
    fn best_threshold_is_minimal_and_satisfying(
        entries in prop::collection::vec((1u8..=255, 0u64..500), 0..40),
        wss in 1u64..100_000,
    ) {
        let now = promo_hist(&entries);
        let prev = PromotionHistogram::new();
        let slo = SloConfig::default();
        let t = best_threshold_for_window(
            &now, &prev, PageCount::new(wss), MINUTE, &slo,
        );
        let budget = slo.target.fraction_per_min() * wss as f64;
        let rate_at = |age: PageAge| now.promotions_colder_than(age) as f64;
        if t != PageAge::MAX {
            prop_assert!(rate_at(t) <= budget + 1e-9,
                "threshold {t} violates budget");
            if t > slo.min_threshold {
                let below = PageAge::from_scans(t.as_scans() - 1);
                prop_assert!(rate_at(below) > budget,
                    "threshold not minimal: {below} also satisfies");
            }
        } else {
            // MAX chosen: either it satisfies (fine) or truly nothing does.
            if rate_at(PageAge::MAX) > budget {
                prop_assert!(rate_at(slo.min_threshold) > budget);
            }
        }
    }

    /// The controller's decision threshold never undercuts the previous
    /// window's best (the spike rule), and is never below the minimum
    /// threshold.
    #[test]
    fn decision_respects_spike_rule(
        windows in prop::collection::vec(
            prop::collection::vec((1u8..=255, 0u64..2_000), 0..8),
            1..20,
        ),
        k in 0f64..=100.0,
    ) {
        let params = AgentParams::new(k, SimDuration::ZERO).unwrap();
        let slo = SloConfig::default();
        let mut ctl = JobController::new(params, slo, SimTime::ZERO);
        let mut cold = ColdAgeHistogram::new();
        cold.record_page(PageAge::from_scans(0), 10_000);
        let mut cumulative = PromotionHistogram::new();
        let mut now = SimTime::ZERO;
        let mut prev_best: Option<PageAge> = None;
        for w in windows {
            now += MINUTE;
            cumulative.merge(&promo_hist(&w));
            let d = ctl.on_minute(now, &cold, &cumulative);
            prop_assert!(d.threshold >= slo.min_threshold);
            if let Some(pb) = prev_best {
                prop_assert!(
                    d.threshold >= pb.min(d.best_last_window),
                    "spike rule broken: threshold {:?} < prior best {:?}",
                    d.threshold, pb
                );
            }
            prop_assert!(d.threshold >= d.best_last_window.min(d.pool_percentile));
            prev_best = Some(d.best_last_window);
        }
    }

    /// Raising K never lowers the decision threshold (more conservative),
    /// comparing two controllers fed identical observations.
    #[test]
    fn higher_k_is_never_more_aggressive(
        windows in prop::collection::vec(
            prop::collection::vec((1u8..=255, 0u64..2_000), 0..6),
            2..15,
        ),
        k_lo in 0f64..50.0,
        k_hi in 50f64..=100.0,
    ) {
        let slo = SloConfig::default();
        let mut lo = JobController::new(
            AgentParams::new(k_lo, SimDuration::ZERO).unwrap(), slo, SimTime::ZERO);
        let mut hi = JobController::new(
            AgentParams::new(k_hi, SimDuration::ZERO).unwrap(), slo, SimTime::ZERO);
        let mut cold = ColdAgeHistogram::new();
        cold.record_page(PageAge::from_scans(0), 10_000);
        let mut cumulative = PromotionHistogram::new();
        let mut now = SimTime::ZERO;
        for w in windows {
            now += MINUTE;
            cumulative.merge(&promo_hist(&w));
            let dlo = lo.on_minute(now, &cold, &cumulative);
            let dhi = hi.on_minute(now, &cold, &cumulative);
            prop_assert!(
                dhi.threshold >= dlo.threshold,
                "K={k_hi} chose {:?} below K={k_lo}'s {:?}",
                dhi.threshold, dlo.threshold
            );
        }
    }

    /// Warmup gating is exact: zswap is enabled iff at least S seconds have
    /// elapsed since job start.
    #[test]
    fn warmup_boundary_is_exact(s_secs in 0u64..7_200, tick_secs in 60u64..600) {
        let params = AgentParams::new(98.0, SimDuration::from_secs(s_secs)).unwrap();
        let mut ctl = JobController::new(params, SloConfig::default(), SimTime::ZERO);
        let cold = ColdAgeHistogram::new();
        let promo = PromotionHistogram::new();
        let mut now = SimTime::ZERO;
        for _ in 0..30 {
            now += SimDuration::from_secs(tick_secs);
            let d = ctl.on_minute(now, &cold, &promo);
            prop_assert_eq!(d.zswap_enabled, now.as_secs() >= s_secs,
                "at {}s with S={}s", now.as_secs(), s_secs);
        }
    }
}
