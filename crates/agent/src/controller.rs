//! The per-job threshold controller (§4.3).

use serde::{Deserialize, Serialize};

use crate::params::{AgentParams, SloConfig};
use crate::pool::ThresholdPool;
use sdfm_types::histogram::{ColdAgeHistogram, PageAge, PromotionHistogram, AGE_BUCKETS};
use sdfm_types::rate::{NormalizedPromotionRate, PromotionRate};
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime};

/// One minute's control decision for one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlDecision {
    /// Whether proactive zswap should run this minute.
    pub zswap_enabled: bool,
    /// The operating cold-age threshold (meaningful when enabled).
    pub threshold: PageAge,
    /// The best (smallest SLO-satisfying) threshold for the window that
    /// just ended.
    pub best_last_window: PageAge,
    /// The K-th percentile of the history pool.
    pub pool_percentile: PageAge,
    /// Working-set estimate used for normalization.
    pub working_set: PageCount,
    /// The observed normalized promotion rate over the window **under the
    /// minimum threshold** — the most aggressive rate the SLI could take.
    pub observed_rate: NormalizedPromotionRate,
}

/// Computes the best threshold for a finished window: the smallest
/// cold-age threshold whose would-be promotions stay within the SLO budget.
///
/// `promo_now` and `promo_prev` are cumulative kernel histograms at the
/// window's end and start; the difference of their suffix sums is the
/// would-be promotion count for each candidate threshold (§4.3's insight:
/// one histogram answers the question for *every* threshold at once).
///
/// Returns the smallest satisfying threshold at or above
/// `slo.min_threshold`; if even the maximum age violates the budget,
/// returns [`PageAge::MAX`] (the least aggressive choice). A zero-length
/// window has no rate to bound and yields `slo.min_threshold`.
pub fn best_threshold_for_window(
    promo_now: &PromotionHistogram,
    promo_prev: &PromotionHistogram,
    working_set: PageCount,
    window: SimDuration,
    slo: &SloConfig,
) -> PageAge {
    let mut delta_suffix = [0u64; AGE_BUCKETS];
    for (((_, now), (_, prev)), slot) in promo_now
        .iter()
        .zip(promo_prev.iter())
        .zip(delta_suffix.iter_mut())
    {
        debug_assert!(now >= prev, "cumulative histogram went backwards");
        *slot = now - prev;
    }
    let mut suffix = 0u64;
    for slot in delta_suffix.iter_mut().rev() {
        suffix += *slot;
        *slot = suffix;
    }
    let Some(exceeds) = budget_test(working_set, window, slo) else {
        return slo.min_threshold;
    };
    let min_scans = usize::from(slo.min_threshold.as_scans());
    // Suffix counts only grow as the threshold drops, so the violating
    // thresholds are a prefix of the candidates.
    let violating = delta_suffix
        .get(min_scans..)
        .unwrap_or(&[])
        .partition_point(|&suffix| exceeds(suffix));
    u8::try_from(min_scans + violating).map_or(PageAge::MAX, PageAge::from_scans)
}

/// [`best_threshold_for_window`] over one window's own promotions (a
/// delta, not two cumulative histograms), with the same result and
/// without building a suffix table.
///
/// It walks up the ages from `slo.min_threshold`, taking each age's count
/// off the running suffix sum, and stops at the first threshold within
/// budget. A window that needs only a low threshold stops early.
pub fn best_threshold_for_delta(
    promo_delta: &PromotionHistogram,
    working_set: PageCount,
    window: SimDuration,
    slo: &SloConfig,
) -> PageAge {
    let Some(exceeds) = budget_test(working_set, window, slo) else {
        return slo.min_threshold;
    };
    let mut suffix = promo_delta.promotions_colder_than(slo.min_threshold);
    let from_min = promo_delta
        .iter()
        .skip(usize::from(slo.min_threshold.as_scans()));
    for (age, promotions) in from_min {
        if !exceeds(suffix) {
            return age;
        }
        suffix -= promotions;
    }
    PageAge::MAX
}

/// The SLO budget test for one window: `exceeds(n)` says whether `n`
/// would-be promotions break the budget. `None` for a zero-length window,
/// which has no rate to bound.
///
/// This is the one place the SLO budget is tested: the live controller
/// reaches it through [`best_threshold_for_window`], the offline replay
/// through [`best_threshold_for_delta`].
fn budget_test(
    working_set: PageCount,
    window: SimDuration,
    slo: &SloConfig,
) -> Option<impl Fn(u64) -> bool> {
    // Promotions per minute allowed by the SLO.
    let budget = slo.target.fraction_per_min() * working_set.get() as f64;
    let window_mins = window.as_mins_f64();
    (window_mins > 0.0).then_some(move |promotions: u64| promotions as f64 / window_mins > budget)
}

/// The per-job control state: threshold history pool, previous histogram
/// snapshot, and warmup tracking.
#[derive(Debug, Clone)]
pub struct JobController {
    params: AgentParams,
    slo: SloConfig,
    started_at: SimTime,
    last_tick: SimTime,
    pool: ThresholdPool,
    prev_promo: PromotionHistogram,
}

// Fleet simulators step controllers for disjoint job sets on worker
// threads; the controller must stay plain owned data.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<JobController>();
};

impl JobController {
    /// Maximum control periods of best-threshold history retained: the
    /// pool slides (see [`ThresholdPool::CAP`] for why it must).
    pub const POOL_CAP: usize = ThresholdPool::CAP;

    /// Creates a controller for a job that started at `started_at`.
    pub fn new(params: AgentParams, slo: SloConfig, started_at: SimTime) -> Self {
        JobController {
            params,
            slo,
            started_at,
            last_tick: started_at,
            pool: ThresholdPool::new(),
            prev_promo: PromotionHistogram::new(),
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> AgentParams {
        self.params
    }

    /// Replaces the parameters (autotuner rollout). History is kept: the
    /// pool is parameter-independent (it stores per-minute *best*
    /// thresholds, not decisions).
    pub fn set_params(&mut self, params: AgentParams) {
        self.params = params;
    }

    /// The SLO in force.
    pub fn slo(&self) -> SloConfig {
        self.slo
    }

    /// Number of window observations accumulated.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Runs one control period: consumes the kernel-exported histograms,
    /// updates the pool, and returns the decision for the next minute.
    ///
    /// `cold` is the instantaneous cold-age histogram; `promo_cumulative`
    /// is the kernel's cumulative promotion histogram (the controller
    /// snapshots it internally to form windows).
    pub fn on_minute(
        &mut self,
        now: SimTime,
        cold: &ColdAgeHistogram,
        promo_cumulative: &PromotionHistogram,
    ) -> ControlDecision {
        let window = now.saturating_duration_since(self.last_tick);
        self.last_tick = now;

        let working_set = PageCount::new(cold.pages_younger_than(self.slo.min_threshold));
        let best = best_threshold_for_window(
            promo_cumulative,
            &self.prev_promo,
            working_set,
            window,
            &self.slo,
        );
        let observed_count = promo_cumulative.promotions_colder_than(self.slo.min_threshold)
            - self
                .prev_promo
                .promotions_colder_than(self.slo.min_threshold);
        let observed_rate =
            PromotionRate::from_count(observed_count, window).normalized(working_set);
        self.prev_promo = promo_cumulative.clone();
        self.pool.push(best);

        // `best` was just pushed, so the pool is never empty here.
        let pool_percentile = self
            .pool
            .kth_percentile(self.params.k_percentile)
            .unwrap_or(PageAge::MAX);
        // Spike reaction: never undercut what the last window needed.
        let threshold = pool_percentile.max(best);
        let warmed_up = now.saturating_duration_since(self.started_at) >= self.params.s_warmup;

        ControlDecision {
            zswap_enabled: warmed_up,
            threshold,
            best_last_window: best,
            pool_percentile,
            working_set,
            observed_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfm_types::time::MINUTE;

    fn slo() -> SloConfig {
        SloConfig::default()
    }

    /// Builds a cumulative promotion histogram from (age, count) pairs.
    fn promo(entries: &[(u8, u64)]) -> PromotionHistogram {
        let mut h = PromotionHistogram::new();
        for &(age, n) in entries {
            h.record_promotion(PageAge::from_scans(age), n);
        }
        h
    }

    fn cold(entries: &[(u8, u64)]) -> ColdAgeHistogram {
        let mut h = ColdAgeHistogram::new();
        for &(age, n) in entries {
            h.record_page(PageAge::from_scans(age), n);
        }
        h
    }

    #[test]
    fn best_threshold_picks_smallest_satisfying() {
        // WSS 10_000 pages, SLO 0.2%/min -> budget 20 promotions/min.
        // 100 promotions at age>=1, 15 at age>=3: threshold 3 satisfies.
        let now = promo(&[(1, 50), (2, 35), (3, 10), (10, 5)]);
        let prev = PromotionHistogram::new();
        let t = best_threshold_for_window(&now, &prev, PageCount::new(10_000), MINUTE, &slo());
        assert_eq!(t.as_scans(), 3);
    }

    #[test]
    fn best_threshold_saturates_when_everything_violates() {
        let now = promo(&[(255, 1_000_000)]);
        let prev = PromotionHistogram::new();
        let t = best_threshold_for_window(&now, &prev, PageCount::new(100), MINUTE, &slo());
        assert_eq!(t, PageAge::MAX);
    }

    #[test]
    fn best_threshold_uses_window_deltas_not_cumulative() {
        // Cumulative history has huge counts, but the last window added
        // nothing: the minimum threshold satisfies.
        let prev = promo(&[(5, 1_000_000)]);
        let now = prev.clone();
        let t = best_threshold_for_window(&now, &prev, PageCount::new(100), MINUTE, &slo());
        assert_eq!(t, slo().min_threshold);
    }

    #[test]
    fn best_threshold_normalizes_by_window_length() {
        // 40 promotions at age>=1 over 2 minutes = 20/min = exactly budget
        // for WSS 10_000.
        let now = promo(&[(1, 40)]);
        let prev = PromotionHistogram::new();
        let t = best_threshold_for_window(&now, &prev, PageCount::new(10_000), MINUTE * 2, &slo());
        assert_eq!(t, slo().min_threshold);
    }

    #[test]
    fn warmup_disables_zswap_for_s_seconds() {
        let params = AgentParams::new(90.0, SimDuration::from_mins(5)).unwrap();
        let mut ctl = JobController::new(params, slo(), SimTime::ZERO);
        let c = cold(&[(0, 100)]);
        let p = PromotionHistogram::new();
        let mut now = SimTime::ZERO;
        for minute in 1..=6 {
            now += MINUTE;
            let d = ctl.on_minute(now, &c, &p);
            if minute < 5 {
                assert!(!d.zswap_enabled, "minute {minute} should be warmup");
            } else {
                assert!(d.zswap_enabled, "minute {minute} should be active");
            }
        }
    }

    #[test]
    fn pool_percentile_is_conservative_with_k_high() {
        let params = AgentParams::new(100.0, SimDuration::ZERO).unwrap();
        let mut ctl = JobController::new(params, slo(), SimTime::ZERO);
        let wss = cold(&[(0, 10_000)]);
        let mut cum = PromotionHistogram::new();
        let mut now = SimTime::ZERO;
        // Nine quiet minutes (best = min threshold), one noisy minute.
        for minute in 0..10 {
            now += MINUTE;
            if minute == 4 {
                // 3000 promotions at age >= 6 in this window: best jumps to 7.
                cum.record_promotion(PageAge::from_scans(6), 3000);
            }
            ctl.on_minute(now, &wss, &cum);
        }
        now += MINUTE;
        let d = ctl.on_minute(now, &wss, &cum);
        // K=100 -> percentile = max of pool = the noisy minute's best.
        assert_eq!(d.pool_percentile.as_scans(), 7);
        assert_eq!(d.threshold.as_scans(), 7);
    }

    #[test]
    fn pool_percentile_with_k_low_tracks_common_case() {
        let params = AgentParams::new(50.0, SimDuration::ZERO).unwrap();
        let mut ctl = JobController::new(params, slo(), SimTime::ZERO);
        let wss = cold(&[(0, 10_000)]);
        let mut cum = PromotionHistogram::new();
        let mut now = SimTime::ZERO;
        for minute in 0..10 {
            now += MINUTE;
            if minute == 4 {
                cum.record_promotion(PageAge::from_scans(6), 3000);
            }
            ctl.on_minute(now, &wss, &cum);
        }
        now += MINUTE;
        let d = ctl.on_minute(now, &wss, &cum);
        // Median of mostly-quiet pool is the minimum threshold.
        assert_eq!(d.pool_percentile, slo().min_threshold);
    }

    #[test]
    fn spike_reaction_overrides_percentile() {
        let params = AgentParams::new(50.0, SimDuration::ZERO).unwrap();
        let mut ctl = JobController::new(params, slo(), SimTime::ZERO);
        let wss = cold(&[(0, 10_000)]);
        let mut cum = PromotionHistogram::new();
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            now += MINUTE;
            ctl.on_minute(now, &wss, &cum);
        }
        // Sudden burst in the current window.
        cum.record_promotion(PageAge::from_scans(9), 5000);
        now += MINUTE;
        let d = ctl.on_minute(now, &wss, &cum);
        assert_eq!(d.best_last_window.as_scans(), 10);
        assert_eq!(
            d.threshold.as_scans(),
            10,
            "threshold must jump with the spike even though the pool median is low"
        );
    }

    #[test]
    fn observed_rate_reports_min_threshold_rate() {
        let params = AgentParams::new(98.0, SimDuration::ZERO).unwrap();
        let mut ctl = JobController::new(params, slo(), SimTime::ZERO);
        let wss = cold(&[(0, 1_000)]);
        let mut cum = PromotionHistogram::new();
        ctl.on_minute(SimTime::ZERO + MINUTE, &wss, &cum);
        cum.record_promotion(PageAge::from_scans(2), 2);
        let d = ctl.on_minute(SimTime::ZERO + MINUTE * 2, &wss, &cum);
        // 2 promotions / min over 1000 pages = 0.2%/min.
        assert!((d.observed_rate.percent_per_min() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn set_params_takes_effect() {
        let mut ctl = JobController::new(
            AgentParams::new(98.0, SimDuration::from_mins(30)).unwrap(),
            slo(),
            SimTime::ZERO,
        );
        ctl.set_params(AgentParams::new(50.0, SimDuration::ZERO).unwrap());
        let d = ctl.on_minute(
            SimTime::ZERO + MINUTE,
            &cold(&[(0, 10)]),
            &PromotionHistogram::new(),
        );
        assert!(d.zswap_enabled, "new zero warmup applies immediately");
    }
}
