//! Offline replay of the §4.3 control algorithm over one job's trace.
//!
//! A trace is *prepared* once and replayed many times. Preparation does
//! everything that does not depend on the candidate `(K, S)`: each
//! window's two histograms become suffix-sum tables in place (what-if
//! queries turn into table reads, §4.3), and the two quantities only the
//! SLO decides — the window's best threshold and its potential cold pages
//! — are derived up front. [`replay`] is then the one loop over windows;
//! [`replay_job`] collects its outcomes and
//! [`FarMemoryModel::evaluate`](crate::FarMemoryModel::evaluate) folds
//! them without keeping them.

use std::borrow::Cow;

use crate::fleet::ModelConfig;
use crate::trace::JobTrace;
use sdfm_agent::{
    best_threshold_for_suffix_table, AgentParams, SloConfig, ThresholdPool, TraceRecord,
};
use sdfm_kernel::{CostModel, FarPolicy, FarState, StorePressure};
use sdfm_types::histogram::{AgeSuffixSums, PageAge};
use sdfm_types::rate::{NormalizedPromotionRate, PromotionRate};
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime};

/// One replayed window's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowOutcome {
    /// Window end.
    pub at: SimTime,
    /// Whether zswap was enabled (past the S warmup).
    pub enabled: bool,
    /// The threshold in force during the window.
    pub threshold: PageAge,
    /// Pages that sat in far memory under that threshold (0 if disabled).
    pub cold_pages: u64,
    /// Cold pages under the *minimum* threshold — the coverage
    /// denominator.
    pub potential_cold_pages: u64,
    /// Promotions incurred under the threshold (0 if disabled).
    pub promotions: u64,
    /// Working set during the window.
    pub working_set: u64,
    /// The normalized promotion rate this window realized.
    pub normalized_rate: NormalizedPromotionRate,
    /// Compressed pages resident in the zswap store at window end. Tracks
    /// `cold_pages` while zswap is enabled; once disabled it decays under
    /// the [`StorePressure`] lifecycle policy instead of vanishing — the
    /// fast model mirrors the page-level simulator's store trajectory.
    pub store_pages: u64,
    /// Physical 4 KiB frames the store occupies for those pages at the
    /// cost model's *realized* compression ratio:
    /// `ceil(store_pages / ratio)`. This is the number the TCO arithmetic
    /// and store sizing actually care about — `store_pages` counts what
    /// was compressed, `store_frames` what it still costs in DRAM.
    pub store_frames: u64,
    /// Pages parked on the SSD tier at window end (chain replays only;
    /// zero otherwise). Together with `remote_pages` and `store_pages`
    /// these partition `cold_pages` while zswap is enabled.
    pub ssd_pages: u64,
    /// Pages parked on the remote tier at window end (chain replays
    /// only).
    pub remote_pages: u64,
    /// Predicted pages promoted ahead of demand this window (prefetch
    /// replays only; zero otherwise).
    pub prefetch_issued: u64,
    /// Issued prefetches whose demand fault was hidden — these are
    /// excluded from `promotions`, which counts realized demand stalls.
    pub prefetch_used: u64,
    /// Issued prefetches reclaimed again untouched (mispredictions).
    pub prefetch_wasted: u64,
    /// Demand faults that beat the scan-cadence drain to a correctly
    /// predicted page (still counted in `promotions`).
    pub prefetch_late: u64,
}

/// A replayed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReplayOutcome {
    /// Per-window outcomes, time-ordered.
    pub windows: Vec<WindowOutcome>,
}

impl JobReplayOutcome {
    fn sums(&self) -> JobSums {
        let mut sums = JobSums::default();
        for w in &self.windows {
            sums.add(w);
        }
        sums
    }

    /// Mean far-memory pages over the job's windows.
    pub fn mean_cold_pages(&self) -> f64 {
        self.sums().mean_cold_pages()
    }

    /// Mean physical store frames over the job's windows — the realized
    /// DRAM footprint of the compressed store, per the cost model the
    /// replay ran with.
    pub fn mean_store_frames(&self) -> f64 {
        self.sums().mean_store_frames()
    }

    /// Mean coverage (far-memory pages / potential cold pages) over
    /// windows with nonzero potential.
    pub fn mean_coverage(&self) -> Option<f64> {
        self.sums().mean_coverage()
    }
}

/// The running sums behind one job's means: what the fleet aggregate
/// keeps of a replay instead of its [`WindowOutcome`]s.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JobSums {
    pub(crate) windows: usize,
    cold_pages: f64,
    store_frames: f64,
    /// Sum of per-window coverage over the `eligible` windows (nonzero
    /// potential).
    coverage: f64,
    eligible: usize,
}

impl JobSums {
    /// Adds one window, in trace order (f64 sums are order-sensitive).
    #[inline]
    pub(crate) fn add(&mut self, w: &WindowOutcome) {
        self.windows += 1;
        self.cold_pages += w.cold_pages as f64;
        self.store_frames += w.store_frames as f64;
        if w.potential_cold_pages > 0 {
            self.coverage += w.cold_pages as f64 / w.potential_cold_pages as f64;
            self.eligible += 1;
        }
    }

    pub(crate) fn mean_cold_pages(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.cold_pages / self.windows as f64
    }

    pub(crate) fn mean_store_frames(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.store_frames / self.windows as f64
    }

    pub(crate) fn mean_coverage(&self) -> Option<f64> {
        (self.eligible > 0).then(|| self.coverage / self.eligible as f64)
    }
}

/// One trace window with everything candidate-independent precomputed.
#[derive(Debug, Clone)]
struct PreparedWindow {
    at: SimTime,
    window: SimDuration,
    working_set: PageCount,
    /// The share of would-be outcomes zswap realizes. Incompressible
    /// pages are rejected: they neither occupy far memory nor fault. The
    /// controller stays conservative (raw histograms), but realized
    /// outcomes scale by this.
    compressible: f64,
    /// `cold.at(T)`: pages at least `T` scans old.
    cold: AgeSuffixSums,
    /// `promo.at(T)`: promotions of pages at least `T` scans old.
    promo: AgeSuffixSums,
}

/// What the SLO alone decides about each window of a trace (9 bytes per
/// window; parallel to [`PreparedTrace::windows`]).
#[derive(Debug, Clone)]
struct SloTable {
    /// The window's best threshold (what it adds to the pool).
    best: Vec<PageAge>,
    /// Cold pages under the minimum threshold — the coverage denominator.
    potential_cold_pages: Vec<u64>,
}

impl SloTable {
    fn derive(windows: &[PreparedWindow], slo: &SloConfig) -> Self {
        SloTable {
            best: windows
                .iter()
                .map(|w| {
                    best_threshold_for_suffix_table(
                        w.promo.as_slice(),
                        w.working_set,
                        w.window,
                        slo,
                    )
                })
                .collect(),
            potential_cold_pages: windows
                .iter()
                .map(|w| w.cold.at(slo.min_threshold))
                .collect(),
        }
    }
}

/// One job's trace, consumed into the form [`replay`] reads.
#[derive(Debug, Clone)]
pub(crate) struct PreparedTrace {
    /// Job start: one window before the first record.
    start: SimTime,
    windows: Vec<PreparedWindow>,
    /// The SLO `table` was derived for.
    slo: SloConfig,
    table: SloTable,
}

impl PreparedTrace {
    /// Prepares time-ordered `records` for replays under `slo`. Each
    /// record's histograms become its suffix tables in place, so a
    /// prepared trace is no larger than the trace it consumed.
    pub(crate) fn new(records: impl IntoIterator<Item = TraceRecord>, slo: SloConfig) -> Self {
        let windows: Vec<PreparedWindow> = records
            .into_iter()
            .map(|r| PreparedWindow {
                at: r.at,
                window: r.window,
                working_set: r.working_set,
                compressible: 1.0 - r.incompressible_fraction.clamp(0.0, 1.0),
                cold: r.cold_hist.into_suffix_sums(),
                promo: r.promo_delta.into_suffix_sums(),
            })
            .collect();
        let start = windows
            .first()
            .map(|w| SimTime::from_secs(w.at.as_secs().saturating_sub(w.window.as_secs())))
            .unwrap_or(SimTime::ZERO);
        let table = SloTable::derive(&windows, &slo);
        PreparedTrace {
            start,
            windows,
            slo,
            table,
        }
    }

    /// Number of windows.
    pub(crate) fn len(&self) -> usize {
        self.windows.len()
    }

    /// The prepared table when `slo` is the one it was prepared for, else
    /// one derived for this call by the same function.
    fn slo_table(&self, slo: &SloConfig) -> Cow<'_, SloTable> {
        if *slo == self.slo {
            Cow::Borrowed(&self.table)
        } else {
            Cow::Owned(SloTable::derive(&self.windows, slo))
        }
    }
}

/// Replays the control algorithm over one prepared trace under `config`,
/// handing each window's outcome to `sink` in time order. This is the only
/// copy of the per-window recurrence; see [`replay_job`] for what it
/// computes.
#[inline]
pub(crate) fn replay(
    trace: &PreparedTrace,
    config: &ModelConfig,
    mut sink: impl FnMut(WindowOutcome),
) {
    let ModelConfig { params, cost, .. } = config;
    let policy = FarPolicy {
        pressure: config.pressure,
        chain: config.chain,
        prefetch: config.prefetch,
    };
    let table = trace.slo_table(&config.slo);
    let mut state = FarState::default();
    let mut pool = ThresholdPool::new();

    for ((w, &best), &potential) in trace
        .windows
        .iter()
        .zip(&table.best)
        .zip(&table.potential_cold_pages)
    {
        // Decision made at the previous boundary.
        let threshold = match (pool.kth_percentile(params.k_percentile), pool.last()) {
            (Some(p), Some(last_best)) => p.max(last_best),
            _ => PageAge::MAX,
        };
        let enabled = w.at.saturating_duration_since(trace.start) >= params.s_warmup;
        let (cold, promos) = if enabled {
            (
                (w.cold.at(threshold) as f64 * w.compressible) as u64,
                (w.promo.at(threshold) as f64 * w.compressible) as u64,
            )
        } else {
            (0, 0)
        };
        let far = state.step(enabled, cold, promos, &policy);
        let rate =
            PromotionRate::from_count(far.demand_promotions, w.window).normalized(w.working_set);
        sink(WindowOutcome {
            at: w.at,
            enabled,
            threshold,
            cold_pages: cold,
            potential_cold_pages: potential,
            promotions: far.demand_promotions,
            working_set: w.working_set.get(),
            normalized_rate: rate,
            store_pages: state.store_pages,
            store_frames: cost.store_frames(state.store_pages),
            ssd_pages: state.ssd_pages,
            remote_pages: state.remote_pages,
            prefetch_issued: far.prefetch.issued,
            prefetch_used: far.prefetch.used,
            prefetch_wasted: far.prefetch.wasted,
            prefetch_late: far.prefetch.late,
        });
        // This window's best threshold joins the controller's sliding
        // history for the next decision.
        pool.push(best);
    }
}

/// Replays the control algorithm over one job's trace under `config`,
/// mirroring [`sdfm_agent::JobController`] at trace granularity: the
/// threshold in force for window *i* is
/// `max(K-th percentile of best[0..i], best[i−1])`, zswap is off for the
/// first `S` seconds, and each window is then charged the promotions and
/// credited the cold memory its own histograms imply for that threshold.
///
/// The store, demotion-chain, and prefetch trajectory is
/// [`FarState::step`] — the same recurrence the fleet simulator runs, so
/// the fast model mirrors it by construction: while zswap is enabled the
/// tiers partition the window's cold pages; while disabled the store
/// decays under `config.pressure` (down the chain if one is configured)
/// instead of vanishing; hidden faults leave `promotions`. The store's
/// physical footprint is sized by `config.cost`'s realized ratio.
///
/// This prepares a copy of the borrowed trace on every call; to replay
/// one trace set under many configurations, build a
/// [`FarMemoryModel`](crate::FarMemoryModel), which prepares once.
pub fn replay_job(trace: &JobTrace, config: &ModelConfig) -> JobReplayOutcome {
    let prepared = PreparedTrace::new(trace.records.iter().cloned(), config.slo);
    let mut windows = Vec::with_capacity(prepared.len());
    replay(&prepared, config, |w| windows.push(w));
    JobReplayOutcome { windows }
}

// Kept only for `benchmark/src/workloads/autotune.rs:179`, which is frozen
// in the PR that reshaped `replay_job`; the next `benchmark` PR drops it.
#[doc(hidden)]
pub fn replay_job_with_model(
    trace: &JobTrace,
    params: &AgentParams,
    slo: &SloConfig,
    pressure: StorePressure,
    cost: &CostModel,
) -> JobReplayOutcome {
    let base = ModelConfig::new(*params);
    replay_job(
        trace,
        &ModelConfig {
            slo: *slo,
            pressure,
            cost: *cost,
            ..base
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfm_kernel::{ChainPolicy, PrefetchPolicy};
    use sdfm_types::histogram::{ColdAgeHistogram, PromotionHistogram};
    use sdfm_types::ids::JobId;

    /// A steady window: 10k pages of which 4k are cold at age ≥ 3,
    /// 10 promotions/5min at ages ≥ 5, WSS 6k.
    fn steady_record(at_secs: u64) -> TraceRecord {
        let mut cold = ColdAgeHistogram::new();
        cold.record_page(PageAge::from_scans(0), 6_000);
        cold.record_page(PageAge::from_scans(3), 1_000);
        cold.record_page(PageAge::from_scans(10), 3_000);
        let mut promo = PromotionHistogram::new();
        promo.record_promotion(PageAge::from_scans(5), 10);
        TraceRecord {
            job: JobId::new(1),
            at: SimTime::from_secs(at_secs),
            window: SimDuration::from_secs(300),
            working_set: PageCount::new(6_000),
            cold_hist: cold,
            promo_delta: promo,
            incompressible_fraction: 0.0,
        }
    }

    fn config(k: f64, s_secs: u64) -> ModelConfig {
        ModelConfig::new(AgentParams::new(k, SimDuration::from_secs(s_secs)).unwrap())
    }

    #[test]
    fn warmup_produces_zero_savings() {
        let trace = JobTrace::new(
            JobId::new(1),
            (1..=4).map(|i| steady_record(i * 300)).collect(),
        );
        // S = 20 minutes: all four 5-minute windows are inside warmup.
        let out = replay_job(&trace, &config(98.0, 1_200));
        assert_eq!(out.windows.len(), 4);
        for w in &out.windows[..3] {
            assert!(!w.enabled);
            assert_eq!(w.cold_pages, 0);
            assert_eq!(w.promotions, 0);
        }
        // The fourth window (at t=1200, start t=0) reaches the boundary.
        assert!(out.windows[3].enabled);
    }

    #[test]
    fn steady_state_converges_to_best_threshold() {
        // Budget: 0.2%/min of 6000 = 12/min = 60 per 5-minute window.
        // The 10 promotions at age ≥5 fit at the minimum threshold, so the
        // best threshold each window is 1 scan, and after the first window
        // the pool percentile pins the decision there.
        let trace = JobTrace::new(
            JobId::new(1),
            (1..=10).map(|i| steady_record(i * 300)).collect(),
        );
        let out = replay_job(&trace, &config(98.0, 0));
        let last = out.windows.last().unwrap();
        assert_eq!(last.threshold, PageAge::from_scans(1));
        // All pages at age ≥ 1 scan are in far memory: 4000.
        assert_eq!(last.cold_pages, 4_000);
        assert_eq!(last.potential_cold_pages, 4_000);
        assert_eq!(last.promotions, 10);
        assert!(out.mean_coverage().unwrap() > 0.5);
    }

    #[test]
    fn first_window_is_conservative() {
        let trace = JobTrace::new(JobId::new(1), vec![steady_record(300)]);
        let out = replay_job(&trace, &config(98.0, 0));
        assert_eq!(out.windows[0].threshold, PageAge::MAX);
        assert_eq!(out.windows[0].cold_pages, 0, "nothing at age 255 here");
    }

    #[test]
    fn noisy_window_raises_threshold_via_spike_rule() {
        let mut records: Vec<TraceRecord> = (1..=5).map(|i| steady_record(i * 300)).collect();
        // Window 5 has a burst: 100k promotions at age ≥ 4.
        records[4]
            .promo_delta
            .record_promotion(PageAge::from_scans(4), 100_000);
        records.push(steady_record(6 * 300));
        let trace = JobTrace::new(JobId::new(1), records);
        let out = replay_job(&trace, &config(50.0, 0));
        // Window 6's decision must reflect window 5's best (≥ 5 scans),
        // not the quiet median.
        assert!(
            out.windows[5].threshold >= PageAge::from_scans(5),
            "threshold {:?} ignored the spike",
            out.windows[5].threshold
        );
    }

    #[test]
    fn normalized_rate_is_computed_per_window() {
        let trace = JobTrace::new(
            JobId::new(1),
            (1..=3).map(|i| steady_record(i * 300)).collect(),
        );
        let out = replay_job(&trace, &config(98.0, 0));
        let w = out.windows.last().unwrap();
        // 10 promotions / 5 min / 6000 pages = 0.0333%/min.
        assert!((w.normalized_rate.percent_per_min() - 0.0333).abs() < 0.001);
        assert!(w
            .normalized_rate
            .meets(NormalizedPromotionRate::PAPER_SLO_TARGET));
    }

    #[test]
    fn store_mirrors_the_cold_trajectory() {
        let trace = JobTrace::new(
            JobId::new(1),
            (1..=8).map(|i| steady_record(i * 300)).collect(),
        );
        // 15-minute warmup: the first two windows replay disabled.
        let out = replay_job(&trace, &config(98.0, 900));
        for w in &out.windows {
            if w.enabled {
                // While zswap is on, the store holds exactly the cold set:
                // reclaim fills it, threshold rises drain it.
                assert_eq!(w.store_pages, w.cold_pages);
            } else {
                // Nothing was ever compressed before enablement, and the
                // lifecycle policy must not invent pages out of thin air.
                assert_eq!(w.store_pages, 0);
            }
        }
        // The steady trace converges: the last window's store is the full
        // 4000-page cold set, not a residue of the conservative start.
        assert_eq!(out.windows.last().unwrap().store_pages, 4_000);
        // At the paper-default 3× ratio those 4000 compressed pages
        // occupy ceil(4000 / 3) = 1334 physical frames.
        assert_eq!(out.windows.last().unwrap().store_frames, 1_334);
    }

    #[test]
    fn store_frames_track_the_cost_models_realized_ratio() {
        let trace = JobTrace::new(
            JobId::new(1),
            (1..=8).map(|i| steady_record(i * 300)).collect(),
        );
        // A degenerate 1× model: frames equal pages, no savings.
        let unit = CostModel {
            ratio_permille: 1000,
            ..CostModel::PAPER_DEFAULT
        };
        let out = replay_job(&trace, &config(98.0, 0).with_cost(unit));
        for w in &out.windows {
            assert_eq!(w.store_frames, w.store_pages);
        }
        // A 4× model: exactly a quarter of the pages, rounded up.
        let four_x = CostModel {
            ratio_permille: 4000,
            ..CostModel::PAPER_DEFAULT
        };
        let out = replay_job(&trace, &config(98.0, 0).with_cost(four_x));
        assert_eq!(out.windows.last().unwrap().store_pages, 4_000);
        assert_eq!(out.windows.last().unwrap().store_frames, 1_000);
    }

    #[test]
    fn chain_replay_partitions_cold_across_tiers() {
        let trace = JobTrace::new(
            JobId::new(1),
            (1..=14).map(|i| steady_record(i * 300)).collect(),
        );
        let chained = ModelConfig {
            chain: Some(ChainPolicy::paper_default(500)),
            ..config(98.0, 0)
        };
        let out = replay_job(&trace, &chained);
        // While enabled, the three tiers exactly partition the cold set —
        // demotion moves pages within far memory, never out of it.
        for w in out.windows.iter().filter(|w| w.enabled) {
            assert_eq!(
                w.store_pages + w.ssd_pages + w.remote_pages,
                w.cold_pages,
                "tiers do not partition the cold set: {w:?}"
            );
        }
        let last = out.windows.last().unwrap();
        assert!(last.ssd_pages > 0, "nothing demoted to SSD");
        assert!(last.ssd_pages <= 500, "SSD quota exceeded");
        assert!(last.remote_pages > 0, "quota overflow never reached remote");
        // Without a chain nothing ever reaches a device tier.
        for w in &replay_job(&trace, &config(98.0, 0)).windows {
            assert_eq!(w.ssd_pages, 0);
            assert_eq!(w.remote_pages, 0);
        }
    }

    #[test]
    fn prefetch_replay_hides_faults_and_conserves_counters() {
        use sdfm_kernel::PrefetchMode;
        let trace = JobTrace::new(
            JobId::new(1),
            (1..=10).map(|i| steady_record(i * 300)).collect(),
        );
        let base = replay_job(&trace, &config(98.0, 0));
        let prefetching = ModelConfig {
            prefetch: Some(PrefetchPolicy::paper_default(PrefetchMode::StrideMarkov)),
            ..config(98.0, 0)
        };
        let with = replay_job(&trace, &prefetching);
        let sum = |o: &JobReplayOutcome, f: fn(&WindowOutcome) -> u64| -> u64 {
            o.windows.iter().map(f).sum()
        };
        assert!(sum(&with, |w| w.prefetch_issued) > 0, "nothing issued");
        assert_eq!(
            sum(&with, |w| w.prefetch_used) + sum(&with, |w| w.prefetch_wasted),
            sum(&with, |w| w.prefetch_issued),
            "conservation broke"
        );
        assert!(
            sum(&with, |w| w.promotions) < sum(&base, |w| w.promotions),
            "prefetching hid no demand faults"
        );
        // Without a policy every prefetch counter stays zero.
        for w in &base.windows {
            assert_eq!(
                w.prefetch_issued + w.prefetch_used + w.prefetch_wasted + w.prefetch_late,
                0
            );
        }
    }

    #[test]
    fn empty_trace_replays_empty() {
        let trace = JobTrace::new(JobId::new(1), vec![]);
        let out = replay_job(&trace, &config(98.0, 0));
        assert!(out.windows.is_empty());
        assert_eq!(out.mean_cold_pages(), 0.0);
        assert_eq!(out.mean_coverage(), None);
    }
}
