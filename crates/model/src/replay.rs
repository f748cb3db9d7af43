//! Offline replay of the §4.3 control algorithm over one job's trace.
//!
//! A trace is *prepared* once, for one SLO, and replayed many times.
//! Preparation does everything that does not depend on the candidate
//! `(K, S)`, in one pass over the records: each window's best threshold
//! and potential cold pages, and the pool of bests the controller holds
//! before each window. The threshold in force is always one of the bests
//! the pool holds (or `MAX` while it is empty), so each window keeps its
//! two what-if answers (§4.3) only at those few thresholds, and the
//! histograms are not kept. [`Candidate::replay`] is then the one loop
//! over windows: a rank, two bytes and one column per window.
//! [`replay_job`] collects its outcomes and
//! [`FarMemoryModel::evaluate`](crate::FarMemoryModel::evaluate) folds
//! them without keeping them.

use std::iter;

use crate::fleet::ModelConfig;
use crate::trace::JobTrace;
use sdfm_agent::{best_threshold_for_delta, AgentParams, SloConfig, ThresholdPool, TraceRecord};
use sdfm_kernel::{CostModel, FarPolicy, FarState, StorePressure};
use sdfm_types::histogram::PageAge;
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
    /// Cold pages under the minimum threshold — the coverage denominator.
    potential_cold_pages: u64,
    /// How many thresholds the window can be given: its entries in
    /// [`PreparedTrace::columns`].
    choices: u8,
    /// The previous window's best, as an index into the window's columns
    /// (0, `PageAge::MAX`, for the first window).
    last: u8,
}

// A window's columns are indexed by bytes.
const _: () = assert!(ThresholdPool::CAP <= u8::MAX as usize);

/// One threshold a window can be given, and what the window realizes
/// under it.
///
/// Both counts are pre-scaled by the window's compressible share:
/// incompressible pages are rejected, so they neither occupy far memory
/// nor fault. The controller stays conservative (its bests come from the
/// raw histograms), but realized outcomes scale by the share.
#[derive(Debug, Clone, Copy)]
struct Column {
    threshold: PageAge,
    /// Pages at least `threshold` old.
    cold: u64,
    /// Promotions of pages at least `threshold` old.
    promotions: u64,
}

/// One job's trace, reduced to the only thresholds a replay can ask
/// about.
///
/// The threshold in force is `max(K-th percentile of the pool, last
/// best)`: a best the pool holds, or `PageAge::MAX` while the pool is
/// empty. The pool's contents depend on the SLO alone, not on `(K, S)`.
/// So each window keeps its cold pages and promotions only at the
/// distinct bests its pool holds (a handful, not 256), and the pool only
/// as indices into those.
#[derive(Debug, Clone)]
pub(crate) struct PreparedTrace {
    /// Job start: one window before the first record.
    start: SimTime,
    windows: Vec<PreparedWindow>,
    /// Per window, in window order: the distinct bests its pool holds,
    /// ascending, or `PageAge::MAX` alone for the first window.
    columns: Vec<Column>,
    /// Per window, in window order: every best its pool holds, ascending,
    /// as an index into the window's columns. Window `i` has
    /// `min(i, ThresholdPool::CAP)` of them.
    held: Vec<u8>,
}

impl PreparedTrace {
    /// Prepares time-ordered `records` for replays under `slo` in one pass,
    /// reading each record's histograms once and copying neither.
    pub(crate) fn new(records: &[TraceRecord], slo: &SloConfig) -> Self {
        let mut windows = Vec::with_capacity(records.len());
        let mut columns = Vec::new();
        let mut held =
            Vec::with_capacity((0..records.len()).map(|i| i.min(ThresholdPool::CAP)).sum());
        // The same pool the live controller keeps, fed the same bests.
        let mut pool = ThresholdPool::new();
        let mut thresholds: Vec<PageAge> = Vec::with_capacity(ThresholdPool::CAP);
        for r in records {
            thresholds.clear();
            for (best, times) in pool.ascending() {
                held.extend(iter::repeat_n(thresholds.len() as u8, times));
                thresholds.push(best);
            }
            // The previous best is one the pool holds.
            let last = match pool.last() {
                Some(last) => thresholds.partition_point(|&t| t < last),
                None => {
                    thresholds.push(PageAge::MAX);
                    0
                }
            };
            let (cold, promo) = (&r.cold_hist, &r.promo_delta);
            let compressible = 1.0 - r.incompressible_fraction.clamp(0.0, 1.0);
            let scaled = |n: u64| (n as f64 * compressible) as u64;
            // Every best is at or above the minimum threshold, so the
            // coverage denominator leads the same pass over `cold`.
            let mut cold_at = cold.pages_colder_than_each(
                iter::once(slo.min_threshold).chain(thresholds.iter().copied()),
            );
            let potential_cold_pages = cold_at.next().unwrap_or(0);
            let promo_at = promo.promotions_colder_than_each(thresholds.iter().copied());
            columns.extend(thresholds.iter().zip(cold_at.zip(promo_at)).map(
                |(&threshold, (cold, promotions))| Column {
                    threshold,
                    cold: scaled(cold),
                    promotions: scaled(promotions),
                },
            ));
            windows.push(PreparedWindow {
                at: r.at,
                window: r.window,
                working_set: r.working_set,
                potential_cold_pages,
                choices: thresholds.len() as u8,
                last: last as u8,
            });
            pool.push(best_threshold_for_delta(
                promo,
                r.working_set,
                r.window,
                slo,
            ));
        }
        let start = records
            .first()
            .map(|r| SimTime::from_secs(r.at.as_secs().saturating_sub(r.window.as_secs())))
            .unwrap_or(SimTime::ZERO);
        PreparedTrace {
            start,
            windows,
            columns,
            held,
        }
    }

    /// Number of windows.
    pub(crate) fn len(&self) -> usize {
        self.windows.len()
    }
}

/// What every replay of one configuration shares, derived once per
/// evaluation.
#[derive(Debug)]
pub(crate) struct Candidate<'a> {
    config: &'a ModelConfig,
    policy: FarPolicy,
    /// `ThresholdPool::rank(K, n)` for every pool size `n`: the only way
    /// K reaches a replay. Slot 0, the empty pool, is never read.
    ranks: [usize; ThresholdPool::CAP + 1],
}

impl<'a> Candidate<'a> {
    pub(crate) fn new(config: &'a ModelConfig) -> Self {
        let k = config.params.k_percentile;
        Candidate {
            config,
            policy: FarPolicy {
                pressure: config.pressure,
                chain: config.chain,
                prefetch: config.prefetch,
            },
            ranks: std::array::from_fn(|n| ThresholdPool::rank(k, n)),
        }
    }

    /// Replays the control algorithm over one prepared trace, handing each
    /// window's outcome to `sink` in time order. This is the only copy of
    /// the per-window recurrence; see [`replay_job`] for what it computes.
    #[inline]
    pub(crate) fn replay(&self, trace: &PreparedTrace, mut sink: impl FnMut(WindowOutcome)) {
        let ModelConfig { params, cost, .. } = self.config;
        let mut state = FarState::default();
        let (mut columns, mut held) = (trace.columns.as_slice(), trace.held.as_slice());
        for (i, w) in trace.windows.iter().enumerate() {
            let (choices, rest) = columns.split_at(usize::from(w.choices));
            columns = rest;
            let n = i.min(ThresholdPool::CAP);
            let (pool, rest) = held.split_at(n);
            held = rest;
            // Decision made at the previous boundary. Indices into the
            // window's columns order as the thresholds do.
            let chosen = &choices[usize::from(if n == 0 {
                // The first window: its one column is `PageAge::MAX`.
                w.last
            } else {
                pool[self.ranks[n] - 1].max(w.last)
            })];
            let threshold = chosen.threshold;
            let enabled = w.at.saturating_duration_since(trace.start) >= params.s_warmup;
            let (cold, promos) = if enabled {
                (chosen.cold, chosen.promotions)
            } else {
                (0, 0)
            };
            let far = state.step(enabled, cold, promos, &self.policy);
            let rate = PromotionRate::from_count(far.demand_promotions, w.window)
                .normalized(w.working_set);
            sink(WindowOutcome {
                at: w.at,
                enabled,
                threshold,
                cold_pages: cold,
                potential_cold_pages: w.potential_cold_pages,
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
        }
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
/// This prepares the borrowed trace for `config.slo` on every call; to
/// replay one trace set under many configurations, build a
/// [`FarMemoryModel`](crate::FarMemoryModel), which prepares once.
pub fn replay_job(trace: &JobTrace, config: &ModelConfig) -> JobReplayOutcome {
    let prepared = PreparedTrace::new(&trace.records, &config.slo);
    let mut windows = Vec::with_capacity(prepared.len());
    Candidate::new(config).replay(&prepared, |w| windows.push(w));
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
