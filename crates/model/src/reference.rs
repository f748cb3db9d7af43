//! The replay and the fleet aggregate as they were before traces were
//! prepared, kept as the oracle the prepared path is compared against.
//!
//! [`reference_replay`] re-sums both raw histograms in every window,
//! re-derives the window's best threshold through the live `(now, prev)`
//! entry point and ranks a drained `Vec` pool by clone-and-sort;
//! [`reference_aggregate`] materialises every outcome and takes the p98 by
//! a full sort. Nothing here shares code with `replay.rs` or `fleet.rs`
//! beyond the types, `FarState::step` and the budget test itself.

use proptest::prelude::*;

use crate::fleet::{FarMemoryModel, FleetModelResult, ModelConfig};
use crate::replay::{replay_job, JobReplayOutcome, WindowOutcome};
use crate::trace::JobTrace;
use sdfm_agent::{best_threshold_for_window, AgentParams, JobController, SloConfig, TraceRecord};
use sdfm_kernel::{ChainPolicy, FarPolicy, FarState, PrefetchMode, PrefetchPolicy};
use sdfm_types::histogram::{ColdAgeHistogram, PageAge, PromotionHistogram};
use sdfm_types::ids::JobId;
use sdfm_types::rate::{NormalizedPromotionRate, PromotionRate};
use sdfm_types::size::PageCount;
use sdfm_types::stats::{percentile_of_sorted, Percentile};
use sdfm_types::time::{SimDuration, SimTime};

fn reference_replay(trace: &JobTrace, config: &ModelConfig) -> JobReplayOutcome {
    let ModelConfig {
        params, slo, cost, ..
    } = config;
    let policy = FarPolicy {
        pressure: config.pressure,
        chain: config.chain,
        prefetch: config.prefetch,
    };
    let mut windows = Vec::with_capacity(trace.records.len());
    let mut state = FarState::default();
    let mut pool: Vec<PageAge> = Vec::new();
    let empty = PromotionHistogram::new();
    // Job start: one window before the first record.
    let start = trace
        .records
        .first()
        .map(|r| SimTime::from_secs(r.at.as_secs().saturating_sub(r.window.as_secs())))
        .unwrap_or(SimTime::ZERO);

    for record in &trace.records {
        // Decision made at the previous boundary.
        let threshold = match (kth_percentile(&pool, params.k_percentile), pool.last()) {
            (Some(p), Some(&last_best)) => p.max(last_best),
            _ => PageAge::MAX,
        };
        let enabled = record.at.saturating_duration_since(start) >= params.s_warmup;

        let potential = record.cold_hist.pages_colder_than(slo.min_threshold);
        // Incompressible pages are rejected by zswap: they neither occupy
        // far memory nor fault. The controller stays conservative (raw
        // histograms), but realized outcomes scale by the compressible
        // share.
        let compressible = 1.0 - record.incompressible_fraction.clamp(0.0, 1.0);
        let (cold, promos) = if enabled {
            (
                (record.cold_hist.pages_colder_than(threshold) as f64 * compressible) as u64,
                (record.promo_delta.promotions_colder_than(threshold) as f64 * compressible) as u64,
            )
        } else {
            (0, 0)
        };
        let far = state.step(enabled, cold, promos, &policy);
        let rate = PromotionRate::from_count(far.demand_promotions, record.window)
            .normalized(record.working_set);
        windows.push(WindowOutcome {
            at: record.at,
            enabled,
            threshold,
            cold_pages: cold,
            potential_cold_pages: potential,
            promotions: far.demand_promotions,
            working_set: record.working_set.get(),
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

        // Update the pool with this window's best threshold, mirroring the
        // controller's sliding history window.
        let best = best_threshold_for_window(
            &record.promo_delta,
            &empty,
            record.working_set,
            record.window,
            slo,
        );
        pool.push(best);
        if pool.len() > JobController::POOL_CAP {
            let excess = pool.len() - JobController::POOL_CAP;
            pool.drain(..excess);
        }
    }
    JobReplayOutcome { windows }
}

/// Nearest-rank (rounding up) K-th percentile of the pool.
fn kth_percentile(pool: &[PageAge], k: f64) -> Option<PageAge> {
    if pool.is_empty() {
        return None;
    }
    let mut sorted = pool.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let rank = ((k / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

fn mean_cold_pages(o: &JobReplayOutcome) -> f64 {
    if o.windows.is_empty() {
        return 0.0;
    }
    o.windows.iter().map(|w| w.cold_pages as f64).sum::<f64>() / o.windows.len() as f64
}

fn mean_store_frames(o: &JobReplayOutcome) -> f64 {
    if o.windows.is_empty() {
        return 0.0;
    }
    o.windows.iter().map(|w| w.store_frames as f64).sum::<f64>() / o.windows.len() as f64
}

fn mean_coverage(o: &JobReplayOutcome) -> Option<f64> {
    let eligible: Vec<&WindowOutcome> = o
        .windows
        .iter()
        .filter(|w| w.potential_cold_pages > 0)
        .collect();
    if eligible.is_empty() {
        return None;
    }
    Some(
        eligible
            .iter()
            .map(|w| w.cold_pages as f64 / w.potential_cold_pages as f64)
            .sum::<f64>()
            / eligible.len() as f64,
    )
}

fn reference_aggregate(outcomes: &[JobReplayOutcome]) -> FleetModelResult {
    let mut avg_cold = 0.0;
    let mut avg_frames = 0.0;
    let mut rates: Vec<f64> = Vec::new();
    let mut coverages: Vec<f64> = Vec::new();
    let mut windows = 0usize;
    for o in outcomes {
        avg_cold += mean_cold_pages(o);
        avg_frames += mean_store_frames(o);
        windows += o.windows.len();
        for w in &o.windows {
            if w.enabled {
                rates.push(w.normalized_rate.fraction_per_min());
            }
        }
        if let Some(c) = mean_coverage(o) {
            coverages.push(c);
        }
    }
    // `percentile` as it was: drop NaNs, sort everything, interpolate.
    rates.retain(|r| !r.is_nan());
    rates.sort_by(|a, b| a.partial_cmp(b).expect("NaNs filtered above"));
    let p98 = (!rates.is_empty()).then(|| {
        NormalizedPromotionRate::from_fraction_per_min(
            percentile_of_sorted(&rates, Percentile::P98).max(0.0),
        )
    });
    let mean_coverage = if coverages.is_empty() {
        0.0
    } else {
        coverages.iter().sum::<f64>() / coverages.len() as f64
    };
    FleetModelResult {
        avg_cold_pages: avg_cold,
        p98_normalized_rate: p98,
        mean_coverage,
        avg_store_frames: avg_frames,
        jobs: outcomes.len(),
        windows,
    }
}

/// Every field as bits, so a NaN on both sides still compares equal.
fn bits(r: &FleetModelResult) -> (u64, Option<u64>, u64, u64, usize, usize) {
    (
        r.avg_cold_pages.to_bits(),
        r.p98_normalized_rate
            .map(|p| p.fraction_per_min().to_bits()),
        r.mean_coverage.to_bits(),
        r.avg_store_frames.to_bits(),
        r.jobs,
        r.windows,
    )
}

/// One window as drawn: cold histogram entries, promotion entries, working
/// set, incompressible fraction and window length in seconds.
type WindowDraw = (Vec<(u8, u64)>, Vec<(u8, u64)>, u64, f64, u64);

/// `(age, count)` entries of a histogram.
fn arb_entries(max_count: u64) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..=255, 0u64..max_count), 0..8)
}

/// Strategy: one job trace, possibly empty and up to well past the pool
/// cap, with the edge cases the replay guards: a zero working set, an
/// incompressible fraction outside `[0, 1]`, and zero-length windows.
///
/// Half the traces draw every window's promotions on their own, so bests
/// are mostly distinct. The other half draw each window's promotions and
/// working set from two or three patterns, so bests tie and the pool
/// fills with duplicates.
fn arb_trace() -> impl Strategy<Value = JobTrace> {
    let incompressible =
        || prop_oneof![6 => 0f64..=0.6, 1 => Just(-0.5), 1 => Just(1.0), 1 => Just(1.75)];
    let distinct = prop::collection::vec(
        (
            arb_entries(3_000),
            arb_entries(500),
            prop_oneof![8 => 1u64..50_000, 1 => Just(0u64)], // wss
            incompressible(),
            prop_oneof![8 => Just(300u64), 1 => Just(0u64), 1 => 60u64..900], // window
        ),
        0..80,
    );
    let repeating = (
        prop::collection::vec((arb_entries(500), 0u64..50_000), 2..=3),
        prop::collection::vec(
            (
                0usize..3,
                arb_entries(3_000),
                incompressible(),
                prop_oneof![8 => Just(300u64), 1 => 60u64..900],
            ),
            0..80,
        ),
    )
        .prop_map(|(patterns, windows)| {
            windows
                .into_iter()
                .map(|(pick, cold_e, incomp, window_secs)| {
                    let (promo_e, wss) = patterns[pick % patterns.len()].clone();
                    (cold_e, promo_e, wss, incomp, window_secs)
                })
                .collect::<Vec<WindowDraw>>()
        });
    prop_oneof![distinct, repeating].prop_map(trace_of)
}

fn trace_of(windows: Vec<WindowDraw>) -> JobTrace {
    let mut at = 0u64;
    let records = windows
        .into_iter()
        .map(|(cold_e, promo_e, wss, incomp, window_secs)| {
            let mut cold = ColdAgeHistogram::new();
            for (age, n) in cold_e {
                cold.record_page(PageAge::from_scans(age), n);
            }
            let mut promo = PromotionHistogram::new();
            for (age, n) in promo_e {
                promo.record_promotion(PageAge::from_scans(age), n);
            }
            at += window_secs;
            TraceRecord {
                job: JobId::new(1),
                at: SimTime::from_secs(at),
                window: SimDuration::from_secs(window_secs),
                working_set: PageCount::new(wss),
                cold_hist: cold,
                promo_delta: promo,
                incompressible_fraction: incomp,
            }
        })
        .collect();
    JobTrace::new(JobId::new(1), records)
}

/// The production SLO, or one with another minimum threshold and target,
/// so traces are also prepared for SLOs other than the one
/// [`FarMemoryModel::new`] uses.
fn arb_slo() -> impl Strategy<Value = SloConfig> {
    prop_oneof![
        Just(SloConfig::default()),
        (1u8..=8, 0.05f64..1.0).prop_map(|(scans, percent)| SloConfig {
            target: NormalizedPromotionRate::from_percent_per_min(percent),
            min_threshold: PageAge::from_scans(scans),
        }),
    ]
}

/// The four policy cells: bare zswap, demotion chain, prefetch, both.
fn policy_cells(base: ModelConfig) -> [ModelConfig; 4] {
    let chain = Some(ChainPolicy::paper_default(500));
    let prefetch = Some(PrefetchPolicy::paper_default(PrefetchMode::StrideMarkov));
    [
        base,
        ModelConfig { chain, ..base },
        ModelConfig { prefetch, ..base },
        ModelConfig {
            chain,
            prefetch,
            ..base
        },
    ]
}

proptest! {
    #[test]
    fn prepared_replay_equals_the_reference_replay(
        trace in arb_trace(),
        k in 0f64..=100.0,
        s in 0u64..=10_800,
        slo in arb_slo(),
    ) {
        let params = AgentParams::new(k, SimDuration::from_secs(s)).unwrap();
        let base = ModelConfig { slo, ..ModelConfig::new(params) };
        for config in policy_cells(base) {
            prop_assert_eq!(replay_job(&trace, &config), reference_replay(&trace, &config));
        }
    }

    #[test]
    fn evaluate_equals_the_reference_fold_at_any_thread_count(
        traces in prop::collection::vec(arb_trace(), 0..7),
        k in 0f64..=100.0,
        s in 0u64..=10_800,
        slo in arb_slo(),
    ) {
        let params = AgentParams::new(k, SimDuration::from_secs(s)).unwrap();
        let base = ModelConfig { slo, ..ModelConfig::new(params) };
        for config in policy_cells(base) {
            let outcomes: Vec<_> = traces.iter().map(|t| reference_replay(t, &config)).collect();
            let want = bits(&reference_aggregate(&outcomes));
            for threads in [1, 2, 4] {
                let model = FarMemoryModel::for_slo(traces.clone(), slo).with_threads(threads);
                prop_assert_eq!(bits(&model.evaluate(&config)), want, "{} thread(s)", threads);
            }
        }
    }
}

/// A trace whose bests take every one of the 256 ages: the pools hold
/// age 0 and `PageAge::MAX` as bests, not only as the empty pool's
/// answer, and a window's thresholds span the whole age range. Window
/// `i`'s best is `(167·i + 3) mod 256` (167 is odd, so the first 256
/// windows take every age once); the 64 after them slide the full pool
/// past repeats.
#[test]
fn bests_spanning_every_age_replay_as_the_reference() {
    // A minimum threshold of 0 scans lets a window without promotions
    // have best 0, so the bests can take all 256 ages.
    let slo = SloConfig {
        min_threshold: PageAge::HOT,
        ..SloConfig::default()
    };
    let window = SimDuration::from_secs(300);
    let wss = PageCount::new(10_000);
    let records: Vec<TraceRecord> = (0..320u64)
        .map(|i| {
            let best = ((167 * i + 3) % 256) as u8;
            let mut cold = ColdAgeHistogram::new();
            cold.record_page(PageAge::HOT, 4_000);
            cold.record_page(PageAge::from_scans((31 * i % 256) as u8), 2_000);
            cold.record_page(PageAge::MAX, 500);
            // Far over budget at every threshold up to `best − 1`, and
            // nothing from `best` on.
            let mut promo = PromotionHistogram::new();
            if let Some(below) = best.checked_sub(1) {
                promo.record_promotion(PageAge::from_scans(below), 1_000_000);
            }
            TraceRecord {
                job: JobId::new(1),
                at: SimTime::from_secs((i + 1) * 300),
                window,
                working_set: wss,
                cold_hist: cold,
                promo_delta: promo,
                incompressible_fraction: 0.25,
            }
        })
        .collect();
    let bests: std::collections::BTreeSet<PageAge> = records
        .iter()
        .map(|r| {
            best_threshold_for_window(
                &r.promo_delta,
                &PromotionHistogram::new(),
                wss,
                window,
                &slo,
            )
        })
        .collect();
    assert_eq!(bests.len(), 256, "the bests do not span every age");

    let trace = JobTrace::new(JobId::new(1), records);
    let model = FarMemoryModel::for_slo(vec![trace.clone()], slo);
    for k in [0.0, 50.0, 90.0, 100.0] {
        let params = AgentParams::new(k, SimDuration::ZERO).expect("valid params");
        for config in policy_cells(ModelConfig {
            slo,
            ..ModelConfig::new(params)
        }) {
            let want = reference_replay(&trace, &config);
            assert_eq!(replay_job(&trace, &config), want, "K = {k}");
            assert_eq!(
                bits(&model.evaluate(&config)),
                bits(&reference_aggregate(&[want])),
                "K = {k}"
            );
        }
    }
}
