//! Property tests for the fast far memory model's replay invariants.

use proptest::prelude::*;
use sdfm_agent::{AgentParams, SloConfig, TraceRecord};
use sdfm_model::{replay_job, FarMemoryModel, JobTrace, ModelConfig};
use sdfm_types::histogram::{ColdAgeHistogram, PageAge, PromotionHistogram};
use sdfm_types::ids::JobId;
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime};

/// Strategy: one job trace with arbitrary (bounded) histograms.
fn arb_trace() -> impl Strategy<Value = JobTrace> {
    prop::collection::vec(
        (
            prop::collection::vec((0u8..=255, 0u64..3_000), 0..8), // cold hist
            prop::collection::vec((1u8..=255, 0u64..500), 0..8),   // promo delta
            1u64..50_000,                                          // wss
            0f64..=0.6,                                            // incompressible
        ),
        // Up to well past `JobController::POOL_CAP`, so the pool slides.
        1..80,
    )
    .prop_map(|windows| {
        let records = windows
            .into_iter()
            .enumerate()
            .map(|(i, (cold_e, promo_e, wss, incomp))| {
                let mut cold = ColdAgeHistogram::new();
                for (age, n) in cold_e {
                    cold.record_page(PageAge::from_scans(age), n);
                }
                let mut promo = PromotionHistogram::new();
                for (age, n) in promo_e {
                    promo.record_promotion(PageAge::from_scans(age), n);
                }
                TraceRecord {
                    job: JobId::new(1),
                    at: SimTime::from_secs((i as u64 + 1) * 300),
                    window: SimDuration::from_secs(300),
                    working_set: PageCount::new(wss),
                    cold_hist: cold,
                    promo_delta: promo,
                    incompressible_fraction: incomp,
                }
            })
            .collect();
        JobTrace::new(JobId::new(1), records)
    })
}

proptest! {
    /// Replay outputs are internally consistent: one outcome per window,
    /// disabled windows contribute nothing, and far memory never exceeds
    /// the potential cold pages.
    #[test]
    fn replay_outcomes_are_consistent(trace in arb_trace(), k in 0f64..=100.0, s in 0u64..3_600) {
        let params = AgentParams::new(k, SimDuration::from_secs(s)).unwrap();
        let out = replay_job(&trace, &ModelConfig::new(params));
        prop_assert_eq!(out.windows.len(), trace.len());
        for w in &out.windows {
            if !w.enabled {
                prop_assert_eq!(w.cold_pages, 0);
                prop_assert_eq!(w.promotions, 0);
            }
            prop_assert!(w.cold_pages <= w.potential_cold_pages,
                "far {} > potential {}", w.cold_pages, w.potential_cold_pages);
            prop_assert!(w.threshold >= SloConfig::default().min_threshold);
        }
    }

    /// Zero warmup dominates any warmup in far memory (everything else
    /// equal): warmup can only disable windows.
    #[test]
    fn warmup_only_removes_savings(trace in arb_trace(), s in 1u64..5_000) {
        let warmup = |secs| ModelConfig::new(AgentParams::new(98.0, SimDuration::from_secs(secs)).unwrap());
        let eager = replay_job(&trace, &warmup(0));
        let lazy = replay_job(&trace, &warmup(s));
        for (e, l) in eager.windows.iter().zip(&lazy.windows) {
            if l.enabled {
                prop_assert_eq!(e.cold_pages, l.cold_pages,
                    "same window, same threshold history, different savings");
            } else {
                prop_assert_eq!(l.cold_pages, 0);
            }
        }
    }

    /// Fleet aggregation is permutation-invariant and parallelism-invariant.
    #[test]
    fn aggregation_is_order_and_thread_invariant(
        traces in prop::collection::vec(arb_trace(), 1..6),
        threads in 1usize..5,
    ) {
        // Re-key jobs so grouping stays stable.
        let traces: Vec<JobTrace> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| JobTrace::new(JobId::new(i as u64 + 1), t.records))
            .collect();
        let config = ModelConfig::new(AgentParams::default());
        let forward = FarMemoryModel::new(traces.clone()).with_threads(threads).evaluate(&config);
        let mut reversed_traces = traces;
        reversed_traces.reverse();
        let reversed = FarMemoryModel::new(reversed_traces).with_threads(1).evaluate(&config);
        prop_assert!((forward.avg_cold_pages - reversed.avg_cold_pages).abs() < 1e-6);
        prop_assert_eq!(forward.jobs, reversed.jobs);
        prop_assert_eq!(forward.windows, reversed.windows);
        prop_assert_eq!(
            forward.p98_normalized_rate.is_some(),
            reversed.p98_normalized_rate.is_some()
        );
        prop_assert!(
            (forward.p98_normalized_rate.map_or(0.0, |p| p.fraction_per_min())
                - reversed.p98_normalized_rate.map_or(0.0, |p| p.fraction_per_min()))
            .abs()
                < 1e-12
        );
    }

    /// The incompressible fraction scales realized outcomes monotonically:
    /// more incompressible memory → less far memory and fewer promotions.
    #[test]
    fn incompressibility_shrinks_outcomes(trace in arb_trace()) {
        let config = ModelConfig::new(AgentParams::new(90.0, SimDuration::ZERO).unwrap());
        let base = replay_job(&trace, &config);
        let mut worse = trace.clone();
        for r in &mut worse.records {
            r.incompressible_fraction = (r.incompressible_fraction + 0.3).min(1.0);
        }
        let shrunk = replay_job(&worse, &config);
        for (b, s) in base.windows.iter().zip(&shrunk.windows) {
            prop_assert!(s.cold_pages <= b.cold_pages);
            prop_assert!(s.promotions <= b.promotions);
        }
    }
}
