//! Correlation-based prefetch/promotion prediction.
//!
//! Every cold-page access in the base system pays the full promotion
//! stall: the faulting job waits for a zswap decompression or a device
//! fault-back. This module adds the missing stage between the demotion
//! chain and the promotion path — a per-memcg predictor that watches the
//! demand access sequence and promotes the pages it expects next *before*
//! they are touched, at kstaled cadence, charging the exact same
//! [`crate::CostModel`] decompression and per-tier I/O costs a demand
//! fault would.
//!
//! Two predictors run behind one queue:
//!
//! * a **stride detector**: two consecutive equal non-zero deltas in the
//!   access sequence arm a stride, and each further access extrapolates
//!   one entry ahead;
//! * a bounded **Markov next-page table**: a `BTreeMap` of observed
//!   `prev → next` transitions (capped at [`MARKOV_EDGE_CAP`] edges,
//!   counts saturating) consulted when no stride is armed.
//!
//! Predictions land in a bounded FIFO queue drained once per kstaled
//! scan. Everything is integer state in ordered containers, so the stage
//! is deterministic and bit-identical under any thread count.
//!
//! # Counters
//!
//! Coverage/accuracy/timeliness flow through [`crate::MemcgStats`]:
//!
//! * `prefetch_issued` — predicted pages actually promoted;
//! * `prefetch_used` — issued pages later demand-touched while resident;
//! * `prefetch_wasted` — issued pages reclaimed, freed, or torn down
//!   before any demand touch;
//! * `prefetch_late` — demand faults on pages that were predicted but
//!   still queued (the prediction was right but the drain lost the race).
//!
//! Once every issued page has resolved, `used + wasted == issued` — the
//! conservation law the accuracy counters are defined by.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sdfm_types::arith::permille_of;
use serde::{Deserialize, Serialize};

/// Upper bound on stored Markov transitions (`prev → next` edges) per
/// memcg. When full, existing edges keep counting but new edges are
/// dropped — the table degrades to its hottest correlations instead of
/// growing with the job's footprint.
pub const MARKOV_EDGE_CAP: usize = 1024;

/// Consecutive equal non-zero deltas required before the stride detector
/// starts extrapolating.
pub const STRIDE_ARM_STREAK: u32 = 2;

/// Which predictors the prefetcher runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum PrefetchMode {
    /// Prefetching disabled: the seed promotion path, every fault pays
    /// the full stall.
    #[default]
    Off,
    /// Stride detection only.
    Stride,
    /// Stride detection with the Markov next-page table as fallback.
    StrideMarkov,
}

/// Kernel-side prefetcher configuration, part of
/// [`crate::KernelConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchConfig {
    /// Predictor selection; [`PrefetchMode::Off`] disables the stage.
    pub mode: PrefetchMode,
    /// How much of the queue one kstaled scan may drain, in per-mille of
    /// `queue_cap` (the autotuner dimension: 0 never issues, 1000 drains
    /// a full queue every scan).
    pub aggressiveness_permille: u32,
    /// Maximum queued predictions per memcg.
    pub queue_cap: u32,
}

impl Default for PrefetchConfig {
    /// Prefetching off (bit-identical to the pre-prefetch kernel).
    fn default() -> Self {
        PrefetchConfig {
            mode: PrefetchMode::Off,
            aggressiveness_permille: 1000,
            queue_cap: 64,
        }
    }
}

impl PrefetchConfig {
    /// Whether the stage does anything at all.
    pub fn enabled(&self) -> bool {
        self.mode != PrefetchMode::Off
    }

    /// Predictions one kstaled scan may promote:
    /// `⌊queue_cap × aggressiveness / 1000⌋` (aggressiveness clamped to
    /// 1000‰).
    pub fn drain_budget(&self) -> u64 {
        permille_of(
            self.queue_cap as u64,
            self.aggressiveness_permille.min(1000) as u64,
        )
    }
}

/// Per-memcg prefetch state: the access-sequence predictors and the
/// bounded prediction queue. All containers are ordered, so iteration is
/// deterministic.
#[derive(Debug, Default)]
pub struct Prefetcher {
    last: Option<u64>,
    last_delta: i64,
    streak: u32,
    markov: BTreeMap<u64, BTreeMap<u64, u32>>,
    markov_edges: usize,
    queue: VecDeque<u64>,
    queued: BTreeSet<u64>,
}

impl Prefetcher {
    /// Empty state: no history, nothing queued.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a demand access to page-table entry `idx`, updating both
    /// predictors and enqueueing at most one prediction. A no-op when the
    /// stage is disabled.
    pub fn record(&mut self, idx: u64, config: &PrefetchConfig) {
        if !config.enabled() {
            return;
        }
        let Some(last) = self.last else {
            self.last = Some(idx);
            return;
        };
        self.last = Some(idx);
        let delta = idx.wrapping_sub(last) as i64;
        if delta != 0 {
            if delta == self.last_delta {
                self.streak = self.streak.saturating_add(1);
            } else {
                self.streak = 1;
                self.last_delta = delta;
            }
            if config.mode == PrefetchMode::StrideMarkov {
                self.record_markov_edge(last, idx);
            }
        }
        let predicted = if delta != 0 && self.streak >= STRIDE_ARM_STREAK {
            idx.checked_add_signed(delta)
        } else if config.mode == PrefetchMode::StrideMarkov {
            self.best_successor(idx)
        } else {
            None
        };
        if let Some(next) = predicted {
            self.enqueue(next, config);
        }
    }

    fn record_markov_edge(&mut self, from: u64, to: u64) {
        if let Some(succ) = self.markov.get_mut(&from) {
            if let Some(count) = succ.get_mut(&to) {
                *count = count.saturating_add(1);
            } else if self.markov_edges < MARKOV_EDGE_CAP {
                succ.insert(to, 1);
                self.markov_edges += 1;
            }
        } else if self.markov_edges < MARKOV_EDGE_CAP {
            self.markov.insert(from, BTreeMap::from([(to, 1)]));
            self.markov_edges += 1;
        }
    }

    /// The most frequent observed successor of `idx`; ties break to the
    /// smallest entry index (BTreeMap order), keeping prediction
    /// deterministic.
    fn best_successor(&self, idx: u64) -> Option<u64> {
        let succ = self.markov.get(&idx)?;
        let mut best: Option<(u64, u32)> = None;
        for (&next, &count) in succ {
            let better = match best {
                Some((_, c)) => count > c,
                None => true,
            };
            if better {
                best = Some((next, count));
            }
        }
        best.map(|(next, _)| next)
    }

    /// Enqueues a prediction, dropping duplicates and anything past the
    /// queue cap (oldest predictions keep priority: timeliness favors the
    /// access history we saw first).
    pub(crate) fn enqueue(&mut self, idx: u64, config: &PrefetchConfig) {
        if self.queue.len() >= config.queue_cap as usize || !self.queued.insert(idx) {
            return;
        }
        self.queue.push_back(idx);
    }

    /// Removes a still-queued prediction for `idx`, returning whether one
    /// existed — the demand fault beat the drain, which the caller counts
    /// as a *late* prefetch.
    pub fn cancel(&mut self, idx: u64) -> bool {
        if !self.queued.remove(&idx) {
            return false;
        }
        self.queue.retain(|&q| q != idx);
        true
    }

    /// Pops up to `budget` queued predictions in FIFO order.
    pub fn drain(&mut self, budget: u64) -> Vec<u64> {
        let n = (budget as usize).min(self.queue.len());
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let Some(idx) = self.queue.pop_front() else {
                break;
            };
            self.queued.remove(&idx);
            out.push(idx);
        }
        out
    }

    /// Queued predictions right now.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether `idx` is currently queued.
    pub fn is_queued(&self, idx: u64) -> bool {
        self.queued.contains(&idx)
    }
}

/// Per-window prefetch counters produced by the statistical recurrence
/// ([`PrefetchPolicy::window_counts`]); the fleet simulator's fast path
/// and the offline model share this exact integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchWindowCounts {
    /// Predicted pages promoted ahead of demand.
    pub issued: u64,
    /// Issued pages the job demand-touched while still resident.
    pub used: u64,
    /// Issued pages reclaimed again before any demand touch.
    pub wasted: u64,
    /// Demand faults that beat the drain to a correctly predicted page.
    pub late: u64,
}

/// Fleet-model statistical mirror of the prefetcher, the `fleet_sim` /
/// fast-model counterpart of [`PrefetchConfig`] (mirroring how
/// `ChainPolicy` stands in for the page-level demotion chain). Carries no
/// per-page state — just the mode and aggressiveness plus fixed per-mille
/// effectiveness constants calibrated against the page-level kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchPolicy {
    /// Predictor selection, as in [`PrefetchConfig::mode`].
    pub mode: PrefetchMode,
    /// Drain aggressiveness in per-mille, as in
    /// [`PrefetchConfig::aggressiveness_permille`].
    pub aggressiveness_permille: u32,
}

impl PrefetchPolicy {
    /// Share of correctly predicted promotions whose demand fault still
    /// arrives before the scan-cadence drain (timeliness loss).
    pub const LATE_PERMILLE: u64 = 100;

    /// Extra issues per used prefetch that never see a demand touch
    /// (accuracy loss: the mispredictions that were promoted anyway).
    pub const WASTE_PERMILLE: u64 = 150;

    /// A policy with explicit aggressiveness (clamped at use to 1000‰).
    pub fn new(mode: PrefetchMode, aggressiveness_permille: u32) -> Self {
        PrefetchPolicy {
            mode,
            aggressiveness_permille,
        }
    }

    /// Full-aggressiveness policy for `mode`.
    pub fn paper_default(mode: PrefetchMode) -> Self {
        PrefetchPolicy::new(mode, 1000)
    }

    /// Whether the policy issues anything at all.
    pub fn enabled(&self) -> bool {
        self.mode != PrefetchMode::Off && self.aggressiveness_permille > 0
    }

    /// Share of a window's would-be promotions the predictors cover
    /// (coverage ceiling before aggressiveness/timeliness losses).
    pub fn predict_permille(&self) -> u64 {
        match self.mode {
            PrefetchMode::Off => 0,
            PrefetchMode::Stride => 450,
            PrefetchMode::StrideMarkov => 700,
        }
    }

    /// The page-level [`PrefetchConfig`] this policy stands in for, used
    /// when a fleet job runs below the fidelity cutoff.
    pub fn kernel_config(&self) -> PrefetchConfig {
        PrefetchConfig {
            mode: self.mode,
            aggressiveness_permille: self.aggressiveness_permille,
            ..PrefetchConfig::default()
        }
    }

    /// The shared window recurrence: given the window's demand promotion
    /// mass `promos` (what the job would have faulted on with no
    /// prefetching), derive the issued/used/wasted/late split. Exact
    /// integer arithmetic — `used + wasted == issued` by construction,
    /// and `used ≤ promos`, so the caller's demand promotions
    /// (`promos - used`) never underflow.
    pub fn window_counts(&self, promos: u64) -> PrefetchWindowCounts {
        if !self.enabled() {
            return PrefetchWindowCounts::default();
        }
        let predictable = permille_of(promos, self.predict_permille());
        let attempted = permille_of(predictable, self.aggressiveness_permille.min(1000) as u64);
        let late = permille_of(attempted, Self::LATE_PERMILLE);
        let used = attempted - late;
        let wasted = permille_of(used, Self::WASTE_PERMILLE);
        PrefetchWindowCounts {
            issued: used + wasted,
            used,
            wasted,
            late,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mode: PrefetchMode) -> PrefetchConfig {
        PrefetchConfig {
            mode,
            ..PrefetchConfig::default()
        }
    }

    #[test]
    fn stride_arms_after_two_equal_deltas() {
        let mut p = Prefetcher::new();
        let c = cfg(PrefetchMode::Stride);
        p.record(10, &c);
        p.record(12, &c); // delta 2, streak 1
        assert_eq!(p.queue_len(), 0);
        p.record(14, &c); // delta 2, streak 2 → predict 16
        assert_eq!(p.drain(10), vec![16]);
        p.record(16, &c); // streak 3 → predict 18
        assert!(p.is_queued(18));
    }

    #[test]
    fn stride_break_resets_streak() {
        let mut p = Prefetcher::new();
        let c = cfg(PrefetchMode::Stride);
        for idx in [0, 3, 6, 100, 104] {
            p.record(idx, &c);
        }
        // 0→3→6 armed stride 3 (predicting 9); the jump to 100 and the
        // new delta 4 are both single-streak, so nothing else queued.
        assert_eq!(p.drain(10), vec![9]);
    }

    #[test]
    fn markov_predicts_most_frequent_successor() {
        let mut p = Prefetcher::new();
        let c = cfg(PrefetchMode::StrideMarkov);
        // Train 5→7 twice and 5→2 once with alternating jumps that never
        // arm a stride.
        for idx in [5, 7, 40, 5, 7, 41, 5, 2, 43, 5] {
            p.record(idx, &c);
        }
        // The final access to 5 consults the table: successor 7 (count 2)
        // beats 2 (count 1).
        assert!(p.is_queued(7));
        assert!(!p.is_queued(2));
    }

    #[test]
    fn markov_tie_breaks_to_smallest_index() {
        let mut p = Prefetcher::new();
        let c = cfg(PrefetchMode::StrideMarkov);
        for idx in [9, 30, 50, 9, 20, 51] {
            p.record(idx, &c);
        }
        p.drain(10); // discard predictions made during training
        p.record(9, &c);
        // 9→30 and 9→20 both count 1: the smaller successor wins.
        assert_eq!(p.drain(10), vec![20]);
    }

    #[test]
    fn queue_caps_and_dedups() {
        let mut p = Prefetcher::new();
        let c = PrefetchConfig {
            mode: PrefetchMode::Stride,
            queue_cap: 2,
            ..PrefetchConfig::default()
        };
        for i in 0..20u64 {
            p.enqueue(i % 3, &c);
        }
        assert_eq!(p.queue_len(), 2);
        assert_eq!(p.drain(10), vec![0, 1]);
    }

    #[test]
    fn cancel_reports_and_removes_queued_predictions() {
        let mut p = Prefetcher::new();
        let c = cfg(PrefetchMode::Stride);
        p.enqueue(4, &c);
        assert!(p.cancel(4));
        assert!(!p.cancel(4));
        assert_eq!(p.queue_len(), 0);
    }

    #[test]
    fn markov_edge_cap_bounds_the_table() {
        let mut p = Prefetcher::new();
        let c = cfg(PrefetchMode::StrideMarkov);
        // Far more distinct transitions than the cap; deltas vary so no
        // stride arms.
        let mut idx = 0u64;
        for step in 0..(MARKOV_EDGE_CAP as u64 * 3) {
            idx += 1 + (step % 7);
            p.record(idx, &c);
        }
        assert!(p.markov_edges <= MARKOV_EDGE_CAP);
        let edges: usize = p.markov.values().map(|s| s.len()).sum();
        assert_eq!(edges, p.markov_edges);
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut p = Prefetcher::new();
        let c = cfg(PrefetchMode::Off);
        for idx in [1, 2, 3, 4, 5] {
            p.record(idx, &c);
        }
        assert_eq!(p.queue_len(), 0);
        assert!(p.markov.is_empty());
    }

    #[test]
    fn drain_budget_scales_with_aggressiveness() {
        let mut c = cfg(PrefetchMode::Stride);
        assert_eq!(c.drain_budget(), 64);
        c.aggressiveness_permille = 500;
        assert_eq!(c.drain_budget(), 32);
        c.aggressiveness_permille = 0;
        assert_eq!(c.drain_budget(), 0);
        c.aggressiveness_permille = 5000; // clamped
        assert_eq!(c.drain_budget(), 64);
    }

    #[test]
    fn window_counts_conserve_and_scale() {
        let policy = PrefetchPolicy::paper_default(PrefetchMode::StrideMarkov);
        for promos in [0u64, 1, 17, 1000, 123_456] {
            let c = policy.window_counts(promos);
            assert_eq!(c.used + c.wasted, c.issued, "conservation at {promos}");
            assert!(c.used <= promos);
        }
        let half = PrefetchPolicy::new(PrefetchMode::StrideMarkov, 500);
        assert!(half.window_counts(1000).issued < policy.window_counts(1000).issued);
        let off = PrefetchPolicy::paper_default(PrefetchMode::Off);
        assert_eq!(off.window_counts(1000), PrefetchWindowCounts::default());
        let stride = PrefetchPolicy::paper_default(PrefetchMode::Stride);
        assert!(stride.window_counts(1000).issued < policy.window_counts(1000).issued);
    }
}
