//! The statistical far-memory window recurrence.
//!
//! The fleet simulator (`sdfm-core::fleet_sim`) and the offline replay
//! model (`sdfm-model::replay`) both summarize a job's far memory without
//! per-page state: a zswap store, an optional demotion chain below it
//! ([`ChainPolicy`]), and an optional correlation prefetcher in front of
//! the promotion path ([`PrefetchPolicy`]). [`FarState::step`] is the one
//! implementation of how those three move in a control window; the callers
//! keep only what is theirs — where the window's far-memory and promotion
//! masses come from, and what they charge for the events reported back.
//!
//! Everything here is exact integer arithmetic on the state — no RNG, no
//! wall clock, no floats — so a step is a pure function of its inputs and
//! the engines that share it agree bit for bit.

use crate::backend::ChainPolicy;
use crate::prefetch::{PrefetchPolicy, PrefetchWindowCounts};
use crate::writeback::StorePressure;

/// The statistical policies one window applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FarPolicy {
    /// Store lifecycle: how fast a disabled job's store decays (to DRAM
    /// without a chain, down the ladder with one).
    pub pressure: StorePressure,
    /// Optional three-tier demotion chain (zswap → SSD → remote). `None`
    /// keeps the two-tier behavior: device residency stays zero.
    pub chain: Option<ChainPolicy>,
    /// Optional correlation prefetcher. `None` keeps the
    /// demand-fault-only behavior: every prefetch count stays zero.
    pub prefetch: Option<PrefetchPolicy>,
}

/// One job's far-memory residency, carried from window to window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FarState {
    /// Pages in the zswap store. While zswap is enabled the three tiers
    /// partition the job's far-memory footprint; after a disable the
    /// store drains window by window until it reaches zero.
    pub store_pages: u64,
    /// Pages parked on the SSD tier (chain runs only).
    pub ssd_pages: u64,
    /// Pages parked on the remote tier (chain runs only).
    pub remote_pages: u64,
}

/// The events of one window of [`FarState::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FarWindow {
    /// Promotions the job actually stalled on: the window's promotion
    /// mass minus the faults the prefetcher hid.
    pub demand_promotions: u64,
    /// The prefetcher's issued/used/wasted/late split (all zero without a
    /// policy or while disabled).
    pub prefetch: PrefetchWindowCounts,
    /// Pages the store grew by beyond what it already held — the fresh
    /// compressions of an enabled window, before re-compression of
    /// promoted pages.
    pub store_growth: u64,
    /// Store pages written back to DRAM (disabled, no chain).
    pub writebacks: u64,
    /// Store pages demoted into the SSD tier.
    pub ssd_demotions: u64,
    /// Store pages that overflowed the SSD quota onto the remote tier.
    pub remote_demotions: u64,
    /// Device pages faulted back from the SSD tier.
    pub ssd_faults: u64,
    /// Device pages faulted back from the remote tier.
    pub remote_faults: u64,
}

impl FarState {
    /// Advances the state by one control window.
    ///
    /// `far_pages` is the job's *total* far-memory footprint this window
    /// and `promotions` its would-be demand promotion mass; a disabled
    /// job has neither, so callers pass zero for both when `enabled` is
    /// false.
    #[inline]
    pub fn step(
        &mut self,
        enabled: bool,
        far_pages: u64,
        promotions: u64,
        policy: &FarPolicy,
    ) -> FarWindow {
        debug_assert!(
            enabled || (far_pages == 0 && promotions == 0),
            "a disabled job holds no far memory and takes no promotions"
        );
        // Prefetch: of the window's would-be demand promotions, the
        // policy's coverage and aggressiveness decide how many were
        // predicted and promoted ahead of demand (`used` — those stalls
        // vanish), how many extra mispredictions rode along (`wasted` —
        // promoted and recompressed for nothing), and how many correct
        // predictions lost the race to the fault (`late` — they stall
        // like any demand miss). `used ≤ promotions` by construction.
        let prefetch = match policy.prefetch {
            Some(p) if enabled => p.window_counts(promotions),
            _ => PrefetchWindowCounts::default(),
        };
        let mut window = FarWindow {
            demand_promotions: promotions - prefetch.used,
            prefetch,
            ..FarWindow::default()
        };
        if enabled {
            // Device residency comes off the top of the footprint and the
            // store holds the rest, so demoted pages never recompress.
            let device = self.ssd_pages + self.remote_pages;
            let store_target = if far_pages >= device {
                far_pages - device
            } else {
                // The cold mass shrank below the device residency: the
                // warmest device pages fault back, SSD before remote.
                let mut need = device - far_pages;
                window.ssd_faults = need.min(self.ssd_pages);
                self.ssd_pages -= window.ssd_faults;
                need -= window.ssd_faults;
                window.remote_faults = need.min(self.remote_pages);
                self.remote_pages -= window.remote_faults;
                0
            };
            window.store_growth = store_target.saturating_sub(self.store_pages);
            self.store_pages = store_target;
        } else if policy.chain.is_none() {
            // Bare zswap writes the dead store back to DRAM; with a chain
            // the demotion step below drains it down the ladder instead
            // (the kernel's `store_lifecycle_tick` demote path).
            window.writebacks = policy.pressure.decay_step(self.store_pages);
            self.store_pages -= window.writebacks;
        }
        // Demotion trickle: one decay step of the store's coldest pages
        // sinks to the SSD tier up to the per-job quota and overflows to
        // remote — under the chain's own policy while enabled, under the
        // lifecycle pressure while disabled (the kernel's
        // `demote_coldest`).
        if let Some(chain) = policy.chain {
            let decay = if enabled {
                chain.demote
            } else {
                policy.pressure
            };
            let step = decay.decay_step(self.store_pages);
            window.ssd_demotions = step.min(chain.ssd_quota_pages.saturating_sub(self.ssd_pages));
            window.remote_demotions = step - window.ssd_demotions;
            self.store_pages -= step;
            self.ssd_pages += window.ssd_demotions;
            self.remote_pages += window.remote_demotions;
        }
        window
    }
}

/// Page frames of real memory `pages` compressed pages occupy at a
/// realized ratio of `ratio_permille`. Rounds up; a ratio below 1× clamps
/// to 1×, so the store never occupies more frames than raw pages.
pub fn store_frames(pages: u64, ratio_permille: u32) -> u64 {
    (pages * 1000).div_ceil(ratio_permille.max(1000) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::PrefetchMode;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const QUOTA: u64 = 300;

    fn policy_cells() -> [FarPolicy; 4] {
        let chain = Some(ChainPolicy::paper_default(QUOTA));
        let prefetch = Some(PrefetchPolicy::paper_default(PrefetchMode::StrideMarkov));
        [
            (None, None),
            (chain, None),
            (None, prefetch),
            (chain, prefetch),
        ]
        .map(|(chain, prefetch)| FarPolicy {
            pressure: StorePressure::PAPER_DEFAULT,
            chain,
            prefetch,
        })
    }

    /// Drives every policy cell over a seeded sequence of enable/disable
    /// phases with a growing and shrinking footprint, checking the
    /// conservation identities in every window.
    #[test]
    fn conservation_holds_in_every_window_of_every_policy_cell() {
        for (cell, policy) in policy_cells().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xFA5 + cell as u64);
            let mut state = FarState::default();
            let mut enabled = false;
            let mut far = 0u64;
            let mut seen = FarWindow::default();
            for w in 0..2_000 {
                if rng.gen_range(0..10) == 0 {
                    enabled = !enabled;
                }
                // Grow or shrink by up to a fifth, with occasional jumps
                // large enough to undercut the device residency.
                far = match rng.gen_range(0..8) {
                    0 => rng.gen_range(0..4_000),
                    1..=3 => far + rng.gen_range(0..=far / 5 + 10),
                    _ => far - rng.gen_range(0..=far / 5),
                };
                let promotions = rng.gen_range(0..=far / 4);
                let before = state;
                let win = if enabled {
                    state.step(true, far, promotions, policy)
                } else {
                    state.step(false, 0, 0, policy)
                };
                let ctx = format!("cell {cell} window {w}: {before:?} -> {state:?} {win:?}");

                let pf = win.prefetch;
                assert_eq!(pf.used + pf.wasted, pf.issued, "{ctx}");
                assert!(state.ssd_pages <= QUOTA, "{ctx}");
                if enabled {
                    let held = state.store_pages + state.ssd_pages + state.remote_pages;
                    assert_eq!(held, far, "tiers do not partition far memory: {ctx}");
                    assert!(pf.used <= promotions, "{ctx}");
                    assert_eq!(win.demand_promotions, promotions - pf.used, "{ctx}");
                    assert_eq!(win.writebacks, 0, "{ctx}");
                } else {
                    assert_eq!(win.demand_promotions, 0, "{ctx}");
                    assert_eq!(win.store_growth, 0, "{ctx}");
                    assert_eq!((pf.issued, pf.late), (0, 0), "{ctx}");
                    if policy.chain.is_none() {
                        let after = policy.pressure.store_after_window(before.store_pages);
                        assert_eq!(state.store_pages, after, "{ctx}");
                        assert_eq!(win.writebacks, before.store_pages - after, "{ctx}");
                    } else {
                        // A chain drains the dead store down the ladder:
                        // nothing is written back and nothing vanishes.
                        assert_eq!(win.writebacks, 0, "{ctx}");
                        assert_eq!(
                            state.store_pages + state.ssd_pages + state.remote_pages,
                            before.store_pages + before.ssd_pages + before.remote_pages,
                            "{ctx}"
                        );
                    }
                }
                // Every device movement is reported exactly once.
                assert_eq!(
                    state.ssd_pages + win.ssd_faults,
                    before.ssd_pages + win.ssd_demotions,
                    "{ctx}"
                );
                assert_eq!(
                    state.remote_pages + win.remote_faults,
                    before.remote_pages + win.remote_demotions,
                    "{ctx}"
                );
                if policy.chain.is_none() {
                    assert_eq!((state.ssd_pages, state.remote_pages), (0, 0), "{ctx}");
                    assert_eq!(win.ssd_demotions + win.remote_demotions, 0, "{ctx}");
                    assert_eq!(win.ssd_faults + win.remote_faults, 0, "{ctx}");
                }
                if policy.prefetch.is_none() {
                    assert_eq!(pf, PrefetchWindowCounts::default(), "{ctx}");
                }
                seen.store_growth += win.store_growth;
                seen.writebacks += win.writebacks;
                seen.remote_demotions += win.remote_demotions;
                seen.ssd_faults += win.ssd_faults;
                seen.remote_faults += win.remote_faults;
                seen.prefetch.issued += pf.issued;
            }
            // The sequence actually exercised every branch the cell has.
            assert!(seen.store_growth > 0, "cell {cell} never grew a store");
            if policy.chain.is_some() {
                assert!(seen.remote_demotions > 0, "cell {cell} never overflowed");
                assert!(
                    seen.ssd_faults > 0,
                    "cell {cell} never faulted back from SSD"
                );
                assert!(
                    seen.remote_faults > 0,
                    "cell {cell} never faulted back from remote"
                );
            } else {
                assert!(seen.writebacks > 0, "cell {cell} never wrote back");
            }
            assert_eq!(
                seen.prefetch.issued > 0,
                policy.prefetch.is_some(),
                "cell {cell} prefetch activity"
            );
        }
    }

    #[test]
    fn shrinkage_faults_back_ssd_before_remote() {
        let policy = policy_cells()[1];
        let mut state = FarState {
            store_pages: 50,
            ssd_pages: 200,
            remote_pages: 100,
        };
        // 350 → 60 pages: the store empties, all 200 SSD pages and 40
        // remote pages come back, and 60 stay remote.
        let win = state.step(true, 60, 0, &policy);
        assert_eq!((win.ssd_faults, win.remote_faults), (200, 40));
        assert_eq!(win.store_growth, 0);
        assert_eq!(
            state,
            FarState {
                store_pages: 0,
                ssd_pages: 0,
                remote_pages: 60,
            }
        );
    }
}
