//! Store lifecycle: writeback and decay of the zswap store under pressure.
//!
//! The paper's store is filled by kreclaimd and drained by promotion
//! faults, but a real kernel also *shrinks* it without an access: when a
//! memcg's zswap is disabled its compressed pages are dead weight, when the
//! agent raises a soft limit the protected working set must come back to
//! DRAM, and under host-side memory pressure the kernel writes back LRU
//! compressed objects and compacts the arena. [`StorePressure`] is the
//! policy for all three sources; the walkers here apply it by picking
//! victims in `(age, index)` order and handing each to the one fault-in
//! (writeback) or sink (demotion) in `moves.rs`, where every
//! decompression is charged so CPU accounting stays honest.
//!
//! # Determinism contract
//!
//! The decay schedule is pure integer arithmetic on the store size — no
//! RNG, no wall clock — so the statistical fleet simulator
//! (`sdfm-core::fleet_sim`) and the offline model (`sdfm-model::replay`)
//! can mirror the page-level trajectory exactly: the same
//! [`StorePressure`] value produces the same per-window writeback counts
//! in all three layers. Victim selection orders pages by `(age, index)`,
//! both of which are simulation state, so a writeback pass is a pure
//! function of the memcg.

use serde::{Deserialize, Serialize};

use crate::error::KernelError;
use crate::memcg::MemCgroup;
use crate::moves::{FaultIn, Moves};
use sdfm_types::arith::permille_of;
use sdfm_types::histogram::PageAge;
use sdfm_types::size::PageCount;

/// The store-lifecycle policy: how fast a dead store decays.
///
/// Decay is geometric with an integer floor plus a minimum step, so any
/// finite store reaches exactly zero in finitely many windows (a pure
/// `resident * per_mille / 1000` floor would asymptote above zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorePressure {
    /// Fraction (per mille) of a dead store written back per control
    /// window.
    pub decay_per_mille: u32,
    /// Minimum pages written back per window while the store is nonempty,
    /// so the geometric tail terminates.
    pub min_decay_pages: u64,
}

impl StorePressure {
    /// The default lifecycle: 12.5 % of a dead store decays per 5-minute
    /// control window (a ~35-minute half-life, the order of magnitude of
    /// kswapd-driven zswap writeback under mild pressure), at least one
    /// page per window.
    pub const PAPER_DEFAULT: StorePressure = StorePressure {
        decay_per_mille: 125,
        min_decay_pages: 1,
    };

    /// Pages to write back this window from a store of `resident` pages.
    /// Always `<= resident`, and positive whenever `resident > 0`.
    pub const fn decay_step(&self, resident: u64) -> u64 {
        let geometric = permille_of(resident, self.decay_per_mille as u64);
        let step = if geometric < self.min_decay_pages {
            self.min_decay_pages
        } else {
            geometric
        };
        if step > resident {
            resident
        } else {
            step
        }
    }

    /// The store size after one window of decay.
    pub const fn store_after_window(&self, resident: u64) -> u64 {
        resident - self.decay_step(resident)
    }

    /// Windows until a store of `resident` pages drains to zero under
    /// this policy (exact, by running the integer recurrence).
    pub fn windows_to_drain(&self, mut resident: u64) -> u64 {
        let mut windows = 0;
        while resident > 0 {
            resident = self.store_after_window(resident);
            windows += 1;
        }
        windows
    }
}

impl Default for StorePressure {
    fn default() -> Self {
        StorePressure::PAPER_DEFAULT
    }
}

/// Counters from one writeback pass over one memcg.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WritebackOutcome {
    /// Compressed pages decompressed-and-dropped back to DRAM.
    pub written_back: u64,
    /// Compressed candidates examined.
    pub examined: u64,
    /// Arena payload bytes released (frames return on compaction).
    pub bytes_freed: u64,
}

impl WritebackOutcome {
    /// Accumulates another pass into this one.
    pub fn merge(&mut self, other: WritebackOutcome) {
        self.written_back += other.written_back;
        self.examined += other.examined;
        self.bytes_freed += other.bytes_freed;
    }
}

/// Counters from one demotion pass over one memcg (zswap → device tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DemotionOutcome {
    /// Compressed pages moved down the chain to a device tier.
    pub demoted: u64,
    /// Compressed candidates examined.
    pub examined: u64,
    /// Victims left compressed because every tier below was full.
    pub rejected: u64,
    /// Arena payload bytes released (frames return on compaction).
    pub bytes_freed: u64,
}

impl DemotionOutcome {
    /// Accumulates another pass into this one.
    pub fn merge(&mut self, other: DemotionOutcome) {
        self.demoted += other.demoted;
        self.examined += other.examined;
        self.rejected += other.rejected;
        self.bytes_freed += other.bytes_freed;
    }
}

/// What one store-lifecycle tick achieved. A tick shrinks the store one
/// of two ways: plain writeback to DRAM (no chain, or no tier below
/// compressed RAM) or demotion down the chain — so exactly one of the two
/// outcomes is nonzero per tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LifecycleOutcome {
    /// Compressed pages written back to DRAM.
    pub writeback: WritebackOutcome,
    /// Compressed pages demoted to a device tier.
    pub demotion: DemotionOutcome,
}

impl LifecycleOutcome {
    /// Accumulates another tick into this one.
    pub fn merge(&mut self, other: LifecycleOutcome) {
        self.writeback.merge(other.writeback);
        self.demotion.merge(other.demotion);
    }
}

/// What one host-pressure relief pass achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HostPressureOutcome {
    /// Dead-handle writeback across disabled memcgs.
    pub writeback: WritebackOutcome,
    /// Dead-handle demotion down the chain across disabled memcgs (when a
    /// tier below compressed RAM is attached).
    pub demotion: DemotionOutcome,
    /// Physical frames released by arena compaction.
    pub compacted: PageCount,
}

/// Victim order for a pass over the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VictimOrder {
    /// Oldest (LRU) compressed pages first — store decay, demotion and
    /// host pressure, where the coldest objects are the deadest.
    OldestFirst,
    /// Youngest compressed pages first — soft-limit restoration, where the
    /// most recently compressed pages are the likeliest working-set
    /// members.
    YoungestFirst,
}

/// Every compressed page of `cg`, in victim order. Deterministic:
/// `(age, index)` is pure simulation state.
fn store_victims(cg: &MemCgroup, order: VictimOrder) -> Vec<(PageAge, usize)> {
    let mut victims: Vec<(PageAge, usize)> = (0..cg.pages.len())
        .filter(|&i| cg.pages.is_zswapped(i))
        .map(|i| (cg.pages.age(i), i))
        .collect();
    match order {
        VictimOrder::OldestFirst => {
            victims.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)))
        }
        VictimOrder::YoungestFirst => victims.sort_unstable(),
    }
    victims
}

/// Writes back up to `budget` compressed pages of `cg` in `order`: each
/// victim is decompressed (charged to the ledger), its handle freed, and
/// the page made resident again. Oldest-first victims keep their age — so
/// a later re-enable recompresses exactly the decayed mass; youngest-first
/// victims come back hot — they are presumed members of the protected
/// working set the soft limit covers, so they must not be re-reclaimed on
/// the next kreclaimd pass.
///
/// # Errors
///
/// [`KernelError::StaleHandle`] / [`KernelError::StoreCorrupt`] when the
/// store and the page tables disagree; the pass stops at the first
/// inconsistency.
pub(crate) fn writeback(
    cg: &mut MemCgroup,
    moves: &mut Moves<'_>,
    budget: u64,
    order: VictimOrder,
) -> Result<WritebackOutcome, KernelError> {
    let mut outcome = WritebackOutcome::default();
    if budget == 0 {
        return Ok(outcome);
    }
    let victims = store_victims(cg, order);
    outcome.examined = victims.len() as u64;
    for (_, idx) in victims.into_iter().take(budget as usize) {
        outcome.bytes_freed += moves.fault_in(cg, idx, FaultIn::Writeback)?;
        outcome.written_back += 1;
        if order == VictimOrder::YoungestFirst {
            // Through set_age, not a raw array write: the page table's
            // live histogram must see the move to HOT.
            cg.pages.set_age(idx, PageAge::HOT);
        }
    }
    Ok(outcome)
}

/// Demotes the oldest (LRU) compressed pages of `cg` down the chain, up
/// to `budget` pages, each sinking to the first device tier below the
/// chain's compressed-RAM tier with room. When every tier below is full
/// the victim stays compressed and the pass stops.
///
/// A no-op (all counters zero) without a chain, or when the chain has no
/// tier below compressed RAM — the two-tier configuration decays by plain
/// writeback instead.
///
/// # Errors
///
/// As [`writeback`].
pub(crate) fn demote_coldest(
    cg: &mut MemCgroup,
    moves: &mut Moves<'_>,
    budget: u64,
) -> Result<DemotionOutcome, KernelError> {
    let mut outcome = DemotionOutcome::default();
    let Some(start) = moves.below_store() else {
        return Ok(outcome);
    };
    if budget == 0 {
        return Ok(outcome);
    }
    let victims = store_victims(cg, VictimOrder::OldestFirst);
    outcome.examined = victims.len() as u64;
    for (_, idx) in victims.into_iter().take(budget as usize) {
        let Some(size) = moves.sink(cg, idx, start)? else {
            outcome.rejected += 1;
            break;
        };
        outcome.demoted += 1;
        outcome.bytes_freed += size;
    }
    Ok(outcome)
}

/// One window of decay for a disabled memcg's dead store: `policy`'s step
/// of its coldest compressed pages sinks down the chain when a tier sits
/// below the store, and is written back to DRAM otherwise (LRU order,
/// ages kept either way).
///
/// # Errors
///
/// As [`writeback`].
pub(crate) fn decay_dead_store(
    cg: &mut MemCgroup,
    moves: &mut Moves<'_>,
    policy: &StorePressure,
) -> Result<LifecycleOutcome, KernelError> {
    let budget = policy.decay_step(cg.stats.zswapped_pages);
    let mut outcome = LifecycleOutcome::default();
    if moves.below_store().is_some() {
        outcome.demotion = demote_coldest(cg, moves, budget)?;
    } else {
        outcome.writeback = writeback(cg, moves, budget, VictimOrder::OldestFirst)?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendConfig, DemotionChain};
    use crate::cost::CpuAccounting;
    use crate::kreclaimd::reclaim_memcg;
    use crate::kstaled::scan_memcg;
    use crate::page::{Page, PageContent, PageState};
    use crate::zswap::ZswapStore;
    use sdfm_compress::codec::CodecKind;
    use sdfm_types::ids::JobId;

    fn compressed_memcg(n: usize) -> (MemCgroup, ZswapStore, CpuAccounting) {
        let mut cg = MemCgroup::new(JobId::new(1), PageCount::new(1 << 20));
        cg.set_zswap_enabled(true);
        for _ in 0..n {
            cg.pages
                .push(Page::new(PageContent::synthetic_of_len(600)));
            cg.stats.resident_pages += 1;
        }
        let mut store = ZswapStore::new(CodecKind::Lzo);
        let mut cpu = CpuAccounting::default();
        for _ in 0..4 {
            scan_memcg(&mut cg);
        }
        reclaim_memcg(
            &mut cg,
            &mut Moves::for_tests(&mut store, None, &mut cpu),
            PageAge::from_scans(2),
        )
        .unwrap();
        assert_eq!(cg.stats().zswapped_pages, n as u64);
        (cg, store, CpuAccounting::default())
    }

    #[test]
    fn decay_step_is_positive_and_bounded() {
        let p = StorePressure::PAPER_DEFAULT;
        assert_eq!(p.decay_step(0), 0);
        assert_eq!(p.decay_step(1), 1);
        assert_eq!(p.decay_step(1000), 125);
        // The minimum step keeps the geometric tail finite.
        assert_eq!(p.decay_step(7), 1);
        for n in [1u64, 5, 100, 10_000, 1_000_000] {
            assert!(p.decay_step(n) <= n);
            assert!(p.decay_step(n) > 0);
        }
    }

    #[test]
    fn decay_step_survives_saturated_stores() {
        // `resident * 125` wrapped above u64::MAX / 125 in the old
        // formulation; the widened permille_of keeps the step exact and
        // bounded by the store all the way to u64::MAX.
        let p = StorePressure::PAPER_DEFAULT;
        assert_eq!(p.decay_step(u64::MAX), u64::MAX / 8);
    }

    #[test]
    fn every_store_drains_to_zero_in_finite_windows() {
        let p = StorePressure::PAPER_DEFAULT;
        for n in [1u64, 9, 1_000, 250_000] {
            let w = p.windows_to_drain(n);
            assert!(w > 0);
            // Geometric phase ~ log(n)/log(8/7), then a short linear tail.
            assert!(w < 200, "{n} pages took {w} windows");
            let mut resident = n;
            for _ in 0..w {
                resident = p.store_after_window(resident);
            }
            assert_eq!(resident, 0);
        }
    }

    #[test]
    fn coldest_first_writeback_targets_lru_and_charges_cpu() {
        let (mut cg, mut store, mut cpu) = compressed_memcg(10);
        // Ages currently uniform; make page 3 the coldest.
        cg.pages.set_age(3, PageAge::from_scans(50));
        let o = writeback(
            &mut cg,
            &mut Moves::for_tests(&mut store, None, &mut cpu),
            1,
            VictimOrder::OldestFirst,
        )
        .unwrap();
        assert_eq!(o.written_back, 1);
        assert_eq!(o.examined, 10);
        assert!(o.bytes_freed > 0);
        assert_eq!(cg.pages.state(3), PageState::Resident);
        // Store decay keeps the age: a re-enable recompresses the page.
        assert_eq!(cg.pages.age(3), PageAge::from_scans(50));
        assert_eq!(cg.stats().zswapped_pages, 9);
        assert_eq!(cg.stats().resident_pages, 1);
        assert_eq!(cg.stats().writebacks, 1);
        assert_eq!(cpu.decompress_events, 1);
        assert!(cpu.decompress_ns > 0);
    }

    #[test]
    fn youngest_first_writeback_restores_working_set_hot() {
        let (mut cg, mut store, mut cpu) = compressed_memcg(6);
        cg.pages.set_age(2, PageAge::from_scans(1)); // the youngest
        let o = writeback(
            &mut cg,
            &mut Moves::for_tests(&mut store, None, &mut cpu),
            1,
            VictimOrder::YoungestFirst,
        )
        .unwrap();
        assert_eq!(o.written_back, 1);
        assert_eq!(cg.pages.state(2), PageState::Resident);
        assert_eq!(
            cg.pages.age(2),
            PageAge::HOT,
            "restored working-set pages must not re-reclaim immediately"
        );
    }

    #[test]
    fn budget_zero_is_a_no_op() {
        let (mut cg, mut store, mut cpu) = compressed_memcg(4);
        let o = writeback(
            &mut cg,
            &mut Moves::for_tests(&mut store, None, &mut cpu),
            0,
            VictimOrder::OldestFirst,
        )
        .unwrap();
        assert_eq!(o, WritebackOutcome::default());
        assert_eq!(cg.stats().zswapped_pages, 4);
    }

    #[test]
    fn over_budget_drains_everything_once() {
        let (mut cg, mut store, mut cpu) = compressed_memcg(5);
        let o = writeback(
            &mut cg,
            &mut Moves::for_tests(&mut store, None, &mut cpu),
            1_000,
            VictimOrder::OldestFirst,
        )
        .unwrap();
        assert_eq!(o.written_back, 5);
        assert_eq!(cg.stats().zswapped_pages, 0);
        assert_eq!(store.resident_objects(), 0);
        assert_eq!(cpu.decompress_events, 5);
    }

    #[test]
    fn demotion_moves_lru_victims_down_the_chain() {
        let (mut cg, mut store, mut cpu) = compressed_memcg(10);
        let mut chain = DemotionChain::from_configs(&[
            BackendConfig::compressed_ram(),
            BackendConfig::ssd(PageCount::new(3)),
            BackendConfig::remote(),
        ]);
        let o = demote_coldest(
            &mut cg,
            &mut Moves::for_tests(&mut store, Some(&mut chain), &mut cpu),
            5,
        )
        .unwrap();
        assert_eq!(o.demoted, 5);
        assert_eq!(o.examined, 10);
        assert_eq!(o.rejected, 0);
        assert!(o.bytes_freed > 0);
        // 3 landed on the SSD, the overflow went remote.
        assert_eq!(cg.stats().demoted_pages[1], 3);
        assert_eq!(cg.stats().demoted_pages[2], 2);
        assert_eq!(cg.stats().demotions, 5);
        assert_eq!(cg.stats().zswapped_pages, 5);
        let stats = chain.stats();
        assert_eq!(stats[1].resident_pages, 3);
        assert_eq!(stats[2].resident_pages, 2);
        // Every move decompressed once and charged the backend op.
        assert_eq!(cpu.decompress_events, 5);
        assert_eq!(cpu.tier_io_events, 5);
        assert_eq!(cpu.tier_io_ns, chain.total_ns_charged());
    }

    #[test]
    fn full_ladder_leaves_victims_compressed_and_counts_rejection() {
        let (mut cg, mut store, mut cpu) = compressed_memcg(4);
        let mut chain = DemotionChain::from_configs(&[
            BackendConfig::compressed_ram(),
            BackendConfig::ssd(PageCount::new(1)),
        ]);
        let o = demote_coldest(
            &mut cg,
            &mut Moves::for_tests(&mut store, Some(&mut chain), &mut cpu),
            3,
        )
        .unwrap();
        assert_eq!(o.demoted, 1);
        assert_eq!(o.rejected, 1, "pass stops at the first full ladder");
        assert_eq!(cg.stats().zswapped_pages, 3);
        assert_eq!(chain.stats()[1].full_rejections, 1);
        assert_eq!(store.resident_objects(), 3, "rejected victims stay stored");
    }

    #[test]
    fn demotion_is_a_noop_without_a_tier_below_compressed() {
        let (mut cg, mut store, mut cpu) = compressed_memcg(4);
        let mut chain = DemotionChain::from_configs(&[
            BackendConfig::ssd(PageCount::new(8)),
            BackendConfig::compressed_ram(),
        ]);
        let o = demote_coldest(
            &mut cg,
            &mut Moves::for_tests(&mut store, Some(&mut chain), &mut cpu),
            10,
        )
        .unwrap();
        assert_eq!(o, DemotionOutcome::default());
        assert_eq!(cg.stats().zswapped_pages, 4);
    }

    #[test]
    fn outcome_merge_sums() {
        let mut a = WritebackOutcome {
            written_back: 1,
            examined: 2,
            bytes_freed: 3,
        };
        a.merge(WritebackOutcome {
            written_back: 10,
            examined: 20,
            bytes_freed: 30,
        });
        assert_eq!(a.written_back, 11);
        assert_eq!(a.examined, 22);
        assert_eq!(a.bytes_freed, 33);
    }
}
