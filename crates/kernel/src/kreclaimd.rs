//! kreclaimd: moves cold pages into the zswap store (§5.1).
//!
//! Once the node agent sets a memcg's cold-age threshold, kreclaimd walks
//! the memcg and reclaims every eligible page whose age meets the
//! threshold: resident, evictable, not freshly accessed, and not marked
//! incompressible. Compression attempts that exceed the payload cutoff
//! mark the page incompressible so the cycles are not wasted again until
//! the page is dirtied (§5.1). The walks here only pick victims; the
//! moves themselves live in `moves.rs`.

use crate::error::KernelError;
use crate::memcg::MemCgroup;
use crate::moves::Moves;
use crate::page::PageState;
use sdfm_types::histogram::PageAge;

/// Counters from one kreclaimd pass over one memcg.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReclaimOutcome {
    /// Pages moved to the zswap store.
    pub reclaimed: u64,
    /// Compression attempts rejected (pages newly marked incompressible).
    pub rejected: u64,
    /// Pages examined.
    pub examined: u64,
    /// Huge pages split into base pages before compression.
    pub huge_splits: u64,
}

impl ReclaimOutcome {
    /// Counts one compress-in attempt.
    fn count(&mut self, stored: bool) {
        if stored {
            self.reclaimed += 1;
        } else {
            self.rejected += 1;
        }
    }
}

/// Reclaims every eligible page at or above `threshold` in `cg` into the
/// store, charging compression costs to the ledger.
///
/// A threshold of [`PageAge::HOT`] (zero) reclaims nothing: the control
/// plane never classifies just-touched pages as cold.
///
/// # Errors
///
/// [`KernelError::StoreCorrupt`] / [`KernelError::StaleHandle`] when the
/// store's bookkeeping breaks mid-pass; pages reclaimed before the
/// failure stay reclaimed.
pub(crate) fn reclaim_memcg(
    cg: &mut MemCgroup,
    moves: &mut Moves<'_>,
    threshold: PageAge,
) -> Result<ReclaimOutcome, KernelError> {
    let mut outcome = ReclaimOutcome::default();
    if !cg.zswap_enabled() || threshold == PageAge::HOT {
        return Ok(outcome);
    }
    // Index loop: splitting a huge page appends its base pages at the end
    // of the vector (preserving existing page ids), and the growing length
    // lets this same pass compress them.
    let mut i = 0;
    while i < cg.pages.len() {
        outcome.examined += 1;
        if cg.pages.reclaim_eligible(i, threshold) {
            // zswap works at base-page granularity: split first, then
            // compress the (now base) page at `i`.
            if cg.pages.split_huge(i) {
                outcome.huge_splits += 1;
            }
            outcome.count(moves.compress_in(cg, i)?);
        }
        i += 1;
    }
    Ok(outcome)
}

/// The two-tier pass (§8) over `cg` with `dev` as the warm device tier:
/// pages at age ≥ `t2` compress into zswap, pages at age ≥ `t1` (but
/// younger than `t2`) park uncompressed on the device while it has room,
/// and parked pages that aged past `t2` overflow into zswap, keeping the
/// fixed device available for the warm end of the cold spectrum.
///
/// # Errors
///
/// As [`reclaim_memcg`].
pub(crate) fn reclaim_memcg_tiered(
    cg: &mut MemCgroup,
    moves: &mut Moves<'_>,
    dev: usize,
    t1: PageAge,
    t2: PageAge,
) -> Result<ReclaimOutcome, KernelError> {
    let mut outcome = ReclaimOutcome::default();
    if !cg.zswap_enabled() || t1 == PageAge::HOT {
        return Ok(outcome);
    }
    let mut stranded_this_pass = false;
    let mut i = 0;
    while i < cg.pages.len() {
        outcome.examined += 1;
        // Huge pages split before entering either tier (neither the zswap
        // store nor the page-granular device takes a 2 MiB mapping whole).
        if cg.pages.is_huge(i) && cg.pages.demote_eligible(i, t1) && cg.pages.split_huge(i) {
            outcome.huge_splits += 1;
        }
        let parked_past_t2 =
            cg.pages.state(i) == PageState::Demoted(dev as u8) && cg.pages.age(i) >= t2;
        if parked_past_t2 || cg.pages.reclaim_eligible(i, t2) {
            outcome.count(moves.compress_in(cg, i)?);
        } else if cg.pages.demote_eligible(i, t1) {
            if moves.park(cg, i, dev)? {
                outcome.reclaimed += 1;
            } else if !stranded_this_pass {
                // Demand exists but the fixed device is full: one
                // stranding event per pass (§2.1's provisioning risk).
                moves.tier(dev)?.record_stranding();
                stranded_this_pass = true;
            }
        }
        i += 1;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, CpuAccounting};
    use crate::kstaled::scan_memcg;
    use crate::page::{Page, PageContent};
    use crate::zswap::ZswapStore;
    use sdfm_compress::codec::CodecKind;
    use sdfm_types::ids::JobId;
    use sdfm_types::size::PageCount;

    fn setup(n: usize, payload_len: usize) -> (MemCgroup, ZswapStore) {
        let mut cg = MemCgroup::new(JobId::new(1), PageCount::new(1 << 20));
        cg.set_zswap_enabled(true);
        for _ in 0..n {
            cg.pages
                .push(Page::new(PageContent::synthetic_of_len(payload_len)));
            cg.stats.resident_pages += 1;
        }
        (cg, ZswapStore::new(CodecKind::Lzo))
    }

    fn reclaim(
        cg: &mut MemCgroup,
        store: &mut ZswapStore,
        cpu: &mut CpuAccounting,
        threshold: PageAge,
    ) -> ReclaimOutcome {
        reclaim_memcg(cg, &mut Moves::for_tests(store, None, cpu), threshold).unwrap()
    }

    fn age_by_scans(cg: &mut MemCgroup, scans: usize) {
        for _ in 0..scans {
            scan_memcg(cg);
        }
    }

    #[test]
    fn reclaims_pages_past_threshold() {
        let (mut cg, mut store) = setup(10, 600);
        age_by_scans(&mut cg, 4); // all pages at age 3
        let mut cpu = CpuAccounting::default();
        let o = reclaim(&mut cg, &mut store, &mut cpu, PageAge::from_scans(3));
        assert_eq!(o.reclaimed, 10);
        assert_eq!(o.rejected, 0);
        assert_eq!(cg.stats().zswapped_pages, 10);
        assert_eq!(cg.stats().resident_pages, 0);
        assert_eq!(store.resident_objects(), 10);
        assert_eq!(cpu.compress_events, 10);
    }

    #[test]
    fn threshold_filters_by_age() {
        let (mut cg, mut store) = setup(4, 600);
        age_by_scans(&mut cg, 3); // age 2
                                  // Touch two pages so they reset at the next scan.
        cg.pages.set_accessed(0, true);
        cg.pages.set_accessed(1, true);
        scan_memcg(&mut cg); // pages 0,1 at age 0; 2,3 at age 3
        let mut cpu = CpuAccounting::default();
        let o = reclaim(&mut cg, &mut store, &mut cpu, PageAge::from_scans(2));
        assert_eq!(o.reclaimed, 2);
        assert!(cg.pages.state(0) == PageState::Resident);
        assert!(cg.pages.is_zswapped(2));
    }

    #[test]
    fn disabled_zswap_reclaims_nothing() {
        let (mut cg, mut store) = setup(5, 600);
        cg.set_zswap_enabled(false);
        age_by_scans(&mut cg, 10);
        let mut cpu = CpuAccounting::default();
        let o = reclaim(&mut cg, &mut store, &mut cpu, PageAge::from_scans(1));
        assert_eq!(o, ReclaimOutcome::default());
        assert_eq!(cpu.compress_events, 0);
    }

    #[test]
    fn zero_threshold_reclaims_nothing() {
        let (mut cg, mut store) = setup(5, 600);
        age_by_scans(&mut cg, 10);
        let mut cpu = CpuAccounting::default();
        let o = reclaim(&mut cg, &mut store, &mut cpu, PageAge::HOT);
        assert_eq!(o.reclaimed, 0);
    }

    #[test]
    fn incompressible_pages_rejected_once_then_skipped() {
        let (mut cg, mut store) = setup(3, 3500); // above the cutoff
        age_by_scans(&mut cg, 4);
        let mut cpu = CpuAccounting::default();
        let o = reclaim(&mut cg, &mut store, &mut cpu, PageAge::from_scans(2));
        assert_eq!(o.rejected, 3);
        assert_eq!(cg.stats().rejections, 3);
        assert_eq!(cpu.compress_events, 3, "wasted cycles are still charged");
        assert_eq!(
            cpu.rejected_compress_events, 3,
            "and attributed to rejection"
        );
        assert_eq!(cpu.compress_ns, 3 * CostModel::PAPER_DEFAULT.compress_ns);
        // Second pass: pages are marked, no new attempts.
        let o2 = reclaim(&mut cg, &mut store, &mut cpu, PageAge::from_scans(2));
        assert_eq!(o2.rejected, 0);
        assert_eq!(cpu.compress_events, 3);
    }

    #[test]
    fn already_zswapped_pages_are_skipped() {
        let (mut cg, mut store) = setup(2, 600);
        age_by_scans(&mut cg, 4);
        let mut cpu = CpuAccounting::default();
        reclaim(&mut cg, &mut store, &mut cpu, PageAge::from_scans(1));
        let o = reclaim(&mut cg, &mut store, &mut cpu, PageAge::from_scans(1));
        assert_eq!(o.reclaimed, 0);
        assert_eq!(store.resident_objects(), 2);
    }
}
