//! The page-movement layer: every Resident ↔ Zswapped ↔ Demoted move,
//! written once.
//!
//! A page changes where it lives in exactly five ways, each one method on
//! [`Moves`] that updates the page table, [`MemcgStats`](crate::MemcgStats),
//! the store or tier, and the [`CpuAccounting`] ledger together:
//!
//! | move                         | from → to                           |
//! |------------------------------|-------------------------------------|
//! | [`compress_in`](Moves::compress_in) | Resident or warm device → Zswapped |
//! | [`fault_in`](Moves::fault_in)       | Zswapped or `Demoted(t)` → Resident |
//! | [`sink`](Moves::sink)               | Zswapped → first accepting device  |
//! | [`park`](Moves::park)               | Resident → warm device             |
//! | [`drop_page`](Moves::drop_page)     | any → freed                        |
//!
//! kreclaimd, the writeback walkers, the fault and prefetch paths, and
//! free/teardown only select victims and call these, so a counter that
//! must change when a page moves changes here and nowhere else. Every
//! charged decompression pairs with exactly one of `decompressions`,
//! `writebacks` or `demotions`, and every tier operation with one
//! `charge_tier_io`.
//!
//! Accounting units: resident pages count **frames** (a huge entry's whole
//! span), far pages count **entries**. Only base pages enter far memory —
//! callers split huge entries first — so the two agree on every reachable
//! state.

use crate::backend::{DemotionChain, Tier};
use crate::cost::{CostModel, CpuAccounting};
use crate::error::KernelError;
use crate::memcg::MemCgroup;
use crate::page::{PageContent, PageState};
use crate::zswap::{StoreOutcome, ZswapStore};
use sdfm_compress::zsmalloc::ZsHandle;

/// Why a far page is coming back to DRAM: picks the counter that pairs
/// with the charged decompression.
#[derive(Clone, Copy)]
pub(crate) enum FaultIn {
    /// A demand touch, or a prefetch standing in for one.
    Promotion,
    /// The store shrinking without an access (decay, soft-limit
    /// restoration, host pressure).
    Writeback,
}

/// One machine's far memory, borrowed for a pass: the zswap store, the
/// demotion chain if one is attached, and the cost ledger every move
/// charges.
pub(crate) struct Moves<'a> {
    pub(crate) store: &'a mut ZswapStore,
    pub(crate) chain: Option<&'a mut DemotionChain>,
    pub(crate) cost: CostModel,
    pub(crate) cpu: &'a mut CpuAccounting,
}

/// A prefetched page leaving DRAM (or the table) before its demand touch
/// resolves as wasted.
fn resolve_unused_prefetch(cg: &mut MemCgroup, idx: usize) {
    if cg.pages.prefetched(idx) {
        cg.pages.set_prefetched(idx, false);
        cg.stats.prefetch_wasted += 1;
    }
}

impl Moves<'_> {
    /// The device tier a `Demoted(t)` page names.
    pub(crate) fn tier(&mut self, t: usize) -> Result<&mut Tier, KernelError> {
        self.chain
            .as_deref_mut()
            .ok_or(KernelError::Tier1Missing)?
            .tier_mut(t)
            .ok_or(KernelError::StoreCorrupt {
                detail: "page demoted to a tier the chain does not have",
            })
    }

    /// Arena bytes the store holds under `handle`.
    fn stored_bytes(&self, handle: ZsHandle) -> Result<u64, KernelError> {
        let size = self.store.stored_size(handle);
        Ok(size.ok_or(KernelError::StaleHandle)? as u64)
    }

    /// Where zswap victims sink to: the first device tier below the
    /// chain's compressed-RAM tier, if the chain has one.
    pub(crate) fn below_store(&self) -> Option<usize> {
        self.chain.as_deref()?.device_below_compressed()
    }

    /// Compresses the base page at `idx` into the store, from DRAM or
    /// from the warm device tier it was parked on. Returns `false` when
    /// the cutoff rejected it: the attempt burned the same compression
    /// cycles (§5.1) and the page stays where it was — a DRAM page gains
    /// the incompressible mark so kreclaimd skips it until it is dirtied,
    /// a parked page just stays parked (devices hold raw pages happily).
    pub(crate) fn compress_in(
        &mut self,
        cg: &mut MemCgroup,
        idx: usize,
    ) -> Result<bool, KernelError> {
        let from = cg.pages.state(idx);
        cg.stats.compressions += 1;
        let StoreOutcome::Stored(handle) = self.store.store(cg.pages.content(idx))? else {
            self.cpu.charge_rejected_compress(&self.cost);
            cg.stats.rejections += 1;
            if from == PageState::Resident {
                cg.pages.set_incompressible(idx, true);
                cg.stats.incompressible_marked += 1;
            }
            return Ok(false);
        };
        self.cpu.charge_compress(&self.cost);
        match from {
            PageState::Demoted(t) => {
                if let Err(e) = self.tier(t as usize).and_then(Tier::discard_page) {
                    self.store.discard(handle)?;
                    return Err(e);
                }
                cg.stats.demoted_pages[t as usize] -= 1;
            }
            _ => cg.stats.resident_pages -= 1,
        }
        resolve_unused_prefetch(cg, idx);
        cg.pages.set_state(idx, PageState::Zswapped(handle));
        cg.stats.zswapped_pages += 1;
        cg.stats.zswapped_bytes += self.stored_bytes(handle)?;
        Ok(true)
    }

    /// Brings the far page at `idx` back to DRAM: a charged decompression
    /// out of the store (real contents verified against the page) or
    /// charged tier I/O off a device. The entry re-residents its whole
    /// span. Returns the arena bytes released (zero off a device); the
    /// caller adds only what is specific to its reason — late/issued
    /// prefetch marks, pass outcomes, a hot age.
    ///
    /// # Errors
    ///
    /// [`KernelError::StaleHandle`] / [`KernelError::StoreCorrupt`] /
    /// [`KernelError::Tier1Missing`] when the store or chain cannot serve
    /// what the page table names, or the page is not far at all.
    pub(crate) fn fault_in(
        &mut self,
        cg: &mut MemCgroup,
        idx: usize,
        why: FaultIn,
    ) -> Result<u64, KernelError> {
        let freed = match cg.pages.state(idx) {
            PageState::Zswapped(handle) => {
                let size = self.stored_bytes(handle)?;
                let loaded = self.store.load(handle)?;
                if let (Some(bytes), PageContent::Real(original)) = (&loaded, cg.pages.content(idx))
                {
                    if bytes != original {
                        return Err(KernelError::StoreCorrupt {
                            detail: "zswap corrupted page contents",
                        });
                    }
                }
                self.cpu.charge_decompress(&self.cost);
                cg.stats.zswapped_pages -= 1;
                cg.stats.zswapped_bytes -= size;
                match why {
                    FaultIn::Promotion => cg.stats.decompressions += 1,
                    FaultIn::Writeback => cg.stats.writebacks += 1,
                }
                size
            }
            PageState::Demoted(t) => {
                let t = t as usize;
                // Fault-back I/O is CPU-visible wait time, charged like
                // writeback decompressions are.
                let ns = self.tier(t)?.load_page()?;
                self.cpu.charge_tier_io(ns);
                cg.stats.demoted_pages[t] -= 1;
                cg.stats.demoted_loads[t] += 1;
                0
            }
            PageState::Resident => {
                return Err(KernelError::StoreCorrupt {
                    detail: "fault-in of a page that is already resident",
                })
            }
        };
        cg.pages.set_state(idx, PageState::Resident);
        cg.stats.resident_pages += cg.pages.span(idx) as u64;
        Ok(freed)
    }

    /// Sinks the compressed page at `idx` to the first device tier at or
    /// below `start` with room, overflowing past full tiers (each full
    /// tier counts a `full_rejections`). Moving a page out of zswap
    /// decompresses it — real writeback decompresses before handing the
    /// page to the device — so both the decompression and the tier's
    /// per-op cost are charged. Returns the arena bytes released, or
    /// `None` when every tier from `start` down is full: the page stays
    /// compressed and the stranding is recorded on each full tier.
    pub(crate) fn sink(
        &mut self,
        cg: &mut MemCgroup,
        idx: usize,
        start: usize,
    ) -> Result<Option<u64>, KernelError> {
        let PageState::Zswapped(handle) = cg.pages.state(idx) else {
            return Err(KernelError::StoreCorrupt {
                detail: "demotion victim left the store mid-pass",
            });
        };
        let size = self.stored_bytes(handle)?;
        let chain = self.chain.as_deref_mut().ok_or(KernelError::Tier1Missing)?;
        // A tier accepts before the store lets go, so a full ladder leaves
        // the page compressed rather than orphaned.
        let Some((tier, op_ns)) = chain.store_with_overflow(start) else {
            return Ok(None);
        };
        self.cpu.charge_tier_io(op_ns);
        self.store.load(handle)?;
        self.cpu.charge_decompress(&self.cost);
        cg.pages.set_state(idx, PageState::Demoted(tier as u8));
        cg.stats.zswapped_pages -= 1;
        cg.stats.zswapped_bytes -= size;
        cg.stats.demoted_pages[tier] += 1;
        cg.stats.demotions += 1;
        Ok(Some(size))
    }

    /// Parks the resident base page at `idx` uncompressed on the warm
    /// device tier `dev`, charging the tier's store cost. Returns `false`
    /// — nothing moved, nothing counted — when the device is full; the
    /// caller decides whether that is a stranding event.
    pub(crate) fn park(
        &mut self,
        cg: &mut MemCgroup,
        idx: usize,
        dev: usize,
    ) -> Result<bool, KernelError> {
        let tier = self.tier(dev)?;
        if !tier.has_room() {
            return Ok(false);
        }
        let op_ns = tier.store_page().ok_or(KernelError::StoreCorrupt {
            detail: "warm device tier filled mid-check",
        })?;
        self.cpu.charge_tier_io(op_ns);
        resolve_unused_prefetch(cg, idx);
        cg.pages.set_state(idx, PageState::Demoted(dev as u8));
        cg.stats.resident_pages -= 1;
        cg.stats.demoted_pages[dev] += 1;
        cg.stats.demotions += 1;
        Ok(true)
    }

    /// Releases whatever backs the entry at `idx` — its frames, its store
    /// slot, or its device page — and settles its marks; the caller takes
    /// the entry out of the table (or drops the table whole). On an error
    /// nothing was released or counted.
    pub(crate) fn drop_page(&mut self, cg: &mut MemCgroup, idx: usize) -> Result<(), KernelError> {
        match cg.pages.state(idx) {
            PageState::Zswapped(handle) => {
                let size = self.stored_bytes(handle)?;
                self.store.discard(handle)?;
                cg.stats.zswapped_pages -= 1;
                cg.stats.zswapped_bytes -= size;
            }
            PageState::Demoted(t) => {
                self.tier(t as usize)?.discard_page()?;
                cg.stats.demoted_pages[t as usize] -= 1;
            }
            PageState::Resident => cg.stats.resident_pages -= cg.pages.span(idx) as u64,
        }
        resolve_unused_prefetch(cg, idx);
        if cg.pages.incompressible(idx) {
            cg.stats.incompressible_marked = cg.stats.incompressible_marked.saturating_sub(1);
        }
        Ok(())
    }
}

#[cfg(test)]
impl<'a> Moves<'a> {
    /// A bundle at paper-default costs, for the walkers' unit tests.
    pub(crate) fn for_tests(
        store: &'a mut ZswapStore,
        chain: Option<&'a mut DemotionChain>,
        cpu: &'a mut CpuAccounting,
    ) -> Self {
        Moves {
            store,
            chain,
            cost: CostModel::PAPER_DEFAULT,
            cpu,
        }
    }
}
