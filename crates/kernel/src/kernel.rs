//! The per-machine kernel facade tying memcgs, kstaled, kreclaimd, and the
//! zswap store together.

use std::collections::BTreeMap;

use crate::backend::{BackendConfig, BackendStats, DemotionChain, MAX_TIERS};
use crate::cost::{CostModel, CpuAccounting};
use crate::error::KernelError;
use crate::kreclaimd::{self, ReclaimOutcome};
use crate::kstaled::{self, ScanOutcome};
use crate::memcg::{MemCgroup, MemcgStats};
use crate::moves::{FaultIn, Moves};
use crate::page::{Page, PageContent, PageState, HUGE_SPAN};
use crate::prefetch::PrefetchConfig;
use crate::writeback::{
    self, DemotionOutcome, HostPressureOutcome, LifecycleOutcome, StorePressure, VictimOrder,
};
use crate::zswap::ZswapStore;
use sdfm_compress::codec::CodecKind;
use sdfm_types::histogram::PageAge;
use sdfm_types::ids::{JobId, PageId};
use sdfm_types::size::{ByteSize, PageCount};
use serde::{Deserialize, Serialize};

/// Machine-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelConfig {
    /// Physical DRAM frames.
    pub capacity: PageCount,
    /// Codec backing the zswap store.
    pub codec: CodecKind,
    /// Per-page compression costs.
    pub cost: CostModel,
    /// Correlation prefetcher configuration (off by default).
    pub prefetch: PrefetchConfig,
}

impl Default for KernelConfig {
    /// One simulated GiB of DRAM with the production lzo-class codec.
    fn default() -> Self {
        KernelConfig {
            capacity: PageCount::new(262_144),
            codec: CodecKind::Lzo,
            cost: CostModel::PAPER_DEFAULT,
            prefetch: PrefetchConfig::default(),
        }
    }
}

/// A machine-level snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineStats {
    /// Physical frames.
    pub capacity: PageCount,
    /// Frames holding resident (uncompressed) job pages.
    pub resident: PageCount,
    /// Frames held by the zswap arena.
    pub zswap_footprint: PageCount,
    /// Pages stored compressed.
    pub zswapped_pages: u64,
    /// Pages resident per device tier of the demotion chain, indexed by
    /// chain position (off-DRAM entirely; compressed-RAM tiers stay zero —
    /// their pages are `zswapped_pages`).
    pub demoted_pages: [u64; MAX_TIERS],
    /// Free frames.
    pub free: PageCount,
    /// Live memcgs.
    pub jobs: usize,
    /// Cumulative prefetched promotions across all memcgs.
    pub prefetch_issued: u64,
    /// Cumulative prefetched pages demand-touched while resident.
    pub prefetch_used: u64,
    /// Cumulative prefetched pages re-reclaimed or freed untouched.
    pub prefetch_wasted: u64,
    /// Cumulative demand faults that beat the prefetch drain.
    pub prefetch_late: u64,
}

impl MachineStats {
    /// DRAM saved by compression right now: pages stored in zswap minus
    /// the arena frames holding them.
    pub fn pages_saved(&self) -> PageCount {
        PageCount::new(self.zswapped_pages).saturating_sub(self.zswap_footprint)
    }

    /// Pages resident across every device tier.
    pub fn demoted_total(&self) -> u64 {
        self.demoted_pages.iter().sum()
    }

    /// DRAM saved including device-tier demotions (demoted pages leave
    /// DRAM wholesale; the device cost is accounted separately in the TCO
    /// model).
    pub fn pages_saved_with_demoted(&self) -> PageCount {
        self.pages_saved() + PageCount::new(self.demoted_total())
    }

    /// Bytes saved.
    pub fn bytes_saved(&self) -> ByteSize {
        self.pages_saved().bytes()
    }
}

/// One simulated machine's kernel.
#[derive(Debug)]
pub struct Kernel {
    config: KernelConfig,
    zswap: ZswapStore,
    chain: Option<DemotionChain>,
    memcgs: BTreeMap<JobId, MemCgroup>,
    cpu: CpuAccounting,
}

impl Kernel {
    /// Boots a kernel.
    pub fn new(config: KernelConfig) -> Self {
        Kernel {
            zswap: ZswapStore::new(config.codec),
            chain: None,
            config,
            memcgs: BTreeMap::new(),
            cpu: CpuAccounting::default(),
        }
    }

    /// Splits the kernel into its memcgs and the far memory their pages
    /// move through, so a pass can hold one of each.
    fn parts(&mut self) -> (&mut BTreeMap<JobId, MemCgroup>, Moves<'_>) {
        let moves = Moves {
            store: &mut self.zswap,
            chain: self.chain.as_mut(),
            cost: self.config.cost,
            cpu: &mut self.cpu,
        };
        (&mut self.memcgs, moves)
    }

    /// [`parts`](Self::parts) narrowed to one job's memcg.
    fn job_parts(&mut self, job: JobId) -> Result<(&mut MemCgroup, Moves<'_>), KernelError> {
        let (memcgs, moves) = self.parts();
        let cg = memcgs
            .get_mut(&job)
            .ok_or(KernelError::NoSuchMemcg { job })?;
        Ok((cg, moves))
    }

    /// Attaches a demotion chain of far-memory tiers, warmest first (e.g.
    /// `[compressed RAM, SSD, remote]` for the three-tier ladder).
    /// Replaces any chain attached earlier; pages already demoted to a
    /// previous chain keep their per-memcg accounting, so swap chains only
    /// on an empty ladder — faulting, freeing or tearing down a page the
    /// new chain never stored is a [`KernelError::StoreCorrupt`].
    pub fn enable_chain(&mut self, configs: &[BackendConfig]) {
        self.chain = Some(DemotionChain::from_configs(configs));
    }

    /// The attached demotion chain, if any.
    pub fn chain(&self) -> Option<&DemotionChain> {
        self.chain.as_ref()
    }

    /// Per-tier backend counters, in chain order, if a chain is attached.
    pub fn chain_stats(&self) -> Option<Vec<BackendStats>> {
        self.chain.as_ref().map(|c| c.stats())
    }

    /// The configuration this kernel booted with.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Creates a memcg for `job` with the given hard limit.
    ///
    /// # Errors
    ///
    /// [`KernelError::MemcgExists`] if the job already has one.
    pub fn create_memcg(&mut self, job: JobId, limit: PageCount) -> Result<(), KernelError> {
        if self.memcgs.contains_key(&job) {
            return Err(KernelError::MemcgExists { job });
        }
        self.memcgs.insert(job, MemCgroup::new(job, limit));
        Ok(())
    }

    /// Tears down `job`'s memcg, discarding its compressed and demoted
    /// pages, and returns its final counters: residency as of teardown,
    /// with prefetched pages the job never demand-touched resolved as
    /// wasted (closing the used+wasted==issued conservation law).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchMemcg`] if the job has no memcg;
    /// [`KernelError::StaleHandle`] / [`KernelError::StoreCorrupt`] /
    /// [`KernelError::Tier1Missing`] when the job's page tables reference
    /// store or tier state that no longer exists. The memcg is torn down
    /// either way, and every page is walked before the first error is
    /// returned, so one bad handle cannot leak the rest of the job's store.
    pub fn remove_memcg(&mut self, job: JobId) -> Result<MemcgStats, KernelError> {
        let (memcgs, mut moves) = self.parts();
        let mut cg = memcgs
            .remove(&job)
            .ok_or(KernelError::NoSuchMemcg { job })?;
        // The returned residency is what the job held, not the zeros the
        // walk below leaves behind.
        let mut stats = cg.stats;
        let mut first_error = None;
        for idx in 0..cg.pages.len() {
            if let Err(e) = moves.drop_page(&mut cg, idx) {
                first_error.get_or_insert(e);
            }
        }
        stats.prefetch_wasted = cg.stats.prefetch_wasted;
        first_error.map_or(Ok(stats), Err)
    }

    /// Immutable access to a job's memcg.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchMemcg`] if the job has no memcg.
    pub fn memcg(&self, job: JobId) -> Result<&MemCgroup, KernelError> {
        self.memcgs
            .get(&job)
            .ok_or(KernelError::NoSuchMemcg { job })
    }

    fn memcg_mut(&mut self, job: JobId) -> Result<&mut MemCgroup, KernelError> {
        self.memcgs
            .get_mut(&job)
            .ok_or(KernelError::NoSuchMemcg { job })
    }

    /// Mutable memcg access for out-of-band instrumentation (e.g. the
    /// Thermostat sampling baseline, which poisons pages directly). Not
    /// part of the control-plane surface.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchMemcg`] if the job has no memcg.
    pub fn memcg_mut_for_experiments(&mut self, job: JobId) -> Result<&mut MemCgroup, KernelError> {
        self.memcg_mut(job)
    }

    /// Jobs with live memcgs.
    pub fn jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.memcgs.keys().copied()
    }

    /// Sets a job's soft limit (working-set protection).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchMemcg`] if the job has no memcg.
    pub fn set_soft_limit(&mut self, job: JobId, pages: PageCount) -> Result<(), KernelError> {
        self.memcg_mut(job)?.set_soft_limit(pages);
        Ok(())
    }

    /// Enables/disables proactive zswap for a job.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchMemcg`] if the job has no memcg.
    pub fn set_zswap_enabled(&mut self, job: JobId, enabled: bool) -> Result<(), KernelError> {
        self.memcg_mut(job)?.set_zswap_enabled(enabled);
        Ok(())
    }

    /// Allocates `n` pages to `job`, with contents supplied per page index.
    /// Runs direct reclaim if the machine is short on frames.
    ///
    /// # Errors
    ///
    /// * [`KernelError::MemcgOverLimit`] — the job would exceed its limit;
    ///   per the fail-fast policy this also disables the job's zswap;
    /// * [`KernelError::OutOfMemory`] — the machine cannot free enough
    ///   frames even with direct reclaim.
    pub fn alloc_pages(
        &mut self,
        job: JobId,
        n: usize,
        content: impl FnMut(usize) -> PageContent,
    ) -> Result<(), KernelError> {
        self.alloc(job, n, 1, content)
    }

    /// Allocates `n_huge` 2 MiB huge pages to `job` (each maps
    /// [`crate::page::HUGE_SPAN`] frames). Huge pages age and reclaim at
    /// 2 MiB granularity until kreclaimd splits them.
    ///
    /// # Errors
    ///
    /// Same as [`alloc_pages`](Self::alloc_pages).
    pub fn alloc_huge_pages(
        &mut self,
        job: JobId,
        n_huge: usize,
        content: impl FnMut(usize) -> PageContent,
    ) -> Result<(), KernelError> {
        self.alloc(job, n_huge, HUGE_SPAN, content)
    }

    /// Allocates `n` entries of `span` frames each.
    fn alloc(
        &mut self,
        job: JobId,
        n: usize,
        span: u16,
        mut content: impl FnMut(usize) -> PageContent,
    ) -> Result<(), KernelError> {
        let frames = PageCount::new(n as u64 * span as u64);
        let limit = self.memcg(job)?.limit();
        let attempted = self.memcg(job)?.usage() + frames;
        if attempted > limit {
            self.memcg_mut(job)?.set_zswap_enabled(false);
            return Err(KernelError::MemcgOverLimit {
                job,
                limit,
                attempted,
            });
        }
        if self.free_frames() < frames {
            let shortfall = frames.saturating_sub(self.free_frames());
            self.direct_reclaim(shortfall)?;
        }
        if self.free_frames() < frames {
            return Err(KernelError::OutOfMemory {
                requested: frames,
                free: self.free_frames(),
            });
        }
        let cg = self.memcg_mut(job)?;
        for i in 0..n {
            cg.pages.push(Page {
                span,
                ..Page::new(content(i))
            });
        }
        cg.stats.resident_pages += frames.get();
        Ok(())
    }

    /// Frees the job's `n` most recently allocated pages.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchMemcg`] if the job has no memcg, or a store
    /// inconsistency on a page's way out (that page and the ones before
    /// it stay). Freeing more pages than the job holds frees them all.
    pub fn free_pages(&mut self, job: JobId, n: usize) -> Result<(), KernelError> {
        let (cg, mut moves) = self.job_parts(job)?;
        let len = cg.pages.len();
        for last in (len.saturating_sub(n)..len).rev() {
            moves.drop_page(cg, last)?;
            cg.pages.pop();
        }
        Ok(())
    }

    /// Simulates an access to a page. Returns `true` when the access
    /// faulted on a compressed page (an actual promotion: the page is
    /// decompressed and made resident, and decompression cost is charged).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchMemcg`] / [`KernelError::NoSuchPage`].
    pub fn touch(&mut self, job: JobId, page: PageId, write: bool) -> Result<bool, KernelError> {
        let prefetch = self.config.prefetch;
        let cg = self
            .memcgs
            .get_mut(&job)
            .ok_or(KernelError::NoSuchMemcg { job })?;
        let idx = page.index();
        let state = cg
            .pages
            .get_state(idx)
            .ok_or(KernelError::NoSuchPage { job, page })?;
        let promoted = match state {
            PageState::Resident => {
                if cg.pages.prefetched(idx) {
                    // The prefetched page got its demand touch: the stall
                    // was fully hidden.
                    cg.pages.set_prefetched(idx, false);
                    cg.stats.prefetch_used += 1;
                }
                false
            }
            PageState::Zswapped(_) | PageState::Demoted(_) => {
                // Borrowed here, not through `job_parts`: the resident arm
                // above is the hot path and must not pay for the bundle.
                let mut moves = Moves {
                    store: &mut self.zswap,
                    chain: self.chain.as_mut(),
                    cost: self.config.cost,
                    cpu: &mut self.cpu,
                };
                moves.fault_in(cg, idx, FaultIn::Promotion)?;
                true
            }
        };
        if promoted && cg.prefetcher.cancel(idx as u64) {
            // Predicted correctly, but the demand fault arrived before the
            // scan-cadence drain issued it.
            cg.stats.prefetch_late += 1;
        }
        cg.prefetcher.record(idx as u64, &prefetch);
        cg.pages.set_accessed(idx, true);
        if write {
            cg.pages.set_dirty(idx, true);
        }
        if cg.pages.poisoned(idx) {
            // Thermostat-style sampling: the poisoned page soft-faulted.
            cg.pages.set_poisoned(idx, false);
            cg.pages.set_sample_faulted(idx, true);
        }
        Ok(promoted)
    }

    /// Runs one kstaled scan over every memcg, then drains each memcg's
    /// prefetch queue (predicted promotions ride the scan cadence, so the
    /// prefetcher issues exactly once per scan period).
    pub fn run_scan(&mut self) -> ScanOutcome {
        let mut total = ScanOutcome::default();
        for cg in self.memcgs.values_mut() {
            let o = kstaled::scan_memcg(cg);
            total.pages_scanned += o.pages_scanned;
            total.pages_accessed += o.pages_accessed;
            total.would_be_promotions += o.would_be_promotions;
            total.incompressible_cleared += o.incompressible_cleared;
            total.incompressible_marked += o.incompressible_marked;
        }
        if self.config.prefetch.enabled() {
            let jobs: Vec<JobId> = self.memcgs.keys().copied().collect();
            for job in jobs {
                self.drain_prefetch(job);
            }
        }
        total
    }

    /// Promotes one memcg's queued predictions, up to the configured
    /// drain budget. Each issued page goes through the same fault-in a
    /// demand fault does — a charged decompression out of zswap or charged
    /// tier I/O out of a device — but lands *before* the demand touch. The
    /// page comes back hot (it is expected imminently) carrying the
    /// prefetched-pending mark until a demand touch (used) or a later
    /// reclaim (wasted) resolves it. Predictions that no longer point at
    /// far memory, or that the store cannot serve, are dropped without
    /// being counted as issued — a speculative promotion must never turn
    /// into an error or a phantom counter.
    fn drain_prefetch(&mut self, job: JobId) {
        let budget = self.config.prefetch.drain_budget();
        if budget == 0 {
            return;
        }
        let mut free = self.free_frames().get();
        let Ok((cg, mut moves)) = self.job_parts(job) else {
            return;
        };
        for idx64 in cg.prefetcher.drain(budget) {
            let idx = idx64 as usize;
            if cg.pages.get_state(idx).is_none() {
                continue;
            }
            let span = cg.pages.span(idx) as u64;
            if free < span {
                // Prefetching must never create memory pressure: stop
                // issuing when the machine is out of frames.
                break;
            }
            if moves.fault_in(cg, idx, FaultIn::Promotion).is_err() {
                continue;
            }
            free = free.saturating_sub(span);
            cg.stats.prefetch_issued += 1;
            cg.pages.set_prefetched(idx, true);
            cg.pages.set_age(idx, PageAge::HOT);
        }
    }

    /// Runs kreclaimd for one job at the given threshold.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchMemcg`] if the job has no memcg, or any store
    /// inconsistency kreclaimd hits mid-pass.
    pub fn reclaim_job(
        &mut self,
        job: JobId,
        threshold: PageAge,
    ) -> Result<ReclaimOutcome, KernelError> {
        let (cg, mut moves) = self.job_parts(job)?;
        kreclaimd::reclaim_memcg(cg, &mut moves, threshold)
    }

    /// Two-tier reclaim (§8): pages at age ≥ `t2_threshold` compress into
    /// zswap; pages at age ≥ `t1_threshold` (but younger than `t2`) demote
    /// uncompressed into the chain's warm device tier while it has room.
    /// Warm-device residents that age past `t2_threshold` overflow into
    /// zswap, keeping the fixed device available for the warm end of the
    /// cold spectrum.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchMemcg`] if the job has no memcg;
    /// [`KernelError::Tier1Missing`] if no chain with a device tier
    /// warmer than compressed RAM is attached (call
    /// [`enable_chain`](Self::enable_chain) first — chains whose devices
    /// all sit *below* compressed RAM demote via
    /// [`demote_job`](Self::demote_job) instead).
    ///
    /// # Panics
    ///
    /// Panics if `t1_threshold > t2_threshold` (a caller bug, not a
    /// machine state).
    pub fn reclaim_job_tiered(
        &mut self,
        job: JobId,
        t1_threshold: PageAge,
        t2_threshold: PageAge,
    ) -> Result<ReclaimOutcome, KernelError> {
        assert!(
            t1_threshold <= t2_threshold,
            "tier-1 threshold must not exceed tier-2's"
        );
        let dev = self
            .chain
            .as_ref()
            .and_then(DemotionChain::warm_device_index)
            .ok_or(KernelError::Tier1Missing)?;
        let (cg, mut moves) = self.job_parts(job)?;
        kreclaimd::reclaim_memcg_tiered(cg, &mut moves, dev, t1_threshold, t2_threshold)
    }

    /// Demotes up to `budget` of `job`'s coldest compressed pages down the
    /// chain (zswap → SSD → remote), overflowing past full tiers. A no-op
    /// (all counters zero) when no chain is attached or the chain has no
    /// device tier below compressed RAM — the two-tier configuration keeps
    /// its cold pages compressed.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchMemcg`], or a store inconsistency mid-pass.
    pub fn demote_job(&mut self, job: JobId, budget: u64) -> Result<DemotionOutcome, KernelError> {
        let (cg, mut moves) = self.job_parts(job)?;
        writeback::demote_coldest(cg, &mut moves, budget)
    }

    /// Direct reclaim under machine memory pressure: compresses the oldest
    /// eligible pages of each memcg — never pushing a memcg below its soft
    /// limit — until `needed` frames are free or candidates run out.
    /// Returns the frames actually freed.
    ///
    /// # Errors
    ///
    /// Store inconsistencies surfaced mid-pass; frames freed before the
    /// failure stay freed.
    pub fn direct_reclaim(&mut self, needed: PageCount) -> Result<PageCount, KernelError> {
        let before = self.free_frames();
        let jobs: Vec<JobId> = self.memcgs.keys().copied().collect();
        'outer: for job in jobs {
            loop {
                if self.free_frames() >= before + needed {
                    break 'outer;
                }
                let Ok((cg, mut moves)) = self.job_parts(job) else {
                    break;
                };
                if PageCount::new(cg.stats.resident_pages) <= cg.soft_limit() {
                    break;
                }
                // Oldest eligible resident page (direct reclaim reuses the
                // ages kstaled already reaped, §5.1).
                let candidate = (0..cg.pages.len())
                    .filter(|&i| cg.pages.reclaim_eligible(i, PageAge::from_scans(1)))
                    .max_by_key(|&i| cg.pages.age(i));
                let Some(idx) = candidate else { break };
                // Direct reclaim splits huge pages like the swap path does.
                cg.pages.split_huge(idx);
                moves.compress_in(cg, idx)?;
            }
        }
        Ok(self.free_frames().saturating_sub(before))
    }

    /// Compacts the zswap arena; returns frames reclaimed.
    pub fn compact_zswap(&mut self) -> PageCount {
        self.zswap.compact()
    }

    /// One store-lifecycle control tick for `job` (the node agent calls
    /// this once per control window):
    ///
    /// * zswap disabled with a nonempty store — the dead store decays by
    ///   [`StorePressure::decay_step`] pages: demoted down the chain when
    ///   a tier below compressed RAM is attached, written back to DRAM
    ///   otherwise (LRU order, ages kept either way);
    /// * zswap enabled but the soft limit exceeds resident pages — part of
    ///   the protected working set sits compressed; the youngest
    ///   compressed pages come back hot until the deficit closes;
    /// * otherwise a no-op.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchMemcg`], or a store inconsistency mid-pass.
    pub fn store_lifecycle_tick(
        &mut self,
        job: JobId,
        policy: &StorePressure,
    ) -> Result<LifecycleOutcome, KernelError> {
        let (cg, mut moves) = self.job_parts(job)?;
        if !cg.zswap_enabled() {
            return writeback::decay_dead_store(cg, &mut moves, policy);
        }
        let deficit = cg
            .soft_limit()
            .get()
            .saturating_sub(cg.stats.resident_pages)
            .min(cg.stats.zswapped_pages);
        let writeback = writeback::writeback(cg, &mut moves, deficit, VictimOrder::YoungestFirst)?;
        Ok(LifecycleOutcome {
            writeback,
            ..LifecycleOutcome::default()
        })
    }

    /// Decays every disabled job's store by one window of `policy`
    /// (demotion down the chain when a tier below compressed RAM is
    /// attached, LRU writeback otherwise; ages kept). Walks memcgs in
    /// `JobId` order, so the pass is deterministic.
    ///
    /// # Errors
    ///
    /// The first store inconsistency hit; earlier jobs stay decayed.
    pub fn decay_disabled_stores(
        &mut self,
        policy: &StorePressure,
    ) -> Result<LifecycleOutcome, KernelError> {
        let (memcgs, mut moves) = self.parts();
        let mut total = LifecycleOutcome::default();
        for cg in memcgs.values_mut() {
            if !cg.zswap_enabled() {
                total.merge(writeback::decay_dead_store(cg, &mut moves, policy)?);
            }
        }
        Ok(total)
    }

    /// Host-side pressure relief: decays disabled stores one window and
    /// compacts the arena, returning frames to the machine. Writing back
    /// alone makes overcommit *worse* (one more resident page, arena bytes
    /// merely freed), so the compaction is part of the operation, not a
    /// follow-up.
    ///
    /// # Errors
    ///
    /// As [`decay_disabled_stores`](Self::decay_disabled_stores); the
    /// arena still compacts on the error path's partial progress only if
    /// the decay succeeded.
    pub fn relieve_host_pressure(
        &mut self,
        policy: &StorePressure,
    ) -> Result<HostPressureOutcome, KernelError> {
        let lifecycle = self.decay_disabled_stores(policy)?;
        let compacted = self.zswap.compact();
        Ok(HostPressureOutcome {
            writeback: lifecycle.writeback,
            demotion: lifecycle.demotion,
            compacted,
        })
    }

    /// Free physical frames right now.
    pub fn free_frames(&self) -> PageCount {
        let resident: u64 = self
            .memcgs
            .values()
            .map(|cg| cg.stats().resident_pages)
            .sum();
        let used = resident + self.zswap.footprint_pages().get();
        self.config.capacity.saturating_sub(PageCount::new(used))
    }

    /// Machine-level snapshot.
    pub fn machine_stats(&self) -> MachineStats {
        let resident: u64 = self
            .memcgs
            .values()
            .map(|cg| cg.stats().resident_pages)
            .sum();
        let zswapped: u64 = self
            .memcgs
            .values()
            .map(|cg| cg.stats().zswapped_pages)
            .sum();
        let mut demoted_pages = [0u64; MAX_TIERS];
        let mut prefetch = [0u64; 4];
        for cg in self.memcgs.values() {
            for (sum, tier) in demoted_pages.iter_mut().zip(cg.stats().demoted_pages) {
                *sum += tier;
            }
            let s = cg.stats();
            prefetch[0] += s.prefetch_issued;
            prefetch[1] += s.prefetch_used;
            prefetch[2] += s.prefetch_wasted;
            prefetch[3] += s.prefetch_late;
        }
        MachineStats {
            capacity: self.config.capacity,
            resident: PageCount::new(resident),
            zswap_footprint: self.zswap.footprint_pages(),
            zswapped_pages: zswapped,
            demoted_pages,
            free: self.free_frames(),
            jobs: self.memcgs.len(),
            prefetch_issued: prefetch[0],
            prefetch_used: prefetch[1],
            prefetch_wasted: prefetch[2],
            prefetch_late: prefetch[3],
        }
    }

    /// Machine-level CPU time charged to compression work.
    pub fn cpu_accounting(&self) -> CpuAccounting {
        self.cpu
    }

    /// The zswap store (read access for stats and experiments).
    pub fn zswap(&self) -> &ZswapStore {
        &self.zswap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_with_job(capacity: u64, limit: u64) -> (Kernel, JobId) {
        let mut k = Kernel::new(KernelConfig {
            capacity: PageCount::new(capacity),
            ..KernelConfig::default()
        });
        let job = JobId::new(1);
        k.create_memcg(job, PageCount::new(limit)).unwrap();
        (k, job)
    }

    #[test]
    fn memcg_lifecycle() {
        let (mut k, job) = kernel_with_job(1000, 100);
        assert!(matches!(
            k.create_memcg(job, PageCount::new(5)),
            Err(KernelError::MemcgExists { .. })
        ));
        k.alloc_pages(job, 10, |_| PageContent::synthetic_of_len(500))
            .unwrap();
        let stats = k.remove_memcg(job).unwrap();
        assert_eq!(stats.resident_pages, 10);
        assert!(matches!(
            k.remove_memcg(job),
            Err(KernelError::NoSuchMemcg { .. })
        ));
    }

    #[test]
    fn memcg_limit_fails_fast_and_disables_zswap() {
        let (mut k, job) = kernel_with_job(1000, 8);
        k.set_zswap_enabled(job, true).unwrap();
        k.alloc_pages(job, 8, |_| PageContent::synthetic_of_len(500))
            .unwrap();
        let err = k
            .alloc_pages(job, 1, |_| PageContent::synthetic_of_len(500))
            .unwrap_err();
        assert!(matches!(err, KernelError::MemcgOverLimit { .. }));
        assert!(!k.memcg(job).unwrap().zswap_enabled());
    }

    #[test]
    fn touch_faults_promote_compressed_pages() {
        let (mut k, job) = kernel_with_job(10_000, 10_000);
        k.set_zswap_enabled(job, true).unwrap();
        k.alloc_pages(job, 4, |_| PageContent::synthetic_of_len(700))
            .unwrap();
        for _ in 0..4 {
            k.run_scan();
        }
        let o = k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
        assert_eq!(o.reclaimed, 4);
        assert_eq!(k.memcg(job).unwrap().stats().zswapped_pages, 4);

        let promoted = k.touch(job, PageId::new(0), false).unwrap();
        assert!(promoted);
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.zswapped_pages, 3);
        assert_eq!(s.decompressions, 1);
        assert_eq!(k.cpu_accounting().decompress_events, 1);
        // Second touch on the same page is a plain access.
        assert!(!k.touch(job, PageId::new(0), false).unwrap());
    }

    #[test]
    fn touch_errors() {
        let (mut k, job) = kernel_with_job(100, 100);
        assert!(matches!(
            k.touch(JobId::new(9), PageId::new(0), false),
            Err(KernelError::NoSuchMemcg { .. })
        ));
        assert!(matches!(
            k.touch(job, PageId::new(0), false),
            Err(KernelError::NoSuchPage { .. })
        ));
    }

    #[test]
    fn free_pages_releases_zswap_slots() {
        let (mut k, job) = kernel_with_job(10_000, 10_000);
        k.set_zswap_enabled(job, true).unwrap();
        k.alloc_pages(job, 10, |_| PageContent::synthetic_of_len(700))
            .unwrap();
        for _ in 0..3 {
            k.run_scan();
        }
        k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
        assert_eq!(k.zswap().resident_objects(), 10);
        k.free_pages(job, 10).unwrap();
        assert_eq!(k.zswap().resident_objects(), 0);
        assert_eq!(k.memcg(job).unwrap().usage(), PageCount::ZERO);
    }

    #[test]
    fn machine_stats_account_compression_savings() {
        let (mut k, job) = kernel_with_job(10_000, 10_000);
        k.set_zswap_enabled(job, true).unwrap();
        k.alloc_pages(job, 100, |_| PageContent::synthetic_of_len(400))
            .unwrap();
        let before = k.machine_stats();
        assert_eq!(before.resident.get(), 100);
        assert_eq!(before.free.get(), 10_000 - 100);
        for _ in 0..3 {
            k.run_scan();
        }
        k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
        let after = k.machine_stats();
        assert_eq!(after.resident.get(), 0);
        assert_eq!(after.zswapped_pages, 100);
        // ~100 pages × 400 B ≈ 10 frames of arena vs 100 frames freed.
        assert!(after.zswap_footprint.get() < 20);
        assert!(after.free > before.free);
        assert!(after.pages_saved().get() >= 80);
    }

    #[test]
    fn direct_reclaim_respects_soft_limits() {
        let (mut k, job) = kernel_with_job(10_000, 10_000);
        // Direct reclaim works even when proactive zswap is off.
        k.alloc_pages(job, 100, |_| PageContent::synthetic_of_len(400))
            .unwrap();
        k.set_soft_limit(job, PageCount::new(90)).unwrap();
        for _ in 0..3 {
            k.run_scan();
        }
        let freed = k.direct_reclaim(PageCount::new(50)).unwrap();
        assert!(freed.get() > 0);
        let s = k.memcg(job).unwrap().stats();
        assert!(
            s.resident_pages >= 90,
            "direct reclaim went below the soft limit: {}",
            s.resident_pages
        );
    }

    #[test]
    fn alloc_triggers_direct_reclaim_before_oom() {
        let mut k = Kernel::new(KernelConfig {
            capacity: PageCount::new(120),
            ..KernelConfig::default()
        });
        let job = JobId::new(1);
        k.create_memcg(job, PageCount::new(1_000)).unwrap();
        k.alloc_pages(job, 100, |_| PageContent::synthetic_of_len(200))
            .unwrap();
        for _ in 0..3 {
            k.run_scan();
        }
        // 20 frames free, requesting 40: direct reclaim must kick in and
        // compress cold pages to make room.
        k.alloc_pages(job, 40, |_| PageContent::synthetic_of_len(200))
            .unwrap();
        let s = k.memcg(job).unwrap().stats();
        assert!(s.zswapped_pages > 0, "direct reclaim compressed nothing");
    }

    #[test]
    fn oom_when_nothing_reclaimable() {
        let mut k = Kernel::new(KernelConfig {
            capacity: PageCount::new(50),
            ..KernelConfig::default()
        });
        let job = JobId::new(1);
        k.create_memcg(job, PageCount::new(1_000)).unwrap();
        k.alloc_pages(job, 50, |_| PageContent::synthetic_of_len(200))
            .unwrap();
        // Pages are hot (just allocated, never scanned): nothing to reclaim.
        let err = k
            .alloc_pages(job, 10, |_| PageContent::synthetic_of_len(200))
            .unwrap_err();
        assert!(matches!(err, KernelError::OutOfMemory { .. }));
    }

    fn compressed_job(n: usize) -> (Kernel, JobId) {
        let (mut k, job) = kernel_with_job(10_000, 10_000);
        k.set_zswap_enabled(job, true).unwrap();
        k.alloc_pages(job, n, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        for _ in 0..4 {
            k.run_scan();
        }
        k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
        assert_eq!(k.memcg(job).unwrap().stats().zswapped_pages, n as u64);
        (k, job)
    }

    #[test]
    fn disabled_store_decays_to_zero_under_lifecycle_ticks() {
        let (mut k, job) = compressed_job(100);
        k.set_zswap_enabled(job, false).unwrap();
        let policy = StorePressure::PAPER_DEFAULT;
        let mut expected = 100u64;
        let mut windows = 0;
        while k.memcg(job).unwrap().stats().zswapped_pages > 0 {
            let o = k.store_lifecycle_tick(job, &policy).unwrap();
            assert_eq!(o.writeback.written_back, policy.decay_step(expected));
            expected = policy.store_after_window(expected);
            assert_eq!(k.memcg(job).unwrap().stats().zswapped_pages, expected);
            windows += 1;
            assert!(windows <= policy.windows_to_drain(100));
        }
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.writebacks, 100);
        assert_eq!(s.resident_pages, 100);
        // Every writeback decompression was charged.
        assert_eq!(k.cpu_accounting().decompress_events, 100);
        // The pages kept their cold ages: a re-enable would recompress.
        k.set_zswap_enabled(job, true).unwrap();
        let o = k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
        assert_eq!(o.reclaimed, 100);
    }

    #[test]
    fn lifecycle_tick_restores_soft_limited_working_set() {
        let (mut k, job) = compressed_job(50);
        // The agent raised the soft limit: 30 pages of the protected
        // working set are sitting compressed.
        k.set_soft_limit(job, PageCount::new(30)).unwrap();
        let o = k
            .store_lifecycle_tick(job, &StorePressure::PAPER_DEFAULT)
            .unwrap();
        assert_eq!(o.writeback.written_back, 30);
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.resident_pages, 30);
        assert_eq!(s.zswapped_pages, 20);
        // Restored pages come back hot: the next reclaim pass skips them.
        let o = k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
        assert_eq!(o.reclaimed, 0);
    }

    #[test]
    fn lifecycle_tick_is_noop_when_store_healthy() {
        let (mut k, job) = compressed_job(10);
        let o = k
            .store_lifecycle_tick(job, &StorePressure::PAPER_DEFAULT)
            .unwrap();
        assert_eq!(o, LifecycleOutcome::default());
        assert_eq!(k.memcg(job).unwrap().stats().zswapped_pages, 10);
    }

    #[test]
    fn host_pressure_decays_disabled_stores_and_compacts() {
        let (mut k, job) = compressed_job(200);
        k.set_zswap_enabled(job, false).unwrap();
        let enabled = JobId::new(2);
        k.create_memcg(enabled, PageCount::new(1000)).unwrap();
        k.set_zswap_enabled(enabled, true).unwrap();
        k.alloc_pages(enabled, 20, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        for _ in 0..4 {
            k.run_scan();
        }
        k.reclaim_job(enabled, PageAge::from_scans(2)).unwrap();
        let live_before = k.memcg(enabled).unwrap().stats().zswapped_pages;
        let o = k
            .relieve_host_pressure(&StorePressure::PAPER_DEFAULT)
            .unwrap();
        assert_eq!(o.writeback.written_back, 25, "12.5% of the 200 dead pages");
        // The enabled job's store is untouched by host pressure.
        assert_eq!(k.memcg(enabled).unwrap().stats().zswapped_pages, live_before);
        // Draining the whole dead store and compacting returns frames.
        while k.memcg(job).unwrap().stats().zswapped_pages > 0 {
            k.relieve_host_pressure(&StorePressure::PAPER_DEFAULT)
                .unwrap();
        }
        assert_eq!(k.memcg(job).unwrap().stats().writebacks, 200);
    }

    #[test]
    fn tiered_reclaim_without_device_is_a_typed_error() {
        let (mut k, job) = kernel_with_job(1000, 1000);
        assert_eq!(
            k.reclaim_job_tiered(job, PageAge::from_scans(1), PageAge::from_scans(2)),
            Err(KernelError::Tier1Missing)
        );
        // A chain whose only device sits *below* compressed RAM has no
        // warm tier-1 either.
        k.enable_chain(&[
            crate::BackendConfig::compressed_ram(),
            crate::BackendConfig::ssd(PageCount::new(100)),
        ]);
        assert_eq!(
            k.reclaim_job_tiered(job, PageAge::from_scans(1), PageAge::from_scans(2)),
            Err(KernelError::Tier1Missing)
        );
    }

    #[test]
    fn tier_faults_and_demotions_charge_cpu_tier_io() {
        // Regression: the device's `ns_charged` used to accumulate on the
        // backend but never flow into CpuAccounting.
        let (mut k, job) = kernel_with_job(10_000, 10_000);
        k.set_zswap_enabled(job, true).unwrap();
        k.enable_chain(&[
            BackendConfig::nvm_like(PageCount::new(100)),
            BackendConfig::compressed_ram(),
        ]);
        k.alloc_pages(job, 10, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        for _ in 0..2 {
            k.run_scan();
        }
        // Warm-cold only: everything lands on the device.
        let o = k
            .reclaim_job_tiered(job, PageAge::from_scans(1), PageAge::from_scans(50))
            .unwrap();
        assert_eq!(o.reclaimed, 10);
        let cpu = k.cpu_accounting();
        assert_eq!(cpu.tier_io_events, 10);
        assert_eq!(cpu.tier_io_ns, 10 * 700, "10 stores at nvm_like store_ns");
        // Fault one back: the load is charged too.
        assert!(k.touch(job, PageId::new(0), false).unwrap());
        let cpu = k.cpu_accounting();
        assert_eq!(cpu.tier_io_events, 11);
        assert_eq!(cpu.tier_io_ns, 10 * 700 + 300);
        assert_eq!(
            cpu.tier_io_ns,
            k.chain().unwrap().total_ns_charged(),
            "every device nanosecond reaches CPU accounting"
        );
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.demoted_loads_total(), 1);
        assert_eq!(s.demoted_total(), 9);
    }

    #[test]
    fn three_tier_lifecycle_demotes_instead_of_writing_back() {
        let (mut k, job) = compressed_job(100);
        k.enable_chain(&[
            crate::BackendConfig::compressed_ram(),
            crate::BackendConfig::ssd(PageCount::new(8)),
            crate::BackendConfig::remote(),
        ]);
        k.set_zswap_enabled(job, false).unwrap();
        let policy = StorePressure::PAPER_DEFAULT;
        let o = k.store_lifecycle_tick(job, &policy).unwrap();
        assert_eq!(o.writeback, crate::WritebackOutcome::default());
        assert_eq!(o.demotion.demoted, policy.decay_step(100));
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.resident_pages, 0, "demotion never re-residents pages");
        assert_eq!(s.zswapped_pages, 100 - o.demotion.demoted);
        // Keep ticking: the SSD fills at 8 pages, the rest overflow remote.
        while k.memcg(job).unwrap().stats().zswapped_pages > 0 {
            k.store_lifecycle_tick(job, &policy).unwrap();
        }
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.demoted_pages[1], 8);
        assert_eq!(s.demoted_pages[2], 92);
        assert_eq!(s.demotions, 100);
        // Machine stats and the chain agree (conservation).
        let ms = k.machine_stats();
        assert_eq!(ms.demoted_total(), 100);
        assert_eq!(k.chain().unwrap().device_resident_pages(), 100);
        assert!(ms.pages_saved_with_demoted().get() >= 100);
        // Faulting a remote page back works and is charged.
        assert!(k.touch(job, PageId::new(0), false).unwrap());
        assert_eq!(k.machine_stats().demoted_total(), 99);
    }

    #[test]
    fn removing_a_memcg_discards_its_demoted_pages() {
        let (mut k, job) = compressed_job(20);
        k.enable_chain(&[
            crate::BackendConfig::compressed_ram(),
            crate::BackendConfig::ssd(PageCount::new(4)),
            crate::BackendConfig::remote(),
        ]);
        k.set_zswap_enabled(job, false).unwrap();
        while k.memcg(job).unwrap().stats().zswapped_pages > 0 {
            k.store_lifecycle_tick(job, &StorePressure::PAPER_DEFAULT)
                .unwrap();
        }
        assert_eq!(k.chain().unwrap().device_resident_pages(), 20);
        k.remove_memcg(job).unwrap();
        assert_eq!(k.chain().unwrap().device_resident_pages(), 0);
        let stats = k.chain_stats().unwrap();
        assert_eq!(stats[1].discards + stats[2].discards, 20);
    }

    /// Ten of `job`'s twenty compressed pages demoted (entries 0..10),
    /// then the chain re-attached over them: the fresh tiers never stored
    /// what the page table says they hold. `enable_chain`'s doc only asks
    /// callers not to do this, so every entry point that reaches such a
    /// page must fail typed, not panic.
    fn chain_reattached_under_demoted_pages() -> (Kernel, JobId) {
        let chain = [
            BackendConfig::compressed_ram(),
            BackendConfig::ssd(PageCount::new(4)),
            BackendConfig::remote(),
        ];
        let (mut k, job) = compressed_job(20);
        k.enable_chain(&chain);
        assert_eq!(k.demote_job(job, 10).unwrap().demoted, 10);
        k.enable_chain(&chain);
        (k, job)
    }

    #[test]
    fn reattached_chain_is_a_typed_error_from_touch_free_and_teardown() {
        let corrupt = |r: Result<(), KernelError>| {
            assert!(
                matches!(r, Err(KernelError::StoreCorrupt { .. })),
                "expected a store inconsistency, got {r:?}"
            );
        };
        let (mut k, job) = chain_reattached_under_demoted_pages();
        corrupt(k.touch(job, PageId::new(0), false).map(|_| ()));
        // The ten compressed tail entries free; the first demoted one is
        // refused and stays.
        corrupt(k.free_pages(job, 11));
        assert_eq!(k.memcg(job).unwrap().usage(), PageCount::new(10));
        assert_eq!(k.zswap().resident_objects(), 0);

        // Teardown walks past all ten bad entries and still releases the
        // ten store slots behind them.
        let (mut k, job) = chain_reattached_under_demoted_pages();
        assert_eq!(k.zswap().resident_objects(), 10);
        corrupt(k.remove_memcg(job).map(|_| ()));
        assert_eq!(k.zswap().resident_objects(), 0);
        assert!(matches!(k.memcg(job), Err(KernelError::NoSuchMemcg { .. })));
    }

    fn prefetch_kernel(capacity: u64, mode: crate::PrefetchMode) -> (Kernel, JobId) {
        let mut k = Kernel::new(KernelConfig {
            capacity: PageCount::new(capacity),
            prefetch: crate::PrefetchConfig {
                mode,
                ..crate::PrefetchConfig::default()
            },
            ..KernelConfig::default()
        });
        let job = JobId::new(1);
        k.create_memcg(job, PageCount::new(capacity)).unwrap();
        (k, job)
    }

    /// Forces the job's huge entry at index 0 into zswap *without*
    /// splitting it — direct state surgery the split-first reclaim path
    /// never produces, isolating the entries-vs-frames discipline on the
    /// promotion side.
    fn zswap_huge_entry_whole(k: &mut Kernel, job: JobId) {
        let content = k.memcgs[&job].pages.content(0).clone();
        let h = match k.zswap.store(&content).unwrap() {
            crate::zswap::StoreOutcome::Stored(h) => h,
            o => panic!("synthetic page must fit the store: {o:?}"),
        };
        let size = k.zswap.stored_size(h).unwrap() as u64;
        let cg = k.memcgs.get_mut(&job).unwrap();
        assert!(cg.pages.is_huge(0));
        cg.pages.set_state(0, PageState::Zswapped(h));
        cg.stats.resident_pages -= crate::page::HUGE_SPAN as u64;
        cg.stats.zswapped_pages += 1;
        cg.stats.zswapped_bytes += size;
    }

    /// Satellite regression for the promotion path's side of
    /// `huge_page_scan_counts_entries_but_promotes_frames`: a predicted
    /// huge-page promotion moves [`crate::page::HUGE_SPAN`] frames but
    /// one entry (one issue, one decompression).
    #[test]
    fn prefetched_huge_page_promotion_moves_frames_but_one_entry() {
        let (mut k, job) = prefetch_kernel(10_000, crate::PrefetchMode::Stride);
        k.alloc_huge_pages(job, 1, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        zswap_huge_entry_whole(&mut k, job);
        let cfg = k.config.prefetch;
        k.memcgs
            .get_mut(&job)
            .unwrap()
            .prefetcher
            .enqueue(0, &cfg);
        k.run_scan();
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.prefetch_issued, 1, "one entry issued");
        assert_eq!(s.decompressions, 1, "one decompression");
        assert_eq!(
            s.resident_pages,
            crate::page::HUGE_SPAN as u64,
            "the whole span re-residented"
        );
        assert_eq!(s.zswapped_pages, 0);
        assert_eq!(s.usage(), PageCount::new(crate::page::HUGE_SPAN as u64));
    }

    /// The demand side of the same discipline: a fault on a huge zswapped
    /// entry restores all its frames while counting one decompression.
    #[test]
    fn demand_fault_on_huge_zswapped_entry_restores_frames() {
        let (mut k, job) = prefetch_kernel(10_000, crate::PrefetchMode::Off);
        k.alloc_huge_pages(job, 1, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        zswap_huge_entry_whole(&mut k, job);
        assert!(k.touch(job, PageId::new(0), false).unwrap());
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.resident_pages, crate::page::HUGE_SPAN as u64);
        assert_eq!(s.decompressions, 1);
    }

    fn compressed_prefetch_job(n: usize) -> (Kernel, JobId) {
        let (mut k, job) = prefetch_kernel(10_000, crate::PrefetchMode::Stride);
        k.set_zswap_enabled(job, true).unwrap();
        k.alloc_pages(job, n, |_| PageContent::synthetic_of_len(600))
            .unwrap();
        for _ in 0..4 {
            k.run_scan();
        }
        k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
        assert_eq!(k.memcg(job).unwrap().stats().zswapped_pages, n as u64);
        (k, job)
    }

    /// The accuracy-counter conservation law: once every issued page has
    /// resolved (demand-touched, reclaimed, or torn down),
    /// `prefetch_used + prefetch_wasted == prefetch_issued`.
    #[test]
    fn prefetch_counters_conserve_issued() {
        let (mut k, job) = compressed_prefetch_job(32);
        // Sequential demand faults arm the stride and queue a prediction
        // for page 3.
        for i in 0..3 {
            k.touch(job, PageId::new(i), false).unwrap();
        }
        k.run_scan(); // drain issues page 3
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.prefetch_issued, 1);
        assert_eq!(s.prefetch_late, 0);
        // The demand touch lands on the already-resident prefetched page:
        // the stall was hidden.
        assert!(!k.touch(job, PageId::new(3), false).unwrap());
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.prefetch_used, 1);
        k.run_scan(); // issues the follow-on prediction (page 4)
        let fin = k.remove_memcg(job).unwrap();
        assert_eq!(fin.prefetch_issued, 2);
        assert_eq!(fin.prefetch_used, 1);
        assert_eq!(fin.prefetch_wasted, 1, "page 4 resolved at teardown");
        assert_eq!(
            fin.prefetch_used + fin.prefetch_wasted,
            fin.prefetch_issued,
            "conservation"
        );
    }

    /// A demand fault that beats the scan-cadence drain to a correctly
    /// predicted page counts as late, and the stale queue entry is gone.
    #[test]
    fn demand_fault_beating_drain_counts_late() {
        let (mut k, job) = compressed_prefetch_job(16);
        for i in 0..3 {
            k.touch(job, PageId::new(i), false).unwrap();
        }
        assert!(k.memcgs[&job].prefetcher.is_queued(3));
        // Page 3 is demand-faulted before any scan drains the queue.
        assert!(k.touch(job, PageId::new(3), false).unwrap());
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.prefetch_late, 1);
        assert_eq!(s.prefetch_issued, 0);
        assert!(!k.memcgs[&job].prefetcher.is_queued(3));
        // Machine stats surface the counters.
        let ms = k.machine_stats();
        assert_eq!(ms.prefetch_late, 1);
        assert_eq!(ms.prefetch_issued, 0);
    }

    /// Wasted resolution on the re-reclaim path: an issued page that ages
    /// back out untouched flips to wasted, and the flag is consumed.
    #[test]
    fn untouched_prefetch_resolves_wasted_on_reclaim() {
        let (mut k, job) = compressed_prefetch_job(16);
        for i in 0..3 {
            k.touch(job, PageId::new(i), false).unwrap();
        }
        k.run_scan(); // issues page 4's predecessor (page 3)
        assert_eq!(k.memcg(job).unwrap().stats().prefetch_issued, 1);
        // Never touch page 3 again; age it back past the threshold.
        for _ in 0..4 {
            k.run_scan();
        }
        k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
        let s = k.memcg(job).unwrap().stats();
        assert_eq!(s.prefetch_wasted, 1);
        assert!(s.zswapped_pages >= 1);
        assert_eq!(s.prefetch_used + s.prefetch_wasted, s.prefetch_issued);
    }

    #[test]
    fn real_content_roundtrips_through_fault() {
        use sdfm_compress::gen::{PageClass, PageGenerator};
        let (mut k, job) = kernel_with_job(10_000, 10_000);
        k.set_zswap_enabled(job, true).unwrap();
        let mut g = PageGenerator::new(5);
        let pages: Vec<bytes::Bytes> = (0..4)
            .map(|_| bytes::Bytes::from(g.generate(PageClass::Text)))
            .collect();
        let contents = pages.clone();
        k.alloc_pages(job, 4, |i| PageContent::Real(contents[i].clone()))
            .unwrap();
        for _ in 0..4 {
            k.run_scan();
        }
        k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
        // touch() internally asserts decompressed bytes == original.
        for i in 0..4 {
            assert!(k.touch(job, PageId::new(i), false).unwrap());
        }
    }
}
