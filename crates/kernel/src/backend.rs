//! Far-memory tiers and the demotion chain (§8).
//!
//! The paper's end state is "multiple tiers of far memory (sub-µs tier-1
//! and single-µs tier-2), all managed intelligently". PR 5's writeback
//! still meant "decompress back to DRAM or discard"; this module gives
//! cold compressed pages somewhere *slower* to go instead: a
//! [`DemotionChain`] of tiers ordered warmest → coldest, each described
//! by a plain [`BackendConfig`] value. Three families ship with the
//! kernel, told apart by [`BackendConfig::kind`]:
//!
//! * [`BackendConfig::compressed_ram`] — today's zswap store as the
//!   identity tier: elastic capacity, no transfer cost. Inside a
//!   [`Kernel`] chain this tier is *positional* — the real pages live in
//!   the [`ZswapStore`](crate::ZswapStore) as `PageState::Zswapped` and
//!   their CPU costs are charged through [`CostModel`](crate::CostModel).
//! * [`BackendConfig::ssd`] / [`BackendConfig::nvm_like`] — per-op
//!   latency plus transfer time, **finite capacity** (the §2.1 stranding
//!   risk).
//! * [`BackendConfig::remote`] — higher latency, unbounded capacity,
//!   per-byte transfer cost accounted for TCO.
//!
//! Every tier is the same pure integer state machine: page movements are
//! tracked by count, per-op costs derive from the [`BackendConfig`] with
//! `div_ceil` arithmetic, and no wall clock or RNG is involved — the D1/D2
//! determinism contract holds, so fleet runs are bit-identical at any
//! thread count.
//!
//! [`Kernel`]: crate::Kernel

use serde::{Deserialize, Serialize};

use crate::error::KernelError;
use sdfm_types::arith::div_ceil_u64;
use sdfm_types::size::{PageCount, PAGE_SIZE};

/// Upper bound on chain length; per-tier stat arrays are sized by this so
/// they stay `Copy` and serializable without allocation.
pub const MAX_TIERS: usize = 4;

/// The three shipped tier families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendKind {
    /// Compressed RAM (zswap): the identity backend — pages stay in DRAM,
    /// just smaller.
    CompressedRam,
    /// A simulated local SSD / NVM-class device: finite capacity, per-op
    /// latency, bandwidth-limited transfers.
    SimulatedSsd,
    /// A simulated remote-memory tier: unbounded capacity, higher latency,
    /// per-byte transfer cost.
    SimulatedRemote,
}

/// Deterministic cost/capacity parameters for one backend tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackendConfig {
    /// Which backend family this configures.
    pub kind: BackendKind,
    /// Device capacity in pages. `PageCount::new(u64::MAX)` means
    /// unbounded (compressed RAM's elastic arena, the remote pool).
    pub capacity: PageCount,
    /// Per-operation load (fault-back) latency in nanoseconds, excluding
    /// transfer time.
    pub load_ns: u64,
    /// Per-operation store (demotion) latency in nanoseconds, excluding
    /// transfer time.
    pub store_ns: u64,
    /// Device bandwidth in bytes per microsecond (`0` = infinite, e.g.
    /// RAM-resident tiers). One 4 KiB page at 2000 B/µs adds ~2 µs of
    /// transfer time per op.
    pub bandwidth_bytes_per_us: u64,
    /// Dollar cost of moving one byte over the tier's interconnect, in
    /// nano-cents (10⁻⁹ ¢). Zero for local tiers; the remote tier's
    /// per-byte cost feeds the TCO model.
    pub cost_nanocents_per_byte: u64,
}

impl BackendConfig {
    /// Sentinel capacity for unbounded tiers.
    pub const UNBOUNDED: PageCount = PageCount::new(u64::MAX);

    /// The compressed-RAM identity backend. Latencies mirror the paper's
    /// measured zswap costs (§6.3): ~10 µs compress, ~6.4 µs decompress.
    pub fn compressed_ram() -> Self {
        BackendConfig {
            kind: BackendKind::CompressedRam,
            capacity: Self::UNBOUNDED,
            load_ns: 6_400,
            store_ns: 10_000,
            bandwidth_bytes_per_us: 0,
            cost_nanocents_per_byte: 0,
        }
    }

    /// A plausible Optane-DIMM-like device tier (§8's sub-µs tier-1):
    /// 300 ns loads, 700 ns stores and ideal bandwidth, so per-op costs
    /// are exactly those latencies. Capacity is in base-page
    /// *frames*, fixed at provisioning time: a huge page is one
    /// [`PageTable`](crate::page_table::PageTable) entry but demotes
    /// frame by frame after splitting.
    pub fn nvm_like(capacity: PageCount) -> Self {
        BackendConfig {
            kind: BackendKind::SimulatedSsd,
            capacity,
            load_ns: 300,
            store_ns: 700,
            bandwidth_bytes_per_us: 0,
            cost_nanocents_per_byte: 0,
        }
    }

    /// A plausible datacenter NVMe SSD tier: tens-of-µs latency class,
    /// ~2 GB/s of device bandwidth, and a hard capacity.
    pub fn ssd(capacity: PageCount) -> Self {
        BackendConfig {
            kind: BackendKind::SimulatedSsd,
            capacity,
            load_ns: 20_000,
            store_ns: 30_000,
            bandwidth_bytes_per_us: 2_000,
            cost_nanocents_per_byte: 0,
        }
    }

    /// A remote-memory tier: ~100 µs round trips, unbounded pool behind
    /// the fabric, and a per-byte transfer cost that the TCO model charges
    /// against the DRAM it displaces.
    pub fn remote() -> Self {
        BackendConfig {
            kind: BackendKind::SimulatedRemote,
            capacity: Self::UNBOUNDED,
            load_ns: 100_000,
            store_ns: 100_000,
            bandwidth_bytes_per_us: 1_000,
            cost_nanocents_per_byte: 2,
        }
    }

    /// Nanoseconds to move one 4 KiB page across the tier's interconnect
    /// (`0` when bandwidth is infinite).
    pub fn transfer_ns(&self) -> u64 {
        if self.bandwidth_bytes_per_us == 0 {
            return 0;
        }
        // bytes / (bytes/µs) µs → ns; ceil so a slow link never rounds to
        // free.
        div_ceil_u64(PAGE_SIZE as u64 * 1_000, self.bandwidth_bytes_per_us)
    }

    /// Full fault-back latency for one page: device load plus transfer.
    pub fn fault_ns(&self) -> u64 {
        self.load_ns + self.transfer_ns()
    }

    /// Full demotion latency for one page: device store plus transfer.
    pub fn store_op_ns(&self) -> u64 {
        self.store_ns + self.transfer_ns()
    }
}

/// Cumulative counters for one backend tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BackendStats {
    /// Pages currently stored in the tier.
    pub resident_pages: u64,
    /// Demotions accepted into the tier.
    pub stores: u64,
    /// Fault-backs out of the tier.
    pub loads: u64,
    /// Pages dropped without a fault (job exit, demotion further down).
    pub discards: u64,
    /// Demotions refused because the tier was full (stranding events).
    pub full_rejections: u64,
    /// Nanoseconds charged to the tier's traffic (stores + loads,
    /// including transfer time).
    pub ns_charged: u64,
    /// Bytes moved over the tier's interconnect (stores + loads).
    pub bytes_transferred: u64,
}

/// Statistical demotion policy for the fast models (the fleet simulator
/// and trace replay), mirroring the page-level chain without per-page
/// state: a [`StorePressure`]-shaped decay moves a job's coldest stored
/// pages down the chain each window, each job may park at most
/// `ssd_quota_pages` on the finite SSD tier before overflowing to the
/// remote tier, and the two [`BackendConfig`]s price the traffic for the
/// CPU/TCO ledgers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainPolicy {
    /// How many of a job's stored pages demote per window (reusing the
    /// store-lifecycle decay arithmetic).
    pub demote: crate::writeback::StorePressure,
    /// Per-job SSD residency cap, in pages; excess lands on remote.
    pub ssd_quota_pages: u64,
    /// The SSD tier's latency/bandwidth parameters.
    pub ssd: BackendConfig,
    /// The remote tier's latency/cost parameters.
    pub remote: BackendConfig,
}

impl ChainPolicy {
    /// The default three-tier policy: paper-default decay, the shipped
    /// SSD/remote parameters, and the given per-job SSD quota.
    pub fn paper_default(ssd_quota_pages: u64) -> Self {
        ChainPolicy {
            demote: crate::writeback::StorePressure::PAPER_DEFAULT,
            ssd_quota_pages,
            ssd: BackendConfig::ssd(PageCount::new(ssd_quota_pages)),
            remote: BackendConfig::remote(),
        }
    }
}

/// One tier of a [`DemotionChain`]: a count-based integer machine
/// parameterized by its config. Tiers track pages **by count** — the
/// kernel owns per-page state ([`crate::PageState::Demoted`] carries the
/// chain index).
#[derive(Debug, Clone)]
pub(crate) struct Tier {
    config: BackendConfig,
    stats: BackendStats,
}

impl Tier {
    pub(crate) fn new(config: BackendConfig) -> Self {
        Tier {
            config,
            stats: BackendStats::default(),
        }
    }

    /// Whether the tier holds `Demoted` pages (compressed-RAM tiers are
    /// positional: their pages are `Zswapped`).
    fn is_device(&self) -> bool {
        self.config.kind != BackendKind::CompressedRam
    }

    /// Whether a store would be accepted right now.
    pub(crate) fn has_room(&self) -> bool {
        self.stats.resident_pages < self.config.capacity.get()
    }

    /// Attempts to store one page. Returns the nanoseconds charged, or
    /// `None` when the tier is full (counted in
    /// [`BackendStats::full_rejections`]).
    pub(crate) fn store_page(&mut self) -> Option<u64> {
        if !self.has_room() {
            self.stats.full_rejections += 1;
            return None;
        }
        let ns = self.config.store_op_ns();
        self.stats.resident_pages += 1;
        self.stats.stores += 1;
        self.stats.ns_charged += ns;
        self.stats.bytes_transferred += PAGE_SIZE as u64;
        Some(ns)
    }

    /// Loads (removes) one page on fault-back; returns the nanoseconds
    /// charged.
    ///
    /// # Errors
    ///
    /// [`KernelError::StoreCorrupt`] if the tier is empty: a page table
    /// says a page lives here but the tier never stored it (the chain was
    /// swapped under live demoted pages).
    pub(crate) fn load_page(&mut self) -> Result<u64, KernelError> {
        self.take_page()?;
        let ns = self.config.fault_ns();
        self.stats.loads += 1;
        self.stats.ns_charged += ns;
        self.stats.bytes_transferred += PAGE_SIZE as u64;
        Ok(ns)
    }

    /// Drops one page without a fault (job exit / overflow into zswap).
    ///
    /// # Errors
    ///
    /// As [`load_page`](Self::load_page).
    pub(crate) fn discard_page(&mut self) -> Result<(), KernelError> {
        self.take_page()?;
        self.stats.discards += 1;
        Ok(())
    }

    fn take_page(&mut self) -> Result<(), KernelError> {
        self.stats.resident_pages =
            self.stats
                .resident_pages
                .checked_sub(1)
                .ok_or(KernelError::StoreCorrupt {
                    detail: "page table names a device tier that holds no pages",
                })?;
        Ok(())
    }

    /// Records that demand existed while the tier was full, without an
    /// actual store attempt (callers gate attempts and report stranding
    /// once per reclaim pass).
    pub(crate) fn record_stranding(&mut self) {
        self.stats.full_rejections += 1;
    }
}

/// An ordered ladder of far-memory tiers, warmest first.
///
/// The chain generalizes the old hard-coded `Tier1Store` ladder: the
/// two-tier configuration is `[ssd-like device, compressed RAM]` (the
/// device is *warmer* than zswap, as in the original §8 sketch), the
/// three-tier configuration is `[compressed RAM, SSD, remote]` (each tier
/// colder and cheaper than the last). A full tier overflows demotions to
/// the next tier down; the rejection is counted on the full tier.
#[derive(Debug)]
pub struct DemotionChain {
    tiers: Vec<Tier>,
}

impl DemotionChain {
    /// Builds a chain from per-tier configs, warmest first.
    ///
    /// # Panics
    ///
    /// Panics when more than [`MAX_TIERS`] configs are given or the list
    /// is empty (a construction-time caller bug).
    pub fn from_configs(configs: &[BackendConfig]) -> Self {
        assert!(
            !configs.is_empty() && configs.len() <= MAX_TIERS,
            "demotion chain must have 1..=MAX_TIERS tiers"
        );
        DemotionChain {
            tiers: configs.iter().copied().map(Tier::new).collect(),
        }
    }

    /// Number of tiers.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// Whether the chain has no tiers (never true for a built chain).
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Mutable access to the tier at `index`.
    pub(crate) fn tier_mut(&mut self, index: usize) -> Option<&mut Tier> {
        self.tiers.get_mut(index)
    }

    /// Per-tier configs, in chain order.
    pub fn configs(&self) -> Vec<BackendConfig> {
        self.tiers.iter().map(|t| t.config).collect()
    }

    /// Per-tier counters, in chain order.
    pub fn stats(&self) -> Vec<BackendStats> {
        self.tiers.iter().map(|t| t.stats).collect()
    }

    /// Index of the compressed-RAM tier, if the chain has one.
    pub fn compressed_index(&self) -> Option<usize> {
        self.tiers.iter().position(|t| !t.is_device())
    }

    /// Index of the first *device* tier (anything that is not compressed
    /// RAM) — the tier the two-tier compat surface calls "tier-1".
    pub fn first_device_index(&self) -> Option<usize> {
        self.tiers.iter().position(Tier::is_device)
    }

    /// The first device tier *warmer* than (before) the compressed-RAM
    /// tier — the §8 "tier-1" that tiered reclaim demotes warm-cold DRAM
    /// pages into. For an all-device chain the first tier qualifies;
    /// `None` when every device sits below compressed RAM.
    pub fn warm_device_index(&self) -> Option<usize> {
        let first = self.first_device_index()?;
        match self.compressed_index() {
            Some(c) if first > c => None,
            _ => Some(first),
        }
    }

    /// The first device tier strictly below the compressed-RAM tier —
    /// where zswap victims demote to. `None` when the chain has no
    /// compressed tier or nothing colder than it.
    pub fn device_below_compressed(&self) -> Option<usize> {
        let start = self.compressed_index()? + 1;
        self.tiers[start..]
            .iter()
            .position(Tier::is_device)
            .map(|offset| start + offset)
    }

    /// Stores one page at the first device tier at or below `start`,
    /// overflowing past full tiers (each full tier counts one
    /// `full_rejections`). Returns `(tier_index, ns_charged)` for the
    /// accepting tier, or `None` when every tier from `start` down is
    /// full.
    pub fn store_with_overflow(&mut self, start: usize) -> Option<(usize, u64)> {
        for i in start..self.tiers.len() {
            if !self.tiers[i].is_device() {
                continue;
            }
            if let Some(ns) = self.tiers[i].store_page() {
                return Some((i, ns));
            }
        }
        None
    }

    /// Pages resident across all device tiers (compressed-RAM tiers are
    /// positional inside a kernel; their residency is the zswap store's).
    pub fn device_resident_pages(&self) -> u64 {
        self.tiers
            .iter()
            .filter(|t| t.is_device())
            .map(|t| t.stats.resident_pages)
            .sum()
    }

    /// Total nanoseconds charged across every tier.
    pub fn total_ns_charged(&self) -> u64 {
        self.tiers.iter().map(|t| t.stats.ns_charged).sum()
    }

    /// Total interconnect dollar cost across every tier, in nano-cents
    /// (bytes moved × per-byte price). The remote tier is typically the
    /// only non-zero contributor.
    pub fn transfer_cost_nanocents(&self) -> u64 {
        self.tiers
            .iter()
            .map(|t| t.stats.bytes_transferred * t.config.cost_nanocents_per_byte)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_capacity_is_hard_and_counted() {
        let mut ssd = Tier::new(BackendConfig::ssd(PageCount::new(2)));
        assert!(ssd.store_page().is_some());
        assert!(ssd.store_page().is_some());
        assert!(ssd.store_page().is_none(), "third store must reject");
        assert_eq!(ssd.stats.full_rejections, 1);
        assert!(!ssd.has_room());
    }

    #[test]
    fn nvm_like_keeps_exact_per_op_costs() {
        let cfg = BackendConfig::nvm_like(PageCount::new(10));
        // Infinite bandwidth: the tier charges exactly the configured
        // latencies.
        assert_eq!(cfg.fault_ns(), 300);
        assert_eq!(cfg.store_op_ns(), 700);
        let mut dev = Tier::new(cfg);
        dev.store_page();
        dev.load_page().unwrap();
        assert_eq!(dev.stats.ns_charged, 1_000);
    }

    #[test]
    fn nvm_like_stats_count_every_movement() {
        let mut dev = Tier::new(BackendConfig::nvm_like(PageCount::new(2)));
        dev.store_page();
        dev.store_page();
        assert!(dev.store_page().is_none());
        dev.load_page().unwrap();
        let stats = dev.stats;
        assert_eq!(stats.resident_pages, 1);
        assert_eq!(stats.stores, 2);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.full_rejections, 1);
        assert_eq!(stats.ns_charged, 2 * 700 + 300);
    }

    #[test]
    fn nvm_like_capacity_is_hard() {
        let mut dev = Tier::new(BackendConfig::nvm_like(PageCount::new(2)));
        assert!(dev.store_page().is_some());
        assert!(dev.store_page().is_some());
        assert!(dev.store_page().is_none(), "third store must reject");
        assert_eq!(dev.stats.full_rejections, 1);
        assert!(!dev.has_room());
    }

    #[test]
    fn remote_is_unbounded() {
        let mut remote = Tier::new(BackendConfig::remote());
        for _ in 0..10_000 {
            assert!(remote.store_page().is_some());
        }
        assert!(remote.has_room());
        assert_eq!(remote.stats.resident_pages, 10_000);
        assert_eq!(remote.stats.full_rejections, 0);
    }

    #[test]
    fn load_and_discard_release_capacity() {
        let mut ssd = Tier::new(BackendConfig::ssd(PageCount::new(4)));
        ssd.store_page();
        ssd.store_page();
        ssd.load_page().unwrap();
        assert_eq!(ssd.stats.resident_pages, 1);
        assert_eq!(ssd.stats.loads, 1);
        ssd.discard_page().unwrap();
        assert_eq!(ssd.stats.resident_pages, 0);
        assert_eq!(ssd.stats.discards, 1);
        assert!(ssd.has_room());
    }

    #[test]
    fn per_op_costs_are_deterministic_integers() {
        let cfg = BackendConfig::ssd(PageCount::new(100));
        // 4096 B at 2000 B/µs = 2.048 µs → ceil 2048 ns of transfer.
        assert_eq!(cfg.transfer_ns(), 2_048);
        assert_eq!(cfg.fault_ns(), 20_000 + 2_048);
        assert_eq!(cfg.store_op_ns(), 30_000 + 2_048);
        // Infinite-bandwidth tiers transfer for free.
        assert_eq!(BackendConfig::compressed_ram().transfer_ns(), 0);
    }

    #[test]
    fn ns_charged_accumulates_store_and_load() {
        let cfg = BackendConfig {
            kind: BackendKind::SimulatedSsd,
            capacity: PageCount::new(10),
            load_ns: 300,
            store_ns: 700,
            bandwidth_bytes_per_us: 0,
            cost_nanocents_per_byte: 0,
        };
        let mut dev = Tier::new(cfg);
        dev.store_page();
        dev.load_page().unwrap();
        assert_eq!(dev.stats.ns_charged, 1_000);
        assert_eq!(dev.stats.bytes_transferred, 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn load_or_discard_from_an_empty_tier_is_a_typed_error() {
        let mut ssd = Tier::new(BackendConfig::ssd(PageCount::new(1)));
        assert!(matches!(
            ssd.load_page(),
            Err(KernelError::StoreCorrupt { .. })
        ));
        assert!(matches!(
            ssd.discard_page(),
            Err(KernelError::StoreCorrupt { .. })
        ));
        assert_eq!(ssd.stats, BackendStats::default(), "nothing was counted");
    }

    #[test]
    fn chain_indices_and_overflow() {
        // Three-tier: compressed RAM, a 2-page SSD, unbounded remote.
        let mut chain = DemotionChain::from_configs(&[
            BackendConfig::compressed_ram(),
            BackendConfig::ssd(PageCount::new(2)),
            BackendConfig::remote(),
        ]);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.compressed_index(), Some(0));
        assert_eq!(chain.first_device_index(), Some(1));
        assert_eq!(chain.device_below_compressed(), Some(1));
        // Overflow: the first two land on the SSD, the rest spill to the
        // remote tier, each spill counting one rejection on the SSD.
        let mut placements = Vec::new();
        for _ in 0..4 {
            let (tier, _ns) = chain.store_with_overflow(1).unwrap();
            placements.push(tier);
        }
        assert_eq!(placements, vec![1, 1, 2, 2]);
        let stats = chain.stats();
        assert_eq!(stats[1].resident_pages, 2);
        assert_eq!(stats[1].full_rejections, 2);
        assert_eq!(stats[2].resident_pages, 2);
        assert_eq!(chain.device_resident_pages(), 4);
        // The remote tier charges per byte; the SSD does not.
        assert_eq!(
            chain.transfer_cost_nanocents(),
            stats[2].bytes_transferred * 2
        );
    }

    #[test]
    fn two_tier_chain_has_no_tier_below_compressed() {
        let chain = DemotionChain::from_configs(&[
            BackendConfig::ssd(PageCount::new(8)),
            BackendConfig::compressed_ram(),
        ]);
        assert_eq!(chain.compressed_index(), Some(1));
        assert_eq!(chain.first_device_index(), Some(0));
        assert_eq!(chain.warm_device_index(), Some(0));
        assert_eq!(chain.device_below_compressed(), None);
    }

    #[test]
    fn three_tier_chain_has_no_warm_device() {
        let chain = DemotionChain::from_configs(&[
            BackendConfig::compressed_ram(),
            BackendConfig::ssd(PageCount::new(8)),
            BackendConfig::remote(),
        ]);
        assert_eq!(chain.warm_device_index(), None);
        // An all-device chain treats its warmest tier as tier-1.
        let all_dev = DemotionChain::from_configs(&[
            BackendConfig::ssd(PageCount::new(8)),
            BackendConfig::remote(),
        ]);
        assert_eq!(all_dev.warm_device_index(), Some(0));
    }

    #[test]
    #[should_panic(expected = "1..=MAX_TIERS")]
    fn oversized_chain_is_a_caller_bug() {
        let cfgs = vec![BackendConfig::remote(); MAX_TIERS + 1];
        DemotionChain::from_configs(&cfgs);
    }
}
