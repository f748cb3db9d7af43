//! Memory cgroups: the per-job isolation and accounting unit (§5.1).
//!
//! Each job maps to one memcg holding its pages, its two kstaled-maintained
//! histograms, its soft limit (the agent-set working-set protection), and
//! cumulative compression counters. The node agent reads everything it
//! needs from here — it never sees individual pages.

use serde::{Deserialize, Serialize};

use crate::backend::MAX_TIERS;
use crate::page_table::PageTable;
use crate::prefetch::Prefetcher;
use sdfm_types::histogram::{ColdAgeHistogram, PageAge, PromotionHistogram};
use sdfm_types::ids::JobId;
use sdfm_types::size::PageCount;

/// Cumulative and current counters for one memcg.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemcgStats {
    /// Pages currently resident in DRAM.
    pub resident_pages: u64,
    /// Pages currently in the zswap store.
    pub zswapped_pages: u64,
    /// Compressed bytes currently stored for this memcg.
    pub zswapped_bytes: u64,
    /// Cumulative pages compressed into zswap.
    pub compressions: u64,
    /// Cumulative pages decompressed on access (actual promotions).
    pub decompressions: u64,
    /// Cumulative compression attempts rejected as incompressible.
    pub rejections: u64,
    /// Pages currently carrying the incompressible mark.
    pub incompressible_marked: u64,
    /// Pages currently resident per device tier of the demotion chain,
    /// indexed by chain position (compressed-RAM tiers stay zero — their
    /// pages are `zswapped_pages`).
    pub demoted_pages: [u64; MAX_TIERS],
    /// Cumulative fault-backs per device tier, indexed by chain position.
    pub demoted_loads: [u64; MAX_TIERS],
    /// Cumulative pages demoted from zswap down the chain (store decay
    /// with a colder tier attached).
    pub demotions: u64,
    /// Cumulative pages written back from zswap without an access (store
    /// decay, soft-limit restoration, host pressure) — distinct from
    /// `decompressions`, which counts access-driven promotions.
    pub writebacks: u64,
    /// Cumulative predicted pages the prefetcher promoted ahead of demand
    /// (each also counts in `decompressions` or `demoted_loads`, since it
    /// pays the same promotion cost).
    pub prefetch_issued: u64,
    /// Cumulative issued prefetches later demand-touched while resident
    /// (coverage: these faults were fully hidden).
    pub prefetch_used: u64,
    /// Cumulative issued prefetches reclaimed, freed, or torn down before
    /// any demand touch (accuracy loss). Once every issued page resolves,
    /// `prefetch_used + prefetch_wasted == prefetch_issued`.
    pub prefetch_wasted: u64,
    /// Cumulative demand faults that found their page predicted but still
    /// queued (timeliness loss: right prediction, drain too late).
    pub prefetch_late: u64,
}

impl MemcgStats {
    /// Pages resident across every device tier of the chain.
    pub fn demoted_total(&self) -> u64 {
        self.demoted_pages.iter().sum()
    }

    /// Fault-backs across every device tier of the chain.
    pub fn demoted_loads_total(&self) -> u64 {
        self.demoted_loads.iter().sum()
    }

    /// Total pages charged to the memcg (resident + compressed + demoted
    /// to device tiers).
    pub fn usage(&self) -> PageCount {
        PageCount::new(self.resident_pages + self.zswapped_pages + self.demoted_total())
    }
}

/// One job's memory cgroup.
#[derive(Debug)]
pub struct MemCgroup {
    job: JobId,
    limit: PageCount,
    soft_limit: PageCount,
    zswap_enabled: bool,
    pub(crate) pages: PageTable,
    pub(crate) cold_hist: ColdAgeHistogram,
    pub(crate) promo_hist: PromotionHistogram,
    pub(crate) stats: MemcgStats,
    pub(crate) prefetcher: Prefetcher,
}

impl MemCgroup {
    /// Creates an empty memcg with a hard page limit.
    pub fn new(job: JobId, limit: PageCount) -> Self {
        MemCgroup {
            job,
            limit,
            soft_limit: PageCount::ZERO,
            zswap_enabled: false,
            pages: PageTable::new(),
            cold_hist: ColdAgeHistogram::new(),
            promo_hist: PromotionHistogram::new(),
            stats: MemcgStats::default(),
            prefetcher: Prefetcher::new(),
        }
    }

    /// The owning job.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The hard memcg limit.
    pub fn limit(&self) -> PageCount {
        self.limit
    }

    /// The agent-set soft limit: direct reclaim never pushes the memcg
    /// below this (working-set protection, §5.1).
    pub fn soft_limit(&self) -> PageCount {
        self.soft_limit
    }

    /// Sets the soft limit.
    pub fn set_soft_limit(&mut self, pages: PageCount) {
        self.soft_limit = pages;
    }

    /// Whether proactive zswap is enabled for this job (the agent keeps it
    /// off for the first `S` seconds of execution, §4.3).
    pub fn zswap_enabled(&self) -> bool {
        self.zswap_enabled
    }

    /// Enables or disables proactive zswap.
    pub fn set_zswap_enabled(&mut self, enabled: bool) {
        self.zswap_enabled = enabled;
    }

    /// Current counters.
    pub fn stats(&self) -> MemcgStats {
        self.stats
    }

    /// Total frames charged to the memcg (huge pages count their full
    /// span).
    pub fn usage(&self) -> PageCount {
        self.stats.usage()
    }

    /// Whether `page` currently lives in the zswap store, or `None` if no
    /// such page exists. Diagnostic only — production agents never see
    /// individual pages.
    pub fn page_in_zswap(&self, page: sdfm_types::ids::PageId) -> Option<bool> {
        self.pages
            .get_state(page.index())
            .map(|s| matches!(s, crate::page::PageState::Zswapped(_)))
    }

    /// The instantaneous cold-age histogram (maintained incrementally by
    /// the page table; kstaled publishes a snapshot here each scan).
    pub fn cold_age_histogram(&self) -> &ColdAgeHistogram {
        &self.cold_hist
    }

    /// The cumulative promotion histogram (ages at access time).
    pub fn promotion_histogram(&self) -> &PromotionHistogram {
        &self.promo_hist
    }

    /// Pages idle for at least `threshold` — the cold memory size under
    /// that threshold, per the last scan.
    pub fn cold_pages(&self, threshold: PageAge) -> PageCount {
        PageCount::new(self.cold_hist.pages_colder_than(threshold))
    }

    /// The §4.2 working-set estimate: pages accessed within the minimum
    /// cold-age threshold, per the last scan.
    pub fn working_set(&self, min_threshold: PageAge) -> PageCount {
        PageCount::new(self.cold_hist.pages_younger_than(min_threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{Page, PageContent};

    #[test]
    fn new_memcg_is_empty_and_disabled() {
        let cg = MemCgroup::new(JobId::new(1), PageCount::new(100));
        assert_eq!(cg.job(), JobId::new(1));
        assert_eq!(cg.limit(), PageCount::new(100));
        assert_eq!(cg.usage(), PageCount::ZERO);
        assert!(!cg.zswap_enabled());
        assert_eq!(cg.stats(), MemcgStats::default());
    }

    #[test]
    fn soft_limit_and_enable_toggle() {
        let mut cg = MemCgroup::new(JobId::new(2), PageCount::new(100));
        cg.set_soft_limit(PageCount::new(40));
        assert_eq!(cg.soft_limit(), PageCount::new(40));
        cg.set_zswap_enabled(true);
        assert!(cg.zswap_enabled());
    }

    #[test]
    fn usage_counts_frames_from_stats() {
        let mut cg = MemCgroup::new(JobId::new(3), PageCount::new(100));
        cg.pages.push(Page::new(PageContent::synthetic_of_len(64)));
        cg.pages.push(Page::new(PageContent::synthetic_of_len(64)));
        cg.stats.resident_pages = 2; // the kernel maintains this on alloc
        assert_eq!(cg.usage(), PageCount::new(2));
        // A huge page charges its whole span.
        cg.pages
            .push(Page::new_huge(PageContent::synthetic_of_len(64)));
        cg.stats.resident_pages += crate::page::HUGE_SPAN as u64;
        assert_eq!(cg.usage(), PageCount::new(2 + 512));
    }

    #[test]
    fn stats_usage_sums_resident_and_zswapped() {
        let s = MemcgStats {
            resident_pages: 10,
            zswapped_pages: 5,
            ..Default::default()
        };
        assert_eq!(s.usage(), PageCount::new(15));
    }
}
