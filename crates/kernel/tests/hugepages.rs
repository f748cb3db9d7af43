//! Huge-page behavior: coarse access tracking, split-before-swap, and the
//! interleaving penalty §7 alludes to ("fragmentation can limit huge
//! pages").

use sdfm_kernel::page::HUGE_SPAN;
use sdfm_kernel::{Kernel, KernelConfig, PageContent};
use sdfm_types::histogram::PageAge;
use sdfm_types::ids::{JobId, PageId};
use sdfm_types::size::PageCount;

fn kernel(capacity: u64) -> (Kernel, JobId) {
    let mut k = Kernel::new(KernelConfig {
        capacity: PageCount::new(capacity),
        ..KernelConfig::default()
    });
    let job = JobId::new(1);
    k.create_memcg(job, PageCount::new(capacity)).unwrap();
    (k, job)
}

#[test]
fn huge_pages_charge_full_span() {
    let (mut k, job) = kernel(10_000);
    k.alloc_huge_pages(job, 4, |_| PageContent::synthetic_of_len(700))
        .unwrap();
    let cg = k.memcg(job).unwrap();
    assert_eq!(cg.usage().get(), 4 * HUGE_SPAN as u64);
    assert_eq!(k.machine_stats().resident.get(), 4 * HUGE_SPAN as u64);
    assert_eq!(k.free_frames().get(), 10_000 - 4 * 512);
}

#[test]
fn huge_page_allocation_respects_limits() {
    let (mut k, _) = kernel(1_000);
    let job2 = JobId::new(2);
    k.create_memcg(job2, PageCount::new(600)).unwrap();
    // One huge page (512 frames) fits the memcg limit; two do not.
    k.alloc_huge_pages(job2, 1, |_| PageContent::synthetic_of_len(700))
        .unwrap();
    assert!(k
        .alloc_huge_pages(job2, 1, |_| PageContent::synthetic_of_len(700))
        .is_err());
}

#[test]
fn cold_huge_page_splits_then_compresses() {
    let (mut k, job) = kernel(10_000);
    k.alloc_huge_pages(job, 2, |_| PageContent::synthetic_of_len(700))
        .unwrap();
    k.set_zswap_enabled(job, true).unwrap();
    for _ in 0..4 {
        k.run_scan();
    }
    // Histograms see frames, not entries: 1024 cold frames.
    assert_eq!(
        k.memcg(job)
            .unwrap()
            .cold_pages(PageAge::from_scans(2))
            .get(),
        2 * HUGE_SPAN as u64
    );
    let o = k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
    assert_eq!(o.huge_splits, 2);
    let stats = k.memcg(job).unwrap().stats();
    // The compressible share (~69%) of the 1024 base pages stores; the
    // rest is marked incompressible. Either way nothing huge remains
    // resident beyond the incompressible leftovers.
    assert_eq!(
        stats.zswapped_pages + stats.incompressible_marked,
        2 * HUGE_SPAN as u64
    );
    assert!(stats.zswapped_pages > 500);
    // Frame conservation.
    assert_eq!(
        stats.resident_pages + stats.zswapped_pages,
        2 * HUGE_SPAN as u64
    );
}

#[test]
fn touching_a_huge_page_keeps_all_its_frames_hot() {
    let (mut k, job) = kernel(10_000);
    k.alloc_huge_pages(job, 2, |_| PageContent::synthetic_of_len(700))
        .unwrap();
    k.set_zswap_enabled(job, true).unwrap();
    k.run_scan();
    for _ in 0..3 {
        // Touch only huge page 0 each scan period: one PMD access keeps
        // all 512 frames young.
        k.touch(job, PageId::new(0), false).unwrap();
        k.run_scan();
    }
    let cg = k.memcg(job).unwrap();
    // Page 1's frames are cold; page 0's are not.
    assert_eq!(
        cg.cold_pages(PageAge::from_scans(2)).get(),
        HUGE_SPAN as u64
    );
    assert_eq!(
        cg.working_set(PageAge::from_scans(1)).get(),
        HUGE_SPAN as u64
    );
    // Reclaim compresses only the idle huge page.
    let o = k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
    assert_eq!(o.huge_splits, 1);
}

#[test]
fn interleaved_hot_frames_pin_huge_pages_in_dram() {
    // The §7 point, demonstrated: the same 4 MiB of memory with one hot
    // 4 KiB region per 2 MiB saves nothing under huge pages (the hot
    // frame keeps the whole PMD young), but saves almost everything when
    // mapped as base pages.
    let (mut k_huge, job) = kernel(10_000);
    k_huge
        .alloc_huge_pages(job, 2, |_| PageContent::synthetic_of_len(700))
        .unwrap();
    k_huge.set_zswap_enabled(job, true).unwrap();

    let (mut k_base, job_b) = kernel(10_000);
    k_base
        .alloc_pages(job_b, 2 * HUGE_SPAN as usize, |_| {
            PageContent::synthetic_of_len(700)
        })
        .unwrap();
    k_base.set_zswap_enabled(job_b, true).unwrap();

    for _ in 0..4 {
        // One hot 4 KiB location inside each 2 MiB region.
        k_huge.touch(job, PageId::new(0), false).unwrap();
        k_huge.touch(job, PageId::new(1), false).unwrap();
        k_base.touch(job_b, PageId::new(0), false).unwrap();
        k_base
            .touch(job_b, PageId::new(HUGE_SPAN as u64), false)
            .unwrap();
        k_huge.run_scan();
        k_base.run_scan();
    }
    let t = PageAge::from_scans(2);
    k_huge.reclaim_job(job, t).unwrap();
    k_base.reclaim_job(job_b, t).unwrap();

    let huge_saved = k_huge.memcg(job).unwrap().stats().zswapped_pages;
    let base_saved = k_base.memcg(job_b).unwrap().stats().zswapped_pages;
    assert_eq!(huge_saved, 0, "hot frames must pin whole huge pages");
    assert!(
        base_saved > 600,
        "base pages should compress the cold bulk, got {base_saved}"
    );
}

#[test]
fn split_preserves_page_ids_and_frees_cleanly() {
    let (mut k, job) = kernel(10_000);
    k.alloc_huge_pages(job, 1, |_| PageContent::synthetic_of_len(700))
        .unwrap();
    k.set_zswap_enabled(job, true).unwrap();
    for _ in 0..3 {
        k.run_scan();
    }
    k.reclaim_job(job, PageAge::from_scans(2)).unwrap();
    // Page id 0 still resolves (now a base page, possibly compressed).
    k.touch(job, PageId::new(0), false).unwrap();
    // Freeing everything returns the machine to a clean state.
    k.free_pages(job, HUGE_SPAN as usize).unwrap();
    assert_eq!(k.memcg(job).unwrap().usage(), PageCount::ZERO);
    assert_eq!(k.zswap().resident_objects(), 0);
    assert_eq!(k.free_frames().get(), 10_000);
}

#[test]
fn tiered_reclaim_splits_huge_pages_before_either_tier() {
    use sdfm_kernel::BackendConfig;
    let (mut k, job) = kernel(10_000);
    k.enable_chain(&[
        BackendConfig::nvm_like(PageCount::new(600)),
        BackendConfig::compressed_ram(),
    ]);
    k.alloc_huge_pages(job, 2, |_| PageContent::synthetic_of_len(700))
        .unwrap();
    k.set_zswap_enabled(job, true).unwrap();
    for _ in 0..4 {
        k.run_scan();
    }
    let o = k
        .reclaim_job_tiered(job, PageAge::from_scans(2), PageAge::from_scans(40))
        .unwrap();
    assert_eq!(o.huge_splits, 2);
    let s = k.memcg(job).unwrap().stats();
    // Warm-cold frames fill the 600-page device; the rest stays resident
    // (they are younger than the 40-scan zswap threshold).
    assert_eq!(s.demoted_total(), 600);
    assert_eq!(k.chain_stats().unwrap()[0].resident_pages, 600);
    assert_eq!(
        s.resident_pages + s.demoted_total() + s.zswapped_pages,
        2 * HUGE_SPAN as u64,
        "frame conservation through tiered split"
    );
}

#[test]
fn direct_reclaim_splits_huge_pages_under_pressure() {
    // Machine has 1200 frames; the memcg limit is roomier so the second
    // allocation exercises machine pressure, not the fail-fast path.
    let mut k = Kernel::new(KernelConfig {
        capacity: PageCount::new(1_200),
        ..KernelConfig::default()
    });
    let job = JobId::new(1);
    k.create_memcg(job, PageCount::new(5_000)).unwrap();
    k.alloc_huge_pages(job, 2, |_| PageContent::synthetic_of_len(700))
        .unwrap();
    for _ in 0..3 {
        k.run_scan();
    }
    // 1024 of 1200 frames used; ask for 300 more: direct reclaim must
    // split and compress huge-page frames to make room.
    k.alloc_pages(job, 300, |_| PageContent::synthetic_of_len(700))
        .unwrap();
    let s = k.memcg(job).unwrap().stats();
    assert!(s.zswapped_pages > 0, "nothing compressed under pressure");
    assert_eq!(
        s.resident_pages + s.zswapped_pages,
        2 * HUGE_SPAN as u64 + 300,
        "frame conservation through direct-reclaim split"
    );
}
