//! Property tests: kernel page-accounting conservation under arbitrary
//! interleavings of accesses, scans, reclaims, store-lifecycle ticks,
//! pressure, and frees.

use proptest::prelude::*;
use sdfm_kernel::{
    BackendConfig, Kernel, KernelConfig, KernelError, PageContent, PrefetchConfig, PrefetchMode,
    StorePressure,
};
use sdfm_types::histogram::PageAge;
use sdfm_types::ids::{JobId, PageId};
use sdfm_types::size::PageCount;

#[derive(Debug, Clone)]
enum Op {
    Touch(u16, bool),
    Scan,
    Reclaim(u8),
    Free(u8),
    Compact,
    SetEnabled(bool),
    LifecycleTick,
    SoftLimit(u16),
    AllocUnderPressure(u8),
    RelievePressure,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u16>(), any::<bool>()).prop_map(|(p, w)| Op::Touch(p, w)),
        // A hot corner, so runs overlap: prefetched pages get their demand
        // touch and queued predictions get beaten to it.
        3 => (0u16..24, any::<bool>()).prop_map(|(p, w)| Op::Touch(p, w)),
        2 => Just(Op::Scan),
        2 => (1u8..=20).prop_map(Op::Reclaim),
        1 => (1u8..=10).prop_map(Op::Free),
        1 => Just(Op::Compact),
        1 => any::<bool>().prop_map(Op::SetEnabled),
        2 => Just(Op::LifecycleTick),
        1 => (0u16..1_500).prop_map(Op::SoftLimit),
        1 => any::<u8>().prop_map(Op::AllocUnderPressure),
        1 => Just(Op::RelievePressure),
    ]
}

fn synthetic(i: usize) -> PageContent {
    PageContent::synthetic_of_len(300 + (i % 12) * 256)
}

/// Applies one op to the single job under test, keeping `live` equal to
/// the pages it holds. `reclaim` is the case's own reclaim flavour.
fn apply(
    kernel: &mut Kernel,
    job: JobId,
    live: &mut u64,
    op: Op,
    reclaim: impl Fn(&mut Kernel, PageAge),
) {
    let policy = StorePressure::PAPER_DEFAULT;
    match op {
        // A short sequential run: faults far pages back (touch() itself
        // verifies real content) and arms the stride prefetcher.
        Op::Touch(p, w) => {
            for i in 0..3.min(*live) {
                let page = PageId::new((p as u64 + i) % *live);
                kernel.touch(job, page, w).unwrap();
            }
        }
        Op::Scan => {
            kernel.run_scan();
        }
        Op::Reclaim(t) => reclaim(kernel, PageAge::from_scans(t)),
        Op::Free(n) => {
            let n = (n as u64).min(*live);
            kernel.free_pages(job, n as usize).unwrap();
            *live -= n;
        }
        Op::Compact => {
            kernel.compact_zswap();
        }
        Op::SetEnabled(on) => kernel.set_zswap_enabled(job, on).unwrap(),
        // Disabled: the dead store decays (writeback, or demotion with a
        // tier below it). Enabled: a soft limit above the resident set
        // brings the youngest compressed pages back.
        Op::LifecycleTick => {
            kernel.store_lifecycle_tick(job, &policy).unwrap();
        }
        Op::SoftLimit(pages) => kernel
            .set_soft_limit(job, PageCount::new(pages as u64))
            .unwrap(),
        // Every free frame and then some: direct reclaim makes up the
        // difference or the allocation fails whole.
        Op::AllocUnderPressure(extra) => {
            let n = kernel.free_frames().get() + extra as u64;
            match kernel.alloc_pages(job, n as usize, synthetic) {
                Ok(()) => *live += n,
                Err(KernelError::OutOfMemory { .. } | KernelError::MemcgOverLimit { .. }) => {}
                Err(e) => panic!("allocation hit a store inconsistency: {e}"),
            }
        }
        Op::RelievePressure => {
            kernel.relieve_host_pressure(&policy).unwrap();
        }
    }
}

fn check_conservation(kernel: &Kernel, job: JobId, expected_pages: u64) {
    let cg = kernel.memcg(job).expect("job exists");
    let s = cg.stats();
    assert_eq!(
        s.resident_pages + s.zswapped_pages + s.demoted_total(),
        expected_pages,
        "page conservation broken: {s:?}"
    );
    assert_eq!(cg.usage().get(), expected_pages);
    let ms = kernel.machine_stats();
    assert_eq!(ms.resident.get(), s.resident_pages);
    assert_eq!(ms.zswapped_pages, s.zswapped_pages);
    assert_eq!(ms.demoted_pages, s.demoted_pages);
    // Writeback re-residents pages without asking for frames, so the
    // machine may be overcommitted; free frames then read zero.
    assert_eq!(
        ms.free,
        ms.capacity.saturating_sub(ms.resident + ms.zswap_footprint)
    );
    // The zswap arena holds exactly the memcg's compressed pages, byte
    // for byte.
    assert_eq!(kernel.zswap().resident_objects(), s.zswapped_pages);
    assert_eq!(kernel.zswap().arena_stats().stored_bytes, s.zswapped_bytes);
    // Resolved prefetches never outnumber issued ones.
    assert!(
        s.prefetch_used + s.prefetch_wasted <= s.prefetch_issued,
        "prefetch counters overshoot: {s:?}"
    );
    // The chain's device residency matches the page tables' view.
    if let Some(chain) = kernel.chain() {
        assert_eq!(chain.device_resident_pages(), s.demoted_total());
        for (i, tier) in chain.stats().iter().enumerate() {
            // Every page a tier accepted is exactly one of: still
            // resident there, faulted back, or discarded.
            assert_eq!(
                tier.stores,
                tier.resident_pages + tier.loads + tier.discards,
                "tier {i} leaked pages: {tier:?}"
            );
        }
    }
}

/// Teardown releases everything and closes the prefetch books.
fn teardown(kernel: &mut Kernel, job: JobId) {
    let fin = kernel.remove_memcg(job).unwrap();
    assert_eq!(
        fin.prefetch_used + fin.prefetch_wasted,
        fin.prefetch_issued,
        "teardown left prefetches unresolved: {fin:?}"
    );
    assert_eq!(kernel.zswap().resident_objects(), 0);
    assert_eq!(kernel.free_frames(), kernel.config().capacity);
}

fn kernel_with_job(capacity: u64, pages: usize, prefetch: PrefetchMode) -> (Kernel, JobId) {
    let mut kernel = Kernel::new(KernelConfig {
        capacity: PageCount::new(capacity),
        prefetch: PrefetchConfig {
            mode: prefetch,
            ..PrefetchConfig::default()
        },
        ..KernelConfig::default()
    });
    let job = JobId::new(1);
    kernel
        .create_memcg(job, PageCount::new(2 * capacity))
        .unwrap();
    kernel.alloc_pages(job, pages, synthetic).unwrap();
    kernel.set_zswap_enabled(job, true).unwrap();
    // Start cold enough that about half the reclaim ops find victims.
    for _ in 0..10 {
        kernel.run_scan();
    }
    (kernel, job)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-tier kernel: pages are conserved across every operation
    /// interleaving, and machine-level accounting always agrees with the
    /// per-memcg view.
    #[test]
    fn page_accounting_is_conserved(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let (mut kernel, job) = kernel_with_job(4_000, 1_000, PrefetchMode::Off);
        let mut live = 1_000u64;
        for op in ops {
            apply(&mut kernel, job, &mut live, op, |k, t| {
                k.reclaim_job(job, t).unwrap();
            });
            check_conservation(&kernel, job, live);
        }
        teardown(&mut kernel, job);
    }

    /// Two-tier kernel: the same conservation holds with the tiered
    /// reclaim ladder, and the tier-1 device count always matches the sum
    /// of per-memcg tier-1 pages.
    #[test]
    fn tiered_accounting_is_conserved(
        ops in prop::collection::vec(op_strategy(), 1..60),
        nvm in 50u64..500,
    ) {
        let (mut kernel, job) = kernel_with_job(4_000, 800, PrefetchMode::Off);
        kernel.enable_chain(&[
            BackendConfig::nvm_like(PageCount::new(nvm)),
            BackendConfig::compressed_ram(),
        ]);
        let mut live = 800u64;
        for op in ops {
            apply(&mut kernel, job, &mut live, op, |k, t1| {
                let t2 = PageAge::from_scans(t1.as_scans() + 4);
                k.reclaim_job_tiered(job, t1, t2).unwrap();
            });
            check_conservation(&kernel, job, live);
            let device = kernel.chain_stats().expect("chain attached")[0];
            prop_assert_eq!(
                device.resident_pages,
                kernel.memcg(job).unwrap().stats().demoted_total()
            );
            prop_assert!(device.resident_pages <= nvm, "device overfilled");
        }
        teardown(&mut kernel, job);
        prop_assert_eq!(kernel.chain_stats().unwrap()[0].resident_pages, 0);
    }

    /// Three-tier kernel (zswap → SSD → remote), with and without the
    /// prefetcher: conservation holds across interleavings of demotion
    /// ticks, faults, predicted promotions, and frees; capacity-full SSD
    /// rejections overflow to the remote tier and are counted.
    #[test]
    fn chain_accounting_is_conserved(
        ops in prop::collection::vec(op_strategy(), 1..60),
        ssd in 10u64..120,
        prefetch in any::<bool>(),
    ) {
        let mode = if prefetch { PrefetchMode::StrideMarkov } else { PrefetchMode::Off };
        let (mut kernel, job) = kernel_with_job(4_000, 800, mode);
        kernel.enable_chain(&[
            BackendConfig::compressed_ram(),
            BackendConfig::ssd(PageCount::new(ssd)),
            BackendConfig::remote(),
        ]);
        let mut live = 800u64;
        for op in ops {
            apply(&mut kernel, job, &mut live, op, |k, t| {
                // Compress the cold mass, then push one decay window of
                // the coldest compressed pages down the chain.
                k.reclaim_job(job, t).unwrap();
                let zswapped = k.memcg(job).unwrap().stats().zswapped_pages;
                let budget = StorePressure::PAPER_DEFAULT.decay_step(zswapped);
                k.demote_job(job, budget).unwrap();
            });
            check_conservation(&kernel, job, live);
            let stats = kernel.chain_stats().expect("chain attached");
            // The SSD never overfills; demand past its capacity lands on
            // the remote tier (and each spill counts a rejection).
            prop_assert!(stats[1].resident_pages <= ssd, "SSD overfilled");
            if stats[2].stores > 0 {
                prop_assert!(
                    stats[1].full_rejections >= stats[2].stores,
                    "remote stores without SSD rejections: {stats:?}"
                );
            }
        }
        teardown(&mut kernel, job);
        let stats = kernel.chain_stats().unwrap();
        prop_assert_eq!(kernel.chain().unwrap().device_resident_pages(), 0);
        // Teardown closes the books: everything stored was loaded back or
        // discarded.
        for tier in &stats {
            prop_assert_eq!(tier.stores, tier.loads + tier.discards);
        }
    }

    /// Pages always come back with identical content, whichever path
    /// brings them back (real pages; demand faults, soft-limit and decay
    /// writeback all byte-compare against the original).
    #[test]
    fn real_content_is_never_corrupted(
        seed in any::<u64>(),
        ops in prop::collection::vec(op_strategy(), 1..30),
    ) {
        use sdfm_compress::gen::{CompressibilityMix, PageGenerator};
        let mut g = PageGenerator::new(seed);
        let mix = CompressibilityMix::fleet_default();
        let mut kernel = Kernel::new(KernelConfig {
            capacity: PageCount::new(500),
            ..KernelConfig::default()
        });
        let job = JobId::new(1);
        kernel.create_memcg(job, PageCount::new(1_000)).unwrap();
        let pages: Vec<bytes::Bytes> =
            (0..40).map(|_| bytes::Bytes::from(g.generate_from_mix(&mix).1)).collect();
        kernel
            .alloc_pages(job, 40, |i| PageContent::Real(pages[i].clone()))
            .unwrap();
        kernel.set_zswap_enabled(job, true).unwrap();
        let mut live = 40u64;
        for op in ops {
            apply(&mut kernel, job, &mut live, op, |k, t| {
                k.reclaim_job(job, t).unwrap();
            });
            check_conservation(&kernel, job, live);
        }
        // Fault everything back and let touch() verify byte equality.
        for i in 0..live {
            kernel.touch(job, PageId::new(i), false).unwrap();
        }
        teardown(&mut kernel, job);
    }
}
