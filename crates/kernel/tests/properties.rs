//! Property tests: kernel page-accounting conservation under arbitrary
//! interleavings of accesses, scans, reclaims, and frees.

use proptest::prelude::*;
use sdfm_kernel::{BackendConfig, Kernel, KernelConfig, PageContent};
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
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), any::<bool>()).prop_map(|(p, w)| Op::Touch(p, w)),
        2 => Just(Op::Scan),
        2 => (1u8..=20).prop_map(Op::Reclaim),
        1 => (1u8..=10).prop_map(Op::Free),
        1 => Just(Op::Compact),
    ]
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
    assert!(ms.resident + ms.zswap_footprint + ms.free == ms.capacity);
    // The zswap arena holds exactly the memcg's compressed pages.
    assert_eq!(kernel.zswap().resident_objects(), s.zswapped_pages);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-tier kernel: pages are conserved across every operation
    /// interleaving, and machine-level accounting always agrees with the
    /// per-memcg view.
    #[test]
    fn page_accounting_is_conserved(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut kernel = Kernel::new(KernelConfig {
            capacity: PageCount::new(4_000),
            ..KernelConfig::default()
        });
        let job = JobId::new(1);
        kernel.create_memcg(job, PageCount::new(8_000)).unwrap();
        kernel
            .alloc_pages(job, 1_000, |i| {
                PageContent::synthetic_of_len(300 + (i % 12) * 256)
            })
            .unwrap();
        kernel.set_zswap_enabled(job, true).unwrap();
        let mut live = 1_000u64;
        for op in ops {
            match op {
                Op::Touch(p, w) => {
                    if live > 0 {
                        let idx = p as u64 % live;
                        kernel.touch(job, PageId::new(idx), w).unwrap();
                    }
                }
                Op::Scan => {
                    kernel.run_scan();
                }
                Op::Reclaim(t) => {
                    kernel.reclaim_job(job, PageAge::from_scans(t)).unwrap();
                }
                Op::Free(n) => {
                    let n = (n as u64).min(live) as usize;
                    kernel.free_pages(job, n).unwrap();
                    live -= n as u64;
                }
                Op::Compact => {
                    kernel.compact_zswap();
                }
            }
            check_conservation(&kernel, job, live);
        }
        // Teardown releases everything.
        kernel.remove_memcg(job).unwrap();
        prop_assert_eq!(kernel.zswap().resident_objects(), 0);
        prop_assert_eq!(kernel.free_frames(), PageCount::new(4_000));
    }

    /// Two-tier kernel: the same conservation holds with the tiered
    /// reclaim ladder, and the tier-1 device count always matches the sum
    /// of per-memcg tier-1 pages.
    #[test]
    fn tiered_accounting_is_conserved(
        ops in prop::collection::vec(op_strategy(), 1..60),
        nvm in 50u64..500,
    ) {
        let mut kernel = Kernel::new(KernelConfig {
            capacity: PageCount::new(4_000),
            ..KernelConfig::default()
        });
        kernel.enable_chain(&[
            BackendConfig::nvm_like(PageCount::new(nvm)),
            BackendConfig::compressed_ram(),
        ]);
        let job = JobId::new(1);
        kernel.create_memcg(job, PageCount::new(8_000)).unwrap();
        kernel
            .alloc_pages(job, 800, |i| PageContent::synthetic_of_len(300 + (i % 12) * 256))
            .unwrap();
        kernel.set_zswap_enabled(job, true).unwrap();
        let mut live = 800u64;
        for op in ops {
            match op {
                Op::Touch(p, w) => {
                    if live > 0 {
                        kernel.touch(job, PageId::new(p as u64 % live), w).unwrap();
                    }
                }
                Op::Scan => {
                    kernel.run_scan();
                }
                Op::Reclaim(t) => {
                    let t1 = PageAge::from_scans(t.clamp(1, 250));
                    let t2 = PageAge::from_scans(t.clamp(1, 250).saturating_add(4));
                    kernel.reclaim_job_tiered(job, t1, t2).unwrap();
                }
                Op::Free(n) => {
                    let n = (n as u64).min(live) as usize;
                    kernel.free_pages(job, n).unwrap();
                    live -= n as u64;
                }
                Op::Compact => {
                    kernel.compact_zswap();
                }
            }
            check_conservation(&kernel, job, live);
            let device = kernel.chain_stats().expect("chain attached")[0];
            prop_assert_eq!(
                device.resident_pages,
                kernel.memcg(job).unwrap().stats().demoted_total()
            );
            prop_assert!(device.resident_pages <= nvm, "device overfilled");
        }
        kernel.remove_memcg(job).unwrap();
        prop_assert_eq!(kernel.chain_stats().unwrap()[0].resident_pages, 0);
    }

    /// Three-tier kernel (zswap → SSD → remote): conservation holds across
    /// interleavings of demotion ticks, faults, and frees; capacity-full
    /// SSD rejections overflow to the remote tier and are counted.
    #[test]
    fn chain_accounting_is_conserved(
        ops in prop::collection::vec(op_strategy(), 1..60),
        ssd in 10u64..120,
    ) {
        use sdfm_kernel::StorePressure;
        let mut kernel = Kernel::new(KernelConfig {
            capacity: PageCount::new(4_000),
            ..KernelConfig::default()
        });
        kernel.enable_chain(&[
            BackendConfig::compressed_ram(),
            BackendConfig::ssd(PageCount::new(ssd)),
            BackendConfig::remote(),
        ]);
        let job = JobId::new(1);
        kernel.create_memcg(job, PageCount::new(8_000)).unwrap();
        kernel
            .alloc_pages(job, 800, |i| PageContent::synthetic_of_len(300 + (i % 12) * 256))
            .unwrap();
        kernel.set_zswap_enabled(job, true).unwrap();
        let mut live = 800u64;
        for op in ops {
            match op {
                Op::Touch(p, w) => {
                    if live > 0 {
                        kernel.touch(job, PageId::new(p as u64 % live), w).unwrap();
                    }
                }
                Op::Scan => {
                    kernel.run_scan();
                }
                Op::Reclaim(t) => {
                    // Compress the cold mass, then push one decay window
                    // of the coldest compressed pages down the chain.
                    kernel.reclaim_job(job, PageAge::from_scans(t.clamp(1, 250))).unwrap();
                    let zswapped = kernel.memcg(job).unwrap().stats().zswapped_pages;
                    let budget = StorePressure::PAPER_DEFAULT.decay_step(zswapped);
                    kernel.demote_job(job, budget).unwrap();
                }
                Op::Free(n) => {
                    let n = (n as u64).min(live) as usize;
                    kernel.free_pages(job, n).unwrap();
                    live -= n as u64;
                }
                Op::Compact => {
                    kernel.compact_zswap();
                }
            }
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
        kernel.remove_memcg(job).unwrap();
        let stats = kernel.chain_stats().unwrap();
        prop_assert_eq!(kernel.chain().unwrap().device_resident_pages(), 0);
        // Teardown closes the books: everything stored was loaded back or
        // discarded.
        for tier in &stats {
            prop_assert_eq!(tier.stores, tier.loads + tier.discards);
        }
    }

    /// Faulted pages always come back with identical content (real pages,
    /// random touch/reclaim interleavings).
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
        let contents = pages.clone();
        kernel
            .alloc_pages(job, 40, |i| PageContent::Real(contents[i].clone()))
            .unwrap();
        kernel.set_zswap_enabled(job, true).unwrap();
        for op in ops {
            match op {
                Op::Touch(p, w) => {
                    // touch() itself asserts content equality on fault.
                    kernel.touch(job, PageId::new(p as u64 % 40), w).unwrap();
                }
                Op::Scan => { kernel.run_scan(); }
                Op::Reclaim(t) => {
                    kernel
                        .reclaim_job(job, PageAge::from_scans(t.clamp(1, 255)))
                        .unwrap();
                }
                Op::Free(_) | Op::Compact => { kernel.compact_zswap(); }
            }
        }
        // Fault everything back and let touch() verify byte equality.
        for i in 0..40 {
            kernel.touch(job, PageId::new(i), false).unwrap();
        }
    }
}
