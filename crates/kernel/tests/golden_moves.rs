//! Golden pins: hashes of everything the kernel's page-movement entry
//! points return, and of the counters they leave behind, over one seeded
//! schedule per chain shape — so a refactor of the Resident ↔ Zswapped ↔
//! Demoted transitions is provably behaviour-preserving.
//!
//! Every constant was recorded at the commit that introduced this file,
//! before any kernel source was edited. A mismatch means a simulated
//! number changed: that is either a bug or a deliberate model change that
//! must re-record the pin in its own commit.

use bytes::Bytes;
use sdfm_compress::gen::{CompressibilityMix, PageGenerator};
use sdfm_kernel::{
    BackendConfig, Kernel, KernelConfig, PageContent, PrefetchConfig, PrefetchMode, StorePressure,
};
use sdfm_types::histogram::PageAge;
use sdfm_types::ids::{JobId, PageId};
use sdfm_types::size::PageCount;

/// FNV-1a, 64-bit.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// splitmix64: the schedule's only randomness, independent of any crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The kernel under the schedule plus the running hash of what it
/// returned.
struct Run {
    k: Kernel,
    hash: u64,
    rng: Rng,
    jobs: Vec<JobId>,
}

impl Run {
    fn mix<T: std::fmt::Debug>(&mut self, value: &T) {
        self.hash = fnv1a64(self.hash, format!("{value:?}").as_bytes());
    }

    fn job(&mut self) -> JobId {
        let i = self.rng.below(self.jobs.len() as u64) as usize;
        self.jobs[i]
    }

    /// A page index somewhere in the job's charged frames (past the end
    /// of the table while a huge page is still whole: `NoSuchPage` is
    /// part of the pinned behaviour).
    fn page_of(&mut self, job: JobId) -> u64 {
        let frames = self.k.memcg(job).unwrap().usage().get().max(1);
        self.rng.below(frames)
    }

    fn touch(&mut self, job: JobId, page: u64, write: bool) {
        let r = self.k.touch(job, PageId::new(page), write);
        self.hash = fnv1a64(
            self.hash,
            &[match r {
                Ok(false) => 0,
                Ok(true) => 1,
                Err(_) => 2,
            }],
        );
    }

    fn step(&mut self) {
        let job = self.job();
        match self.rng.below(100) {
            // Random touches.
            0..=17 => {
                for _ in 0..24 {
                    let page = self.page_of(job);
                    let write = self.rng.below(4) == 0;
                    self.touch(job, page, write);
                }
            }
            // A strided run: arms the stride detector, trains the Markov
            // table, and demand-touches what earlier runs prefetched.
            18..=33 => {
                let start = self.page_of(job);
                let stride = 1 + self.rng.below(3);
                for i in 0..12 {
                    self.touch(job, start + i * stride, false);
                }
            }
            34..=49 => {
                let o = self.k.run_scan();
                self.mix(&o);
                // Jobs the disable arm left off come back eventually.
                if self.rng.below(4) == 0 {
                    self.k.set_zswap_enabled(job, true).unwrap();
                }
            }
            50..=59 => {
                let t = PageAge::from_scans(1 + self.rng.below(6) as u8);
                let o = self.k.reclaim_job(job, t);
                self.mix(&o);
            }
            60..=67 => {
                let t1 = 1 + self.rng.below(3) as u8;
                let t2 = t1 + self.rng.below(4) as u8;
                let o = self.k.reclaim_job_tiered(
                    job,
                    PageAge::from_scans(t1),
                    PageAge::from_scans(t2),
                );
                self.mix(&o);
            }
            68..=73 => {
                let zswapped = self.k.memcg(job).unwrap().stats().zswapped_pages;
                let budget = StorePressure::PAPER_DEFAULT.decay_step(zswapped);
                let o = self.k.demote_job(job, budget);
                self.mix(&o);
            }
            // Disable, let the dead store decay a few windows, re-enable.
            74..=77 => {
                self.k.set_zswap_enabled(job, false).unwrap();
                for _ in 0..1 + self.rng.below(4) {
                    let o = self
                        .k
                        .store_lifecycle_tick(job, &StorePressure::PAPER_DEFAULT);
                    self.mix(&o);
                }
                if self.rng.below(3) > 0 {
                    self.k.set_zswap_enabled(job, true).unwrap();
                }
            }
            // Raise the soft limit over the resident set: the youngest
            // compressed pages come back hot.
            78..=81 => {
                let s = self.k.memcg(job).unwrap().stats();
                let raise = self.rng.below(s.zswapped_pages.max(1) + 1);
                self.k
                    .set_soft_limit(job, PageCount::new(s.resident_pages + raise))
                    .unwrap();
                let o = self
                    .k
                    .store_lifecycle_tick(job, &StorePressure::PAPER_DEFAULT);
                self.mix(&o);
                self.k.set_soft_limit(job, PageCount::ZERO).unwrap();
            }
            // Allocate, usually past the free frames: direct reclaim.
            82..=87 => {
                let free = self.k.free_frames().get();
                let n = (free / 2 + self.rng.below(free / 2 + 64)) as usize;
                let r = if self.rng.below(8) == 0 {
                    self.k
                        .alloc_huge_pages(job, 1, |_| PageContent::synthetic_of_len(700))
                } else {
                    self.k.alloc_pages(job, n, |i| {
                        PageContent::synthetic_of_len(250 + (i % 13) * 240)
                    })
                };
                self.mix(&r);
            }
            88..=90 => {
                let o = self.k.relieve_host_pressure(&StorePressure::PAPER_DEFAULT);
                self.mix(&o);
            }
            91..=96 => {
                let n = 1 + self.rng.below(120) as usize;
                let r = self.k.free_pages(job, n);
                self.mix(&r);
            }
            _ => {
                let o = self.k.compact_zswap();
                self.mix(&o);
            }
        }
        let stats = self.k.memcg(job).unwrap().stats();
        self.mix(&stats);
        let machine = self.k.machine_stats();
        self.mix(&machine);
    }

    fn remove(&mut self, job: JobId) {
        let stats = self.k.remove_memcg(job);
        self.mix(&stats);
        self.jobs.retain(|&j| j != job);
    }
}

/// Runs the schedule on a kernel with the given chain and prefetcher and
/// returns the hash, plus the end-of-run counters the coverage asserts
/// read.
fn schedule(chain: &[BackendConfig], prefetch: PrefetchMode) -> (u64, Coverage) {
    let mut k = Kernel::new(KernelConfig {
        capacity: PageCount::new(2_600),
        prefetch: PrefetchConfig {
            mode: prefetch,
            ..PrefetchConfig::default()
        },
        ..KernelConfig::default()
    });
    if !chain.is_empty() {
        k.enable_chain(chain);
    }
    let jobs: Vec<JobId> = (1..=3).map(JobId::new).collect();
    for &job in &jobs {
        k.create_memcg(job, PageCount::new(3_000)).unwrap();
        k.set_zswap_enabled(job, true).unwrap();
    }
    // Job 1: synthetic base pages on both sides of the 2990-byte cutoff,
    // then a huge page.
    k.alloc_pages(jobs[0], 700, |i| {
        PageContent::synthetic_of_len(200 + (i % 16) * 200)
    })
    .unwrap();
    k.alloc_huge_pages(jobs[0], 1, |_| PageContent::synthetic_of_len(500))
        .unwrap();
    // Job 2: real fleet-mix pages (compressed and byte-verified for
    // real), then synthetic ones.
    let mut gen = PageGenerator::new(0x601D_0017);
    let mix = CompressibilityMix::fleet_default();
    let real: Vec<Bytes> = (0..48)
        .map(|_| Bytes::from(gen.generate_from_mix(&mix).1))
        .collect();
    k.alloc_pages(jobs[1], 48, |i| PageContent::Real(real[i].clone()))
        .unwrap();
    k.alloc_pages(jobs[1], 252, |i| {
        PageContent::synthetic_of_len(150 + (i % 9) * 330)
    })
    .unwrap();
    // Job 3: a huge page first, so its split appends behind base pages.
    k.alloc_huge_pages(jobs[2], 1, |_| PageContent::synthetic_of_len(900))
        .unwrap();
    k.alloc_pages(jobs[2], 200, |i| {
        PageContent::synthetic_of_len(400 + (i % 5) * 100)
    })
    .unwrap();

    let mut run = Run {
        k,
        hash: FNV_OFFSET,
        rng: Rng(0x5EED_0017),
        jobs,
    };
    for _ in 0..700 {
        run.step();
    }
    // One job exits mid-run; the survivors keep reusing its arena slots.
    run.remove(JobId::new(2));
    for _ in 0..200 {
        run.step();
    }
    let mut coverage = Coverage::default();
    for job in run.jobs.clone() {
        let s = run.k.memcg(job).unwrap().stats();
        coverage.compressions += s.compressions;
        coverage.rejections += s.rejections;
        coverage.decompressions += s.decompressions;
        coverage.writebacks += s.writebacks;
        coverage.demotions += s.demotions;
        coverage.demoted_loads += s.demoted_loads_total();
        coverage.prefetch_issued += s.prefetch_issued;
        coverage.prefetch_used += s.prefetch_used;
        coverage.prefetch_wasted += s.prefetch_wasted;
        coverage.prefetch_late += s.prefetch_late;
        run.remove(job);
    }
    let machine = run.k.machine_stats();
    run.mix(&machine);
    let cpu = run.k.cpu_accounting();
    run.mix(&cpu);
    let chain_stats = run.k.chain_stats();
    run.mix(&chain_stats);
    let store = run.k.zswap().stats();
    run.mix(&store);
    let arena = run.k.zswap().arena_stats();
    run.mix(&arena);
    assert_eq!(run.k.zswap().resident_objects(), 0, "teardown leaked");
    (run.hash, coverage)
}

/// What the surviving jobs' counters added up to: the schedule must reach
/// every move it claims to pin.
#[derive(Debug, Default)]
struct Coverage {
    compressions: u64,
    rejections: u64,
    decompressions: u64,
    writebacks: u64,
    demotions: u64,
    demoted_loads: u64,
    prefetch_issued: u64,
    prefetch_used: u64,
    prefetch_wasted: u64,
    prefetch_late: u64,
}

#[track_caller]
fn pin(what: &str, actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "{what}: golden hash is {actual:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn store_only_kernel_is_pinned() {
    let (hash, c) = schedule(&[], PrefetchMode::Off);
    assert!(
        c.compressions > 0 && c.rejections > 0 && c.decompressions > 0 && c.writebacks > 0,
        "schedule missed a store move: {c:?}"
    );
    assert_eq!(c.demotions + c.demoted_loads + c.prefetch_issued, 0);
    pin("no chain, prefetch off", hash, 0xc013_18a4_a0f9_667f);
}

#[test]
fn warm_device_kernel_is_pinned() {
    let (hash, c) = schedule(
        &[
            BackendConfig::nvm_like(PageCount::new(150)),
            BackendConfig::compressed_ram(),
        ],
        PrefetchMode::Off,
    );
    assert!(
        c.compressions > 0
            && c.rejections > 0
            && c.decompressions > 0
            && c.writebacks > 0
            && c.demotions > 0
            && c.demoted_loads > 0,
        "schedule missed a warm-device move: {c:?}"
    );
    pin(
        "[nvm_like, compressed_ram], prefetch off",
        hash,
        0xfb52_b6bb_2175_7149,
    );
}

#[test]
fn three_tier_prefetching_kernel_is_pinned() {
    let (hash, c) = schedule(
        &[
            BackendConfig::compressed_ram(),
            BackendConfig::ssd(PageCount::new(120)),
            BackendConfig::remote(),
        ],
        PrefetchMode::StrideMarkov,
    );
    assert!(
        c.compressions > 0
            && c.rejections > 0
            && c.decompressions > 0
            && c.writebacks > 0
            && c.demotions > 0
            && c.demoted_loads > 0
            && c.prefetch_issued > 0
            && c.prefetch_used > 0
            && c.prefetch_wasted > 0
            && c.prefetch_late > 0,
        "schedule missed a chain or prefetch move: {c:?}"
    );
    pin(
        "[compressed_ram, ssd, remote], stride+Markov prefetch",
        hash,
        0x34e2_7963_7a9e_b522,
    );
}
