//! The §8 future-work experiment: one software tier (zswap) vs one
//! hardware tier (fixed-capacity NVM) vs the combined two-tier ladder —
//! and the generalized demotion chain (zswap → SSD → remote) behind the
//! same measurement harness.
//!
//! The paper's closing vision: "multiple tiers of far memory (sub-µs
//! tier-1 and single-µs tier-2), all managed intelligently". This
//! experiment runs the same workload under four far-memory
//! configurations and reports the trade the paper predicts:
//!
//! * **zswap only** — elastic capacity, but every fault pays single-digit
//!   µs of decompression;
//! * **tier-1 only** — sub-µs faults, but the fixed device strands when
//!   cold memory exceeds it (§2.1's provisioning dilemma);
//! * **two-tier** — warm-cold pages sit in the fast device, deep-cold
//!   overflows into compression: most of the DRAM savings at a fraction
//!   of the mean fault latency, with no stranding;
//! * **three-tier** — compression in front of a finite SSD with remote
//!   overflow: the coldest compressed pages decay *down* the chain under
//!   [`StorePressure`], so a full SSD spills to the remote tier instead
//!   of stranding demand.
//!
//! All four modes run on the generalized [`sdfm_kernel::DemotionChain`];
//! the two-tier modes are the exact two-backend special case — an
//! NVM-like device ([`BackendConfig::nvm_like`], warmest) followed by
//! compressed RAM.

use serde::{Deserialize, Serialize};

use sdfm_kernel::{BackendConfig, BackendKind, Kernel, KernelConfig, StorePressure};
use sdfm_types::histogram::PageAge;
use sdfm_types::ids::JobId;
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime, MINUTE};
use sdfm_workloads::profile::{DiurnalPattern, JobPriority, JobProfile, RateBucket};
use sdfm_workloads::PageLevelDriver;

/// Which far-memory configuration ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TierMode {
    /// zswap only (the paper's production system).
    ZswapOnly,
    /// Fixed-capacity NVM only.
    Tier1Only,
    /// Both, with the demotion ladder.
    TwoTier,
    /// Compressed RAM in front of a finite SSD with remote overflow,
    /// drained by the [`StorePressure`] demotion policy.
    ThreeTier,
}

impl std::fmt::Display for TierMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierMode::ZswapOnly => write!(f, "zswap-only"),
            TierMode::Tier1Only => write!(f, "tier1-only"),
            TierMode::TwoTier => write!(f, "two-tier"),
            TierMode::ThreeTier => write!(f, "three-tier"),
        }
    }
}

/// One configuration's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierOutcome {
    /// Which configuration.
    pub mode: TierMode,
    /// Mean DRAM pages freed over the measurement span (zswap savings +
    /// device-tier demotions).
    pub mean_dram_saved: f64,
    /// Mean device-tier pages occupied (NVM / SSD / remote).
    pub mean_nvm_used: f64,
    /// Faults served by device tiers (NVM, SSD, or remote).
    pub tier1_faults: u64,
    /// Faults served by zswap (single-digit µs decompression).
    pub tier2_faults: u64,
    /// Mean fault-back latency in µs across all tiers.
    pub mean_fault_latency_us: f64,
    /// Demotions a full device refused (stranding / overflow events).
    pub stranding_rejections: u64,
    /// Per-byte transfer dollars the chain accrued, in nanocents —
    /// nonzero only when a costed (remote) tier saw traffic.
    pub transfer_cost_nanocents: u64,
}

fn workload() -> JobProfile {
    JobProfile {
        template: "two-tier".into(),
        rate_buckets: vec![
            RateBucket {
                pages: 6_000,
                rate_per_sec: 0.1, // hot
            },
            RateBucket {
                pages: 3_000,
                rate_per_sec: 1.0 / 900.0, // warm-cold: faults back often
            },
            RateBucket {
                pages: 5_000,
                rate_per_sec: 1.0 / 7_200.0, // cool
            },
            RateBucket {
                pages: 2_000,
                rate_per_sec: 1e-9, // frozen
            },
        ],
        diurnal: DiurnalPattern::FLAT,
        mix: sdfm_compress::gen::CompressibilityMix::fleet_default(),
        cpu_cores: 2.0,
        write_fraction: 0.1,
        burst_interval: None,
        priority: JobPriority::Batch,
        lifetime: SimDuration::from_hours(10_000),
    }
}

/// Runs all four configurations on identical workloads.
pub fn experiment_two_tier(minutes: u64, nvm_pages: u64, seed: u64) -> Vec<TierOutcome> {
    experiment_tier_modes(
        &[
            TierMode::ZswapOnly,
            TierMode::Tier1Only,
            TierMode::TwoTier,
            TierMode::ThreeTier,
        ],
        minutes,
        nvm_pages,
        seed,
    )
}

/// Runs a chosen subset of configurations on identical workloads.
pub fn experiment_tier_modes(
    modes: &[TierMode],
    minutes: u64,
    nvm_pages: u64,
    seed: u64,
) -> Vec<TierOutcome> {
    modes
        .iter()
        .map(|&mode| run_mode(mode, minutes, nvm_pages, seed))
        .collect()
}

fn run_mode(mode: TierMode, minutes: u64, nvm_pages: u64, seed: u64) -> TierOutcome {
    let job = JobId::new(1);
    let mut kernel = Kernel::new(KernelConfig {
        capacity: PageCount::new(40_000),
        ..KernelConfig::default()
    });
    match mode {
        TierMode::ZswapOnly => {}
        TierMode::Tier1Only | TierMode::TwoTier => {
            kernel.enable_chain(&[
                BackendConfig::nvm_like(PageCount::new(nvm_pages)),
                BackendConfig::compressed_ram(),
            ]);
        }
        TierMode::ThreeTier => {
            kernel.enable_chain(&[
                BackendConfig::compressed_ram(),
                BackendConfig::ssd(PageCount::new(nvm_pages)),
                BackendConfig::remote(),
            ]);
        }
    }
    let mut driver = PageLevelDriver::new(job, workload(), seed);
    driver.populate(&mut kernel).expect("fits");
    kernel.set_zswap_enabled(job, true).expect("job exists");

    // Thresholds: warm-cold boundary at 4 minutes, deep-cold at 1 hour.
    let t1 = PageAge::from_scans(2);
    let t2 = PageAge::from_scans(30);

    let mut dram_saved_sum = 0.0;
    let mut nvm_used_sum = 0.0;
    for m in 1..=minutes {
        let now = SimTime::ZERO + MINUTE * m;
        driver.run_window(&mut kernel, now, MINUTE).expect("runs");
        if now.as_secs().is_multiple_of(120) {
            kernel.run_scan();
        }
        match mode {
            TierMode::ZswapOnly => {
                kernel.reclaim_job(job, t1).expect("job exists");
            }
            TierMode::Tier1Only => {
                kernel
                    .reclaim_job_tiered(job, t1, PageAge::MAX)
                    .expect("job exists");
            }
            TierMode::TwoTier => {
                kernel.reclaim_job_tiered(job, t1, t2).expect("job exists");
            }
            TierMode::ThreeTier => {
                // Compress the cold mass, then push one decay window of
                // the coldest compressed pages down the chain.
                kernel.reclaim_job(job, t1).expect("job exists");
                let zswapped = kernel.memcg(job).expect("job exists").stats().zswapped_pages;
                let budget = StorePressure::PAPER_DEFAULT.decay_step(zswapped);
                kernel.demote_job(job, budget).expect("job exists");
            }
        }
        let s = kernel.machine_stats();
        dram_saved_sum += s.pages_saved_with_demoted().get() as f64;
        nvm_used_sum += s.demoted_total() as f64;
    }

    let cg_stats = kernel.memcg(job).expect("job exists").stats();
    let tier1_faults = cg_stats.demoted_loads_total();
    let tier2_faults = cg_stats.decompressions;
    let cost = kernel.config().cost;
    // Fault latency and overflow, generalized over the chain: each device
    // tier charges its configured fault cost per load; the compressed tier
    // charges the cost model's decompression. The two-tier modes reduce to
    // the old `tier1_faults × load_ns` arithmetic exactly.
    let (device_fault_ns, stranding_rejections, transfer_cost_nanocents) = match kernel.chain() {
        Some(chain) => {
            let mut ns = 0u64;
            let mut rejections = 0u64;
            for (cfg, st) in chain.configs().iter().zip(chain.stats()) {
                if cfg.kind != BackendKind::CompressedRam {
                    ns += st.loads * cfg.fault_ns();
                    rejections += st.full_rejections;
                }
            }
            (ns, rejections, chain.transfer_cost_nanocents())
        }
        None => (0, 0, 0),
    };
    let total_faults = tier1_faults + tier2_faults;
    let mean_fault_latency_us = if total_faults == 0 {
        0.0
    } else {
        (device_fault_ns as f64 + tier2_faults as f64 * cost.decompress_ns as f64)
            / total_faults as f64
            / 1_000.0
    };
    TierOutcome {
        mode,
        mean_dram_saved: dram_saved_sum / minutes as f64,
        mean_nvm_used: nvm_used_sum / minutes as f64,
        tier1_faults,
        tier2_faults,
        mean_fault_latency_us,
        stranding_rejections,
        transfer_cost_nanocents,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tier_beats_both_single_tiers() {
        let outcomes = experiment_tier_modes(
            &[TierMode::ZswapOnly, TierMode::Tier1Only, TierMode::TwoTier],
            180,
            4_000,
            7,
        );
        let by_mode = |m: TierMode| *outcomes.iter().find(|o| o.mode == m).expect("ran");
        let zswap = by_mode(TierMode::ZswapOnly);
        let tier1 = by_mode(TierMode::Tier1Only);
        let two = by_mode(TierMode::TwoTier);

        // The fixed device strands: cold memory (~9k pages) exceeds its
        // 4k capacity.
        assert!(
            tier1.stranding_rejections > 0,
            "tier-1-only never hit its capacity wall"
        );
        assert!(tier1.mean_dram_saved < zswap.mean_dram_saved);

        // Two-tier frees at least as much DRAM as zswap alone (tier-1
        // absorbs warm-cold, zswap takes deep-cold)...
        assert!(
            two.mean_dram_saved > zswap.mean_dram_saved * 0.9,
            "two-tier saved {} vs zswap {}",
            two.mean_dram_saved,
            zswap.mean_dram_saved
        );
        // ...at a far lower mean fault latency (warm faults hit the sub-µs
        // device instead of the decompressor).
        assert!(
            two.mean_fault_latency_us < zswap.mean_fault_latency_us * 0.6,
            "two-tier latency {} vs zswap {}",
            two.mean_fault_latency_us,
            zswap.mean_fault_latency_us
        );
        assert!(
            two.tier1_faults > two.tier2_faults,
            "warm faults should dominate and hit tier-1"
        );
        // Nothing in the NVM ladder is dollar-costed.
        assert_eq!(two.transfer_cost_nanocents, 0);
    }

    #[test]
    fn zswap_only_uses_no_nvm() {
        let outcomes = experiment_tier_modes(&[TierMode::ZswapOnly], 30, 2_000, 9);
        let zswap = outcomes
            .iter()
            .find(|o| o.mode == TierMode::ZswapOnly)
            .expect("ran");
        assert_eq!(zswap.mean_nvm_used, 0.0);
        assert_eq!(zswap.tier1_faults, 0);
        assert_eq!(zswap.stranding_rejections, 0);
        assert_eq!(zswap.transfer_cost_nanocents, 0);
    }

    #[test]
    fn three_tier_overflows_a_full_ssd_to_remote() {
        let outcomes = experiment_tier_modes(&[TierMode::ThreeTier], 120, 1_000, 11);
        let three = outcomes
            .iter()
            .find(|o| o.mode == TierMode::ThreeTier)
            .expect("ran");
        // The decay policy sank compressed pages into the devices...
        assert!(three.mean_nvm_used > 0.0, "nothing demoted: {three:?}");
        assert!(three.mean_dram_saved > 0.0);
        // ...past the 1k-page SSD, so overflow landed on the costed
        // remote tier instead of stranding.
        assert!(
            three.stranding_rejections > 0,
            "SSD never filled: {three:?}"
        );
        assert!(
            three.transfer_cost_nanocents > 0,
            "remote traffic must accrue per-byte cost: {three:?}"
        );
    }
}
