//! Ablations of the design choices the paper calls out.
//!
//! 1. **Proactive vs reactive** (§3.2): upstream zswap compresses only
//!    under direct reclaim; the paper's system compresses cold pages in
//!    the background. Reactive realizes no savings until pressure and
//!    suffers bursty faults.
//! 2. **Global vs per-memcg zsmalloc arena** (§5.1): per-job arenas
//!    fragment externally when machines pack many jobs.
//! 3. **K-percentile + spike override vs last-window-best** (§4.3): the
//!    naive controller violates the SLO far more often.
//! 4. **GP Bandit vs random / grid search** (§5.3): sample efficiency of
//!    the tuner.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use super::Scale;
use sdfm_agent::{best_threshold_for_window, AgentParams, SloConfig};
use sdfm_compress::zsmalloc::ZsmallocArena;
use sdfm_model::{FarMemoryModel, JobTrace, ModelConfig};
use sdfm_types::histogram::{PageAge, PromotionHistogram};
use sdfm_types::time::SimDuration;

// ---------------------------------------------------------------------------
// Ablation 1: proactive vs reactive zswap
// ---------------------------------------------------------------------------

/// Outcome of the proactive-vs-reactive comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AblationReactive {
    /// Mean pages saved over the run, proactive control plane.
    pub proactive_mean_saved: f64,
    /// Mean pages saved, reactive (direct-reclaim-only) mode.
    pub reactive_mean_saved: f64,
    /// Peak promotions in any minute, proactive.
    pub proactive_peak_promotions: u64,
    /// Peak promotions in any minute, reactive.
    pub reactive_peak_promotions: u64,
}

/// Compares the proactive control plane against reactive
/// compress-on-pressure on an identical single-machine workload.
pub fn ablation_reactive(minutes: u64, seed: u64) -> AblationReactive {
    use sdfm_kernel::{Kernel, KernelConfig};
    use sdfm_types::ids::JobId;
    use sdfm_types::size::PageCount;
    use sdfm_types::time::{SimTime, MINUTE};
    use sdfm_workloads::profile::{DiurnalPattern, JobPriority, JobProfile, RateBucket};
    use sdfm_workloads::PageLevelDriver;

    let profile = JobProfile {
        template: "ablation".into(),
        rate_buckets: vec![
            RateBucket {
                pages: 2_000,
                rate_per_sec: 0.2,
            },
            RateBucket {
                pages: 1_000,
                rate_per_sec: 1.0 / 900.0,
            },
            RateBucket {
                pages: 7_000,
                rate_per_sec: 1e-9,
            },
        ],
        diurnal: DiurnalPattern::FLAT,
        mix: sdfm_compress::gen::CompressibilityMix::fleet_default(),
        cpu_cores: 2.0,
        write_fraction: 0.1,
        burst_interval: None,
        priority: JobPriority::Batch,
        lifetime: SimDuration::from_hours(10_000),
    };
    let job = JobId::new(1);
    let capacity = PageCount::new(11_000);

    let run = |proactive: bool| -> (f64, u64) {
        let mut kernel = Kernel::new(KernelConfig {
            capacity,
            ..KernelConfig::default()
        });
        let mut driver = PageLevelDriver::new(job, profile.clone(), seed);
        driver.populate(&mut kernel).expect("fits");
        let mut agent = sdfm_agent::NodeAgent::new(
            AgentParams::new(95.0, SimDuration::from_mins(4)).expect("valid"),
            SloConfig::default(),
        );
        if proactive {
            agent.register_job(job, SimTime::ZERO);
        }
        let mut saved_sum = 0.0;
        let mut peak_promos = 0u64;
        let mut prev_decomp = 0u64;
        for m in 1..=minutes {
            let now = SimTime::ZERO + MINUTE * m;
            driver.run_window(&mut kernel, now, MINUTE).expect("runs");
            if now.as_secs().is_multiple_of(120) {
                kernel.run_scan();
            }
            if proactive {
                agent.tick(now, &mut kernel);
            } else {
                // Reactive: compress only when the machine nears exhaustion
                // (here: simulate periodic pressure from colocated churn by
                // demanding headroom when free memory dips).
                if kernel.free_frames() < PageCount::new(800) {
                    kernel
                        .direct_reclaim(PageCount::new(1_500))
                        .expect("direct reclaim");
                }
                // Pressure source: a colocated allocation burst every 2 h.
                if m % 120 == 0 {
                    kernel
                        .direct_reclaim(PageCount::new(2_000))
                        .expect("direct reclaim");
                }
            }
            let stats = kernel.machine_stats();
            saved_sum += stats.pages_saved().get() as f64;
            let decomp = kernel.cpu_accounting().decompress_events;
            peak_promos = peak_promos.max(decomp - prev_decomp);
            prev_decomp = decomp;
        }
        (saved_sum / minutes as f64, peak_promos)
    };

    let (proactive_mean_saved, proactive_peak_promotions) = run(true);
    let (reactive_mean_saved, reactive_peak_promotions) = run(false);
    AblationReactive {
        proactive_mean_saved,
        reactive_mean_saved,
        proactive_peak_promotions,
        reactive_peak_promotions,
    }
}

// ---------------------------------------------------------------------------
// Ablation 2: global vs per-memcg zsmalloc arena
// ---------------------------------------------------------------------------

/// Outcome of the arena-layout comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AblationArena {
    /// Physical pages held by one global arena after churn.
    pub global_pages: u64,
    /// Sum of pages across per-job arenas after the same churn.
    pub per_job_pages: u64,
    /// External fragmentation, global.
    pub global_fragmentation: f64,
    /// Mean external fragmentation, per-job.
    pub per_job_fragmentation: f64,
}

/// Replays an identical allocation/free churn through one global arena and
/// through per-job arenas (§5.1: thousands of per-memcg arenas fragmented
/// to the point of negative gains).
pub fn ablation_arena(jobs: usize, objects_per_job: usize, seed: u64) -> AblationArena {
    let mut rng = StdRng::seed_from_u64(seed);
    // Script the churn once so both layouts see identical traffic:
    // (job, size, keep) tuples; ~70% of objects are freed afterwards.
    let script: Vec<(usize, usize, bool)> = (0..jobs * objects_per_job)
        .map(|i| (i % jobs, rng.gen_range(200..2_800), rng.gen_bool(0.3)))
        .collect();

    // Global arena.
    let mut global = ZsmallocArena::new();
    let mut global_handles = Vec::new();
    for &(_, size, keep) in &script {
        let h = global
            .alloc(Bytes::from(vec![0u8; size]))
            .expect("valid size");
        if !keep {
            global_handles.push(h);
        }
    }
    for h in global_handles {
        global.free(h).expect("live");
    }

    // Per-job arenas.
    let mut arenas: Vec<ZsmallocArena> = (0..jobs).map(|_| ZsmallocArena::new()).collect();
    let mut per_job_handles: Vec<Vec<_>> = vec![Vec::new(); jobs];
    for &(job, size, keep) in &script {
        let h = arenas[job]
            .alloc(Bytes::from(vec![0u8; size]))
            .expect("valid size");
        if !keep {
            per_job_handles[job].push(h);
        }
    }
    for (job, handles) in per_job_handles.into_iter().enumerate() {
        for h in handles {
            arenas[job].free(h).expect("live");
        }
    }

    let global_stats = global.stats();
    let per_job_pages: u64 = arenas.iter().map(|a| a.stats().zspage_pages).sum();
    let per_job_fragmentation = arenas
        .iter()
        .map(|a| a.stats().external_fragmentation())
        .sum::<f64>()
        / jobs as f64;
    AblationArena {
        global_pages: global_stats.zspage_pages,
        per_job_pages,
        global_fragmentation: global_stats.external_fragmentation(),
        per_job_fragmentation,
    }
}

// ---------------------------------------------------------------------------
// Ablation 3: the controller policy
// ---------------------------------------------------------------------------

/// Outcome of the controller-policy comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AblationController {
    /// Fraction of windows violating the SLO, K-percentile policy.
    pub kp_violation_rate: f64,
    /// Fraction of windows violating the SLO, last-window-best policy.
    pub naive_violation_rate: f64,
    /// Mean far-memory pages, K-percentile policy.
    pub kp_cold_pages: f64,
    /// Mean far-memory pages, naive policy.
    pub naive_cold_pages: f64,
}

/// Replays the same fleet trace under the paper's K-percentile policy and
/// under a naive "use last window's best" policy, comparing SLO violation
/// rates.
pub fn ablation_controller(traces: &[JobTrace], k: f64) -> AblationController {
    let slo = SloConfig::default();
    let target = slo.target.fraction_per_min();
    let config = ModelConfig::new(AgentParams::new(k, SimDuration::ZERO).expect("valid k"));

    let mut kp_viol = 0usize;
    let mut kp_total = 0usize;
    let mut kp_cold = 0.0;
    let mut naive_viol = 0usize;
    let mut naive_total = 0usize;
    let mut naive_cold = 0.0;
    let empty = PromotionHistogram::new();

    for trace in traces {
        // K-percentile via the production replay.
        let out = sdfm_model::replay_job(trace, &config);
        for w in &out.windows {
            if !w.enabled {
                continue;
            }
            kp_total += 1;
            kp_cold += w.cold_pages as f64;
            if w.normalized_rate.fraction_per_min() > target {
                kp_viol += 1;
            }
        }
        // Naive: threshold_i = best_{i-1}.
        let mut prev_best: Option<PageAge> = None;
        for r in &trace.records {
            if let Some(threshold) = prev_best {
                naive_total += 1;
                naive_cold += r.cold_hist.pages_colder_than(threshold) as f64;
                let promos = r.promo_delta.promotions_colder_than(threshold);
                let rate =
                    promos as f64 / r.window.as_mins_f64() / r.working_set.get().max(1) as f64;
                if rate > target {
                    naive_viol += 1;
                }
            }
            prev_best = Some(best_threshold_for_window(
                &r.promo_delta,
                &empty,
                r.working_set,
                r.window,
                &slo,
            ));
        }
    }
    AblationController {
        kp_violation_rate: kp_viol as f64 / kp_total.max(1) as f64,
        naive_violation_rate: naive_viol as f64 / naive_total.max(1) as f64,
        kp_cold_pages: kp_cold / kp_total.max(1) as f64,
        naive_cold_pages: naive_cold / naive_total.max(1) as f64,
    }
}

// ---------------------------------------------------------------------------
// Ablation 3b: accessed-bit scanning (kstaled) vs fault sampling (Thermostat)
// ---------------------------------------------------------------------------

/// Outcome of the cold-detection mechanism comparison (§7: the paper's
/// accessed-bit scanning vs Agarwal & Wenisch's Thermostat-style
/// page-fault sampling).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AblationThermostat {
    /// Ground-truth cold fraction from the access process.
    pub true_cold_fraction: f64,
    /// kstaled's measured cold fraction (exact up to scan quantization).
    pub kstaled_cold_fraction: f64,
    /// Thermostat's sampled estimate of the cold fraction.
    pub thermostat_cold_fraction: f64,
    /// Mean absolute error of the Thermostat estimate across periods.
    pub thermostat_mean_abs_err: f64,
    /// Pages kstaled walked over the run (its overhead unit).
    pub kstaled_pages_scanned: u64,
    /// Soft faults Thermostat induced over the run (its overhead unit).
    pub thermostat_faults_induced: u64,
}

/// Drives one job and measures both cold-detection mechanisms against the
/// profile's analytic ground truth.
pub fn ablation_thermostat(minutes: u64, sample_rate: f64, seed: u64) -> AblationThermostat {
    use sdfm_kernel::{Kernel, KernelConfig, ThermostatSampler};
    use sdfm_types::ids::JobId;
    use sdfm_types::size::PageCount;
    use sdfm_types::time::{SimTime, MINUTE};
    use sdfm_workloads::profile::{DiurnalPattern, JobPriority, JobProfile, RateBucket};
    use sdfm_workloads::PageLevelDriver;

    let profile = JobProfile {
        template: "thermostat-ablation".into(),
        rate_buckets: vec![
            RateBucket {
                pages: 4_000,
                rate_per_sec: 0.1,
            },
            RateBucket {
                pages: 2_000,
                rate_per_sec: 1.0 / 600.0,
            },
            RateBucket {
                pages: 4_000,
                rate_per_sec: 1e-9,
            },
        ],
        diurnal: DiurnalPattern::FLAT,
        mix: sdfm_compress::gen::CompressibilityMix::fleet_default(),
        cpu_cores: 2.0,
        write_fraction: 0.1,
        burst_interval: None,
        priority: JobPriority::Batch,
        lifetime: SimDuration::from_hours(10_000),
    };
    let true_cold_fraction = profile.expected_cold_fraction(120.0, 1.0);
    let job = JobId::new(1);
    let mut kernel = Kernel::new(KernelConfig {
        capacity: PageCount::new(30_000),
        ..KernelConfig::default()
    });
    let mut driver = PageLevelDriver::new(job, profile, seed);
    driver.populate(&mut kernel).expect("fits");
    // Thermostat periods match the kstaled cadence (2 minutes).
    let mut sampler = ThermostatSampler::new(sample_rate, 2.0, seed ^ 0x7E);

    let mut kstaled_pages = 0u64;
    let mut faults = 0u64;
    let mut est_errs = Vec::new();
    let mut last_kstaled_cold = 0.0;
    let mut last_thermostat_cold = 0.0;
    for m in 1..=minutes {
        let now = SimTime::ZERO + MINUTE * m;
        driver.run_window(&mut kernel, now, MINUTE).expect("runs");
        if now.as_secs().is_multiple_of(120) {
            // End the sampling period just before the scan, then restart.
            // (Order within the boundary minute does not matter for the
            // estimates; both observe the same access window.)
            {
                let cg = kernel.memcg_mut_for_experiments(job).expect("job exists");
                let est = sampler.end_period(cg);
                if est.sampled > 0 && m > 10 {
                    last_thermostat_cold = est.est_cold_fraction;
                    est_errs.push((est.est_cold_fraction - true_cold_fraction).abs());
                }
                faults += est.faults_induced;
            }
            let scan = kernel.run_scan();
            kstaled_pages += scan.pages_scanned;
            {
                let cg = kernel.memcg(job).expect("job exists");
                last_kstaled_cold = cg.cold_pages(PageAge::from_scans(1)).get() as f64
                    / cg.usage().get().max(1) as f64;
            }
            let cg = kernel.memcg_mut_for_experiments(job).expect("job exists");
            sampler.begin_period(cg);
        }
    }
    AblationThermostat {
        true_cold_fraction,
        kstaled_cold_fraction: last_kstaled_cold,
        thermostat_cold_fraction: last_thermostat_cold,
        thermostat_mean_abs_err: if est_errs.is_empty() {
            0.0
        } else {
            est_errs.iter().sum::<f64>() / est_errs.len() as f64
        },
        kstaled_pages_scanned: kstaled_pages,
        thermostat_faults_induced: faults,
    }
}

// ---------------------------------------------------------------------------
// Ablation 3c: kstaled scan cadence
// ---------------------------------------------------------------------------

/// One scan-cadence configuration's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScanCadenceRow {
    /// Minutes between kstaled scans.
    pub scan_every_mins: u64,
    /// Total pages walked by the scanner (its CPU proxy; the paper bounds
    /// kstaled at ~11% of one core).
    pub pages_scanned: u64,
    /// Mean pages saved over the run.
    pub mean_saved: f64,
    /// Realized promotions per minute (staleness makes the controller act
    /// on old ages, faulting more).
    pub promotions_per_min: f64,
}

/// Sweeps the kstaled scan cadence (§5.1: "we empirically tune its scan
/// period while trading off for finer-grained page access information").
/// Finer scans cost CPU; coarser scans blur the histograms and delay the
/// controller.
pub fn ablation_scan_period(minutes: u64, seed: u64) -> Vec<ScanCadenceRow> {
    use sdfm_agent::NodeAgent;
    use sdfm_kernel::{Kernel, KernelConfig};
    use sdfm_types::ids::JobId;
    use sdfm_types::size::PageCount;
    use sdfm_types::time::{SimTime, MINUTE};
    use sdfm_workloads::profile::{DiurnalPattern, JobPriority, JobProfile, RateBucket};
    use sdfm_workloads::PageLevelDriver;

    let profile = JobProfile {
        template: "scan-cadence".into(),
        rate_buckets: vec![
            RateBucket {
                pages: 3_000,
                rate_per_sec: 0.1,
            },
            RateBucket {
                pages: 2_000,
                rate_per_sec: 1.0 / 600.0,
            },
            RateBucket {
                pages: 5_000,
                rate_per_sec: 1e-9,
            },
        ],
        diurnal: DiurnalPattern::FLAT,
        mix: sdfm_compress::gen::CompressibilityMix::fleet_default(),
        cpu_cores: 2.0,
        write_fraction: 0.1,
        burst_interval: None,
        priority: JobPriority::Batch,
        lifetime: SimDuration::from_hours(10_000),
    };
    let job = JobId::new(1);

    [1u64, 2, 5, 10]
        .into_iter()
        .map(|cadence| {
            let mut kernel = Kernel::new(KernelConfig {
                capacity: PageCount::new(30_000),
                ..KernelConfig::default()
            });
            let mut driver = PageLevelDriver::new(job, profile.clone(), seed);
            driver.populate(&mut kernel).expect("fits");
            let mut agent = NodeAgent::new(
                AgentParams::new(95.0, SimDuration::from_mins(4)).expect("valid"),
                SloConfig::default(),
            );
            agent.register_job(job, SimTime::ZERO);
            let mut pages_scanned = 0u64;
            let mut saved_sum = 0.0;
            for m in 1..=minutes {
                let now = SimTime::ZERO + MINUTE * m;
                driver.run_window(&mut kernel, now, MINUTE).expect("runs");
                if m % cadence == 0 {
                    pages_scanned += kernel.run_scan().pages_scanned;
                }
                agent.tick(now, &mut kernel);
                saved_sum += kernel.machine_stats().pages_saved().get() as f64;
            }
            let promos = kernel
                .memcg(job)
                .expect("job exists")
                .stats()
                .decompressions;
            ScanCadenceRow {
                scan_every_mins: cadence,
                pages_scanned,
                mean_saved: saved_sum / minutes as f64,
                promotions_per_min: promos as f64 / minutes as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ablation 3d: huge pages and memory layout
// ---------------------------------------------------------------------------

/// One memory-layout configuration's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HugePageRow {
    /// Layout label.
    pub layout: HugeLayout,
    /// Frames compressed into far memory at steady state.
    pub zswapped_frames: u64,
    /// Huge pages split along the way.
    pub huge_splits: u64,
    /// Entries kstaled walks per scan (huge mappings shrink the walk).
    pub entries_scanned_per_pass: u64,
}

/// The three layouts compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HugeLayout {
    /// 4 KiB base pages throughout.
    BasePages,
    /// 2 MiB huge pages; hot and cold data segregated into different huge
    /// pages.
    HugeSegregated,
    /// 2 MiB huge pages; one hot 4 KiB frame inside every huge page.
    HugeInterleaved,
}

impl std::fmt::Display for HugeLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HugeLayout::BasePages => write!(f, "base-4k"),
            HugeLayout::HugeSegregated => write!(f, "huge-segregated"),
            HugeLayout::HugeInterleaved => write!(f, "huge-interleaved"),
        }
    }
}

/// §7's huge-page point, quantified: the same 16 MiB of memory — 2 MiB of
/// it hot — under three mappings. Base pages and *segregated* huge pages
/// compress the cold bulk (huge pages split before swap); *interleaved*
/// hot frames pin entire huge pages in DRAM and nothing is saved.
pub fn ablation_hugepages(scans: u64, seed: u64) -> Vec<HugePageRow> {
    use sdfm_kernel::page::HUGE_SPAN;
    use sdfm_kernel::{Kernel, KernelConfig, PageContent};
    use sdfm_types::ids::{JobId, PageId};
    use sdfm_types::size::PageCount;

    let _ = seed; // deterministic layout experiment
    let job = JobId::new(1);
    let n_huge = 8usize; // 16 MiB
    let span = HUGE_SPAN as u64;

    [
        HugeLayout::BasePages,
        HugeLayout::HugeSegregated,
        HugeLayout::HugeInterleaved,
    ]
    .into_iter()
    .map(|layout| {
        let mut kernel = Kernel::new(KernelConfig {
            capacity: PageCount::new(n_huge as u64 * span * 2),
            ..KernelConfig::default()
        });
        kernel
            .create_memcg(job, PageCount::new(n_huge as u64 * span * 2))
            .expect("fresh");
        match layout {
            HugeLayout::BasePages => kernel
                .alloc_pages(job, n_huge * HUGE_SPAN as usize, |_| {
                    PageContent::synthetic_of_len(700)
                })
                .expect("fits"),
            _ => kernel
                .alloc_huge_pages(job, n_huge, |_| PageContent::synthetic_of_len(700))
                .expect("fits"),
        }
        kernel.set_zswap_enabled(job, true).expect("job exists");

        let mut huge_splits = 0u64;
        let mut entries = 0u64;
        for s in 0..scans {
            // The hot set: one huge page's worth of frames.
            match layout {
                HugeLayout::BasePages => {
                    // Hot frames spread one per 2 MiB region (same logical
                    // pattern as the interleaved layout, but 4 KiB mapped).
                    for h in 0..n_huge as u64 {
                        for f in 0..span / 8 {
                            kernel
                                .touch(job, PageId::new(h * span + f * 8), false)
                                .expect("page exists");
                        }
                    }
                }
                HugeLayout::HugeSegregated => {
                    // The whole hot working set lives in huge page 0.
                    kernel
                        .touch(job, PageId::new(0), false)
                        .expect("page exists");
                }
                HugeLayout::HugeInterleaved => {
                    // One hot frame inside every huge page: each PMD access
                    // keeps its whole 2 MiB young.
                    for h in 0..n_huge as u64 {
                        kernel
                            .touch(job, PageId::new(h), false)
                            .expect("page exists");
                    }
                }
            }
            let scan = kernel.run_scan();
            entries = scan.pages_scanned;
            if s >= 2 {
                let o = kernel
                    .reclaim_job(job, sdfm_types::histogram::PageAge::from_scans(2))
                    .expect("job exists");
                huge_splits += o.huge_splits;
            }
        }
        HugePageRow {
            layout,
            zswapped_frames: kernel
                .memcg(job)
                .expect("job exists")
                .stats()
                .zswapped_pages,
            huge_splits,
            entries_scanned_per_pass: entries,
        }
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Ablation 4: GP Bandit vs random vs grid
// ---------------------------------------------------------------------------

/// One tuner strategy's outcome at a trial budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TunerOutcome {
    /// Best feasible objective found.
    pub best_objective: f64,
    /// Trials spent.
    pub trials: usize,
}

/// Outcome of the tuner-strategy comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AblationTuner {
    /// GP Bandit.
    pub bandit: TunerOutcome,
    /// Uniform random search.
    pub random: TunerOutcome,
    /// Full-factorial grid (same budget, rounded down).
    pub grid: TunerOutcome,
}

/// Compares GP Bandit, random search, and grid search on the fast-model
/// objective with the same trial budget.
pub fn ablation_tuner(traces: Vec<JobTrace>, budget: usize, seed: u64) -> AblationTuner {
    use sdfm_autotuner::SearchSpace;
    let slo = SloConfig::default();
    let target = slo.target.fraction_per_min();
    let model = FarMemoryModel::new(traces);
    let eval = |k: f64, s: f64| -> (f64, f64) {
        let params = AgentParams::new(
            k.clamp(0.0, 100.0),
            SimDuration::from_secs(s.max(0.0) as u64),
        )
        .expect("clamped");
        let r = model.evaluate(&ModelConfig {
            slo,
            ..ModelConfig::new(params)
        });
        // Unmeasured constraint (no enabled windows) = infeasible; keep
        // the penalty finite for the GP arm's standardization.
        let con = r
            .p98_normalized_rate
            .map(|p98| p98.fraction_per_min())
            .unwrap_or(target * 10.0);
        (r.avg_cold_pages, con)
    };

    // GP Bandit, driven directly over the same evaluation function.
    let space = SearchSpace::agent_params();
    let mut bandit = sdfm_autotuner::GpBandit::new(
        space.clone(),
        sdfm_autotuner::BanditConfig::default().with_constraint_limit(target),
        seed,
    );
    let mut bandit_best = f64::NEG_INFINITY;
    for _ in 0..budget {
        let p = bandit.suggest();
        let (obj, con) = eval(p[0], p[1]);
        if con <= target {
            bandit_best = bandit_best.max(obj);
        }
        bandit.observe(p, obj, con);
    }

    // Random search.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xAB);
    let mut random_best = f64::NEG_INFINITY;
    for _ in 0..budget {
        let p = space.sample(&mut rng);
        let (obj, con) = eval(p[0], p[1]);
        if con <= target {
            random_best = random_best.max(obj);
        }
    }

    // Grid search with at most `budget` points.
    let per_dim = ((budget as f64).sqrt().floor() as usize).max(2);
    let mut grid_best = f64::NEG_INFINITY;
    let grid = space.grid(per_dim);
    for p in grid.iter().take(budget) {
        let (obj, con) = eval(p[0], p[1]);
        if con <= target {
            grid_best = grid_best.max(obj);
        }
    }

    AblationTuner {
        bandit: TunerOutcome {
            best_objective: bandit_best,
            trials: budget,
        },
        random: TunerOutcome {
            best_objective: random_best,
            trials: budget,
        },
        grid: TunerOutcome {
            best_objective: grid_best,
            trials: grid.len().min(budget),
        },
    }
}

/// Convenience: collects a small trace set sized by `scale` for the
/// controller/tuner ablations.
pub fn ablation_traces(scale: &Scale) -> Vec<JobTrace> {
    super::collect_fleet_traces(scale, scale.measure_windows.max(8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proactive_beats_reactive_on_savings_and_burstiness() {
        let a = ablation_reactive(240, 3);
        assert!(
            a.proactive_mean_saved > a.reactive_mean_saved,
            "proactive {} !> reactive {}",
            a.proactive_mean_saved,
            a.reactive_mean_saved
        );
        assert!(a.proactive_mean_saved > 1_000.0);
    }

    #[test]
    fn global_arena_fragments_less_than_per_job() {
        let a = ablation_arena(24, 200, 5);
        assert!(
            a.global_pages <= a.per_job_pages,
            "global {} pages vs per-job {}",
            a.global_pages,
            a.per_job_pages
        );
        assert!(
            a.global_fragmentation <= a.per_job_fragmentation + 0.02,
            "global frag {} vs per-job {}",
            a.global_fragmentation,
            a.per_job_fragmentation
        );
    }

    #[test]
    fn kp_policy_violates_less_than_naive() {
        let traces = ablation_traces(&Scale::small());
        let a = ablation_controller(&traces, 98.0);
        assert!(
            a.kp_violation_rate <= a.naive_violation_rate + 1e-9,
            "kp {} vs naive {}",
            a.kp_violation_rate,
            a.naive_violation_rate
        );
        assert!(
            a.kp_violation_rate < 0.15,
            "kp violations {}",
            a.kp_violation_rate
        );
    }

    #[test]
    fn hugepage_layouts_match_section7_story() {
        let rows = ablation_hugepages(8, 1);
        let by = |l: HugeLayout| *rows.iter().find(|r| r.layout == l).expect("ran");
        let base = by(HugeLayout::BasePages);
        let seg = by(HugeLayout::HugeSegregated);
        let inter = by(HugeLayout::HugeInterleaved);
        // Interleaved hot frames pin everything: nothing saved, no splits.
        assert_eq!(inter.zswapped_frames, 0);
        assert_eq!(inter.huge_splits, 0);
        // Segregated huge pages split and compress the cold 7/8.
        assert!(seg.huge_splits >= 7, "splits {}", seg.huge_splits);
        assert!(
            seg.zswapped_frames > 2_000,
            "segregated saved only {}",
            seg.zswapped_frames
        );
        // Base pages compress the cold frames too.
        assert!(base.zswapped_frames > 2_000);
        // Huge mappings make kstaled's walk ~512x smaller before splits.
        assert!(inter.entries_scanned_per_pass * 100 < base.entries_scanned_per_pass);
    }

    #[test]
    fn finer_scans_cost_more_cpu_for_similar_savings() {
        let rows = ablation_scan_period(90, 11);
        assert_eq!(rows.len(), 4);
        // Scan CPU falls monotonically with cadence.
        for w in rows.windows(2) {
            assert!(
                w[1].pages_scanned < w[0].pages_scanned,
                "coarser cadence must scan fewer pages: {w:?}"
            );
        }
        // All cadences realize substantial savings on this idle-heavy job.
        for r in &rows {
            assert!(
                r.mean_saved > 1_000.0,
                "cadence {} saved only {}",
                r.scan_every_mins,
                r.mean_saved
            );
        }
        // The default 2-minute cadence walks half the pages of 1-minute.
        assert!(rows[1].pages_scanned * 2 <= rows[0].pages_scanned + 10_000);
    }

    #[test]
    fn kstaled_is_exact_thermostat_is_noisy_but_cheap() {
        let a = ablation_thermostat(60, 0.02, 5);
        // kstaled nails the cold fraction (it walks every page).
        assert!(
            (a.kstaled_cold_fraction - a.true_cold_fraction).abs() < 0.08,
            "kstaled {} vs truth {}",
            a.kstaled_cold_fraction,
            a.true_cold_fraction
        );
        // Thermostat is in the right ballpark but carries sampling error.
        assert!(
            (a.thermostat_cold_fraction - a.true_cold_fraction).abs() < 0.2,
            "thermostat {} vs truth {}",
            a.thermostat_cold_fraction,
            a.true_cold_fraction
        );
        // Thermostat touches far fewer pages than kstaled walks.
        assert!(
            a.thermostat_faults_induced * 20 < a.kstaled_pages_scanned,
            "sampling induced {} faults vs {} pages scanned",
            a.thermostat_faults_induced,
            a.kstaled_pages_scanned
        );
    }

    #[test]
    fn bandit_not_worse_than_random_at_same_budget() {
        // The feasible region is thin by construction (high K plus enough
        // warmup to skip the noisy early windows), so use traces long
        // enough that a sane warmup still leaves savings on the table, and
        // a realistic trial budget.
        let scale = Scale {
            machines_per_cluster: 2,
            warmup_windows: 0,
            measure_windows: 36,
            seed: 42,
            threads: 0,
        };
        let traces = ablation_traces(&scale);
        let a = ablation_tuner(traces, 40, 9);
        assert!(
            a.bandit.best_objective > 0.0,
            "bandit found no feasible point"
        );
        assert!(
            a.bandit.best_objective >= a.random.best_objective * 0.9,
            "bandit {} vs random {}",
            a.bandit.best_objective,
            a.random.best_objective
        );
    }
}
