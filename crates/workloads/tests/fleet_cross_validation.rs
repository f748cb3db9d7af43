//! Fleet-scale cross-validation (ROADMAP: "page-level ↔ stat-model
//! cross-validation at fleet scale").
//!
//! `model_vs_kernel.rs` pins down mode agreement for one hand-written
//! profile. This suite samples one job per cluster from the paper-default
//! ten-cluster fleet — so every archetype tilt (serving, batch, cache,
//! video, logs) is represented — and bounds the drift between the
//! analytic [`StatJobModel`] and the page-level kernel simulation on the
//! quantities the control plane consumes. A second test covers the store
//! lifecycle: after zswap is disabled, the kernel's compressed-store
//! trajectory must follow the exact integer [`StorePressure`] recurrence
//! that the fast model mirrors, so a fleet-scale replay with a store
//! flush stays faithful to the page-level truth.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sdfm_kernel::{Kernel, KernelConfig, StorePressure};
use sdfm_types::histogram::PageAge;
use sdfm_types::ids::JobId;
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime, MINUTE};
use sdfm_workloads::fleet::FleetSpec;
use sdfm_workloads::profile::{DiurnalPattern, JobProfile};
use sdfm_workloads::{PageLevelDriver, StatJobModel};

const WARMUP_MINS: u64 = 60;
const OBSERVE_MINS: u64 = 40;
const TARGET_PAGES: u64 = 5_000;

/// Samples one job profile per cluster of the paper-default fleet and
/// rescales it to a page-level-simulable size. The diurnal pattern is
/// flattened and bursts disabled: load-phase variance is a property of
/// the *load process*, not of the mode translation under test, and both
/// modes consume the same process elsewhere.
fn sampled_cluster_profiles() -> Vec<(usize, JobProfile)> {
    let spec = FleetSpec::paper_default(1);
    spec.clusters
        .iter()
        .enumerate()
        .map(|(i, cluster)| {
            let mut rng = StdRng::seed_from_u64(1_000 + i as u64);
            let template = cluster.sample_template(&mut rng);
            let mut profile = template.sample_profile(&mut rng);
            let total: u64 = profile.rate_buckets.iter().map(|b| b.pages).sum();
            for bucket in &mut profile.rate_buckets {
                bucket.pages = (bucket.pages * TARGET_PAGES / total.max(1)).max(1);
            }
            profile.diurnal = DiurnalPattern::FLAT;
            profile.burst_interval = None;
            (i, profile)
        })
        .collect()
}

/// Drives the page-level kernel for one profile and returns
/// `(wss, cold@1scan, cold@5scans)` after warmup + observation.
fn run_kernel_sim(profile: JobProfile, seed: u64) -> (u64, u64, u64) {
    let job = JobId::new(1);
    let mut kernel = Kernel::new(KernelConfig {
        capacity: PageCount::new(50_000),
        ..KernelConfig::default()
    });
    let mut driver = PageLevelDriver::new(job, profile, seed);
    driver.populate(&mut kernel).unwrap();
    for m in 0..(WARMUP_MINS + OBSERVE_MINS) {
        let now = SimTime::ZERO + MINUTE * (m + 1);
        driver.run_window(&mut kernel, now, MINUTE).unwrap();
        if (m + 1) % 2 == 0 {
            kernel.run_scan();
        }
    }
    let cg = kernel.memcg(job).unwrap();
    (
        cg.working_set(PageAge::from_scans(1)).get(),
        cg.cold_pages(PageAge::from_scans(1)).get(),
        cg.cold_pages(PageAge::from_scans(5)).get(),
    )
}

fn rel_err(kernel: u64, model: u64) -> f64 {
    (kernel as f64 - model as f64).abs() / (kernel as f64).max(1.0)
}

/// One sampled job per cluster: per-job drift between the two modes stays
/// inside loose bounds, and the fleet-level mean drift is much tighter —
/// per-job sampling error averages out, which is exactly why the paper's
/// pipeline can run the fast model at fleet scale.
#[test]
fn stat_model_tracks_the_kernel_across_all_clusters() {
    let mut drifts: Vec<f64> = Vec::new();
    for (i, profile) in sampled_cluster_profiles() {
        let (k_wss, k_cold1, k_cold5) = run_kernel_sim(profile.clone(), 7_700 + i as u64);

        let mut model = StatJobModel::with_noise(profile, 5, 0.0);
        let at = SimTime::from_secs((WARMUP_MINS + OBSERVE_MINS) * 60);
        let obs = model.observe(at, SimDuration::from_mins(OBSERVE_MINS));
        let s_wss = obs.working_set.get();
        let s_cold1 = obs.cold_hist.pages_colder_than(PageAge::from_scans(1));
        let s_cold5 = obs.cold_hist.pages_colder_than(PageAge::from_scans(5));

        for (name, k, s, tol) in [
            ("working set", k_wss, s_wss, 0.35),
            ("cold@120s", k_cold1, s_cold1, 0.30),
            ("cold@600s", k_cold5, s_cold5, 0.35),
        ] {
            let rel = rel_err(k, s);
            assert!(
                rel < tol,
                "cluster {i} {name}: kernel {k} vs model {s} ({rel:.2} rel err)"
            );
            drifts.push(rel);
        }
    }
    let mean = drifts.iter().sum::<f64>() / drifts.len() as f64;
    assert!(
        mean < 0.15,
        "fleet-level mean drift {mean:.3} exceeds 15% across {} comparisons",
        drifts.len()
    );
}

/// The store-flush window: once zswap is disabled, the page-level store
/// must drain along the exact integer sequence
/// `z → store_after_window(z) → … → 0` — the same recurrence
/// `sdfm_kernel::FarState::step` applies to a disabled store — with every written-back
/// page charged as a decompression. This is the contract that lets the
/// fast model claim its store trajectory cross-validates against the
/// kernel during a flush.
#[test]
fn store_flush_follows_the_policy_recurrence_the_fast_model_mirrors() {
    let (_, profile) = sampled_cluster_profiles().remove(0);
    let job = JobId::new(1);
    let mut kernel = Kernel::new(KernelConfig {
        capacity: PageCount::new(50_000),
        ..KernelConfig::default()
    });
    let mut driver = PageLevelDriver::new(job, profile, 42);
    driver.populate(&mut kernel).unwrap();
    kernel.set_zswap_enabled(job, true).unwrap();
    // Age the pages, then compress everything idle for ≥ 2 scans.
    for m in 0..30u64 {
        let now = SimTime::ZERO + MINUTE * (m + 1);
        driver.run_window(&mut kernel, now, MINUTE).unwrap();
        if (m + 1) % 2 == 0 {
            kernel.run_scan();
        }
    }
    kernel.reclaim_job(job, PageAge::from_scans(2)).unwrap();
    let mut expected = kernel.memcg(job).unwrap().stats().zswapped_pages;
    assert!(expected > 500, "store never built up: {expected}");

    kernel.set_zswap_enabled(job, false).unwrap();
    let policy = StorePressure::PAPER_DEFAULT;
    let budget = policy.windows_to_drain(expected);
    let mut decompressions = kernel.cpu_accounting().decompress_events;
    for window in 0..budget {
        let step = policy.decay_step(expected);
        let outcome = kernel.store_lifecycle_tick(job, &policy).unwrap();
        assert_eq!(
            outcome.writeback.written_back, step,
            "window {window}: wrote back {} pages, policy says {step}",
            outcome.writeback.written_back
        );
        expected = policy.store_after_window(expected);
        let stats = kernel.memcg(job).unwrap().stats();
        assert_eq!(
            stats.zswapped_pages, expected,
            "window {window}: store diverged from the policy recurrence"
        );
        let charged = kernel.cpu_accounting().decompress_events;
        assert_eq!(
            charged - decompressions,
            step,
            "window {window}: writebacks not charged as decompressions"
        );
        decompressions = charged;
    }
    assert_eq!(kernel.memcg(job).unwrap().stats().zswapped_pages, 0);
    // Drained means drained: the next tick is a no-op.
    let idle = kernel.store_lifecycle_tick(job, &policy).unwrap();
    assert_eq!(idle.writeback.written_back, 0);
}
