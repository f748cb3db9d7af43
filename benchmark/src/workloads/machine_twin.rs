//! One page-level machine, two ways: the real `cluster::Machine`, and a
//! *decomposed twin* that makes the same public calls `Machine::step_minute`
//! and `NodeAgent::tick` make, one span per call. The twin must end with
//! `MachineStats` and the CPU ledger bit-identical to the machine's, so
//! the per-layer attribution provably describes the same work. It leaves
//! out only what cannot change kernel state: the telemetry snapshots and
//! the trace exporter, whose cost is `Machine::step_minute` minus the
//! twin's spans.

use std::time::Instant;

use sdfm_agent::{AgentParams, JobController, SloConfig};
use sdfm_cluster::{Machine, TelemetryDb};
use sdfm_kernel::{
    BackendConfig, CpuAccounting, Kernel, KernelConfig, MachineStats, PrefetchConfig, StorePressure,
};
use sdfm_types::ids::{ClusterId, JobId, MachineId};
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime, KSTALED_SCAN_PERIOD, MINUTE};
use sdfm_workloads::{JobProfile, PageLevelDriver};

use super::{per, permille, timed, Checks, Checksum, Layers, SimStats};
use crate::stats::median;
use crate::trace::Tracer;

/// `NodeAgent` compacts the arena every this many ticks (its private
/// default; twin equality fails if it drifts).
const COMPACT_EVERY_TICKS: u64 = 10;

/// A machine, its jobs and how long to run them.
pub struct MachineSpec {
    pub capacity: u64,
    /// Demotion chain, warmest tier first; empty for the paper's
    /// compressed-RAM-only deployment.
    pub chain: Vec<BackendConfig>,
    pub prefetch: PrefetchConfig,
    /// Profile and driver seed per job; job ids are 1-based positions.
    pub jobs: Vec<(JobProfile, u64)>,
    /// Minutes stepped during set-up, so that every job is past the
    /// controller's warm-up and reclaim is running when timing starts.
    pub warmup_minutes: u64,
    pub minutes: u64,
}

impl MachineSpec {
    fn kernel_config(&self) -> KernelConfig {
        KernelConfig {
            capacity: PageCount::new(self.capacity),
            prefetch: self.prefetch,
            ..KernelConfig::default()
        }
    }

    fn allocated(&self) -> u64 {
        self.jobs.iter().map(|(p, _)| p.total_pages().get()).sum()
    }
}

/// Every page is in exactly one place, and resolved prefetches never
/// exceed issued ones.
fn conserved(s: &MachineStats, allocated: u64) -> bool {
    s.resident.get() + s.zswapped_pages + s.demoted_total() == allocated
        && s.prefetch_used + s.prefetch_wasted <= s.prefetch_issued
}

pub struct MachineRun {
    pub setup_s: f64,
    pub step_us: Vec<f64>,
    pub checks: Checks,
    pub stats: MachineStats,
    pub cpu: CpuAccounting,
    pub sim: SimStats,
}

/// Runs the spec on the real `Machine`.
pub fn run_machine(spec: &MachineSpec) -> MachineRun {
    let mut checks = Checks::default();
    let mut db = TelemetryDb::new();
    let (mut machine, setup_s) = timed(|| {
        let mut m = Machine::new(
            MachineId::new(0),
            ClusterId::new(0),
            spec.kernel_config(),
            AgentParams::default(),
            SloConfig::default(),
            SimDuration::from_secs(300),
        );
        if !spec.chain.is_empty() {
            m.enable_chain(&spec.chain);
        }
        for (i, (profile, seed)) in spec.jobs.iter().enumerate() {
            let placed = m.try_place(JobId::new(i as u64 + 1), profile, SimTime::ZERO, *seed);
            checks.require(placed, || format!("job {} did not fit the machine", i + 1));
        }
        for minute in 1..=spec.warmup_minutes {
            m.step_minute(SimTime::ZERO + MINUTE * minute, &mut db);
        }
        m
    });
    let allocated = spec.allocated();
    let mut step_us = Vec::with_capacity(spec.minutes as usize);
    let mut promotions = 0u64;
    let mut sum = Checksum::new();
    for minute in spec.warmup_minutes + 1..=spec.warmup_minutes + spec.minutes {
        let now = SimTime::ZERO + MINUTE * minute;
        let start = Instant::now();
        let report = machine.step_minute(now, &mut db);
        step_us.push(start.elapsed().as_secs_f64() * 1e6);
        let stats = machine.kernel().machine_stats();
        checks.op(
            report.exited.is_empty() && report.evicted.is_empty() && conserved(&stats, allocated),
            || format!("minute {minute}: {report:?} {stats:?} allocated {allocated}"),
        );
        promotions += report.promotions;
        sum.add(report.promotions);
        sum.add(report.pages_touched);
    }
    let stats = machine.kernel().machine_stats();
    let cpu = machine.kernel().cpu_accounting();
    for v in [
        stats.resident.get(),
        stats.zswapped_pages,
        stats.zswap_footprint.get(),
        stats.demoted_total(),
        stats.prefetch_issued,
        cpu.compress_events,
        cpu.decompress_events,
        cpu.tier_io_events,
    ] {
        sum.add(v);
    }
    MachineRun {
        setup_s,
        step_us,
        checks,
        stats,
        cpu,
        sim: vec![
            ("cluster.sim_zswapped_pages_final", stats.zswapped_pages),
            ("cluster.sim_promotions", promotions),
            ("cluster.sim_checksum", sum.get()),
        ],
    }
}

/// What the twin counted at the call boundaries.
#[derive(Debug, Default)]
pub struct TwinCounts {
    pub pages_touched: u64,
    pub promotions: u64,
    pub pages_scanned: u64,
    pub reclaimed: u64,
    pub rejected: u64,
    pub demoted: u64,
    pub job_ticks: u64,
}

pub struct TwinRun {
    pub stats: MachineStats,
    pub cpu: CpuAccounting,
    /// The kernel's since-boot counters when warm-up ended: a count over
    /// the measured minutes is the final value minus this one.
    pub warm: (MachineStats, CpuAccounting),
    pub counts: TwinCounts,
    pub checks: Checks,
}

/// Runs the spec on the decomposed twin, recording the measured minutes
/// into `tracer`.
pub fn run_twin(spec: &MachineSpec, tracer: &mut Tracer) -> TwinRun {
    let params = AgentParams::default();
    let slo = SloConfig::default();
    let pressure = StorePressure::PAPER_DEFAULT;
    let mut checks = Checks::default();
    let mut counts = TwinCounts::default();
    let mut kernel = Kernel::new(spec.kernel_config());
    if !spec.chain.is_empty() {
        kernel.enable_chain(&spec.chain);
    }
    let mut jobs: Vec<(JobId, PageLevelDriver, JobController)> = Vec::new();
    for (i, (profile, seed)) in spec.jobs.iter().enumerate() {
        let job = JobId::new(i as u64 + 1);
        let mut driver = PageLevelDriver::new(job, profile.clone(), *seed);
        let populated = driver.populate(&mut kernel);
        checks.require(populated.is_ok(), || {
            format!("twin populate: {populated:?}")
        });
        jobs.push((job, driver, JobController::new(params, slo, SimTime::ZERO)));
    }
    let mut warmup = Tracer::new("warm-up");
    let mut warm = (kernel.machine_stats(), kernel.cpu_accounting());
    let mut ticks = 0u64;
    for minute in 1..=spec.warmup_minutes + spec.minutes {
        let now = SimTime::ZERO + MINUTE * minute;
        let measured = minute > spec.warmup_minutes;
        if minute == spec.warmup_minutes + 1 {
            warm = (kernel.machine_stats(), kernel.cpu_accounting());
        }
        let t = if measured { &mut *tracer } else { &mut warmup };
        let mut ok = true;

        t.enter("cluster.machine_minute");
        for (_, driver, _) in &mut jobs {
            match t.span("workloads.run_window", || {
                driver.run_window(&mut kernel, now, MINUTE)
            }) {
                Ok(d) if measured => {
                    counts.pages_touched += d.pages_touched;
                    counts.promotions += d.promotions;
                }
                Ok(_) => {}
                Err(_) => ok = false,
            }
        }
        if now.as_secs().is_multiple_of(KSTALED_SCAN_PERIOD.as_secs()) {
            let scan = t.span("kernel.run_scan", || kernel.run_scan());
            if measured {
                counts.pages_scanned += scan.pages_scanned;
            }
        }

        t.enter("agent.tick");
        ticks += 1;
        for (job, _, controller) in &mut jobs {
            let job = *job;
            let Ok(cg) = kernel.memcg(job) else {
                ok = false;
                continue;
            };
            let cold = cg.cold_age_histogram().clone();
            let promo = cg.promotion_histogram().clone();
            let decision = t.span("agent.on_minute", || {
                controller.on_minute(now, &cold, &promo)
            });
            ok &= t
                .span("kernel.set_zswap_enabled", || {
                    kernel.set_zswap_enabled(job, decision.zswap_enabled)
                })
                .is_ok();
            ok &= t
                .span("kernel.set_soft_limit", || {
                    kernel.set_soft_limit(job, decision.working_set)
                })
                .is_ok();
            if decision.zswap_enabled {
                match t.span("kernel.reclaim_job", || {
                    kernel.reclaim_job(job, decision.threshold)
                }) {
                    Ok(r) if measured => {
                        counts.reclaimed += r.reclaimed;
                        counts.rejected += r.rejected;
                    }
                    Ok(_) => {}
                    Err(_) => ok = false,
                }
                let zswapped = kernel.memcg(job).map_or(0, |cg| cg.stats().zswapped_pages);
                let budget = pressure.decay_step(zswapped);
                match t.span("kernel.demote_job", || kernel.demote_job(job, budget)) {
                    Ok(d) if measured => counts.demoted += d.demoted,
                    Ok(_) => {}
                    Err(_) => ok = false,
                }
            }
            ok &= t
                .span("kernel.store_lifecycle_tick", || {
                    kernel.store_lifecycle_tick(job, &pressure)
                })
                .is_ok();
            counts.job_ticks += u64::from(measured);
        }
        if ticks.is_multiple_of(COMPACT_EVERY_TICKS) {
            t.span("kernel.compact_zswap", || kernel.compact_zswap());
        }
        t.exit();
        t.exit();

        // `Machine::step_minute` would now relieve host pressure and
        // evict; the workloads are sized so that it never has to.
        let s = kernel.machine_stats();
        ok &= s.resident + s.zswap_footprint <= s.capacity;
        if measured {
            checks.op(ok, || format!("twin minute {minute} failed: {s:?}"));
        } else {
            checks.require(ok, || format!("twin warm-up minute {minute} failed: {s:?}"));
        }
    }
    TwinRun {
        stats: kernel.machine_stats(),
        cpu: kernel.cpu_accounting(),
        warm,
        counts,
        checks,
    }
}

/// Derives the page path's per-layer metrics from a twin run's spans and
/// counts, and the machine's own share from the real run's step times.
pub fn page_path_layers(
    spec: &MachineSpec,
    machine: &MachineRun,
    twin: &TwinRun,
    tracer: &Tracer,
    layers: &mut Layers,
) {
    let spans = tracer.layers();
    let total = |name: &str| spans.get(name).map_or(0.0, |l| l.total_ns as f64);
    let calls = |name: &str| spans.get(name).map_or(0, |l| l.calls);
    let c = &twin.counts;
    let mut put = |name: &'static str, value: f64| {
        layers.insert(name, value);
    };

    put(
        "workloads.drive_ns_per_touch",
        per(total("workloads.run_window"), c.pages_touched),
    );
    put("workloads.pages_touched", c.pages_touched as f64);
    put("workloads.promotions", c.promotions as f64);
    put(
        "agent.on_minute_ns_per_call",
        per(total("agent.on_minute"), calls("agent.on_minute")),
    );
    put(
        "agent.tick_ns_per_job",
        per(total("agent.tick"), c.job_ticks),
    );
    put(
        "kernel.kstaled_ns_per_page",
        per(total("kernel.run_scan"), c.pages_scanned),
    );
    put("kernel.pages_scanned", c.pages_scanned as f64);
    put(
        "kernel.reclaim_ns_per_page",
        per(total("kernel.reclaim_job"), c.reclaimed + c.rejected),
    );
    put(
        "kernel.reclaim_accept_permille",
        permille(c.reclaimed, c.reclaimed + c.rejected) as f64,
    );
    // Every count below covers the measured minutes only, like the
    // twin's own: the kernel's counters run since boot, so warm-up's share
    // is taken off.
    let (warm_stats, warm_cpu) = &twin.warm;
    put(
        "kernel.compress_events",
        (twin.cpu.compress_events - warm_cpu.compress_events) as f64,
    );
    put(
        "kernel.rejected_compress_events",
        (twin.cpu.rejected_compress_events - warm_cpu.rejected_compress_events) as f64,
    );
    put(
        "kernel.lifecycle_tick_ns_per_job",
        per(
            total("kernel.store_lifecycle_tick"),
            calls("kernel.store_lifecycle_tick"),
        ),
    );
    put(
        "kernel.compact_ns_per_call",
        per(total("kernel.compact_zswap"), calls("kernel.compact_zswap")),
    );
    put(
        "kernel.demote_ns_per_page",
        per(total("kernel.demote_job"), c.demoted),
    );
    put(
        "kernel.tier_io_events",
        (twin.cpu.tier_io_events - warm_cpu.tier_io_events) as f64,
    );
    if spec.chain.len() == 3 {
        put(
            "kernel.demoted_pages_ssd",
            twin.stats.demoted_pages[1] as f64,
        );
        put(
            "kernel.demoted_pages_remote",
            twin.stats.demoted_pages[2] as f64,
        );
    }
    let s = &twin.stats;
    let issued = s.prefetch_issued - warm_stats.prefetch_issued;
    let used = s.prefetch_used - warm_stats.prefetch_used;
    put("kernel.prefetch_issued", issued as f64);
    put("kernel.prefetch_used", used as f64);
    put(
        "kernel.prefetch_wasted",
        (s.prefetch_wasted - warm_stats.prefetch_wasted) as f64,
    );
    put(
        "kernel.prefetch_late",
        (s.prefetch_late - warm_stats.prefetch_late) as f64,
    );
    // Coverage and accuracy as 3PO counts them, at the page-fault level:
    // faults hidden out of faults that would have happened, and issued
    // prefetches that were used.
    put(
        "kernel.prefetch_coverage_permille",
        permille(used, used + c.promotions) as f64,
    );
    put(
        "kernel.prefetch_accuracy_permille",
        permille(used, issued) as f64,
    );
    // Minute by minute, what the machine took beyond the twin's calls.
    let beyond: Vec<f64> = machine
        .step_us
        .iter()
        .zip(tracer.durations("cluster.machine_minute"))
        .map(|(machine_us, twin_ns)| machine_us * 1e3 - twin_ns)
        .collect();
    put(
        "cluster.machine_step_self_ns_per_minute",
        median(&beyond).max(0.0),
    );
}

/// The twin-fidelity requirement.
pub fn require_identical(checks: &mut Checks, machine: &MachineRun, twin: &TwinRun) {
    checks.require(
        machine.stats == twin.stats && machine.cpu == twin.cpu,
        || {
            format!(
                "twin diverged from Machine: {:?} {:?} vs {:?} {:?}",
                twin.stats, twin.cpu, machine.stats, machine.cpu
            )
        },
    );
}
