//! `fleet_stat` — the stat path: `FleetSim` stepping a churned fleet of
//! statistical jobs with the demotion chain and the prefetch recurrence
//! on. `workloads::StatJobModel::observe`, `agent::JobController` and the
//! `core::fleet_sim` window recurrence do nearly all the work; the kernel
//! and the codecs do none.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfm_agent::JobController;
use sdfm_core::{FleetSim, FleetSimConfig};
use sdfm_kernel::{ChainPolicy, PrefetchMode, PrefetchPolicy};
use sdfm_pool::WorkerPool;
use sdfm_types::histogram::{ColdAgeHistogram, PageAge, PromotionHistogram};
use sdfm_types::time::{SimTime, DAY};
use sdfm_workloads::{FleetBuilder, StatJobModel};

use super::{per, permille, timed, Checks, Checksum, Layers, Round, Scale, SimStats, Traced};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

struct Params {
    machines_per_cluster: usize,
    warmup_windows: usize,
    windows: usize,
}

fn params(scale: Scale) -> Params {
    Params {
        machines_per_cluster: scale.pick(20, 2),
        warmup_windows: scale.pick(12, 4),
        windows: scale.pick(24, 8),
    }
}

/// Every engine knob is explicit, threads included, so neither
/// `SDFM_THREADS` nor the host's core count can move a number.
fn config(p: &Params, threads: usize) -> FleetSimConfig {
    FleetSimConfig {
        churn: true,
        chain: Some(ChainPolicy::paper_default(128)),
        prefetch: Some(PrefetchPolicy::paper_default(PrefetchMode::StrideMarkov)),
        threads,
        fidelity_cutoff: 0,
        ..FleetSimConfig::new(p.machines_per_cluster)
    }
}

struct EngineRun {
    setup_s: f64,
    measure_s: f64,
    job_windows: u64,
    churn_replacements: u64,
    step_us: Vec<f64>,
    checks: Checks,
    sim: SimStats,
}

fn run_engine(seed: u64, p: &Params, threads: usize) -> EngineRun {
    let mut checks = Checks::default();
    let (mut sim, setup_s) = timed(|| {
        let mut sim = FleetSim::new(config(p, threads), seed);
        for _ in 0..p.warmup_windows {
            if sim.step_window().is_err() {
                checks.require(false, || "warm-up step_window failed".into());
            }
        }
        sim
    });
    let mut newest_job = 0u64;
    let mut first_window = true;
    let mut churn_replacements = 0u64;
    let mut job_windows = 0u64;
    let mut step_us = Vec::with_capacity(p.windows);
    let mut sum = Checksum::new();
    let mut last = (0u64, 0u64, 0u64);
    for w in 0..p.windows {
        let start = Instant::now();
        let result = sim.step_window();
        step_us.push(start.elapsed().as_secs_f64() * 1e6);
        let stats = match result {
            Ok(s) => s,
            Err(e) => {
                checks.op(false, || format!("window {w}: {e}"));
                continue;
            }
        };
        checks.op(
            stats.prefetch_used + stats.prefetch_wasted == stats.prefetch_issued
                && stats.far_pages <= stats.cold_pages,
            || {
                format!(
                    "window {w}: prefetch used {} + wasted {} vs issued {}; far {} vs cold {}",
                    stats.prefetch_used,
                    stats.prefetch_wasted,
                    stats.prefetch_issued,
                    stats.far_pages,
                    stats.cold_pages
                )
            },
        );
        job_windows += stats.per_job.len() as u64;
        for j in &stats.per_job {
            if j.job.raw() > newest_job {
                newest_job = j.job.raw();
                churn_replacements += u64::from(!first_window);
            }
            sum.add(j.far_pages);
            sum.add(j.promotions);
        }
        first_window = false;
        for v in [
            stats.total_pages,
            stats.cold_pages,
            stats.far_pages,
            stats.store_pages,
            stats.ssd_pages,
            stats.remote_pages,
            stats.prefetch_issued,
            stats.prefetch_late,
        ] {
            sum.add(v);
        }
        last = (stats.far_pages, stats.cold_pages, stats.total_pages);
    }
    let (far, cold, total) = last;
    EngineRun {
        setup_s,
        measure_s: step_us.iter().sum::<f64>() / 1e6,
        job_windows,
        churn_replacements,
        step_us,
        checks,
        sim: vec![
            ("core.sim_coverage_permille", permille(far, cold)),
            ("core.sim_cold_fraction_permille", permille(cold, total)),
            ("core.sim_far_pages_final", far),
            ("core.sim_checksum", sum.get()),
        ],
    }
}

pub fn round(seed: u64, scale: Scale) -> Round {
    let run = run_engine(seed, &params(scale), 1);
    Round {
        setup_s: run.setup_s,
        work: run.job_windows,
        step_us: run.step_us,
        other_us: Vec::new(),
        checks: run.checks,
        sim: run.sim,
    }
}

/// The decomposed twin: the engine's initial population — sampled from
/// the same seed in the order `FleetSim::new` samples it — as bare
/// `StatJobModel`s and `JobController`s, stepped window by window with a
/// span around each call. It has no churn (a job past its lifetime keeps
/// running), so from the first replacement on it prices `observe` and
/// `on_minute` on the same population shape, not the engine's exact jobs.
fn run_twin(seed: u64, p: &Params, tracer: &mut Tracer) -> (usize, ColdAgeHistogram) {
    let cfg = config(p, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut jobs: Vec<(StatJobModel, JobController, PromotionHistogram)> = Vec::new();
    for cluster in &cfg.spec.clusters {
        for _machine in 0..cluster.machines {
            let (lo, hi) = cluster.jobs_per_machine;
            for _ in 0..rng.gen_range(lo..=hi) {
                let profile = cluster.sample_template(&mut rng).sample_profile(&mut rng);
                let job_seed = rng.gen();
                // Stationary ages: starts staggered over the lifetime.
                let span = profile.lifetime.as_secs().min(DAY.as_secs()).max(1);
                let started = SimTime::from_secs(DAY.as_secs() - rng.gen_range(0..span));
                let mut model = StatJobModel::with_noise(profile, job_seed, cfg.noise_sigma);
                model.set_start(started);
                jobs.push((
                    model,
                    JobController::new(cfg.params, cfg.slo, started),
                    PromotionHistogram::new(),
                ));
            }
        }
    }
    let mut warmup = Tracer::new("warm-up");
    let mut now = SimTime::ZERO + DAY;
    let mut sample = ColdAgeHistogram::new();
    for w in 0..p.warmup_windows + p.windows {
        now += cfg.window;
        let t = if w < p.warmup_windows {
            &mut warmup
        } else {
            &mut *tracer
        };
        t.enter("core.twin_window");
        for (model, controller, cumulative) in &mut jobs {
            let obs = t.span("workloads.observe", || model.observe(now, cfg.window));
            cumulative.merge(&obs.promo_delta);
            t.span("agent.on_minute", || {
                black_box(controller.on_minute(now, &obs.cold_hist, cumulative))
            });
            sample = obs.cold_hist;
        }
        t.exit();
    }
    (jobs.len(), sample)
}

/// Cloning a populated cold-age histogram and asking it one percentile
/// question, as `NodeAgent::tick` and `FleetSim`'s job step do per job.
fn histogram_clone_query_ns(hist: &ColdAgeHistogram) -> f64 {
    const REPS: u64 = 200_000;
    let threshold = PageAge::from_scans(4);
    let start = Instant::now();
    for _ in 0..REPS {
        let copy = black_box(hist).clone();
        black_box(copy.pages_colder_than(threshold));
    }
    start.elapsed().as_nanos() as f64 / REPS as f64
}

/// Dispatching one empty task per pool thread and waiting for the batch.
fn pool_run_overhead_us(threads: usize) -> f64 {
    let pool = WorkerPool::new(threads);
    let samples: Vec<f64> = (0..300)
        .map(|_| {
            let tasks: Vec<_> = (0..threads).map(|i| move || black_box(i)).collect();
            let start = Instant::now();
            let done = pool.run(tasks);
            let us = start.elapsed().as_secs_f64() * 1e6;
            black_box(done.is_ok());
            us
        })
        .collect();
    median(&samples)
}

pub fn traced(seed: u64, scale: Scale, tracer: &mut Tracer, layers: &mut Layers) -> Traced {
    let p = params(scale);
    let mut engine = run_engine(seed, &p, 1);
    let (twin_jobs, sample_hist) = run_twin(seed, &p, tracer);
    let spec = config(&p, 1).spec;
    let (_, build_s) = timed(|| black_box(FleetBuilder::new(spec, seed).build()));
    layers.insert("workloads.fleet_build_s", build_s);
    engine.checks.require(
        twin_jobs as u64 * p.windows as u64 == engine.job_windows,
        || {
            format!(
                "twin steps {twin_jobs} jobs per window, engine did {} job-windows in {}",
                engine.job_windows, p.windows
            )
        },
    );

    let spans = tracer.layers();
    let observe = spans["workloads.observe"];
    let on_minute = spans["agent.on_minute"];
    let observe_ns = per(observe.total_ns as f64, observe.calls);
    let on_minute_ns = per(on_minute.total_ns as f64, on_minute.calls);
    // Window by window, what the engine took beyond observing and
    // controlling the same number of jobs (the twin's two spans per job
    // taken back out: they are the size of the answer).
    let span_ns = 2.0 * crate::trace::empty_span_ns();
    let beyond: Vec<f64> = engine
        .step_us
        .iter()
        .zip(tracer.durations("core.twin_window"))
        .map(|(engine_us, twin_ns)| (engine_us * 1e3 - twin_ns) / twin_jobs as f64 + span_ns)
        .collect();
    layers.insert("workloads.observe_ns_per_job_window", observe_ns);
    layers.insert("agent.on_minute_ns_per_call", on_minute_ns);
    layers.insert(
        "core.step_window_self_ns_per_job_window",
        median(&beyond).max(0.0),
    );
    layers.insert("core.job_windows", engine.job_windows as f64);
    layers.insert("core.churn_replacements", engine.churn_replacements as f64);
    layers.insert(
        "core.step_window_p95_ms",
        percentile(&engine.step_us, 95.0) / 1e3,
    );
    layers.insert(
        "types.histogram_clone_query_ns",
        histogram_clone_query_ns(&sample_hist),
    );

    // Thread probe: reported, never gated. The same windows at
    // `min(host CPUs, 4)` threads must reproduce the checksum exactly.
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let probe_threads = host_cpus.clamp(1, 4);
    layers.insert("pool.host_cpus", host_cpus as f64);
    layers.insert("pool.run_overhead_us", pool_run_overhead_us(probe_threads));
    let threaded = run_engine(seed, &p, probe_threads);
    layers.insert(
        "pool.fleet_stat_speedup_tN",
        engine.measure_s / threaded.measure_s,
    );
    engine.checks.require(threaded.sim == engine.sim, || {
        format!(
            "threads {probe_threads} changed the simulation: {:?} vs {:?}",
            threaded.sim, engine.sim
        )
    });
    Traced {
        checks: engine.checks,
        sim: engine.sim,
        step_us: engine.step_us,
    }
}
