//! `autotune` — the §5.3 loop: GP-bandit suggestions evaluated by the fast
//! far memory model over an exported fleet trace. `model::replay_*` is
//! nearly all of the time and `autotuner`'s GP the rest. The model replays
//! from traces the same window recurrence `fleet_stat` steps forward, so
//! the two hand-mirrored copies are each guarded by a workload. Its set-up
//! is the trace export, which is `StatJobModel::observe` again.

use std::time::Instant;

use sdfm_agent::{AgentParams, SloConfig};
use sdfm_autotuner::{BanditConfig, GpBandit, SearchSpace};
use sdfm_core::experiments::{collect_fleet_traces, Scale as TraceScale};
use sdfm_core::{AutotunePipeline, TuneTrial};
use sdfm_model::{replay_job_with_model, FarMemoryModel, JobTrace, ModelConfig};
use sdfm_types::time::SimDuration;

use super::{per, timed, Checks, Checksum, Layers, Round, Scale, SimStats, Traced};
use crate::stats::median;
use crate::trace::Tracer;

struct Params {
    machines_per_cluster: usize,
    trace_windows: usize,
    steps: usize,
}

fn params(scale: Scale) -> Params {
    Params {
        machines_per_cluster: scale.pick(4, 1),
        trace_windows: scale.pick(64, 24),
        steps: scale.pick(48, 8),
    }
}

/// The exported fleet trace is part of the workload's definition (one
/// fixed fleet, like the page workloads' job population); a run's seed
/// drives the bandit's exploration over it.
fn export_traces(p: &Params) -> Vec<JobTrace> {
    let scale = TraceScale {
        machines_per_cluster: p.machines_per_cluster,
        warmup_windows: 0,
        measure_windows: p.trace_windows,
        seed: 0x5d_fa25,
        threads: 1,
    };
    collect_fleet_traces(&scale, p.trace_windows)
}

fn checked_trial(checks: &mut Checks, step: usize, trial: &TuneTrial) {
    checks.op(
        trial.k_percentile.is_finite()
            && trial.s_warmup_secs.is_finite()
            && trial.cold_pages.is_finite()
            && trial.p98_rate.is_finite(),
        || format!("step {step}: non-finite trial {trial:?}"),
    );
}

fn sim_stats(trials: &[TuneTrial], best: Option<AgentParams>) -> SimStats {
    let mut sum = Checksum::new();
    for t in trials {
        for v in [t.k_percentile, t.s_warmup_secs, t.cold_pages, t.p98_rate] {
            sum.add(v.to_bits());
        }
        sum.add(u64::from(t.feasible));
    }
    vec![
        (
            "model.sim_best_k_percentile_milli",
            best.map_or(0, |b| (b.k_percentile * 1000.0).round() as u64),
        ),
        ("model.sim_checksum", sum.get()),
    ]
}

struct EngineRun {
    setup_s: f64,
    step_us: Vec<f64>,
    trials: Vec<TuneTrial>,
    checks: Checks,
    sim: SimStats,
}

fn run_engine(seed: u64, p: &Params) -> EngineRun {
    let slo = SloConfig::default();
    let (mut pipeline, setup_s) = timed(|| {
        let model = FarMemoryModel::new(export_traces(p)).with_threads(1);
        AutotunePipeline::new(model, slo, seed)
    });
    let mut checks = Checks::default();
    let mut step_us = Vec::with_capacity(p.steps);
    for step in 0..p.steps {
        let start = Instant::now();
        let trial = pipeline.step();
        step_us.push(start.elapsed().as_secs_f64() * 1e6);
        checked_trial(&mut checks, step, &trial);
    }
    let best = pipeline.best_params();
    checks.require(best.is_some(), || "no feasible configuration found".into());
    EngineRun {
        setup_s,
        step_us,
        trials: pipeline.trials().to_vec(),
        checks,
        sim: sim_stats(pipeline.trials(), best),
    }
}

pub fn round(seed: u64, scale: Scale) -> Round {
    let p = params(scale);
    let run = run_engine(seed, &p);
    Round {
        setup_s: run.setup_s,
        work: p.steps as u64,
        step_us: run.step_us,
        other_us: Vec::new(),
        checks: run.checks,
        sim: run.sim,
    }
}

/// The decomposed twin of `AutotunePipeline::step`: suggest, evaluate,
/// observe as three direct calls. Its trial sequence must equal the
/// pipeline's bit for bit.
fn run_twin(seed: u64, traces: Vec<JobTrace>, steps: usize, tracer: &mut Tracer) -> Vec<TuneTrial> {
    let slo = SloConfig::default();
    let limit = slo.target.fraction_per_min();
    let model = FarMemoryModel::new(traces).with_threads(1);
    let mut bandit = GpBandit::new(
        SearchSpace::agent_params(),
        BanditConfig::default().with_constraint_limit(limit),
        seed,
    );
    let mut trials = Vec::with_capacity(steps);
    for _ in 0..steps {
        tracer.enter("core.twin_tune_step");
        let point = tracer.span("autotuner.suggest", || bandit.suggest());
        let params = AgentParams::new(
            point[0].clamp(0.0, 100.0),
            SimDuration::from_secs(point[1].max(0.0) as u64),
        )
        .expect("the search space stays within valid parameter bounds");
        let config = ModelConfig {
            slo,
            ..ModelConfig::new(params)
        };
        let result = tracer.span("model.evaluate", || model.evaluate(&config));
        let constraint = result
            .p98_normalized_rate
            .map_or(limit * 10.0, |p98| p98.fraction_per_min());
        tracer.span("autotuner.observe", || {
            bandit.observe(point.clone(), result.avg_cold_pages, constraint)
        });
        tracer.exit();
        trials.push(TuneTrial {
            k_percentile: point[0],
            s_warmup_secs: point[1],
            cold_pages: result.avg_cold_pages,
            p98_rate: constraint,
            feasible: result.meets_slo(slo.target),
        });
    }
    trials
}

pub fn traced(seed: u64, scale: Scale, tracer: &mut Tracer, layers: &mut Layers) -> Traced {
    let p = params(scale);
    let mut engine = run_engine(seed, &p);
    let (traces, export_s) = timed(|| export_traces(&p));
    let trace_windows: u64 = traces.iter().map(|t| t.len() as u64).sum();

    // The replay alone, under the incumbent configuration: the part of
    // `evaluate` that is not aggregation.
    let config = ModelConfig::new(AgentParams::default());
    let replay_ns: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for t in &traces {
                std::hint::black_box(replay_job_with_model(
                    t,
                    &config.params,
                    &config.slo,
                    config.pressure,
                    &config.cost,
                ));
            }
            start.elapsed().as_nanos() as f64
        })
        .collect();

    let twin_trials = run_twin(seed, traces, p.steps, tracer);
    let mut checks = std::mem::take(&mut engine.checks);
    checks.require(twin_trials == engine.trials, || {
        "twin trial sequence diverged from AutotunePipeline".into()
    });

    let us =
        |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|ns| ns / 1e3).collect() };
    let evaluate_us = median(&us("model.evaluate"));
    let suggest_us = median(&us("autotuner.suggest"));
    let observe_us = median(&us("autotuner.observe"));
    let mut put = |name: &'static str, value: f64| {
        layers.insert(name, value);
    };
    put(
        "core.trace_export_ns_per_job_window",
        per(export_s * 1e9, trace_windows),
    );
    put(
        "core.tune_step_self_us",
        (median(&engine.step_us) - evaluate_us - suggest_us - observe_us).max(0.0),
    );
    put(
        "model.replay_ns_per_trace_window",
        per(median(&replay_ns), trace_windows),
    );
    put(
        "model.evaluate_self_us",
        (evaluate_us - median(&replay_ns) / 1e3).max(0.0),
    );
    put("model.trace_windows", trace_windows as f64);
    put("autotuner.suggest_us_p50", suggest_us);
    put("autotuner.observe_us_p50", observe_us);
    put(
        "autotuner.feasible_trials",
        engine.trials.iter().filter(|t| t.feasible).count() as f64,
    );
    Traced {
        checks,
        sim: engine.sim,
        step_us: engine.step_us,
    }
}
