//! The repo's benchmark: five workloads, end-to-end metrics from untraced
//! runs, per-layer metrics from traced decomposed twins. See `README.md`
//! beside this crate and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! sdfm-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! sdfm-benchmark all       [--seed N] [--seconds S] [--smoke]
//! sdfm-benchmark calibrate [--seconds S] [--smoke]
//! ```

mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::Registry;
use report::{Measured, RunResult};
use stats::{median, median_profile, percentile, quartiles, relative_iqr, relative_mad};
use trace::Tracer;
use workloads::{Checks, Layers, Scale, SimStats, Workload};

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    scale: Scale,
}

/// Runs per workload `calibrate` makes, each at another seed.
const CALIBRATE_RUNS: u64 = 10;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        scale: Scale::Full,
    };
    let mut words = std::env::args().skip(1);
    while let Some(word) = words.next() {
        let mut value = |flag: &str| words.next().ok_or(format!("{flag} needs a value"));
        match word.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.scale = Scale::Smoke,
            "all" | "calibrate" if args.command.is_none() => args.command = Some(word),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    workloads::ALL
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {}", names.join(", "))
        })
}

fn print_sim(sim: &SimStats) {
    for (name, value) in sim {
        println!("sim {name} {value}");
    }
}

fn finish(checks: &Checks, metrics: Vec<(&str, f64, &str)>) -> ExitCode {
    for message in &checks.messages {
        println!("FAILED {message}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        println!("FAILED a metric is not a finite number");
    }
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let result = RunResult {
        correct: checks.failed == 0 && finite,
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        metrics: metrics
            .into_iter()
            .filter(|_| finite)
            .map(|(name, value, unit)| {
                let unit = unit.to_string();
                (name.to_string(), Measured { value, unit })
            })
            .collect(),
    };
    match serde_json::to_string(&result) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("cannot print the result: {e}");
            return ExitCode::FAILURE;
        }
    }
    if finite {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced run: identical rounds until `seconds` have been measured;
/// every end-to-end metric.
fn run_untraced(
    registry: &Registry,
    w: &Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> ExitCode {
    println!(
        "# {}: ops = {}, step = {}, seed {seed}",
        w.name, w.work_unit, w.step
    );
    let mut checks = Checks::default();
    let (mut setup_s, mut step_us, mut other_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(u64, SimStats)> = None;
    let mut measured = 0.0;
    // Read after the first round: what one pass over the workload needs,
    // without the allocator's leftovers from the repeats.
    let mut rss = None;
    while measured < seconds {
        let round = (w.round)(seed, scale);
        rss = rss.or_else(report::peak_rss_mib);
        let round_s =
            (round.step_us.iter().sum::<f64>() + round.other_us.iter().sum::<f64>()) / 1e6;
        measured += round_s;
        println!(
            "# round {}: setup {:.3} s, {} {} in {round_s:.3} s",
            setup_s.len() + 1,
            round.setup_s,
            round.work,
            w.work_unit
        );
        setup_s.push(round.setup_s);
        step_us.push(round.step_us);
        other_us.push(round.other_us);
        checks.absorb(round.checks);
        let this = (round.work, round.sim);
        match &first {
            None => first = Some(this),
            Some(first) => checks.require(*first == this, || {
                format!("same seed, different round: {first:?} vs {this:?}")
            }),
        }
    }
    let (work, sim) = first.unwrap_or_default();
    print_sim(&sim);
    // Rounds repeat the same steps, so each step's time is its median
    // across rounds; a round's time is the sum over its steps.
    let steps = median_profile(&step_us);
    let others = median_profile(&other_us);
    checks.require(
        step_us.iter().all(|r| r.len() == steps.len())
            && other_us.iter().all(|r| r.len() == others.len()),
        || "rounds at one seed timed different numbers of steps".into(),
    );
    let round_s = (steps.iter().sum::<f64>() + others.iter().sum::<f64>()) / 1e6;
    println!(
        "# {} rounds of {} steps, {measured:.2} s measured, {round_s:.3} s per round",
        setup_s.len(),
        steps.len()
    );
    let Some(rss) = rss else {
        eprintln!("cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    };
    let value = |name: &str| match name {
        "ops_per_s" => work as f64 / round_s,
        "step_p50_us" => median(&steps),
        "peak_rss_mib" => rss,
        "setup_s" => median(&setup_s),
        other => unreachable!("unregistered end-to-end metric {other}"),
    };
    let metrics = registry
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), value(&m.name), m.unit.as_str()))
        .collect();
    finish(&checks, metrics)
}

/// The traced run: one engine round, its decomposed twin, the layer
/// probes; every per-layer metric (0 where the layer does nothing).
fn run_traced(registry: &Registry, w: &Workload, seed: u64, scale: Scale) -> ExitCode {
    println!("# {} traced, seed {seed}", w.name);
    let mut tracer = Tracer::new(w.name);
    let mut layers = Layers::new();
    let traced = (w.traced)(seed, scale, &mut tracer, &mut layers);
    print_sim(&traced.sim);
    for (name, value) in &traced.sim {
        layers.insert(name, *value as f64);
    }
    layers.insert("e2e.step_p90_us", percentile(&traced.step_us, 90.0));
    layers.insert("e2e.step_p98_us", percentile(&traced.step_us, 98.0));
    layers.insert("e2e.step_samples", traced.step_us.len() as f64);

    let spans = tracer.layers();
    let span_count: u64 = spans.values().map(|l| l.calls).sum();
    let top_level_ns: u64 = tracer.top_level_ns();
    layers.insert("trace.spans", span_count as f64);
    // An estimate, not the traced-minus-untraced difference: the twin is
    // other code than the engine, so that difference would mix the cost of
    // recording with the work the twin leaves out (telemetry, churn).
    layers.insert(
        "trace.overhead_permille",
        workloads::per(
            span_count as f64 * trace::empty_span_ns() * 1000.0,
            top_level_ns,
        ),
    );
    println!("# span totals: name calls total_ms self_ms");
    for (name, l) in &spans {
        println!(
            "# {name} {} {:.3} {:.3}",
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        );
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", w.name));
    if let Err(e) = tracer.write_json(&path) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("# spans written to {}", path.display());

    let mut checks = traced.checks;
    for name in layers.keys() {
        checks.require(registry.per_layer.iter().any(|m| m.name == *name), || {
            format!("{name} is not a registered per-layer metric")
        });
    }
    let metrics = registry
        .per_layer
        .iter()
        .map(|m| {
            let value = layers.get(m.name.as_str()).copied().unwrap_or(0.0);
            (m.name.as_str(), value, m.unit.as_str())
        })
        .collect();
    finish(&checks, metrics)
}

/// Runs one workload in a child process of its own (so `peak_rss_mib` is
/// per workload) and returns its result line and `sim` lines.
fn run_child(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<(RunResult, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let result = text
        .lines()
        .last()
        .and_then(|line| serde_json::from_str::<RunResult>(line).ok())
        .ok_or_else(|| format!("{} printed no result:\n{text}", w.name))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name, out.status));
    }
    for line in text.lines().filter(|l| l.starts_with("FAILED")) {
        println!("{line}");
    }
    let sim = text
        .lines()
        .filter(|l| l.starts_with("sim "))
        .map(str::to_string)
        .collect();
    Ok((result, sim))
}

/// Every workload, untraced then traced, every metric by name with its
/// unit. The two runs of a workload are separate processes at one seed,
/// so their simulated statistics must be identical.
fn run_all(seed: u64, seconds: f64, scale: Scale) -> Result<bool, String> {
    let mut ok = true;
    for w in &workloads::ALL {
        let (untraced, sim) = run_child(w, seed, seconds, false, scale)?;
        let (traced, traced_sim) = run_child(w, seed, seconds, true, scale)?;
        println!(
            "== {} (seed {seed}): ops = {}, step = {}",
            w.name, w.work_unit, w.step
        );
        for (run, label) in [(&untraced, "end_to_end"), (&traced, "per_layer")] {
            println!(
                "  {label}: correct {} attempted {} failed {}",
                run.correct, run.attempted, run.failed
            );
            for (name, m) in &run.metrics {
                if label == "end_to_end" || m.value != 0.0 {
                    println!("    {name} {} {}", m.value, m.unit);
                }
            }
            ok &= run.correct;
        }
        if sim != traced_sim {
            println!("  FAILED two runs at seed {seed} disagree: {sim:?} vs {traced_sim:?}");
            ok = false;
        }
    }
    Ok(ok)
}

/// `CALIBRATE_RUNS` untraced runs of every workload, each at another seed:
/// median, quartiles, the spread the bounds are judged by, and a proposed
/// bound.
fn calibrate(registry: &Registry, seconds: f64, scale: Scale) -> Result<bool, String> {
    let mut ok = true;
    println!("workload metric median q1 q3 iqr/median mad/median bound proposed");
    for w in &workloads::ALL {
        let mut results = Vec::new();
        for seed in 1..=CALIBRATE_RUNS {
            let (result, _) = run_child(w, seed, seconds, false, scale)?;
            ok &= result.correct;
            results.push(result);
        }
        for m in &registry.end_to_end {
            let values: Vec<f64> = results.iter().filter_map(|r| r.metric(&m.name)).collect();
            let (q1, q2, q3) = quartiles(&values);
            let spread = relative_iqr(&values);
            let mad = relative_mad(&values);
            // Thrice the spread, in steps of 0.05, within the contract's cap.
            let proposed = ((spread * 3.0 / 0.05).ceil() * 0.05).clamp(0.05, 0.25);
            let verdict = if m.name == "setup_s" || spread * 3.0 <= m.bound {
                ""
            } else if spread <= m.bound {
                " (spread above a third of the bound)"
            } else {
                ok = false;
                " (SPREAD ABOVE THE BOUND)"
            };
            println!(
                "{} {} {q2:.4} {q1:.4} {q3:.4} {spread:.4} {mad:.4} {} {proposed:.2}{verdict}",
                w.name, m.name, m.bound
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let registry = match Registry::load() {
        Ok(registry) => registry,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = args.seconds.unwrap_or(match args.scale {
        Scale::Full => registry.run_seconds as f64,
        Scale::Smoke => 0.1,
    });
    let outcome = match args.command.as_deref() {
        Some("all") => run_all(args.seed, seconds, args.scale),
        Some("calibrate") => calibrate(&registry, seconds, args.scale),
        _ => {
            let Some(name) = args.workload else {
                eprintln!("--workload is required (or: all, calibrate)");
                return ExitCode::FAILURE;
            };
            return match find_workload(&name) {
                Ok(w) if args.trace => run_traced(&registry, w, args.seed, args.scale),
                Ok(w) => run_untraced(&registry, w, args.seed, seconds, args.scale),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
