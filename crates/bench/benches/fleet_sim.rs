//! Fleet-window simulation throughput: windows stepped per second vs
//! worker-thread count.
//!
//! Emits the machine-readable trajectory file `BENCH_fleet_sim.json` at
//! the workspace root — the tracked perf baseline for the window step.
//! Iteration budget is tunable for CI smoke runs:
//!
//! * `SDFM_BENCH_WARMUP`  — windows stepped before timing (default 8)
//! * `SDFM_BENCH_WINDOWS` — timed windows per configuration (default 16)
//!
//! Run with `cargo bench -p sdfm-bench --bench fleet_sim`.

use std::time::Instant;

use sdfm_core::fleet_sim::{FleetSim, FleetSimConfig};

const MACHINES: usize = 6;
const SEED: u64 = 42;

fn env_budget(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Windows per second at one thread count.
fn measure(threads: usize, warmup: usize, windows: usize) -> f64 {
    let mut cfg = FleetSimConfig::new(MACHINES);
    cfg.threads = threads;
    let mut sim = FleetSim::new(cfg, SEED);
    // Warm past the S-boundary so every timed window does full work.
    for _ in 0..warmup {
        sim.step_window().expect("fleet window step");
    }
    let t0 = Instant::now();
    for _ in 0..windows {
        std::hint::black_box(sim.step_window().expect("fleet window step"));
    }
    windows as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    // `cargo bench` passes `--bench`; ignore all harness flags.
    let warmup = env_budget("SDFM_BENCH_WARMUP", 8);
    let windows = env_budget("SDFM_BENCH_WINDOWS", 16);
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let caveat = "thread counts above the container's available \
                  parallelism measure scheduling overhead, not speedup";
    eprintln!("fleet_sim bench: {warmup} warmup + {windows} timed windows per config");
    eprintln!("available parallelism: {available} ({caveat})");

    let mut rows = Vec::new();
    for threads in [1usize, 2, 4] {
        let wps = measure(threads, warmup, windows);
        eprintln!("  threads={threads}: {wps:.2} windows/s");
        rows.push(serde_json::json!({
            "threads": threads,
            "windows_per_sec": wps,
        }));
    }

    let report = serde_json::json!({
        "bench": "fleet_sim_step_window",
        "machines_per_cluster": MACHINES,
        "seed": SEED,
        "warmup_windows": warmup,
        "timed_windows": windows,
        "available_parallelism": available,
        "host_cpus": available,
        "caveat": caveat,
        "results": rows,
    });
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("BENCH_fleet_sim.json");
    std::fs::write(&out, serde_json::to_string_pretty(&report).expect("report serializes"))
        .expect("write bench report");
    eprintln!("wrote {}", out.display());
}
