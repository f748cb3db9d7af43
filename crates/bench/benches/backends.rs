//! Far-backend throughput and fault-latency trajectory: pages demoted and
//! faulted back per second through each shipped [`FarBackend`], per worker
//! thread count, plus the deterministic queued-fault latency distribution.
//!
//! Emits the machine-readable trajectory file `BENCH_backends.json` at
//! the workspace root — the tracked perf baseline for the demotion-chain
//! tiers. Every shard of work is integer-deterministic, so the per-tier
//! `ns_charged` checksum must be bit-identical at every thread count (the
//! harness asserts it). Iteration budget is tunable for CI smoke runs:
//!
//! * `SDFM_BENCH_PAGES` — pages stored+loaded per configuration
//!   (default 100_000)
//!
//! Run with `cargo bench -p sdfm-bench --bench backends`.

use std::time::Instant;

use sdfm_kernel::BackendConfig;
use sdfm_pool::WorkerPool;
use sdfm_types::size::PageCount;

fn env_budget(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// The three shipped tier configurations, capacity sized so the workload
/// never strands (stranding behavior has its own unit tests; here we
/// measure the accept path).
fn configs(pages: usize) -> Vec<BackendConfig> {
    vec![
        BackendConfig::compressed_ram(),
        BackendConfig::ssd(PageCount::new(pages as u64)),
        BackendConfig::remote(),
    ]
}

/// Splits `pages` into `shards` near-equal deterministic spans.
fn shard_sizes(pages: usize, shards: usize) -> Vec<usize> {
    let base = pages / shards;
    let extra = pages % shards;
    (0..shards)
        .map(|i| base + usize::from(i < extra))
        .collect()
}

struct ShardResult {
    store_secs: f64,
    load_secs: f64,
    ns_charged: u64,
}

/// One shard: build a private backend, demote `count` pages, fault them
/// all back. Timing is per-phase; the counters are pure integers.
fn run_shard(config: BackendConfig, count: usize) -> ShardResult {
    let mut dev = config.build();
    let t0 = Instant::now();
    for _ in 0..count {
        std::hint::black_box(dev.store_page().expect("tier sized for the workload"));
    }
    let store_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for _ in 0..count {
        std::hint::black_box(dev.load_page());
    }
    ShardResult {
        store_secs,
        load_secs: t1.elapsed().as_secs_f64(),
        ns_charged: dev.stats().ns_charged,
    }
}

/// Percentile over the deterministic queued-fault latency distribution:
/// position `i` in a fault burst waits `i % queue_depth` occupancy slots.
fn fault_percentile(config: &BackendConfig, pages: usize, pct: usize) -> u64 {
    let mut lat: Vec<u64> = (0..pages as u64).map(|i| config.queued_fault_ns(i)).collect();
    lat.sort_unstable();
    lat[(pct * (pages - 1)) / 100]
}

fn main() {
    // `cargo bench` passes `--bench`; ignore all harness flags.
    let pages = env_budget("SDFM_BENCH_PAGES", 100_000);
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let caveat = "thread counts above the container's available \
                  parallelism measure scheduling overhead, not speedup";
    eprintln!("backends bench: {pages} pages stored+loaded per config");
    eprintln!("available parallelism: {available} ({caveat})");

    let mut rows = Vec::new();
    for config in configs(pages) {
        // The checksum is pure integer arithmetic over a fixed page count,
        // so every thread count must produce the same value bit-for-bit.
        let mut checksums = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let tasks: Vec<_> = shard_sizes(pages, threads)
                .into_iter()
                .map(|count| move || run_shard(config, count))
                .collect();
            let shards = pool.run(tasks).expect("bench shards do not panic");
            // Wall time of a parallel phase is its slowest shard.
            let store_secs = shards.iter().map(|s| s.store_secs).fold(0.0, f64::max);
            let load_secs = shards.iter().map(|s| s.load_secs).fold(0.0, f64::max);
            let ns_charged: u64 = shards.iter().map(|s| s.ns_charged).sum();
            checksums.push(ns_charged);
            let demote_pps = pages as f64 / store_secs;
            let fault_pps = pages as f64 / load_secs;
            eprintln!(
                "  backend={} threads={threads}: demote {demote_pps:.0} pages/s, \
                 fault {fault_pps:.0} pages/s",
                config.kind.name()
            );
            rows.push(serde_json::json!({
                "backend": config.kind.name(),
                "threads": threads,
                "demote_pages_per_sec": demote_pps,
                "fault_pages_per_sec": fault_pps,
                "fault_p50_ns": fault_percentile(&config, pages, 50),
                "fault_p95_ns": fault_percentile(&config, pages, 95),
                "fault_p99_ns": fault_percentile(&config, pages, 99),
                "ns_charged_checksum": ns_charged,
            }));
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "{} ns_charged diverged across thread counts: {checksums:?}",
            config.kind.name()
        );
    }

    let report = serde_json::json!({
        "bench": "backends",
        "pages": pages,
        "available_parallelism": available,
        "host_cpus": available,
        "caveat": caveat,
        "results": rows,
    });
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("BENCH_backends.json");
    std::fs::write(&out, serde_json::to_string_pretty(&report).expect("report serializes"))
        .expect("write bench report");
    eprintln!("wrote {}", out.display());
}
