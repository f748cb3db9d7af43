//! Codec throughput, per-page cost, and realized compression ratios: the
//! performance substrate behind Figure 9 and the cost model's inputs.
//!
//! Emits the machine-readable file `BENCH_codecs.json` at the workspace
//! root — the tracked baseline for the codec path: a ratio histogram over the fleet
//! page mix, per-page compress/decompress cost, and batched pages/sec at
//! 1/2/4 worker threads through `compress_many`/`decompress_many`.
//! Iteration budget is tunable for CI smoke runs:
//!
//! * `SDFM_BENCH_PAGES` — corpus size in 4 KiB pages (default 256)
//! * `SDFM_BENCH_REPS`  — timed repetitions; best rep wins (default 3)
//!
//! Run with `cargo bench -p sdfm-bench --bench codecs`.

use std::time::Instant;

use sdfm_compress::codec::CodecKind;
use sdfm_compress::gen::{CompressibilityMix, PageGenerator};
use sdfm_compress::{compress_many, decompress_many, measure_fleet_ratios};
use sdfm_pool::WorkerPool;
use sdfm_types::size::PAGE_SIZE;

const SEED: u64 = 0xC0DEC;

fn env_budget(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn corpus(n: usize) -> Vec<Vec<u8>> {
    let mix = CompressibilityMix::fleet_default();
    let mut gen = PageGenerator::new(SEED);
    (0..n).map(|_| gen.generate_from_mix(&mix).1).collect()
}

/// Best-of-`reps` elapsed seconds for one closure.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    // `cargo bench` passes `--bench`; ignore all harness flags.
    let pages = env_budget("SDFM_BENCH_PAGES", 256);
    let reps = env_budget("SDFM_BENCH_REPS", 3);
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let caveat = "per-page costs are wall-clock ns (cycle proxy); thread \
                  counts above the container's available parallelism \
                  measure scheduling overhead, not speedup";
    eprintln!("codecs bench: {pages} pages x {reps} reps per config");
    eprintln!("available parallelism: {available} ({caveat})");

    let corpus_pages = corpus(pages);
    let mix = CompressibilityMix::fleet_default();

    let mut rows = Vec::new();
    for kind in CodecKind::ALL {
        let codec = kind.build();
        // Every compressed stream decodes regardless of the zswap cutoff,
        // so the decompress corpus is the full batch.
        let payloads: Vec<Vec<u8>> = {
            let mut buf = Vec::with_capacity(PAGE_SIZE * 2);
            corpus_pages
                .iter()
                .map(|p| {
                    codec.compress(p, &mut buf);
                    buf.clone()
                })
                .collect()
        };
        let mut reference: Option<Vec<Vec<u8>>> = None;
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let mut compressed = Vec::new();
            let comp_secs = best_secs(reps, || {
                compressed = compress_many(codec.as_ref(), &corpus_pages, &pool);
                std::hint::black_box(compressed.len());
            });
            // The batched path must be bit-identical at every thread
            // count — a bench that silently measured a nondeterministic
            // path would be baselining garbage.
            match &reference {
                None => reference = Some(compressed),
                Some(r) => assert_eq!(
                    *r, compressed,
                    "{kind} batched output diverged at {threads} threads"
                ),
            }
            let mut decompressed = Vec::new();
            let decomp_secs = best_secs(reps, || {
                decompressed = decompress_many(codec.as_ref(), &payloads, &pool)
                    .expect("self-produced streams decode");
                std::hint::black_box(decompressed.len());
            });
            assert_eq!(decompressed, corpus_pages, "{kind} round-trip mismatch");

            let comp_pps = pages as f64 / comp_secs;
            let decomp_pps = pages as f64 / decomp_secs;
            eprintln!(
                "  codec={kind} threads={threads}: {comp_pps:.0} compress pages/s, \
                 {decomp_pps:.0} decompress pages/s"
            );
            rows.push(serde_json::json!({
                "codec": kind.to_string(),
                "threads": threads,
                "compress_pages_per_sec": comp_pps,
                "decompress_pages_per_sec": decomp_pps,
                "compress_ns_per_page": comp_secs * 1e9 / pages as f64,
                "decompress_ns_per_page": decomp_secs * 1e9 / pages as f64,
            }));
        }
    }

    // Realized ratios over the fleet mix, production (lzo-class) codec:
    // the same measurement that feeds `CostModel::measured_ratios`.
    let ratios = measure_fleet_ratios(CodecKind::Lzo, &mix, pages, SEED);
    eprintln!(
        "  lzo fleet mix: median ratio {:.2}x, aggregate {:.2}x, {:.1}% rejected",
        ratios.median_ratio_permille as f64 / 1000.0,
        ratios.aggregate_ratio_permille as f64 / 1000.0,
        ratios.rejected_permille() as f64 / 10.0,
    );
    let histogram: Vec<_> = ratios
        .histogram
        .iter()
        .map(|b| {
            serde_json::json!({
                "lo_permille": b.lo_permille,
                "hi_permille": b.hi_permille,
                "pages": b.pages,
            })
        })
        .collect();

    let ratio_section = serde_json::json!({
        "codec": ratios.codec.to_string(),
        "measured_pages": ratios.pages,
        "stored": ratios.stored,
        "rejected": ratios.rejected,
        "median_ratio_permille": ratios.median_ratio_permille,
        "aggregate_ratio_permille": ratios.aggregate_ratio_permille,
        "rejected_permille": ratios.rejected_permille(),
        "histogram": histogram,
    });
    let report = serde_json::json!({
        "bench": "codecs",
        "pages": pages,
        "seed": SEED,
        "reps": reps,
        "available_parallelism": available,
        "host_cpus": available,
        "caveat": caveat,
        "ratio": ratio_section,
        "results": rows,
    });
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("BENCH_codecs.json");
    std::fs::write(&out, serde_json::to_string_pretty(&report).expect("report serializes"))
        .expect("write bench report");
    eprintln!("wrote {}", out.display());
}
