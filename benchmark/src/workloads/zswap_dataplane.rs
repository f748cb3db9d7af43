//! `zswap_dataplane` — the real (non-simulated) data plane of Figures
//! 9a/9b: `kernel::ZswapStore` compressing, storing, loading and
//! decompressing real page bytes. `compress::codec`/`lz`,
//! `compress::zsmalloc` and `kernel::zswap` do all the work. Writes run
//! beside reads: a codec change that speeds compression but slows
//! decompression moves `ops_per_s` against `step_p50_us` in the same run.

use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfm_compress::{
    CodecKind, CompressibilityMix, PageGenerator, ZsHandle, ZsmallocArena, MAX_COMPRESSED_PAYLOAD,
};
use sdfm_kernel::{PageContent, StoreOutcome, ZswapStore};
use sdfm_types::size::PAGE_SIZE;

use super::{per, permille, timed, Checks, Checksum, Layers, Round, Scale, SimStats, Traced};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

struct Params {
    pages: usize,
    /// Demote-everything-then-promote-everything cycles per round.
    cycles: usize,
}

/// Stores per timed interval of the demote phase (≈ 8 ms).
const STORE_BLOCK: usize = 250;

fn params(scale: Scale) -> Params {
    Params {
        pages: scale.pick(20_000, 1_500),
        cycles: scale.pick(2, 1),
    }
}

/// Real page bytes in the fleet's compressibility mix (≈31 % of them
/// incompressible at the 2990-byte cutoff, Figure 9a).
fn corpus(seed: u64, pages: usize) -> Vec<Bytes> {
    let mix = CompressibilityMix::fleet_default();
    let mut gen = PageGenerator::new(seed);
    (0..pages)
        .map(|_| Bytes::from(gen.generate_from_mix(&mix).1))
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[derive(Default)]
struct EngineRun {
    setup_s: f64,
    /// Host time of each block of `STORE_BLOCK` stores, microseconds.
    store_block_us: Vec<f64>,
    stores: u64,
    /// Per-cycle load times, microseconds.
    load_us: Vec<Vec<f64>>,
    compact_ns: f64,
    checks: Checks,
    sim: SimStats,
}

impl EngineRun {
    fn loads(&self) -> u64 {
        self.load_us.iter().map(|c| c.len() as u64).sum()
    }

    fn demote_s(&self) -> f64 {
        self.store_block_us.iter().sum::<f64>() / 1e6
    }

    fn promote_s(&self) -> f64 {
        self.load_us.iter().flatten().sum::<f64>() / 1e6
    }
}

fn run_engine(seed: u64, p: &Params) -> EngineRun {
    let mut run = EngineRun::default();
    let ((pages, mut store), setup_s) = timed(|| {
        let pages: Vec<PageContent> = corpus(seed, p.pages)
            .into_iter()
            .map(PageContent::Real)
            .collect();
        (pages, ZswapStore::new(CodecKind::Lzo))
    });
    run.setup_s = setup_s;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stored: Vec<(usize, ZsHandle)> = Vec::with_capacity(p.pages);
    for cycle in 0..p.cycles {
        // Demote phase: offer every page to the store, timed in blocks.
        for (block, chunk) in pages.chunks(STORE_BLOCK).enumerate() {
            let mut errors = 0usize;
            let start = Instant::now();
            for (i, page) in chunk.iter().enumerate() {
                match store.store(page) {
                    Ok(StoreOutcome::Stored(handle)) => {
                        stored.push((block * STORE_BLOCK + i, handle));
                    }
                    Ok(StoreOutcome::Rejected { .. }) => {}
                    Err(_) => errors += 1,
                }
            }
            run.store_block_us.push(start.elapsed().as_secs_f64() * 1e6);
            run.stores += chunk.len() as u64;
            // One operation per store, counted outside the timed loop.
            for i in 0..chunk.len() {
                run.checks
                    .op(i >= errors, || format!("cycle {cycle}: store failed"));
            }
        }

        // Promote phase: load every stored page back in a shuffled order,
        // each load timed on its own; the comparison is outside the timer.
        shuffle(&mut stored, &mut rng);
        let half = stored.len() / 2;
        let mut load_us = Vec::with_capacity(stored.len());
        for (n, (i, handle)) in stored.drain(..).enumerate() {
            if cycle + 1 == p.cycles && n == half {
                // Half the objects are gone: the arena is as sparse as
                // this workload makes it, so compaction has pages to move.
                let start = Instant::now();
                store.compact();
                run.compact_ns = start.elapsed().as_nanos() as f64;
            }
            let start = Instant::now();
            let loaded = store.load(handle);
            load_us.push(start.elapsed().as_secs_f64() * 1e6);
            let PageContent::Real(original) = &pages[i] else {
                unreachable!("the corpus holds real pages only");
            };
            run.checks.op(
                matches!(&loaded, Ok(Some(bytes)) if bytes == original),
                || format!("cycle {cycle}: page {i} did not round-trip"),
            );
        }
        run.load_us.push(load_us);
        let stats = store.stats();
        run.checks.require(
            store.resident_objects() == 0
                && stats.stores + stats.rejections == stats.store_attempts,
            || format!("cycle {cycle}: store not empty or miscounted: {stats:?}"),
        );
    }
    let stats = store.stats();
    let mut sum = Checksum::new();
    for v in [
        stats.store_attempts,
        stats.stores,
        stats.rejections,
        stats.loads,
        stats.bytes_stored,
    ] {
        sum.add(v);
    }
    run.sim = vec![
        ("kernel.sim_store_bytes", stats.bytes_stored),
        ("kernel.sim_checksum", sum.get()),
    ];
    run
}

pub fn round(seed: u64, scale: Scale) -> Round {
    let run = run_engine(seed, &params(scale));
    Round {
        setup_s: run.setup_s,
        work: run.stores + run.loads(),
        step_us: run.load_us.into_iter().flatten().collect(),
        other_us: run.store_block_us,
        checks: run.checks,
        sim: run.sim,
    }
}

struct TwinRun {
    stored_bytes: u64,
    rejected: u64,
    /// Whether each `compress.codec_compress` span, in order, ended over
    /// the cutoff.
    over_cutoff: Vec<bool>,
    ratios_permille: Vec<f64>,
    efficiency_permille: f64,
    compacted_pages: u64,
}

/// The decomposed twin of one cycle: what `ZswapStore::store` and `load`
/// do, as direct calls on the codec and the arena.
fn run_twin(seed: u64, pages: &[Bytes], tracer: &mut Tracer, checks: &mut Checks) -> TwinRun {
    let codec = CodecKind::Lzo.build();
    let mut arena = ZsmallocArena::new();
    let mut scratch = Vec::with_capacity(PAGE_SIZE + PAGE_SIZE / 8);
    let mut twin = TwinRun {
        stored_bytes: 0,
        rejected: 0,
        over_cutoff: Vec::with_capacity(pages.len()),
        ratios_permille: Vec::new(),
        efficiency_permille: 0.0,
        compacted_pages: 0,
    };
    let mut stored: Vec<(usize, ZsHandle)> = Vec::new();
    tracer.enter("kernel.twin_demote_phase");
    for (i, page) in pages.iter().enumerate() {
        tracer.span("compress.codec_compress", || {
            codec.compress(page, &mut scratch)
        });
        let over = scratch.len() > MAX_COMPRESSED_PAYLOAD;
        twin.over_cutoff.push(over);
        if over {
            twin.rejected += 1;
            continue;
        }
        let payload = Bytes::copy_from_slice(&scratch);
        match tracer.span("compress.zsmalloc_alloc", || arena.alloc(payload)) {
            Ok(handle) => {
                stored.push((i, handle));
                twin.stored_bytes += scratch.len() as u64;
                twin.ratios_permille
                    .push((PAGE_SIZE * 1000) as f64 / scratch.len().max(1) as f64);
            }
            Err(e) => checks.op(false, || format!("twin alloc of page {i}: {e}")),
        }
    }
    tracer.exit();
    twin.efficiency_permille = arena.stats().efficiency() * 1000.0;

    shuffle(&mut stored, &mut StdRng::seed_from_u64(seed));
    let half = stored.len() / 2;
    tracer.enter("kernel.twin_promote_phase");
    for (n, (i, handle)) in stored.into_iter().enumerate() {
        if n == half {
            // Half the objects are gone: the arena is as sparse as this
            // workload makes it.
            twin.compacted_pages = tracer
                .span("compress.zsmalloc_compact", || arena.compact())
                .get();
        }
        let mut out = Vec::with_capacity(PAGE_SIZE);
        let decoded = match arena.get(handle) {
            Some(payload) => tracer
                .span("compress.codec_decompress", || {
                    codec.decompress(payload, &mut out)
                })
                .is_ok(),
            None => false,
        };
        let freed = tracer.span("compress.zsmalloc_free", || arena.free(handle));
        checks.op(decoded && freed.is_ok() && out == pages[i][..], || {
            format!("twin page {i} did not round-trip")
        });
    }
    tracer.exit();
    twin
}

/// Compress and decompress cost of one codec over `pages`, ns per page
/// (decompression over the pages it would have stored).
fn codec_probe(kind: CodecKind, pages: &[Bytes]) -> (f64, f64) {
    let codec = kind.build();
    let mut compressed: Vec<Vec<u8>> = Vec::with_capacity(pages.len());
    let start = Instant::now();
    for page in pages {
        let mut dst = Vec::with_capacity(PAGE_SIZE + PAGE_SIZE / 8);
        codec.compress(page, &mut dst);
        compressed.push(dst);
    }
    let compress_ns = per(start.elapsed().as_nanos() as f64, pages.len() as u64);
    compressed.retain(|c| c.len() <= MAX_COMPRESSED_PAYLOAD);
    let mut out = Vec::with_capacity(PAGE_SIZE);
    let start = Instant::now();
    for payload in &compressed {
        std::hint::black_box(codec.decompress(payload, &mut out).is_ok());
    }
    let decompress_ns = per(start.elapsed().as_nanos() as f64, compressed.len() as u64);
    (compress_ns, decompress_ns)
}

pub fn traced(seed: u64, scale: Scale, tracer: &mut Tracer, layers: &mut Layers) -> Traced {
    let p = params(scale);
    let mut engine = run_engine(seed, &p);
    let (pages, gen_s) = timed(|| corpus(seed, p.pages));
    let mut checks = std::mem::take(&mut engine.checks);
    let twin = run_twin(seed, &pages, tracer, &mut checks);
    let engine_bytes = engine.sim[0].1;
    checks.require(
        twin.stored_bytes * p.cycles as u64 == engine_bytes
            && (twin.rejected + twin.ratios_permille.len() as u64) * p.cycles as u64
                == engine.stores
            && twin.ratios_permille.len() as u64 * p.cycles as u64 == engine.loads(),
        || {
            format!(
                "twin stored {} bytes and rejected {}, ZswapStore stored {engine_bytes} and loaded {}",
                twin.stored_bytes,
                twin.rejected,
                engine.loads()
            )
        },
    );

    let spans = tracer.layers();
    let mean = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |l| per(l.total_ns as f64, l.calls))
    };
    let compress_ns = tracer.durations("compress.codec_compress");
    let over: Vec<f64> = compress_ns
        .iter()
        .zip(&twin.over_cutoff)
        .filter_map(|(ns, over)| over.then_some(*ns))
        .collect();
    let loads = engine.loads();
    let store_ns = per(engine.demote_s() * 1e9, engine.stores);
    let load_ns = per(engine.promote_s() * 1e9, loads);
    let stored_share = per(loads as f64, engine.stores);
    let mut put = |name: &'static str, value: f64| {
        layers.insert(name, value);
    };
    put("compress.gen_ns_per_page", per(gen_s * 1e9, p.pages as u64));
    put(
        "compress.lzo_compress_ns_per_page",
        mean("compress.codec_compress"),
    );
    put(
        "compress.lzo_decompress_ns_per_page",
        mean("compress.codec_decompress"),
    );
    put(
        "compress.lzo_compress_ns_per_page_incompressible",
        per(over.iter().sum(), over.len() as u64),
    );
    put(
        "compress.ratio_median_permille",
        median(&twin.ratios_permille),
    );
    put(
        "compress.rejected_permille",
        permille(twin.rejected, p.pages as u64) as f64,
    );
    put(
        "compress.zsmalloc_alloc_ns",
        mean("compress.zsmalloc_alloc"),
    );
    put("compress.zsmalloc_free_ns", mean("compress.zsmalloc_free"));
    put(
        "compress.zsmalloc_compact_ns_per_page",
        per(mean("compress.zsmalloc_compact"), twin.compacted_pages),
    );
    put(
        "compress.zsmalloc_efficiency_permille",
        twin.efficiency_permille,
    );
    // The store's own share: its time per page minus what the codec and
    // the arena took for the same pages in the twin.
    put(
        "kernel.zswap_store_self_ns_per_page",
        (store_ns
            - mean("compress.codec_compress")
            - mean("compress.zsmalloc_alloc") * stored_share)
            .max(0.0),
    );
    put(
        "kernel.zswap_load_self_ns_per_page",
        (load_ns - mean("compress.codec_decompress") - mean("compress.zsmalloc_free")).max(0.0),
    );
    let p98: Vec<f64> = engine.load_us.iter().map(|c| percentile(c, 98.0)).collect();
    put("kernel.zswap_load_p98_us", median(&p98));
    put(
        "kernel.zswap_demote_pages_per_s",
        engine.stores as f64 / engine.demote_s(),
    );
    put(
        "kernel.zswap_promote_pages_per_s",
        loads as f64 / engine.promote_s(),
    );
    put("kernel.compact_ns_per_call", engine.compact_ns);

    let probe_pages = &pages[..pages.len().min(4_000)];
    let (c, d) = codec_probe(CodecKind::Lz4, probe_pages);
    put("compress.lz4_compress_ns_per_page", c);
    put("compress.lz4_decompress_ns_per_page", d);
    let (c, d) = codec_probe(CodecKind::Snappy, probe_pages);
    put("compress.snappy_compress_ns_per_page", c);
    put("compress.snappy_decompress_ns_per_page", d);
    Traced {
        checks,
        sim: engine.sim,
        step_us: engine.load_us.into_iter().flatten().collect(),
    }
}
