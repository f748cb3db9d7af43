//! Golden pins: hashes of every compressed stream the three encoders
//! produce over a seeded corpus, so a change to the shared match finder
//! is provably parse-preserving (same hash, same insert policy, same
//! greedy choice → same bytes out).
//!
//! Every constant was recorded at the commit before the single-probe,
//! word-at-a-time finder replaced the byte-at-a-time one. A mismatch means
//! compressed output changed: Fig 9a's ratio and rejection numbers, and the
//! benchmark's `kernel.sim_store_bytes`, move with it.

use sdfm_compress::codec::CodecKind;
use sdfm_compress::gen::{PageClass, PageGenerator};
use sdfm_compress::MAX_COMPRESSED_PAYLOAD;
use sdfm_types::size::PAGE_SIZE;

/// FNV-1a, 64-bit.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PAGES_PER_CLASS: usize = 48;

/// Seeded pages of every class, class by class.
fn class_corpus() -> Vec<(PageClass, Vec<u8>)> {
    let mut gen = PageGenerator::new(0x601D_5EED);
    PageClass::ALL
        .iter()
        .flat_map(|&class| (0..PAGES_PER_CLASS).map(move |_| class))
        .map(|class| (class, gen.generate(class)))
        .collect()
}

/// The inputs where the parse has no room: empty, shorter than any
/// match-start margin, one long run, and short periods at lengths that
/// end a match inside, at and before the final 12 bytes.
fn edge_corpus() -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = (0..=11usize)
        .map(|n| (0..n).map(|i| b'a' + (i % 3) as u8).collect())
        .collect();
    inputs.push(vec![0u8; PAGE_SIZE]);
    for period in 1..=16usize {
        for len in [13, 17, 64, 255, 1000, PAGE_SIZE] {
            inputs.push(
                (0..len)
                    .map(|i| ((i % period) as u8).wrapping_mul(37) ^ 0x5A)
                    .collect(),
            );
        }
    }
    inputs
}

/// Compresses every input with `kind`, checks the round trip, and hashes
/// `len ‖ stream` of each.
fn stream_hash<'a>(kind: CodecKind, inputs: impl Iterator<Item = &'a [u8]>) -> u64 {
    let codec = kind.build();
    let (mut dst, mut out) = (Vec::new(), Vec::new());
    let mut hash = FNV_OFFSET;
    for src in inputs {
        codec.compress(src, &mut dst);
        codec
            .decompress(&dst, &mut out)
            .unwrap_or_else(|e| panic!("{kind}: own stream rejected: {e}"));
        assert_eq!(out, src, "{kind}: round trip mismatch");
        hash = fnv1a64(hash, &(dst.len() as u64).to_le_bytes());
        hash = fnv1a64(hash, &dst);
    }
    hash
}

#[track_caller]
fn pin(what: &str, kind: CodecKind, actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "{what} / {kind}: golden hash is {actual:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn class_page_streams_are_pinned() {
    let corpus = class_corpus();
    let expected = [
        (CodecKind::Lzo, 0x6696_29f4_0147_7093),
        (CodecKind::Lz4, 0x3fe1_75ad_8e9b_b9ed),
        (CodecKind::Snappy, 0x5c80_5407_ccbb_f1de),
    ];
    for (kind, hash) in expected {
        let actual = stream_hash(kind, corpus.iter().map(|(_, p)| p.as_slice()));
        pin("class pages", kind, actual, hash);
    }
}

#[test]
fn edge_input_streams_are_pinned() {
    let corpus = edge_corpus();
    let expected = [
        (CodecKind::Lzo, 0x1c59_384d_aaec_9e53),
        (CodecKind::Lz4, 0xb9d4_e49a_1d04_8274),
        (CodecKind::Snappy, 0xe900_9c49_7f1b_9de0),
    ];
    for (kind, hash) in expected {
        let actual = stream_hash(kind, corpus.iter().map(Vec::as_slice));
        pin("edge inputs", kind, actual, hash);
    }
}

/// What `compress_page` and `ZswapStore` size their scratch buffers by:
/// the pages that get thrown away at the cutoff expand, but never past
/// `max_compressed_len(PAGE_SIZE)`.
#[test]
fn incompressible_classes_stay_within_the_scratch_bound() {
    let corpus = class_corpus();
    for kind in CodecKind::ALL {
        let codec = kind.build();
        let bound = codec.max_compressed_len(PAGE_SIZE);
        let mut dst = Vec::new();
        let mut over_cutoff = 0usize;
        for (class, page) in corpus
            .iter()
            .filter(|(c, _)| c.is_typically_incompressible())
        {
            codec.compress(page, &mut dst);
            assert!(
                dst.len() <= bound,
                "{kind}: {class:?} page took {} > {bound}",
                dst.len()
            );
            over_cutoff += usize::from(dst.len() > MAX_COMPRESSED_PAYLOAD);
        }
        assert!(
            over_cutoff > PAGES_PER_CLASS,
            "{kind}: only {over_cutoff} pages crossed the cutoff; the corpus no longer exercises expansion"
        );
    }
}
