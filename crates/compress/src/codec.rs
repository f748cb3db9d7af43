//! The three page codecs: LZ4 block format, Snappy raw format, and an
//! LZO1X-class byte-aligned format.
//!
//! The paper's production system compared lzo, lz4, and snappy and chose lzo
//! for the best speed/ratio trade-off (§5.1, footnote 1). We implement all
//! three families from scratch so that the trade-off itself can be
//! reproduced (the `table_fn1` experiment binary):
//!
//! * [`Lz4Codec`] encodes the real LZ4 *block* format (token nibbles,
//!   extended lengths, 2-byte little-endian offsets);
//! * [`SnappyCodec`] encodes the real Snappy raw format (length preamble and
//!   tagged elements);
//! * [`LzoCodec`] encodes a compact format of our own design in the LZO1X
//!   style — byte-aligned control bytes carrying short match lengths and
//!   13-bit offsets — documented in the type's docs. It is *not* binary
//!   compatible with liblzo; it occupies the same design point (cheapest
//!   possible decode loop, byte-aligned, greedy parse).
//!
//! All decoders are panic-free on arbitrary input: malformed streams yield
//! [`DecompressError`].

use std::error::Error;
use std::fmt;

use crate::lz::{Match, MatchFinder, MIN_MATCH};

/// Identifies a codec implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CodecKind {
    /// LZO1X-class byte-aligned format (production default in the paper).
    Lzo,
    /// LZ4 block format.
    Lz4,
    /// Snappy raw format.
    Snappy,
}

impl CodecKind {
    /// All codec kinds, in the order the paper's footnote lists them.
    pub const ALL: [CodecKind; 3] = [CodecKind::Lzo, CodecKind::Lz4, CodecKind::Snappy];

    /// Instantiates the codec for this kind.
    pub fn build(self) -> Box<dyn PageCodec> {
        match self {
            CodecKind::Lzo => Box::new(LzoCodec::new()),
            CodecKind::Lz4 => Box::new(Lz4Codec::new()),
            CodecKind::Snappy => Box::new(SnappyCodec::new()),
        }
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecKind::Lzo => write!(f, "lzo"),
            CodecKind::Lz4 => write!(f, "lz4"),
            CodecKind::Snappy => write!(f, "snappy"),
        }
    }
}

/// Error decoding a compressed block.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecompressError {
    /// The stream ended before the format said it would.
    Truncated,
    /// A back-reference pointed before the start of the output.
    InvalidOffset {
        /// The offending offset.
        offset: usize,
        /// Output length at the time.
        produced: usize,
    },
    /// The stream violated the format in some other way.
    Corrupt {
        /// Short description of the violation.
        detail: &'static str,
    },
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream truncated"),
            DecompressError::InvalidOffset { offset, produced } => write!(
                f,
                "back-reference offset {offset} exceeds produced output {produced}"
            ),
            DecompressError::Corrupt { detail } => write!(f, "corrupt stream: {detail}"),
        }
    }
}

impl Error for DecompressError {}

/// A block codec operating on page-sized buffers.
///
/// Implementations are `Send + Sync` so one codec instance can serve a whole
/// simulated machine. `compress` never fails (worst case the output is
/// slightly larger than the input — the caller applies the incompressible
/// cutoff, see [`crate::page::compress_page`]); `decompress` validates the
/// stream.
pub trait PageCodec: fmt::Debug + Send + Sync {
    /// Which format this codec implements.
    fn kind(&self) -> CodecKind;

    /// Compresses `src`, appending to `dst` (which is cleared first).
    fn compress(&self, src: &[u8], dst: &mut Vec<u8>);

    /// Decompresses `src`, appending to `dst` (which is cleared first).
    ///
    /// # Errors
    ///
    /// Returns a [`DecompressError`] if the stream is truncated, contains an
    /// out-of-range back-reference, or otherwise violates the format.
    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), DecompressError>;

    /// An upper bound on the compressed size of `src_len` input bytes.
    fn max_compressed_len(&self, src_len: usize) -> usize {
        src_len + src_len / 16 + 64
    }
}

/// Appends `len` bytes starting `offset` back from the end of `dst`. The
/// two may overlap (`offset < len`): the output is then periodic in
/// `offset`.
#[inline]
fn copy_match(dst: &mut Vec<u8>, offset: usize, len: usize) -> Result<(), DecompressError> {
    let produced = dst.len();
    if offset == 0 || offset > produced {
        return Err(DecompressError::InvalidOffset { offset, produced });
    }
    let start = produced - offset;
    if offset >= len {
        dst.extend_from_within(start..start + len);
    } else if offset == 1 {
        // A run of one byte: nearly every overlapping copy pages produce.
        let byte = dst[start];
        dst.resize(produced + len, byte);
    } else {
        // Everything appended so far repeats the period, so it is valid
        // source for the next chunk: the copied span doubles each round.
        let mut remaining = len;
        while remaining > 0 {
            let n = (dst.len() - start).min(remaining);
            dst.extend_from_within(start..start + n);
            remaining -= n;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// LZ4 block format
// ---------------------------------------------------------------------------

/// The LZ4 block format: token byte with literal-length and match-length
/// nibbles, extended lengths in 255-byte runs, 2-byte little-endian offsets,
/// minimum match 4, last 5 bytes always literal.
#[derive(Debug, Default)]
pub struct Lz4Codec {
    _private: (),
}

const LZ4_MIN_MATCH: usize = 4;
// The token stores `len - LZ4_MIN_MATCH`; the finder never reports less.
const _: () = assert!(MIN_MATCH >= LZ4_MIN_MATCH);
const LZ4_MFLIMIT: usize = 12; // matches must not start in the last 12 bytes
const LZ4_LAST_LITERALS: usize = 5;

impl Lz4Codec {
    /// Creates an LZ4 block codec.
    pub fn new() -> Self {
        Lz4Codec::default()
    }

    fn emit_sequence(dst: &mut Vec<u8>, literals: &[u8], m: Option<Match>) {
        let lit_len = literals.len();
        let ml_code = m.map(|m| m.len - LZ4_MIN_MATCH).unwrap_or(0);
        let token = ((lit_len.min(15) as u8) << 4) | (ml_code.min(15) as u8);
        dst.push(token);
        if lit_len >= 15 {
            let mut rest = lit_len - 15;
            while rest >= 255 {
                dst.push(255);
                rest -= 255;
            }
            dst.push(rest as u8);
        }
        dst.extend_from_slice(literals);
        if let Some(m) = m {
            dst.extend_from_slice(&(m.offset as u16).to_le_bytes());
            if ml_code >= 15 {
                let mut rest = ml_code - 15;
                while rest >= 255 {
                    dst.push(255);
                    rest -= 255;
                }
                dst.push(rest as u8);
            }
        }
    }
}

impl PageCodec for Lz4Codec {
    fn kind(&self) -> CodecKind {
        CodecKind::Lz4
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) {
        dst.clear();
        // Blocks under `LZ4_MFLIMIT` bytes (the empty one included) have no
        // searchable position and come out as the final sequence alone.
        let mut anchor = 0usize;
        for m in MatchFinder::new(src, u16::MAX as usize, LZ4_MFLIMIT, LZ4_LAST_LITERALS) {
            Self::emit_sequence(dst, &src[anchor..m.pos], Some(m));
            anchor = m.pos + m.len;
        }
        Self::emit_sequence(dst, &src[anchor..], None);
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), DecompressError> {
        dst.clear();
        let mut i = 0usize;
        loop {
            let token = *src.get(i).ok_or(DecompressError::Truncated)?;
            i += 1;
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                loop {
                    let b = *src.get(i).ok_or(DecompressError::Truncated)?;
                    i += 1;
                    lit_len += b as usize;
                    if b != 255 {
                        break;
                    }
                }
            }
            let lit_end = i.checked_add(lit_len).ok_or(DecompressError::Corrupt {
                detail: "literal length overflow",
            })?;
            if lit_end > src.len() {
                return Err(DecompressError::Truncated);
            }
            dst.extend_from_slice(&src[i..lit_end]);
            i = lit_end;
            if i == src.len() {
                // Last sequence carries literals only.
                return Ok(());
            }
            if i + 2 > src.len() {
                return Err(DecompressError::Truncated);
            }
            let offset = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
            i += 2;
            let mut ml = (token & 0x0F) as usize;
            if ml == 15 {
                loop {
                    let b = *src.get(i).ok_or(DecompressError::Truncated)?;
                    i += 1;
                    ml += b as usize;
                    if b != 255 {
                        break;
                    }
                }
            }
            copy_match(dst, offset, ml + LZ4_MIN_MATCH)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Snappy raw format
// ---------------------------------------------------------------------------

/// The Snappy raw format: a varint uncompressed-length preamble followed by
/// tagged elements — literals and copies with 1-, 2-, or 4-byte offsets.
///
/// The encoder emits literals and 2-byte-offset copies (sufficient for page
/// inputs); the decoder accepts the full element set.
#[derive(Debug, Default)]
pub struct SnappyCodec {
    _private: (),
}

impl SnappyCodec {
    /// Creates a Snappy codec.
    pub fn new() -> Self {
        SnappyCodec::default()
    }

    fn put_varint(dst: &mut Vec<u8>, mut v: usize) {
        while v >= 0x80 {
            dst.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        dst.push(v as u8);
    }

    fn get_varint(src: &[u8], i: &mut usize) -> Result<usize, DecompressError> {
        let mut shift = 0u32;
        let mut v = 0usize;
        loop {
            let b = *src.get(*i).ok_or(DecompressError::Truncated)?;
            *i += 1;
            if shift >= 35 {
                return Err(DecompressError::Corrupt {
                    detail: "varint too long",
                });
            }
            v |= ((b & 0x7F) as usize) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn emit_literal(dst: &mut Vec<u8>, lit: &[u8]) {
        let mut rest = lit;
        while !rest.is_empty() {
            let n = rest.len().min(65536);
            if n <= 60 {
                dst.push(((n - 1) as u8) << 2);
            } else if n <= 256 {
                dst.push(60 << 2);
                dst.push((n - 1) as u8);
            } else {
                dst.push(61 << 2);
                dst.extend_from_slice(&((n - 1) as u16).to_le_bytes());
            }
            dst.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
        }
    }

    fn emit_copy(dst: &mut Vec<u8>, offset: usize, mut len: usize) {
        // 2-byte-offset copies encode lengths 1..=64.
        while len > 0 {
            let n = if len > 64 && len < 68 {
                // Avoid leaving a sub-minimum tail that would still be legal
                // but pessimal; split 60 + remainder.
                60
            } else {
                len.min(64)
            };
            dst.push((((n - 1) as u8) << 2) | 0b10);
            dst.extend_from_slice(&(offset as u16).to_le_bytes());
            len -= n;
        }
    }
}

impl PageCodec for SnappyCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Snappy
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) {
        dst.clear();
        Self::put_varint(dst, src.len());
        let mut anchor = 0usize;
        for m in MatchFinder::new(src, u16::MAX as usize, MIN_MATCH, 0) {
            Self::emit_literal(dst, &src[anchor..m.pos]);
            Self::emit_copy(dst, m.offset, m.len);
            anchor = m.pos + m.len;
        }
        Self::emit_literal(dst, &src[anchor..]);
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), DecompressError> {
        dst.clear();
        let mut i = 0usize;
        let expected = Self::get_varint(src, &mut i)?;
        while i < src.len() {
            let tag = src[i];
            i += 1;
            match tag & 0b11 {
                0b00 => {
                    // Literal.
                    let code = (tag >> 2) as usize;
                    let len = if code < 60 {
                        code + 1
                    } else {
                        let extra = code - 59; // 1..=4 extra length bytes
                        let mut v = 0usize;
                        for k in 0..extra {
                            let b = *src.get(i + k).ok_or(DecompressError::Truncated)?;
                            v |= (b as usize) << (8 * k);
                        }
                        i += extra;
                        v + 1
                    };
                    let end = i.checked_add(len).ok_or(DecompressError::Corrupt {
                        detail: "literal length overflow",
                    })?;
                    if end > src.len() {
                        return Err(DecompressError::Truncated);
                    }
                    dst.extend_from_slice(&src[i..end]);
                    i = end;
                }
                0b01 => {
                    // Copy, 1-byte offset: len 4..=11, offset 11 bits.
                    let len = (((tag >> 2) & 0x7) + 4) as usize;
                    let b = *src.get(i).ok_or(DecompressError::Truncated)?;
                    i += 1;
                    let offset = (((tag & 0xE0) as usize) << 3) | b as usize;
                    copy_match(dst, offset, len)?;
                }
                0b10 => {
                    // Copy, 2-byte offset.
                    let len = ((tag >> 2) as usize) + 1;
                    if i + 2 > src.len() {
                        return Err(DecompressError::Truncated);
                    }
                    let offset = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
                    i += 2;
                    copy_match(dst, offset, len)?;
                }
                _ => {
                    // Copy, 4-byte offset.
                    let len = ((tag >> 2) as usize) + 1;
                    if i + 4 > src.len() {
                        return Err(DecompressError::Truncated);
                    }
                    let offset =
                        u32::from_le_bytes([src[i], src[i + 1], src[i + 2], src[i + 3]]) as usize;
                    i += 4;
                    copy_match(dst, offset, len)?;
                }
            }
        }
        if dst.len() != expected {
            return Err(DecompressError::Corrupt {
                detail: "uncompressed length mismatch",
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// LZO1X-class format
// ---------------------------------------------------------------------------

/// An LZO1X-class byte-aligned format of our own design.
///
/// Stream grammar (all lengths in bytes):
///
/// * control byte `C < 0x20`: a literal run of `C + 1` bytes follows
///   (runs of 1..=32);
/// * control byte `C >= 0x20`: a match. The top three bits `C >> 5`
///   (1..=7) encode the match length: codes 1..=6 mean lengths 3..=8;
///   code 7 means an extended length of `8 + sum` where the following
///   bytes are added until one is not 255. The low five bits of `C` are
///   the high bits of a 13-bit `offset - 1`, whose low 8 bits follow the
///   (optional) length-extension bytes. Offsets span 1..=8192 — enough to
///   cover a 4 KiB page twice over.
///
/// Like LZO1X it favours the decoder: one branch on the control byte, no
/// bit-level unpacking, byte-aligned everything.
#[derive(Debug, Default)]
pub struct LzoCodec {
    _private: (),
}

const LZO_MAX_OFFSET: usize = 8192;

impl LzoCodec {
    /// Creates an LZO-class codec.
    pub fn new() -> Self {
        LzoCodec::default()
    }

    fn emit_literals(dst: &mut Vec<u8>, lit: &[u8]) {
        for chunk in lit.chunks(32) {
            dst.push((chunk.len() - 1) as u8);
            dst.extend_from_slice(chunk);
        }
    }

    fn emit_match(dst: &mut Vec<u8>, offset: usize, len: usize) {
        debug_assert!((3..=usize::MAX).contains(&len));
        debug_assert!((1..=LZO_MAX_OFFSET).contains(&offset));
        let off = offset - 1;
        let hi = ((off >> 8) & 0x1F) as u8;
        if len <= 8 {
            let code = (len - 2) as u8; // 3..=8 -> 1..=6
            dst.push((code << 5) | hi);
        } else {
            dst.push((7 << 5) | hi);
            let mut rest = len - 8;
            while rest >= 255 {
                dst.push(255);
                rest -= 255;
            }
            dst.push(rest as u8);
        }
        dst.push((off & 0xFF) as u8);
    }
}

impl PageCodec for LzoCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Lzo
    }

    fn compress(&self, src: &[u8], dst: &mut Vec<u8>) {
        dst.clear();
        let mut anchor = 0usize;
        for m in MatchFinder::new(src, LZO_MAX_OFFSET, MIN_MATCH, 0) {
            Self::emit_literals(dst, &src[anchor..m.pos]);
            Self::emit_match(dst, m.offset, m.len);
            anchor = m.pos + m.len;
        }
        Self::emit_literals(dst, &src[anchor..]);
    }

    fn decompress(&self, src: &[u8], dst: &mut Vec<u8>) -> Result<(), DecompressError> {
        dst.clear();
        let mut i = 0usize;
        while i < src.len() {
            let c = src[i];
            i += 1;
            if c < 0x20 {
                let len = c as usize + 1;
                let end = i + len;
                if end > src.len() {
                    return Err(DecompressError::Truncated);
                }
                dst.extend_from_slice(&src[i..end]);
                i = end;
            } else {
                let code = (c >> 5) as usize;
                let len = if code <= 6 {
                    code + 2
                } else {
                    let mut len = 8usize;
                    loop {
                        let b = *src.get(i).ok_or(DecompressError::Truncated)?;
                        i += 1;
                        len += b as usize;
                        if b != 255 {
                            break;
                        }
                    }
                    len
                };
                let lo = *src.get(i).ok_or(DecompressError::Truncated)? as usize;
                i += 1;
                let offset = ((((c & 0x1F) as usize) << 8) | lo) + 1;
                copy_match(dst, offset, len)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_codecs() -> Vec<Box<dyn PageCodec>> {
        CodecKind::ALL.iter().map(|k| k.build()).collect()
    }

    fn roundtrip(codec: &dyn PageCodec, data: &[u8]) -> usize {
        let mut compressed = Vec::new();
        codec.compress(data, &mut compressed);
        let mut out = Vec::new();
        codec
            .decompress(&compressed, &mut out)
            .unwrap_or_else(|e| panic!("{}: decompress failed: {e}", codec.kind()));
        assert_eq!(out, data, "{} roundtrip mismatch", codec.kind());
        compressed.len()
    }

    /// Every copy path (disjoint, run of one byte, doubling period) against
    /// the definition: each output byte is the one `offset` behind it.
    #[test]
    fn copy_match_equals_byte_at_a_time_reference() {
        let seed: Vec<u8> = (0..16u8).map(|i| i.wrapping_mul(29) ^ 0xA5).collect();
        for offset in 1..=16usize {
            for len in 1..=600usize {
                let mut expected = seed.clone();
                for _ in 0..len {
                    expected.push(expected[expected.len() - offset]);
                }
                let mut dst = seed.clone();
                copy_match(&mut dst, offset, len).expect("offset is within the seed");
                assert_eq!(dst, expected, "offset {offset}, len {len}");
            }
        }
        let mut dst = seed.clone();
        for offset in [0, 17] {
            assert_eq!(
                copy_match(&mut dst, offset, 4),
                Err(DecompressError::InvalidOffset {
                    offset,
                    produced: 16
                })
            );
        }
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for codec in all_codecs() {
            roundtrip(codec.as_ref(), b"");
            roundtrip(codec.as_ref(), b"a");
            roundtrip(codec.as_ref(), b"abc");
            roundtrip(codec.as_ref(), b"hello world");
        }
    }

    #[test]
    fn roundtrip_constant_page_compresses_hard() {
        let page = vec![0xABu8; 4096];
        for codec in all_codecs() {
            let n = roundtrip(codec.as_ref(), &page);
            assert!(n < 200, "{}: constant page took {} bytes", codec.kind(), n);
        }
    }

    #[test]
    fn roundtrip_repetitive_text() {
        let text = "the quick brown fox jumps over the lazy dog. "
            .repeat(100)
            .into_bytes();
        for codec in all_codecs() {
            let n = roundtrip(codec.as_ref(), &text);
            assert!(
                n < text.len() / 3,
                "{}: repetitive text ratio too poor ({} of {})",
                codec.kind(),
                n,
                text.len()
            );
        }
    }

    #[test]
    fn roundtrip_incompressible_data_expands_bounded() {
        // A fixed pseudo-random page: xorshift so the test is deterministic.
        let mut x = 0x12345678u32;
        let page: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        for codec in all_codecs() {
            let n = roundtrip(codec.as_ref(), &page);
            assert!(
                n <= codec.max_compressed_len(page.len()),
                "{}: expansion {} exceeds bound {}",
                codec.kind(),
                n,
                codec.max_compressed_len(page.len())
            );
        }
    }

    #[test]
    fn roundtrip_long_match_requires_extended_lengths() {
        // >255 byte match forces the extended-length paths.
        let mut data = Vec::new();
        data.extend_from_slice(b"SEED_BLOCK_0123456789abcdef");
        let block = data.clone();
        for _ in 0..40 {
            data.extend_from_slice(&block);
        }
        for codec in all_codecs() {
            roundtrip(codec.as_ref(), &data);
        }
    }

    #[test]
    fn roundtrip_overlapping_rle() {
        // "aaaa..." generates offset-1 overlapping copies.
        let mut data = vec![b'x'; 5];
        data.extend(std::iter::repeat_n(b'a', 1000));
        data.extend_from_slice(b"tail");
        for codec in all_codecs() {
            roundtrip(codec.as_ref(), &data);
        }
    }

    #[test]
    fn decompress_detects_truncation_or_degrades_safely() {
        // LZ4 and Snappy carry enough structure to reject every prefix of a
        // real stream; the LZO-class format (like raw LZO) has no length
        // header, so a cut at an op boundary legally decodes to a shorter
        // output. Either way a truncated stream must never reproduce the
        // original page, and must never panic.
        let original = vec![7u8; 4096];
        for codec in all_codecs() {
            let mut compressed = Vec::new();
            codec.compress(&original, &mut compressed);
            for cut in [0, 1, compressed.len() / 2, compressed.len() - 1] {
                let mut out = Vec::new();
                match codec.decompress(&compressed[..cut], &mut out) {
                    Err(_) => {}
                    Ok(()) => assert_ne!(
                        out,
                        original,
                        "{}: truncation at {} reproduced the original",
                        codec.kind(),
                        cut
                    ),
                }
            }
        }
    }

    #[test]
    fn decompress_rejects_bad_offsets() {
        // LZ4: token 0x01 (0 literals, match len 4), offset 0xFFFF with no
        // produced output.
        let lz4 = Lz4Codec::new();
        let mut out = Vec::new();
        let r = lz4.decompress(&[0x01, 0xFF, 0xFF, 0x00], &mut out);
        assert!(matches!(r, Err(DecompressError::InvalidOffset { .. })));

        // Snappy: copy element before any output.
        let snappy = SnappyCodec::new();
        let r = snappy.decompress(&[4, 0b0000_1110, 0x10, 0x00], &mut out);
        assert!(r.is_err());

        // LZO: match control before any output.
        let lzo = LzoCodec::new();
        let r = lzo.decompress(&[0x20, 0x05], &mut out);
        assert!(matches!(r, Err(DecompressError::InvalidOffset { .. })));
    }

    #[test]
    fn snappy_rejects_length_mismatch() {
        let snappy = SnappyCodec::new();
        // Preamble says 10 bytes, stream carries a 1-byte literal.
        let mut out = Vec::new();
        let r = snappy.decompress(&[10, 0x00, b'z'], &mut out);
        assert_eq!(
            r,
            Err(DecompressError::Corrupt {
                detail: "uncompressed length mismatch"
            })
        );
    }

    #[test]
    fn codec_kind_display_and_build() {
        assert_eq!(CodecKind::Lzo.to_string(), "lzo");
        assert_eq!(CodecKind::Lz4.to_string(), "lz4");
        assert_eq!(CodecKind::Snappy.to_string(), "snappy");
        for k in CodecKind::ALL {
            assert_eq!(k.build().kind(), k);
        }
    }

    #[test]
    fn decoders_never_panic_on_garbage() {
        // A deterministic battery of garbage inputs.
        let mut x = 0x9E3779B9u32;
        for len in [0usize, 1, 2, 7, 64, 512] {
            for _trial in 0..50 {
                let garbage: Vec<u8> = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        (x >> 16) as u8
                    })
                    .collect();
                for codec in all_codecs() {
                    let mut out = Vec::new();
                    let _ = codec.decompress(&garbage, &mut out); // must not panic
                }
            }
        }
    }
}
