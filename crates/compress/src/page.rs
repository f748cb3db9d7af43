//! Page-level compression policy: the incompressible cutoff.
//!
//! §5.1: "there are no gains to be derived by storing zsmalloc payloads
//! larger than 2990 bytes (73% of a 4 KiB x86 page), where metadata overhead
//! becomes higher than savings from compressing the page." Pages whose
//! compressed payload exceeds [`MAX_COMPRESSED_PAYLOAD`] are marked
//! incompressible and rejected; the kernel clears the mark when the page is
//! dirtied again.

use bytes::Bytes;

use crate::codec::PageCodec;
use sdfm_types::size::PAGE_SIZE;

/// The largest zsmalloc payload worth storing: 2990 bytes, 73% of a 4 KiB
/// page (§5.1).
pub const MAX_COMPRESSED_PAYLOAD: usize = 2990;

/// The outcome of attempting to compress one page for the zswap store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressedPage {
    /// The page compressed under the cutoff; the payload is what zsmalloc
    /// stores.
    Stored {
        /// The compressed payload.
        payload: Bytes,
    },
    /// The compressed payload would have exceeded
    /// [`MAX_COMPRESSED_PAYLOAD`]; the page is marked incompressible and
    /// left in DRAM.
    Incompressible {
        /// The size the payload would have had, for accounting.
        would_be_len: usize,
    },
}

impl CompressedPage {
    /// The stored payload length, or `None` for incompressible pages.
    pub fn stored_len(&self) -> Option<usize> {
        match self {
            CompressedPage::Stored { payload } => Some(payload.len()),
            CompressedPage::Incompressible { .. } => None,
        }
    }

    /// The compression ratio achieved (page size / payload size), or `None`
    /// for incompressible pages.
    pub fn ratio(&self) -> Option<f64> {
        self.stored_len().map(|n| PAGE_SIZE as f64 / n as f64)
    }
}

/// Compresses one 4 KiB page and applies the incompressible cutoff.
///
/// The codec's output never exceeds `codec.max_compressed_len(PAGE_SIZE)`
/// — pages that expand are the ones thrown away here — so a scratch buffer
/// of that capacity (this function's, `ZswapStore`'s) never reallocates.
///
/// # Panics
///
/// Panics if `page` is not exactly [`PAGE_SIZE`] bytes: the zswap store
/// works strictly at OS-page granularity.
///
/// # Examples
///
/// ```
/// use sdfm_compress::codec::LzoCodec;
/// use sdfm_compress::page::{compress_page, CompressedPage};
///
/// let codec = LzoCodec::new();
/// let zeros = vec![0u8; 4096];
/// assert!(matches!(compress_page(&codec, &zeros), CompressedPage::Stored { .. }));
/// ```
pub fn compress_page(codec: &dyn PageCodec, page: &[u8]) -> CompressedPage {
    assert_eq!(
        page.len(),
        PAGE_SIZE,
        "zswap compresses whole 4 KiB pages, got {} bytes",
        page.len()
    );
    let mut buf = Vec::with_capacity(codec.max_compressed_len(PAGE_SIZE));
    codec.compress(page, &mut buf);
    if buf.len() > MAX_COMPRESSED_PAYLOAD {
        CompressedPage::Incompressible {
            would_be_len: buf.len(),
        }
    } else {
        CompressedPage::Stored {
            payload: Bytes::from(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CodecKind, LzoCodec};

    #[test]
    fn zero_page_stores_with_high_ratio() {
        let codec = LzoCodec::new();
        let page = vec![0u8; PAGE_SIZE];
        let c = compress_page(&codec, &page);
        let ratio = c.ratio().expect("zero page must store");
        assert!(ratio > 20.0, "ratio {ratio} too low for a zero page");
    }

    #[test]
    fn random_page_is_incompressible() {
        // Deterministic xorshift noise: entropy ~8 bits/byte.
        let mut x = 0xDEADBEEFu32;
        let page: Vec<u8> = (0..PAGE_SIZE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        for kind in CodecKind::ALL {
            let codec = kind.build();
            let c = compress_page(codec.as_ref(), &page);
            assert!(
                matches!(c, CompressedPage::Incompressible { .. }),
                "{kind}: random page unexpectedly stored"
            );
            if let CompressedPage::Incompressible { would_be_len } = c {
                assert!(would_be_len > MAX_COMPRESSED_PAYLOAD);
            }
        }
    }

    #[test]
    fn cutoff_is_2990_bytes() {
        assert_eq!(MAX_COMPRESSED_PAYLOAD, 2990);
        // 2990 / 4096 = 73%.
        assert_eq!(MAX_COMPRESSED_PAYLOAD * 100 / PAGE_SIZE, 72); // 72.99…%
    }

    #[test]
    #[should_panic(expected = "whole 4 KiB pages")]
    fn non_page_sized_input_rejected() {
        let codec = LzoCodec::new();
        let _ = compress_page(&codec, &[0u8; 100]);
    }

    #[test]
    fn stored_roundtrips_through_codec() {
        let codec = LzoCodec::new();
        let page: Vec<u8> = (0..PAGE_SIZE).map(|i| (i / 64) as u8).collect();
        match compress_page(&codec, &page) {
            CompressedPage::Stored { payload } => {
                let mut out = Vec::new();
                codec.decompress(&payload, &mut out).unwrap();
                assert_eq!(out, page);
            }
            CompressedPage::Incompressible { .. } => panic!("structured page must compress"),
        }
    }
}
