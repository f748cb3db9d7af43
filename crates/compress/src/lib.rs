//! Page compression for software-defined far memory.
//!
//! zswap trades CPU cycles for memory: cold pages are compressed in place
//! and the compressed payloads are packed into a [zsmalloc
//! arena](zsmalloc::ZsmallocArena). This crate provides everything below the
//! kernel layer:
//!
//! * three byte-oriented LZ77-family block codecs written from scratch —
//!   [`Lz4Codec`] (the LZ4 block format),
//!   [`SnappyCodec`] (the Snappy raw format), and
//!   [`LzoCodec`] (an LZO1X-class format of our own design,
//!   matching the paper's production choice of a fast, byte-aligned codec);
//! * the [`page`] module: page-sized buffers, the 2990-byte incompressible
//!   cutoff from §5.1, and [`compress_page`];
//! * the [`gen`] module: synthetic page *content* generators with controlled
//!   compressibility classes (text, structured records, zero-dominated,
//!   heap pointers, multimedia, encrypted), used to reproduce the fleet
//!   compression-ratio distribution of Figure 9a;
//! * the [`zsmalloc`] module: a size-class slab allocator for compressed
//!   payloads with external-fragmentation accounting and an explicit
//!   compaction interface, as deployed in the paper (one global arena per
//!   machine).
//!
//! # Examples
//!
//! ```
//! use sdfm_compress::codec::{Lz4Codec, PageCodec};
//!
//! let codec = Lz4Codec::new();
//! let page = vec![7u8; 4096];
//! let mut compressed = Vec::new();
//! codec.compress(&page, &mut compressed);
//! assert!(compressed.len() < 100);
//!
//! let mut out = Vec::new();
//! codec.decompress(&compressed, &mut out).unwrap();
//! assert_eq!(out, page);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod gen;
mod lz;
pub mod measure;
pub mod page;
pub mod zsmalloc;

pub use codec::{CodecKind, DecompressError, Lz4Codec, LzoCodec, PageCodec, SnappyCodec};
pub use gen::{CompressibilityMix, PageClass, PageGenerator};
pub use measure::{measure_fleet_ratios, ClassPayloadStats, ClassPayloadTable, MeasuredRatios};
pub use page::{compress_page, CompressedPage, MAX_COMPRESSED_PAYLOAD};
pub use zsmalloc::{ZsHandle, ZsmallocArena, ZsmallocStats};
