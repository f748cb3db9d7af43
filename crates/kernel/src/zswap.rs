//! The zswap store: compressed far memory backed by the zsmalloc arena.
//!
//! One store exists per machine (the paper found per-memcg arenas fragment
//! badly, §5.1). Pages enter through [`ZswapStore::store`] — which applies
//! the 2990-byte incompressible cutoff — and leave through
//! [`ZswapStore::load`] on access (promotion) or [`ZswapStore::discard`]
//! when the owning job exits.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::error::KernelError;
use crate::page::PageContent;
use sdfm_compress::codec::{CodecKind, PageCodec};
use sdfm_compress::page::MAX_COMPRESSED_PAYLOAD;
use sdfm_compress::zsmalloc::{ZsHandle, ZsmallocArena, ZsmallocStats};
use sdfm_types::size::{PageCount, PAGE_SIZE};

/// The result of offering a page to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The page was compressed and stored under this handle.
    Stored(ZsHandle),
    /// The payload would exceed the cutoff; the caller must mark the page
    /// incompressible (§5.1).
    Rejected {
        /// The payload size that was rejected.
        would_be_len: usize,
    },
}

/// Cumulative store counters (monotone; the agent takes deltas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ZswapStats {
    /// Pages offered to the store.
    pub store_attempts: u64,
    /// Pages accepted and compressed.
    pub stores: u64,
    /// Pages rejected as incompressible.
    pub rejections: u64,
    /// Pages decompressed back out on access.
    pub loads: u64,
    /// Sum of stored payload bytes (across all stores ever).
    pub bytes_stored: u64,
}

/// The per-machine compressed store.
#[derive(Debug)]
pub struct ZswapStore {
    codec: Box<dyn PageCodec>,
    arena: ZsmallocArena,
    stats: ZswapStats,
    scratch: Vec<u8>,
}

impl ZswapStore {
    /// Creates a store using the given codec (the paper deploys lzo).
    pub fn new(kind: CodecKind) -> Self {
        let codec = kind.build();
        let scratch = Vec::with_capacity(codec.max_compressed_len(PAGE_SIZE));
        ZswapStore {
            codec,
            arena: ZsmallocArena::new(),
            stats: ZswapStats::default(),
            scratch,
        }
    }

    /// The codec in use.
    pub fn codec_kind(&self) -> CodecKind {
        self.codec.kind()
    }

    /// Attempts to store a page. Real content is actually compressed;
    /// synthetic content uses its pre-sampled payload length.
    ///
    /// # Errors
    ///
    /// [`KernelError::StoreCorrupt`] when a payload under the cutoff fails
    /// to fit the arena — the store's own bookkeeping is inconsistent.
    pub fn store(&mut self, content: &PageContent) -> Result<StoreOutcome, KernelError> {
        self.stats.store_attempts += 1;
        let outcome = match content {
            PageContent::Real(bytes) => {
                debug_assert_eq!(bytes.len(), PAGE_SIZE, "zswap stores whole pages");
                self.codec.compress(bytes, &mut self.scratch);
                if self.scratch.len() > MAX_COMPRESSED_PAYLOAD {
                    StoreOutcome::Rejected {
                        would_be_len: self.scratch.len(),
                    }
                } else {
                    let handle = self
                        .arena
                        .alloc(Bytes::copy_from_slice(&self.scratch))
                        .map_err(|_| KernelError::StoreCorrupt {
                            detail: "compressed payload under the cutoff did not fit the arena",
                        })?;
                    StoreOutcome::Stored(handle)
                }
            }
            PageContent::Synthetic { payload_len, .. } => {
                let len = *payload_len as usize;
                if len > MAX_COMPRESSED_PAYLOAD {
                    StoreOutcome::Rejected { would_be_len: len }
                } else {
                    let handle = self.arena.alloc_uninit(len.max(1)).map_err(|_| {
                        KernelError::StoreCorrupt {
                            detail: "synthetic payload under the cutoff did not fit the arena",
                        }
                    })?;
                    StoreOutcome::Stored(handle)
                }
            }
        };
        match outcome {
            StoreOutcome::Stored(h) => {
                self.stats.stores += 1;
                self.stats.bytes_stored +=
                    self.arena
                        .size_of(h)
                        .ok_or(KernelError::StoreCorrupt {
                            detail: "freshly stored handle has no size",
                        })? as u64;
            }
            StoreOutcome::Rejected { .. } => self.stats.rejections += 1,
        }
        Ok(outcome)
    }

    /// Promotes a page out of the store: decompresses real payloads and
    /// frees the slot. Returns the decompressed bytes for real content,
    /// `None` for synthetic.
    ///
    /// # Errors
    ///
    /// [`KernelError::StaleHandle`] if `handle` does not resolve (the
    /// kernel owns every live handle, so the store and the page tables
    /// disagree); [`KernelError::StoreCorrupt`] if a stored payload fails
    /// to decompress (the store wrote it itself).
    pub fn load(&mut self, handle: ZsHandle) -> Result<Option<Bytes>, KernelError> {
        self.stats.loads += 1;
        let payload = self.arena.get(handle).ok_or(KernelError::StaleHandle)?;
        let out = if payload.is_empty() {
            None
        } else {
            let mut buf = Vec::with_capacity(PAGE_SIZE);
            self.codec
                .decompress(payload, &mut buf)
                .map_err(|_| KernelError::StoreCorrupt {
                    detail: "stored payload did not round-trip through the codec",
                })?;
            Some(Bytes::from(buf))
        };
        self.arena
            .free(handle)
            .map_err(|_| KernelError::StaleHandle)?;
        Ok(out)
    }

    /// Drops a stored page without decompressing (job exit, page free).
    ///
    /// # Errors
    ///
    /// [`KernelError::StaleHandle`] — see [`ZswapStore::load`].
    pub fn discard(&mut self, handle: ZsHandle) -> Result<(), KernelError> {
        self.arena
            .free(handle)
            .map_err(|_| KernelError::StaleHandle)
    }

    /// Payload size stored under `handle`.
    pub fn stored_size(&self, handle: ZsHandle) -> Option<usize> {
        self.arena.size_of(handle)
    }

    /// Runs zsmalloc compaction (node-agent triggered, §5.1); returns the
    /// physical pages reclaimed.
    pub fn compact(&mut self) -> PageCount {
        self.arena.compact()
    }

    /// Cumulative event counters.
    pub fn stats(&self) -> ZswapStats {
        self.stats
    }

    /// Current arena occupancy/fragmentation.
    pub fn arena_stats(&self) -> ZsmallocStats {
        self.arena.stats()
    }

    /// Physical DRAM pages the compressed pool occupies right now.
    pub fn footprint_pages(&self) -> PageCount {
        PageCount::new(self.arena.stats().zspage_pages)
    }

    /// Live compressed pages.
    pub fn resident_objects(&self) -> u64 {
        self.arena.stats().objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfm_compress::gen::{PageClass, PageGenerator};

    #[test]
    fn store_and_load_real_content() {
        let mut store = ZswapStore::new(CodecKind::Lzo);
        let mut g = PageGenerator::new(1);
        let page = Bytes::from(g.generate(PageClass::Text));
        let content = PageContent::Real(page.clone());
        match store.store(&content).unwrap() {
            StoreOutcome::Stored(h) => {
                assert!(store.stored_size(h).unwrap() <= MAX_COMPRESSED_PAYLOAD);
                let back = store
                    .load(h)
                    .unwrap()
                    .expect("real content returns bytes");
                assert_eq!(back, page);
            }
            StoreOutcome::Rejected { .. } => panic!("text page must store"),
        }
        let s = store.stats();
        assert_eq!(
            (s.store_attempts, s.stores, s.loads, s.rejections),
            (1, 1, 1, 0)
        );
        assert_eq!(store.resident_objects(), 0);
    }

    #[test]
    fn incompressible_real_content_rejected() {
        let mut store = ZswapStore::new(CodecKind::Lzo);
        let mut g = PageGenerator::new(2);
        let page = PageContent::Real(Bytes::from(g.generate(PageClass::Encrypted)));
        match store.store(&page).unwrap() {
            StoreOutcome::Rejected { would_be_len } => {
                assert!(would_be_len > MAX_COMPRESSED_PAYLOAD)
            }
            StoreOutcome::Stored(_) => panic!("encrypted page must reject"),
        }
        assert_eq!(store.stats().rejections, 1);
        assert_eq!(store.footprint_pages().get(), 0);
    }

    #[test]
    fn synthetic_content_respects_cutoff() {
        let mut store = ZswapStore::new(CodecKind::Lzo);
        assert!(matches!(
            store.store(&PageContent::synthetic_of_len(2990)).unwrap(),
            StoreOutcome::Stored(_)
        ));
        assert!(matches!(
            store.store(&PageContent::synthetic_of_len(2991)).unwrap(),
            StoreOutcome::Rejected { would_be_len: 2991 }
        ));
    }

    /// Pins the §5.1 cutoff boundary for synthetic content: the cutoff is
    /// *inclusive* — a payload of exactly [`MAX_COMPRESSED_PAYLOAD`]
    /// (2990 bytes, 73% of a 4 KiB page) still stores; rejection starts
    /// one byte above.
    #[test]
    fn synthetic_cutoff_boundary_2989_2990_2991() {
        assert_eq!(MAX_COMPRESSED_PAYLOAD, 2990, "§5.1 cutoff moved");
        let mut store = ZswapStore::new(CodecKind::Lzo);
        for (len, stored) in [(2989usize, true), (2990, true), (2991, false)] {
            let outcome = store.store(&PageContent::synthetic_of_len(len)).unwrap();
            match outcome {
                StoreOutcome::Stored(h) => {
                    assert!(stored, "synthetic {len} must reject");
                    assert_eq!(store.stored_size(h), Some(len));
                }
                StoreOutcome::Rejected { would_be_len } => {
                    assert!(!stored, "synthetic {len} must store");
                    assert_eq!(would_be_len, len);
                }
            }
        }
        let s = store.stats();
        assert_eq!((s.store_attempts, s.stores, s.rejections), (3, 2, 1));
    }

    /// Builds a real 4 KiB page whose LZO payload is exactly `target`
    /// bytes: an incompressible random prefix of `k` bytes followed by
    /// zeros. The payload length is (weakly) monotone in `k` and steps by
    /// 1–2 bytes, so scanning `k` (over a few seeds, in case a 2-byte step
    /// lands on `target`) finds an exact hit.
    fn real_page_with_payload_len(target: usize) -> Bytes {
        let codec = CodecKind::Lzo.build();
        let mut buf = Vec::new();
        for seed in 0..8u64 {
            let mut g = PageGenerator::new(0xB0DA + seed);
            let noise = g.generate(PageClass::Encrypted);
            // A first probe brackets the k range; then walk it linearly.
            for k in 2500..=3100usize {
                let mut page = vec![0u8; PAGE_SIZE];
                page[..k].copy_from_slice(&noise[..k]);
                codec.compress(&page, &mut buf);
                match buf.len().cmp(&target) {
                    std::cmp::Ordering::Equal => return Bytes::from(page),
                    std::cmp::Ordering::Greater => break, // monotone: overshot
                    std::cmp::Ordering::Less => {}
                }
            }
        }
        panic!("no page found with payload length {target}");
    }

    /// Pins the §5.1 cutoff boundary for *real* content, with the real
    /// codec in the loop: exactly-2990 stores, 2991 rejects and reports
    /// the offending length.
    #[test]
    fn real_cutoff_boundary_2989_2990_2991() {
        let mut store = ZswapStore::new(CodecKind::Lzo);
        for (target, stored) in [(2989usize, true), (2990, true), (2991, false)] {
            let page = real_page_with_payload_len(target);
            match store.store(&PageContent::Real(page)).unwrap() {
                StoreOutcome::Stored(h) => {
                    assert!(stored, "real payload {target} must reject");
                    assert_eq!(store.stored_size(h), Some(target));
                    // Boundary payloads round-trip like any other.
                    let back = store.load(h).unwrap().expect("real content");
                    assert_eq!(back.len(), PAGE_SIZE);
                }
                StoreOutcome::Rejected { would_be_len } => {
                    assert!(!stored, "real payload {target} must store");
                    assert_eq!(would_be_len, target);
                }
            }
        }
        let s = store.stats();
        assert_eq!((s.stores, s.rejections), (2, 1));
    }

    #[test]
    fn synthetic_load_returns_none_and_frees() {
        let mut store = ZswapStore::new(CodecKind::Lzo);
        let h = match store.store(&PageContent::synthetic_of_len(700)).unwrap() {
            StoreOutcome::Stored(h) => h,
            _ => unreachable!(),
        };
        assert_eq!(store.resident_objects(), 1);
        assert!(store.load(h).unwrap().is_none());
        assert_eq!(store.resident_objects(), 0);
    }

    #[test]
    fn discard_frees_without_counting_a_load() {
        let mut store = ZswapStore::new(CodecKind::Lzo);
        let h = match store.store(&PageContent::synthetic_of_len(700)).unwrap() {
            StoreOutcome::Stored(h) => h,
            _ => unreachable!(),
        };
        store.discard(h).unwrap();
        assert_eq!(store.stats().loads, 0);
        assert_eq!(store.resident_objects(), 0);
        assert_eq!(store.discard(h), Err(KernelError::StaleHandle));
        assert_eq!(store.load(h), Err(KernelError::StaleHandle));
    }

    #[test]
    fn footprint_grows_with_stores_and_compacts() {
        let mut store = ZswapStore::new(CodecKind::Lzo);
        let handles: Vec<_> = (0..256)
            .map(
                |_| match store.store(&PageContent::synthetic_of_len(512)).unwrap() {
                    StoreOutcome::Stored(h) => h,
                    _ => unreachable!(),
                },
            )
            .collect();
        let full = store.footprint_pages();
        assert!(full.get() > 0);
        for (i, h) in handles.iter().enumerate() {
            if i % 8 != 0 {
                store.discard(*h).unwrap();
            }
        }
        store.compact();
        assert!(store.footprint_pages() < full);
    }
}
