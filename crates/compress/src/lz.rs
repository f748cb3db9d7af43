//! Shared LZ77 match-finding machinery used by all three codecs.
//!
//! The codecs differ only in their token encodings; they share the same
//! greedy match finder: a hash table over 4-byte sequences, sized for
//! page-scale inputs (4 KiB). By default one probe per position — the
//! "spend as few cycles as possible" regime the paper's production
//! deployment chose (lzo over stronger codecs, §5.1 footnote). A bounded
//! hash *chain* ([`MatchFinder::with_chain`]) trades more probes for a
//! better ratio.

/// A back-reference found by the match finder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Distance back from the current position (1-based).
    pub offset: usize,
    /// Length of the match in bytes.
    pub len: usize,
}

/// Multiplicative hash over the 4 bytes at `src[pos..pos+4]`.
#[inline]
pub fn hash4(src: &[u8], pos: usize, bits: u32) -> usize {
    let v = u32::from_le_bytes([src[pos], src[pos + 1], src[pos + 2], src[pos + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - bits)) as usize
}

/// Length of the common prefix of `src[a..]` and `src[b..]`, scanning at
/// most up to `limit` (exclusive end index for the `b` cursor).
#[inline]
pub fn match_length(src: &[u8], mut a: usize, mut b: usize, limit: usize) -> usize {
    let start = b;
    while b < limit && src[a] == src[b] {
        a += 1;
        b += 1;
    }
    b - start
}

/// A hash-table match finder for one input block, with an optional
/// bounded hash chain.
///
/// Positions are stored +1 so that 0 means "empty slot"; the table is
/// reset per block. At `depth == 1` (the [`MatchFinder::new`] default)
/// the finder probes only the most recent occupant of the hash slot —
/// exactly the single-probe behavior the production codecs ship. At
/// `depth > 1` each position is also linked into a per-position `prev`
/// chain, and the finder walks up to `depth` prior occurrences of the
/// hash, keeping the longest match (ties go to the most recent, i.e.
/// smallest, offset — deterministic for a given input).
#[derive(Debug)]
pub struct MatchFinder {
    /// `hash -> pos + 1` of the most recent occurrence.
    head: Vec<u32>,
    /// `pos -> pos + 1` of the previous occurrence with the same hash.
    /// Empty (never allocated) at depth 1; grown on demand otherwise.
    prev: Vec<u32>,
    depth: usize,
    bits: u32,
}

impl MatchFinder {
    /// Creates a single-probe finder with a `2^bits`-entry table. 12 bits
    /// (4096 slots) is a good fit for 4 KiB pages.
    pub fn new(bits: u32) -> Self {
        Self::with_chain(bits, 1)
    }

    /// Creates a finder probing up to `depth` chained candidates per
    /// position. `depth == 1` is identical to [`MatchFinder::new`].
    pub fn with_chain(bits: u32, depth: usize) -> Self {
        assert!((8..=16).contains(&bits), "hash bits must be in [8, 16]");
        assert!((1..=64).contains(&depth), "chain depth must be in [1, 64]");
        MatchFinder {
            head: vec![0; 1 << bits],
            prev: Vec::new(),
            depth,
            bits,
        }
    }

    /// Clears the table for a new block (codecs that reuse one finder
    /// across blocks call this between inputs).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn reset(&mut self) {
        self.head.fill(0);
        self.prev.fill(0);
    }

    /// Links `pos` into the table (and, at depth > 1, the chain),
    /// returning the previous head of its hash slot.
    #[inline]
    fn link(&mut self, src: &[u8], pos: usize) -> u32 {
        let h = hash4(src, pos, self.bits);
        let head = self.head[h];
        self.head[h] = (pos + 1) as u32;
        if self.depth > 1 {
            if self.prev.len() <= pos {
                // Grow in block-sized steps so page inputs allocate once.
                self.prev.resize((pos + 1).next_power_of_two().max(4096), 0);
            }
            self.prev[pos] = head;
        }
        head
    }

    /// Inserts `pos` into the table and returns the best match at `pos`
    /// among up to `depth` chained previous occurrences, if it is at
    /// least `min_match` long and within `max_offset`.
    ///
    /// `match_limit` is the exclusive end index matches may extend to
    /// (callers use it to reserve end-of-block literals).
    #[inline]
    pub fn find_and_insert(
        &mut self,
        src: &[u8],
        pos: usize,
        min_match: usize,
        max_offset: usize,
        match_limit: usize,
    ) -> Option<Match> {
        if pos + 4 > src.len() {
            return None;
        }
        let mut candidate = self.link(src, pos);
        let limit = match_limit.min(src.len());
        let mut best: Option<Match> = None;
        for _ in 0..self.depth {
            if candidate == 0 {
                break;
            }
            let cand = (candidate - 1) as usize;
            let offset = pos - cand;
            if offset == 0 || offset > max_offset {
                // Chain entries only get older (farther); stop.
                break;
            }
            let len = match_length(src, cand, pos, limit);
            if len >= min_match && best.is_none_or(|b| len > b.len) {
                best = Some(Match { offset, len });
            }
            candidate = if self.depth > 1 && cand < self.prev.len() {
                self.prev[cand]
            } else {
                0
            };
        }
        best
    }

    /// Inserts a position without searching (used to keep the table warm
    /// while skipping over an emitted match).
    #[inline]
    pub fn insert(&mut self, src: &[u8], pos: usize) {
        if pos + 4 <= src.len() {
            self.link(src, pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_length_counts_common_prefix() {
        let src = b"abcabcabx";
        assert_eq!(match_length(src, 0, 3, src.len()), 5); // "abcab"
        assert_eq!(match_length(src, 0, 6, src.len()), 2); // "ab"
    }

    #[test]
    fn match_length_respects_limit() {
        let src = b"aaaaaaaa";
        assert_eq!(match_length(src, 0, 1, 4), 3);
    }

    #[test]
    fn finder_detects_repeat() {
        let src = b"0123456789_0123456789";
        let mut f = MatchFinder::new(12);
        let mut found = None;
        for pos in 0..src.len().saturating_sub(4) {
            if let Some(m) = f.find_and_insert(src, pos, 4, 65535, src.len()) {
                found = Some((pos, m));
                break;
            }
        }
        let (pos, m) = found.expect("repeat must be found");
        assert_eq!(pos, 11);
        assert_eq!(m.offset, 11);
        assert_eq!(m.len, 10);
    }

    #[test]
    fn finder_ignores_too_distant_matches() {
        let mut src = vec![0u8; 1000];
        src[0..8].copy_from_slice(b"ABCDEFGH");
        // unique filler so no accidental matches
        for (i, b) in src[8..992].iter_mut().enumerate() {
            *b = (i % 251) as u8 ^ ((i / 251) as u8).wrapping_mul(31) | 0x80;
        }
        src[992..1000].copy_from_slice(b"ABCDEFGH");
        let mut f = MatchFinder::new(12);
        for pos in 0..src.len() - 4 {
            if let Some(m) = f.find_and_insert(&src, pos, 4, 100, src.len()) {
                assert!(m.offset <= 100, "offset {} exceeds cap", m.offset);
            }
        }
    }

    #[test]
    fn finder_resets_cleanly() {
        let src = b"xyzwxyzw";
        let mut f = MatchFinder::new(12);
        for pos in 0..src.len() - 4 {
            f.find_and_insert(src, pos, 4, 64, src.len());
        }
        f.reset();
        // After reset, the first probe finds nothing again.
        assert_eq!(f.find_and_insert(src, 0, 4, 64, src.len()), None);
    }

    #[test]
    #[should_panic(expected = "hash bits")]
    fn finder_rejects_tiny_tables() {
        let _ = MatchFinder::new(4);
    }

    #[test]
    #[should_panic(expected = "chain depth")]
    fn finder_rejects_zero_depth() {
        let _ = MatchFinder::with_chain(12, 0);
    }

    /// Force a hash collision chain: the same 4-byte prefix occurs three
    /// times, with the best (longest) match *not* the most recent one. A
    /// single probe only sees the most recent; the chain must find the
    /// older, longer candidate.
    #[test]
    fn chain_finds_longer_older_match() {
        let mut src = Vec::new();
        src.extend_from_slice(b"ABCDEFGH"); // pos 0: full 8-byte run
        src.extend_from_slice(b"....");
        src.extend_from_slice(b"ABCDxxxx"); // pos 12: only 4 bytes match
        src.extend_from_slice(b"....");
        src.extend_from_slice(b"ABCDEFGH"); // pos 24: query
        let probe = |depth: usize| -> Option<Match> {
            let mut f = MatchFinder::with_chain(12, depth);
            for pos in [0usize, 12] {
                f.insert(&src, pos);
            }
            f.find_and_insert(&src, 24, 4, 65535, src.len())
        };
        let single = probe(1).expect("single probe still matches");
        assert_eq!((single.offset, single.len), (12, 4), "most recent only");
        let chained = probe(2).expect("chain matches");
        assert_eq!((chained.offset, chained.len), (24, 8), "older but longer");
    }

    /// Depth 1 must behave exactly like the historical single-probe
    /// finder: same matches, in the same positions, on a page-shaped
    /// input with heavy repetition.
    #[test]
    fn depth_one_equals_single_probe_semantics() {
        let src: Vec<u8> = (0..2048u32)
            .flat_map(|i| ((i % 97) as u16).to_le_bytes())
            .collect();
        let mut a = MatchFinder::new(12);
        let mut b = MatchFinder::with_chain(12, 1);
        for pos in 0..src.len().saturating_sub(4) {
            assert_eq!(
                a.find_and_insert(&src, pos, 4, 8192, src.len()),
                b.find_and_insert(&src, pos, 4, 8192, src.len()),
                "diverged at {pos}"
            );
        }
    }

    /// Deeper chains never produce a worse (shorter) match than shallower
    /// ones at the same position — the probe set only grows.
    #[test]
    fn deeper_chains_never_find_shorter_matches() {
        let src: Vec<u8> = (0..4096u32)
            .map(|i| ((i * 7) % 53) as u8 ^ ((i / 64) as u8))
            .collect();
        let run = |depth: usize| -> Vec<usize> {
            let mut f = MatchFinder::with_chain(12, depth);
            (0..src.len() - 4)
                .map(|pos| {
                    f.find_and_insert(&src, pos, 4, 8192, src.len())
                        .map_or(0, |m| m.len)
                })
                .collect()
        };
        let (d1, d4) = (run(1), run(4));
        // Greedy parses differ position-by-position once emissions shift,
        // but the raw per-position best length is monotone in depth when
        // every position is probed (as here).
        for (i, (a, b)) in d1.iter().zip(&d4).enumerate() {
            assert!(b >= a, "depth 4 found shorter match at {i}: {b} < {a}");
        }
    }
}
