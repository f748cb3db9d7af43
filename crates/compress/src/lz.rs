//! Shared LZ77 match-finding machinery used by all three codecs.
//!
//! The codecs differ only in their token encodings; they share one greedy
//! parse: a 4096-slot hash table over 4-byte sequences, one probe per
//! position, every byte of an emitted match re-inserted — the "spend as
//! few cycles as possible" regime the paper's production deployment chose
//! (lzo over stronger codecs, §5.1 footnote). [`MatchFinder`] is that
//! parse as an iterator of [`Match`]es; a codec turns the gaps between
//! them into literals and each of them into its own copy token.

/// Shortest match the finder reports: the width of the hashed sequence.
pub const MIN_MATCH: usize = 4;

const HASH_BITS: u32 = 12;

/// A back-reference found by the match finder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Where in the input the match starts.
    pub pos: usize,
    /// Distance back from `pos` (1-based).
    pub offset: usize,
    /// Length of the match in bytes (at least [`MIN_MATCH`]).
    pub len: usize,
}

/// The little-endian word at `src[pos..pos + 4]`.
#[inline]
fn word_at(src: &[u8], pos: usize) -> u32 {
    let bytes: [u8; 4] = src[pos..pos + 4].try_into().expect("a 4-byte slice");
    u32::from_le_bytes(bytes)
}

/// Multiplicative hash of a 4-byte sequence into a table slot.
#[inline]
fn hash(word: u32) -> usize {
    (word.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `a` and `b`, eight bytes at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("an 8-byte chunk"));
        let y = u64::from_le_bytes(y.try_into().expect("an 8-byte chunk"));
        if x != y {
            return n + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// The greedy single-probe parse of one input block, as an iterator over
/// its matches in input order.
///
/// The table maps `hash -> position` of the most recent occurrence and
/// starts zeroed. No "empty" marker is needed: a candidate only counts if
/// its four bytes equal the four at the cursor, so a zero read from a
/// never-written slot is taken for position 0 only when the cursor hashes
/// to position 0's own slot — which position 0, inserted first, did write.
pub struct MatchFinder<'a> {
    src: &'a [u8],
    table: [u32; 1 << HASH_BITS],
    pos: usize,
    /// Positions at or past this are neither searched nor inserted.
    search_end: usize,
    /// Exclusive end index matches may extend to.
    match_limit: usize,
    max_offset: usize,
}

impl<'a> MatchFinder<'a> {
    /// Parses `src` with offsets up to `max_offset`. A match may start only
    /// where at least `start_margin` bytes remain, and none extends into
    /// the final `end_literals` bytes (LZ4's end-of-block rules; the other
    /// two formats pass `(MIN_MATCH, 0)`).
    pub fn new(src: &'a [u8], max_offset: usize, start_margin: usize, end_literals: usize) -> Self {
        assert!(
            end_literals + MIN_MATCH <= start_margin,
            "a minimal match at the last searched position must fit"
        );
        MatchFinder {
            src,
            table: [0; 1 << HASH_BITS],
            pos: 0,
            search_end: (src.len() + 1).saturating_sub(start_margin),
            match_limit: src.len().saturating_sub(end_literals),
            max_offset,
        }
    }
}

impl MatchFinder<'_> {
    /// Inserts every position from the cursor on until one's probe hits:
    /// the slot's previous occupant is within `max_offset` and starts with
    /// the same four bytes. Returns that position and the occupant.
    ///
    /// Kept out of line: on its own the loop keeps its few live values in
    /// registers; inlined into a codec's emitter it spills them at every
    /// position (measured: 1.5 against 1.1 ns per position).
    #[inline(never)]
    fn probe(&mut self) -> Option<(usize, usize)> {
        let src = self.src;
        let start = self.pos;
        if start >= self.search_end {
            return None;
        }
        // One 4-byte window per position still to search.
        let words = src[start..self.search_end + MIN_MATCH - 1].windows(MIN_MATCH);
        for (pos, w) in (start..).zip(words) {
            let word = word_at(w, 0);
            let slot = &mut self.table[hash(word)];
            let cand = *slot as usize;
            *slot = pos as u32;
            // `cand <= pos`; offset 0 (position 0 probing itself) wraps
            // past every `max_offset`.
            let offset = pos - cand;
            if offset.wrapping_sub(1) < self.max_offset && word_at(src, cand) == word {
                return Some((pos, cand));
            }
        }
        self.pos = self.search_end;
        None
    }
}

impl Iterator for MatchFinder<'_> {
    type Item = Match;

    // Forced: left to the heuristic each match pays two calls, not one.
    #[inline(always)]
    fn next(&mut self) -> Option<Match> {
        let (pos, cand) = self.probe()?;
        let src = self.src;
        let len = MIN_MATCH
            + common_prefix(
                &src[cand + MIN_MATCH..],
                &src[pos + MIN_MATCH..self.match_limit],
            );
        // Keep the table warm across the match body.
        let next = pos + len;
        let body = pos + 1..next.min(self.search_end);
        let words = src[body.start..body.end + MIN_MATCH - 1].windows(MIN_MATCH);
        for (p, w) in body.zip(words) {
            self.table[hash(word_at(w, 0))] = p as u32;
        }
        self.pos = next;
        Some(Match {
            pos,
            offset: pos - cand,
            len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{PageClass, PageGenerator};
    use proptest::prelude::*;

    /// `(max_offset, start_margin, end_literals)`.
    type Settings = (usize, usize, usize);

    /// What the codecs pass: lzo, snappy, lz4.
    const SETTINGS: [Settings; 3] = [(8192, 4, 0), (65535, 4, 0), (65535, 12, 5)];

    /// The same parse, one byte at a time with an explicit empty marker:
    /// what [`MatchFinder`] must reproduce match for match.
    fn reference_parse(src: &[u8], (max_offset, margin, end_literals): Settings) -> Vec<Match> {
        let slot = |p: usize| hash(word_at(src, p));
        let limit = src.len().saturating_sub(end_literals);
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let (mut out, mut pos) = (Vec::new(), 0);
        while pos + margin <= src.len() {
            let cand = std::mem::replace(&mut head[slot(pos)], pos);
            let mut len = 0;
            if cand != usize::MAX && pos - cand <= max_offset {
                while pos + len < limit && src[cand + len] == src[pos + len] {
                    len += 1;
                }
            }
            if len < MIN_MATCH {
                pos += 1;
                continue;
            }
            let offset = pos - cand;
            out.push(Match { pos, offset, len });
            for p in (pos + 1..pos + len).take_while(|p| p + margin <= src.len()) {
                head[slot(p)] = p;
            }
            pos += len;
        }
        out
    }

    fn parse(src: &[u8], (max_offset, margin, end_literals): Settings) -> Vec<Match> {
        MatchFinder::new(src, max_offset, margin, end_literals).collect()
    }

    #[track_caller]
    fn assert_matches_reference(src: &[u8]) {
        for s in SETTINGS {
            assert_eq!(parse(src, s), reference_parse(src, s), "settings {s:?}");
        }
    }

    #[test]
    fn common_prefix_counts_across_word_and_tail() {
        let a: Vec<u8> = (0..40u8).collect();
        for n in 0..=a.len() {
            let mut b = a.clone();
            if n < b.len() {
                b[n] ^= 0x80;
            }
            assert_eq!(common_prefix(&a, &b), n);
            // The shorter side bounds the count.
            assert_eq!(common_prefix(&a, &a[..n]), n);
        }
    }

    #[test]
    fn finder_detects_repeat() {
        let src = b"0123456789_0123456789";
        let expected = Match {
            pos: 11,
            offset: 11,
            len: 10,
        };
        assert_eq!(parse(src, (65535, 4, 0)), [expected]);
        // LZ4's rules: the last five bytes stay literal.
        assert_eq!(parse(src, (65535, 12, 5)), []);
        let longer = b"0123456789_0123456789_tail";
        assert_eq!(parse(longer, (65535, 12, 5)), [expected]);
    }

    #[test]
    fn finder_takes_offsets_up_to_the_cap_and_no_further() {
        // Two copies of an 8-byte motif `distance` apart, distinct bytes between.
        let two_copies = |distance: usize| -> Vec<u8> {
            let mut src: Vec<u8> = (0..distance).map(|i| 0x80 | i as u8).collect();
            src[..8].copy_from_slice(b"ABCDEFGH");
            src.extend_from_slice(b"ABCDEFGH");
            src
        };
        let (pos, offset, len) = (100, 100, 8);
        assert_eq!(
            parse(&two_copies(100), (100, 4, 0)),
            [Match { pos, offset, len }]
        );
        assert_eq!(parse(&two_copies(101), (100, 4, 0)), []);
        assert_eq!(parse(&two_copies(101), (101, 4, 0)).len(), 1);
    }

    /// A zeroed slot reads as "position 0". That must match exactly when
    /// the old explicit-empty table did: a repeat of the input's first four
    /// bytes is found at offset `pos`, position 0 never matches itself, and
    /// a first occurrence elsewhere (whose slot was never written) does not.
    #[test]
    fn zeroed_slots_stand_in_for_position_zero_only() {
        assert_eq!(
            parse(b"ABCDxyzwABCD", (8192, 4, 0)),
            [Match {
                pos: 8,
                offset: 8,
                len: 4
            }]
        );
        assert_eq!(parse(b"ABCDEFGHIJKLMNOP", (8192, 4, 0)), []);
        assert_eq!(
            parse(&[0u8; 64], (8192, 4, 0)),
            [Match {
                pos: 1,
                offset: 1,
                len: 63
            }]
        );
        for src in [&b"ABCDxyzwABCD"[..], b"ABCDEFGHIJKLMNOP", &[0u8; 64]] {
            assert_matches_reference(src);
        }
    }

    #[test]
    fn inputs_without_a_searchable_position_yield_nothing() {
        for len in 0..12usize {
            let src = vec![7u8; len];
            assert_eq!(parse(&src, (65535, 12, 5)), []);
            assert_matches_reference(&src);
        }
    }

    #[test]
    #[should_panic(expected = "minimal match")]
    fn finder_rejects_margins_a_match_cannot_fit() {
        let _ = MatchFinder::new(b"", 8192, 4, 1);
    }

    fn class_page() -> impl Strategy<Value = Vec<u8>> {
        (any::<u64>(), 0..PageClass::ALL.len())
            .prop_map(|(seed, class)| PageGenerator::new(seed).generate(PageClass::ALL[class]))
    }

    /// Noise, then a motif repeated so its match is still running 0..=11
    /// bytes before the end, then that many bytes that break it.
    fn match_into_the_tail() -> impl Strategy<Value = Vec<u8>> {
        (
            prop::collection::vec(any::<u8>(), 0..40),
            prop::collection::vec(any::<u8>(), 1..20),
            2usize..30,
            0usize..12,
        )
            .prop_map(|(mut src, motif, repeats, tail)| {
                src.extend(motif.repeat(repeats));
                let last = *src.last().expect("the motif is not empty");
                src.extend((1..=tail).map(|i| last.wrapping_add(i as u8)));
                src
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_equals_reference_on_class_pages(page in class_page()) {
            for s in SETTINGS {
                prop_assert_eq!(parse(&page, s), reference_parse(&page, s), "settings {:?}", s);
            }
        }

        #[test]
        fn parse_equals_reference_when_a_match_reaches_the_tail(src in match_into_the_tail()) {
            for s in SETTINGS {
                prop_assert_eq!(parse(&src, s), reference_parse(&src, s), "settings {:?}", s);
            }
        }
    }
}
