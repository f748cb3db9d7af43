//! The struct-of-arrays page table: sweep-optimized per-page hot state.
//!
//! kstaled's scan touches exactly two bytes per entry — the age and the
//! flag byte — yet the AoS layout this module replaces interleaved them
//! with a `PageState` (8 bytes of handle), a `PageContent` (up to a
//! `Bytes` pointer trio), and a bool spread over a 40+ byte struct,
//! wasting most of every cache line the sweep pulled. Here the hot state
//! lives in three parallel arrays:
//!
//! * `ages:  Vec<u8>`  — idle age in scan periods (saturating at 255);
//! * `flags: Vec<u8>`  — all six flag bits packed into one byte;
//! * `spans: Vec<u16>` — base-page frames mapped by the entry (1 or 512).
//!
//! The cold state (`PageState` with its zswap handle, `PageContent`) is
//! demoted to a side table at the same indices, touched only on
//! reclaim/fault paths that were never sweep-bound.
//!
//! # The incremental-histogram invariant
//!
//! The table owns a **live** [`ColdAgeHistogram`] that is exact after
//! every mutation: `push` records the entry's age weighted by its span,
//! `pop` unrecords it, `set_age` moves the weight between buckets, and a
//! huge-page split is weight-neutral. A sweep therefore does not rebuild
//! the histogram from scratch: untouched pages are one O(256) bucket
//! shift ([`ColdAgeHistogram::shift_up_one`]) and each accessed page is a
//! single move-to-HOT delta. Debug builds cross-check the live histogram
//! against a from-scratch rebuild at the end of every sweep
//! ([`PageTable::rebuilt_histogram`]).
//!
//! All mutations of age state **must** route through this module so the
//! invariant holds; there is deliberately no `&mut` access to the raw
//! arrays.

use crate::kstaled::ScanOutcome;
use crate::page::{Page, PageContent, PageFlags, PageState};
use sdfm_types::histogram::{ColdAgeHistogram, PageAge, PromotionHistogram};

/// Accessed since the last scan (MMU accessed bit).
const ACCESSED: u8 = 1 << 0;
/// Written since the last scan.
const DIRTY: u8 = 1 << 1;
/// Excluded from reclaim (mlocked / unevictable LRU).
const UNEVICTABLE: u8 = 1 << 2;
/// zswap rejected this page; skip until dirtied again.
const INCOMPRESSIBLE: u8 = 1 << 3;
/// Poisoned by the Thermostat-style sampler.
const POISONED: u8 = 1 << 4;
/// A poisoned page was accessed (read back by the sampler).
const SAMPLE_FAULTED: u8 = 1 << 5;
/// Promoted by the prefetcher and not yet demand-touched. SoA-only: the
/// bit tracks pending prefetch accuracy accounting in place, so it does
/// not round-trip through [`Page`] views (`pack`/`unpack` ignore it).
const PREFETCHED: u8 = 1 << 6;

fn pack(flags: PageFlags, sample_faulted: bool) -> u8 {
    (u8::from(flags.accessed) * ACCESSED)
        | (u8::from(flags.dirty) * DIRTY)
        | (u8::from(flags.unevictable) * UNEVICTABLE)
        | (u8::from(flags.incompressible) * INCOMPRESSIBLE)
        | (u8::from(flags.poisoned) * POISONED)
        | (u8::from(sample_faulted) * SAMPLE_FAULTED)
}

fn unpack(bits: u8) -> (PageFlags, bool) {
    (
        PageFlags {
            accessed: bits & ACCESSED != 0,
            dirty: bits & DIRTY != 0,
            unevictable: bits & UNEVICTABLE != 0,
            incompressible: bits & INCOMPRESSIBLE != 0,
            poisoned: bits & POISONED != 0,
        },
        bits & SAMPLE_FAULTED != 0,
    )
}

/// Replicates page content for a huge-page split. `Synthetic` content is
/// a plain two-field descriptor copied directly — the common fleet-scale
/// case never touches the generic clone path `Real` bytes need (which
/// bumps the `Bytes` refcount).
fn replicate(content: &PageContent) -> PageContent {
    match *content {
        PageContent::Synthetic { class, payload_len } => {
            PageContent::Synthetic { class, payload_len }
        }
        PageContent::Real(ref bytes) => PageContent::Real(bytes.clone()),
    }
}

/// The reclaim/fault-path side table entry: everything the sweep never
/// reads.
#[derive(Debug, Clone)]
struct ColdEntry {
    state: PageState,
    content: PageContent,
}

/// A memcg's pages in struct-of-arrays layout, with a live cold-age
/// histogram kept exact under every mutation (see the module docs for the
/// invariant).
#[derive(Debug, Default)]
pub struct PageTable {
    ages: Vec<u8>,
    flags: Vec<u8>,
    spans: Vec<u16>,
    cold: Vec<ColdEntry>,
    hist: ColdAgeHistogram,
}

impl PageTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of page-table entries (a huge page is one entry; see
    /// [`span`](Self::span) for its frame count).
    pub fn len(&self) -> usize {
        self.ages.len()
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.ages.is_empty()
    }

    /// Appends a page, decomposing it into the parallel arrays and
    /// recording its span-weighted age in the live histogram.
    pub fn push(&mut self, page: Page) {
        self.hist.record_page(page.age, page.span as u64);
        self.ages.push(page.age.as_scans());
        self.flags.push(pack(page.flags, page.sample_faulted));
        self.spans.push(page.span);
        self.cold.push(ColdEntry {
            state: page.state,
            content: page.content,
        });
    }

    /// Removes and returns the last entry, unrecording it from the live
    /// histogram.
    pub fn pop(&mut self) -> Option<Page> {
        let age = PageAge::from_scans(self.ages.pop()?);
        let bits = self.flags.pop().unwrap_or(0);
        let span = self.spans.pop().unwrap_or(1);
        let entry = self.cold.pop()?;
        self.hist.remove_page(age, span as u64);
        let (flags, sample_faulted) = unpack(bits);
        Some(Page {
            state: entry.state,
            age,
            flags,
            content: entry.content,
            sample_faulted,
            span,
        })
    }

    /// Reassembles the entry at `idx` as a [`Page`] view (diagnostics and
    /// tests; the hot paths use the per-field accessors).
    pub fn page(&self, idx: usize) -> Option<Page> {
        let entry = self.cold.get(idx)?;
        let (flags, sample_faulted) = unpack(self.flags[idx]);
        Some(Page {
            state: entry.state,
            age: PageAge::from_scans(self.ages[idx]),
            flags,
            content: entry.content.clone(),
            sample_faulted,
            span: self.spans[idx],
        })
    }

    /// The entry's idle age.
    pub fn age(&self, idx: usize) -> PageAge {
        PageAge::from_scans(self.ages[idx])
    }

    /// Sets the entry's age, moving its span-weighted histogram bucket.
    /// Every age write outside the sweep must go through here — writing
    /// the array directly would break the live-histogram invariant.
    pub fn set_age(&mut self, idx: usize, age: PageAge) {
        let old = PageAge::from_scans(self.ages[idx]);
        self.hist.move_pages(old, age, self.spans[idx] as u64);
        self.ages[idx] = age.as_scans();
    }

    /// Base-page frames mapped by the entry (1, or
    /// [`crate::page::HUGE_SPAN`] for a huge page).
    pub fn span(&self, idx: usize) -> u16 {
        self.spans[idx]
    }

    /// Where the entry's data lives.
    pub fn state(&self, idx: usize) -> PageState {
        self.cold[idx].state
    }

    /// Like [`state`](Self::state), `None` when `idx` is out of range (the
    /// fault path probes ids that may not exist).
    pub fn get_state(&self, idx: usize) -> Option<PageState> {
        self.cold.get(idx).map(|e| e.state)
    }

    /// Moves the entry's data (histogram-neutral: the cold-age histogram
    /// covers every entry regardless of state, exactly as the rebuilt
    /// histogram always has).
    pub fn set_state(&mut self, idx: usize, state: PageState) {
        self.cold[idx].state = state;
    }

    /// The entry's backing content.
    pub fn content(&self, idx: usize) -> &PageContent {
        &self.cold[idx].content
    }

    /// The accessed bit.
    pub fn accessed(&self, idx: usize) -> bool {
        self.flags[idx] & ACCESSED != 0
    }

    /// Sets or clears the accessed bit.
    pub fn set_accessed(&mut self, idx: usize, v: bool) {
        self.set_bit(idx, ACCESSED, v);
    }

    /// The dirty bit.
    pub fn dirty(&self, idx: usize) -> bool {
        self.flags[idx] & DIRTY != 0
    }

    /// Sets or clears the dirty bit.
    pub fn set_dirty(&mut self, idx: usize, v: bool) {
        self.set_bit(idx, DIRTY, v);
    }

    /// The unevictable (mlocked) bit.
    pub fn unevictable(&self, idx: usize) -> bool {
        self.flags[idx] & UNEVICTABLE != 0
    }

    /// Sets or clears the unevictable bit.
    pub fn set_unevictable(&mut self, idx: usize, v: bool) {
        self.set_bit(idx, UNEVICTABLE, v);
    }

    /// The incompressible mark.
    pub fn incompressible(&self, idx: usize) -> bool {
        self.flags[idx] & INCOMPRESSIBLE != 0
    }

    /// Sets or clears the incompressible mark.
    pub fn set_incompressible(&mut self, idx: usize, v: bool) {
        self.set_bit(idx, INCOMPRESSIBLE, v);
    }

    /// The sampler poison bit.
    pub fn poisoned(&self, idx: usize) -> bool {
        self.flags[idx] & POISONED != 0
    }

    /// Sets or clears the sampler poison bit.
    pub fn set_poisoned(&mut self, idx: usize, v: bool) {
        self.set_bit(idx, POISONED, v);
    }

    /// The sample-faulted bit.
    pub fn sample_faulted(&self, idx: usize) -> bool {
        self.flags[idx] & SAMPLE_FAULTED != 0
    }

    /// Sets or clears the sample-faulted bit.
    pub fn set_sample_faulted(&mut self, idx: usize, v: bool) {
        self.set_bit(idx, SAMPLE_FAULTED, v);
    }

    /// The prefetched-pending bit: the entry was promoted by the
    /// prefetcher and has not resolved to used or wasted yet.
    pub fn prefetched(&self, idx: usize) -> bool {
        self.flags[idx] & PREFETCHED != 0
    }

    /// Sets or clears the prefetched-pending bit.
    pub fn set_prefetched(&mut self, idx: usize, v: bool) {
        self.set_bit(idx, PREFETCHED, v);
    }

    fn set_bit(&mut self, idx: usize, bit: u8, v: bool) {
        if v {
            self.flags[idx] |= bit;
        } else {
            self.flags[idx] &= !bit;
        }
    }

    /// True when the entry is in the zswap store.
    pub fn is_zswapped(&self, idx: usize) -> bool {
        matches!(self.cold[idx].state, PageState::Zswapped(_))
    }

    /// True for a huge (multi-frame) entry.
    pub fn is_huge(&self, idx: usize) -> bool {
        self.spans[idx] > 1
    }

    /// Whether kreclaimd may move the entry to far memory under
    /// `threshold` (see [`Page::reclaim_eligible`]).
    pub fn reclaim_eligible(&self, idx: usize, threshold: PageAge) -> bool {
        threshold > PageAge::HOT
            && PageAge::from_scans(self.ages[idx]) >= threshold
            && self.flags[idx] & (UNEVICTABLE | INCOMPRESSIBLE | ACCESSED) == 0
            && matches!(self.cold[idx].state, PageState::Resident)
    }

    /// Whether the entry may demote to an uncompressed device tier (see
    /// [`Page::demote_eligible`] — the incompressible mark does not
    /// matter, devices store raw pages).
    pub fn demote_eligible(&self, idx: usize, threshold: PageAge) -> bool {
        threshold > PageAge::HOT
            && PageAge::from_scans(self.ages[idx]) >= threshold
            && self.flags[idx] & (UNEVICTABLE | ACCESSED) == 0
            && matches!(self.cold[idx].state, PageState::Resident)
    }

    /// Splits the huge page at `idx` into base pages: the entry keeps its
    /// id as the first frame; the remaining frames append at the end with
    /// the same age, flags, and state (the kernel's split-before-swap
    /// path). Weight-neutral for the live histogram: `span` frames at one
    /// age before, `span` one-frame entries at that age after. Returns
    /// `false` if the entry is not huge.
    pub fn split_huge(&mut self, idx: usize) -> bool {
        let span = self.spans[idx];
        if span <= 1 {
            return false;
        }
        let clones = (span - 1) as usize;
        self.spans[idx] = 1;
        let age = self.ages[idx];
        // Clone everything except the prefetched-pending mark: the issue
        // counted one entry, so exactly one entry must resolve it.
        let bits = self.flags[idx] & !PREFETCHED;
        let state = self.cold[idx].state;
        self.ages.resize(self.ages.len() + clones, age);
        self.flags.resize(self.flags.len() + clones, bits);
        self.spans.resize(self.spans.len() + clones, 1);
        self.cold.reserve(clones);
        for _ in 0..clones {
            let content = replicate(&self.cold[idx].content);
            self.cold.push(ColdEntry { state, content });
        }
        true
    }

    /// One kstaled pass: a cache-linear sweep over the age and flag
    /// arrays.
    ///
    /// The live histogram is aged with one O(256) bucket shift (as if no
    /// page were accessed), then each accessed entry is fixed up with a
    /// single move-to-HOT delta — no rebuild. Accessed entries record
    /// their pre-scan age in `promo` (span-weighted: one accessed bit
    /// covers all of a huge entry's frames), reset to HOT, and clear
    /// their dirty/incompressible marks per §5.1; untouched entries age
    /// by one scan (saturating).
    ///
    /// Debug builds assert the live histogram equals a from-scratch
    /// rebuild before returning.
    pub fn sweep(&mut self, promo: &mut PromotionHistogram) -> ScanOutcome {
        let mut outcome = ScanOutcome::default();
        self.hist.shift_up_one();
        outcome.pages_scanned = self.ages.len() as u64;
        for i in 0..self.ages.len() {
            let bits = self.flags[i];
            if bits & ACCESSED != 0 {
                outcome.pages_accessed += 1;
                let age = self.ages[i];
                let span = self.spans[i] as u64;
                if age > 0 {
                    promo.record_promotion(PageAge::from_scans(age), span);
                    outcome.would_be_promotions += span;
                }
                // The bucket shift aged this entry to min(age + 1, 255);
                // pull its weight back to HOT where the access left it.
                self.hist.move_pages(
                    PageAge::from_scans(age.saturating_add(1)),
                    PageAge::HOT,
                    span,
                );
                self.ages[i] = 0;
                let mut next = bits & !ACCESSED;
                if next & DIRTY != 0 {
                    if next & INCOMPRESSIBLE != 0 {
                        next &= !INCOMPRESSIBLE;
                        outcome.incompressible_cleared += 1;
                    }
                    next &= !DIRTY;
                }
                self.flags[i] = next;
            } else {
                self.ages[i] = self.ages[i].saturating_add(1);
            }
            if self.flags[i] & INCOMPRESSIBLE != 0 {
                outcome.incompressible_marked += 1;
            }
        }
        debug_assert_eq!(
            self.hist,
            self.rebuilt_histogram(),
            "incremental cold-age histogram diverged from the rebuilt truth"
        );
        outcome
    }

    /// The live cold-age histogram (exact under the module invariant).
    pub fn live_histogram(&self) -> &ColdAgeHistogram {
        &self.hist
    }

    /// Rebuilds the cold-age histogram from the age/span arrays — the
    /// ground truth the live histogram must match at all times. O(n);
    /// used by the sweep's debug assertion and equivalence tests.
    pub fn rebuilt_histogram(&self) -> ColdAgeHistogram {
        let mut h = ColdAgeHistogram::new();
        for (i, &age) in self.ages.iter().enumerate() {
            h.record_page(PageAge::from_scans(age), self.spans[i] as u64);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::HUGE_SPAN;

    fn base(len: usize) -> Page {
        Page::new(PageContent::synthetic_of_len(len))
    }

    #[test]
    fn push_page_roundtrips_through_pop() {
        let mut pt = PageTable::new();
        let mut p = base(700);
        p.age = PageAge::from_scans(9);
        p.flags.dirty = false;
        p.flags.poisoned = true;
        p.sample_faulted = true;
        pt.push(p.clone());
        assert_eq!(pt.len(), 1);
        let back = pt.pop().unwrap();
        assert_eq!(back.age, p.age);
        assert_eq!(back.flags, p.flags);
        assert_eq!(back.state, p.state);
        assert_eq!(back.content, p.content);
        assert_eq!(back.span, p.span);
        assert!(back.sample_faulted);
        assert!(pt.is_empty());
        assert!(pt.live_histogram().is_empty());
    }

    #[test]
    fn live_histogram_tracks_push_pop_and_set_age() {
        let mut pt = PageTable::new();
        pt.push(base(100));
        pt.push(Page::new_huge(PageContent::synthetic_of_len(100)));
        assert_eq!(pt.live_histogram().total_pages(), 1 + HUGE_SPAN as u64);
        pt.set_age(0, PageAge::from_scans(40));
        assert_eq!(
            pt.live_histogram()
                .pages_colder_than(PageAge::from_scans(40)),
            1
        );
        pt.pop();
        assert_eq!(pt.live_histogram().total_pages(), 1);
        assert_eq!(pt.live_histogram(), &pt.rebuilt_histogram());
    }

    #[test]
    fn sweep_matches_rebuilt_histogram_under_mixed_traffic() {
        let mut pt = PageTable::new();
        let mut promo = PromotionHistogram::new();
        for i in 0..50 {
            let mut p = base(100 + i);
            p.flags.accessed = i % 3 == 0;
            pt.push(p);
        }
        pt.push(Page::new_huge(PageContent::synthetic_of_len(80)));
        for round in 0..6 {
            for i in 0..pt.len() {
                if (i + round) % 4 == 0 {
                    pt.set_accessed(i, true);
                }
            }
            pt.sweep(&mut promo); // debug_assert cross-checks internally
            assert_eq!(pt.live_histogram(), &pt.rebuilt_histogram());
        }
    }

    #[test]
    fn sweep_saturates_ages_without_losing_weight() {
        let mut pt = PageTable::new();
        let mut p = base(100);
        p.flags.accessed = false;
        p.age = PageAge::from_scans(254);
        pt.push(p);
        let mut promo = PromotionHistogram::new();
        for _ in 0..3 {
            pt.sweep(&mut promo);
        }
        assert_eq!(pt.age(0), PageAge::MAX);
        assert_eq!(pt.live_histogram().total_pages(), 1);
        assert_eq!(pt.live_histogram(), &pt.rebuilt_histogram());
    }

    #[test]
    fn split_huge_replicates_synthetic_descriptor() {
        let mut pt = PageTable::new();
        let mut huge = Page::new_huge(PageContent::synthetic(
            sdfm_compress::gen::PageClass::StructuredRecords,
            900,
        ));
        huge.age = PageAge::from_scans(7);
        huge.flags.accessed = false;
        pt.push(huge);
        let before = pt.live_histogram().clone();
        assert!(pt.split_huge(0));
        assert!(!pt.split_huge(0), "already split");
        assert_eq!(pt.len(), HUGE_SPAN as usize);
        assert_eq!(pt.live_histogram(), &before, "split is weight-neutral");
        for i in 0..pt.len() {
            assert_eq!(pt.span(i), 1);
            assert_eq!(pt.age(i), PageAge::from_scans(7));
            assert_eq!(pt.content(i), pt.content(0));
        }
        assert_eq!(pt.live_histogram(), &pt.rebuilt_histogram());
    }

    #[test]
    fn eligibility_matches_the_page_view() {
        let mut pt = PageTable::new();
        for (accessed, incompressible, age) in [
            (false, false, 5u8),
            (true, false, 5),
            (false, true, 5),
            (false, false, 0),
        ] {
            let mut p = base(100);
            p.flags.accessed = accessed;
            p.flags.incompressible = incompressible;
            p.age = PageAge::from_scans(age);
            pt.push(p);
        }
        let t = PageAge::from_scans(2);
        for i in 0..pt.len() {
            let view = pt.page(i).unwrap();
            assert_eq!(pt.reclaim_eligible(i, t), view.reclaim_eligible(t), "{i}");
            assert_eq!(pt.demote_eligible(i, t), view.demote_eligible(t), "{i}");
        }
    }
}
