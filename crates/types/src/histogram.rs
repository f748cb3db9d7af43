//! Page-age bookkeeping and the two per-job histograms from §4/§5.1.
//!
//! The kernel's kstaled daemon tracks, for every physical page, the number of
//! scan periods since the page was last accessed — its [`PageAge`]. The paper
//! packs this into 8 bits of `struct page`, so ages saturate at 255 scans
//! (8.5 hours at the 120 s scan period).
//!
//! From the ages, kstaled maintains two per-job histograms:
//!
//! * the [`ColdAgeHistogram`] — for each age, how many pages currently have
//!   that age. The suffix sum `pages_colder_than(T)` is the amount of memory
//!   that would be considered cold under threshold `T` (§4.4);
//! * the [`PromotionHistogram`] — for each age, how many page *accesses*
//!   found the page at that age. The suffix sum `promotions_colder_than(T)`
//!   is how many promotions the job *would have incurred* had the threshold
//!   been `T` (§4.3) — this is what lets the control plane evaluate every
//!   candidate threshold from one pass of bookkeeping.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::AddAssign;

use crate::time::{SimDuration, KSTALED_SCAN_PERIOD};

/// Maximum representable age, in scan periods (8-bit age field, §5.1).
pub const MAX_AGE_SCANS: u8 = u8::MAX;

/// Number of distinct age values (0..=255).
pub const AGE_BUCKETS: usize = MAX_AGE_SCANS as usize + 1;

/// The age of a page: the number of kstaled scan periods since the page was
/// last observed accessed.
///
/// Age 0 means "accessed during the most recent scan period". Ages saturate
/// at [`MAX_AGE_SCANS`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct PageAge(u8);

impl PageAge {
    /// A page accessed within the last scan period.
    pub const HOT: PageAge = PageAge(0);

    /// The saturated maximum age.
    pub const MAX: PageAge = PageAge(MAX_AGE_SCANS);

    /// Creates an age from a raw scan count.
    pub const fn from_scans(scans: u8) -> Self {
        PageAge(scans)
    }

    /// Returns the age as a number of scan periods.
    pub const fn as_scans(self) -> u8 {
        self.0
    }

    /// Returns the age as a simulated duration, assuming the default
    /// 120-second scan period.
    ///
    /// ```
    /// # use sdfm_types::histogram::PageAge;
    /// assert_eq!(PageAge::from_scans(2).as_duration().as_secs(), 240);
    /// ```
    pub const fn as_duration(self) -> SimDuration {
        SimDuration::from_secs(self.0 as u64 * KSTALED_SCAN_PERIOD.as_secs())
    }

    /// Quantizes a duration to an age, rounding *up* to the next scan period
    /// and saturating at [`MAX_AGE_SCANS`]. Rounding up makes a threshold
    /// conservative: a page is only called cold once it has demonstrably been
    /// idle for at least the requested duration.
    ///
    /// ```
    /// # use sdfm_types::histogram::PageAge;
    /// # use sdfm_types::time::SimDuration;
    /// assert_eq!(PageAge::from_duration(SimDuration::from_secs(121)).as_scans(), 2);
    /// ```
    pub fn from_duration(d: SimDuration) -> Self {
        let scans = d.as_secs().div_ceil(KSTALED_SCAN_PERIOD.as_secs());
        PageAge(scans.min(MAX_AGE_SCANS as u64) as u8)
    }

    /// The age after one more scan without an access (saturating).
    pub const fn incremented(self) -> PageAge {
        PageAge(self.0.saturating_add(1))
    }

    /// True when the age has saturated.
    pub const fn is_saturated(self) -> bool {
        self.0 == MAX_AGE_SCANS
    }
}

impl fmt::Display for PageAge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "age={} scans ({})", self.0, self.as_duration())
    }
}

/// Dense per-age counters shared by both histogram kinds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct AgeCounts {
    counts: Vec<u64>,
}

impl AgeCounts {
    fn new() -> Self {
        AgeCounts {
            counts: vec![0; AGE_BUCKETS],
        }
    }

    fn record(&mut self, age: PageAge, n: u64) {
        self.counts[age.0 as usize] += n;
    }

    fn suffix_sum(&self, from: PageAge) -> u64 {
        self.counts[from.0 as usize..].iter().sum()
    }

    /// `suffix_sum` at each of the ascending `thresholds`: the total, less
    /// what lies below each threshold, taken off a stretch at a time.
    fn suffix_sums_at<'a>(
        &'a self,
        thresholds: impl IntoIterator<Item = PageAge> + 'a,
    ) -> impl Iterator<Item = u64> + 'a {
        let mut suffix = self.total();
        let mut below = 0;
        thresholds.into_iter().map(move |t| {
            let to = usize::from(t.0);
            suffix -= self.counts[below..to].iter().sum::<u64>();
            below = to;
            suffix
        })
    }

    fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn clear(&mut self) {
        self.counts.fill(0);
    }

    fn merge(&mut self, other: &AgeCounts) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
    }

    /// Moves every bucket up by one age, merging the top two buckets into
    /// the saturated bucket. This is the effect of one kstaled scan on a
    /// population of pages none of which were accessed.
    fn shift_up_one(&mut self) {
        let top = self.counts[AGE_BUCKETS - 1] + self.counts[AGE_BUCKETS - 2];
        for i in (1..AGE_BUCKETS - 1).rev() {
            self.counts[i] = self.counts[i - 1];
        }
        self.counts[AGE_BUCKETS - 1] = top;
        self.counts[0] = 0;
    }

    fn remove(&mut self, age: PageAge, n: u64) {
        let bucket = &mut self.counts[age.0 as usize];
        debug_assert!(
            *bucket >= n,
            "removing {n} pages from age-{} bucket holding {bucket}",
            age.0
        );
        *bucket = bucket.saturating_sub(n);
    }

    fn move_weight(&mut self, from: PageAge, to: PageAge, n: u64) {
        if from == to || n == 0 {
            return;
        }
        self.remove(from, n);
        self.counts[to.0 as usize] += n;
    }

    fn slots_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }

    fn iter(&self) -> impl Iterator<Item = (PageAge, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (PageAge(i as u8), c))
    }

    fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

impl Default for AgeCounts {
    fn default() -> Self {
        Self::new()
    }
}

/// Histogram over the current ages of a job's resident pages (§4.4).
///
/// `pages_colder_than(T)` answers "how much of this job's memory would be
/// cold under threshold `T`", which the system uses both to estimate the
/// working set size (pages *not* cold under the minimum threshold) and for
/// offline what-if analysis of memory savings.
///
/// # Examples
///
/// ```
/// use sdfm_types::histogram::{ColdAgeHistogram, PageAge};
///
/// let mut h = ColdAgeHistogram::new();
/// h.record_page(PageAge::from_scans(0), 10); // 10 hot pages
/// h.record_page(PageAge::from_scans(5), 4);  // 4 pages idle for 10 min
/// assert_eq!(h.pages_colder_than(PageAge::from_scans(1)), 4);
/// assert_eq!(h.total_pages(), 14);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ColdAgeHistogram {
    inner: AgeCounts,
}

impl ColdAgeHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` pages currently at `age`.
    pub fn record_page(&mut self, age: PageAge, n: u64) {
        self.inner.record(age, n);
    }

    /// Number of pages whose age is at least `threshold` — the cold memory
    /// size under that threshold, in pages.
    pub fn pages_colder_than(&self, threshold: PageAge) -> u64 {
        self.inner.suffix_sum(threshold)
    }

    /// [`pages_colder_than`](Self::pages_colder_than) at each of several
    /// thresholds, in one pass over the histogram (§4.3: one histogram
    /// answers the what-if for every threshold at once).
    ///
    /// # Panics
    ///
    /// If `thresholds` do not ascend.
    ///
    /// ```
    /// use sdfm_types::histogram::{ColdAgeHistogram, PageAge};
    ///
    /// let mut h = ColdAgeHistogram::new();
    /// h.record_page(PageAge::from_scans(0), 10);
    /// h.record_page(PageAge::from_scans(5), 4);
    /// let thresholds = [0, 1, 5, 6, 255].map(PageAge::from_scans);
    /// let each: Vec<u64> = h.pages_colder_than_each(thresholds).collect();
    /// assert_eq!(each, [14, 4, 4, 0, 0]);
    /// ```
    pub fn pages_colder_than_each<'a>(
        &'a self,
        thresholds: impl IntoIterator<Item = PageAge> + 'a,
    ) -> impl Iterator<Item = u64> + 'a {
        self.inner.suffix_sums_at(thresholds)
    }

    /// Number of pages whose age is *below* `threshold` — the §4.2 working
    /// set estimate when called with the minimum cold age threshold.
    pub fn pages_younger_than(&self, threshold: PageAge) -> u64 {
        self.total_pages() - self.pages_colder_than(threshold)
    }

    /// Total pages recorded.
    pub fn total_pages(&self) -> u64 {
        self.inner.total()
    }

    /// Resets all buckets to zero.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Adds every bucket of `other` into `self` (for cluster-level rollups).
    pub fn merge(&mut self, other: &ColdAgeHistogram) {
        self.inner.merge(&other.inner);
    }

    /// Ages the whole histogram by one scan period in O(buckets): every
    /// bucket moves up by one age and the top two buckets merge into the
    /// saturated bucket — the effect of a kstaled scan on a population in
    /// which no page was accessed. Callers then fix up the accessed pages
    /// with [`move_pages`](Self::move_pages).
    pub fn shift_up_one(&mut self) {
        self.inner.shift_up_one();
    }

    /// Removes `n` pages currently recorded at `age` (page freed or
    /// migrated out). Debug builds assert the bucket actually holds them.
    pub fn remove_page(&mut self, age: PageAge, n: u64) {
        self.inner.remove(age, n);
    }

    /// Moves `n` pages from the `from` bucket to the `to` bucket — an
    /// incremental age update for pages whose age changed without the rest
    /// of the histogram moving (e.g. an accessed page resetting to HOT
    /// after a [`shift_up_one`](Self::shift_up_one)).
    pub fn move_pages(&mut self, from: PageAge, to: PageAge, n: u64) {
        self.inner.move_weight(from, to, n);
    }

    /// The page count of every age, indexed by age in scans
    /// ([`AGE_BUCKETS`] slots) — for a producer that fills a whole
    /// histogram and would pay for [`record_page`](Self::record_page)'s
    /// bounds check on every cell.
    pub fn slots_mut(&mut self) -> &mut [u64] {
        self.inner.slots_mut()
    }

    /// Iterates over `(age, page count)` pairs, including empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (PageAge, u64)> + '_ {
        self.inner.iter()
    }

    /// True when no pages have been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl AddAssign<&ColdAgeHistogram> for ColdAgeHistogram {
    fn add_assign(&mut self, rhs: &ColdAgeHistogram) {
        self.merge(rhs);
    }
}

/// Histogram over the page ages observed at access time (§4.3).
///
/// Every time a page is accessed, kstaled records the age the page had
/// accumulated before the access reset it. For a candidate threshold `T`,
/// the suffix sum over ages `>= T` is exactly the number of promotions the
/// job would have suffered under `T`: those accesses hit pages that would
/// have already been in far memory.
///
/// # Examples
///
/// The paper's §4.3 worked example: pages A and B were idle for 5 and 10
/// minutes respectively, then both were accessed. Under `T = 8 min` only B
/// counts; under `T = 2 min` both do.
///
/// ```
/// use sdfm_types::histogram::{PromotionHistogram, PageAge};
/// use sdfm_types::time::SimDuration;
///
/// let mut h = PromotionHistogram::new();
/// h.record_promotion(PageAge::from_duration(SimDuration::from_mins(5)), 1);  // A
/// h.record_promotion(PageAge::from_duration(SimDuration::from_mins(10)), 1); // B
///
/// let t8 = PageAge::from_duration(SimDuration::from_mins(8));
/// let t2 = PageAge::from_duration(SimDuration::from_mins(2));
/// assert_eq!(h.promotions_colder_than(t8), 1);
/// assert_eq!(h.promotions_colder_than(t2), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PromotionHistogram {
    inner: AgeCounts,
}

impl PromotionHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` accesses to pages that had accumulated `age_at_access`.
    pub fn record_promotion(&mut self, age_at_access: PageAge, n: u64) {
        self.inner.record(age_at_access, n);
    }

    /// Number of recorded accesses whose page age was at least `threshold` —
    /// the promotions that would have occurred under that threshold.
    pub fn promotions_colder_than(&self, threshold: PageAge) -> u64 {
        self.inner.suffix_sum(threshold)
    }

    /// [`promotions_colder_than`](Self::promotions_colder_than) at each of
    /// several thresholds, in one pass over the histogram — the
    /// counterpart of [`ColdAgeHistogram::pages_colder_than_each`].
    ///
    /// # Panics
    ///
    /// If `thresholds` do not ascend.
    pub fn promotions_colder_than_each<'a>(
        &'a self,
        thresholds: impl IntoIterator<Item = PageAge> + 'a,
    ) -> impl Iterator<Item = u64> + 'a {
        self.inner.suffix_sums_at(thresholds)
    }

    /// Total accesses recorded (with age ≥ 1; accesses to hot pages are not
    /// promotions under any threshold but may still be recorded at age 0).
    pub fn total_promotions(&self) -> u64 {
        self.inner.total()
    }

    /// Resets all buckets to zero.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &PromotionHistogram) {
        self.inner.merge(&other.inner);
    }

    /// The access count of every age, indexed by age in scans
    /// ([`AGE_BUCKETS`] slots) — the counterpart of
    /// [`ColdAgeHistogram::slots_mut`].
    pub fn slots_mut(&mut self) -> &mut [u64] {
        self.inner.slots_mut()
    }

    /// Iterates over `(age at access, access count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PageAge, u64)> + '_ {
        self.inner.iter()
    }

    /// True when no accesses have been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl AddAssign<&PromotionHistogram> for PromotionHistogram {
    fn add_assign(&mut self, rhs: &PromotionHistogram) {
        self.merge(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn age_saturates_on_increment() {
        let mut a = PageAge::from_scans(254);
        a = a.incremented();
        assert_eq!(a.as_scans(), 255);
        assert!(!PageAge::from_scans(254).is_saturated());
        a = a.incremented();
        assert_eq!(a, PageAge::MAX);
        assert!(a.is_saturated());
    }

    #[test]
    fn age_duration_roundtrip() {
        for scans in [0u8, 1, 2, 100, 255] {
            let a = PageAge::from_scans(scans);
            assert_eq!(PageAge::from_duration(a.as_duration()), a);
        }
    }

    #[test]
    fn from_duration_rounds_up_and_saturates() {
        assert_eq!(
            PageAge::from_duration(SimDuration::from_secs(0)).as_scans(),
            0
        );
        assert_eq!(
            PageAge::from_duration(SimDuration::from_secs(1)).as_scans(),
            1
        );
        assert_eq!(
            PageAge::from_duration(SimDuration::from_secs(120)).as_scans(),
            1
        );
        assert_eq!(
            PageAge::from_duration(SimDuration::from_hours(100)).as_scans(),
            255
        );
    }

    #[test]
    fn cold_histogram_suffix_sums() {
        let mut h = ColdAgeHistogram::new();
        h.record_page(PageAge::from_scans(0), 5);
        h.record_page(PageAge::from_scans(1), 3);
        h.record_page(PageAge::from_scans(255), 2);
        assert_eq!(h.total_pages(), 10);
        assert_eq!(h.pages_colder_than(PageAge::from_scans(0)), 10);
        assert_eq!(h.pages_colder_than(PageAge::from_scans(1)), 5);
        assert_eq!(h.pages_colder_than(PageAge::from_scans(2)), 2);
        assert_eq!(h.pages_younger_than(PageAge::from_scans(1)), 5);
    }

    #[test]
    fn promotion_histogram_matches_paper_worked_example() {
        // §4.3: pages A (5 min idle) and B (10 min idle) both accessed one
        // minute ago. Promotion rate is 1/min for T=8min, 2/min for T=2min.
        let mut h = PromotionHistogram::new();
        h.record_promotion(PageAge::from_duration(SimDuration::from_mins(5)), 1);
        h.record_promotion(PageAge::from_duration(SimDuration::from_mins(10)), 1);
        let t8 = PageAge::from_duration(SimDuration::from_mins(8));
        let t2 = PageAge::from_duration(SimDuration::from_mins(2));
        assert_eq!(h.promotions_colder_than(t8), 1);
        assert_eq!(h.promotions_colder_than(t2), 2);
    }

    #[test]
    fn each_threshold_in_one_pass_matches_one_at_a_time() {
        let mut cold = ColdAgeHistogram::new();
        let mut promo = PromotionHistogram::new();
        for (scans, n) in [(0u8, 7u64), (1, 5), (2, 0), (9, 3), (254, 2), (255, 11)] {
            cold.record_page(PageAge::from_scans(scans), n);
            promo.record_promotion(PageAge::from_scans(scans), n * 3);
        }
        // Repeats, both extremes, and stretches with nothing in them.
        let thresholds = [0u8, 0, 1, 2, 9, 10, 200, 254, 255, 255].map(PageAge::from_scans);
        let cold_each: Vec<u64> = cold.pages_colder_than_each(thresholds).collect();
        let promo_each: Vec<u64> = promo.promotions_colder_than_each(thresholds).collect();
        for ((t, c), p) in thresholds.iter().zip(cold_each).zip(promo_each) {
            assert_eq!(c, cold.pages_colder_than(*t), "{t}");
            assert_eq!(p, promo.promotions_colder_than(*t), "{t}");
        }
        assert_eq!(cold.pages_colder_than_each([]).count(), 0);
    }

    #[test]
    #[should_panic]
    fn each_threshold_refuses_a_descending_list() {
        let h = ColdAgeHistogram::new();
        let _ = h
            .pages_colder_than_each([5, 4].map(PageAge::from_scans))
            .count();
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = ColdAgeHistogram::new();
        a.record_page(PageAge::from_scans(3), 1);
        let mut b = ColdAgeHistogram::new();
        b.record_page(PageAge::from_scans(3), 2);
        b.record_page(PageAge::from_scans(7), 5);
        a += &b;
        assert_eq!(a.pages_colder_than(PageAge::from_scans(3)), 8);
        assert_eq!(a.pages_colder_than(PageAge::from_scans(4)), 5);
    }

    #[test]
    fn clear_empties() {
        let mut h = PromotionHistogram::new();
        assert!(h.is_empty());
        h.record_promotion(PageAge::from_scans(9), 4);
        assert!(!h.is_empty());
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.total_promotions(), 0);
    }

    #[test]
    fn iter_covers_all_buckets() {
        let mut h = ColdAgeHistogram::new();
        h.record_page(PageAge::from_scans(10), 7);
        let v: Vec<_> = h.iter().filter(|&(_, c)| c != 0).collect();
        assert_eq!(v, vec![(PageAge::from_scans(10), 7)]);
        assert_eq!(h.iter().count(), AGE_BUCKETS);
    }

    #[test]
    fn shift_up_one_matches_per_page_aging() {
        let mut h = ColdAgeHistogram::new();
        h.record_page(PageAge::from_scans(0), 5);
        h.record_page(PageAge::from_scans(7), 3);
        h.record_page(PageAge::from_scans(254), 2);
        h.record_page(PageAge::from_scans(255), 4);
        h.shift_up_one();
        // Per-page: each age increments saturating at 255.
        let mut expect = ColdAgeHistogram::new();
        expect.record_page(PageAge::from_scans(1), 5);
        expect.record_page(PageAge::from_scans(8), 3);
        expect.record_page(PageAge::from_scans(255), 6);
        assert_eq!(h, expect);
        assert_eq!(h.total_pages(), 14, "shift must conserve total weight");
    }

    #[test]
    fn move_pages_is_weight_neutral() {
        let mut h = ColdAgeHistogram::new();
        h.record_page(PageAge::from_scans(9), 10);
        h.move_pages(PageAge::from_scans(9), PageAge::HOT, 4);
        assert_eq!(h.total_pages(), 10);
        assert_eq!(h.pages_colder_than(PageAge::from_scans(1)), 6);
        // Same-bucket and zero-count moves are no-ops.
        h.move_pages(PageAge::from_scans(9), PageAge::from_scans(9), 6);
        h.move_pages(PageAge::from_scans(9), PageAge::HOT, 0);
        assert_eq!(h.pages_colder_than(PageAge::from_scans(1)), 6);
    }

    #[test]
    fn remove_page_subtracts_from_one_bucket() {
        let mut h = ColdAgeHistogram::new();
        h.record_page(PageAge::from_scans(3), 5);
        h.remove_page(PageAge::from_scans(3), 2);
        assert_eq!(h.total_pages(), 3);
        assert_eq!(h.pages_colder_than(PageAge::from_scans(3)), 3);
    }

    #[test]
    #[should_panic(expected = "removing")]
    #[cfg(debug_assertions)]
    fn remove_page_underflow_asserts_in_debug() {
        let mut h = ColdAgeHistogram::new();
        h.record_page(PageAge::from_scans(3), 1);
        h.remove_page(PageAge::from_scans(3), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let mut h = PromotionHistogram::new();
        h.record_promotion(PageAge::from_scans(42), 13);
        let json = serde_json::to_string(&h).unwrap();
        let back: PromotionHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
