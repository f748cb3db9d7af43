//! The sliding pool of per-window best thresholds (§4.3).

use sdfm_types::histogram::{PageAge, AGE_BUCKETS};

/// Ages per entry of [`ThresholdPool::group_counts`].
const GROUP: usize = 16;

/// The last [`ThresholdPool::CAP`] best thresholds of one job, queryable
/// for their K-th percentile.
///
/// Shared by the live [`JobController`](crate::JobController) and the
/// offline replay, so both slide and rank the history identically: the
/// controller asks for the percentile each control period, the replay
/// records [`ascending`](Self::ascending) once per window while it
/// prepares a trace and then indexes it by [`rank`](Self::rank). The
/// values are held twice: a ring in arrival order (which one to evict,
/// which one came last) and a count per age (the percentile is a short
/// cumulative walk, not a clone and a sort per control period; a push is
/// two increments).
///
/// # Examples
///
/// ```
/// use sdfm_agent::ThresholdPool;
/// use sdfm_types::histogram::PageAge;
///
/// let mut pool = ThresholdPool::new();
/// assert_eq!(pool.kth_percentile(98.0), None);
/// for scans in [4, 1, 9, 2] {
///     pool.push(PageAge::from_scans(scans));
/// }
/// assert_eq!(pool.last(), Some(PageAge::from_scans(2)));
/// assert_eq!(pool.kth_percentile(50.0), Some(PageAge::from_scans(2)));
/// assert_eq!(pool.kth_percentile(100.0), Some(PageAge::from_scans(9)));
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdPool {
    /// Arrival order; once full, `next` is the oldest entry.
    ring: [PageAge; Self::CAP],
    /// How many of the `len` held thresholds sit at each age.
    counts: [u8; AGE_BUCKETS],
    /// `counts` summed over runs of [`GROUP`] ages, so the walk to a
    /// high percentile skips the empty low ages a group at a time.
    group_counts: [u8; AGE_BUCKETS / GROUP],
    len: usize,
    /// The ring slot the next push writes.
    next: usize,
}

// The per-age counters are bytes.
const _: () = assert!(ThresholdPool::CAP <= u8::MAX as usize);

impl ThresholdPool {
    /// Maximum control periods of best-threshold history retained.
    ///
    /// The pool is a *sliding* window, not the job's whole life: an
    /// unbounded pool makes the K-th percentile ratchet ever more
    /// conservative (a single early spike stays in the top percentiles
    /// forever), so steady-state coverage would decay with job age and the
    /// controller could never adapt to behavior changes. Three hours of
    /// 5-minute periods keeps enough samples for percentile resolution at
    /// production K values while aging spikes out.
    pub const CAP: usize = 36;

    /// An empty pool.
    pub fn new() -> Self {
        ThresholdPool {
            ring: [PageAge::HOT; Self::CAP],
            counts: [0; AGE_BUCKETS],
            group_counts: [0; AGE_BUCKETS / GROUP],
            len: 0,
            next: 0,
        }
    }

    /// Number of thresholds held (at most [`Self::CAP`]).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a window's best threshold, evicting the oldest one once
    /// [`Self::CAP`] are held.
    #[inline]
    pub fn push(&mut self, best: PageAge) {
        if self.len == Self::CAP {
            let evicted = usize::from(self.ring[self.next].as_scans());
            self.counts[evicted] -= 1;
            self.group_counts[evicted / GROUP] -= 1;
        } else {
            self.len += 1;
        }
        let scans = usize::from(best.as_scans());
        self.counts[scans] += 1;
        self.group_counts[scans / GROUP] += 1;
        self.ring[self.next] = best;
        self.next = (self.next + 1) % Self::CAP;
    }

    /// The most recently pushed threshold.
    #[inline]
    pub fn last(&self) -> Option<PageAge> {
        (self.len > 0).then(|| self.ring[(self.next + Self::CAP - 1) % Self::CAP])
    }

    /// The 1-based position of the K-th percentile among `len` sorted
    /// values: nearest-rank, rounding up (conservative), so in `1..=len`.
    /// An empty pool has no rank; `len == 0` gives 0.
    ///
    /// This is the one copy of the formula:
    /// [`kth_percentile`](Self::kth_percentile) ranks with it, and so does
    /// anything that indexes [`ascending`](Self::ascending), spelled out,
    /// instead.
    #[inline]
    pub fn rank(k: f64, len: usize) -> usize {
        (((k / 100.0) * len as f64).ceil() as usize).max(1).min(len)
    }

    /// The K-th percentile of the held thresholds (nearest-rank, rounding
    /// up — conservative), or `None` while the pool is empty.
    #[inline]
    pub fn kth_percentile(&self, k: f64) -> Option<PageAge> {
        if self.len == 0 {
            return None;
        }
        let rank = Self::rank(k, self.len);
        // The answer is the first age whose cumulative count reaches
        // `rank`: pass whole groups that fall short, then walk the ages of
        // the group that does not.
        let mut seen = 0usize;
        let mut group = 0usize;
        while let Some(&held) = self.group_counts.get(group) {
            if seen + usize::from(held) >= rank {
                break;
            }
            seen += usize::from(held);
            group += 1;
        }
        let first = group * GROUP;
        let within = self
            .counts
            .get(first..)
            .unwrap_or(&[])
            .iter()
            .position(|&held| {
                seen += usize::from(held);
                seen >= rank
            });
        // The counts sum to `len >= rank`, so the walk always lands.
        within
            .and_then(|offset| u8::try_from(first + offset).ok())
            .map(PageAge::from_scans)
    }

    /// Each distinct held threshold in ascending order, with how many
    /// times it is held: the order [`kth_percentile`](Self::kth_percentile)
    /// ranks in, from the same per-age counts. Spelled out, its element
    /// [`rank(k, len)`](Self::rank) (1-based) is the K-th percentile.
    /// Empty groups of ages are skipped whole.
    pub fn ascending(&self) -> impl Iterator<Item = (PageAge, usize)> + '_ {
        self.group_counts
            .iter()
            .zip(self.counts.chunks_exact(GROUP))
            .zip((0..=u8::MAX).step_by(GROUP))
            .filter(|((&in_group, _), _)| in_group > 0)
            .flat_map(|((_, counts), first)| counts.iter().zip(first..=u8::MAX))
            .filter(|&(&held, _)| held > 0)
            .map(|(&held, scans)| (PageAge::from_scans(scans), usize::from(held)))
    }
}

impl Default for ThresholdPool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clone-and-sort nearest-rank over a drained `Vec` that the
    /// controller and the replay each used to carry.
    struct NaivePool(Vec<PageAge>);

    impl NaivePool {
        fn push(&mut self, best: PageAge) {
            self.0.push(best);
            if self.0.len() > ThresholdPool::CAP {
                let excess = self.0.len() - ThresholdPool::CAP;
                self.0.drain(..excess);
            }
        }

        fn kth_percentile(&self, k: f64) -> Option<PageAge> {
            if self.0.is_empty() {
                return None;
            }
            let mut sorted = self.0.clone();
            sorted.sort_unstable();
            let n = sorted.len();
            let rank = ((k / 100.0) * n as f64).ceil() as usize;
            Some(sorted[rank.clamp(1, n) - 1])
        }
    }

    #[test]
    fn empty_pool_has_no_percentile_and_no_last() {
        let pool = ThresholdPool::default();
        assert!(pool.is_empty());
        assert_eq!(pool.kth_percentile(0.0), None);
        assert_eq!(pool.kth_percentile(100.0), None);
        assert_eq!(pool.last(), None);
        assert_eq!(pool.ascending().next(), None);
        assert_eq!(ThresholdPool::rank(90.0, 0), 0);
    }

    #[test]
    fn matches_the_naive_pool_through_three_full_turns_of_the_ring() {
        let mut pool = ThresholdPool::new();
        let mut naive = NaivePool(Vec::new());
        // A fixed multiplicative sequence: duplicates, both extremes, and
        // no monotone runs.
        let mut x = 0x2545_f491u32;
        for i in 0..ThresholdPool::CAP * 3 + 5 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let best = match i % 7 {
                0 => PageAge::MAX,
                1 => PageAge::HOT,
                _ => PageAge::from_scans((x >> 24) as u8 % 12),
            };
            pool.push(best);
            naive.push(best);
            assert_eq!(pool.len(), naive.0.len());
            assert_eq!(pool.last(), naive.0.last().copied());
            let mut sorted = naive.0.clone();
            sorted.sort_unstable();
            let spelled_out: Vec<PageAge> = pool
                .ascending()
                .flat_map(|(age, held)| std::iter::repeat_n(age, held))
                .collect();
            assert_eq!(spelled_out, sorted);
            for k in [0.0, 1.0, 33.3, 50.0, 90.0, 98.0, 99.3, 100.0] {
                let want = naive.kth_percentile(k);
                assert_eq!(pool.kth_percentile(k), want, "k {k} after {} pushes", i + 1);
                let rank = ThresholdPool::rank(k, pool.len());
                assert_eq!(spelled_out.get(rank - 1).copied(), want);
            }
        }
        assert_eq!(pool.len(), ThresholdPool::CAP);
    }
}
