//! Translation lookaside buffers.
//!
//! The Pentium 4's ITLB and DTLB are small fully-associative structures;
//! we model a fully-associative LRU array over page numbers. TLB misses
//! trigger page walks whose cycle penalties are charged by the CPU model
//! (Figure 5 uses 30 cycles for ITLB and 36 for DTLB walks).

/// Hit/miss counters for one TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations served from the TLB.
    pub hits: u64,
    /// Translations that required a page walk.
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio over all translations (0 when idle).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A fully-associative, LRU translation buffer over page numbers.
///
/// Pages and LRU stamps live in parallel arrays (`pages[i]` pairs with
/// `lru[i]`) so the fully-associative hit scan streams over a dense `u64`
/// array instead of striding over tuples — at 64 entries that scan is the
/// single hottest loop the TLB runs.
///
/// # Example
///
/// ```
/// use sim_mem::Tlb;
///
/// let mut tlb = Tlb::new(2);
/// assert!(!tlb.access(10)); // cold miss
/// assert!(tlb.access(10)); // hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    pages: Vec<u64>,
    lru: Vec<u64>,
    capacity: usize,
    clock: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with room for `entries` translations.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "tlb needs at least one entry");
        Tlb {
            pages: Vec::with_capacity(entries),
            lru: Vec::with_capacity(entries),
            capacity: entries,
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Translates `page`, returning `true` on a hit. A miss installs the
    /// translation (evicting the least recently used entry if full).
    pub fn access(&mut self, page: u64) -> bool {
        self.access_n(page, 1)
    }

    /// Translates `page` `n` times in a row, returning `true` when the
    /// first probe hits.
    ///
    /// Bookkeeping is exactly that of `n` sequential [`Tlb::access`] calls
    /// to the same page: the LRU clock advances by `n`, the entry ends up
    /// most recently used, a hit counts `n` hits, and a miss installs the
    /// translation and counts one miss plus `n - 1` trailing hits (the
    /// repeat probes hit the just-installed entry). This lets callers
    /// probe once per *page* when touching a run of lines without any
    /// observable difference from per-line probing.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn access_n(&mut self, page: u64, n: u64) -> bool {
        assert!(n > 0, "access_n needs at least one probe");
        // Hits move their entry to the back, so the reverse scan meets
        // recently used pages first. Entry order is free to change: the
        // match is unique, and eviction goes by the LRU stamps, which are
        // distinct clock values.
        if let Some(i) = self.pages.iter().rposition(|&p| p == page) {
            self.clock += n;
            self.stats.hits += n;
            let last = self.pages.len() - 1;
            self.pages.swap(i, last);
            self.lru.swap(i, last);
            self.lru[last] = self.clock;
            return true;
        }
        self.install(page, n);
        false
    }

    /// Miss path of [`Tlb::access_n`]: evict the LRU entry if full and
    /// install the translation.
    #[inline(never)]
    fn install(&mut self, page: u64, n: u64) {
        self.stats.misses += 1;
        self.stats.hits += n - 1;
        if self.pages.len() == self.capacity {
            // The eviction choice only depends on the relative LRU order,
            // which the clock advance cannot change.
            let lru_idx = (0..self.lru.len())
                .min_by_key(|&i| self.lru[i])
                .expect("capacity > 0");
            self.pages.swap_remove(lru_idx);
            self.lru.swap_remove(lru_idx);
        }
        self.clock += n;
        self.pages.push(page);
        self.lru.push(self.clock);
    }

    /// Drops every translation (context switch with address-space change).
    pub fn flush(&mut self) {
        self.pages.clear();
        self.lru.clear();
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets counters, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Number of resident translations.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4);
        assert!(!t.access(1));
        assert!(t.access(1));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.access(1);
        t.access(2);
        t.access(1); // 2 is now LRU
        t.access(3); // evicts 2
        assert!(t.access(1));
        assert!(!t.access(2));
    }

    #[test]
    fn flush_clears() {
        let mut t = Tlb::new(2);
        t.access(1);
        t.flush();
        assert_eq!(t.resident(), 0);
        assert!(!t.access(1));
    }

    #[test]
    fn stats_ratio_and_reset() {
        let mut t = Tlb::new(2);
        t.access(1);
        t.access(1);
        assert!((t.stats().miss_ratio() - 0.5).abs() < 1e-12);
        t.reset_stats();
        assert_eq!(t.stats().hits, 0);
        assert_eq!(TlbStats::default().miss_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let _ = Tlb::new(0);
    }

    #[test]
    fn capacity_respected() {
        let mut t = Tlb::new(3);
        for p in 0..10 {
            t.access(p);
        }
        assert_eq!(t.resident(), 3);
    }

    /// `access_n(p, n)` must be indistinguishable from `n` sequential
    /// `access(p)` calls: same stats, same contents, same future behavior.
    fn assert_batched_matches_sequential(capacity: usize, script: &[(u64, u64)]) {
        let mut batched = Tlb::new(capacity);
        let mut sequential = Tlb::new(capacity);
        for &(page, n) in script {
            let b = batched.access_n(page, n);
            let mut first = None;
            for _ in 0..n {
                let hit = sequential.access(page);
                first.get_or_insert(hit);
            }
            assert_eq!(Some(b), first, "first-probe outcome for page {page} x{n}");
            assert_eq!(batched.stats(), sequential.stats());
            assert_eq!(batched.pages, sequential.pages);
            assert_eq!(batched.lru, sequential.lru);
            assert_eq!(batched.clock, sequential.clock);
        }
    }

    #[test]
    fn batched_probes_match_sequential_probes() {
        assert_batched_matches_sequential(
            2,
            &[(1, 3), (2, 1), (1, 2), (3, 4), (2, 1), (1, 1), (1, 5)],
        );
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn zero_probe_batch_rejected() {
        let mut t = Tlb::new(2);
        let _ = t.access_n(1, 0);
    }

    proptest::proptest! {
        #[test]
        fn batched_equivalence_holds_for_random_scripts(
            capacity in 1usize..6,
            script in proptest::collection::vec((0u64..8, 1u64..70), 0..40),
        ) {
            assert_batched_matches_sequential(capacity, &script);
        }
    }
}
