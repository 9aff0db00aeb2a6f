//! A set-associative cache with LRU replacement.
//!
//! The cache operates on *line addresses* (byte address divided by line
//! size) and tracks only presence — data values never matter to the
//! characterization, only hit/miss behaviour. Reads and writes access a
//! cache alike (a write miss still fills the line); what a write changes
//! is coherence, which the memory system's directory handles.

/// Hit/miss/traffic counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found the line resident.
    pub hits: u64,
    /// Accesses that had to fill the line.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Lines removed by coherence invalidations.
    pub invalidations: u64,
}

impl CacheStats {
    /// Miss ratio over all accesses (0 when idle).
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

/// A set-associative, write-allocate, LRU cache over line addresses.
///
/// Way state is stored structure-of-arrays — contiguous tags and a
/// separate LRU array — so the hit scan of a set reads one short run of
/// tags instead of striding over padded structs.
/// The valid bit is packed into bit 0 of the tag word (`(line << 1) | 1`,
/// `0` = invalid), so both the hit scan and the victim scan read a single
/// array instead of cross-checking a parallel flag array.
///
/// # Example
///
/// ```
/// use sim_mem::Cache;
///
/// let mut c = Cache::new("l1", 4, 2); // 4 sets x 2 ways
/// assert!(!c.access(0).hit);
/// assert!(c.access(0).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    name: String,
    sets: usize,
    ways: usize,
    set_mask: u64,
    /// `tags[set * ways + way]`: `(line << 1) | 1` when the way holds
    /// `line`, `0` when the way is invalid.
    tags: Vec<u64>,
    /// `lru[set * ways + way]`: timestamp, larger = more recently used.
    lru: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

/// Outcome of a single [`Cache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The line was already resident.
    pub hit: bool,
    /// A victim line (its line address) was evicted to make room.
    pub evicted: Option<u64>,
    /// Storage slot now holding the line, for callers that maintain
    /// residency slot caches.
    pub slot: u32,
}

impl Cache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, sets: usize, ways: usize) -> Self {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(ways > 0, "need at least one way");
        Cache {
            name: name.into(),
            sets,
            ways,
            set_mask: sets as u64 - 1,
            tags: vec![0; sets * ways],
            lru: vec![0; sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Creates a cache from byte capacities.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`Cache::new`]).
    #[must_use]
    pub fn with_geometry(name: impl Into<String>, size: u32, assoc: u32, line_size: u32) -> Self {
        let lines = (size / line_size) as usize;
        let ways = assoc as usize;
        Cache::new(name, lines / ways, ways)
    }

    /// The configured name (for reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tag word encoding a valid `line`.
    #[inline]
    fn tag_key(line: u64) -> u64 {
        (line << 1) | 1
    }

    /// Index of the way in `[base, base + ways)` holding `line`, if any.
    #[inline]
    fn find(&self, base: usize, line: u64) -> Option<usize> {
        let key = Self::tag_key(line);
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == key)
    }

    /// Accesses `line`, filling it on a miss (write-allocate).
    ///
    /// The hit case is small enough to inline into the touch loops that
    /// dominate simulation time; the fill/eviction tail stays out of line
    /// (`Cache::fill`) so inlining it doesn't bloat those loops.
    #[inline]
    pub fn access(&mut self, line: u64) -> AccessOutcome {
        self.clock += 1;
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;

        // Hit?
        if let Some(w) = self.find(base, line) {
            self.lru[base + w] = self.clock;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
                slot: (base + w) as u32,
            };
        }

        self.fill(base, line)
    }

    /// Fills `line`, which the caller guarantees is absent — e.g. because
    /// the coherence directory proves the line is in none of this CPU's
    /// levels (`sim-mem` keeps each sharer bit equal to LLC residency, and
    /// the LLC is inclusive). Bookkeeping is identical to [`Cache::access`]
    /// taking its miss path: the clock advances once, one miss is counted,
    /// and the fill picks the same victim — only the doomed hit scan is
    /// skipped.
    #[inline]
    pub fn fill_absent(&mut self, line: u64) -> AccessOutcome {
        debug_assert!(
            !self.contains(line),
            "fill_absent: line {line} is resident in {}",
            self.name
        );
        self.clock += 1;
        let base = (line & self.set_mask) as usize * self.ways;
        self.fill(base, line)
    }

    /// Miss path of [`Cache::access`]: pick a victim, evict, fill.
    fn fill(&mut self, base: usize, line: u64) -> AccessOutcome {
        self.stats.misses += 1;

        // Fill: prefer an invalid way, else evict LRU. One fused pass —
        // in steady state every way is valid, so a separate invalid-way
        // scan would walk the whole set just to fail.
        let tags = &self.tags[base..base + self.ways];
        let lru = &self.lru[base..base + self.ways];
        let mut victim_idx = 0;
        let mut best = u64::MAX;
        for w in 0..self.ways {
            if tags[w] & 1 == 0 {
                victim_idx = w;
                break;
            }
            if lru[w] < best {
                best = lru[w];
                victim_idx = w;
            }
        }

        let slot = base + victim_idx;
        let evicted = self.line_at(slot);
        if evicted.is_some() {
            self.stats.evictions += 1;
        }

        self.tags[slot] = Self::tag_key(line);
        self.lru[slot] = self.clock;

        AccessOutcome {
            hit: false,
            evicted,
            slot: slot as u32,
        }
    }

    /// Touches the lines `first_line..` by pre-resolved storage slot if
    /// `slots[i]` still holds line `first_line + i` for every `i` (each a
    /// `slot` an earlier access or fill of the line reported), and returns
    /// whether it did. A slot that lost its line — an eviction, an
    /// invalidation or a flush — fails the check even if the line came
    /// back elsewhere, and then nothing changes. A run that passes is all
    /// hits, so its bookkeeping is identical to calling [`Cache::access`]
    /// on each line in order: the clock advances once per line, each line
    /// becomes most recently used in access order, and each access counts
    /// one hit.
    #[inline]
    pub fn touch_resident_run(&mut self, slots: &[u32], first_line: u64) -> bool {
        let held = slots
            .iter()
            .zip(first_line..)
            .all(|(&slot, line)| self.tags[slot as usize] == Self::tag_key(line));
        if !held {
            return false;
        }
        let base_clock = self.clock;
        let n = slots.len() as u64;
        self.clock += n;
        self.stats.hits += n;
        for (i, &slot) in slots.iter().enumerate() {
            self.lru[slot as usize] = base_clock + i as u64 + 1;
        }
        true
    }

    /// The line storage slot `slot` holds, if it is valid.
    fn line_at(&self, slot: usize) -> Option<u64> {
        let t = self.tags[slot];
        (t & 1 != 0).then_some(t >> 1)
    }

    /// Returns `true` if `line` is resident (does not touch LRU state).
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        let base = (line & self.set_mask) as usize * self.ways;
        self.find(base, line).is_some()
    }

    /// Removes `line` if resident (coherence invalidation). Returns whether
    /// the line was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let base = (line & self.set_mask) as usize * self.ways;
        if let Some(w) = self.find(base, line) {
            self.tags[base + w] = 0;
            self.stats.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Drops every line (e.g. simulating a full flush).
    pub fn flush(&mut self) {
        self.tags.fill(0);
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the counters (keeps contents) — used to discard warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of currently valid lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t & 1 != 0).count()
    }

    /// Total capacity in lines.
    #[must_use]
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of sets. A run of consecutive line addresses no longer than
    /// this maps every line to a distinct set.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new("t", 2, 2) // 4 lines total
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(5).hit);
        assert!(c.access(5).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new("t", 1, 2); // one set, two ways
        c.access(1);
        c.access(2);
        c.access(1); // 2 becomes LRU
        let out = c.access(3);
        assert_eq!(out.evicted, Some(2));
        assert!(c.contains(1));
        assert!(c.contains(3));
        assert!(!c.contains(2));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(4);
        assert!(c.invalidate(4));
        assert!(!c.contains(4));
        assert!(!c.invalidate(4)); // second time: not present
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = Cache::new("t", 2, 1);
        // Lines 0 and 2 map to set 0; line 1 maps to set 1.
        c.access(0);
        c.access(1);
        c.access(2); // evicts 0, not 1
        assert!(!c.contains(0));
        assert!(c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn touch_resident_run_matches_sequential_hits() {
        // Two identical caches, same warm-up; then one takes the slot
        // path and the other the per-line access path. Future behaviour
        // (evictions, stats) must be indistinguishable.
        let mut a = Cache::new("a", 4, 2);
        let mut b = Cache::new("b", 4, 2);
        // Six lines in eight ways: nothing is evicted, so every slot the
        // warm-up reports still holds its line.
        let slots: Vec<u32> = (0..6u64)
            .map(|line| {
                b.access(line);
                a.access(line).slot
            })
            .collect();
        assert!(a.touch_resident_run(&slots[2..], 2));
        for line in 2..6u64 {
            assert!(b.access(line).hit);
        }
        assert_eq!(a.stats(), b.stats());
        // Same future evictions: push conflicting lines through both.
        for line in 8..16u64 {
            let oa = a.access(line);
            let ob = b.access(line);
            assert_eq!(oa, ob, "divergence at line {line}");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn a_run_with_a_slot_that_lost_its_line_changes_nothing() {
        // One set of two ways: line 0 lands in way 0 and line 2 in way 1.
        let mut c = Cache::new("t", 1, 2);
        let slot0 = c.access(0).slot;
        let slot2 = c.access(2).slot;
        // Line 4 evicts line 0 into its slot; line 0 comes back in the
        // other way. The recorded slot of line 0 no longer holds it.
        c.access(4);
        c.access(0);
        let before = c.clone();
        assert!(!c.touch_resident_run(&[slot0], 0));
        assert!(!c.touch_resident_run(&[slot2, slot0], 2));
        assert_eq!(
            (c.stats(), c.clock, &c.lru),
            (before.stats(), before.clock, &before.lru)
        );
        // The slot that holds line 0 now passes.
        let slot = c.access(0).slot;
        assert!(c.touch_resident_run(&[slot], 0));
    }

    #[test]
    fn fill_absent_matches_access_miss_path() {
        // Same warm-up, then one cache misses via `access` and the other
        // fills via `fill_absent`; all state and stats must stay equal.
        let mut a = Cache::new("a", 2, 2);
        let mut b = Cache::new("b", 2, 2);
        for line in 0..4u64 {
            a.access(line);
            b.access(line);
        }
        for line in 8..12u64 {
            let oa = a.access(line);
            let ob = b.fill_absent(line);
            assert_eq!(oa, ob, "divergence at line {line}");
        }
        assert_eq!(a.stats(), b.stats());
        for line in 0..12u64 {
            let oa = a.access(line);
            let ob = b.access(line);
            assert_eq!(oa, ob, "future divergence at line {line}");
        }
    }

    #[test]
    fn geometry_constructor() {
        let c = Cache::with_geometry("l1", 8 * 1024, 4, 64);
        assert_eq!(c.capacity_lines(), 128);
        assert_eq!(c.name(), "l1");
    }

    #[test]
    fn flush_empties() {
        let mut c = small();
        c.access(1);
        c.access(2);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        c.access(1);
        c.access(1);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(1);
        c.reset_stats();
        assert_eq!(c.stats().misses, 0);
        assert!(c.access(1).hit);
    }
}
