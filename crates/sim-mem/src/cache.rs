//! A set-associative cache with LRU replacement.
//!
//! The cache operates on *line addresses* (byte address divided by line
//! size) and tracks only presence and dirtiness — data values never matter
//! to the characterization, only hit/miss behaviour.

/// Whether a cache access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store (write-allocate: a miss still fills the line).
    Write,
}

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
/// Way state is stored structure-of-arrays — contiguous tags, one dirty
/// byte per way, and a separate LRU array — so the hit scan of a set
/// reads one short run of tags instead of striding over padded structs.
/// The valid bit is packed into bit 0 of the tag word (`(line << 1) | 1`,
/// `0` = invalid), so both the hit scan and the victim scan read a single
/// array instead of cross-checking a parallel flag array.
///
/// # Example
///
/// ```
/// use sim_mem::{AccessKind, Cache};
///
/// let mut c = Cache::new("l1", 4, 2); // 4 sets x 2 ways
/// assert!(!c.access(0, AccessKind::Read).hit);
/// assert!(c.access(0, AccessKind::Read).hit);
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
    /// `dirty[set * ways + way]`: non-zero when the held line is modified.
    /// Only meaningful while the way is valid; a fill overwrites it.
    dirty: Vec<u8>,
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
    /// The evicted victim was dirty (would be written back).
    pub evicted_dirty: bool,
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
            dirty: vec![0; sets * ways],
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
    pub fn access(&mut self, line: u64, kind: AccessKind) -> AccessOutcome {
        self.clock += 1;
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;

        // Hit?
        if let Some(w) = self.find(base, line) {
            self.lru[base + w] = self.clock;
            if kind == AccessKind::Write {
                self.dirty[base + w] = 1;
            }
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
                evicted_dirty: false,
                slot: (base + w) as u32,
            };
        }

        self.fill(base, line, kind)
    }

    /// Fills `line`, which the caller guarantees is absent — e.g. because
    /// the coherence directory proves the line is in none of this CPU's
    /// levels (`sim-mem` keeps each sharer bit equal to LLC residency, and
    /// the LLC is inclusive). Bookkeeping is identical to [`Cache::access`]
    /// taking its miss path: the clock advances once, one miss is counted,
    /// and the fill picks the same victim — only the doomed hit scan is
    /// skipped.
    #[inline]
    pub fn fill_absent(&mut self, line: u64, kind: AccessKind) -> AccessOutcome {
        debug_assert!(
            !self.contains(line),
            "fill_absent: line {line} is resident in {}",
            self.name
        );
        self.clock += 1;
        let base = (line & self.set_mask) as usize * self.ways;
        self.fill(base, line, kind)
    }

    /// Miss path of [`Cache::access`]: pick a victim, evict, fill.
    fn fill(&mut self, base: usize, line: u64, kind: AccessKind) -> AccessOutcome {
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
        let (evicted, evicted_dirty) = if self.tags[slot] & 1 != 0 {
            self.stats.evictions += 1;
            (Some(self.tags[slot] >> 1), self.dirty[slot] != 0)
        } else {
            (None, false)
        };

        self.tags[slot] = Self::tag_key(line);
        self.dirty[slot] = (kind == AccessKind::Write) as u8;
        self.lru[slot] = self.clock;

        AccessOutcome {
            hit: false,
            evicted,
            evicted_dirty,
            slot: slot as u32,
        }
    }

    /// Touches a run of resident lines by pre-resolved storage slot:
    /// `slots[i]` must hold line `first_line + i` (the `slot` an access or
    /// fill of that line reported, with no intervening eviction,
    /// invalidation or flush). Bookkeeping is identical to calling [`Cache::access`] on
    /// each line in order when every access hits: the clock advances once
    /// per line, each line becomes most recently used in access order,
    /// and each access counts one hit.
    pub fn touch_resident_run(&mut self, slots: &[u32], first_line: u64, write: bool) {
        let base_clock = self.clock;
        let n = slots.len() as u64;
        self.clock += n;
        self.stats.hits += n;
        for (i, &slot) in slots.iter().enumerate() {
            let slot = slot as usize;
            debug_assert!(
                self.tags[slot] == Self::tag_key(first_line + i as u64),
                "stale slot cache: slot {slot} does not hold line {}",
                first_line + i as u64
            );
            self.lru[slot] = base_clock + i as u64 + 1;
            if write {
                self.dirty[slot] = 1;
            }
        }
    }

    /// The line storage slot `slot` holds, if it is valid.
    pub(crate) fn line_at(&self, slot: usize) -> Option<u64> {
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

    /// Marks `line` clean if resident (coherence downgrade on a remote
    /// read of a modified line).
    pub fn clean(&mut self, line: u64) {
        let base = (line & self.set_mask) as usize * self.ways;
        if let Some(w) = self.find(base, line) {
            self.dirty[base + w] = 0;
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
        assert!(!c.access(5, AccessKind::Read).hit);
        assert!(c.access(5, AccessKind::Read).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new("t", 1, 2); // one set, two ways
        c.access(1, AccessKind::Read);
        c.access(2, AccessKind::Read);
        c.access(1, AccessKind::Read); // 2 becomes LRU
        let out = c.access(3, AccessKind::Read);
        assert_eq!(out.evicted, Some(2));
        assert!(c.contains(1));
        assert!(c.contains(3));
        assert!(!c.contains(2));
    }

    #[test]
    fn write_marks_dirty_and_eviction_reports_it() {
        let mut c = Cache::new("t", 1, 1);
        c.access(7, AccessKind::Write);
        let out = c.access(8, AccessKind::Read);
        assert_eq!(out.evicted, Some(7));
        assert!(out.evicted_dirty);
    }

    #[test]
    fn clean_clears_dirtiness() {
        let mut c = Cache::new("t", 1, 1);
        c.access(7, AccessKind::Write);
        c.clean(7);
        let out = c.access(8, AccessKind::Read);
        assert!(!out.evicted_dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(4, AccessKind::Write);
        assert!(c.invalidate(4));
        assert!(!c.contains(4));
        assert!(!c.invalidate(4)); // second time: not present
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = Cache::new("t", 2, 1);
        // Lines 0 and 2 map to set 0; line 1 maps to set 1.
        c.access(0, AccessKind::Read);
        c.access(1, AccessKind::Read);
        c.access(2, AccessKind::Read); // evicts 0, not 1
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
                b.access(line, AccessKind::Read);
                a.access(line, AccessKind::Read).slot
            })
            .collect();
        a.touch_resident_run(&slots[2..], 2, true);
        for line in 2..6u64 {
            assert!(b.access(line, AccessKind::Write).hit);
        }
        assert_eq!(a.stats(), b.stats());
        // Same future evictions: push conflicting lines through both.
        for line in 8..16u64 {
            let oa = a.access(line, AccessKind::Read);
            let ob = b.access(line, AccessKind::Read);
            assert_eq!(oa, ob, "divergence at line {line}");
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn fill_absent_matches_access_miss_path() {
        // Same warm-up, then one cache misses via `access` and the other
        // fills via `fill_absent`; all state and stats must stay equal.
        let mut a = Cache::new("a", 2, 2);
        let mut b = Cache::new("b", 2, 2);
        for line in 0..4u64 {
            a.access(line, AccessKind::Read);
            b.access(line, AccessKind::Read);
        }
        for line in 8..12u64 {
            let oa = a.access(line, AccessKind::Write);
            let ob = b.fill_absent(line, AccessKind::Write);
            assert_eq!(oa, ob, "divergence at line {line}");
        }
        assert_eq!(a.stats(), b.stats());
        for line in 0..12u64 {
            let oa = a.access(line, AccessKind::Read);
            let ob = b.access(line, AccessKind::Read);
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
        c.access(1, AccessKind::Read);
        c.access(2, AccessKind::Read);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        c.access(1, AccessKind::Read);
        c.access(1, AccessKind::Read);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(1, AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().misses, 0);
        assert!(c.access(1, AccessKind::Read).hit);
    }
}
