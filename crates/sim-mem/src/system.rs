//! The coherent, multi-CPU memory system.
//!
//! [`MemorySystem`] owns one cache hierarchy per CPU (L1D → L2 → LLC for
//! data, trace cache → L2 → LLC for code, plus ITLB/DTLB) and a directory
//! that keeps the hierarchies coherent, MESI-style:
//!
//! * a **write** by CPU *c* invalidates the line in every other CPU's
//!   caches (they will take an LLC miss on their next access — the
//!   ping-pong the paper's no-affinity mode suffers);
//! * a **read** of a line another CPU holds modified downgrades that copy
//!   to clean (writeback) — the reader still misses its own hierarchy;
//! * **device DMA writes** (arriving packets) invalidate everywhere, so
//!   receive payload is always uncached, exactly the paper's observation
//!   about RX copies;
//! * **device DMA reads** (transmit) only force writebacks.
//!
//! The LLC is kept inclusive: evicting a line from the LLC back-invalidates
//! the inner levels, so "resident in LLC" is an upper bound for the whole
//! hierarchy, matching how the paper reasons about last-level misses.
//!
//! # Hot-path layout
//!
//! Touches dominate simulation time, so the structures they walk are flat:
//!
//! * The directory is paged ([`Directory`]): a flat top table indexed by
//!   page points into an arena of one-page leaves. A leaf is taken on the
//!   first write to any of its lines and freed, for the next leaf taken
//!   to reuse, once none of its lines is in an LLC. Every absent leaf
//!   reads as the shared all-default leaf (no sharers, no owner), which
//!   is exactly equivalent to "line unknown", so the directory holds
//!   memory in proportion to the lines the caches hold, not to the lines
//!   a run has written or provisioned.
//! * A line's region — whose summaries a change to the line must bump —
//!   is kept where the line is cached, not in a table over every
//!   provisioned page. Regions are page-aligned, so a leaf holds one
//!   region's page and stores its id, taken from the walked region (or,
//!   for a touch that runs past its region's end, found by base). Every
//!   line in an L1, L2 or LLC has a live leaf, so walks, DMA and coherence
//!   read their victims' regions there. The trace cache is exempt from
//!   inclusion, so a TC victim may have lost its leaf: each CPU keeps the
//!   region of every TC slot, written by the fill.
//! * A CPU's sharer bit is kept **exactly equal to LLC residency** (set by
//!   the fill that lands the line in the LLC, cleared by the inclusive
//!   eviction, the write-invalidation and DMA — the only ways a line
//!   leaves an LLC). With inclusion bounding the inner levels, one
//!   directory read classifies a whole access: a clear bit means every
//!   level misses (the walk fills directly, [`Cache::fill_absent`],
//!   skipping the doomed hit scans), a set bit means the LLC cannot miss
//!   and no remote modified owner can exist (skipping the downgrade
//!   check and the redundant re-record of residency).
//! * TLBs are probed once per *page* of a touch instead of once per line
//!   ([`Tlb::access_n`] keeps the bookkeeping identical).
//! * A data touch has one fast path over one walk. Each walk records the
//!   L1 storage slot of every line it leaves resident, and a walk that
//!   leaves its whole span resident stamps a [`SpanClaim`] with the
//!   (CPU, region) [`Summary`]'s generation. While the stamp is current,
//!   an exact repeat of the span (a write also needs a claim from a write
//!   walk, which left every line with sharer set `{cpu}`) is pure L1 hits
//!   with no coherence work, so it replays the L1 bookkeeping by direct
//!   index ([`Cache::touch_resident_run`]) — the only part with observable
//!   effects. Every event that could falsify a claim (fills, evictions,
//!   invalidations, DMA writes) advances the summary's generation, so
//!   the fast path can never mask a miss or skip an invalidation:
//!   observable counters are bit-identical to the per-line walk, which
//!   [`MemorySystem::reference`] runs for every touch. Generations move
//!   once per touch (accumulated masks, [`SummaryCache::bump`]) rather
//!   than once per line — claims only test stamp equality, so the
//!   batching is invisible.
//! * Summaries live in a fixed-capacity per-CPU [`SummaryCache`] tagged by
//!   region, not in a table over every (region, CPU) pair. A bump of a
//!   pair with no entry is a no-op (no entry, no claim to withdraw), and
//!   a new entry starts with every claim withdrawn, so evicting an entry
//!   only costs a later slow walk. A claim needs its lines in the L1, so
//!   an 8 KiB L1 (128 lines) can back live claims for at most 128 regions
//!   per CPU.
//! * Code fetches get the same treatment via [`CodeSummary`]: every fetch
//!   that stays inside its region and whose span ends up fully resident
//!   (all hits, or a span no larger than the trace cache's set count,
//!   where consecutive lines cannot collide) records the span's
//!   trace-cache slots, and the next fetch of
//!   the same span replays the TC bookkeeping by slot. The TC is only
//!   ever changed by the owning CPU's fetch fills (no invalidations or
//!   flushes reach it), so the single bump site is a fill's eviction.
//!   Code summaries stay in a per-(region, CPU) table whose chunks
//!   materialize on first write ([`LazySlots`]): only code regions are
//!   fetched, so only their few chunks exist, and the direct index keeps
//!   the per-fetch lookup (the hottest in the simulator) to one load.

use sim_core::CpuId;

use crate::cache::{AccessKind, Cache, CacheStats};

use crate::config::MemoryConfig;
use crate::region::{RegionId, RegionName, RegionPlan, RegionSpan, RegionTable};
use crate::tlb::{Tlb, TlbStats};

/// Per-CPU cache stack.
#[derive(Debug, Clone)]
struct CpuCaches {
    l1: Cache,
    l2: Cache,
    llc: Cache,
    tc: Cache,
    itlb: Tlb,
    dtlb: Tlb,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DirEntry {
    /// Bitmask of CPUs that may hold the line.
    sharers: u32,
    /// CPU holding the line modified, plus one; `0` means no owner.
    owner_plus1: u8,
}

impl DirEntry {
    #[inline]
    fn owner(self) -> Option<u8> {
        self.owner_plus1.checked_sub(1)
    }

    #[inline]
    fn owner_is(self, cpu: u8) -> bool {
        self.owner_plus1 == cpu + 1
    }

    #[inline]
    fn set_owner(&mut self, cpu: u8) {
        self.owner_plus1 = cpu + 1;
    }

    #[inline]
    fn clear_owner(&mut self) {
        self.owner_plus1 = 0;
    }

    /// No sharer and no owner: what an absent leaf reads as.
    #[inline]
    fn is_default(self) -> bool {
        self.sharers == 0 && self.owner_plus1 == 0
    }
}

/// The coherence directory, paged: a leaf is one page of lines.
///
/// `top[line >> shift]` numbers the leaf holding `line`; leaf `k` is
/// `entries[k << shift..(k + 1) << shift]`. Leaf 0 is a shared leaf of
/// default entries that is never written, so a zero top entry — what a
/// fresh, calloc-backed top table holds everywhere — reads as "line
/// unknown" with no branch, and the first write to a line of it takes a
/// leaf for the line's page. `live[k]` counts leaf `k`'s non-default
/// entries; when the last of them returns to default (an inclusive LLC
/// eviction or a DMA write drops the line's last sharer), the page's top
/// entry goes back to 0 and the leaf, all default again, joins the free
/// list that [`Directory::add_leaf`] takes from first. A million-flow
/// machine provisions billions of lines but caches a few million, and
/// only those leaves (plus the top-table pages that number them) hold
/// memory.
///
/// `region[k]` is the region whose page leaf `k` holds, set when the leaf
/// is taken. Regions are page-aligned, so a one-page leaf never spans
/// two, and every line a CPU's L1, L2 or LLC holds has a live leaf (its
/// sharer bit is set): the generation bumps of a walk's victims read
/// their region here, in proportion to the lines the caches hold.
#[derive(Debug, Clone)]
struct Directory {
    /// Log2 of the lines per leaf (per page).
    shift: u32,
    top: Vec<u32>,
    entries: Vec<DirEntry>,
    /// Non-default entries per leaf (leaf 0's stays 0).
    live: Vec<u32>,
    /// Region id per leaf (leaf 0's and a free leaf's are stale).
    region: Vec<u32>,
    /// Released leaves, all default, for [`Directory::add_leaf`] to reuse.
    free: Vec<u32>,
}

impl Directory {
    fn new(shift: u32) -> Self {
        Directory {
            shift,
            top: Vec::new(),
            entries: vec![DirEntry::default(); 1 << shift],
            live: vec![0],
            region: vec![0],
            free: Vec::new(),
        }
    }

    /// Lines per leaf.
    fn leaf_lines(&self) -> usize {
        1 << self.shift
    }

    /// Top-table length that covers lines `0..lines`.
    fn pages_for(&self, lines: usize) -> usize {
        lines.div_ceil(self.leaf_lines())
    }

    /// Arena leaves: live, free and the shared default leaf.
    fn arena_leaves(&self) -> usize {
        self.live.len()
    }

    /// Leaves a top entry numbers.
    fn live_leaves(&self) -> usize {
        self.arena_leaves() - self.free.len() - 1
    }

    /// Index in `entries` of `line`'s entry, in the shared default leaf
    /// when the line's own leaf is absent: read through it, and write
    /// through it only when the entry read is not the default.
    #[inline]
    fn index(&self, line: u64) -> usize {
        let l = line as usize;
        ((self.top[l >> self.shift] as usize) << self.shift) | (l & (self.leaf_lines() - 1))
    }

    /// The entry of `line` (a default entry when its leaf is absent).
    #[inline]
    fn get(&self, line: u64) -> DirEntry {
        self.entries[self.index(line)]
    }

    /// Region of the line whose entry is at `di`, which must be in a live
    /// leaf.
    #[inline]
    fn region_at(&self, di: usize) -> u32 {
        debug_assert!(di >> self.shift != 0, "entry {di} is in the shared leaf");
        self.region[di >> self.shift]
    }

    /// Region of `line`, which some CPU's L1, L2 or LLC holds (so its leaf
    /// is live).
    #[inline]
    fn region_of(&self, line: u64) -> u32 {
        self.region_at(self.index(line))
    }

    /// Index in `entries` of `line`'s entry, taking a leaf for it if
    /// absent; `page_region(page)` names the region of a page a leaf is
    /// taken for. The caller must make the entry non-default
    /// ([`Directory::revive`]) before anything can release a leaf.
    #[inline]
    fn index_mut(&mut self, line: u64, page_region: impl FnOnce(usize) -> u32) -> usize {
        let l = line as usize;
        let page = l >> self.shift;
        let mut leaf = self.top[page];
        if leaf == 0 {
            leaf = self.add_leaf(page, page_region(page));
        }
        ((leaf as usize) << self.shift) | (l & (self.leaf_lines() - 1))
    }

    /// Numbers a leaf for page `page` of region `region`, reusing a
    /// released one before growing the arena, and returns its number.
    #[cold]
    fn add_leaf(&mut self, page: usize, region: u32) -> u32 {
        let leaf = self.free.pop().unwrap_or_else(|| {
            let leaf =
                u32::try_from(self.arena_leaves()).expect("directory leaf count overflows u32");
            let lines = self.leaf_lines();
            self.entries
                .resize(self.entries.len() + lines, DirEntry::default());
            self.live.push(0);
            self.region.push(0);
            leaf
        });
        self.top[page] = leaf;
        self.region[leaf as usize] = region;
        leaf
    }

    /// Counts the entry at `di` live if it is default; call it before the
    /// write that makes the entry non-default.
    #[inline]
    fn revive(&mut self, di: usize) {
        if self.entries[di].is_default() {
            self.live[di >> self.shift] += 1;
        }
    }

    /// Returns `line`'s entry at `di`, counted live, to the default and
    /// releases its leaf if no live entry is left in it.
    #[inline]
    fn retire(&mut self, line: u64, di: usize) {
        self.entries[di] = DirEntry::default();
        let leaf = di >> self.shift;
        self.live[leaf] -= 1;
        if self.live[leaf] == 0 {
            self.top[line as usize >> self.shift] = 0;
            self.free.push(leaf as u32);
        }
    }
}

/// Grows `v` to `len` elements, zero-filled, without writing the tail:
/// a fresh `vec![0; len]` is calloc-backed, so its pages fault in only
/// where a run later writes, and only the old prefix is copied in. Bulk
/// provisioning grows its tables this way; `resize` would write — and so
/// make resident — every new element up front. No-op when `len` is not
/// larger than `v.len()`.
fn grow_zeroed(v: &mut Vec<u32>, len: usize) {
    if len > v.len() {
        let mut grown = vec![0; len];
        grown[..v.len()].copy_from_slice(v);
        *v = grown;
    }
}

/// Bytes of the 4 KiB pages of `v` that hold a non-zero entry. In a
/// calloc-backed table a page holds memory once a run writes it, and
/// stays resident if its entries later return to zero, so this is a
/// lower bound on the table's resident bytes.
fn written_bytes(v: &[u32]) -> usize {
    const PAGE: usize = 4096 / size_of::<u32>();
    v.chunks(PAGE)
        .filter(|p| p.iter().any(|&x| x != 0))
        .map(size_of_val)
        .sum()
}

/// Fast-path state for one (CPU, region) pair: the replayable touch
/// spans of the region and the generation guarding them.
///
/// A claim is trusted only while its stamp matches `gen`; every event that
/// could falsify one — an L1 fill or eviction, a coherence invalidation, a
/// directory sharer change, DMA — bumps `gen`, so a stale claim simply
/// falls back to the exact per-line walk.
#[derive(Debug, Clone, Default)]
struct Summary {
    /// The (CPU, region) change generation guarding every claim below.
    gen: u64,
    /// Recently promoted touch spans (see [`SpanClaim`]). Touch patterns
    /// repeat a handful of distinct spans per region, so a few claims
    /// suffice.
    spans: Vec<SpanClaim>,
    /// Round-robin replacement cursor for `spans` when every claim is
    /// still current.
    span_cursor: usize,
}

/// Maximum replayable touch spans remembered per (CPU, region).
const SPAN_CLAIMS: usize = 8;

/// One replayable touch span: while `gen` matches the summary's
/// generation, lines `first..=last` are fully L1-resident at `slots`, so
/// an exact repeat of the touch is pure L1 hits and read coherence is a
/// no-op (a resident line's owner is this CPU or nobody).
#[derive(Debug, Clone)]
struct SpanClaim {
    /// Value of the summary's generation when the claim was recorded.
    gen: u64,
    first: u64,
    last: u64,
    /// The claim came from a write walk, which left every span line with
    /// `sharers == {cpu}` — so a repeated *write* of the span is also
    /// coherence- and directory-free. (The directory owner field is
    /// deliberately not part of the claim: owner state is unobservable,
    /// see [`MemorySystem::dma_read`].)
    owned: bool,
    /// L1 storage slot of `first + i`, recorded during the walk.
    slots: Vec<u32>,
}

impl Default for SpanClaim {
    fn default() -> Self {
        SpanClaim {
            // Never equals a real generation: claims start withdrawn.
            gen: u64::MAX,
            first: 0,
            last: 0,
            owned: false,
            slots: Vec::new(),
        }
    }
}

impl Summary {
    #[inline]
    fn span_matching(&self, first: u64, last: u64, write: bool) -> Option<&SpanClaim> {
        self.spans.iter().find(|c| {
            c.gen == self.gen && c.first == first && c.last == last && (!write || c.owned)
        })
    }

    /// Advances the generation, withdrawing every claim.
    #[inline]
    fn bump(&mut self) {
        self.gen += 1;
    }

    /// Whether a claim is current, so a later touch could still use it.
    fn is_live(&self) -> bool {
        self.spans.iter().any(|c| c.gen == self.gen)
    }

    /// Heap bytes held beyond the summary's own size.
    fn heap_bytes(&self) -> usize {
        self.spans.capacity() * size_of::<SpanClaim>()
            + self
                .spans
                .iter()
                .map(|c| c.slots.capacity() * size_of::<u32>())
                .sum::<usize>()
    }
}

/// Residency summary for one (CPU, region) pair on the *code* side: the
/// span of lines the last fully-resident fetch covered, with each line's
/// trace cache slot. Trace-cache contents only change through this CPU's own
/// code fetches (nothing invalidates or flushes the TC), so the only bump
/// site is a TC fill evicting a victim.
#[derive(Debug, Clone)]
struct CodeSummary {
    change_gen: u64,
    verified_gen: u64,
    span_first: u64,
    span_last: u64,
    /// TC storage slot of `span_first + i` at verification time.
    slots: Vec<u32>,
}

impl Default for CodeSummary {
    fn default() -> Self {
        CodeSummary {
            change_gen: 0,
            // != change_gen so a fresh summary never claims a span.
            verified_gen: u64::MAX,
            span_first: 0,
            span_last: 0,
            slots: Vec::new(),
        }
    }
}

impl CodeSummary {
    #[inline]
    fn bump(&mut self) {
        self.change_gen += 1;
    }

    /// Heap bytes held beyond the summary's own size.
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<u32>()
    }

    #[inline]
    fn covers(&self, first: u64, last: u64) -> bool {
        self.verified_gen == self.change_gen && self.span_first == first && self.span_last == last
    }
}

/// Summary-cache sets per CPU (a power of two).
const SUMMARY_SETS: usize = 64;
/// Summary-cache ways per set.
const SUMMARY_WAYS: usize = 4;

/// Tag of an empty summary-cache way.
const NO_REGION: u32 = u32::MAX;

/// Fixed-capacity per-CPU cache of data-side [`Summary`]s, tagged by
/// region.
///
/// Set-associative: region `r` of CPU `c` lives in set `r % sets` of
/// `c`'s block. An entry holds the (CPU, region) pair's whole fast-path
/// state, its generation included, so the cache replaces a table over
/// every provisioned pair. Every operation is exact under any capacity:
///
/// * a bump of a pair with no entry is a no-op — there is no claim to
///   withdraw;
/// * a new entry starts with every claim withdrawn (a fresh default, or
///   an evicted entry bumped once more, which keeps its buffers);
/// * so an eviction only costs the pair's next access a slow walk.
///
/// Replacement takes an empty way, else one whose claims are all stale,
/// else the set's round-robin victim, among the first `ways` ways (the
/// rest stay empty; lookups scan all [`SUMMARY_WAYS`], which unrolls).
/// `holders[r]` is the mask of CPUs holding an entry for region `r`, so
/// a bump of a region's view on many CPUs looks up only the CPUs that
/// hold one.
#[derive(Debug, Clone)]
struct SummaryCache {
    /// Sets per CPU (a power of two).
    sets: usize,
    /// Ways per set that replacement may fill.
    ways: usize,
    /// `tags[cpu * sets + set][way]`: the region index the entry
    /// summarizes, or [`NO_REGION`].
    tags: Vec<[u32; SUMMARY_WAYS]>,
    /// `entries[(cpu * sets + set) * SUMMARY_WAYS + way]`.
    entries: Vec<Summary>,
    /// Per-(CPU, set) round-robin victim cursor.
    cursors: Vec<u32>,
    /// `holders[region]`: CPUs holding an entry for the region.
    holders: Vec<u32>,
}

impl SummaryCache {
    fn new(cpus: usize, sets: usize, ways: usize) -> Self {
        assert!(
            sets.is_power_of_two() && (1..=SUMMARY_WAYS).contains(&ways),
            "bad summary-cache geometry"
        );
        SummaryCache {
            sets,
            ways,
            tags: vec![[NO_REGION; SUMMARY_WAYS]; cpus * sets],
            entries: vec![Summary::default(); cpus * sets * SUMMARY_WAYS],
            cursors: vec![0; cpus * sets],
            holders: Vec::new(),
        }
    }

    /// Covers one more region.
    fn add_region(&mut self) {
        self.holders.push(0);
    }

    /// Covers regions `0..regions` in one calloc-backed growth.
    fn cover_bulk(&mut self, regions: usize) {
        grow_zeroed(&mut self.holders, regions);
    }

    /// `cpu`'s set for region `rid`.
    #[inline]
    fn set_of(&self, cpu: usize, rid: u32) -> usize {
        cpu * self.sets + (rid as usize & (self.sets - 1))
    }

    /// Index of `cpu`'s entry for region `rid`, if it has one. The ways
    /// are compared without branching; a region sits in one way at most.
    #[inline]
    fn find(&self, cpu: usize, rid: u32) -> Option<usize> {
        let set = self.set_of(cpu, rid);
        let hits = self.tags[set]
            .iter()
            .enumerate()
            .fold(0u32, |m, (w, &t)| m | u32::from(t == rid) << w);
        (hits != 0).then(|| set * SUMMARY_WAYS + hits.trailing_zeros() as usize)
    }

    /// Makes an entry (holding no claim) for region `rid` on `cpu`, which
    /// has none, and returns its index. An index stays valid until the
    /// next insertion.
    fn insert(&mut self, cpu: usize, rid: u32) -> usize {
        debug_assert!(self.find(cpu, rid).is_none(), "region {rid} already cached");
        let set = self.set_of(cpu, rid);
        let base = set * SUMMARY_WAYS;
        let tags = &self.tags[set];
        let way = (0..self.ways)
            .find(|&w| tags[w] == NO_REGION || !self.entries[base + w].is_live())
            .unwrap_or_else(|| {
                let cursor = &mut self.cursors[set];
                let w = *cursor as usize;
                *cursor = ((w + 1) % self.ways) as u32;
                w
            });
        let old = self.tags[set][way];
        if old != NO_REGION {
            self.holders[old as usize] &= !(1 << cpu);
            self.entries[base + way].bump();
        }
        self.tags[set][way] = rid;
        self.holders[rid as usize] |= 1 << cpu;
        base + way
    }

    /// Bumps the view of region `rid` on every CPU in `mask` that holds
    /// an entry for it.
    #[inline]
    fn bump(&mut self, rid: u32, mask: u32) {
        let mut m = mask & self.holders[rid as usize];
        while m != 0 {
            let cpu = m.trailing_zeros() as usize;
            let i = self.find(cpu, rid).expect("a holder bit implies an entry");
            self.entries[i].bump();
            m &= m - 1;
        }
    }

    /// Entries in use.
    fn len(&self) -> usize {
        self.tags
            .iter()
            .flatten()
            .filter(|&&t| t != NO_REGION)
            .count()
    }

    /// Bytes the cache holds apart from `holders`: its fixed arrays and
    /// the entries' buffers.
    fn bytes(&self) -> usize {
        size_of_val(self.tags.as_slice())
            + size_of_val(self.entries.as_slice())
            + size_of_val(self.cursors.as_slice())
            + self.entries.iter().map(Summary::heap_bytes).sum::<usize>()
    }

    /// Panics unless `holders` agrees with the tags.
    fn verify(&self) {
        let mut want = vec![0u32; self.holders.len()];
        for (set, tags) in self.tags.iter().enumerate() {
            let cpu = set / self.sets;
            for &t in tags.iter().filter(|&&t| t != NO_REGION) {
                let bit = 1 << cpu;
                assert_eq!(
                    want[t as usize] & bit,
                    0,
                    "region {t} cached twice on cpu {cpu}"
                );
                want[t as usize] |= bit;
            }
        }
        assert_eq!(
            want, self.holders,
            "summary-cache holders diverged from its tags"
        );
    }
}

/// Slots per [`LazySlots`] chunk (must be a power of two).
const LAZY_CHUNK: usize = 1 << 12;

/// Flat per-(region, CPU) slot table whose logical length grows in O(1).
///
/// Holds [`CodeSummary`]s. Growth just records the new logical length; a
/// slot's backing chunk materializes to defaults on first *mutable*
/// access, and shared reads of never-written slots see one canonical
/// default instance. Only code regions are ever fetched or lose a line
/// from the trace cache, so only their chunks materialize: a few, however
/// many flows a machine provisions. The chunk table itself grows on the
/// first write past its end, so it too covers only the fetched regions.
///
/// Chunked (4096 slots) rather than prefix-grown so a sparse touch at a
/// high region index — e.g. a victim-eviction bump against a late
/// region — materializes one chunk, not the whole prefix.
///
/// Indistinguishable from `Vec<T>` + `resize_with(len, T::default)` to
/// any caller: `get` of an unmaterialized slot returns a default value,
/// and `get_mut` hands out a default the caller may mutate in place.
#[derive(Debug, Clone)]
struct LazySlots<T> {
    chunks: Vec<Option<Box<[T]>>>,
    len: usize,
    /// What every unmaterialized slot reads as (always `T::default()`).
    default: T,
}

impl<T: Default + Clone> LazySlots<T> {
    fn new() -> Self {
        LazySlots {
            chunks: Vec::new(),
            len: 0,
            default: T::default(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Grows the logical length; O(1).
    fn grow_to(&mut self, len: usize) {
        debug_assert!(len >= self.len, "slot tables never shrink");
        self.len = len;
    }

    #[inline]
    fn get(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "slot {i} out of range ({})", self.len);
        match self.chunks.get(i / LAZY_CHUNK) {
            Some(Some(c)) => &c[i % LAZY_CHUNK],
            _ => &self.default,
        }
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "slot {i} out of range ({})", self.len);
        let c = i / LAZY_CHUNK;
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk =
            self.chunks[c].get_or_insert_with(|| vec![T::default(); LAZY_CHUNK].into_boxed_slice());
        &mut chunk[i % LAZY_CHUNK]
    }

    /// Bytes held: the chunk table, materialized chunks, and `heap(slot)`
    /// for each of their slots.
    fn bytes(&self, heap: impl Fn(&T) -> usize) -> usize {
        size_of_val(self.chunks.as_slice())
            + self
                .chunks
                .iter()
                .flatten()
                .map(|c| size_of_val(&**c) + c.iter().map(&heap).sum::<usize>())
                .sum::<usize>()
    }
}

/// Result of one data touch: how many lines were accessed and how far each
/// access had to go.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TouchResult {
    /// Cache lines spanned by the touch.
    pub lines: u64,
    /// Accesses that missed L1 (satisfied by L2 or beyond).
    pub l1_misses: u64,
    /// Accesses that missed L2 (satisfied by LLC or beyond).
    pub l2_misses: u64,
    /// Accesses that missed the last-level cache (memory access).
    pub llc_misses: u64,
    /// Data-TLB misses (page walks).
    pub dtlb_misses: u64,
}

impl TouchResult {
    /// Merges another result into this one.
    pub fn merge(&mut self, other: &TouchResult) {
        self.lines += other.lines;
        self.l1_misses += other.l1_misses;
        self.l2_misses += other.l2_misses;
        self.llc_misses += other.llc_misses;
        self.dtlb_misses += other.dtlb_misses;
    }
}

/// Result of one instruction fetch through the trace cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchResult {
    /// Cache lines of code footprint fetched.
    pub lines: u64,
    /// Trace-cache misses (decode path re-entered).
    pub tc_misses: u64,
    /// Code accesses that missed L2.
    pub l2_misses: u64,
    /// Code accesses that missed the LLC.
    pub llc_misses: u64,
    /// Instruction-TLB misses (page walks).
    pub itlb_misses: u64,
}

impl FetchResult {
    /// Merges another result into this one.
    pub fn merge(&mut self, other: &FetchResult) {
        self.lines += other.lines;
        self.tc_misses += other.tc_misses;
        self.l2_misses += other.l2_misses;
        self.llc_misses += other.llc_misses;
        self.itlb_misses += other.itlb_misses;
    }
}

/// Probes a TLB once per page covered by the line run `[first, last]`.
///
/// Bookkeeping is identical to one probe per line (see [`Tlb::access_n`]);
/// returns the number of page walks, which equals the per-line miss count
/// because within one run only the first probe of a page can miss.
#[inline]
fn probe_pages(tlb: &mut Tlb, first: u64, last: u64, lines_per_page_shift: u32) -> u64 {
    let mut misses = 0;
    let mut line = first;
    while line <= last {
        let page = line >> lines_per_page_shift;
        let page_last = ((page + 1) << lines_per_page_shift) - 1;
        let run = page_last.min(last) - line + 1;
        if !tlb.access_n(page, run) {
            misses += 1;
        }
        line = page_last + 1;
    }
    misses
}

/// The multi-CPU coherent memory system.
///
/// See the module documentation for the coherence rules.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemoryConfig,
    regions: RegionTable,
    cpus: Vec<CpuCaches>,
    /// Paged coherence directory, indexed by line address. A default
    /// entry is equivalent to "line unknown". Each leaf also names its
    /// page's region, for attributing cache and directory events (a touch
    /// can run past its region's end, so attribution goes by the line
    /// actually affected, not by the touched region).
    directory: Directory,
    /// `tc_regions[cpu * tc_slots + slot]`: region of the line in the
    /// CPU's trace-cache slot, written by the fill. The trace cache is
    /// exempt from inclusion, so a TC victim's directory leaf may be gone;
    /// its fetch-summary bump reads the region here.
    tc_regions: Vec<u32>,
    /// Per-CPU data-side fast-path state ([`Summary`]), tagged by region.
    summaries: SummaryCache,
    /// `code_summaries[region * cpus + cpu]`: trace-cache fast-path
    /// state, lazily materialized (see [`LazySlots`]).
    code_summaries: LazySlots<CodeSummary>,
    /// Reused per-line sharer-mask buffer for [`MemorySystem::dma_write`]'s
    /// two-pass directory delta (gather sharers, then apply per CPU).
    dma_sharers: Vec<u32>,
    /// Reused deferred-coherence buffers for [`MemorySystem::data_touch`]:
    /// remote invalidations `(line, cpu mask)` from writes and remote
    /// downgrades `(line, owner)` from reads, applied after the walk so
    /// the walk loop holds a single CPU's caches borrowed throughout.
    remote_invals: Vec<(u64, u32)>,
    remote_cleans: Vec<(u64, u8)>,
    /// Reused per-touch accumulator of pending generation bumps,
    /// `(region, cpu mask)`. The walks record which (region, CPU) views
    /// changed and apply all bumps once at the end ([`apply_bumps`])
    /// instead of bumping per line: nothing reads a summary generation
    /// mid-walk, and claims only compare stamped generations for
    /// equality, so one bump per touch invalidates exactly the same
    /// claims as one per line.
    bump_masks: Vec<(u32, u32)>,
    /// Whether touches and fetches may replay a current claim instead of
    /// walking; off only in the [`reference`](Self::reference) oracle.
    replay: bool,
    line_shift: u32,
    page_shift: u32,
}

/// Records that every CPU in `mask` must have its view of region `rid`
/// bumped before the touch returns. Touches span one or two regions, so a
/// linear scan of the accumulator beats any map.
#[inline]
fn note_bump(bumps: &mut Vec<(u32, u32)>, rid: u32, mask: u32) {
    for e in bumps.iter_mut() {
        if e.0 == rid {
            e.1 |= mask;
            return;
        }
    }
    bumps.push((rid, mask));
}

/// The region number of a directory leaf taken during a walk of region
/// `rid`, whose own pages end at `last_page`, as a function of the leaf's
/// page: `rid` for the region's own pages, else the region holding the
/// page, found by base (a touch that runs past its region's end).
#[inline]
fn leaf_region(
    regions: &RegionTable,
    rid: u32,
    last_page: u64,
    page_shift: u32,
) -> impl Fn(usize) -> u32 + Copy + '_ {
    move |page| {
        if page as u64 <= last_page {
            rid
        } else {
            regions
                .region_of((page as u64) << page_shift)
                .expect("a walked page lies past the walked region's base")
                .index() as u32
        }
    }
}

/// Applies the accumulated generation bumps. Claims stamped before this
/// touch become stale exactly as they would under per-line bumping; the
/// absolute generation values differ but only equality is ever tested.
#[inline]
fn apply_bumps(summaries: &mut SummaryCache, bumps: &[(u32, u32)]) {
    for &(rid, mask) in bumps {
        summaries.bump(rid, mask);
    }
}

/// Mask of CPUs `0..ncpus`.
#[inline]
fn all_cpus_mask(ncpus: usize) -> u32 {
    u32::MAX >> (32 - ncpus)
}

/// Drops `victim`, just evicted from CPU `me`'s inclusive LLC, from the
/// CPU's inner levels and from the directory's view of the CPU (releasing
/// its leaf when that was the leaf's last cached line), and notes the bump
/// of the CPU's view of `victim`'s region. A walk records its filled
/// line's residency before it evicts the fill's victim: with leaves
/// larger than the LLC's set count the two can share a leaf, which the
/// line's still-default entry would otherwise let the victim release
/// under the walk's held index.
#[inline]
fn evict_from_llc(
    caches: &mut CpuCaches,
    directory: &mut Directory,
    bumps: &mut Vec<(u32, u32)>,
    victim: u64,
    me: u8,
) {
    caches.l1.invalidate(victim);
    caches.l2.invalidate(victim);
    // The victim's sharer bit is set, so its leaf exists.
    let di = directory.index(victim);
    let vrid = directory.region_at(di);
    let e = &mut directory.entries[di];
    e.sharers &= !(1u32 << me);
    if e.owner_is(me) {
        e.clear_owner();
    }
    if e.is_default() {
        directory.retire(victim, di);
    }
    note_bump(bumps, vrid, 1u32 << me);
}

impl MemorySystem {
    /// Builds a memory system from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`MemoryConfig::validate`]; construct the
    /// config through its helpers to avoid this.
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        Self::with_summary_cache(config, SUMMARY_SETS, SUMMARY_WAYS)
    }

    /// Builds a memory system that never replays a claim: every data
    /// touch and every code fetch runs the coherent per-line walk. Its
    /// results and counters equal [`new`](Self::new)'s for any operation
    /// sequence; this is the reference the exactness property test
    /// compares the fast paths against.
    #[doc(hidden)]
    #[must_use]
    pub fn reference(config: MemoryConfig) -> Self {
        MemorySystem {
            replay: false,
            ..Self::new(config)
        }
    }

    /// Builds a memory system whose summary cache holds a single entry
    /// per CPU, so nearly every touch of a new region evicts. Simulated
    /// state is identical to [`new`](Self::new)'s under any cache
    /// capacity; this is the oracle the exactness property test compares
    /// against.
    #[doc(hidden)]
    #[must_use]
    pub fn with_single_summary_entry(config: MemoryConfig) -> Self {
        Self::with_summary_cache(config, 1, 1)
    }

    fn with_summary_cache(config: MemoryConfig, sets: usize, ways: usize) -> Self {
        config.validate().expect("invalid memory configuration");
        let line = config.line_size;
        let cpus: Vec<CpuCaches> = (0..config.cpus)
            .map(|i| CpuCaches {
                l1: Cache::with_geometry(
                    format!("cpu{i}.l1d"),
                    config.l1_size,
                    config.l1_assoc,
                    line,
                ),
                l2: Cache::with_geometry(
                    format!("cpu{i}.l2"),
                    config.l2_size,
                    config.l2_assoc,
                    line,
                ),
                llc: Cache::with_geometry(
                    format!("cpu{i}.llc"),
                    config.llc_size,
                    config.llc_assoc,
                    line,
                ),
                tc: Cache::with_geometry(
                    format!("cpu{i}.tc"),
                    config.tc_size,
                    config.tc_assoc,
                    line,
                ),
                itlb: Tlb::new(config.itlb_entries as usize),
                dtlb: Tlb::new(config.dtlb_entries as usize),
            })
            .collect();
        let tc_slots = cpus.iter().map(|c| c.tc.capacity_lines()).sum();
        MemorySystem {
            line_shift: config.line_size.trailing_zeros(),
            page_shift: config.page_size.trailing_zeros(),
            regions: RegionTable::new(config.page_size as u64),
            directory: Directory::new(config.page_size.trailing_zeros() - line.trailing_zeros()),
            tc_regions: vec![0; tc_slots],
            summaries: SummaryCache::new(cpus.len(), sets, ways),
            code_summaries: LazySlots::new(),
            dma_sharers: Vec::new(),
            remote_invals: Vec::new(),
            remote_cleans: Vec::new(),
            bump_masks: Vec::new(),
            replay: true,
            cpus,
            config,
        }
    }

    /// The configuration this system was built from.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Allocates a named region of simulated memory.
    pub fn add_region(&mut self, name: impl Into<RegionName>, bytes: u64) -> RegionId {
        let id = self.regions.add(name, bytes);
        let (base, size) = {
            let r = self.regions.get(id);
            (r.base(), r.size())
        };
        // A touch starting near the region end runs past it by up to
        // `size - 1` bytes (see `MemRegion::addr`); cover the worst case
        // so line indexing never leaves the flat structures.
        let cover = (base + 2 * size).max(self.regions.footprint());
        let lines = (cover >> self.line_shift) as usize + 1;
        let dir_pages = self.directory.pages_for(lines);
        if self.directory.top.len() < dir_pages {
            self.directory.top.resize(dir_pages, 0);
        }
        self.summaries.add_region();
        self.code_summaries
            .grow_to(self.regions.len() * self.cpus.len());
        id
    }

    /// Allocates every region in `plan` in one batched pass, returning
    /// the dense id range. Produces state identical to calling
    /// [`add_region`](Self::add_region) once per plan entry, in order —
    /// same `RegionId`s, names, bases, footprint and directory top-table
    /// length — but pays O(1) resizes instead of O(n).
    ///
    /// Layout-identity argument (property-tested in
    /// `tests/proptests.rs`):
    ///
    /// - **Ids, names and bases.** `RegionTable::add` is independent of
    ///   the surrounding bookkeeping, so pushing all table entries first
    ///   yields the same ids and bases as the interleaved sequence, and
    ///   each name resolves to the string its request carried.
    /// - **Top-table length.** The incremental path grows the directory's
    ///   top table monotonically to per-region high-water marks
    ///   (`cover_i`), so the final length is the running *maximum* over
    ///   all entries — computed here in one scan, applied in one growth.
    ///   The fill value (top entry `0`, the shared default leaf) matches
    ///   the incremental fills. Neither path creates a directory leaf.
    /// - **Per-region tables.** `code_summaries` grows by `ncpus` slots
    ///   and the summary cache's `holders` by one per region, regardless
    ///   of interleaving; one growth to the final length is equivalent.
    ///
    /// `cover_i` needs the footprint *as of* entry `i`, which for all
    /// but the last entry equals the next region's base (the table
    /// advances `next_base` to exactly the next region's base), and for
    /// the last entry is the final footprint.
    pub fn add_regions_bulk(&mut self, plan: RegionPlan) -> RegionSpan {
        let span = self.regions.add_plan(plan);
        if span.is_empty() {
            return span;
        }
        let footprint = self.regions.footprint();
        let mut max_lines = 0;
        for i in 0..span.len() {
            let r = self.regions.get(span.get(i));
            let after = if i + 1 < span.len() {
                self.regions.get(span.get(i + 1)).base()
            } else {
                footprint
            };
            let cover = (r.base() + 2 * r.size()).max(after);
            max_lines = max_lines.max((cover >> self.line_shift) as usize + 1);
        }
        // Calloc-backed growth (content-identical to the incremental
        // `resize` fills): the tail faults in only where the run later
        // writes.
        let pages = self.directory.pages_for(max_lines);
        grow_zeroed(&mut self.directory.top, pages);
        let regions = self.regions.len();
        self.summaries.cover_bulk(regions);
        self.code_summaries.grow_to(regions * self.cpus.len());
        span
    }

    /// The region directory.
    #[must_use]
    pub fn regions(&self) -> &RegionTable {
        &self.regions
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Touches `bytes` bytes of data in `region` starting at `offset`
    /// (wrapping at the region end) from `cpu`, as a read or a write.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the configured CPU count.
    pub fn data_touch(
        &mut self,
        cpu: CpuId,
        region: RegionId,
        offset: u64,
        bytes: u64,
        write: bool,
    ) -> TouchResult {
        let mut result = TouchResult::default();
        if bytes == 0 {
            return result;
        }
        let idx = cpu.index();
        assert!(idx < self.cpus.len(), "cpu {idx} out of range");
        let (start, end, region_last_line) = {
            let r = self.regions.get(region);
            let start = r.addr(offset);
            (
                start,
                start + bytes.min(r.size()),
                (r.base() + r.size() - 1) >> self.line_shift,
            )
        };
        let first = start >> self.line_shift;
        let last = (end - 1) >> self.line_shift;
        result.lines = last - first + 1;
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let lpp = self.page_shift - self.line_shift;

        // One DTLB probe per page instead of per line. The TLB shares no
        // state with the caches or the directory, so probing the pages up
        // front is indistinguishable from interleaving per-line probes.
        result.dtlb_misses = probe_pages(&mut self.cpus[idx].dtlb, first, last, lpp);

        let me_bit = 1u32 << idx;
        let me = idx as u8;
        let page_shift = self.page_shift;
        let MemorySystem {
            regions,
            cpus,
            directory,
            summaries,
            remote_invals,
            remote_cleans,
            bump_masks,
            replay,
            ..
        } = self;
        let ncpus = cpus.len();
        let rid = region.index() as u32;
        let page_region = leaf_region(regions, rid, region_last_line >> lpp, page_shift);

        // Fast path: an exact repeat of a promoted touch span of this
        // region, while nothing that could move or reclassify its lines
        // has happened. The span is fully L1-resident (pure hits), and for
        // writes it is privately owned, so coherence and the directory are
        // no-ops either way and only the L1 bookkeeping remains — applied
        // by pre-resolved storage slot, skipping the set scan.
        let found = summaries.find(idx, rid);
        if let Some(c) = found
            .filter(|_| *replay)
            .and_then(|i| summaries.entries[i].span_matching(first, last, write))
        {
            cpus[idx].l1.touch_resident_run(&c.slots, first, write);
            return result;
        }
        // Pick the claim this walk will (try to) establish and borrow its
        // slot buffer, so promotion below is scan-free. Stale claims are
        // recycled first; otherwise replacement round-robins. The choice
        // has no observable effect, so any deterministic policy is fine.
        // The entry's index stays valid to the end of the touch: bumps
        // never add or evict entries.
        let entry = found.unwrap_or_else(|| summaries.insert(idx, rid));
        let (span_idx, mut span_slots) = {
            let s = &mut summaries.entries[entry];
            let gen = s.gen;
            let i = if let Some(i) = s.spans.iter().position(|c| c.gen != gen) {
                i
            } else if s.spans.len() < SPAN_CLAIMS {
                s.spans.push(SpanClaim::default());
                s.spans.len() - 1
            } else {
                let i = s.span_cursor;
                s.span_cursor = (i + 1) % SPAN_CLAIMS;
                i
            };
            (i, std::mem::take(&mut s.spans[i].slots))
        };
        span_slots.clear();
        // The walk holds this CPU's caches borrowed for its whole length;
        // the rare coherence actions against *other* CPUs' caches are
        // recorded and applied after the loop. Deferral is exact: the
        // walk's lines are distinct and the walk only reads its own
        // hierarchy and the directory, never a remote cache or a summary —
        // so a remote invalidation or downgrade commutes with everything
        // between its original position and the end of the walk, and the
        // accumulated generation bumps ([`note_bump`]) can land after the
        // loop too. The directory updates stay in line order.
        remote_invals.clear();
        remote_cleans.clear();
        bump_masks.clear();
        let all_mask = all_cpus_mask(ncpus);
        let my = &mut cpus[idx];
        for line in first..=last {
            // Coherence: writes invalidate remote copies; reads downgrade
            // a remote modified owner. For a read, the L1 is probed first:
            // a resident line's directory owner can only be this CPU or
            // nobody (a remote write would have invalidated the copy), so
            // read coherence on an L1 hit is a no-op and the directory — a
            // large flat array — need not be touched at all. The remote
            // downgrade and the local fill operate on disjoint state, so
            // probing before the downgrade is indistinguishable from the
            // coherence-first order.
            match kind {
                AccessKind::Write => {
                    let di = directory.index_mut(line, page_region);
                    directory.revive(di);
                    let entry = &mut directory.entries[di];
                    let old = entry.sharers;
                    let others = old & !me_bit;
                    entry.sharers = old & me_bit;
                    entry.set_owner(me);
                    if others != 0 {
                        note_bump(bump_masks, directory.region_at(di), others);
                        remote_invals.push((line, others));
                    }
                    if old & me_bit != 0 {
                        // The sharer bit says the line is in this CPU's
                        // LLC; the inner levels may still miss, but the
                        // LLC cannot, so the walk never reaches the
                        // fill-and-record tail — and the refill changes no
                        // directory state (bit already set, owner already
                        // this CPU), so no generation moves either.
                        let l1 = my.l1.access(line, kind);
                        span_slots.push(l1.slot);
                        if l1.hit {
                            continue;
                        }
                        result.l1_misses += 1;
                        if let Some(victim) = l1.evicted {
                            note_bump(bump_masks, directory.region_of(victim), me_bit);
                        }
                        if my.l2.access(line, kind).hit {
                            continue;
                        }
                        result.l2_misses += 1;
                        let llc = my.llc.access(line, kind);
                        debug_assert!(
                            llc.hit && llc.evicted.is_none(),
                            "shared line {line} must be LLC-resident"
                        );
                    } else {
                        // Clear bit ⇒ in none of this CPU's levels (sharer
                        // bit ⟺ LLC residency, LLC inclusive): straight
                        // fills, no doomed hit scans at any level.
                        result.l1_misses += 1;
                        result.l2_misses += 1;
                        result.llc_misses += 1;
                        let l1 = my.l1.fill_absent(line, kind);
                        span_slots.push(l1.slot);
                        if let Some(victim) = l1.evicted {
                            note_bump(bump_masks, directory.region_of(victim), me_bit);
                        }
                        let _ = my.l2.fill_absent(line, kind);
                        let llc = my.llc.fill_absent(line, kind);
                        // Record residency: the narrow above left the set
                        // empty, so it becomes exactly `{me}`. The sharer
                        // set grows, so every CPU's view of this line's
                        // region may change.
                        directory.entries[di].sharers = me_bit;
                        note_bump(bump_masks, directory.region_at(di), all_mask);
                        if let Some(victim) = llc.evicted {
                            evict_from_llc(my, directory, bump_masks, victim, me);
                        }
                    }
                }
                AccessKind::Read => {
                    let l1 = my.l1.access(line, kind);
                    span_slots.push(l1.slot);
                    if l1.hit {
                        continue;
                    }
                    result.l1_misses += 1;
                    if let Some(victim) = l1.evicted {
                        note_bump(bump_masks, directory.region_of(victim), me_bit);
                    }
                    let di = directory.index_mut(line, page_region);
                    if directory.entries[di].sharers & me_bit != 0 {
                        // In this CPU's LLC, so its owner can only be this
                        // CPU or nobody (a remote write would have cleared
                        // the bit): no downgrade, and the LLC cannot miss.
                        // The refill changes no directory state, so no
                        // generation moves.
                        if my.l2.access(line, kind).hit {
                            continue;
                        }
                        result.l2_misses += 1;
                        let llc = my.llc.access(line, kind);
                        debug_assert!(
                            llc.hit && llc.evicted.is_none(),
                            "shared line {line} must be LLC-resident"
                        );
                        continue;
                    }
                    let line_rid = directory.region_at(di);
                    let entry = &mut directory.entries[di];
                    if let Some(owner) = entry.owner() {
                        if owner as usize != idx {
                            // Remote modified copy: force writeback, keep
                            // shared. The sharer set is untouched.
                            entry.clear_owner();
                            note_bump(bump_masks, line_rid, 1u32 << owner);
                            remote_cleans.push((line, owner));
                        }
                    }
                    // Clear bit ⇒ absent from every level: straight fills
                    // (see the write path).
                    result.l2_misses += 1;
                    result.llc_misses += 1;
                    let _ = my.l2.fill_absent(line, kind);
                    let llc = my.llc.fill_absent(line, kind);
                    // Record residency, then evict (see `evict_from_llc`).
                    directory.revive(di);
                    directory.entries[di].sharers |= me_bit;
                    note_bump(bump_masks, line_rid, all_mask);
                    if let Some(victim) = llc.evicted {
                        evict_from_llc(my, directory, bump_masks, victim, me);
                    }
                }
            }
        }
        // Apply the deferred remote-cache coherence actions (see above).
        for &(line, others) in remote_invals.iter() {
            let mut m = others;
            while m != 0 {
                let other = m.trailing_zeros() as usize;
                let c = &mut cpus[other];
                c.l1.invalidate(line);
                c.l2.invalidate(line);
                c.llc.invalidate(line);
                m &= m - 1;
            }
        }
        for &(line, owner) in remote_cleans.iter() {
            let c = &mut cpus[owner as usize];
            c.l1.clean(line);
            c.l2.clean(line);
            c.llc.clean(line);
        }
        apply_bumps(summaries, bump_masks);

        // Span promotion: the walk leaves the whole span L1-resident at
        // the recorded slots when it was all hits (hits cannot evict) or
        // when the span fits in distinct L1 sets — consecutive lines,
        // span <= sets — so no fill in this touch can displace an earlier
        // span line. A write walk additionally leaves every span line
        // with sharer set exactly `{cpu}` (it narrows each line to this
        // CPU and records it), making a repeat write coherence-free too.
        // Touches that run past the region end are not claimable: their
        // trailing lines belong to other regions, whose events bump other
        // summaries. The generation is stamped after the walk, absorbing
        // bumps the walk's own victims caused; unclaimable spans leave
        // their claim withdrawn.
        let s = &mut summaries.entries[entry];
        let gen_now = s.gen;
        let c = &mut s.spans[span_idx];
        c.first = first;
        c.last = last;
        c.owned = write;
        c.slots = span_slots;
        c.gen = if last <= region_last_line
            && (result.l1_misses == 0 || result.lines <= cpus[idx].l1.sets() as u64)
        {
            gen_now
        } else {
            gen_now.wrapping_sub(1)
        };
        result
    }

    /// Fetches `bytes` of code footprint from `region` at `offset` on
    /// `cpu`, through the trace cache.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn code_fetch(
        &mut self,
        cpu: CpuId,
        region: RegionId,
        offset: u64,
        bytes: u64,
    ) -> FetchResult {
        let mut result = FetchResult::default();
        if bytes == 0 {
            return result;
        }
        let idx = cpu.index();
        assert!(idx < self.cpus.len(), "cpu {idx} out of range");
        let (start, end, region_last_line) = {
            let r = self.regions.get(region);
            let start = r.addr(offset);
            (
                start,
                start + bytes.min(r.size()),
                (r.base() + r.size() - 1) >> self.line_shift,
            )
        };
        let first = start >> self.line_shift;
        let last = (end - 1) >> self.line_shift;
        result.lines = last - first + 1;
        let lpp = self.page_shift - self.line_shift;
        result.itlb_misses = probe_pages(&mut self.cpus[idx].itlb, first, last, lpp);
        let me_bit = 1u32 << idx;
        let me = idx as u8;
        let page_shift = self.page_shift;
        let MemorySystem {
            regions,
            cpus,
            directory,
            tc_regions,
            summaries,
            code_summaries,
            bump_masks,
            replay,
            ..
        } = self;
        let ncpus = cpus.len();
        let page_region = leaf_region(
            regions,
            region.index() as u32,
            region_last_line >> lpp,
            page_shift,
        );
        let tc_slots = cpus[idx].tc.capacity_lines();
        let tc_regions = &mut tc_regions[idx * tc_slots..][..tc_slots];
        // Flat (region, cpu) offset into `code_summaries`.
        let si = region.index() * ncpus + idx;

        // Fast path: the last verified fetch covered exactly this span
        // with every line in the trace cache. An all-hit fetch touches
        // neither the directory nor the outer levels, so only the TC's
        // LRU/hit bookkeeping remains — applied by slot.
        let cs = code_summaries.get(si);
        if *replay && cs.covers(first, last) {
            cpus[idx].tc.touch_resident_run(&cs.slots, first, false);
            return result;
        }

        let caches = &mut cpus[idx];
        // Reuse the summary's slot buffer to record where each span line
        // lands, so promotion below costs no extra residency scan. The
        // summary's old claim dies with its slots (see the walk's end).
        let mut slot_buf = std::mem::take(&mut code_summaries.get_mut(si).slots);
        slot_buf.clear();
        bump_masks.clear();
        let all_mask = all_cpus_mask(ncpus);
        for line in first..=last {
            let tc = caches.tc.access(line, AccessKind::Read);
            slot_buf.push(tc.slot);
            if tc.hit {
                continue;
            }
            result.tc_misses += 1;
            // The fill may displace another region's code; its span claim
            // dies with the victim. The slot's region is the victim's
            // until the line's own is recorded below.
            let ts = tc.slot as usize;
            if tc.evicted.is_some() {
                code_summaries
                    .get_mut(tc_regions[ts] as usize * ncpus + idx)
                    .bump();
            }
            // A clear bit means the line is filled and recorded below, so
            // its leaf is needed either way.
            let di = directory.index_mut(line, page_region);
            tc_regions[ts] = directory.region_at(di);
            if directory.entries[di].sharers & me_bit != 0 {
                // In this CPU's LLC (sharer bit ⟺ LLC residency): the L2
                // may miss but the LLC cannot, and the refill changes no
                // directory state, so no generation moves.
                if caches.l2.access(line, AccessKind::Read).hit {
                    continue;
                }
                result.l2_misses += 1;
                let llc = caches.llc.access(line, AccessKind::Read);
                debug_assert!(
                    llc.hit && llc.evicted.is_none(),
                    "shared code line {line} must be LLC-resident"
                );
                continue;
            }
            // Clear bit ⇒ absent from L2 and LLC (the trace cache is
            // exempt from inclusion, but it was probed above): straight
            // fills, no doomed hit scans.
            result.l2_misses += 1;
            result.llc_misses += 1;
            let _ = caches.l2.fill_absent(line, AccessKind::Read);
            let llc = caches.llc.fill_absent(line, AccessKind::Read);
            // Record residency, then evict (see `evict_from_llc`).
            directory.revive(di);
            directory.entries[di].sharers |= me_bit;
            note_bump(bump_masks, directory.region_at(di), all_mask);
            if let Some(victim) = llc.evicted {
                evict_from_llc(caches, directory, bump_masks, victim, me);
            }
        }
        apply_bumps(summaries, bump_masks);

        // Promotion: the walk leaves every span line resident at its
        // recorded slot when either (a) the fetch was all hits (hits
        // cannot evict), or (b) the span fits in distinct trace-cache
        // sets — consecutive lines, span <= sets — so no fill in this
        // fetch can displace an earlier span line, and a resident line
        // keeps its slot (nothing else touches the TC). The generation is
        // stamped *after* the walk, absorbing any bumps the walk's own
        // victims caused. Larger missy spans self-conflict mid-fetch;
        // their slots are stale, so the claim is explicitly withdrawn
        // (the buffer was stolen from the summary above). As for data
        // touches, a fetch that runs past the region's end is not
        // claimable: a TC victim bumps the region holding its line.
        let cs = code_summaries.get_mut(si);
        cs.span_first = first;
        cs.span_last = last;
        cs.slots = slot_buf;
        cs.verified_gen = if last <= region_last_line
            && (result.tc_misses == 0 || result.lines <= caches.tc.sets() as u64)
        {
            cs.change_gen
        } else {
            cs.change_gen.wrapping_sub(1)
        };
        result
    }

    /// Device DMA write into memory (packet arrival): invalidates the
    /// touched lines in *every* CPU's caches, so the next CPU read is an
    /// LLC miss — receive payload is always uncached.
    pub fn dma_write(&mut self, region: RegionId, offset: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let (start, end) = {
            let r = self.regions.get(region);
            (r.addr(offset), r.addr(offset) + bytes.min(r.size()))
        };
        let first = self.line_of(start);
        let last = self.line_of(end.saturating_sub(1));
        let MemorySystem {
            cpus,
            directory,
            summaries,
            dma_sharers,
            bump_masks,
            ..
        } = self;
        // Two-pass directory delta. Pass 1 reads each line's directory
        // entry once: the sharer mask says exactly which LLCs hold the
        // line (bit ⟺ LLC residency; inclusion bounds the inner levels),
        // so CPUs outside the mask need no cache probe — on them
        // `invalidate` would miss and count nothing — and no generation
        // bump, because any summary claim of theirs involving the line
        // was already false (and its gen already bumped) when the line
        // left their caches. A zero mask also means the entry is already
        // default (an owner is always a sharer), so the reset is skipped
        // too. Generation bumps accumulate per region and land once after
        // the pass, which invalidates the same claims as per-line bumps
        // (only stamp equality is ever tested).
        dma_sharers.clear();
        bump_masks.clear();
        let mut union_mask = 0u32;
        for line in first..=last {
            // A non-zero mask means the entry is not in the shared
            // default leaf, so resetting it through `index` is safe.
            let di = directory.index(line);
            let mask = directory.entries[di].sharers;
            dma_sharers.push(mask);
            if mask != 0 {
                union_mask |= mask;
                note_bump(bump_masks, directory.region_at(di), mask);
                directory.retire(line, di);
            }
        }
        apply_bumps(summaries, bump_masks);
        // Pass 2 applies the delta one CPU at a time, so each CPU's cache
        // arrays are walked in one contiguous burst. Invalidations of
        // distinct lines in distinct caches commute, so the per-CPU order
        // is indistinguishable from the old per-line sweep.
        let mut m = union_mask;
        while m != 0 {
            let cpu = m.trailing_zeros() as usize;
            let bit = 1u32 << cpu;
            let c = &mut cpus[cpu];
            for (i, &mask) in dma_sharers.iter().enumerate() {
                if mask & bit != 0 {
                    let line = first + i as u64;
                    c.l1.invalidate(line);
                    c.l2.invalidate(line);
                    c.llc.invalidate(line);
                }
            }
            m &= m - 1;
        }
    }

    /// Device DMA read from memory (packet transmit): forces writeback of
    /// any modified copy but leaves lines cached.
    ///
    /// Takes the directory owner but bumps no generation: nothing a span
    /// claim asserts can be falsified here. A claim's residency is about
    /// L1 contents, which a writeback leaves in place, and its write
    /// exclusivity (`SpanClaim::owned`) is defined over the *sharer set*
    /// only, which is untouched. That makes the owner field unobservable
    /// outside the directory itself — its only readers are the
    /// remote-read downgrade and this writeback, and both are no-ops
    /// whenever the owner is the accessing CPU or nobody — which in turn
    /// is what lets a replayed write skip re-asserting `owner = cpu`. The
    /// per-transmit generation churn this used to cause is what kept
    /// small-message TX off the span fast path entirely.
    pub fn dma_read(&mut self, region: RegionId, offset: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let (start, end) = {
            let r = self.regions.get(region);
            (r.addr(offset), r.addr(offset) + bytes.min(r.size()))
        };
        let first = self.line_of(start);
        let last = self.line_of(end.saturating_sub(1));
        let MemorySystem {
            cpus, directory, ..
        } = self;
        for line in first..=last {
            // An owner means the entry is not in the shared default leaf.
            let di = directory.index(line);
            if let Some(owner) = directory.entries[di].owner() {
                directory.entries[di].clear_owner();
                let c = &mut cpus[owner as usize];
                c.l1.clean(line);
                c.l2.clean(line);
                c.llc.clean(line);
            }
        }
    }

    /// Flushes a CPU's TLBs (address-space switch on context switch).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn flush_tlbs(&mut self, cpu: CpuId) {
        let c = &mut self.cpus[cpu.index()];
        c.itlb.flush();
        c.dtlb.flush();
    }

    /// LLC statistics for `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn llc_stats(&self, cpu: CpuId) -> CacheStats {
        self.cpus[cpu.index()].llc.stats()
    }

    /// L1 data-cache statistics for `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn l1_stats(&self, cpu: CpuId) -> CacheStats {
        self.cpus[cpu.index()].l1.stats()
    }

    /// L2 statistics for `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn l2_stats(&self, cpu: CpuId) -> CacheStats {
        self.cpus[cpu.index()].l2.stats()
    }

    /// Trace-cache statistics for `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn tc_stats(&self, cpu: CpuId) -> CacheStats {
        self.cpus[cpu.index()].tc.stats()
    }

    /// ITLB/DTLB statistics for `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn tlb_stats(&self, cpu: CpuId) -> (TlbStats, TlbStats) {
        let c = &self.cpus[cpu.index()];
        (c.itlb.stats(), c.dtlb.stats())
    }

    /// Whether `cpu`'s LLC holds `line`. Testing hook for the directory
    /// model of the property tests; not part of the public API.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[doc(hidden)]
    #[must_use]
    pub fn llc_holds(&self, cpu: CpuId, line: u64) -> bool {
        self.cpus[cpu.index()].llc.contains(line)
    }

    /// Cross-checks the incremental coherence-directory state against a
    /// naive full recompute, panicking on any divergence. Testing hook
    /// for the model-based property tests; not part of the public API.
    ///
    /// Verifies the invariants the hot paths rely on:
    ///
    /// 1. a line's sharer bit for a CPU is set **iff** the line is
    ///    resident in that CPU's LLC, and inclusion bounds L1/L2 by the
    ///    LLC (what lets walks turn a clear bit into scan-free fills and
    ///    a set bit into a guaranteed LLC hit);
    /// 2. the directory's shared leaf, which every absent leaf reads as,
    ///    is still all default entries;
    /// 3. every leaf's live count equals its non-default entries, every
    ///    leaf a top entry numbers has a count of at least 1 (and is
    ///    numbered once), and every free leaf is all default and numbered
    ///    by no top entry — so the directory holds only leaves with a
    ///    cached line;
    /// 4. the summary cache's per-region holder masks match its tags;
    /// 5. every numbered leaf, and every valid trace-cache slot, names the
    ///    region holding its page or line ([`RegionTable::region_of`]):
    ///    the region a bump of one of its lines reaches.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    #[doc(hidden)]
    pub fn verify_incremental_state(&self) {
        let d = &self.directory;
        assert!(
            d.entries[..d.leaf_lines()]
                .iter()
                .all(|e| *e == DirEntry::default()),
            "the shared default directory leaf was written"
        );
        self.verify_directory_leaves();
        self.summaries.verify();
        let region_of = |line: u64| {
            self.regions
                .region_of(line << self.line_shift)
                .map(|id| id.index() as u32)
        };
        for (page, &leaf) in d.top.iter().enumerate().filter(|(_, &l)| l != 0) {
            let want = region_of((page as u64) << d.shift);
            assert_eq!(
                Some(d.region[leaf as usize]),
                want,
                "leaf {leaf} of page {page} names the wrong region"
            );
        }
        for (cpu, c) in self.cpus.iter().enumerate() {
            let slots = c.tc.capacity_lines();
            for slot in 0..slots {
                if let Some(line) = c.tc.line_at(slot) {
                    assert_eq!(
                        Some(self.tc_regions[cpu * slots + slot]),
                        region_of(line),
                        "trace-cache slot {slot} of cpu {cpu} (line {line}) names the wrong region"
                    );
                }
            }
        }
        for (id, r) in self.regions.iter() {
            let first = self.line_of(r.base());
            let last = self.line_of(r.base() + r.size() - 1);
            for line in first..=last {
                let e = self.directory.get(line);
                for (cpu, c) in self.cpus.iter().enumerate() {
                    let bit = e.sharers & (1u32 << cpu) != 0;
                    let in_llc = c.llc.contains(line);
                    assert_eq!(
                        bit,
                        in_llc,
                        "line {line} of {}: sharer bit {bit} but LLC residency {in_llc} on cpu {cpu}",
                        self.regions.name(id)
                    );
                    if !in_llc {
                        assert!(
                            !c.l1.contains(line) && !c.l2.contains(line),
                            "line {line} of {}: inner level holds a line outside the LLC on cpu {cpu}",
                            self.regions.name(id)
                        );
                    }
                }
            }
        }
    }

    /// Invariant 3 of [`verify_incremental_state`](Self::verify_incremental_state).
    fn verify_directory_leaves(&self) {
        let d = &self.directory;
        let leaves = d.arena_leaves();
        assert_eq!(d.entries.len(), leaves * d.leaf_lines());
        assert_eq!(d.region.len(), leaves);
        assert_eq!(d.live[0], 0, "the shared default leaf has a live count");
        for (k, leaf) in d.entries.chunks(d.leaf_lines()).enumerate() {
            let live = leaf.iter().filter(|e| !e.is_default()).count();
            assert_eq!(d.live[k] as usize, live, "leaf {k}: live count off");
        }
        // Leaf 0 is numbered by every absent page; each other leaf must
        // be numbered by exactly one page or be free, not both.
        let mut seen = vec![false; leaves];
        seen[0] = true;
        for (page, &leaf) in d.top.iter().enumerate().filter(|(_, &l)| l != 0) {
            let leaf = leaf as usize;
            assert!(
                !seen[leaf],
                "page {page} numbers leaf {leaf}, numbered before"
            );
            assert!(
                d.live[leaf] >= 1,
                "page {page} numbers leaf {leaf} with no live entry"
            );
            seen[leaf] = true;
        }
        for &leaf in &d.free {
            let leaf = leaf as usize;
            assert!(!seen[leaf], "free leaf {leaf} is numbered or listed twice");
            assert_eq!(d.live[leaf], 0, "free leaf {leaf} is not all default");
            seen[leaf] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "a leaf is neither numbered nor free"
        );
    }

    /// Snapshot of the construction-time layout: directory shape and the
    /// per-region table lengths. Two systems built by different provisioning paths
    /// (incremental `add_region` loop vs `add_regions_bulk`) must compare
    /// equal here — the equivalence the bulk path's property test pins.
    #[must_use]
    pub fn construction_layout(&self) -> ConstructionLayout {
        ConstructionLayout {
            directory_pages: self.directory.top.len(),
            directory_leaves: self.directory.arena_leaves(),
            summary_regions: self.summaries.holders.len(),
            code_summary_slots: self.code_summaries.len(),
        }
    }

    /// Resident bytes per table, and the counts that drive them.
    ///
    /// Tables that grow with what a run reaches count what they hold:
    /// the directory's leaf arena and its per-leaf region ids, the summary
    /// cache's entries and buffers, the code summaries' materialized
    /// chunks. The arena keeps its released leaves for reuse, so it counts
    /// live and free leaves apart; every arena leaf was written when it
    /// was created, so its bytes are resident. The directory's top table
    /// is calloc-backed and counts the 4 KiB pages that number a live leaf
    /// now: a lower bound, since a page whose leaves were all released
    /// reads zero again but stays resident. The trace-cache slot regions
    /// are fixed by the geometry. Two tables are sized by what a machine
    /// provisions, one entry per region: the region records (written at
    /// construction) and the summary cache's holder masks (calloc-backed,
    /// counted at full length, an upper bound that a run reaching every
    /// region attains).
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        let d = &self.directory;
        Footprint {
            directory_leaves: d.live_leaves(),
            directory_free_leaves: d.free.len(),
            summary_entries: self.summaries.len(),
            directory_top_bytes: written_bytes(&d.top),
            directory_leaf_bytes: size_of_val(d.entries.as_slice())
                + size_of_val(d.live.as_slice())
                + size_of_val(d.free.as_slice()),
            leaf_region_bytes: size_of_val(d.region.as_slice()),
            tc_region_bytes: size_of_val(self.tc_regions.as_slice()),
            summary_cache_bytes: self.summaries.bytes(),
            holder_bytes: size_of_val(self.summaries.holders.as_slice()),
            code_summary_bytes: self.code_summaries.bytes(CodeSummary::heap_bytes),
            region_bytes: self.regions.bytes(),
        }
    }

    /// Resets every hit/miss counter, keeping cache contents (used to
    /// discard warm-up before measurement, as the paper's steady-state
    /// profiling does).
    pub fn reset_stats(&mut self) {
        for c in &mut self.cpus {
            c.l1.reset_stats();
            c.l2.reset_stats();
            c.llc.reset_stats();
            c.tc.reset_stats();
            c.itlb.reset_stats();
            c.dtlb.reset_stats();
        }
    }
}

/// Construction-layout snapshot returned by
/// [`MemorySystem::construction_layout`]; see there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstructionLayout {
    /// Directory top-table length (leaf-sized pages of lines covered).
    pub directory_pages: usize,
    /// Directory arena leaves (live, free and the shared default leaf).
    pub directory_leaves: usize,
    /// Regions the data summary cache's holder masks cover.
    pub summary_regions: usize,
    /// `code_summaries` slot count (`regions × ncpus`).
    pub code_summary_slots: usize,
}

/// Per-table memory of a [`MemorySystem`], returned by
/// [`MemorySystem::footprint`]; see there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Directory leaves a top entry numbers: the leaves holding a line
    /// some CPU's LLC holds (the shared default leaf not counted).
    pub directory_leaves: usize,
    /// Released directory leaves kept in the arena for reuse.
    pub directory_free_leaves: usize,
    /// Summary-cache entries in use.
    pub summary_entries: usize,
    /// Pages of the directory's top table that number a live leaf (a
    /// lower bound on the table's resident bytes).
    pub directory_top_bytes: usize,
    /// The directory's leaf arena (live, free and shared leaves) with its
    /// per-leaf live counts and free list.
    pub directory_leaf_bytes: usize,
    /// The region id of each arena leaf.
    pub leaf_region_bytes: usize,
    /// The region id of each CPU's trace-cache slots.
    pub tc_region_bytes: usize,
    /// The summary cache's fixed arrays and entry buffers.
    pub summary_cache_bytes: usize,
    /// The summary cache's per-region holder masks (full length).
    pub holder_bytes: usize,
    /// Materialized code-summary chunks, their slot buffers and the chunk
    /// table.
    pub code_summary_bytes: usize,
    /// The region table: one [`MemRegion`](crate::MemRegion) record per
    /// region and the side table of names that are not interned.
    pub region_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemoryConfig::tiny(2))
    }

    const CPU0: CpuId = CpuId::new(0);
    const CPU1: CpuId = CpuId::new(1);
    /// Lines per directory leaf (one 4 KiB page of 64-byte lines).
    const LEAF_LINES: usize = 64;

    #[test]
    fn cold_then_warm() {
        let mut m = sys();
        let r = m.add_region("ctx", 256);
        let cold = m.data_touch(CPU0, r, 0, 256, false);
        assert_eq!(cold.lines, 4);
        assert_eq!(cold.llc_misses, 4);
        let warm = m.data_touch(CPU0, r, 0, 256, false);
        assert_eq!(warm.llc_misses, 0);
        assert_eq!(warm.l1_misses, 0);
    }

    #[test]
    fn remote_write_invalidates() {
        let mut m = sys();
        let r = m.add_region("ctx", 128);
        m.data_touch(CPU0, r, 0, 128, false);
        assert_eq!(m.data_touch(CPU0, r, 0, 128, false).llc_misses, 0);
        // CPU1 writes the same lines: CPU0's copies must die.
        m.data_touch(CPU1, r, 0, 128, true);
        let again = m.data_touch(CPU0, r, 0, 128, false);
        assert_eq!(again.llc_misses, 2, "remote write should invalidate");
    }

    #[test]
    fn remote_read_of_modified_downgrades_but_keeps_owner_copy() {
        let mut m = sys();
        let r = m.add_region("ctx", 64);
        m.data_touch(CPU0, r, 0, 64, true); // CPU0 holds modified
        let c1 = m.data_touch(CPU1, r, 0, 64, false);
        assert_eq!(c1.llc_misses, 1); // CPU1's own hierarchy is cold
                                      // CPU0 still has the line (now clean): no miss.
        let c0 = m.data_touch(CPU0, r, 0, 64, false);
        assert_eq!(c0.llc_misses, 0);
    }

    #[test]
    fn dma_write_uncaches_everywhere() {
        let mut m = sys();
        let r = m.add_region("payload", 128);
        m.data_touch(CPU0, r, 0, 128, false);
        m.data_touch(CPU1, r, 0, 128, false);
        m.dma_write(r, 0, 128);
        assert_eq!(m.data_touch(CPU0, r, 0, 128, false).llc_misses, 2);
        assert_eq!(m.data_touch(CPU1, r, 0, 128, false).llc_misses, 2);
    }

    #[test]
    fn dma_read_cleans_but_keeps_cached() {
        let mut m = sys();
        let r = m.add_region("txbuf", 64);
        m.data_touch(CPU0, r, 0, 64, true);
        m.dma_read(r, 0, 64);
        // Still cached on CPU0.
        assert_eq!(m.data_touch(CPU0, r, 0, 64, false).llc_misses, 0);
    }

    #[test]
    fn code_fetch_tc_behaviour() {
        let mut m = sys();
        let code = m.add_region("tcp_sendmsg.text", 256);
        let cold = m.code_fetch(CPU0, code, 0, 256);
        assert_eq!(cold.lines, 4);
        assert_eq!(cold.tc_misses, 4);
        let warm = m.code_fetch(CPU0, code, 0, 256);
        assert_eq!(warm.tc_misses, 0);
        // Other CPU has its own trace cache.
        let other = m.code_fetch(CPU1, code, 0, 256);
        assert_eq!(other.tc_misses, 4);
    }

    #[test]
    fn tc_capacity_evictions() {
        let mut m = sys(); // tiny tc: 512B = 8 lines
        let big = m.add_region("big.text", 2048);
        m.code_fetch(CPU0, big, 0, 2048);
        let again = m.code_fetch(CPU0, big, 0, 2048);
        assert!(again.tc_misses > 0, "code bigger than TC must keep missing");
    }

    #[test]
    fn dtlb_misses_on_new_pages() {
        let mut m = sys();
        // tiny config: 4 dtlb entries; touch 6 pages.
        let r = m.add_region("big", 6 * 4096);
        let res = m.data_touch(CPU0, r, 0, 6 * 4096, false);
        assert!(res.dtlb_misses >= 6);
        let again = m.data_touch(CPU0, r, 0, 6 * 4096, false);
        // Working set exceeds DTLB: keeps missing.
        assert!(again.dtlb_misses > 0);
    }

    #[test]
    fn tlb_flush_forces_walks() {
        let mut m = sys();
        let r = m.add_region("x", 64);
        m.data_touch(CPU0, r, 0, 64, false);
        assert_eq!(m.data_touch(CPU0, r, 0, 64, false).dtlb_misses, 0);
        m.flush_tlbs(CPU0);
        assert_eq!(m.data_touch(CPU0, r, 0, 64, false).dtlb_misses, 1);
    }

    #[test]
    fn dma_write_over_a_touched_region_releases_its_leaves() {
        let mut m = sys();
        let bytes = (4 * LEAF_LINES * 64) as u64;
        let r = m.add_region("payload", bytes);
        // One page, so the region's lines stay within the LLC's reach.
        m.data_touch(CPU0, r, 0, 512, true);
        m.data_touch(CPU1, r, 2 * LEAF_LINES as u64 * 64, 512, false);
        assert_eq!(m.footprint().directory_leaves, 2);
        m.dma_write(r, 0, bytes);
        let f = m.footprint();
        assert_eq!(f.directory_leaves, 0);
        assert_eq!(f.directory_free_leaves, 2);
        assert_eq!(f.directory_top_bytes, 0);
        m.verify_incremental_state();
    }

    #[test]
    fn released_leaves_are_reused_before_the_arena_grows() {
        let mut m = sys();
        let bytes = (2 * LEAF_LINES * 64) as u64;
        let (a, b) = (m.add_region("a", bytes), m.add_region("b", bytes));
        m.data_touch(CPU0, a, 0, 256, true);
        m.data_touch(CPU0, a, LEAF_LINES as u64 * 64, 256, true);
        let arena = m.construction_layout().directory_leaves;
        m.dma_write(a, 0, bytes);
        m.data_touch(CPU1, b, 0, 256, false);
        m.data_touch(CPU1, b, LEAF_LINES as u64 * 64, 256, false);
        let f = m.footprint();
        assert_eq!(f.directory_leaves, 2);
        assert_eq!(f.directory_free_leaves, 0);
        assert_eq!(m.construction_layout().directory_leaves, arena);
        m.verify_incremental_state();
    }

    #[test]
    fn streaming_past_the_llc_keeps_only_the_leaves_it_holds() {
        let mut m = sys();
        let llc_lines = m.config().llc_size as usize / 64;
        // Sixteen LLCs' worth of lines, streamed once by each CPU.
        let bytes = (16 * llc_lines * 64) as u64;
        let r = m.add_region("stream", bytes);
        m.data_touch(CPU0, r, 0, bytes, false);
        m.data_touch(CPU1, r, 0, bytes, true);
        // Each LLC holds its last `llc_lines` consecutive lines, which
        // span at most one leaf more than they fill.
        let need = 2 * (llc_lines.div_ceil(LEAF_LINES) + 1);
        let f = m.footprint();
        assert!(f.directory_leaves <= need, "{f:?}");
        assert!(f.directory_leaves + f.directory_free_leaves < 16 * llc_lines / LEAF_LINES);
        m.verify_incremental_state();
    }

    #[test]
    fn llc_capacity_eviction_and_inclusion() {
        let mut m = sys(); // llc: 4096B = 64 lines
        let big = m.add_region("big", 16 * 1024);
        m.data_touch(CPU0, big, 0, 16 * 1024, false);
        let again = m.data_touch(CPU0, big, 0, 16 * 1024, false);
        assert!(
            again.llc_misses > 0,
            "working set 4x LLC must thrash: {again:?}"
        );
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut m = sys();
        let r = m.add_region("x", 256);
        m.data_touch(CPU0, r, 0, 256, false);
        assert!(m.llc_stats(CPU0).misses > 0);
        let (_, d) = m.tlb_stats(CPU0);
        assert!(d.misses > 0);
        m.reset_stats();
        assert_eq!(m.llc_stats(CPU0).misses, 0);
        // Contents preserved: warm access.
        assert_eq!(m.data_touch(CPU0, r, 0, 256, false).llc_misses, 0);
    }

    #[test]
    fn zero_byte_touch_is_noop() {
        let mut m = sys();
        let r = m.add_region("x", 64);
        assert_eq!(m.data_touch(CPU0, r, 0, 0, false), TouchResult::default());
        assert_eq!(m.code_fetch(CPU0, r, 0, 0), FetchResult::default());
    }

    #[test]
    fn merge_results() {
        let mut a = TouchResult {
            lines: 1,
            l1_misses: 1,
            l2_misses: 1,
            llc_misses: 1,
            dtlb_misses: 0,
        };
        a.merge(&a.clone());
        assert_eq!(a.lines, 2);
        assert_eq!(a.llc_misses, 2);
        let mut f = FetchResult {
            lines: 2,
            tc_misses: 1,
            l2_misses: 0,
            llc_misses: 0,
            itlb_misses: 1,
        };
        f.merge(&f.clone());
        assert_eq!(f.tc_misses, 2);
    }

    // --- residency fast-path behaviour ---

    /// Drives a region until its span claim is current (two touches: the
    /// first warms, the second is all hits and claims the span, so the
    /// next identical touch replays it).
    fn warm(m: &mut MemorySystem, cpu: CpuId, r: RegionId, bytes: u64, write: bool) {
        m.data_touch(cpu, r, 0, bytes, write);
        let second = m.data_touch(cpu, r, 0, bytes, write);
        assert_eq!(second.l1_misses, 0, "warm touch should be all hits");
    }

    #[test]
    fn fast_path_keeps_counters_and_tlb_stats_exact() {
        let mut m = sys();
        let r = m.add_region("ctx", 256); // 4 lines, 1 page
        warm(&mut m, CPU0, r, 256, false);
        let (_, before) = m.tlb_stats(CPU0);
        let hits_before = m.cpus[0].l1.stats().hits;
        let fast = m.data_touch(CPU0, r, 0, 256, false);
        assert_eq!(
            fast,
            TouchResult {
                lines: 4,
                ..TouchResult::default()
            }
        );
        // One page, four lines: four DTLB hits, four L1 hits — identical
        // to the per-line walk.
        let (_, after) = m.tlb_stats(CPU0);
        assert_eq!(after.hits - before.hits, 4);
        assert_eq!(after.misses, before.misses);
        assert_eq!(m.cpus[0].l1.stats().hits - hits_before, 4);
    }

    #[test]
    fn remote_write_breaks_fast_path() {
        let mut m = sys();
        let r = m.add_region("ctx", 128);
        warm(&mut m, CPU0, r, 128, false);
        m.data_touch(CPU1, r, 0, 128, true);
        let again = m.data_touch(CPU0, r, 0, 128, false);
        assert_eq!(
            again.llc_misses, 2,
            "invalidation must be visible after fast path"
        );
    }

    #[test]
    fn remote_read_breaks_write_fast_path() {
        let mut m = sys();
        let r = m.add_region("ctx", 64);
        warm(&mut m, CPU0, r, 64, true); // span claimed and owned
        m.data_touch(CPU1, r, 0, 64, false); // downgrade + share
                                             // CPU0's write must go the slow path and invalidate CPU1's copy.
        let w = m.data_touch(CPU0, r, 0, 64, true);
        assert_eq!(w.l1_misses, 0);
        let c1 = m.data_touch(CPU1, r, 0, 64, false);
        assert_eq!(c1.llc_misses, 1, "CPU1's copy must have been invalidated");
    }

    #[test]
    fn eviction_breaks_fast_path() {
        let mut m = sys(); // tiny l1: 1 KB = 16 lines
        let small = m.add_region("small", 256);
        let big = m.add_region("big", 4096);
        warm(&mut m, CPU0, small, 256, false);
        // Thrash the L1 so the small region's lines get evicted.
        m.data_touch(CPU0, big, 0, 4096, false);
        let again = m.data_touch(CPU0, small, 0, 256, false);
        assert!(again.l1_misses > 0, "stale summary must not mask L1 misses");
    }

    #[test]
    fn dma_write_breaks_fast_path() {
        let mut m = sys();
        let r = m.add_region("payload", 128);
        warm(&mut m, CPU0, r, 128, false);
        m.dma_write(r, 0, 128);
        let again = m.data_touch(CPU0, r, 0, 128, false);
        assert_eq!(
            again.llc_misses, 2,
            "DMA write must uncache despite summary"
        );
    }

    #[test]
    fn dma_read_keeps_residency_fast_path() {
        let mut m = sys();
        let r = m.add_region("txbuf", 128);
        warm(&mut m, CPU0, r, 128, true);
        m.dma_read(r, 0, 128); // takes ownership away, leaves lines cached
        let again = m.data_touch(CPU0, r, 0, 128, true);
        assert_eq!(again.l1_misses, 0, "DMA read must not evict");
        // And a later read stays hot too.
        assert_eq!(m.data_touch(CPU0, r, 0, 128, false).l1_misses, 0);
    }

    #[test]
    fn wrapping_touch_past_region_end_stays_exact() {
        let mut m = sys();
        let a = m.add_region("a", 128);
        let b = m.add_region("b", 128);
        warm(&mut m, CPU0, b, 128, false);
        // Touch `a` starting at its last line with a full-size length:
        // runs past the region end into the following pages.
        let bleed = m.data_touch(CPU0, a, 64, 128, false);
        assert_eq!(bleed.lines, 2);
        // `b`'s lines were untouched; its fast path must still be exact.
        let again = m.data_touch(CPU0, b, 0, 128, false);
        assert_eq!(again.l1_misses, 0);
    }

    #[test]
    fn fast_path_never_engages_for_regions_larger_than_l1() {
        let mut m = sys(); // tiny l1: 1 KB
        let big = m.add_region("big", 2048);
        m.data_touch(CPU0, big, 0, 2048, false);
        m.data_touch(CPU0, big, 0, 2048, false);
        // Lines wrap through the L1; misses must keep being reported.
        let again = m.data_touch(CPU0, big, 0, 2048, false);
        assert!(again.l1_misses > 0);
    }

    // --- region attribution of bumps ---

    /// Fetches `bytes` of `region` at `offset` on CPU0 through `m` and
    /// through the reference, asserting equal results.
    fn fetch_both(m: &mut MemorySystem, oracle: &mut MemorySystem, r: RegionId, offset: u64) {
        let want = oracle.code_fetch(CPU0, r, offset, 64);
        assert_eq!(m.code_fetch(CPU0, r, offset, 64), want);
    }

    #[test]
    fn a_code_fetch_past_its_region_end_is_never_replayed() {
        // Tiny TC: 4 sets x 2 ways. `a`'s last line and `b`'s first are
        // one fetch of `a`; evicting `b`'s line bumps `b`, not `a`.
        let mut m = sys();
        let (a, b) = (m.add_region("a.text", 4096), m.add_region("b.text", 4096));
        let tail = m.code_fetch(CPU0, a, 4032, 128);
        assert_eq!((tail.lines, tail.tc_misses), (2, 2));
        // Two more lines of `b`'s first TC set evict its first line.
        m.code_fetch(CPU0, b, 256, 64);
        m.code_fetch(CPU0, b, 512, 64);
        assert_eq!(m.code_fetch(CPU0, a, 4032, 128).tc_misses, 1);
        m.verify_incremental_state();
    }

    #[test]
    fn a_tc_victim_whose_leaf_is_gone_still_bumps_its_region() {
        let (mut m, mut oracle) = (sys(), MemorySystem::reference(MemoryConfig::tiny(2)));
        let mut add = |name: &'static str, bytes| {
            let id = m.add_region(name, bytes);
            assert_eq!(oracle.add_region(name, bytes), id);
            id
        };
        let (a, b, stream) = (add("a.text", 64), add("b.text", 4096), add("stream", 8192));
        fetch_both(&mut m, &mut oracle, a, 0);
        fetch_both(&mut m, &mut oracle, a, 0);
        // Twice the LLC streamed through CPU0: `a`'s line leaves the LLC
        // and its page's leaf is freed; the TC keeps the line.
        m.data_touch(CPU0, stream, 0, 8192, false);
        oracle.data_touch(CPU0, stream, 0, 8192, false);
        let a_line = m.regions().get(a).base() >> 6;
        assert!(!m.llc_holds(CPU0, a_line));
        assert_eq!(m.directory.top[a_line as usize / LEAF_LINES], 0);
        // `b`'s lines of `a`'s TC set evict it: the bump must reach `a`.
        fetch_both(&mut m, &mut oracle, b, 0);
        fetch_both(&mut m, &mut oracle, b, 256);
        fetch_both(&mut m, &mut oracle, a, 0);
        m.verify_incremental_state();
    }

    #[test]
    fn a_dma_over_a_recycled_leaf_bumps_the_region_it_holds_now() {
        let mut m = sys();
        let (a, b) = (m.add_region("a", 256), m.add_region("b", 256));
        m.data_touch(CPU0, a, 0, 64, false);
        m.dma_write(a, 0, 64);
        // `b`'s page takes the leaf `a`'s page released, and `b` claims.
        warm(&mut m, CPU0, b, 64, false);
        assert_eq!(m.footprint().directory_leaves, 1);
        assert_eq!(m.construction_layout().directory_leaves, 2);
        m.dma_write(b, 0, 64);
        assert_eq!(m.data_touch(CPU0, b, 0, 64, false).llc_misses, 1);
        m.verify_incremental_state();
    }
}
