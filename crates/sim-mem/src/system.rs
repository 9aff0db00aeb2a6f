//! The coherent, multi-CPU memory system.
//!
//! [`MemorySystem`] owns one cache hierarchy per CPU (L1D → L2 → LLC for
//! data, trace cache → L2 → LLC for code, plus ITLB/DTLB) and a directory
//! of sharers that keeps the hierarchies coherent:
//!
//! * a **write** by CPU *c* invalidates the line in every other CPU's
//!   caches (they will take an LLC miss on their next access — the
//!   ping-pong the paper's no-affinity mode suffers);
//! * a **read** of a line another CPU wrote adds the reader as a sharer;
//!   the reader still misses its own hierarchy, and the writer keeps its
//!   copy;
//! * **device DMA writes** (arriving packets) invalidate everywhere, so
//!   receive payload is always uncached, exactly the paper's observation
//!   about RX copies. A device read (transmit) changes no cache.
//!
//! Nothing here models dirty data or an owner: no counter of the model
//! depends on whether a line was written back, only on which caches hold
//! it.
//!
//! The LLC is kept inclusive: evicting a line from the LLC back-invalidates
//! the inner levels, so "resident in LLC" is an upper bound for the whole
//! hierarchy, matching how the paper reasons about last-level misses.
//!
//! # Hot-path layout
//!
//! Touches dominate simulation time, so a walk does only the work some
//! counter can observe, and the structures it reads are flat:
//!
//! * The directory is paged ([`Directory`]): a flat top table indexed by
//!   page points into an arena of one-page leaves of 4-byte sharer masks.
//!   A leaf is taken on the first fill of any of its lines and freed, for
//!   the next leaf taken to reuse, once none of its lines is in an LLC.
//!   Every absent leaf reads as the shared all-zero leaf, which is exactly
//!   "no CPU holds the line", so the directory holds memory in proportion
//!   to the lines the caches hold, not to the lines a run has written or
//!   provisioned.
//! * A CPU's sharer bit is kept **exactly equal to LLC residency** (set by
//!   the fill that lands the line in the LLC, cleared by the inclusive
//!   eviction, the write-invalidation and DMA — the only ways a line
//!   leaves an LLC). With inclusion bounding the inner levels, a write
//!   reads the directory once per line: a clear bit means every level
//!   misses (the walk fills directly, [`Cache::fill_absent`], skipping the
//!   doomed hit scans), a set bit means the LLC cannot miss.
//! * A read or a fetch that misses its first level probes the L2 before
//!   the directory: an L2 hit implies LLC residency, so the directory
//!   cannot change, and only an L2 miss reads it.
//! * TLBs are probed once per *page* of a touch instead of once per line
//!   ([`Tlb::access_n`] keeps the bookkeeping identical).
//! * A data touch has one fast path over one walk. Each walk records the
//!   L1 storage slot of every line of its span as a [`SpanClaim`] of the
//!   (CPU, region) [`Summary`]. An exact repeat of the span replays the
//!   claim if the L1 tags at its slots still hold its lines
//!   ([`Cache::touch_resident_run`]): then every line hits, so the L1
//!   bookkeeping, applied by direct index, is the touch's only observable
//!   effect. A read needs nothing more. A repeated write must also find
//!   every line's sharer set still exactly `{cpu}`, as the write walk that
//!   made the claim (an *owned* claim) left it, or it would skip an
//!   invalidation. Sharers are removed only by events that also take the
//!   line from the CPU's L1, which the tag check sees; they are added only
//!   by a fill, which may land in a slot a claim recorded. So each fill
//!   advances the generation of its line's region on every CPU, an owned
//!   claim is stamped with its summary's generation, and a write replays
//!   only a claim whose stamp is current. Owned claims cover one region's
//!   lines: a write that runs past its region's end claims nothing for a
//!   repeat write. Observable counters are bit-identical to the per-line
//!   walk, which [`MemorySystem::reference`] runs for every touch.
//!   Generations move once per touch (accumulated regions), not once per
//!   fill — claims only test stamp equality, so the batching is invisible.
//! * Summaries live in a fixed-capacity per-CPU [`SummaryCache`] tagged by
//!   region, not in a table over every (region, CPU) pair. A bump of a
//!   pair with no entry is a no-op (no entry, no claim to withdraw), and
//!   a new entry starts with every owned claim withdrawn, so evicting an
//!   entry only costs a later slow walk.
//! * Code fetches get the same treatment via [`CodeSummary`]: every fetch
//!   records the span's trace-cache slots, and the next fetch of the same
//!   span replays the TC bookkeeping by slot if the TC tags there still
//!   hold its lines. A fetch that hits the whole trace cache does nothing
//!   else, so a code claim needs no generation. Code summaries stay in a
//!   per-(region, CPU) table whose chunks materialize on first write
//!   ([`LazySlots`]): only code regions are fetched, so only their few
//!   chunks exist, and the direct index keeps the per-fetch lookup (the
//!   hottest in the simulator) to one load.

use sim_core::CpuId;

use crate::cache::{Cache, CacheStats};

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

/// The coherence directory, paged: a leaf is one page of lines, and each
/// entry is the mask of CPUs whose LLC holds the line.
///
/// `top[line >> shift]` numbers the leaf holding `line`; leaf `k` is
/// `entries[k << shift..(k + 1) << shift]`. Leaf 0 is a shared leaf of
/// zero masks that is never written, so a zero top entry — what a fresh,
/// calloc-backed top table holds everywhere — reads as "no sharer" with
/// no branch, and the first fill of a line of it takes a leaf for the
/// line's page. `live[k]` counts leaf `k`'s non-zero entries; when the
/// last of them returns to zero (an inclusive LLC eviction, a
/// write-invalidation or a DMA write drops the line's last sharer), the
/// page's top entry goes back to 0 and the leaf, all zero again, joins
/// the free list that [`Directory::add_leaf`] takes from first. A
/// million-flow machine provisions billions of lines but caches a few
/// million, and only those leaves (plus the top-table pages that number
/// them) hold memory.
#[derive(Debug, Clone)]
struct Directory {
    /// Log2 of the lines per leaf (per page).
    shift: u32,
    top: Vec<u32>,
    entries: Vec<u32>,
    /// Non-zero entries per leaf (leaf 0's stays 0).
    live: Vec<u32>,
    /// Released leaves, all zero, for [`Directory::add_leaf`] to reuse.
    free: Vec<u32>,
}

impl Directory {
    fn new(shift: u32) -> Self {
        Directory {
            shift,
            top: Vec::new(),
            entries: vec![0; 1 << shift],
            live: vec![0],
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

    /// Arena leaves: live, free and the shared zero leaf.
    fn arena_leaves(&self) -> usize {
        self.live.len()
    }

    /// Leaves a top entry numbers.
    fn live_leaves(&self) -> usize {
        self.arena_leaves() - self.free.len() - 1
    }

    /// Index in `entries` of `line`'s entry, in the shared zero leaf when
    /// the line's own leaf is absent: read through it, and write through
    /// it only when the entry read is not zero.
    #[inline]
    fn index(&self, line: u64) -> usize {
        let l = line as usize;
        ((self.top[l >> self.shift] as usize) << self.shift) | (l & (self.leaf_lines() - 1))
    }

    /// The sharers of `line` (none when its leaf is absent).
    #[inline]
    fn get(&self, line: u64) -> u32 {
        self.entries[self.index(line)]
    }

    /// Index in `entries` of `line`'s entry, taking a leaf for it if
    /// absent. The caller must make the entry non-zero
    /// ([`Directory::revive`]) before anything can release a leaf.
    #[inline]
    fn index_mut(&mut self, line: u64) -> usize {
        let l = line as usize;
        let page = l >> self.shift;
        let mut leaf = self.top[page];
        if leaf == 0 {
            leaf = self.add_leaf(page);
        }
        ((leaf as usize) << self.shift) | (l & (self.leaf_lines() - 1))
    }

    /// Numbers a leaf for page `page`, reusing a released one before
    /// growing the arena, and returns its number.
    #[cold]
    fn add_leaf(&mut self, page: usize) -> u32 {
        let leaf = self.free.pop().unwrap_or_else(|| {
            let leaf =
                u32::try_from(self.arena_leaves()).expect("directory leaf count overflows u32");
            self.entries
                .resize(self.entries.len() + self.leaf_lines(), 0);
            self.live.push(0);
            leaf
        });
        self.top[page] = leaf;
        leaf
    }

    /// Counts the entry at `di` live if it is zero; call it before the
    /// write that makes the entry non-zero.
    #[inline]
    fn revive(&mut self, di: usize) {
        if self.entries[di] == 0 {
            self.live[di >> self.shift] += 1;
        }
    }

    /// Returns `line`'s entry at `di`, counted live, to zero and releases
    /// its leaf if no live entry is left in it.
    #[inline]
    fn retire(&mut self, line: u64, di: usize) {
        self.entries[di] = 0;
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
/// spans of the region and the generation guarding their write replays.
///
/// Every fill of one of the region's lines, by any CPU, bumps `gen`: it
/// may add a sharer to a line an owned claim holds. Claims are otherwise
/// checked by tag at replay, so nothing else moves it.
#[derive(Debug, Clone, Default)]
struct Summary {
    /// The (CPU, region) fill generation guarding every owned claim below.
    gen: u64,
    /// Recently walked touch spans, one claim per span (see
    /// [`SpanClaim`]). Touch patterns repeat a handful of distinct spans
    /// per region, so a few claims suffice.
    spans: Vec<SpanClaim>,
    /// Round-robin replacement cursor for `spans`.
    span_cursor: usize,
}

/// Maximum replayable touch spans remembered per (CPU, region).
const SPAN_CLAIMS: usize = 8;

/// One replayable touch span: the L1 storage slot each of the lines
/// `first..=last` had when the last walk of the span ended. While the L1
/// tags at `slots` hold those lines, an exact repeat of a read is pure L1
/// hits with no coherence work.
#[derive(Debug, Clone)]
struct SpanClaim {
    /// The summary's generation when the claim was recorded.
    gen: u64,
    first: u64,
    last: u64,
    /// The claim came from a write walk that stayed inside its region,
    /// which left every span line with sharer set exactly `{cpu}`. While
    /// `gen` is current no CPU has filled one of the lines since, so the
    /// set is unchanged wherever the tags still hold, and a repeated
    /// *write* of the span is coherence- and directory-free too.
    owned: bool,
    /// L1 storage slot of `first + i`, recorded during the walk.
    slots: Vec<u32>,
}

impl Default for SpanClaim {
    fn default() -> Self {
        // An empty span: no touch asks for it before a walk records one.
        SpanClaim {
            gen: 0,
            first: 1,
            last: 0,
            owned: false,
            slots: Vec::new(),
        }
    }
}

impl Summary {
    /// The claim that lets a repeat of the touch of `first..=last` skip
    /// its walk if its tags still hold, if any: a claim of that span, and
    /// for a write an owned one whose stamp is current.
    #[inline]
    fn span_matching(&self, first: u64, last: u64, write: bool) -> Option<&SpanClaim> {
        self.spans
            .iter()
            .find(|c| c.first == first && c.last == last)
            .filter(|c| !write || (c.owned && c.gen == self.gen))
    }

    /// Advances the generation, withdrawing every owned claim.
    #[inline]
    fn bump(&mut self) {
        self.gen += 1;
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

/// Replay state for one (CPU, region) pair on the *code* side: the span
/// of lines the last fetch of the region covered, with each line's trace
/// cache slot. A fetch that hits every line does nothing but the TC
/// bookkeeping, so the tag check at replay is the whole claim.
#[derive(Debug, Clone)]
struct CodeSummary {
    first: u64,
    last: u64,
    /// TC storage slot of `first + i` when the fetch ended.
    slots: Vec<u32>,
}

impl Default for CodeSummary {
    fn default() -> Self {
        // An empty span, as for `SpanClaim`.
        CodeSummary {
            first: 1,
            last: 0,
            slots: Vec::new(),
        }
    }
}

impl CodeSummary {
    /// Heap bytes held beyond the summary's own size.
    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<u32>()
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
/// * a new entry starts with every owned claim withdrawn (a fresh
///   default, or an evicted entry bumped once more, which keeps its
///   buffers; its read claims name another region's lines, and a tag
///   check decides them anyway);
/// * so an eviction only costs the pair's next access a slow walk.
///
/// Replacement takes an empty way, else the set's round-robin victim,
/// among the first `ways` ways (the rest stay empty; lookups scan all
/// [`SUMMARY_WAYS`], which unrolls). `holders[r]` is the mask of CPUs
/// holding an entry for region `r`, so a fill's bump of a region on every
/// CPU looks up only the CPUs that hold one.
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
            .find(|&w| tags[w] == NO_REGION)
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

    /// Bumps the view of region `rid` on every CPU that holds an entry
    /// for it.
    #[inline]
    fn bump(&mut self, rid: u32) {
        let mut m = self.holders[rid as usize];
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
/// default instance. Only code regions are ever fetched, so only their
/// chunks materialize: a few, however many flows a machine provisions.
/// The chunk table itself grows on the first write past its end, so it
/// too covers only the fetched regions.
///
/// Chunked (4096 slots) rather than prefix-grown so a fetch of a region
/// with a high index materializes one chunk, not the whole prefix.
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
    /// Paged coherence directory of sharer masks, indexed by line
    /// address.
    directory: Directory,
    /// Per-CPU data-side fast-path state ([`Summary`]), tagged by region.
    summaries: SummaryCache,
    /// `code_summaries[region * cpus + cpu]`: trace-cache fast-path
    /// state, lazily materialized (see [`LazySlots`]).
    code_summaries: LazySlots<CodeSummary>,
    /// Reused per-line sharer-mask buffer for [`MemorySystem::dma_write`]'s
    /// two-pass directory delta (gather sharers, then apply per CPU).
    dma_sharers: Vec<u32>,
    /// Reused deferred-coherence buffer for [`MemorySystem::data_touch`]:
    /// remote invalidations `(line, cpu mask)` from writes, applied after
    /// the walk so the walk loop holds a single CPU's caches borrowed
    /// throughout.
    remote_invals: Vec<(u64, u32)>,
    /// Reused per-walk list of the regions whose lines the walk filled.
    /// Their generations move once, after the walk ([`bump_filled`]),
    /// instead of once per fill: nothing reads a summary generation
    /// mid-walk, and claims only compare stamped generations for
    /// equality, so one bump per walk withdraws exactly the same claims.
    filled: Vec<u32>,
    /// Whether touches and fetches may replay a claim instead of walking;
    /// off only in the [`reference`](Self::reference) oracle.
    replay: bool,
    line_shift: u32,
    page_shift: u32,
}

/// Records that a walk filled a line of region `rid`. A walk fills lines
/// of one region, or two when it runs past its region's end, so a linear
/// scan beats any set.
#[inline]
fn note_fill(filled: &mut Vec<u32>, rid: u32) {
    if !filled.contains(&rid) {
        filled.push(rid);
    }
}

/// Bumps every CPU's view of each region a walk filled a line of: the
/// fill added a sharer, which may falsify any CPU's owned claim over the
/// line. Claims stamped before the walk become stale exactly as they
/// would under per-fill bumping; the absolute generation values differ
/// but only equality is ever tested.
#[inline]
fn bump_filled(summaries: &mut SummaryCache, filled: &[u32]) {
    for &rid in filled {
        summaries.bump(rid);
    }
}

/// The region a walk of region `rid`, whose own lines end at
/// `region_last_line`, fills `line` of: `rid` for its own lines, else the
/// region holding the line, found by base (a walk that runs past its
/// region's end).
#[inline]
fn line_region(
    regions: &RegionTable,
    rid: u32,
    region_last_line: u64,
    line_shift: u32,
) -> impl Fn(u64) -> u32 + Copy + '_ {
    move |line| {
        if line <= region_last_line {
            rid
        } else {
            regions
                .region_of(line << line_shift)
                .expect("a walked line lies past the walked region's base")
                .index() as u32
        }
    }
}

/// Drops `victim`, just evicted from the inclusive LLC of the CPU with
/// bit `me_bit`, from the CPU's inner levels and from the directory's
/// view of the CPU, releasing its leaf when that was the leaf's last
/// cached line. A walk records its filled line's residency before it
/// evicts the fill's victim: with leaves larger than the LLC's set count
/// the two can share a leaf, which the line's still-zero entry would
/// otherwise let the victim release under the walk's held index.
#[inline]
fn evict_from_llc(caches: &mut CpuCaches, directory: &mut Directory, victim: u64, me_bit: u32) {
    caches.l1.invalidate(victim);
    caches.l2.invalidate(victim);
    // The victim's sharer bit is set, so its leaf exists.
    let di = directory.index(victim);
    directory.entries[di] &= !me_bit;
    if directory.entries[di] == 0 {
        directory.retire(victim, di);
    }
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
        MemorySystem {
            line_shift: config.line_size.trailing_zeros(),
            page_shift: config.page_size.trailing_zeros(),
            regions: RegionTable::new(config.page_size as u64),
            directory: Directory::new(config.page_size.trailing_zeros() - line.trailing_zeros()),
            summaries: SummaryCache::new(cpus.len(), sets, ways),
            code_summaries: LazySlots::new(),
            dma_sharers: Vec::new(),
            remote_invals: Vec::new(),
            filled: Vec::new(),
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
    ///   The fill value (top entry `0`, the shared zero leaf) matches
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
        let lpp = self.page_shift - self.line_shift;

        // One DTLB probe per page instead of per line. The TLB shares no
        // state with the caches or the directory, so probing the pages up
        // front is indistinguishable from interleaving per-line probes.
        result.dtlb_misses = probe_pages(&mut self.cpus[idx].dtlb, first, last, lpp);

        let me_bit = 1u32 << idx;
        let line_shift = self.line_shift;
        let MemorySystem {
            regions,
            cpus,
            directory,
            summaries,
            remote_invals,
            filled,
            replay,
            ..
        } = self;
        let rid = region.index() as u32;
        let line_region = line_region(regions, rid, region_last_line, line_shift);
        let my = &mut cpus[idx];

        // Fast path: an exact repeat of a claimed span whose L1 tags still
        // hold its lines is pure L1 hits, and for a write with a current
        // owned claim the lines are still this CPU's alone, so coherence
        // and the directory are no-ops either way and only the L1
        // bookkeeping remains — applied by recorded storage slot, skipping
        // the set scans.
        let found = summaries.find(idx, rid);
        if let Some(c) = found
            .filter(|_| *replay)
            .and_then(|i| summaries.entries[i].span_matching(first, last, write))
        {
            if my.l1.touch_resident_run(&c.slots, first) {
                return result;
            }
        }
        // Pick the claim this walk will record and borrow its slot buffer:
        // the span's own claim if it has one, else a new one while there
        // is room, else round-robin. The choice has no observable effect,
        // so any deterministic policy is fine. The entry's index stays
        // valid to the end of the touch: bumps never add or evict entries.
        let entry = found.unwrap_or_else(|| summaries.insert(idx, rid));
        let (span_idx, mut span_slots) = {
            let s = &mut summaries.entries[entry];
            let i = if let Some(i) = s
                .spans
                .iter()
                .position(|c| c.first == first && c.last == last)
            {
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
        // the rare invalidations of *other* CPUs' caches are recorded and
        // applied after the loop. Deferral is exact: the walk's lines are
        // distinct and the walk only reads its own hierarchy and the
        // directory, never a remote cache or a summary — so a remote
        // invalidation commutes with everything between its original
        // position and the end of the walk, and the fills' generation
        // bumps ([`note_fill`]) can land after the loop too. The directory
        // updates stay in line order.
        remote_invals.clear();
        filled.clear();
        for line in first..=last {
            if write {
                // Coherence: a write invalidates remote copies and leaves
                // the line's sharer set exactly `{cpu}`.
                let di = directory.index_mut(line);
                directory.revive(di);
                let old = directory.entries[di];
                directory.entries[di] = me_bit;
                if old & !me_bit != 0 {
                    remote_invals.push((line, old & !me_bit));
                }
                if old & me_bit != 0 {
                    // The sharer bit says the line is in this CPU's LLC;
                    // the inner levels may still miss, but the LLC cannot,
                    // so the walk never reaches the fill tail.
                    let l1 = my.l1.access(line);
                    span_slots.push(l1.slot);
                    if l1.hit {
                        continue;
                    }
                    result.l1_misses += 1;
                    if my.l2.access(line).hit {
                        continue;
                    }
                    result.l2_misses += 1;
                    let llc = my.llc.access(line);
                    debug_assert!(
                        llc.hit && llc.evicted.is_none(),
                        "shared line {line} must be LLC-resident"
                    );
                } else {
                    // Clear bit ⇒ in none of this CPU's levels (sharer bit
                    // ⟺ LLC residency, LLC inclusive): straight fills, no
                    // doomed hit scans at any level. Residency is already
                    // recorded above, before the victim's eviction.
                    result.l1_misses += 1;
                    result.l2_misses += 1;
                    result.llc_misses += 1;
                    span_slots.push(my.l1.fill_absent(line).slot);
                    let _ = my.l2.fill_absent(line);
                    let llc = my.llc.fill_absent(line);
                    note_fill(filled, line_region(line));
                    if let Some(victim) = llc.evicted {
                        evict_from_llc(my, directory, victim, me_bit);
                    }
                }
            } else {
                // A read changes no other CPU's caches. An L1 or L2 hit
                // leaves the directory as it is (a line in either is in
                // the LLC, so its sharer bit is set); only an L2 miss
                // reads it.
                let l1 = my.l1.access(line);
                span_slots.push(l1.slot);
                if l1.hit {
                    continue;
                }
                result.l1_misses += 1;
                if my.l2.access(line).hit {
                    continue;
                }
                result.l2_misses += 1;
                let di = directory.index_mut(line);
                if directory.entries[di] & me_bit != 0 {
                    let llc = my.llc.access(line);
                    debug_assert!(
                        llc.hit && llc.evicted.is_none(),
                        "shared line {line} must be LLC-resident"
                    );
                    continue;
                }
                // Clear bit ⇒ absent from the LLC: a straight fill.
                result.llc_misses += 1;
                let llc = my.llc.fill_absent(line);
                // Record residency, then evict (see `evict_from_llc`).
                directory.revive(di);
                directory.entries[di] |= me_bit;
                note_fill(filled, line_region(line));
                if let Some(victim) = llc.evicted {
                    evict_from_llc(my, directory, victim, me_bit);
                }
            }
        }
        // Apply the deferred remote invalidations (see above).
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
        bump_filled(summaries, filled);

        // Record the claim. A write walk leaves every span line with
        // sharer set exactly `{cpu}`, so its claim is owned if the span
        // stays inside the region: a fill of a line past the end bumps
        // the region holding it, which this claim's summary never sees.
        // The stamp is taken after this walk's own bumps.
        let s = &mut summaries.entries[entry];
        let gen = s.gen;
        let c = &mut s.spans[span_idx];
        c.gen = gen;
        c.first = first;
        c.last = last;
        c.owned = write && last <= region_last_line;
        c.slots = span_slots;
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
        let line_shift = self.line_shift;
        let MemorySystem {
            regions,
            cpus,
            directory,
            summaries,
            code_summaries,
            filled,
            replay,
            ..
        } = self;
        let line_region = line_region(regions, region.index() as u32, region_last_line, line_shift);
        // Flat (region, cpu) offset into `code_summaries`.
        let si = region.index() * cpus.len() + idx;
        let caches = &mut cpus[idx];

        // Fast path: the last fetch of the region covered exactly this
        // span, and the TC tags at its recorded slots still hold its
        // lines. An all-hit fetch touches neither the directory nor the
        // outer levels, so only the TC's LRU/hit bookkeeping remains —
        // applied by slot.
        let cs = code_summaries.get(si);
        if *replay
            && cs.first == first
            && cs.last == last
            && caches.tc.touch_resident_run(&cs.slots, first)
        {
            return result;
        }

        // Reuse the summary's slot buffer to record where each span line
        // lands, so recording the claim below costs no residency scan.
        let mut slot_buf = std::mem::take(&mut code_summaries.get_mut(si).slots);
        slot_buf.clear();
        filled.clear();
        for line in first..=last {
            let tc = caches.tc.access(line);
            slot_buf.push(tc.slot);
            if tc.hit {
                continue;
            }
            result.tc_misses += 1;
            // The trace cache is exempt from inclusion, but an L2 hit
            // still implies LLC residency: the directory cannot change.
            if caches.l2.access(line).hit {
                continue;
            }
            result.l2_misses += 1;
            let di = directory.index_mut(line);
            if directory.entries[di] & me_bit != 0 {
                let llc = caches.llc.access(line);
                debug_assert!(
                    llc.hit && llc.evicted.is_none(),
                    "shared code line {line} must be LLC-resident"
                );
                continue;
            }
            result.llc_misses += 1;
            let llc = caches.llc.fill_absent(line);
            // Record residency, then evict (see `evict_from_llc`).
            directory.revive(di);
            directory.entries[di] |= me_bit;
            note_fill(filled, line_region(line));
            if let Some(victim) = llc.evicted {
                evict_from_llc(caches, directory, victim, me_bit);
            }
        }
        bump_filled(summaries, filled);

        let cs = code_summaries.get_mut(si);
        cs.first = first;
        cs.last = last;
        cs.slots = slot_buf;
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
            dma_sharers,
            ..
        } = self;
        // Two-pass directory delta. Pass 1 reads each line's directory
        // entry once: the sharer mask says exactly which LLCs hold the
        // line (bit ⟺ LLC residency; inclusion bounds the inner levels),
        // so CPUs outside the mask need no cache probe — on them
        // `invalidate` would miss and count nothing. A zero mask also
        // means there is nothing to reset. No generation moves: the lines
        // leave the L1s, which every claim's tag check sees.
        dma_sharers.clear();
        let mut union_mask = 0u32;
        for line in first..=last {
            // A non-zero mask means the entry is not in the shared zero
            // leaf, so resetting it through `index` is safe.
            let di = directory.index(line);
            let mask = directory.entries[di];
            dma_sharers.push(mask);
            if mask != 0 {
                union_mask |= mask;
                directory.retire(line, di);
            }
        }
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
    ///    is still all zero;
    /// 3. every leaf's live count equals its non-zero entries, every leaf
    ///    a top entry numbers has a count of at least 1 (and is numbered
    ///    once), and every free leaf is all zero and numbered by no top
    ///    entry — so the directory holds only leaves with a cached line;
    /// 4. the summary cache's per-region holder masks match its tags.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    #[doc(hidden)]
    pub fn verify_incremental_state(&self) {
        let d = &self.directory;
        assert!(
            d.entries[..d.leaf_lines()].iter().all(|&e| e == 0),
            "the shared zero directory leaf was written"
        );
        self.verify_directory_leaves();
        self.summaries.verify();
        for (id, r) in self.regions.iter() {
            let first = self.line_of(r.base());
            let last = self.line_of(r.base() + r.size() - 1);
            for line in first..=last {
                let sharers = self.directory.get(line);
                for (cpu, c) in self.cpus.iter().enumerate() {
                    let bit = sharers & (1u32 << cpu) != 0;
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
        assert_eq!(d.live[0], 0, "the shared zero leaf has a live count");
        for (k, leaf) in d.entries.chunks(d.leaf_lines()).enumerate() {
            let live = leaf.iter().filter(|&&e| e != 0).count();
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
            assert_eq!(d.live[leaf], 0, "free leaf {leaf} is not all zero");
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
    /// the directory's leaf arena, the summary cache's entries and
    /// buffers, the code summaries' materialized chunks. The arena keeps its released leaves for reuse, so it counts
    /// live and free leaves apart; every arena leaf was written when it
    /// was created, so its bytes are resident. The directory's top table
    /// is calloc-backed and counts the 4 KiB pages that number a live leaf
    /// now: a lower bound, since a page whose leaves were all released
    /// reads zero again but stays resident. Two tables are sized by what a machine
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
    /// Directory arena leaves (live, free and the shared zero leaf).
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
    /// some CPU's LLC holds (the shared zero leaf not counted).
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
    fn remote_read_of_a_written_line_keeps_the_writer_copy() {
        let mut m = sys();
        let r = m.add_region("ctx", 64);
        m.data_touch(CPU0, r, 0, 64, true);
        let c1 = m.data_touch(CPU1, r, 0, 64, false);
        assert_eq!(c1.llc_misses, 1); // CPU1's own hierarchy is cold
                                      // CPU0 still has the line: no miss.
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
        m.data_touch(CPU1, r, 0, 64, false); // CPU1 becomes a sharer
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

    // --- claims over lines that left and came back ---

    /// The default system and the reference, both of `config`.
    fn pair(config: MemoryConfig) -> (MemorySystem, MemorySystem) {
        (
            MemorySystem::new(config.clone()),
            MemorySystem::reference(config),
        )
    }

    /// Adds the region `name` of `bytes` to both systems.
    fn add_both(
        m: &mut MemorySystem,
        oracle: &mut MemorySystem,
        name: &str,
        bytes: u64,
    ) -> RegionId {
        let id = m.add_region(name.to_owned(), bytes);
        assert_eq!(oracle.add_region(name.to_owned(), bytes), id);
        id
    }

    /// Fetches 64 bytes of `region` at `offset` on CPU0 through `m` and
    /// through the reference, asserting equal results.
    fn fetch_both(m: &mut MemorySystem, oracle: &mut MemorySystem, r: RegionId, offset: u64) {
        let want = oracle.code_fetch(CPU0, r, offset, 64);
        assert_eq!(m.code_fetch(CPU0, r, offset, 64), want);
    }

    /// Touches `bytes` of `region` at `offset` on `cpu` through `m` and
    /// through the reference, asserting equal results.
    fn touch_both(
        m: &mut MemorySystem,
        oracle: &mut MemorySystem,
        cpu: CpuId,
        r: RegionId,
        (offset, bytes): (u64, u64),
        write: bool,
    ) -> TouchResult {
        let want = oracle.data_touch(cpu, r, offset, bytes, write);
        assert_eq!(m.data_touch(cpu, r, offset, bytes, write), want);
        want
    }

    #[test]
    fn a_code_fetch_past_its_region_end_stays_exact() {
        // Tiny TC: 4 sets x 2 ways. `a`'s last line and `b`'s first are
        // one fetch of `a`; two more lines of `b` in that TC set evict
        // `b`'s first line, which the tag check of `a`'s claim sees.
        let (mut m, mut oracle) = pair(MemoryConfig::tiny(2));
        let a = add_both(&mut m, &mut oracle, "a.text", 4096);
        let b = add_both(&mut m, &mut oracle, "b.text", 4096);
        let tail = oracle.code_fetch(CPU0, a, 4032, 128);
        assert_eq!(m.code_fetch(CPU0, a, 4032, 128), tail);
        assert_eq!((tail.lines, tail.tc_misses), (2, 2));
        fetch_both(&mut m, &mut oracle, b, 256);
        fetch_both(&mut m, &mut oracle, b, 512);
        let again = oracle.code_fetch(CPU0, a, 4032, 128);
        assert_eq!(m.code_fetch(CPU0, a, 4032, 128), again);
        assert_eq!(again.tc_misses, 1);
        m.verify_incremental_state();
    }

    #[test]
    fn a_tc_victim_whose_leaf_is_gone_is_seen_by_the_tag_check() {
        let (mut m, mut oracle) = pair(MemoryConfig::tiny(2));
        let a = add_both(&mut m, &mut oracle, "a.text", 64);
        let b = add_both(&mut m, &mut oracle, "b.text", 4096);
        let stream = add_both(&mut m, &mut oracle, "stream", 8192);
        fetch_both(&mut m, &mut oracle, a, 0);
        fetch_both(&mut m, &mut oracle, a, 0);
        // Twice the LLC streamed through CPU0: `a`'s line leaves the LLC
        // and its page's leaf is freed; the TC keeps the line.
        touch_both(&mut m, &mut oracle, CPU0, stream, (0, 8192), false);
        let a_line = m.regions().get(a).base() >> 6;
        assert!(!m.llc_holds(CPU0, a_line));
        assert_eq!(m.directory.top[a_line as usize / LEAF_LINES], 0);
        // `b`'s lines of `a`'s TC set evict it; the next fetch of `a`
        // must miss the trace cache, as the reference's does.
        fetch_both(&mut m, &mut oracle, b, 0);
        fetch_both(&mut m, &mut oracle, b, 256);
        fetch_both(&mut m, &mut oracle, a, 0);
        assert_eq!(m.tc_stats(CPU0), oracle.tc_stats(CPU0));
        m.verify_incremental_state();
    }

    #[test]
    fn a_dma_over_a_recycled_leaf_is_seen_by_the_tag_check() {
        let (mut m, mut oracle) = pair(MemoryConfig::tiny(2));
        let a = add_both(&mut m, &mut oracle, "a", 256);
        let b = add_both(&mut m, &mut oracle, "b", 256);
        touch_both(&mut m, &mut oracle, CPU0, a, (0, 64), false);
        m.dma_write(a, 0, 64);
        oracle.dma_write(a, 0, 64);
        // `b`'s page takes the leaf `a`'s page released, and `b` claims.
        touch_both(&mut m, &mut oracle, CPU0, b, (0, 64), false);
        touch_both(&mut m, &mut oracle, CPU0, b, (0, 64), false);
        assert_eq!(m.footprint().directory_leaves, 1);
        assert_eq!(m.construction_layout().directory_leaves, 2);
        m.dma_write(b, 0, 64);
        oracle.dma_write(b, 0, 64);
        let again = touch_both(&mut m, &mut oracle, CPU0, b, (0, 64), false);
        assert_eq!(again.llc_misses, 1);
        m.verify_incremental_state();
    }

    #[test]
    fn a_remote_read_fill_withdraws_an_owned_claim_refilled_in_place() {
        // CPU0 owns `r`'s line through a write claim. Streaming a region
        // twice the LLC evicts it; CPU1 reads it; CPU0 reads it back into
        // the same slot of its direct-mapped L1, so the tags match again,
        // with CPU1 still a sharer. CPU0's repeat write must go the slow
        // path and invalidate CPU1's copy.
        let (mut m, mut oracle) = pair(MemoryConfig {
            l1_assoc: 1,
            ..MemoryConfig::tiny(2)
        });
        let r = add_both(&mut m, &mut oracle, "r", 64);
        let stream = add_both(&mut m, &mut oracle, "stream", 8192);
        touch_both(&mut m, &mut oracle, CPU0, r, (0, 64), true);
        touch_both(&mut m, &mut oracle, CPU0, r, (0, 64), true);
        touch_both(&mut m, &mut oracle, CPU0, stream, (0, 8192), false);
        touch_both(&mut m, &mut oracle, CPU1, r, (0, 64), false);
        touch_both(&mut m, &mut oracle, CPU0, r, (0, 64), false);
        touch_both(&mut m, &mut oracle, CPU0, r, (0, 64), true);
        let c1 = touch_both(&mut m, &mut oracle, CPU1, r, (0, 64), false);
        assert_eq!(c1.llc_misses, 1, "CPU1's copy must have been invalidated");
        m.verify_incremental_state();
    }
}
