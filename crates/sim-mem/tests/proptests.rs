//! Property-based tests for the cache/coherence invariants the machine
//! model depends on.

use std::collections::BTreeSet;

use proptest::prelude::*;
use sim_core::CpuId;
use sim_mem::{
    Cache, Footprint, MemoryConfig, MemorySystem, RegionId, RegionName, RegionPlan, Tlb,
};

/// One memory-system operation: `(kind, cpu, region, offset, bytes)`,
/// with `kind` 0 read, 1 write, 2 code fetch, 3 DMA write, anything else
/// a TLB flush.
type Op = (u8, u32, usize, u64, u64);

/// Applies `op` to `m`, returning the touch or fetch result as a tuple
/// of counts (zeros for the operations that return nothing).
fn apply(m: &mut MemorySystem, regions: &[RegionId], op: Op) -> [u64; 5] {
    let (kind, cpu, rix, off, len) = op;
    let cpu = CpuId::new(cpu);
    let r = regions[rix];
    match kind {
        0 | 1 => {
            let t = m.data_touch(cpu, r, off, len, kind == 1);
            [
                t.lines,
                t.l1_misses,
                t.l2_misses,
                t.llc_misses,
                t.dtlb_misses,
            ]
        }
        2 => {
            let f = m.code_fetch(cpu, r, off, len.min(300));
            [
                f.lines,
                f.tc_misses,
                f.l2_misses,
                f.llc_misses,
                f.itlb_misses,
            ]
        }
        3 => {
            m.dma_write(r, off, len);
            [0; 5]
        }
        _ => {
            m.flush_tlbs(cpu);
            [0; 5]
        }
    }
}

/// Adds the lines `op` touches from a CPU (a data touch or code fetch;
/// DMA only clears lines some CPU touched before) to `lines`.
fn touched_lines(m: &MemorySystem, regions: &[RegionId], op: Op, lines: &mut BTreeSet<u64>) {
    let (kind, _, rix, off, len) = op;
    let len = match kind {
        0 | 1 => len,
        2 => len.min(300),
        _ => return,
    };
    let r = m.regions().get(regions[rix]);
    let line = u64::from(m.config().line_size);
    let start = r.addr(off);
    let end = start + len.min(r.size());
    lines.extend(start / line..=(end - 1) / line);
}

/// Lines per directory leaf: a leaf is one page.
fn leaf_lines(m: &MemorySystem) -> u64 {
    u64::from(m.config().page_size / m.config().line_size)
}

/// Directory leaves holding one of `lines` that some CPU's LLC holds.
fn cached_leaves(m: &MemorySystem, lines: &BTreeSet<u64>) -> usize {
    let cpus = m.config().cpus as u32;
    let cached = lines
        .iter()
        .filter(|&&l| (0..cpus).any(|c| m.llc_holds(CpuId::new(c), l)));
    cached
        .map(|l| l / leaf_lines(m))
        .collect::<BTreeSet<_>>()
        .len()
}

/// The exactness oracle: runs `ops` over regions of `sizes` (allocated in
/// order, so each follows the one before) through three systems, and
/// every per-op result and every cache and TLB counter must agree:
///
/// * the default system;
/// * one whose summary cache holds a single entry per CPU, so nearly
///   every access evicts (the cache's capacity is unobservable);
/// * the reference, which never replays a claim and walks every touch
///   and fetch line by line (the fast paths are exact).
///
/// Each system also passes `verify_incremental_state` at the end.
fn assert_fast_paths_exact(config: &MemoryConfig, sizes: &[u64], ops: &[Op]) {
    let mut systems = [
        MemorySystem::new(config.clone()),
        MemorySystem::with_single_summary_entry(config.clone()),
        MemorySystem::reference(config.clone()),
    ];
    let regions: Vec<RegionId> = sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let ids: Vec<RegionId> = systems
                .iter_mut()
                .map(|m| m.add_region(format!("r{i}"), size))
                .collect();
            assert!(ids.iter().all(|&id| id == ids[0]));
            ids[0]
        })
        .collect();
    let [fast, others @ ..] = &mut systems;
    for &op in ops {
        let want = apply(fast, &regions, op);
        for m in others.iter_mut() {
            prop_assert_eq!(want, apply(m, &regions, op), "op {:?} diverged", op);
        }
    }
    for m in others.iter() {
        for cpu in (0..config.cpus as u32).map(CpuId::new) {
            prop_assert_eq!(fast.l1_stats(cpu), m.l1_stats(cpu));
            prop_assert_eq!(fast.l2_stats(cpu), m.l2_stats(cpu));
            prop_assert_eq!(fast.llc_stats(cpu), m.llc_stats(cpu));
            prop_assert_eq!(fast.tc_stats(cpu), m.tc_stats(cpu));
            prop_assert_eq!(fast.tlb_stats(cpu), m.tlb_stats(cpu));
        }
        m.verify_incremental_state();
        prop_assert_eq!(
            fast.footprint().directory_leaves,
            m.footprint().directory_leaves
        );
    }
    fast.verify_incremental_state();
}

/// The oracle's geometry: `tiny` with a 16-line, 4-set L1, so spans of up
/// to four lines and small regions can hold live claims.
fn oracle_config() -> MemoryConfig {
    MemoryConfig {
        l1_size: 1024,
        l1_assoc: 4,
        ..MemoryConfig::tiny(2)
    }
}

proptest! {
    /// Hits + misses always equals accesses, and residency never exceeds
    /// capacity, for arbitrary access streams.
    #[test]
    fn cache_accounting_identities(lines in prop::collection::vec(0u64..512, 1..400)) {
        let mut c = Cache::new("t", 8, 4); // 32 lines
        for &l in &lines {
            c.access(l);
            prop_assert!(c.resident_lines() <= c.capacity_lines());
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, lines.len() as u64);
    }

    /// An access immediately after an access to the same line always hits.
    #[test]
    fn cache_back_to_back_hits(lines in prop::collection::vec(0u64..256, 1..100)) {
        let mut c = Cache::new("t", 16, 4);
        for &l in &lines {
            c.access(l);
            let again = c.access(l);
            prop_assert!(again.hit, "immediate re-access of line {l} missed");
        }
    }

    /// Invalidate really removes: a subsequent access misses.
    #[test]
    fn cache_invalidate_forces_miss(line in 0u64..1024) {
        let mut c = Cache::new("t", 16, 4);
        c.access(line);
        prop_assert!(c.contains(line));
        c.invalidate(line);
        prop_assert!(!c.contains(line));
        prop_assert!(!c.access(line).hit);
    }

    /// TLB: hits + misses == accesses; capacity bound holds.
    #[test]
    fn tlb_accounting(pages in prop::collection::vec(0u64..64, 1..200)) {
        let mut t = Tlb::new(8);
        for &p in &pages {
            t.access(p);
            prop_assert!(t.resident() <= 8);
        }
        let s = t.stats();
        prop_assert_eq!(s.hits + s.misses, pages.len() as u64);
    }

    /// Coherence safety: a CPU re-reading data it just read hits, unless
    /// another CPU wrote or a device DMA'd in between.
    #[test]
    fn reread_without_remote_write_hits(
        offsets in prop::collection::vec(0u64..4000, 1..40),
    ) {
        let mut m = MemorySystem::new(MemoryConfig::tiny(2));
        let r = m.add_region("x", 4096);
        let cpu = CpuId::new(0);
        for &off in &offsets {
            m.data_touch(cpu, r, off, 64, false);
            let again = m.data_touch(cpu, r, off, 64, false);
            prop_assert_eq!(again.llc_misses, 0, "re-read missed at {}", off);
        }
    }

    /// Coherence: after a remote write, the next local read misses the
    /// local hierarchy; after a local re-read it hits again.
    #[test]
    fn remote_write_invalidates_then_recovers(off in 0u64..1024) {
        let mut m = MemorySystem::new(MemoryConfig::tiny(2));
        let r = m.add_region("x", 2048);
        let (c0, c1) = (CpuId::new(0), CpuId::new(1));
        m.data_touch(c0, r, off, 64, false);
        m.data_touch(c1, r, off, 64, true); // remote write
        let miss = m.data_touch(c0, r, off, 64, false);
        prop_assert!(miss.llc_misses > 0);
        let hit = m.data_touch(c0, r, off, 64, false);
        prop_assert_eq!(hit.llc_misses, 0);
    }

    /// DMA writes make the touched range uncached for every CPU.
    #[test]
    fn dma_uncaches_everywhere(off in 0u64..1000, len in 1u64..512) {
        let mut m = MemorySystem::new(MemoryConfig::tiny(2));
        let r = m.add_region("buf", 2048);
        for c in 0..2 {
            m.data_touch(CpuId::new(c), r, off, len, false);
        }
        m.dma_write(r, off, len);
        for c in 0..2 {
            let res = m.data_touch(CpuId::new(c), r, off, len, false);
            prop_assert!(res.llc_misses >= 1, "cpu{c} still had DMA'd data cached");
        }
    }

    /// Touch accounting: misses never exceed lines touched, per level.
    #[test]
    fn touch_miss_bounds(off in 0u64..100_000, len in 1u64..8192) {
        let mut m = MemorySystem::new(MemoryConfig::paper_sut(1));
        let r = m.add_region("big", 128 * 1024);
        let res = m.data_touch(CpuId::new(0), r, off, len, true);
        prop_assert!(res.llc_misses <= res.lines);
        prop_assert!(res.l2_misses <= res.lines);
        prop_assert!(res.l1_misses <= res.lines);
        prop_assert!(res.llc_misses <= res.l2_misses);
        prop_assert!(res.l2_misses <= res.l1_misses);
    }

    /// The incremental coherence directory (sharer-bit ⟺ LLC-residency,
    /// inclusion, per-leaf live counts and the free list) matches a naive
    /// full-recompute model directory after **every** step of an
    /// arbitrary operation sequence — reads, writes, instruction
    /// fetches, DMA invalidations and TLB flushes, issued by randomly
    /// steered CPUs against overlapping regions. Same idiom as the
    /// calendar-vs-heap and SPSC-vs-VecDeque model tests:
    /// `verify_incremental_state` rebuilds the aggregates from the
    /// directory and the actual cache contents and panics on any
    /// divergence, so a bug in any delta-update site shrinks to a
    /// minimal op sequence.
    ///
    /// The directory is paged and frees a leaf once none of its lines is
    /// cached, so the same sequence also pins its footprint: after every
    /// step, the leaves it numbers are exactly the leaves holding a line
    /// some CPU's LLC holds.
    #[test]
    fn incremental_directory_matches_full_recompute(
        ops in prop::collection::vec(
            (0u8..6, 0u32..3, 0usize..2, 0u64..6000, 1u64..700),
            1..60,
        ),
    ) {
        // Tiny geometry (64-line LLC) so capacity evictions,
        // back-invalidations and cross-CPU steals happen constantly.
        let mut m = MemorySystem::new(MemoryConfig::tiny(3));
        let regions = [m.add_region("a", 4096), m.add_region("b", 8192)];
        let mut lines = BTreeSet::new();
        for &op in &ops {
            apply(&mut m, &regions, op);
            touched_lines(&m, &regions, op, &mut lines);
            m.verify_incremental_state();
            prop_assert_eq!(m.footprint().directory_leaves, cached_leaves(&m, &lines));
        }
    }

    /// Leaf recycling when a fill's victim shares the filled line's
    /// leaf: single-line reads, writes, code fetches and DMA writes from
    /// two CPUs at lines of 16 leaves that fall in only two of `tiny`'s
    /// 16 LLC sets. Each LLC then holds 8 of these lines, thinly spread
    /// over the leaves, so a fill often evicts the last cached line of
    /// its own leaf (a leaf spans more lines than the LLC has sets). The
    /// model of the test above holds after every step.
    #[test]
    fn fills_that_evict_their_own_leaf_keep_the_directory_exact(
        ops in prop::collection::vec((0u8..4, 0u32..2, 0u64..16, 0u64..8), 1..300),
    ) {
        let mut m = MemorySystem::new(MemoryConfig::tiny(2));
        let leaf = leaf_lines(&m);
        let regions = [m.add_region("leaves", 16 * leaf * 64)];
        let mut lines = BTreeSet::new();
        for &(kind, cpu, page, slot) in &ops {
            // Sets 0 and 1 only: the slot's way-row times the set count,
            // plus the set.
            let line = page * leaf + (slot / 2 * 16 + slot % 2) % leaf;
            let op = (kind, cpu, 0, line * 64, 64);
            apply(&mut m, &regions, op);
            touched_lines(&m, &regions, op, &mut lines);
            m.verify_incremental_state();
            prop_assert_eq!(m.footprint().directory_leaves, cached_leaves(&m, &lines));
        }
    }

    /// Fast-path exactness ([`assert_fast_paths_exact`]) under random
    /// reads, writes, code fetches and DMA writes. Data touches dominate the mix,
    /// and offsets and lengths come from small sets, so exact spans repeat
    /// and small regions fit the L1: that is what engages the fast paths
    /// on the default side and replaces live entries on the single-entry
    /// side.
    #[test]
    fn summary_cache_capacity_is_unobservable(
        ops in prop::collection::vec(
            (0u8..9, 0u32..2, 0usize..4, 0u64..4, 0usize..4),
            1..200,
        ),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(kind, cpu, rix, off, len)| {
                // 0..=5 data touches (odd kinds write), then one each of
                // code fetch, DMA write and TLB flush.
                let kind = if kind < 6 { kind % 2 } else { kind - 4 };
                (kind, cpu, rix, off * 64, [64u64, 100, 256, 700][len])
            })
            .collect();
        assert_fast_paths_exact(&oracle_config(), &[64, 192, 256, 4096], &ops);
    }

    /// The oracle for touches and fetches that run past their region's
    /// end: a page-sized region followed by a zero-size one, a region 64
    /// bytes short of its page followed by a one-line region, and a last
    /// region whose touches run past the footprint. Offsets reach each
    /// region's last lines, so a span's tail lands in the pages of the
    /// regions that follow, whose leaves a walk of another region takes
    /// and whose claims its bumps must reach.
    #[test]
    fn summary_cache_capacity_is_unobservable_past_region_ends(
        ops in prop::collection::vec(
            (0u8..10, 0u32..2, 0usize..6, 0u64..4, 0usize..4),
            1..200,
        ),
    ) {
        let sizes = [4096u64, 0, 4032, 64, 192, 256];
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(kind, cpu, rix, off, len)| {
                let kind = if kind < 5 { kind % 2 } else { [2, 2, 2, 3, 5][kind as usize - 5] };
                let size = sizes[rix].max(1);
                let off = [0, 64, size.saturating_sub(64), size.saturating_sub(192)][off as usize];
                (kind, cpu, rix, off, [64u64, 100, 256, 700][len])
            })
            .collect();
        assert_fast_paths_exact(&oracle_config(), &sizes, &ops);
    }

    /// The oracle for code fetches whose trace-cache victims have left
    /// the LLC: three small code regions share `tiny`'s 8-line trace
    /// cache while reads and writes stream a region twice the LLC's size
    /// through it, so a fetch's TC victim has often lost its LLC copy and
    /// its directory leaf (the TC is exempt from inclusion). The claim
    /// that recorded the victim's slot must see the loss by its tags.
    #[test]
    fn summary_cache_capacity_is_unobservable_when_tc_victims_left_the_llc(
        ops in prop::collection::vec(
            (0u8..4, 0u32..2, 0usize..3, 0u64..12, 0usize..4),
            1..200,
        ),
    ) {
        let sizes = [128u64, 192, 256, 8192];
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(kind, cpu, rix, off, len)| match kind {
                0 | 1 => (2, cpu, rix, (off % 2) * 64, [64u64, 128, 192, 256][len]),
                _ => (kind - 2, cpu, 3, off * 704, 700),
            })
            .collect();
        assert_fast_paths_exact(&oracle_config(), &sizes, &ops);
    }

    /// The oracle for DMA over recycled leaves: buffers in their own
    /// pages are read and written from two CPUs and DMA-written, which
    /// frees their leaves; the next page touched takes a freed leaf for
    /// another region, and a DMA over that page must withdraw the claims
    /// over the lines it invalidates.
    #[test]
    fn summary_cache_capacity_is_unobservable_over_recycled_leaves(
        ops in prop::collection::vec(
            (0u8..6, 0u32..2, 0usize..4, 0u64..4, 0usize..3),
            1..200,
        ),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(kind, cpu, rix, off, len)| {
                // Reads and writes, then DMA writes.
                let kind = [0, 1, 0, 1, 3, 3][kind as usize];
                (kind, cpu, rix, off * 64, [64u64, 128, 256][len])
            })
            .collect();
        assert_fast_paths_exact(&oracle_config(), &[256, 256, 4096, 192], &ops);
    }

    /// The oracle for owned write claims under other CPUs' fills: CPU0
    /// writes whole small regions, which claims them owned, and reads
    /// them; CPU1 reads and fetches single lines of them, which adds CPU1
    /// as a sharer under CPU0's claim, and sometimes writes one. A repeat
    /// write by CPU0 after CPU1's fill must take the walk and invalidate
    /// CPU1's copy: only the fill's generation bump can withdraw the
    /// claim, since CPU0's tags still hold every line.
    #[test]
    fn remote_fills_withdraw_owned_write_claims(
        ops in prop::collection::vec((0u8..6, 0usize..3, 0u64..4), 1..200),
    ) {
        let sizes = [64u64, 128, 256];
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(kind, rix, line)| {
                let (size, off) = (sizes[rix], line * 64 % sizes[rix]);
                match kind {
                    0 | 1 => (1, 0, rix, 0, size),
                    2 => (0, 0, rix, 0, size),
                    3 => (0, 1, rix, off, 64),
                    4 => (2, 1, rix, off, 64),
                    _ => (1, 1, rix, off, 64),
                }
            })
            .collect();
        assert_fast_paths_exact(&oracle_config(), &sizes, &ops);
    }

    /// The oracle for fills that run past a region's end into lines an
    /// owned claim holds: `a` fills its page, so a touch or fetch of
    /// `a` that starts in its last lines runs into `b`, whose lines CPU0
    /// claims by writing. CPU1's walks of `a` fill `b`'s lines under that
    /// claim; the fill's bump must reach `b`, the region holding the
    /// line, not `a`, the region walked.
    #[test]
    fn past_end_fills_withdraw_the_next_regions_owned_claims(
        ops in prop::collection::vec((0u8..7, 0u32..2, 0u64..3, 0usize..3), 1..200),
    ) {
        let sizes = [4096u64, 192];
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(kind, cpu, off, len)| match kind {
                0..=2 => (1, 0, 1, 0, 192),
                3 => (0, 0, 1, 0, 192),
                _ => {
                    // A read, a write or a fetch of `a` from its last
                    // lines, on either CPU, reaching 1–3 lines into `b`.
                    let kind = [0, 1, 2][kind as usize - 4];
                    (kind, cpu, 0, 4096 - 64 * (off + 1), [128u64, 192, 256][len])
                }
            })
            .collect();
        assert_fast_paths_exact(&oracle_config(), &sizes, &ops);
    }

    /// The oracle for claim slots that lose their line and get it back in
    /// place: with a direct-mapped L1, a line always refills the slot a
    /// claim recorded for it, so after CPU0's copy is evicted (a stream
    /// twice the LLC's size), invalidated (CPU1's write) or DMA-written,
    /// a later refill makes the claim's tags match again. Reads by CPU1
    /// in between leave it a sharer of the refilled line; a write replay
    /// of the old owned claim would then skip its invalidation.
    #[test]
    fn claim_slots_refilled_in_place_stay_exact(
        ops in prop::collection::vec((0u8..10, 0u32..2, 0usize..3, 0u64..3), 1..200),
    ) {
        let config = MemoryConfig {
            l1_assoc: 1,
            ..oracle_config()
        };
        let sizes = [128u64, 192, 8192];
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(kind, cpu, rix, off)| {
                let rix = rix % 2;
                let size = sizes[rix];
                match kind {
                    // Whole-region writes and reads: owned and read claims.
                    0..=2 => (1, cpu, rix, 0, size),
                    3 | 4 => (0, cpu, rix, 0, size),
                    // One line read, fetched or DMA-written.
                    5 => (0, cpu, rix, off * 64 % size, 64),
                    6 => (2, cpu, rix, off * 64 % size, 64),
                    7 => (3, cpu, rix, off * 64 % size, 64),
                    // The stream, which evicts every line of both LLCs.
                    _ => (kind % 2, cpu, 2, 0, 8192),
                }
            })
            .collect();
        assert_fast_paths_exact(&config, &sizes, &ops);
    }

    /// `add_regions_bulk` is identical to a loop of `add_region` calls:
    /// same `RegionId`s, names, bases, sizes, footprint, directory
    /// top-table length and leaf count, the region holding every page,
    /// and per-region table state — for arbitrary size sequences
    /// (including zero-size regions and the overlap case where a large
    /// region's cover runs past later small regions' pages), optionally
    /// on top of pre-existing incrementally-added regions. The two
    /// systems then run the same operations to identical results,
    /// directory leaves and layouts.
    #[test]
    fn bulk_region_allocation_matches_incremental(
        pre in prop::collection::vec(1u64..5000, 0..4),
        sizes in prop::collection::vec(0u64..40_000, 1..40),
        ops in prop::collection::vec(
            (0u8..6, 0u32..3, 0usize..40, 0u64..60_000, 1u64..3000),
            0..30,
        ),
    ) {
        let mut inc = MemorySystem::new(MemoryConfig::tiny(3));
        let mut bulk = MemorySystem::new(MemoryConfig::tiny(3));
        for (i, &s) in pre.iter().enumerate() {
            let a = inc.add_region(format!("pre{i}"), s);
            let b = bulk.add_region(format!("pre{i}"), s);
            prop_assert_eq!(a, b);
        }
        let mut plan = RegionPlan::with_capacity(sizes.len());
        let mut inc_ids = Vec::with_capacity(sizes.len());
        for (i, &s) in sizes.iter().enumerate() {
            inc_ids.push(inc.add_region(format!("r{i}.buf"), s));
            plan.add(RegionName::indexed("r", i as u32, "buf"), s);
        }
        let span = bulk.add_regions_bulk(plan);
        prop_assert_eq!(span.len(), sizes.len());
        for (i, &want) in inc_ids.iter().enumerate() {
            prop_assert_eq!(span.get(i), want);
            let (ri, rb) = (inc.regions().get(want), bulk.regions().get(want));
            prop_assert_eq!((ri.base(), ri.size()), (rb.base(), rb.size()), "region {} diverged", i);
            prop_assert_eq!(inc.regions().name(want), bulk.regions().name(want));
        }
        prop_assert_eq!(inc.regions().len(), bulk.regions().len());
        let footprint = inc.regions().footprint();
        prop_assert_eq!(footprint, bulk.regions().footprint());
        // Every page up to twice the footprint, so past the last region.
        let page = u64::from(inc.config().page_size);
        for addr in (0..2 * footprint).step_by(page as usize) {
            prop_assert_eq!(inc.regions().region_of(addr), bulk.regions().region_of(addr));
        }
        prop_assert_eq!(inc.construction_layout(), bulk.construction_layout());
        bulk.verify_incremental_state();
        // Ops only target non-empty regions.
        let live: Vec<RegionId> = inc_ids
            .iter()
            .copied()
            .filter(|&id| inc.regions().get(id).size() > 0)
            .collect();
        for &(kind, cpu, rix, off, len) in ops.iter().filter(|_| !live.is_empty()) {
            let op = (kind, cpu, rix % live.len(), off, len);
            prop_assert_eq!(apply(&mut inc, &live, op), apply(&mut bulk, &live, op));
        }
        // The loop's names are eager strings and the plan's interned, so
        // only the region tables' own bytes differ.
        let tables = |m: &MemorySystem| Footprint {
            region_bytes: 0,
            ..m.footprint()
        };
        prop_assert_eq!(tables(&inc), tables(&bulk));
        prop_assert_eq!(inc.construction_layout(), bulk.construction_layout());
        bulk.verify_incremental_state();
    }
}
