//! Property-based tests for the cache/coherence invariants the machine
//! model depends on.

use std::collections::BTreeSet;

use proptest::prelude::*;
use sim_core::CpuId;
use sim_mem::{
    AccessKind, Cache, MemoryConfig, MemorySystem, RegionId, RegionName, RegionPlan, Tlb,
    DIR_LEAF_LINES,
};

/// One memory-system operation: `(kind, cpu, region, offset, bytes)`,
/// with `kind` 0 read, 1 write, 2 code fetch, 3 DMA write, 4 DMA read,
/// anything else a TLB flush.
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
        4 => {
            m.dma_read(r, off, len);
            [0; 5]
        }
        _ => {
            m.flush_tlbs(cpu);
            [0; 5]
        }
    }
}

/// Directory leaves holding a line `op` touches from a CPU (a data touch
/// or code fetch; DMA only clears lines some CPU touched before).
fn touched_leaves(m: &MemorySystem, regions: &[RegionId], op: Op, leaves: &mut BTreeSet<u64>) {
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
    for l in start / line..=(end - 1) / line {
        leaves.insert(l / DIR_LEAF_LINES as u64);
    }
}

proptest! {
    /// Hits + misses always equals accesses, and residency never exceeds
    /// capacity, for arbitrary access streams.
    #[test]
    fn cache_accounting_identities(lines in prop::collection::vec(0u64..512, 1..400)) {
        let mut c = Cache::new("t", 8, 4); // 32 lines
        for (i, &l) in lines.iter().enumerate() {
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            c.access(l, kind);
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
            c.access(l, AccessKind::Read);
            let again = c.access(l, AccessKind::Read);
            prop_assert!(again.hit, "immediate re-access of line {l} missed");
        }
    }

    /// Invalidate really removes: a subsequent access misses.
    #[test]
    fn cache_invalidate_forces_miss(line in 0u64..1024) {
        let mut c = Cache::new("t", 16, 4);
        c.access(line, AccessKind::Write);
        prop_assert!(c.contains(line));
        c.invalidate(line);
        prop_assert!(!c.contains(line));
        prop_assert!(!c.access(line, AccessKind::Read).hit);
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

    /// The incremental coherence directory (live `excl` exclusivity
    /// counts, sharer-bit ⟺ LLC-residency, inclusion) matches a naive
    /// full-recompute model directory after **every** step of an
    /// arbitrary operation sequence — reads, writes, instruction
    /// fetches, DMA invalidations and writebacks, issued by randomly
    /// steered CPUs against overlapping regions. Same idiom as the
    /// calendar-vs-heap and SPSC-vs-VecDeque model tests:
    /// `verify_incremental_state` rebuilds the aggregates from the
    /// directory and the actual cache contents and panics on any
    /// divergence, so a bug in any delta-update site shrinks to a
    /// minimal op sequence.
    ///
    /// The directory is paged, so the same sequence also pins its
    /// footprint: after every step, the leaves it holds are exactly the
    /// leaves of the lines some CPU has touched — a leaf is created by
    /// the first write to one of its lines and by nothing else.
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
        let mut leaves = BTreeSet::new();
        for &op in &ops {
            apply(&mut m, &regions, op);
            touched_leaves(&m, &regions, op, &mut leaves);
            m.verify_incremental_state();
            prop_assert_eq!(m.footprint().directory_leaves, leaves.len());
        }
    }

    /// Fast-path exactness oracle: the same random reads, writes, code
    /// fetches and DMA go through three systems, and every per-op result
    /// and every cache and TLB counter must agree:
    ///
    /// * the default system;
    /// * one whose summary cache holds a single entry per CPU, so nearly
    ///   every access evicts (the cache's capacity is unobservable);
    /// * the reference, which never replays a claim and walks every touch
    ///   and fetch line by line (the fast paths are exact).
    ///
    /// Data touches dominate the mix, and offsets and lengths come from
    /// small sets, so exact spans repeat and small regions fit the L1:
    /// that is what engages the fast paths on the default side and
    /// replaces live entries on the single-entry side.
    #[test]
    fn summary_cache_capacity_is_unobservable(
        ops in prop::collection::vec(
            (0u8..10, 0u32..2, 0usize..4, 0u64..4, 0usize..4),
            1..200,
        ),
    ) {
        let config = MemoryConfig {
            l1_size: 1024,
            l1_assoc: 4,
            ..MemoryConfig::tiny(2)
        };
        let mut systems = [
            MemorySystem::new(config.clone()),
            MemorySystem::with_single_summary_entry(config.clone()),
            MemorySystem::reference(config),
        ];
        let sizes = [64u64, 192, 256, 4096];
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
        for &(kind, cpu, rix, off, len) in &ops {
            // 0..=5 data touches (odd kinds write), then one each of code
            // fetch, DMA write, DMA read and TLB flush.
            let kind = if kind < 6 { kind % 2 } else { kind - 4 };
            let op = (kind, cpu, rix, off * 64, [64u64, 100, 256, 700][len]);
            let want = apply(fast, &regions, op);
            for m in others.iter_mut() {
                prop_assert_eq!(want, apply(m, &regions, op), "op {:?} diverged", op);
            }
        }
        for m in others.iter() {
            for cpu in (0..2).map(CpuId::new) {
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

    /// `add_regions_bulk` is byte-identical to a loop of `add_region`
    /// calls: same `RegionId`s, names, bases, sizes, footprint, directory
    /// top-table length and leaf count, full page ownership, and
    /// per-region table state — for arbitrary size sequences (including
    /// zero-size regions and the overlap case where a large region's
    /// cover runs past later small regions' pages), optionally on top of
    /// pre-existing incrementally-added regions. The two systems then run
    /// the same operations to identical results, directory leaves and
    /// layouts.
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
            prop_assert_eq!(ri, rb, "region {} diverged", i);
        }
        prop_assert_eq!(inc.regions().len(), bulk.regions().len());
        prop_assert_eq!(inc.regions().footprint(), bulk.regions().footprint());
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
        prop_assert_eq!(inc.footprint(), bulk.footprint());
        prop_assert_eq!(inc.construction_layout(), bulk.construction_layout());
        bulk.verify_incremental_state();
    }
}
