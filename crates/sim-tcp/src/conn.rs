//! Per-connection state: memory regions and the flow arena.
//!
//! Protocol state lives in [`FlowArena`], a structure-of-arrays arena
//! keyed by dense [`FlowId`] handles. One simulated cell touches a
//! handful of scalar fields per segment (cursors, queue byte counts,
//! in-flight counters) across every active flow; splitting each field
//! into its own dense array keeps those accesses on a few hot cache
//! lines instead of striding over ~200-byte per-connection structs, and
//! the generation stamp in the handle catches stale references the
//! moment an arena slot is ever reused.

use std::collections::VecDeque;

use sim_core::ConnectionId;
use sim_mem::{MemorySystem, RegionId, RegionName, RegionPlan};

use crate::config::StackConfig;
use crate::congestion::CongestionState;

/// The memory regions belonging to one connection — the cacheable state
/// whose locality affinity protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionRegions {
    /// TCP control block (tcp_opt, inet sock, hash chain).
    pub tcp_ctx: RegionId,
    /// Generic socket structure (wait queues, callbacks, accounting).
    pub sock: RegionId,
    /// skb metadata pool (headers, shinfo).
    pub skb_meta: RegionId,
    /// Kernel payload area for the send queue (skb data).
    pub skb_data: RegionId,
    /// The application's transmit buffer (ttcp reuses one buffer, so it
    /// stays cached — the paper's TX setup).
    pub tx_app_buf: RegionId,
    /// The application's receive buffer.
    pub rx_app_buf: RegionId,
    /// The NIC RX buffer region packets are DMA'd into (copy source on
    /// RX — always uncached).
    pub rx_dma_buf: RegionId,
}

/// A generation-stamped handle into the stack's flow arena (`FlowArena`).
///
/// The index is dense (slot `i` of every field array); the generation
/// must match the arena's current generation for that slot, so a handle
/// kept across a slot reuse panics instead of silently reading another
/// flow's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    index: u32,
    gen: u32,
}

impl FlowId {
    /// The dense slot index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.index as usize
    }
}

/// Per-connection lifecycle state.
///
/// The listener side (the ISSUE's LISTEN state) is not a per-flow state:
/// it lives in the stack's single [`crate::stack::ListenSocket`]. A slot
/// on the free list is in `Closed`; `alloc` hands it out still `Closed`
/// until the SYN is processed in the softirq.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// No connection: the slot is free or the handshake hasn't started.
    Closed,
    /// SYN received and SYN-ACK sent; waiting in the accept backlog.
    SynRcvd,
    /// Fully open — the data fast path.
    Established,
    /// FIN sent, waiting for the peer's FIN-ACK before the slot is
    /// recycled.
    FinWait,
}

/// Structure-of-arrays arena of per-flow protocol state.
///
/// Field `x` of flow `f` is `x[f]` with `f = arena.slot(id)`; all arrays
/// share one length. Fields mirror the Linux state the model charges
/// for: socket receive queue, delayed-ACK counter, send-window
/// accounting, and the rolling slab/DMA cursors that decide which cache
/// lines each operation touches.
#[derive(Debug, Clone)]
pub(crate) struct FlowArena {
    /// Current generation of each slot (bumped on reuse).
    generations: Vec<u32>,
    pub ids: Vec<ConnectionId>,
    pub regions: Vec<ConnectionRegions>,
    /// Frames in the socket receive queue (payload bytes each), with the
    /// DMA-buffer offset they point at.
    pub rx_queue: Vec<VecDeque<(u32, u64)>>,
    /// Total bytes in the receive queue.
    pub rx_queue_bytes: Vec<u64>,
    /// Data segments received since the last ACK we sent.
    pub frames_since_ack: Vec<u32>,
    /// TX segments in flight (sent, not yet completed/acked).
    pub tx_inflight: Vec<u32>,
    /// TX segments sent but not yet cumulatively ACKed by the peer —
    /// what the congestion window binds on.
    pub tx_unacked: Vec<u32>,
    /// Rolling offset into the skb data area (send queue recycling).
    pub skb_data_cursor: Vec<u64>,
    /// Rolling skb-metadata allocation cursor (advances 256 B per skb).
    pub meta_alloc_cursor: Vec<u64>,
    /// Rolling skb-metadata free cursor — trails the allocation cursor,
    /// so frees touch the same slots allocations wrote (the cross-CPU
    /// transfer when allocation and free happen on different CPUs).
    pub meta_free_cursor: Vec<u64>,
    /// Rolling offset into the RX DMA buffer area.
    pub rx_dma_cursor: Vec<u64>,
    /// Bytes the application has consumed on RX.
    pub rx_bytes_delivered: Vec<u64>,
    /// Bytes the application has submitted on TX.
    pub tx_bytes_submitted: Vec<u64>,
    /// Reno congestion control for the send side.
    pub congestion: Vec<CongestionState>,
    /// Lifecycle state of each slot (see [`ConnState`]).
    pub states: Vec<ConnState>,
    /// Recycled slot indices available for [`FlowArena::alloc`] (LIFO).
    free_list: Vec<u32>,
    /// Slots currently holding a live connection (not on the free list).
    live: usize,
}

impl FlowArena {
    pub(crate) fn with_capacity(n: usize) -> Self {
        FlowArena {
            generations: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            regions: Vec::with_capacity(n),
            rx_queue: Vec::with_capacity(n),
            rx_queue_bytes: Vec::with_capacity(n),
            frames_since_ack: Vec::with_capacity(n),
            tx_inflight: Vec::with_capacity(n),
            tx_unacked: Vec::with_capacity(n),
            skb_data_cursor: Vec::with_capacity(n),
            meta_alloc_cursor: Vec::with_capacity(n),
            meta_free_cursor: Vec::with_capacity(n),
            rx_dma_cursor: Vec::with_capacity(n),
            rx_bytes_delivered: Vec::with_capacity(n),
            tx_bytes_submitted: Vec::with_capacity(n),
            congestion: Vec::with_capacity(n),
            states: Vec::with_capacity(n),
            free_list: Vec::new(),
            live: 0,
        }
    }

    /// The six per-flow region `(suffix, size)` requests, in the exact
    /// order [`insert`](Self::insert) has always allocated them — the
    /// bulk slab path replays this same sequence.
    fn region_requests(config: &StackConfig, max_message: u64) -> [(&'static str, u64); 6] {
        let app_buf = max_message.max(4096);
        [
            ("tcp_ctx", config.tcp_ctx_bytes),
            ("sock", config.sock_bytes),
            ("skb_meta", config.skb_meta_bytes),
            ("skb_data", config.skb_data_bytes),
            ("tx_app_buf", app_buf),
            ("rx_app_buf", app_buf),
        ]
    }

    /// Allocates the connection's memory regions and appends a fresh slot
    /// with empty protocol state.
    ///
    /// The production path is [`provision_all`](Self::provision_all);
    /// this single-flow form is the reference implementation the
    /// bulk-vs-loop equivalence test compares against.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn insert(
        &mut self,
        id: ConnectionId,
        mem: &mut MemorySystem,
        config: &StackConfig,
        rx_dma_buf: RegionId,
        max_message: u64,
    ) -> FlowId {
        let conn = id.index() as u32;
        let [tcp_ctx, sock, skb_meta, skb_data, tx_app_buf, rx_app_buf] =
            Self::region_requests(config, max_message).map(|(suffix, size)| {
                mem.add_region(RegionName::indexed("conn", conn, suffix), size)
            });
        let regions = ConnectionRegions {
            tcp_ctx,
            sock,
            skb_meta,
            skb_data,
            tx_app_buf,
            rx_app_buf,
            rx_dma_buf,
        };
        self.push_slot(id, regions, config)
    }

    /// Pre-provisions `conn_dma.len()` connection slots in one pass: the
    /// per-flow regions are carved out of simulated memory as a single
    /// contiguous strided slab (six regions per flow, flow-major — the
    /// exact allocation order an [`insert`](Self::insert) loop produces,
    /// so region ids, names, and bases are bit-identical), then every
    /// slot is appended with fresh protocol state. Churn-mode
    /// `alloc`/`free` recycles these slots and never allocates regions
    /// at runtime.
    pub(crate) fn provision_all(
        &mut self,
        mem: &mut MemorySystem,
        config: &StackConfig,
        conn_dma: &[RegionId],
        max_message: u64,
    ) {
        let requests = Self::region_requests(config, max_message);
        let mut plan = RegionPlan::with_capacity(requests.len() * conn_dma.len());
        for conn in 0..conn_dma.len() as u32 {
            for &(suffix, size) in &requests {
                plan.add(RegionName::indexed("conn", conn, suffix), size);
            }
        }
        let slab = mem.add_regions_bulk(plan);
        for (i, &rx_dma_buf) in conn_dma.iter().enumerate() {
            let stride = requests.len() * i;
            let regions = ConnectionRegions {
                tcp_ctx: slab.get(stride),
                sock: slab.get(stride + 1),
                skb_meta: slab.get(stride + 2),
                skb_data: slab.get(stride + 3),
                tx_app_buf: slab.get(stride + 4),
                rx_app_buf: slab.get(stride + 5),
                rx_dma_buf,
            };
            self.push_slot(ConnectionId::new(i as u32), regions, config);
        }
    }

    /// Appends one live slot with fresh protocol state.
    fn push_slot(
        &mut self,
        id: ConnectionId,
        regions: ConnectionRegions,
        config: &StackConfig,
    ) -> FlowId {
        let index = self.ids.len() as u32;
        self.generations.push(0);
        self.ids.push(id);
        self.regions.push(regions);
        self.rx_queue.push(VecDeque::new());
        self.rx_queue_bytes.push(0);
        self.frames_since_ack.push(0);
        self.tx_inflight.push(0);
        self.tx_unacked.push(0);
        self.skb_data_cursor.push(0);
        self.meta_alloc_cursor.push(0);
        self.meta_free_cursor.push(0);
        self.rx_dma_cursor.push(0);
        self.rx_bytes_delivered.push(0);
        self.tx_bytes_submitted.push(0);
        self.congestion
            .push(CongestionState::new(config.initial_cwnd, config.max_cwnd));
        self.states.push(ConnState::Established);
        self.live += 1;
        FlowId { index, gen: 0 }
    }

    /// Number of flows in the arena.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Number of slots currently allocated (not on the free list).
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Pops a recycled slot and resets its protocol state for a new
    /// connection, returning the slot's current-generation handle.
    ///
    /// The connection's memory regions and the rolling slab/DMA cursors
    /// are deliberately *kept*: the slab allocator cycles buffers through
    /// the same arena across connections, so a recycled slot inherits the
    /// cache weather of its predecessor — the same churn the real
    /// allocator produces. Returns `None` when the free list is empty.
    pub(crate) fn alloc(&mut self, config: &StackConfig) -> Option<FlowId> {
        let index = self.free_list.pop()?;
        let s = index as usize;
        self.rx_queue[s].clear();
        self.rx_queue_bytes[s] = 0;
        self.frames_since_ack[s] = 0;
        self.tx_inflight[s] = 0;
        self.tx_unacked[s] = 0;
        self.rx_bytes_delivered[s] = 0;
        self.tx_bytes_submitted[s] = 0;
        self.congestion[s] = CongestionState::new(config.initial_cwnd, config.max_cwnd);
        self.states[s] = ConnState::Closed;
        self.live += 1;
        Some(FlowId {
            index,
            gen: self.generations[s],
        })
    }

    /// Frees a live slot: bumps the generation (so `flow` and any copies
    /// of it go stale) and pushes the slot on the free list.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is already stale.
    pub(crate) fn free(&mut self, flow: FlowId) {
        let s = self.slot(flow);
        self.generations[s] = self.generations[s].wrapping_add(1);
        self.states[s] = ConnState::Closed;
        self.free_list.push(s as u32);
        self.live -= 1;
    }

    /// Moves every slot onto the free list (server-mode initialisation:
    /// slots are pre-inserted for their memory regions, then allocated on
    /// SYN arrival). Generations bump so pre-existing handles go stale.
    /// The LIFO free order is deterministic: highest slot pops first.
    pub(crate) fn free_all(&mut self) {
        self.free_list.clear();
        for s in 0..self.ids.len() {
            self.generations[s] = self.generations[s].wrapping_add(1);
            self.states[s] = ConnState::Closed;
            self.free_list.push(s as u32);
        }
        self.live = 0;
    }

    /// The current-generation handle for the dense connection `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub(crate) fn handle(&self, conn: ConnectionId) -> FlowId {
        let index = conn.index();
        FlowId {
            index: index as u32,
            gen: self.generations[index],
        }
    }

    /// Resolves a handle to its slot index, checking the generation.
    ///
    /// # Panics
    ///
    /// Panics if the handle's generation doesn't match the slot's (the
    /// slot was reused since the handle was taken).
    #[inline]
    pub(crate) fn slot(&self, flow: FlowId) -> usize {
        let index = flow.index as usize;
        assert_eq!(
            self.generations[index], flow.gen,
            "stale FlowId: slot {index} was reused"
        );
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::MemoryConfig;

    fn arena_with_one(conn: u32) -> (MemorySystem, FlowArena, FlowId) {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let dma = mem.add_region("nic0.rx_buffers", 64 * 1024);
        let mut arena = FlowArena::with_capacity(1);
        let flow = arena.insert(
            ConnectionId::new(conn),
            &mut mem,
            &StackConfig::paper(),
            dma,
            65536,
        );
        (mem, arena, flow)
    }

    #[test]
    fn regions_are_allocated_distinct() {
        let (mem, arena, flow) = arena_with_one(3);
        let r = arena.regions[arena.slot(flow)];
        let all = [
            r.tcp_ctx,
            r.sock,
            r.skb_meta,
            r.skb_data,
            r.tx_app_buf,
            r.rx_app_buf,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(mem.regions().get(r.tcp_ctx).name(), "conn3.tcp_ctx");
    }

    #[test]
    fn provision_all_matches_insert_loop() {
        let config = StackConfig::paper();
        let (mut mem_a, mut mem_b) = (
            MemorySystem::new(MemoryConfig::paper_sut(2)),
            MemorySystem::new(MemoryConfig::paper_sut(2)),
        );
        let dma_a: Vec<_> = (0..3)
            .map(|i| mem_a.add_region(format!("nic{i}.rx_buffers"), 64 * 1024))
            .collect();
        let dma_b: Vec<_> = (0..3)
            .map(|i| mem_b.add_region(format!("nic{i}.rx_buffers"), 64 * 1024))
            .collect();
        let mut loop_arena = FlowArena::with_capacity(3);
        for (i, &dma) in dma_a.iter().enumerate() {
            loop_arena.insert(ConnectionId::new(i as u32), &mut mem_a, &config, dma, 65536);
        }
        let mut bulk_arena = FlowArena::with_capacity(3);
        bulk_arena.provision_all(&mut mem_b, &config, &dma_b, 65536);
        assert_eq!(bulk_arena.len(), loop_arena.len());
        assert_eq!(bulk_arena.live(), loop_arena.live());
        for s in 0..3 {
            assert_eq!(bulk_arena.regions[s], loop_arena.regions[s]);
            assert_eq!(bulk_arena.ids[s], loop_arena.ids[s]);
            let r = bulk_arena.regions[s];
            for id in [
                r.tcp_ctx,
                r.sock,
                r.skb_meta,
                r.skb_data,
                r.tx_app_buf,
                r.rx_app_buf,
            ] {
                assert_eq!(mem_b.regions().get(id), mem_a.regions().get(id));
            }
        }
        assert_eq!(mem_b.regions().len(), mem_a.regions().len());
        assert_eq!(mem_b.regions().footprint(), mem_a.regions().footprint());
        assert_eq!(
            mem_b.regions().get(loop_arena.regions[2].skb_data).name(),
            "conn2.skb_data"
        );
    }

    #[test]
    fn fresh_state_is_empty() {
        let (_mem, arena, flow) = arena_with_one(0);
        let s = arena.slot(flow);
        assert!(arena.rx_queue[s].is_empty());
        assert_eq!(arena.rx_queue_bytes[s], 0);
        assert_eq!(arena.tx_inflight[s], 0);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn handles_round_trip_through_slots() {
        let (_mem, arena, flow) = arena_with_one(0);
        assert_eq!(arena.handle(ConnectionId::new(0)), flow);
        assert_eq!(flow.index(), 0);
        assert_eq!(arena.slot(flow), 0);
    }

    #[test]
    #[should_panic(expected = "stale FlowId")]
    fn stale_generation_is_rejected() {
        let (_mem, mut arena, flow) = arena_with_one(0);
        // Simulate a slot reuse: bump the generation behind the handle.
        arena.generations[0] += 1;
        let _ = arena.slot(flow);
    }

    fn arena_with_slots(n: u32) -> (MemorySystem, FlowArena) {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let dma = mem.add_region("nic0.rx_buffers", 64 * 1024);
        let mut arena = FlowArena::with_capacity(n as usize);
        for i in 0..n {
            arena.insert(
                ConnectionId::new(i),
                &mut mem,
                &StackConfig::paper(),
                dma,
                4096,
            );
        }
        (mem, arena)
    }

    #[test]
    fn alloc_fails_when_no_slot_is_free() {
        let (_mem, mut arena) = arena_with_slots(2);
        // insert() leaves every slot live; nothing to alloc.
        assert!(arena.alloc(&StackConfig::paper()).is_none());
        assert_eq!(arena.live(), 2);
    }

    #[test]
    fn free_then_alloc_recycles_with_bumped_generation() {
        let (_mem, mut arena) = arena_with_slots(1);
        let config = StackConfig::paper();
        let old = arena.handle(ConnectionId::new(0));
        arena.rx_queue_bytes[0] = 77;
        arena.tx_unacked[0] = 3;
        arena.free(old);
        assert_eq!(arena.live(), 0);
        let fresh = arena.alloc(&config).expect("one slot free");
        assert_eq!(fresh.index(), 0);
        assert_ne!(fresh, old, "recycled handle must carry a new generation");
        assert_eq!(arena.slot(fresh), 0);
        assert_eq!(arena.rx_queue_bytes[0], 0, "protocol state resets");
        assert_eq!(arena.tx_unacked[0], 0);
        assert_eq!(arena.states[0], ConnState::Closed);
        assert_eq!(arena.live(), 1);
    }

    #[test]
    #[should_panic(expected = "stale FlowId")]
    fn freed_handle_is_stale() {
        let (_mem, mut arena) = arena_with_slots(1);
        let old = arena.handle(ConnectionId::new(0));
        arena.free(old);
        let _ = arena.slot(old);
    }

    #[test]
    fn free_all_empties_the_arena_deterministically() {
        let (_mem, mut arena) = arena_with_slots(3);
        let config = StackConfig::paper();
        arena.free_all();
        assert_eq!(arena.live(), 0);
        // LIFO: highest slot pops first.
        assert_eq!(arena.alloc(&config).unwrap().index(), 2);
        assert_eq!(arena.alloc(&config).unwrap().index(), 1);
        assert_eq!(arena.alloc(&config).unwrap().index(), 0);
        assert!(arena.alloc(&config).is_none());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        const SLOTS: usize = 8;

        proptest! {
            /// Satellite: random alloc/free sequences against a
            /// HashMap<slot, FlowId> model of the live set. Recycled
            /// slots must hand out a different generation than the
            /// handle they invalidated, the live count must equal the
            /// model's size after every op, and every live handle must
            /// keep resolving to its slot.
            #[test]
            fn alloc_free_matches_hashmap_model(
                ops in prop::collection::vec((0u8..2, 0usize..SLOTS), 0..96),
            ) {
                let (_mem, mut arena) = arena_with_slots(SLOTS as u32);
                let config = StackConfig::paper();
                arena.free_all();
                let mut model: HashMap<usize, FlowId> = HashMap::new();
                let mut retired: Vec<FlowId> = Vec::new();
                for (op, pick) in ops {
                    match op {
                        0 => match arena.alloc(&config) {
                            Some(flow) => {
                                prop_assert!(model.len() < SLOTS);
                                let slot = flow.index();
                                prop_assert!(!model.contains_key(&slot));
                                if let Some(old) = retired.iter().find(|r| r.index() == slot) {
                                    prop_assert_ne!(
                                        *old, flow,
                                        "recycled slot must bump generation"
                                    );
                                }
                                model.insert(slot, flow);
                            }
                            None => prop_assert_eq!(model.len(), SLOTS),
                        },
                        _ => {
                            if model.is_empty() {
                                continue;
                            }
                            let mut live: Vec<usize> = model.keys().copied().collect();
                            live.sort_unstable();
                            let slot = live[pick % live.len()];
                            let flow = model.remove(&slot).unwrap();
                            arena.free(flow);
                            retired.push(flow);
                        }
                    }
                    prop_assert_eq!(arena.live(), model.len());
                    for (&slot, &flow) in &model {
                        prop_assert_eq!(arena.slot(flow), slot);
                    }
                }
                // Every retired handle is stale: its generation no longer
                // matches the slot's.
                for old in retired {
                    prop_assert_ne!(arena.generations[old.index()], old.gen);
                }
            }
        }
    }
}
