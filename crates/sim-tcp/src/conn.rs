//! Per-connection state: memory regions and the flow arena.
//!
//! Protocol state lives in [`FlowArena`], a structure-of-arrays arena
//! whose slot `s` is connection `s` ([`ConnectionId::index`]). One
//! simulated cell touches a handful of scalar fields per segment
//! (cursors, queue byte counts, in-flight counters) across every active
//! flow; splitting each field into its own dense array keeps those
//! accesses on a few hot cache lines instead of striding over
//! ~200-byte per-connection structs.

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
/// Field `x` of connection `c` is `x[c.index()]`; all arrays share one
/// length. Fields mirror the Linux state the model charges
/// for: socket receive queue, delayed-ACK counter, send-window
/// accounting, and the rolling slab/DMA cursors that decide which cache
/// lines each operation touches.
#[derive(Debug, Clone)]
pub(crate) struct FlowArena {
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
    ) {
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
        self.push_slot(regions, config);
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
            self.push_slot(regions, config);
        }
    }

    /// Appends one live slot with fresh protocol state.
    fn push_slot(&mut self, regions: ConnectionRegions, config: &StackConfig) {
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
    }

    /// Number of flows in the arena.
    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    /// Number of slots currently allocated (not on the free list).
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Pops a recycled slot and resets its protocol state for a new
    /// connection, returning the slot index.
    ///
    /// The connection's memory regions and the rolling slab/DMA cursors
    /// are deliberately *kept*: the slab allocator cycles buffers through
    /// the same arena across connections, so a recycled slot inherits the
    /// cache weather of its predecessor — the same churn the real
    /// allocator produces. Returns `None` when the free list is empty.
    pub(crate) fn alloc(&mut self, config: &StackConfig) -> Option<usize> {
        let s = self.free_list.pop()? as usize;
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
        Some(s)
    }

    /// Frees live slot `s`: pushes it on the free list.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub(crate) fn free(&mut self, s: usize) {
        self.states[s] = ConnState::Closed;
        self.free_list.push(s as u32);
        self.live -= 1;
    }

    /// Moves every slot onto the free list (server-mode initialisation:
    /// slots are pre-inserted for their memory regions, then allocated on
    /// SYN arrival). The LIFO free order is deterministic: highest slot
    /// pops first.
    pub(crate) fn free_all(&mut self) {
        self.free_list.clear();
        for s in 0..self.len() {
            self.states[s] = ConnState::Closed;
            self.free_list.push(s as u32);
        }
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::MemoryConfig;

    fn arena_with_one(conn: u32) -> (MemorySystem, FlowArena) {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let dma = mem.add_region("nic0.rx_buffers", 64 * 1024);
        let mut arena = FlowArena::with_capacity(1);
        arena.insert(
            ConnectionId::new(conn),
            &mut mem,
            &StackConfig::paper(),
            dma,
            65536,
        );
        (mem, arena)
    }

    #[test]
    fn regions_are_allocated_distinct() {
        let (mem, arena) = arena_with_one(3);
        let r = arena.regions[0];
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
        assert_eq!(mem.regions().name(r.tcp_ctx).render(), "conn3.tcp_ctx");
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
            let r = bulk_arena.regions[s];
            for id in [
                r.tcp_ctx,
                r.sock,
                r.skb_meta,
                r.skb_data,
                r.tx_app_buf,
                r.rx_app_buf,
            ] {
                let (a, b) = (mem_a.regions().get(id), mem_b.regions().get(id));
                assert_eq!((b.base(), b.size()), (a.base(), a.size()));
                assert_eq!(mem_b.regions().name(id), mem_a.regions().name(id));
            }
        }
        assert_eq!(mem_b.regions().len(), mem_a.regions().len());
        assert_eq!(mem_b.regions().footprint(), mem_a.regions().footprint());
        assert_eq!(
            mem_b
                .regions()
                .name(loop_arena.regions[2].skb_data)
                .render(),
            "conn2.skb_data"
        );
    }

    #[test]
    fn fresh_state_is_empty() {
        let (_mem, arena) = arena_with_one(0);
        assert!(arena.rx_queue[0].is_empty());
        assert_eq!(arena.rx_queue_bytes[0], 0);
        assert_eq!(arena.tx_inflight[0], 0);
        assert_eq!(arena.len(), 1);
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
    fn free_then_alloc_recycles_the_slot() {
        let (_mem, mut arena) = arena_with_slots(1);
        let config = StackConfig::paper();
        arena.rx_queue_bytes[0] = 77;
        arena.tx_unacked[0] = 3;
        arena.free(0);
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.alloc(&config), Some(0));
        assert_eq!(arena.rx_queue_bytes[0], 0, "protocol state resets");
        assert_eq!(arena.tx_unacked[0], 0);
        assert_eq!(arena.states[0], ConnState::Closed);
        assert_eq!(arena.live(), 1);
    }

    #[test]
    fn free_all_empties_the_arena_deterministically() {
        let (_mem, mut arena) = arena_with_slots(3);
        let config = StackConfig::paper();
        arena.free_all();
        assert_eq!(arena.live(), 0);
        // LIFO: highest slot pops first.
        assert_eq!(arena.alloc(&config), Some(2));
        assert_eq!(arena.alloc(&config), Some(1));
        assert_eq!(arena.alloc(&config), Some(0));
        assert!(arena.alloc(&config).is_none());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;

        const SLOTS: usize = 8;

        proptest! {
            /// Random alloc/free sequences against a model of the live
            /// set (a `HashSet` of slots) and of the free list (a LIFO
            /// stack): `alloc` must hand out the most recently freed
            /// slot, never a live one, and the live count must equal the
            /// model's size after every op.
            #[test]
            fn alloc_free_matches_hashmap_model(
                ops in prop::collection::vec((0u8..2, 0usize..SLOTS), 0..96),
            ) {
                let (_mem, mut arena) = arena_with_slots(SLOTS as u32);
                let config = StackConfig::paper();
                arena.free_all();
                let mut live: HashSet<usize> = HashSet::new();
                let mut free: Vec<usize> = (0..SLOTS).collect();
                for (op, pick) in ops {
                    match op {
                        0 => {
                            let got = arena.alloc(&config);
                            prop_assert_eq!(got, free.pop(), "LIFO reuse");
                            if let Some(slot) = got {
                                prop_assert!(live.insert(slot), "slot {} already live", slot);
                                prop_assert_eq!(arena.states[slot], ConnState::Closed);
                            }
                        }
                        _ => {
                            if live.is_empty() {
                                continue;
                            }
                            let mut slots: Vec<usize> = live.iter().copied().collect();
                            slots.sort_unstable();
                            let slot = slots[pick % slots.len()];
                            live.remove(&slot);
                            arena.free(slot);
                            free.push(slot);
                        }
                    }
                    prop_assert_eq!(arena.live(), live.len());
                }
            }
        }
    }
}
