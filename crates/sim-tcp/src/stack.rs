//! The TCP stack executor.

use serde::{Deserialize, Serialize};
use sim_core::{ConnectionId, IrqVector, Result, SimError, SimRng};
use sim_cpu::{Core, DataTouch, PerfCounters, WorkItem};
use sim_mem::{MemorySystem, RegionId};
use sim_net::wire;
use sim_os::SpinLock;
use sim_prof::{FuncId, FunctionRegistry, ProfScratch, Profiler};

use crate::bin::Bin;
use crate::config::{FuncCost, StackConfig};
use crate::conn::{ConnState, ConnectionRegions, FlowArena};

/// Execution context threaded through every stack operation: the CPU the
/// code runs on, the coherent memory system, the profiler receiving
/// attribution, and the deterministic RNG.
///
/// Per-function counter deltas are batched in an internal [`ProfScratch`]
/// and flushed into the profiler when the context is dropped — i.e. at
/// the end of the episode (function-exit/context-switch boundary).
/// Because the context holds the profiler `&mut`, the borrow checker
/// guarantees no profiler read can happen before that flush.
#[derive(Debug)]
pub struct ExecCtx<'a> {
    /// The core executing the code.
    pub core: &'a mut Core,
    /// The machine's memory system.
    pub mem: &'a mut MemorySystem,
    /// The profiler receiving per-function attribution.
    pub prof: &'a mut Profiler,
    /// Deterministic randomness (lock contention draws, etc.).
    pub rng: &'a mut SimRng,
    scratch: ProfScratch,
}

impl<'a> ExecCtx<'a> {
    /// A context executing on `core`, attributing to `prof`.
    #[must_use]
    pub fn new(
        core: &'a mut Core,
        mem: &'a mut MemorySystem,
        prof: &'a mut Profiler,
        rng: &'a mut SimRng,
    ) -> Self {
        let scratch = ProfScratch::new(core.id());
        ExecCtx {
            core,
            mem,
            prof,
            rng,
            scratch,
        }
    }

    /// Batches `delta` for `func` on this context's CPU.
    fn record(&mut self, func: FuncId, delta: &PerfCounters) {
        self.scratch.note(self.prof, func, delta);
    }
}

impl Drop for ExecCtx<'_> {
    fn drop(&mut self) {
        self.scratch.flush(self.prof);
    }
}

/// Outcome of processing a batch of received frames in the bottom half.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RxBatchOutcome {
    /// Pure ACK segments generated (already charged, ready for the NIC).
    pub acks_sent: u32,
    /// Cycles consumed by the whole batch.
    pub cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct FnIds {
    system_call: FuncId,
    sock_write: FuncId,
    sock_read: FuncId,
    wake_up: FuncId,
    tcp_sendmsg: FuncId,
    tcp_transmit_skb: FuncId,
    tcp_v4_rcv: FuncId,
    tcp_rcv_established: FuncId,
    tcp_select_window: FuncId,
    tcp_connect: FuncId,
    tcp_retransmit: FuncId,
    tcp_close: FuncId,
    alloc_skb: FuncId,
    kfree_skb: FuncId,
    skb_queue: FuncId,
    csum_copy_from_user: FuncId,
    copy_to_user: FuncId,
    e1000_xmit: FuncId,
    e1000_clean_tx: FuncId,
    e1000_clean_rx: FuncId,
    lock_section: FuncId,
    do_gettimeofday: FuncId,
    timestamp_fast: FuncId,
    mod_timer: FuncId,
}

/// Function ids for the server-side lifecycle path. Registered *after*
/// every pre-existing symbol (including the per-vector IRQ handlers) so
/// that all legacy [`FuncId`] indices — and therefore every existing
/// sweep digest — are unchanged.
#[derive(Debug, Clone, Copy)]
struct LifecycleFnIds {
    tcp_conn_request: FuncId,
    tcp_accept: FuncId,
    tcp_fin: FuncId,
}

/// The single listening socket of a server-mode stack (the state machine's
/// LISTEN state). Per-flow states live in the arena ([`ConnState`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ListenSocket {
    /// Maximum connections allowed to wait in the accept backlog.
    pub capacity: u32,
    /// Connections currently in [`ConnState::SynRcvd`] awaiting accept.
    pub in_backlog: u32,
}

/// Outcome of SYN processing in the softirq.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SynOutcome {
    /// The connection entered the accept backlog (SYN-ACK sent). `false`
    /// means the backlog was full and the SYN was dropped.
    pub queued: bool,
    /// Cycles consumed.
    pub cycles: u64,
}

/// The modelled TCP/IP stack.
///
/// Owns the function registry (symbol table), per-function code regions,
/// per-connection state and the per-connection socket locks. The machine
/// model sequences calls to the path stages; each stage executes its
/// functions on the caller's [`Core`] and attributes events through the
/// caller's [`Profiler`].
#[derive(Debug)]
pub struct TcpStack {
    config: StackConfig,
    registry: FunctionRegistry,
    ids: FnIds,
    /// Code region per function, indexed by `FuncId::index()` (function
    /// registration is dense and sequential, so this is a direct lookup
    /// on the per-call hot path instead of a hash).
    code: Vec<RegionId>,
    /// IRQ-handler function per vector, indexed by `IrqVector::index()`
    /// (vectors are small integers; a dense table turns the per-interrupt
    /// lookup into an array load instead of a hash).
    irq_funcs: Vec<Option<FuncId>>,
    lifecycle: LifecycleFnIds,
    flows: FlowArena,
    locks: Vec<SpinLock>,
    listen: Option<ListenSocket>,
}

impl TcpStack {
    /// Builds the stack: registers every function (including one IRQ
    /// handler symbol per vector in `irq_vectors`), allocates code
    /// regions and per-connection state.
    ///
    /// `conn_dma` maps each connection to the NIC RX-buffer region its
    /// packets are DMA'd into; `max_message` sizes the application
    /// buffers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration fails
    /// validation or no connections are given.
    pub fn new(
        config: StackConfig,
        mem: &mut MemorySystem,
        conn_dma: &[RegionId],
        irq_vectors: &[IrqVector],
        max_message: u64,
    ) -> Result<Self> {
        config.validate()?;
        if conn_dma.is_empty() {
            return Err(SimError::config("need at least one connection"));
        }
        let mut registry = FunctionRegistry::new();
        let mut code = Vec::new();

        fn reg(
            registry: &mut FunctionRegistry,
            code: &mut Vec<RegionId>,
            mem: &mut MemorySystem,
            name: &str,
            cost: &FuncCost,
        ) -> FuncId {
            let id = registry.register(name, cost.bin.label());
            let region = mem.add_region(format!("{name}.text"), cost.code_bytes);
            debug_assert_eq!(id.index(), code.len(), "function ids must be dense");
            code.push(region);
            id
        }

        let r = &mut registry;
        let c = &mut code;
        let ids = FnIds {
            system_call: reg(r, c, mem, "system_call", &config.system_call),
            sock_write: reg(r, c, mem, "sock_write", &config.sock_write),
            sock_read: reg(r, c, mem, "sock_read", &config.sock_read),
            wake_up: reg(r, c, mem, "__wake_up", &config.wake_up),
            tcp_sendmsg: reg(r, c, mem, "tcp_sendmsg", &config.tcp_sendmsg),
            tcp_transmit_skb: reg(r, c, mem, "tcp_transmit_skb", &config.tcp_transmit_skb),
            tcp_v4_rcv: reg(r, c, mem, "tcp_v4_rcv", &config.tcp_v4_rcv),
            tcp_rcv_established: reg(
                r,
                c,
                mem,
                "tcp_rcv_established",
                &config.tcp_rcv_established,
            ),
            tcp_select_window: reg(r, c, mem, "__tcp_select_window", &config.tcp_select_window),
            tcp_connect: reg(r, c, mem, "tcp_v4_connect", &config.tcp_connect),
            tcp_retransmit: reg(r, c, mem, "tcp_retransmit_skb", &config.tcp_retransmit),
            tcp_close: reg(r, c, mem, "tcp_close", &config.tcp_close),
            alloc_skb: reg(r, c, mem, "alloc_skb", &config.alloc_skb),
            kfree_skb: reg(r, c, mem, "kfree_skb", &config.kfree_skb),
            skb_queue: reg(r, c, mem, "skb_queue_tail", &config.skb_queue),
            csum_copy_from_user: reg(
                r,
                c,
                mem,
                "csum_and_copy_from_user",
                &config.csum_copy_from_user,
            ),
            copy_to_user: reg(r, c, mem, "__copy_to_user", &config.copy_to_user),
            e1000_xmit: reg(r, c, mem, "e1000_xmit_frame", &config.e1000_xmit),
            e1000_clean_tx: reg(r, c, mem, "e1000_clean_tx_irq", &config.e1000_clean_tx),
            e1000_clean_rx: reg(r, c, mem, "e1000_clean_rx_irq", &config.e1000_clean_rx),
            lock_section: {
                let id = r.register(".text.lock.tcp", Bin::Locks.label());
                let region = mem.add_region(".text.lock.tcp.text", 256);
                debug_assert_eq!(id.index(), c.len(), "function ids must be dense");
                c.push(region);
                id
            },
            do_gettimeofday: reg(r, c, mem, "do_gettimeofday", &config.do_gettimeofday),
            timestamp_fast: reg(r, c, mem, "tcp_time_stamp", &config.timestamp_fast),
            mod_timer: reg(r, c, mem, "mod_timer", &config.mod_timer),
        };

        let table = irq_vectors
            .iter()
            .map(|v| v.index())
            .max()
            .map_or(0, |m| m + 1);
        let mut irq_funcs = vec![None; table];
        for &vector in irq_vectors {
            let id = reg(r, c, mem, &vector.handler_name(), &config.irq_top_half);
            irq_funcs[vector.index()] = Some(id);
        }

        // One bulk slab call for all per-flow regions — bit-identical
        // layout to the old per-flow insert loop, without its O(flows)
        // incremental resizes and format allocations.
        let mut flows = FlowArena::with_capacity(conn_dma.len());
        flows.provision_all(mem, &config, conn_dma, max_message);
        let locks = flows
            .ids
            .iter()
            .map(|id| SpinLock::new(format!("conn{}.sk_lock", id.index())))
            .collect();

        // Lifecycle symbols last — after the per-connection regions, not
        // just after the legacy symbols: appending at the very end keeps
        // every legacy FuncId, RegionId *and address* numerically
        // identical to the pre-server stack, which is what keeps the
        // existing sweeps bit-identical.
        let lifecycle = LifecycleFnIds {
            tcp_conn_request: reg(r, c, mem, "tcp_v4_conn_request", &config.tcp_conn_request),
            tcp_accept: reg(r, c, mem, "inet_csk_accept", &config.tcp_accept),
            tcp_fin: reg(r, c, mem, "tcp_fin", &config.tcp_fin),
        };

        Ok(TcpStack {
            config,
            registry,
            ids,
            code,
            irq_funcs,
            lifecycle,
            flows,
            locks,
            listen: None,
        })
    }

    /// The symbol table (shared with the profiler's report layer).
    #[must_use]
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The stack configuration.
    #[must_use]
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Number of connections.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.flows.len()
    }

    /// Generation-checked arena slot of `conn` (panics if out of range
    /// or if the slot was reused under a stale handle).
    #[inline]
    fn slot_of(&self, conn: ConnectionId) -> usize {
        self.flows.slot(self.flows.handle(conn))
    }

    /// The memory regions of `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    #[must_use]
    pub fn regions(&self, conn: ConnectionId) -> ConnectionRegions {
        self.flows.regions[self.slot_of(conn)]
    }

    /// The IRQ-handler function registered for `vector`, if any.
    #[must_use]
    pub fn irq_func(&self, vector: IrqVector) -> Option<FuncId> {
        self.irq_funcs.get(vector.index()).copied().flatten()
    }

    /// Bytes currently queued in `conn`'s socket receive queue.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    #[must_use]
    pub fn rx_available(&self, conn: ConnectionId) -> u64 {
        self.flows.rx_queue_bytes[self.slot_of(conn)]
    }

    /// TX segments in flight (queued to the NIC, not yet completed).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    #[must_use]
    pub fn tx_inflight(&self, conn: ConnectionId) -> u32 {
        self.flows.tx_inflight[self.slot_of(conn)]
    }

    /// Segments the congestion window currently allows in flight for
    /// `conn` (Reno cwnd; the send buffer bounds it separately).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    #[must_use]
    pub fn tx_window(&self, conn: ConnectionId) -> u32 {
        self.flows.congestion[self.slot_of(conn)].window()
    }

    /// TX segments sent but not yet ACKed (what the congestion window
    /// binds on).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    #[must_use]
    pub fn tx_unacked(&self, conn: ConnectionId) -> u32 {
        self.flows.tx_unacked[self.slot_of(conn)]
    }

    /// The congestion-control state of `conn` (read-only view).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    #[must_use]
    pub fn congestion(&self, conn: ConnectionId) -> crate::congestion::CongestionState {
        self.flows.congestion[self.slot_of(conn)]
    }

    fn item(&self, cost: &FuncCost, func: FuncId, bytes: u64) -> WorkItem {
        let code = self.code[func.index()];
        WorkItem::new(cost.instructions(bytes))
            .base_cpi(cost.base_cpi)
            .fixed_cycles(cost.fixed_cycles)
            .code(code, cost.code_bytes)
            .branch_fraction(cost.branch_fraction)
            .mispredict_rate(cost.mispredict_rate)
    }

    fn run(&self, ctx: &mut ExecCtx<'_>, func: FuncId, item: WorkItem) -> u64 {
        let out = ctx.core.execute(ctx.mem, &item);
        ctx.record(func, &out.counters);
        out.cycles
    }

    /// Acquires `conn`'s socket lock: contended only when another CPU is
    /// concurrently in this connection's critical sections.
    fn acquire_lock(&mut self, ctx: &mut ExecCtx<'_>, conn: usize, cross_cpu: bool) -> u64 {
        let contended = cross_cpu && ctx.rng.chance(self.config.cross_cpu_contention);
        let acq = self.locks[conn].acquire(contended, ctx.rng);
        // The lock word lives in the socket structure; grabbing it is a
        // write (and the source of coherence ping-pong when contended).
        let sock = self.flows.regions[conn].sock;
        let touch_item = WorkItem::new(0)
            .code(self.code[self.ids.lock_section.index()], 128)
            .touch(DataTouch::write(sock, 0, 64));
        let touch_out = ctx.core.execute(ctx.mem, &touch_item);
        let delta = PerfCounters {
            instructions: acq.instructions,
            branches: acq.branches,
            br_mispredicts: acq.mispredicts,
            cycles: acq.cycles,
            ..PerfCounters::default()
        };
        ctx.core.apply_counters(&delta);
        ctx.record(self.ids.lock_section, &delta);
        ctx.record(self.ids.lock_section, &touch_out.counters);
        acq.cycles + touch_out.cycles
    }

    /// The application writes `bytes` to `conn` (one `ttcp` buffer).
    ///
    /// Models the full sendmsg path: the sockets interface re-entered
    /// once per wake-up episode, the TCP engine and buffer management per
    /// segment, the checksumming copy from the (cached) application
    /// buffer. Returns the segment payload sizes now queued for the
    /// driver ([`driver_tx`](Self::driver_tx)).
    ///
    /// `cross_cpu` says whether this connection's interrupt-side
    /// processing currently runs on a different CPU (drives lock
    /// contention).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub fn sendmsg(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        conn: ConnectionId,
        bytes: u64,
        cross_cpu: bool,
    ) -> Vec<u32> {
        let ci = self.slot_of(conn);
        let segments = wire::segments_for(bytes, self.config.mss);
        let episodes = (segments.len() as u32)
            .div_ceil(self.config.tx_wake_batch)
            .max(1);

        let regions = self.flows.regions[ci];
        // Interface, once per wake-up episode.
        for ep in 0..episodes {
            let item = self
                .item(&self.config.system_call, self.ids.system_call, 0)
                .touch(DataTouch::read(regions.sock, 0, 64));
            self.run(ctx, self.ids.system_call, item);
            let item = self
                .item(&self.config.sock_write, self.ids.sock_write, 0)
                .touch(DataTouch::read(regions.sock, 64, 192));
            self.run(ctx, self.ids.sock_write, item);
            if ep > 0 {
                // The writer blocked on buffer space and was woken; the
                // retransmit timer is re-armed when transmission resumes.
                let item = self
                    .item(&self.config.wake_up, self.ids.wake_up, 0)
                    .touch(DataTouch::read(regions.sock, 256, 128));
                self.run(ctx, self.ids.wake_up, item);
                let item = self
                    .item(&self.config.mod_timer, self.ids.mod_timer, 0)
                    .touch(DataTouch::write(regions.tcp_ctx, 1024, 64));
                self.run(ctx, self.ids.mod_timer, item);
            }
            self.acquire_lock(ctx, ci, cross_cpu);
        }
        // Cheap per-call timestamp bookkeeping.
        let item = self.item(&self.config.timestamp_fast, self.ids.timestamp_fast, 0);
        self.run(ctx, self.ids.timestamp_fast, item);

        let mut app_offset = 0u64;
        for &seg in &segments {
            let seg_bytes = u64::from(seg);
            // Engine: tcp_sendmsg per-segment slice. Reads the whole
            // control block (sequence state, window, congestion fields),
            // dirties the send-side half; walks the write queue (old skb
            // data, long cold).
            let cursor = self.flows.skb_data_cursor[ci];
            let walk = cursor.saturating_sub(8 * u64::from(self.config.mss));
            let item = self
                .item(&self.config.tcp_sendmsg, self.ids.tcp_sendmsg, seg_bytes)
                .touch(DataTouch::read(regions.tcp_ctx, 0, 1024))
                .touch(DataTouch::write(regions.tcp_ctx, 768, 512))
                .touch(DataTouch::read(regions.sock, 0, 128))
                .touch(DataTouch::read(regions.skb_data, walk, 64));
            self.run(ctx, self.ids.tcp_sendmsg, item);

            // Buffer management: allocate the skb (rolling slab slot).
            let meta_slot = self.flows.meta_alloc_cursor[ci] % self.config.skb_meta_bytes;
            self.flows.meta_alloc_cursor[ci] += 256;
            let item = self
                .item(&self.config.alloc_skb, self.ids.alloc_skb, seg_bytes)
                .touch(DataTouch::write(regions.skb_meta, meta_slot, 256));
            self.run(ctx, self.ids.alloc_skb, item);

            // Copy (with checksum) from the cached application buffer
            // into the send queue's skb data area. Sub-MSS writes come
            // from the small-object slab caches, which stay hot; full
            // segments cycle through the big (cold) slab arena.
            let data_window = if seg_bytes * 4 < u64::from(self.config.mss) {
                16 * 1024
            } else {
                self.config.skb_data_bytes
            };
            let item = self
                .item(
                    &self.config.csum_copy_from_user,
                    self.ids.csum_copy_from_user,
                    seg_bytes,
                )
                .touch(DataTouch::read(regions.tx_app_buf, app_offset, seg_bytes))
                .touch(DataTouch::write(
                    regions.skb_data,
                    cursor % data_window,
                    seg_bytes,
                ));
            self.run(ctx, self.ids.csum_copy_from_user, item);
            self.flows.skb_data_cursor[ci] = cursor + seg_bytes;

            // Socket buffer accounting.
            let item = self
                .item(&self.config.skb_queue, self.ids.skb_queue, seg_bytes)
                .touch(DataTouch::write(regions.sock, 512, 128));
            self.run(ctx, self.ids.skb_queue, item);

            // Engine: build and push the segment (header construction,
            // timestamps, route — reads broadly, dirties its own slice).
            let item = self
                .item(
                    &self.config.tcp_transmit_skb,
                    self.ids.tcp_transmit_skb,
                    seg_bytes,
                )
                .touch(DataTouch::read(regions.tcp_ctx, 0, 768))
                .touch(DataTouch::write(regions.tcp_ctx, 1280, 256))
                .touch(DataTouch::read(regions.skb_meta, meta_slot, 128));
            self.run(ctx, self.ids.tcp_transmit_skb, item);

            app_offset += seg_bytes;
        }

        self.flows.tx_inflight[ci] += segments.len() as u32;
        self.flows.tx_unacked[ci] += segments.len() as u32;
        self.flows.tx_bytes_submitted[ci] += bytes;
        segments
    }

    /// The driver hands one segment of `seg_bytes` to the NIC (touches
    /// the TX descriptor ring passed in).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub fn driver_tx(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        conn: ConnectionId,
        tx_ring: RegionId,
        ring_slot: u64,
        seg_bytes: u32,
    ) -> u64 {
        let regions = self.flows.regions[self.slot_of(conn)];
        let item = self
            .item(
                &self.config.e1000_xmit,
                self.ids.e1000_xmit,
                u64::from(seg_bytes),
            )
            .touch(DataTouch::write(tx_ring, ring_slot * 16, 16))
            .touch(DataTouch::read(regions.skb_meta, ring_slot % 64 * 256, 64));
        self.run(ctx, self.ids.e1000_xmit, item)
    }

    /// Transmit-completion processing: the driver reclaims `frames`
    /// descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub fn tx_complete(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        conn: ConnectionId,
        tx_ring: RegionId,
        frames: u32,
    ) -> u64 {
        let mut cycles = 0;
        for i in 0..frames {
            let item = self
                .item(&self.config.e1000_clean_tx, self.ids.e1000_clean_tx, 0)
                .touch(DataTouch::read(tx_ring, u64::from(i) * 16, 16));
            cycles += self.run(ctx, self.ids.e1000_clean_tx, item);
        }
        let ci = self.slot_of(conn);
        self.flows.tx_inflight[ci] = self.flows.tx_inflight[ci].saturating_sub(frames);
        cycles
    }

    /// An ACK for `acked_segments` arrives on `conn`: engine processing
    /// plus freeing the acked send-queue skbs.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub fn rx_ack(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        conn: ConnectionId,
        acked_segments: u32,
        cross_cpu: bool,
    ) -> u64 {
        let ci = self.slot_of(conn);
        let regions = self.flows.regions[ci];
        let mut cycles = self.acquire_lock(ctx, ci, cross_cpu);
        // ACK processing reads the whole control block and dirties the
        // receive/ack half of it (snd_una, rtt estimators, cwnd, window)
        // — the write set that ping-pongs against the sender context
        // when they run on different CPUs.
        let item = self
            .item(&self.config.tcp_v4_rcv, self.ids.tcp_v4_rcv, 0)
            .touch(DataTouch::read(regions.tcp_ctx, 0, 1536))
            .touch(DataTouch::write(regions.tcp_ctx, 0, 768));
        cycles += self.run(ctx, self.ids.tcp_v4_rcv, item);
        for _ in 0..acked_segments {
            // Free the oldest allocated skb slot (slab slots cycle).
            let slot = self.flows.meta_free_cursor[ci] % self.config.skb_meta_bytes;
            self.flows.meta_free_cursor[ci] += 256;
            let item = self
                .item(
                    &self.config.kfree_skb,
                    self.ids.kfree_skb,
                    u64::from(self.config.mss),
                )
                .touch(DataTouch::write(regions.skb_meta, slot, 128));
            cycles += self.run(ctx, self.ids.kfree_skb, item);
        }
        let item = self
            .item(&self.config.mod_timer, self.ids.mod_timer, 0)
            .touch(DataTouch::write(regions.tcp_ctx, 1024, 64));
        cycles += self.run(ctx, self.ids.mod_timer, item);
        self.flows.congestion[ci].on_ack(acked_segments);
        self.flows.tx_unacked[ci] = self.flows.tx_unacked[ci].saturating_sub(acked_segments);
        cycles
    }

    /// Performs an active open on `conn`: SYN construction and transmit,
    /// connection-hash insertion, timer arm — the "connection setup"
    /// partition the paper separates from the fast path. Resets the
    /// congestion window to its initial value (slow start restarts).
    ///
    /// Returns the cycles consumed.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub fn connect(&mut self, ctx: &mut ExecCtx<'_>, conn: ConnectionId, cross_cpu: bool) -> u64 {
        let ci = self.slot_of(conn);
        let regions = self.flows.regions[ci];
        let mut cycles = 0;
        let item = self
            .item(&self.config.system_call, self.ids.system_call, 0)
            .touch(DataTouch::read(regions.sock, 0, 64));
        cycles += self.run(ctx, self.ids.system_call, item);
        cycles += self.acquire_lock(ctx, ci, cross_cpu);
        let item = self
            .item(&self.config.tcp_connect, self.ids.tcp_connect, 0)
            .touch(DataTouch::write(regions.tcp_ctx, 0, 1536))
            .touch(DataTouch::write(regions.sock, 0, 512));
        cycles += self.run(ctx, self.ids.tcp_connect, item);
        // SYN goes out through the normal transmit path.
        let item = self
            .item(&self.config.tcp_transmit_skb, self.ids.tcp_transmit_skb, 0)
            .touch(DataTouch::read(regions.tcp_ctx, 0, 256));
        cycles += self.run(ctx, self.ids.tcp_transmit_skb, item);
        let item = self
            .item(&self.config.mod_timer, self.ids.mod_timer, 0)
            .touch(DataTouch::write(regions.tcp_ctx, 1024, 64));
        cycles += self.run(ctx, self.ids.mod_timer, item);
        self.flows.congestion[ci] =
            crate::congestion::CongestionState::new(self.config.initial_cwnd, self.config.max_cwnd);
        cycles
    }

    /// Tears down `conn` (FIN exchange, hash removal, timer cancel).
    /// Returns the cycles consumed.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub fn close(&mut self, ctx: &mut ExecCtx<'_>, conn: ConnectionId, cross_cpu: bool) -> u64 {
        let ci = self.slot_of(conn);
        let regions = self.flows.regions[ci];
        let mut cycles = self.acquire_lock(ctx, ci, cross_cpu);
        let item = self
            .item(&self.config.tcp_close, self.ids.tcp_close, 0)
            .touch(DataTouch::write(regions.tcp_ctx, 0, 768))
            .touch(DataTouch::write(regions.sock, 0, 256));
        cycles += self.run(ctx, self.ids.tcp_close, item);
        let item = self
            .item(&self.config.tcp_transmit_skb, self.ids.tcp_transmit_skb, 0)
            .touch(DataTouch::read(regions.tcp_ctx, 0, 256));
        cycles += self.run(ctx, self.ids.tcp_transmit_skb, item);
        cycles
    }

    /// The retransmission timer fired for `conn`: collapse the window
    /// (Reno timeout) and rebuild/retransmit one segment of `seg_bytes`.
    /// Returns the cycles consumed.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub fn retransmit_timeout(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        conn: ConnectionId,
        seg_bytes: u32,
        cross_cpu: bool,
    ) -> u64 {
        let ci = self.slot_of(conn);
        let regions = self.flows.regions[ci];
        self.flows.congestion[ci].on_timeout();
        let mut cycles = self.acquire_lock(ctx, ci, cross_cpu);
        let item = self
            .item(
                &self.config.tcp_retransmit,
                self.ids.tcp_retransmit,
                u64::from(seg_bytes),
            )
            .touch(DataTouch::read(regions.tcp_ctx, 0, 768))
            .touch(DataTouch::write(regions.tcp_ctx, 512, 256))
            .touch(DataTouch::read(
                regions.skb_data,
                self.flows.skb_data_cursor[ci],
                u64::from(seg_bytes),
            ));
        cycles += self.run(ctx, self.ids.tcp_retransmit, item);
        let item = self
            .item(&self.config.mod_timer, self.ids.mod_timer, 0)
            .touch(DataTouch::write(regions.tcp_ctx, 1024, 64));
        cycles += self.run(ctx, self.ids.mod_timer, item);
        cycles
    }

    /// The interrupt top half for `vector` (device acknowledge plus
    /// softirq raise). Returns the cycles consumed.
    ///
    /// # Panics
    ///
    /// Panics if `vector` was not registered at construction.
    pub fn irq_top_half(&mut self, ctx: &mut ExecCtx<'_>, vector: IrqVector) -> u64 {
        let func = self.irq_funcs[vector.index()].expect("vector registered at construction");
        let item = self.item(&self.config.irq_top_half, func, 0);
        self.run(ctx, func, item)
    }

    /// The RX bottom half processes `frames` (payload bytes each) for
    /// `conn`, queueing them on the socket and generating delayed ACKs.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub fn rx_bottom_half(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        conn: ConnectionId,
        frames: &[u32],
        rx_ring: RegionId,
        cross_cpu: bool,
    ) -> RxBatchOutcome {
        let ci = self.slot_of(conn);
        let regions = self.flows.regions[ci];
        let was_empty = self.flows.rx_queue_bytes[ci] == 0;
        let mut outcome = RxBatchOutcome::default();

        for (i, &frame_bytes) in frames.iter().enumerate() {
            let fb = u64::from(frame_bytes);
            // Driver: reclaim the (DMA-written, hence uncached) descriptor
            // and set up the skb around it (rolling slab slot).
            let meta_slot = self.flows.meta_alloc_cursor[ci] % self.config.skb_meta_bytes;
            self.flows.meta_alloc_cursor[ci] += 256;
            let item = self
                .item(&self.config.e1000_clean_rx, self.ids.e1000_clean_rx, fb)
                .touch(DataTouch::read(rx_ring, (i as u64) * 16, 16))
                .touch(DataTouch::write(regions.skb_meta, meta_slot, 256));
            outcome.cycles += self.run(ctx, self.ids.e1000_clean_rx, item);

            // Timers: timestamp comparison. Full-MSS frames take the
            // expensive do_gettimeofday path (I/O timer read).
            if frame_bytes >= self.config.mss {
                let item = self.item(&self.config.do_gettimeofday, self.ids.do_gettimeofday, 0);
                outcome.cycles += self.run(ctx, self.ids.do_gettimeofday, item);
            } else {
                let item = self.item(&self.config.timestamp_fast, self.ids.timestamp_fast, 0);
                outcome.cycles += self.run(ctx, self.ids.timestamp_fast, item);
            }

            // Locks: socket backlog lock, then the engine. Receive
            // processing reads the whole control block and dirties the
            // receive half (rcv_nxt, window, timestamps, SACK state).
            outcome.cycles += self.acquire_lock(ctx, ci, cross_cpu);
            let item = self
                .item(&self.config.tcp_v4_rcv, self.ids.tcp_v4_rcv, fb)
                .touch(DataTouch::read(regions.tcp_ctx, 0, 768))
                .touch(DataTouch::write(regions.tcp_ctx, 384, 128));
            outcome.cycles += self.run(ctx, self.ids.tcp_v4_rcv, item);
            let item = self
                .item(
                    &self.config.tcp_rcv_established,
                    self.ids.tcp_rcv_established,
                    fb,
                )
                .touch(DataTouch::read(regions.tcp_ctx, 0, 1536))
                .touch(DataTouch::write(regions.tcp_ctx, 0, 768));
            outcome.cycles += self.run(ctx, self.ids.tcp_rcv_established, item);

            // Buffer management: queue onto the socket.
            let item = self
                .item(&self.config.skb_queue, self.ids.skb_queue, fb)
                .touch(DataTouch::write(regions.sock, 512, 128));
            outcome.cycles += self.run(ctx, self.ids.skb_queue, item);

            let dma_off = self.flows.rx_dma_cursor[ci];
            self.flows.rx_dma_cursor[ci] = dma_off + fb;
            self.flows.rx_queue[ci].push_back((frame_bytes, dma_off));
            self.flows.rx_queue_bytes[ci] += fb;

            // Delayed ACK.
            self.flows.frames_since_ack[ci] += 1;
            if self.flows.frames_since_ack[ci] >= self.config.ack_every {
                self.flows.frames_since_ack[ci] = 0;
                let item = self
                    .item(
                        &self.config.tcp_select_window,
                        self.ids.tcp_select_window,
                        0,
                    )
                    .touch(DataTouch::read(regions.tcp_ctx, 0, 192));
                outcome.cycles += self.run(ctx, self.ids.tcp_select_window, item);
                let item = self
                    .item(&self.config.tcp_transmit_skb, self.ids.tcp_transmit_skb, 0)
                    .touch(DataTouch::read(regions.tcp_ctx, 0, 256))
                    .touch(DataTouch::write(regions.tcp_ctx, 640, 64));
                outcome.cycles += self.run(ctx, self.ids.tcp_transmit_skb, item);
                let item = self
                    .item(&self.config.e1000_xmit, self.ids.e1000_xmit, 0)
                    .touch(DataTouch::write(rx_ring, 2048, 16));
                outcome.cycles += self.run(ctx, self.ids.e1000_xmit, item);
                outcome.acks_sent += 1;
            }
        }

        if was_empty && !frames.is_empty() {
            // Wake the blocked reader (scheduling is the machine's job;
            // the __wake_up instructions are charged here).
            let item = self
                .item(&self.config.wake_up, self.ids.wake_up, 0)
                .touch(DataTouch::read(regions.sock, 256, 128));
            outcome.cycles += self.run(ctx, self.ids.wake_up, item);
        }
        outcome
    }

    /// The application reads up to `max_bytes` from `conn`. Returns the
    /// bytes actually copied (0 if the queue was empty — caller blocks).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    pub fn recvmsg(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        conn: ConnectionId,
        max_bytes: u64,
        cross_cpu: bool,
    ) -> u64 {
        let ci = self.slot_of(conn);
        let regions = self.flows.regions[ci];

        let item = self
            .item(&self.config.system_call, self.ids.system_call, 0)
            .touch(DataTouch::read(regions.sock, 0, 64));
        self.run(ctx, self.ids.system_call, item);
        let item = self
            .item(&self.config.sock_read, self.ids.sock_read, 0)
            .touch(DataTouch::read(regions.sock, 64, 192));
        self.run(ctx, self.ids.sock_read, item);
        self.acquire_lock(ctx, ci, cross_cpu);

        let mut copied = 0u64;
        let mut app_offset = 0u64;
        while copied < max_bytes {
            let Some((frame_bytes, dma_off)) = self.flows.rx_queue[ci].pop_front() else {
                break;
            };
            let fb = u64::from(frame_bytes);
            self.flows.rx_queue_bytes[ci] -= fb;

            // The copy reads the DMA'd (uncached) payload and writes the
            // application buffer.
            let item = self
                .item(&self.config.copy_to_user, self.ids.copy_to_user, fb)
                .touch(DataTouch::read(regions.rx_dma_buf, dma_off, fb))
                .touch(DataTouch::write(regions.rx_app_buf, app_offset, fb));
            self.run(ctx, self.ids.copy_to_user, item);

            let meta_slot = self.flows.meta_free_cursor[ci] % self.config.skb_meta_bytes;
            self.flows.meta_free_cursor[ci] += 256;
            let item = self
                .item(&self.config.kfree_skb, self.ids.kfree_skb, fb)
                .touch(DataTouch::write(regions.skb_meta, meta_slot, 128));
            self.run(ctx, self.ids.kfree_skb, item);

            copied += fb;
            app_offset += fb;
        }

        // tcp_recvmsg advances copied_seq and re-opens the advertised
        // window: it reads and dirties the control block from process
        // context — the other half of the RX ping-pong.
        let item = self
            .item(
                &self.config.tcp_select_window,
                self.ids.tcp_select_window,
                0,
            )
            .touch(DataTouch::read(regions.tcp_ctx, 0, 1024))
            .touch(DataTouch::write(regions.tcp_ctx, 768, 512));
        self.run(ctx, self.ids.tcp_select_window, item);

        // Delayed-ACK bookkeeping on the read side.
        let item = self
            .item(&self.config.mod_timer, self.ids.mod_timer, 0)
            .touch(DataTouch::write(regions.tcp_ctx, 1088, 64));
        self.run(ctx, self.ids.mod_timer, item);

        self.flows.rx_bytes_delivered[ci] += copied;
        copied
    }

    /// Cumulative spinlock statistics for `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    #[must_use]
    pub fn lock_stats(&self, conn: ConnectionId) -> sim_os::SpinLockStats {
        self.locks[conn.index()].stats()
    }

    // --- Server-side connection lifecycle -----------------------------
    //
    // Legacy (client/ttcp) cells never call anything below, so the
    // pre-existing sweeps are untouched by construction.

    /// Opens the listening socket with an accept backlog of `capacity`
    /// and returns every flow slot to the free list (server cells
    /// allocate slots on SYN arrival instead of at construction).
    pub fn listen(&mut self, capacity: u32) {
        self.listen = Some(ListenSocket {
            capacity,
            in_backlog: 0,
        });
        self.flows.free_all();
    }

    /// Flow slots currently allocated (alive anywhere in
    /// SYN_RCVD/ESTABLISHED/FIN_WAIT).
    #[must_use]
    pub fn live_flows(&self) -> usize {
        self.flows.live()
    }

    /// Lifecycle state of `conn`'s slot.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range.
    #[must_use]
    pub fn conn_state(&self, conn: ConnectionId) -> ConnState {
        self.flows.states[self.slot_of(conn)]
    }

    /// Allocates a flow slot for an arriving connection (state
    /// [`ConnState::Closed`] until the SYN is processed). Returns `None`
    /// when every slot is live.
    pub fn flow_alloc(&mut self) -> Option<ConnectionId> {
        let flow = self.flows.alloc(&self.config)?;
        Some(ConnectionId::new(flow.index() as u32))
    }

    /// Recycles `conn`'s slot (generation bumps; stale handles panic).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range or already free.
    pub fn flow_free(&mut self, conn: ConnectionId) {
        let flow = self.flows.handle(conn);
        self.flows.free(flow);
    }

    /// Softirq SYN processing for a freshly allocated `conn`: validate,
    /// allocate the request sock, send the SYN-ACK through the normal
    /// transmit path and queue on the accept backlog — or drop if the
    /// backlog is full (`queued == false`; the caller recycles the slot
    /// and the peer retries).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range or [`listen`](Self::listen) was
    /// never called.
    pub fn on_syn(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        conn: ConnectionId,
        cross_cpu: bool,
    ) -> SynOutcome {
        let ci = self.slot_of(conn);
        let regions = self.flows.regions[ci];
        // Demux runs regardless of the backlog outcome.
        let item = self
            .item(&self.config.tcp_v4_rcv, self.ids.tcp_v4_rcv, 0)
            .touch(DataTouch::read(regions.tcp_ctx, 0, 256));
        let mut cycles = self.run(ctx, self.ids.tcp_v4_rcv, item);
        let listen = self
            .listen
            .as_mut()
            .expect("on_syn requires a listening socket");
        if listen.in_backlog >= listen.capacity {
            return SynOutcome {
                queued: false,
                cycles,
            };
        }
        listen.in_backlog += 1;
        let item = self
            .item(
                &self.config.tcp_conn_request,
                self.lifecycle.tcp_conn_request,
                0,
            )
            .touch(DataTouch::write(regions.tcp_ctx, 0, 1536))
            .touch(DataTouch::write(regions.sock, 0, 512));
        cycles += self.run(ctx, self.lifecycle.tcp_conn_request, item);
        // The SYN-ACK goes out through the normal transmit path.
        let item = self
            .item(&self.config.tcp_transmit_skb, self.ids.tcp_transmit_skb, 0)
            .touch(DataTouch::read(regions.tcp_ctx, 0, 256));
        cycles += self.run(ctx, self.ids.tcp_transmit_skb, item);
        let item = self
            .item(&self.config.mod_timer, self.ids.mod_timer, 0)
            .touch(DataTouch::write(regions.tcp_ctx, 1024, 64));
        cycles += self.run(ctx, self.ids.mod_timer, item);
        let _ = cross_cpu;
        self.flows.states[ci] = ConnState::SynRcvd;
        SynOutcome {
            queued: true,
            cycles,
        }
    }

    /// The server task accepts `conn` from the backlog (process context):
    /// `inet_csk_accept` dequeues the request sock and grafts the socket.
    /// The connection becomes [`ConnState::Established`].
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range, not in SYN_RCVD, or the backlog
    /// is empty.
    pub fn accept(&mut self, ctx: &mut ExecCtx<'_>, conn: ConnectionId, cross_cpu: bool) -> u64 {
        let ci = self.slot_of(conn);
        assert_eq!(
            self.flows.states[ci],
            ConnState::SynRcvd,
            "accept requires SYN_RCVD"
        );
        let listen = self
            .listen
            .as_mut()
            .expect("accept requires a listening socket");
        assert!(listen.in_backlog > 0, "accept from an empty backlog");
        listen.in_backlog -= 1;
        let regions = self.flows.regions[ci];
        let item = self
            .item(&self.config.system_call, self.ids.system_call, 0)
            .touch(DataTouch::read(regions.sock, 0, 64));
        let mut cycles = self.run(ctx, self.ids.system_call, item);
        cycles += self.acquire_lock(ctx, ci, cross_cpu);
        let item = self
            .item(&self.config.tcp_accept, self.lifecycle.tcp_accept, 0)
            .touch(DataTouch::read(regions.tcp_ctx, 0, 512))
            .touch(DataTouch::write(regions.sock, 0, 256));
        cycles += self.run(ctx, self.lifecycle.tcp_accept, item);
        self.flows.states[ci] = ConnState::Established;
        cycles
    }

    /// The server sends its FIN on `conn` after the response has fully
    /// drained (`tx_unacked == 0`): `tcp_close` plus the FIN segment out
    /// through the transmit path. The FIN occupies one in-flight/unacked
    /// segment until [`on_fin_ack`](Self::on_fin_ack).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range or not ESTABLISHED.
    pub fn send_fin(&mut self, ctx: &mut ExecCtx<'_>, conn: ConnectionId, cross_cpu: bool) -> u64 {
        let ci = self.slot_of(conn);
        assert_eq!(
            self.flows.states[ci],
            ConnState::Established,
            "send_fin requires ESTABLISHED"
        );
        let regions = self.flows.regions[ci];
        let mut cycles = self.acquire_lock(ctx, ci, cross_cpu);
        let item = self
            .item(&self.config.tcp_close, self.ids.tcp_close, 0)
            .touch(DataTouch::write(regions.tcp_ctx, 0, 768))
            .touch(DataTouch::write(regions.sock, 0, 256));
        cycles += self.run(ctx, self.ids.tcp_close, item);
        let item = self
            .item(&self.config.tcp_transmit_skb, self.ids.tcp_transmit_skb, 0)
            .touch(DataTouch::read(regions.tcp_ctx, 0, 256));
        cycles += self.run(ctx, self.ids.tcp_transmit_skb, item);
        self.flows.states[ci] = ConnState::FinWait;
        self.flows.tx_inflight[ci] += 1;
        self.flows.tx_unacked[ci] += 1;
        cycles
    }

    /// The peer's FIN-ACK arrives in the softirq: process the final ACK,
    /// unhash, free the last skb. The connection is CLOSED afterwards and
    /// the caller recycles the slot via [`flow_free`](Self::flow_free).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is out of range or not in FIN_WAIT.
    pub fn on_fin_ack(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        conn: ConnectionId,
        cross_cpu: bool,
    ) -> u64 {
        let ci = self.slot_of(conn);
        assert_eq!(
            self.flows.states[ci],
            ConnState::FinWait,
            "on_fin_ack requires FIN_WAIT"
        );
        let regions = self.flows.regions[ci];
        let mut cycles = self.acquire_lock(ctx, ci, cross_cpu);
        let item = self
            .item(&self.config.tcp_v4_rcv, self.ids.tcp_v4_rcv, 0)
            .touch(DataTouch::read(regions.tcp_ctx, 0, 1536))
            .touch(DataTouch::write(regions.tcp_ctx, 0, 768));
        cycles += self.run(ctx, self.ids.tcp_v4_rcv, item);
        let item = self
            .item(&self.config.tcp_fin, self.lifecycle.tcp_fin, 0)
            .touch(DataTouch::write(regions.tcp_ctx, 0, 512))
            .touch(DataTouch::write(regions.sock, 0, 128));
        cycles += self.run(ctx, self.lifecycle.tcp_fin, item);
        let slot = self.flows.meta_free_cursor[ci] % self.config.skb_meta_bytes;
        self.flows.meta_free_cursor[ci] += 256;
        let item = self
            .item(&self.config.kfree_skb, self.ids.kfree_skb, 0)
            .touch(DataTouch::write(regions.skb_meta, slot, 128));
        cycles += self.run(ctx, self.ids.kfree_skb, item);
        self.flows.tx_unacked[ci] = self.flows.tx_unacked[ci].saturating_sub(1);
        self.flows.states[ci] = ConnState::Closed;
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::CpuId;
    use sim_cpu::CpuConfig;
    use sim_mem::MemoryConfig;

    struct Harness {
        mem: MemorySystem,
        core: Core,
        prof: Profiler,
        rng: SimRng,
        stack: TcpStack,
        rx_ring: RegionId,
        tx_ring: RegionId,
    }

    fn harness() -> Harness {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let dma = mem.add_region("nic0.rx_buffers", 512 * 1024);
        let rx_ring = mem.add_region("nic0.rx_ring", 4096);
        let tx_ring = mem.add_region("nic0.tx_ring", 4096);
        let stack = TcpStack::new(
            StackConfig::paper(),
            &mut mem,
            &[dma],
            &[IrqVector::new(0x19)],
            65536,
        )
        .unwrap();
        Harness {
            mem,
            core: Core::new(CpuId::new(0), CpuConfig::paper_sut()),
            prof: Profiler::new(2),
            rng: SimRng::new(42),
            stack,
            rx_ring,
            tx_ring,
        }
    }

    const CONN: ConnectionId = ConnectionId::new(0);

    #[test]
    fn sendmsg_segments_and_inflight() {
        let mut h = harness();
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        let segs = h.stack.sendmsg(&mut ctx, CONN, 65536, false);
        assert_eq!(segs.len(), 46);
        assert_eq!(segs.iter().map(|&s| u64::from(s)).sum::<u64>(), 65536);
        assert_eq!(h.stack.tx_inflight(CONN), 46);
    }

    #[test]
    fn sendmsg_small_message_single_segment() {
        let mut h = harness();
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        let segs = h.stack.sendmsg(&mut ctx, CONN, 128, false);
        assert_eq!(segs, vec![128]);
    }

    #[test]
    fn sendmsg_attributes_to_expected_bins() {
        let mut h = harness();
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        h.stack.sendmsg(&mut ctx, CONN, 65536, false);
        drop(ctx); // flush profiler scratch before reading totals
        let reg = h.stack.registry();
        for bin in [
            "Interface",
            "Engine",
            "Buf Mgmt",
            "Copies",
            "Locks",
            "Timers",
        ] {
            let c = h.prof.group_total(reg, bin);
            assert!(c.cycles > 0, "bin {bin} got no cycles");
        }
        // Driver untouched by sendmsg itself (driver_tx is separate).
        let driver = h.prof.group_total(reg, "Driver");
        assert_eq!(driver.cycles, 0);
    }

    #[test]
    fn tx_copy_dominates_large_sends_over_small() {
        let mut h = harness();
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        h.stack.sendmsg(&mut ctx, CONN, 65536, false);
        drop(ctx);
        let reg = h.stack.registry();
        let copies = h.prof.group_total(reg, "Copies").cycles;
        let interface = h.prof.group_total(reg, "Interface").cycles;
        assert!(
            copies > interface,
            "64KB: copies ({copies}) should outweigh interface ({interface})"
        );
    }

    #[test]
    fn interface_dominates_small_sends() {
        let mut h = harness();
        // Warm-up pass so compulsory misses don't distort the steady
        // state (the paper profiles long steady-state runs).
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        for _ in 0..800 {
            h.stack.sendmsg(&mut ctx, CONN, 128, false);
        }
        ctx.prof.reset();
        for _ in 0..200 {
            h.stack.sendmsg(&mut ctx, CONN, 128, false);
        }
        drop(ctx);
        let reg = h.stack.registry();
        let copies = h.prof.group_total(reg, "Copies").cycles;
        let interface = h.prof.group_total(reg, "Interface").cycles;
        assert!(
            interface > copies * 3,
            "128B: interface ({interface}) should dwarf copies ({copies})"
        );
    }

    #[test]
    fn rx_path_queues_and_delivers() {
        let mut h = harness();
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        let rx_ring = h.rx_ring;
        let out = h
            .stack
            .rx_bottom_half(&mut ctx, CONN, &[1448, 1448, 1448, 1448], rx_ring, false);
        assert_eq!(out.acks_sent, 2); // delayed ack: one per two frames
        assert_eq!(h.stack.rx_available(CONN), 4 * 1448);

        drop(ctx);
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        let got = h.stack.recvmsg(&mut ctx, CONN, 65536, false);
        assert_eq!(got, 4 * 1448);
        assert_eq!(h.stack.rx_available(CONN), 0);
    }

    #[test]
    fn recvmsg_empty_queue_returns_zero() {
        let mut h = harness();
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        assert_eq!(h.stack.recvmsg(&mut ctx, CONN, 4096, false), 0);
    }

    #[test]
    fn full_frames_take_expensive_timer_path() {
        let mut h = harness();
        let rx_ring = h.rx_ring;
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        h.stack
            .rx_bottom_half(&mut ctx, CONN, &[1448, 1448], rx_ring, false);
        drop(ctx);
        let big_timers = h.prof.group_total(h.stack.registry(), "Timers").cycles;
        let mut h2 = harness();
        let rx_ring2 = h2.rx_ring;
        let mut ctx = ExecCtx::new(&mut h2.core, &mut h2.mem, &mut h2.prof, &mut h2.rng);
        h2.stack
            .rx_bottom_half(&mut ctx, CONN, &[128, 128], rx_ring2, false);
        drop(ctx);
        let small_timers = h2.prof.group_total(h2.stack.registry(), "Timers").cycles;
        assert!(
            big_timers > small_timers * 4,
            "full-MSS frames ({big_timers}) vs small ({small_timers})"
        );
    }

    #[test]
    fn rx_copy_misses_llc_even_when_warm() {
        let mut h = harness();
        let rx_ring = h.rx_ring;
        // Deliver + read twice; DMA'd payload is fresh each time, so the
        // copy must keep missing.
        for round in 0..2 {
            let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
            // Simulate the DMA that precedes the bottom half.
            let dma = h.stack.regions(CONN).rx_dma_buf;
            ctx.mem.dma_write(dma, round * 1448, 1448);
            h.stack
                .rx_bottom_half(&mut ctx, CONN, &[1448], rx_ring, false);
            drop(ctx);
            let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
            h.stack.recvmsg(&mut ctx, CONN, 65536, false);
        }
        let copies = h
            .prof
            .func_total(h.stack.registry().lookup("__copy_to_user").unwrap());
        assert!(
            copies.llc_misses >= 40,
            "RX copies must miss LLC (DMA'd data): {copies:?}"
        );
    }

    #[test]
    fn tx_completion_and_ack_reduce_inflight() {
        let mut h = harness();
        let tx_ring = h.tx_ring;
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        let segs = h.stack.sendmsg(&mut ctx, CONN, 8192, false);
        assert_eq!(h.stack.tx_inflight(CONN), segs.len() as u32);
        drop(ctx);
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        for (i, &s) in segs.iter().enumerate() {
            h.stack.driver_tx(&mut ctx, CONN, tx_ring, i as u64, s);
        }
        drop(ctx);
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        h.stack
            .tx_complete(&mut ctx, CONN, tx_ring, segs.len() as u32);
        drop(ctx);
        assert_eq!(h.stack.tx_inflight(CONN), 0);
        let driver = h.prof.group_total(h.stack.registry(), "Driver").cycles;
        assert!(driver > 0);
    }

    #[test]
    fn irq_top_half_attributed_to_vector_symbol() {
        let mut h = harness();
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        h.stack.irq_top_half(&mut ctx, IrqVector::new(0x19));
        drop(ctx);
        let func = h.stack.irq_func(IrqVector::new(0x19)).unwrap();
        assert_eq!(h.stack.registry().name(func), "IRQ0x19_interrupt");
        assert!(h.prof.func_total(func).cycles > 0);
        assert_eq!(h.stack.registry().group(func), "Driver");
    }

    #[test]
    fn cross_cpu_contention_inflates_lock_cost() {
        // Force contention probability to 1 for the cross-CPU case.
        let mut config = StackConfig::paper();
        config.cross_cpu_contention = 1.0;
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let dma = mem.add_region("d", 64 * 1024);
        let mut stack =
            TcpStack::new(config, &mut mem, &[dma], &[IrqVector::new(0x19)], 65536).unwrap();
        let mut core = Core::new(CpuId::new(0), CpuConfig::paper_sut());
        let mut prof = Profiler::new(2);
        let mut rng = SimRng::new(1);
        let mut ctx = ExecCtx::new(&mut core, &mut mem, &mut prof, &mut rng);
        stack.sendmsg(&mut ctx, CONN, 1448, true);
        drop(ctx);
        let contended_locks = prof.group_total(stack.registry(), "Locks");
        assert!(stack.lock_stats(CONN).contended > 0);
        assert!(
            contended_locks.branches > 50,
            "spinning should retire many branches: {contended_locks:?}"
        );
    }

    #[test]
    fn rejects_no_connections() {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let err = TcpStack::new(StackConfig::paper(), &mut mem, &[], &[], 128);
        assert!(err.is_err());
    }

    #[test]
    fn connect_resets_congestion_and_charges_engine() {
        let mut h = harness();
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        assert_eq!(h.stack.tx_window(CONN), h.stack.config().initial_cwnd);
        // Ramp the window, then reconnect: it must reset.
        h.stack.rx_ack(&mut ctx, CONN, 40, false);
        assert!(h.stack.tx_window(CONN) > h.stack.config().initial_cwnd);
        let cycles = h.stack.connect(&mut ctx, CONN, false);
        assert!(cycles > 0);
        // Slow start restarts from the initial window.
        assert_eq!(h.stack.tx_window(CONN), h.stack.config().initial_cwnd);
        drop(ctx);
        let f = h.stack.registry().lookup("tcp_v4_connect").unwrap();
        assert!(h.prof.func_total(f).cycles > 0);
        assert_eq!(h.stack.registry().group(f), "Engine");
    }

    #[test]
    fn acks_grow_the_window_after_connect() {
        let mut h = harness();
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        h.stack.connect(&mut ctx, CONN, false);
        let w0 = h.stack.tx_window(CONN);
        h.stack.rx_ack(&mut ctx, CONN, w0, false);
        assert_eq!(h.stack.tx_window(CONN), 2 * w0, "slow start doubles");
    }

    #[test]
    fn close_charges_tcp_close() {
        let mut h = harness();
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        let cycles = h.stack.close(&mut ctx, CONN, false);
        assert!(cycles > 0);
        drop(ctx);
        let f = h.stack.registry().lookup("tcp_close").unwrap();
        assert!(h.prof.func_total(f).cycles > 0);
    }

    #[test]
    fn retransmit_timeout_collapses_window() {
        let mut h = harness();
        let mut ctx = ExecCtx::new(&mut h.core, &mut h.mem, &mut h.prof, &mut h.rng);
        h.stack.rx_ack(&mut ctx, CONN, 40, false); // ramp the window up
        let before = h.stack.tx_window(CONN);
        assert!(before > h.stack.config().initial_cwnd);
        let cycles = h.stack.retransmit_timeout(&mut ctx, CONN, 1448, false);
        assert!(cycles > 0);
        assert!(h.stack.tx_window(CONN) < before);
        assert_eq!(h.stack.congestion(CONN).timeouts(), 1);
        drop(ctx);
        let f = h.stack.registry().lookup("tcp_retransmit_skb").unwrap();
        assert!(h.prof.func_total(f).machine_clears == 0);
        assert!(h.prof.func_total(f).cycles > 0);
    }

    #[test]
    fn registry_has_paper_bins() {
        let h = harness();
        let groups = h.stack.registry().groups();
        for bin in Bin::ALL {
            assert!(
                groups.contains(&bin.label()),
                "missing bin {bin} in registry groups {groups:?}"
            );
        }
    }
}
