//! The kernel-bypass poll-mode dataplane's state: per-queue SPSC
//! descriptor rings, the mempool backing them, and the PMD cores that
//! busy-poll them.
//!
//! Under [`DataplaneMode::Poll`](crate::DataplaneMode::Poll) the machine's
//! device seam pushes every frame arrival, peer ACK and transmit
//! completion onto the queue's single-producer/single-consumer ring
//! instead of staging it for an interrupt; the owning PMD core pops it.
//! Queue → core ownership is fixed at construction from the steer
//! spec's `vector_home`, which is exactly what makes each ring
//! single-consumer.
//!
//! Ring capacity auto-sizes to the per-queue in-flight bound — each flow
//! can have at most `peer_window` data frames plus roughly
//! `2 × send_buf_segments` completions/ACKs outstanding — so the sizing
//! invariant *the dataplane never drops* holds by construction; the
//! machine asserts it rather than modeling poll-mode drop recovery.

use crate::experiment::DataplaneConfig;
use sim_net::{Mempool, SpscRing};
use sim_os::PmdCore;
use sim_prof::PollCounters;

/// What the NIC hands the host for one flow: a received frame or a
/// transmit completion. Both dataplanes carry it across the device seam;
/// the poll plane queues it on a ring, the interrupt plane stages it
/// straight into the flow's pending state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RxDesc {
    /// A data frame from the peer of `bytes` payload.
    Data { flow: usize, bytes: u32 },
    /// A peer ACK frame acknowledging `acked` segments.
    Ack { flow: usize, acked: u32 },
    /// A transmit completion for one of the flow's segments. Reuses the
    /// tx descriptor — no rx buffer.
    TxDone { flow: usize },
    /// A connection-opening SYN (server workload); the flow slot was
    /// allocated device-side at arrival.
    Syn { flow: usize },
    /// The client's ACK of our FIN (server workload teardown).
    FinAck { flow: usize },
}

impl RxDesc {
    /// The flow the descriptor belongs to.
    pub(crate) fn flow(&self) -> usize {
        match *self {
            RxDesc::Data { flow, .. }
            | RxDesc::Ack { flow, .. }
            | RxDesc::TxDone { flow }
            | RxDesc::Syn { flow }
            | RxDesc::FinAck { flow } => flow,
        }
    }

    /// True when this descriptor occupies an rx buffer (a mempool buffer
    /// on the poll plane).
    pub(crate) fn pins_buffer(&self) -> bool {
        !matches!(self, RxDesc::TxDone { .. })
    }
}

/// All poll-dataplane state: rings, pools, core ownership, counters.
#[derive(Debug)]
pub(crate) struct PollPlane {
    /// [`DataplaneConfig::burst`], at least 1.
    pub burst: u32,
    /// [`DataplaneConfig::empty_poll_cycles`], at least 1.
    pub empty_poll_cycles: u64,
    /// One PMD core per CPU (cores with no queues still spin).
    pub cores: Vec<PmdCore>,
    /// Owning PMD core of each global queue.
    pub cpu_of_queue: Vec<usize>,
    /// Per-queue rx/completion ring (device → PMD), each entry stamped
    /// with the cycle the device enqueued it.
    rx: Vec<SpscRing<(u64, RxDesc)>>,
    /// Per-queue rx buffer pool.
    pool: Vec<Mempool>,
    /// Per-CPU poll accounting (measurement window).
    pub counters: Vec<PollCounters>,
}

impl PollPlane {
    /// Builds the dataplane: queue `q` is owned by `queue_homes[q]`, and
    /// each queue's ring is sized to its worst-case in-flight descriptor
    /// population.
    pub(crate) fn new(
        cpus: usize,
        queue_homes: &[usize],
        queue_flows: &[Vec<usize>],
        config: &DataplaneConfig,
        peer_window: u32,
        send_buf_segments: u32,
    ) -> Self {
        let mut cores = vec![PmdCore::default(); cpus];
        for (q, &home) in queue_homes.iter().enumerate() {
            cores[home].assign(q);
        }
        // +4 covers the server-lifecycle descriptors a flow can have
        // outstanding on top of its data windows (SYN, FIN completion,
        // FIN-ACK, and one frame of slack).
        let per_flow = (peer_window + 2 * send_buf_segments + 4) as usize;
        let mut rx = Vec::with_capacity(queue_homes.len());
        let mut pool = Vec::with_capacity(queue_homes.len());
        for flows in queue_flows {
            let ring = SpscRing::with_capacity(flows.len() * per_flow + 8);
            pool.push(Mempool::new(ring.capacity()));
            rx.push(ring);
        }
        PollPlane {
            burst: config.burst.max(1),
            empty_poll_cycles: config.empty_poll_cycles.max(1),
            cores,
            cpu_of_queue: queue_homes.to_vec(),
            rx,
            pool,
            counters: vec![PollCounters::default(); cpus],
        }
    }

    /// Device side: enqueues `desc` on `queue`'s ring at cycle `at`,
    /// taking a mempool buffer when it pins one.
    ///
    /// # Panics
    ///
    /// Panics when the pool or the ring is exhausted — the sizing
    /// invariant above rules both out.
    pub(crate) fn enqueue(&mut self, queue: usize, desc: RxDesc, at: u64) {
        assert!(
            !desc.pins_buffer() || self.pool[queue].try_alloc(),
            "poll mempool exhausted on queue {queue} — sizing invariant violated"
        );
        self.rx[queue].push((at, desc)).unwrap_or_else(|_| {
            panic!("poll rx ring overflow on queue {queue} — sizing invariant violated")
        });
    }

    /// PMD side: pops `queue`'s head descriptor, returning its buffer to
    /// the pool.
    pub(crate) fn dequeue(&mut self, queue: usize) -> Option<RxDesc> {
        let (_, desc) = self.rx[queue].pop()?;
        if desc.pins_buffer() {
            self.pool[queue].free();
        }
        Some(desc)
    }

    /// Earliest enqueue time among the head descriptors of `cpu`'s
    /// queues, or `None` when every owned ring is empty.
    pub(crate) fn next_rx_at(&self, cpu: usize) -> Option<u64> {
        self.cores[cpu]
            .queues()
            .iter()
            .filter_map(|&q| self.rx[q].peek().map(|&(at, _)| at))
            .min()
    }

    /// Discards warm-up accounting (golden measurement windows only).
    pub(crate) fn reset_counters(&mut self) {
        for c in &mut self.counters {
            *c = PollCounters::default();
        }
    }
}
