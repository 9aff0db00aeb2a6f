//! The simulated system under test and its run loop.
//!
//! [`Machine`] wires the substrates into the paper's testbed: *N* CPUs
//! sharing a coherent memory system, NIC ports carrying long-lived
//! `ttcp` connections (one flow per port on the paper's 8-NIC SUT; many
//! flows per port in the scale sweep, round-robin or RSS-hash steered),
//! an IO-APIC routing the interrupt vectors (named `0x19`–`0x27` as in
//! the paper's Table 4), the scheduler, the IPI fabric and the modelled
//! TCP stack.
//!
//! The run loop is a conservative discrete-event simulation: each CPU
//! has a local clock advanced by the work it executes, and device-side
//! events (frame arrivals, wire transmissions, timers) live on a global
//! queue. Both dataplanes ([`DataplaneMode`]) share the loop, the event
//! handler, the wire and peer model and the per-flow bottom half. They
//! part ways at one seam, `deliver(queue, desc, t)`, where the NIC has
//! just DMA'd a frame or a transmit completion:
//!
//! * **Interrupt plane** — the descriptor is staged into the flow's
//!   staged-work record, and the queue's coalescer either raises an
//!   interrupt or arms its moderation timer. The bottom half runs on whichever CPU
//!   the APIC routes the vector to; the consumer continues through a
//!   scheduler wakeup, paying an IPI when its CPU differs. Device
//!   interrupts and IPIs flush the target pipeline — a machine clear
//!   charged at the paper's 500-cycle penalty and attributed,
//!   Oprofile-skid-style, either to the interrupt handler or to a
//!   cycle-weighted draw over the code recently executing on that CPU.
//! * **Poll plane** — the descriptor takes a mempool buffer and goes onto
//!   the queue's rx ring. The queue's PMD core pops a burst, stages it
//!   into the same record, runs the same bottom half, and
//!   continues the consumer inline (run to completion); idle gaps are
//!   charged as spin.
//!
//! When a CPU step and an event fall on the same cycle, the interrupt
//! plane runs the CPU step first and the poll plane the event first (a
//! PMD probe sees everything enqueued at its instant).

use sim_core::{
    ConnectionId, CpuId, DeviceId, EventQueue, IrqVector, Result, SimError, SimRng, SimTime, TaskId,
};
use sim_cpu::Core;
use sim_mem::MemorySystem;
use sim_net::{CoalesceConfig, Nic, Peer, PeerConfig};
use sim_os::{CpuMask, IoApic, IpiFabric, IpiKind, Scheduler, SchedulerConfig};
use sim_prof::{FuncId, PollCounters, Profiler, SteerCounters};
use sim_tcp::{Bin, ExecCtx, TcpStack};

use crate::experiment::{DataplaneMode, ExperimentConfig};
use crate::metrics::{BinBreakdown, RunMetrics};
use crate::poll::{PollPlane, RxDesc};
use crate::ready::ReadyCpus;
use crate::steer::{even_home, FlowDirector};
use crate::workload::Direction;

mod interrupt;
mod poll;
mod server;
mod wire;

use server::ServerState;

/// True when run-loop iteration `guard` should emit a trace line: every
/// power of two (dense coverage early, when wedges usually happen) plus
/// every 200k iterations (steady cadence late). `guard = 0` is quiet —
/// the old `guard & (guard - 1) == 0` form mis-fired there, tracing an
/// iteration that never ran.
#[must_use]
fn should_trace(guard: u64) -> bool {
    guard.is_power_of_two() || (guard > 0 && guard.is_multiple_of(200_000))
}

/// The paper's NIC interrupt vectors (Table 4), reused cyclically for
/// machines with more than eight NICs.
pub const PAPER_VECTORS: [u32; 8] = [0x19, 0x1a, 0x1b, 0x1d, 0x23, 0x24, 0x25, 0x27];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A data frame from the peer arrives for a flow (RX workload).
    FrameArrival { flow: usize, bytes: u32 },
    /// A peer ACK arrives for a flow (TX workload).
    AckArrival { flow: usize, acked: u32 },
    /// The flow's NIC transmits one queued frame (TX workload).
    WireTx { flow: usize, bytes: u32 },
    /// Interrupt-moderation timer for one hardware queue.
    CoalesceFlush { queue: usize, armed_at: u64 },
    /// Retransmission timeout for a lost frame of a flow.
    RtoFire { flow: usize, bytes: u32 },
    /// Linux 2.6-style periodic interrupt rotation.
    IrqRotate,
    /// A client opens a new connection (server workload): a SYN reaches
    /// whatever queue the allocated flow slot rides.
    ConnArrival,
    /// The client's ACK of our FIN arrives (server workload teardown).
    FinAckArrival { flow: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockReason {
    /// Sender waiting for send-buffer space.
    TxSpace,
    /// Receiver waiting for socket data.
    RxData,
}

/// Everything the NIC has handed the host for one flow since its last
/// bottom half, taken whole by the next one.
#[derive(Debug, Clone, Default)]
struct Staged {
    /// Payload bytes of each received data frame, in arrival order.
    frames: Vec<u32>,
    /// Segments the peer's ACK frames acknowledge.
    acked: u32,
    /// Transmit completions.
    txdone: u32,
    /// A connection-opening SYN (server workload).
    syn: bool,
    /// The client's ACK of our FIN (server workload). Not derivable from
    /// `ConnState`: the flow is in FIN_WAIT both before and after it is
    /// staged.
    finack: bool,
}

impl Staged {
    fn push(&mut self, desc: RxDesc) {
        match desc {
            RxDesc::Data { bytes, .. } => self.frames.push(bytes),
            RxDesc::Ack { acked, .. } => self.acked += acked,
            RxDesc::TxDone { .. } => self.txdone += 1,
            RxDesc::Syn { .. } => self.syn = true,
            RxDesc::FinAck { .. } => self.finack = true,
        }
    }

    fn is_empty(&self) -> bool {
        self.frames.is_empty() && self.acked == 0 && self.txdone == 0 && !self.syn && !self.finack
    }
}

/// The simulated system under test.
#[derive(Debug)]
pub struct Machine {
    config: ExperimentConfig,
    mem: MemorySystem,
    cores: Vec<Core>,
    clocks: Vec<u64>,
    sched: Scheduler,
    apic: IoApic,
    ipi: IpiFabric,
    nics: Vec<Nic>,
    peers: Vec<Peer>,
    stack: TcpStack,
    prof: Profiler,
    rng: SimRng,
    /// Pending device, wire and timer events of every CPU, popped in
    /// global `(time, seq)` order (see `sim_core::event`).
    events: EventQueue<Event>,
    /// MSI-X vector of each hardware queue, in global queue order.
    vectors: Vec<IrqVector>,
    ready: ReadyCpus,

    /// The Flow Director filter table — `Some` only when the
    /// experiment's [`SteerSpec`](crate::steer::SteerSpec) asks for
    /// dynamic steering. Placement and the static vector layout are
    /// read from the spec once, at construction.
    flow_dir: Option<FlowDirector>,
    steer_stats: SteerCounters,

    /// The kernel-bypass dataplane — `Some` only under
    /// [`DataplaneMode::Poll`], where PMD cores replace the scheduler and
    /// none of the interrupt machinery ever fires.
    poll: Option<PollPlane>,

    /// Dynamic connection lifecycle — `Some` only for server workloads,
    /// where `connections` is a slot-arena bound, flows are born on SYN
    /// and die on FIN-ACK, and process context is charged directly on
    /// the connection's home CPU instead of through scheduler tasks.
    server: Option<Box<ServerState>>,

    /// What the ttcp task of each flow is blocked on, indexed by flow
    /// (task ids follow spawn order, which is flow order); empty for
    /// server workloads, which charge process context directly on a CPU.
    blocked: Vec<Option<BlockReason>>,
    last_task_on: Vec<Option<TaskId>>,
    run_since_sched: Vec<u64>,

    /// Hardware queue carrying each flow (global queue index): the
    /// steer spec's placement — round-robin reduces to the identity
    /// map on the paper SUT, RSS hashing spreads flows like a real
    /// indirection table.
    flow_queue: Vec<usize>,
    /// Flows of each queue, ascending.
    queue_flows: Vec<Vec<usize>>,
    /// NIC port owning each global queue.
    queue_nic: Vec<usize>,
    /// Queue index local to its NIC port.
    queue_local: Vec<usize>,

    /// The flows each queue's next bottom half visits, unordered: a
    /// flow is listed exactly while [`Machine::flow_listed`] holds.
    queue_pending: Vec<Vec<usize>>,

    /// Per-flow work staged for the next bottom half.
    staged: Vec<Staged>,
    /// Wire transmission cursor per flow (each flow models its own NIC
    /// queue's bandwidth share).
    wire_cursor: Vec<u64>,
    peer_inflight: Vec<u32>,
    /// CPU of each flow's latest bottom half, and of each queue's; read
    /// through [`Machine::softirq_cpu`].
    last_softirq_cpu: Vec<Option<CpuId>>,
    queue_softirq_cpu: Vec<Option<CpuId>>,
    last_process_cpu: Vec<Option<CpuId>>,

    // Per-queue state.
    nic_activity: Vec<u64>,
    flush_armed: Vec<bool>,
    /// Cycles each CPU has spent in interrupt context (top halves,
    /// bottom halves, flush penalties) — drives the wake-affine gate.
    irq_cycles: Vec<u64>,

    // Measurement state.
    total_messages: u64,
    measured_messages: u64,
    bytes_moved: u64,
    measuring: bool,
    done: bool,
    measure_start: u64,
    last_message_time: u64,

    // Attribution fallbacks.
    wake_up_func: FuncId,
}

impl Machine {
    /// Builds the system under test from an experiment configuration.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if the CPU count differs from the
    /// memory system's (whose validation bounds it to
    /// `1..=MemoryConfig::MAX_CPUS`), if there is no connection, if the
    /// wire loss rate is outside `[0, 1)`, if the memory or stack config
    /// is invalid or an affinity mask cannot be applied.
    pub fn new(config: &ExperimentConfig) -> Result<Self> {
        let cpus = config.cpus;
        if cpus != config.mem.cpus {
            return Err(SimError::config(format!(
                "{cpus} cpus but the memory system models {}",
                config.mem.cpus
            )));
        }
        config.mem.validate()?;
        let nics_n = config.nics;
        let flows = config.connections;
        if flows == 0 {
            return Err(SimError::config("machine needs at least one connection"));
        }
        // A certain loss never delivers a segment, and the chance draw
        // reads NaN or a negative rate as lossless.
        let loss = config.tunables.loss_rate;
        if !(0.0..1.0).contains(&loss) {
            return Err(SimError::config(format!(
                "loss rate {loss} is outside [0, 1)"
            )));
        }
        let mut mem = MemorySystem::new(config.mem.clone());
        let mut rng = SimRng::new(config.seed);

        let spec = config.steer;

        let queues_per_nic = config.nic.queues.max(1) as usize;
        let total_queues = nics_n * queues_per_nic;

        // Flow→queue steering per the spec's placement. Round-robin
        // reduces to the identity map on the paper SUT
        // (`connections == nics`, one queue per port), keeping those
        // runs bit-identical.
        let flow_queue: Vec<usize> = (0..flows).map(|f| spec.place(f, total_queues)).collect();
        let mut queue_flows = vec![Vec::new(); total_queues];
        for (f, &q) in flow_queue.iter().enumerate() {
            queue_flows[q].push(f);
        }
        let queue_nic: Vec<usize> = (0..total_queues).map(|q| q / queues_per_nic).collect();
        let queue_local: Vec<usize> = (0..total_queues).map(|q| q % queues_per_nic).collect();

        let vectors: Vec<IrqVector> = (0..total_queues)
            .map(|i| {
                let base = PAPER_VECTORS[i % PAPER_VECTORS.len()];
                IrqVector::new(base + (i / PAPER_VECTORS.len()) as u32 * 0x10)
            })
            .collect();

        let nics: Vec<Nic> = (0..nics_n)
            .map(|i| {
                Nic::new(
                    DeviceId::new(i as u32),
                    &vectors[i * queues_per_nic..(i + 1) * queues_per_nic],
                    config.nic,
                    &mut mem,
                )
            })
            .collect();

        // Each flow DMAs through its queue's receive buffers.
        let dma_regions: Vec<_> = (0..flows)
            .map(|f| {
                let q = flow_queue[f];
                nics[queue_nic[q]].rx_buffers(queue_local[q])
            })
            .collect();
        let mut stack = TcpStack::new(
            config.stack.clone(),
            &mut mem,
            &dma_regions,
            &vectors,
            config.workload.message_bytes,
        )?;

        let mut apic = IoApic::new(cpus);
        let mut sched = Scheduler::new(SchedulerConfig::new(cpus));

        // A raised interrupt runs its queue's bottom half at once, so a
        // queue never holds more staged rx descriptors than one batch:
        // a batch the ring cannot hold is the one way to overflow it.
        let batch = match config.nic.coalesce {
            CoalesceConfig::FixedCount { events } => events,
            CoalesceConfig::AdaptiveTimeout { max_events, .. } => max_events,
        };
        if batch > config.nic.ring_entries {
            return Err(SimError::config(format!(
                "coalescing batch {batch} exceeds the {}-entry rx ring",
                config.nic.ring_entries
            )));
        }

        // Program the static vector layout the spec prescribes
        // (everything-on-CPU0 layouts write the routing default back,
        // which is a no-op for delivery).
        for (q, &v) in vectors.iter().enumerate() {
            let home = spec.vector_home(q, total_queues, cpus);
            apic.set_affinity(v, CpuMask::single(home))?;
        }
        let mut blocked = Vec::new();
        if config.server.is_none() {
            for (i, &q) in flow_queue.iter().enumerate() {
                // A pinned process lives on its queue's even-spread home
                // CPU (the paper's `sched_setaffinity` half — identical to
                // the old per-connection pin on the paper SUT, where flow
                // i rides queue i).
                let mask = if spec.pin_processes {
                    CpuMask::single(even_home(q, total_queues, cpus))
                } else {
                    CpuMask::all(cpus)
                };
                let task = sched.spawn(format!("ttcp{i}"), mask)?;
                debug_assert_eq!(task.index(), i, "task ids follow flow order");
                blocked.push(None);
            }
        }

        let peers = (0..flows)
            .map(|i| {
                Peer::new(
                    ConnectionId::new(i as u32),
                    PeerConfig {
                        ack_every: config.stack.ack_every,
                        mss: config.stack.mss,
                        jitter_cycles: config.tunables.arrival_jitter_cycles,
                    },
                    rng.fork(i as u64),
                )
            })
            .collect();

        let cores = (0..cpus)
            .map(|c| Core::new(CpuId::new(c as u32), config.cpu))
            .collect();

        let wake_up_func = stack
            .registry()
            .lookup("__wake_up")
            .expect("stack registers __wake_up");

        // Kernel bypass: queue ownership follows the same `vector_home`
        // the APIC was just programmed with, so poll and interrupt cells
        // of a sweep are geometry-for-geometry comparable.
        let poll = if config.dataplane.mode == DataplaneMode::Poll {
            let homes: Vec<usize> = (0..total_queues)
                .map(|q| spec.vector_home(q, total_queues, cpus).index())
                .collect();
            Some(PollPlane::new(
                cpus,
                &homes,
                &queue_flows,
                &config.dataplane,
                config.tunables.peer_window,
                config.tunables.send_buf_segments,
            ))
        } else {
            None
        };

        // Server workloads: the arena starts empty (every slot in the
        // free list), the stack listens with the workload's backlog, and
        // all lifecycle bookkeeping is per-slot.
        let server = config.server.map(|workload| {
            stack.listen(workload.backlog);
            Box::new(ServerState::new(workload, flows))
        });

        Ok(Machine {
            mem,
            cores,
            clocks: vec![0; cpus],
            sched,
            apic,
            ipi: IpiFabric::new(cpus),
            peers,
            prof: Profiler::new(cpus),
            rng,
            // Steady state carries a few in-flight events per queue
            // (wire segments, ACKs, coalescing timers) plus one peer
            // window per *streaming* flow; pre-size so the far heap
            // rarely reallocates mid-run.
            events: EventQueue::with_capacity(
                64 * total_queues
                    + config.tunables.peer_window as usize
                        * match config.workload.active_conns {
                            0 => flows,
                            n => n.min(flows),
                        },
            ),
            ready: ReadyCpus::new(),
            flow_dir: spec.filter_table(),
            steer_stats: SteerCounters::default(),
            poll,
            server,
            blocked,
            last_task_on: vec![None; cpus],
            run_since_sched: vec![0; cpus],
            flow_queue,
            queue_flows,
            queue_nic,
            queue_local,
            queue_pending: vec![Vec::new(); total_queues],
            staged: vec![Staged::default(); flows],
            nic_activity: vec![0; total_queues],
            flush_armed: vec![false; total_queues],
            wire_cursor: vec![0; flows],
            peer_inflight: vec![0; flows],
            last_softirq_cpu: vec![None; flows],
            queue_softirq_cpu: vec![None; total_queues],
            last_process_cpu: vec![None; flows],
            irq_cycles: vec![0; cpus],
            total_messages: 0,
            measured_messages: 0,
            bytes_moved: 0,
            measuring: false,
            done: false,
            measure_start: 0,
            last_message_time: 0,
            wake_up_func,
            nics,
            stack,
            vectors,
            config: config.clone(),
        })
    }

    /// Runs the workload to completion and returns the measured metrics.
    ///
    /// # Panics
    ///
    /// Panics on an internal deadlock (no runnable work and no pending
    /// events before the measurement target is reached) — that would be a
    /// bug in the machine model.
    pub fn run(&mut self) -> RunMetrics {
        self.seed_work();
        let mut guard: u64 = 0;
        let guard_limit = self.guard_limit();
        // Probing the environment takes a lock and scans `environ`; do it
        // once, not once per event.
        let trace = std::env::var_os("AFFSIM_TRACE").is_some();
        let polled = self.poll.is_some();
        while !self.done {
            guard += 1;
            assert!(
                guard < guard_limit,
                "run loop exceeded {guard_limit} iterations — machine wedged?"
            );
            if trace && should_trace(guard) {
                eprintln!(
                    "iter={guard} msgs={}/{} measuring={} clocks={:?} events={} loads={:?}",
                    self.total_messages,
                    self.measured_messages,
                    self.measuring,
                    self.clocks,
                    self.events.len(),
                    (0..self.config.cpus)
                        .map(|c| self.sched.load(CpuId::new(c as u32)))
                        .collect::<Vec<_>>(),
                );
            }
            // The earliest CPU step: a scheduled CPU at its clock, or a
            // PMD core at the moment it next finds work.
            let step = if polled {
                self.poll_next_work()
            } else {
                self.next_ready_cpu().map(|c| (self.clocks[c], c))
            };
            match (step, self.events.peek_time().map(SimTime::cycles)) {
                // On a tie the interrupt plane steps the CPU first, the
                // poll plane processes the event first.
                (Some((at, c)), t) if t.is_none_or(|t| at < t || (at == t && !polled)) => {
                    if polled {
                        self.step_pmd(c, at);
                    } else {
                        self.step_cpu(c);
                    }
                }
                (_, Some(_)) => self.process_event(),
                (_, None) => panic!(
                    "machine deadlocked: no runnable work and no events \
                     ({}/{} messages measured)",
                    self.measured_messages,
                    self.measure_target()
                ),
            }
        }
        if polled {
            self.finish_poll_spin();
        }
        self.collect_metrics()
    }

    fn guard_limit(&self) -> u64 {
        let work = if let Some(srv) = &self.server {
            // Each connection costs a bounded number of loop iterations
            // (SYN, accept, request frames, response segments, ACKs,
            // FIN, drop retries): ~150 in the 16-CPU × 100k-slot churn
            // cell, most of them arena-full SYN retries. 50k per
            // connection is wedge detection.
            50_000 * srv.workload.total_conns()
        } else {
            // Generous: every message costs well under 10k loop iterations.
            let msgs = u64::from(self.config.workload.warmup_messages)
                + u64::from(self.config.workload.measure_messages);
            10_000 * msgs * self.message_target_scale()
        };
        // A lost frame is sent again, so each delivered one costs
        // `1 / (1 - loss)` transmissions on average.
        let delivered = 1.0 - self.config.tunables.loss_rate;
        (work as f64 / delivered).ceil() as u64 + 1_000_000
    }

    /// The RX working set: how many connections the peers stream on.
    /// Everything above this index holds provisioned state (arena slot,
    /// page region, scheduler task) but never sources a frame.
    fn streaming_conns(&self) -> usize {
        match self.config.workload.active_conns {
            0 => self.config.connections,
            n => n.min(self.config.connections),
        }
    }

    /// What one unit of `warmup_messages`/`measure_messages` means:
    /// `connections` messages per unit historically, one message per
    /// unit when the workload asks for aggregate targets (the
    /// million-flow cells, where per-flow depth is the wrong knob).
    fn message_target_scale(&self) -> u64 {
        if self.config.workload.aggregate_targets {
            1
        } else {
            self.config.connections as u64
        }
    }

    fn warmup_target(&self) -> u64 {
        u64::from(self.config.workload.warmup_messages) * self.message_target_scale()
    }

    fn measure_target(&self) -> u64 {
        u64::from(self.config.workload.measure_messages) * self.message_target_scale()
    }

    /// Segments `flow` may put in flight right now: the smaller of free
    /// send-buffer space and what Reno's congestion window still allows
    /// (cwnd binds on unACKed segments, not on device completions).
    fn send_room(&self, flow: usize) -> u32 {
        let conn_id = ConnectionId::new(flow as u32);
        let buf_free = self
            .config
            .tunables
            .send_buf_segments
            .saturating_sub(self.stack.tx_inflight(conn_id));
        let cwnd_free = self
            .stack
            .tx_window(conn_id)
            .saturating_sub(self.stack.tx_unacked(conn_id));
        buf_free.min(cwnd_free)
    }

    /// Enough send room to be worth a `sendmsg`: low-watermark blocking
    /// (like `sock_wait_for_wmem`) doesn't dribble one-segment writes
    /// when the buffer is nearly full, though a ramping congestion window
    /// may legitimately be tiny.
    fn can_send(&self, flow: usize) -> bool {
        let low_water = 8
            .min(self.stack.tx_window(ConnectionId::new(flow as u32)) / 2)
            .max(1);
        self.send_room(flow) >= low_water
    }

    /// Seeds the run: periodic timers (interrupt plane only), then the
    /// workload's opening move — receivers parked behind full peer
    /// windows (RX), senders woken (interrupt-plane TX; PMD cores find
    /// their own send room), or a wave of connection arrivals (server
    /// workloads, which have no tasks).
    fn seed_work(&mut self) {
        if self.poll.is_none() && self.config.tunables.irq_rotation_cycles > 0 {
            self.push_event(self.config.tunables.irq_rotation_cycles, Event::IrqRotate);
        }
        let rx = self.config.workload.direction == Direction::Rx;
        if rx {
            self.blocked.fill(Some(BlockReason::RxData));
        }
        if self.server.is_some() {
            self.seed_arrivals();
        } else if rx {
            // The peers start streaming into every NIC (the active
            // working set only — provisioned-but-quiet flows never
            // source a frame).
            for f in 0..self.streaming_conns() {
                self.refill_peer_window(f, 0);
            }
        } else if self.poll.is_none() {
            // Wake every sender; placement spreads per policy.
            for i in 0..self.blocked.len() {
                let task = TaskId::new(i as u32);
                let from = self
                    .sched
                    .task(task)
                    .expect("spawned")
                    .affinity
                    .first()
                    .expect("non-empty mask");
                self.sched.wake(task, from, false).expect("task exists");
            }
        }
    }

    /// `write()` for a ttcp sender on CPU `c`: the next chunk of the
    /// current message, as much as the send room allows. On the
    /// interrupt plane a sender short of room blocks until a bottom half
    /// wakes it — the real ttcp dynamic that lets completions (and
    /// therefore interrupt affinity) steer where the process wakes up; a
    /// PMD core only calls in once [`Machine::can_send`] holds.
    fn step_tx(&mut self, c: usize, flow: usize) {
        let cpu = CpuId::new(c as u32);
        if !self.can_send(flow) {
            // Every bottom half of the queue now re-checks the sender.
            if self.staged[flow].is_empty() {
                self.queue_pending[self.flow_queue[flow]].push(flow);
            }
            self.blocked[flow] = Some(BlockReason::TxSpace);
            self.sched.block_current(cpu);
            return;
        }
        let mss = u64::from(self.config.stack.mss);
        let left = self.message_left(self.stack.bytes_submitted(ConnectionId::new(flow as u32)));
        let chunk = (u64::from(self.send_room(flow)) * mss).min(left);
        let cross = self.softirq_cpu(flow).is_some_and(|s| s != cpu);
        let (segs, delta) = self.transmit(c, flow, chunk, cross);
        self.last_process_cpu[flow] = Some(cpu);
        match self.poll.as_mut() {
            Some(plane) => {
                plane.counters[c].tx_frames += segs as u64;
                self.last_softirq_cpu[flow] = Some(cpu);
            }
            None => {
                self.sched.charge_current(cpu, delta);
                self.run_since_sched[c] += delta;
                if let Some(fd) = self.flow_dir.as_mut() {
                    fd.consumer_ran(flow, cpu, &mut self.steer_stats);
                }
            }
        }
        if chunk == left {
            let now = self.clocks[c];
            self.on_message_complete(now);
        }
    }

    /// Bytes of the current application message still to move, given
    /// the bytes the stack has moved for the flow so far (a finished
    /// message leaves a whole one to go).
    fn message_left(&self, moved: u64) -> u64 {
        let msg = self.config.workload.message_bytes;
        msg - moved % msg
    }

    /// `sendmsg` of `chunk` bytes for `flow` on CPU `c`, driver transmit
    /// included, with the segments serialized onto the flow's wire.
    /// Returns the segment count and the cycles charged.
    fn transmit(&mut self, c: usize, flow: usize, chunk: u64, cross: bool) -> (usize, u64) {
        let conn_id = ConnectionId::new(flow as u32);
        let queue = self.flow_queue[flow];
        let tx_ring = self.nics[self.queue_nic[queue]].tx_ring(self.queue_local[queue]);
        let (segs, delta) = self.charge(c, |stack, ctx| {
            let segs = stack.sendmsg(ctx, conn_id, chunk, cross);
            for (i, &seg) in segs.iter().enumerate() {
                stack.driver_tx(ctx, conn_id, tx_ring, i as u64, seg);
            }
            segs
        });
        let now = self.clocks[c];
        self.put_on_wire(flow, now, &segs);
        (segs.len(), delta)
    }

    /// One `recvmsg` of `flow`'s message remainder on CPU `c`.
    /// Returns the bytes read and the cycles charged.
    fn recv(&mut self, c: usize, flow: usize) -> (u64, u64) {
        let cpu = CpuId::new(c as u32);
        let conn_id = ConnectionId::new(flow as u32);
        let want = self.message_left(self.stack.bytes_delivered(conn_id));
        let cross = self.softirq_cpu(flow).is_some_and(|s| s != cpu);
        let read = self.charge(c, |stack, ctx| stack.recvmsg(ctx, conn_id, want, cross));
        self.last_process_cpu[flow] = Some(cpu);
        read
    }

    /// Credits the `got` bytes `flow`'s task just read, completing every
    /// message they finish (stopping once the run is done).
    fn credit_rx(&mut self, flow: usize, got: u64, now: u64) {
        let msg = self.config.workload.message_bytes;
        let after = self.stack.bytes_delivered(ConnectionId::new(flow as u32));
        for _ in 0..after / msg - (after - got) / msg {
            self.on_message_complete(now);
            if self.done {
                return;
            }
        }
    }

    /// Runs one stack operation on CPU `c` and advances its clock by the
    /// cycles it charged (poll work on a PMD core). Returns the
    /// operation's result and those cycles.
    fn charge<R>(
        &mut self,
        c: usize,
        f: impl FnOnce(&mut TcpStack, &mut ExecCtx<'_>) -> R,
    ) -> (R, u64) {
        let before = self.cores[c].busy_cycles();
        let r = {
            let mut ctx = ExecCtx::new(
                &mut self.cores[c],
                &mut self.mem,
                &mut self.prof,
                &mut self.rng,
            );
            f(&mut self.stack, &mut ctx)
        };
        let delta = self.cores[c].busy_cycles() - before;
        self.clocks[c] += delta;
        if let Some(plane) = self.poll.as_mut() {
            plane.counters[c].work_cycles += delta;
        }
        (r, delta)
    }

    fn process_event(&mut self) {
        let Some((time, event)) = self.events.pop() else {
            return;
        };
        let t = time.cycles();
        match event {
            Event::FrameArrival { flow, bytes } => {
                self.deliver(self.flow_queue[flow], RxDesc::Data { flow, bytes }, t);
            }
            Event::AckArrival { flow, acked } => {
                self.deliver(self.flow_queue[flow], RxDesc::Ack { flow, acked }, t);
            }
            Event::WireTx { flow, bytes } => {
                self.deliver(self.flow_queue[flow], RxDesc::TxDone { flow }, t);
                self.wire_tail(flow, bytes, t);
            }
            Event::CoalesceFlush { queue, armed_at } => self.coalesce_flush(queue, armed_at, t),
            Event::RtoFire { flow, bytes } => self.rto_fire(flow, bytes, t),
            Event::IrqRotate => self.irq_rotate(t),
            Event::ConnArrival => {
                if let Some(flow) = self.server_admit(t) {
                    self.deliver(self.flow_queue[flow], RxDesc::Syn { flow }, t);
                }
            }
            Event::FinAckArrival { flow } => {
                self.deliver(self.flow_queue[flow], RxDesc::FinAck { flow }, t);
            }
        }
    }

    /// The NIC↔host seam of both dataplanes: the device DMAs `desc`'s
    /// frame (or reads out its transmitted segment) at cycle `t`, then
    /// hands it to the host. The interrupt plane stages it for the
    /// flow's next bottom half and raises or arms the queue's coalescer;
    /// the poll plane queues it on the rx ring for the owning PMD core.
    fn deliver(&mut self, queue: usize, desc: RxDesc, t: u64) {
        let nic = &mut self.nics[self.queue_nic[queue]];
        let local = self.queue_local[queue];
        match desc {
            RxDesc::TxDone { .. } => nic.dma_tx_frame(local, &mut self.mem),
            RxDesc::Data { bytes, .. } => nic.dma_rx_frame(local, &mut self.mem, bytes),
            _ => nic.dma_rx_frame(local, &mut self.mem, 66), // header-only frame
        }
        if let Some(plane) = self.poll.as_mut() {
            plane.enqueue(queue, desc, t);
            return;
        }
        let raise = nic.moderate(local, t);
        self.stage(queue, desc);
        self.nic_activity[queue] = t;
        if raise {
            self.deliver_interrupt(queue, t + self.config.tunables.irq_latency_cycles);
        } else {
            self.arm_flush(queue, t);
        }
    }

    /// Stages `desc` into its flow's pending state for `queue`'s next
    /// bottom half, listing the flow when it was not listed yet.
    fn stage(&mut self, queue: usize, desc: RxDesc) {
        let flow = desc.flow();
        if !self.flow_listed(flow) {
            self.queue_pending[queue].push(flow);
        }
        self.staged[flow].push(desc);
    }

    /// True while `flow` is on its queue's `queue_pending` list: it has
    /// work staged, or its ttcp sender is blocked for send room. Every
    /// bottom half of the queue re-checks such a sender, because the
    /// wake test (`wake_blocked`) is looser than `can_send`'s low water
    /// and can pass before any completion arrives; the flow stays
    /// listed until the sender wakes.
    fn flow_listed(&self, flow: usize) -> bool {
        !self.staged[flow].is_empty()
            || (self.server.is_none() && self.blocked[flow] == Some(BlockReason::TxSpace))
    }

    /// The CPU whose bottom half last ran for `flow`. On the ttcp
    /// interrupt plane that is the queue's latest bottom half: it stands
    /// for every flow of the queue, as a softirq's poll of its device
    /// does, whether or not the flow had anything staged. Server and
    /// poll bottom halves run for one flow at a time.
    fn softirq_cpu(&self, flow: usize) -> Option<CpuId> {
        if self.server.is_none() && self.poll.is_none() {
            self.queue_softirq_cpu[self.flow_queue[flow]]
        } else {
            self.last_softirq_cpu[flow]
        }
    }

    /// One queue's bottom half on CPU `c`: the NAPI poll loop of the
    /// interrupt plane's softirq, or a PMD core's pass over its drained
    /// burst. It visits the listed flows (see [`Machine::flow_listed`])
    /// in ascending order — exactly the single-flow body on the paper
    /// SUT, where each queue carries one connection.
    fn run_bottom_half(&mut self, c: usize, queue: usize) {
        let mut pending = std::mem::take(&mut self.queue_pending[queue]);
        pending.sort_unstable();
        for &flow in &pending {
            self.run_flow_bottom_half(c, queue, flow);
            // A PMD core stops the moment the run completes; a softirq
            // finishes its pass.
            if self.done && self.poll.is_some() {
                return;
            }
        }
        self.queue_softirq_cpu[queue] = Some(CpuId::new(c as u32));
        // Reuse the buffer for the flows listed since the pass began.
        pending.clear();
        pending.append(&mut self.queue_pending[queue]);
        self.queue_pending[queue] = pending;
    }

    /// Protocol processing of everything staged for `flow`, then the
    /// consumer's continuation: a scheduler wakeup (and an IPI when the
    /// process lives elsewhere) on the interrupt plane, run-to-completion
    /// on the poll plane.
    fn run_flow_bottom_half(&mut self, c: usize, queue: usize, flow: usize) {
        let cpu = CpuId::new(c as u32);
        let nic = self.queue_nic[queue];
        let local = self.queue_local[queue];
        let conn_id = ConnectionId::new(flow as u32);
        // Never true on the poll plane: the process context of a flow
        // only ever runs on its queue's PMD core.
        let cross = self.last_process_cpu[flow].is_some_and(|p| p != cpu);

        let Staged {
            frames,
            acked,
            txdone,
            syn,
            finack,
        } = std::mem::take(&mut self.staged[flow]);

        let tx_ring = self.nics[nic].tx_ring(local);
        let rx_ring = self.nics[nic].rx_ring(local);
        let (syn_queued, _) = self.charge(c, |stack, ctx| {
            if txdone > 0 {
                stack.tx_complete(ctx, conn_id, tx_ring, txdone);
            }
            if acked > 0 {
                stack.rx_ack(ctx, conn_id, acked, cross);
            }
            let syn_queued = syn && stack.on_syn(ctx, conn_id, cross).queued;
            if !frames.is_empty() {
                stack.rx_bottom_half(ctx, conn_id, &frames, rx_ring, cross);
            }
            if finack {
                stack.on_fin_ack(ctx, conn_id, cross);
            }
            syn_queued
        });
        if !frames.is_empty() {
            self.peer_inflight[flow] = self.peer_inflight[flow].saturating_sub(frames.len() as u32);
            // Out-of-order-completion signature (Wu et al.): data frames
            // of this flow completing on a different CPU than the
            // previous batch means the in-window ordering the consumer
            // observes can interleave — the reordering pathology of
            // directed steering migrating a flow mid-window. Tracked for
            // every policy so sweeps can compare.
            if self.softirq_cpu(flow).is_some_and(|prev| prev != cpu) {
                self.steer_stats.ooo_completions += frames.len() as u64;
            }
        }
        self.last_softirq_cpu[flow] = Some(cpu);
        let now = self.clocks[c];

        // Completing execution of a split stack requires interrupting
        // the CPU that owns the process context (the paper's IPI story):
        // the bottom half ran here, the connection's process runs there.
        if let Some(proc_cpu) = self.last_process_cpu[flow] {
            if proc_cpu != cpu && (!frames.is_empty() || acked > 0) {
                self.deliver_ipi(cpu, proc_cpu, IpiKind::FunctionCall, now);
            }
        }
        if let Some(plane) = self.poll.as_mut() {
            // A PMD core is its flows' process context too.
            plane.counters[c].rx_frames += frames.len() as u64;
            self.last_process_cpu[flow] = Some(cpu);
        }

        if self.server.is_some() {
            // Server lifecycle: process context runs now, charged on the
            // connection's process CPU — no scheduler task to wake.
            if syn && !syn_queued {
                self.server_syn_drop(flow, now);
                return;
            }
            self.server_flow_progress(c, flow, syn && syn_queued, finack);
            return;
        }
        if self.config.workload.direction == Direction::Rx && !frames.is_empty() {
            if self.poll.is_some() {
                // Run to completion: the application consumes inline.
                self.consume_inline(c, flow);
            }
            // Keep the peer's window full.
            let at = self.clocks[c];
            self.refill_peer_window(flow, at);
        }
        if self.poll.is_none() {
            self.wake_blocked(flow, c, now);
            if self.blocked[flow] == Some(BlockReason::TxSpace) {
                self.queue_pending[queue].push(flow);
            }
        }
    }

    fn on_message_complete(&mut self, now: u64) {
        self.total_messages += 1;
        if !self.measuring {
            if self.total_messages >= self.warmup_target() {
                self.begin_measurement(now);
            }
            return;
        }
        self.measured_messages += 1;
        self.bytes_moved += self.config.workload.message_bytes;
        self.last_message_time = now;
        if self.measured_messages >= self.measure_target() {
            self.done = true;
        }
    }

    fn begin_measurement(&mut self, now: u64) {
        self.measuring = true;
        self.measure_start = now;
        self.last_message_time = now;
        self.mem.reset_stats();
        for core in &mut self.cores {
            core.reset_counters();
        }
        self.prof.reset();
        self.sched.reset_stats();
        self.apic.reset_stats();
        self.ipi.reset_stats();
        self.steer_stats = SteerCounters::default();
        for nic in &mut self.nics {
            nic.reset_stats();
        }
        if let Some(plane) = &mut self.poll {
            plane.reset_counters();
        }
        if let Some(srv) = &mut self.server {
            srv.window_accepts = 0;
            srv.window_completes = 0;
            srv.fct.clear();
        }
    }

    fn collect_metrics(&self) -> RunMetrics {
        let wall = self
            .last_message_time
            .saturating_sub(self.measure_start)
            .max(1);
        let bins = Bin::ALL
            .into_iter()
            .map(|bin| BinBreakdown {
                bin,
                counters: self.prof.group_total(self.stack.registry(), bin.label()),
            })
            .collect();
        let mut clears_by_reason = [0u64; 5];
        for core in &self.cores {
            let by = core.clears_by_reason();
            for i in 0..5 {
                clears_by_reason[i] += by[i];
            }
        }
        let sched_stats = self.sched.stats();
        let (mut lock_acq, mut lock_cont) = (0, 0);
        for i in 0..self.config.connections {
            let s = self.stack.lock_stats(ConnectionId::new(i as u32));
            lock_acq += s.acquisitions;
            lock_cont += s.contended;
        }
        RunMetrics {
            wall_cycles: wall,
            freq: self.config.cpu.freq,
            bytes_moved: self.bytes_moved,
            messages: self.measured_messages,
            busy_cycles: self.cores.iter().map(Core::busy_cycles).collect(),
            total: self.prof.total(),
            bins,
            clears_by_reason,
            resched_ipis: sched_stats.resched_ipis,
            wake_migrations: sched_stats.wake_migrations,
            balance_migrations: sched_stats.balance_migrations,
            lock_acquisitions: lock_acq,
            lock_contended: lock_cont,
            interrupts: self.nics.iter().map(|n| n.stats().interrupts).sum(),
        }
    }

    /// The profiler (for table/figure rendering after a run).
    #[must_use]
    pub fn profiler(&self) -> &Profiler {
        &self.prof
    }

    /// The memory system (caches, coherence directory, regions).
    #[must_use]
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// The stack's function registry.
    #[must_use]
    pub fn registry(&self) -> &sim_prof::FunctionRegistry {
        self.stack.registry()
    }

    /// The interrupt vectors in global queue order (one per NIC on the
    /// paper SUT's single-queue ports).
    #[must_use]
    pub fn vectors(&self) -> &[IrqVector] {
        &self.vectors
    }

    /// Steering counters for the measurement window (re-steers, filter
    /// rejects, out-of-order completions).
    #[must_use]
    pub fn steer_stats(&self) -> SteerCounters {
        self.steer_stats
    }

    /// The hardware queue carrying each flow (global queue index).
    #[must_use]
    pub fn flow_queues(&self) -> &[usize] {
        &self.flow_queue
    }

    /// Busy-poll counters aggregated over all PMD cores (measurement
    /// window; all zero under the interrupt dataplane).
    #[must_use]
    pub fn poll_stats(&self) -> PollCounters {
        let mut total = PollCounters::default();
        if let Some(plane) = &self.poll {
            for c in &plane.counters {
                total.merge(c);
            }
        }
        total
    }

    /// Busy-poll counters per CPU (empty under the interrupt dataplane).
    #[must_use]
    pub fn poll_stats_per_cpu(&self) -> Vec<PollCounters> {
        self.poll
            .as_ref()
            .map(|plane| plane.counters.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::{should_trace, Machine};
    use crate::experiment::{DataplaneMode, ExperimentConfig};
    use crate::steer::SteerSpec;
    use crate::workload::Direction;
    use crate::AffinityMode;
    use sim_core::CpuId;
    use sim_mem::MemoryConfig;
    use sim_net::CoalesceConfig;
    use sim_os::CpuMask;

    #[test]
    fn loss_rate_must_lie_in_the_unit_interval() {
        let base = ExperimentConfig::paper_sut(Direction::Rx, 1024, AffinityMode::None).quick();
        let with = |loss_rate| {
            let mut config = base.clone();
            config.tunables.loss_rate = loss_rate;
            Machine::new(&config)
        };
        assert!(with(0.0).is_ok());
        assert!(with(0.999).is_ok());
        for bad in [1.0, 1.5, -3.0, f64::NAN, f64::INFINITY] {
            assert!(with(bad).is_err(), "loss rate {bad} accepted");
        }
    }

    #[test]
    fn run_loop_guard_scales_with_expected_transmissions() {
        let base = ExperimentConfig::paper_sut(Direction::Rx, 1024, AffinityMode::None).quick();
        let limit = |loss_rate| {
            let mut config = base.clone();
            config.tunables.loss_rate = loss_rate;
            Machine::new(&config).unwrap().guard_limit() - 1_000_000
        };
        assert_eq!(limit(0.75), 4 * limit(0.0));
        assert_eq!(limit(0.999), 1000 * limit(0.0));
    }

    #[test]
    fn coalescing_batch_must_fit_the_rx_ring() {
        let base = ExperimentConfig::paper_sut(Direction::Rx, 1024, AffinityMode::None).quick();
        let with = |coalesce| {
            let mut config = base.clone();
            config.nic.coalesce = coalesce;
            Machine::new(&config)
        };
        let ring = base.nic.ring_entries;
        assert!(with(CoalesceConfig::FixedCount { events: ring }).is_ok());
        assert!(with(CoalesceConfig::FixedCount { events: ring + 1 }).is_err());
        let adaptive = |max_events| CoalesceConfig::AdaptiveTimeout {
            min_events: 1,
            max_events,
            idle_gap_cycles: 8_000,
            timeout_cycles: 12_000,
        };
        assert!(with(adaptive(ring)).is_ok());
        assert!(with(adaptive(ring + 1)).is_err());
    }

    #[test]
    fn cpu_count_and_connections_are_checked_at_construction() {
        let base = ExperimentConfig::paper_sut(Direction::Rx, 1024, AffinityMode::None).quick();
        assert!(Machine::new(&base).is_ok());
        // More CPUs than the memory system models (it stays at two).
        let mut config = base.clone();
        config.cpus = 4;
        assert!(Machine::new(&config).is_err());
        // Fewer CPUs than the memory system models.
        config.cpus = 1;
        assert!(Machine::new(&config).is_err());
        // Beyond the coherence directory's limit, agreeing counts or not.
        for cpus in [0, MemoryConfig::MAX_CPUS + 1] {
            let mut config = base.clone();
            config.cpus = cpus;
            config.mem.cpus = cpus;
            assert!(Machine::new(&config).is_err(), "{cpus} cpus");
        }
        let mut config = base;
        config.connections = 0;
        assert!(Machine::new(&config).is_err());
        // The scenario constructors leave both checks to `Machine::new`.
        let too_many = MemoryConfig::MAX_CPUS + 1;
        let spec = SteerSpec::flow_director();
        for (label, config) in [
            (
                "scale 33 cpus",
                ExperimentConfig::scale(Direction::Rx, too_many, 64, AffinityMode::Rss),
            ),
            (
                "scale 0 flows",
                ExperimentConfig::scale(Direction::Rx, 4, 0, AffinityMode::Rss),
            ),
            (
                "churn 33 cpus",
                ExperimentConfig::churn(too_many, 64, spec, DataplaneMode::Interrupt),
            ),
            (
                "churn 0 flows",
                ExperimentConfig::churn(4, 0, spec, DataplaneMode::Poll),
            ),
        ] {
            assert!(Machine::new(&config).is_err(), "{label}");
        }
    }

    #[test]
    fn flow_director_starts_from_the_specs_vector_layout() {
        for (spec, cpu0) in [
            (SteerSpec::flow_director_unconfigured(), true),
            (SteerSpec::flow_director(), false),
        ] {
            let config = ExperimentConfig::steer_sweep(Direction::Rx, 4, 16, spec);
            let machine = Machine::new(&config).unwrap();
            for (q, &v) in machine.vectors.iter().enumerate() {
                let home = if cpu0 {
                    CpuId::new(0)
                } else {
                    CpuId::new(q as u32)
                };
                assert_eq!(
                    machine.apic.affinity(v),
                    CpuMask::single(home),
                    "{spec:?} queue {q}"
                );
                assert_eq!(machine.apic.route(v), home, "{spec:?} queue {q}");
            }
        }
    }

    #[test]
    fn trace_gate_fires_on_powers_of_two_and_200k_multiples() {
        assert!(!should_trace(0), "iteration 0 never runs");
        for g in [1, 2, 4, 1024, 1 << 40] {
            assert!(should_trace(g), "{g} is a power of two");
        }
        for g in [200_000u64, 400_000, 2_000_000] {
            assert!(should_trace(g), "{g} is a 200k multiple");
        }
        for g in [3, 5, 199_999, 200_001, 300_000] {
            assert!(!should_trace(g), "{g} should be quiet");
        }
    }
}
