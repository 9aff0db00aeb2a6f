//! The server workload's connection lifecycle: admission, accept,
//! request/response in process context, FIN and teardown.

use sim_core::{ConnectionId, CpuId};
use sim_tcp::{ConnState, ExecCtx, TcpStack};

use super::{Event, Machine};
use crate::metrics::LifecycleCounters;
use crate::workload::ServerWorkload;

/// All dynamic-connection state of a server-workload run. `None` for the
/// immortal-flow `ttcp` workloads — every field here is dead weight on
/// those paths, so the whole thing lives behind one boxed option.
#[derive(Debug)]
pub(super) struct ServerState {
    pub(super) workload: ServerWorkload,
    /// Connection arrivals scheduled so far (client retries after a
    /// dropped SYN re-use their original arrival's budget).
    scheduled: u64,
    /// Serial number stamped on the next admitted connection — drives
    /// the deterministic mice/elephant response mix.
    serial: u64,
    /// Lifetime lifecycle counters.
    accepts: u64,
    completes: u64,
    backlog_drops: u64,
    /// Measurement-window lifecycle counters.
    pub(super) window_accepts: u64,
    pub(super) window_completes: u64,
    /// Per-slot facts of the current incarnation, indexed by flow slot
    /// and stamped at admission: the response size, and the SYN's
    /// arrival time. Byte progress is the stack's per-incarnation count.
    response_bytes: Vec<u64>,
    started_at: Vec<u64>,
    /// Flow-completion-time samples (SYN arrival → teardown complete)
    /// from the measurement window.
    pub(super) fct: Vec<u64>,
}

impl ServerState {
    pub(super) fn new(workload: ServerWorkload, slots: usize) -> Self {
        ServerState {
            workload,
            scheduled: 0,
            serial: 0,
            accepts: 0,
            completes: 0,
            backlog_drops: 0,
            window_accepts: 0,
            window_completes: 0,
            response_bytes: vec![0; slots],
            started_at: vec![0; slots],
            fct: Vec::new(),
        }
    }
}

impl Machine {
    /// The server workload's opening wave of connection arrivals, with
    /// exponential gaps.
    pub(super) fn seed_arrivals(&mut self) {
        let (total, gap) = {
            let srv = self.server.as_ref().expect("server mode");
            (srv.workload.total_conns(), srv.workload.arrival_gap_cycles)
        };
        let slots = self.config.connections as u64;
        // Overbook the initial wave by an eighth so the SYN-drop/retry
        // path is exercised deterministically: the first `slots`
        // arrivals fill the arena, the excess retry after the client's
        // RTO. Later arrivals are closed-loop replacements (one per
        // completion), which cannot contend for slots on their own.
        let initial = total.min(slots + (slots / 8).max(1));
        let mut at = 0u64;
        for _ in 0..initial {
            at += self.rng.exponential(gap as f64) as u64;
            self.push_event(at, Event::ConnArrival);
        }
        self.server.as_mut().expect("server mode").scheduled = initial;
    }

    /// Admits one arriving connection: allocates an arena slot, stamps
    /// the incarnation's response size and start time, and returns the
    /// slot — or counts a drop and arms the client's SYN retransmission.
    pub(super) fn server_admit(&mut self, t: u64) -> Option<usize> {
        let Some(conn) = self.stack.flow_alloc() else {
            let srv = self.server.as_mut().expect("server mode");
            srv.backlog_drops += 1;
            self.arm_rto(Event::ConnArrival);
            return None;
        };
        let flow = conn.index();
        debug_assert!(
            self.staged[flow].is_empty(),
            "slot {flow}'s previous incarnation left work staged"
        );
        let srv = self.server.as_mut().expect("server mode");
        srv.response_bytes[flow] = srv.workload.response_for(srv.serial);
        srv.serial += 1;
        srv.started_at[flow] = t;
        Some(flow)
    }

    /// The CPU that runs a server connection's process context. With
    /// pinned processes (`sched_setaffinity`) the worker owning a flow
    /// slot lives on `slot % cpus` — accept-distributed workers, the
    /// SO_REUSEPORT shape — which is deliberately *not* a function of
    /// the flow's hash-placed NIC queue: static RSS then pays a
    /// persistent vector-home-vs-worker mismatch that a dynamic
    /// steering policy can close by chasing the consumer. Unpinned,
    /// the worker runs wherever the softirq just ran. Poll mode always
    /// runs to completion on the owning PMD core.
    fn server_proc_cpu(&self, flow: usize, softirq_cpu: usize) -> usize {
        if self.poll.is_none() && self.config.steer.pin_processes {
            flow % self.config.cpus
        } else {
            softirq_cpu
        }
    }

    /// Charges one process-context stack operation on CPU `pc`, pulling
    /// its clock forward to `from` first (the softirq that staged the
    /// work has already finished there).
    fn server_charge<R>(
        &mut self,
        pc: usize,
        from: u64,
        f: impl FnOnce(&mut TcpStack, &mut ExecCtx<'_>) -> R,
    ) -> R {
        self.clocks[pc] = self.clocks[pc].max(from);
        self.charge(pc, f).0
    }

    /// The stack refused a SYN (listen backlog full): free the slot the
    /// arrival held and schedule the client's retransmission.
    pub(super) fn server_syn_drop(&mut self, flow: usize, now: u64) {
        self.stack.flow_free(ConnectionId::new(flow as u32));
        self.server.as_mut().expect("server mode").backlog_drops += 1;
        // Not `arm_rto`: `now` is the softirq CPU's clock, which runs
        // ahead of and behind the watermark, so these retries are not
        // monotone with the timer run and belong in the calendar.
        self.push_event(now + self.config.tunables.rto_cycles, Event::ConnArrival);
    }

    /// Everything a server connection does outside the softirq: accept,
    /// consume the request, push response segments and the FIN as
    /// windows allow, and retire the connection after its FIN is ACKed.
    pub(super) fn server_flow_progress(
        &mut self,
        c: usize,
        flow: usize,
        accepted: bool,
        closed: bool,
    ) {
        if closed {
            let now = self.clocks[c];
            self.server_complete(flow, now);
            return;
        }
        if accepted {
            self.server_accept(c, flow);
        }
        if self.stack.conn_state(ConnectionId::new(flow as u32)) == ConnState::Established {
            self.server_consume_request(c, flow);
            self.server_pump_response(c, flow);
        }
    }

    /// `accept()` on the connection's process CPU: transitions the
    /// connection to ESTABLISHED, installs its steering-table entry, and
    /// starts the client's request one RTT out.
    fn server_accept(&mut self, c: usize, flow: usize) {
        let conn_id = ConnectionId::new(flow as u32);
        let pc = self.server_proc_cpu(flow, c);
        let cpu = CpuId::new(pc as u32);
        let cross = pc != c;
        let now = self.clocks[c];
        self.server_charge(pc, now, |stack, ctx| {
            stack.accept(ctx, conn_id, cross);
        });
        self.last_process_cpu[flow] = Some(cpu);
        if let Some(fd) = self.flow_dir.as_mut() {
            fd.flow_opened(flow, cpu, &mut self.steer_stats);
        }
        let measuring = self.measuring;
        let srv = self.server.as_mut().expect("server mode");
        srv.accepts += 1;
        if measuring {
            srv.window_accepts += 1;
        }
        self.server_schedule_request(flow, now);
    }

    /// Schedules the client's request frames on the wire, one RTT (plus
    /// jitter) after the SYN-ACK.
    fn server_schedule_request(&mut self, flow: usize, now: u64) {
        let request = self
            .server
            .as_ref()
            .expect("server mode")
            .workload
            .request_bytes;
        let mss = u64::from(self.config.stack.mss);
        let rtt = self.config.tunables.rtt_cycles;
        let jitter = self.rng.exponential(rtt as f64 / 4.0) as u64;
        let mut at = self.wire_cursor[flow].max(now + rtt + jitter);
        let mut left = request;
        while left > 0 {
            let chunk = left.min(mss) as u32;
            left -= u64::from(chunk);
            at += self.wire_time(chunk);
            self.peer_inflight[flow] += 1;
            self.push_event(at, Event::FrameArrival { flow, bytes: chunk });
        }
        self.wire_cursor[flow] = at;
    }

    /// Request bytes of `flow`'s current incarnation not yet read.
    fn request_left(&self, flow: usize) -> u64 {
        let request = self
            .server
            .as_ref()
            .expect("server mode")
            .workload
            .request_bytes;
        request.saturating_sub(self.stack.bytes_delivered(ConnectionId::new(flow as u32)))
    }

    /// `recvmsg` loop on the process CPU, consuming whatever request
    /// bytes the softirq queued.
    fn server_consume_request(&mut self, c: usize, flow: usize) {
        let conn_id = ConnectionId::new(flow as u32);
        loop {
            let want = self.request_left(flow);
            if want == 0 || self.stack.rx_available(conn_id) == 0 {
                return;
            }
            let pc = self.server_proc_cpu(flow, c);
            let cpu = CpuId::new(pc as u32);
            let cross = self.softirq_cpu(flow).is_some_and(|s| s != cpu);
            let now = self.clocks[c];
            let got = self.server_charge(pc, now, |stack, ctx| {
                stack.recvmsg(ctx, conn_id, want, cross)
            });
            self.last_process_cpu[flow] = Some(cpu);
            if let Some(fd) = self.flow_dir.as_mut() {
                fd.consumer_ran(flow, cpu, &mut self.steer_stats);
            }
            if got == 0 {
                return;
            }
        }
    }

    /// Submits response segments as send-buffer and congestion-window
    /// room allows; once the response is fully submitted and every
    /// segment is ACKed, sends the FIN.
    fn server_pump_response(&mut self, c: usize, flow: usize) {
        let conn_id = ConnectionId::new(flow as u32);
        if self.request_left(flow) > 0 {
            return; // request still in flight from the client
        }
        let remaining = self.server.as_ref().expect("server mode").response_bytes[flow]
            - self.stack.bytes_submitted(conn_id);
        let pc = self.server_proc_cpu(flow, c);
        let cpu = CpuId::new(pc as u32);
        let cross = self.softirq_cpu(flow).is_some_and(|s| s != cpu);
        let now = self.clocks[c];
        if remaining > 0 {
            let mss = u64::from(self.config.stack.mss);
            let chunk = (u64::from(self.send_room(flow)) * mss).min(remaining);
            if chunk == 0 {
                return; // window closed; the next ACK/TxDone reopens it
            }
            self.clocks[pc] = self.clocks[pc].max(now);
            self.transmit(pc, flow, chunk, cross);
            self.last_process_cpu[flow] = Some(cpu);
            if let Some(fd) = self.flow_dir.as_mut() {
                fd.consumer_ran(flow, cpu, &mut self.steer_stats);
            }
            return;
        }
        // Response fully submitted: FIN once the retransmission queue
        // drains (no in-flight or unACKed segments left).
        if self.stack.conn_state(conn_id) == ConnState::Established
            && self.stack.tx_unacked(conn_id) == 0
            && self.stack.tx_inflight(conn_id) == 0
        {
            self.server_charge(pc, now, |stack, ctx| {
                stack.send_fin(ctx, conn_id, cross);
            });
            self.last_process_cpu[flow] = Some(cpu);
            let sent_at = self.clocks[pc];
            self.put_on_wire(flow, sent_at, &[0]);
        }
    }

    /// The FIN-ACK arrived and the stack closed the connection: tear
    /// down steering state, free the slot, record the completion, and
    /// keep the open loop fed.
    fn server_complete(&mut self, flow: usize, now: u64) {
        let conn_id = ConnectionId::new(flow as u32);
        debug_assert_eq!(self.stack.conn_state(conn_id), ConnState::Closed);
        if let Some(fd) = self.flow_dir.as_mut() {
            fd.flow_closed(flow, &mut self.steer_stats);
        }
        self.stack.flow_free(conn_id);
        // Drop leftover client delayed-ACK state so the slot's next
        // incarnation starts clean.
        let _ = self.peers[flow].flush_ack();
        let measuring = self.measuring;
        let (completes, warmup, total, needs_replacement, bytes) = {
            let srv = self.server.as_mut().expect("server mode");
            srv.completes += 1;
            if measuring {
                srv.window_completes += 1;
                srv.fct.push(now.saturating_sub(srv.started_at[flow]));
            }
            (
                srv.completes,
                srv.workload.warmup_conns,
                srv.workload.total_conns(),
                srv.scheduled < srv.workload.total_conns(),
                srv.workload.request_bytes + srv.response_bytes[flow],
            )
        };
        self.total_messages += 1;
        if measuring {
            self.measured_messages += 1;
            self.bytes_moved += bytes;
            self.last_message_time = now;
        }
        if !self.measuring && completes >= warmup {
            self.begin_measurement(now);
        }
        if completes >= total {
            self.done = true;
        }
        if needs_replacement && !self.done {
            let gap = self
                .server
                .as_ref()
                .expect("server mode")
                .workload
                .arrival_gap_cycles;
            let at = now + self.rng.exponential(gap as f64) as u64;
            self.server.as_mut().expect("server mode").scheduled += 1;
            self.push_event(at, Event::ConnArrival);
        }
    }

    /// Lifecycle counters of the finished run (all zero for the
    /// immortal-flow workloads): window accepts/completes, lifetime SYN
    /// drops, flow-completion-time percentiles, and the drain state —
    /// live slots and steering-table occupancy, both zero after a fully
    /// drained churn run.
    #[must_use]
    pub fn lifecycle_stats(&self) -> LifecycleCounters {
        let Some(srv) = self.server.as_ref() else {
            return LifecycleCounters::default();
        };
        let mut fct = srv.fct.clone();
        fct.sort_unstable();
        let pct = |p: u64| -> u64 {
            if fct.is_empty() {
                0
            } else {
                fct[((fct.len() as u64 - 1) * p / 100) as usize]
            }
        };
        LifecycleCounters {
            accepts: srv.window_accepts,
            completes: srv.window_completes,
            backlog_drops: srv.backlog_drops,
            fct_p50_cycles: pct(50),
            fct_p99_cycles: pct(99),
            final_live_flows: self.stack.live_flows() as u64,
            final_table_entries: self
                .flow_dir
                .as_ref()
                .map_or(0, |fd| fd.occupancy().0 as u64),
        }
    }
}
