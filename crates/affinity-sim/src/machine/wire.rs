//! The wire and peer model both dataplanes share: event scheduling,
//! segment serialization, the wire's verdict on each sent segment,
//! retransmission timeouts and the peers' receive windows.

use sim_core::{ConnectionId, CpuId, SimTime};

use super::{Event, Machine};

impl Machine {
    /// Schedules `event` at cycle `at`, clamped forward to the queue's
    /// causality watermark (see `sim_core::event`): CPU-local clocks can
    /// trail device time, so a wire/timer computation may produce a
    /// timestamp the queue has already passed. Every event the machine
    /// schedules goes through here, so the watermark panic in
    /// `EventQueue::push` is unreachable from the run loop.
    pub(super) fn push_event(&mut self, at: u64, event: Event) {
        let at = at.max(self.events.now().cycles());
        self.events.push(SimTime::from_cycles(at), event);
    }

    /// Arms a retransmission timer: `event` fires `rto_cycles` after the
    /// event being processed. The watermark never decreases and the
    /// delay is fixed, so these timers reach the queue in time order and
    /// ride its FIFO timer run instead of the far heap.
    pub(super) fn arm_rto(&mut self, event: Event) {
        let at = self.events.now() + self.config.tunables.rto_cycles;
        self.events.push_timer(at, event);
    }

    pub(super) fn wire_time(&self, payload: u32) -> u64 {
        u64::from(payload + 66) * self.config.tunables.wire_cycles_per_byte
    }

    pub(super) fn refill_peer_window(&mut self, flow: usize, now: u64) {
        if self.done {
            return;
        }
        let window = self.config.tunables.peer_window;
        let mss = u64::from(self.config.stack.mss);
        while self.peer_inflight[flow] < window {
            // TCP receive-window flow control: don't exceed the
            // advertised socket buffer with unread + in-flight data.
            let committed = self.stack.rx_available(ConnectionId::new(flow as u32))
                + u64::from(self.peer_inflight[flow]) * mss;
            if committed + mss > self.config.tunables.rcv_buf_bytes {
                break;
            }
            let (seg, gap) = self.peers[flow].source_frame();
            let at = self.wire_cursor[flow].max(now) + self.wire_time(seg.payload) + gap;
            self.wire_cursor[flow] = at;
            self.peer_inflight[flow] += 1;
            self.push_event(
                at,
                Event::FrameArrival {
                    flow,
                    bytes: seg.payload,
                },
            );
        }
    }

    /// The wire's verdict on a segment `flow`'s NIC just sent at `t`: a
    /// FIN (server teardown's zero-byte segment) draws the client's
    /// FIN-ACK one RTT out, a lost segment arms the retransmission timer,
    /// and anything else may draw the peer's (delayed) ACK.
    pub(super) fn wire_tail(&mut self, flow: usize, bytes: u32, t: u64) {
        let rtt = self.config.tunables.rtt_cycles;
        if self.server.is_some() && bytes == 0 {
            let jitter = self.rng.exponential(rtt as f64 / 4.0) as u64;
            self.push_event(t + rtt + jitter, Event::FinAckArrival { flow });
            return;
        }
        if bytes > 0 && self.rng.chance(self.config.tunables.loss_rate) {
            // Lost on the wire: the peer never sees it; Reno's
            // retransmission timer will fire.
            self.arm_rto(Event::RtoFire { flow, bytes });
            return;
        }
        if self.peers[flow].on_data_segment().is_some() {
            // Jittered RTT: client-side processing and switch queueing
            // desynchronize the connections.
            let jitter = self.rng.exponential(rtt as f64 / 4.0) as u64;
            self.push_event(
                t + rtt + jitter,
                Event::AckArrival {
                    flow,
                    acked: self.config.stack.ack_every,
                },
            );
        }
    }

    /// Serializes `segs` onto `flow`'s wire, starting no earlier than
    /// `from`: each leaves one wire time after the previous.
    pub(super) fn put_on_wire(&mut self, flow: usize, from: u64, segs: &[u32]) {
        let mut cursor = self.wire_cursor[flow].max(from);
        for &bytes in segs {
            cursor += self.wire_time(bytes);
            self.push_event(cursor, Event::WireTx { flow, bytes });
        }
        self.wire_cursor[flow] = cursor;
    }

    /// Retransmission timeout for a lost `bytes`-payload segment of
    /// `flow`: collapse the window, rebuild the segment and requeue it on
    /// the wire. The timer softirq runs on the vector's CPU (interrupt
    /// context); on the poll plane the owning PMD core runs it inline.
    pub(super) fn rto_fire(&mut self, flow: usize, bytes: u32, t: u64) {
        let queue = self.flow_queue[flow];
        let c = match &self.poll {
            Some(plane) => plane.cpu_of_queue[queue],
            None => self.apic.route(self.vectors[queue]).index(),
        };
        let cpu = CpuId::new(c as u32);
        self.clocks[c] = self.clocks[c].max(t);
        let conn_id = ConnectionId::new(flow as u32);
        let cross = self.last_process_cpu[flow].is_some_and(|p| p != cpu);
        let ((), delta) = self.charge(c, |stack, ctx| {
            stack.retransmit_timeout(ctx, conn_id, bytes, cross);
        });
        if self.poll.is_none() {
            self.irq_cycles[c] += delta;
        }
        let now = self.clocks[c];
        self.put_on_wire(flow, now, &[bytes]);
    }
}
