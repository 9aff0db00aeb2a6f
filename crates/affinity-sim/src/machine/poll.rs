//! The poll plane: PMD cores that busy-poll their queues' rx rings,
//! drain bursts into the shared bottom half, send inline, and burn
//! idle time as spin.

use sim_core::ConnectionId;
use sim_os::PmdCore;

use super::Machine;
use crate::workload::Direction;

impl Machine {
    /// The earliest `(time, cpu)` at which any PMD core can do useful
    /// work: drain a descriptor its device has enqueued, or (TX) push
    /// more segments for a flow with send-window room. Ties break to the
    /// lower CPU; events at the same time are processed first by the
    /// caller (they only ever add work at that instant).
    pub(super) fn poll_next_work(&self) -> Option<(u64, usize)> {
        let plane = self.poll.as_ref().expect("poll mode");
        let mut best: Option<(u64, usize)> = None;
        for c in 0..self.config.cpus {
            let mut at = plane.next_rx_at(c);
            // Server-mode sends happen inline with batch processing, so
            // rings are the only work source there — skip the TX scan.
            if self.server.is_none()
                && self.config.workload.direction == Direction::Tx
                && plane.cores[c]
                    .queues()
                    .iter()
                    .flat_map(|&q| self.queue_flows[q].iter())
                    .any(|&f| self.can_send(f))
            {
                at = Some(at.map_or(self.clocks[c], |t| t.min(self.clocks[c])));
            }
            if let Some(t) = at {
                let ready = t.max(self.clocks[c]);
                if best.is_none_or(|(bt, _)| ready < bt) {
                    best = Some((ready, c));
                }
            }
        }
        best
    }

    /// One poll iteration of core `c`, starting at `t0`: spin across the
    /// idle gap, probe the owned rings, drain up to one burst per queue
    /// into the flows' pending state and run their bottom halves, then
    /// (TX) send for every flow with room — all on this core.
    pub(super) fn step_pmd(&mut self, c: usize, t0: u64) {
        if t0 > self.clocks[c] {
            // The core spun empty from its clock to t0. When the gap
            // straddles the measurement start (this core was idle when
            // another core's message completion reset the counters),
            // charge only the in-window part so busy never exceeds wall.
            let from = if self.measuring {
                self.clocks[c].max(self.measure_start).min(t0)
            } else {
                self.clocks[c]
            };
            if t0 > from {
                self.charge_spin(c, t0 - from);
            }
            self.clocks[c] = t0;
        }
        let (burst, epc, queues) = {
            let plane = self.poll.as_ref().expect("poll mode");
            (
                plane.burst,
                plane.empty_poll_cycles,
                plane.cores[c].queues().to_vec(),
            )
        };
        // The iteration's ring probes cost one poll quantum whether or
        // not they find anything.
        self.cores[c].charge_plain_cycles(epc);
        self.clocks[c] += epc;
        let mut found_work = false;
        for &q in &queues {
            // Drain one rx burst. Everything enqueued is observable:
            // events at or before t0 have already been processed.
            let mut drained = 0;
            while drained < burst {
                let Some(desc) = self.poll.as_mut().expect("poll mode").dequeue(q) else {
                    break;
                };
                self.stage(q, desc);
                drained += 1;
            }
            if drained > 0 {
                found_work = true;
                self.run_bottom_half(c, q);
                if self.done {
                    return;
                }
            }
        }
        // TX: after completions opened window room (or on the very first
        // iteration), push more segments for this core's flows. Server
        // responses are pushed inline by the bottom half instead.
        if self.server.is_none() && self.config.workload.direction == Direction::Tx {
            for &q in &queues {
                for i in 0..self.queue_flows[q].len() {
                    let flow = self.queue_flows[q][i];
                    if self.can_send(flow) {
                        found_work = true;
                        self.step_tx(c, flow);
                        if self.done {
                            return;
                        }
                    }
                }
            }
        }
        let counters = &mut self.poll.as_mut().expect("poll mode").counters[c];
        if found_work {
            counters.polls += 1;
        } else {
            counters.empty_polls += 1;
            counters.spin_cycles += epc;
        }
    }

    /// After the run completes, spin every PMD core forward to the last
    /// message time: a poll core is busy for the *entire* measurement
    /// window whether or not traffic reached it, and the GHz/Gbps cost
    /// metric must see that burn.
    pub(super) fn finish_poll_spin(&mut self) {
        let end = self.last_message_time;
        for c in 0..self.config.cpus {
            let from = self.clocks[c].max(self.measure_start);
            if end > from {
                self.charge_spin(c, end - from);
            }
            self.clocks[c] = self.clocks[c].max(end);
        }
    }

    /// Charges `gap` cycles of empty polling to PMD core `c`: busy
    /// cycles on the core, empty polls and spin in its counters.
    fn charge_spin(&mut self, c: usize, gap: u64) {
        self.cores[c].charge_spin_cycles(gap);
        let plane = self.poll.as_mut().expect("poll mode");
        let epc = plane.empty_poll_cycles;
        let counters = &mut plane.counters[c];
        counters.empty_polls += PmdCore::empty_polls_for_gap(gap, epc);
        counters.spin_cycles += gap;
    }

    /// Inline `recvmsg` loop of a PMD core: drain the socket on this
    /// core until it is empty (or the run completes).
    pub(super) fn consume_inline(&mut self, c: usize, flow: usize) {
        let conn_id = ConnectionId::new(flow as u32);
        while !self.done && self.stack.rx_available(conn_id) > 0 {
            let (got, _) = self.recv(c, flow);
            if got == 0 {
                return;
            }
            let now = self.clocks[c];
            self.credit_rx(flow, got, now);
        }
    }
}
