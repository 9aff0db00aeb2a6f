//! The interrupt plane: the scheduler-driven CPU step, interrupt
//! moderation and delivery, machine-clear attribution, IPIs and the
//! scheduler wakeups that continue a consumer after its bottom half.

use sim_core::{ConnectionId, CpuId, TaskId};
use sim_cpu::{ClearReason, PerfCounters};
use sim_os::IpiKind;
use sim_prof::FuncId;

use super::{BlockReason, Event, Machine};
use crate::workload::Direction;

impl Machine {
    pub(super) fn arm_flush(&mut self, queue: usize, at: u64) {
        if !self.flush_armed[queue] {
            self.flush_armed[queue] = true;
            // The queue's coalescer may carry its own moderation-timer
            // period (adaptive policies); fixed-count falls back to the
            // machine-level default.
            let timeout = self.nics[self.queue_nic[queue]]
                .flush_timeout(self.queue_local[queue])
                .unwrap_or(self.config.tunables.coalesce_flush_cycles);
            self.push_event(
                at + timeout,
                Event::CoalesceFlush {
                    queue,
                    armed_at: at,
                },
            );
        }
    }

    /// The scheduled CPU to step next, if any has work. Runnability only
    /// moves when the scheduler mutates, so the cached ready mask is
    /// reused until its generation slips; the pick reproduces the old
    /// `filter(cpu_has_work).min_by_key(|c| (clock, cpu))` scan
    /// bit-for-bit (see `ready.rs`).
    pub(super) fn next_ready_cpu(&mut self) -> Option<usize> {
        let generation = self.sched.generation();
        if self.ready.stale(generation) {
            let mut mask = 0u64;
            for c in 0..self.config.cpus {
                if self.cpu_has_work(c) {
                    mask |= 1 << c;
                }
            }
            self.ready.set(generation, mask);
        }
        self.ready.pick(&self.clocks)
    }

    fn cpu_has_work(&self, c: usize) -> bool {
        let cpu = CpuId::new(c as u32);
        self.sched.current(cpu).is_some() || self.sched.load(cpu) > 0 || self.can_steal(cpu)
    }

    fn can_steal(&self, cpu: CpuId) -> bool {
        self.sched.current(cpu).is_none() && self.sched.can_steal_into(cpu)
    }

    pub(super) fn step_cpu(&mut self, c: usize) {
        let cpu = CpuId::new(c as u32);
        if self.sched.current(cpu).is_none() {
            if self.sched.pick_next(cpu).is_none() {
                if self.sched.steal_into(cpu).is_some() {
                    self.sched.pick_next(cpu);
                } else {
                    return;
                }
            }
            let current = self.sched.current(cpu).expect("picked");
            if self.last_task_on[c] != Some(current) {
                // Address-space switch: TLBs flush, fixed switch cost.
                self.mem.flush_tlbs(cpu);
                self.cores[c].charge_plain_cycles(self.config.tunables.context_switch_cycles);
                self.clocks[c] += self.config.tunables.context_switch_cycles;
                self.last_task_on[c] = Some(current);
            }
            self.run_since_sched[c] = 0;
        }
        // Task ids follow spawn order, which is flow order.
        let flow = self.sched.current(cpu).expect("running task").index();
        match self.config.workload.direction {
            Direction::Tx => self.step_tx(c, flow),
            Direction::Rx => self.step_rx(c, flow),
        }
        // Timeslice expiry: 2.4-style global requeue (the expired task
        // resumes wherever capacity is — migration under asymmetric
        // interrupt load).
        if self.sched.current(cpu).is_some()
            && self.run_since_sched[c] >= self.config.tunables.timeslice_cycles
        {
            self.sched.yield_current_global(cpu);
        }
    }

    fn step_rx(&mut self, c: usize, flow: usize) {
        let cpu = CpuId::new(c as u32);
        if self.stack.rx_available(ConnectionId::new(flow as u32)) == 0 {
            self.blocked[flow] = Some(BlockReason::RxData);
            self.sched.block_current(cpu);
            return;
        }
        let (got, delta) = self.recv(c, flow);
        self.sched.charge_current(cpu, delta);
        self.run_since_sched[c] += delta;
        self.steering.consumer_ran(flow, cpu, &mut self.steer_stats);
        let now = self.clocks[c];
        // Reading freed socket-buffer space: the advertised window opens.
        self.refill_peer_window(flow, now);
        self.credit_rx(flow, got, now);
    }

    /// The queue's moderation timer fired: re-arm if the device saw
    /// activity since arming, otherwise flush the coalescer (and, for
    /// ttcp senders, the peers' delayed ACKs).
    pub(super) fn coalesce_flush(&mut self, queue: usize, armed_at: u64, t: u64) {
        self.flush_armed[queue] = false;
        if self.nic_activity[queue] > armed_at {
            self.arm_flush(queue, self.nic_activity[queue]);
            return;
        }
        if self.nics[self.queue_nic[queue]].flush_coalescing(self.queue_local[queue]) {
            self.deliver_interrupt(queue, t);
        }
        // Server flows ACK every segment (`ack_every == 1`), so no
        // delayed-ACK state ever pends there — and the scan below is
        // quadratic at 100k flows per machine.
        if self.config.workload.direction == Direction::Tx && self.server.is_none() {
            // Flush the delayed-ACK timers of every flow on this queue,
            // ascending (one flow per queue on the paper SUT).
            for i in 0..self.queue_flows[queue].len() {
                let flow = self.queue_flows[queue][i];
                if let Some(_ack) = self.peers[flow].flush_ack() {
                    self.push_event(
                        t + self.config.tunables.rtt_cycles,
                        Event::AckArrival { flow, acked: 1 },
                    );
                }
            }
        }
    }

    /// Rotates every vector's affinity to the next CPU (the 2.6 scheme).
    /// The TPR update is an uncacheable write; charge a small fixed cost
    /// to each CPU.
    pub(super) fn irq_rotate(&mut self, t: u64) {
        let cpus = self.config.cpus as u32;
        for &v in &self.vectors.clone() {
            let current = self.apic.route(v);
            let next = CpuId::new((current.raw() + 1) % cpus);
            self.apic
                .set_affinity(v, sim_os::CpuMask::single(next))
                .expect("rotation target exists");
        }
        for c in 0..self.config.cpus {
            self.cores[c].charge_plain_cycles(600);
            self.clocks[c] += 600;
        }
        if !self.done {
            self.push_event(
                t + self.config.tunables.irq_rotation_cycles,
                Event::IrqRotate,
            );
        }
    }

    pub(super) fn deliver_interrupt(&mut self, queue: usize, t: u64) {
        let vector = self.vectors[queue];
        let mut target = self.apic.route(vector);
        let mut t = t;
        if self.steering.dynamic() {
            // Directed steering (Flow Director / aRFS): re-target the
            // queue's vector to wherever the consumer of the queue's
            // lowest flow with staged work last ran (the queue's only
            // flow on the paper SUT), else of its first flow. Flows
            // listed only for a blocked sender do not count.
            // Reprogramming is a real MSI rewrite: it costs delivery
            // latency and is visible in the APIC's route for subsequent
            // deliveries.
            let flow = self.queue_pending[queue]
                .iter()
                .copied()
                .filter(|&f| !self.staged[f].is_empty())
                .min()
                .or_else(|| self.queue_flows[queue].first().copied());
            if let Some(decision) = flow.and_then(|f| self.steering.steer(f, &mut self.steer_stats))
            {
                if decision.target != target {
                    self.apic
                        .retarget(vector, decision.target)
                        .expect("steer target is an online CPU");
                    self.steer_stats.resteers += 1;
                    t += decision.resteer_cycles;
                    target = decision.target;
                }
            }
        }
        let c = target.index();
        self.clocks[c] = self.clocks[c].max(t);
        let irq_start = self.cores[c].busy_cycles();

        // Pipeline flushes on the target: interrupt entry, EOI and iret
        // are all serializing on the P4's deep pipeline.
        let handler = self.stack.irq_func(vector);
        for _ in 0..self.config.tunables.clears_per_device_interrupt {
            self.deliver_clear(c, ClearReason::DeviceInterrupt, handler);
        }

        // Top half.
        self.charge(c, |stack, ctx| stack.irq_top_half(ctx, vector));

        // Bottom half runs right here, on the same CPU. Saturating: a
        // server-mode completion inside the bottom half can start the
        // measurement window, which resets the core's counters below
        // `irq_start`.
        self.run_bottom_half(c, queue);
        self.irq_cycles[c] += self.cores[c].busy_cycles().saturating_sub(irq_start);

        // Refresh the scheduler's view of interrupt pressure so wakeup
        // placement steers processes away from interrupt-saturated CPUs.
        for cpu in 0..self.config.cpus {
            let pressure = (self.irq_load(cpu) / 0.15) as usize;
            self.sched.set_pressure(CpuId::new(cpu as u32), pressure);
        }
    }

    fn deliver_clear(&mut self, c: usize, reason: ClearReason, handler: Option<FuncId>) {
        let penalty = self.cores[c].machine_clear(reason);
        self.clocks[c] += penalty;
        let to_handler = handler.is_some()
            && reason == ClearReason::DeviceInterrupt
            && self.rng.chance(self.config.tunables.skid_to_handler);
        let func = if to_handler {
            handler.expect("checked")
        } else {
            self.weighted_func_draw(c)
                .or(handler)
                .unwrap_or(self.wake_up_func)
        };
        let delta = PerfCounters {
            machine_clears: 1,
            cycles: penalty,
            ..PerfCounters::default()
        };
        self.prof.record(CpuId::new(c as u32), func, &delta);
    }

    /// Draws a function weighted by the cycles it has accumulated on
    /// `cpu` — the statistical shape of Oprofile's attribution skid: a
    /// flush lands in whatever code was in flight.
    fn weighted_func_draw(&mut self, c: usize) -> Option<FuncId> {
        let cpu = CpuId::new(c as u32);
        let total = self.prof.cpu_cycles(cpu);
        if total == 0 {
            return None;
        }
        let mut r = self.rng.next_below(total);
        for (f, counters) in self.prof.nonzero_on(cpu) {
            if r < counters.cycles {
                return Some(f);
            }
            r -= counters.cycles;
        }
        None
    }

    /// Wakes `flow`'s task from bottom-half CPU `c` if what it blocked
    /// on is there now.
    pub(super) fn wake_blocked(&mut self, flow: usize, c: usize, now: u64) {
        let conn_id = ConnectionId::new(flow as u32);
        let should_wake = match self.blocked[flow] {
            Some(BlockReason::TxSpace) => {
                // High watermark: a third of the buffer free again, and
                // the congestion window has room.
                let inflight = self.stack.tx_inflight(conn_id);
                inflight + self.config.tunables.send_buf_segments / 3
                    <= self.config.tunables.send_buf_segments
                    && self.stack.tx_window(conn_id) > self.stack.tx_unacked(conn_id)
            }
            Some(BlockReason::RxData) => self.stack.rx_available(conn_id) > 0,
            None => false,
        };
        if should_wake {
            self.wake_task(flow, c, now);
        }
    }

    /// Fraction of a CPU's time spent in interrupt context.
    pub(super) fn irq_load(&self, c: usize) -> f64 {
        self.irq_cycles[c] as f64 / self.clocks[c].max(1) as f64
    }

    pub(super) fn deliver_ipi(&mut self, from: CpuId, to: CpuId, kind: IpiKind, now: u64) {
        self.ipi.send(from, to, kind);
        let tc = to.index();
        self.clocks[tc] = self.clocks[tc].max(now);
        let start = self.cores[tc].busy_cycles();
        for _ in 0..self.config.tunables.clears_per_ipi {
            self.deliver_clear(tc, ClearReason::Ipi, None);
        }
        self.irq_cycles[tc] += self.cores[tc].busy_cycles() - start;
    }

    fn wake_task(&mut self, flow: usize, from_c: usize, now: u64) {
        let task = TaskId::new(flow as u32);
        let from = CpuId::new(from_c as u32);
        // The bottom half hands the consumer off to its own CPU only if
        // that CPU is not carrying disproportionately more interrupt
        // work than its peers — an interrupt-saturated default CPU0
        // repels processes instead of attracting them.
        let min_irq = (0..self.config.cpus)
            .map(|c| self.irq_load(c))
            .fold(f64::INFINITY, f64::min);
        let affine = self.irq_load(from_c) <= min_irq + self.config.tunables.irq_load_gate;
        let placement = self.sched.wake(task, from, affine).expect("task exists");
        self.blocked[flow] = None;
        if placement.needs_resched_ipi {
            self.deliver_ipi(from, placement.cpu, IpiKind::Reschedule, now);
        }
    }
}
