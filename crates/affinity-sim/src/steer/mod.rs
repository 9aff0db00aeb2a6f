//! The steering & interrupt-delivery subsystem.
//!
//! The paper's four affinity modes — and the RSS and Flow Director
//! futures its conclusion sketches — all decompose into three
//! orthogonal decisions:
//!
//! 1. **flow placement** — which NIC queue carries each connection
//!    ([`FlowPlacement`]: round-robin, or RSS-style hashing);
//! 2. **vector layout** — which CPU each queue's MSI-X vector is
//!    statically programmed to ([`VectorLayout`]: everything on CPU0,
//!    the Linux 2.4 default, or split evenly across CPUs like
//!    `smp_affinity` writes);
//! 3. **dynamic steering** — whether the device re-targets a flow's
//!    vector at delivery time to chase the consuming core
//!    ([`DynamicSteer`]: off, or a bounded Flow Director / aRFS filter
//!    table with a modeled re-steer cost).
//!
//! A [`SteerSpec`] names one point in that space declaratively (it is
//! plain data, part of `ExperimentConfig`); building it
//! yields a [`SteeringPolicy`] trait object the machine consults on its
//! hot paths — no `AffinityMode` dispatch survives in the run loop.
//! [`AffinityMode`](crate::AffinityMode) lives on only as a preset
//! constructor mapping each paper mode to a spec.
//!
//! Interrupt *moderation* is the fourth, per-queue decision; it lives in
//! [`sim_net::coalesce`] as the [`Coalescer`](sim_net::Coalescer) state
//! machine because it belongs to the device, not the steering plane.

use sim_core::CpuId;
use sim_prof::SteerCounters;

mod policies;

pub use policies::{FlowDirector, RoundRobin, RssHash, StaticIrq};

/// The multiplicative-hash RSS indirection used by the scale sweep since
/// PR 3; kept as *the* hash so placements stay bit-identical.
#[must_use]
pub fn rss_hash(flow: usize, queues: usize) -> usize {
    ((flow as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % queues
}

/// The even vector-home spread of the paper's `smp_affinity` split (and
/// of pinned-process placement): queue `q` of `queues` homes on
/// `q * cpus / queues`. On the paper SUT (8 queues, 2 CPUs) this puts
/// queues 0–3 on CPU0 and 4–7 on CPU1, exactly the paper's Figure 3
/// wiring.
#[must_use]
pub fn even_home(queue: usize, queues: usize, cpus: usize) -> CpuId {
    CpuId::new((queue * cpus / queues) as u32)
}

/// How flows are placed onto NIC queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPlacement {
    /// `flow % queues` — the identity map on the paper SUT where each
    /// port carries one connection.
    RoundRobin,
    /// RSS-style multiplicative hashing ([`rss_hash`]).
    RssHash,
}

impl FlowPlacement {
    /// The queue carrying `flow` out of `queues`.
    #[must_use]
    pub fn place(self, flow: usize, queues: usize) -> usize {
        match self {
            FlowPlacement::RoundRobin => flow % queues,
            FlowPlacement::RssHash => rss_hash(flow, queues),
        }
    }
}

/// How queue vectors are statically programmed into the IO-APIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorLayout {
    /// Every vector delivers to CPU0 — the Linux 2.4 / NT default the
    /// paper's "no affinity" and "process affinity" modes inherit.
    AllCpu0,
    /// Vectors split evenly across CPUs ([`even_home`]) — the paper's
    /// `smp_affinity` writes.
    SplitEven,
}

/// Whether (and how) the device re-targets vectors at delivery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicSteer {
    /// Static routing only.
    Off,
    /// Intel Flow Director / Linux aRFS: a bounded filter table maps
    /// flows to the CPU their consumer last ran on; deliveries re-target
    /// the queue's vector there, paying `resteer_cycles` per reprogram.
    FlowDirector {
        /// Filter-table capacity; insertions beyond it are rejected
        /// (those flows stay on their static placement), mirroring the
        /// fixed-size perfect-filter table of the real hardware.
        table_entries: usize,
        /// Modeled cost of one re-target (IO-APIC/MSI reprogram plus
        /// filter update), charged to delivery latency.
        resteer_cycles: u64,
    },
}

/// Declarative description of a steering configuration: one point in
/// the placement × layout × dynamic-steering space, plus whether
/// consumer processes are pinned to their queue's home CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteerSpec {
    /// Flow→queue placement.
    pub placement: FlowPlacement,
    /// Static vector layout.
    pub vectors: VectorLayout,
    /// Delivery-time re-targeting.
    pub dynamic: DynamicSteer,
    /// Pin each `ttcp` process to its queue's [`even_home`] CPU (the
    /// paper's `sched_setaffinity` half).
    pub pin_processes: bool,
}

impl SteerSpec {
    /// The Flow Director / aRFS configuration used by `repro steer`:
    /// hash-placed flows, evenly split vectors, and a 1024-entry filter
    /// table re-targeting at 600 cycles per reprogram (an MSI rewrite
    /// plus filter update at 2 GHz).
    #[must_use]
    pub fn flow_director() -> Self {
        SteerSpec {
            placement: FlowPlacement::RssHash,
            vectors: VectorLayout::SplitEven,
            dynamic: DynamicSteer::FlowDirector {
                table_entries: 1024,
                resteer_cycles: 600,
            },
            pin_processes: false,
        }
    }

    /// Flow Director atop the Linux-default static layout (round-robin
    /// flows, all vectors initially on CPU0, processes free): dynamic
    /// steering with no static affinity configuration at all — the
    /// paper conclusion's "adapters that can direct connections ...
    /// dynamically" scenario, starting from a stock 2.4 box.
    #[must_use]
    pub fn flow_director_unconfigured() -> Self {
        SteerSpec {
            vectors: VectorLayout::AllCpu0,
            placement: FlowPlacement::RoundRobin,
            ..SteerSpec::flow_director()
        }
    }

    /// Short label for sweep tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match (self.dynamic, self.placement, self.vectors) {
            (DynamicSteer::FlowDirector { .. }, _, _) => "FlowDir",
            (DynamicSteer::Off, FlowPlacement::RssHash, _) => "RSS",
            (DynamicSteer::Off, FlowPlacement::RoundRobin, VectorLayout::SplitEven) => "RR/split",
            (DynamicSteer::Off, FlowPlacement::RoundRobin, VectorLayout::AllCpu0) => "RR/cpu0",
        }
    }

    /// Builds the runtime policy for this spec.
    #[must_use]
    pub fn build(&self) -> Box<dyn SteeringPolicy> {
        match (self.vectors, self.dynamic) {
            (
                _,
                DynamicSteer::FlowDirector {
                    table_entries,
                    resteer_cycles,
                },
            ) => Box::new(FlowDirector::new(
                self.placement,
                table_entries,
                resteer_cycles,
            )),
            (VectorLayout::AllCpu0, DynamicSteer::Off) => Box::new(StaticIrq::new(self.placement)),
            (VectorLayout::SplitEven, DynamicSteer::Off) => match self.placement {
                FlowPlacement::RoundRobin => Box::new(RoundRobin),
                FlowPlacement::RssHash => Box::new(RssHash),
            },
        }
    }
}

/// A delivery-time re-target decision from a dynamic policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteerDecision {
    /// CPU the vector should deliver to.
    pub target: CpuId,
    /// Cycles of added delivery latency for the reprogram.
    pub resteer_cycles: u64,
}

/// Flow→queue/vector steering policy.
///
/// Placement ([`SteeringPolicy::place_flow`]) and static layout
/// ([`SteeringPolicy::vector_home`]) are consulted once at machine
/// construction; the dynamic hooks run on the interrupt hot path, so
/// static policies keep them as the free default no-ops.
pub trait SteeringPolicy: std::fmt::Debug + Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// The queue carrying `flow` out of `queues`.
    fn place_flow(&self, flow: usize, queues: usize) -> usize;

    /// The CPU queue `queue`'s vector is statically programmed to.
    fn vector_home(&self, queue: usize, queues: usize, cpus: usize) -> CpuId;

    /// Whether this policy re-targets vectors at delivery time (gates
    /// the hot-path [`SteeringPolicy::steer`] call).
    fn dynamic(&self) -> bool {
        false
    }

    /// A flow's consumer task ran on `cpu` — dynamic policies update
    /// their filter table here.
    fn consumer_ran(&mut self, _flow: usize, _cpu: CpuId, _counters: &mut SteerCounters) {}

    /// Delivery-time re-target for `flow`, or `None` to keep the static
    /// route. Only called when [`SteeringPolicy::dynamic`] is true.
    fn steer(&mut self, _flow: usize, _counters: &mut SteerCounters) -> Option<SteerDecision> {
        None
    }

    /// A connection was accepted on `cpu` (server workloads): dynamic
    /// policies install their per-flow steering state here, exactly once
    /// per connection incarnation. Static policies keep the free no-op.
    fn flow_opened(&mut self, _flow: usize, _cpu: CpuId, _counters: &mut SteerCounters) {}

    /// A connection finished teardown (server workloads): dynamic
    /// policies must drop whatever [`SteeringPolicy::flow_opened`] or
    /// [`SteeringPolicy::consumer_ran`] installed — per-flow table
    /// entries must not outlive the connection.
    fn flow_closed(&mut self, _flow: usize, _counters: &mut SteerCounters) {}

    /// `(occupied, capacity)` of the policy's per-flow table, or `None`
    /// for policies that keep no per-flow state. After every connection
    /// of a server run has closed, `occupied` must be zero.
    fn occupancy(&self) -> Option<(usize, usize)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_home_matches_paper_split() {
        // 8 queues over 2 CPUs: 0–3 → CPU0, 4–7 → CPU1.
        for q in 0..4 {
            assert_eq!(even_home(q, 8, 2), CpuId::new(0));
        }
        for q in 4..8 {
            assert_eq!(even_home(q, 8, 2), CpuId::new(1));
        }
        // nics == cpus (scale sweep): identity.
        for q in 0..16 {
            assert_eq!(even_home(q, 16, 16), CpuId::new(q as u32));
        }
    }

    #[test]
    fn placement_formulas_are_the_committed_ones() {
        for f in 0..64 {
            assert_eq!(FlowPlacement::RoundRobin.place(f, 8), f % 8);
            assert_eq!(
                FlowPlacement::RssHash.place(f, 8),
                ((f as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % 8
            );
        }
    }

    #[test]
    fn build_picks_the_right_policy() {
        let rr = SteerSpec {
            placement: FlowPlacement::RoundRobin,
            vectors: VectorLayout::SplitEven,
            dynamic: DynamicSteer::Off,
            pin_processes: false,
        };
        assert_eq!(rr.build().name(), "round-robin");
        assert_eq!(rr.label(), "RR/split");
        let cpu0 = SteerSpec {
            vectors: VectorLayout::AllCpu0,
            ..rr
        };
        assert_eq!(cpu0.build().name(), "static-irq");
        let rss = SteerSpec {
            placement: FlowPlacement::RssHash,
            ..rr
        };
        assert_eq!(rss.build().name(), "rss-hash");
        assert_eq!(rss.label(), "RSS");
        let fd = SteerSpec::flow_director();
        assert_eq!(fd.build().name(), "flow-director");
        assert_eq!(fd.label(), "FlowDir");
        assert!(fd.build().dynamic());
        assert!(!rss.build().dynamic());
    }
}
