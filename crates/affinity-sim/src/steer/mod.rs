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
//! A [`SteerSpec`] names one point in that space. It is plain data, the
//! `steer` field of `ExperimentConfig`. The machine reads placement
//! ([`SteerSpec::place`]) and the static vector home
//! ([`SteerSpec::vector_home`]) once, at construction; the only
//! steering state left on the delivery path is the optional
//! [`FlowDirector`] filter table. [`AffinityMode`](crate::AffinityMode)
//! lives on only as a preset ([`AffinityMode::steer_preset`](crate::AffinityMode::steer_preset))
//! mapping each paper mode to a spec.
//!
//! Interrupt *moderation* is the fourth, per-queue decision; it lives in
//! [`sim_net::coalesce`] as the [`Coalescer`](sim_net::Coalescer) state
//! machine because it belongs to the device, not the steering plane.

use sim_core::CpuId;
use sim_prof::SteerCounters;

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

    /// The queue carrying `flow` out of `queues`.
    #[must_use]
    pub fn place(&self, flow: usize, queues: usize) -> usize {
        self.placement.place(flow, queues)
    }

    /// The CPU queue `queue`'s vector is statically programmed to,
    /// before any delivery-time re-target.
    #[must_use]
    pub fn vector_home(&self, queue: usize, queues: usize, cpus: usize) -> CpuId {
        match self.vectors {
            VectorLayout::AllCpu0 => CpuId::new(0),
            VectorLayout::SplitEven => even_home(queue, queues, cpus),
        }
    }

    /// A fresh filter table when the spec steers dynamically, `None`
    /// for static steering.
    #[must_use]
    pub fn filter_table(&self) -> Option<FlowDirector> {
        match self.dynamic {
            DynamicSteer::Off => None,
            DynamicSteer::FlowDirector {
                table_entries,
                resteer_cycles,
            } => Some(FlowDirector::new(
                self.placement,
                table_entries,
                resteer_cycles,
            )),
        }
    }
}

/// Intel Flow Director / Linux aRFS: a bounded filter table tracks the
/// CPU each flow's consumer last ran on; deliveries re-target the
/// queue's vector there, chasing the consuming core. Static placement
/// and layout come from the [`SteerSpec`]; the table overrides them per
/// delivery.
#[derive(Debug)]
pub struct FlowDirector {
    /// Filter table, indexed by flow; grown lazily so machines with few
    /// flows don't pay for the full capacity. Entries are packed CPU
    /// indices with [`FlowDirector::EMPTY`] for absent filters — half
    /// the size of an `Option<CpuId>` per flow, so per-delivery lookups
    /// stream a dense `u32` array.
    table: Vec<u32>,
    /// Occupied entries (bounded by `capacity`).
    occupied: usize,
    capacity: usize,
    resteer_cycles: u64,
}

impl FlowDirector {
    /// Sentinel for an unoccupied filter-table entry.
    const EMPTY: u32 = u32::MAX;

    /// A director with a `capacity`-entry filter table and
    /// `resteer_cycles` per reprogram. `_placement` is unused: the
    /// machine places flows from its [`SteerSpec`].
    #[must_use]
    pub fn new(_placement: FlowPlacement, capacity: usize, resteer_cycles: u64) -> Self {
        FlowDirector {
            table: Vec::new(),
            occupied: 0,
            capacity,
            resteer_cycles,
        }
    }

    /// Cycles of added delivery latency per re-target.
    #[must_use]
    pub fn resteer_cycles(&self) -> u64 {
        self.resteer_cycles
    }

    /// A flow's consumer task ran on `cpu`: program (or update) its
    /// filter. A full table rejects new flows, which keep their static
    /// placement.
    pub fn consumer_ran(&mut self, flow: usize, cpu: CpuId, counters: &mut SteerCounters) {
        if flow >= self.table.len() {
            self.table.resize(flow + 1, Self::EMPTY);
        }
        if self.table[flow] == Self::EMPTY {
            if self.occupied >= self.capacity {
                counters.table_rejects += 1;
                return;
            }
            self.occupied += 1;
        }
        self.table[flow] = cpu.raw();
    }

    /// The CPU `flow`'s filter re-targets deliveries to, or `None` to
    /// keep the static route.
    #[must_use]
    pub fn target(&self, flow: usize) -> Option<CpuId> {
        self.table
            .get(flow)
            .copied()
            .filter(|&t| t != Self::EMPTY)
            .map(CpuId::new)
    }

    /// A connection was accepted on `cpu` (server workloads): program its
    /// filter exactly like the consumer running would, once per
    /// connection incarnation.
    pub fn flow_opened(&mut self, flow: usize, cpu: CpuId, counters: &mut SteerCounters) {
        self.consumer_ran(flow, cpu, counters);
    }

    /// A connection finished teardown (server workloads): drop its
    /// filter, so table entries never outlive the connection. Closing a
    /// flow with no filter is a no-op.
    pub fn flow_closed(&mut self, flow: usize, _counters: &mut SteerCounters) {
        if let Some(entry) = self.table.get_mut(flow) {
            if *entry != Self::EMPTY {
                *entry = Self::EMPTY;
                self.occupied -= 1;
            }
        }
    }

    /// `(occupied, capacity)` of the filter table. After every connection
    /// of a server run has closed, `occupied` must be zero.
    #[must_use]
    pub fn occupancy(&self) -> (usize, usize) {
        (self.occupied, self.capacity)
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
    fn spec_methods_follow_the_fields() {
        let rr = SteerSpec {
            placement: FlowPlacement::RoundRobin,
            vectors: VectorLayout::SplitEven,
            dynamic: DynamicSteer::Off,
            pin_processes: false,
        };
        assert_eq!(rr.label(), "RR/split");
        assert_eq!(rr.place(11, 8), 3);
        assert_eq!(rr.vector_home(7, 8, 4), CpuId::new(3));
        let cpu0 = SteerSpec {
            vectors: VectorLayout::AllCpu0,
            ..rr
        };
        assert_eq!(cpu0.label(), "RR/cpu0");
        assert_eq!(cpu0.vector_home(7, 8, 4), CpuId::new(0));
        let rss = SteerSpec {
            placement: FlowPlacement::RssHash,
            ..rr
        };
        assert_eq!(rss.label(), "RSS");
        assert_eq!(rss.place(11, 8), rss_hash(11, 8));
        let fd = SteerSpec::flow_director();
        assert_eq!(fd.label(), "FlowDir");
        assert_eq!(fd.vector_home(7, 8, 4), CpuId::new(3));
    }

    #[test]
    fn flow_director_tracks_the_consumer() {
        let mut ctrs = SteerCounters::default();
        let mut fd = FlowDirector::new(FlowPlacement::RssHash, 4, 600);
        assert!(fd.target(0).is_none(), "empty table keeps static route");
        fd.consumer_ran(2, CpuId::new(3), &mut ctrs);
        assert_eq!(fd.target(2), Some(CpuId::new(3)));
        assert_eq!(fd.resteer_cycles(), 600);
        // Re-running elsewhere updates the entry in place.
        fd.consumer_ran(2, CpuId::new(1), &mut ctrs);
        assert_eq!(fd.target(2), Some(CpuId::new(1)));
        assert_eq!(fd.occupancy(), (1, 4));
        assert_eq!(ctrs.table_rejects, 0);
    }

    #[test]
    fn flow_director_table_is_bounded() {
        let mut ctrs = SteerCounters::default();
        let mut fd = FlowDirector::new(FlowPlacement::RoundRobin, 2, 600);
        fd.consumer_ran(0, CpuId::new(0), &mut ctrs);
        fd.consumer_ran(1, CpuId::new(1), &mut ctrs);
        fd.consumer_ran(2, CpuId::new(2), &mut ctrs);
        assert_eq!(fd.occupancy(), (2, 2));
        assert_eq!(ctrs.table_rejects, 1);
        assert!(fd.target(2).is_none(), "rejected flow stays static");
        // Existing entries still update.
        fd.consumer_ran(0, CpuId::new(3), &mut ctrs);
        assert_eq!(fd.target(0), Some(CpuId::new(3)));
        assert_eq!(fd.occupancy(), (2, 2));
    }

    #[test]
    fn flow_director_uninstalls_on_close() {
        let mut ctrs = SteerCounters::default();
        let mut fd = FlowDirector::new(FlowPlacement::RssHash, 8, 600);
        fd.flow_opened(3, CpuId::new(1), &mut ctrs);
        fd.flow_opened(5, CpuId::new(2), &mut ctrs);
        assert_eq!(fd.occupancy(), (2, 8));
        assert!(fd.target(3).is_some());
        fd.flow_closed(3, &mut ctrs);
        assert!(fd.target(3).is_none(), "closed flow steers static");
        assert_eq!(fd.occupancy(), (1, 8));
        // Closing twice (or closing a never-opened flow) is a no-op.
        fd.flow_closed(3, &mut ctrs);
        fd.flow_closed(7, &mut ctrs);
        assert_eq!(fd.occupancy(), (1, 8));
        fd.flow_closed(5, &mut ctrs);
        assert_eq!(fd.occupancy(), (0, 8));
    }
}
