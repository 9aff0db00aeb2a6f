//! Hardware event vocabulary and the penalty table.

use std::fmt;

/// The architectural events the paper monitors (its §6.2 selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HwEvent {
    /// Unhalted clock cycles.
    Cycles,
    /// Retired instructions.
    Instructions,
    /// Pipeline flushes ("machine clears"): interrupts, IPIs, memory
    /// ordering violations, self-modifying code.
    MachineClear,
    /// Trace-cache misses (decode path re-entered).
    TcMiss,
    /// L2 misses that hit the last-level cache.
    L2Miss,
    /// Last-level cache misses (memory accesses).
    LlcMiss,
    /// Instruction-TLB page walks.
    ItlbMiss,
    /// Data-TLB page walks.
    DtlbMiss,
    /// Retired branches.
    Branch,
    /// Mispredicted branches.
    BranchMispredict,
}

impl HwEvent {
    /// Every event, in a stable order (used for iteration in reports).
    pub const ALL: [HwEvent; 10] = [
        HwEvent::Cycles,
        HwEvent::Instructions,
        HwEvent::MachineClear,
        HwEvent::TcMiss,
        HwEvent::L2Miss,
        HwEvent::LlcMiss,
        HwEvent::ItlbMiss,
        HwEvent::DtlbMiss,
        HwEvent::Branch,
        HwEvent::BranchMispredict,
    ];

    /// Short label used in tables ("LLC miss", "Machine clear", …).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HwEvent::Cycles => "Cycles",
            HwEvent::Instructions => "Instr",
            HwEvent::MachineClear => "Machine clear",
            HwEvent::TcMiss => "TC miss",
            HwEvent::L2Miss => "L2 miss",
            HwEvent::LlcMiss => "LLC miss",
            HwEvent::ItlbMiss => "ITLB miss",
            HwEvent::DtlbMiss => "DTLB miss",
            HwEvent::Branch => "Branch",
            HwEvent::BranchMispredict => "Br Mispredict",
        }
    }
}

impl fmt::Display for HwEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a machine clear happened.
///
/// The paper verifies that memory-ordering and self-modifying-code clears
/// are "near zero" in this workload, leaving interrupts (device and IPI)
/// as the dominant cause — we track the breakdown so that claim can be
/// checked in the reproduction too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ClearReason {
    /// A device (NIC) interrupt was delivered to this CPU.
    DeviceInterrupt,
    /// An inter-processor interrupt was delivered to this CPU.
    Ipi,
    /// A page fault or other exception.
    PageFault,
    /// A memory-ordering violation (rare in this workload).
    MemoryOrdering,
    /// Self-modifying code (absent in this workload).
    SelfModifyingCode,
}

impl ClearReason {
    /// Every reason, in a stable order.
    pub const ALL: [ClearReason; 5] = [
        ClearReason::DeviceInterrupt,
        ClearReason::Ipi,
        ClearReason::PageFault,
        ClearReason::MemoryOrdering,
        ClearReason::SelfModifyingCode,
    ];

    /// Index into per-reason count arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ClearReason::DeviceInterrupt => 0,
            ClearReason::Ipi => 1,
            ClearReason::PageFault => 2,
            ClearReason::MemoryOrdering => 3,
            ClearReason::SelfModifyingCode => 4,
        }
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ClearReason::DeviceInterrupt => "device interrupt",
            ClearReason::Ipi => "IPI",
            ClearReason::PageFault => "page fault",
            ClearReason::MemoryOrdering => "memory ordering",
            ClearReason::SelfModifyingCode => "self-modifying code",
        }
    }
}

impl fmt::Display for ClearReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycle penalties per event occurrence.
///
/// Defaults are the paper's Figure 5 "expected event penalties" for the
/// Pentium 4 (taken from the VTune 7.1 tuning assistant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventCosts {
    /// Machine clear (pipeline flush): highly workload dependent; the
    /// paper uses 500 as a reasonable average for the P4's deep pipeline.
    pub machine_clear: u64,
    /// Trace-cache miss.
    pub tc_miss: u64,
    /// L2 miss that hits the LLC.
    pub l2_miss: u64,
    /// LLC miss (memory access).
    pub llc_miss: u64,
    /// ITLB page walk.
    pub itlb_miss: u64,
    /// DTLB page walk.
    pub dtlb_miss: u64,
    /// Branch mispredict.
    pub br_mispredict: u64,
    /// L1 miss that hits L2. Not one of the paper's Figure 5 indicator
    /// events (it is folded into "everything else"), but the forward model
    /// needs it to charge *some* latency for L2 hits.
    pub l1_miss: u64,
}

impl EventCosts {
    /// The paper's Figure 5 penalty table.
    #[must_use]
    pub const fn paper() -> Self {
        EventCosts {
            machine_clear: 500,
            tc_miss: 20,
            l2_miss: 10,
            llc_miss: 300,
            itlb_miss: 30,
            dtlb_miss: 36,
            br_mispredict: 30,
            l1_miss: 7,
        }
    }

    /// Penalty for an event, if it is an indicator event with a cost
    /// (cycles and instructions have none).
    #[must_use]
    pub fn penalty(&self, event: HwEvent) -> Option<u64> {
        match event {
            HwEvent::MachineClear => Some(self.machine_clear),
            HwEvent::TcMiss => Some(self.tc_miss),
            HwEvent::L2Miss => Some(self.l2_miss),
            HwEvent::LlcMiss => Some(self.llc_miss),
            HwEvent::ItlbMiss => Some(self.itlb_miss),
            HwEvent::DtlbMiss => Some(self.dtlb_miss),
            HwEvent::BranchMispredict => Some(self.br_mispredict),
            HwEvent::Cycles | HwEvent::Instructions | HwEvent::Branch => None,
        }
    }
}

impl Default for EventCosts {
    fn default() -> Self {
        EventCosts::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_costs_match_figure5() {
        let c = EventCosts::paper();
        assert_eq!(c.machine_clear, 500);
        assert_eq!(c.tc_miss, 20);
        assert_eq!(c.l2_miss, 10);
        assert_eq!(c.llc_miss, 300);
        assert_eq!(c.itlb_miss, 30);
        assert_eq!(c.dtlb_miss, 36);
        assert_eq!(c.br_mispredict, 30);
    }

    #[test]
    fn penalty_lookup() {
        let c = EventCosts::default();
        assert_eq!(c.penalty(HwEvent::LlcMiss), Some(300));
        assert_eq!(c.penalty(HwEvent::Cycles), None);
        assert_eq!(c.penalty(HwEvent::Instructions), None);
        assert_eq!(c.penalty(HwEvent::Branch), None);
    }

    #[test]
    fn event_labels_stable() {
        assert_eq!(HwEvent::LlcMiss.label(), "LLC miss");
        assert_eq!(HwEvent::MachineClear.to_string(), "Machine clear");
        assert_eq!(HwEvent::ALL.len(), 10);
    }

    #[test]
    fn clear_reason_indices_are_distinct() {
        let mut seen = [false; 5];
        for r in ClearReason::ALL {
            assert!(!seen[r.index()], "duplicate index for {r}");
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
