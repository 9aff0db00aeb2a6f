//! Performance counter bank.

use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

use crate::events::HwEvent;

/// A bank of per-event counters — the simulated analogue of the Pentium
/// 4's performance-monitoring registers that Oprofile samples.
///
/// # Example
///
/// ```
/// use sim_cpu::{HwEvent, PerfCounters};
///
/// let mut c = PerfCounters::default();
/// c.bump(HwEvent::Instructions, 100);
/// c.bump(HwEvent::Cycles, 420);
/// assert!((c.cpi() - 4.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfCounters {
    /// Unhalted cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Machine clears (pipeline flushes).
    pub machine_clears: u64,
    /// Trace-cache misses.
    pub tc_misses: u64,
    /// L2 misses (hit LLC).
    pub l2_misses: u64,
    /// LLC misses (memory accesses).
    pub llc_misses: u64,
    /// ITLB page walks.
    pub itlb_misses: u64,
    /// DTLB page walks.
    pub dtlb_misses: u64,
    /// Retired branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub br_mispredicts: u64,
}

impl PerfCounters {
    /// Increments the counter for `event` by `count`.
    pub fn bump(&mut self, event: HwEvent, count: u64) {
        *self.slot_mut(event) += count;
    }

    /// Reads the counter for `event`.
    #[must_use]
    pub fn get(&self, event: HwEvent) -> u64 {
        match event {
            HwEvent::Cycles => self.cycles,
            HwEvent::Instructions => self.instructions,
            HwEvent::MachineClear => self.machine_clears,
            HwEvent::TcMiss => self.tc_misses,
            HwEvent::L2Miss => self.l2_misses,
            HwEvent::LlcMiss => self.llc_misses,
            HwEvent::ItlbMiss => self.itlb_misses,
            HwEvent::DtlbMiss => self.dtlb_misses,
            HwEvent::Branch => self.branches,
            HwEvent::BranchMispredict => self.br_mispredicts,
        }
    }

    fn slot_mut(&mut self, event: HwEvent) -> &mut u64 {
        match event {
            HwEvent::Cycles => &mut self.cycles,
            HwEvent::Instructions => &mut self.instructions,
            HwEvent::MachineClear => &mut self.machine_clears,
            HwEvent::TcMiss => &mut self.tc_misses,
            HwEvent::L2Miss => &mut self.l2_misses,
            HwEvent::LlcMiss => &mut self.llc_misses,
            HwEvent::ItlbMiss => &mut self.itlb_misses,
            HwEvent::DtlbMiss => &mut self.dtlb_misses,
            HwEvent::Branch => &mut self.branches,
            HwEvent::BranchMispredict => &mut self.br_mispredicts,
        }
    }

    /// Cycles per instruction (0 when no instructions retired).
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// LLC misses per instruction — the paper's "MPI".
    #[must_use]
    pub fn mpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.instructions as f64
        }
    }

    /// Branches as a fraction of instructions — the paper's "% Branches".
    #[must_use]
    pub fn branch_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branches as f64 / self.instructions as f64
        }
    }

    /// Mispredicted branches as a fraction of branches — the paper's
    /// "% Br mispredicted".
    #[must_use]
    pub fn mispredict_fraction(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.br_mispredicts as f64 / self.branches as f64
        }
    }

    /// True if every counter is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let PerfCounters {
            cycles,
            instructions,
            machine_clears,
            tc_misses,
            l2_misses,
            llc_misses,
            itlb_misses,
            dtlb_misses,
            branches,
            br_mispredicts,
        } = *self;
        cycles
            | instructions
            | machine_clears
            | tc_misses
            | l2_misses
            | llc_misses
            | itlb_misses
            | dtlb_misses
            | branches
            | br_mispredicts
            == 0
    }
}

impl Add for PerfCounters {
    type Output = PerfCounters;

    fn add(mut self, rhs: PerfCounters) -> PerfCounters {
        self += rhs;
        self
    }
}

impl AddAssign for PerfCounters {
    fn add_assign(&mut self, rhs: PerfCounters) {
        // Field-by-field: this runs once per modelled function call, and
        // the `HwEvent` round-trip (enum match per event) showed up on the
        // profile. Destructuring keeps it exhaustive: adding a counter
        // field without extending this impl is a compile error.
        let PerfCounters {
            cycles,
            instructions,
            machine_clears,
            tc_misses,
            l2_misses,
            llc_misses,
            itlb_misses,
            dtlb_misses,
            branches,
            br_mispredicts,
        } = rhs;
        self.cycles += cycles;
        self.instructions += instructions;
        self.machine_clears += machine_clears;
        self.tc_misses += tc_misses;
        self.l2_misses += l2_misses;
        self.llc_misses += llc_misses;
        self.itlb_misses += itlb_misses;
        self.dtlb_misses += dtlb_misses;
        self.branches += branches;
        self.br_mispredicts += br_mispredicts;
    }
}

impl std::iter::Sum for PerfCounters {
    fn sum<I: Iterator<Item = PerfCounters>>(iter: I) -> PerfCounters {
        iter.fold(PerfCounters::default(), |acc, c| acc + c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_get_roundtrip() {
        let mut c = PerfCounters::default();
        for (i, e) in HwEvent::ALL.into_iter().enumerate() {
            c.bump(e, (i + 1) as u64);
        }
        for (i, e) in HwEvent::ALL.into_iter().enumerate() {
            assert_eq!(c.get(e), (i + 1) as u64);
        }
    }

    #[test]
    fn derived_ratios() {
        let c = PerfCounters {
            cycles: 500,
            instructions: 100,
            llc_misses: 2,
            branches: 20,
            br_mispredicts: 1,
            ..PerfCounters::default()
        };
        assert!((c.cpi() - 5.0).abs() < 1e-12);
        assert!((c.mpi() - 0.02).abs() < 1e-12);
        assert!((c.branch_fraction() - 0.2).abs() < 1e-12);
        assert!((c.mispredict_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn ratios_safe_when_empty() {
        let c = PerfCounters::default();
        assert!(c.is_empty());
        assert_eq!(c.cpi(), 0.0);
        assert_eq!(c.mpi(), 0.0);
        assert_eq!(c.branch_fraction(), 0.0);
        assert_eq!(c.mispredict_fraction(), 0.0);
    }

    #[test]
    fn add_and_sum() {
        let mut a = PerfCounters::default();
        a.bump(HwEvent::Cycles, 10);
        let mut b = PerfCounters::default();
        b.bump(HwEvent::Cycles, 5);
        b.bump(HwEvent::LlcMiss, 1);
        let c = a + b;
        assert_eq!(c.cycles, 15);
        assert_eq!(c.llc_misses, 1);
        let total: PerfCounters = [a, b, c].into_iter().sum();
        assert_eq!(total.cycles, 30);
    }
}
