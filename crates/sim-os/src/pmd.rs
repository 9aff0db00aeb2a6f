//! Busy-polling poll-mode-driver (PMD) cores.
//!
//! Under the kernel-bypass dataplane there is no IRQ, no softirq and no
//! scheduler involvement: each CPU is dedicated to a PMD loop that owns a
//! fixed set of NIC queues and spins on their descriptor rings — rx burst
//! → protocol → tx, run to completion, all core-local. The price is that
//! a PMD core burns cycles even when its rings are empty; [`PmdCore`]
//! turns idle wall-time gaps into whole empty-poll iterations so that
//! cost can be charged (and priced in GHz/Gbps) instead of vanishing the
//! way a halted interrupt-mode core's idle time does.

/// One busy-polling core: the NIC queues it owns. A run keeps one per
/// CPU, indexed by CPU.
///
/// Queue ownership is static for the lifetime of a run (the steering
/// policy's `vector_home` decides it up front), which is what makes the
/// rx rings single-consumer.
#[derive(Debug, Clone, Default)]
pub struct PmdCore {
    queues: Vec<usize>,
}

impl PmdCore {
    /// Assigns global queue index `queue` to this core's poll set.
    pub fn assign(&mut self, queue: usize) {
        self.queues.push(queue);
    }

    /// The queues this core polls, in assignment order.
    #[must_use]
    pub fn queues(&self) -> &[usize] {
        &self.queues
    }

    /// Converts an idle gap of `gap` cycles into the number of empty poll
    /// iterations the core spun through (at least one for any nonzero
    /// gap: even a partial iteration probed the rings once).
    #[must_use]
    pub fn empty_polls_for_gap(gap: u64, empty_poll_cycles: u64) -> u64 {
        if gap == 0 {
            return 0;
        }
        gap.div_ceil(empty_poll_cycles.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_assignment_is_ordered() {
        let mut core = PmdCore::default();
        core.assign(7);
        core.assign(2);
        assert_eq!(core.queues(), &[7, 2]);
    }

    #[test]
    fn empty_poll_accounting_rounds_up() {
        assert_eq!(PmdCore::empty_polls_for_gap(0, 120), 0);
        assert_eq!(PmdCore::empty_polls_for_gap(1, 120), 1);
        assert_eq!(PmdCore::empty_polls_for_gap(120, 120), 1);
        assert_eq!(PmdCore::empty_polls_for_gap(121, 120), 2);
        assert_eq!(PmdCore::empty_polls_for_gap(1200, 120), 10);
        // Degenerate config never divides by zero.
        assert_eq!(PmdCore::empty_polls_for_gap(10, 0), 10);
    }
}
