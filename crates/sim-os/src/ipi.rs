//! Inter-processor interrupts.
//!
//! When execution of the stack spans two CPUs — interrupts and the lower
//! stack layers on CPU0, the process on CPU1 — CPU0 must interrupt CPU1
//! to schedule the continuation. Each IPI flushes the target's pipeline:
//! the machine-clear source the paper identifies as affinity's second
//! major factor. The fabric here records who interrupted whom and why;
//! the CPU model charges the actual clear penalty.

use sim_core::CpuId;

/// Why an IPI was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpiKind {
    /// Kick a remote CPU to reschedule (cross-CPU wakeup).
    Reschedule,
    /// Generic function-call IPI (TLB shootdowns, etc.).
    FunctionCall,
}

impl IpiKind {
    fn index(self) -> usize {
        match self {
            IpiKind::Reschedule => 0,
            IpiKind::FunctionCall => 1,
        }
    }
}

/// Records IPI traffic between CPUs.
#[derive(Debug, Clone)]
pub struct IpiFabric {
    cpus: usize,
    /// `sent[from][to][kind]`.
    sent: Vec<Vec<[u64; 2]>>,
}

impl IpiFabric {
    /// Creates a fabric for `cpus` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    #[must_use]
    pub fn new(cpus: usize) -> Self {
        assert!(cpus > 0, "need at least one cpu");
        IpiFabric {
            cpus,
            sent: vec![vec![[0; 2]; cpus]; cpus],
        }
    }

    /// Records an IPI from `from` to `to`. Self-IPIs are legal but
    /// pointless; they are counted so bugs show up in the numbers.
    ///
    /// # Panics
    ///
    /// Panics if either CPU is out of range.
    pub fn send(&mut self, from: CpuId, to: CpuId, kind: IpiKind) {
        self.sent[from.index()][to.index()][kind.index()] += 1;
    }

    /// IPIs of `kind` received by `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    #[must_use]
    pub fn received(&self, to: CpuId, kind: IpiKind) -> u64 {
        self.sent
            .iter()
            .map(|row| row[to.index()][kind.index()])
            .sum()
    }

    /// All IPIs received by `to`, any kind.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    #[must_use]
    pub fn received_total(&self, to: CpuId) -> u64 {
        self.received(to, IpiKind::Reschedule) + self.received(to, IpiKind::FunctionCall)
    }

    /// Total IPIs in the system.
    #[must_use]
    pub fn total(&self) -> u64 {
        (0..self.cpus)
            .map(|c| self.received_total(CpuId::new(c as u32)))
            .sum()
    }

    /// Resets all counters.
    pub fn reset_stats(&mut self) {
        for row in &mut self.sent {
            for cell in row.iter_mut() {
                *cell = [0; 2];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_receive() {
        let mut f = IpiFabric::new(2);
        let (c0, c1) = (CpuId::new(0), CpuId::new(1));
        f.send(c0, c1, IpiKind::Reschedule);
        f.send(c0, c1, IpiKind::Reschedule);
        f.send(c1, c0, IpiKind::FunctionCall);
        assert_eq!(f.received(c1, IpiKind::Reschedule), 2);
        assert_eq!(f.received(c1, IpiKind::FunctionCall), 0);
        assert_eq!(f.received(c0, IpiKind::FunctionCall), 1);
        assert_eq!(f.received_total(c1), 2);
        assert_eq!(f.total(), 3);
    }

    #[test]
    fn reset() {
        let mut f = IpiFabric::new(2);
        f.send(CpuId::new(0), CpuId::new(1), IpiKind::Reschedule);
        f.reset_stats();
        assert_eq!(f.total(), 0);
    }

    #[test]
    fn self_ipi_counted() {
        let mut f = IpiFabric::new(1);
        f.send(CpuId::new(0), CpuId::new(0), IpiKind::Reschedule);
        assert_eq!(f.received_total(CpuId::new(0)), 1);
    }
}
