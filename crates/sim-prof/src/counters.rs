//! Steering-subsystem counters.
//!
//! Dynamic steering policies (Flow Director / aRFS) change where a
//! flow's interrupts land while traffic is in flight. These counters
//! capture the observable side effects of that movement: how often the
//! hardware filter re-targeted a vector, how often the bounded filter
//! table turned an insertion away, and — the signature Wu et al. report
//! for Flow Director — how many frames completed on a different CPU
//! than the immediately preceding frames of the same flow (a proxy for
//! packet reordering when a flow migrates mid-window).

/// Counters maintained by the interrupt-steering path.
///
/// Kept separate from `RunMetrics` so golden snapshots of the paper
/// matrix (where all of these are zero by construction) are unaffected
/// by steering experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SteerCounters {
    /// Vector re-targets performed by a dynamic steering policy (each
    /// models one `IoApic` reprogram chasing the consuming core).
    pub resteers: u64,
    /// Flow-table insertions rejected because the bounded re-target
    /// table was full (those flows stay on their static placement).
    pub table_rejects: u64,
    /// Frames whose bottom half ran on a different CPU than the previous
    /// batch of the same flow — the out-of-order-completion signature of
    /// directed steering migrating a flow mid-window.
    pub ooo_completions: u64,
}

impl SteerCounters {
    /// Adds `other` into `self` (for aggregating across runs).
    pub fn merge(&mut self, other: &SteerCounters) {
        self.resteers += other.resteers;
        self.table_rejects += other.table_rejects;
        self.ooo_completions += other.ooo_completions;
    }
}

/// Counters maintained per busy-polling PMD core by the kernel-bypass
/// dataplane.
///
/// Kept separate from `RunMetrics` (like [`SteerCounters`]) so golden
/// snapshots of the interrupt-mode matrix — where the poll path never
/// runs — are unaffected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollCounters {
    /// Poll iterations that found at least one descriptor.
    pub polls: u64,
    /// Poll iterations that found every owned ring empty (each one burns
    /// `empty_poll_cycles` for nothing — the cost of forgoing HLT).
    pub empty_polls: u64,
    /// Data frames drained by rx bursts.
    pub rx_frames: u64,
    /// Segments handed to the tx descriptor ring.
    pub tx_frames: u64,
    /// Cycles burned on empty polls (mirrors `Core::spin_cycles`).
    pub spin_cycles: u64,
    /// Cycles spent in run-to-completion protocol + app processing.
    pub work_cycles: u64,
}

impl PollCounters {
    /// Adds `other` into `self` (for aggregating across cores or runs).
    pub fn merge(&mut self, other: &PollCounters) {
        self.polls += other.polls;
        self.empty_polls += other.empty_polls;
        self.rx_frames += other.rx_frames;
        self.tx_frames += other.tx_frames;
        self.spin_cycles += other.spin_cycles;
        self.work_cycles += other.work_cycles;
    }

    /// Fraction of busy cycles burned spinning (0 when nothing ran).
    #[must_use]
    pub fn spin_fraction(&self) -> f64 {
        let total = self.spin_cycles + self.work_cycles;
        if total == 0 {
            return 0.0;
        }
        self.spin_cycles as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_merge_and_spin_fraction() {
        let mut a = PollCounters {
            polls: 1,
            empty_polls: 2,
            rx_frames: 3,
            tx_frames: 4,
            spin_cycles: 30,
            work_cycles: 10,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.polls, 2);
        assert_eq!(a.spin_cycles, 60);
        assert!((a.spin_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(PollCounters::default().spin_fraction(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SteerCounters {
            resteers: 1,
            table_rejects: 2,
            ooo_completions: 3,
        };
        let b = SteerCounters {
            resteers: 10,
            table_rejects: 20,
            ooo_completions: 30,
        };
        a.merge(&b);
        assert_eq!(
            a,
            SteerCounters {
                resteers: 11,
                table_rejects: 22,
                ooo_completions: 33,
            }
        );
        assert_eq!(SteerCounters::default().resteers, 0);
    }
}
