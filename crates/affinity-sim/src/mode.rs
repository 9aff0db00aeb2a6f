//! The four affinity modes of the paper's Figure 3.

use std::fmt;

use crate::steer::{DynamicSteer, FlowPlacement, SteerSpec, VectorLayout};

/// How processes and interrupts are bound to processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AffinityMode {
    /// No binding: interrupts default to CPU0 (the Linux 2.4/NT default),
    /// the scheduler places processes freely.
    None,
    /// Interrupt-only affinity: NIC vectors split evenly across CPUs via
    /// `smp_affinity`; processes free.
    Irq,
    /// Process-only affinity: `ttcp` processes pinned evenly across CPUs;
    /// interrupts still all on CPU0.
    Process,
    /// Full affinity: each process pinned to the CPU that services its
    /// NIC's interrupts.
    Full,
    /// Receive-side-scaling: flows are hash-steered across NIC queues
    /// whose vectors are pinned (like [`AffinityMode::Irq`]), processes
    /// stay free — the "adapters that can direct connections ... to a
    /// specific processor" future the paper's conclusion sketches. Not
    /// part of the paper's Figure 3 matrix ([`AffinityMode::ALL`]); used
    /// by the scale sweep.
    Rss,
}

impl AffinityMode {
    /// All modes in the paper's presentation order.
    pub const ALL: [AffinityMode; 4] = [
        AffinityMode::None,
        AffinityMode::Process,
        AffinityMode::Irq,
        AffinityMode::Full,
    ];

    /// Label as used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AffinityMode::None => "No Aff",
            AffinityMode::Irq => "IRQ Aff",
            AffinityMode::Process => "Proc Aff",
            AffinityMode::Full => "Full Aff",
            AffinityMode::Rss => "RSS Aff",
        }
    }

    /// Whether processes are pinned in this mode.
    #[must_use]
    pub fn processes_pinned(self) -> bool {
        matches!(self, AffinityMode::Process | AffinityMode::Full)
    }

    /// The steering spec this mode presets. This is the *only*
    /// place the mode enum is interpreted — the machine consumes the
    /// resulting [`SteerSpec`], never the enum.
    #[must_use]
    pub fn steer_preset(self) -> SteerSpec {
        let (placement, vectors) = match self {
            AffinityMode::None | AffinityMode::Process => {
                (FlowPlacement::RoundRobin, VectorLayout::AllCpu0)
            }
            AffinityMode::Irq | AffinityMode::Full => {
                (FlowPlacement::RoundRobin, VectorLayout::SplitEven)
            }
            AffinityMode::Rss => (FlowPlacement::RssHash, VectorLayout::SplitEven),
        };
        SteerSpec {
            placement,
            vectors,
            dynamic: DynamicSteer::Off,
            pin_processes: self.processes_pinned(),
        }
    }
}

impl fmt::Display for AffinityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_modes() {
        assert_eq!(AffinityMode::ALL.len(), 4);
    }

    #[test]
    fn rss_is_outside_the_paper_matrix() {
        assert!(!AffinityMode::ALL.contains(&AffinityMode::Rss));
    }

    #[test]
    fn presets_encode_the_knob_matrix() {
        // (mode, interrupts split, processes pinned, flows RSS-hashed)
        for (mode, split, pinned, rss) in [
            (AffinityMode::None, false, false, false),
            (AffinityMode::Irq, true, false, false),
            (AffinityMode::Process, false, true, false),
            (AffinityMode::Full, true, true, false),
            (AffinityMode::Rss, true, false, true),
        ] {
            let spec = mode.steer_preset();
            assert_eq!(spec.vectors == VectorLayout::SplitEven, split, "{mode}");
            assert_eq!(mode.processes_pinned(), pinned, "{mode}");
            assert_eq!(spec.pin_processes, pinned, "{mode}");
            assert_eq!(spec.placement == FlowPlacement::RssHash, rss, "{mode}");
            assert_eq!(spec.dynamic, DynamicSteer::Off, "{mode}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(AffinityMode::Full.to_string(), "Full Aff");
        assert_eq!(AffinityMode::None.label(), "No Aff");
        assert_eq!(AffinityMode::Rss.label(), "RSS Aff");
    }
}
