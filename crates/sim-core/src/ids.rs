//! Identifier newtypes shared across the simulation crates.
//!
//! Every entity in the machine model is addressed by a small integer; the
//! newtypes below keep those integers from being mixed up (a `TaskId` can
//! never be passed where a `CpuId` is expected — exactly the kind of bug an
//! affinity simulator must not have).

use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u32);

        impl $name {
            /// Wraps a raw index.
            #[must_use]
            pub const fn new(index: u32) -> Self {
                $name(index)
            }

            /// Returns the raw index.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw index as `u32`.
            #[must_use]
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                $name(index)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// A logical processor in the simulated SMP system.
    ///
    /// The paper's system under test has two (`cpu0`, `cpu1`); the 4P
    /// extension experiment uses four.
    CpuId,
    "cpu"
);

id_newtype!(
    /// A schedulable task (a `ttcp` process in the paper's workload).
    TaskId,
    "task"
);

id_newtype!(
    /// An interrupt vector as routed by the simulated IO-APIC.
    ///
    /// The paper's SUT exposes its 8 NICs as `IRQ0x19`–`IRQ0x27`; we keep
    /// the same numbering so Table 4 renders with recognizable names.
    IrqVector,
    "irq0x"
);

id_newtype!(
    /// A device on the simulated I/O bus (one per NIC port).
    DeviceId,
    "dev"
);

id_newtype!(
    /// A TCP connection (one per NIC/ttcp instance in the paper's setup).
    ConnectionId,
    "conn"
);

impl IrqVector {
    /// Formats the vector the way the paper's Table 4 names interrupt
    /// handlers, e.g. `IRQ0x19_interrupt`.
    #[must_use]
    pub fn handler_name(self) -> String {
        format!("IRQ0x{:x}_interrupt", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        let c = CpuId::new(1);
        assert_eq!(c.index(), 1);
        assert_eq!(c.raw(), 1);
        assert_eq!(CpuId::from(1u32), c);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(TaskId::new(3));
        assert!(set.contains(&TaskId::new(3)));
        assert!(TaskId::new(2) < TaskId::new(10));
    }

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(CpuId::new(0).to_string(), "cpu0");
        assert_eq!(TaskId::new(7).to_string(), "task7");
        assert_eq!(DeviceId::new(2).to_string(), "dev2");
        assert_eq!(ConnectionId::new(5).to_string(), "conn5");
    }

    #[test]
    fn irq_handler_names_match_paper() {
        assert_eq!(IrqVector::new(0x19).handler_name(), "IRQ0x19_interrupt");
        assert_eq!(IrqVector::new(0x27).handler_name(), "IRQ0x27_interrupt");
    }
}
