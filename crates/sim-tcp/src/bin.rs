//! The paper's seven functional bins.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A functional bin of TCP processing — the unit of every per-bin table
/// in the paper (Tables 1 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Bin {
    /// Sockets API, system-call entry and schedule-related routines.
    Interface,
    /// TCP protocol processing (the state machine).
    Engine,
    /// Memory/buffer management and TCP control-structure manipulation.
    BufMgmt,
    /// Payload data movement only.
    Copies,
    /// NIC driver routines and NIC interrupt processing.
    Driver,
    /// Synchronization-related routines.
    Locks,
    /// TCP timer routines.
    Timers,
}

impl Bin {
    /// All bins in the paper's table order.
    pub const ALL: [Bin; 7] = [
        Bin::Interface,
        Bin::Engine,
        Bin::BufMgmt,
        Bin::Copies,
        Bin::Driver,
        Bin::Locks,
        Bin::Timers,
    ];

    /// Label as printed in the paper's tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Bin::Interface => "Interface",
            Bin::Engine => "Engine",
            Bin::BufMgmt => "Buf Mgmt",
            Bin::Copies => "Copies",
            Bin::Driver => "Driver",
            Bin::Locks => "Locks",
            Bin::Timers => "Timers",
        }
    }
}

impl fmt::Display for Bin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_bins_in_paper_order() {
        assert_eq!(Bin::ALL.len(), 7);
        assert_eq!(Bin::ALL[0], Bin::Interface);
        assert_eq!(Bin::ALL[6], Bin::Timers);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(Bin::BufMgmt.to_string(), "Buf Mgmt");
    }
}
