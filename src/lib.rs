//! # affinity-repro
//!
//! Umbrella crate for the reproduction of *Architectural Characterization
//! of Processor Affinity in Network Processing* (Foong et al., ISPASS
//! 2005). It re-exports the public API of [`affinity_sim`] and the
//! substrate crates so examples and integration tests have a single
//! import point.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.

#![forbid(unsafe_code)]

pub use affinity_sim::*;

/// The substrate crates, re-exported for users who want to poke at the
/// machine model directly.
pub mod substrate {
    pub use sim_core;
    pub use sim_cpu;
    pub use sim_mem;
    pub use sim_net;
    pub use sim_os;
    pub use sim_prof;
    pub use sim_tcp;
}
