//! # sim-core
//!
//! Deterministic discrete-event simulation engine underpinning the
//! reproduction of *Architectural Characterization of Processor Affinity in
//! Network Processing* (ISPASS 2005).
//!
//! The engine is deliberately generic: it knows nothing about CPUs, NICs or
//! TCP. It provides
//!
//! * [`SimTime`] — simulated time measured in clock cycles,
//! * [`ShardedEventQueue`] — a stable priority queue of timestamped
//!   events, stored in per-CPU lanes,
//! * [`SimRng`] — a small, fully deterministic random number generator,
//! * identifier newtypes ([`CpuId`], [`TaskId`], [`IrqVector`], [`DeviceId`]).
//!
//! Higher layers (`sim-cpu`, `sim-os`, `sim-net`, `sim-tcp`) compose these
//! into a machine model.
//!
//! ## Example
//!
//! ```
//! use sim_core::{ShardedEventQueue, SimTime};
//!
//! let mut q: ShardedEventQueue<&'static str> = ShardedEventQueue::new(1);
//! q.push(0, SimTime::from_cycles(20), "second");
//! q.push(0, SimTime::from_cycles(10), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t.cycles(), ev), (10, "first"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod event;
mod ids;
mod rng;
mod time;

pub use error::SimError;
pub use event::ShardedEventQueue;
pub use ids::{ConnectionId, CpuId, DeviceId, IrqVector, TaskId};
pub use rng::SimRng;
pub use time::{Frequency, SimTime};

/// Result alias used across the simulation crates.
pub type Result<T> = std::result::Result<T, SimError>;
