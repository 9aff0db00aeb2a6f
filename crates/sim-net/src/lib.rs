//! # sim-net
//!
//! Network-device substrate for the ISPASS 2005 affinity reproduction.
//!
//! The paper's testbed has eight gigabit NIC ports, each serving one
//! long-lived `ttcp` connection; its clients are separate machines that
//! source/sink the traffic. This crate models the pieces of that setup
//! that interact with affinity:
//!
//! * [`Nic`] — a device with per-queue RX/TX descriptor rings and a
//!   per-queue interrupt-moderation state machine ([`Coalescer`]). DMA
//!   goes through [`sim_mem::MemorySystem`], so arriving payload is
//!   *uncached* for whichever CPU copies it later (the paper's RX-copy
//!   observation) and transmitted payload stays cached. The paper-era
//!   device is a single queue with fixed packet-count coalescing
//!   ([`CoalesceConfig::FixedCount`]); multi-queue MSI-X configurations
//!   give each queue its own vector so steering policies can spread
//!   flows across CPUs within one port;
//! * [`wire`] — MTU segmentation arithmetic shared by the stack model
//!   and the workload generator;
//! * [`SpscRing`] / [`Mempool`] — the kernel-bypass dataplane's lockless
//!   single-producer/single-consumer descriptor rings and packet-buffer
//!   pool, consumed by busy-polling PMD cores instead of the interrupt
//!   path (the frame is DMA'd the same way, but no PMD core calls
//!   [`Nic::moderate`], so no vector is asserted);
//! * [`Peer`] — a stand-in for the client machines: it acks transmitted
//!   data (delayed-ack style, one ACK per two segments) and sources bulk
//!   data for receive tests, with deterministic jitter.
//!
//! ## Example
//!
//! ```
//! use sim_core::{DeviceId, IrqVector, SimRng};
//! use sim_mem::{MemoryConfig, MemorySystem};
//! use sim_net::{Nic, NicConfig};
//!
//! let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
//! let vectors = [IrqVector::new(0x19)];
//! let mut nic = Nic::new(DeviceId::new(0), &vectors, NicConfig::default(), &mut mem);
//! // Four 1500-byte frames arrive on queue 0; coalescing raises one interrupt.
//! let mut raised = 0;
//! for _ in 0..4 {
//!     nic.dma_rx_frame(0, &mut mem, 1500);
//!     if nic.moderate(0, 0) {
//!         raised += 1;
//!     }
//! }
//! assert_eq!(raised, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
mod nic;
mod peer;
pub mod ring;
pub mod wire;

pub use coalesce::{CoalesceConfig, Coalescer};
pub use nic::{Nic, NicConfig, NicStats};
pub use peer::{Peer, PeerConfig};
pub use ring::{Mempool, RingStats, SpscRing};
