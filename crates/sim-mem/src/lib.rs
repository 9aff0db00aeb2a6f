//! # sim-mem
//!
//! Memory-hierarchy substrate for the ISPASS 2005 affinity reproduction.
//!
//! The paper attributes most of the affinity win to **last-level-cache
//! locality**: with interrupts and the consuming process on the same CPU,
//! TCP contexts, socket structures and skb metadata stay resident in one
//! cache hierarchy instead of ping-ponging between two. This crate models
//! exactly the machinery needed for that effect to *emerge*:
//!
//! * [`Cache`] — set-associative, LRU, write-allocate cache with
//!   hit/miss/eviction accounting;
//! * [`Tlb`] — small fully-associative translation buffer (ITLB and
//!   DTLB instances);
//! * [`MemorySystem`] — per-CPU three-level hierarchies (L1D, L2, LLC)
//!   plus a trace-cache stand-in for instruction delivery, glued together
//!   by a directory of sharers that invalidates remote copies on writes
//!   and on device DMA writes (which, as on real hardware, leave arriving
//!   packet payload *uncached* — the paper's RX-copy observation);
//! * [`RegionTable`] / [`MemRegion`] — named memory regions (connection
//!   contexts, socket buffers, payload, descriptor rings, kernel text)
//!   that higher layers touch without doing raw address arithmetic.
//!
//! The geometry defaults mirror the paper's system under test (Pentium 4
//! Xeon MP: 8 KB L1D, 512 KB L2, 2 MB L3).
//!
//! ## Example
//!
//! ```
//! use sim_core::CpuId;
//! use sim_mem::{MemoryConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
//! let ctx = mem.add_region("tcp_context", 512);
//! let cpu0 = CpuId::new(0);
//! let cold = mem.data_touch(cpu0, ctx, 0, 512, false);
//! assert!(cold.llc_misses > 0); // first touch: compulsory misses
//! let warm = mem.data_touch(cpu0, ctx, 0, 512, false);
//! assert_eq!(warm.llc_misses, 0); // now resident
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod region;
mod system;
mod tlb;

pub use cache::{Cache, CacheStats};
pub use config::MemoryConfig;
pub use region::{MemRegion, RegionId, RegionName, RegionPlan, RegionSpan, RegionTable};
pub use system::{ConstructionLayout, FetchResult, Footprint, MemorySystem, TouchResult};
pub use tlb::{Tlb, TlbStats};
