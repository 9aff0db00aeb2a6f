//! # sim-prof
//!
//! The measurement layer of the reproduction: an Oprofile-like profiler
//! over the simulated machine.
//!
//! The paper's data (Tables 1, 3, 4) is Oprofile output: event counts
//! attributed to kernel functions, optionally split per CPU, with the
//! functions then grouped into seven functional bins. This crate provides
//!
//! * [`FunctionRegistry`] — the symbol table: every modelled kernel
//!   function registered with its name and its functional *group* (bin);
//! * [`Profiler`] — a dense `(cpu × function)` matrix of
//!   [`sim_cpu::PerfCounters`], filled in by the execution layers;
//! * [`SampleView`] — converts exact counts into Oprofile-style sample
//!   counts (one sample per *N* events) so reproduced tables can be
//!   rendered in the same units as the paper's;
//! * [`symbol_report`] — "functions with the most samples" reports like
//!   the paper's Table 4.
//!
//! Unlike real Oprofile the underlying counts are exact; sampling noise is
//! not modelled, but attribution *skid* is — the execution layers decide
//! which function an interrupt-caused machine clear lands in, mirroring
//! how skid attributes flush cost to the interrupted code.
//!
//! ## Example
//!
//! ```
//! use sim_core::CpuId;
//! use sim_cpu::{HwEvent, PerfCounters};
//! use sim_prof::{FunctionRegistry, Profiler};
//!
//! let mut registry = FunctionRegistry::new();
//! let f = registry.register("tcp_sendmsg", "Engine");
//! let mut prof = Profiler::new(2);
//! let mut delta = PerfCounters::default();
//! delta.bump(HwEvent::Cycles, 100);
//! prof.record(CpuId::new(0), f, &delta);
//! assert_eq!(prof.counters(CpuId::new(0), f).cycles, 100);
//! assert_eq!(prof.group_total(&registry, "Engine").cycles, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod profiler;
mod registry;
mod report;

pub use counters::{PollCounters, SteerCounters};
pub use profiler::Profiler;
pub use registry::{FuncId, FunctionMeta, FunctionRegistry};
pub use report::{region_map_report, symbol_report, SampleView, SymbolRow};
