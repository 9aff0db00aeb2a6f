//! # affinity-sim
//!
//! End-to-end reproduction of *Architectural Characterization of
//! Processor Affinity in Network Processing* (Foong, Fung, Newell,
//! Abraham, Irelan, Lopez-Estrada — ISPASS 2005) on a fully simulated
//! substrate.
//!
//! The paper measures how binding processes
//! (`sys_sched_setaffinity`) and NIC interrupts (`smp_affinity`) to
//! processors changes TCP throughput and *why* — attributing the win to
//! last-level-cache locality and, novelly, to **machine clears** caused
//! by device interrupts and IPIs. This crate wires the substrate crates
//! (`sim-mem`, `sim-cpu`, `sim-os`, `sim-net`, `sim-tcp`, `sim-prof`)
//! into the paper's system under test and reruns its entire evaluation:
//!
//! * [`AffinityMode`] — the four modes of Figure 3;
//! * [`Workload`] — the `ttcp` bulk TX/RX micro-benchmark;
//! * [`Machine`] / [`ExperimentConfig`] / [`run_experiment`] — the
//!   2-processor SUT with 8 GbE NICs and 8 connections, and the
//!   steady-state measurement harness;
//! * [`RunMetrics`] — throughput, utilization, GHz/Gbps cost, per-bin and
//!   per-function event counters;
//! * [`DataplaneMode`] — interrupt-driven host stack vs DPDK-style
//!   kernel bypass (busy-polling PMD cores over lockless SPSC rings,
//!   run-to-completion, idle burn charged honestly);
//! * [`analysis`] — Amdahl-style improvement decomposition (Table 3),
//!   performance-impact indicators (Figure 5), Spearman rank correlation
//!   (Table 5);
//! * [`report`] — text renderers for every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use affinity_sim::{AffinityMode, Direction, ExperimentConfig, run_experiment};
//!
//! let config = ExperimentConfig::paper_sut(Direction::Tx, 4096, AffinityMode::Full)
//!     .quick(); // reduced message counts for CI/doc tests
//! let result = run_experiment(&config)?;
//! assert!(result.metrics.throughput_gbps() > 0.0);
//! # Ok::<(), sim_core::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod experiment;
mod machine;
mod metrics;
mod mode;
mod poll;
mod ready;
pub mod report;
pub mod steer;
mod workload;

pub use experiment::{run_experiment, DataplaneConfig, DataplaneMode, ExperimentConfig, RunResult};
pub use machine::Machine;
pub use metrics::{BinBreakdown, LifecycleCounters, RunMetrics};
pub use mode::AffinityMode;
pub use ready::ReadyCpus;
pub use sim_net::CoalesceConfig;
pub use steer::{DynamicSteer, FlowPlacement, SteerSpec, VectorLayout};
// The deleted steering trait's name, still imported by the benchmark
// package's layer probes.
#[doc(hidden)]
pub use steer::FlowDirector as SteeringPolicy;
pub use workload::{Direction, ServerWorkload, Workload, PAPER_SIZES};
