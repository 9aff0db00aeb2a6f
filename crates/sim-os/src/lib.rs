//! # sim-os
//!
//! Operating-system model for the ISPASS 2005 affinity reproduction.
//!
//! The paper's affinity knobs are Linux 2.4 mechanisms: `/proc/irq/*/
//! smp_affinity` bitmasks steering device interrupts, and
//! `sys_sched_setaffinity` pinning processes. The performance story runs
//! through the scheduler ("the scheduler tries to schedule a process onto
//! the same processor it previously ran on; bottom halves are usually
//! scheduled on the same processor where their top halves ran"), through
//! inter-processor interrupts (cross-CPU wakeups), and through spinlock
//! contention. This crate models each of those mechanisms:
//!
//! * [`CpuMask`] — affinity bitmasks (process masks and IRQ
//!   `smp_affinity` masks);
//! * [`Scheduler`] — per-CPU runqueues with a cache-affinity wakeup
//!   policy, optional periodic load balancing, and migration accounting;
//! * [`IoApic`] — static interrupt routing honouring per-vector masks
//!   (defaulting, like Linux 2.4 and NT, to delivering everything to
//!   CPU0);
//! * [`IpiFabric`] — counts and classifies inter-processor interrupts
//!   (rescheduling, generic); the CPU model charges the machine clear;
//! * [`SpinLock`] — the paper's Table 2 spinlock: an atomic
//!   decrement-and-jump acquire path and a `cmpb; repz nop; jle` spin
//!   loop, with instruction/branch/mispredict accounting that collapses
//!   when contention disappears under full affinity;
//! * [`PmdCore`] — the anti-model: a kernel-bypass busy-poll core that
//!   uses *none* of the above (no IRQ routing, no scheduler, no IPIs),
//!   against which the interrupt stack's affinity costs are measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpumask;
mod ioapic;
mod ipi;
mod pmd;
mod scheduler;
mod spinlock;
mod task;

pub use cpumask::CpuMask;
pub use ioapic::IoApic;
pub use ipi::{IpiFabric, IpiKind};
pub use pmd::{PmdConfig, PmdCore};
pub use scheduler::{Scheduler, SchedulerConfig, SchedulerStats, WakePlacement};
pub use spinlock::{LockAcquisition, SpinLock, SpinLockStats};
pub use task::{Task, TaskState};
