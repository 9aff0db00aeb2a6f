//! An O(1)-style SMP scheduler with cache-affinity wakeups and periodic
//! load balancing.
//!
//! The policy distils what the paper relies on from Linux 2.4/2.6:
//!
//! * **Cache affinity**: on wakeup, prefer the CPU the task last ran on,
//!   unless that CPU is noticeably busier than the least-loaded allowed
//!   CPU ("to reduce cache interference, the scheduler tries as much as
//!   possible to schedule a process onto the same processor that it was
//!   previously running on").
//! * **Waker locality**: a task with no history wakes on the waking CPU
//!   when allowed — this is how interrupt affinity *indirectly* produces
//!   process affinity (the bottom half runs on the interrupt's CPU and
//!   wakes the consumer there).
//! * **Load balancing**: runnable tasks migrate from the busiest to the
//!   least-loaded CPU when the imbalance exceeds a threshold, unless
//!   their affinity mask forbids it ("the scheduler will always attempt
//!   to load balance, moving processes from processors with heavier loads
//!   to those with lighter loads").
//! * **Reschedule IPIs**: waking a task onto a *different* CPU than the
//!   waker requires an inter-processor interrupt — the machine-clear
//!   source the paper identifies in the TCP engine.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use sim_core::{CpuId, Result, SimError, TaskId};

use crate::cpumask::CpuMask;
use crate::task::{Task, TaskState};

/// Tunables for the scheduler policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Number of CPUs.
    pub cpus: usize,
    /// How much busier (in runnable tasks) the last-run CPU may be than
    /// the least-loaded CPU before a wakeup abandons cache affinity.
    pub wake_imbalance_tolerance: usize,
    /// Minimum queue-length difference for the load balancer to migrate.
    pub balance_threshold: usize,
}

impl SchedulerConfig {
    /// Defaults matching the reproduction's 2P runs.
    #[must_use]
    pub fn new(cpus: usize) -> Self {
        SchedulerConfig {
            cpus,
            wake_imbalance_tolerance: 1,
            balance_threshold: 2,
        }
    }
}

/// Where a wakeup placed a task, and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WakePlacement {
    /// CPU whose runqueue received the task.
    pub cpu: CpuId,
    /// The placement differs from the waking CPU, so a reschedule IPI
    /// must be sent (charged as a machine clear on the target).
    pub needs_resched_ipi: bool,
    /// The task will run on a different CPU than it last ran on.
    pub cold_cache: bool,
}

/// Counters exposed for analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Total wakeups processed.
    pub wakeups: u64,
    /// Wakeups placed away from the task's previous CPU.
    pub wake_migrations: u64,
    /// Tasks moved by the periodic load balancer.
    pub balance_migrations: u64,
    /// Reschedule IPIs required by cross-CPU wakeups.
    pub resched_ipis: u64,
}

/// The SMP scheduler.
///
/// # Example
///
/// ```
/// use sim_core::CpuId;
/// use sim_os::{CpuMask, Scheduler, SchedulerConfig};
///
/// let mut sched = Scheduler::new(SchedulerConfig::new(2));
/// let t = sched.spawn("ttcp0", CpuMask::all(2))?;
/// let placement = sched.wake(t, CpuId::new(0), false)?;
/// assert_eq!(placement.cpu, CpuId::new(0)); // waker locality
/// assert_eq!(sched.pick_next(CpuId::new(0)), Some(t));
/// # Ok::<(), sim_core::SimError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scheduler {
    config: SchedulerConfig,
    tasks: Vec<Task>,
    runqueues: Vec<VecDeque<TaskId>>,
    running: Vec<Option<TaskId>>,
    /// Extra placement weight per CPU for load that is invisible to the
    /// runqueues — interrupt/softirq work. A CPU saturated with
    /// interrupt processing should not attract wakeups just because its
    /// runqueue happens to be empty (the paper's CPU0 pathology).
    pressure: Vec<usize>,
    stats: SchedulerStats,
    /// Bumped by every operation that can change which CPUs have
    /// runnable work (`running`, the runqueues, or a task's affinity).
    /// Lets callers cache derived views — the run loop's ready-CPU set —
    /// and revalidate with one integer compare instead of rescanning
    /// every runqueue per iteration.
    generation: u64,
}

impl Scheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero CPUs.
    #[must_use]
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(config.cpus > 0, "need at least one cpu");
        Scheduler {
            tasks: Vec::new(),
            runqueues: vec![VecDeque::new(); config.cpus],
            running: vec![None; config.cpus],
            pressure: vec![0; config.cpus],
            stats: SchedulerStats::default(),
            generation: 0,
            config,
        }
    }

    /// The current runnability generation (see the field docs). Any
    /// change to this value invalidates cached ready-CPU views; an
    /// unchanged value guarantees no CPU gained or lost runnable work.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Creates a new (blocked) task with the given affinity.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyAffinityMask`] if the mask selects none of
    /// this machine's CPUs.
    pub fn spawn(&mut self, name: impl Into<String>, affinity: CpuMask) -> Result<TaskId> {
        self.generation += 1;
        let effective = affinity.and(CpuMask::all(self.config.cpus));
        if effective.is_empty() {
            return Err(SimError::EmptyAffinityMask);
        }
        let id = TaskId::new(self.tasks.len() as u32);
        self.tasks.push(Task::new(id, name, effective));
        Ok(id)
    }

    /// Changes a task's affinity (the `sys_sched_setaffinity` model).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyAffinityMask`] for a mask with no CPUs of
    /// this machine, or [`SimError::UnknownId`] for a bad task id.
    pub fn set_affinity(&mut self, task: TaskId, affinity: CpuMask) -> Result<()> {
        self.generation += 1;
        let effective = affinity.and(CpuMask::all(self.config.cpus));
        if effective.is_empty() {
            return Err(SimError::EmptyAffinityMask);
        }
        let t = self.task_mut(task)?;
        t.affinity = effective;
        Ok(())
    }

    /// Immutable access to a task.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] for a bad id.
    pub fn task(&self, id: TaskId) -> Result<&Task> {
        self.tasks.get(id.index()).ok_or(SimError::UnknownId {
            kind: "task",
            index: id.index(),
        })
    }

    fn task_mut(&mut self, id: TaskId) -> Result<&mut Task> {
        self.tasks.get_mut(id.index()).ok_or(SimError::UnknownId {
            kind: "task",
            index: id.index(),
        })
    }

    /// Number of runnable tasks queued or running on `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn load(&self, cpu: CpuId) -> usize {
        self.runqueues[cpu.index()].len() + usize::from(self.running[cpu.index()].is_some())
    }

    /// Sets the non-runqueue load weight for `cpu` (e.g. interrupt
    /// work). Affects wakeup placement comparisons only.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn set_pressure(&mut self, cpu: CpuId, pressure: usize) {
        self.pressure[cpu.index()] = pressure;
    }

    /// Load as seen by placement decisions: runnable tasks plus the
    /// external pressure weight.
    fn placement_load(&self, cpu: CpuId) -> usize {
        self.load(cpu) + self.pressure[cpu.index()]
    }

    fn least_loaded(&self, allowed: CpuMask) -> CpuId {
        allowed
            .iter()
            .filter(|c| c.index() < self.config.cpus)
            .min_by_key(|&c| (self.placement_load(c), c.index()))
            .expect("allowed mask validated non-empty")
    }

    /// Wakes `task`, choosing a CPU per the policy described in the
    /// the module docs. `from_cpu` is the CPU executing the wakeup
    /// (the bottom half's CPU for socket wakeups).
    ///
    /// With `wake_affine` set — the bottom-half hand-off case — an *idle*
    /// waking CPU claims the task even if it last ran elsewhere: the
    /// woken consumer can run immediately where its data just arrived.
    /// This is the channel through which interrupt affinity "indirectly
    /// leads to process affinity" in the paper's words.
    ///
    /// Waking an already-runnable or running task is a no-op that reports
    /// the task's current placement without an IPI.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownId`] for a bad task id.
    pub fn wake(
        &mut self,
        task: TaskId,
        from_cpu: CpuId,
        wake_affine: bool,
    ) -> Result<WakePlacement> {
        self.generation += 1;
        let (state, last_cpu, affinity) = {
            let t = self.task(task)?;
            (t.state, t.last_cpu, t.affinity)
        };
        if state != TaskState::Blocked {
            // Already runnable/running: report where it is (or would
            // legally run) without moving it.
            let cpu = last_cpu
                .filter(|&c| affinity.contains(c))
                .or_else(|| affinity.contains(from_cpu).then_some(from_cpu))
                .or_else(|| affinity.first())
                .expect("mask validated non-empty");
            return Ok(WakePlacement {
                cpu,
                needs_resched_ipi: false,
                cold_cache: false,
            });
        }

        self.stats.wakeups += 1;
        let least = self.least_loaded(affinity);
        let affine_ok = wake_affine
            && affinity.contains(from_cpu)
            && self.placement_load(from_cpu)
                <= self.placement_load(self.least_loaded(affinity))
                    + self.config.wake_imbalance_tolerance;
        let preferred = if affine_ok {
            from_cpu
        } else {
            match last_cpu {
                Some(prev) if affinity.contains(prev) => prev,
                _ if affinity.contains(from_cpu) => from_cpu,
                _ => least,
            }
        };
        let cpu = if self.placement_load(preferred)
            <= self.placement_load(least) + self.config.wake_imbalance_tolerance
        {
            preferred
        } else {
            least
        };

        let cold_cache = last_cpu.is_some_and(|prev| prev != cpu);
        if cold_cache {
            self.stats.wake_migrations += 1;
        }
        let needs_resched_ipi = cpu != from_cpu;
        if needs_resched_ipi {
            self.stats.resched_ipis += 1;
        }

        let t = self.task_mut(task)?;
        t.state = TaskState::Runnable;
        t.wakeups += 1;
        self.runqueues[cpu.index()].push_back(task);
        Ok(WakePlacement {
            cpu,
            needs_resched_ipi,
            cold_cache,
        })
    }

    /// Dequeues the next task for `cpu` and marks it running there.
    /// Returns `None` when the runqueue is empty (CPU idles).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range or if `cpu` already has a running
    /// task (callers must `yield`/`block` first).
    pub fn pick_next(&mut self, cpu: CpuId) -> Option<TaskId> {
        self.generation += 1;
        assert!(
            self.running[cpu.index()].is_none(),
            "{cpu} already has a running task"
        );
        let task = self.runqueues[cpu.index()].pop_front()?;
        let t = &mut self.tasks[task.index()];
        t.begin_running(cpu);
        self.running[cpu.index()] = Some(task);
        Some(task)
    }

    /// The task currently running on `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn current(&self, cpu: CpuId) -> Option<TaskId> {
        self.running[cpu.index()]
    }

    /// Preempts the running task on `cpu` with Linux 2.4 *global
    /// runqueue* semantics: the expired task becomes runnable on the
    /// least-loaded CPU its affinity allows (ties keep it where it is).
    /// With every device interrupt routed to CPU0, CPU0's effective task
    /// capacity shrinks, so expired tasks continuously drain toward the
    /// other CPUs and back — the migration churn behind the paper's
    /// no-affinity cache behaviour. Pinned tasks never move.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn yield_current_global(&mut self, cpu: CpuId) {
        self.generation += 1;
        let Some(task) = self.running[cpu.index()].take() else {
            return;
        };
        self.tasks[task.index()].state = TaskState::Runnable;
        let affinity = self.tasks[task.index()].affinity;
        let target = affinity
            .iter()
            .filter(|c| c.index() < self.config.cpus)
            .min_by_key(|&c| {
                let tie_break = usize::from(c != cpu); // prefer staying
                (self.placement_load(c), tie_break, c.index())
            })
            .expect("mask validated non-empty");
        if target != cpu {
            self.stats.balance_migrations += 1;
        }
        self.runqueues[target.index()].push_back(task);
    }

    /// Blocks the running task on `cpu` (e.g. `read()` with no data).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn block_current(&mut self, cpu: CpuId) -> Option<TaskId> {
        self.generation += 1;
        let task = self.running[cpu.index()].take()?;
        self.tasks[task.index()].state = TaskState::Blocked;
        Some(task)
    }

    /// Adds cycles to the running task's accounting.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn charge_current(&mut self, cpu: CpuId, cycles: u64) {
        if let Some(task) = self.running[cpu.index()] {
            self.tasks[task.index()].run_cycles += cycles;
        }
    }

    /// Whether [`steal_into`](Self::steal_into) would find a task for
    /// `cpu`: some other runqueue holds a task whose affinity allows it.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn can_steal_into(&self, cpu: CpuId) -> bool {
        if !self.runqueues[cpu.index()].is_empty() {
            return false;
        }
        (0..self.config.cpus).any(|o| {
            o != cpu.index()
                && self.runqueues[o]
                    .iter()
                    .any(|&t| self.tasks[t.index()].affinity.contains(cpu))
        })
    }

    /// Linux 2.4-style idle stealing: an idle `cpu` pulls one runnable
    /// task (affinity permitting) from the busiest other runqueue into
    /// its own. Returns the stolen task, which the caller should then
    /// obtain via [`pick_next`](Self::pick_next).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn steal_into(&mut self, cpu: CpuId) -> Option<TaskId> {
        self.generation += 1;
        if !self.runqueues[cpu.index()].is_empty() {
            return None; // not actually idle
        }
        let busiest = (0..self.config.cpus as u32)
            .map(CpuId::new)
            .filter(|&c| c != cpu)
            .max_by_key(|&c| (self.runqueues[c.index()].len(), c.index()))?;
        if self.runqueues[busiest.index()].is_empty() {
            return None;
        }
        let queue = &mut self.runqueues[busiest.index()];
        let pos = queue
            .iter()
            .rposition(|&t| self.tasks[t.index()].affinity.contains(cpu))?;
        let task = queue.remove(pos).expect("position valid");
        self.runqueues[cpu.index()].push_back(task);
        self.stats.balance_migrations += 1;
        Some(task)
    }

    /// One round of load balancing: repeatedly move a runnable task from
    /// the busiest to the least-loaded CPU while the difference is at
    /// least [`SchedulerConfig::balance_threshold`] and affinity allows.
    /// Returns the migrations performed as `(task, from, to)`.
    pub fn load_balance(&mut self) -> Vec<(TaskId, CpuId, CpuId)> {
        self.generation += 1;
        let mut moves = Vec::new();
        loop {
            let busiest = (0..self.config.cpus as u32)
                .map(CpuId::new)
                .max_by_key(|&c| (self.load(c), c.index()))
                .expect("cpus > 0");
            let idlest = (0..self.config.cpus as u32)
                .map(CpuId::new)
                .min_by_key(|&c| (self.load(c), c.index()))
                .expect("cpus > 0");
            // A move only reduces imbalance if the gap is at least 2
            // (moving across a gap of 1 just swaps the imbalance and
            // would oscillate forever), so clamp the threshold.
            if self.load(busiest) < self.load(idlest) + self.config.balance_threshold.max(2) {
                break;
            }
            // Pull from the back (least-recently queued => coldest cache).
            let queue = &mut self.runqueues[busiest.index()];
            let candidate = queue
                .iter()
                .rposition(|&t| self.tasks[t.index()].affinity.contains(idlest));
            let Some(pos) = candidate else {
                break; // every queued task is pinned away from idlest
            };
            let task = queue.remove(pos).expect("position valid");
            self.runqueues[idlest.index()].push_back(task);
            self.stats.balance_migrations += 1;
            moves.push((task, busiest, idlest));
        }
        moves
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Iterates over all tasks.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// Resets counters (not task state).
    pub fn reset_stats(&mut self) {
        self.stats = SchedulerStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CPU0: CpuId = CpuId::new(0);
    const CPU1: CpuId = CpuId::new(1);

    fn sched2() -> Scheduler {
        Scheduler::new(SchedulerConfig::new(2))
    }

    #[test]
    fn spawn_rejects_empty_mask() {
        let mut s = sched2();
        // Mask selects only CPU 5, which doesn't exist on a 2P machine.
        let err = s.spawn("t", CpuMask::single(CpuId::new(5)));
        assert_eq!(err.unwrap_err(), SimError::EmptyAffinityMask);
    }

    #[test]
    fn wake_prefers_waker_cpu_for_fresh_task() {
        let mut s = sched2();
        let t = s.spawn("t", CpuMask::all(2)).unwrap();
        let p = s.wake(t, CPU1, false).unwrap();
        assert_eq!(p.cpu, CPU1);
        assert!(!p.needs_resched_ipi);
        assert!(!p.cold_cache);
    }

    #[test]
    fn wake_prefers_last_cpu_for_cache_affinity() {
        let mut s = sched2();
        let t = s.spawn("t", CpuMask::all(2)).unwrap();
        s.wake(t, CPU1, false).unwrap();
        assert_eq!(s.pick_next(CPU1), Some(t));
        s.block_current(CPU1);
        // Woken from CPU0, but last ran on CPU1: stays on CPU1 (IPI needed).
        let p = s.wake(t, CPU0, false).unwrap();
        assert_eq!(p.cpu, CPU1);
        assert!(p.needs_resched_ipi);
        assert!(!p.cold_cache);
        assert_eq!(s.stats().resched_ipis, 1);
    }

    #[test]
    fn wake_abandons_cache_affinity_under_imbalance() {
        let mut s = sched2();
        let t = s.spawn("t", CpuMask::all(2)).unwrap();
        s.wake(t, CPU0, false).unwrap();
        s.pick_next(CPU0);
        s.block_current(CPU0);
        // Pile 3 other runnable tasks onto CPU0.
        for i in 0..3 {
            let other = s.spawn(format!("o{i}"), CpuMask::single(CPU0)).unwrap();
            s.wake(other, CPU0, false).unwrap();
        }
        // t last ran on CPU0 but CPU0 is 3 deep vs CPU1 at 0: move.
        let p = s.wake(t, CPU0, false).unwrap();
        assert_eq!(p.cpu, CPU1);
        assert!(p.cold_cache);
        assert_eq!(s.stats().wake_migrations, 1);
    }

    #[test]
    fn wake_respects_affinity_mask() {
        let mut s = sched2();
        let t = s.spawn("pinned", CpuMask::single(CPU1)).unwrap();
        let p = s.wake(t, CPU0, false).unwrap();
        assert_eq!(p.cpu, CPU1);
        assert!(p.needs_resched_ipi);
    }

    #[test]
    fn double_wake_is_noop() {
        let mut s = sched2();
        let t = s.spawn("t", CpuMask::all(2)).unwrap();
        s.wake(t, CPU0, false).unwrap();
        let p = s.wake(t, CPU0, false).unwrap();
        assert!(!p.needs_resched_ipi);
        assert_eq!(s.stats().wakeups, 1);
        assert_eq!(s.load(CPU0), 1, "no duplicate enqueue");
    }

    #[test]
    fn pick_block_cycle() {
        let mut s = sched2();
        let a = s.spawn("a", CpuMask::all(2)).unwrap();
        let b = s.spawn("b", CpuMask::all(2)).unwrap();
        s.wake(a, CPU0, false).unwrap();
        s.wake(b, CPU0, false).unwrap();
        assert_eq!(s.pick_next(CPU0), Some(a));
        assert_eq!(s.current(CPU0), Some(a));
        s.block_current(CPU0);
        assert_eq!(s.pick_next(CPU0), Some(b));
        assert_eq!(s.task(a).unwrap().state, TaskState::Blocked);
    }

    #[test]
    fn pick_next_empty_is_none() {
        let mut s = sched2();
        assert_eq!(s.pick_next(CPU0), None);
    }

    #[test]
    #[should_panic(expected = "already has a running task")]
    fn double_pick_panics() {
        let mut s = sched2();
        let a = s.spawn("a", CpuMask::all(2)).unwrap();
        let b = s.spawn("b", CpuMask::all(2)).unwrap();
        s.wake(a, CPU0, false).unwrap();
        s.wake(b, CPU0, false).unwrap();
        s.pick_next(CPU0);
        s.pick_next(CPU0);
    }

    #[test]
    fn load_balance_moves_from_busiest() {
        let mut s = sched2();
        for i in 0..4 {
            let t = s.spawn(format!("t{i}"), CpuMask::all(2)).unwrap();
            // Force all onto CPU0 by waking from CPU0 before any history.
            s.wake(t, CPU0, false).unwrap();
        }
        // Wake-time balancing tolerates 1 difference, so CPU1 may have some.
        let before0 = s.load(CPU0);
        let before1 = s.load(CPU1);
        let moves = s.load_balance();
        let after0 = s.load(CPU0);
        let after1 = s.load(CPU1);
        assert!(after0.abs_diff(after1) < s.config().balance_threshold);
        assert_eq!(before0 + before1, after0 + after1);
        assert_eq!(s.stats().balance_migrations as usize, moves.len());
    }

    #[test]
    fn load_balance_respects_pinning() {
        let mut s = sched2();
        for i in 0..4 {
            let t = s.spawn(format!("p{i}"), CpuMask::single(CPU0)).unwrap();
            s.wake(t, CPU0, false).unwrap();
        }
        let moves = s.load_balance();
        assert!(moves.is_empty(), "pinned tasks must not migrate");
        assert_eq!(s.load(CPU0), 4);
    }

    #[test]
    fn set_affinity_validates() {
        let mut s = sched2();
        let t = s.spawn("t", CpuMask::all(2)).unwrap();
        assert!(s.set_affinity(t, CpuMask::single(CpuId::new(9))).is_err());
        s.set_affinity(t, CpuMask::single(CPU1)).unwrap();
        assert_eq!(s.task(t).unwrap().affinity, CpuMask::single(CPU1));
    }

    #[test]
    fn charge_current_accumulates() {
        let mut s = sched2();
        let t = s.spawn("t", CpuMask::all(2)).unwrap();
        s.wake(t, CPU0, false).unwrap();
        s.pick_next(CPU0);
        s.charge_current(CPU0, 100);
        s.charge_current(CPU0, 50);
        assert_eq!(s.task(t).unwrap().run_cycles, 150);
    }

    #[test]
    fn wake_affine_pulls_task_to_idle_waker() {
        let mut s = sched2();
        let t = s.spawn("t", CpuMask::all(2)).unwrap();
        s.wake(t, CPU0, false).unwrap();
        s.pick_next(CPU0);
        s.block_current(CPU0);
        // Bottom half on idle CPU1 wakes the task: affine hand-off wins
        // over cache affinity.
        let p = s.wake(t, CPU1, true).unwrap();
        assert_eq!(p.cpu, CPU1);
        assert!(p.cold_cache);
        assert!(!p.needs_resched_ipi);
    }

    #[test]
    fn wake_affine_ignored_when_waker_busy() {
        let mut s = sched2();
        let t = s.spawn("t", CpuMask::all(2)).unwrap();
        s.wake(t, CPU0, false).unwrap();
        s.pick_next(CPU0);
        s.block_current(CPU0);
        // Make CPU1 clearly busier than idle CPU0 (beyond the wake
        // imbalance tolerance): one running plus one queued task.
        for name in ["o1", "o2"] {
            let other = s.spawn(name, CpuMask::single(CPU1)).unwrap();
            s.wake(other, CPU1, false).unwrap();
        }
        s.pick_next(CPU1);
        let p = s.wake(t, CPU1, true).unwrap();
        assert_eq!(p.cpu, CPU0, "busy waker: cache affinity wins");
    }

    #[test]
    fn wake_affine_respects_pinning() {
        let mut s = sched2();
        let t = s.spawn("pinned", CpuMask::single(CPU0)).unwrap();
        let p = s.wake(t, CPU1, true).unwrap();
        assert_eq!(p.cpu, CPU0);
    }

    #[test]
    fn steal_into_moves_from_busiest() {
        let mut s = sched2();
        for i in 0..3 {
            let t = s.spawn(format!("t{i}"), CpuMask::all(2)).unwrap();
            s.wake(t, CPU0, false).unwrap();
        }
        // CPU0 has queued work (wake tolerance may have spread some);
        // drain CPU1 and steal.
        while s.pick_next(CPU1).is_some() {
            s.block_current(CPU1);
        }
        let before = s.load(CPU0);
        if before > 0 {
            let stolen = s.steal_into(CPU1);
            assert!(stolen.is_some());
            assert_eq!(s.load(CPU0), before - 1);
            assert_eq!(s.pick_next(CPU1), stolen);
        }
    }

    #[test]
    fn steal_into_nothing_to_steal() {
        let mut s = sched2();
        assert_eq!(s.steal_into(CPU0), None);
        // Pinned-away tasks cannot be stolen.
        let t = s.spawn("pinned", CpuMask::single(CPU0)).unwrap();
        s.wake(t, CPU0, false).unwrap();
        assert_eq!(s.steal_into(CPU1), None);
    }

    #[test]
    fn steal_into_noop_when_not_idle() {
        let mut s = sched2();
        let a = s.spawn("a", CpuMask::all(2)).unwrap();
        let b = s.spawn("b", CpuMask::single(CPU0)).unwrap();
        s.wake(a, CPU1, false).unwrap();
        s.wake(b, CPU0, false).unwrap();
        // CPU1 has its own queued task: no stealing.
        assert_eq!(s.steal_into(CPU1), None);
    }

    #[test]
    fn unknown_task_errors() {
        let mut s = sched2();
        let bogus = TaskId::new(42);
        assert!(matches!(
            s.wake(bogus, CPU0, false),
            Err(SimError::UnknownId { kind: "task", .. })
        ));
        assert!(s.task(bogus).is_err());
    }
}
