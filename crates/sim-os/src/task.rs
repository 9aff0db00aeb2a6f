//! Schedulable tasks.

use sim_core::{CpuId, TaskId};

use crate::cpumask::CpuMask;

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Waiting on a runqueue.
    Runnable,
    /// Currently executing on [`Task::last_cpu`].
    Running,
    /// Blocked (e.g. in `read()` waiting for socket data).
    Blocked,
}

/// A schedulable entity — one `ttcp` process in the paper's workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    id: TaskId,
    name: String,
    /// Affinity mask, as set by `sys_sched_setaffinity`.
    pub affinity: CpuMask,
    /// Current state.
    pub state: TaskState,
    /// CPU the task last ran on (cache-affinity hint), if it ever ran.
    pub last_cpu: Option<CpuId>,
    /// Times the task started running on a different CPU than its
    /// previous one (each migration costs cache warmth).
    pub migrations: u64,
    /// Times the task was woken.
    pub wakeups: u64,
    /// Total cycles the task has executed.
    pub run_cycles: u64,
}

impl Task {
    /// Creates a blocked task with the given affinity.
    #[must_use]
    pub fn new(id: TaskId, name: impl Into<String>, affinity: CpuMask) -> Self {
        Task {
            id,
            name: name.into(),
            affinity,
            state: TaskState::Blocked,
            last_cpu: None,
            migrations: 0,
            wakeups: 0,
            run_cycles: 0,
        }
    }

    /// Task id.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Task name (e.g. `ttcp3`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records that the task begins running on `cpu`, counting a
    /// migration if it last ran elsewhere. Returns `true` on migration.
    pub fn begin_running(&mut self, cpu: CpuId) -> bool {
        let migrated = self.last_cpu.is_some_and(|prev| prev != cpu);
        if migrated {
            self.migrations += 1;
        }
        self.last_cpu = Some(cpu);
        self.state = TaskState::Running;
        migrated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_task_is_blocked() {
        let t = Task::new(TaskId::new(0), "ttcp0", CpuMask::all(2));
        assert_eq!(t.state, TaskState::Blocked);
        assert_eq!(t.last_cpu, None);
        assert_eq!(t.name(), "ttcp0");
        assert_eq!(t.id(), TaskId::new(0));
    }

    #[test]
    fn migration_counting() {
        let mut t = Task::new(TaskId::new(0), "t", CpuMask::all(2));
        assert!(!t.begin_running(CpuId::new(0))); // first run: no migration
        assert!(!t.begin_running(CpuId::new(0)));
        assert!(t.begin_running(CpuId::new(1)));
        assert_eq!(t.migrations, 1);
        assert_eq!(t.last_cpu, Some(CpuId::new(1)));
        assert_eq!(t.state, TaskState::Running);
    }
}
