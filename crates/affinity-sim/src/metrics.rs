//! Run-level metrics: throughput, utilization, cost, event breakdowns.

use sim_core::Frequency;
use sim_cpu::PerfCounters;
use sim_tcp::Bin;

/// Event counters for one functional bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinBreakdown {
    /// The bin.
    pub bin: Bin,
    /// Events attributed to the bin's functions (all CPUs).
    pub counters: PerfCounters,
}

/// Connection-lifecycle counters of a server-workload run (all zero for
/// the immortal-flow `ttcp` workloads). Carried on
/// [`RunResult`](crate::RunResult) — deliberately *not* part of
/// [`RunMetrics`], whose `Debug` rendering is pinned by the golden
/// snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleCounters {
    /// Connections accepted during the measurement window.
    pub accepts: u64,
    /// Connections that completed teardown during the measurement
    /// window.
    pub completes: u64,
    /// SYNs dropped over the whole run — listen-queue overflow, or no
    /// flow slot free when the SYN arrived (the client retries after its
    /// retransmission timeout). Counted over the run lifetime rather
    /// than the window because the overbooked opening wave drops almost
    /// entirely before measurement starts.
    pub backlog_drops: u64,
    /// Median flow completion time (SYN arrival → teardown complete) of
    /// window completions, in cycles.
    pub fct_p50_cycles: u64,
    /// 99th-percentile flow completion time of window completions, in
    /// cycles.
    pub fct_p99_cycles: u64,
    /// Flow slots still live when the run finished (a drained churn run
    /// ends at zero).
    pub final_live_flows: u64,
    /// Occupied per-flow steering-table entries when the run finished
    /// (zero after drain — FlowDirector entries must not leak).
    pub final_table_entries: u64,
}

/// Summary of one measured steady-state run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Measured wall time in cycles (all CPUs share one clock domain).
    pub wall_cycles: u64,
    /// The clock frequency.
    pub freq: Frequency,
    /// Application payload bytes moved during measurement.
    pub bytes_moved: u64,
    /// Application messages completed during measurement.
    pub messages: u64,
    /// Busy (non-idle) cycles per CPU during measurement.
    pub busy_cycles: Vec<u64>,
    /// Machine-wide event counters.
    pub total: PerfCounters,
    /// Per-bin event counters, in [`Bin::ALL`] order.
    pub bins: Vec<BinBreakdown>,
    /// Machine clears by reason, summed over CPUs
    /// (see [`sim_cpu::ClearReason::ALL`] for the index order).
    pub clears_by_reason: [u64; 5],
    /// Reschedule IPIs sent (cross-CPU wakeups).
    pub resched_ipis: u64,
    /// Wakeups placed on a different CPU than the task last ran on.
    pub wake_migrations: u64,
    /// Tasks moved to another CPU by timeslice expiry or idle stealing
    /// (see [`sim_os::SchedulerStats::balance_migrations`]).
    pub balance_migrations: u64,
    /// Spinlock acquisitions (all connections).
    pub lock_acquisitions: u64,
    /// Contended spinlock acquisitions.
    pub lock_contended: u64,
    /// Device interrupts raised (post-coalescing, all NICs).
    pub interrupts: u64,
}

impl RunMetrics {
    /// Application-level throughput in gigabits per second.
    #[must_use]
    pub fn throughput_gbps(&self) -> f64 {
        if self.wall_cycles == 0 {
            return 0.0;
        }
        let seconds = self.wall_cycles as f64 / self.freq.hertz() as f64;
        self.bytes_moved as f64 * 8.0 / seconds / 1e9
    }

    /// Throughput in megabits per second (the paper's Figure 3 unit).
    #[must_use]
    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_gbps() * 1000.0
    }

    /// Utilization of one CPU over the measurement window.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[must_use]
    pub fn cpu_utilization(&self, cpu: usize) -> f64 {
        if self.wall_cycles == 0 {
            return 0.0;
        }
        (self.busy_cycles[cpu] as f64 / self.wall_cycles as f64).min(1.0)
    }

    /// Mean utilization across CPUs (the paper's Figure 3 bars).
    #[must_use]
    pub fn avg_utilization(&self) -> f64 {
        if self.busy_cycles.is_empty() {
            return 0.0;
        }
        (0..self.busy_cycles.len())
            .map(|c| self.cpu_utilization(c))
            .sum::<f64>()
            / self.busy_cycles.len() as f64
    }

    /// The paper's Figure 4 cost metric: processor GHz consumed per Gbps
    /// delivered — numerically, busy cycles per bit.
    #[must_use]
    pub fn cost_ghz_per_gbps(&self) -> f64 {
        let bits = self.bytes_moved as f64 * 8.0;
        if bits == 0.0 {
            return 0.0;
        }
        self.busy_cycles.iter().sum::<u64>() as f64 / bits
    }

    /// Counters for one bin.
    #[must_use]
    pub fn bin(&self, bin: Bin) -> PerfCounters {
        self.bins
            .iter()
            .find(|b| b.bin == bin)
            .map(|b| b.counters)
            .unwrap_or_default()
    }

    /// The bin's share of all attributed cycles (the paper's "% cycles").
    #[must_use]
    pub fn bin_cycle_share(&self, bin: Bin) -> f64 {
        let total: u64 = self.bins.iter().map(|b| b.counters.cycles).sum();
        if total == 0 {
            return 0.0;
        }
        self.bin(bin).cycles as f64 / total as f64
    }

    /// Cycles per message (normalizing work done, like the paper's
    /// per-transfer analysis).
    #[must_use]
    pub fn cycles_per_message(&self) -> f64 {
        if self.messages == 0 {
            return 0.0;
        }
        self.busy_cycles.iter().sum::<u64>() as f64 / self.messages as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> RunMetrics {
        let mut bins: Vec<BinBreakdown> = Bin::ALL
            .into_iter()
            .map(|bin| BinBreakdown {
                bin,
                counters: PerfCounters::default(),
            })
            .collect();
        bins[1].counters.cycles = 600; // Engine
        bins[3].counters.cycles = 400; // Copies
        RunMetrics {
            wall_cycles: 2_000_000_000, // 1s at 2GHz
            freq: Frequency::from_ghz(2.0),
            bytes_moved: 125_000_000, // 1 Gbit
            messages: 1000,
            busy_cycles: vec![1_500_000_000, 1_000_000_000],
            total: PerfCounters::default(),
            bins,
            clears_by_reason: [0; 5],
            resched_ipis: 0,
            wake_migrations: 0,
            balance_migrations: 0,
            lock_acquisitions: 0,
            lock_contended: 0,
            interrupts: 0,
        }
    }

    #[test]
    fn throughput() {
        let m = metrics();
        assert!((m.throughput_gbps() - 1.0).abs() < 1e-9);
        assert!((m.throughput_mbps() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn utilization() {
        let m = metrics();
        assert!((m.cpu_utilization(0) - 0.75).abs() < 1e-12);
        assert!((m.cpu_utilization(1) - 0.5).abs() < 1e-12);
        assert!((m.avg_utilization() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn cost_is_cycles_per_bit() {
        let m = metrics();
        // 2.5e9 busy cycles / 1e9 bits = 2.5 GHz/Gbps.
        assert!((m.cost_ghz_per_gbps() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn bin_shares() {
        let m = metrics();
        assert!((m.bin_cycle_share(Bin::Engine) - 0.6).abs() < 1e-12);
        assert!((m.bin_cycle_share(Bin::Copies) - 0.4).abs() < 1e-12);
        assert_eq!(m.bin_cycle_share(Bin::Locks), 0.0);
        assert_eq!(m.bin(Bin::Engine).cycles, 600);
    }

    #[test]
    fn zero_guards() {
        let mut m = metrics();
        m.wall_cycles = 0;
        assert_eq!(m.throughput_gbps(), 0.0);
        assert_eq!(m.cpu_utilization(0), 0.0);
        m.bytes_moved = 0;
        assert_eq!(m.cost_ghz_per_gbps(), 0.0);
        m.messages = 0;
        assert_eq!(m.cycles_per_message(), 0.0);
    }

    #[test]
    fn cycles_per_message() {
        let m = metrics();
        assert!((m.cycles_per_message() - 2_500_000.0).abs() < 1e-6);
    }
}
