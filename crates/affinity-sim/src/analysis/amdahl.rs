//! Amdahl-style improvement decomposition (the paper's Table 3).
//!
//! For each functional bin and each event, the improvement going from
//! no affinity to full affinity is the bin's share of the baseline total
//! times the bin's own relative reduction:
//!
//! ```text
//! %improvement = (event_bin_no / event_total_no)
//!              × (1 − event_bin_full / event_bin_no)
//! ```
//!
//! with all counts normalized per unit of work done (the two runs move
//! different amounts of data in different wall times). Summing the
//! per-bin improvements gives the overall improvement, which is what
//! makes the decomposition Amdahl-consistent.

use sim_cpu::HwEvent;
use sim_tcp::Bin;

use crate::metrics::RunMetrics;

/// One row of Table 3: a bin's baseline character and its contribution
/// to the overall improvement for cycles, LLC misses and machine clears.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinImprovement {
    /// The functional bin.
    pub bin: Bin,
    /// Baseline (no affinity) share of attributed cycles.
    pub pct_time_base: f64,
    /// Baseline CPI of the bin.
    pub cpi_base: f64,
    /// Baseline LLC misses per instruction of the bin.
    pub mpi_base: f64,
    /// Contribution to overall cycle improvement.
    pub cycles_improvement: f64,
    /// Contribution to overall LLC-miss improvement.
    pub llc_improvement: f64,
    /// Contribution to overall machine-clear improvement.
    pub clears_improvement: f64,
}

fn per_work(metrics: &RunMetrics, bin: Bin, event: HwEvent) -> f64 {
    // Normalize by bytes moved: "events per work done".
    metrics.bin(bin).get(event) as f64 / metrics.bytes_moved.max(1) as f64
}

fn total_per_work(metrics: &RunMetrics, event: HwEvent) -> f64 {
    Bin::ALL.iter().map(|&b| per_work(metrics, b, event)).sum()
}

fn improvement_component(
    base: &RunMetrics,
    improved: &RunMetrics,
    bin: Bin,
    event: HwEvent,
) -> f64 {
    let bin_base = per_work(base, bin, event);
    let total_base = total_per_work(base, event);
    if bin_base == 0.0 || total_base == 0.0 {
        return 0.0;
    }
    let bin_improved = per_work(improved, bin, event);
    (bin_base / total_base) * (1.0 - bin_improved / bin_base)
}

/// Computes the Table 3 decomposition from a baseline (no affinity) run
/// and an improved (full affinity) run.
#[must_use]
pub fn bin_improvements(base: &RunMetrics, improved: &RunMetrics) -> Vec<BinImprovement> {
    Bin::ALL
        .into_iter()
        .map(|bin| {
            let c = base.bin(bin);
            BinImprovement {
                bin,
                pct_time_base: base.bin_cycle_share(bin),
                cpi_base: c.cpi(),
                mpi_base: c.mpi(),
                cycles_improvement: improvement_component(base, improved, bin, HwEvent::Cycles),
                llc_improvement: improvement_component(base, improved, bin, HwEvent::LlcMiss),
                clears_improvement: improvement_component(
                    base,
                    improved,
                    bin,
                    HwEvent::MachineClear,
                ),
            }
        })
        .collect()
}

/// Sums a column of the decomposition — the overall improvement for an
/// event, equal to `1 − total_improved/total_base` (per work done).
#[must_use]
pub fn overall_improvement(rows: &[BinImprovement], event: HwEvent) -> f64 {
    rows.iter()
        .map(|r| match event {
            HwEvent::Cycles => r.cycles_improvement,
            HwEvent::LlcMiss => r.llc_improvement,
            HwEvent::MachineClear => r.clears_improvement,
            _ => 0.0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BinBreakdown;
    use sim_core::Frequency;
    use sim_cpu::PerfCounters;

    fn metrics_with(bytes: u64, cycles_per_bin: &[(Bin, u64, u64, u64)]) -> RunMetrics {
        let bins = Bin::ALL
            .into_iter()
            .map(|bin| {
                let mut counters = PerfCounters::default();
                if let Some(&(_, cy, llc, clears)) = cycles_per_bin.iter().find(|(b, ..)| *b == bin)
                {
                    counters.cycles = cy;
                    counters.llc_misses = llc;
                    counters.machine_clears = clears;
                    counters.instructions = cy / 4; // CPI 4
                }
                BinBreakdown { bin, counters }
            })
            .collect();
        RunMetrics {
            wall_cycles: 1,
            freq: Frequency::from_ghz(2.0),
            bytes_moved: bytes,
            messages: 1,
            busy_cycles: vec![0, 0],
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
    fn decomposition_sums_to_overall() {
        // Baseline: Engine 600, Copies 400 cycles per byte-unit.
        let base = metrics_with(
            1000,
            &[
                (Bin::Engine, 600_000, 600, 60),
                (Bin::Copies, 400_000, 400, 40),
            ],
        );
        // Improved: Engine halves, Copies unchanged (same work).
        let improved = metrics_with(
            1000,
            &[
                (Bin::Engine, 300_000, 300, 30),
                (Bin::Copies, 400_000, 400, 40),
            ],
        );
        let rows = bin_improvements(&base, &improved);
        let overall = overall_improvement(&rows, HwEvent::Cycles);
        // Total went 1M -> 700K: 30% improvement.
        assert!((overall - 0.3).abs() < 1e-9);
        let engine = rows.iter().find(|r| r.bin == Bin::Engine).unwrap();
        // Engine contributed all of it: 0.6 share x 0.5 reduction = 0.3.
        assert!((engine.cycles_improvement - 0.3).abs() < 1e-9);
        let copies = rows.iter().find(|r| r.bin == Bin::Copies).unwrap();
        assert!(copies.cycles_improvement.abs() < 1e-9);
    }

    #[test]
    fn normalization_by_work() {
        // Same per-byte cost, double the bytes: no improvement.
        let base = metrics_with(1000, &[(Bin::Engine, 1_000_000, 100, 10)]);
        let improved = metrics_with(2000, &[(Bin::Engine, 2_000_000, 200, 20)]);
        let rows = bin_improvements(&base, &improved);
        assert!(overall_improvement(&rows, HwEvent::Cycles).abs() < 1e-9);
        assert!(overall_improvement(&rows, HwEvent::LlcMiss).abs() < 1e-9);
    }

    #[test]
    fn regressions_show_negative() {
        let base = metrics_with(1000, &[(Bin::Timers, 100_000, 10, 1)]);
        let improved = metrics_with(1000, &[(Bin::Timers, 150_000, 15, 2)]);
        let rows = bin_improvements(&base, &improved);
        let timers = rows.iter().find(|r| r.bin == Bin::Timers).unwrap();
        assert!(
            timers.cycles_improvement < 0.0,
            "regression must be negative"
        );
    }

    #[test]
    fn baseline_character_fields() {
        let base = metrics_with(1000, &[(Bin::Engine, 800_000, 800, 80)]);
        let rows = bin_improvements(&base, &base);
        let engine = rows.iter().find(|r| r.bin == Bin::Engine).unwrap();
        assert!((engine.pct_time_base - 1.0).abs() < 1e-9);
        assert!((engine.cpi_base - 4.0).abs() < 1e-9);
        assert!((engine.mpi_base - 800.0 / 200_000.0).abs() < 1e-9);
        // Same run as "improved": zero improvement everywhere.
        assert!(engine.cycles_improvement.abs() < 1e-9);
    }

    #[test]
    fn empty_bins_are_zero() {
        let base = metrics_with(1000, &[]);
        let rows = bin_improvements(&base, &base);
        assert!(rows
            .iter()
            .all(|r| r.cycles_improvement == 0.0 && r.pct_time_base == 0.0));
    }
}
