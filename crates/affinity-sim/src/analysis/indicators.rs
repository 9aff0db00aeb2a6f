//! Performance-impact indicators (the paper's Figure 5).
//!
//! Each monitored event's occurrence count is multiplied by its expected
//! penalty and divided by total cycles:
//!
//! ```text
//! % time attributed to event = count(event) × cost(event) / total cycles
//! ```
//!
//! A first-order approximation — penalties on a deep out-of-order
//! pipeline are not additive — but, as in the paper, good enough to rank
//! which events matter. The paper's finding: machine clears and LLC
//! misses dominate everywhere.

use sim_cpu::{EventCosts, HwEvent, PerfCounters};

/// One row of a Figure 5 panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventImpact {
    /// The event.
    pub event: HwEvent,
    /// Penalty used (cycles per occurrence).
    pub cost: u64,
    /// Occurrences.
    pub count: u64,
    /// Fraction of total cycles attributed: `count × cost / cycles`.
    pub share: f64,
}

/// Computes the impact-indicator table for a counter set.
///
/// The returned rows cover the paper's seven indicator events in its
/// order, plus the "Instr" lower bound (instructions at the theoretical
/// 3-per-cycle retire rate) as the final row.
#[must_use]
pub fn impact_indicators(counters: &PerfCounters, costs: &EventCosts) -> Vec<EventImpact> {
    let cycles = counters.cycles.max(1) as f64;
    let mut rows: Vec<EventImpact> = [
        HwEvent::MachineClear,
        HwEvent::TcMiss,
        HwEvent::L2Miss,
        HwEvent::LlcMiss,
        HwEvent::ItlbMiss,
        HwEvent::DtlbMiss,
        HwEvent::BranchMispredict,
    ]
    .into_iter()
    .map(|event| {
        let cost = costs.penalty(event).expect("indicator events have costs");
        let count = counters.get(event);
        EventImpact {
            event,
            cost,
            count,
            share: count as f64 * cost as f64 / cycles,
        }
    })
    .collect();
    // The paper's academic lower bound: 3 retired instructions per cycle.
    rows.push(EventImpact {
        event: HwEvent::Instructions,
        cost: 0,
        count: counters.instructions,
        share: counters.instructions as f64 / 3.0 / cycles,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> PerfCounters {
        PerfCounters {
            cycles: 1_000_000,
            instructions: 300_000,
            machine_clears: 1_000, // x500 = 50% of cycles
            llc_misses: 1_000,     // x300 = 30%
            tc_misses: 500,        // x20 = 1%
            br_mispredicts: 100,   // x30 = 0.3%
            ..PerfCounters::default()
        }
    }

    #[test]
    fn shares_match_paper_formula() {
        let rows = impact_indicators(&counters(), &EventCosts::paper());
        let get = |e: HwEvent| rows.iter().find(|r| r.event == e).unwrap().share;
        assert!((get(HwEvent::MachineClear) - 0.5).abs() < 1e-12);
        assert!((get(HwEvent::LlcMiss) - 0.3).abs() < 1e-12);
        assert!((get(HwEvent::TcMiss) - 0.01).abs() < 1e-12);
        assert!((get(HwEvent::BranchMispredict) - 0.003).abs() < 1e-12);
        assert_eq!(get(HwEvent::ItlbMiss), 0.0);
    }

    #[test]
    fn instruction_lower_bound_is_last_row() {
        let rows = impact_indicators(&counters(), &EventCosts::paper());
        let last = rows.last().unwrap();
        assert_eq!(last.event, HwEvent::Instructions);
        assert!((last.share - 0.1).abs() < 1e-12); // 300k/3/1M
    }

    #[test]
    fn clears_and_llc_dominate_like_figure5() {
        let rows = impact_indicators(&counters(), &EventCosts::paper());
        let dominant: f64 = rows
            .iter()
            .filter(|r| matches!(r.event, HwEvent::MachineClear | HwEvent::LlcMiss))
            .map(|r| r.share)
            .sum();
        let rest: f64 = rows
            .iter()
            .filter(|r| {
                !matches!(
                    r.event,
                    HwEvent::MachineClear | HwEvent::LlcMiss | HwEvent::Instructions
                )
            })
            .map(|r| r.share)
            .sum();
        assert!(dominant > rest * 10.0);
    }

    #[test]
    fn empty_counters_are_safe() {
        let rows = impact_indicators(&PerfCounters::default(), &EventCosts::paper());
        assert!(rows.iter().all(|r| r.share == 0.0));
        assert_eq!(rows.len(), 8);
    }
}
