//! Runs a workload's cells on the job pool — one closed-loop batch per
//! round, each worker pulling the next cell when its last one finishes —
//! and derives the per-layer numbers from a traced round.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use affinity_sim::{LifecycleCounters, Machine, RunMetrics};
use bench::run_pool_exact;
use sim_prof::{PollCounters, SteerCounters};

use crate::host;
use crate::stats::{percentile, ptail};
use crate::trace::{self_times, Span, Tracer};
use crate::workloads::{check, digests, pin, Digest, Job};

/// What a finished cell yields for digests, invariants and layer counts.
#[derive(Debug)]
pub struct CellResult {
    pub metrics: RunMetrics,
    pub cpus: usize,
    pub steer: SteerCounters,
    pub poll: PollCounters,
    pub lifecycle: LifecycleCounters,
}

/// One executed cell.
#[derive(Debug)]
pub struct CellOut {
    pub worker: usize,
    /// Seconds since the run's epoch.
    pub start: f64,
    pub end: f64,
    pub result: Option<CellResult>,
    pub failure: Option<String>,
    pub spans: Vec<Span>,
}

static NEXT_WORKER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// A small per-thread id, so spans and pool gaps can be grouped by the
/// pool worker that ran them.
fn worker_id() -> usize {
    WORKER.with(|w| match w.get() {
        Some(id) => id,
        None => {
            let id = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
            w.set(Some(id));
            id
        }
    })
}

/// Builds, runs and harvests one machine exactly as `run_experiment`
/// does, with a span around each call into the simulator, then checks
/// the cell's invariants.
pub fn run_cell(job: &Job, epoch: Instant, traced: bool) -> CellOut {
    let mut t = Tracer::new(epoch, traced);
    let start = epoch.elapsed().as_secs_f64();
    t.begin("cell");
    t.begin("Machine::new");
    let machine = Machine::new(&job.config);
    t.end();
    let (result, failure) = match machine {
        Err(e) => (None, Some(format!("Machine::new failed: {e}"))),
        Ok(mut machine) => {
            t.begin("Machine::run");
            let metrics = machine.run();
            t.end();
            t.begin("harvest");
            t.begin("profiler");
            black_box(machine.profiler().clone());
            t.end();
            t.begin("registry");
            black_box(machine.registry().clone());
            black_box(machine.vectors().to_vec());
            t.end();
            t.begin("steer_stats");
            let steer = machine.steer_stats();
            t.end();
            t.begin("poll_stats");
            let poll = machine.poll_stats();
            black_box(machine.poll_stats_per_cpu());
            t.end();
            t.begin("lifecycle_stats");
            let lifecycle = machine.lifecycle_stats();
            t.end();
            t.end();
            t.begin("verify");
            let result = CellResult {
                metrics,
                cpus: job.config.cpus,
                steer,
                poll,
                lifecycle,
            };
            let failure = check(job, &result).err();
            t.end();
            t.begin("Machine::drop");
            drop(machine);
            t.end();
            (Some(result), failure)
        }
    };
    t.end();
    CellOut {
        worker: worker_id(),
        start,
        end: epoch.elapsed().as_secs_f64(),
        result,
        failure,
        spans: t.into_spans(),
    }
}

/// One pass over a workload's cells.
#[derive(Debug)]
pub struct Round {
    pub cells: Vec<CellOut>,
    /// Seconds since the run's epoch: first cell dispatched, last cell
    /// verified.
    pub start: f64,
    pub end: f64,
    /// Process user+system seconds over the round.
    pub cpu_s: f64,
}

impl Round {
    pub fn wall_s(&self) -> f64 {
        self.end - self.start
    }

    pub fn digests(&self, jobs: &[Job]) -> Vec<Digest> {
        let results: Vec<Option<&CellResult>> =
            self.cells.iter().map(|c| c.result.as_ref()).collect();
        digests(jobs, &results)
    }
}

/// Runs every job once on `workers` pool workers, in job order;
/// `done` is called as each cell finishes.
pub fn run_round(
    jobs: &[Job],
    workers: usize,
    traced: bool,
    epoch: Instant,
    done: &(dyn Fn() + Sync),
) -> Round {
    let cpu0 = host::cpu_seconds();
    let start = epoch.elapsed().as_secs_f64();
    let cells = run_pool_exact((0..jobs.len()).collect(), workers, |i: usize| {
        let out = run_cell(&jobs[i], epoch, traced);
        done();
        out
    });
    Round {
        cells,
        start,
        end: epoch.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
    }
}

/// What a round's sub-sweep digests must equal.
#[derive(Debug, Clone, Copy)]
pub enum Expect<'a> {
    /// The pinned digests of the full (`quick: false`) or quick recipes.
    Pins { quick: bool },
    /// The digests of an earlier round of the same inputs.
    Same(&'a [Digest]),
    /// Nothing to compare with (the first round at an unpinned seed).
    Nothing,
}

/// Job indices that failed in `round`: cells that errored or broke an
/// invariant, plus every cell of a sub-sweep whose digest differs from
/// what `expect` says it must be.
pub fn failed_cells(jobs: &[Job], round: &Round, expect: Expect) -> Vec<usize> {
    let mut failed: Vec<usize> = (0..jobs.len())
        .filter(|&i| round.cells[i].failure.is_some())
        .collect();
    for d in round.digests(jobs) {
        let want = match expect {
            Expect::Pins { quick } => pin(&d.name, quick),
            Expect::Same(reference) => reference.iter().find(|r| r.name == d.name).map(|r| r.value),
            Expect::Nothing => None,
        };
        if want.is_some_and(|w| w != d.value) {
            failed.extend(&d.cells);
        }
    }
    failed.sort_unstable();
    failed.dedup();
    failed
}

/// A per-layer metric: name, value, unit.
pub type Layer = (&'static str, f64, &'static str);

/// Span count and summed self time per span name over a traced round,
/// in order of first appearance.
pub fn span_totals(round: &Round) -> Vec<(&'static str, usize, f64)> {
    let mut totals: Vec<(&'static str, usize, f64)> = Vec::new();
    for cell in &round.cells {
        for (span, st) in cell.spans.iter().zip(self_times(&cell.spans)) {
            match totals.iter_mut().find(|t| t.0 == span.name) {
                Some(t) => {
                    t.1 += 1;
                    t.2 += st;
                }
                None => totals.push((span.name, 1, st)),
            }
        }
    }
    totals
}

/// The per-layer numbers of a traced round: host self time per simulator
/// call, cell-time distribution, pool waiting, and the exact simulated
/// counts that serve as denominators.
pub fn layer_metrics(round: &Round) -> Vec<Layer> {
    let totals = span_totals(round);
    let self_s = |names: &[&str]| -> f64 {
        totals
            .iter()
            .filter(|t| names.contains(&t.0))
            .map(|t| t.2)
            .sum()
    };
    let new_s = self_s(&["Machine::new"]);
    let run_s = self_s(&["Machine::run"]);
    let harvest_s = self_s(&[
        "harvest",
        "profiler",
        "registry",
        "steer_stats",
        "poll_stats",
        "lifecycle_stats",
    ]);

    let cell_s: Vec<f64> = round.cells.iter().map(|c| c.end - c.start).collect();
    let (wait_s, tail_idle_s) = pool_gaps(round);

    let results: Vec<&CellResult> = round
        .cells
        .iter()
        .filter_map(|c| c.result.as_ref())
        .collect();
    let sum = |f: &dyn Fn(&CellResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let window_kcycles = sum(&|r| r.metrics.wall_cycles * r.cpus as u64) / 1e3;
    // Productive and empty iterations together: every poll a PMD made.
    let polls = sum(&|r| r.poll.polls + r.poll.empty_polls);
    let accepts = sum(&|r| r.lifecycle.accepts);
    let syn_drops = sum(&|r| r.lifecycle.backlog_drops);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    vec![
        ("affinity-sim.new_s", new_s, "s"),
        ("affinity-sim.run_s", run_s, "s"),
        (
            "affinity-sim.run_ns_per_kcycle",
            ratio(run_s * 1e9, window_kcycles),
            "ns/kcycle",
        ),
        ("affinity-sim.harvest_s", harvest_s, "s"),
        ("cell.run_s.p50", percentile(&cell_s, 50.0), "s"),
        (
            "cell.run_s.ptail",
            percentile(&cell_s, ptail(cell_s.len())),
            "s",
        ),
        ("cell.run_s.max", percentile(&cell_s, 100.0), "s"),
        ("bench.pool.wait_s", wait_s, "s"),
        ("bench.pool.tail_idle_s", tail_idle_s, "s"),
        (
            "sim-mem.llc_misses",
            sum(&|r| r.metrics.total.llc_misses),
            "count",
        ),
        (
            "sim-mem.l2_misses",
            sum(&|r| r.metrics.total.l2_misses),
            "count",
        ),
        (
            "sim-mem.dtlb_misses",
            sum(&|r| r.metrics.total.dtlb_misses),
            "count",
        ),
        (
            "sim-cpu.kcycles",
            sum(&|r| r.metrics.total.cycles) / 1e3,
            "kcycles",
        ),
        (
            "sim-cpu.machine_clears",
            sum(&|r| r.metrics.total.machine_clears),
            "count",
        ),
        (
            "sim-os.resched_ipis",
            sum(&|r| r.metrics.resched_ipis),
            "count",
        ),
        (
            "sim-os.migrations",
            sum(&|r| r.metrics.wake_migrations + r.metrics.balance_migrations),
            "count",
        ),
        (
            "sim-os.lock_contended",
            sum(&|r| r.metrics.lock_contended),
            "count",
        ),
        (
            "sim-net.interrupts",
            sum(&|r| r.metrics.interrupts),
            "count",
        ),
        ("sim-net.polls", polls, "count"),
        (
            "sim-net.empty_poll_frac",
            ratio(sum(&|r| r.poll.empty_polls), polls),
            "ratio",
        ),
        ("steer.resteers", sum(&|r| r.steer.resteers), "count"),
        (
            "steer.table_rejects",
            sum(&|r| r.steer.table_rejects),
            "count",
        ),
        (
            "steer.ooo_completions",
            sum(&|r| r.steer.ooo_completions),
            "count",
        ),
        ("sim-tcp.messages", sum(&|r| r.metrics.messages), "count"),
        ("sim-tcp.accepts", accepts, "count"),
        (
            "sim-tcp.completes",
            sum(&|r| r.lifecycle.completes),
            "count",
        ),
        ("sim-tcp.syn_drops", syn_drops, "count"),
        (
            "sim-tcp.syn_drops_per_accept",
            ratio(syn_drops, accepts),
            "ratio",
        ),
    ]
}

/// Pool waiting summed over workers: `wait` is the time a worker spent
/// between cells (claiming the next one, or before its first), and
/// `tail_idle` the time from its last cell's end to the round's end —
/// the imbalance a late large cell leaves.
pub fn pool_gaps(round: &Round) -> (f64, f64) {
    let mut workers: Vec<usize> = round.cells.iter().map(|c| c.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    let (mut wait, mut tail) = (0.0, 0.0);
    for w in workers {
        let mut spans: Vec<(f64, f64)> = round
            .cells
            .iter()
            .filter(|c| c.worker == w)
            .map(|c| (c.start, c.end))
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = round.start;
        for (s, e) in spans {
            wait += (s - prev).max(0.0);
            prev = e;
        }
        tail += (round.end - prev).max(0.0);
    }
    (wait, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{jobs, WORKLOADS};

    fn out(worker: usize, start: f64, end: f64) -> CellOut {
        CellOut {
            worker,
            start,
            end,
            result: None,
            failure: None,
            spans: Vec::new(),
        }
    }

    #[test]
    fn pool_gaps_split_waiting_from_tail_idle() {
        let round = Round {
            cells: vec![out(0, 0.1, 1.0), out(1, 0.0, 2.0), out(0, 1.5, 3.0)],
            start: 0.0,
            end: 4.0,
            cpu_s: 0.0,
        };
        let (wait, tail) = pool_gaps(&round);
        assert!((wait - 0.6).abs() < 1e-12, "{wait}");
        assert!((tail - 3.0).abs() < 1e-12, "{tail}");
    }

    /// The quick variants match their pins on one and two workers, and
    /// tracing changes no output.
    #[test]
    fn quick_variants_are_pinned_worker_and_trace_independent() {
        let epoch = Instant::now();
        for w in WORKLOADS {
            let quick = jobs(w, 0, true).unwrap();
            let one = run_round(&quick, 1, false, epoch, &|| {});
            let two = run_round(&quick, 2, false, epoch, &|| {});
            let traced = run_round(&quick, 2, true, epoch, &|| {});
            for (label, round) in [("1 worker", &one), ("2 workers", &two), ("traced", &traced)] {
                let digests = round.digests(&quick);
                assert_eq!(digests, one.digests(&quick), "{w} {label}");
                assert!(
                    failed_cells(&quick, round, Expect::Pins { quick: true }).is_empty(),
                    "{w} {label}: {:?}",
                    digests
                        .iter()
                        .map(|d| format!("{} {:016x}", d.name, d.value))
                        .collect::<Vec<_>>()
                );
            }
            assert!(one.cells.iter().all(|c| c.spans.is_empty()));
            let spans = traced.cells.iter().map(|c| c.spans.len()).min().unwrap();
            assert!(spans >= 10, "{w}: {spans} spans per cell");
            let layers = layer_metrics(&traced);
            let get = |n: &str| layers.iter().find(|l| l.0 == n).unwrap().1;
            assert!(get("affinity-sim.run_s") > 0.0 && get("sim-tcp.messages") > 0.0);
        }
    }

    /// A seed other than 0 changes the inputs, so the pins no longer
    /// apply, but the output stays deterministic.
    #[test]
    fn other_seeds_are_deterministic_but_unpinned() {
        let epoch = Instant::now();
        let quick = jobs("matrix", 7, true).unwrap();
        let a = run_round(&quick, 2, false, epoch, &|| {});
        let b = run_round(&quick, 1, true, epoch, &|| {});
        assert_eq!(a.digests(&quick), b.digests(&quick));
        let reference = a.digests(&quick);
        assert!(failed_cells(&quick, &b, Expect::Same(&reference)).is_empty());
        assert!(!failed_cells(&quick, &a, Expect::Pins { quick: true }).is_empty());
    }
}
