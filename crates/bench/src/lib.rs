//! Shared harness code for the `repro` binary and the criterion benches.
//!
//! The heavy lifting lives in [`affinity_sim`]; this crate adds the
//! experiment *matrices* the paper's evaluation section defines (which
//! sizes, which modes, which extreme points), seed-averaged sweeps, and a
//! deterministic job pool that runs cells in parallel, heaviest first,
//! without letting the thread count leak into the results.

#![forbid(unsafe_code)]

pub mod paper;
pub mod sweeps;

use affinity_sim::{AffinityMode, Direction, ExperimentConfig, RunMetrics};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Seeds averaged for figure-level numbers (placement dynamics in the
/// unpinned modes are seed-sensitive, like real scheduler runs).
pub const FIGURE_SEEDS: [u64; 4] = [0x5EED, 42, 0xACE5, 2005];

/// The four "extreme data points" §6 analyses in depth.
pub const EXTREME_POINTS: [(Direction, u64); 4] = [
    (Direction::Tx, 65536),
    (Direction::Tx, 128),
    (Direction::Rx, 65536),
    (Direction::Rx, 128),
];

/// Builds the paper-scale experiment for one cell of the evaluation
/// matrix, with measurement counts trimmed to keep the full regeneration
/// run tractable.
#[must_use]
pub fn cell(direction: Direction, size: u64, mode: AffinityMode, seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_sut(direction, size, mode).with_seed(seed);
    // ~1 MB measured per connection, bounded for wall-clock sanity.
    config.workload.measure_messages = (1024 * 1024 / size).clamp(16, 800) as u32;
    config.workload.warmup_messages = (config.workload.measure_messages / 3).max(6);
    config
}

/// Worker count for [`run_pool`]: the `REPRO_THREADS` environment
/// variable if set, otherwise the machine's available parallelism, and
/// never more than the hardware threads — the count `run_pool` runs, so
/// a report or history row stamped with it names the pool that ran.
///
/// Results never depend on this number — only wall-clock time does.
#[must_use]
pub fn pool_threads() -> usize {
    pool_workers(
        std::env::var("REPRO_THREADS").ok().as_deref(),
        hardware_threads(),
    )
}

/// The workers a `REPRO_THREADS` value `requested` gets on a machine of
/// `hardware` threads: a positive integer, capped at `hardware`;
/// `hardware` when unset or not a positive integer.
fn pool_workers(requested: Option<&str>, hardware: usize) -> usize {
    requested
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .map_or(hardware, |n| n.min(hardware))
}

/// Hardware threads actually available to this process.
#[must_use]
pub fn hardware_threads() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// Runs every job through `run` on a pool of workers and returns the
/// results **in job order**, regardless of scheduling.
///
/// Workers claim jobs **from the back of the list**: the k-th claim takes
/// job `n - 1 - k`. Callers list their jobs cheapest first, so the pool
/// starts the heaviest ones first and the cheap ones fill in behind them
/// (Graham's longest-processing-time rule, with the list order standing
/// in for the unknown run times). A heavy job listed last under a
/// front-first pool would start after everything else and leave every
/// other worker idle while it ran.
///
/// `threads` is a *cap*, not a target: the simulation is pure CPU work,
/// so spawning more workers than the machine has hardware threads can
/// only add context-switch and cache-thrash overhead (measured as a
/// uniform threads=4 loss on a 1-core container before the clamp).
/// Results never depend on the worker count — only wall time does — so
/// clamping `REPRO_THREADS=8` to 2 workers on a 2-core box changes
/// nothing but speed.
///
/// Each simulation cell is self-contained (its own `Machine`, its own
/// RNG seeded from the config), so cells never share mutable state and
/// the per-cell results are bit-identical whether the pool runs with one
/// worker or many.
pub fn run_pool<J, R, F>(jobs: Vec<J>, threads: usize, run: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    run_pool_exact(jobs, threads.min(hardware_threads()), run)
}

/// [`run_pool`] without the hardware clamp: spawns exactly
/// `workers` threads (when there are that many jobs). Tests use this to
/// exercise the multi-worker claim/merge machinery even on machines
/// where the clamp would collapse the pool to one worker.
///
/// With `workers <= 1` (or a single job) the jobs run inline on the
/// caller's thread — no spawning, same results.
pub fn run_pool_exact<J, R, F>(jobs: Vec<J>, workers: usize, run: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let n = jobs.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return jobs.into_iter().map(run).collect();
    }
    // One shared cursor counts claims, so claiming a job is a single
    // uncontended `fetch_add` instead of a queue-mutex acquisition. The
    // k-th claim takes job `n - 1 - k`: the list's heaviest (last) jobs
    // start first. Each per-job slot is locked exactly once by the one
    // worker whose cursor draw claimed it. Workers accumulate results
    // in worker-local vectors (nothing shared to contend or false-share
    // on) and the join-time scatter restores job order, so the output
    // is independent of which worker ran what.
    let slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(0);
    let run = &run;
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let claim = cursor.fetch_add(1, Ordering::Relaxed);
                        if claim >= n {
                            return local;
                        }
                        let idx = n - 1 - claim;
                        let job = slots[idx]
                            .lock()
                            .expect("job slot lock")
                            .take()
                            .expect("each job claimed exactly once");
                        local.push((idx, run(job)));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (idx, out) in handle.join().expect("pool worker panicked") {
                results[idx] = Some(out);
            }
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("cursor covered every job"))
        .collect()
}

/// Folds a result stream into an order-sensitive FNV-1a digest, so a
/// benchmark run is checkable: identical inputs must give an identical
/// digest at any worker count, and the folded work can't be optimized
/// away.
#[must_use]
pub fn fnv_fold(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, c| {
        (h ^ c).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Appends one JSON object to an append-only JSON-array history file.
///
/// The file holds one entry per recorded benchmark run (`repro perf`,
/// `repro scale`), newest last, so the bench trajectory across PRs stays
/// visible instead of being clobbered by every run. A missing or empty
/// file starts a new array; a legacy single-object snapshot (the pre-PR 3
/// format) is wrapped into the array as its first entry.
///
/// # Panics
///
/// Panics if the file can't be written (the harness runs from the repo
/// root; failing to record a benchmark should be loud).
pub fn append_history(path: &str, entry: &str) {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = existing.trim();
    let entry = entry.trim();
    let body = if trimmed.is_empty() {
        format!("[\n{entry}\n]\n")
    } else if let Some(rest) = trimmed.strip_prefix('[') {
        let inner = rest.strip_suffix(']').unwrap_or(rest).trim();
        if inner.is_empty() {
            format!("[\n{entry}\n]\n")
        } else {
            format!("[\n{inner},\n{entry}\n]\n")
        }
    } else {
        format!("[\n{trimmed},\n{entry}\n]\n")
    };
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write history {path}: {e}"));
}

/// One row of the append-only benchmark history, as read back by
/// [`latest_history_entry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryEntry {
    /// PR number stamped on the row.
    pub pr: u32,
    /// Worker-pool size the row was recorded at.
    pub threads: usize,
    /// Recorded wall seconds.
    pub wall_s: f64,
    /// Recorded machine-construction wall seconds — the setup share of
    /// `wall_s` (`None` on rows predating the setup/run split).
    pub setup_wall: Option<f64>,
    /// Recorded result digest (`None` on rows predating the field).
    pub digest: Option<u64>,
}

/// Extracts the value of `"key": value` from one history line, with the
/// trailing comma stripped (string values keep their quotes).
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.trim().strip_prefix('"')?.strip_prefix(key)?;
    let rest = rest.strip_prefix('"')?.trim_start().strip_prefix(':')?;
    Some(rest.trim().trim_end_matches(','))
}

/// Scans an append-only history file (the format [`append_history`]
/// writes: one `"key": value` pair per line) and returns every entry
/// whose `benchmark` field starts with `benchmark_prefix`, in file
/// (oldest-first) order.
fn scan_history(path: &str, benchmark_prefix: &str) -> Vec<HistoryEntry> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    let (mut pr, mut thr, mut wall) = (None::<u32>, None::<usize>, None::<f64>);
    let mut setup = None::<f64>;
    let mut digest = None::<u64>;
    let mut benchmark: Option<String> = None;
    for line in text.lines() {
        let t = line.trim();
        if let Some(v) = json_field(t, "pr") {
            pr = v.parse().ok();
        } else if let Some(v) = json_field(t, "threads") {
            thr = v.parse().ok();
        } else if let Some(v) = json_field(t, "current_wall_s") {
            wall = v.parse().ok();
        } else if let Some(v) = json_field(t, "setup_wall_s") {
            setup = v.parse().ok();
        } else if let Some(v) = json_field(t, "digest") {
            digest = u64::from_str_radix(v.trim_matches('"'), 16).ok();
        } else if let Some(v) = json_field(t, "benchmark") {
            benchmark = Some(v.trim_matches('"').to_string());
        } else if t.starts_with('}') {
            if let (Some(pr), Some(threads), Some(wall_s), Some(bench)) =
                (pr, thr, wall, benchmark.as_deref())
            {
                if bench.starts_with(benchmark_prefix) {
                    rows.push(HistoryEntry {
                        pr,
                        threads,
                        wall_s,
                        setup_wall: setup,
                        digest,
                    });
                }
            }
            (pr, thr, wall, setup, digest, benchmark) = (None, None, None, None, None, None);
        }
    }
    rows
}

/// Returns the **newest** history entry whose `benchmark` field starts
/// with `benchmark_prefix` and — when `threads` is given — whose
/// recorded worker count matches, so a fresh run is only compared
/// against rows timed the same way.
///
/// Returns `None` when the file is missing or no row matches.
#[must_use]
pub fn latest_history_entry(
    path: &str,
    benchmark_prefix: &str,
    threads: Option<usize>,
) -> Option<HistoryEntry> {
    scan_history(path, benchmark_prefix)
        .into_iter()
        .rfind(|row| threads.is_none_or(|n| n == row.threads))
}

/// Returns the newest matching history entry **per recorded worker
/// count**, sorted by ascending thread count — the comparison set for
/// the parallel-runner regression warning (`repro <sweep> --check`
/// warns when a threads>1 row is slower than its threads=1
/// counterpart).
#[must_use]
pub fn latest_entries_by_threads(path: &str, benchmark_prefix: &str) -> Vec<HistoryEntry> {
    let mut newest: Vec<HistoryEntry> = Vec::new();
    for row in scan_history(path, benchmark_prefix) {
        if let Some(slot) = newest.iter_mut().find(|e| e.threads == row.threads) {
            *slot = row;
        } else {
            newest.push(row);
        }
    }
    newest.sort_by_key(|e| e.threads);
    newest
}

/// Averages the metrics of several runs of the same cell: every counter
/// — scalars, per-CPU vectors, the machine-wide event bank, the per-bin
/// banks and the clear-reason breakdown — becomes the rounded mean of
/// the inputs, so derived rates match the mean of the individual runs.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn average_metrics(runs: &[RunMetrics]) -> RunMetrics {
    assert!(!runs.is_empty(), "need at least one run");
    let n = runs.len() as u64;
    // Rounded (not floored) integer mean, so e.g. three runs of 1, 1, 2
    // average to 1 but 1, 2, 2 average to 2.
    let mean = |sum: u64| (sum + n / 2) / n;
    let field = |get: &dyn Fn(&RunMetrics) -> u64| mean(runs.iter().map(get).sum::<u64>());
    let counters = |get: &dyn Fn(&RunMetrics) -> &sim_cpu::PerfCounters| {
        let mut avg = sim_cpu::PerfCounters::default();
        for event in sim_cpu::HwEvent::ALL {
            avg.bump(
                event,
                mean(runs.iter().map(|r| get(r).get(event)).sum::<u64>()),
            );
        }
        avg
    };

    let mut avg = runs[0].clone();
    avg.wall_cycles = field(&|r| r.wall_cycles);
    avg.bytes_moved = field(&|r| r.bytes_moved);
    avg.messages = field(&|r| r.messages);
    for c in 0..avg.busy_cycles.len() {
        avg.busy_cycles[c] = field(&|r| r.busy_cycles[c]);
    }
    avg.total = counters(&|r| &r.total);
    for b in 0..avg.bins.len() {
        avg.bins[b].counters = counters(&|r| &r.bins[b].counters);
    }
    for i in 0..avg.clears_by_reason.len() {
        avg.clears_by_reason[i] = field(&|r| r.clears_by_reason[i]);
    }
    avg.resched_ipis = field(&|r| r.resched_ipis);
    avg.wake_migrations = field(&|r| r.wake_migrations);
    avg.balance_migrations = field(&|r| r.balance_migrations);
    avg.lock_acquisitions = field(&|r| r.lock_acquisitions);
    avg.lock_contended = field(&|r| r.lock_contended);
    avg.interrupts = field(&|r| r.interrupts);
    avg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_tx_1k() -> RunMetrics {
        let config = cell(Direction::Tx, 1024, AffinityMode::Full, 1);
        affinity_sim::run_experiment(&config)
            .expect("valid config")
            .metrics
    }

    #[test]
    fn cell_scales_counts_with_size() {
        let small = cell(Direction::Tx, 128, AffinityMode::None, 1);
        let large = cell(Direction::Tx, 65536, AffinityMode::None, 1);
        assert!(small.workload.measure_messages > large.workload.measure_messages);
        assert_eq!(large.workload.measure_messages, 16);
    }

    #[test]
    fn average_metrics_means_rates() {
        let mut a = full_tx_1k();
        let mut b = a.clone();
        a.wall_cycles = 100;
        a.bytes_moved = 100;
        b.wall_cycles = 300;
        b.bytes_moved = 100;
        let avg = average_metrics(&[a, b]);
        assert_eq!(avg.wall_cycles, 200);
        assert_eq!(avg.bytes_moved, 100);
    }

    #[test]
    fn average_metrics_rounds_every_counter() {
        let a = full_tx_1k();
        let mut b = a.clone();
        // Perturb a scalar, the event bank, a bin and a breakdown entry
        // by odd deltas so a floored mean would lose the .5.
        b.messages = a.messages + 1;
        b.total.llc_misses = a.total.llc_misses + 3;
        b.bins[0].counters.cycles = a.bins[0].counters.cycles + 5;
        b.clears_by_reason[0] = a.clears_by_reason[0] + 1;
        b.lock_contended = a.lock_contended + 7;
        let avg = average_metrics(&[a.clone(), b]);
        // (2x + d + 1) / 2 rounded = x + (d + 1) / 2 for odd d.
        assert_eq!(avg.messages, a.messages + 1);
        assert_eq!(avg.total.llc_misses, a.total.llc_misses + 2);
        assert_eq!(avg.bins[0].counters.cycles, a.bins[0].counters.cycles + 3);
        assert_eq!(avg.clears_by_reason[0], a.clears_by_reason[0] + 1);
        assert_eq!(avg.lock_contended, a.lock_contended + 4);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn average_empty_panics() {
        let _ = average_metrics(&[]);
    }

    #[test]
    fn fnv_fold_is_order_sensitive() {
        assert_eq!(fnv_fold([]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv_fold([1, 2]), fnv_fold([2, 1]));
        assert_eq!(fnv_fold([1, 2, 3]), fnv_fold([1, 2, 3]));
    }

    #[test]
    fn append_history_grows_an_array_and_wraps_legacy_snapshots() {
        let path = std::env::temp_dir().join(format!("bench_history_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(path);

        // Empty file -> fresh one-entry array.
        append_history(path, "{\"pr\": 1}");
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            "[\n{\"pr\": 1}\n]\n"
        );

        // Existing array -> appended, newest last.
        append_history(path, "{\"pr\": 2}");
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            "[\n{\"pr\": 1},\n{\"pr\": 2}\n]\n"
        );

        // Legacy single-object snapshot -> wrapped as the first entry.
        std::fs::write(path, "{\n  \"old\": true\n}\n").unwrap();
        append_history(path, "{\"pr\": 3}");
        assert_eq!(
            std::fs::read_to_string(path).unwrap(),
            "[\n{\n  \"old\": true\n},\n{\"pr\": 3}\n]\n"
        );

        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn latest_history_entry_picks_newest_matching_row() {
        let path = std::env::temp_dir().join(format!("bench_latest_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(path);
        assert_eq!(latest_history_entry(path, "full figure matrix", None), None);

        for (pr, threads, wall, bench) in [
            (1, 1, 6.48, "full figure matrix (2 dirs x 7 sizes)"),
            (3, 1, 5.67, "scale sweep (4 CPU counts)"),
            (4, 1, 7.27, "full figure matrix (2 dirs x 7 sizes)"),
            (4, 8, 2.11, "full figure matrix (2 dirs x 7 sizes)"),
        ] {
            append_history(
                path,
                &format!(
                    "  {{\n    \"pr\": {pr},\n    \"benchmark\": \"{bench}\",\n    \
                     \"threads\": {threads},\n    \"current_wall_s\": {wall:.2}\n  }}"
                ),
            );
        }

        // Newest matching row wins; the threads constraint narrows it.
        let any = latest_history_entry(path, "full figure matrix", None).unwrap();
        assert_eq!((any.pr, any.threads, any.wall_s), (4, 8, 2.11));
        let single = latest_history_entry(path, "full figure matrix", Some(1)).unwrap();
        assert_eq!((single.pr, single.wall_s), (4, 7.27));
        let scale = latest_history_entry(path, "scale sweep", None).unwrap();
        assert_eq!((scale.pr, scale.wall_s), (3, 5.67));
        assert_eq!(latest_history_entry(path, "steering sweep", None), None);
        assert_eq!(
            latest_history_entry(path, "full figure matrix", Some(3)),
            None
        );

        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn history_rows_carry_their_recorded_digest() {
        let path = std::env::temp_dir().join(format!("bench_digest_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(path);

        // A legacy row without digest/setup fields parses to `None`s; a
        // modern row round-trips the hex digest string back to the u64
        // and carries its setup share.
        append_history(
            path,
            "  {\n    \"pr\": 5,\n    \"benchmark\": \"poll sweep\",\n    \
             \"threads\": 1,\n    \"current_wall_s\": 1.00\n  }",
        );
        let legacy = latest_history_entry(path, "poll sweep", None).unwrap();
        assert_eq!(legacy.setup_wall, None);
        assert_eq!(legacy.digest, None);
        append_history(
            path,
            "  {\n    \"pr\": 10,\n    \"benchmark\": \"poll sweep\",\n    \
             \"threads\": 1,\n    \"current_wall_s\": 1.10,\n    \
             \"setup_wall_s\": 0.25,\n    \
             \"digest\": \"5b4b100cbd3a3908\"\n  }",
        );

        let newest = latest_history_entry(path, "poll sweep", None).unwrap();
        assert_eq!(newest.digest, Some(0x5b4b_100c_bd3a_3908));
        assert_eq!(newest.setup_wall, Some(0.25));
        let rows = latest_entries_by_threads(path, "poll sweep");
        assert_eq!(rows.len(), 1, "both rows are threads=1; newest wins");
        assert_eq!(rows[0].pr, 10);

        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn latest_entries_by_threads_keeps_newest_per_count() {
        let path = std::env::temp_dir().join(format!("bench_threads_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(path);
        assert!(latest_entries_by_threads(path, "full figure matrix").is_empty());

        for (pr, threads, wall) in [(4, 8, 2.11), (6, 1, 6.37), (6, 4, 6.77), (8, 1, 6.44)] {
            append_history(
                path,
                &format!(
                    "  {{\n    \"pr\": {pr},\n    \"benchmark\": \"full figure matrix\",\n    \
                     \"threads\": {threads},\n    \"current_wall_s\": {wall:.2}\n  }}"
                ),
            );
        }

        let rows = latest_entries_by_threads(path, "full figure matrix");
        let shape: Vec<(u32, usize, f64)> =
            rows.iter().map(|e| (e.pr, e.threads, e.wall_s)).collect();
        // Newest row per thread count, ascending by count.
        assert_eq!(shape, vec![(8, 1, 6.44), (6, 4, 6.77), (4, 8, 2.11)]);

        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_pool_preserves_job_order() {
        let jobs: Vec<u64> = (0..37).collect();
        let serial = run_pool_exact(jobs.clone(), 1, |j| j * j);
        assert_eq!(serial[5], 25);
        // Uneven durations make workers finish out of step, so claims
        // interleave differently from run to run.
        let uneven = |j: u64| {
            thread::sleep(std::time::Duration::from_millis(j * 7 % 5));
            j * j
        };
        for workers in 2..=4 {
            let parallel = run_pool_exact(jobs.clone(), workers, uneven);
            assert_eq!(serial, parallel, "{workers} workers");
        }
    }

    #[test]
    fn run_pool_starts_the_last_job_first() {
        // Every job but the last waits for the last one to have started.
        // A pool that starts from the back never waits; under a
        // front-first pool the first jobs time out instead of hanging.
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        for n in [3, 4, 9] {
            let last_started = AtomicBool::new(false);
            let timed_out = run_pool_exact((0..n).collect(), 2, |j: usize| {
                if j == n - 1 {
                    last_started.store(true, Ordering::Release);
                    return false;
                }
                let deadline = Instant::now() + Duration::from_secs(5);
                while !last_started.load(Ordering::Acquire) {
                    if Instant::now() > deadline {
                        return true;
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                false
            });
            let late: Vec<usize> = (0..n).filter(|&j| timed_out[j]).collect();
            assert!(
                late.is_empty(),
                "n = {n}: jobs {late:?} timed out waiting for job {} to start",
                n - 1
            );
        }
    }

    #[test]
    fn pool_workers_never_exceed_the_hardware_threads() {
        assert_eq!(pool_workers(Some("8"), 2), 2);
        assert_eq!(pool_workers(Some("1"), 2), 1);
        assert_eq!(pool_workers(Some("2"), 4), 2);
        for bad in [None, Some("0"), Some("-3"), Some("x"), Some("")] {
            assert_eq!(pool_workers(bad, 4), 4, "{bad:?}");
        }
    }

    #[test]
    fn run_pool_clamps_to_hardware() {
        // The clamped entry point must still produce identical results
        // at an absurd requested width (it may collapse to one worker
        // on a small machine — that's the point).
        let jobs: Vec<u64> = (0..25).collect();
        assert_eq!(
            run_pool(jobs, 1024, |j| j + 1),
            (1..=25).collect::<Vec<_>>()
        );
    }
}
