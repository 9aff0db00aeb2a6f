//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro                # everything
//! repro fig3           # one artifact: fig3 fig4 fig5 table1..table5 fourp
//! repro --sizes 128,65536 fig3   # restrict the size sweep
//! repro --filter full/4096/tx    # run exactly one matrix cell
//! repro perf           # time the benchmark matrix, append to BENCH_substrate.json
//! repro perf --check   # compare against the latest BENCH row; exit 1 on >10% regression
//! repro scale          # CPUs x flows x modes scaling sweep (incl. RSS)
//! repro steer          # steering-policy sweep: RSS vs Flow Director
//! repro poll           # interrupt-vs-poll sweep: IRQ stack vs PMD cores
//! repro churn          # connection-churn sweep: SYN-to-FIN lifecycle
//! repro --list         # sweeps, their filter tokens, latest digests
//! repro --quick perf   # smoke variants at tiny message counts (CI)
//! ```
//!
//! The sweep subcommands are rows of one table (`bench::sweeps`) run by
//! one driver; `repro --list` shows each sweep's filter axes and tokens.
//! Quick, filtered and `--check` runs never record a history row. The
//! cells run on a deterministic job pool; `REPRO_THREADS` overrides the
//! worker count (results are identical at any setting).

#![forbid(unsafe_code)]

use affinity_sim::{
    report, AffinityMode, Direction, ExperimentConfig, RunMetrics, RunResult, PAPER_SIZES,
};
use bench::sweeps::{self, Sweep, HISTORY_PATH};
use bench::{
    append_history, cell, figure_row, latest_entries_by_threads, latest_history_entry,
    pool_threads, run_cell, EXTREME_POINTS,
};
use sim_cpu::EventCosts;

/// Wall-time slack `--check` allows over the recorded row before it
/// declares a regression.
const CHECK_SLACK: f64 = 1.10;

/// Absolute grace added on top of [`CHECK_SLACK`]: container scheduling
/// noise is a constant (~0.1-0.2 s), not a percentage, so a sub-second
/// sweep (`steer`, `poll`) would flake on every gusty run if 10% of its
/// wall were the whole budget. Negligible against the multi-second
/// sweeps the gate actually protects.
const CHECK_NOISE_FLOOR_S: f64 = 0.25;

/// The paper artifacts, in the order a bare `repro` renders them.
const PAPER_ARTIFACTS: [&str; 9] = [
    "fig3", "fig4", "table1", "table2", "fig5", "table3", "table4", "table5", "fourp",
];

struct Args {
    artifacts: Vec<String>,
    sizes: Vec<u64>,
    /// `--filter <spec>`: narrow a sweep to matching cells. The spec
    /// grammar is per-subcommand, so the raw string is kept and parsed
    /// where it's interpreted.
    filter: Option<String>,
    /// `--quick`: tiny message counts, no history entry (CI smoke).
    quick: bool,
    /// `--check` (with a sweep): gate on the recorded wall time instead
    /// of appending a new history row.
    check: bool,
    /// `--list`: print the sweeps, their filter grammars and the newest
    /// recorded history rows, then exit.
    list: bool,
}

/// Rejects a bad command-line token: prints the offending value and the
/// full list of accepted ones, then exits with status 2 (usage error)
/// instead of a panic backtrace.
fn usage_error(what: &str, got: &str, valid: &str) -> ! {
    eprintln!("repro: unknown {what} {got:?}");
    eprintln!("  valid {what}s: {valid}");
    eprintln!(
        "  usage: repro [--list] [--quick] [--check] [--sizes N,N,..] [--filter spec] [artifact..]"
    );
    std::process::exit(2);
}

/// The `--check` gate: exits 1 if `wall` is over the newest history row of
/// `sweep` at the same worker count by more than [`CHECK_SLACK`] plus
/// [`CHECK_NOISE_FLOOR_S`]. Quick counts are comparable to no row, so a
/// quick check only requires a row at any worker count. A full check also
/// warns if the newest threads>1 row is that much slower than the newest
/// threads=1 row: the parallel runner is then a net loss.
fn check_gate(sweep: &Sweep, wall: f64, quick: bool, threads: usize) {
    let (name, prefix) = (sweep.name, sweep.prefix());
    let limit = |wall_s: f64| wall_s * CHECK_SLACK + CHECK_NOISE_FLOOR_S;
    let Some(row) = latest_history_entry(HISTORY_PATH, prefix, (!quick).then_some(threads)) else {
        eprintln!(
            "{name} check FAILED: no \"{prefix}\" row in {HISTORY_PATH} to compare against \
             (threads={threads}, quick={quick})"
        );
        std::process::exit(1);
    };
    if quick {
        let pr = row.pr;
        eprintln!("{name} check: smoke mode, found PR {pr}'s row; timing gate skipped");
        return;
    }
    let rows = latest_entries_by_threads(HISTORY_PATH, prefix);
    if let Some(serial) = rows.iter().find(|r| r.threads == 1) {
        let cutoff = limit(serial.wall_s);
        for r in rows.iter().filter(|r| r.threads > 1 && r.wall_s > cutoff) {
            eprintln!(
                "{name} check WARNING: threads={} row ({:.2} s, PR {}) is slower than \
                 threads=1 ({:.2} s, PR {}) — the parallel runner is losing",
                r.threads, r.wall_s, r.pr, serial.wall_s, serial.pr
            );
        }
    }
    let bound = limit(row.wall_s);
    let verdict = if wall > bound { "FAILED" } else { "OK" };
    eprintln!(
        "{name} check {verdict}: {wall:.2} s vs recorded {:.2} s (PR {}, threads {}, \
         limit {bound:.2} s)",
        row.wall_s, row.pr, row.threads
    );
    if wall > bound {
        std::process::exit(1);
    }
}

fn parse_mode(token: &str) -> AffinityMode {
    match token.to_ascii_lowercase().as_str() {
        "no" | "none" => AffinityMode::None,
        "irq" => AffinityMode::Irq,
        "proc" | "process" => AffinityMode::Process,
        "full" => AffinityMode::Full,
        "rss" => AffinityMode::Rss,
        other => usage_error("filter mode", other, "no, irq, proc, full, rss"),
    }
}

fn parse_filter(spec: &str) -> (AffinityMode, u64, Direction) {
    let parts: Vec<&str> = spec.split('/').collect();
    if parts.len() != 3 {
        usage_error(
            "filter",
            spec,
            "<mode>/<size>/<dir>, e.g. full/4096/tx (mode: no|irq|proc|full|rss; dir: tx|rx)",
        );
    }
    let mode = parse_mode(parts[0]);
    let size: u64 = parts[1].parse().unwrap_or_else(|_| {
        usage_error(
            "filter size",
            parts[1],
            "a message size in bytes, e.g. 128, 4096, 65536",
        )
    });
    let direction = match parts[2].to_ascii_lowercase().as_str() {
        "tx" => Direction::Tx,
        "rx" => Direction::Rx,
        other => usage_error("filter direction", other, "tx, rx"),
    };
    (mode, size, direction)
}

fn parse_args() -> Args {
    let mut parsed = Args {
        artifacts: Vec::new(),
        sizes: PAPER_SIZES.to_vec(),
        filter: None,
        quick: false,
        check: false,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--sizes" {
            let list = args.next().unwrap_or_default();
            parsed.sizes = list
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect();
        } else if arg == "--filter" {
            parsed.filter = Some(args.next().unwrap_or_default());
        } else if arg == "--quick" {
            parsed.quick = true;
        } else if arg == "--check" {
            parsed.check = true;
        } else if arg == "--list" {
            parsed.list = true;
        } else {
            parsed.artifacts.push(arg);
        }
    }
    let sweeps = sweeps::sweeps(false);
    let known: Vec<&str> = PAPER_ARTIFACTS
        .into_iter()
        .chain(sweeps.iter().map(|s| s.name))
        .collect();
    for artifact in &parsed.artifacts {
        if !known.contains(&artifact.as_str()) {
            usage_error("artifact", artifact, &known.join(", "));
        }
    }
    if parsed.artifacts.is_empty() {
        parsed.artifacts = PAPER_ARTIFACTS.into_iter().map(String::from).collect();
    }
    parsed
}

/// Runs the single matrix cell named by `--filter` and prints its
/// headline metrics — the quickest way to reproduce one data point.
fn run_filtered(mode: AffinityMode, size: u64, direction: Direction, quick: bool) {
    let mut config = cell(direction, size, mode, 0x5EED);
    if quick {
        config.workload = config.workload.quick();
    }
    eprintln!(
        "single cell: {} {} {}B ({} warmup + {} measured msgs/conn, seed 0x5EED)",
        mode.label(),
        direction.label(),
        size,
        config.workload.warmup_messages,
        config.workload.measure_messages,
    );
    let r = affinity_sim::run_experiment(&config).expect("valid experiment config");
    let m = &r.metrics;
    println!("mode        : {}", mode.label());
    println!("direction   : {}", direction.label());
    println!("message size: {size} B");
    println!("messages    : {}", m.messages);
    println!("wall cycles : {}", m.wall_cycles);
    println!("throughput  : {:.0} Mb/s", m.throughput_mbps());
    println!("cost        : {:.2} GHz/Gbps", m.cost_ghz_per_gbps());
    println!(
        "cpu util    : {}",
        (0..config.cpus)
            .map(|c| format!("{:.2}", m.cpu_utilization(c)))
            .collect::<Vec<_>>()
            .join(" ")
    );
}

fn sweep(direction: Direction, sizes: &[u64]) -> Vec<(u64, Vec<(AffinityMode, RunMetrics)>)> {
    sizes
        .iter()
        .map(|&size| {
            eprintln!("  sweep {direction} {size}B ...");
            (size, figure_row(direction, size))
        })
        .collect()
}

/// The four extreme points under no and full affinity (single seed; used
/// by Tables 1/3/4/5 and Figure 5).
fn extreme_runs() -> Vec<(String, RunResult, RunResult)> {
    EXTREME_POINTS
        .iter()
        .map(|&(dir, size)| {
            let label = format!(
                "{} {}",
                dir.label(),
                if size == 65536 { "64KB" } else { "128B" }
            );
            eprintln!("  extreme point {label} ...");
            let no = run_cell(dir, size, AffinityMode::None, 0x5EED);
            let full = run_cell(dir, size, AffinityMode::Full, 0x5EED);
            (label, no, full)
        })
        .collect()
}

/// Runs the sweep subcommand `name` (narrowed by `filter`, else followed
/// by its extra cells). Each run prints its report, then is gated
/// (`--check`), left unrecorded (quick, filtered) or appended to history.
fn run_sweep(name: &str, quick: bool, check: bool, filter: Option<&str>) {
    if check && filter.is_some() {
        eprintln!("repro {name}: --check times the full sweep; drop --filter");
        std::process::exit(2);
    }
    let all = sweeps::sweeps(quick);
    let sweep = all.iter().find(|s| s.name == name).expect("a sweep");
    let extras = sweep.extras.iter().filter(|_| filter.is_none());
    let threads = pool_threads();
    for sweep in std::iter::once(sweep).chain(extras) {
        let cells = sweep.select(filter).unwrap_or_else(|e| {
            eprintln!("repro {name}: {e}");
            std::process::exit(2);
        });
        let counts = if quick { " (quick smoke counts)" } else { "" };
        let (name, n) = (sweep.name, cells.len());
        eprintln!("{name}: {n} cells on {threads} worker(s){counts}...");
        let run = sweeps::run(sweep, &cells, threads);
        println!("{}", sweep.report(&cells, &run, filter.is_none()));
        if check {
            check_gate(sweep, run.wall_s, quick, threads);
        } else if quick || filter.is_some() {
            eprintln!("quick or filtered run: not recorded in {HISTORY_PATH}");
        } else {
            append_history(HISTORY_PATH, &sweep.history_row(&run, threads));
        }
    }
}

/// `repro --list`: one block per sweep — its filter axes with their
/// valid tokens (the listing the exit-2 paths print) and the newest
/// recorded history row, digest included.
fn list_sweeps() {
    println!("recorded sweeps ({HISTORY_PATH}):");
    for sweep in sweeps::sweeps(false) {
        let (axes, tokens) = (sweep.axes.join("/"), sweep.valid_tokens());
        println!("\n  {}\n    --filter {axes}  ({tokens})", sweep.name);
        list_row(sweep.prefix());
        for extra in &sweep.extras {
            let parent = sweep.name;
            println!("\n  {}\n    (no filter; runs after {parent})", extra.name);
            list_row(extra.prefix());
        }
    }
}

/// The newest recorded history row of `prefix`, for `--list`.
fn list_row(prefix: &str) {
    let Some(row) = latest_history_entry(HISTORY_PATH, prefix, None) else {
        println!("    latest: no recorded rows");
        return;
    };
    let digest = row
        .digest
        .map_or("(none recorded)".into(), |d| format!("{d:016x}"));
    // Rows before PR 10 carry no setup_wall_s.
    let setup = row
        .setup_wall
        .map_or(String::new(), |s| format!(" (setup {s:.2} s)"));
    let (pr, wall, threads) = (row.pr, row.wall_s, row.threads);
    println!("    latest: PR {pr}, {wall:.2} s{setup} at {threads} worker(s), digest {digest}");
}

fn main() {
    let args = parse_args();
    let Args {
        artifacts,
        sizes,
        filter,
        quick,
        check,
        list,
    } = args;
    let wants = |name: &str| artifacts.iter().any(|a| a == name);

    if list {
        list_sweeps();
        return;
    }
    let all = sweeps::sweeps(false);
    if let Some(sweep) = all.iter().find(|s| wants(s.name)) {
        run_sweep(sweep.name, quick, check, filter.as_deref());
        return;
    }
    if check {
        eprintln!("repro: --check only applies to the sweep subcommands");
        std::process::exit(2);
    }
    if let Some(spec) = &filter {
        let (mode, size, direction) = parse_filter(spec);
        run_filtered(mode, size, direction, quick);
        return;
    }

    let need_sweep = wants("fig3") || wants("fig4");
    let sweeps = if need_sweep {
        eprintln!(
            "running Figure 3/4 sweeps ({} sizes x 4 modes x 2 dirs)...",
            sizes.len()
        );
        Some((sweep(Direction::Tx, &sizes), sweep(Direction::Rx, &sizes)))
    } else {
        None
    };

    let need_extremes = ["table1", "table2", "fig5", "table3", "table4", "table5"]
        .iter()
        .any(|a| wants(a));
    let extremes = if need_extremes {
        eprintln!("running the four extreme points (no vs full affinity)...");
        Some(extreme_runs())
    } else {
        None
    };

    if let Some((tx, rx)) = &sweeps {
        if wants("fig3") {
            println!("{}", report::render_figure3("TX", tx));
            println!("{}", report::render_figure3("RX", rx));
        }
        if wants("fig4") {
            println!("{}", report::render_figure4("TX", tx));
            println!("{}", report::render_figure4("RX", rx));
        }
    }

    if let Some(extremes) = &extremes {
        if wants("table1") {
            for (label, no, full) in extremes {
                println!(
                    "{}",
                    report::render_table1_panel(label, &no.metrics, &full.metrics)
                );
            }
        }
        if wants("table2") {
            let (label, no, full) = &extremes[0];
            println!("(from {label})");
            println!("{}", report::render_table2(&no.metrics, &full.metrics));
        }
        if wants("fig5") {
            let costs = EventCosts::paper();
            for (label, no, full) in extremes {
                println!(
                    "{}",
                    report::render_figure5_panel(
                        &format!("{label} no affinity"),
                        &no.metrics,
                        &costs
                    )
                );
                println!(
                    "{}",
                    report::render_figure5_panel(
                        &format!("{label} full affinity"),
                        &full.metrics,
                        &costs
                    )
                );
            }
        }
        if wants("table3") {
            for (label, no, full) in extremes {
                println!(
                    "{}",
                    report::render_table3_panel(label, &no.metrics, &full.metrics)
                );
            }
        }
        if wants("table4") {
            for (label, no, full) in extremes {
                if label.contains("128B") {
                    println!(
                        "{}",
                        report::render_table4(&format!("{label} no affinity"), no, 10)
                    );
                    println!(
                        "{}",
                        report::render_table4(&format!("{label} full affinity"), full, 10)
                    );
                }
            }
        }
        if wants("table5") {
            let entries: Vec<(String, RunMetrics, RunMetrics)> = extremes
                .iter()
                .map(|(l, no, full)| (l.clone(), no.metrics.clone(), full.metrics.clone()))
                .collect();
            println!("{}", report::render_table5(&entries));
        }
    }

    if wants("fourp") {
        println!("4P extension (Section 5 note): 4 CPUs, 8 NICs, 64KB TX");
        println!(
            "{:>10} | {:>9} | {:>6} | {:>20}",
            "mode", "BW (Mb/s)", "cost", "per-CPU utilization"
        );
        for mode in AffinityMode::ALL {
            let mut config = ExperimentConfig::four_processor(Direction::Tx, 65536, mode);
            config.workload.measure_messages = 24;
            config.workload.warmup_messages = 8;
            let r = affinity_sim::run_experiment(&config).expect("valid 4P config");
            let utils: Vec<String> = (0..4)
                .map(|c| format!("{:.2}", r.metrics.cpu_utilization(c)))
                .collect();
            println!(
                "{:>10} | {:>9.0} | {:>6.2} | {}",
                mode.label(),
                r.metrics.throughput_mbps(),
                r.metrics.cost_ghz_per_gbps(),
                utils.join(" ")
            );
        }
    }
}
