//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro                # everything
//! repro fig3           # one artifact: fig3 fig4 fig5 table1..table5 fourp
//! repro perf           # time the benchmark matrix, append to BENCH_substrate.json
//! repro perf --filter full/4096/tx   # one matrix cell (both perf seeds)
//! repro perf --check   # compare against the latest BENCH row; exit 1 on >10% regression
//! repro scale          # CPUs x flows x modes scaling sweep (incl. RSS)
//! repro steer          # steering-policy sweep: RSS vs Flow Director
//! repro poll           # interrupt-vs-poll sweep: IRQ stack vs PMD cores
//! repro churn          # connection-churn sweep: SYN-to-FIN lifecycle
//! repro --list         # sweeps, their filter tokens, latest digests
//! repro --quick perf   # smoke variants at tiny message counts (CI)
//! repro --quick        # every paper artifact at tiny message counts
//! ```
//!
//! The paper artifacts read one job list (`bench::paper`) run on one pool.
//! The sweep subcommands are rows of one table (`bench::sweeps`) run by
//! one driver; `repro --list` shows each sweep's filter axes and tokens.
//! Quick, filtered and `--check` runs never record a history row. The
//! cells run on a deterministic job pool; `REPRO_THREADS` overrides the
//! worker count (results are identical at any setting).

#![forbid(unsafe_code)]

use bench::paper::{self, ARTIFACTS};
use bench::sweeps::{self, Sweep, HISTORY_PATH};
use bench::{append_history, latest_entries_by_threads, latest_history_entry, pool_threads};

/// Wall-time slack `--check` allows over the recorded row before it
/// declares a regression.
const CHECK_SLACK: f64 = 1.10;

/// Absolute grace added on top of [`CHECK_SLACK`]: container scheduling
/// noise is a constant (~0.1-0.2 s), not a percentage, so a sub-second
/// sweep (`steer`, `poll`) would flake on every gusty run if 10% of its
/// wall were the whole budget. Negligible against the multi-second
/// sweeps the gate actually protects.
const CHECK_NOISE_FLOOR_S: f64 = 0.25;

struct Args {
    artifacts: Vec<String>,
    /// `--filter <spec>` (with a sweep): narrow it to the matching cells,
    /// one token per axis of that sweep.
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
    eprintln!("  usage: repro [--list] [--quick] [--check] [--filter spec] [artifact..]");
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

fn parse_args() -> Args {
    let mut parsed = Args {
        artifacts: Vec::new(),
        filter: None,
        quick: false,
        check: false,
        list: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--filter" {
            parsed.filter = Some(args.next().unwrap_or_default());
        } else if arg == "--quick" {
            parsed.quick = true;
        } else if arg == "--check" {
            parsed.check = true;
        } else if arg == "--list" {
            parsed.list = true;
        } else if arg.starts_with("--") {
            usage_error("option", &arg, "--list, --quick, --check, --filter");
        } else {
            parsed.artifacts.push(arg);
        }
    }
    let sweeps = sweeps::sweeps(false);
    let known: Vec<&str> = ARTIFACTS
        .into_iter()
        .chain(sweeps.iter().map(|s| s.name))
        .collect();
    for artifact in &parsed.artifacts {
        if !known.contains(&artifact.as_str()) {
            usage_error("artifact", artifact, &known.join(", "));
        }
    }
    if parsed.artifacts.is_empty() {
        parsed.artifacts = ARTIFACTS.into_iter().map(String::from).collect();
    }
    parsed
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
    let Args {
        artifacts,
        filter,
        quick,
        check,
        list,
    } = parse_args();

    if list {
        list_sweeps();
        return;
    }
    let all = sweeps::sweeps(false);
    if let Some(sweep) = all.iter().find(|s| artifacts.iter().any(|a| a == s.name)) {
        run_sweep(sweep.name, quick, check, filter.as_deref());
        return;
    }
    for (flag, set) in [("--check", check), ("--filter", filter.is_some())] {
        if set {
            eprintln!("repro: {flag} only applies to the sweep subcommands");
            std::process::exit(2);
        }
    }

    let artifacts: Vec<&str> = artifacts.iter().map(String::as_str).collect();
    let jobs = paper::jobs(&artifacts);
    let threads = pool_threads();
    let counts = if quick { " (quick smoke counts)" } else { "" };
    eprintln!(
        "paper artifacts: {} cells on {threads} worker(s){counts}...",
        jobs.len()
    );
    let results = paper::run(jobs, quick, threads);
    print!("{}", paper::render(&results, &artifacts));
}
