//! Host-time benchmark of the affinity simulator.
//!
//! ```text
//! benchmark                                  # every workload, seed 0, one round each
//! benchmark --workload churn --seed 3 --seconds 10 --trace 0
//! benchmark --workload matrix --trace 1      # per-layer run: spans, counts, probes
//! benchmark ... --record runs.jsonl          # also append each result with host facts
//! benchmark compare A.jsonl B.jsonl          # verdict per workload and metric
//! ```
//!
//! Each workload runs in a child process of its own, so a simulator
//! panic (the release profile aborts) costs only that workload's
//! unreported cells, which the parent counts as failed, and peak memory
//! is the workload's own. The last line on stdout is the result as one
//! JSON object; everything human-readable goes to stderr.

mod host;
mod json;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use affinity_sim::Machine;

use json::Json;
use run::{failed_cells, layer_metrics, run_round, span_totals, Expect, Layer, Round};
use stats::{median, quartiles};
use workloads::{jobs, Digest, Job, WORKLOADS};

/// Pool size every round runs at (clamped to the host's hardware
/// threads); recorded with every result.
const WORKERS: usize = 2;

/// Times the set-up phase is repeated; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// The end-to-end metrics, in print order.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Where `--trace 1` writes `<workload>.trace.json`.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--record FILE]\n       benchmark compare A.jsonl B.jsonl";

#[derive(Debug)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 0,
        seconds: 0.0,
        trace: false,
        record: None,
        child: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; valid: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                opts.workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}; use 0 or 1")),
                };
            }
            "--record" => opts.record = Some(value()?),
            "--child" => opts.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.child && opts.workload.is_none() {
        return Err("--child needs --workload".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare(a, b),
            _ => usage_error("compare takes two record files"),
        };
    }
    match parse_args(&args) {
        Err(e) => usage_error(&e),
        Ok(opts) if opts.child => {
            child(&opts);
            ExitCode::SUCCESS
        }
        Ok(opts) => parent(&opts),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, Json)>,
) -> Json {
    Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

// ---------------------------------------------------------------- parent

/// Runs each selected workload in a child process, prints its result,
/// and appends it to the record file. Exits 1 if any workload failed.
fn parent(opts: &Opts) -> ExitCode {
    let selected: Vec<&str> = match &opts.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for workload in selected {
        let (result, host) = match run_child(opts, workload) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("benchmark: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        all_correct &= correct;
        if let Some(path) = &opts.record {
            let record = Json::obj([
                ("workload", Json::from(workload)),
                ("seed", Json::from(opts.seed)),
                ("seconds", Json::from(opts.seconds)),
                ("trace", Json::from(u64::from(opts.trace))),
                ("host", host),
                ("result", result.clone()),
            ]);
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{record}"));
            if let Err(e) = appended {
                eprintln!("benchmark: cannot append to {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("{result}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the parent learns from a child's stdout protocol: `plan N`
/// before N cells are dispatched, `done` as each finishes, then the
/// `host` facts and the `result`.
#[derive(Debug, Default)]
struct Progress {
    planned: usize,
    done: usize,
    host: Option<Json>,
    result: Option<Json>,
}

impl Progress {
    fn feed(&mut self, line: &str) {
        if let Some(n) = line.strip_prefix("plan ") {
            self.planned += n.parse::<usize>().unwrap_or(0);
        } else if line == "done" {
            self.done += 1;
        } else if let Some(j) = line.strip_prefix("host ") {
            self.host = Json::parse(j).ok();
        } else if let Some(j) = line.strip_prefix("result ") {
            self.result = Json::parse(j).ok();
        }
    }

    /// The child's result, or — when it ended without one — a failed
    /// result that counts every dispatched but unreported cell.
    fn outcome(self, exited_ok: bool) -> (Json, Json) {
        let host = self.host.unwrap_or(Json::Null);
        match self.result {
            Some(result) if exited_ok => (result, host),
            _ => {
                let lost = self.planned.saturating_sub(self.done).max(1);
                let attempted = self.planned.max(lost);
                (result_json(false, attempted, lost, Vec::new()), host)
            }
        }
    }
}

/// Spawns the child for one workload, follows its progress lines and
/// waits for it to end.
fn run_child(opts: &Opts, workload: &str) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--child",
            "--workload",
            workload,
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            if opts.trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut progress = Progress::default();
    // A read error ends the stream like an abort does; the child is
    // still waited for below.
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        progress.feed(&line);
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    if !status.success() || progress.result.is_none() {
        eprintln!(
            "{workload}: child ended ({status}) without a result; {} of {} dispatched cells \
             unreported, counted as failed",
            progress.planned.saturating_sub(progress.done),
            progress.planned
        );
    }
    Ok(progress.outcome(status.success()))
}

// ----------------------------------------------------------------- child

/// Tells the parent how many cells are about to be dispatched.
fn announce(cells: usize) {
    println!("plan {cells}");
}

fn report_done() {
    println!("done");
}

/// Host seconds to construct every machine of `jobs`, one after another
/// (the simulator's set-up for one round).
fn setup_once(jobs: &[Job]) -> f64 {
    jobs.iter()
        .map(|job| {
            let t = Instant::now();
            let machine = Machine::new(&job.config);
            let s = t.elapsed().as_secs_f64();
            drop(machine);
            s
        })
        .sum()
}

/// Runs one workload: warm-up and pinned quick check, set-up timing,
/// then either timed rounds for `--seconds` or one untraced and one
/// traced round. Prints the result line for the parent.
fn child(opts: &Opts) {
    let workload = opts.workload.as_deref().expect("checked by parse_args");
    let epoch = Instant::now();
    let workers = WORKERS.min(bench::hardware_threads());
    let host = host::facts(workers, host::ref_ms());
    println!("host {host}");
    eprintln!(
        "{workload}: seed {}, {workers} workers, host {host}",
        opts.seed
    );

    // Warm-up: the quick variant at seed 0, untimed, checked against its
    // pins — proof the simulator still computes the known outputs.
    let quick = jobs(workload, 0, true).expect("valid workload");
    announce(quick.len());
    let warm = run_round(&quick, workers, false, epoch, &report_done);
    let mut attempted = quick.len();
    let bad = failed_cells(&quick, &warm, Expect::Pins { quick: true });
    report_failures(workload, "warm-up", &quick, &warm, &bad);
    let mut failed = bad.len();

    let jobs = jobs(workload, opts.seed, false).expect("valid workload");
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup_once(&jobs)).collect();
    let setup_s = median(&setups);
    let pins = opts.seed == 0;

    let metrics: Vec<(String, Json)> = if opts.trace {
        announce(jobs.len());
        let plain = run_round(&jobs, workers, false, epoch, &report_done);
        announce(jobs.len());
        let traced = run_round(&jobs, workers, true, epoch, &report_done);
        attempted += 2 * jobs.len();
        let plain_failed = failed_cells(&jobs, &plain, expect(pins, None));
        report_failures(workload, "untraced", &jobs, &plain, &plain_failed);
        // Tracing must not change a single output.
        let reference = plain.digests(&jobs);
        let traced_failed = failed_cells(&jobs, &traced, expect(pins, Some(&reference)));
        report_failures(workload, "traced", &jobs, &traced, &traced_failed);
        failed += plain_failed.len() + traced_failed.len();
        write_trace(workload, &traced);
        let mut layers = layer_metrics(&traced);
        layers.extend(probes::run_all());
        layers.push((
            "trace.overhead_frac",
            traced.wall_s() / plain.wall_s() - 1.0,
            "ratio",
        ));
        print_layers(workload, &traced, &layers);
        layers
            .into_iter()
            .map(|(name, value, unit)| (name.to_string(), metric(value, unit)))
            .collect()
    } else {
        let deadline = Duration::from_secs_f64(opts.seconds);
        let start = Instant::now();
        let mut rounds: Vec<Round> = Vec::new();
        // Peak memory of set-up plus one round: later rounds only add
        // allocator retention, which would tie the metric to the round
        // count.
        let mut peak_rss_mib = 0.0;
        loop {
            announce(jobs.len());
            let round = run_round(&jobs, workers, false, epoch, &report_done);
            attempted += jobs.len();
            let reference = rounds.first().map(|r| r.digests(&jobs));
            let bad = failed_cells(&jobs, &round, expect(pins, reference.as_deref()));
            report_failures(
                workload,
                &format!("round {}", rounds.len() + 1),
                &jobs,
                &round,
                &bad,
            );
            failed += bad.len();
            rounds.push(round);
            if rounds.len() == 1 {
                peak_rss_mib = host::peak_rss_mib();
            }
            if start.elapsed() >= deadline {
                break;
            }
        }
        let walls: Vec<f64> = rounds.iter().map(Round::wall_s).collect();
        let cpus: Vec<f64> = rounds.iter().map(|r| r.cpu_s).collect();
        let values = [median(&walls), median(&cpus), setup_s, peak_rss_mib];
        eprintln!(
            "{workload}: {} round(s) of {} cells; round walls {walls:.3?} s",
            rounds.len(),
            jobs.len()
        );
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| {
                eprintln!("{workload}: {name} = {value:.4} {unit}");
                (name.to_string(), metric(value, unit))
            })
            .collect()
    };
    eprintln!(
        "{workload}: setup_s samples {setups:.4?}; {attempted} cells attempted, {failed} failed"
    );
    let result = result_json(failed == 0, attempted, failed, metrics);
    println!("result {result}");
}

/// At seed 0 every round must match the pins; at any other seed, the
/// digests of an earlier round of the same inputs, once there is one.
fn expect(pins: bool, reference: Option<&[Digest]>) -> Expect<'_> {
    match reference {
        _ if pins => Expect::Pins { quick: false },
        Some(digests) => Expect::Same(digests),
        None => Expect::Nothing,
    }
}

/// Names each failed cell of a round on stderr, with its digests.
fn report_failures(workload: &str, phase: &str, jobs: &[Job], round: &Round, failed: &[usize]) {
    if failed.is_empty() {
        return;
    }
    eprintln!("{workload} {phase}: {} cell(s) FAILED", failed.len());
    for &i in failed {
        if let Some(why) = &round.cells[i].failure {
            eprintln!("  cell {i} ({}): {why}", jobs[i].group);
        }
    }
    for d in round.digests(jobs) {
        eprintln!(
            "  digest {} = {:016x} over {} cells",
            d.name,
            d.value,
            d.cells.len()
        );
    }
}

/// Writes the traced round's spans as `<TRACE_DIR>/<workload>.trace.json`.
fn write_trace(workload: &str, round: &Round) {
    let cells: Vec<(usize, usize, &[trace::Span])> = round
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c.worker, c.spans.as_slice()))
        .collect();
    let path = format!("{TRACE_DIR}/{workload}.trace.json");
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace(&cells).to_string()));
    match written {
        Ok(()) => eprintln!("{workload}: spans written to {path}"),
        Err(e) => eprintln!("{workload}: cannot write {path}: {e}"),
    }
}

/// Prints the self-time table of the traced round and every per-layer
/// metric.
fn print_layers(workload: &str, round: &Round, layers: &[Layer]) {
    let cell_s: f64 = round.cells.iter().map(|c| c.end - c.start).sum();
    eprintln!(
        "{workload}: per-layer self time over {} cells ({cell_s:.3} s summed cell time)",
        round.cells.len()
    );
    eprintln!(
        "  {:<18} {:>7} {:>11} {:>7}",
        "span", "count", "self s", "share"
    );
    for (name, count, total) in span_totals(round) {
        eprintln!(
            "  {name:<18} {count:>7} {total:>11.4} {:>6.2}%",
            100.0 * total / cell_s
        );
    }
    let get = |n: &str| layers.iter().find(|l| l.0 == n).map_or(0.0, |l| l.1);
    let covered =
        get("affinity-sim.new_s") + get("affinity-sim.run_s") + get("affinity-sim.harvest_s");
    eprintln!(
        "  new + run + harvest = {:.2}% of summed cell time; cell.run_s percentiles over n = {}",
        100.0 * covered / cell_s,
        round.cells.len()
    );
    eprintln!(
        "  syn_drops_per_accept = {} drops (run lifetime) / {} accepts (window)",
        get("sim-tcp.syn_drops"),
        get("sim-tcp.accepts")
    );
    for (name, value, unit) in layers {
        eprintln!("  {name} = {value} {unit}");
    }
}

// --------------------------------------------------------------- compare

fn read_json_lines(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(n, l)| Json::parse(l).map_err(|e| format!("{path}:{}: {e}", n + 1)))
        .collect()
}

/// The number at `path` in each timed (untraced) record of `workload`.
fn values_of(records: &[Json], workload: &str, path: &[&str]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|r| path.iter().try_fold(r, |j, key| j.get(key))?.as_f64())
        .collect()
}

/// `benchmark compare A B`: for every workload and end-to-end metric in
/// `BENCHMARK.json`, each side's median, quartiles and run count, the
/// fraction of index-paired runs B wins, and a verdict; plus each side's
/// median reference-kernel time, so a slow host phase on one side shows.
fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let loaded = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("{spec_path}: {e}"))
        .and_then(|t| Json::parse(&t))
        .and_then(|spec| Ok((spec, read_json_lines(a_path)?, read_json_lines(b_path)?)));
    let (spec, a, b) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<(&str, &str, bool, f64)> = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?,
                m.get("unit")?.as_str()?,
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    println!(
        "{:<11} {:<19} {:>5} | {:>30} | {:>30} | {:>5} | verdict",
        "workload", "metric", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B win"
    );
    let side = |v: &[f64]| {
        let [q1, med, q3] = quartiles(v);
        format!("{med:.4} [{q1:.4}, {q3:.4}] ({})", v.len())
    };
    for workload in WORKLOADS {
        let (ra, rb) = (
            values_of(&a, workload, &["host", "ref_ms"]),
            values_of(&b, workload, &["host", "ref_ms"]),
        );
        if !ra.is_empty() && !rb.is_empty() {
            println!(
                "{workload:<11} host.ref_ms: A {:.2} ms, B {:.2} ms (medians)",
                median(&ra),
                median(&rb)
            );
        }
        for &(name, unit, lower, bound) in &metrics {
            let path = ["result", "metrics", name, "value"];
            let (va, vb) = (
                values_of(&a, workload, &path),
                values_of(&b, workload, &path),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = stats::verdict(&va, &vb, bound, lower);
            println!(
                "{workload:<11} {:<19} {bound:>5} | {:>30} | {:>30} | {:>5.2} | {}",
                format!("{name} ({unit})"),
                side(&va),
                side(&vb),
                stats::pair_wins(&va, &vb, lower),
                verdict.label()
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_timed_run_command_line() {
        let o = parse_args(&args("--workload churn --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(o.workload.as_deref(), Some("churn"));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.child),
            (3, 10.0, true, false)
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.workload, d.seed, d.seconds, d.trace),
            (None, 0, 0.0, false)
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed -1",
            "--seconds x",
            "--seed",
            "--bogus",
            "--child",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} accepted");
        }
    }

    /// An aborted child's dispatched but unreported cells count as failed;
    /// a finished child's own result passes through.
    #[test]
    fn aborted_child_counts_unreported_cells_as_failed() {
        let mut p = Progress::default();
        for line in [
            "host {\"ref_ms\": 50}",
            "plan 16",
            "done",
            "done",
            "plan 224",
            "done",
        ] {
            p.feed(line);
        }
        let (result, host) = p.outcome(false);
        assert_eq!(result.get("correct"), Some(&Json::from(false)));
        assert_eq!(result.get("attempted"), Some(&Json::from(240u64)));
        assert_eq!(result.get("failed"), Some(&Json::from(237u64)));
        assert_eq!(host.get("ref_ms"), Some(&Json::from(50.0)));

        let mut p = Progress::default();
        let ok = result_json(true, 1, 0, Vec::new());
        for line in [
            "plan 1".to_string(),
            "done".to_string(),
            format!("result {ok}"),
        ] {
            p.feed(&line);
        }
        assert_eq!(p.outcome(true).0, ok);
        // A result printed by a child that then exits non-zero is not
        // trusted.
        let mut p = Progress::default();
        p.feed(&format!("result {ok}"));
        assert_eq!(p.outcome(false).0.get("failed"), Some(&Json::from(1u64)));
    }

    /// A result line survives the trip through a record file and back
    /// into the values `compare` reads.
    #[test]
    fn result_round_trips_through_a_record() {
        let result = result_json(
            true,
            224,
            0,
            END_TO_END
                .iter()
                .enumerate()
                .map(|(i, &(n, u))| (n.to_string(), metric(1.25 + i as f64 / 3.0, u)))
                .collect(),
        );
        let record = Json::obj([
            ("workload", Json::from("matrix")),
            ("trace", Json::from(0u64)),
            ("result", result.clone()),
        ]);
        let line = record.to_string();
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("result"), Some(&result));
        let Json::Obj(pairs) = &result else {
            panic!("result is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let path = ["result", "metrics", "cpu_s", "value"];
        let records = [back];
        assert_eq!(values_of(&records, "matrix", &path), [1.25 + 1.0 / 3.0]);
        assert!(values_of(&records, "churn", &path).is_empty());
    }
}
