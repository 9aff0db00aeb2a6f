//! The sweep table behind `repro perf|scale|steer|poll|churn`.
//!
//! Every sweep is a grid of [`ExperimentConfig`] cells, each named by one
//! token per filter axis, folded into one digest. A [`Sweep`] describes
//! one as data and [`run`] runs any of them. The benchmark package keeps
//! its own copy of these recipes; the quick digests pinned in this
//! module's tests are its `QUICK_PINS`.

use crate::{cell, fnv_fold, hardware_threads, run_pool, FIGURE_SEEDS};
use affinity_sim::{
    run_experiment, AffinityMode, CoalesceConfig, DataplaneMode, Direction, DynamicSteer,
    ExperimentConfig, FlowPlacement, RunResult, ServerWorkload, SteerSpec, VectorLayout,
    PAPER_SIZES,
};
use std::fmt::Display;

/// History file the sweeps record into and `--check` reads.
pub const HISTORY_PATH: &str = "BENCH_substrate.json";

/// PR number stamped on history rows appended to [`HISTORY_PATH`].
pub const CURRENT_PR: u32 = 27;

/// Construction bound for cells of a million flows or more, in host
/// nanoseconds per provisioned flow: a quarter of the ~22,700 ns/flow the
/// incremental (pre-slab) path measured, ~5x above the slab rate
/// (~1,100 ns/flow). A build near it has silently fallen back to
/// per-region provisioning.
const MAX_SETUP_NS_PER_FLOW: f64 = 22_700.0 / 4.0;

/// A printed column: header, width and decimals, and the value it reads
/// off a finished cell.
pub struct Column {
    header: &'static str,
    width: usize,
    decimals: usize,
    value: Value,
}

/// How a column reads its value off a finished cell.
type Value = fn(&RunResult) -> f64;

const fn col(header: &'static str, width: usize, decimals: usize, value: Value) -> Column {
    Column {
        header,
        width,
        decimals,
        value,
    }
}

/// One cell of a sweep.
pub struct Cell {
    /// One token per filter axis (none for an extra cell); joined with
    /// `/` they are the `--filter` spec that selects the cell.
    pub(crate) tokens: Vec<String>,
    pub(crate) config: ExperimentConfig,
}

impl Cell {
    fn new(tokens: &[&dyn Display], config: ExperimentConfig) -> Self {
        let tokens = tokens.iter().map(ToString::to_string).collect();
        Cell { tokens, config }
    }

    /// The row label: the cell's filter spec, or `<cpus>x<flows>`.
    fn label(&self) -> String {
        if self.tokens.is_empty() {
            format!("{}x{}", self.config.cpus, self.config.connections)
        } else {
            self.tokens.join("/")
        }
    }
}

/// One sweep: a grid of cells folded into one digest and recorded as
/// one history row.
pub struct Sweep {
    /// The `repro` subcommand, or an extra cell's history-row prefix.
    pub name: &'static str,
    /// The recorded benchmark string, `"<prefix> (<detail>)"`.
    pub(crate) benchmark: &'static str,
    /// Names of the `--filter` axes, one per cell token.
    pub axes: &'static [&'static str],
    pub(crate) cells: Vec<Cell>,
    pub(crate) columns: &'static [Column],
    /// A label and the filter specs of two cells whose first columns the
    /// headline line of an unfiltered run compares; a `*` token stands
    /// for the last cell's (the largest CPU and flow counts).
    pub(crate) headline: Option<(&'static str, [&'static str; 2])>,
    /// Sweeps that run after this one when it runs unfiltered.
    pub extras: Vec<Sweep>,
}

/// What the runner keeps of one finished cell.
pub(crate) struct Outcome {
    /// The words the cell folds into the sweep digest.
    words: Vec<u64>,
    /// The cell's value in each of the sweep's columns.
    values: Vec<f64>,
    /// Host seconds spent constructing the machine (never digested).
    setup_wall_s: f64,
    /// Host seconds the whole cell took, construction included.
    wall_s: f64,
}

/// A finished sweep run.
pub struct Run {
    pub(crate) outcomes: Vec<Outcome>,
    pub(crate) digest: u64,
    pub wall_s: f64,
    pub(crate) setup_wall_s: f64,
    /// Worker seconds the pool spent without a cell to run: workers x
    /// wall minus the summed cell walls.
    pub(crate) pool_idle_s: f64,
}

impl Sweep {
    /// The history-row prefix `--check` and `--list` look up.
    #[must_use]
    pub fn prefix(&self) -> &'static str {
        self.benchmark.split(" (").next().unwrap_or(self.benchmark)
    }

    /// Every axis with its tokens in grid order, e.g.
    /// `mode no, proc; dir tx, rx`.
    #[must_use]
    pub fn valid_tokens(&self) -> String {
        let mut tokens: Vec<Vec<&str>> = vec![Vec::new(); self.axes.len()];
        for (i, token) in self.cells.iter().flat_map(|c| c.tokens.iter().enumerate()) {
            if !tokens[i].contains(&token.as_str()) {
                tokens[i].push(token);
            }
        }
        let axes = self.axes.iter().zip(tokens);
        let axes: Vec<String> = axes.map(|(a, t)| format!("{a} {}", t.join(", "))).collect();
        axes.join("; ")
    }

    /// The cells `spec` selects (all without one): those whose tokens equal
    /// its `/`-separated tokens, ignoring case.
    ///
    /// # Errors
    ///
    /// A spec of the wrong arity, or one matching no cell (an unknown
    /// token or an empty combination): the message names the valid tokens.
    pub fn select(&self, spec: Option<&str>) -> Result<Vec<&Cell>, String> {
        let Some(spec) = spec else {
            return Ok(self.cells.iter().collect());
        };
        let want: Vec<&str> = spec.split('/').collect();
        let same = |(t, w): (&String, &&str)| t.eq_ignore_ascii_case(w);
        let hits = |c: &&Cell| c.tokens.iter().zip(&want).all(same);
        let cells: Vec<&Cell> = self.cells.iter().filter(hits).collect();
        if want.len() != self.axes.len() || cells.is_empty() {
            let (axes, valid) = (self.axes.join("/"), self.valid_tokens());
            return Err(format!(
                "--filter {spec:?} matches no {axes} cell; valid tokens: {valid}"
            ));
        }
        Ok(cells)
    }

    /// What a run of `cells` prints: one labelled row per cell, the
    /// headline comparison when `headline` is set and the sweep has one
    /// (panicking if its cells are not in the grid), and a closing line
    /// with the digest, which CI greps.
    #[must_use]
    pub fn report(&self, cells: &[&Cell], run: &Run, headline: bool) -> String {
        let head = match self.axes {
            [] => "cpus x flows".to_string(),
            axes => axes.join("/"),
        };
        let labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        let w = labels.iter().map(String::len).fold(head.len(), usize::max);
        let mut out = format!("{head:<w$} |");
        for c in self.columns {
            out += &format!(" {:>1$}", c.header, c.width);
        }
        for (label, outcome) in labels.iter().zip(&run.outcomes) {
            out += &format!("\n{label:<w$} |");
            for (c, v) in self.columns.iter().zip(&outcome.values) {
                out += &format!(" {v:>0$.1$}", c.width, c.decimals);
            }
        }
        if let Some((label, specs)) = self.headline.filter(|_| headline) {
            let last = &self.cells[self.cells.len() - 1].tokens;
            let [(a, va), (b, vb)] = specs.map(|spec| {
                let star = |(p, t): (&str, &String)| if p == "*" { t.clone() } else { p.into() };
                let spec: Vec<String> = spec.split('/').zip(last).map(star).collect();
                let i = self.cells.iter().position(|c| c.tokens == spec);
                let value = run.outcomes[i.expect("headline cell in the grid")].values[0];
                (spec.join("/"), value)
            });
            let (c, gain) = (&self.columns[0], 100.0 * (va / vb - 1.0));
            let (unit, d) = (c.header, c.decimals);
            out += &format!("\n{label}: {a} {va:.d$} vs {b} {vb:.d$} {unit} ({gain:+.1}%)");
        }
        let (n, wall, setup, digest) =
            (run.outcomes.len(), run.wall_s, run.setup_wall_s, run.digest);
        let (name, rate, idle) = (self.name, n as f64 / wall, run.pool_idle_s);
        out + &format!(
            "\n{name}: {n} cells in {wall:.2} s ({rate:.1} cells/sec, setup {setup:.2} s, \
             pool idle {idle:.2} s), digest {digest:016x}"
        )
    }

    /// The JSON row a recorded run appends to [`HISTORY_PATH`].
    #[must_use]
    pub fn history_row(&self, run: &Run, threads: usize) -> String {
        let (n, wall, setup, digest) =
            (run.outcomes.len(), run.wall_s, run.setup_wall_s, run.digest);
        let (benchmark, rate) = (self.benchmark, n as f64 / wall);
        format!(
            "  {{\n    \"pr\": {CURRENT_PR},\n    \"benchmark\": \"{benchmark}\",\n    \
             \"cells\": {n},\n    \"threads\": {threads},\n    \
             \"current_wall_s\": {wall:.2},\n    \"setup_wall_s\": {setup:.2},\n    \
             \"cells_per_sec\": {rate:.1},\n    \"digest\": \"{digest:016x}\"\n  }}"
        )
    }
}

/// Runs `cells` of `sweep` on a pool of `threads` workers and folds the
/// digest in cell order, so it is the same at any worker count.
///
/// Cells must be listed cheapest first: the pool starts from the back of
/// the list (see [`run_pool`]).
#[must_use]
pub fn run(sweep: &Sweep, cells: &[&Cell], threads: usize) -> Run {
    let t0 = std::time::Instant::now();
    let outcomes = run_pool(cells.to_vec(), threads, |cell| measure(sweep, cell));
    let wall_s = t0.elapsed().as_secs_f64();
    // The worker count `run_pool` spawns (one when it runs inline).
    let workers = threads.min(hardware_threads()).min(cells.len()).max(1);
    let busy_s: f64 = outcomes.iter().map(|o| o.wall_s).sum();
    Run {
        digest: fnv_fold(outcomes.iter().flat_map(|o| o.words.iter().copied())),
        setup_wall_s: outcomes.iter().map(|o| o.setup_wall_s).sum(),
        pool_idle_s: workers as f64 * wall_s - busy_s,
        outcomes,
        wall_s,
    }
}

/// Runs one cell and checks it (see [`digest_words`]). A cell of a
/// million flows or more must also meet the construction bound.
fn measure(sweep: &Sweep, cell: &Cell) -> Outcome {
    let t0 = std::time::Instant::now();
    let config = &cell.config;
    let label = format!("{} {}", sweep.name, cell.label());
    let r = run_experiment(config).expect("valid sweep config");
    let words = digest_words(&label, &r);
    if config.connections >= 1_000_000 {
        assert_setup_bound(&label, r.setup_wall_s, config.connections);
    }
    let values = sweep.columns.iter().map(|c| (c.value)(&r)).collect();
    Outcome {
        words,
        values,
        setup_wall_s: r.setup_wall_s,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// The values a cell folds into its sweep's digest, after checking the
/// run. Every cell folds its wall cycles; a cell with a server workload
/// also folds its accept, complete and drop counts (so lifecycle
/// accounting moves the digest even when timing holds) and must drain to
/// no live flows and no steering entries.
fn digest_words(label: &str, r: &RunResult) -> Vec<u64> {
    let mut words = vec![r.metrics.wall_cycles];
    if r.config.server.is_some() {
        let lc = r.lifecycle;
        let served = lc.accepts > 0 && lc.completes > 0;
        let drained = lc.final_live_flows == 0 && lc.final_table_entries == 0;
        assert!(
            served,
            "{label}: no accepts or completes in window ({lc:?})"
        );
        assert!(
            drained,
            "{label}: flows or steering entries leaked ({lc:?})"
        );
        words.extend([lc.accepts, lc.completes, lc.backlog_drops]);
    }
    words
}

/// Asserts the million-flow construction bound and logs the achieved rate.
fn assert_setup_bound(label: &str, setup_wall_s: f64, flows: usize) {
    let ns_per_flow = setup_wall_s * 1e9 / flows as f64;
    assert!(
        ns_per_flow <= MAX_SETUP_NS_PER_FLOW,
        "{label}: construction at {ns_per_flow:.0} ns/flow is over the \
         {MAX_SETUP_NS_PER_FLOW:.0} ns/flow bound: the slab path has regressed"
    );
    eprintln!("{label}: construction {ns_per_flow:.0} ns/flow (bound {MAX_SETUP_NS_PER_FLOW:.0})");
}

const MBPS: Column = col("Mb/s", 9, 0, |r| r.metrics.throughput_mbps());
const COST: Column = col("GHz/Gbps", 9, 2, |r| r.metrics.cost_ghz_per_gbps());
const PERF_COLUMNS: &[Column] = &[col("seed", 6, 0, |r| r.config.seed as f64), MBPS, COST];
const SCALE_COLUMNS: &[Column] = &[MBPS, COST];
const STEER_COLUMNS: &[Column] = &[
    MBPS,
    COST,
    col("clears/msg", 11, 1, |r| {
        r.metrics.total.machine_clears as f64 / r.metrics.messages.max(1) as f64
    }),
    col("resteers", 9, 0, |r| r.steer.resteers as f64),
    col("rejects", 8, 0, |r| r.steer.table_rejects as f64),
    col("ooo", 8, 0, |r| r.steer.ooo_completions as f64),
];
const POLL_COLUMNS: &[Column] = &[
    MBPS,
    COST,
    col("irqs", 6, 0, |r| r.metrics.interrupts as f64),
    col("spin%", 6, 1, |r| 100.0 * r.poll.spin_fraction()),
    col("polls", 8, 0, |r| r.poll.polls as f64),
    col("empty polls", 12, 0, |r| r.poll.empty_polls as f64),
];
const CHURN_COLUMNS: &[Column] = &[
    col("kconn/s", 8, 1, |r| {
        let seconds = r.metrics.wall_cycles as f64 / r.metrics.freq.hertz() as f64;
        r.lifecycle.completes as f64 / seconds / 1e3
    }),
    COST,
    col("accepts", 8, 0, |r| r.lifecycle.accepts as f64),
    col("drops", 7, 0, |r| r.lifecycle.backlog_drops as f64),
    col("fct p50", 9, 0, |r| r.lifecycle.fct_p50_cycles as f64),
    col("fct p99", 9, 0, |r| r.lifecycle.fct_p99_cycles as f64),
];

/// Every sweep subcommand, at `repro --quick` counts when `quick`.
#[must_use]
pub fn sweeps(quick: bool) -> Vec<Sweep> {
    let all = [perf, scale, steer, poll, churn];
    all.iter().map(|sweep| sweep(quick)).collect()
}

/// A sweep with no headline and no extra cells.
fn sweep(
    name: &'static str,
    benchmark: &'static str,
    axes: &'static [&'static str],
    columns: &'static [Column],
    cells: Vec<Cell>,
) -> Sweep {
    let (headline, extras) = (None, Vec::new());
    Sweep {
        name,
        benchmark,
        axes,
        cells,
        columns,
        headline,
        extras,
    }
}

/// Recorded benchmark strings of the extra cells.
const SCALE_LARGE: &str = "scale large cell (16 cpus x 4096 flows, rss, Rx 4KB)";
const SCALE_1M: &str = "scale 1M cell (16 cpus x 1000000 flows, rss, Rx 4KB)";
const CHURN_LARGE: &str = "churn large cell (16 cpus x 100000 flows, flowdir, mice)";
const CHURN_1M: &str = "churn 1M cell (16 cpus x 1000000 flow slots, flowdir, mice)";

/// A one-cell extra sweep, named by its history-row prefix.
fn extra(benchmark: &'static str, columns: &'static [Column], config: ExperimentConfig) -> Sweep {
    let mut extra = sweep("", benchmark, &[], columns, vec![Cell::new(&[], config)]);
    extra.name = extra.prefix();
    extra
}

/// The `--filter` token of a mode: the first word of its figure label,
/// lowercased (`no`, `irq`, `proc`, `full`, `rss`).
fn mode_token(mode: AffinityMode) -> String {
    let word = mode.label().split(' ').next();
    word.unwrap_or_default().to_ascii_lowercase()
}

/// The benchmark matrix: both directions, every paper size, all four
/// modes, the first two figure seeds (seed-minor).
fn perf(quick: bool) -> Sweep {
    let mut cells = Vec::new();
    for dir in [Direction::Tx, Direction::Rx] {
        let dir_token = dir.label().to_ascii_lowercase();
        for &size in &PAPER_SIZES {
            for mode in AffinityMode::ALL {
                for &seed in &FIGURE_SEEDS[..2] {
                    let config = cell(dir, size, mode, seed);
                    let config = if quick { config.quick() } else { config };
                    cells.push(Cell::new(&[&mode_token(mode), &size, &dir_token], config));
                }
            }
        }
    }
    let benchmark = "full figure matrix (2 dirs x 7 sizes x 4 modes x 2 seeds)";
    let axes = &["mode", "size", "dir"];
    sweep("perf", benchmark, axes, PERF_COLUMNS, cells)
}

/// The scaling sweep: CPU counts x flow counts x affinity modes plus RSS,
/// Rx 4 KB. With flows hash-steered to per-CPU vectors, adding CPUs should
/// add bandwidth — the future the paper's conclusion sketches.
fn scale(quick: bool) -> Sweep {
    let (cpu_grid, flow_grid): (&[usize], &[usize]) = match quick {
        true => (&[2, 4], &[8, 16]),
        false => (&[2, 4, 8, 16], &[8, 64, 256]),
    };
    let modes = [
        AffinityMode::None,
        AffinityMode::Irq,
        AffinityMode::Full,
        AffinityMode::Rss,
    ];
    let mut cells = Vec::new();
    for &cpus in cpu_grid {
        for &flows in flow_grid {
            for mode in modes {
                let mut config = ExperimentConfig::scale(Direction::Rx, cpus, flows, mode);
                if quick {
                    config.workload.warmup_messages = 2;
                    config.workload.measure_messages = 3;
                }
                cells.push(Cell::new(&[&mode_token(mode), &cpus, &flows], config));
            }
        }
    }

    // The large cell: do per-flow state and the coherence directory hold
    // their rate past the grid's 256-flow ceiling? At 4096 flows even 2+4
    // messages per flow is ~25k messages.
    let mut large = ExperimentConfig::scale(Direction::Rx, 16, 4096, AffinityMode::Rss);
    let (warmup, measure) = if quick { (1, 1) } else { (2, 4) };
    large.workload.warmup_messages = warmup;
    large.workload.measure_messages = measure;

    // The million-flow cell: provisioning and footprint are the subject,
    // so message targets are aggregate, and peers stream on 256 flows per
    // CPU (all 1M streaming is receive livelock by construction). Quick
    // mode keeps all 1M flows.
    let m_cpus = if quick { 4 } else { 16 };
    let mut million = ExperimentConfig::scale(Direction::Rx, m_cpus, 1_000_000, AffinityMode::Rss);
    million.workload.aggregate_targets = true;
    million.workload.active_conns = 256 * m_cpus;
    let (warmup, measure) = if quick { (256, 1024) } else { (4_096, 16_384) };
    million.workload.warmup_messages = warmup;
    million.workload.measure_messages = measure;

    let benchmark = "scale sweep (4 CPU counts x 3 flow counts x 4 modes, Rx 4KB)";
    let axes = &["mode", "cpus", "flows"];
    Sweep {
        headline: Some(("RSS scaling", ["rss/*/*", "rss/2/*"])),
        extras: vec![
            extra(SCALE_LARGE, SCALE_COLUMNS, large),
            extra(SCALE_1M, SCALE_COLUMNS, million),
        ],
        ..sweep("scale", benchmark, axes, SCALE_COLUMNS, cells)
    }
}

fn static_spec(placement: FlowPlacement, vectors: VectorLayout, pin: bool) -> SteerSpec {
    let dynamic = DynamicSteer::Off;
    SteerSpec {
        placement,
        vectors,
        dynamic,
        pin_processes: pin,
    }
}

/// Cells on the multi-queue geometry the steer and poll sweeps share —
/// one 4-queue NIC port per four CPUs, 4 flows per CPU, Rx 4 KB — for
/// every CPU count x variant: two tokens, a steering spec (`None`: the
/// busy-poll dataplane) and an interrupt-moderation override.
fn multiqueue(
    quick: bool,
    variants: [(&str, &str, Option<SteerSpec>, Option<CoalesceConfig>); 4],
) -> Vec<Cell> {
    let cpu_grid: &[usize] = if quick { &[4] } else { &[4, 8, 16] };
    let mut cells = Vec::new();
    for &cpus in cpu_grid {
        for (a, b, spec, moderation) in variants {
            let mut config = match spec {
                Some(spec) => ExperimentConfig::steer_sweep(Direction::Rx, cpus, 4 * cpus, spec),
                None => ExperimentConfig::poll_sweep(Direction::Rx, cpus, 4 * cpus),
            };
            if let Some(m) = moderation {
                config.nic.coalesce = m;
            }
            // Quick cells keep the sweep constructors' quick counts.
            if !quick {
                config.workload.warmup_messages = 8;
                config.workload.measure_messages = 24;
            }
            cells.push(Cell::new(&[&a, &b, &cpus], config));
        }
    }
    cells
}

/// The steering-policy sweep: static RSS hashing vs Flow Director / aRFS
/// re-targeting, each under fixed-count and adaptive interrupt
/// moderation. Flow Director chases the consumer and so completes some
/// flows' frames on a different CPU than the previous batch — the
/// reordering signature the `ooo` column counts.
fn steer(quick: bool) -> Sweep {
    let rss = static_spec(FlowPlacement::RssHash, VectorLayout::SplitEven, false);
    let (rss, flowdir) = (Some(rss), Some(SteerSpec::flow_director()));
    let adaptive = Some(CoalesceConfig::AdaptiveTimeout {
        min_events: 1,
        max_events: 8,
        idle_gap_cycles: 8_000,
        timeout_cycles: 12_000,
    });
    let cells = multiqueue(
        quick,
        [
            ("RSS", "fixed", rss, None),
            ("RSS", "adaptive", rss, adaptive),
            ("FlowDir", "fixed", flowdir, None),
            ("FlowDir", "adaptive", flowdir, adaptive),
        ],
    );
    let benchmark = "steering sweep (3 CPU counts x 4 policies, Rx 4KB)";
    let axes = &["policy", "coalesce", "cpus"];
    Sweep {
        headline: Some(("FlowDir vs RSS", ["FlowDir/fixed/*", "RSS/fixed/*"])),
        ..sweep("steer", benchmark, axes, STEER_COLUMNS, cells)
    }
}

/// The interrupt-vs-poll sweep: the interrupt stack under three steering
/// policies against the kernel-bypass poll dataplane. Poll mode takes
/// zero interrupts but its PMD cores spin at 100%; the spin cycles are
/// charged as busy time, so GHz/Gbps prices the burned cores honestly.
fn poll(quick: bool) -> Sweep {
    let cpu0 = static_spec(FlowPlacement::RoundRobin, VectorLayout::AllCpu0, false);
    let rss = static_spec(FlowPlacement::RssHash, VectorLayout::SplitEven, false);
    let cells = multiqueue(
        quick,
        [
            ("Irq", "cpu0", Some(cpu0), None),
            ("Irq", "RSS", Some(rss), None),
            ("Irq", "FlowDir", Some(SteerSpec::flow_director()), None),
            ("Poll", "pmd", None, None),
        ],
    );
    let benchmark = "poll sweep (3 CPU counts x 4 dataplanes, Rx 4KB)";
    let axes = &["plane", "policy", "cpus"];
    Sweep {
        headline: Some(("Poll vs Irq/RSS", ["Poll/pmd/*", "Irq/RSS/*"])),
        ..sweep("poll", benchmark, axes, POLL_COLUMNS, cells)
    }
}

/// The connection-churn sweep: short-lived SYN-to-FIN RPC connections on
/// both dataplanes under static RSS and Flow Director, across CPU counts
/// and concurrent-flow targets. It measures the lifecycle path itself —
/// completed connections per second, flow completion times, SYN backlog
/// drops — and every cell must drain (see [`measure`]).
fn churn(quick: bool) -> Sweep {
    // Server processes are pinned to their flows' even-spread homes, so
    // static RSS pays a persistent vector-home-vs-consumer mismatch on
    // hash-unlucky queues while Flow Director re-targets the vector to
    // the consumer — without the pin the two policies collapse into one.
    let rss = static_spec(FlowPlacement::RssHash, VectorLayout::SplitEven, true);
    let flowdir = SteerSpec {
        pin_processes: true,
        ..SteerSpec::flow_director()
    };
    let (irq, poll) = (DataplaneMode::Interrupt, DataplaneMode::Poll);
    let variants = [
        ("Irq", "RSS", irq, rss),
        ("Irq", "FlowDir", irq, flowdir),
        ("Poll", "RSS", poll, rss),
        ("Poll", "FlowDir", poll, flowdir),
    ];
    // Quick slot counts sit well below the quick-clamped measurement
    // window (24 completions), so slots recycle *inside* the window and
    // the nonzero-accepts invariant stays checkable in CI smoke runs.
    let (cpu_grid, flow_grid): (&[usize], &[usize]) = match quick {
        true => (&[4], &[12]),
        false => (&[4, 8, 16], &[1_000, 10_000]),
    };
    let mut cells = Vec::new();
    for &cpus in cpu_grid {
        for &flows in flow_grid {
            for (plane, policy, mode, spec) in variants {
                let config = ExperimentConfig::churn(cpus, flows, spec, mode);
                let config = if quick { config.quick() } else { config };
                cells.push(Cell::new(&[&plane, &policy, &cpus, &flows], config));
            }
        }
    }

    // The large cell: mice only at 10x the grid's flow ceiling, where
    // arena recycling and table install/teardown hold their rate or
    // visibly don't. Its quick variant stays under the quick window.
    let (cpus, flows) = if quick { (8, 16) } else { (16, 100_000) };
    let mut large = ExperimentConfig::churn(cpus, flows, flowdir, irq);
    large.server = large.server.map(ServerWorkload::mice_only);
    let large = if quick { large.quick() } else { large };

    // The million-flow cell: the slot population is the subject, so the
    // connection budget is a modest absolute count, not half the slots.
    // Every arrival is open-loop, so arrivals must outlast the warmup
    // completions or the window sees no accepts: the default 2k-cycle gap
    // lands them all before the window opens, a 100k gap spreads them
    // past the last measured completion. Quick mode keeps all 1M slots.
    let m_cpus = if quick { 4 } else { 16 };
    let mut million = ExperimentConfig::churn(m_cpus, 1_000_000, flowdir, irq);
    million.server = million.server.map(|s| ServerWorkload {
        warmup_conns: if quick { 64 } else { 4_000 },
        measure_conns: if quick { 256 } else { 12_000 },
        arrival_gap_cycles: 100_000,
        ..s.mice_only()
    });

    let benchmark = "churn sweep (3 CPU counts x 2 flow targets x 4 planes, Tx RPC)";
    let axes = &["plane", "policy", "cpus", "flows"];
    Sweep {
        headline: Some(("churn FlowDir vs RSS", ["Irq/FlowDir/*/*", "Irq/RSS/*/*"])),
        extras: vec![
            extra(CHURN_LARGE, CHURN_COLUMNS, large),
            extra(CHURN_1M, CHURN_COLUMNS, million),
        ],
        ..sweep("churn", benchmark, axes, CHURN_COLUMNS, cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hardware_threads, latest_history_entry};

    fn find(quick: bool, name: &str) -> Sweep {
        sweeps(quick)
            .into_iter()
            .find(|s| s.name == name)
            .expect("a sweep of that name")
    }

    fn digest(sweep: &Sweep) -> u64 {
        let cells: Vec<&Cell> = sweep.cells.iter().collect();
        run(sweep, &cells, hardware_threads()).digest
    }

    #[test]
    fn quick_digests_match_the_benchmark_pins() {
        let churn = find(true, "churn");
        for (sweep, want) in [
            (&find(true, "steer"), 0xb3a3_ba42_094b_122a),
            (&find(true, "poll"), 0x5c8f_ae01_599c_7054),
            (&find(true, "scale"), 0xbafe_9847_717c_5d68),
            (&churn, 0x555c_d083_6a94_bbc1),
            (&churn.extras[0], 0x378b_9b7b_e5e6_2dee),
        ] {
            assert_eq!(digest(sweep), want, "{} quick digest", sweep.name);
        }
    }

    /// `repro --quick scale`'s 1M-flow cell digest.
    const SCALE_1M_QUICK: u64 = 0xa6a6_f24e_2a28_eaee;
    /// `repro --quick churn`'s 1M-flow cell digest.
    const CHURN_1M_QUICK: u64 = 0xef36_8751_958c_e0ed;

    /// The quick scale and churn sweeps end in their million-flow cells;
    /// their digests are pinned here. The cells run without the
    /// construction bound, which `repro` enforces on release runs: a
    /// debug build constructs far slower than the bound allows.
    #[test]
    fn quick_million_flow_digests_are_pinned() {
        for (name, want) in [("scale", SCALE_1M_QUICK), ("churn", CHURN_1M_QUICK)] {
            let extra = &find(true, name).extras[1];
            let cell = &extra.cells[0];
            assert!(cell.config.connections >= 1_000_000, "{}", extra.name);
            let r = run_experiment(&cell.config).expect("valid sweep config");
            let digest = fnv_fold(digest_words(extra.name, &r));
            assert_eq!(digest, want, "{} quick digest", extra.name);
        }
    }

    #[test]
    fn full_table_has_the_recorded_shapes() {
        let shape: Vec<(&str, usize, Vec<usize>)> = sweeps(false)
            .iter()
            .map(|s| {
                let extras = s.extras.iter().map(|e| e.cells.len()).collect();
                (s.name, s.cells.len(), extras)
            })
            .collect();
        assert_eq!(
            shape,
            [
                ("perf", 112, vec![]),
                ("scale", 48, vec![1, 1]),
                ("steer", 12, vec![]),
                ("poll", 12, vec![]),
                ("churn", 24, vec![1, 1]),
            ]
        );
        for sweep in sweeps(false).iter().chain(&sweeps(true)) {
            for cell in &sweep.cells {
                assert_eq!(cell.tokens.len(), sweep.axes.len(), "{}", sweep.name);
            }
        }
    }

    /// The pool starts from the back of a cell list (`run_pool`), so the
    /// heaviest cell must come last. Cell cost grows with CPUs and flows;
    /// `perf` runs on the paper SUT's fixed two CPUs and is exempt.
    #[test]
    fn sweeps_list_their_cells_cheapest_first() {
        let size = |c: &Cell| (c.config.cpus, c.config.connections);
        for sweep in sweeps(false).iter().chain(&sweeps(true)) {
            if sweep.name == "perf" {
                continue;
            }
            let sizes: Vec<(usize, usize)> = sweep.cells.iter().map(size).collect();
            assert!(
                sizes.is_sorted(),
                "{}: cells out of (cpus, flows) order: {sizes:?}",
                sweep.name
            );
            let (cpus, flows) = sizes[sizes.len() - 1];
            for extra in &sweep.extras {
                let (c, f) = size(&extra.cells[0]);
                assert!(
                    c >= cpus && f >= flows,
                    "{}: {c}x{f} is smaller than the grid's last cell {cpus}x{flows}",
                    extra.name
                );
            }
        }
    }

    #[test]
    fn filter_errors_name_the_valid_tokens() {
        let steer = find(false, "steer");
        let valid = "policy RSS, FlowDir; coalesce fixed, adaptive; cpus 4, 8, 16";
        assert_eq!(steer.valid_tokens(), valid);
        for spec in [
            "flowdir/8",
            "flowdir/adaptive/8/1",
            "bogus/fixed/8",
            "rss/fixed/3",
        ] {
            let err = steer.select(Some(spec)).err().expect(spec);
            assert!(err.contains(valid), "{spec}: {err}");
        }
        // Every token is valid on its axis, but no cell combines them.
        let poll = find(false, "poll");
        let err = poll.select(Some("poll/rss/4")).err().expect("no such cell");
        assert!(err.contains(&poll.valid_tokens()), "{err}");
    }

    #[test]
    fn filters_select_cells_case_insensitively() {
        let perf = find(false, "perf");
        let hits = perf.select(Some("NO/4096/Tx")).expect("valid spec");
        assert_eq!(hits.len(), 2, "one cell per seed");
        assert!(hits.iter().all(|c| c.tokens == ["no", "4096", "tx"]));
        let churn = find(false, "churn");
        let hit = churn
            .select(Some("irq/flowdir/8/1000"))
            .expect("valid spec");
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].config.cpus, 8);
        assert_eq!(churn.select(None).expect("no spec").len(), 24);
    }

    #[test]
    fn reports_have_a_row_per_cell_and_resolve_their_headlines() {
        for sweep in sweeps(false).iter().chain(&sweeps(true)) {
            let cells: Vec<&Cell> = sweep.cells.iter().collect();
            let outcome = || Outcome {
                words: Vec::new(),
                values: vec![1.0; sweep.columns.len()],
                setup_wall_s: 0.0,
                wall_s: 1.0,
            };
            let outcomes = cells.iter().map(|_| outcome()).collect();
            let run = Run {
                outcomes,
                digest: 0,
                wall_s: 1.0,
                setup_wall_s: 0.0,
                pool_idle_s: 0.0,
            };
            // Header, one row per cell, the headline if any, the summary.
            let lines = 2 + cells.len() + usize::from(sweep.headline.is_some());
            let report = sweep.report(&cells, &run, true);
            assert_eq!(report.lines().count(), lines, "{}", sweep.name);
            assert!(report.ends_with("digest 0000000000000000"), "{report}");
        }
    }

    #[test]
    fn every_sweep_finds_its_recorded_rows() {
        let history = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../",
            "BENCH_substrate.json"
        );
        for sweep in sweeps(false) {
            for s in std::iter::once(&sweep).chain(&sweep.extras) {
                assert!(
                    latest_history_entry(history, s.prefix(), None).is_some(),
                    "no {:?} row",
                    s.prefix()
                );
            }
        }
    }

    #[test]
    fn history_rows_read_back() {
        let sweep = find(false, "poll");
        let run = Run {
            outcomes: Vec::new(),
            digest: 0x5b4b_100c_bd3a_3908,
            wall_s: 1.25,
            setup_wall_s: 0.5,
            pool_idle_s: 0.0,
        };
        let path = std::env::temp_dir().join(format!("sweeps_row_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(path);
        crate::append_history(path, &sweep.history_row(&run, 2));
        let row = latest_history_entry(path, "poll sweep (3 CPU counts", Some(2)).expect("row");
        assert_eq!(
            (row.pr, row.wall_s, row.setup_wall, row.digest),
            (CURRENT_PR, 1.25, Some(0.5), Some(run.digest))
        );
        let _ = std::fs::remove_file(path);
    }
}
