//! The paper artifacts behind a bare `repro`: Figures 3/4/5, Tables 1–5
//! and the 4P note.
//!
//! Every artifact reads cells of one job list, which [`run`] runs on one
//! pool. The figures average the figure matrix over [`FIGURE_SEEDS`]; the
//! tables read its first-seed cells under no and full affinity at the
//! four [`EXTREME_POINTS`], so those cells run once for both.

use crate::{average_metrics, cell, run_pool, EXTREME_POINTS, FIGURE_SEEDS};
use affinity_sim::{
    report, run_experiment, AffinityMode, Direction, ExperimentConfig, RunMetrics, RunResult,
    PAPER_SIZES,
};
use sim_cpu::EventCosts;

/// The paper artifacts, in the order [`render`] prints them.
pub const ARTIFACTS: [&str; 9] = [
    "fig3", "fig4", "table1", "table2", "fig5", "table3", "table4", "table5", "fourp",
];

/// The artifacts that read the table cells.
const TABLES: [&str; 6] = ["table1", "table2", "fig5", "table3", "table4", "table5"];

/// The seed of the table cells: the figure matrix's first.
const TABLE_SEED: u64 = FIGURE_SEEDS[0];

/// One cell an artifact reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Job {
    /// The figure-matrix cell [`cell`]`(dir, size, mode, seed)`.
    Matrix(Direction, u64, AffinityMode, u64),
    /// A cell of the 4P note: 4 CPUs, 8 NICs, 64 KB TX.
    FourP(AffinityMode),
}

impl Job {
    /// The cell's experiment, at `repro --quick` counts when `quick`.
    fn config(self, quick: bool) -> ExperimentConfig {
        let config = match self {
            Job::Matrix(dir, size, mode, seed) => cell(dir, size, mode, seed),
            Job::FourP(mode) => {
                let mut config = ExperimentConfig::four_processor(Direction::Tx, 65536, mode);
                config.workload.measure_messages = 24;
                config.workload.warmup_messages = 8;
                config
            }
        };
        if quick {
            config.quick()
        } else {
            config
        }
    }

    /// Whether the tables read this cell, so its worker keeps the whole
    /// result (Table 4 reads the profiler).
    fn is_table(self) -> bool {
        matches!(self, Job::Matrix(dir, size, mode, TABLE_SEED)
            if matches!(mode, AffinityMode::None | AffinityMode::Full)
                && EXTREME_POINTS.contains(&(dir, size)))
    }

    /// Runs the cell and keeps what the artifacts read of it.
    fn run(self, quick: bool) -> Kept {
        let r = run_experiment(&self.config(quick)).expect("valid paper config");
        if self.is_table() {
            Kept::Whole(Box::new(r))
        } else {
            Kept::Metrics(Box::new(r.metrics))
        }
    }
}

/// What a worker keeps of a finished cell.
enum Kept {
    Metrics(Box<RunMetrics>),
    Whole(Box<RunResult>),
}

impl Kept {
    fn metrics(&self) -> &RunMetrics {
        match self {
            Kept::Metrics(m) => m,
            Kept::Whole(r) => &r.metrics,
        }
    }
}

/// The cells `artifacts` read, each once, cheapest first: the pool starts
/// from the back of the list (see [`run_pool`]). Cell cost grows with the
/// measured bytes, so the matrix runs in size order and the 4P cells,
/// which move the most on twice the CPUs, come last.
#[must_use]
pub fn jobs(artifacts: &[&str]) -> Vec<Job> {
    let wants = |names: &[&str]| artifacts.iter().any(|a| names.contains(a));
    let (figures, tables) = (wants(&["fig3", "fig4"]), wants(&TABLES));
    let mut jobs = Vec::new();
    for &size in &PAPER_SIZES {
        for dir in [Direction::Tx, Direction::Rx] {
            for mode in AffinityMode::ALL {
                for &seed in &FIGURE_SEEDS {
                    let job = Job::Matrix(dir, size, mode, seed);
                    if figures || (tables && job.is_table()) {
                        jobs.push(job);
                    }
                }
            }
        }
    }
    if wants(&["fourp"]) {
        jobs.extend(AffinityMode::ALL.map(Job::FourP));
    }
    jobs
}

/// The finished cells of a job list.
pub struct Results {
    jobs: Vec<Job>,
    kept: Vec<Kept>,
}

impl Results {
    fn kept(&self, job: Job) -> &Kept {
        let i = self.jobs.iter().position(|&j| j == job);
        &self.kept[i.unwrap_or_else(|| panic!("{job:?} is not in the job list"))]
    }

    /// A table cell's whole result.
    fn whole(&self, dir: Direction, size: u64, mode: AffinityMode) -> &RunResult {
        let Kept::Whole(r) = self.kept(Job::Matrix(dir, size, mode, TABLE_SEED)) else {
            unreachable!("a table cell keeps its whole result")
        };
        r
    }

    /// One figure row per paper size: each mode's metrics averaged over
    /// the seeds in [`FIGURE_SEEDS`] order.
    fn figure_rows(&self, dir: Direction) -> Vec<(u64, Vec<(AffinityMode, RunMetrics)>)> {
        let seeds = |size, mode| {
            let job = |seed| Job::Matrix(dir, size, mode, seed);
            average_metrics(&FIGURE_SEEDS.map(|seed| self.kept(job(seed)).metrics().clone()))
        };
        let row = |size| AffinityMode::ALL.map(|mode| (mode, seeds(size, mode)));
        PAPER_SIZES.map(|size| (size, row(size).to_vec())).to_vec()
    }
}

/// Runs `jobs` on a pool of `threads` workers (see [`run_pool`]).
#[must_use]
pub fn run(jobs: Vec<Job>, quick: bool, threads: usize) -> Results {
    let kept = run_pool(jobs.clone(), threads, |job| job.run(quick));
    Results { jobs, kept }
}

/// What `repro` prints for `artifacts`, in [`ARTIFACTS`] order whatever
/// order they are asked in. `results` must hold the cells
/// [`jobs`]`(artifacts)` lists.
#[must_use]
pub fn render(results: &Results, artifacts: &[&str]) -> String {
    let wants = |name: &str| artifacts.contains(&name);
    let mut out = String::new();
    let mut line = |s: &str| {
        out.push_str(s);
        out.push('\n');
    };
    if wants("fig3") || wants("fig4") {
        let tx = results.figure_rows(Direction::Tx);
        let rx = results.figure_rows(Direction::Rx);
        if wants("fig3") {
            line(&report::render_figure3("TX", &tx));
            line(&report::render_figure3("RX", &rx));
        }
        if wants("fig4") {
            line(&report::render_figure4("TX", &tx));
            line(&report::render_figure4("RX", &rx));
        }
    }

    let tables = TABLES.iter().any(|t| wants(t));
    let extremes: Vec<(String, &RunResult, &RunResult)> = EXTREME_POINTS
        .iter()
        .filter(|_| tables)
        .map(|&(dir, size)| {
            let label = if size == 65536 { "64KB" } else { "128B" };
            let no = results.whole(dir, size, AffinityMode::None);
            let full = results.whole(dir, size, AffinityMode::Full);
            (format!("{} {label}", dir.label()), no, full)
        })
        .collect();
    if wants("table1") {
        for (label, no, full) in &extremes {
            line(&report::render_table1_panel(
                label,
                &no.metrics,
                &full.metrics,
            ));
        }
    }
    if wants("table2") {
        let (label, no, full) = &extremes[0];
        line(&format!("(from {label})"));
        line(&report::render_table2(&no.metrics, &full.metrics));
    }
    if wants("fig5") {
        let costs = EventCosts::paper();
        for (label, no, full) in &extremes {
            for (r, affinity) in [(no, "no"), (full, "full")] {
                let panel = format!("{label} {affinity} affinity");
                line(&report::render_figure5_panel(&panel, &r.metrics, &costs));
            }
        }
    }
    if wants("table3") {
        for (label, no, full) in &extremes {
            line(&report::render_table3_panel(
                label,
                &no.metrics,
                &full.metrics,
            ));
        }
    }
    if wants("table4") {
        for (label, no, full) in extremes.iter().filter(|e| e.0.contains("128B")) {
            for (r, affinity) in [(no, "no"), (full, "full")] {
                let title = format!("{label} {affinity} affinity");
                line(&report::render_table4(&title, r, 10));
            }
        }
    }
    if wants("table5") {
        let entries: Vec<(String, RunMetrics, RunMetrics)> = extremes
            .iter()
            .map(|(l, no, full)| (l.clone(), no.metrics.clone(), full.metrics.clone()))
            .collect();
        line(&report::render_table5(&entries));
    }

    if wants("fourp") {
        line("4P extension (Section 5 note): 4 CPUs, 8 NICs, 64KB TX");
        line(&format!(
            "{:>10} | {:>9} | {:>6} | {:>20}",
            "mode", "BW (Mb/s)", "cost", "per-CPU utilization"
        ));
        for mode in AffinityMode::ALL {
            let m = results.kept(Job::FourP(mode)).metrics();
            let utils: Vec<String> = (0..4)
                .map(|c| format!("{:.2}", m.cpu_utilization(c)))
                .collect();
            line(&format!(
                "{:>10} | {:>9.0} | {:>6.2} | {}",
                mode.label(),
                m.throughput_mbps(),
                m.cost_ghz_per_gbps(),
                utils.join(" ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_pool_exact;

    #[test]
    fn a_bare_repro_runs_each_cell_once() {
        let all = jobs(&ARTIFACTS);
        let matrix = 2 * PAPER_SIZES.len() * AffinityMode::ALL.len() * FIGURE_SEEDS.len();
        assert_eq!(all.len(), matrix + AffinityMode::ALL.len());
        for (i, job) in all.iter().enumerate() {
            assert!(!all[..i].contains(job), "{job:?} listed twice");
        }
        assert_eq!(jobs(&["table4"]).len(), 2 * EXTREME_POINTS.len());
        assert_eq!(jobs(&["fourp"]), AffinityMode::ALL.map(Job::FourP));
    }

    /// The tables read the figure matrix's seed-`0x5EED` cells, which
    /// must be the cells they ran on their own before they shared the
    /// matrix: `cell(dir, size, none|full, 0x5EED)` at each extreme point.
    #[test]
    fn table_cells_are_the_first_seed_matrix_cells() {
        let (tables, matrix) = (jobs(&["table1"]), jobs(&["fig3"]));
        for &(dir, size) in &EXTREME_POINTS {
            for mode in [AffinityMode::None, AffinityMode::Full] {
                let want = cell(dir, size, mode, 0x5EED);
                let job = Job::Matrix(dir, size, mode, TABLE_SEED);
                assert!(tables.contains(&job), "{job:?} is not a table cell");
                assert!(matrix.contains(&job), "{job:?} is not a matrix cell");
                assert_eq!(job.config(false), want, "{job:?}");
            }
        }
    }

    /// Cost grows with CPUs and measured bytes; the pool starts from the
    /// back, so the list must grow in both.
    #[test]
    fn jobs_are_listed_cheapest_first() {
        let cost = |job: &Job| {
            let c = job.config(false);
            (c.cpus, c.workload.measured_bytes(c.connections))
        };
        let costs: Vec<(usize, u64)> = jobs(&ARTIFACTS).iter().map(cost).collect();
        assert!(costs.is_sorted(), "{costs:?}");
    }

    /// One figure row (TX 8192), the table cells and the 4P cells, at
    /// quick counts: every cell equal at one and four workers, and so is
    /// every artifact but the figures (which need the whole matrix).
    #[test]
    fn results_are_independent_of_thread_count() {
        let row = |job: &Job| match job {
            Job::Matrix(dir, size, ..) => *dir == Direction::Tx && *size == 8192,
            Job::FourP(_) => true,
        };
        let all = jobs(&ARTIFACTS);
        let jobs: Vec<Job> = all.into_iter().filter(|j| row(j) || j.is_table()).collect();
        let results = |workers| {
            let kept = run_pool_exact(jobs.clone(), workers, |job| job.run(true));
            let jobs = jobs.clone();
            Results { jobs, kept }
        };
        let (one, many) = (results(1), results(4));
        for (job, (a, b)) in jobs.iter().zip(one.kept.iter().zip(&many.kept)) {
            assert_eq!(a.metrics(), b.metrics(), "thread count leaked into {job:?}");
        }
        let rest = [
            "table1", "table2", "fig5", "table3", "table4", "table5", "fourp",
        ];
        assert_eq!(render(&one, &rest), render(&many, &rest));
    }
}
