//! Single-experiment command line: run one configuration and print the
//! full measurement (metrics, bins, top machine-clear symbols).
//!
//! ```text
//! experiment [--dir tx|rx] [--size BYTES] [--mode none|proc|irq|full]
//!            [--cpus 2|4] [--seed N] [--messages N] [--warmup N]
//!            [--loss RATE] [--rss] [--rotate CYCLES]
//! ```
//!
//! `--cpus` picks the paper's 2-CPU SUT or its §5 4-CPU variant; any
//! other count is rejected. `--loss` must lie in `[0, 1)`: any other rate
//! is a configuration error, reported with exit status 1.

#![forbid(unsafe_code)]

use affinity_sim::{report, run_experiment, AffinityMode, Direction, ExperimentConfig, SteerSpec};
use sim_cpu::EventCosts;
use sim_tcp::Bin;

fn usage() -> ! {
    eprintln!(
        "usage: experiment [--dir tx|rx] [--size BYTES] [--mode none|proc|irq|full]\n\
         \t[--cpus 2|4] [--seed N] [--messages N] [--warmup N]\n\
         \t[--loss RATE] [--rss] [--rotate CYCLES]\n\
         --cpus: 2 (the paper SUT) or 4 (its four-processor variant)"
    );
    std::process::exit(2);
}

fn main() {
    let mut direction = Direction::Tx;
    let mut size = 65536u64;
    let mut mode = AffinityMode::Full;
    let mut cpus = 2usize;
    let mut seed = 0x5EEDu64;
    let mut messages = 0u32;
    let mut warmup = 0u32;
    let mut loss = 0.0f64;
    let mut rss = false;
    let mut rotate = 0u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--dir" => {
                direction = match value().as_str() {
                    "tx" => Direction::Tx,
                    "rx" => Direction::Rx,
                    _ => usage(),
                }
            }
            "--size" => size = value().parse().unwrap_or_else(|_| usage()),
            "--mode" => {
                mode = match value().as_str() {
                    "none" => AffinityMode::None,
                    "proc" => AffinityMode::Process,
                    "irq" => AffinityMode::Irq,
                    "full" => AffinityMode::Full,
                    _ => usage(),
                }
            }
            "--cpus" => {
                cpus = match value().as_str() {
                    "2" => 2,
                    "4" => 4,
                    _ => usage(),
                }
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--messages" => messages = value().parse().unwrap_or_else(|_| usage()),
            "--warmup" => warmup = value().parse().unwrap_or_else(|_| usage()),
            "--loss" => loss = value().parse().unwrap_or_else(|_| usage()),
            "--rss" => rss = true,
            "--rotate" => rotate = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }

    let mut config = if cpus == 4 {
        ExperimentConfig::four_processor(direction, size, mode)
    } else {
        ExperimentConfig::paper_sut(direction, size, mode)
    }
    .with_seed(seed);
    if messages > 0 {
        config.workload.measure_messages = messages;
    }
    if warmup > 0 {
        config.workload.warmup_messages = warmup;
    }
    config.tunables.loss_rate = loss;
    if rss {
        config.steer = SteerSpec::flow_director_unconfigured();
    }
    config.tunables.irq_rotation_cycles = rotate;

    let result = match run_experiment(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            std::process::exit(1);
        }
    };
    let m = &result.metrics;

    println!(
        "{} {}B x{} msgs/conn, {} mode, {} CPUs, seed {seed}",
        direction.label(),
        size,
        config.workload.measure_messages,
        mode.label(),
        config.cpus
    );
    println!(
        "throughput: {:.0} Mb/s   cost: {:.2} GHz/Gbps   messages: {}",
        m.throughput_mbps(),
        m.cost_ghz_per_gbps(),
        m.messages
    );
    let utils: Vec<String> = (0..config.cpus)
        .map(|c| format!("{:.2}", m.cpu_utilization(c)))
        .collect();
    println!("utilization: [{}]", utils.join(", "));
    println!(
        "per message: {:.0} cycles, {:.1} LLC misses, {:.1} machine clears",
        m.cycles_per_message(),
        m.total.llc_misses as f64 / m.messages.max(1) as f64,
        m.total.machine_clears as f64 / m.messages.max(1) as f64,
    );
    println!(
        "scheduler: {} wakeups-migrated, {} balance-migrations, {} resched IPIs",
        m.wake_migrations, m.balance_migrations, m.resched_ipis
    );
    println!(
        "locks: {}/{} contended   interrupts: {}",
        m.lock_contended, m.lock_acquisitions, m.interrupts
    );

    println!("\nper-bin breakdown:");
    for bin in Bin::ALL {
        let c = m.bin(bin);
        println!(
            "  {:>10}: {:>5.1}% of cycles, CPI {:>6.2}, MPI {:.4}",
            bin.label(),
            100.0 * m.bin_cycle_share(bin),
            c.cpi(),
            c.mpi()
        );
    }

    println!();
    println!(
        "{}",
        report::render_figure5_panel("impact indicators", m, &EventCosts::paper())
    );
    println!(
        "{}",
        report::render_table4("top machine-clear symbols", &result, 6)
    );
}
