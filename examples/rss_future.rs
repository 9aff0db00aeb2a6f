//! The paper's conclusion, made runnable: receive-side-scaling-style
//! hardware that steers each connection's interrupts to the CPU where
//! its consumer runs — affinity benefits without any static pinning —
//! compared against the Linux 2.6 rotate-the-vector scheme from the
//! related-work section ("cache inefficiencies are still unavoidable").
//!
//! ```bash
//! cargo run --release --example rss_future
//! ```

use affinity_repro::{
    run_experiment, AffinityMode, Direction, ExperimentConfig, RunMetrics, SteerSpec,
};

fn run(label: &str, configure: impl FnOnce(&mut ExperimentConfig)) -> (String, RunMetrics) {
    let mut config = ExperimentConfig::paper_sut(Direction::Rx, 16384, AffinityMode::None);
    config.workload.warmup_messages = 10;
    config.workload.measure_messages = 30;
    configure(&mut config);
    let metrics = run_experiment(&config).expect("valid config").metrics;
    (label.to_string(), metrics)
}

fn main() {
    println!("RX 16KB, 8 connections: interrupt-steering policies compared\n");
    let rows = vec![
        run("static CPU0 (2.4 default)", |_| {}),
        run("2.6 rotation (1.5ms)", |c| {
            c.tunables.irq_rotation_cycles = 3_000_000;
        }),
        run("static split (IRQ aff)", |c| {
            c.steer = AffinityMode::Irq.steer_preset();
        }),
        run("RSS dynamic steering", |c| {
            c.steer = SteerSpec::flow_director_unconfigured();
        }),
        run("full affinity (pinned)", |c| {
            c.steer = AffinityMode::Full.steer_preset();
        }),
    ];

    println!(
        "{:<26} | {:>9} | {:>9} | {:>12} | {:>10}",
        "policy", "BW (Mb/s)", "GHz/Gbps", "clears/msg", "IPIs"
    );
    for (label, m) in &rows {
        println!(
            "{:<26} | {:>9.0} | {:>9.2} | {:>12.0} | {:>10}",
            label,
            m.throughput_mbps(),
            m.cost_ghz_per_gbps(),
            m.total.machine_clears as f64 / m.messages as f64,
            m.resched_ipis,
        );
    }
    println!(
        "\nDynamic steering needs no taskset/smp_affinity configuration at \
         all — the adapter follows the scheduler. That is the hardware \
         direction the paper's conclusion argues for."
    );
}
