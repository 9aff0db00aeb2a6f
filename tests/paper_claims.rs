//! Integration tests asserting the paper's headline claims hold on the
//! simulated substrate (weak/shape assertions — exact magnitudes are
//! recorded in EXPERIMENTS.md from release-mode runs).

use affinity_repro::{
    run_experiment, AffinityMode, Direction, ExperimentConfig, RunMetrics, SteerSpec,
};
use sim_tcp::Bin;

fn run(direction: Direction, size: u64, mode: AffinityMode) -> RunMetrics {
    let mut config = ExperimentConfig::paper_sut(direction, size, mode);
    config.workload.warmup_messages = 6;
    config.workload.measure_messages = 16;
    run_experiment(&config).expect("valid config").metrics
}

#[test]
fn full_affinity_beats_no_affinity_on_throughput_tx() {
    let no = run(Direction::Tx, 65536, AffinityMode::None);
    let full = run(Direction::Tx, 65536, AffinityMode::Full);
    assert!(
        full.throughput_mbps() > no.throughput_mbps() * 1.10,
        "full {:.0} vs no {:.0}",
        full.throughput_mbps(),
        no.throughput_mbps()
    );
}

#[test]
fn full_affinity_beats_no_affinity_on_throughput_rx() {
    let no = run(Direction::Rx, 65536, AffinityMode::None);
    let full = run(Direction::Rx, 65536, AffinityMode::Full);
    assert!(
        full.throughput_mbps() > no.throughput_mbps() * 1.10,
        "full {:.0} vs no {:.0}",
        full.throughput_mbps(),
        no.throughput_mbps()
    );
}

#[test]
fn process_affinity_alone_has_little_impact() {
    // "process affinity alone has little impact on throughput."
    let no = run(Direction::Tx, 65536, AffinityMode::None);
    let proc = run(Direction::Tx, 65536, AffinityMode::Process);
    let full = run(Direction::Tx, 65536, AffinityMode::Full);
    let proc_gain = proc.throughput_mbps() / no.throughput_mbps() - 1.0;
    let full_gain = full.throughput_mbps() / no.throughput_mbps() - 1.0;
    assert!(
        proc_gain < full_gain / 2.0,
        "proc gain {proc_gain:.2} should be well below full gain {full_gain:.2}"
    );
}

#[test]
fn machine_clears_drop_under_full_affinity() {
    // The paper's novel claim: affinity reduces machine clears (IPIs
    // disappear; device-interrupt clears persist).
    for direction in [Direction::Tx, Direction::Rx] {
        let no = run(direction, 65536, AffinityMode::None);
        let full = run(direction, 65536, AffinityMode::Full);
        let per_msg_no = no.total.machine_clears as f64 / no.messages as f64;
        let per_msg_full = full.total.machine_clears as f64 / full.messages as f64;
        assert!(
            per_msg_full < per_msg_no * 0.9,
            "{direction}: clears/msg {per_msg_no:.0} -> {per_msg_full:.0}"
        );
    }
}

#[test]
fn full_affinity_eliminates_resched_ipis() {
    let full = run(Direction::Rx, 65536, AffinityMode::Full);
    assert_eq!(
        full.resched_ipis, 0,
        "pinned colocated tasks never need IPIs"
    );
    let no = run(Direction::Rx, 65536, AffinityMode::None);
    let _ = no; // no-affinity may or may not IPI in a short window
}

#[test]
fn lock_contention_vanishes_under_full_affinity() {
    let no = run(Direction::Rx, 65536, AffinityMode::None);
    let full = run(Direction::Rx, 65536, AffinityMode::Full);
    assert_eq!(full.lock_contended, 0, "same-CPU stack never contends");
    assert!(no.lock_acquisitions > 0);
    // Table 1's Locks anomaly: fewer branches under full affinity.
    assert!(
        full.bin(Bin::Locks).branches < no.bin(Bin::Locks).branches,
        "spin branches should collapse"
    );
}

#[test]
fn rx_is_more_memory_bound_than_tx() {
    // "TX generally has lower CPIs and MPIs than RX."
    let tx = run(Direction::Tx, 65536, AffinityMode::None);
    let rx = run(Direction::Rx, 65536, AffinityMode::None);
    assert!(
        rx.total.cpi() > tx.total.cpi(),
        "rx {} tx {}",
        rx.total.cpi(),
        tx.total.cpi()
    );
    assert!(rx.total.mpi() > tx.total.mpi());
}

#[test]
fn rx_copies_have_pathological_cpi() {
    // The rep-movl copy of uncached DMA data: "glaringly large CPI and
    // MPI seen in RX of 64KB".
    let rx = run(Direction::Rx, 65536, AffinityMode::None);
    let copies = rx.bin(Bin::Copies);
    let engine = rx.bin(Bin::Engine);
    assert!(
        copies.cpi() > 4.0 * engine.cpi(),
        "copies CPI {:.1} vs engine CPI {:.1}",
        copies.cpi(),
        engine.cpi()
    );
}

#[test]
fn small_messages_are_interface_bound() {
    // Table 1, 128B: the sockets interface dominates. Small messages
    // need a longer steady-state window than the shared helper's.
    let mut config = ExperimentConfig::paper_sut(Direction::Tx, 128, AffinityMode::Full);
    config.workload.warmup_messages = 60;
    config.workload.measure_messages = 200;
    let tx = run_experiment(&config).expect("valid config").metrics;
    let interface = tx.bin_cycle_share(Bin::Interface);
    let copies = tx.bin_cycle_share(Bin::Copies);
    assert!(
        interface > 0.25 && interface > copies * 2.0,
        "interface {interface:.2} copies {copies:.2}"
    );
}

#[test]
fn large_messages_are_data_bound() {
    // Table 1, 64KB: engine + buffer management + copies dominate.
    let tx = run(Direction::Tx, 65536, AffinityMode::None);
    let data_bins = tx.bin_cycle_share(Bin::Copies)
        + tx.bin_cycle_share(Bin::Engine)
        + tx.bin_cycle_share(Bin::BufMgmt);
    assert!(data_bins > 0.55, "data bins share {data_bins:.2}");
    assert!(tx.bin_cycle_share(Bin::Interface) < 0.25);
}

#[test]
fn cost_decreases_with_transfer_size() {
    // Figure 4: GHz/Gbps falls as messages grow.
    let small = run(Direction::Tx, 128, AffinityMode::Full);
    let medium = run(Direction::Tx, 4096, AffinityMode::Full);
    let large = run(Direction::Tx, 65536, AffinityMode::Full);
    assert!(small.cost_ghz_per_gbps() > medium.cost_ghz_per_gbps());
    assert!(medium.cost_ghz_per_gbps() > large.cost_ghz_per_gbps());
}

#[test]
fn clears_by_reason_match_paper_expectations() {
    // Memory-ordering and SMC clears are "near zero"; interrupts and
    // IPIs dominate.
    let no = run(Direction::Rx, 65536, AffinityMode::None);
    let [device, ipi, _fault, ordering, smc] = no.clears_by_reason;
    assert_eq!(ordering, 0);
    assert_eq!(smc, 0);
    assert!(device > 0);
    let full = run(Direction::Rx, 65536, AffinityMode::Full);
    assert!(
        full.clears_by_reason[1] < ipi.max(1),
        "full affinity should not increase IPI clears"
    );
}

#[test]
fn four_processor_runs_show_worse_cpu0_bottleneck() {
    // §5: on 4P systems, no-affinity is even more CPU0-bound.
    let mut config = ExperimentConfig::four_processor(Direction::Rx, 16384, AffinityMode::None);
    config.workload.warmup_messages = 4;
    config.workload.measure_messages = 8;
    let no = run_experiment(&config).unwrap().metrics;
    let others_avg: f64 = (1..4).map(|c| no.cpu_utilization(c)).sum::<f64>() / 3.0;
    assert!(
        no.cpu_utilization(0) > others_avg,
        "CPU0 {:.2} should exceed the others' average {:.2}",
        no.cpu_utilization(0),
        others_avg
    );
}

#[test]
fn loss_injection_triggers_reno_recovery_without_deadlock() {
    // Non-zero wire loss: Reno timeouts fire, frames are retransmitted,
    // and the run still completes with every byte delivered.
    let mut config = ExperimentConfig::paper_sut(Direction::Tx, 16384, AffinityMode::Full);
    config.workload.warmup_messages = 4;
    config.workload.measure_messages = 10;
    config.tunables.loss_rate = 0.02;
    let m = run_experiment(&config).unwrap().metrics;
    assert_eq!(m.messages, 80);
    assert_eq!(m.bytes_moved, 80 * 16384);

    // Lossy runs are slower than clean ones.
    let mut clean = config.clone();
    clean.tunables.loss_rate = 0.0;
    let c = run_experiment(&clean).unwrap().metrics;
    assert!(
        m.throughput_mbps() < c.throughput_mbps(),
        "loss {:.0} vs clean {:.0}",
        m.throughput_mbps(),
        c.throughput_mbps()
    );
}

#[test]
fn congestion_window_limits_early_inflight() {
    // With a tiny max cwnd the sender cannot fill the send buffer, so
    // throughput drops versus the default window.
    let mut narrow = ExperimentConfig::paper_sut(Direction::Tx, 65536, AffinityMode::Full);
    narrow.workload.warmup_messages = 4;
    narrow.workload.measure_messages = 8;
    narrow.stack.max_cwnd = 4;
    narrow.stack.initial_cwnd = 2;
    let n = run_experiment(&narrow).unwrap().metrics;

    let mut wide = narrow.clone();
    wide.stack.max_cwnd = 256;
    let w = run_experiment(&wide).unwrap().metrics;
    assert!(
        n.throughput_mbps() < w.throughput_mbps() * 0.8,
        "narrow {:.0} vs wide {:.0}",
        n.throughput_mbps(),
        w.throughput_mbps()
    );
}

#[test]
fn dynamic_steering_recovers_most_of_full_affinity_without_pinning() {
    // The paper's conclusion: Flow-Director-style adapters that steer
    // interrupts to the consumer's CPU should get affinity benefits
    // without static configuration.
    let mk = |steer: SteerSpec| {
        let mut c = ExperimentConfig::paper_sut(Direction::Rx, 16384, AffinityMode::None);
        c.workload.warmup_messages = 8;
        c.workload.measure_messages = 20;
        c.steer = steer;
        run_experiment(&c).unwrap().metrics
    };
    let no = mk(AffinityMode::None.steer_preset());
    let rss = mk(SteerSpec::flow_director_unconfigured());
    let full = mk(AffinityMode::Full.steer_preset());
    assert!(
        rss.throughput_mbps() > no.throughput_mbps() * 1.05,
        "rss {:.0} vs no {:.0}",
        rss.throughput_mbps(),
        no.throughput_mbps()
    );
    assert!(
        rss.throughput_mbps() > no.throughput_mbps()
            && rss.throughput_mbps() <= full.throughput_mbps() * 1.05,
        "rss {:.0} should approach full {:.0}",
        rss.throughput_mbps(),
        full.throughput_mbps()
    );
}

#[test]
fn irq_rotation_runs_and_spreads_interrupt_load() {
    // Linux 2.6's rotate-the-vector scheme: better than everything-on-
    // CPU0 for balance, but "cache inefficiencies are still unavoidable"
    // — it should not beat full affinity.
    let mut rot = ExperimentConfig::paper_sut(Direction::Rx, 16384, AffinityMode::None);
    rot.workload.warmup_messages = 8;
    rot.workload.measure_messages = 20;
    rot.tunables.irq_rotation_cycles = 3_000_000;
    let r = run_experiment(&rot).unwrap().metrics;

    let mut full = rot.clone();
    full.tunables.irq_rotation_cycles = 0;
    full.steer = AffinityMode::Full.steer_preset();
    let f = run_experiment(&full).unwrap().metrics;

    assert!(r.messages > 0);
    assert!(
        f.throughput_mbps() > r.throughput_mbps(),
        "full {:.0} must beat rotation {:.0}",
        f.throughput_mbps(),
        r.throughput_mbps()
    );
}
