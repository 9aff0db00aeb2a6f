//! Whole-machine determinism and seed-sensitivity guarantees.

use affinity_repro::{
    run_experiment, AffinityMode, DataplaneMode, Direction, ExperimentConfig, RunMetrics, SteerSpec,
};

/// One golden cell: fixed seed and fixed message counts, deliberately
/// independent of the bench harness's count-scaling so the snapshot only
/// moves when simulation *semantics* move.
fn golden_cell(direction: Direction, size: u64, mode: AffinityMode) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_sut(direction, size, mode).with_seed(0x5EED);
    config.workload.warmup_messages = 6;
    config.workload.measure_messages = 18;
    config
}

/// Renders every field of the metrics (scalars, per-CPU vectors, the full
/// event-counter bank, per-bin counters) into one stable line.
fn snapshot_line(label: &str, m: &RunMetrics) -> String {
    format!("{label}: {m:?}")
}

/// Compares rendered snapshot lines against the committed golden file,
/// or rewrites it when `AFFSIM_BLESS` is set (only for a deliberate
/// semantic change): `AFFSIM_BLESS=1 cargo test --test determinism golden`.
fn compare_or_bless(file: &str, lines: &[String]) {
    let rendered = format!("{}\n", lines.join("\n"));
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("AFFSIM_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("committed golden snapshot");
    for (got, want) in rendered.lines().zip(expected.lines()) {
        assert_eq!(
            got, want,
            "simulation results diverged from the golden snapshot {file}"
        );
    }
    assert_eq!(rendered, expected, "golden snapshot line count changed");
}

/// Guards the optimization work on the memory/coherence hot path: results
/// must stay bit-identical to the snapshot captured *before* the flat
/// directory, batched touches, and residency fast path landed.
#[test]
fn results_match_committed_golden_snapshot() {
    let mut lines = Vec::new();
    for &(dir, size) in &[
        (Direction::Tx, 65536),
        (Direction::Tx, 128),
        (Direction::Rx, 65536),
        (Direction::Rx, 128),
    ] {
        for mode in [AffinityMode::None, AffinityMode::Full] {
            let label = format!("{dir} {size}B {}", mode.label());
            let run = run_experiment(&golden_cell(dir, size, mode)).unwrap();
            lines.push(snapshot_line(&label, &run.metrics));
        }
    }
    compare_or_bless("pre_optimization.snap", &lines);
}

/// Guards the scaled configurations the paper never ran: 4 CPUs with one
/// NIC queue per CPU and 12 flows multiplexed over them. Pins down the
/// flow→NIC steering (round-robin in the Figure 3 modes, hash-steered
/// under RSS) and the multi-flow bottom-half poll loop, so scale-path
/// refactors can't silently shift results.
#[test]
fn four_cpu_scale_matches_committed_golden_snapshot() {
    let mut lines = Vec::new();
    for mode in [AffinityMode::Irq, AffinityMode::Full, AffinityMode::Rss] {
        for dir in [Direction::Tx, Direction::Rx] {
            let mut config = ExperimentConfig::scale(dir, 4, 12, mode).with_seed(0x5EED);
            config.workload.warmup_messages = 2;
            config.workload.measure_messages = 6;
            let label = format!("{dir} 4cpu 12flows {}", mode.label());
            let run = run_experiment(&config).unwrap();
            lines.push(snapshot_line(&label, &run.metrics));
        }
    }
    compare_or_bless("four_cpu.snap", &lines);
}

/// Guards transmit cells that carry many flows per queue (16 per queue
/// at 4 CPUs × 64 flows): the only place where a bottom half wakes a
/// sender blocked for send room although its own flow had nothing
/// staged. Pins the wall cycles of the four scale modes, an 8-CPU RSS
/// cell and a Flow Director cell, captured before the bottom half
/// stopped visiting idle flows.
#[test]
fn tx_multi_flow_queues_keep_their_wall_cycles() {
    let mut configs: Vec<ExperimentConfig> = [
        AffinityMode::None,
        AffinityMode::Irq,
        AffinityMode::Full,
        AffinityMode::Rss,
    ]
    .into_iter()
    .map(|mode| ExperimentConfig::scale(Direction::Tx, 4, 64, mode))
    .collect();
    configs.push(ExperimentConfig::scale(
        Direction::Tx,
        8,
        64,
        AffinityMode::Rss,
    ));
    configs.push(ExperimentConfig::steer_sweep(
        Direction::Tx,
        4,
        16,
        SteerSpec::flow_director(),
    ));
    let walls: Vec<u64> = configs
        .iter()
        .map(|config| run_experiment(config).unwrap().metrics.wall_cycles)
        .collect();
    assert_eq!(
        walls,
        [13_403_777, 8_941_221, 8_904_397, 9_260_125, 4_608_320, 2_450_404]
    );
}

/// Guards the dynamic-steering path: the multi-queue Flow Director
/// configuration (4 CPUs, one 4-queue NIC, 12 hash-placed flows with the
/// filter table chasing consumers) alongside the static `four_cpu` cells.
/// The snapshot covers the metrics *and* the steering counters, so
/// re-steer accounting can't drift silently either.
#[test]
fn flow_director_matches_committed_golden_snapshot() {
    let mut lines = Vec::new();
    for dir in [Direction::Tx, Direction::Rx] {
        let mut config =
            ExperimentConfig::steer_sweep(dir, 4, 12, SteerSpec::flow_director()).with_seed(0x5EED);
        config.workload.warmup_messages = 2;
        config.workload.measure_messages = 6;
        let label = format!("{dir} 4cpu 12flows FlowDir");
        let run = run_experiment(&config).unwrap();
        lines.push(format!("{label}: {:?} {:?}", run.metrics, run.steer));
    }
    compare_or_bless("flow_director.snap", &lines);
}

/// Guards the kernel-bypass poll-mode dataplane: 4 busy-polling PMD
/// cores over one 4-queue NIC, 12 RSS-hashed flows, both directions.
/// The snapshot covers the metrics *and* the poll counters (polls,
/// empty polls, spin vs work cycles), so neither the run-to-completion
/// loop nor the idle-burn accounting can drift silently.
#[test]
fn poll_mode_matches_committed_golden_snapshot() {
    let mut lines = Vec::new();
    for dir in [Direction::Tx, Direction::Rx] {
        let mut config = ExperimentConfig::poll_sweep(dir, 4, 12).with_seed(0x5EED);
        config.workload.warmup_messages = 2;
        config.workload.measure_messages = 6;
        let label = format!("{dir} 4cpu 12flows Poll");
        let run = run_experiment(&config).unwrap();
        assert_eq!(
            run.metrics.interrupts, 0,
            "poll mode must take no interrupts"
        );
        lines.push(format!("{label}: {:?} {:?}", run.metrics, run.poll));
    }
    compare_or_bless("poll_mode.snap", &lines);
}

/// Guards the retransmission path on both dataplanes: 2 % wire loss, so
/// the loss draw, the `RtoFire` timer and the retransmitted segment's
/// wire slot all land in the snapshot. The interrupt cell is the paper
/// SUT's bulk send; the poll cell is the 4-core PMD grid point, whose
/// retransmissions run inline on the queue's owning core.
#[test]
fn lossy_matches_committed_golden_snapshot() {
    let mut lines = Vec::new();
    let mut paper =
        ExperimentConfig::paper_sut(Direction::Tx, 16384, AffinityMode::Full).with_seed(0x5EED);
    paper.workload.warmup_messages = 4;
    paper.workload.measure_messages = 10;
    paper.tunables.loss_rate = 0.02;
    let run = run_experiment(&paper).unwrap();
    lines.push(snapshot_line("tx 16384B full lossy", &run.metrics));

    let mut poll = ExperimentConfig::poll_sweep(Direction::Tx, 4, 12).with_seed(0x5EED);
    poll.workload.warmup_messages = 2;
    poll.workload.measure_messages = 6;
    poll.tunables.loss_rate = 0.02;
    let run = run_experiment(&poll).unwrap();
    lines.push(format!(
        "tx 4cpu 12flows Poll lossy: {:?} {:?}",
        run.metrics, run.poll
    ));
    compare_or_bless("lossy.snap", &lines);
}

/// Guards the dynamic-flow lifecycle path: quick churn cells (4 CPUs,
/// 24 connection slots, Flow Director steering) on both dataplanes.
/// The snapshot covers the metrics *and* the lifecycle counters
/// (accepts, completes, drops, FCT percentiles, drain state), so
/// SYN-to-FIN state-machine or arena-recycling changes can't drift
/// silently. Drain invariants are asserted outright: a finished churn
/// run leaves no live flow slots and no steering-table entries behind.
#[test]
fn churn_matches_committed_golden_snapshot() {
    let mut lines = Vec::new();
    for plane in [DataplaneMode::Interrupt, DataplaneMode::Poll] {
        let config = ExperimentConfig::churn(4, 24, SteerSpec::flow_director(), plane)
            .quick()
            .with_seed(0x5EED);
        let label = format!("{plane:?} 4cpu 24slots FlowDir churn");
        let run = run_experiment(&config).unwrap();
        assert!(run.lifecycle.accepts > 0, "churn cell accepted nothing");
        assert!(run.lifecycle.completes > 0, "churn cell completed nothing");
        assert_eq!(run.lifecycle.final_live_flows, 0, "flow slots leaked");
        assert_eq!(
            run.lifecycle.final_table_entries, 0,
            "steering-table entries leaked"
        );
        lines.push(format!("{label}: {:?} {:?}", run.metrics, run.lifecycle));
    }
    compare_or_bless("churn.snap", &lines);
}

/// Guards the interned-name rendering on the report path: per-flow
/// region names are stored as compact `RegionName::Indexed` values since
/// the bulk slab provisioning landed, and the report section that shows
/// them must resolve each one to exactly the eager `format!` string the
/// pre-interning code built. The snapshot renders the memory map of a
/// small flow slab built both ways — byte-identical sections, pinned.
#[test]
fn region_names_match_committed_golden_snapshot() {
    use sim_mem::{MemoryConfig, MemorySystem, RegionName, RegionPlan};

    let fields: [(&str, u64); 6] = [
        ("tcp_ctx", 1344),
        ("sock", 1472),
        ("skb_meta", 4096),
        ("skb_data", 16384),
        ("tx_app_buf", 4096),
        ("rx_app_buf", 4096),
    ];
    // The bulk path: one plan, interned names, single slab carve-out.
    let mut bulk = MemorySystem::new(MemoryConfig::paper_sut(2));
    let mut plan = RegionPlan::with_capacity(fields.len() * 4);
    for flow in 0..4u32 {
        for &(suffix, size) in &fields {
            plan.add(RegionName::indexed("conn", flow, suffix), size);
        }
    }
    bulk.add_regions_bulk(plan);
    // The incremental path: one add_region per region, eager strings.
    let mut incremental = MemorySystem::new(MemoryConfig::paper_sut(2));
    for flow in 0..4u32 {
        for &(suffix, size) in &fields {
            incremental.add_region(format!("conn{flow}.{suffix}"), size);
        }
    }
    let rendered = sim_prof::region_map_report(bulk.regions(), usize::MAX);
    assert_eq!(
        rendered,
        sim_prof::region_map_report(incremental.regions(), usize::MAX),
        "interned names must render byte-identically to the eager strings"
    );
    let lines: Vec<String> = rendered.lines().map(str::to_string).collect();
    compare_or_bless("region_names.snap", &lines);
}

#[test]
fn identical_configs_give_identical_results() {
    let config = ExperimentConfig::paper_sut(Direction::Rx, 4096, AffinityMode::Irq).quick();
    let a = run_experiment(&config).unwrap();
    let b = run_experiment(&config).unwrap();
    assert_eq!(a.metrics, b.metrics);
    // The full profile matrix matches too, function by function, CPU by CPU.
    for (id, _) in a.registry.iter() {
        for c in 0..config.cpus {
            let cpu = sim_core::CpuId::new(c as u32);
            assert_eq!(
                a.profiler.counters(cpu, id),
                b.profiler.counters(cpu, id),
                "profile mismatch for {} on cpu{c}",
                a.registry.name(id)
            );
        }
    }
}

#[test]
fn seed_changes_timing_but_not_accounting_identities() {
    let base = ExperimentConfig::paper_sut(Direction::Tx, 4096, AffinityMode::None).quick();
    for seed in [1, 2, 3] {
        let r = run_experiment(&base.clone().with_seed(seed)).unwrap();
        let m = &r.metrics;
        // Identities that must hold for any seed:
        assert_eq!(m.messages, u64::from(base.workload.measure_messages) * 8);
        assert_eq!(m.bytes_moved, m.messages * base.workload.message_bytes);
        // Profiler totals and bin totals agree.
        let bin_sum: u64 = sim_tcp::Bin::ALL.iter().map(|&b| m.bin(b).cycles).sum();
        assert_eq!(bin_sum, m.total.cycles, "bins must partition all cycles");
        // Busy cycles can't exceed per-CPU wall time by more than slack
        // (events processed after the last measured message).
        for c in 0..base.cpus {
            assert!(m.busy_cycles[c] > 0, "cpu{c} did no work?");
        }
    }
}

#[test]
fn modes_actually_differ() {
    let make = |mode| {
        let mut c = ExperimentConfig::paper_sut(Direction::Rx, 16384, mode);
        c.workload.warmup_messages = 4;
        c.workload.measure_messages = 10;
        run_experiment(&c).unwrap().metrics
    };
    let no = make(AffinityMode::None);
    let full = make(AffinityMode::Full);
    assert_ne!(
        no.wall_cycles, full.wall_cycles,
        "modes should not be identical"
    );
    assert_ne!(no.total.machine_clears, full.total.machine_clears);
}

#[test]
fn four_p_and_two_p_both_deterministic() {
    for cpus in [2usize, 4] {
        let mut config = if cpus == 2 {
            ExperimentConfig::paper_sut(Direction::Tx, 1024, AffinityMode::Full)
        } else {
            ExperimentConfig::four_processor(Direction::Tx, 1024, AffinityMode::Full)
        }
        .quick();
        config.seed = 77;
        let a = run_experiment(&config).unwrap().metrics;
        let b = run_experiment(&config).unwrap().metrics;
        assert_eq!(a, b, "{cpus}P run not deterministic");
    }
}
