//! Memory proportional to what a run reaches: the coherence directory
//! and the fast-path summaries hold state for the lines and regions a
//! run touches, not for the flows a machine provisions.

use affinity_repro::{AffinityMode, Direction, ExperimentConfig, Machine};

/// Runs a scale cell streaming on the first 8 of `flows` provisioned
/// flows and returns its memory footprint and wall cycles.
fn streaming_run(flows: usize) -> (sim_mem::Footprint, u64) {
    let mut config = ExperimentConfig::scale(Direction::Rx, 2, flows, AffinityMode::Rss);
    config.workload.aggregate_targets = true;
    config.workload.warmup_messages = 2;
    config.workload.measure_messages = 6;
    config.workload.active_conns = 8;
    let mut machine = Machine::new(&config).expect("valid config");
    let metrics = machine.run();
    (machine.memory().footprint(), metrics.wall_cycles)
}

#[test]
fn footprint_follows_the_active_set_not_the_provisioned_flows() {
    let (small, small_wall) = streaming_run(512);
    let (large, large_wall) = streaming_run(65_536);
    // The same run: quiet flows never source a frame.
    assert_eq!(small_wall, large_wall);
    assert!(small.directory_leaves > 0 && small.summary_entries > 0);
    assert_eq!(small.directory_leaves, large.directory_leaves);
    assert_eq!(small.directory_leaf_bytes, large.directory_leaf_bytes);
    assert_eq!(small.summary_entries, large.summary_entries);
    assert_eq!(small.summary_cache_bytes, large.summary_cache_bytes);
}
