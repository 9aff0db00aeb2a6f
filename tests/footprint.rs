//! Memory proportional to what a run reaches: the coherence directory
//! and the fast-path summaries hold state for the lines and regions a
//! run touches, not for the flows a machine provisions, and a region
//! costs only its record and its summary-holder mask.

use affinity_repro::{AffinityMode, Direction, ExperimentConfig, Machine};
use sim_mem::{Footprint, MemRegion};

/// Runs a scale cell streaming on the first 8 of `flows` provisioned
/// flows and returns its memory footprint, region count and wall cycles.
fn streaming_run(flows: usize) -> (Footprint, usize, u64) {
    let mut config = ExperimentConfig::scale(Direction::Rx, 2, flows, AffinityMode::Rss);
    config.workload.aggregate_targets = true;
    config.workload.warmup_messages = 2;
    config.workload.measure_messages = 6;
    config.workload.active_conns = 8;
    let mut machine = Machine::new(&config).expect("valid config");
    let metrics = machine.run();
    let mem = machine.memory();
    (mem.footprint(), mem.regions().len(), metrics.wall_cycles)
}

/// Every table sim-mem holds, in bytes.
fn total_bytes(f: &Footprint) -> usize {
    f.directory_top_bytes
        + f.directory_leaf_bytes
        + f.summary_cache_bytes
        + f.holder_bytes
        + f.code_summary_bytes
        + f.region_bytes
}

#[test]
fn footprint_follows_the_active_set_not_the_provisioned_flows() {
    let (small, small_regions, small_wall) = streaming_run(512);
    let (large, large_regions, large_wall) = streaming_run(65_536);
    // The same run: quiet flows never source a frame.
    assert_eq!(small_wall, large_wall);
    assert!(small.directory_leaves > 0 && small.summary_entries > 0);
    assert_eq!(small.directory_leaves, large.directory_leaves);
    assert_eq!(small.directory_leaf_bytes, large.directory_leaf_bytes);
    assert_eq!(small.summary_entries, large.summary_entries);
    assert_eq!(small.summary_cache_bytes, large.summary_cache_bytes);
    // A provisioned region costs its 24-byte record and its holder mask,
    // and nothing else.
    assert!(size_of::<MemRegion>() <= 24, "{}", size_of::<MemRegion>());
    let per_region = size_of::<MemRegion>() + size_of::<u32>();
    let grown = total_bytes(&large) - total_bytes(&small);
    let regions = large_regions - small_regions;
    assert!(
        grown <= per_region * regions,
        "{grown} bytes for {regions} more regions: {small:?} vs {large:?}"
    );
}
