//! Ablation benches for the design choices DESIGN.md calls out: each
//! sweeps one mechanism and reports the resulting throughput through
//! criterion (the throughput value is printed so sweeps can be compared).

use affinity_sim::{run_experiment, AffinityMode, Direction, ExperimentConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn base(mode: AffinityMode) -> ExperimentConfig {
    let mut c = ExperimentConfig::paper_sut(Direction::Tx, 16384, mode);
    c.workload.warmup_messages = 4;
    c.workload.measure_messages = 10;
    c
}

/// Machine-clear penalty sweep: how sensitive is the affinity gap to the
/// flush cost (the paper calls its 500-cycle figure a rough average)?
fn ablate_clear_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_clear_cost");
    group.sample_size(10);
    for penalty in [100u64, 500, 1500] {
        group.bench_function(format!("clear_{penalty}"), |b| {
            b.iter(|| {
                let mut config = base(AffinityMode::None);
                config.cpu.costs.machine_clear = penalty;
                let r = run_experiment(&config).unwrap();
                black_box(r.metrics.throughput_mbps());
            });
        });
    }
    group.finish();
}

/// Cache-size sweep: the affinity benefit shrinks when the LLC dwarfs
/// the working set.
fn ablate_cache_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_cache");
    group.sample_size(10);
    for mb in [1u32, 2, 8] {
        group.bench_function(format!("llc_{mb}mb"), |b| {
            b.iter(|| {
                let mut config = base(AffinityMode::Full);
                config.mem.llc_size = mb * 1024 * 1024;
                let r = run_experiment(&config).unwrap();
                black_box(r.metrics.throughput_mbps());
            });
        });
    }
    group.finish();
}

/// Interrupt-coalescing sweep: fewer interrupts per packet means fewer
/// machine clears but longer latency to the bottom half.
fn ablate_coalescing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_coalescing");
    group.sample_size(10);
    for events in [1u32, 4, 16] {
        group.bench_function(format!("coalesce_{events}"), |b| {
            b.iter(|| {
                let mut config = base(AffinityMode::None);
                config.nic.coalesce = affinity_sim::CoalesceConfig::FixedCount { events };
                let r = run_experiment(&config).unwrap();
                black_box(r.metrics.throughput_mbps());
            });
        });
    }
    group.finish();
}

/// Line-size sensitivity of the coherence model.
fn ablate_line_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_line_size");
    group.sample_size(10);
    for line in [32u32, 64, 128] {
        group.bench_function(format!("line_{line}"), |b| {
            b.iter(|| {
                let mut config = base(AffinityMode::None);
                config.mem.line_size = line;
                let r = run_experiment(&config).unwrap();
                black_box(r.metrics.throughput_mbps());
            });
        });
    }
    group.finish();
}

/// Adjusts a base config for one ablation variant.
type Configure = fn(&mut ExperimentConfig);

/// Interrupt-steering policy sweep: static CPU0 vs 2.6 rotation vs
/// RSS-style dynamic steering (the conclusion's future hardware).
fn ablate_steering(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablate_steering");
    group.sample_size(10);
    let policies: [(&str, Configure); 3] = [
        ("static_cpu0", |_| {}),
        ("rotation", |c| c.tunables.irq_rotation_cycles = 3_000_000),
        ("rss_dynamic", |c| {
            c.steer = affinity_sim::SteerSpec::flow_director_unconfigured();
        }),
    ];
    for (name, configure) in policies {
        group.bench_function(name, move |b| {
            b.iter(|| {
                let mut config = base(AffinityMode::None);
                configure(&mut config);
                let r = run_experiment(&config).unwrap();
                black_box(r.metrics.throughput_mbps());
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablate_steering,
    ablate_clear_cost,
    ablate_cache_size,
    ablate_coalescing,
    ablate_line_size
);
criterion_main!(benches);
