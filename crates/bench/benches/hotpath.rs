//! Micro-benches for the substrate hot paths the sweep runner leans on:
//! the memory system's slot-cached residency fast path, the coherence
//! ping-pong slow path and the flat directory walk, plus the sharded
//! event queue under a retransmission-timer storm. These isolate
//! `sim-mem` and `sim-core` so a regression in `cargo bench hotpath`
//! points at the substrate rather than the workload model.

use criterion::{criterion_group, criterion_main, Criterion};
use sim_core::{CpuId, ShardedEventQueue, SimRng, SimTime};
use sim_mem::{MemoryConfig, MemorySystem};
use std::hint::black_box;

const CPU0: CpuId = CpuId::new(0);
const CPU1: CpuId = CpuId::new(1);

/// Repeated reads of an L1-resident connection context: after the first
/// two touches the residency summary engages and every iteration should
/// replay by slot (no directory traffic, no set scans).
fn bench_touch_hot_region(c: &mut Criterion) {
    c.bench_function("touch_hot_region", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let ctx = mem.add_region("conn.tcp_ctx", 1536);
        mem.data_touch(CPU0, ctx, 0, 1536, false);
        mem.data_touch(CPU0, ctx, 0, 1536, false);
        b.iter(|| black_box(mem.data_touch(CPU0, ctx, 0, 1536, false)));
    });
}

/// Two CPUs alternately writing the same context: every touch invalidates
/// the other hierarchy, so each iteration takes the full coherence walk —
/// the no-affinity ping-pong the paper measures, and the simulator's
/// worst case.
fn bench_touch_pingpong(c: &mut Criterion) {
    c.bench_function("touch_pingpong", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let ctx = mem.add_region("conn.tcp_ctx", 1536);
        b.iter(|| {
            black_box(mem.data_touch(CPU0, ctx, 0, 1536, true));
            black_box(mem.data_touch(CPU1, ctx, 0, 1536, true));
        });
    });
}

/// Streaming reads over a payload-sized region that dwarfs the L1: every
/// line misses inward, exercising the dense directory array and the
/// L2/LLC levels rather than the summary fast paths.
fn bench_directory_lookup(c: &mut Criterion) {
    c.bench_function("directory_lookup", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let buf = mem.add_region("payload", 64 * 1024);
        let mut offset = 0u64;
        b.iter(|| {
            // March through the buffer so the L1 keeps turning over.
            black_box(mem.data_touch(CPU0, buf, offset, 4096, false));
            offset = (offset + 4096) % (64 * 1024);
        });
    });
}

/// A single-line read of a hot per-flow counter: the smallest possible
/// touch, so fixed per-call overhead (address resolution, TLB probe,
/// summary check) dominates. The floor every other path builds on.
fn bench_touch_single_line_hit(c: &mut Criterion) {
    c.bench_function("touch_single_line_hit", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let ctx = mem.add_region("conn.tcb_word", 64);
        mem.data_touch(CPU0, ctx, 0, 64, false);
        mem.data_touch(CPU0, ctx, 0, 64, false);
        b.iter(|| black_box(mem.data_touch(CPU0, ctx, 0, 64, false)));
    });
}

/// An exact-repeat 2 KB line run on a region too big for the whole-region
/// summary (16 KB > L1): the span-claim fast path must engage and replay
/// the 32-line run by pre-resolved slot — the line-run batch the TX
/// payload path lives on.
fn bench_span_line_run_replay(c: &mut Criterion) {
    c.bench_function("span_line_run_replay", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let buf = mem.add_region("tx.payload", 16 * 1024);
        mem.data_touch(CPU0, buf, 4096, 2048, false);
        mem.data_touch(CPU0, buf, 4096, 2048, false);
        b.iter(|| black_box(mem.data_touch(CPU0, buf, 4096, 2048, false)));
    });
}

/// Repeated whole-region writes from one CPU: after the first pass the
/// region's live exclusivity count equals its line count, so every
/// iteration takes the O(1) exclusivity check and the directory-free
/// write walk (no sharer narrows, no generation bumps).
fn bench_write_exclusive_region(c: &mut Criterion) {
    c.bench_function("write_exclusive_region", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let ctx = mem.add_region("conn.tcp_ctx", 1536);
        mem.data_touch(CPU0, ctx, 0, 1536, true);
        mem.data_touch(CPU0, ctx, 0, 1536, true);
        b.iter(|| black_box(mem.data_touch(CPU0, ctx, 0, 1536, true)));
    });
}

/// One receive descriptor's worth of directory delta: a DMA write
/// resets 4 KB of sharer state (incremental `excl` deltas + batched
/// generation bumps), then the consuming CPU's read refills it with
/// scan-free fills and per-line residency records. The Rx payload
/// churn that dominates the figure matrix.
fn bench_dma_directory_delta(c: &mut Criterion) {
    c.bench_function("dma_directory_delta", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let buf = mem.add_region("rx.ring_buf", 4096);
        b.iter(|| {
            mem.dma_write(buf, 0, 4096);
            black_box(mem.data_touch(CPU0, buf, 0, 4096, false));
        });
    });
}

/// A pending event of the retry-storm bench: a fixed-delay timer, or a
/// far-future event stored on a lane.
enum StormEvent {
    Timer,
    Lane(usize),
}

/// The event queue in the shape of the 16-CPU × 100k-slot churn cell's
/// SYN-retry storm, in steady state: 17 lanes holding ~170k far-future
/// events, plus 12.5k arena-full retries, each re-armed exactly one RTO
/// past the watermark when it fires. Lane events re-arm 0–134M cycles
/// out, so ~92% of pops are timers, as in the cell (20.4M of 22.4M).
/// One iteration is 1000 pop + re-push steps, so the reported time per
/// iteration in µs reads as ns per step. The queue is built once and
/// stays in steady state across samples.
fn bench_event_queue_retry_storm(c: &mut Criterion) {
    const LANES: usize = 17;
    const DEVICE_LANE: usize = LANES - 1;
    const LANE_EVENTS: u64 = 170_000;
    const TIMERS: u64 = 12_500;
    const RTO: u64 = 400_000;
    const LANE_DELAY: u64 = 134_000_000;
    let mut rng = SimRng::new(13);
    let mut q = ShardedEventQueue::new(LANES);
    for i in 0..LANE_EVENTS {
        let lane = i as usize % LANES;
        let at = SimTime::from_cycles(rng.next_below(LANE_DELAY));
        q.push(lane, at, StormEvent::Lane(lane));
    }
    for i in 0..TIMERS {
        let at = SimTime::from_cycles(i * RTO / TIMERS);
        q.push_timer(DEVICE_LANE, at, StormEvent::Timer);
    }
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(200);
    group.bench_function("retry_storm_1k_steps", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                let (t, event) = q.pop().expect("steady state never drains");
                match event {
                    StormEvent::Timer => q.push_timer(DEVICE_LANE, t + RTO, StormEvent::Timer),
                    StormEvent::Lane(lane) => {
                        let at = t + rng.next_below(LANE_DELAY);
                        q.push(lane, at, StormEvent::Lane(lane));
                    }
                }
            }
            black_box(q.peek_time())
        });
    });
    group.finish();
}

criterion_group!(
    hotpath,
    bench_touch_hot_region,
    bench_touch_pingpong,
    bench_directory_lookup,
    bench_touch_single_line_hit,
    bench_span_line_run_replay,
    bench_write_exclusive_region,
    bench_dma_directory_delta,
    bench_event_queue_retry_storm
);
criterion_main!(hotpath);
