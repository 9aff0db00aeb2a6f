//! Micro-benches for the substrate hot paths the sweep runner leans on:
//! the memory system's slot-cached residency fast path, the coherence
//! ping-pong slow path and the flat directory walk, the sharded event
//! queue under a retransmission-timer storm, and one TCP segment each
//! way through the stack. These isolate `sim-mem`, `sim-core` and
//! `sim-tcp` so a regression in `cargo bench hotpath` points at the
//! substrate rather than the workload model.

use criterion::{criterion_group, criterion_main, Criterion};
use sim_core::{ConnectionId, CpuId, DeviceId, EventQueue, IrqVector, SimRng, SimTime};
use sim_cpu::{Core, CpuConfig};
use sim_mem::{MemoryConfig, MemorySystem};
use sim_net::{Nic, NicConfig};
use sim_prof::Profiler;
use sim_tcp::{ExecCtx, StackConfig, TcpStack};
use std::hint::black_box;

const CPU0: CpuId = CpuId::new(0);
const CPU1: CpuId = CpuId::new(1);

/// Repeated reads of an L1-resident connection context: the whole
/// 24-line region is one touch span, so after the warm-up every iteration
/// is a span-claim replay by slot (no directory traffic, no set scans).
/// The name dates from a removed whole-region summary tier that served
/// this touch; it stays so the benchmark's history stays comparable.
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
/// span-claim lookup) dominates. The floor every other path builds on.
fn bench_touch_single_line_hit(c: &mut Criterion) {
    c.bench_function("touch_single_line_hit", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let ctx = mem.add_region("conn.tcb_word", 64);
        mem.data_touch(CPU0, ctx, 0, 64, false);
        mem.data_touch(CPU0, ctx, 0, 64, false);
        b.iter(|| black_box(mem.data_touch(CPU0, ctx, 0, 64, false)));
    });
}

/// An exact-repeat 2 KB line run inside a region larger than the L1
/// (16 KB): the span-claim fast path must engage and replay the 32-line
/// run by pre-resolved slot — the line-run batch the TX payload path
/// lives on.
fn bench_span_line_run_replay(c: &mut Criterion) {
    c.bench_function("span_line_run_replay", |b| {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let buf = mem.add_region("tx.payload", 16 * 1024);
        mem.data_touch(CPU0, buf, 4096, 2048, false);
        mem.data_touch(CPU0, buf, 4096, 2048, false);
        b.iter(|| black_box(mem.data_touch(CPU0, buf, 4096, 2048, false)));
    });
}

/// Repeated whole-region writes from one CPU: the first pass leaves every
/// line with sharer set `{cpu0}` and claims the span as owned, so every
/// iteration is a span-claim replay of a write (no sharer narrows, no
/// generation bumps). The name dates from a removed directory-free walk
/// that served this touch; it stays so the benchmark's history stays
/// comparable.
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
/// resets 4 KB of sharer state (with batched generation bumps), then the consuming CPU's read refills it with
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
/// far-future calendar event.
enum StormEvent {
    Timer,
    Far,
}

/// The event queue in the shape of the 16-CPU × 100k-slot churn cell's
/// SYN-retry storm, in steady state: ~170k far-future events, plus 12.5k
/// arena-full retries, each re-armed exactly one RTO past the watermark
/// when it fires. Far events re-arm 0–134M cycles out, so ~92% of pops
/// are timers, as in the cell (20.4M of 22.4M). One iteration is 1000
/// pop + re-push steps, so the reported time per iteration in µs reads
/// as ns per step. The queue is built once and stays in steady state
/// across samples.
fn bench_event_queue_retry_storm(c: &mut Criterion) {
    const FAR_EVENTS: u64 = 170_000;
    const TIMERS: u64 = 12_500;
    const RTO: u64 = 400_000;
    const FAR_DELAY: u64 = 134_000_000;
    let mut rng = SimRng::new(13);
    let mut q = EventQueue::new();
    for _ in 0..FAR_EVENTS {
        let at = SimTime::from_cycles(rng.next_below(FAR_DELAY));
        q.push(at, StormEvent::Far);
    }
    for i in 0..TIMERS {
        let at = SimTime::from_cycles(i * RTO / TIMERS);
        q.push_timer(at, StormEvent::Timer);
    }
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(200);
    group.bench_function("retry_storm_1k_steps", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                let (t, event) = q.pop().expect("steady state never drains");
                match event {
                    StormEvent::Timer => q.push_timer(t + RTO, StormEvent::Timer),
                    StormEvent::Far => q.push(t + rng.next_below(FAR_DELAY), StormEvent::Far),
                }
            }
            black_box(q.peek_time())
        });
    });
    group.finish();
}

/// One connection of the paper SUT on a 2-CPU machine: the stack, its
/// NIC port and CPU0's core, profiler and RNG.
struct StackRig {
    mem: MemorySystem,
    core: Core,
    prof: Profiler,
    rng: SimRng,
    stack: TcpStack,
    nic: Nic,
}

const CONN: ConnectionId = ConnectionId::new(0);

impl StackRig {
    fn new() -> Self {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let vectors = [IrqVector::new(0x19)];
        let nic = Nic::new(DeviceId::new(0), &vectors, NicConfig::default(), &mut mem);
        let stack = TcpStack::new(
            StackConfig::paper(),
            &mut mem,
            &[nic.rx_buffers(0)],
            &vectors,
            65536,
        )
        .expect("paper stack config is valid");
        StackRig {
            mem,
            core: Core::new(CPU0, CpuConfig::paper_sut()),
            prof: Profiler::new(2),
            rng: SimRng::new(9),
            stack,
            nic,
        }
    }

    /// Runs `steps` times `f` on CPU0, as the machine's `charge` does.
    fn run(&mut self, steps: usize, mut f: impl FnMut(&mut TcpStack, &mut ExecCtx<'_>, &Nic)) {
        let mut ctx = ExecCtx::new(&mut self.core, &mut self.mem, &mut self.prof, &mut self.rng);
        for _ in 0..steps {
            f(&mut self.stack, &mut ctx, &self.nic);
        }
    }
}

/// The receive half of one MSS segment: `rx_bottom_half` of a single
/// full frame (driver, timestamp, lock, TCP input, socket queueing and
/// every second frame's ACK). Nothing reads the socket, so after the
/// first frame the queue is never empty and no frame pays the reader
/// wakeup — a streaming receiver's steady state. One iteration is 1000
/// segments, so the time per iteration in ms reads as µs per segment.
fn bench_tcp_rx_segment(c: &mut Criterion) {
    let mss = StackConfig::paper().mss;
    let mut rig = StackRig::new();
    let mut group = c.benchmark_group("sim_tcp");
    group.bench_function("rx_segment_1k", |b| {
        b.iter(|| {
            rig.run(1000, |stack, ctx, nic| {
                black_box(stack.rx_bottom_half(ctx, CONN, &[mss], nic.rx_ring(0), false));
            });
        });
    });
    group.finish();
}

/// The transmit half of one MSS segment: `sendmsg` of one MSS of
/// application data, then `driver_tx` of the segment it built, as the
/// machine's transmit path runs them. No ACK or completion is fed back
/// (those are `rx_ack` and `tx_complete`), so only the stack's in-flight
/// counters grow. One iteration is 1000 segments (ms/iter = µs/segment).
fn bench_tcp_tx_segment(c: &mut Criterion) {
    let mss = StackConfig::paper().mss;
    let mut rig = StackRig::new();
    let mut group = c.benchmark_group("sim_tcp");
    group.bench_function("tx_segment_1k", |b| {
        b.iter(|| {
            rig.run(1000, |stack, ctx, nic| {
                let segs = stack.sendmsg(ctx, CONN, u64::from(mss), false);
                for (i, &seg) in segs.iter().enumerate() {
                    black_box(stack.driver_tx(ctx, CONN, nic.tx_ring(0), i as u64, seg));
                }
            });
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
    bench_event_queue_retry_storm,
    bench_tcp_rx_segment,
    bench_tcp_tx_segment
);
criterion_main!(hotpath);
