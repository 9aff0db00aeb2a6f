//! Layer probes for the traced run: each times a fixed, seeded stream of
//! calls into one layer's public functions, outside any machine, so a
//! change to that layer shows here before it shows end to end.

use std::hint::black_box;
use std::time::Instant;

use affinity_sim::{steer::FlowDirector, FlowPlacement, SteeringPolicy};
use sim_core::{ConnectionId, CpuId, IrqVector, ShardedEventQueue, SimRng, SimTime};
use sim_mem::{MemoryConfig, MemorySystem, RegionName, RegionPlan};
use sim_prof::SteerCounters;
use sim_tcp::{StackConfig, TcpStack};

use crate::run::Layer;
use crate::stats::median;

const CPU0: CpuId = CpuId::new(0);
const CPU1: CpuId = CpuId::new(1);

/// Host nanoseconds per operation of `op` over `ops` operations, median
/// of five timed passes after one untimed pass. `op` gets the pass-wide
/// state from `setup`, built outside the timing.
fn ns_per_op<S>(ops: u64, mut setup: impl FnMut() -> S, mut op: impl FnMut(&mut S, u64)) -> f64 {
    let samples: Vec<f64> = (0..6)
        .map(|_| {
            let mut state = setup();
            let t = Instant::now();
            for i in 0..ops {
                op(&mut state, i);
            }
            black_box(&mut state);
            t.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .collect();
    median(&samples[1..])
}

/// Push + pop on a 16-lane sharded event queue holding 100k pending
/// events, at seeded lanes and delays.
fn queue_ns() -> f64 {
    const PENDING: u64 = 100_000;
    ns_per_op(
        200_000,
        || {
            let mut rng = SimRng::new(0x0E0E);
            let mut q = ShardedEventQueue::with_capacity(16, 8_192);
            for i in 0..PENDING {
                q.push(
                    rng.next_below(16) as usize,
                    SimTime::from_cycles(rng.next_below(1 << 20)),
                    i,
                );
            }
            (q, rng)
        },
        |(q, rng), i| {
            let at = q.now().cycles() + rng.next_below(1 << 20);
            q.push(rng.next_below(16) as usize, SimTime::from_cycles(at), i);
            black_box(q.pop());
        },
    )
}

/// The sim-mem hot paths: a hot 1.5 KB context read, a 2 KB span replay
/// in a 16 KB buffer, two CPUs ping-ponging a context, and a 4 KB DMA
/// write followed by the consuming read.
fn mem_probes() -> [(&'static str, f64); 4] {
    let mem = || MemorySystem::new(MemoryConfig::paper_sut(2));
    let touch_hit = ns_per_op(
        100_000,
        || {
            let mut m = mem();
            let ctx = m.add_region("conn.tcp_ctx", 1536);
            m.data_touch(CPU0, ctx, 0, 1536, false);
            (m, ctx)
        },
        |(m, ctx), _| {
            black_box(m.data_touch(CPU0, *ctx, 0, 1536, false));
        },
    );
    let span_replay = ns_per_op(
        100_000,
        || {
            let mut m = mem();
            let buf = m.add_region("tx.payload", 16 * 1024);
            m.data_touch(CPU0, buf, 4096, 2048, false);
            (m, buf)
        },
        |(m, buf), _| {
            black_box(m.data_touch(CPU0, *buf, 4096, 2048, false));
        },
    );
    let pingpong = ns_per_op(
        20_000,
        || {
            let mut m = mem();
            let ctx = m.add_region("conn.tcp_ctx", 1536);
            (m, ctx)
        },
        |(m, ctx), i| {
            let cpu = if i % 2 == 0 { CPU0 } else { CPU1 };
            black_box(m.data_touch(cpu, *ctx, 0, 1536, true));
        },
    );
    let dma_refill = ns_per_op(
        5_000,
        || {
            let mut m = mem();
            let buf = m.add_region("rx.ring_buf", 4096);
            (m, buf)
        },
        |(m, buf), _| {
            m.dma_write(*buf, 0, 4096);
            black_box(m.data_touch(CPU0, *buf, 0, 4096, false));
        },
    );
    [
        ("probe.sim-mem.touch_hit_ns", touch_hit),
        ("probe.sim-mem.span_replay_ns", span_replay),
        ("probe.sim-mem.pingpong_ns", pingpong),
        ("probe.sim-mem.dma_refill_ns", dma_refill),
    ]
}

/// `add_regions_bulk` of a 100k-flow plan with the six per-flow regions
/// (and sizes) of the churn cells, in ns per flow, median of three.
fn bulk_ns_per_flow() -> f64 {
    const FLOWS: u32 = 100_000;
    let stack = StackConfig::paper();
    let app_buf = 32 * 1024;
    let regions = [
        ("tcp_ctx", stack.tcp_ctx_bytes),
        ("sock", stack.sock_bytes),
        ("skb_meta", 16 * 1024),
        ("skb_data", 64 * 1024),
        ("tx_app_buf", app_buf),
        ("rx_app_buf", app_buf),
    ];
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut m = MemorySystem::new(MemoryConfig::paper_sut(16));
            let mut plan = RegionPlan::with_capacity(regions.len() * FLOWS as usize);
            for conn in 0..FLOWS {
                for &(suffix, size) in &regions {
                    plan.add(RegionName::indexed("conn", conn, suffix), size);
                }
            }
            let t = Instant::now();
            black_box(m.add_regions_bulk(plan));
            t.elapsed().as_secs_f64() * 1e9 / f64::from(FLOWS)
        })
        .collect();
    median(&samples)
}

/// Flow Director filter install on accept and teardown on close: each
/// op opens a seeded flow on a seeded CPU and closes the oldest of 512
/// live ones.
fn flowdir_open_close_ns() -> f64 {
    const LIVE: usize = 512;
    ns_per_op(
        200_000,
        || {
            let fd = FlowDirector::new(FlowPlacement::RssHash, 1024, 600);
            (
                fd,
                SimRng::new(0xF10D),
                std::collections::VecDeque::new(),
                SteerCounters::default(),
            )
        },
        |(fd, rng, live, counters), _| {
            let flow = rng.next_below(100_000) as usize;
            fd.flow_opened(flow, CpuId::new(rng.next_below(16) as u32), counters);
            live.push_back(flow);
            if live.len() > LIVE {
                let old = live.pop_front().expect("non-empty");
                fd.flow_closed(old, counters);
            }
        },
    )
}

/// Flow-slot alloc/free on a 4096-slot listening stack: a seeded
/// 50/50 stream of allocating a slot and freeing a random live one.
fn flow_alloc_free_ns() -> f64 {
    const SLOTS: usize = 4096;
    ns_per_op(
        200_000,
        || {
            let mut mem = MemorySystem::new(MemoryConfig::paper_sut(4));
            let dma: Vec<_> = (0..4)
                .map(|q| mem.add_region(RegionName::indexed("nic", q, "rx_buffers"), 64 * 1024))
                .collect();
            let conn_dma: Vec<_> = (0..SLOTS).map(|f| dma[f % 4]).collect();
            let vectors: Vec<IrqVector> = (0..4).map(|v| IrqVector::new(0x19 + v)).collect();
            let mut stack =
                TcpStack::new(StackConfig::paper(), &mut mem, &conn_dma, &vectors, 4096)
                    .expect("valid stack config");
            stack.listen(1024);
            (
                stack,
                SimRng::new(0xA110C),
                Vec::<ConnectionId>::with_capacity(SLOTS),
            )
        },
        |(stack, rng, live), _| {
            if live.is_empty() || (live.len() < SLOTS && rng.chance(0.5)) {
                live.push(stack.flow_alloc().expect("a free slot"));
            } else {
                let victim = rng.next_below(live.len() as u64) as usize;
                stack.flow_free(live.swap_remove(victim));
            }
        },
    )
}

/// Every probe, in the order the per-layer table lists them.
pub fn run_all() -> Vec<Layer> {
    let mut out = vec![("probe.sim-core.queue_ns", queue_ns(), "ns")];
    out.extend(mem_probes().map(|(name, v)| (name, v, "ns")));
    out.push(("probe.sim-mem.bulk_ns_per_flow", bulk_ns_per_flow(), "ns"));
    out.push((
        "probe.steer.flowdir_open_close_ns",
        flowdir_open_close_ns(),
        "ns",
    ));
    out.push((
        "probe.sim-tcp.flow_alloc_free_ns",
        flow_alloc_free_ns(),
        "ns",
    ));
    out
}
