//! Cross-crate substrate integration: the cache model, CPU model, OS
//! model and stack interact the way the machine depends on.

use affinity_repro::substrate::{sim_core, sim_cpu, sim_mem, sim_net, sim_os, sim_prof, sim_tcp};
use sim_core::{ConnectionId, CpuId, IrqVector, SimRng};
use sim_cpu::{ClearReason, Core, CpuConfig};
use sim_mem::{MemoryConfig, MemorySystem};
use sim_net::{Nic, NicConfig};
use sim_prof::Profiler;
use sim_tcp::{ExecCtx, StackConfig, TcpStack};

struct Rig {
    mem: MemorySystem,
    cores: Vec<Core>,
    prof: Profiler,
    rng: SimRng,
    stack: TcpStack,
    nic: Nic,
}

fn rig() -> Rig {
    let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
    let nic = Nic::new(
        sim_core::DeviceId::new(0),
        &[IrqVector::new(0x19)],
        NicConfig::default(),
        &mut mem,
    );
    let stack = TcpStack::new(
        StackConfig::paper(),
        &mut mem,
        &[nic.rx_buffers(0)],
        &[IrqVector::new(0x19)],
        65536,
    )
    .unwrap();
    Rig {
        cores: vec![
            Core::new(CpuId::new(0), CpuConfig::paper_sut()),
            Core::new(CpuId::new(1), CpuConfig::paper_sut()),
        ],
        prof: Profiler::new(2),
        rng: SimRng::new(9),
        mem,
        stack,
        nic,
    }
}

const CONN: ConnectionId = ConnectionId::new(0);

#[test]
fn cross_cpu_stack_execution_costs_more_than_colocated() {
    // The core mechanism of the whole paper, at substrate level: running
    // the ACK path on a different CPU than the send path costs extra
    // cycles through coherence misses.
    let measure = |cross: bool| {
        let mut r = rig();
        let ack_cpu = usize::from(cross);
        let mut total = 0u64;
        for round in 0..40 {
            {
                let mut ctx = ExecCtx::new(&mut r.cores[0], &mut r.mem, &mut r.prof, &mut r.rng);
                r.stack.sendmsg(&mut ctx, CONN, 8192, cross);
            }
            {
                let mut ctx =
                    ExecCtx::new(&mut r.cores[ack_cpu], &mut r.mem, &mut r.prof, &mut r.rng);
                r.stack.rx_ack(&mut ctx, CONN, 6, cross);
                r.stack.tx_complete(&mut ctx, CONN, r.nic.tx_ring(0), 6);
            }
            if round >= 10 {
                // skip warm-up
                total = r.cores.iter().map(Core::busy_cycles).sum();
            }
        }
        total
    };
    let colocated = measure(false);
    let split = measure(true);
    assert!(
        split > colocated + colocated / 50,
        "split {split} should cost measurably more than colocated {colocated}"
    );
}

#[test]
fn dma_then_copy_misses_propagate_through_stack() {
    let mut r = rig();
    let rx_ring = r.nic.rx_ring(0);
    // Frames DMA in, bottom half queues them, recvmsg copies them out.
    for _ in 0..4 {
        r.nic.dma_rx_frame(0, &mut r.mem, 1448);
    }
    {
        let mut ctx = ExecCtx::new(&mut r.cores[0], &mut r.mem, &mut r.prof, &mut r.rng);
        r.stack
            .rx_bottom_half(&mut ctx, CONN, &[1448; 4], rx_ring, false);
        r.stack.recvmsg(&mut ctx, CONN, 65536, false);
    }
    let copies = r
        .prof
        .func_total(r.stack.registry().lookup("__copy_to_user").unwrap());
    assert!(
        copies.llc_misses >= 4 * 20,
        "each DMA'd frame (~23 lines) must miss on copy: {copies:?}"
    );
}

#[test]
fn machine_clears_show_up_in_core_and_profiler_consistently() {
    let mut r = rig();
    let before = r.cores[0].counters().machine_clears;
    let penalty = r.cores[0].machine_clear(ClearReason::DeviceInterrupt);
    assert_eq!(penalty, 500);
    assert_eq!(r.cores[0].counters().machine_clears, before + 1);
    assert_eq!(r.cores[0].clears_for(ClearReason::DeviceInterrupt), 1);
    assert_eq!(r.cores[0].clears_for(ClearReason::Ipi), 0);
}

#[test]
fn scheduler_and_ioapic_compose_for_the_four_modes() {
    use sim_os::{CpuMask, IoApic, Scheduler, SchedulerConfig};
    // The paper's full-affinity wiring: tasks pinned to their NIC's CPU.
    let mut apic = IoApic::new(2);
    let mut sched = Scheduler::new(SchedulerConfig::new(2));
    let vectors: Vec<IrqVector> = (0..8).map(|i| IrqVector::new(0x19 + i)).collect();
    for (i, &v) in vectors.iter().enumerate() {
        let cpu = CpuId::new(u32::from(i >= 4));
        apic.set_affinity(v, CpuMask::single(cpu)).unwrap();
        let task = sched
            .spawn(format!("ttcp{i}"), CpuMask::single(cpu))
            .unwrap();
        let placement = sched.wake(task, apic.route(v), true).unwrap();
        assert_eq!(placement.cpu, cpu, "task follows its interrupt");
        assert!(!placement.needs_resched_ipi);
    }
    assert_eq!(sched.load(CpuId::new(0)), 4);
    assert_eq!(sched.load(CpuId::new(1)), 4);
}

#[test]
fn profiler_totals_match_core_counters_for_stack_work() {
    let mut r = rig();
    {
        let mut ctx = ExecCtx::new(&mut r.cores[0], &mut r.mem, &mut r.prof, &mut r.rng);
        r.stack.sendmsg(&mut ctx, CONN, 16384, false);
    }
    // Every cycle the core spent is attributed to some function.
    assert_eq!(
        r.prof.cpu_total(CpuId::new(0)).cycles,
        r.cores[0].counters().cycles
    );
    assert_eq!(
        r.prof.cpu_total(CpuId::new(0)).instructions,
        r.cores[0].counters().instructions
    );
}
