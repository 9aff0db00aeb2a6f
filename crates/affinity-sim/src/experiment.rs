//! Experiment configuration and the measurement harness.

use sim_core::Result;
use sim_cpu::CpuConfig;
use sim_mem::MemoryConfig;
use sim_net::NicConfig;
use sim_prof::{FunctionRegistry, PollCounters, Profiler, SteerCounters};
use sim_tcp::StackConfig;

use crate::machine::Machine;
use crate::metrics::{LifecycleCounters, RunMetrics};
use crate::mode::AffinityMode;
use crate::steer::SteerSpec;
use crate::workload::{Direction, ServerWorkload, Workload};

/// Timing/capacity knobs of the machine model that are not part of any
/// single substrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tunables {
    /// Socket send-buffer capacity in MSS segments.
    pub send_buf_segments: u32,
    /// Frames the peer keeps in flight toward the SUT (RX workload).
    pub peer_window: u32,
    /// Socket receive-buffer size in bytes: the advertised TCP window.
    /// The peer stops sending when unread data plus in-flight frames
    /// would exceed it.
    pub rcv_buf_bytes: u64,
    /// Round-trip latency to the client, in cycles (ACK return time).
    pub rtt_cycles: u64,
    /// Wire cost per byte in cycles (16 ≈ 1 Gbps at 2 GHz).
    pub wire_cycles_per_byte: u64,
    /// Interrupt-moderation timeout (flushes partial coalescing batches).
    pub coalesce_flush_cycles: u64,
    /// Interrupt delivery latency from device assertion to CPU flush.
    pub irq_latency_cycles: u64,
    /// Scheduler round-robin slice (compressed relative to Linux's 50 ms
    /// epochs so short simulated runs still interleave tasks).
    pub timeslice_cycles: u64,
    /// Probability a device interrupt's machine clear is attributed to
    /// the IRQ handler symbol itself rather than skidding into the
    /// interrupted function.
    pub skid_to_handler: f64,
    /// Fixed cost of an address-space switch.
    pub context_switch_cycles: u64,
    /// Mean jitter between peer frame arrivals (cycles).
    pub arrival_jitter_cycles: f64,
    /// Pipeline flushes per device-interrupt delivery. Interrupt entry,
    /// EOI and `iret` are all serializing on the P4's deep pipeline; the
    /// paper's Figure 5 clear counts imply well over one flush per
    /// interrupt.
    pub clears_per_device_interrupt: u32,
    /// Pipeline flushes per IPI received.
    pub clears_per_ipi: u32,
    /// Linux 2.6-style interrupt rotation period in cycles (0 = off):
    /// every period, each vector's affinity moves to the next CPU —
    /// the related-work scheme whose "cache inefficiencies are still
    /// unavoidable".
    pub irq_rotation_cycles: u64,
    /// Probability that a transmitted frame is lost on the wire (the
    /// paper's LAN is lossless; non-zero values exercise Reno recovery).
    pub loss_rate: f64,
    /// Retransmission timeout in cycles (compressed like the other
    /// latencies so recovery fits the simulated windows).
    pub rto_cycles: u64,
    /// Margin (in interrupt-load fraction) by which a CPU may exceed the
    /// least interrupt-loaded CPU and still attract wake-affine
    /// hand-offs. A CPU carrying disproportionate interrupt work — the
    /// no-affinity default CPU0 — repels processes instead.
    pub irq_load_gate: f64,
}

impl Default for Tunables {
    fn default() -> Self {
        Tunables {
            send_buf_segments: 64,
            peer_window: 32,
            rcv_buf_bytes: 64 * 1024,
            rtt_cycles: 100_000,      // 50 µs at 2 GHz
            wire_cycles_per_byte: 16, // 1 Gbps
            coalesce_flush_cycles: 24_000,
            irq_latency_cycles: 2_000,
            timeslice_cycles: 6_000_000,
            skid_to_handler: 0.5,
            context_switch_cycles: 1_200,
            arrival_jitter_cycles: 200.0,
            clears_per_device_interrupt: 3,
            clears_per_ipi: 8,
            irq_load_gate: 0.10,
            irq_rotation_cycles: 0,
            loss_rate: 0.0,
            rto_cycles: 400_000,
        }
    }
}

/// Which dataplane services the NICs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DataplaneMode {
    /// The paper's interrupt-driven host stack: coalesced IRQs, top/
    /// bottom halves, scheduler wakeups, cross-CPU IPIs. The default —
    /// every pre-existing experiment runs bit-identically.
    #[default]
    Interrupt,
    /// DPDK-style kernel bypass: every CPU is a busy-polling PMD core
    /// that owns the NIC queues its steering `vector_home` maps to it and
    /// runs rx burst → protocol → app to completion, core-locally. No
    /// IRQ, no IPI, no softirq, no scheduler — and no HLT: idle cores
    /// spin, and that burn is charged as busy cycles.
    Poll,
}

/// Poll-dataplane knobs (ignored under [`DataplaneMode::Interrupt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataplaneConfig {
    /// Interrupt-driven or busy-poll.
    pub mode: DataplaneMode,
    /// Max descriptors drained from one queue per poll iteration
    /// (DPDK's `rx_burst` size); 0 counts as 1.
    pub burst: u32,
    /// Cycles one empty poll iteration burns: the ring-tail probe (an
    /// LLC-resident load once the line settles) plus the `pause`-loop
    /// overhead around it; 0 counts as 1.
    pub empty_poll_cycles: u64,
}

impl Default for DataplaneConfig {
    fn default() -> Self {
        DataplaneConfig {
            mode: DataplaneMode::Interrupt,
            burst: 32,
            empty_poll_cycles: 120,
        }
    }
}

/// Full description of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of CPUs (the paper's SUT has 2; §5 mentions 4P runs).
    pub cpus: usize,
    /// Number of NIC ports (interrupt vectors / DMA engines).
    pub nics: usize,
    /// Number of TCP connections (flows) = `ttcp` processes. The paper's
    /// SUT runs one flow per NIC; the scale sweep multiplexes many flows
    /// onto each NIC — round-robin (`flow % nics`) in the Figure 3
    /// modes, hash-steered under [`AffinityMode::Rss`].
    pub connections: usize,
    /// Affinity mode under test.
    pub mode: AffinityMode,
    /// The `ttcp` workload.
    pub workload: Workload,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// Memory hierarchy geometry.
    pub mem: MemoryConfig,
    /// CPU model (frequency, event penalties).
    pub cpu: CpuConfig,
    /// TCP stack cost model.
    pub stack: StackConfig,
    /// NIC geometry and coalescing.
    pub nic: NicConfig,
    /// Machine-level knobs.
    pub tunables: Tunables,
    /// Explicit steering configuration. `None` (the default everywhere)
    /// falls back to the [`AffinityMode`] preset bundle —
    /// [`AffinityMode::steer_preset`] — so the paper matrix is untouched;
    /// `Some` overrides the mode entirely (e.g.
    /// [`SteerSpec::flow_director`]).
    pub steer: Option<SteerSpec>,
    /// Dataplane selection and poll-mode knobs. The default
    /// ([`DataplaneMode::Interrupt`]) leaves every interrupt-path
    /// experiment untouched.
    pub dataplane: DataplaneConfig,
    /// Server-side connection churn. `None` (the default everywhere)
    /// runs the immortal-flow `ttcp` workload exactly as before; `Some`
    /// switches the machine to dynamic connections — `connections`
    /// becomes the flow-slot count (the concurrency target), and the
    /// run completes when the configured number of connections has gone
    /// SYN → accept → request/response → FIN → close.
    pub server: Option<ServerWorkload>,
}

impl ExperimentConfig {
    /// The paper's system under test: 2 CPUs, 8 NICs, 8 connections.
    #[must_use]
    pub fn paper_sut(direction: Direction, message_bytes: u64, mode: AffinityMode) -> Self {
        ExperimentConfig {
            cpus: 2,
            nics: 8,
            connections: 8,
            mode,
            workload: Workload::steady_state(direction, message_bytes),
            seed: 0x5EED,
            mem: MemoryConfig::paper_sut(2),
            cpu: CpuConfig::paper_sut(),
            stack: StackConfig::paper(),
            nic: NicConfig::default(),
            tunables: Tunables::default(),
            steer: None,
            dataplane: DataplaneConfig::default(),
            server: None,
        }
    }

    /// The effective steering configuration: the explicit [`SteerSpec`]
    /// when set, the mode's preset bundle otherwise. The machine builds
    /// its policy from this — it never looks at the mode directly.
    #[must_use]
    pub fn steer_spec(&self) -> SteerSpec {
        self.steer.unwrap_or_else(|| self.mode.steer_preset())
    }

    /// The §5 four-processor variant (4 CPUs, still 8 NICs).
    #[must_use]
    pub fn four_processor(direction: Direction, message_bytes: u64, mode: AffinityMode) -> Self {
        let mut config = ExperimentConfig::paper_sut(direction, message_bytes, mode);
        config.cpus = 4;
        config.mem = MemoryConfig::paper_sut(4);
        config
    }

    /// A scaled-up SUT: `cpus` CPUs each owning one NIC queue (so
    /// `nics == cpus`), carrying `flows` connections. Round-robin
    /// flow→queue assignment in the Figure 3 modes; hash steering under
    /// [`AffinityMode::Rss`]. Message counts are the quick-run defaults —
    /// the sweep multiplies work by the flow count already.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is outside `1..=32` or `flows` is zero.
    #[must_use]
    pub fn scale(direction: Direction, cpus: usize, flows: usize, mode: AffinityMode) -> Self {
        assert!(
            (1..=MemoryConfig::MAX_CPUS).contains(&cpus),
            "scale supports 1..=32 CPUs"
        );
        assert!(flows > 0, "need at least one flow");
        let mut config = ExperimentConfig::paper_sut(direction, 4096, mode);
        config.cpus = cpus;
        config.nics = cpus;
        config.connections = flows;
        config.mem = MemoryConfig::paper_sut(cpus);
        config.workload = config.workload.quick();
        config
    }

    /// A multi-queue SUT for the steering sweep: `cpus` CPUs, one NIC
    /// port per four CPUs (minimum one) with four MSI-X queues each —
    /// so queues total `cpus` when `cpus >= 4` — carrying `flows`
    /// connections under an explicit steering `spec`. Quick-run message
    /// counts, like [`ExperimentConfig::scale`].
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is outside `1..=32` or `flows` is zero.
    #[must_use]
    pub fn steer_sweep(direction: Direction, cpus: usize, flows: usize, spec: SteerSpec) -> Self {
        assert!(
            (1..=MemoryConfig::MAX_CPUS).contains(&cpus),
            "steer_sweep supports 1..=32 CPUs"
        );
        assert!(flows > 0, "need at least one flow");
        let mut config = ExperimentConfig::paper_sut(direction, 4096, AffinityMode::Irq);
        config.cpus = cpus;
        config.nics = (cpus / 4).max(1);
        config.nic.queues = 4;
        config.connections = flows;
        config.mem = MemoryConfig::paper_sut(cpus);
        config.workload = config.workload.quick();
        config.steer = Some(spec);
        config
    }

    /// A kernel-bypass SUT for the interrupt-vs-poll sweep: the same
    /// multi-queue geometry as [`ExperimentConfig::steer_sweep`] (one NIC
    /// port per four CPUs, four MSI-X queues each), but with every CPU
    /// running as a busy-polling PMD core. Flows are RSS-hashed across
    /// queues and queues spread evenly across cores, so the comparison
    /// against the interrupt-mode RSS cell is geometry-for-geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is outside `1..=32` or `flows` is zero.
    #[must_use]
    pub fn poll_sweep(direction: Direction, cpus: usize, flows: usize) -> Self {
        let spec = SteerSpec {
            placement: crate::steer::FlowPlacement::RssHash,
            vectors: crate::steer::VectorLayout::SplitEven,
            dynamic: crate::steer::DynamicSteer::Off,
            pin_processes: false,
        };
        let mut config = ExperimentConfig::steer_sweep(direction, cpus, flows, spec);
        config.dataplane.mode = DataplaneMode::Poll;
        config
    }

    /// A connection-churn SUT for the `repro churn` sweep: the
    /// multi-queue [`ExperimentConfig::steer_sweep`] geometry carrying
    /// `flows` dynamic connection slots under `spec` steering and the
    /// chosen `dataplane`, driven by [`ServerWorkload::churn`]. Per-flow
    /// buffers are trimmed (small skb pools, 16-segment send buffers,
    /// 8-frame peer windows, per-segment ACKs) so 100k-slot cells stay
    /// tractable, and `workload.message_bytes` is sized to the largest
    /// response so the stack's skb regions fit every connection.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is outside `1..=32` or `flows` is zero.
    #[must_use]
    pub fn churn(cpus: usize, flows: usize, spec: SteerSpec, dataplane: DataplaneMode) -> Self {
        let server = ServerWorkload::churn(flows as u64);
        let mut config = ExperimentConfig::steer_sweep(Direction::Tx, cpus, flows, spec);
        config.dataplane.mode = dataplane;
        config.workload.message_bytes = server
            .elephant_response_bytes
            .max(server.response_bytes)
            .max(server.request_bytes);
        config.stack.ack_every = 1;
        config.stack.skb_meta_bytes = 16 * 1024;
        config.stack.skb_data_bytes = 64 * 1024;
        config.tunables.send_buf_segments = 16;
        config.tunables.peer_window = 8;
        config.server = Some(server);
        config
    }

    /// Shrinks the workload for fast tests.
    #[must_use]
    pub fn quick(mut self) -> Self {
        self.workload = self.workload.quick();
        if let Some(server) = self.server {
            self.server = Some(server.quick());
        }
        self
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything a finished run yields: the numeric summary plus the full
/// per-CPU, per-function profile needed for Table 1/3/4 rendering.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// Numeric summary.
    pub metrics: RunMetrics,
    /// Per-CPU, per-function event matrix (measurement window only).
    pub profiler: Profiler,
    /// Symbol table matching the profiler.
    pub registry: FunctionRegistry,
    /// Interrupt vectors in global queue order (one per NIC on the
    /// paper SUT's single-queue ports).
    pub vectors: Vec<sim_core::IrqVector>,
    /// Steering counters from the measurement window (all zero under
    /// the paper's static modes).
    pub steer: SteerCounters,
    /// Busy-poll counters aggregated over all PMD cores (all zero under
    /// [`DataplaneMode::Interrupt`]).
    pub poll: PollCounters,
    /// Busy-poll counters per CPU (empty under
    /// [`DataplaneMode::Interrupt`]).
    pub poll_per_cpu: Vec<PollCounters>,
    /// Connection-lifecycle counters (all zero for the immortal-flow
    /// `ttcp` workloads, populated by server/churn runs).
    pub lifecycle: LifecycleCounters,
    /// Host wall-clock seconds spent *constructing* the machine (region
    /// slab provisioning, scheduler spawn, peers), as opposed to running
    /// it. A host-side measurement only: it never feeds simulated
    /// metrics or digests, so it varies run to run while everything else
    /// stays bit-identical.
    pub setup_wall_s: f64,
}

/// Builds the machine, runs the workload to completion and returns the
/// measured result.
///
/// # Errors
///
/// Returns a configuration error if the experiment description is
/// invalid (bad masks, zero-size messages, …).
///
/// # Example
///
/// ```
/// use affinity_sim::{AffinityMode, Direction, ExperimentConfig, run_experiment};
///
/// let config = ExperimentConfig::paper_sut(Direction::Rx, 1024, AffinityMode::Irq).quick();
/// let result = run_experiment(&config)?;
/// assert!(result.metrics.messages > 0);
/// # Ok::<(), sim_core::SimError>(())
/// ```
pub fn run_experiment(config: &ExperimentConfig) -> Result<RunResult> {
    let setup = std::time::Instant::now();
    let mut machine = Machine::new(config)?;
    let setup_wall_s = setup.elapsed().as_secs_f64();
    let metrics = machine.run();
    Ok(RunResult {
        config: config.clone(),
        metrics,
        profiler: machine.profiler().clone(),
        registry: machine.registry().clone(),
        vectors: machine.vectors().to_vec(),
        steer: machine.steer_stats(),
        poll: machine.poll_stats(),
        poll_per_cpu: machine.poll_stats_per_cpu(),
        lifecycle: machine.lifecycle_stats(),
        setup_wall_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sut_shape() {
        let c = ExperimentConfig::paper_sut(Direction::Tx, 65536, AffinityMode::Full);
        assert_eq!(c.cpus, 2);
        assert_eq!(c.nics, 8);
        assert_eq!(c.cpu.freq.hertz(), 2_000_000_000);
        let four = ExperimentConfig::four_processor(Direction::Tx, 65536, AffinityMode::None);
        assert_eq!(four.cpus, 4);
        assert_eq!(four.nics, 8);
    }

    #[test]
    fn quick_run_tx_completes() {
        let config = ExperimentConfig::paper_sut(Direction::Tx, 4096, AffinityMode::Full).quick();
        let result = run_experiment(&config).unwrap();
        assert_eq!(
            result.metrics.messages,
            u64::from(config.workload.measure_messages) * 8
        );
        assert!(result.metrics.throughput_gbps() > 0.0);
        assert!(result.metrics.bytes_moved > 0);
    }

    #[test]
    fn quick_run_rx_completes() {
        let config = ExperimentConfig::paper_sut(Direction::Rx, 4096, AffinityMode::None).quick();
        let result = run_experiment(&config).unwrap();
        assert!(result.metrics.messages > 0);
        assert!(result.metrics.throughput_gbps() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let config = ExperimentConfig::paper_sut(Direction::Tx, 1024, AffinityMode::Irq).quick();
        let a = run_experiment(&config).unwrap();
        let b = run_experiment(&config).unwrap();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn different_seeds_differ_slightly() {
        let base = ExperimentConfig::paper_sut(Direction::Tx, 1024, AffinityMode::None).quick();
        let a = run_experiment(&base).unwrap();
        let b = run_experiment(&base.clone().with_seed(99)).unwrap();
        // Same message count, but timing details may shift.
        assert_eq!(a.metrics.messages, b.metrics.messages);
    }

    #[test]
    fn all_modes_run_both_directions() {
        for mode in AffinityMode::ALL {
            for dir in Direction::ALL {
                let config = ExperimentConfig::paper_sut(dir, 1024, mode).quick();
                let r = run_experiment(&config).unwrap();
                assert!(r.metrics.messages > 0, "{mode} {dir} produced nothing");
            }
        }
    }

    #[test]
    fn four_processor_runs() {
        let config =
            ExperimentConfig::four_processor(Direction::Tx, 4096, AffinityMode::Full).quick();
        let r = run_experiment(&config).unwrap();
        assert_eq!(r.metrics.busy_cycles.len(), 4);
        assert!(r.metrics.messages > 0);
    }

    #[test]
    fn scale_config_shape() {
        let c = ExperimentConfig::scale(Direction::Rx, 16, 256, AffinityMode::Rss);
        assert_eq!(c.cpus, 16);
        assert_eq!(c.nics, 16);
        assert_eq!(c.connections, 256);
        assert_eq!(c.mode, AffinityMode::Rss);
    }

    #[test]
    fn scale_run_with_more_flows_than_nics_completes() {
        for mode in [AffinityMode::Full, AffinityMode::Rss] {
            let mut config = ExperimentConfig::scale(Direction::Rx, 2, 6, mode);
            config.workload.warmup_messages = 2;
            config.workload.measure_messages = 3;
            let r = run_experiment(&config).unwrap();
            assert_eq!(r.metrics.messages, 3 * 6, "{mode}");
            assert!(r.metrics.throughput_gbps() > 0.0, "{mode}");
        }
    }

    #[test]
    fn scale_runs_are_deterministic() {
        let mut config = ExperimentConfig::scale(Direction::Tx, 4, 12, AffinityMode::Rss);
        config.workload.warmup_messages = 2;
        config.workload.measure_messages = 3;
        let a = run_experiment(&config).unwrap();
        let b = run_experiment(&config).unwrap();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn steer_spec_falls_back_to_the_mode_preset() {
        let c = ExperimentConfig::paper_sut(Direction::Tx, 4096, AffinityMode::Full);
        assert_eq!(c.steer_spec(), AffinityMode::Full.steer_preset());
        let mut c = c;
        c.steer = Some(SteerSpec::flow_director());
        assert_eq!(c.steer_spec(), SteerSpec::flow_director());
    }

    #[test]
    fn steer_sweep_builds_multi_queue_suts() {
        let c = ExperimentConfig::steer_sweep(Direction::Rx, 16, 64, SteerSpec::flow_director());
        assert_eq!(c.cpus, 16);
        assert_eq!(c.nics, 4);
        assert_eq!(c.nic.queues, 4);
        assert_eq!(c.connections, 64);
        let small = ExperimentConfig::steer_sweep(Direction::Rx, 2, 8, SteerSpec::flow_director());
        assert_eq!(small.nics, 1, "at least one NIC port");
    }

    #[test]
    fn flow_director_run_completes_and_resteers() {
        let mut config =
            ExperimentConfig::steer_sweep(Direction::Rx, 4, 12, SteerSpec::flow_director());
        config.workload.warmup_messages = 2;
        config.workload.measure_messages = 3;
        let r = run_experiment(&config).unwrap();
        assert_eq!(r.metrics.messages, 3 * 12);
        assert!(r.metrics.throughput_gbps() > 0.0);
        // The director chases free-running consumers: some re-steering
        // must have happened on a 4-CPU box with 12 unpinned flows.
        assert!(r.steer.resteers > 0, "{:?}", r.steer);
    }

    #[test]
    fn poll_sweep_builds_poll_mode_suts() {
        let c = ExperimentConfig::poll_sweep(Direction::Rx, 16, 64);
        assert_eq!(c.dataplane.mode, DataplaneMode::Poll);
        assert_eq!(c.cpus, 16);
        assert_eq!(c.nics, 4);
        assert_eq!(c.nic.queues, 4);
        // The default config stays on the interrupt plane.
        let paper = ExperimentConfig::paper_sut(Direction::Rx, 4096, AffinityMode::Irq);
        assert_eq!(paper.dataplane.mode, DataplaneMode::Interrupt);
    }

    #[test]
    fn poll_rx_runs_with_no_interrupts_clears_or_ipis() {
        let mut config = ExperimentConfig::poll_sweep(Direction::Rx, 4, 12);
        config.workload.warmup_messages = 2;
        config.workload.measure_messages = 3;
        let r = run_experiment(&config).unwrap();
        assert_eq!(r.metrics.messages, 3 * 12);
        assert!(r.metrics.throughput_gbps() > 0.0);
        // The whole point of kernel bypass: zero interrupts, zero
        // machine clears, zero IPIs, zero scheduler traffic.
        assert_eq!(r.metrics.interrupts, 0);
        assert_eq!(
            r.metrics.clears_by_reason.iter().sum::<u64>(),
            0,
            "{:?}",
            r.metrics.clears_by_reason
        );
        assert_eq!(r.metrics.resched_ipis, 0);
        assert_eq!(r.metrics.wake_migrations, 0);
        // Poll accounting is live and spin was charged somewhere.
        assert!(r.poll.polls > 0, "{:?}", r.poll);
        assert!(r.poll.rx_frames > 0);
        assert_eq!(r.poll_per_cpu.len(), 4);
    }

    #[test]
    fn poll_tx_runs_and_prices_burned_cores() {
        let mut config = ExperimentConfig::poll_sweep(Direction::Tx, 4, 12);
        config.workload.warmup_messages = 2;
        config.workload.measure_messages = 3;
        let r = run_experiment(&config).unwrap();
        assert_eq!(r.metrics.messages, 3 * 12);
        assert_eq!(r.metrics.interrupts, 0);
        assert!(r.poll.tx_frames > 0, "{:?}", r.poll);
        // Every PMD core is busy for the whole measurement window: spin
        // fills whatever work leaves idle, so per-core busy ≈ wall.
        let wall = r.metrics.wall_cycles;
        for (c, &busy) in r.metrics.busy_cycles.iter().enumerate() {
            assert!(
                busy >= wall * 9 / 10,
                "PMD core {c} busy {busy} not ≈ wall {wall}"
            );
        }
    }

    #[test]
    fn poll_runs_are_deterministic() {
        let mut config = ExperimentConfig::poll_sweep(Direction::Rx, 4, 12);
        config.workload.warmup_messages = 2;
        config.workload.measure_messages = 3;
        let a = run_experiment(&config).unwrap();
        let b = run_experiment(&config).unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.poll, b.poll);
        assert_eq!(a.poll_per_cpu, b.poll_per_cpu);
    }

    #[test]
    fn interrupt_runs_report_zero_poll_counters() {
        let config = ExperimentConfig::paper_sut(Direction::Rx, 4096, AffinityMode::Irq).quick();
        let r = run_experiment(&config).unwrap();
        assert_eq!(r.poll, PollCounters::default());
        assert!(r.poll_per_cpu.is_empty());
    }

    #[test]
    fn flow_director_runs_are_deterministic() {
        let mut config =
            ExperimentConfig::steer_sweep(Direction::Rx, 4, 12, SteerSpec::flow_director());
        config.workload.warmup_messages = 2;
        config.workload.measure_messages = 3;
        let a = run_experiment(&config).unwrap();
        let b = run_experiment(&config).unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.steer, b.steer);
    }

    #[test]
    fn aggregate_targets_bound_the_window_machine_wide() {
        // With per-connection targets, 8 flows x 3 measured messages
        // means 24 measured messages; with aggregate targets the same
        // numbers are machine-wide totals — the knob the million-flow
        // cells rely on to keep the run window independent of the
        // provisioned flow count.
        let mut config = ExperimentConfig::scale(Direction::Rx, 2, 8, AffinityMode::Rss);
        config.workload.warmup_messages = 2;
        config.workload.measure_messages = 3;
        let per_conn = run_experiment(&config).unwrap();
        assert_eq!(per_conn.metrics.messages, 24);
        config.workload.aggregate_targets = true;
        let aggregate = run_experiment(&config).unwrap();
        assert_eq!(aggregate.metrics.messages, 3);
        // Both runs are deterministic on their own terms.
        let again = run_experiment(&config).unwrap();
        assert_eq!(aggregate.metrics, again.metrics);
    }

    #[test]
    fn quiet_provisioned_flows_do_not_perturb_the_streaming_set() {
        // A machine with 512 provisioned flows streaming on the first 8
        // runs the exact same measurement as a machine with only those 8:
        // quiet flows hold state (arena slot, page region, parked task)
        // but never source a frame, enter a bottom half, or run. The
        // million-flow cells depend on this — the quiet tail must be
        // construction cost only, not run-loop cost.
        let mut small = ExperimentConfig::scale(Direction::Rx, 2, 8, AffinityMode::Rss);
        small.workload.aggregate_targets = true;
        small.workload.warmup_messages = 2;
        small.workload.measure_messages = 6;
        let baseline = run_experiment(&small).unwrap();
        let mut wide = ExperimentConfig::scale(Direction::Rx, 2, 512, AffinityMode::Rss);
        wide.workload = small.workload;
        wide.workload.active_conns = 8;
        let provisioned = run_experiment(&wide).unwrap();
        assert_eq!(provisioned.metrics.messages, baseline.metrics.messages);
        assert_eq!(
            provisioned.metrics.wall_cycles,
            baseline.metrics.wall_cycles
        );
    }

    #[test]
    fn churn_config_shape() {
        let c = ExperimentConfig::churn(8, 64, SteerSpec::flow_director(), DataplaneMode::Poll);
        assert_eq!(c.cpus, 8);
        assert_eq!(c.connections, 64);
        assert_eq!(c.dataplane.mode, DataplaneMode::Poll);
        let server = c.server.expect("churn sets a server workload");
        assert_eq!(server.total_conns(), 64 + 32);
        assert_eq!(c.stack.ack_every, 1, "server flows ACK every segment");
        // Responses fit the per-connection buffers.
        assert!(server.elephant_response_bytes <= c.stack.skb_data_bytes);
        // quick() shrinks the connection budget too.
        let q = c.quick();
        assert!(q.server.expect("still server").total_conns() <= server.total_conns());
    }

    #[test]
    fn churn_interrupt_run_completes_and_drains() {
        let config =
            ExperimentConfig::churn(4, 24, SteerSpec::flow_director(), DataplaneMode::Interrupt)
                .quick();
        let r = run_experiment(&config).unwrap();
        let total = config.server.unwrap().total_conns();
        assert!(r.lifecycle.accepts > 0, "{:?}", r.lifecycle);
        assert!(r.lifecycle.completes > 0, "{:?}", r.lifecycle);
        assert!(
            r.lifecycle.backlog_drops > 0,
            "the overbooked arrival wave must contend for slots: {:?}",
            r.lifecycle
        );
        assert!(r.lifecycle.completes <= total);
        assert!(r.lifecycle.fct_p50_cycles > 0);
        assert!(r.lifecycle.fct_p99_cycles >= r.lifecycle.fct_p50_cycles);
        // Drain invariants: no live slots, no leaked FlowDirector entries.
        assert_eq!(r.lifecycle.final_live_flows, 0, "{:?}", r.lifecycle);
        assert_eq!(r.lifecycle.final_table_entries, 0, "{:?}", r.lifecycle);
        assert!(r.metrics.bytes_moved > 0);
        assert!(r.metrics.interrupts > 0);
    }

    #[test]
    fn churn_poll_run_completes_and_drains() {
        let config =
            ExperimentConfig::churn(4, 24, SteerSpec::flow_director(), DataplaneMode::Poll).quick();
        let r = run_experiment(&config).unwrap();
        assert!(r.lifecycle.accepts > 0, "{:?}", r.lifecycle);
        assert!(r.lifecycle.completes > 0, "{:?}", r.lifecycle);
        assert_eq!(r.lifecycle.final_live_flows, 0, "{:?}", r.lifecycle);
        assert_eq!(r.lifecycle.final_table_entries, 0, "{:?}", r.lifecycle);
        // Kernel bypass stays bypassed under churn.
        assert_eq!(r.metrics.interrupts, 0);
        assert_eq!(r.metrics.clears_by_reason.iter().sum::<u64>(), 0);
    }

    #[test]
    fn churn_runs_are_deterministic() {
        for plane in [DataplaneMode::Interrupt, DataplaneMode::Poll] {
            let config = ExperimentConfig::churn(4, 24, SteerSpec::flow_director(), plane).quick();
            let a = run_experiment(&config).unwrap();
            let b = run_experiment(&config).unwrap();
            assert_eq!(a.metrics, b.metrics, "{plane:?}");
            assert_eq!(a.lifecycle, b.lifecycle, "{plane:?}");
            assert_eq!(a.steer, b.steer, "{plane:?}");
        }
    }

    #[test]
    fn churn_rss_run_reports_no_table() {
        let mut spec = SteerSpec::flow_director();
        spec.dynamic = crate::steer::DynamicSteer::Off;
        let config = ExperimentConfig::churn(4, 24, spec, DataplaneMode::Interrupt).quick();
        let r = run_experiment(&config).unwrap();
        assert!(r.lifecycle.completes > 0);
        assert_eq!(r.lifecycle.final_live_flows, 0);
        // RSS keeps no per-flow table; the occupancy probe reports zero.
        assert_eq!(r.lifecycle.final_table_entries, 0);
    }

    #[test]
    fn immortal_workloads_report_zero_lifecycle() {
        let config = ExperimentConfig::paper_sut(Direction::Tx, 1024, AffinityMode::Irq).quick();
        let r = run_experiment(&config).unwrap();
        assert_eq!(r.lifecycle, LifecycleCounters::default());
    }
}
