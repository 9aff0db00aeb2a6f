//! The NIC device model.

use crate::coalesce::{CoalesceConfig, Coalescer};
use sim_core::{DeviceId, IrqVector};
use sim_mem::{MemorySystem, RegionId};

/// NIC geometry and interrupt-moderation settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfig {
    /// Descriptor ring entries (RX and TX each, per queue).
    pub ring_entries: u32,
    /// Descriptor size in bytes (PRO/1000 legacy descriptors are 16 B).
    pub descriptor_bytes: u32,
    /// Interrupt-moderation policy applied per queue. The default,
    /// [`CoalesceConfig::FixedCount`] with 4 events, is the paper-era
    /// e1000 packet-count scheme.
    pub coalesce: CoalesceConfig,
    /// Bytes of RX buffer memory owned by the device, per queue (DMA
    /// target).
    pub rx_buffer_bytes: u64,
    /// Hardware queues (each with its own rings, buffers, coalescer and
    /// MSI-X vector). The paper-era PRO/1000 has exactly one.
    pub queues: u32,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            ring_entries: 256,
            descriptor_bytes: 16,
            coalesce: CoalesceConfig::default(),
            rx_buffer_bytes: 256 * 2048, // one 2 KB buffer per descriptor
            queues: 1,
        }
    }
}

/// Device counters (aggregated over all queues).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Frames DMA'd to host memory.
    pub rx_frames: u64,
    /// Transmit completions processed.
    pub tx_completions: u64,
    /// Interrupts raised (post-coalescing).
    pub interrupts: u64,
}

/// One hardware queue: descriptor rings, buffers, moderation state and
/// the MSI-X vector it asserts.
#[derive(Debug, Clone)]
struct Queue {
    vector: IrqVector,
    rx_ring: RegionId,
    tx_ring: RegionId,
    rx_buffers: RegionId,
    rx_head: u32,
    tx_head: u32,
    coalescer: Coalescer,
}

/// One NIC port: per-queue descriptor rings, DMA, and interrupt
/// moderation.
///
/// The device performs DMA through the [`MemorySystem`] so cache effects
/// are real: RX DMA invalidates payload lines everywhere (arriving data
/// is uncached), TX DMA leaves the payload cached, and every descriptor
/// write touches the ring region — which, when the driver runs on a *different*
/// CPU than last time, shows up as coherence misses.
///
/// A paper-era NIC has one queue; multi-queue configurations give each
/// queue its own rings, RX buffers, coalescer, and MSI-X vector, which
/// is what lets steering policies place flows on distinct CPUs within a
/// single port.
#[derive(Debug, Clone)]
pub struct Nic {
    id: DeviceId,
    config: NicConfig,
    queues: Vec<Queue>,
    stats: NicStats,
}

impl Nic {
    /// Creates a NIC, allocating per-queue rings and RX buffers in `mem`.
    ///
    /// `vectors` supplies one MSI-X vector per queue.
    ///
    /// # Panics
    /// Panics when `vectors.len()` does not match `config.queues`.
    #[must_use]
    pub fn new(
        id: DeviceId,
        vectors: &[IrqVector],
        config: NicConfig,
        mem: &mut MemorySystem,
    ) -> Self {
        let queues = config.queues.max(1) as usize;
        assert_eq!(
            vectors.len(),
            queues,
            "NIC {id} needs one MSI-X vector per queue"
        );
        let ring_bytes = u64::from(config.ring_entries) * u64::from(config.descriptor_bytes);
        let queues = vectors
            .iter()
            .enumerate()
            .map(|(q, &vector)| {
                // Queue 0 keeps the legacy single-queue region names so
                // existing memory layouts (and their golden snapshots)
                // are unchanged when `queues == 1`.
                let prefix = if q == 0 {
                    format!("{id}")
                } else {
                    format!("{id}.q{q}")
                };
                let rx_ring = mem.add_region(format!("{prefix}.rx_ring"), ring_bytes);
                let tx_ring = mem.add_region(format!("{prefix}.tx_ring"), ring_bytes);
                let rx_buffers =
                    mem.add_region(format!("{prefix}.rx_buffers"), config.rx_buffer_bytes);
                Queue {
                    vector,
                    rx_ring,
                    tx_ring,
                    rx_buffers,
                    rx_head: 0,
                    tx_head: 0,
                    coalescer: config.coalesce.build(),
                }
            })
            .collect();
        Nic {
            id,
            config,
            queues,
            stats: NicStats::default(),
        }
    }

    /// Device id.
    #[must_use]
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Number of hardware queues.
    #[must_use]
    pub fn queues(&self) -> usize {
        self.queues.len()
    }

    /// Interrupt vector queue `queue` asserts.
    #[must_use]
    pub fn vector(&self, queue: usize) -> IrqVector {
        self.queues[queue].vector
    }

    /// The RX descriptor ring region of `queue` (touched by the driver's
    /// RX path).
    #[must_use]
    pub fn rx_ring(&self, queue: usize) -> RegionId {
        self.queues[queue].rx_ring
    }

    /// The TX descriptor ring region of `queue` (touched by the driver's
    /// TX path).
    #[must_use]
    pub fn tx_ring(&self, queue: usize) -> RegionId {
        self.queues[queue].tx_ring
    }

    /// The RX buffer region packets on `queue` are DMA'd into.
    #[must_use]
    pub fn rx_buffers(&self, queue: usize) -> RegionId {
        self.queues[queue].rx_buffers
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &NicConfig {
        &self.config
    }

    /// Policy-specific moderation-timer period for `queue`, or `None`
    /// when the machine-level default applies.
    #[must_use]
    pub fn flush_timeout(&self, queue: usize) -> Option<u64> {
        self.queues[queue].coalescer.timeout_cycles()
    }

    /// A frame of `bytes` payload arrives on `queue`: the device
    /// DMA-writes the payload into the next slot's RX buffer (2 KB each
    /// on the paper NIC), then its descriptor. Arriving payload lands
    /// uncached. Moderation is the caller's next step on the interrupt
    /// plane ([`Nic::moderate`]); a busy-polling PMD core discovers the
    /// descriptor by probing the ring instead.
    pub fn dma_rx_frame(&mut self, queue: usize, mem: &mut MemorySystem, bytes: u32) {
        let entries = self.config.ring_entries;
        let descriptor_bytes = u64::from(self.config.descriptor_bytes);
        let buf_size = self.config.rx_buffer_bytes / u64::from(entries);
        let q = &mut self.queues[queue];
        let slot = u64::from(q.rx_head % entries);
        q.rx_head = q.rx_head.wrapping_add(1);
        mem.dma_write(q.rx_buffers, slot * buf_size, u64::from(bytes));
        mem.dma_write(q.rx_ring, slot * descriptor_bytes, descriptor_bytes);
        self.stats.rx_frames += 1;
    }

    /// The device transmits a queued frame on `queue` and writes back the
    /// completion descriptor. Reading the payload out changes no cache,
    /// so only the descriptor write reaches the memory system.
    /// Moderation, as for [`Nic::dma_rx_frame`], is the interrupt plane's
    /// next step.
    pub fn dma_tx_frame(&mut self, queue: usize, mem: &mut MemorySystem) {
        let entries = self.config.ring_entries;
        let descriptor_bytes = u64::from(self.config.descriptor_bytes);
        let q = &mut self.queues[queue];
        let slot = u64::from(q.tx_head % entries);
        q.tx_head = q.tx_head.wrapping_add(1);
        mem.dma_write(q.tx_ring, slot * descriptor_bytes, descriptor_bytes);
        self.stats.tx_completions += 1;
    }

    /// Steps `queue`'s coalescer for one DMA'd frame or completion at
    /// `now`; `true` (and one counted interrupt) when an interrupt should
    /// be asserted.
    pub fn moderate(&mut self, queue: usize, now: u64) -> bool {
        let fire = self.queues[queue].coalescer.on_event(now);
        self.stats.interrupts += u64::from(fire);
        fire
    }

    /// Flushes any partially-coalesced events on `queue` (the hardware's
    /// moderation timer firing at the end of a burst). Returns `true` if
    /// an interrupt should be asserted.
    pub fn flush_coalescing(&mut self, queue: usize) -> bool {
        if self.queues[queue].coalescer.flush() {
            self.stats.interrupts += 1;
            true
        } else {
            false
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> NicStats {
        self.stats
    }

    /// Resets counters (keeps ring and moderation state).
    pub fn reset_stats(&mut self) {
        self.stats = NicStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::CpuId;
    use sim_mem::MemoryConfig;

    fn setup() -> (MemorySystem, Nic) {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let nic = Nic::new(
            DeviceId::new(0),
            &[IrqVector::new(0x19)],
            NicConfig::default(),
            &mut mem,
        );
        (mem, nic)
    }

    /// An interrupt-plane RX arrival: DMA, then moderation.
    fn rx(nic: &mut Nic, mem: &mut MemorySystem, queue: usize, bytes: u32) -> bool {
        nic.dma_rx_frame(queue, mem, bytes);
        nic.moderate(queue, 0)
    }

    #[test]
    fn coalescing_counts_events() {
        let (mut mem, mut nic) = setup();
        let mut interrupts = 0;
        for _ in 0..16 {
            if rx(&mut nic, &mut mem, 0, 1500) {
                interrupts += 1;
            }
        }
        assert_eq!(interrupts, 4); // 16 frames / coalesce 4
        assert_eq!(nic.stats().rx_frames, 16);
        assert_eq!(nic.stats().interrupts, 4);
    }

    #[test]
    fn flush_fires_partial_batch() {
        let (mut mem, mut nic) = setup();
        assert!(!rx(&mut nic, &mut mem, 0, 100));
        assert!(nic.flush_coalescing(0));
        assert!(!nic.flush_coalescing(0), "nothing pending after flush");
    }

    #[test]
    fn rx_dma_makes_payload_uncached() {
        let (mut mem, mut nic) = setup();
        let cpu = CpuId::new(0);
        // Warm the first RX buffer in CPU0's cache.
        mem.data_touch(cpu, nic.rx_buffers(0), 0, 2048, false);
        assert_eq!(
            mem.data_touch(cpu, nic.rx_buffers(0), 0, 2048, false)
                .llc_misses,
            0
        );
        nic.dma_rx_frame(0, &mut mem, 1500);
        let after = mem.data_touch(cpu, nic.rx_buffers(0), 0, 1500, false);
        assert!(after.llc_misses > 0, "DMA'd payload must be uncached");
    }

    #[test]
    fn tx_dma_counts_completions() {
        let (mut mem, mut nic) = setup();
        let payload = mem.add_region("app.buf", 4096);
        let cpu = CpuId::new(0);
        mem.data_touch(cpu, payload, 0, 4096, true); // app writes buffer
        let mut interrupts = 0;
        for _ in 0..8 {
            nic.dma_tx_frame(0, &mut mem);
            if nic.moderate(0, 0) {
                interrupts += 1;
            }
        }
        assert_eq!(interrupts, 2);
        assert_eq!(nic.stats().tx_completions, 8);
        // Completions touch only the tx ring: the written buffer stays
        // cached for reuse (ttcp reuses the same buffer every iteration —
        // the paper's TX caching setup).
        assert_eq!(mem.data_touch(cpu, payload, 0, 1448, false).llc_misses, 0);
    }

    #[test]
    fn regions_are_distinct() {
        let (_, nic) = setup();
        assert_ne!(nic.rx_ring(0), nic.tx_ring(0));
        assert_ne!(nic.rx_ring(0), nic.rx_buffers(0));
        assert_eq!(nic.vector(0), IrqVector::new(0x19));
        assert_eq!(nic.id(), DeviceId::new(0));
        assert_eq!(nic.queues(), 1);
    }

    #[test]
    fn multi_queue_isolates_rings_and_vectors() {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(4));
        let vectors = [
            IrqVector::new(0x19),
            IrqVector::new(0x1a),
            IrqVector::new(0x1b),
            IrqVector::new(0x1d),
        ];
        let config = NicConfig {
            queues: 4,
            ..NicConfig::default()
        };
        let mut nic = Nic::new(DeviceId::new(0), &vectors, config, &mut mem);
        assert_eq!(nic.queues(), 4);
        for (q, &vector) in vectors.iter().enumerate() {
            assert_eq!(nic.vector(q), vector);
            for p in 0..4 {
                if p != q {
                    assert_ne!(nic.rx_ring(q), nic.rx_ring(p));
                    assert_ne!(nic.rx_buffers(q), nic.rx_buffers(p));
                }
            }
        }
        // Coalescing state is per queue: three frames on q0 leave its
        // batch open; a fourth on q1 does not close q0's batch.
        for _ in 0..3 {
            assert!(!rx(&mut nic, &mut mem, 0, 1500));
        }
        assert!(!rx(&mut nic, &mut mem, 1, 1500));
        assert!(rx(&mut nic, &mut mem, 0, 1500));
        assert!(!nic.flush_coalescing(0), "q0's batch closed on its own");
        assert!(nic.flush_coalescing(1), "q1's lone frame is still open");
    }

    #[test]
    fn adaptive_coalescer_exposes_timeout() {
        let mut mem = MemorySystem::new(MemoryConfig::paper_sut(2));
        let config = NicConfig {
            coalesce: CoalesceConfig::AdaptiveTimeout {
                min_events: 1,
                max_events: 16,
                idle_gap_cycles: 2_000,
                timeout_cycles: 6_000,
            },
            ..NicConfig::default()
        };
        let nic = Nic::new(DeviceId::new(0), &[IrqVector::new(0x19)], config, &mut mem);
        assert_eq!(nic.flush_timeout(0), Some(6_000));
        let fixed = setup().1;
        assert_eq!(fixed.flush_timeout(0), None);
    }

    #[test]
    fn polled_dma_never_interrupts() {
        let (mut mem, mut nic) = setup();
        for _ in 0..64 {
            nic.dma_rx_frame(0, &mut mem, 1500);
        }
        for _ in 0..8 {
            nic.dma_tx_frame(0, &mut mem);
        }
        assert_eq!(nic.stats().rx_frames, 64);
        assert_eq!(nic.stats().tx_completions, 8);
        assert_eq!(
            nic.stats().interrupts,
            0,
            "a PMD core never calls the coalescer"
        );
        // The coalescer holds no half-open batch either.
        assert!(!nic.flush_coalescing(0));
    }

    #[test]
    fn reset_stats() {
        let (mut mem, mut nic) = setup();
        rx(&mut nic, &mut mem, 0, 100);
        nic.reset_stats();
        assert_eq!(nic.stats(), NicStats::default());
    }
}
