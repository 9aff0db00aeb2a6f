//! Property-based tests for wire segmentation, NIC accounting, and the
//! poll-mode dataplane's SPSC ring/mempool substrate.

use proptest::prelude::*;
use sim_core::{ConnectionId, DeviceId, IrqVector, SimRng};
use sim_mem::{MemoryConfig, MemorySystem};
use sim_net::wire::{segment_count, segments_for};
use sim_net::{CoalesceConfig, Mempool, Nic, NicConfig, Peer, PeerConfig, SpscRing};
use std::collections::VecDeque;

proptest! {
    /// Segmentation conserves bytes and respects the MSS for any
    /// message/MSS combination.
    #[test]
    fn segmentation_conserves_bytes(bytes in 0u64..1_000_000, mss in 1u32..9000) {
        let segs = segments_for(bytes, mss);
        prop_assert_eq!(segs.len() as u64, segment_count(bytes, mss));
        prop_assert_eq!(segs.iter().map(|&s| u64::from(s)).sum::<u64>(), bytes);
        for (i, &s) in segs.iter().enumerate() {
            prop_assert!(s > 0);
            prop_assert!(s <= mss);
            if i + 1 < segs.len() {
                prop_assert_eq!(s, mss, "only the tail may be short");
            }
        }
    }

    /// Coalescing: interrupts raised = floor(events / coalesce) plus at
    /// most one more from a final flush; never more than events. Every
    /// frame is DMA'd, past the 256-entry ring too: the device has no
    /// drop path.
    #[test]
    fn coalescing_interrupt_count(frames in 1u32..600, coalesce in 1u32..16) {
        let mut mem = MemorySystem::new(MemoryConfig::tiny(1));
        let config = NicConfig {
            coalesce: CoalesceConfig::FixedCount { events: coalesce },
            ..NicConfig::default()
        };
        let mut nic = Nic::new(DeviceId::new(0), &[IrqVector::new(0x19)], config, &mut mem);
        let mut raised = 0u32;
        for _ in 0..frames {
            nic.dma_rx_frame(0, &mut mem, 64);
            if nic.moderate(0, 0) {
                raised += 1;
            }
        }
        prop_assert_eq!(nic.stats().rx_frames, u64::from(frames));
        prop_assert_eq!(raised, frames / coalesce);
        if nic.flush_coalescing(0) {
            raised += 1;
        }
        prop_assert_eq!(u64::from(raised), nic.stats().interrupts);
        prop_assert!(raised >= frames / coalesce);
        prop_assert!(raised <= frames);
    }

    /// Delayed ACK: over any number of segments, ACKs generated (plus a
    /// final flush) account for every segment at the configured ratio.
    #[test]
    fn peer_ack_accounting(segments in 0u32..500, ack_every in 1u32..8, seed: u64) {
        let config = PeerConfig {
            ack_every,
            ..PeerConfig::default()
        };
        let mut peer = Peer::new(ConnectionId::new(0), config, SimRng::new(seed));
        let mut acks = 0u64;
        for _ in 0..segments {
            if peer.on_data_segment().is_some() {
                acks += 1;
            }
        }
        prop_assert_eq!(acks, u64::from(segments / ack_every));
        let flushed = peer.flush_ack().is_some();
        prop_assert_eq!(flushed, segments % ack_every != 0);
    }

    /// The SPSC ring against a VecDeque model: any interleaving of
    /// pushes and pops loses nothing, duplicates nothing, preserves FIFO
    /// order, and rejects a push exactly when the ring is full. The
    /// stats stay consistent with the model throughout: occupancy
    /// equals pushes minus pops, the high watermark tracks the peak,
    /// and draining at the end returns every surviving value in order.
    #[test]
    fn spsc_ring_matches_fifo_model(capacity in 1usize..70, ops in 0u32..600, seed: u64) {
        let mut ring: SpscRing<u32> = SpscRing::with_capacity(capacity);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut rng = SimRng::new(seed);
        let mut next_value = 0u32;
        let mut peak = 0usize;
        for _ in 0..ops {
            if rng.chance(0.55) {
                let full_before = model.len() == ring.capacity();
                let rejects_before = ring.stats().full_rejects;
                match ring.push(next_value) {
                    Ok(()) => {
                        prop_assert!(!full_before, "push succeeded on a full ring");
                        model.push_back(next_value);
                    }
                    Err(v) => {
                        prop_assert!(full_before, "push rejected on a non-full ring");
                        prop_assert_eq!(v, next_value, "rejected value came back changed");
                        prop_assert_eq!(ring.stats().full_rejects, rejects_before + 1);
                    }
                }
                next_value += 1;
            } else {
                prop_assert_eq!(ring.peek().copied(), model.front().copied());
                prop_assert_eq!(ring.pop(), model.pop_front());
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
            prop_assert_eq!(ring.free(), ring.capacity() - model.len());
            prop_assert_eq!(ring.above_watermark(), model.len() >= ring.watermark());
            peak = peak.max(model.len());
        }
        let stats = ring.stats();
        prop_assert_eq!(stats.pushes - stats.pops, model.len() as u64);
        prop_assert_eq!(stats.high_water, peak);
        // Drain: everything pushed but not yet popped comes out FIFO.
        while let Some(want) = model.pop_front() {
            prop_assert_eq!(ring.pop(), Some(want));
        }
        prop_assert!(ring.is_empty());
        prop_assert_eq!(ring.pop(), None);
    }

    /// Watermark behavior: hits are counted exactly for the pushes that
    /// leave occupancy at or above the 3/4 watermark, and the watermark
    /// itself always sits strictly between half and full capacity.
    #[test]
    fn spsc_ring_watermark_counts_every_engaging_push(capacity in 1usize..200, fill in 0usize..256) {
        let mut ring: SpscRing<usize> = SpscRing::with_capacity(capacity);
        let cap = ring.capacity();
        prop_assert!(ring.watermark() > cap / 2);
        prop_assert!(ring.watermark() <= cap);
        let mut expected_hits = 0u64;
        for i in 0..fill.min(cap) {
            ring.push(i).unwrap();
            if i + 1 >= ring.watermark() {
                expected_hits += 1;
            }
        }
        prop_assert_eq!(ring.stats().watermark_hits, expected_hits);
        prop_assert_eq!(ring.above_watermark(), fill.min(cap) >= ring.watermark());
    }

    /// The mempool conserves buffers under any alloc/free interleaving:
    /// in-use plus available always equals capacity, allocation fails
    /// exactly when nothing is available, and the counters never drift
    /// from the model.
    #[test]
    fn mempool_conserves_buffers(capacity in 0usize..40, ops in 0u32..400, seed: u64) {
        let mut pool = Mempool::new(capacity);
        let mut in_use = 0usize;
        let mut failures = 0u64;
        let mut rng = SimRng::new(seed);
        for _ in 0..ops {
            if rng.chance(0.6) {
                let ok = pool.try_alloc();
                prop_assert_eq!(ok, in_use < capacity, "alloc outcome disagrees with model");
                if ok {
                    in_use += 1;
                } else {
                    failures += 1;
                }
            } else if in_use > 0 {
                pool.free();
                in_use -= 1;
            }
            prop_assert_eq!(pool.in_use(), in_use);
            prop_assert_eq!(pool.available(), capacity - in_use);
            prop_assert_eq!(pool.alloc_failures(), failures);
        }
    }

    /// Adaptive moderation bounds: over any event-timestamp sequence,
    /// every batch closes within `max_events`, so total interrupts
    /// (including the final flush) land in
    /// `[ceil(n / max_events), n]` — the coalescer can neither starve a
    /// batch forever nor fire more than once per event.
    #[test]
    fn adaptive_timeout_batches_within_bounds(
        events in 1u32..300,
        min_events in 1u32..8,
        extra in 0u32..8,
        idle_gap in 1u64..5_000,
        seed: u64,
    ) {
        let max_events = min_events + extra;
        let mut c = CoalesceConfig::AdaptiveTimeout {
            min_events,
            max_events,
            idle_gap_cycles: idle_gap,
            timeout_cycles: 10_000,
        }
        .build();
        let mut rng = SimRng::new(seed);
        let mut now = 0u64;
        let mut fired = 0u32;
        let mut batch = 0u32;
        for _ in 0..events {
            // Mix dense and sparse inter-arrival gaps around the knee.
            now += rng.range(0, 2 * idle_gap + 2);
            batch += 1;
            if c.on_event(now) {
                prop_assert!(batch <= max_events, "a batch exceeded max_events");
                fired += 1;
                batch = 0;
            }
            prop_assert_eq!(c.pending(), batch > 0);
        }
        if c.flush() {
            prop_assert!(batch > 0, "flush fired with nothing pending");
            fired += 1;
        }
        prop_assert!(!c.pending());
        prop_assert!(fired >= events.div_ceil(max_events));
        prop_assert!(fired <= events);
    }

    /// With every gap wider than the idle knee the coalescer is in its
    /// latency-sensitive regime: batches close at exactly `min_events`.
    #[test]
    fn adaptive_timeout_sparse_traffic_uses_min_batches(events in 1u32..200, min_events in 1u32..6) {
        let mut c = CoalesceConfig::AdaptiveTimeout {
            min_events,
            max_events: 64,
            idle_gap_cycles: 100,
            timeout_cycles: 10_000,
        }
        .build();
        let mut fired = 0u32;
        for i in 0..u64::from(events) {
            if c.on_event(i * 1_000) {
                fired += 1;
            }
        }
        prop_assert_eq!(fired, events / min_events);
    }

    /// A fixed count of `n` is the adaptive machine with both thresholds
    /// at `n`: over any timestamps (gaps dense or sparse against any
    /// idle knee) the two raise on the same events, and a final flush
    /// finds the same partial batch.
    #[test]
    fn fixed_count_is_adaptive_with_equal_thresholds(
        n in 1u32..10,
        idle_gap in 0u64..5_000,
        gaps in prop::collection::vec(0u64..10_000, 1..200),
    ) {
        let mut fixed = CoalesceConfig::FixedCount { events: n }.build();
        let mut adaptive = CoalesceConfig::AdaptiveTimeout {
            min_events: n,
            max_events: n,
            idle_gap_cycles: idle_gap,
            timeout_cycles: 10_000,
        }
        .build();
        let mut now = 0u64;
        for gap in gaps {
            now += gap;
            prop_assert_eq!(fixed.on_event(now), adaptive.on_event(now));
            prop_assert_eq!(fixed.pending(), adaptive.pending());
        }
        prop_assert_eq!(fixed.flush(), adaptive.flush());
    }
}
