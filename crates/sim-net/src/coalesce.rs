//! Interrupt moderation (coalescing).
//!
//! The paper-era e1000 moderates interrupts by *packet count*: raise one
//! interrupt per N events, with a hardware timer flushing partial
//! batches at the end of a burst. [`Coalescer`] is that per-queue
//! state machine, built from a [`CoalesceConfig`]:
//! [`CoalesceConfig::FixedCount`] is the paper's scheme, and
//! [`CoalesceConfig::AdaptiveTimeout`] is an `ethtool -C
//! adaptive-rx`-style variant that watches inter-arrival gaps and
//! batches aggressively only under load. A fixed count is the adaptive
//! machine with equal thresholds and the machine-level flush period.
//!
//! The machine is deterministic over event timestamps — no wall
//! clocks, no randomness — so simulation results stay bit-reproducible
//! at any worker count.

/// Plain-data description of a queue's interrupt moderation, built
/// into a [`Coalescer`] by [`CoalesceConfig::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalesceConfig {
    /// Raise one interrupt per `events` coalescable events — the
    /// packet-count moderation of the paper-era e1000 driver.
    FixedCount {
        /// Events per interrupt.
        events: u32,
    },
    /// Adaptive moderation: batch up to `max_events` while traffic is
    /// dense (inter-event gap below `idle_gap_cycles`), drop to
    /// `min_events` when traffic is sparse so a lone packet is not
    /// delayed, and flush partial batches after `timeout_cycles`.
    AdaptiveTimeout {
        /// Batch threshold when the queue looks latency-sensitive.
        min_events: u32,
        /// Batch threshold under sustained load.
        max_events: u32,
        /// Gap (cycles) above which traffic counts as sparse.
        idle_gap_cycles: u64,
        /// Moderation-timer period for partial batches.
        timeout_cycles: u64,
    },
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig::FixedCount { events: 4 }
    }
}

impl CoalesceConfig {
    /// Builds the runtime state machine for this configuration.
    #[must_use]
    pub fn build(self) -> Coalescer {
        let (min_events, max_events, idle_gap_cycles, timeout_cycles) = match self {
            CoalesceConfig::FixedCount { events } => (events, events, 0, None),
            CoalesceConfig::AdaptiveTimeout {
                min_events,
                max_events,
                idle_gap_cycles,
                timeout_cycles,
            } => (
                min_events,
                max_events,
                idle_gap_cycles,
                Some(timeout_cycles),
            ),
        };
        Coalescer {
            min_events: min_events.max(1),
            max_events: max_events.max(1),
            idle_gap_cycles,
            timeout_cycles,
            pending: 0,
            last_event: None,
        }
    }
}

/// A queue's interrupt-moderation state machine.
///
/// The device calls [`Coalescer::on_event`] for every coalescable event
/// (an RX frame DMA'd or a TX completion written back) and raises the
/// queue's MSI-X vector when it returns `true`. The machine's moderation
/// timer calls [`Coalescer::flush`] at the end of a burst to drain
/// partial batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coalescer {
    /// Batch threshold after a gap wider than `idle_gap_cycles`.
    min_events: u32,
    /// Batch threshold while events arrive densely.
    max_events: u32,
    idle_gap_cycles: u64,
    /// Own moderation-timer period, or `None` for the machine default.
    timeout_cycles: Option<u64>,
    /// Events batched but not yet signalled.
    pending: u32,
    last_event: Option<u64>,
}

impl Coalescer {
    /// An event occurred at cycle `now`; returns `true` when an
    /// interrupt should be asserted for the accumulated batch.
    pub fn on_event(&mut self, now: u64) -> bool {
        let sparse = self
            .last_event
            .is_none_or(|last| now.saturating_sub(last) > self.idle_gap_cycles);
        self.last_event = Some(now);
        self.pending += 1;
        let threshold = if sparse {
            self.min_events
        } else {
            self.max_events
        };
        if self.pending >= threshold {
            self.pending = 0;
            true
        } else {
            false
        }
    }

    /// The moderation timer fired: returns `true` when a partial batch
    /// was pending (and should raise an interrupt now).
    pub fn flush(&mut self) -> bool {
        let had = self.pending();
        self.pending = 0;
        had
    }

    /// Whether any events are pending (batched but not yet signalled).
    #[must_use]
    pub fn pending(&self) -> bool {
        self.pending > 0
    }

    /// This queue's moderation-timer period, or `None` to use the
    /// machine-level default (`Tunables::coalesce_flush_cycles`).
    #[must_use]
    pub fn timeout_cycles(&self) -> Option<u64> {
        self.timeout_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_count_matches_the_paper_scheme() {
        let mut c = CoalesceConfig::FixedCount { events: 4 }.build();
        let mut raised = 0;
        for i in 0..16 {
            if c.on_event(i * 100) {
                raised += 1;
            }
        }
        assert_eq!(raised, 4);
        assert!(!c.pending());
        assert!(!c.flush());
        assert_eq!(c.timeout_cycles(), None);
    }

    #[test]
    fn fixed_count_flush_drains_partial_batch() {
        let mut c = CoalesceConfig::FixedCount { events: 4 }.build();
        assert!(!c.on_event(0));
        assert!(c.pending());
        assert!(c.flush());
        assert!(!c.pending());
    }

    #[test]
    fn adaptive_batches_under_load_and_not_when_sparse() {
        let cfg = CoalesceConfig::AdaptiveTimeout {
            min_events: 1,
            max_events: 8,
            idle_gap_cycles: 1_000,
            timeout_cycles: 5_000,
        };
        let mut c = cfg.build();
        // First event after idle: latency-sensitive, fires immediately.
        assert!(c.on_event(0));
        // Dense burst: batches of eight.
        let mut raised = 0;
        for i in 0..16 {
            if c.on_event(100 + i * 10) {
                raised += 1;
            }
        }
        assert_eq!(raised, 2);
        // After a long gap the next event fires immediately again.
        assert!(c.on_event(1_000_000));
        assert_eq!(c.timeout_cycles(), Some(5_000));
    }

    #[test]
    fn adaptive_is_deterministic() {
        let cfg = CoalesceConfig::AdaptiveTimeout {
            min_events: 2,
            max_events: 6,
            idle_gap_cycles: 500,
            timeout_cycles: 3_000,
        };
        let stamps: Vec<u64> = (0..40).map(|i| i * 137 % 2_000).collect();
        let run =
            |mut c: Coalescer| -> Vec<bool> { stamps.iter().map(|&t| c.on_event(t)).collect() };
        assert_eq!(run(cfg.build()), run(cfg.build()));
    }
}
