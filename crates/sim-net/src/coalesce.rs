//! Interrupt-moderation (coalescing) policies.
//!
//! The paper-era e1000 moderates interrupts by *packet count*: raise one
//! interrupt per N events, with a hardware timer flushing partial
//! batches at the end of a burst. [`CoalescePolicy`] lifts that decision
//! into a per-queue policy object so the machine model can swap
//! moderation schemes without touching the DMA path: [`FixedCount`] is
//! the paper's scheme, [`AdaptiveTimeout`] is an `ethtool -C
//! adaptive-rx`-style variant that watches inter-arrival gaps and
//! batches aggressively only under load.
//!
//! Policies are deterministic state machines over event timestamps —
//! no wall clocks, no randomness — so simulation results stay
//! bit-reproducible at any worker count.

/// Per-queue interrupt-moderation policy.
///
/// The device calls [`CoalescePolicy::on_event`] for every coalescable
/// event (an RX frame DMA'd or a TX completion written back) and raises
/// the queue's MSI-X vector when it returns `true`. The machine's
/// moderation timer calls [`CoalescePolicy::flush`] at the end of a
/// burst to drain partial batches.
pub trait CoalescePolicy: std::fmt::Debug {
    /// An event occurred at cycle `now`; returns `true` when an
    /// interrupt should be asserted for the accumulated batch.
    fn on_event(&mut self, now: u64) -> bool;

    /// The moderation timer fired: returns `true` when a partial batch
    /// was pending (and should raise an interrupt now).
    fn flush(&mut self) -> bool;

    /// Whether any events are pending (batched but not yet signalled).
    fn pending(&self) -> bool;

    /// Policy-specific moderation-timer period, or `None` to use the
    /// machine-level default (`Tunables::coalesce_flush_cycles`).
    fn timeout_cycles(&self) -> Option<u64> {
        None
    }
}

/// Plain-data description of a coalescing policy (the configuration
/// counterpart of the [`CoalescePolicy`] state machines).
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
        match self {
            CoalesceConfig::FixedCount { events } => Coalescer::Fixed(FixedCount {
                events: events.max(1),
                pending: 0,
            }),
            CoalesceConfig::AdaptiveTimeout {
                min_events,
                max_events,
                idle_gap_cycles,
                timeout_cycles,
            } => Coalescer::Adaptive(AdaptiveTimeout {
                min_events: min_events.max(1),
                max_events: max_events.max(1),
                idle_gap_cycles,
                timeout_cycles,
                pending: 0,
                last_event: None,
            }),
        }
    }
}

/// Fixed packet-count moderation (the paper's e1000 scheme).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedCount {
    events: u32,
    pending: u32,
}

impl CoalescePolicy for FixedCount {
    fn on_event(&mut self, _now: u64) -> bool {
        self.pending += 1;
        if self.pending >= self.events {
            self.pending = 0;
            true
        } else {
            false
        }
    }

    fn flush(&mut self) -> bool {
        if self.pending > 0 {
            self.pending = 0;
            true
        } else {
            false
        }
    }

    fn pending(&self) -> bool {
        self.pending > 0
    }
}

/// Gap-watching adaptive moderation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveTimeout {
    min_events: u32,
    max_events: u32,
    idle_gap_cycles: u64,
    timeout_cycles: u64,
    pending: u32,
    last_event: Option<u64>,
}

impl CoalescePolicy for AdaptiveTimeout {
    fn on_event(&mut self, now: u64) -> bool {
        let sparse = match self.last_event {
            Some(last) => now.saturating_sub(last) > self.idle_gap_cycles,
            None => true,
        };
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

    fn flush(&mut self) -> bool {
        if self.pending > 0 {
            self.pending = 0;
            true
        } else {
            false
        }
    }

    fn pending(&self) -> bool {
        self.pending > 0
    }

    fn timeout_cycles(&self) -> Option<u64> {
        Some(self.timeout_cycles)
    }
}

/// A concrete, cloneable coalescer (enum dispatch over the policy
/// implementations, so [`crate::Nic`] stays `Clone`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Coalescer {
    /// Fixed packet-count moderation.
    Fixed(FixedCount),
    /// Adaptive gap-watching moderation.
    Adaptive(AdaptiveTimeout),
}

impl Coalescer {
    fn inner_mut(&mut self) -> &mut dyn CoalescePolicy {
        match self {
            Coalescer::Fixed(p) => p,
            Coalescer::Adaptive(p) => p,
        }
    }

    fn inner(&self) -> &dyn CoalescePolicy {
        match self {
            Coalescer::Fixed(p) => p,
            Coalescer::Adaptive(p) => p,
        }
    }
}

impl CoalescePolicy for Coalescer {
    fn on_event(&mut self, now: u64) -> bool {
        self.inner_mut().on_event(now)
    }

    fn flush(&mut self) -> bool {
        self.inner_mut().flush()
    }

    fn pending(&self) -> bool {
        self.inner().pending()
    }

    fn timeout_cycles(&self) -> Option<u64> {
        self.inner().timeout_cycles()
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
