//! TCP congestion control (Reno, as in Linux 2.4).
//!
//! The paper's `ttcp` runs are steady-state on a lossless LAN, so the
//! congestion window sits at its maximum there; this module exists so
//! the substrate is a *complete* TCP — slow start governs the ramp after
//! connection setup, and loss (available through the machine's
//! loss-injection knob) fires the retransmission timeout, which halves
//! the threshold and restarts slow start.

use serde::{Deserialize, Serialize};

/// Which phase the sender's congestion control is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CongestionPhase {
    /// Exponential ramp: cwnd grows by one segment per ACK.
    SlowStart,
    /// Additive increase: cwnd grows by one segment per window of ACKs.
    CongestionAvoidance,
}

/// Reno congestion state for one connection, in segment units.
///
/// # Example
///
/// ```
/// use sim_tcp::{CongestionPhase, CongestionState};
///
/// let mut cc = CongestionState::new(2, 64);
/// assert_eq!(cc.phase(), CongestionPhase::SlowStart);
/// for _ in 0..10 {
///     cc.on_ack(1);
/// }
/// assert!(cc.cwnd() > 10); // exponential ramp
/// cc.on_timeout();
/// assert_eq!(cc.cwnd(), 2); // back to the initial window
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CongestionState {
    cwnd: u32,
    ssthresh: u32,
    initial_cwnd: u32,
    max_cwnd: u32,
    phase: CongestionPhase,
    /// ACK credit toward the next additive increase.
    ack_credit: u32,
    /// Retransmission timeouts since creation.
    timeouts: u64,
}

impl CongestionState {
    /// Creates a connection starting in slow start.
    ///
    /// # Panics
    ///
    /// Panics if `initial_cwnd` is zero or exceeds `max_cwnd`.
    #[must_use]
    pub fn new(initial_cwnd: u32, max_cwnd: u32) -> Self {
        assert!(initial_cwnd > 0, "initial window must be positive");
        assert!(initial_cwnd <= max_cwnd, "initial window exceeds maximum");
        CongestionState {
            cwnd: initial_cwnd,
            ssthresh: max_cwnd,
            initial_cwnd,
            max_cwnd,
            phase: CongestionPhase::SlowStart,
            ack_credit: 0,
            timeouts: 0,
        }
    }

    /// Current congestion window in segments.
    #[must_use]
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Current slow-start threshold in segments.
    #[must_use]
    pub fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    /// Current phase.
    #[must_use]
    pub fn phase(&self) -> CongestionPhase {
        self.phase
    }

    /// Retransmission timeouts since creation.
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// A cumulative ACK for `segments` new segments arrived.
    pub fn on_ack(&mut self, segments: u32) {
        match self.phase {
            CongestionPhase::SlowStart => {
                self.cwnd = (self.cwnd + segments).min(self.max_cwnd);
                if self.cwnd >= self.ssthresh {
                    self.phase = CongestionPhase::CongestionAvoidance;
                }
            }
            CongestionPhase::CongestionAvoidance => {
                self.ack_credit += segments;
                while self.ack_credit >= self.cwnd && self.cwnd < self.max_cwnd {
                    self.ack_credit -= self.cwnd;
                    self.cwnd += 1;
                }
                self.ack_credit = self.ack_credit.min(self.cwnd);
            }
        }
    }

    /// The retransmission timer fired: collapse to the initial window.
    pub fn on_timeout(&mut self) {
        self.timeouts += 1;
        self.ssthresh = (self.cwnd / 2).max(2);
        self.cwnd = self.initial_cwnd;
        self.ack_credit = 0;
        self.phase = CongestionPhase::SlowStart;
    }

    /// Segments the sender may have in flight right now.
    #[must_use]
    pub fn window(&self) -> u32 {
        self.cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_window() {
        let mut cc = CongestionState::new(2, 1024);
        // ACKing a full window in slow start doubles it.
        let w = cc.cwnd();
        cc.on_ack(w);
        assert_eq!(cc.cwnd(), 2 * w);
    }

    #[test]
    fn slow_start_transitions_at_ssthresh() {
        let mut cc = CongestionState::new(2, 64);
        cc.on_timeout(); // ssthresh = 1, clamped 2; back to slow start
        assert_eq!(cc.phase(), CongestionPhase::SlowStart);
        cc.on_ack(4);
        assert_eq!(cc.phase(), CongestionPhase::CongestionAvoidance);
    }

    #[test]
    fn congestion_avoidance_is_additive() {
        let mut cc = CongestionState::new(2, 64);
        // Drive to CA at cwnd ~10.
        cc.on_ack(62); // cwnd 64 -> hits max & ssthresh -> CA
        assert_eq!(cc.phase(), CongestionPhase::CongestionAvoidance);
        cc.on_timeout();
        // ssthresh 32, slow start to 32 then CA.
        cc.on_ack(30);
        assert_eq!(cc.cwnd(), 32);
        assert_eq!(cc.phase(), CongestionPhase::CongestionAvoidance);
        let w = cc.cwnd();
        cc.on_ack(w); // one full window of acks -> +1
        assert_eq!(cc.cwnd(), w + 1);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut cc = CongestionState::new(3, 64);
        cc.on_ack(40);
        let before = cc.cwnd();
        cc.on_timeout();
        assert_eq!(cc.cwnd(), 3);
        assert_eq!(cc.ssthresh(), (before / 2).max(2));
        assert_eq!(cc.timeouts(), 1);
    }

    #[test]
    fn window_never_exceeds_max() {
        let mut cc = CongestionState::new(2, 16);
        for _ in 0..100 {
            cc.on_ack(8);
        }
        assert!(cc.cwnd() <= 16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_initial_rejected() {
        let _ = CongestionState::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds maximum")]
    fn oversized_initial_rejected() {
        let _ = CongestionState::new(10, 8);
    }
}
