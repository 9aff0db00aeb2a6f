//! The client stand-in.
//!
//! The paper's clients are four separate dual-Xeon machines running
//! `ttcp`; they are never the bottleneck. [`Peer`] reproduces their
//! observable behaviour at the SUT's NIC: it acknowledges transmitted
//! segments (delayed ACK, one per two data segments) and sources an
//! endless bulk stream for receive tests, with small deterministic
//! arrival jitter.

use sim_core::{ConnectionId, SimRng};

use crate::wire::{Segment, DEFAULT_MSS};

/// Peer behaviour knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerConfig {
    /// Data segments per ACK (2 = RFC 1122 delayed ACK).
    pub ack_every: u32,
    /// MSS used for sourced data.
    pub mss: u32,
    /// Mean jitter, in cycles, added between sourced frames.
    pub jitter_cycles: f64,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            ack_every: 2,
            mss: DEFAULT_MSS,
            jitter_cycles: 200.0,
        }
    }
}

/// One remote endpoint (one per connection/NIC).
#[derive(Debug, Clone)]
pub struct Peer {
    conn: ConnectionId,
    config: PeerConfig,
    unacked_segments: u32,
    acks_generated: u64,
    bytes_sourced: u64,
    rng: SimRng,
}

impl Peer {
    /// Creates a peer for `conn` with its own RNG stream.
    #[must_use]
    pub fn new(conn: ConnectionId, config: PeerConfig, rng: SimRng) -> Self {
        Peer {
            conn,
            config,
            unacked_segments: 0,
            acks_generated: 0,
            bytes_sourced: 0,
            rng,
        }
    }

    /// The connection this peer terminates.
    #[must_use]
    pub fn connection(&self) -> ConnectionId {
        self.conn
    }

    /// The SUT transmitted a data segment to this peer; returns an ACK
    /// segment if the delayed-ACK counter says one is due.
    pub fn on_data_segment(&mut self) -> Option<Segment> {
        self.unacked_segments += 1;
        if self.unacked_segments >= self.config.ack_every {
            self.unacked_segments = 0;
            self.acks_generated += 1;
            Some(Segment::ack())
        } else {
            None
        }
    }

    /// Flushes the delayed-ACK timer (end of a burst): returns an ACK if
    /// any segments are pending acknowledgment.
    pub fn flush_ack(&mut self) -> Option<Segment> {
        if self.unacked_segments > 0 {
            self.unacked_segments = 0;
            self.acks_generated += 1;
            Some(Segment::ack())
        } else {
            None
        }
    }

    /// Sources the next bulk-data frame for receive tests, together with
    /// the jittered cycle gap before its arrival.
    pub fn source_frame(&mut self) -> (Segment, u64) {
        self.bytes_sourced += u64::from(self.config.mss);
        let gap = self.rng.exponential(self.config.jitter_cycles) as u64;
        (Segment::data(self.config.mss), gap)
    }

    /// Total ACKs generated.
    #[must_use]
    pub fn acks_generated(&self) -> u64 {
        self.acks_generated
    }

    /// Total bytes sourced for RX tests.
    #[must_use]
    pub fn bytes_sourced(&self) -> u64 {
        self.bytes_sourced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer() -> Peer {
        Peer::new(ConnectionId::new(0), PeerConfig::default(), SimRng::new(7))
    }

    #[test]
    fn delayed_ack_every_two() {
        let mut p = peer();
        assert!(p.on_data_segment().is_none());
        let ack = p.on_data_segment().unwrap();
        assert!(ack.is_ack);
        assert!(p.on_data_segment().is_none());
        assert!(p.on_data_segment().is_some());
        assert_eq!(p.acks_generated(), 2);
    }

    #[test]
    fn flush_ack_covers_odd_tail() {
        let mut p = peer();
        p.on_data_segment();
        assert!(p.flush_ack().is_some());
        assert!(p.flush_ack().is_none());
    }

    #[test]
    fn source_frames_are_mss_sized_with_jitter() {
        let mut p = peer();
        let (seg, _gap) = p.source_frame();
        assert_eq!(seg.payload, DEFAULT_MSS);
        assert!(!seg.is_ack);
        let mut total_gap = 0u64;
        for _ in 0..100 {
            let (_, gap) = p.source_frame();
            total_gap += gap;
        }
        assert!(total_gap > 0, "jitter should be non-degenerate");
        assert_eq!(p.bytes_sourced(), 101 * u64::from(DEFAULT_MSS));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Peer::new(ConnectionId::new(1), PeerConfig::default(), SimRng::new(3));
        let mut b = Peer::new(ConnectionId::new(1), PeerConfig::default(), SimRng::new(3));
        for _ in 0..50 {
            assert_eq!(a.source_frame(), b.source_frame());
        }
    }

    #[test]
    fn connection_id_kept() {
        assert_eq!(peer().connection(), ConnectionId::new(0));
    }
}
