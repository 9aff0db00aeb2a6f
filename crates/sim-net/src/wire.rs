//! MTU segmentation arithmetic.
//!
//! `ttcp` writes application messages of 128 B … 64 KB; on the wire they
//! travel as MSS-sized TCP segments (1448 B of payload with standard
//! 1500-byte Ethernet MTU and timestamps). The segment count per message
//! drives how many descriptors, skbs and — through coalescing — how many
//! interrupts each message costs, which is why affinity matters more for
//! 64 KB transfers (44 segments) than for 128 B ones (1 segment).

/// Standard Ethernet MTU.
pub const ETHERNET_MTU: u32 = 1500;

/// TCP maximum segment size with timestamps over Ethernet:
/// 1500 − 20 (IP) − 20 (TCP) − 12 (timestamp option).
pub const DEFAULT_MSS: u32 = 1448;

/// A TCP segment as seen by the driver/NIC boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Payload bytes carried (≤ MSS; 0 for a pure ACK).
    pub payload: u32,
    /// Whether this is a pure acknowledgment.
    pub is_ack: bool,
}

impl Segment {
    /// A data segment carrying `payload` bytes.
    #[must_use]
    pub fn data(payload: u32) -> Self {
        Segment {
            payload,
            is_ack: false,
        }
    }

    /// A pure ACK.
    #[must_use]
    pub fn ack() -> Self {
        Segment {
            payload: 0,
            is_ack: true,
        }
    }

    /// Bytes occupied on the wire (headers + payload).
    #[must_use]
    pub fn wire_bytes(self) -> u32 {
        // 14 (Ethernet) + 20 (IP) + 20 (TCP) + 12 (options).
        self.payload + 66
    }
}

/// Number of MSS-sized segments needed for a `message_bytes` message.
///
/// # Panics
///
/// Panics if `mss` is zero.
#[must_use]
pub fn segment_count(message_bytes: u64, mss: u32) -> u64 {
    assert!(mss > 0, "mss must be positive");
    if message_bytes == 0 {
        return 0;
    }
    message_bytes.div_ceil(u64::from(mss))
}

/// Splits a message into segment payload sizes (all `mss` except a
/// possibly-short tail).
#[must_use]
pub fn segments_for(message_bytes: u64, mss: u32) -> Vec<u32> {
    let count = segment_count(message_bytes, mss);
    let mut out = Vec::with_capacity(count as usize);
    let mut remaining = message_bytes;
    for _ in 0..count {
        let take = remaining.min(u64::from(mss)) as u32;
        out.push(take);
        remaining -= u64::from(take);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_message_sizes() {
        // The paper's Figure 3 x-axis.
        assert_eq!(segment_count(128, DEFAULT_MSS), 1);
        assert_eq!(segment_count(256, DEFAULT_MSS), 1);
        assert_eq!(segment_count(1024, DEFAULT_MSS), 1);
        assert_eq!(segment_count(4096, DEFAULT_MSS), 3);
        assert_eq!(segment_count(8192, DEFAULT_MSS), 6);
        assert_eq!(segment_count(16384, DEFAULT_MSS), 12);
        assert_eq!(segment_count(65536, DEFAULT_MSS), 46);
    }

    #[test]
    fn zero_message_has_no_segments() {
        assert_eq!(segment_count(0, DEFAULT_MSS), 0);
        assert!(segments_for(0, DEFAULT_MSS).is_empty());
    }

    #[test]
    fn segments_sum_to_message() {
        for bytes in [1u64, 128, 1448, 1449, 65536, 100_000] {
            let segs = segments_for(bytes, DEFAULT_MSS);
            assert_eq!(segs.iter().map(|&s| u64::from(s)).sum::<u64>(), bytes);
            for (i, &s) in segs.iter().enumerate() {
                if i + 1 < segs.len() {
                    assert_eq!(s, DEFAULT_MSS);
                } else {
                    assert!(s > 0 && s <= DEFAULT_MSS);
                }
            }
        }
    }

    #[test]
    fn segment_wire_bytes() {
        assert_eq!(Segment::ack().wire_bytes(), 66);
        assert_eq!(Segment::data(1448).wire_bytes(), 1514);
        assert!(Segment::ack().is_ack);
        assert!(!Segment::data(10).is_ack);
    }

    #[test]
    #[should_panic(expected = "mss must be positive")]
    fn zero_mss_rejected() {
        let _ = segment_count(100, 0);
    }
}
