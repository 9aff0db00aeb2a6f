//! The `ttcp` bulk-transfer workload and the server-side
//! connection-churn workload.

/// Transfer direction, from the system under test's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// The SUT transmits (`ttcp -t`).
    Tx,
    /// The SUT receives (`ttcp -r`).
    Rx,
}

impl Direction {
    /// Both directions.
    pub const ALL: [Direction; 2] = [Direction::Tx, Direction::Rx];

    /// Figure label ("TX"/"RX").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Direction::Tx => "TX",
            Direction::Rx => "RX",
        }
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The paper's Figure 3 x-axis: transaction sizes in bytes.
pub const PAPER_SIZES: [u64; 7] = [128, 256, 1024, 4096, 8192, 16384, 65536];

/// A `ttcp` run description: every connection moves fixed-size messages
/// between reused buffers, connection set up once — pure fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Direction (SUT transmits or receives).
    pub direction: Direction,
    /// Application message ("transaction") size in bytes.
    pub message_bytes: u64,
    /// Messages per connection executed before measurement starts
    /// (cache/predictor warm-up, like the paper's steady-state runs).
    pub warmup_messages: u32,
    /// Messages per connection measured.
    pub measure_messages: u32,
    /// When true, `warmup_messages`/`measure_messages` are *aggregate*
    /// machine-wide targets rather than per-connection multipliers. The
    /// million-flow cells need this: their subject is construction and
    /// footprint, and even one message per flow would make the run
    /// window dwarf the thing being measured. Default false — every
    /// per-connection workload keeps its exact historical semantics.
    pub aggregate_targets: bool,
    /// How many connections the peers actively stream on (RX direction).
    /// `0` means all of them — the historical behaviour. The million-flow
    /// cells provision the full population but stream on a bounded
    /// working set: offered load past a few hundred flows per CPU is
    /// receive livelock by construction (every cycle goes to interrupt
    /// processing, the consumers never run), which drowns the thing those
    /// cells measure — construction and per-flow state costs at scale.
    pub active_conns: usize,
}

impl Workload {
    /// A workload sized so each connection moves a few MB — enough for
    /// stable steady-state statistics at every paper size.
    ///
    /// # Panics
    ///
    /// Panics if `message_bytes` is zero.
    #[must_use]
    pub fn steady_state(direction: Direction, message_bytes: u64) -> Self {
        assert!(message_bytes > 0, "message size must be positive");
        // Scale counts inversely with size: ~2 MB measured per connection,
        // bounded for tractability.
        let measure = (2 * 1024 * 1024 / message_bytes).clamp(24, 1600) as u32;
        let warmup = (measure / 3).max(8);
        Workload {
            direction,
            message_bytes,
            warmup_messages: warmup,
            measure_messages: measure,
            aggregate_targets: false,
            active_conns: 0,
        }
    }

    /// Shrinks the workload for fast unit tests and doc tests.
    #[must_use]
    pub fn quick(mut self) -> Self {
        self.warmup_messages = self.warmup_messages.min(4);
        self.measure_messages = self.measure_messages.min(12);
        self
    }

    /// Total measured bytes across `connections` connections.
    #[must_use]
    pub fn measured_bytes(&self, connections: usize) -> u64 {
        self.message_bytes * u64::from(self.measure_messages) * connections as u64
    }
}

/// A server-side connection-churn workload: short-lived connections
/// arrive with exponentially jittered gaps, each carrying one client
/// request and one server response, then tearing down (SYN → accept →
/// request → response → FIN → close). The machine keeps the live
/// connection count pinned near the experiment's slot count by
/// replacing each completed connection with a fresh arrival — plus a
/// deliberate initial overbooking so the SYN-drop/retry path is
/// exercised deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerWorkload {
    /// Mean gap between connection arrivals in cycles (each gap is an
    /// exponential draw from the machine RNG — Poisson-style).
    pub arrival_gap_cycles: u64,
    /// Client request size in bytes.
    pub request_bytes: u64,
    /// Server response size for a mouse connection, in bytes.
    pub response_bytes: u64,
    /// Every `elephant_every`-th arrival is an elephant (0 = mice only).
    pub elephant_every: u64,
    /// Server response size for an elephant connection, in bytes.
    pub elephant_response_bytes: u64,
    /// SYN backlog capacity of the listen socket.
    pub backlog: u32,
    /// Connections completed before measurement starts.
    pub warmup_conns: u64,
    /// Connections completed inside the measurement window.
    pub measure_conns: u64,
}

impl ServerWorkload {
    /// The `repro churn` point for a cell targeting `concurrent` live
    /// connections: small requests, mostly-mouse responses with a 1-in-10
    /// elephant mix, and completion targets scaled so roughly half the
    /// slot population is recycled before measurement begins.
    #[must_use]
    pub fn churn(concurrent: u64) -> Self {
        ServerWorkload {
            arrival_gap_cycles: 2_000,
            request_bytes: 256,
            response_bytes: 2_048,
            elephant_every: 10,
            elephant_response_bytes: 32_768,
            backlog: concurrent.clamp(16, 1024) as u32,
            warmup_conns: (concurrent / 2).max(8),
            measure_conns: concurrent.max(16),
        }
    }

    /// A mice-only variant (no elephants) — the 100k-flow large cell,
    /// where per-connection cost, not bulk bandwidth, is the subject.
    #[must_use]
    pub fn mice_only(mut self) -> Self {
        self.elephant_every = 0;
        self
    }

    /// Shrinks the completion targets for fast unit tests.
    #[must_use]
    pub fn quick(mut self) -> Self {
        self.warmup_conns = self.warmup_conns.min(8);
        self.measure_conns = self.measure_conns.min(24);
        self
    }

    /// Total connections the run completes (warmup + measured).
    #[must_use]
    pub fn total_conns(&self) -> u64 {
        self.warmup_conns + self.measure_conns
    }

    /// The response size of the connection with arrival serial `serial`.
    #[must_use]
    pub fn response_for(&self, serial: u64) -> u64 {
        if self.elephant_every > 0 && serial.is_multiple_of(self.elephant_every) {
            self.elephant_response_bytes
        } else {
            self.response_bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_scales_counts() {
        let small = Workload::steady_state(Direction::Tx, 128);
        let large = Workload::steady_state(Direction::Tx, 65536);
        assert!(small.measure_messages > large.measure_messages);
        assert!(large.measure_messages >= 24);
        assert!(small.measure_messages <= 1600);
        assert!(small.warmup_messages >= 8);
    }

    #[test]
    fn quick_shrinks() {
        let w = Workload::steady_state(Direction::Rx, 128).quick();
        assert!(w.measure_messages <= 12);
        assert!(w.warmup_messages <= 4);
    }

    #[test]
    fn measured_bytes() {
        let w = Workload {
            direction: Direction::Tx,
            message_bytes: 1000,
            warmup_messages: 1,
            measure_messages: 10,
            aggregate_targets: false,
            active_conns: 0,
        };
        assert_eq!(w.measured_bytes(8), 80_000);
    }

    #[test]
    fn paper_sizes_match_figure3() {
        assert_eq!(PAPER_SIZES, [128, 256, 1024, 4096, 8192, 16384, 65536]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        let _ = Workload::steady_state(Direction::Tx, 0);
    }

    #[test]
    fn churn_scales_and_mixes() {
        let w = ServerWorkload::churn(1000);
        assert_eq!(w.warmup_conns, 500);
        assert_eq!(w.measure_conns, 1000);
        assert_eq!(w.total_conns(), 1500);
        // Serial 0, 10, 20, ... are elephants; the rest are mice.
        assert_eq!(w.response_for(0), w.elephant_response_bytes);
        assert_eq!(w.response_for(10), w.elephant_response_bytes);
        assert_eq!(w.response_for(7), w.response_bytes);
        let mice = w.mice_only();
        assert_eq!(mice.response_for(0), mice.response_bytes);
        let q = w.quick();
        assert_eq!(q.warmup_conns, 8);
        assert_eq!(q.measure_conns, 24);
    }

    #[test]
    fn churn_floors_tiny_cells() {
        let w = ServerWorkload::churn(1);
        assert_eq!(w.warmup_conns, 8);
        assert_eq!(w.measure_conns, 16);
        assert_eq!(w.backlog, 16);
        assert_eq!(ServerWorkload::churn(100_000).backlog, 1024);
    }
}
