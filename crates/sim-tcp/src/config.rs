//! Calibrated per-function cost model.
//!
//! Each modelled kernel function carries a [`FuncCost`]: instructions per
//! call plus instructions per KB of payload handled, a base CPI, fixed
//! cycles (privilege transitions, I/O port reads), branch statistics and
//! a code footprint. The *memory* behaviour — and therefore the CPI/MPI
//! actually measured — comes from the cache model, not from these knobs.
//!
//! The numbers are calibrated so that the no-affinity baseline reproduces
//! the shape of the paper's Table 1 (bin shares, CPI ordering, the
//! RX-copy pathology). They are deliberately public: the ablation benches
//! sweep them.

use crate::bin::Bin;

/// Cost knobs for one modelled function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuncCost {
    /// Bin the function belongs to.
    pub bin: Bin,
    /// Instructions retired per invocation, independent of payload.
    pub per_call_instr: u64,
    /// Instructions retired per KB of payload handled by the invocation.
    pub per_kb_instr: u64,
    /// Base CPI with a perfect memory system.
    pub base_cpi: f64,
    /// Fixed cycles per invocation (syscall entry, I/O port reads…).
    pub fixed_cycles: u64,
    /// Fraction of instructions that are branches.
    pub branch_fraction: f64,
    /// Fraction of branches mispredicted.
    pub mispredict_rate: f64,
    /// Code footprint in bytes (trace-cache pressure).
    pub code_bytes: u64,
}

impl FuncCost {
    /// Instructions for an invocation handling `bytes` of payload.
    #[must_use]
    pub fn instructions(&self, bytes: u64) -> u64 {
        self.per_call_instr + self.per_kb_instr * bytes / 1024
    }
}

/// The full stack configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StackConfig {
    /// TCP maximum segment size.
    pub mss: u32,
    /// Segments queued per writer wake-up episode on TX (send-buffer
    /// drain granularity): a 64 KB write blocks and resumes several
    /// times, re-entering the sockets interface each time.
    pub tx_wake_batch: u32,
    /// Probability that a lock acquisition finds the lock held *when the
    /// connection is concurrently processed on another CPU*. Zero
    /// cross-CPU activity (full affinity) means zero contention.
    pub cross_cpu_contention: f64,
    /// Data segments per ACK sent back to the peer (delayed ACK).
    pub ack_every: u32,
    /// Initial congestion window in segments (RFC 2581-era value).
    pub initial_cwnd: u32,
    /// Maximum congestion window in segments (bounded by the send
    /// buffer in practice).
    pub max_cwnd: u32,
    /// Bytes of TCP context (tcp_opt + inet sock + hash chain) per
    /// connection.
    pub tcp_ctx_bytes: u64,
    /// Bytes of generic socket structure per connection.
    pub sock_bytes: u64,
    /// Bytes of skb metadata pool per connection.
    pub skb_meta_bytes: u64,
    /// Bytes of kernel skb payload area per connection (send queue).
    pub skb_data_bytes: u64,

    // --- Interface ---
    /// `system_call` entry/exit.
    pub system_call: FuncCost,
    /// `sock_write`/`sock_sendmsg` (TX) — also covers `inet_sendmsg`.
    pub sock_write: FuncCost,
    /// `sock_read`/`sock_recvmsg` (RX).
    pub sock_read: FuncCost,
    /// `__wake_up` + `schedule` slice charged to the sockets interface.
    pub wake_up: FuncCost,

    // --- Engine ---
    /// `tcp_sendmsg` (per segment, with per-KB component).
    pub tcp_sendmsg: FuncCost,
    /// `tcp_transmit_skb` (per segment or ACK).
    pub tcp_transmit_skb: FuncCost,
    /// `tcp_v4_rcv` (per received frame, incl. ACKs).
    pub tcp_v4_rcv: FuncCost,
    /// `tcp_rcv_established` (per received data frame).
    pub tcp_rcv_established: FuncCost,
    /// `__tcp_select_window` + ACK decision logic.
    pub tcp_select_window: FuncCost,
    /// `tcp_v4_connect` — active open (SYN construction, route lookup,
    /// hash insertion). Exercised by the connection-churn workloads the
    /// paper's §4 contrasts with the fast path.
    pub tcp_connect: FuncCost,
    /// `tcp_retransmit_skb` — loss recovery.
    pub tcp_retransmit: FuncCost,
    /// `tcp_close` / FIN handling — teardown.
    pub tcp_close: FuncCost,
    /// `tcp_v4_conn_request` — passive open: SYN validation, request
    /// sock allocation, SYN-ACK construction (server-mode softirq).
    pub tcp_conn_request: FuncCost,
    /// `inet_csk_accept` — dequeue from the accept backlog and graft the
    /// socket onto the server task.
    pub tcp_accept: FuncCost,
    /// `tcp_fin` — process the final ACK of the teardown and unhash the
    /// connection.
    pub tcp_fin: FuncCost,

    // --- Buf Mgmt ---
    /// `alloc_skb` (per segment).
    pub alloc_skb: FuncCost,
    /// `kfree_skb` (per segment, on completion/after copy).
    pub kfree_skb: FuncCost,
    /// Socket buffer accounting (`sock_wfree`/`skb_entail`/queueing).
    pub skb_queue: FuncCost,

    // --- Copies ---
    /// TX copy-with-checksum from user (`csum_and_copy_from_user`):
    /// the carefully unrolled loop, ~1 instruction per byte.
    pub csum_copy_from_user: FuncCost,
    /// RX copy to user (`__copy_to_user`, `rep movl`): few architectural
    /// instructions moving a lot of (uncached) data.
    pub copy_to_user: FuncCost,

    // --- Driver ---
    /// `e1000_xmit_frame` (per segment).
    pub e1000_xmit: FuncCost,
    /// `e1000_clean_tx_irq` (per completed segment).
    pub e1000_clean_tx: FuncCost,
    /// `e1000_clean_rx_irq` (per received frame).
    pub e1000_clean_rx: FuncCost,
    /// `IRQ0xNN_interrupt` top half (per interrupt).
    pub irq_top_half: FuncCost,

    // --- Timers ---
    /// `do_gettimeofday` — on this era's chipset an uncached I/O timer
    /// read, ~1.4 µs. Taken per full-MSS frame in the RX bottom half
    /// (timestamp comparison path); sub-MSS frames take the cheap path.
    pub do_gettimeofday: FuncCost,
    /// Cheap-path timestamp bookkeeping for sub-MSS frames.
    pub timestamp_fast: FuncCost,
    /// `mod_timer` (retransmit re-arm per TX episode, delack per RX batch).
    pub mod_timer: FuncCost,
}

impl StackConfig {
    /// The calibrated configuration reproducing the paper's Table 1
    /// no-affinity baseline shape.
    #[must_use]
    pub fn paper() -> Self {
        use Bin::*;
        let f = |bin,
                 per_call_instr,
                 per_kb_instr,
                 base_cpi,
                 fixed_cycles,
                 branch_fraction,
                 mispredict_rate,
                 code_bytes| FuncCost {
            bin,
            per_call_instr,
            per_kb_instr,
            base_cpi,
            fixed_cycles,
            branch_fraction,
            mispredict_rate,
            code_bytes,
        };
        StackConfig {
            mss: sim_net::wire::DEFAULT_MSS,
            tx_wake_batch: 4,
            cross_cpu_contention: 0.015,
            ack_every: 2,
            initial_cwnd: 2,
            max_cwnd: 256,
            tcp_ctx_bytes: 1536,
            sock_bytes: 1024,
            // The skb pools model slab-allocator churn: the allocator
            // cycles buffers through a large arena, so freshly allocated
            // skb memory has usually aged out of cache. Sized so eight
            // connections' arenas well exceed the 2 MB LLC — the capacity
            // pressure behind the paper's MPI ≈ 0.005-0.008 on TX.
            skb_meta_bytes: 64 * 1024,
            skb_data_bytes: 640 * 1024,

            // Interface: few instructions, huge fixed costs (privilege
            // transitions, scheduler) => the paper's CPI ~8-17.
            system_call: f(Interface, 60, 0, 1.2, 1000, 0.20, 0.002, 640),
            sock_write: f(Interface, 75, 0, 1.4, 420, 0.18, 0.002, 1024),
            sock_read: f(Interface, 75, 0, 1.4, 420, 0.22, 0.002, 1024),
            wake_up: f(Interface, 90, 0, 1.5, 1100, 0.20, 0.002, 768),

            // Engine: moderate instruction streams over the TCP context.
            tcp_sendmsg: f(Engine, 220, 300, 0.9, 0, 0.17, 0.006, 2048),
            tcp_transmit_skb: f(Engine, 180, 200, 0.9, 0, 0.17, 0.006, 1792),
            tcp_v4_rcv: f(Engine, 190, 120, 0.9, 0, 0.16, 0.007, 1536),
            tcp_rcv_established: f(Engine, 230, 180, 0.9, 0, 0.16, 0.007, 2048),
            tcp_select_window: f(Engine, 90, 0, 0.9, 0, 0.15, 0.006, 512),
            tcp_connect: f(Engine, 850, 0, 1.1, 900, 0.16, 0.010, 2048),
            tcp_retransmit: f(Engine, 420, 180, 1.0, 0, 0.16, 0.008, 1024),
            tcp_close: f(Engine, 520, 0, 1.1, 400, 0.16, 0.008, 1024),
            // Lifecycle (server side): passive open is a little cheaper
            // than the active open's route lookup; accept pays a
            // privilege transition; the FIN-ACK path is close's dual.
            tcp_conn_request: f(Engine, 700, 0, 1.1, 600, 0.16, 0.010, 1792),
            tcp_accept: f(Engine, 260, 0, 1.2, 700, 0.18, 0.006, 1024),
            tcp_fin: f(Engine, 380, 0, 1.1, 200, 0.16, 0.008, 768),

            // Buf mgmt: pointer-chasing through slab/skb structures.
            alloc_skb: f(BufMgmt, 80, 340, 1.0, 0, 0.17, 0.008, 1024),
            kfree_skb: f(BufMgmt, 60, 140, 1.0, 0, 0.17, 0.006, 768),
            skb_queue: f(BufMgmt, 55, 160, 1.0, 0, 0.16, 0.006, 768),

            // Copies.
            csum_copy_from_user: f(Copies, 40, 960, 1.3, 0, 0.02, 0.003, 512),
            copy_to_user: f(Copies, 30, 78, 1.6, 0, 0.10, 0.001, 256),

            // Driver.
            e1000_xmit: f(Driver, 45, 120, 1.4, 0, 0.15, 0.015, 1536),
            e1000_clean_tx: f(Driver, 30, 30, 1.4, 0, 0.15, 0.012, 1024),
            e1000_clean_rx: f(Driver, 70, 60, 1.4, 0, 0.13, 0.014, 1536),
            irq_top_half: f(Driver, 65, 0, 1.5, 220, 0.14, 0.020, 896),

            // Timers.
            do_gettimeofday: f(Timers, 70, 0, 1.2, 2600, 0.10, 0.001, 384),
            timestamp_fast: f(Timers, 35, 0, 1.2, 0, 0.12, 0.001, 256),
            mod_timer: f(Timers, 55, 0, 1.3, 1100, 0.14, 0.002, 512),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`sim_core::SimError::InvalidConfig`] for zero MSS, zero
    /// wake batch, or out-of-range probabilities.
    pub fn validate(&self) -> sim_core::Result<()> {
        use sim_core::SimError;
        if self.mss == 0 {
            return Err(SimError::config("mss must be positive"));
        }
        if self.tx_wake_batch == 0 {
            return Err(SimError::config("tx_wake_batch must be positive"));
        }
        if self.ack_every == 0 {
            return Err(SimError::config("ack_every must be positive"));
        }
        if self.initial_cwnd == 0 || self.initial_cwnd > self.max_cwnd {
            return Err(SimError::config("initial_cwnd must be in 1..=max_cwnd"));
        }
        if !(0.0..=1.0).contains(&self.cross_cpu_contention) {
            return Err(SimError::config("cross_cpu_contention must be in [0,1]"));
        }
        Ok(())
    }
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        StackConfig::paper().validate().unwrap();
    }

    #[test]
    fn instructions_scale_with_bytes() {
        let c = StackConfig::paper();
        let base = c.tcp_sendmsg.instructions(0);
        let kb = c.tcp_sendmsg.instructions(1024);
        assert_eq!(base, c.tcp_sendmsg.per_call_instr);
        assert_eq!(kb - base, c.tcp_sendmsg.per_kb_instr);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = StackConfig::paper();
        c.mss = 0;
        assert!(c.validate().is_err());
        let mut c = StackConfig::paper();
        c.tx_wake_batch = 0;
        assert!(c.validate().is_err());
        let mut c = StackConfig::paper();
        c.cross_cpu_contention = 1.5;
        assert!(c.validate().is_err());
        let mut c = StackConfig::paper();
        c.ack_every = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn tx_copy_is_roughly_one_instruction_per_byte() {
        let c = StackConfig::paper();
        let instr = c.csum_copy_from_user.instructions(1448);
        assert!((1200..=1600).contains(&instr), "got {instr}");
    }

    #[test]
    fn rx_copy_retires_few_instructions() {
        // rep movl: one architectural instruction moves many bytes.
        let c = StackConfig::paper();
        let instr = c.copy_to_user.instructions(65536);
        assert!(
            instr < 6000,
            "rep-movl model retires few instructions, got {instr}"
        );
    }
}
