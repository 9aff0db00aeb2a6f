//! # sim-tcp
//!
//! A functional model of the Linux 2.4.20 TCP/IP stack, decomposed
//! exactly the way the paper decomposes it for analysis: ~30 named kernel
//! functions grouped into seven **functional bins** —
//!
//! | Bin | Contents |
//! |---|---|
//! | *Interface* | BSD sockets API, `sys_call` entry, schedule-related routines |
//! | *Engine* | the TCP state machine (`tcp_sendmsg`, `tcp_transmit_skb`, `tcp_v4_rcv`, `tcp_rcv_established`, …) |
//! | *Buf Mgmt* | skb allocation/free, socket buffer accounting |
//! | *Copies* | payload movement only (`csum_and_copy_from_user` on TX, the `rep movl` `__copy_to_user` on RX) |
//! | *Driver* | NIC driver routines and interrupt handlers |
//! | *Locks* | spinlock acquisition (the Table 2 model from [`sim_os`]) |
//! | *Timers* | `do_gettimeofday`, `mod_timer`, delayed-ACK bookkeeping |
//!
//! Each function carries a calibrated footprint (instructions per call /
//! per KB, base CPI, branch statistics, code bytes) and a set of memory
//! regions it touches (TCP context, socket structure, skb metadata,
//! payload). Cycles, CPI and MPI are *measured* by running those
//! footprints through [`sim_cpu::Core`] against the coherent
//! [`sim_mem::MemorySystem`] — so affinity changes the numbers through
//! the cache and interrupt mechanics, never through the footprints
//! themselves.
//!
//! The stack exposes the *path stages* the machine model sequences:
//! [`TcpStack::sendmsg`], [`TcpStack::driver_tx`], [`TcpStack::rx_ack`],
//! [`TcpStack::irq_top_half`], [`TcpStack::rx_bottom_half`],
//! [`TcpStack::recvmsg`], plus accessors used by
//! the profiler and the experiment harness.
//!
//! Server cells additionally drive the passive-open lifecycle — LISTEN
//! ([`TcpStack::listen`]) → SYN_RCVD ([`TcpStack::on_syn`], with SYN
//! backlog overflow drops) → ESTABLISHED ([`TcpStack::accept`]) →
//! FIN_WAIT ([`TcpStack::send_fin`]) → CLOSED
//! ([`TcpStack::on_fin_ack`]) — with flow slots recycled through the
//! arena free list ([`TcpStack::flow_alloc`]/[`TcpStack::flow_free`]);
//! a slot is its [`sim_core::ConnectionId`]'s index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bin;
mod config;
mod congestion;
mod conn;
mod stack;

pub use bin::Bin;
pub use config::{FuncCost, StackConfig};
pub use congestion::{CongestionPhase, CongestionState};
pub use conn::{ConnState, ConnectionRegions};
pub use stack::{ExecCtx, ListenSocket, RxBatchOutcome, SynOutcome, TcpStack};
