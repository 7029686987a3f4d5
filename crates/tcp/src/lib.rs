#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::print_stdout, clippy::print_stderr, clippy::exit))]

//! # clove-tcp — window-based transport endpoints
//!
//! The guest-VM TCP stacks of the paper's testbed, as simulation models.
//! Fidelity matters here more than anywhere else in the reproduction:
//! Clove's Edge-Flowlet result rests on flowlet gaps *emerging from ACK
//! clocking under congestion* (paper §3.2: congestion delays ACKs, which
//! opens inter-packet gaps, which creates new flowlets that get re-routed).
//! A fluid flow model cannot produce that; a windowed, ACK-clocked sender
//! can, so that is what this crate implements:
//!
//! * [`sender::TcpSender`] — NewReno-style congestion control: slow start,
//!   congestion avoidance, fast retransmit / fast recovery with NewReno
//!   partial-ACK handling, RTO with Karn-sampled Jacobson estimation and
//!   exponential backoff, idle-restart to the initial window.
//! * [`receiver::TcpReceiver`] — cumulative ACKs and out-of-order
//!   buffering (so reordering produces dup-acks exactly as a real stack
//!   would).
//! * [`config`] — transport tunables.
//! * [`mptcp`] — Multipath TCP: k subflows with distinct five-tuples,
//!   data-level sequencing, lowest-RTT-first scheduling and LIA coupled
//!   congestion control — the paper's strongest deployable-at-host
//!   baseline (and its incast weak spot, Figure 7).
//!
//! Endpoints are sans-IO: they consume segments and emit segments into
//! caller-provided buffers and expose timer deadlines; the hypervisor
//! stack in `clove-harness` wires them to the fabric.

pub mod config;
pub mod mptcp;
pub mod receiver;
pub mod sender;

pub use config::TcpConfig;
pub use mptcp::{MptcpConnection, MptcpReceiver};
pub use receiver::TcpReceiver;
pub use sender::{JobCompletion, TcpSender};
