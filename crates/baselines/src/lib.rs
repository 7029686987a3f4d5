#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::print_stdout, clippy::print_stderr, clippy::exit))]

//! # clove-baselines — the schemes the paper compares against
//!
//! * [`EcmpPolicy`] — the status quo: the outer source port is a static
//!   hash of the inner five-tuple, so ECMP pins each flow to one path for
//!   its lifetime (paper §5 "ECMP").
//! * [`PrestoPolicy`] — Presto adapted to L3 ECMP exactly as the paper's
//!   re-implementation does (§5 "Presto"): 64 KB flowcells rotate through a
//!   pre-computed set of encapsulation source ports with *static* weights
//!   (the paper grants Presto ideal, oracle-configured weights under
//!   asymmetry); the receiving vswitch reassembles out-of-order flowcells
//!   (`clove_overlay::presto_rx`).
//! * CONGA and HULA live in the fabric (`clove_net::switch`,
//!   `clove_net::fabric`), since they replace switch behaviour; their
//!   parameters are the constants beside their reader in `clove_net::fabric`.
//! * MPTCP is a transport, not a vswitch policy: see `clove_tcp::mptcp`.

pub mod ecmp;
pub mod presto;

pub use ecmp::EcmpPolicy;
pub use presto::{PrestoConfig, PrestoPolicy};
