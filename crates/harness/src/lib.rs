#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::print_stdout, clippy::print_stderr, clippy::exit))]

//! # clove-harness — experiments that reproduce every figure of the paper
//!
//! This crate assembles the substrates into runnable experiments:
//!
//! * [`profile`] — the knobs experiments vary (link rates, ECN threshold,
//!   flowlet gap, relay and probe intervals, two ablation switches);
//!   defaults mirror the paper's testbed (§5) at full 10G/40G rates.
//! * [`scheme`] — the scheme matrix: every load balancer the paper
//!   evaluates (ECMP, Edge-Flowlet, Clove-ECN, Clove-INT, MPTCP, Presto,
//!   CONGA) plus HULA (§8) and the §7 incremental-deployment extension.
//! * [`stack`] — the per-hypervisor host stack implementing
//!   `clove_net::HostLogic`: guest transports, the vswitch, the probe
//!   daemon, application models, timers.
//! * [`scenario`] — scenario construction and the run loop (RPC and
//!   incast entry points).
//! * [`experiments`] — one function per paper figure, returning tables.
//! * [`report`] — plain-text table rendering for figures/EXPERIMENTS.md.
//! * [`invariants`] — the strict-mode runtime invariant monitor.
//! * [`orchestrator`] — fault-tolerant matrix execution: per-cell panic
//!   isolation with quarantine on the first panic.
//! * [`journal`] — the completed-cell checkpoint journal behind `--resume`,
//!   plus atomic artifact writes.
//! * [`chaos`] — the seeded fault-plan fuzzer behind `clove-run chaos`.
//! * [`cli`] — the one flag parser the binaries share (unknown flags are
//!   errors) and the "open journal or warn" helper.
//! * [`trace_check`] — schema validation for `--trace` JSONL dumps
//!   (`clove-run trace-check`).

pub mod chaos;
pub mod cli;
pub mod config;
pub mod experiments;
pub mod invariants;
pub mod journal;
pub mod json;
pub mod orchestrator;
pub mod profile;
pub mod report;
pub mod scenario;
pub mod scheme;
pub mod stack;
pub mod trace_check;

pub use invariants::InvariantMonitor;
pub use journal::{write_atomic, Journal};
pub use orchestrator::CellOutcome;
pub use profile::Profile;
pub use scenario::{IncastOutcome, RpcOutcome, Scenario, TopologyKind};
pub use scheme::Scheme;
pub use trace_check::{check_trace_jsonl, TraceCheckReport};
