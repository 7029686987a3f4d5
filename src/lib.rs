#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::print_stdout, clippy::print_stderr, clippy::exit))]

//! # clove — a full reproduction of *Clove: Congestion-Aware Load
//! Balancing at the Virtual Edge* (CoNEXT 2017)
//!
//! This umbrella crate re-exports the whole workspace as one coherent
//! public API. See the README for a tour; in brief:
//!
//! ```text
//! clove::sim       deterministic discrete-event engine
//! clove::net       packet-level fabric (ECMP switches, links, topologies)
//! clove::tcp       guest transports (NewReno, MPTCP)
//! clove::overlay   hypervisor vswitch (STT encap, feedback relay, Presto rx)
//! clove::algo      the Clove algorithms (flowlets, discovery, ECN/INT)
//! clove::baselines ECMP, Presto
//! clove::workload  web-search CDF, RPC model, incast, FCT accounting
//! clove::harness   ready-made experiments for every paper figure
//! ```
//!
//! ## Quickstart
//!
//! Run a small head-to-head between ECMP and Clove-ECN on the paper's
//! asymmetric testbed topology:
//!
//! ```
//! use clove::harness::{Scenario, Scheme, TopologyKind};
//! use clove::workload::web_search;
//! use clove::sim::Time;
//!
//! let mut scenario = Scenario::new(Scheme::CloveEcn, TopologyKind::Asymmetric, 0.3, 42);
//! scenario.jobs_per_conn = 2;
//! scenario.conns_per_client = 1;
//! scenario.horizon = Time::from_secs(5);
//! let outcome = scenario.run_rpc(&web_search());
//! assert!(outcome.fct.all.count() > 0);
//! ```

pub use clove_baselines as baselines;
pub use clove_core as algo;
pub use clove_harness as harness;
pub use clove_net as net;
pub use clove_overlay as overlay;
pub use clove_sim as sim;
pub use clove_tcp as tcp;
pub use clove_workload as workload;
