#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::print_stdout, clippy::print_stderr, clippy::exit))]

//! # clove-workload — traffic generation and FCT accounting
//!
//! The paper evaluates with the empirical *web search* workload (flow
//! sizes measured in a production datacenter, first published with DCTCP):
//! long-tailed, mostly small flows, with the small fraction of large flows
//! carrying most bytes. Clients open persistent connections to random
//! servers and launch jobs whose sizes are drawn from the CDF and whose
//! inter-arrival times are exponential, tuned to a target network load
//! (paper §5 "Empirical workload").
//!
//! * [`FlowSizeDist`] — empirical CDF samplers ([`web_search`],
//!   [`enterprise`], [`data_mining`]).
//! * [`arrivals`] — Poisson arrival-rate computation from a load target.
//! * [`rpc`] — the client-server job model (who talks to whom).
//! * [`incast`] — the partition-aggregate workload of Figure 7.
//! * [`fct`] — flow-completion-time collection and the paper's summary
//!   breakdowns (mice < 100 KB, elephants > 10 MB, p99, CDFs).

pub mod arrivals;
pub mod fct;
pub mod incast;
pub mod rpc;
pub mod sizes;

pub use arrivals::load_to_rate;
pub use fct::{FctCollector, FctSummary};
pub use incast::IncastSpec;
pub use rpc::{JobSpec, RpcModel};
pub use sizes::{data_mining, enterprise, web_search, FlowSizeDist};
