//! The pinned API surface: every `clove_*` item the benchmark uses.
//!
//! Later PRs may not edit `benchmark/`, so these items must stay
//! source-compatible (same path, same signature as used here) or the change
//! is scheduled as a `benchmark` PR. No other file in this package names a
//! `clove_*` crate. Deliberately *not* used, so the tree stays free to
//! change them: `QueueBackend` / `--queue`, `run_cells`, `MatrixStats`,
//! `Registry`, and the hand-rolled JSON emitters in telemetry/lint/bench
//! (result files are written by `crate::json`; `HarnessJson` below is used
//! only as the subject of `harness.json_kernel_ns_per_byte`).

// sim: clock types, the future-event set and its profile, the RNG.
pub use clove_sim::{Duration, EventQueue, QueueProfile, ScheduledEvent, SimRng, Time, World};

// net: the world (`Network` + `Event`), its parts, and fault lowering.
pub use clove_net::fault::{FaultPlan, NodeSelector};
pub use clove_net::hash::ecmp_select;
pub use clove_net::{CableSelector, Event, Feedback, FlowKey, HostCtx, HostId, HostLogic, Link, LinkId, Network, NodeId, Packet, PacketKind};
pub use clove_net::{LeafSpine, Topology};

// overlay + core: the vswitch and the edge policies' building blocks.
pub use clove_core::{FlowletConfig, FlowletTable};
pub use clove_overlay::{EdgePolicy, VSwitch};

// tcp: the guest transport endpoints.
pub use clove_tcp::{TcpReceiver, TcpSender};

// workload: flow sizes, the RPC/incast models, FCT folds.
pub use clove_workload::rpc::ConnectionPlan;
pub use clove_workload::{load_to_rate, web_search, FctCollector, FctSummary, FlowSizeDist, IncastSpec, RpcModel};

// harness: scenarios, schemes, the host stack, figures, journal, checks.
pub use clove_harness::experiments::{
    fig4c_cached, fig5a_cached, fig5b_cached, fig5c_cached, fig8b_cached, fig9_cached, presto_oracle_weights, ExpConfig, PointCache, RecoveryCase,
    RESILIENCE_FAULT_AT,
};
pub use clove_harness::journal::JournalValue;
pub use clove_harness::json::Json as HarnessJson;
pub use clove_harness::report::FigureTable;
pub use clove_harness::stack::HostStack;
pub use clove_harness::{check_trace_jsonl, IncastOutcome, Journal, Profile, RpcOutcome, Scenario, Scheme, TopologyKind};

// telemetry: the trace ring and the streaming histogram.
pub use clove_telemetry::{render_jsonl, Histogram, Trace, TraceEvent};
