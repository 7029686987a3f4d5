#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # clove-net — packet-level datacenter fabric simulation
//!
//! This crate models the *physical underlay* that the Clove paper assumes:
//! an IP fabric of store-and-forward switches running standard ECMP, links
//! with finite drop-tail buffers, ECN marking at a configurable queue
//! threshold, and (optionally) In-band Network Telemetry stamping and the
//! in-switch schemes the paper compares against (CONGA, and HULA from §8).
//!
//! Layering (bottom to top):
//!
//! * [`types`] — ids, addresses, five-tuples.
//! * [`packet`] — the simulated packet: inner flow key, optional overlay
//!   encapsulation, ECN bits, telemetry, piggybacked Clove feedback.
//! * [`hash`] — the per-switch seeded ECMP hash.
//! * [`dre`] — the discounting rate estimator used for link utilization
//!   (CONGA's estimator; also drives INT and utilization reports).
//! * [`link`] — a directed link: serialization + propagation delay, FIFO
//!   drop-tail queue, ECN marking, DRE.
//! * [`switch`] — switch state: ports, ECMP route table, optional CONGA /
//!   HULA state.
//! * [`fabric`] — the assembled network plus all forwarding logic, the
//!   event type, and the [`fabric::Network`] driver that plugs host logic
//!   (hypervisors, implemented in higher crates) into the event loop.
//! * [`topology`] — builders for the paper's 2-tier leaf-spine testbed and
//!   for k-ary fat-trees ("works on any topology"), link-failure helpers,
//!   and shortest-path ECMP route computation.
//! * [`fault`] — declarative fault timelines over those topologies: cable
//!   faults, node crash-restarts and control-plane faults, each spec
//!   carrying the action its event applies (the seeded chaos generator
//!   that draws them lives in `clove_harness::chaos`).
//!
//! Packets are the structured [`packet::Packet`], never byte buffers — a
//! deliberate simulator trade-off documented in DESIGN.md: sizes are
//! counted, and every header field the algorithms manipulate is a typed
//! field.

pub mod dre;
pub mod fabric;
pub mod fault;
pub mod hash;
pub mod link;
pub mod packet;
pub mod switch;
pub mod topology;
pub mod types;

pub use fabric::{Event, Fabric, HostCtx, HostLogic, Network};
pub use fault::{CableSelector, ControlAction, ControlFaultPlan, ControlFaultSpec, ControlFaultStats, FaultKind, FaultPlan, FaultSpec, FaultStats, LinkAction};
pub use link::{Link, LinkConfig};
pub use packet::{Encap, Feedback, Packet, PacketKind};
pub use switch::{FabricScheme, Switch};
pub use topology::{LeafSpine, Topology};
pub use types::{FlowKey, HostId, LinkId, NodeId, SwitchId};
