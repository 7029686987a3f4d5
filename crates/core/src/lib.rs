#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::print_stdout, clippy::print_stderr, clippy::exit))]

//! # clove-core — the paper's contribution
//!
//! The Clove load-balancing algorithms, implemented as the paper's three
//! components (§3):
//!
//! 1. **Path discovery by traceroute** ([`discovery::ProbeDaemon`]): for
//!    each active destination hypervisor, send probes with randomized outer
//!    source ports and stepped TTLs; assemble per-port path signatures from
//!    the time-exceeded replies; greedily select `k` ports whose paths
//!    share the fewest links. Re-run periodically so topology changes
//!    (which remap ECMP) are re-learned.
//! 2. **Software flowlet switching** ([`flowlet::FlowletTable`]): a flow's
//!    packets follow the current flowlet's port; an idle gap longer than
//!    the flowlet threshold (≈ 1–2 RTT) opens a new flowlet that may be
//!    re-routed.
//! 3. **Congestion-aware weights**: the policy spectrum —
//!    * [`EdgeFlowletPolicy`] — random port per flowlet, no network state;
//!    * [`CloveEcnPolicy`] — weighted round-robin whose weights are cut by
//!      ⅓ on ECN feedback and redistributed to uncongested paths;
//!    * [`CloveIntPolicy`] — new flowlets take the least-utilized path
//!      (INT telemetry), the proactive upper bound of the deployable set.
//!
//! All policies implement `clove_overlay::EdgePolicy`, so a deployment is
//! just `VSwitch::new(host, cfg, Box::new(policy))`.

pub mod clove_ecn;
pub mod clove_int;
pub mod discovery;
pub mod flowlet;
pub mod paths;
pub mod wrr;

pub use clove_ecn::CloveEcnPolicy;
pub use clove_int::CloveIntPolicy;
pub use discovery::{DiscoveryEvent, ProbeDaemon};
pub use flowlet::{FlowletConfig, FlowletTable};
pub use paths::PathSet;
pub use wrr::Wrr;

use clove_net::packet::Packet;
use clove_net::types::{FlowKey, HostId};
use clove_sim::{SimRng, Time};

/// Edge-Flowlet (paper §3.2): a new pseudo-random outer source port for
/// every flowlet, chosen uniformly from the discovered ports and with no
/// knowledge of network state. The paper's striking finding is that this
/// alone captures much of Clove's gain, because congestion delays ACK
/// clocking, which opens flowlet gaps, which re-rolls the path.
pub struct EdgeFlowletPolicy {
    flowlets: FlowletTable,
    paths: rustc_hash::FxHashMap<HostId, Vec<u16>>,
    rng: SimRng,
    /// Fallback port span used before discovery has run (hash-spread like
    /// plain ECMP so behaviour degrades gracefully, per §7 incremental
    /// deployment).
    fallback_span: u16,
}

impl EdgeFlowletPolicy {
    /// Create with the given flowlet gap configuration and RNG seed.
    pub fn new(flowlet: FlowletConfig, seed: u64) -> EdgeFlowletPolicy {
        EdgeFlowletPolicy { flowlets: FlowletTable::new(flowlet), paths: rustc_hash::FxHashMap::default(), rng: SimRng::new(seed ^ 0xED6E), fallback_span: 64 }
    }

    fn fallback_port(flow: &FlowKey, flowlet_id: u64, span: u16) -> u16 {
        let h = clove_net::hash::hash_tuple(flow, flowlet_id ^ 0xF10);
        49152 + (h % span as u64) as u16
    }
}

impl clove_overlay::EdgePolicy for EdgeFlowletPolicy {
    fn name(&self) -> &'static str {
        "edge-flowlet"
    }

    fn select_port(&mut self, now: Time, dst_hv: HostId, pkt: &mut Packet) -> u16 {
        let ports = self.paths.get(&dst_hv);
        let rng = &mut self.rng;
        let span = self.fallback_span;
        let flow = pkt.flow;
        self.flowlets.on_packet(now, flow, |flowlet_id| match ports {
            Some(ports) if !ports.is_empty() => ports[rng.below(ports.len() as u64) as usize],
            _ => Self::fallback_port(&flow, flowlet_id, span),
        })
    }

    fn on_paths_updated(&mut self, _now: Time, dst_hv: HostId, ports: &[u16]) {
        self.paths.insert(dst_hv, ports.to_vec());
    }

    fn on_cold_restart(&mut self, _now: Time) {
        // Flowlet pins and discovered port sets are crash-lost. The RNG
        // stream continues — a fresh daemon would re-seed, but the stream
        // is already a pure function of (seed, host), so continuing it
        // keeps the run deterministic without modeling seed files.
        self.flowlets.clear();
        self.paths.clear();
    }

    fn flowlet_len(&self) -> Option<usize> {
        Some(self.flowlets.len())
    }

    fn set_trace(&mut self, trace: clove_telemetry::Trace) {
        self.flowlets.set_trace(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_net::packet::PacketKind;
    use clove_overlay::EdgePolicy;
    use clove_sim::Duration;

    fn pkt(sport: u16) -> Packet {
        Packet::new(1, 1500, FlowKey::tcp(HostId(0), HostId(1), sport, 80), PacketKind::Data { seq: 0, len: 1400, dsn: 0 })
    }

    #[test]
    fn same_flowlet_keeps_port() {
        let mut p = EdgeFlowletPolicy::new(FlowletConfig::with_gap(Duration::from_micros(100)), 1);
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20, 30, 40]);
        let mut a = pkt(1000);
        let port1 = p.select_port(Time::ZERO, HostId(1), &mut a);
        let port2 = p.select_port(Time::from_micros(10), HostId(1), &mut a);
        assert_eq!(port1, port2);
        assert!([10, 20, 30, 40].contains(&port1));
    }

    #[test]
    fn gap_can_switch_port() {
        let mut p = EdgeFlowletPolicy::new(FlowletConfig::with_gap(Duration::from_micros(100)), 1);
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20, 30, 40]);
        let mut a = pkt(1000);
        let mut seen = rustc_hash::FxHashSet::default();
        let mut t = Time::ZERO;
        for _ in 0..64 {
            seen.insert(p.select_port(t, HostId(1), &mut a));
            t += Duration::from_micros(500); // always a new flowlet
        }
        assert!(seen.len() >= 3, "flowlets should explore ports, saw {seen:?}");
    }

    #[test]
    fn fallback_before_discovery_is_deterministic_per_flowlet() {
        let mut p = EdgeFlowletPolicy::new(FlowletConfig::with_gap(Duration::from_micros(100)), 1);
        let mut a = pkt(1000);
        let port1 = p.select_port(Time::ZERO, HostId(1), &mut a);
        let port2 = p.select_port(Time::from_micros(1), HostId(1), &mut a);
        assert_eq!(port1, port2);
        assert!(port1 >= 49152);
    }

    #[test]
    fn distinct_flows_are_independent() {
        let mut p = EdgeFlowletPolicy::new(FlowletConfig::with_gap(Duration::from_micros(100)), 1);
        p.on_paths_updated(Time::ZERO, HostId(1), &(0..16).map(|i| 100 + i).collect::<Vec<_>>());
        let mut seen = rustc_hash::FxHashSet::default();
        for s in 0..64 {
            let mut a = pkt(2000 + s);
            seen.insert(p.select_port(Time::ZERO, HostId(1), &mut a));
        }
        assert!(seen.len() > 4, "64 flows should spread: {seen:?}");
    }
}
