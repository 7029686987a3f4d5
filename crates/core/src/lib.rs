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
//! Every policy that learns paths keeps one [`PathSet`] per destination:
//! the discovered ports in discovery order, each with its WRR weight and
//! credit and its feedback history, plus the destination's
//! degradation-ladder clocks. Presto (in `clove-baselines`) keeps the same
//! table for its static weights.
//!
//! All policies implement `clove_overlay::EdgePolicy`, so a deployment is
//! just `VSwitch::new(host, cfg, Box::new(policy))`.

pub mod clove_ecn;
pub mod clove_int;
pub mod discovery;
pub mod flowlet;
pub mod paths;

pub use clove_ecn::CloveEcnPolicy;
pub use clove_int::CloveIntPolicy;
pub use discovery::{DiscoveryEvent, ProbeDaemon};
pub use flowlet::{FlowletConfig, FlowletTable};
pub use paths::{fallback_port, PathSet};

use clove_net::packet::Packet;
use clove_net::types::HostId;
use clove_sim::{SimRng, Time};
use rustc_hash::FxHashMap;

/// Edge-Flowlet (paper §3.2): a new pseudo-random outer source port for
/// every flowlet, chosen uniformly from the discovered ports and with no
/// knowledge of network state. The paper's striking finding is that this
/// alone captures much of Clove's gain, because congestion delays ACK
/// clocking, which opens flowlet gaps, which re-rolls the path.
pub struct EdgeFlowletPolicy {
    flowlets: FlowletTable,
    paths: FxHashMap<HostId, PathSet>,
    rng: SimRng,
}

impl EdgeFlowletPolicy {
    /// Create with the given flowlet gap configuration and RNG seed.
    pub fn new(flowlet: FlowletConfig, seed: u64) -> EdgeFlowletPolicy {
        EdgeFlowletPolicy { flowlets: FlowletTable::new(flowlet), paths: FxHashMap::default(), rng: SimRng::new(seed ^ 0xED6E) }
    }
}

impl clove_overlay::EdgePolicy for EdgeFlowletPolicy {
    fn name(&self) -> &'static str {
        "edge-flowlet"
    }

    fn select_port(&mut self, now: Time, dst_hv: HostId, pkt: &mut Packet) -> u16 {
        let paths = self.paths.get(&dst_hv).filter(|paths| !paths.is_empty());
        let rng = &mut self.rng;
        let flow = pkt.flow;
        self.flowlets.on_packet(now, flow, |flowlet_id| {
            paths.and_then(|paths| paths.spread(rng.below(paths.len() as u64))).unwrap_or_else(|| fallback_port(&flow, flowlet_id ^ 0xF10))
        })
    }

    fn on_paths_updated(&mut self, _now: Time, dst_hv: HostId, ports: &[u16]) {
        self.paths.entry(dst_hv).or_default().set_ports(ports);
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
    use clove_net::types::FlowKey;
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

// The smooth weighted round-robin that `PathSet` runs over its ports keeps
// its own test module: these exercise the scheduling arithmetic (picks,
// weights, cuts, decay), `paths::tests` the feedback history.
#[cfg(test)]
mod wrr {
    mod tests {
        use crate::PathSet;

        fn counts(w: &mut PathSet, n: usize) -> rustc_hash::FxHashMap<u16, usize> {
            let mut m = rustc_hash::FxHashMap::default();
            for _ in 0..n {
                *m.entry(w.pick().unwrap()).or_insert(0) += 1;
            }
            m
        }

        #[test]
        fn empty_returns_none() {
            let mut w = PathSet::new();
            assert!(w.pick().is_none());
        }

        #[test]
        fn equal_weights_rotate_evenly() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2, 3, 4]);
            let c = counts(&mut w, 400);
            for p in [1, 2, 3, 4] {
                assert_eq!(c[&p], 100, "port {p}");
            }
        }

        #[test]
        fn smooth_interleaving_not_runs() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2]);
            let picks: Vec<u16> = (0..8).map(|_| w.pick().unwrap()).collect();
            // Equal weights must alternate, never AABB.
            for pair in picks.windows(2) {
                assert_ne!(pair[0], pair[1], "run detected: {picks:?}");
            }
        }

        #[test]
        fn weights_respected_proportionally() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2]);
            w.set_weight(1, 3.0);
            w.set_weight(2, 1.0);
            let c = counts(&mut w, 4000);
            let ratio = c[&1] as f64 / c[&2] as f64;
            assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
        }

        #[test]
        fn cut_and_redistribute_conserves_mass() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2, 3, 4]);
            w.cut_and_redistribute(1, 1.0 / 3.0, &[2, 3, 4]);
            let total: f64 = [1, 2, 3, 4].iter().map(|&p| w.weight(p).unwrap()).sum();
            assert!((total - 1.0).abs() < 1e-9);
            let w1 = w.weight(1).unwrap();
            let w2 = w.weight(2).unwrap();
            // 0.25 → 0.25·⅔ ≈ 0.1667; receivers get 0.25/3/3 ≈ 0.0278 each.
            assert!((w1 - 0.1667).abs() < 0.01, "w1 {w1}");
            assert!((w2 - 0.2778).abs() < 0.01, "w2 {w2}");
        }

        #[test]
        fn cut_with_no_receivers_is_noop() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2]);
            let before = w.weight(1).unwrap();
            w.cut_and_redistribute(1, 0.5, &[]);
            assert_eq!(w.weight(1).unwrap(), before);
        }

        #[test]
        fn repeated_cuts_shift_traffic_away() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2, 3, 4]);
            for _ in 0..10 {
                w.cut_and_redistribute(1, 1.0 / 3.0, &[2, 3, 4]);
            }
            let c = counts(&mut w, 1000);
            assert!(c.get(&1).copied().unwrap_or(0) < 40, "congested path still used: {c:?}");
        }

        #[test]
        fn decay_restores_uniformity() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2]);
            w.set_weight(1, 0.9);
            w.set_weight(2, 0.1);
            for _ in 0..200 {
                w.decay_toward_uniform(0.05);
            }
            assert!((w.weight(1).unwrap() - 0.5).abs() < 0.02);
        }

        #[test]
        fn set_ports_preserves_surviving_weights() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2]);
            w.set_weight(1, 3.0);
            w.set_ports(&[1, 3]);
            // Port 1 keeps its (normalized) dominance over the newcomer.
            assert!(w.weight(1).unwrap() > w.weight(3).unwrap());
            assert!(w.weight(2).is_none());
        }

        #[test]
        fn remove_port_redistributes_proportionally() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2, 3]);
            w.set_weight(1, 4.0);
            w.set_weight(2, 2.0);
            w.set_weight(3, 2.0);
            w.remove_port(3);
            assert_eq!(w.ports(), vec![1, 2]);
            let total: f64 = w.weight(1).unwrap() + w.weight(2).unwrap();
            assert!((total - 1.0).abs() < 1e-9);
            // 4:2 relative learned weights survive the eviction.
            let ratio = w.weight(1).unwrap() / w.weight(2).unwrap();
            assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
            // Removing the last ports leaves an empty (None-picking) scheduler.
            w.remove_port(1);
            w.remove_port(2);
            assert!(w.pick().is_none());
        }

        #[test]
        fn add_port_gets_uniform_share() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2]);
            w.set_weight(1, 3.0);
            w.set_weight(2, 1.0);
            w.add_port(3);
            // Newcomer gets the mean share; 3:1 between survivors holds.
            let ratio = w.weight(1).unwrap() / w.weight(2).unwrap();
            assert!((ratio - 3.0).abs() < 1e-9, "ratio {ratio}");
            let w3 = w.weight(3).unwrap();
            assert!((w3 - 1.0 / 3.0).abs() < 0.01, "w3 {w3}");
            // Re-adding is a no-op; adding to empty gives full weight.
            w.add_port(3);
            assert_eq!(w.ports().len(), 3);
            let mut fresh = PathSet::new();
            fresh.add_port(9);
            assert_eq!(fresh.weight(9), Some(1.0));
        }

        #[test]
        fn non_finite_inputs_are_neutralized() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2, 3]);
            let before: Vec<f64> = [1, 2, 3].iter().map(|&p| w.weight(p).unwrap()).collect();
            // A NaN/infinite cut factor must not poison any weight.
            w.cut_and_redistribute(1, f64::NAN, &[2, 3]);
            w.cut_and_redistribute(1, f64::INFINITY, &[2, 3]);
            let after: Vec<f64> = [1, 2, 3].iter().map(|&p| w.weight(p).unwrap()).collect();
            assert_eq!(before, after);
            // NaN / negative set_weight collapses to the floor, never NaN.
            w.set_weight(2, f64::NAN);
            w.set_weight(3, -5.0);
            for p in [1, 2, 3] {
                let wt = w.weight(p).unwrap();
                assert!(wt.is_finite() && wt > 0.0, "port {p} weight {wt}");
            }
        }

        #[test]
        fn pick_terminates_uniform_after_total_collapse() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2, 3, 4]);
            // Drive every weight to the floor (simulates feedback gone haywire).
            for p in [1, 2, 3, 4] {
                w.set_weight(p, 0.0);
            }
            w.decay_toward_uniform(0.0); // normalize via public API
            let c = counts(&mut w, 400);
            // All-floor weights normalize back to uniform: even rotation.
            for p in [1, 2, 3, 4] {
                assert_eq!(c[&p], 100, "port {p}: {c:?}");
            }
        }

        #[test]
        fn weight_floor_prevents_starvation() {
            let mut w = PathSet::new();
            w.set_ports(&[1, 2]);
            for _ in 0..100 {
                w.cut_and_redistribute(1, 0.9, &[2]);
            }
            assert!(w.weight(1).unwrap() > 0.0);
            // Over a very long horizon port 1 is still picked occasionally.
            let c = counts(&mut w, 10_000);
            assert!(c.get(&1).copied().unwrap_or(0) > 0);
        }
    }
}
