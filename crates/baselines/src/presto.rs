//! Presto adapted to L3 ECMP (paper §5).
//!
//! The source vswitch chops each flow into fixed-size flowcells (64 KB —
//! one TSO segment) and assigns each flowcell the next encapsulation source
//! port from a weighted round-robin over a pre-computed port set. Weights
//! are *static*: under asymmetry the paper grants Presto ideal
//! oracle-configured weights (e.g. 0.33/0.33/0.17/0.17 when one of four
//! paths halves), and still shows it losing to congestion-aware schemes —
//! reproducing that requires honouring the same oracle here, via
//! [`PrestoConfig::weights`].
//!
//! Reordering caused by the spraying is hidden from the guest by the
//! receive-side reassembly in `clove_overlay::presto_rx`.

use clove_core::Wrr;
use clove_net::packet::Packet;
use clove_net::types::{FlowKey, HostId};
use clove_overlay::EdgePolicy;
use clove_sim::Time;
use rustc_hash::FxHashMap;

/// Flowcell size in payload bytes (Presto: 64 KB, one TSO segment).
pub const FLOWCELL_BYTES: u64 = 64 * 1024;

/// Presto tuning.
#[derive(Debug, Clone, Default)]
pub struct PrestoConfig {
    /// Static path weights applied to every destination's port set, in
    /// port order; `None` = uniform. (The oracle weights for asymmetric
    /// topologies.)
    pub weights: Option<Vec<f64>>,
}

#[derive(Default)]
struct FlowState {
    bytes_seen: u64,
    current_cell: u32,
    current_port: u16,
}

/// The Presto sender policy. See module docs.
pub struct PrestoPolicy {
    cfg: PrestoConfig,
    /// Per-destination WRR over discovered ports.
    wrr: FxHashMap<HostId, Wrr>,
    flows: FxHashMap<FlowKey, FlowState>,
}

impl PrestoPolicy {
    /// Build the policy.
    pub fn new(cfg: PrestoConfig) -> PrestoPolicy {
        PrestoPolicy { cfg, wrr: FxHashMap::default(), flows: FxHashMap::default() }
    }

    fn fallback_port(flow: &FlowKey, cell: u32) -> u16 {
        49152 + (clove_net::hash::hash_tuple(flow, cell as u64 ^ 0x9E57) % 64) as u16
    }
}

impl EdgePolicy for PrestoPolicy {
    fn name(&self) -> &'static str {
        "presto"
    }

    fn select_port(&mut self, _now: Time, dst: HostId, pkt: &mut Packet) -> u16 {
        let payload = match pkt.kind {
            clove_net::packet::PacketKind::Data { len, .. } => len as u64,
            _ => 0,
        };
        let st = self.flows.entry(pkt.flow).or_default();
        let cell = (st.bytes_seen / FLOWCELL_BYTES) as u32;
        // +1 so cell ids start at 1 and 0 means "no cell assigned".
        if cell + 1 != st.current_cell {
            st.current_cell = cell + 1;
            st.current_port = match self.wrr.get_mut(&dst).and_then(|w| w.pick()) {
                Some(p) => p,
                None => Self::fallback_port(&pkt.flow, cell),
            };
        }
        st.bytes_seen += payload;
        pkt.flowcell = st.current_cell;
        st.current_port
    }

    fn on_paths_updated(&mut self, _now: Time, dst: HostId, ports: &[u16]) {
        let wrr = self.wrr.entry(dst).or_default();
        wrr.set_ports(ports);
        if let Some(weights) = &self.cfg.weights {
            for (i, &p) in ports.iter().enumerate() {
                if let Some(&w) = weights.get(i) {
                    wrr.set_weight(p, w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_net::packet::PacketKind;
    use rustc_hash::{FxHashMap, FxHashSet};

    fn pkt(sport: u16, seq: u64) -> Packet {
        Packet::new(seq, 1500, FlowKey::tcp(HostId(0), HostId(1), sport, 80), PacketKind::Data { seq, len: 1400, dsn: seq })
    }

    fn policy() -> PrestoPolicy {
        let mut p = PrestoPolicy::new(PrestoConfig::default());
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20, 30, 40]);
        p
    }

    #[test]
    fn packets_within_a_flowcell_share_a_port() {
        let mut p = policy();
        let mut ports = FxHashSet::default();
        // 64 KB / 1400 B = ~46 packets per cell; first 40 stay in cell 1.
        for i in 0..40u64 {
            let mut a = pkt(1000, i * 1400);
            ports.insert(p.select_port(Time::ZERO, HostId(1), &mut a));
            assert_eq!(a.flowcell, 1);
        }
        assert_eq!(ports.len(), 1);
    }

    #[test]
    fn flowcell_boundary_rotates_port() {
        let mut p = policy();
        let mut cells = FxHashMap::default();
        for i in 0..200u64 {
            let mut a = pkt(1000, i * 1400);
            let port = p.select_port(Time::ZERO, HostId(1), &mut a);
            cells.entry(a.flowcell).or_insert(port);
        }
        // 200 × 1400 B = 280 KB → 5 flowcells over 4 ports: rotation must
        // visit every port.
        assert!(cells.len() >= 4, "cells: {cells:?}");
        let distinct: FxHashSet<u16> = cells.values().copied().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn static_weights_respected() {
        let mut p = PrestoPolicy::new(PrestoConfig { weights: Some(vec![0.33, 0.33, 0.17, 0.17]) });
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20, 30, 40]);
        let mut counts: FxHashMap<u16, usize> = FxHashMap::default();
        // 1000 flowcells of 1400 B packets.
        for i in 0..1000 * FLOWCELL_BYTES / 1400 {
            let mut a = pkt(1000, i * 1400);
            *counts.entry(p.select_port(Time::ZERO, HostId(1), &mut a)).or_insert(0) += 1;
        }
        let r = counts[&10] as f64 / counts[&30] as f64;
        assert!((1.5..2.5).contains(&r), "ratio {r}: {counts:?}");
    }

    #[test]
    fn weights_are_congestion_oblivious() {
        use clove_net::packet::Feedback;
        let mut p = policy();
        // Presto ignores feedback entirely.
        p.on_feedback(Time::ZERO, HostId(1), &Feedback::Ecn { sport: 10, congested: true });
        let mut counts: FxHashMap<u16, usize> = FxHashMap::default();
        for f in 0..400u16 {
            let mut a = pkt(2000 + f, 0);
            *counts.entry(p.select_port(Time::ZERO, HostId(1), &mut a)).or_insert(0) += 1;
        }
        assert_eq!(counts[&10], 100, "still equal share after ECN: {counts:?}");
    }

    #[test]
    fn fallback_without_discovery() {
        let mut p = PrestoPolicy::new(PrestoConfig::default());
        let mut a = pkt(1, 0);
        assert!(p.select_port(Time::ZERO, HostId(9), &mut a) >= 49152);
    }
}
