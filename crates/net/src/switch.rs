//! Switch state: ports, ECMP route tables, and optional in-switch schemes.
//!
//! A [`Switch`] is pure data — all forwarding logic lives in
//! [`crate::fabric`], which can borrow switches and links together. Route
//! tables map each destination host to an ECMP group of local egress ports;
//! they are recomputed from the live topology by
//! [`crate::topology::recompute_routes`] whenever a link changes state.
//!
//! The paper's comparison points that live *inside* the fabric are modeled
//! here as [`FabricScheme`]s:
//!
//! * [`FabricScheme::Ecmp`] — standard static hashing (what Clove runs on).
//! * [`FabricScheme::Conga`] — leaf-to-leaf congestion-aware flowlet
//!   routing with DRE metrics piggybacked in packet headers (Alizadeh et
//!   al., SIGCOMM '14), the "best-of-breed hardware" upper bound.

use crate::types::{FlowKey, HostId, LinkId, SwitchId};
use clove_sim::{Duration, Time};
use rustc_hash::FxHashMap;

/// Configuration for CONGA.
#[derive(Debug, Clone, Copy)]
pub struct CongaConfig {
    /// Inter-packet gap that opens a new flowlet at the source leaf.
    pub flowlet_gap: Duration,
    /// Bits of congestion-metric quantization (CONGA uses 3).
    pub quant_bits: u8,
    /// Entries of the congestion-to-leaf table aged out after this long.
    pub metric_age: Duration,
}

impl Default for CongaConfig {
    fn default() -> Self {
        CongaConfig { flowlet_gap: Duration::from_micros(200), quant_bits: 3, metric_age: Duration::from_millis(10) }
    }
}

/// Configuration for HULA (paper §8; Katta et al., SOSR '16).
#[derive(Debug, Clone, Copy)]
pub struct HulaConfig {
    /// How often each ToR floods probes.
    pub probe_interval: Duration,
    /// Inter-packet gap that opens a new flowlet.
    pub flowlet_gap: Duration,
    /// Best-hop entries older than this are ignored (failure hygiene).
    pub entry_age: Duration,
}

impl Default for HulaConfig {
    fn default() -> Self {
        HulaConfig { probe_interval: Duration::from_micros(100), flowlet_gap: Duration::from_micros(200), entry_age: Duration::from_millis(2) }
    }
}

/// Which algorithm the physical switches run.
#[derive(Debug, Clone, Copy)]
pub enum FabricScheme {
    /// Congestion-oblivious static hashing (default; Clove's substrate).
    Ecmp,
    /// Leaf-based congestion-aware flowlet routing (leaf-spine only).
    Conga(CongaConfig),
    /// Per-hop best-path routing from summarized INT state, flooded by
    /// probes (scales to any topology — paper §8).
    Hula(HulaConfig),
}

/// One flowlet-table entry (CONGA and HULA).
#[derive(Debug, Clone, Copy)]
pub struct FlowletEntry {
    /// Port index within the ECMP group chosen for the current flowlet.
    pub port_choice: usize,
    /// Last packet seen for this flow.
    pub last_seen: Time,
}

/// CONGA per-leaf state.
#[derive(Debug, Default)]
pub struct CongaState {
    /// `congestion_to_leaf[dst_leaf][lbtag]` — remote path congestion
    /// learned from feedback, with the time it was last refreshed.
    pub to_leaf: FxHashMap<u32, Vec<(u8, Time)>>,
    /// `congestion_from_leaf[src_leaf][lbtag]` — metrics observed on
    /// arriving packets, to be fed back to that leaf.
    pub from_leaf: FxHashMap<u32, Vec<(u8, Time)>>,
    /// Round-robin cursor per destination leaf for feedback piggybacking.
    pub fb_cursor: FxHashMap<u32, usize>,
    /// Flowlet table keyed by the routed five-tuple.
    pub flowlets: FxHashMap<FlowKey, FlowletEntry>,
}

/// A fabric switch. All fields are plain data; behaviour lives in
/// [`crate::fabric`].
#[derive(Debug)]
pub struct Switch {
    /// This switch's id (index into `Fabric::switches`).
    pub id: SwitchId,
    /// Egress links, indexed by local port number.
    pub ports: Vec<LinkId>,
    /// ECMP groups indexed by destination `HostId.0`: indices into
    /// `ports`, ascending. Dense (one slot per host) because forwarding
    /// consults it per packet per hop.
    pub routes: Vec<Vec<usize>>,
    /// Per-switch ECMP hash seed (vendors differ; so do we).
    pub seed: u64,
    /// True for ToR/leaf switches (CONGA's decision points).
    pub is_leaf: bool,
    /// Per-hop flowlet table: pins a flowlet to its egress at a CONGA
    /// spine or transit leaf, and at every HULA switch.
    pub hop_flowlets: FxHashMap<FlowKey, FlowletEntry>,
    /// CONGA state (used when the scheme is CONGA and `is_leaf`).
    pub conga: CongaState,
    /// HULA best-hop table: ToR id → (local port, path utilization ‰,
    /// last refresh).
    pub hula_best: FxHashMap<u32, (usize, u16, Time)>,
}

impl Switch {
    /// A switch with no ports or routes yet.
    pub fn new(id: SwitchId, seed: u64, is_leaf: bool) -> Switch {
        Switch {
            id,
            ports: Vec::new(),
            routes: Vec::new(),
            seed,
            is_leaf,
            hop_flowlets: FxHashMap::default(),
            conga: CongaState::default(),
            hula_best: FxHashMap::default(),
        }
    }

    /// The ECMP group toward `dst`, if any route exists.
    pub fn group(&self, dst: HostId) -> Option<&[usize]> {
        self.routes.get(dst.0 as usize).filter(|v| !v.is_empty()).map(|v| v.as_slice())
    }

    /// Flush every soft table a power-cycle would lose: the per-hop
    /// flowlet table, all CONGA maps, the HULA best-hop table. Ports,
    /// routes, and the hash seed are hardware/config state and survive.
    pub fn cold_clear(&mut self) {
        self.hop_flowlets.clear();
        self.conga.to_leaf.clear();
        self.conga.from_leaf.clear();
        self.conga.fb_cursor.clear();
        self.conga.flowlets.clear();
        self.hula_best.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_clear_flushes_soft_tables_only() {
        let mut sw = Switch::new(SwitchId(0), 99, true);
        sw.ports = vec![LinkId(0)];
        sw.routes = vec![vec![0]];
        sw.hop_flowlets.insert(FlowKey::tcp(HostId(0), HostId(1), 1, 2), FlowletEntry { port_choice: 0, last_seen: Time::ZERO });
        sw.conga.to_leaf.insert(1, vec![(3, Time::ZERO)]);
        sw.conga.from_leaf.insert(1, vec![(3, Time::ZERO)]);
        sw.conga.fb_cursor.insert(1, 1);
        sw.conga.flowlets.insert(FlowKey::tcp(HostId(0), HostId(1), 1, 2), FlowletEntry { port_choice: 0, last_seen: Time::ZERO });
        sw.hula_best.insert(0, (0, 10, Time::ZERO));
        sw.cold_clear();
        assert!(sw.hop_flowlets.is_empty());
        assert!(sw.conga.to_leaf.is_empty());
        assert!(sw.conga.from_leaf.is_empty());
        assert!(sw.conga.fb_cursor.is_empty());
        assert!(sw.conga.flowlets.is_empty());
        assert!(sw.hula_best.is_empty());
        // Hardware/config state survives.
        assert_eq!(sw.ports, vec![LinkId(0)]);
        assert_eq!(sw.routes, vec![vec![0]]);
        assert_eq!(sw.seed, 99);
    }

    #[test]
    fn group_lookup() {
        let mut sw = Switch::new(SwitchId(0), 1, true);
        sw.ports = vec![LinkId(0), LinkId(1)];
        sw.routes = vec![Vec::new(); 6];
        sw.routes[5] = vec![0, 1];
        assert_eq!(sw.group(HostId(5)), Some(&[0usize, 1][..]));
        assert_eq!(sw.group(HostId(6)), None);
    }
}
