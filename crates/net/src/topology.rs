//! Topology builders and shortest-path ECMP routing.
//!
//! The paper's testbed is a 2-tier leaf-spine: two leaves, two spines,
//! *two* 40G links between every leaf-spine pair (four disjoint fabric
//! paths), 16 × 10G hosts per leaf, full bisection. [`LeafSpine`]
//! generalizes this (any leaf/spine/host counts and trunking factor), and
//! [`FatTree`] builds k-ary fat-trees, backing the paper's "works on any
//! topology" claim.
//!
//! Routing is computed from the live graph — BFS from every host over *up*
//! links, with every minimal-distance egress admitted to the ECMP group.
//! This is rerun on any link state change, which is exactly the remap that
//! forces Clove to re-discover its port→path mapping (paper §3.1).

use crate::fabric::{Fabric, HostAttachment};
use crate::fault::{CableSelector, NodeSelector};
use crate::link::{Link, LinkConfig};
use crate::switch::{FabricScheme, Switch};
use crate::types::{HostId, LinkId, NodeId, SwitchId};
use std::collections::VecDeque;

/// A constructed topology: the fabric plus builder metadata that
/// experiments use (e.g. which link to fail).
pub struct Topology {
    /// The runnable fabric.
    pub fabric: Fabric,
    /// Human-readable name.
    pub name: String,
    /// Duplex pairs: `(a_to_b, b_to_a)` for every cable, for admin ops.
    pub cables: Vec<(LinkId, LinkId)>,
    /// Total bisection bandwidth in bits/sec (leaf-spine capacity).
    pub bisection_bps: u64,
    /// Number of hosts.
    pub num_hosts: u32,
    /// Leaf count (0 for topologies without named tiers, e.g. fat-trees).
    pub leaves: u32,
    /// Spine count (0 when tiers are unnamed).
    pub spines: u32,
    /// Parallel cables per leaf-spine pair (0 when tiers are unnamed).
    pub trunk: u32,
}

impl Topology {
    /// Both directed link ids of the cable between two nodes, if present.
    pub fn cable_between(&self, a: NodeId, b: NodeId) -> Option<(LinkId, LinkId)> {
        self.cables.iter().copied().find(|&(ab, _)| {
            let l = self.fabric.link(ab);
            l.from == a && l.to == b
        })
    }

    /// Resolve a named [`CableSelector`] against this topology's cables.
    ///
    /// `LeafSpine` selectors need the leaf/spine/trunk metadata that only
    /// the [`LeafSpine`] builder records (fat-trees return `None` — use
    /// `Index` there). `Access` and `Index` work on any topology.
    pub fn resolve_cable(&self, sel: CableSelector) -> Option<(LinkId, LinkId)> {
        match sel {
            CableSelector::LeafSpine { leaf, spine, which } => {
                if leaf >= self.leaves || spine >= self.spines || which >= self.trunk {
                    return None;
                }
                // The LeafSpine builder pushes fabric cables first, in
                // leaf-major, then spine, then trunk order.
                let idx = ((leaf * self.spines + spine) * self.trunk + which) as usize;
                self.cables.get(idx).copied()
            }
            CableSelector::Access { host } => {
                let att = self.fabric.hosts.get(host as usize)?;
                self.cable_between(NodeId::Host(HostId(host)), NodeId::Switch(att.leaf))
            }
            CableSelector::Index(idx) => self.cables.get(idx).copied(),
        }
    }

    /// A one-line description of every [`CableSelector`] form this topology
    /// can resolve, for fault-plan validation errors: a mis-named cable
    /// should tell the author what *would* have worked.
    pub fn cable_catalog(&self) -> String {
        let mut forms = Vec::new();
        if self.leaves > 0 && self.spines > 0 && self.trunk > 0 {
            forms.push(format!("LeafSpine {{ leaf: 0..{}, spine: 0..{}, which: 0..{} }}", self.leaves, self.spines, self.trunk));
        }
        if self.num_hosts > 0 {
            forms.push(format!("Access {{ host: 0..{} }}", self.num_hosts));
        }
        forms.push(format!("Index(0..{})", self.cables.len()));
        format!("valid cable selectors: {}", forms.join(", "))
    }

    /// Resolve a [`NodeSelector`] to its switch id, if the tier is named on
    /// this topology. Hosts have no switch id (`None` — use
    /// [`NodeSelector::index`] as the `HostId`).
    pub fn resolve_switch(&self, node: NodeSelector) -> Option<crate::types::SwitchId> {
        match node {
            NodeSelector::Leaf(l) if self.leaves > 0 && l < self.leaves => Some(SwitchId(l)),
            NodeSelector::Spine(s) if self.spines > 0 && s < self.spines => Some(SwitchId(self.leaves + s)),
            _ => None,
        }
    }

    /// The deterministic incident cable set of a node, in catalog order —
    /// what a node fault lowers onto (see `fault` module docs). `None` when
    /// the selector does not resolve (tier out of range, or a named tier on
    /// a topology without tier metadata, e.g. fat-trees).
    pub fn incident_cables(&self, node: NodeSelector) -> Option<Vec<CableSelector>> {
        match node {
            NodeSelector::Leaf(l) => {
                self.resolve_switch(node)?;
                let mut out = Vec::new();
                for s in 0..self.spines {
                    for w in 0..self.trunk {
                        out.push(CableSelector::LeafSpine { leaf: l, spine: s, which: w });
                    }
                }
                for (h, att) in self.fabric.hosts.iter().enumerate() {
                    if att.leaf == SwitchId(l) {
                        out.push(CableSelector::Access { host: h as u32 });
                    }
                }
                Some(out)
            }
            NodeSelector::Spine(s) => {
                self.resolve_switch(node)?;
                let mut out = Vec::new();
                for l in 0..self.leaves {
                    for w in 0..self.trunk {
                        out.push(CableSelector::LeafSpine { leaf: l, spine: s, which: w });
                    }
                }
                Some(out)
            }
            NodeSelector::Host(h) => {
                if h < self.num_hosts {
                    Some(vec![CableSelector::Access { host: h }])
                } else {
                    None
                }
            }
        }
    }

    /// A one-line description of every [`NodeSelector`] form this topology
    /// can resolve, for node-fault validation errors.
    pub fn node_catalog(&self) -> String {
        let mut forms = Vec::new();
        if self.leaves > 0 && self.spines > 0 {
            forms.push(format!("Leaf(0..{})", self.leaves));
            forms.push(format!("Spine(0..{})", self.spines));
        }
        if self.num_hosts > 0 {
            forms.push(format!("Host(0..{})", self.num_hosts));
        }
        format!("valid node selectors: {}", forms.join(", "))
    }
}

/// Builder for 2-tier leaf-spine fabrics (the paper's testbed shape).
#[derive(Debug, Clone)]
pub struct LeafSpine {
    /// Number of leaf (ToR) switches.
    pub leaves: u32,
    /// Number of spine switches.
    pub spines: u32,
    /// Parallel cables between each leaf-spine pair (the testbed uses 2).
    pub trunk: u32,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: u32,
    /// Host access link rate (testbed: 10G; scale as needed).
    pub access_bps: u64,
    /// Leaf-spine link rate (testbed: 40G).
    pub fabric_bps: u64,
    /// Link config template for access links (rate overridden).
    pub access_cfg: LinkConfig,
    /// Link config template for fabric links (rate overridden).
    pub fabric_cfg: LinkConfig,
    /// Scheme the switches run.
    pub scheme: FabricScheme,
    /// Seed for per-switch hash seeds and fabric RNG.
    pub seed: u64,
}

impl LeafSpine {
    /// The paper's testbed, with rates scaled by `scale` (1.0 = 40G/10G).
    /// Use a small scale (e.g. 0.1 → 4G/1G) to keep simulations cheap while
    /// preserving the 16:4 host:fabric-path ratio and full bisection.
    pub fn paper_testbed(scale: f64, seed: u64) -> LeafSpine {
        let access = (10e9 * scale) as u64;
        let fabric = (40e9 * scale) as u64;
        LeafSpine {
            leaves: 2,
            spines: 2,
            trunk: 2,
            hosts_per_leaf: 16,
            access_bps: access,
            fabric_bps: fabric,
            access_cfg: LinkConfig::for_rate(access),
            fabric_cfg: LinkConfig::for_rate(fabric),
            scheme: FabricScheme::Ecmp,
            seed,
        }
    }

    /// Construct the fabric.
    pub fn build(&self) -> Topology {
        assert!(self.leaves > 0 && self.spines > 0 && self.trunk > 0 && self.hosts_per_leaf > 0);
        let mut switches = Vec::new();
        let mut links: Vec<Link> = Vec::new();
        let mut cables = Vec::new();
        let mut hosts = Vec::new();

        let mut seed_gen = clove_sim::SimRng::new(self.seed ^ 0x70_50_10);
        // Leaves first, then spines.
        for i in 0..self.leaves {
            switches.push(Switch::new(SwitchId(i), seed_gen.u64(), true));
        }
        for i in 0..self.spines {
            switches.push(Switch::new(SwitchId(self.leaves + i), seed_gen.u64(), false));
        }

        // Fabric cables: leaf <-> spine, `trunk` parallel cables each.
        let mut fcfg = self.fabric_cfg;
        fcfg.rate_bps = self.fabric_bps;
        for l in 0..self.leaves {
            for s in 0..self.spines {
                for _ in 0..self.trunk {
                    let pair = add_cable(&mut links, &mut switches, NodeId::Switch(SwitchId(l)), NodeId::Switch(SwitchId(self.leaves + s)), fcfg);
                    cables.push(pair);
                }
            }
        }

        // Access cables: host <-> leaf.
        let mut acfg = self.access_cfg;
        acfg.rate_bps = self.access_bps;
        for l in 0..self.leaves {
            for h in 0..self.hosts_per_leaf {
                let host = HostId(l * self.hosts_per_leaf + h);
                let (up, down) = add_cable(&mut links, &mut switches, NodeId::Host(host), NodeId::Switch(SwitchId(l)), acfg);
                cables.push((up, down));
                hosts.push(HostAttachment { uplink: up, downlink: down, leaf: SwitchId(l) });
            }
        }

        let mut fabric = Fabric::new(switches, links, hosts, self.scheme, self.seed);
        recompute_routes(&mut fabric);
        // Bisection: uplink capacity of one leaf (symmetric Clos).
        let bisection = self.fabric_bps * (self.spines * self.trunk) as u64;
        Topology {
            fabric,
            name: format!(
                "leafspine-{}x{}x{}t{} ({}G/{}G)",
                self.leaves,
                self.spines,
                self.hosts_per_leaf,
                self.trunk,
                self.fabric_bps / 1_000_000_000,
                self.access_bps / 1_000_000_000
            ),
            cables,
            bisection_bps: bisection,
            num_hosts: self.leaves * self.hosts_per_leaf,
            leaves: self.leaves,
            spines: self.spines,
            trunk: self.trunk,
        }
    }
}

/// Lay one duplex cable between `a` and `b`: two links, `a→b` then `b→a`,
/// each the other's reverse, appended to `links`, and each appended to the
/// port list of its sending switch. Returns `(a→b, b→a)`.
fn add_cable(links: &mut Vec<Link>, switches: &mut [Switch], a: NodeId, b: NodeId, cfg: LinkConfig) -> (LinkId, LinkId) {
    let ab = LinkId(links.len() as u32);
    links.push(Link::new(ab, a, b, cfg));
    let ba = LinkId(links.len() as u32);
    links.push(Link::new(ba, b, a, cfg));
    links[ab.0 as usize].reverse = Some(ba);
    links[ba.0 as usize].reverse = Some(ab);
    if let NodeId::Switch(s) = a {
        switches[s.0 as usize].ports.push(ab);
    }
    if let NodeId::Switch(s) = b {
        switches[s.0 as usize].ports.push(ba);
    }
    (ab, ba)
}

/// Builder for k-ary fat-trees (k pods; k²/4 cores; k/2 aggs + k/2 edges
/// per pod; k/2 hosts per edge) — used to demonstrate topology-agnostic
/// path discovery.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Pod arity; must be even and ≥ 2.
    pub k: u32,
    /// Host access rate.
    pub access_bps: u64,
    /// Switch-switch rate.
    pub fabric_bps: u64,
    /// Link config template for access links (rate overridden).
    pub access_cfg: LinkConfig,
    /// Link config template for switch-switch links (rate overridden).
    pub fabric_cfg: LinkConfig,
    /// Scheme the switches run.
    pub scheme: FabricScheme,
    /// Seed.
    pub seed: u64,
}

impl FatTree {
    /// Construct the fat-tree fabric.
    pub fn build(&self) -> Topology {
        let k = self.k;
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
        let half = k / 2;
        let num_edge = k * half;
        let num_agg = k * half;
        let num_core = half * half;
        let mut seed_gen = clove_sim::SimRng::new(self.seed ^ 0xFA7_7EE);

        // Switch ids: edges [0, num_edge), aggs [num_edge, +num_agg),
        // cores [num_edge+num_agg, +num_core).
        let mut switches = Vec::new();
        for i in 0..num_edge {
            switches.push(Switch::new(SwitchId(i), seed_gen.u64(), true));
        }
        for i in 0..num_agg {
            switches.push(Switch::new(SwitchId(num_edge + i), seed_gen.u64(), false));
        }
        for i in 0..num_core {
            switches.push(Switch::new(SwitchId(num_edge + num_agg + i), seed_gen.u64(), false));
        }

        let mut links: Vec<Link> = Vec::new();
        let mut cables = Vec::new();
        let mut hosts = Vec::new();

        let fcfg = LinkConfig { rate_bps: self.fabric_bps, ..self.fabric_cfg };
        let acfg = LinkConfig { rate_bps: self.access_bps, ..self.access_cfg };

        for pod in 0..k {
            for e in 0..half {
                let edge = SwitchId(pod * half + e);
                for a in 0..half {
                    let agg = SwitchId(num_edge + pod * half + a);
                    cables.push(add_cable(&mut links, &mut switches, NodeId::Switch(edge), NodeId::Switch(agg), fcfg));
                }
            }
            for a in 0..half {
                let agg = SwitchId(num_edge + pod * half + a);
                for c in 0..half {
                    let core = SwitchId(num_edge + num_agg + a * half + c);
                    cables.push(add_cable(&mut links, &mut switches, NodeId::Switch(agg), NodeId::Switch(core), fcfg));
                }
            }
        }
        for pod in 0..k {
            for e in 0..half {
                let edge = SwitchId(pod * half + e);
                for h in 0..half {
                    let host = HostId((pod * half + e) * half + h);
                    let (up, down) = add_cable(&mut links, &mut switches, NodeId::Host(host), NodeId::Switch(edge), acfg);
                    cables.push((up, down));
                    hosts.push(HostAttachment { uplink: up, downlink: down, leaf: edge });
                }
            }
        }

        let num_hosts = hosts.len() as u32;
        let mut fabric = Fabric::new(switches, links, hosts, self.scheme, self.seed);
        recompute_routes(&mut fabric);
        Topology {
            fabric,
            name: format!("fattree-k{k}"),
            cables,
            // Worst-case pod bisection: each of the k²/4 cores contributes
            // k/2 links across any half-half pod cut.
            bisection_bps: (num_core as u64) * (half as u64) * self.fabric_bps,
            num_hosts,
            // Fat-trees have no single leaf/spine naming; named selectors
            // resolve to None and callers fall back to `Index`.
            leaves: 0,
            spines: 0,
            trunk: 0,
        }
    }
}

/// Recompute every switch's ECMP route table from the live graph.
///
/// For each destination host, a reverse BFS over *up* links labels every
/// switch with its hop distance; a switch's ECMP group toward the host is
/// every local port whose up link leads one hop closer. Groups are kept in
/// ascending port order for determinism.
pub fn recompute_routes(fabric: &mut Fabric) {
    let num_switches = fabric.switches.len();
    // Adjacency (reverse): for node B, the links arriving at B.
    // We walk *forward* from switches, so build: for each switch, its up
    // egress links and their target nodes.
    let num_hosts = fabric.hosts.len();
    for sw in &mut fabric.switches {
        sw.routes.clear();
        sw.routes.resize(num_hosts, Vec::new());
    }

    for h in 0..fabric.hosts.len() {
        let host = HostId(h as u32);
        // dist[switch] = hops from switch to host (via up links).
        let mut dist = vec![u32::MAX; num_switches];
        let mut queue = VecDeque::new();
        // Seed: the host's leaf, if its downlink is up.
        let att = fabric.hosts[h];
        if fabric.links[att.downlink.0 as usize].up {
            dist[att.leaf.0 as usize] = 1;
            queue.push_back(att.leaf.0 as usize);
        }
        // BFS over reversed fabric links: switch A is at dist d+1 if it has
        // an up link to a switch at dist d.
        // Build reverse adjacency on the fly: iterate all links each BFS
        // level — fabrics are small (≤ a few hundred links), and this runs
        // only on topology changes.
        while let Some(b) = queue.pop_front() {
            let db = dist[b];
            for l in &fabric.links {
                if !l.up {
                    continue;
                }
                let (NodeId::Switch(from), NodeId::Switch(to)) = (l.from, l.to) else {
                    continue;
                };
                if to.0 as usize == b && dist[from.0 as usize] == u32::MAX {
                    dist[from.0 as usize] = db + 1;
                    queue.push_back(from.0 as usize);
                }
            }
        }
        // Assign groups.
        for (si, sw) in fabric.switches.iter_mut().enumerate() {
            if dist[si] == u32::MAX {
                continue;
            }
            let mut group = Vec::new();
            for (pi, &lid) in sw.ports.iter().enumerate() {
                let l = &fabric.links[lid.0 as usize];
                if !l.up {
                    continue;
                }
                let closer = match l.to {
                    NodeId::Host(hh) => hh == host,
                    NodeId::Switch(s) => dist[s.0 as usize] != u32::MAX && dist[s.0 as usize] + 1 == dist[si],
                };
                if closer {
                    group.push(pi);
                }
            }
            if !group.is_empty() {
                sw.routes[host.0 as usize] = group;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkAction;
    use clove_sim::{EventQueue, Time};

    fn testbed() -> Topology {
        LeafSpine::paper_testbed(0.1, 42).build()
    }

    /// An announced fault on both directions of `cable`, the way a run's
    /// fault plan takes a cable down or brings it back.
    fn set_cable(t: &mut Topology, cable: (LinkId, LinkId), action: LinkAction) {
        let mut q = EventQueue::new();
        for link in [cable.0, cable.1] {
            t.fabric.apply_fault(Time::ZERO, link, action, true, &mut q);
        }
    }

    #[test]
    fn paper_testbed_shape() {
        let t = testbed();
        assert_eq!(t.num_hosts, 32);
        assert_eq!(t.fabric.switches.len(), 4);
        // 8 fabric cables (2 leaves × 2 spines × trunk 2) + 32 access = 40
        // cables = 80 directed links.
        assert_eq!(t.fabric.links.len(), 80);
        assert_eq!(t.bisection_bps, 16_000_000_000);
    }

    #[test]
    fn leaf_has_four_uplink_ecmp_paths_to_remote_host() {
        let t = testbed();
        // Host 16 lives on leaf 1; leaf 0's group toward it = 4 uplinks.
        let leaf0 = &t.fabric.switches[0];
        let group = leaf0.group(HostId(16)).expect("route exists");
        assert_eq!(group.len(), 4);
        // And toward a local host: exactly the single access port.
        let local = leaf0.group(HostId(0)).expect("local route");
        assert_eq!(local.len(), 1);
    }

    #[test]
    fn spine_routes_to_both_leaves() {
        let t = testbed();
        let spine = &t.fabric.switches[2];
        let g0 = spine.group(HostId(0)).unwrap();
        let g16 = spine.group(HostId(16)).unwrap();
        // trunk = 2 downlinks to each leaf.
        assert_eq!(g0.len(), 2);
        assert_eq!(g16.len(), 2);
        assert_ne!(g0, g16);
    }

    #[test]
    fn failing_a_fabric_cable_shrinks_groups() {
        let mut t = testbed();
        // Find a cable between spine 3 (S2) and leaf 1 (L2).
        let cable = t.cable_between(NodeId::Switch(SwitchId(1)), NodeId::Switch(SwitchId(3))).expect("fabric cable exists");
        set_cable(&mut t, cable, LinkAction::Down);
        // Spine 3 now has 1 downlink to leaf 1.
        let spine = &t.fabric.switches[3];
        assert_eq!(spine.group(HostId(16)).unwrap().len(), 1);
        // Leaf 0 still ECMPs over all 4 uplinks (asymmetry!).
        assert_eq!(t.fabric.switches[0].group(HostId(16)).unwrap().len(), 4);
        // Leaf 1's uplinks toward leaf-0 hosts drop to 3.
        assert_eq!(t.fabric.switches[1].group(HostId(0)).unwrap().len(), 3);
        // Restore brings it back.
        set_cable(&mut t, cable, LinkAction::Up);
        assert_eq!(t.fabric.switches[1].group(HostId(0)).unwrap().len(), 4);
    }

    #[test]
    fn isolated_host_unroutable() {
        let mut t = testbed();
        let att = t.fabric.hosts[0];
        let cable = t.cable_between(NodeId::Host(HostId(0)), NodeId::Switch(att.leaf)).expect("access cable");
        set_cable(&mut t, cable, LinkAction::Down);
        assert!(t.fabric.switches[0].group(HostId(0)).is_none());
        assert!(t.fabric.switches[2].group(HostId(0)).is_none());
    }

    fn fat_tree_k4() -> Topology {
        let cfg = LinkConfig::for_rate(1_000_000_000);
        FatTree { k: 4, access_bps: cfg.rate_bps, fabric_bps: cfg.rate_bps, access_cfg: cfg, fabric_cfg: cfg, scheme: FabricScheme::Ecmp, seed: 7 }.build()
    }

    #[test]
    fn fat_tree_k4_shape_and_routes() {
        let ft = fat_tree_k4();
        assert_eq!(ft.num_hosts, 16);
        assert_eq!(ft.fabric.switches.len(), 8 + 8 + 4);
        // Edge switch of host 0 toward a host in another pod: 2 agg uplinks.
        let edge0 = &ft.fabric.switches[0];
        let group = edge0.group(HostId(15)).expect("cross-pod route");
        assert_eq!(group.len(), 2);
        // Aggregation toward another pod: 2 core uplinks.
        let agg = &ft.fabric.switches[8];
        assert_eq!(agg.group(HostId(15)).unwrap().len(), 2);
        // Same-pod, different edge: route via aggs, not cores.
        let g_same_pod = edge0.group(HostId(2)).unwrap();
        assert_eq!(g_same_pod.len(), 2);
    }

    #[test]
    fn named_cable_selectors_resolve() {
        let t = testbed();
        // S2–L2 by name = the cable the asymmetry experiments cut.
        let by_name = t.resolve_cable(CableSelector::S2_L2).expect("resolves");
        let by_lookup = t.cable_between(NodeId::Switch(SwitchId(1)), NodeId::Switch(SwitchId(3))).expect("fabric cable exists");
        assert_eq!(by_name, by_lookup);
        // Second trunk cable of the same pair is the adjacent one.
        let second = t.resolve_cable(CableSelector::LeafSpine { leaf: 1, spine: 1, which: 1 }).expect("resolves");
        assert_ne!(second, by_name);
        assert_eq!(t.fabric.link(second.0).from, NodeId::Switch(SwitchId(1)));
        assert_eq!(t.fabric.link(second.0).to, NodeId::Switch(SwitchId(3)));
        // Access selector finds the host's uplink cable.
        let access = t.resolve_cable(CableSelector::Access { host: 5 }).expect("resolves");
        assert_eq!(t.fabric.link(access.0).from, NodeId::Host(HostId(5)));
        // Out-of-range selectors refuse.
        assert!(t.resolve_cable(CableSelector::LeafSpine { leaf: 9, spine: 0, which: 0 }).is_none());
        assert!(t.resolve_cable(CableSelector::Index(10_000)).is_none());
        // Fat-trees have no named tiers.
        let ft = fat_tree_k4();
        assert!(ft.resolve_cable(CableSelector::S2_L2).is_none());
        assert!(ft.resolve_cable(CableSelector::Index(0)).is_some());
    }

    #[test]
    fn incident_cables_cover_node_fault_domains() {
        let t = testbed();
        // Leaf 1: 2 spines × trunk 2 uplinks + its 16 access cables.
        let leaf = t.incident_cables(NodeSelector::Leaf(1)).expect("resolves");
        assert_eq!(leaf.len(), 4 + 16);
        assert_eq!(leaf[0], CableSelector::LeafSpine { leaf: 1, spine: 0, which: 0 });
        assert_eq!(leaf[4], CableSelector::Access { host: 16 });
        assert_eq!(leaf[19], CableSelector::Access { host: 31 });
        // Spine 0: trunk 2 downlinks to each of the 2 leaves.
        let spine = t.incident_cables(NodeSelector::Spine(0)).expect("resolves");
        assert_eq!(spine.len(), 4);
        assert!(spine.iter().all(|c| matches!(c, CableSelector::LeafSpine { spine: 0, .. })));
        // Host 5: exactly its access cable.
        assert_eq!(t.incident_cables(NodeSelector::Host(5)).expect("resolves"), vec![CableSelector::Access { host: 5 }]);
        // Every incident cable resolves on the topology it came from.
        for c in leaf.iter().chain(&spine) {
            assert!(t.resolve_cable(*c).is_some());
        }
        // Out-of-range and unnamed tiers refuse.
        assert!(t.incident_cables(NodeSelector::Leaf(2)).is_none());
        assert!(t.incident_cables(NodeSelector::Host(32)).is_none());
        assert_eq!(t.resolve_switch(NodeSelector::Spine(1)), Some(SwitchId(3)));
        assert!(t.resolve_switch(NodeSelector::Host(0)).is_none());
        let ft = fat_tree_k4();
        assert!(ft.incident_cables(NodeSelector::Leaf(0)).is_none());
        assert!(ft.incident_cables(NodeSelector::Host(0)).is_some());
        assert!(ft.node_catalog().contains("Host(0..16)"));
        assert!(t.node_catalog().contains("Leaf(0..2)"));
    }

    #[test]
    fn routes_are_deterministic_across_builds() {
        let a = testbed();
        let b = testbed();
        for (sa, sb) in a.fabric.switches.iter().zip(&b.fabric.switches) {
            assert_eq!(sa.seed, sb.seed);
            for h in 0..32 {
                assert_eq!(sa.group(HostId(h)), sb.group(HostId(h)));
            }
        }
    }
}
