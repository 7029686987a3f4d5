//! Integration tests: the traceroute daemon against the real simulated
//! fabric — discovered ports must actually map to distinct paths, and
//! topology changes must be re-learned.

use clove::algo::{DiscoveryEvent, ProbeDaemon};
use clove::net::fabric::Event;
use clove::net::fault::LinkAction;
use clove::net::link::LinkConfig;
use clove::net::packet::{Encap, Packet, PacketKind};
use clove::net::topology::{FatTree, LeafSpine, Topology};
use clove::net::types::{FlowKey, HostId, LinkId, NodeId, SwitchId};
use clove::net::{switch::FabricScheme, HostCtx, HostLogic, Network};
use clove::sim::{Duration, EventQueue, Time};

/// The default profile's probe interval (rounds here are driven by hand).
const PROBE_INTERVAL: Duration = Duration::from_millis(100);

struct ProbeSink {
    daemon: ProbeDaemon,
}

impl HostLogic for ProbeSink {
    fn on_packet(&mut self, host: HostId, pkt: Packet, _ctx: &mut HostCtx<'_>) {
        if host == self.daemon.host {
            if let PacketKind::ProbeReply { probe_id, ttl_sent, switch, ingress } = pkt.kind {
                self.daemon.on_reply(probe_id, ttl_sent, switch, ingress);
            }
        }
    }
    fn on_timer(&mut self, _: HostId, _: u64, _: &mut HostCtx<'_>) {}
}

fn run_discovery(net: &mut Network<ProbeSink>, now: Time, dst: HostId) -> Option<Vec<u16>> {
    let mut queue: EventQueue<Event> = EventQueue::new();
    let probes = net.hosts.daemon.start_round(dst);
    let src = net.hosts.daemon.host;
    for p in probes {
        net.fabric.host_transmit(now, src, p, &mut queue);
    }
    clove::sim::run(net, &mut queue, now + Duration::from_millis(10));
    net.hosts.daemon.finish_round(now + Duration::from_millis(10), dst).into_iter().find_map(|ev| match ev {
        DiscoveryEvent::PathsUpdated { ports, .. } => Some(ports),
        _ => None,
    })
}

fn testbed() -> Topology {
    LeafSpine::paper_testbed(1.0, 3).build()
}

/// The first-hop uplink a data packet with this outer sport takes.
fn first_hop_port(net: &Network<ProbeSink>, src: HostId, dst: HostId, sport: u16) -> usize {
    let leaf = net.fabric.leaf_of(src);
    let key = FlowKey::tcp(src, dst, sport, clove::net::types::STT_PORT);
    let sw = &net.fabric.switches[leaf.0 as usize];
    let group = sw.group(dst).expect("route");
    group[clove::net::hash::ecmp_select(&key, sw.seed, group.len())]
}

#[test]
fn discovers_four_distinct_paths_on_healthy_testbed() {
    let topo = testbed();
    let daemon = ProbeDaemon::new(HostId(0), PROBE_INTERVAL, 11);
    let mut net = Network::new(topo.fabric, ProbeSink { daemon });
    let ports = run_discovery(&mut net, Time::ZERO, HostId(16)).expect("selection");
    // Four disjoint fabric paths exist; discovery should find all four.
    assert_eq!(ports.len(), 4, "found {ports:?}");
    // Each selected port must take a distinct first-hop uplink.
    let mut uplinks: Vec<usize> = ports.iter().map(|&p| first_hop_port(&net, HostId(0), HostId(16), p)).collect();
    uplinks.sort_unstable();
    uplinks.dedup();
    assert_eq!(uplinks.len(), 4, "ports share first hops: {uplinks:?}");
}

#[test]
fn probes_equal_data_hashing() {
    // The entire discovery premise: a probe with sport P follows the same
    // path a data packet with sport P will. Verify the fabric hashes them
    // identically by construction of the outer key.
    let mut probe = Packet::new(1, 100, FlowKey::tcp(HostId(0), HostId(16), 5555, clove::net::types::STT_PORT), PacketKind::Probe { probe_id: 9, ttl_sent: 1 });
    probe.outer = Some(Encap { src: HostId(0), dst: HostId(16), sport: 5555 });
    let mut data = Packet::new(2, 1500, FlowKey::tcp(HostId(0), HostId(16), 1234, 80), PacketKind::Data { seq: 0, len: 1400, dsn: 0 });
    data.outer = Some(Encap { src: HostId(0), dst: HostId(16), sport: 5555 });
    assert_eq!(probe.routed_key(), data.routed_key());
}

#[test]
fn rediscovery_after_failure_shrinks_selection() {
    let topo = testbed();
    let daemon = ProbeDaemon::new(HostId(0), PROBE_INTERVAL, 11);
    let mut net = Network::new(topo.fabric, ProbeSink { daemon });
    let before = run_discovery(&mut net, Time::ZERO, HostId(16)).expect("selection");
    assert_eq!(before.len(), 4);
    // Fail one S2→L2 direction pair (cable kill).
    let ab = net.fabric.links.iter().position(|l| l.from == NodeId::Switch(SwitchId(3)) && l.to == NodeId::Switch(SwitchId(1))).unwrap();
    // Find its reverse.
    let (from, to) = (net.fabric.links[ab].from, net.fabric.links[ab].to);
    let ba = net.fabric.links.iter().position(|l| l.from == to && l.to == from).unwrap();
    // The fabric is idle between rounds, so a scratch queue suffices.
    let mut admin_q: EventQueue<Event> = EventQueue::new();
    for link in [ab, ba] {
        net.fabric.apply_fault(Time::from_millis(40), LinkId(link as u32), LinkAction::Down, true, &mut admin_q);
    }
    let after = run_discovery(&mut net, Time::from_millis(50), HostId(16)).expect("selection");
    // L1 still has 4 uplinks, but S2's surviving downlink collapses two of
    // the old paths into overlapping ones — the greedy picker still
    // returns one port per distinct path (up to 4, ≥ 3 truly distinct).
    assert!(after.len() >= 3, "after failure: {after:?}");
    assert_eq!(net.hosts.daemon.selection(HostId(16)).unwrap(), &after[..]);
}

#[test]
fn discovery_works_on_fat_tree() {
    // "The path discovery mechanism can work with any topologies with
    // ECMP-based layer-3 routing" (§3.1).
    let cfg = LinkConfig::for_rate(10_000_000_000);
    let ft =
        FatTree { k: 4, access_bps: cfg.rate_bps, fabric_bps: cfg.rate_bps, access_cfg: cfg, fabric_cfg: cfg, scheme: FabricScheme::Ecmp, seed: 5 }.build();
    // The runs' probe daemon: 24 candidates traced to TTL 4.
    let daemon = ProbeDaemon::new(HostId(0), PROBE_INTERVAL, 13);
    let mut net = Network::new(ft.fabric, ProbeSink { daemon });
    // Host 15 is in another pod: 4 distinct edge→agg→core paths exist.
    let ports = run_discovery(&mut net, Time::ZERO, HostId(15)).expect("selection");
    assert!(ports.len() >= 3, "cross-pod paths: {ports:?}");
    // Same-pod destination (host 2, different edge): 2 distinct paths.
    let ports = run_discovery(&mut net, Time::from_millis(50), HostId(2)).expect("selection");
    assert!((2..=4).contains(&ports.len()), "same-pod paths: {ports:?}");
}

#[test]
fn probe_overhead_is_modest() {
    let topo = testbed();
    let daemon = ProbeDaemon::new(HostId(0), PROBE_INTERVAL, 11);
    let mut net = Network::new(topo.fabric, ProbeSink { daemon });
    run_discovery(&mut net, Time::ZERO, HostId(16));
    let probes = net.hosts.daemon.stats.probes_sent;
    // 24 candidates × 4 TTLs = 96 probes of 100 B each per round: ~10 KB
    // per destination per probe interval — negligible (paper §4).
    assert_eq!(probes, 96);
    assert!(net.hosts.daemon.stats.replies > 0);
}
