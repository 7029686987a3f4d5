//! Path discovery walkthrough: watch the traceroute daemon map outer
//! source ports to distinct fabric paths (paper §3.1).
//!
//! This example drives the probe daemon directly against the simulated
//! fabric — no TCP, no workload — and prints the discovered selection,
//! then fails a spine-leaf cable and shows the re-discovery that the
//! ECMP remap forces.
//!
//! Run with: `cargo run --release --example path_discovery`

use clove::algo::{DiscoveryEvent, ProbeDaemon};
use clove::net::fabric::Event;
use clove::net::fault::LinkAction;
use clove::net::packet::PacketKind;
use clove::net::topology::LeafSpine;
use clove::net::types::{HostId, LinkId, NodeId, SwitchId};
use clove::net::{HostCtx, HostLogic, Network};
use clove::sim::{EventQueue, Time};

/// Host logic that only feeds probe replies to the daemon on host 0.
struct ProbeOnly {
    daemon: ProbeDaemon,
    replies: usize,
}

impl HostLogic for ProbeOnly {
    fn on_packet(&mut self, host: HostId, pkt: clove::net::Packet, _ctx: &mut HostCtx<'_>) {
        if host != HostId(0) {
            return;
        }
        if let PacketKind::ProbeReply { probe_id, ttl_sent, switch, ingress } = pkt.kind {
            self.replies += 1;
            self.daemon.on_reply(probe_id, ttl_sent, switch, ingress);
        }
    }
    fn on_timer(&mut self, _host: HostId, _token: u64, _ctx: &mut HostCtx<'_>) {}
}

fn discover(net: &mut Network<ProbeOnly>, now: Time, dst: HostId) -> Vec<u16> {
    let mut queue: EventQueue<Event> = EventQueue::new();
    let probes = net.hosts.daemon.start_round(dst);
    println!("  sent {} probes ({} candidate ports x TTL 1..4)", probes.len(), probes.len() / 4);
    for p in probes {
        net.fabric.host_transmit(now, HostId(0), p, &mut queue);
    }
    clove::sim::run(net, &mut queue, now + clove::sim::Duration::from_millis(10));
    println!("  collected {} time-exceeded replies", net.hosts.replies);
    net.hosts.replies = 0;
    net.hosts
        .daemon
        .finish_round(now + clove::sim::Duration::from_millis(10), dst)
        .into_iter()
        .find_map(|ev| match ev {
            DiscoveryEvent::PathsUpdated { ports, .. } => Some(ports),
            _ => None,
        })
        .unwrap_or_default()
}

fn main() {
    let topo = LeafSpine::paper_testbed(1.0, 7).build();
    println!("topology: {}", topo.name);
    let daemon = ProbeDaemon::new(HostId(0), clove::sim::Duration::from_millis(100), 99);
    let dst = HostId(16); // a host on the other leaf
    let mut net = Network::new(topo.fabric, ProbeOnly { daemon, replies: 0 });

    println!("\n-- round 1: healthy fabric --");
    let ports = discover(&mut net, Time::ZERO, dst);
    println!("  selected outer source ports: {ports:?} -> {} distinct paths", ports.len());

    println!("\n-- failing one S2-L2 cable --");
    let cable = net.fabric.links.iter().position(|l| l.from == NodeId::Switch(SwitchId(1)) && l.to == NodeId::Switch(SwitchId(3))).expect("fabric cable");
    // The fabric is idle between rounds, so a scratch queue suffices.
    let mut admin_q: EventQueue<Event> = EventQueue::new();
    for link in [cable, cable + 1] {
        net.fabric.apply_fault(Time::from_millis(15), LinkId(link as u32), LinkAction::Down, true, &mut admin_q);
    }

    println!("\n-- round 2: after failure (ECMP remapped) --");
    let ports = discover(&mut net, Time::from_millis(20), dst);
    println!("  re-discovered outer source ports: {ports:?} -> {} distinct paths", ports.len());
    println!("\nAny change in ECMP group size remaps every port, so Clove re-runs");
    println!("discovery every probe interval and reinstalls fresh mappings (§3.1).");
}
