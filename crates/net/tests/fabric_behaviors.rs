//! Fabric-level integration tests: probe expiry, ECMP path stability,
//! CONGA metric plumbing, HULA probe tables, and dynamic link
//! administration — all against the real leaf-spine build.

use clove_net::fabric::Event;
use clove_net::fault::LinkAction;
use clove_net::packet::{Encap, Packet, PacketKind};
use clove_net::switch::FabricScheme;
use clove_net::topology::LeafSpine;
use clove_net::types::{FlowKey, HostId, LinkId, NodeId, SwitchId, STT_PORT};
use clove_net::{HostCtx, HostLogic, Network};
use clove_sim::{Duration, EventQueue, Time};
use clove_telemetry::{Trace, TraceEvent};

/// Records every packet delivered to every host.
#[derive(Default)]
struct Recorder {
    delivered: Vec<(HostId, Packet)>,
}

impl HostLogic for Recorder {
    fn on_packet(&mut self, host: HostId, pkt: Packet, _ctx: &mut HostCtx<'_>) {
        self.delivered.push((host, pkt));
    }
    fn on_timer(&mut self, _: HostId, _: u64, _: &mut HostCtx<'_>) {}
}

fn build(scheme: FabricScheme) -> Network<Recorder> {
    let mut spec = LeafSpine::paper_testbed(1.0, 77);
    spec.scheme = scheme;
    Network::new(spec.build().fabric, Recorder::default())
}

fn data_packet(uid: u64, src: HostId, dst: HostId, sport: u16) -> Packet {
    let mut p = Packet::new(uid, 1500, FlowKey::tcp(src, dst, 1000, 80), PacketKind::Data { seq: 0, len: 1400, dsn: 0 });
    p.outer = Some(Encap { src, dst, sport });
    p
}

fn run_all(net: &mut Network<Recorder>, queue: &mut EventQueue<Event>) {
    clove_sim::run(net, queue, Time::from_secs(1));
}

#[test]
fn cross_leaf_delivery_works() {
    let mut net = build(FabricScheme::Ecmp);
    let mut q = EventQueue::new();
    net.fabric.host_transmit(Time::ZERO, HostId(0), data_packet(1, HostId(0), HostId(16), 5555), &mut q);
    run_all(&mut net, &mut q);
    assert_eq!(net.hosts.delivered.len(), 1);
    let (host, pkt) = &net.hosts.delivered[0];
    assert_eq!(*host, HostId(16));
    assert_eq!(pkt.uid, 1);
    // TTL decremented once per switch hop (leaf, spine, leaf).
    assert_eq!(pkt.ttl, clove_net::packet::DATA_TTL - 3);
}

#[test]
fn same_sport_same_path_different_sport_can_differ() {
    // ECMP determinism: 100 packets with one sport arrive in order having
    // taken one path; across sports, multiple first-hop uplinks are used.
    let mut net = build(FabricScheme::Ecmp);
    let mut q = EventQueue::new();
    for i in 0..100 {
        net.fabric.host_transmit(Time::from_nanos(i * 1200), HostId(0), data_packet(i, HostId(0), HostId(16), 40_000), &mut q);
    }
    run_all(&mut net, &mut q);
    assert_eq!(net.hosts.delivered.len(), 100);
    let uids: Vec<u64> = net.hosts.delivered.iter().map(|(_, p)| p.uid).collect();
    let mut sorted = uids.clone();
    sorted.sort_unstable();
    assert_eq!(uids, sorted, "single-path packets must not reorder");
    // Distinct sports spread over multiple uplinks.
    let mut used = rustc_hash::FxHashSet::default();
    for sport in 40_000u16..40_064 {
        let key = FlowKey::tcp(HostId(0), HostId(16), sport, STT_PORT);
        let sw = &net.fabric.switches[0];
        let group = sw.group(HostId(16)).unwrap();
        used.insert(clove_net::hash::ecmp_select(&key, sw.seed, group.len()));
    }
    assert_eq!(used.len(), 4);
}

#[test]
fn probe_ttl_expiry_generates_reply_to_prober() {
    let mut net = build(FabricScheme::Ecmp);
    let mut q = EventQueue::new();
    let mut probe = Packet::new(9, 100, FlowKey::tcp(HostId(0), HostId(16), 5555, STT_PORT), PacketKind::Probe { probe_id: 1234, ttl_sent: 2 });
    probe.outer = Some(Encap { src: HostId(0), dst: HostId(16), sport: 5555 });
    probe.ttl = 2;
    net.fabric.host_transmit(Time::ZERO, HostId(0), probe, &mut q);
    run_all(&mut net, &mut q);
    // The probe dies at the second switch (a spine); the reply returns to
    // host 0 identifying that spine.
    assert_eq!(net.hosts.delivered.len(), 1);
    let (host, pkt) = &net.hosts.delivered[0];
    assert_eq!(*host, HostId(0));
    match pkt.kind {
        PacketKind::ProbeReply { probe_id, ttl_sent, switch, ingress } => {
            assert_eq!(probe_id, 1234);
            assert_eq!(ttl_sent, 2);
            assert!(switch.0 >= 2, "second hop must be a spine, got {switch:?}");
            assert!(ingress.is_some());
        }
        _ => panic!("expected a probe reply, got {:?}", pkt.kind),
    }
    assert_eq!(net.fabric.stats.probe_replies, 1);
}

#[test]
fn probe_with_large_ttl_reaches_destination_host() {
    let mut net = build(FabricScheme::Ecmp);
    let mut q = EventQueue::new();
    let mut probe = Packet::new(9, 100, FlowKey::tcp(HostId(0), HostId(16), 5555, STT_PORT), PacketKind::Probe { probe_id: 7, ttl_sent: 4 });
    probe.outer = Some(Encap { src: HostId(0), dst: HostId(16), sport: 5555 });
    probe.ttl = 4;
    net.fabric.host_transmit(Time::ZERO, HostId(0), probe, &mut q);
    run_all(&mut net, &mut q);
    let (host, pkt) = &net.hosts.delivered[0];
    assert_eq!(*host, HostId(16));
    assert!(matches!(pkt.kind, PacketKind::Probe { .. }));
}

#[test]
fn conga_stamps_and_feeds_back_metrics() {
    let mut net = build(FabricScheme::Conga);
    let mut q = EventQueue::new();
    // Forward traffic 0 → 16 so the dest leaf learns metrics.
    for i in 0..50 {
        net.fabric.host_transmit(Time::from_nanos(i * 1300), HostId(0), data_packet(i, HostId(0), HostId(16), 5555), &mut q);
    }
    run_all(&mut net, &mut q);
    // Dest leaf (switch 1) recorded congestion-from-leaf for leaf 0.
    assert!(net.fabric.switches[1].conga.from_leaf.contains_key(&0), "no CONGA metrics at dest leaf");
    // Reverse traffic 16 → 0 piggybacks feedback to leaf 1... and seeds
    // leaf 0's to_leaf table.
    let mut q = EventQueue::new();
    for i in 100..150 {
        net.fabric.host_transmit(Time::from_millis(1) + Duration::from_nanos(i * 1300), HostId(16), data_packet(i, HostId(16), HostId(0), 6666), &mut q);
    }
    run_all(&mut net, &mut q);
    assert!(!net.fabric.switches[0].conga.to_leaf.is_empty() || !net.fabric.switches[1].conga.to_leaf.is_empty(), "no CONGA feedback absorbed");
    // All packets carried CONGA tags.
    assert!(net.hosts.delivered.iter().all(|(_, p)| p.conga.is_some()));
}

#[test]
fn hula_probes_build_best_hop_tables() {
    let mut net = build(FabricScheme::Hula);
    let mut q = EventQueue::new();
    q.push(Time::ZERO, Event::HulaTick);
    // Run a few probe rounds with no data traffic.
    clove_sim::run(&mut net, &mut q, Time::from_millis(1));
    // Every switch must know a fresh best hop toward both leaves.
    for sw in &net.fabric.switches {
        for tor in [0u32, 1] {
            if sw.is_leaf && sw.id.0 == tor {
                continue; // own tor: no entry needed
            }
            assert!(sw.hula_best.contains_key(&tor), "{:?} lacks a best hop toward leaf {tor}", sw.id);
        }
    }
    // Spines' best hop toward each leaf must be a direct downlink (no
    // valley routing).
    for spine in [2usize, 3] {
        for tor in [0u32, 1] {
            let (port, _, _) = net.fabric.switches[spine].hula_best[&tor];
            let link = net.fabric.switches[spine].ports[port];
            let to = net.fabric.links[link.0 as usize].to;
            assert_eq!(to, NodeId::Switch(SwitchId(tor)), "spine {spine} valley-routes to {to:?}");
        }
    }
}

#[test]
fn hula_routes_data_and_delivers_in_order() {
    let mut net = build(FabricScheme::Hula);
    let mut q = EventQueue::new();
    q.push(Time::ZERO, Event::HulaTick);
    for i in 0..50 {
        net.fabric.host_transmit(Time::from_micros(500) + Duration::from_nanos(i * 1300), HostId(0), data_packet(i, HostId(0), HostId(16), 5555), &mut q);
    }
    clove_sim::run(&mut net, &mut q, Time::from_millis(2));
    let data: Vec<u64> = net.hosts.delivered.iter().filter(|(h, p)| *h == HostId(16) && p.is_data()).map(|(_, p)| p.uid).collect();
    assert_eq!(data.len(), 50);
    let mut sorted = data.clone();
    sorted.sort_unstable();
    assert_eq!(data, sorted, "single-burst flowlet must not reorder");
}

#[test]
fn link_admin_event_reroutes_traffic() {
    let mut net = build(FabricScheme::Ecmp);
    let trace = Trace::new(16);
    net.fabric.set_trace(trace.clone());
    let mut q = EventQueue::new();
    // Kill both directions of every S2 (switch 3) cable to leaf 1 at t=0:
    // all traffic must survive via S1 or the other S2 trunk.
    let to_kill: Vec<LinkId> = net
        .fabric
        .links
        .iter()
        .filter(|l| {
            (l.from == NodeId::Switch(SwitchId(3)) && l.to == NodeId::Switch(SwitchId(1)))
                || (l.from == NodeId::Switch(SwitchId(1)) && l.to == NodeId::Switch(SwitchId(3)))
        })
        .map(|l| l.id)
        .collect();
    assert_eq!(to_kill.len(), 4);
    for &link in &to_kill {
        q.push(Time::ZERO, Event::Fault { link, action: LinkAction::Down, announced: true });
    }
    // Send across sports that previously hashed over all four uplinks.
    for (i, sport) in (41_000u16..41_032).enumerate() {
        net.fabric.host_transmit(Time::from_micros(10 + i as u64), HostId(0), data_packet(i as u64, HostId(0), HostId(16), sport), &mut q);
    }
    run_all(&mut net, &mut q);
    // Some packets may have been en route nowhere (dropped by admin), but
    // all sent *after* the recompute must arrive.
    assert_eq!(net.hosts.delivered.len(), 32, "drops={:?}", net.fabric.stats);
    // Leaf 0 now routes to host 16 via 2 uplinks only (both to S1).
    assert_eq!(net.fabric.switches[0].group(HostId(16)).unwrap().len(), 2);
    // The outage is on the books: four links down from t=0, and one trace
    // event per action.
    let stats = net.fabric.fault_stats(Time::from_millis(1));
    assert_eq!((stats.faults_applied, stats.down_time), (4, Duration::from_millis(4)));
    let expected: Vec<TraceEvent> = to_kill.iter().map(|l| TraceEvent::FaultActivation { t_ns: 0, link: l.0, action: "down", announced: true }).collect();
    assert_eq!(trace.take(), (expected, 0));
}

#[test]
fn link_down_flushes_queue_and_traffic_resumes_after_up() {
    let mut net = build(FabricScheme::Ecmp);
    let mut q = EventQueue::new();
    // Burst 60 packets into host 0's access uplink at t=0: at 10G they
    // serialize one per 1.2 µs, so a deep queue forms on that link.
    for i in 0..60 {
        net.fabric.host_transmit(Time::ZERO, HostId(0), data_packet(i, HostId(0), HostId(16), 5555), &mut q);
    }
    let uplink = net.fabric.links.iter().find(|l| l.from == NodeId::Host(HostId(0))).map(|l| l.id).expect("host 0 has an uplink");
    // Silent down at 20 µs (≈16 packets out), up again at 100 µs.
    q.push(Time::from_micros(20), Event::Fault { link: uplink, action: LinkAction::Down, announced: false });
    q.push(Time::from_micros(100), Event::Fault { link: uplink, action: LinkAction::Up, announced: false });
    run_all(&mut net, &mut q);
    let first = net.hosts.delivered.len();
    assert!((1..60).contains(&first), "expected a partial first burst, got {first}");
    // Everything not delivered was flushed from (or refused by) the down
    // link and counted as a down-drop — no silent loss.
    let drops_down = net.fabric.links[uplink.0 as usize].stats.drops_down;
    assert_eq!(first as u64 + drops_down, 60, "drops_down accounting");
    assert!(drops_down >= 20, "queue flush must drop the backlog, got {drops_down}");
    // After LinkUp the same path carries traffic again.
    let mut q = EventQueue::new();
    for i in 100..110 {
        net.fabric.host_transmit(Time::from_micros(150) + Duration::from_nanos(i * 1300), HostId(0), data_packet(i, HostId(0), HostId(16), 5555), &mut q);
    }
    run_all(&mut net, &mut q);
    assert_eq!(net.hosts.delivered.len(), first + 10, "traffic must resume after LinkUp");
    // The fault ledger saw both actions and ~80 µs of down time.
    let stats = net.fabric.fault_stats(Time::from_millis(1));
    assert_eq!(stats.faults_applied, 2);
    assert_eq!(stats.drops_down, drops_down);
    let down_us = stats.down_time.as_secs_f64() * 1e6;
    assert!((79.0..81.0).contains(&down_us), "down for {down_us} µs");
}

#[test]
fn silent_fault_black_holes_announced_fault_reroutes() {
    let mut net = build(FabricScheme::Ecmp);
    let mut q = EventQueue::new();
    // Both directions of both S2–L2 trunk cables (switch 3 ↔ switch 1).
    let cables: Vec<LinkId> = net
        .fabric
        .links
        .iter()
        .filter(|l| {
            (l.from == NodeId::Switch(SwitchId(3)) && l.to == NodeId::Switch(SwitchId(1)))
                || (l.from == NodeId::Switch(SwitchId(1)) && l.to == NodeId::Switch(SwitchId(3)))
        })
        .map(|l| l.id)
        .collect();
    assert_eq!(cables.len(), 4);
    // Phase 1 — silent: the control plane keeps hashing onto S2, so a
    // fraction of the flows black-holes at the dead links.
    for &link in &cables {
        q.push(Time::ZERO, Event::Fault { link, action: LinkAction::Down, announced: false });
    }
    for (i, sport) in (41_000u16..41_032).enumerate() {
        net.fabric.host_transmit(Time::from_micros(10 + i as u64), HostId(0), data_packet(i as u64, HostId(0), HostId(16), sport), &mut q);
    }
    run_all(&mut net, &mut q);
    let silent_delivered = net.hosts.delivered.len();
    assert!(silent_delivered < 32, "a silent fault must black-hole some flows");
    assert_eq!(net.fabric.switches[0].group(HostId(16)).unwrap().len(), 4, "silent faults must not change routing");
    let dropped: u64 = net.fabric.links.iter().map(|l| l.stats.drops_down).sum();
    assert_eq!(silent_delivered as u64 + dropped, 32, "drops_down accounting");
    // Phase 2 — the same cuts announced: routes recompute around S2 and
    // everything sent afterwards arrives.
    let mut q = EventQueue::new();
    for &link in &cables {
        q.push(Time::from_micros(500), Event::Fault { link, action: LinkAction::Down, announced: true });
    }
    for (i, sport) in (41_000u16..41_032).enumerate() {
        net.fabric.host_transmit(Time::from_micros(600 + i as u64), HostId(0), data_packet(100 + i as u64, HostId(0), HostId(16), sport), &mut q);
    }
    run_all(&mut net, &mut q);
    assert_eq!(net.hosts.delivered.len(), silent_delivered + 32, "announced fault must reroute");
    assert_eq!(net.fabric.switches[0].group(HostId(16)).unwrap().len(), 2);
}

#[test]
fn no_route_packets_counted_not_panicking() {
    let mut net = build(FabricScheme::Ecmp);
    let mut q = EventQueue::new();
    // Isolate host 16 completely, then send to it.
    let kill: Vec<LinkId> = net
        .fabric
        .links
        .iter()
        .filter(|l| matches!(l.to, NodeId::Host(h) if h == HostId(16)) || matches!(l.from, NodeId::Host(h) if h == HostId(16)))
        .map(|l| l.id)
        .collect();
    for link in kill {
        net.fabric.apply_fault(Time::ZERO, link, LinkAction::Down, true, &mut q);
    }
    net.fabric.host_transmit(Time::ZERO, HostId(0), data_packet(1, HostId(0), HostId(16), 5555), &mut q);
    run_all(&mut net, &mut q);
    assert!(net.hosts.delivered.is_empty());
    assert!(net.fabric.stats.no_route_drops >= 1);
}

/// Sends one data packet per timer (the token is the destination and outer
/// source port) and acknowledges every data packet it receives, so a run
/// exercises host timers, `HostCtx::send` from inside a handler and both
/// traffic directions.
#[derive(Default)]
struct Chatter {
    next_uid: u64,
    delivered: Vec<(HostId, Packet)>,
}

impl HostLogic for Chatter {
    fn on_packet(&mut self, host: HostId, pkt: Packet, ctx: &mut HostCtx<'_>) {
        if pkt.is_data() {
            let peer = pkt.flow.src;
            self.next_uid += 1;
            let mut ack =
                Packet::new(self.next_uid, 64, FlowKey::tcp(host, peer, 80, 1000), PacketKind::Ack { ackno: pkt.uid, dack: pkt.uid, ece: pkt.ce, dup: None });
            ack.outer = Some(Encap { src: host, dst: peer, sport: pkt.outer.map_or(0, |o| o.sport) });
            ctx.send(ack);
        }
        self.delivered.push((host, pkt));
    }
    fn on_timer(&mut self, host: HostId, token: u64, ctx: &mut HostCtx<'_>) {
        self.next_uid += 1;
        let mut p = data_packet(self.next_uid, host, HostId((token >> 16) as u32), token as u16);
        p.ect = true;
        ctx.send(p);
    }
}

/// Eight senders on leaf 0 burst at two receivers on leaf 1 over many outer
/// source ports: standing queues, CE marks and tail drops on the two
/// downlinks, several flowlets per switch.
fn chatter_world(scheme: FabricScheme) -> (Network<Chatter>, EventQueue<Event>) {
    let mut spec = LeafSpine::paper_testbed(1.0, 77);
    spec.scheme = scheme;
    let net = Network::new(spec.build().fabric, Chatter::default());
    let mut q = EventQueue::new();
    if scheme == FabricScheme::Hula {
        q.push(Time::ZERO, Event::HulaTick);
    }
    for i in 0..400u64 {
        for src in 0..8u32 {
            let dst = 16 + (src + i as u32) % 2;
            let token = (dst as u64) << 16 | (20_000 + (i % 7) * 8 + src as u64);
            q.push(Time::from_micros(100) + Duration::from_nanos(i * 1250), Event::HostTimer { host: HostId(src), token });
        }
    }
    (net, q)
}

/// Everything observable about a finished run, as text.
fn chatter_fingerprint(net: &Network<Chatter>) -> Vec<String> {
    let mut out = vec![format!("{:?}", net.fabric.stats)];
    out.extend(net.fabric.links.iter().map(|l| format!("{:?} {:?}", l.id, l.stats)));
    out.extend(net.hosts.delivered.iter().map(|(h, p)| format!("{h:?} {p:?}")));
    out
}

#[test]
fn by_value_handle_wrapper_is_the_same_simulation() {
    use clove_sim::World;
    let horizon = Time::from_millis(3);
    let schemes = [FabricScheme::Ecmp, FabricScheme::Conga, FabricScheme::Hula];
    for scheme in schemes {
        // The engine's loop: events handled in place in the popped batch.
        let (mut by_ref, mut q) = chatter_world(scheme);
        let summary = clove_sim::run(&mut by_ref, &mut q, horizon);
        by_ref.fabric.settle_all(summary.end_time, &mut q);

        // The hand-written loop (the benchmark's traced replica has one):
        // each event moved out of the batch and handed over by value.
        let (mut by_val, mut q) = chatter_world(scheme);
        let mut batch = std::collections::VecDeque::new();
        let (mut events, mut end_time) = (0u64, Time::ZERO);
        while q.peek_time().is_some_and(|at| at <= horizon) {
            let now = q.pop_run(&mut batch).unwrap();
            end_time = now;
            while let Some(ev) = batch.pop_front() {
                events += 1;
                by_val.handle(now, ev.event, &mut q);
            }
        }
        by_val.fabric.settle_all(end_time, &mut q);

        assert_eq!(events, summary.events, "{scheme:?}");
        assert_eq!(end_time, summary.end_time, "{scheme:?}");
        let (a, b) = (chatter_fingerprint(&by_ref), chatter_fingerprint(&by_val));
        assert_eq!(a, b, "{scheme:?}");
        // The scenario is not vacuous: congestion marked and dropped.
        let marks: u64 = by_ref.fabric.links.iter().map(|l| l.stats.ecn_marks).sum();
        let drops: u64 = by_ref.fabric.links.iter().map(|l| l.stats.drops_overflow).sum();
        assert!(
            marks > 0 && drops > 0 && by_ref.hosts.delivered.len() > 2000,
            "{scheme:?}: {marks} marks, {drops} drops, {} delivered",
            by_ref.hosts.delivered.len()
        );
    }
}

#[test]
fn ecmp_groups_wider_than_16_use_every_member() {
    // 20 spines × trunk 1: leaf 0 has 20 equal-cost uplinks toward leaf 1.
    for scheme in [FabricScheme::Ecmp, FabricScheme::Conga] {
        let mut spec = LeafSpine::paper_testbed(1.0, 77);
        spec.spines = 20;
        spec.trunk = 1;
        spec.hosts_per_leaf = 2;
        spec.scheme = scheme;
        let mut net = Network::new(spec.build().fabric, Recorder::default());
        let dst = HostId(2);
        assert_eq!(net.fabric.switches[0].group(dst).unwrap().len(), 20);
        let mut q = EventQueue::new();
        for i in 0..2000u64 {
            net.fabric.host_transmit(Time::from_nanos(i * 1300), HostId(0), data_packet(i, HostId(0), dst, 10_000 + i as u16), &mut q);
        }
        run_all(&mut net, &mut q);
        assert_eq!(net.hosts.delivered.len(), 2000, "{scheme:?}");
        let used = net.fabric.switches[0]
            .ports
            .iter()
            .filter(|&&l| matches!(net.fabric.link(l).to, NodeId::Switch(_)) && net.fabric.link(l).stats.tx_packets > 0)
            .count();
        assert_eq!(used, 20, "{scheme:?}: every equal-cost uplink must carry traffic");
    }
}
