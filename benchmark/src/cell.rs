//! The traced replica of one cell.
//!
//! `Scenario::try_run_*` hides the world it builds, so the traced pass
//! re-assembles the same cell from public pieces only and drives it with
//! its own copy of the `peek_time` / `pop_run` loop, timing every call into
//! `Network::handle` by event class and every call into `HostStack`. The
//! replica is trusted only if it is the same simulation: the caller
//! compares [`TracedCell::digest`] with the `Scenario` twin's, field by
//! field, on every traced run.

use crate::api::*;
use crate::spans::{Recorder, Span};
use crate::workloads::{CellDigest, CellKind, CellSpec, INCAST_OBJECT_BYTES};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::time::Instant;

/// Exact counts read from the finished world and the replica's own loop.
#[derive(Debug, Clone, Default)]
pub struct CellCounts {
    pub events_popped: u64,
    pub batches: u64,
    pub queue: QueueProfile,
    pub arrive_host: u64,
    pub arrive_leaf: u64,
    pub arrive_spine: u64,
    pub host_timer_events: u64,
    pub fault_events: u64,
    pub data_rx: u64,
    pub acks_rx: u64,
    pub link_tx_packets: u64,
    pub link_tx_bytes: u64,
    pub drops_overflow: u64,
    pub drops_down: u64,
    pub drops_loss: u64,
    pub ecn_marks: u64,
    pub max_queue_bytes: u64,
    pub no_route_drops: u64,
    pub probe_replies: u64,
    pub faults_applied: u64,
    pub encapped: u64,
    pub decapped: u64,
    pub feedback_sent: u64,
    pub feedback_received: u64,
    pub ce_intercepted: u64,
    pub path_updates: u64,
    pub path_evictions: u64,
    pub delivered_segments: u64,
    pub retransmits: u64,
    pub timeouts: u64,
    pub fast_retransmits: u64,
    pub spurious_undos: u64,
    pub flows_started: u64,
    pub flows_completed: u64,
    pub bytes_offered: u64,
    /// Client connections carrying the flows — what the kernels size their
    /// flow tables with.
    pub connections: u64,
}

impl CellCounts {
    /// Fold another cell in: counts add, high-water marks take the max.
    pub fn absorb(&mut self, o: &CellCounts) {
        self.queue.merge(&o.queue);
        self.max_queue_bytes = self.max_queue_bytes.max(o.max_queue_bytes);
        self.connections = self.connections.max(o.connections);
        macro_rules! add {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        add!(
            events_popped,
            batches,
            arrive_host,
            arrive_leaf,
            arrive_spine,
            host_timer_events,
            fault_events,
            data_rx,
            acks_rx,
            link_tx_packets,
            link_tx_bytes,
            drops_overflow,
            drops_down,
            drops_loss,
            ecn_marks,
            no_route_drops,
            probe_replies,
            faults_applied,
            encapped,
            decapped,
            feedback_sent,
            feedback_received,
            ce_intercepted,
            path_updates,
            path_evictions,
            delivered_segments,
            retransmits,
            timeouts,
            fast_retransmits,
            spurious_undos,
            flows_started,
            flows_completed,
            bytes_offered
        );
    }
}

pub struct TracedCell {
    pub digest: CellDigest,
    pub counts: CellCounts,
    pub wall_s: f64,
}

/// `HostStack` with a stopwatch around each call the fabric makes into it.
/// The world loop reads `last` after `Network::handle` returns and records
/// the child span itself, so one recorder owns every span of the cell.
struct TimedHosts {
    inner: HostStack,
    epoch: Instant,
    last: (u64, u64),
    data_rx: u64,
    acks_rx: u64,
}

impl TimedHosts {
    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl HostLogic for TimedHosts {
    fn on_packet(&mut self, host: HostId, pkt: Packet, ctx: &mut HostCtx<'_>) {
        match pkt.kind {
            PacketKind::Data { .. } => self.data_rx += 1,
            PacketKind::Ack { .. } => self.acks_rx += 1,
            _ => {}
        }
        let start = self.now();
        self.inner.on_packet(host, pkt, ctx);
        self.last = (start, self.now());
    }

    fn on_timer(&mut self, host: HostId, token: u64, ctx: &mut HostCtx<'_>) {
        let start = self.now();
        self.inner.on_timer(host, token, ctx);
        self.last = (start, self.now());
    }

    fn on_restart(&mut self, host: HostId, cold: bool, ctx: &mut HostCtx<'_>) {
        self.inner.on_restart(host, cold, ctx);
    }
}

/// Which dispatch span an event belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    ArriveHost,
    ArriveLeaf,
    ArriveSpine,
    HostTimer,
    Other,
}

/// The fault timeline `Scenario` schedules: the `Asymmetric` variant is an
/// announced S2-L2 cut at t=0 ahead of the scenario's own faults; node
/// faults lower onto their incident cables, cable flips are pushed before
/// node lifecycle events.
fn schedule_faults(s: &Scenario, topo: &Topology, queue: &mut EventQueue<Event>) -> Result<(), String> {
    let mut effective = FaultPlan::none();
    if s.topology == TopologyKind::Asymmetric {
        effective.extend(FaultPlan::cut(Time::ZERO, CableSelector::S2_L2));
    }
    effective.extend(s.faults.clone());
    let lowered = effective.lower_nodes(|n: NodeSelector| topo.incident_cables(n))?;
    for action in lowered.expand() {
        let (a, b) = topo.resolve_cable(action.cable).ok_or_else(|| format!("cable {:?} does not resolve", action.cable))?;
        for link in [a, b] {
            queue.push(action.at, Event::Fault { link, action: action.action, announced: action.announced });
        }
    }
    for action in effective.node_actions() {
        queue.push(action.at, Event::NodeFault { node: action.node, switch: topo.resolve_switch(action.node), up: action.up, cold: action.cold });
    }
    for action in s.control_faults.expand() {
        queue.push(action.at, Event::ControlFault { action: action.action });
    }
    Ok(())
}

/// Build and run one cell under the recorder. `cell_id` tags its raw spans;
/// `parent` is the id of the enclosing `rep` span.
pub fn run_traced(spec: &CellSpec, dist: &FlowSizeDist, rec: &mut Recorder, cell_id: u32, parent: u64) -> Result<TracedCell, String> {
    let s = &spec.scenario;
    assert!(
        !matches!(s.topology, TopologyKind::FatTree { .. }) && s.scheme != Scheme::Hula,
        "the replica covers the leaf-spine, non-HULA cells the workloads use"
    );
    rec.begin_cell(cell_id);
    let cell_span = rec.reserve_id();
    let cell_start = rec.now();
    let wall = Instant::now();

    // ---- cell.setup: topology, host stack, workload plan, bootstrap.
    let setup_span = rec.reserve_id();
    let mut counts = CellCounts::default();
    let mut spec_ls = LeafSpine::paper_testbed(1.0, s.seed);
    spec_ls.access_bps = s.profile.access_bps;
    spec_ls.fabric_bps = s.profile.fabric_bps;
    spec_ls.access_cfg = s.profile.access_link(s.scheme.int_enabled());
    spec_ls.fabric_cfg = s.profile.fabric_link(s.scheme.int_enabled());
    spec_ls.scheme = s.scheme.fabric_scheme(&s.profile);
    let topo = spec_ls.build();
    let num_hosts = topo.num_hosts;
    let mut stack = HostStack::new(num_hosts, &s.scheme, s.profile, s.seed);
    let mptcp = s.scheme.mptcp_subflows();
    match spec.kind {
        CellKind::Rpc => {
            let hosts: Vec<HostId> = (0..num_hosts).map(HostId).collect();
            let model = RpcModel::half_and_half(&hosts, s.conns_per_client, dist.clone());
            let mut rng = SimRng::new(s.seed ^ 0x0C0FFEE);
            let t = rec.now();
            let plans = model.plan_connections(&mut rng);
            rec.record(Span::WorkloadPlan, setup_span, t, rec.now());
            let rate = load_to_rate(s.load, topo.bisection_bps, model.total_connections(), model.mean_flow_bytes());
            let mean_gap = Duration::from_secs_f64(1.0 / rate);
            counts.connections = plans.len() as u64;
            for plan in &plans {
                let conn = stack.add_connection(plan, mptcp, Time::ZERO);
                let t = rec.now();
                let jobs = model.sample_jobs(&mut rng, s.jobs_per_conn, mean_gap);
                rec.record(Span::WorkloadPlan, setup_span, t, rec.now());
                counts.bytes_offered += jobs.iter().map(|j| j.bytes).sum::<u64>();
                stack.set_jobs(plan.client, conn, jobs);
            }
        }
        CellKind::Incast { fanin, requests } => {
            let client = HostId(0);
            let servers: Vec<HostId> = (16..32).map(HostId).collect();
            let mut server_conn = FxHashMap::default();
            for (i, &server) in servers.iter().enumerate() {
                let plan = ConnectionPlan { client: server, server: client, sport: 7000 + i as u16 * 16, dport: 5201 };
                server_conn.insert(server, stack.add_connection(&plan, mptcp, Time::ZERO));
            }
            counts.connections = servers.len() as u64;
            counts.bytes_offered = requests as u64 * INCAST_OBJECT_BYTES;
            stack.set_incast(IncastSpec { client, servers, object_bytes: INCAST_OBJECT_BYTES, fanout: fanin, requests }, server_conn, s.seed);
        }
    }
    let mut queue: EventQueue<Event> = EventQueue::with_capacity(s.event_capacity_hint());
    stack.bootstrap(&mut |host, token, at| queue.push(at, Event::HostTimer { host, token }));
    schedule_faults(s, &topo, &mut queue)?;
    let mut net = Network::new(topo.fabric, TimedHosts { inner: stack, epoch: rec.epoch(), last: (0, 0), data_rx: 0, acks_rx: 0 });
    rec.close(Span::CellSetup, setup_span, cell_span, cell_start, rec.now());

    // ---- cell.loop: the run loop of `clove_sim::run` inside the 50 ms
    // chunk loop of `Scenario`, with a stopwatch at every layer boundary.
    let loop_span = rec.reserve_id();
    let loop_start = rec.now();
    let chunk = Duration::from_millis(50);
    let mut upto = Time::ZERO + chunk;
    let mut end_time = Time::ZERO;
    let mut batch: VecDeque<ScheduledEvent<Event>> = VecDeque::new();
    loop {
        let limit = upto.min(s.horizon);
        let hit_horizon = loop {
            let t0 = rec.now();
            let Some(at) = queue.peek_time() else { break false };
            if at > limit {
                break true;
            }
            let now = queue.pop_run(&mut batch).expect("peeked queue must pop a run");
            rec.record(Span::QueuePop, loop_span, t0, rec.now());
            counts.batches += 1;
            end_time = end_time.max(now);
            while let Some(ev) = batch.pop_front() {
                counts.events_popped += 1;
                let class = match &ev.event {
                    Event::Arrive { node: NodeId::Host(_), .. } => Class::ArriveHost,
                    Event::Arrive { node: NodeId::Switch(sw), .. } if net.fabric.switches[sw.0 as usize].is_leaf => Class::ArriveLeaf,
                    Event::Arrive { .. } => Class::ArriveSpine,
                    Event::HostTimer { .. } => Class::HostTimer,
                    _ => Class::Other,
                };
                let id = rec.reserve_id();
                let start = rec.now();
                net.handle(now, ev.event, &mut queue);
                let end = rec.now();
                match class {
                    Class::ArriveHost => {
                        counts.arrive_host += 1;
                        let (hs, he) = net.hosts.last;
                        rec.record(Span::HostOnPacket, id, hs, he);
                        rec.close(Span::DispatchArriveHost, id, loop_span, start, end);
                    }
                    Class::ArriveLeaf => {
                        counts.arrive_leaf += 1;
                        rec.close(Span::DispatchArriveLeaf, id, loop_span, start, end);
                    }
                    Class::ArriveSpine => {
                        counts.arrive_spine += 1;
                        rec.close(Span::DispatchArriveSpine, id, loop_span, start, end);
                    }
                    Class::HostTimer => {
                        counts.host_timer_events += 1;
                        let (hs, he) = net.hosts.last;
                        rec.record(Span::HostOnTimer, id, hs, he);
                        rec.close(Span::DispatchHostTimer, id, loop_span, start, end);
                    }
                    Class::Other => {
                        counts.fault_events += 1;
                        rec.close(Span::DispatchOther, id, loop_span, start, end);
                    }
                }
            }
        };
        let done = net.hosts.inner.fct.completed() as u64 >= net.hosts.inner.total_jobs;
        if done || !hit_horizon || upto >= s.horizon {
            break;
        }
        upto += chunk;
    }
    rec.close(Span::CellLoop, loop_span, cell_span, loop_start, rec.now());

    // ---- cell.teardown: settle, aggregate, fold FCTs, free the world.
    let teardown_start = rec.now();
    net.fabric.settle_all(end_time, &mut queue);
    for l in &net.fabric.links {
        counts.link_tx_packets += l.stats.tx_packets;
        counts.link_tx_bytes += l.stats.tx_bytes;
        counts.drops_overflow += l.stats.drops_overflow;
        counts.drops_down += l.stats.drops_down;
        counts.drops_loss += l.stats.drops_loss;
        counts.ecn_marks += l.stats.ecn_marks;
        counts.max_queue_bytes = counts.max_queue_bytes.max(l.stats.max_queue_bytes as u64);
    }
    counts.no_route_drops = net.fabric.stats.no_route_drops;
    counts.probe_replies = net.fabric.stats.probe_replies;
    counts.faults_applied = net.fabric.stats.faults_applied;
    let events = counts.events_popped + counts.link_tx_packets;
    counts.data_rx = net.hosts.data_rx;
    counts.acks_rx = net.hosts.acks_rx;
    let stack = &mut net.hosts.inner;
    stack.aggregate_transport_stats();
    for h in &stack.hosts {
        counts.encapped += h.vswitch.stats.encapped;
        counts.decapped += h.vswitch.stats.decapped;
        counts.feedback_sent += h.vswitch.stats.feedback_sent;
        counts.feedback_received += h.vswitch.stats.feedback_received;
        counts.ce_intercepted += h.vswitch.stats.ce_intercepted;
    }
    counts.path_updates = stack.stats.path_updates;
    counts.path_evictions = stack.stats.path_evictions;
    counts.delivered_segments = stack.stats.delivered_segments;
    counts.retransmits = stack.stats.retransmits;
    counts.timeouts = stack.stats.timeouts;
    counts.fast_retransmits = stack.stats.fast_retransmits;
    counts.spurious_undos = stack.stats.spurious_undos;
    counts.flows_completed = stack.fct.completed() as u64;
    counts.flows_started = counts.flows_completed + stack.fct.outstanding() as u64;
    counts.queue = queue.profile().clone();
    let digest = match spec.kind {
        CellKind::Rpc => CellDigest::of_rpc(
            &mut stack.fct.summarize(),
            events,
            end_time,
            counts.drops_overflow + counts.drops_down,
            counts.ecn_marks,
            counts.timeouts,
            counts.retransmits,
        ),
        CellKind::Incast { .. } => {
            let (rounds, elapsed) = stack.incast_result().expect("incast configured");
            let bytes = rounds as u64 * INCAST_OBJECT_BYTES;
            let goodput_bps = if elapsed.is_zero() { 0.0 } else { bytes as f64 * 8.0 / elapsed.as_secs_f64() };
            CellDigest::of_incast(events, end_time, rounds, goodput_bps, counts.timeouts)
        }
    };
    drop(net);
    drop(queue);
    let end = rec.now();
    rec.record(Span::CellTeardown, cell_span, teardown_start, end);
    rec.close(Span::Cell, cell_span, parent, cell_start, end);
    Ok(TracedCell { digest, counts, wall_s: wall.elapsed().as_secs_f64() })
}
