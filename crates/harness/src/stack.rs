//! The per-hypervisor host stack: guest transports + vswitch + probe
//! daemon + application models, implementing [`clove_net::HostLogic`].
//!
//! One [`HostStack`] owns the state of *every* host (the simulator is
//! single-threaded, so a flat store is simpler and faster than one object
//! per host). Each host has:
//!
//! * a [`VSwitch`] with the scheme's [`EdgePolicy`](clove_overlay::EdgePolicy);
//! * optionally a [`ProbeDaemon`] (schemes that discover paths);
//! * TCP senders/receivers or MPTCP connections (the guest VM);
//! * the application model: RPC job arrivals or the incast coordinator.
//!
//! ## Timer tokens
//!
//! Host timers carry a packed `u64`: low 8 bits select the timer type,
//! upper bits the payload. RTO timers use the lazy re-arm pattern: at most
//! one outstanding timer per sender; when it fires early, it re-arms at
//! the sender's current deadline (a late RTO by one re-arm period mirrors
//! the coarse timers of real kernels).

use crate::profile::Profile;
use crate::scheme::Scheme;
use clove_core::discovery::ROUND_TIMEOUT;
use clove_core::{DiscoveryEvent, ProbeDaemon};
use clove_net::packet::{Packet, PacketKind};
use clove_net::types::{FlowKey, HostId};
use clove_net::{HostCtx, HostLogic};
use clove_overlay::VSwitch;
use clove_sim::{Duration, SimRng, Time};
use clove_tcp::{MptcpConnection, MptcpReceiver, TcpConfig, TcpReceiver, TcpSender};
use clove_telemetry::Trace;
use clove_workload::rpc::{ConnectionPlan, JobSpec};
use clove_workload::{FctCollector, IncastSpec};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

// Timer token types (low 8 bits).
const T_APP_ARRIVAL: u64 = 1;
const T_TCP_RTO: u64 = 2;
const T_MPTCP_RTO: u64 = 3;
const T_PROBE_START: u64 = 4;
const T_PROBE_FINISH: u64 = 5;
const T_PRESTO_POLL: u64 = 6;
const T_INCAST_SERVE: u64 = 7;
const T_PROBE_RETRY: u64 = 8; // payload = destination HostId

/// Warm-up before application traffic starts: the first probe round
/// finishes, so policies have discovered paths.
const WARMUP: Duration = Duration::from_millis(3);
/// Presto receive-side reassembly poll period.
const PRESTO_POLL: Duration = Duration::from_micros(250);
/// Incast "request packets" are a control delay of half the unloaded RTT
/// (20 µs) from the client to each chosen server.
const INCAST_REQUEST_DELAY: Duration = Duration::from_micros(10);

fn token(kind: u64, payload: u64) -> u64 {
    (payload << 8) | kind
}

/// One host's state.
pub struct Host {
    /// This host's id.
    pub id: HostId,
    /// Its virtual switch (always present; plain config for baselines).
    pub vswitch: VSwitch,
    /// Traceroute daemon for schemes that discover paths.
    pub daemon: Option<ProbeDaemon>,
    /// Peer hypervisors this host talks to (probed destinations).
    pub peers: Vec<HostId>,

    // --- plain TCP ---
    senders: Vec<TcpSender>,
    sender_idx: FxHashMap<FlowKey, usize>, // TX key -> index
    rto_armed: Vec<bool>,
    receivers: FxHashMap<FlowKey, TcpReceiver>, // incoming-data key -> receiver

    // --- MPTCP ---
    mptcp: Vec<MptcpConnection>,
    mptcp_sub_idx: FxHashMap<FlowKey, (usize, usize)>, // subflow TX key -> (conn, subflow)
    mptcp_rto_armed: Vec<Vec<bool>>,
    mptcp_rx: Vec<MptcpReceiver>,
    mptcp_rx_idx: FxHashMap<FlowKey, usize>, // subflow data key -> rx index

    // --- RPC application (client side) ---
    /// Per-sender-connection job queues (absolute arrival times).
    jobs: Vec<VecDeque<JobSpec>>,
}

impl Host {
    fn new(id: HostId, vswitch: VSwitch, daemon: Option<ProbeDaemon>) -> Host {
        Host {
            id,
            vswitch,
            daemon,
            peers: Vec::new(),
            senders: Vec::new(),
            sender_idx: FxHashMap::default(),
            rto_armed: Vec::new(),
            receivers: FxHashMap::default(),
            mptcp: Vec::new(),
            mptcp_sub_idx: FxHashMap::default(),
            mptcp_rto_armed: Vec::new(),
            mptcp_rx: Vec::new(),
            mptcp_rx_idx: FxHashMap::default(),
            jobs: Vec::new(),
        }
    }
}

/// Incast coordinator state (lives on the stack, not a host, because it
/// spans hosts).
struct IncastState {
    spec: IncastSpec,
    rng: SimRng,
    outstanding: u32,
    rounds_done: u32,
    started: Time,
    finished: Time,
    /// Sender index at each server host for the server→client pipe.
    server_conn: FxHashMap<HostId, usize>,
}

/// Aggregated run counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackStats {
    /// Data segments handed to guests.
    pub delivered_segments: u64,
    /// Path updates installed into policies.
    pub path_updates: u64,
    /// Black-holed paths evicted by discovery and dropped from policies.
    pub path_evictions: u64,
    /// Total TCP retransmissions across hosts.
    pub retransmits: u64,
    /// Total TCP timeouts across hosts.
    pub timeouts: u64,
    /// Fast retransmissions across hosts (filled at run end).
    pub fast_retransmits: u64,
    /// Spurious-retransmission undos across hosts (filled at run end).
    pub spurious_undos: u64,
}

/// The complete host-side world. See module docs.
pub struct HostStack {
    /// All hosts, indexed by `HostId.0`.
    pub hosts: Vec<Host>,
    /// TCP parameters.
    pub tcp_cfg: TcpConfig,
    /// FCT records for the whole run.
    pub fct: FctCollector,
    /// Counters.
    pub stats: StackStats,
    incast: Option<IncastState>,
    next_job_id: u64,
    /// Completion target: the run loop can stop when reached.
    pub total_jobs: u64,
    /// Scratch buffer for outbound transport packets; always drained empty
    /// by `ship` before the borrow ends, so its allocation is reused across
    /// every ACK/RTO/job transmission instead of a `Vec::new()` per event.
    tx_scratch: Vec<Packet>,
    /// Scratch buffer for decapsulated inbound packets (same reuse deal,
    /// receive side).
    rx_scratch: Vec<Packet>,
    /// Stack-level decision-trace handle (path evictions); per-host clones
    /// live inside each vswitch/policy. Disabled by default.
    trace: Trace,
}

impl HostStack {
    /// Build the stack for `num_hosts` hypervisors deploying `scheme`.
    pub fn new(num_hosts: u32, scheme: &Scheme, profile: Profile, seed: u64) -> HostStack {
        let tcp_cfg = profile.tcp_config();
        let mut hosts = Vec::with_capacity(num_hosts as usize);
        for h in 0..num_hosts {
            let host = HostId(h);
            let vcfg = scheme.vswitch_config_for(&profile, host);
            let policy = scheme.build_policy_for(&profile, host, seed ^ ((h as u64) << 16));
            let vswitch = VSwitch::new(host, vcfg, policy);
            let daemon = scheme.host_needs_discovery(host).then(|| ProbeDaemon::new(host, profile.probe_interval, seed));
            hosts.push(Host::new(host, vswitch, daemon));
        }
        HostStack {
            hosts,
            tcp_cfg,
            fct: FctCollector::new(),
            stats: StackStats::default(),
            incast: None,
            next_job_id: 1,
            total_jobs: 0,
            tx_scratch: Vec::new(),
            rx_scratch: Vec::new(),
            trace: Trace::disabled(),
        }
    }

    /// Install a decision-trace handle, fanning a host-bound clone into
    /// every vswitch (and through it the scheme's policy + flowlet table).
    pub fn set_trace(&mut self, trace: Trace) {
        for host in &mut self.hosts {
            host.vswitch.set_trace(trace.with_host(host.id.0));
        }
        self.trace = trace;
    }

    /// Register a client→server connection (sender at client, receiver
    /// pre-created at server for MPTCP; plain TCP receivers are lazy).
    /// Returns the sender connection index at the client.
    pub fn add_connection(&mut self, plan: &ConnectionPlan, mptcp_subflows: Option<usize>, now: Time) -> usize {
        self.note_peers(plan.client, plan.server);
        match mptcp_subflows {
            None => {
                let key = FlowKey::tcp(plan.client, plan.server, plan.sport, plan.dport);
                let client = &mut self.hosts[plan.client.0 as usize];
                let idx = client.senders.len();
                client.senders.push(TcpSender::new(key, self.tcp_cfg, now));
                client.sender_idx.insert(key, idx);
                client.rto_armed.push(false);
                client.jobs.push(VecDeque::new());
                idx
            }
            Some(k) => {
                let client = &mut self.hosts[plan.client.0 as usize];
                let idx = client.mptcp.len();
                let conn = MptcpConnection::new(plan.client, plan.server, plan.sport, plan.dport, k);
                for (si, sf) in conn.subflows.iter().enumerate() {
                    client.mptcp_sub_idx.insert(sf.key, (idx, si));
                }
                client.mptcp.push(conn);
                client.mptcp_rto_armed.push(vec![false; k]);
                client.jobs.push(VecDeque::new());
                // Receiver at the server.
                let server = &mut self.hosts[plan.server.0 as usize];
                let rx = MptcpReceiver::new(plan.client, plan.server, plan.sport, plan.dport, k);
                let rx_idx = server.mptcp_rx.len();
                for i in 0..k {
                    let key = FlowKey::tcp(plan.client, plan.server, plan.sport + i as u16, plan.dport);
                    server.mptcp_rx_idx.insert(key, rx_idx);
                }
                server.mptcp_rx.push(rx);
                idx
            }
        }
    }

    fn note_peers(&mut self, a: HostId, b: HostId) {
        let ha = &mut self.hosts[a.0 as usize];
        if !ha.peers.contains(&b) {
            ha.peers.push(b);
        }
        let hb = &mut self.hosts[b.0 as usize];
        if !hb.peers.contains(&a) {
            hb.peers.push(a);
        }
    }

    /// Install the RPC job schedule for a client connection.
    pub fn set_jobs(&mut self, client: HostId, conn_idx: usize, jobs: Vec<JobSpec>) {
        self.total_jobs += jobs.len() as u64;
        self.hosts[client.0 as usize].jobs[conn_idx] = jobs.into();
    }

    /// Configure the incast coordinator; `server_conn` maps each server
    /// to its sender-connection index for the server→client pipe.
    pub fn set_incast(&mut self, spec: IncastSpec, server_conn: FxHashMap<HostId, usize>, seed: u64) {
        self.total_jobs = (spec.requests as u64) * (spec.fanout as u64);
        self.incast = Some(IncastState {
            rng: SimRng::new(seed ^ 0x1CA5_7000),
            spec,
            outstanding: 0,
            rounds_done: 0,
            started: Time::ZERO,
            finished: Time::ZERO,
            server_conn,
        });
    }

    /// Kick off all initial timers. Call once before running.
    pub fn bootstrap(&mut self, ctx_builder: &mut dyn FnMut(HostId, u64, Time)) {
        // Probe rounds: staggered per host.
        for h in 0..self.hosts.len() {
            if self.hosts[h].daemon.is_some() {
                let at = Time::from_nanos(1000 + h as u64 * 5_000);
                ctx_builder(HostId(h as u32), token(T_PROBE_START, 0), at);
            }
            if self.hosts[h].vswitch.cfg.presto_reassembly {
                ctx_builder(HostId(h as u32), token(T_PRESTO_POLL, 0), Time::from_nanos(PRESTO_POLL.as_nanos()));
            }
            // First RPC arrival per connection (after warmup).
            for (ci, jobs) in self.hosts[h].jobs.iter().enumerate() {
                if let Some(first) = jobs.front() {
                    let at = Time::from_nanos(WARMUP.as_nanos() + first.at.as_nanos());
                    ctx_builder(HostId(h as u32), token(T_APP_ARRIVAL, ci as u64), at);
                }
            }
        }
        // Incast: the first request fires after warmup (driven through the
        // client's serve-timers).
        if let Some(inc) = &self.incast {
            let client = inc.spec.client;
            ctx_builder(client, token(T_INCAST_SERVE, 0), Time::from_nanos(WARMUP.as_nanos()));
        }
    }

    /// Incast: elapsed active time and bytes moved (throughput metric).
    pub fn incast_result(&self) -> Option<(u32, Duration)> {
        let inc = self.incast.as_ref()?;
        Some((inc.rounds_done, inc.finished.saturating_since(inc.started)))
    }

    /// Sum per-sender transport counters into `stats` (call at run end).
    pub fn aggregate_transport_stats(&mut self) {
        let mut rtx = 0;
        let mut fr = 0;
        let mut undo = 0;
        for host in &self.hosts {
            for s in &host.senders {
                rtx += s.stats.retransmits;
                fr += s.stats.fast_retransmits;
                undo += s.stats.spurious_undos;
            }
            for c in &host.mptcp {
                rtx += c.stats.retransmits;
            }
        }
        self.stats.retransmits = rtx;
        self.stats.fast_retransmits = fr;
        self.stats.spurious_undos = undo;
    }

    // ---- internal helpers ------------------------------------------------

    fn fresh_job_id(&mut self) -> u64 {
        let id = self.next_job_id;
        self.next_job_id += 1;
        id
    }

    /// Encapsulate and transmit a batch of guest packets from `host`,
    /// draining the caller's scratch buffer (the allocation stays with the
    /// caller for reuse).
    fn ship(host: &mut Host, now: Time, pkts: &mut Vec<Packet>, ctx: &mut HostCtx<'_>) {
        for pkt in pkts.drain(..) {
            Self::ship_one(host, now, pkt, ctx);
        }
    }

    /// Encapsulate and transmit a single guest packet — the common one-ACK
    /// case, with no buffer at all.
    fn ship_one(host: &mut Host, now: Time, pkt: Packet, ctx: &mut HostCtx<'_>) {
        let dst_hv = pkt.flow.dst;
        let enc = host.vswitch.encap(now, dst_hv, pkt);
        ctx.send(enc);
    }

    /// Arm (if not already armed) the RTO timer for a plain TCP sender.
    fn arm_tcp_rto(host: &mut Host, idx: usize, ctx: &mut HostCtx<'_>) {
        if host.rto_armed[idx] {
            return;
        }
        if let Some(deadline) = host.senders[idx].rto_deadline() {
            host.rto_armed[idx] = true;
            let delay = deadline.saturating_since(ctx.now);
            ctx.timer_in(delay, token(T_TCP_RTO, idx as u64));
        }
    }

    /// Arm the RTO timer for one MPTCP subflow.
    fn arm_mptcp_rto(host: &mut Host, conn: usize, sub: usize, ctx: &mut HostCtx<'_>) {
        if host.mptcp_rto_armed[conn][sub] {
            return;
        }
        if let Some(deadline) = host.mptcp[conn].subflows[sub].rto_deadline {
            host.mptcp_rto_armed[conn][sub] = true;
            let delay = deadline.saturating_since(ctx.now);
            ctx.timer_in(delay, token(T_MPTCP_RTO, (conn as u64) << 20 | sub as u64));
        }
    }

    fn arm_all_mptcp_subflows(host: &mut Host, conn: usize, ctx: &mut HostCtx<'_>) {
        for sub in 0..host.mptcp_rto_armed[conn].len() {
            Self::arm_mptcp_rto(host, conn, sub, ctx);
        }
    }

    /// A job finished: record FCT and run the incast coordinator.
    fn on_job_done(&mut self, job_id: u64, now: Time, ctx: &mut HostCtx<'_>) {
        self.fct.job_finished(job_id, now);
        if let Some(inc) = self.incast.as_mut() {
            inc.outstanding = inc.outstanding.saturating_sub(1);
            if inc.outstanding == 0 {
                inc.rounds_done += 1;
                inc.finished = now;
                if inc.rounds_done < inc.spec.requests {
                    let servers = inc.spec.pick_servers(&mut inc.rng);
                    inc.outstanding = servers.len() as u32;
                    for s in servers {
                        ctx.timer_for(s, INCAST_REQUEST_DELAY, token(T_INCAST_SERVE, 1));
                    }
                }
            }
        }
    }

    /// Deliver one decapped guest packet to the local transport.
    fn deliver_to_guest(&mut self, hi: usize, pkt: Packet, ctx: &mut HostCtx<'_>) {
        let now = ctx.now;
        match pkt.kind {
            PacketKind::Data { seq, len, dsn } => {
                self.stats.delivered_segments += 1;
                let host = &mut self.hosts[hi];
                // MPTCP subflow?
                if let Some(&rx_idx) = host.mptcp_rx_idx.get(&pkt.flow) {
                    if let Some(ack) = host.mptcp_rx[rx_idx].on_data(pkt.flow, seq, len, dsn) {
                        Self::ship_one(host, now, ack, ctx);
                    }
                    return;
                }
                let cfg = self.tcp_cfg;
                let rx = host.receivers.entry(pkt.flow).or_insert_with(|| TcpReceiver::new(pkt.flow, cfg));
                // The vswitch masked any CE mark: the guest sees none.
                let ack = rx.on_data(now, seq, len, false);
                Self::ship_one(host, now, ack, ctx);
            }
            PacketKind::Ack { ackno, dack, ece, dup } => {
                let data_key = pkt.flow.reversed();
                let host = &mut self.hosts[hi];
                if let Some(&(conn, _sub)) = host.mptcp_sub_idx.get(&data_key) {
                    let out = &mut self.tx_scratch;
                    debug_assert!(out.is_empty());
                    let completions = host.mptcp[conn].on_ack(now, pkt.flow, ackno, dack, out);
                    Self::ship(host, now, out, ctx);
                    Self::arm_all_mptcp_subflows(host, conn, ctx);
                    for c in completions {
                        self.on_job_done(c.job_id, now, ctx);
                    }
                    return;
                }
                if let Some(&idx) = host.sender_idx.get(&data_key) {
                    let out = &mut self.tx_scratch;
                    debug_assert!(out.is_empty());
                    let completions = host.senders[idx].on_ack(now, ackno, ece, dup, out);
                    Self::ship(host, now, out, ctx);
                    Self::arm_tcp_rto(host, idx, ctx);
                    for c in completions {
                        self.on_job_done(c.job_id, now, ctx);
                    }
                }
            }
            // A probe whose TTL outlived the path is absorbed here.
            PacketKind::Probe { .. } | PacketKind::ProbeReply { .. } | PacketKind::FeedbackOnly | PacketKind::HulaProbe { .. } => {}
        }
    }

    /// Enqueue a job onto a client connection and transmit.
    fn launch_job(&mut self, hi: usize, conn_idx: usize, bytes: u64, ctx: &mut HostCtx<'_>) -> u64 {
        let now = ctx.now;
        let job_id = self.fresh_job_id();
        self.fct.job_started(job_id, bytes, now);
        let host = &mut self.hosts[hi];
        let out = &mut self.tx_scratch;
        debug_assert!(out.is_empty());
        if host.mptcp.is_empty() {
            host.senders[conn_idx].enqueue_job(now, job_id, bytes, out);
            Self::ship(host, now, out, ctx);
            Self::arm_tcp_rto(host, conn_idx, ctx);
        } else {
            host.mptcp[conn_idx].enqueue_job(now, job_id, bytes, out);
            Self::ship(host, now, out, ctx);
            Self::arm_all_mptcp_subflows(host, conn_idx, ctx);
        }
        job_id
    }
}

impl HostLogic for HostStack {
    fn on_packet(&mut self, host: HostId, pkt: Packet, ctx: &mut HostCtx<'_>) {
        let hi = host.0 as usize;
        let now = ctx.now;
        // Probe replies are control traffic consumed before decap.
        if let PacketKind::ProbeReply { probe_id, ttl_sent, switch, ingress } = pkt.kind {
            if let Some(daemon) = self.hosts[hi].daemon.as_mut() {
                daemon.on_reply(probe_id, ttl_sent, switch, ingress);
            }
            return;
        }
        // Reuse the receive scratch across packets; `deliver_to_guest`
        // needs `&mut self`, so the buffer is temporarily taken out.
        let mut deliver = std::mem::take(&mut self.rx_scratch);
        debug_assert!(deliver.is_empty());
        self.hosts[hi].vswitch.decap_into(now, pkt, &mut deliver);
        for inner in deliver.drain(..) {
            self.deliver_to_guest(hi, inner, ctx);
        }
        self.rx_scratch = deliver;
    }

    fn on_timer(&mut self, host: HostId, tok: u64, ctx: &mut HostCtx<'_>) {
        let hi = host.0 as usize;
        let now = ctx.now;
        let payload = tok >> 8;
        match tok & 0xFF {
            T_APP_ARRIVAL => {
                let conn_idx = payload as usize;
                let Some(job) = self.hosts[hi].jobs[conn_idx].pop_front() else {
                    return;
                };
                self.launch_job(hi, conn_idx, job.bytes, ctx);
                // Chain the next arrival (absolute schedule + warmup).
                if let Some(next) = self.hosts[hi].jobs[conn_idx].front() {
                    let at = Time::from_nanos(WARMUP.as_nanos() + next.at.as_nanos());
                    ctx.timer_in(at.saturating_since(now), token(T_APP_ARRIVAL, payload));
                }
            }
            T_TCP_RTO => {
                let idx = payload as usize;
                let host_state = &mut self.hosts[hi];
                host_state.rto_armed[idx] = false;
                let sender = &mut host_state.senders[idx];
                match sender.rto_deadline() {
                    None => {}
                    Some(deadline) if now < deadline => {
                        // Re-arm at the true deadline (lazy timer).
                        Self::arm_tcp_rto(host_state, idx, ctx);
                    }
                    Some(_) => {
                        let out = &mut self.tx_scratch;
                        debug_assert!(out.is_empty());
                        let generation = sender.rto_generation;
                        sender.on_rto_timer(now, generation, out);
                        self.stats.timeouts += 1;
                        Self::ship(host_state, now, out, ctx);
                        Self::arm_tcp_rto(host_state, idx, ctx);
                    }
                }
            }
            T_MPTCP_RTO => {
                let conn = (payload >> 20) as usize;
                let sub = (payload & 0xFFFFF) as usize;
                let host_state = &mut self.hosts[hi];
                host_state.mptcp_rto_armed[conn][sub] = false;
                let deadline = host_state.mptcp[conn].subflows[sub].rto_deadline;
                match deadline {
                    None => {}
                    Some(d) if now < d => Self::arm_mptcp_rto(host_state, conn, sub, ctx),
                    Some(_) => {
                        let out = &mut self.tx_scratch;
                        debug_assert!(out.is_empty());
                        let generation = host_state.mptcp[conn].subflows[sub].rto_generation;
                        host_state.mptcp[conn].on_rto_timer(now, sub, generation, out);
                        self.stats.timeouts += 1;
                        Self::ship(host_state, now, out, ctx);
                        Self::arm_mptcp_rto(host_state, conn, sub, ctx);
                    }
                }
            }
            T_PROBE_START => {
                let host_state = &mut self.hosts[hi];
                let Some(daemon) = host_state.daemon.as_mut() else { return };
                let peers = host_state.peers.clone();
                let mut probes = Vec::new();
                for dst in &peers {
                    probes.extend(daemon.start_round(*dst));
                }
                let interval = daemon.probe_interval();
                for p in probes {
                    ctx.send(p);
                }
                if !peers.is_empty() {
                    ctx.timer_in(ROUND_TIMEOUT, token(T_PROBE_FINISH, 0));
                }
                ctx.timer_in(interval, token(T_PROBE_START, 0));
            }
            T_PROBE_FINISH => {
                let host_state = &mut self.hosts[hi];
                let Some(daemon) = host_state.daemon.as_mut() else { return };
                let peers = host_state.peers.clone();
                let mut events = Vec::new();
                for dst in peers {
                    match daemon.finish_round_or_retry(now, dst) {
                        Ok(evs) => events.extend(evs),
                        // Nothing came back at all (probe/reply loss): retry
                        // the round after a jittered exponential backoff
                        // instead of waiting a whole probe interval.
                        Err(backoff) => ctx.timer_in(backoff, token(T_PROBE_RETRY, dst.0 as u64)),
                    }
                }
                for ev in events {
                    match ev {
                        DiscoveryEvent::PathsUpdated { dst, ports } => {
                            self.stats.path_updates += 1;
                            host_state.vswitch.policy_mut().on_paths_updated(now, dst, &ports);
                        }
                        // A black-holed path: the policy drops it at once
                        // instead of waiting for the next full refresh.
                        DiscoveryEvent::PathDead { dst, port } => {
                            self.stats.path_evictions += 1;
                            self.trace.with_host(host.0).path_eviction(now.0, dst.0, port);
                            host_state.vswitch.policy_mut().on_path_dead(now, dst, port);
                        }
                    }
                }
            }
            T_PROBE_RETRY => {
                let host_state = &mut self.hosts[hi];
                let Some(daemon) = host_state.daemon.as_mut() else { return };
                let dst = HostId(payload as u32);
                let probes = daemon.start_round(dst);
                let any = !probes.is_empty();
                for p in probes {
                    ctx.send(p);
                }
                if any {
                    ctx.timer_in(ROUND_TIMEOUT, token(T_PROBE_FINISH, 0));
                }
            }
            T_PRESTO_POLL => {
                let host_state = &mut self.hosts[hi];
                let flushed = host_state.vswitch.presto_poll(now);
                for pkt in flushed {
                    self.deliver_to_guest(hi, pkt, ctx);
                }
                ctx.timer_in(PRESTO_POLL, token(T_PRESTO_POLL, 0));
            }
            T_INCAST_SERVE => {
                if payload == 0 {
                    // Round zero: the client kicks off the first request.
                    let Some(inc) = self.incast.as_mut() else { return };
                    inc.started = now;
                    let servers = inc.spec.pick_servers(&mut inc.rng);
                    inc.outstanding = servers.len() as u32;
                    for s in servers {
                        ctx.timer_for(s, INCAST_REQUEST_DELAY, token(T_INCAST_SERVE, 1));
                    }
                } else {
                    // A server received the "request": send its part.
                    let Some(inc) = self.incast.as_ref() else { return };
                    let bytes = inc.spec.bytes_per_server();
                    let Some(&conn_idx) = inc.server_conn.get(&HostId(hi as u32)) else {
                        return;
                    };
                    self.launch_job(hi, conn_idx, bytes, ctx);
                }
            }
            _ => unreachable!("unknown timer token {tok:#x}"),
        }
    }

    fn on_restart(&mut self, host: HostId, cold: bool, ctx: &mut HostCtx<'_>) {
        let hi = host.0 as usize;
        let now = ctx.now;
        let t = self.trace.with_host(host.0);
        t.vswitch_restart(now.0, cold);
        if !cold {
            return;
        }
        // Hypervisor cold boot: the vswitch (policy soft state, feedback
        // collectors, Presto reassembly) and the probe daemon lose every
        // learned table. Guest VM state — TCP connections, job queues,
        // in-flight FCT clocks — is suspend/resume'd with the VM image and
        // survives, so flow accounting stays conserved across the crash.
        // No timer re-bootstrap is needed: T_PROBE_START self-rechains
        // every probe interval, and the next round re-discovers from
        // scratch while the degradation ladder covers the blind window.
        self.hosts[hi].vswitch.cold_restart(now);
        t.state_flush(now.0, "host", host.0, "vswitch");
        if let Some(daemon) = self.hosts[hi].daemon.as_mut() {
            daemon.cold_restart();
            t.state_flush(now.0, "host", host.0, "discovery");
        }
    }
}
