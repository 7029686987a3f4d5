//! Scenario construction and the run loop.
//!
//! A [`Scenario`] names everything one experiment run needs: the scheme,
//! the topology (symmetric or with the paper's S2–L2 failure), the target
//! load, job counts and the random seed. [`Scenario::run_rpc`] executes
//! the web-search RPC workload and returns FCT summaries;
//! [`Scenario::run_incast`] executes the Figure-7 partition-aggregate
//! workload and returns client goodput.

use crate::invariants::InvariantMonitor;
use crate::json::Json;
use crate::profile::Profile;
use crate::scheme::Scheme;
use crate::stack::HostStack;
use clove_net::fabric::Event;
use clove_net::fault::{CableSelector, ControlFaultPlan, ControlFaultStats, FaultAction, FaultPlan, FaultStats};
use clove_net::topology::{LeafSpine, Topology};
use clove_net::types::{HostId, LinkId, NodeId};
use clove_net::Network;
use clove_sim::{Duration, EventQueue, QueueProfile, SimRng, Time};
use clove_telemetry::{Trace, TraceEvent, DEFAULT_TRACE_CAPACITY};
use clove_workload::fct::FlowRecord;
use clove_workload::{load_to_rate, FctSummary, FlowSizeDist, IncastSpec, RpcModel};
use rustc_hash::FxHashMap;

/// Which topology variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// The 2×2×16 leaf-spine testbed, all links healthy.
    Symmetric,
    /// Same, with one 40G S2–L2 cable failed before traffic starts —
    /// the paper's asymmetry case (25% bisection loss).
    Asymmetric,
    /// A k-ary fat-tree (k even, ≥4; k²·k/4 hosts at the access rate) —
    /// exercises the paper's "works on any topology" claim end to end.
    FatTree {
        /// Pod arity.
        k: u32,
    },
}

impl TopologyKind {
    /// One value of every variant (see [`Scheme::all`]).
    pub fn all() -> [TopologyKind; 3] {
        [TopologyKind::Symmetric, TopologyKind::Asymmetric, TopologyKind::FatTree { k: 4 }]
    }

    /// The variant's kind in spec JSON (the `"kind"` of the tagged object):
    /// the one name table behind [`TopologyKind::to_json`] and
    /// [`TopologyKind::from_json`], with no wildcard arm.
    pub fn spec_kind(&self) -> &'static str {
        match self {
            TopologyKind::Symmetric => "symmetric",
            TopologyKind::Asymmetric => "asymmetric",
            TopologyKind::FatTree { .. } => "fat-tree",
        }
    }

    /// Render to the tagged-object form: `"kind"`, plus `"k"` for a fat-tree.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("kind".to_string(), Json::Str(self.spec_kind().to_string()))];
        if let TopologyKind::FatTree { k } = self {
            fields.push(("k".to_string(), Json::Num(f64::from(*k))));
        }
        Json::Obj(fields)
    }

    /// Parse the tagged-object form; whether `k` is a buildable arity is
    /// [`Scenario::validate`]'s call.
    pub fn from_json(v: &Json) -> Result<TopologyKind, String> {
        let kind = v.get("kind").and_then(Json::as_str).ok_or_else(|| "topology: missing string field 'kind'".to_string())?;
        let all = TopologyKind::all();
        let Some(topology) = all.iter().find(|t| t.spec_kind() == kind) else {
            return Err(format!("topology: unknown kind '{kind}' (want {})", all.map(|t| t.spec_kind()).join(" | ")));
        };
        Ok(match topology {
            TopologyKind::FatTree { .. } => {
                TopologyKind::FatTree { k: v.uint_field("k")?.ok_or_else(|| format!("topology: {kind}: missing integer field 'k'"))? }
            }
            plain => *plain,
        })
    }
}

/// Source ports the RPC planner reserves per client
/// (`RpcModel::plan_connections`: `10_000 + client·64 + conn`), which bounds
/// the connections one client can open.
const RPC_SPORTS_PER_CLIENT: u32 = 64;

/// Widest MPTCP connection the planned source ports carry: subflow `i`
/// sends from `sport + i`, and incast pipes sit 16 ports apart.
const MAX_MPTCP_SUBFLOWS: usize = 16;

/// Largest fat-tree arity: the RPC source-port plan above fits a `u16` for
/// up to 868 clients, and k = 18 has 729 (k = 20 has 1000).
const MAX_FAT_TREE_K: u32 = 18;

/// One cable action of a scenario's fault plan, resolved to the cable's two
/// directed links.
type ResolvedFault = (FaultAction, [LinkId; 2]);

/// One experiment run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The load balancer under test.
    pub scheme: Scheme,
    /// Topology variant.
    pub topology: TopologyKind,
    /// Offered load as a fraction of the bisection bandwidth.
    pub load: f64,
    /// Jobs per client connection.
    pub jobs_per_conn: u32,
    /// Persistent connections per client (testbed: several; sims: 3).
    pub conns_per_client: u32,
    /// RNG seed (paper runs 3 seeds and averages).
    pub seed: u64,
    /// Parameter profile.
    pub profile: Profile,
    /// Hard wall on simulated time.
    pub horizon: Time,
    /// Fault timeline injected during the run (cuts, flaps, degrades,
    /// stochastic loss — see [`clove_net::fault`]). Cables are named by
    /// [`CableSelector`], resolved against the built topology at run time.
    pub faults: FaultPlan,
    /// Control-plane fault timeline (probe/reply/feedback loss, delay,
    /// corruption) applied fabric-wide — the feedback-degradation knob.
    pub control_faults: ControlFaultPlan,
    /// Run the [`InvariantMonitor`] at every run-loop chunk boundary and
    /// report its violations in the outcome (`clove-run --strict`).
    pub strict: bool,
    /// Capture a structured decision trace during the run. The buffer is
    /// created on the worker thread (the trace handle is `!Send`) and the
    /// recorded events come back in [`RpcOutcome::trace`]. Tracing must not
    /// change any simulation outcome — only observe it.
    pub trace: bool,
}

impl Scenario {
    /// A scenario with everything defaulted except scheme/topology/load.
    pub fn new(scheme: Scheme, topology: TopologyKind, load: f64, seed: u64) -> Scenario {
        Scenario {
            scheme,
            topology,
            load,
            jobs_per_conn: 40,
            conns_per_client: 2,
            seed,
            profile: Profile::default(),
            horizon: Time::from_secs(30),
            faults: FaultPlan::none(),
            control_faults: ControlFaultPlan::none(),
            strict: false,
            trace: false,
        }
    }

    /// Back-compat constructor for the classic dynamic-failure experiment:
    /// an announced, never-restored cut of one S2–L2 cable at `at`.
    pub fn fail_at(&mut self, at: Time) -> &mut Self {
        self.faults.extend(FaultPlan::cut(at, CableSelector::S2_L2));
        self
    }

    /// The full fault timeline for this run: the `Asymmetric` topology is
    /// itself expressed as an announced cut at t=0 (same named cable the
    /// paper fails), merged ahead of any scenario-specific faults.
    fn effective_faults(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        if self.topology == TopologyKind::Asymmetric {
            plan.extend(FaultPlan::cut(Time::ZERO, CableSelector::S2_L2));
        }
        plan.extend(self.faults.clone());
        plan
    }

    /// The single gate between a run description and a run: scalar ranges
    /// the model otherwise asserts deep inside a run (load, connection and
    /// job counts, fat-tree arity, MPTCP subflows, partial-deployment
    /// size), fault-plan, control-plan and discovery parameters (flap duty
    /// cycles, loss rates, probe counts), and — against the topology this
    /// scenario builds — every named node lowering onto an incident cable
    /// set and every named cable resolving. Errors lead with the offending
    /// field (`load: …`, `topology.k: …`) or selector, the latter with the
    /// valid selectors for the topology, so a mis-written scenario is a
    /// diagnosis rather than a panic deep inside a run.
    pub fn validate(&self) -> Result<(), String> {
        self.checked_topology().map(|_| ())
    }

    /// [`Scenario::validate`], handing back what it had to build: the
    /// topology and the cable actions of the fault plan resolved onto it.
    fn checked_topology(&self) -> Result<(Topology, Vec<ResolvedFault>), String> {
        // Scalars first: they bound what building the topology allocates.
        let check = |ok: bool, field: &str, why: String| if ok { Ok(()) } else { Err(format!("{field}: {why}")) };
        check(self.load > 0.0 && self.load <= 1.5, "load", format!("{} is outside (0, 1.5]", self.load))?;
        let conns = self.conns_per_client;
        check((1..=RPC_SPORTS_PER_CLIENT).contains(&conns), "conns_per_client", format!("{conns} is outside 1..={RPC_SPORTS_PER_CLIENT}"))?;
        check(self.jobs_per_conn >= 1, "jobs_per_conn", "must be at least 1".to_string())?;
        if let TopologyKind::FatTree { k } = self.topology {
            check(k % 2 == 0 && (4..=MAX_FAT_TREE_K).contains(&k), "topology.k", format!("fat-tree arity {k} must be even and in 4..={MAX_FAT_TREE_K}"))?;
        }
        if let Scheme::Mptcp { subflows } = self.scheme {
            check((1..=MAX_MPTCP_SUBFLOWS).contains(&subflows), "scheme.subflows", format!("{subflows} is outside 1..={MAX_MPTCP_SUBFLOWS}"))?;
        }
        self.faults.validate().map_err(|e| format!("fault plan: {e}"))?;
        self.control_faults.validate().map_err(|e| format!("control fault plan: {e}"))?;
        self.profile.discovery_config().validate().map_err(|e| format!("discovery configuration: {e}"))?;
        let topo = self.build_topology();
        if let Scheme::Incremental { clove_hosts } = self.scheme {
            check(
                clove_hosts <= topo.num_hosts,
                "scheme.clove_hosts",
                format!("{clove_hosts} exceeds the {} hosts of topology '{}'", topo.num_hosts, topo.name),
            )?;
        }
        let lowered = self
            .effective_faults()
            .lower_nodes(|n| topo.incident_cables(n))
            .map_err(|e| format!("fault plan: {e} (topology '{}'; {})", topo.name, topo.node_catalog()))?;
        let mut resolved = Vec::new();
        for action in lowered.expand() {
            let (a, b) = topo.resolve_cable(action.cable).ok_or_else(|| {
                format!("fault plan names cable {:?}, which does not resolve in topology '{}'; {}", action.cable, topo.name, topo.cable_catalog())
            })?;
            resolved.push((action, [a, b]));
        }
        Ok((topo, resolved))
    }

    /// Schedule every resolved cable action against both directions of its
    /// cable (node faults arrive already lowered onto their incident cable
    /// sets), plus the node lifecycle events carrying warm/cold state
    /// semantics, plus every control-plane fault (fabric-wide, no cable to
    /// resolve). Cable flips are pushed before node lifecycle events, so
    /// at a restart instant links are restored and routes recomputed
    /// before any cold-state flush runs.
    fn schedule_faults(&self, topo: &Topology, resolved: Vec<ResolvedFault>, queue: &mut EventQueue<Event>) {
        for (action, links) in resolved {
            for link in links {
                queue.push(action.at, Event::Fault { link, action: action.action, announced: action.announced });
            }
        }
        for action in self.effective_faults().node_actions() {
            // The switch is resolved here — only the topology knows the
            // tier layout; `None` means a host/hypervisor node.
            let switch = topo.resolve_switch(action.node);
            queue.push(action.at, Event::NodeFault { node: action.node, switch, up: action.up, cold: action.cold });
        }
        for action in self.control_faults.expand() {
            queue.push(action.at, Event::ControlFault { action: action.action });
        }
    }

    /// Capacity hint for the event queue, scaled from the connection count.
    /// A constant in effect: it is never below 2^16 and
    /// [`EventQueue::with_capacity`] pre-allocates at most 1024 staged
    /// events (wheel slots grow on demand). Kept because `benchmark/` calls
    /// it; removing it belongs to a `benchmark` PR.
    pub fn event_capacity_hint(&self) -> usize {
        let conns = 64usize.max((self.conns_per_client as usize) * 64) * 4;
        conns.next_power_of_two().clamp(1 << 16, 1 << 20)
    }

    fn build_topology(&self) -> Topology {
        let access_cfg = self.profile.access_link(self.scheme.int_enabled());
        let fabric_cfg = self.profile.fabric_link(self.scheme.int_enabled());
        if let TopologyKind::FatTree { k } = self.topology {
            return clove_net::topology::FatTree {
                k,
                access_bps: self.profile.access_bps,
                fabric_bps: self.profile.access_bps, // uniform rates, as usual for fat-trees
                access_cfg,
                fabric_cfg,
                scheme: self.scheme.fabric_scheme(&self.profile),
                seed: self.seed,
            }
            .build();
        }
        let mut spec = LeafSpine::paper_testbed(1.0, self.seed);
        spec.access_bps = self.profile.access_bps;
        spec.fabric_bps = self.profile.fabric_bps;
        spec.access_cfg = access_cfg;
        spec.fabric_cfg = fabric_cfg;
        spec.scheme = self.scheme.fabric_scheme(&self.profile);
        // The Asymmetric variant is no longer special-cased here: it is an
        // announced S2–L2 cut at t=0 in `effective_faults`, scheduled like
        // any other fault.
        spec.build()
    }

    /// The world set-up and run loop both workloads share: validate, build
    /// the topology (once per cell) and the host stack, let `populate` add
    /// the workload's connections, then bootstrap timers, schedule faults,
    /// attach the observers and run to completion. The order of
    /// `queue.push` calls — host timers, HULA tick, faults — fixes every
    /// event's sequence number, so it is part of the digest contract.
    fn run_world(&self, populate: impl FnOnce(&mut HostStack, &Topology)) -> Result<FinishedWorld, String> {
        let (topo, faults) = self.checked_topology()?;
        let mut stack = HostStack::new(topo.num_hosts, &self.scheme, self.profile, self.seed);
        populate(&mut stack, &topo);

        let mut queue: EventQueue<Event> = EventQueue::with_capacity(self.event_capacity_hint());
        stack.bootstrap(&mut |host, tok, at| {
            queue.push(at, Event::HostTimer { host, token: tok });
        });
        if matches!(self.scheme, Scheme::Hula) {
            queue.push(Time::ZERO, Event::HulaTick);
        }
        self.schedule_faults(&topo, faults, &mut queue);

        let mut net = Network::new(topo.fabric, stack);
        // The trace buffer is created here, on the thread that runs the
        // cell, so it is per-cell by construction and its insertion order
        // is the cell's deterministic event order.
        let trace = if self.trace { Trace::new(DEFAULT_TRACE_CAPACITY) } else { Trace::disabled() };
        if self.trace {
            net.hosts.set_trace(trace.clone());
            net.fabric.set_trace(trace.clone());
        }
        let mut monitor = self.strict.then(InvariantMonitor::new);
        let summary = run_to_completion(&mut net, &mut queue, self.horizon, monitor.as_mut());
        let end = summary.end_time;
        // Commit every transmission that happened by the end of the run so
        // per-link stats are exact under the lazy link model.
        net.fabric.settle_all(end, &mut queue);
        // Logical event count: scheduler pops plus one per transmitted
        // packet — the per-packet TxDone events the lazy link model
        // eliminated — so the metric stays comparable with earlier
        // baselines.
        let events = summary.events + net.fabric.links.iter().map(|l| l.stats.tx_packets).sum::<u64>();
        Ok(FinishedWorld { net, queue, end, events, violations: monitor.map(|m| m.violations).unwrap_or_default(), trace })
    }

    /// Run the web-search RPC workload, panicking on an invalid scenario
    /// (unknown cable in a fault plan, out-of-range fault rates). Drivers
    /// that construct plans programmatically should prefer
    /// [`Scenario::try_run_rpc`].
    pub fn run_rpc(&self, dist: &FlowSizeDist) -> RpcOutcome {
        self.try_run_rpc(dist).unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// Run the web-search RPC workload, returning a validation error for a
    /// mis-written scenario instead of panicking.
    pub fn try_run_rpc(&self, dist: &FlowSizeDist) -> Result<RpcOutcome, String> {
        let FinishedWorld { mut net, queue, end, events, violations, trace } = self.run_world(|stack, topo| {
            let hosts: Vec<HostId> = (0..topo.num_hosts).map(HostId).collect();
            let model = RpcModel::half_and_half(&hosts, self.conns_per_client, dist.clone());
            let mut rng = SimRng::new(self.seed ^ 0x0C0FFEE);
            let plans = model.plan_connections(&mut rng);
            let rate = load_to_rate(self.load, topo.bisection_bps, model.total_connections(), model.mean_flow_bytes());
            let mean_gap = Duration::from_secs_f64(1.0 / rate);

            let mptcp = self.scheme.mptcp_subflows();
            for plan in &plans {
                let conn_idx = stack.add_connection(plan, mptcp, Time::ZERO);
                let jobs = model.sample_jobs(&mut rng, self.jobs_per_conn, mean_gap);
                stack.set_jobs(plan.client, conn_idx, jobs);
            }
        })?;
        // Recovery is measured against the first *mid-run* fault — link,
        // node or control-plane (a t=0 cut is a static asymmetry, not an
        // incident to recover from).
        let effective = self.effective_faults();
        let first_fault = effective
            .expand()
            .into_iter()
            .map(|a| a.at)
            .chain(effective.node_actions().into_iter().map(|a| a.at))
            .chain(self.control_faults.expand().into_iter().map(|a| a.at))
            .filter(|&at| at > Time::ZERO)
            .min();

        let drops: u64 = net.fabric.links.iter().map(|l| l.stats.drops_overflow + l.stats.drops_down).sum();
        let marks: u64 = net.fabric.links.iter().map(|l| l.stats.ecn_marks).sum();
        net.hosts.aggregate_transport_stats();
        let window = fct_window_for(self.profile.probe_interval);
        let (rate, base) = (self.profile.access_bps, self.profile.loaded_rtt);
        let windows = fct_windows(net.hosts.fct.records(), window, rate, base);
        let recovery = first_fault.and_then(|at| recovery_time(net.hosts.fct.records(), at, window, RECOVERY_FACTOR, rate, base));
        let (trace_events, trace_dropped) = trace.take();
        Ok(RpcOutcome {
            fct: net.hosts.fct.summarize(),
            sim_time: end,
            events,
            drops,
            ecn_marks: marks,
            timeouts: net.hosts.stats.timeouts,
            retransmits: net.hosts.stats.retransmits,
            fast_retransmits: net.hosts.stats.fast_retransmits,
            spurious_undos: net.hosts.stats.spurious_undos,
            path_updates: net.hosts.stats.path_updates,
            path_evictions: net.hosts.stats.path_evictions,
            fault_stats: net.fabric.fault_stats(end),
            control_stats: net.fabric.control_stats(),
            fct_windows: windows,
            recovery,
            stalled: net.hosts.stalled_report(),
            link_report: link_report(&net.fabric),
            violations,
            queue_profile: queue.profile().clone(),
            trace: trace_events,
            trace_dropped,
        })
    }

    /// Run the incast workload at the given fan-in, panicking on an invalid
    /// scenario; see [`Scenario::try_run_incast`].
    pub fn run_incast(&self, fanout: u32, requests: u32, object_bytes: u64) -> IncastOutcome {
        self.try_run_incast(fanout, requests, object_bytes).unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// Run the incast workload at the given fan-in, returning a validation
    /// error for a mis-written scenario instead of panicking.
    pub fn try_run_incast(&self, fanout: u32, requests: u32, object_bytes: u64) -> Result<IncastOutcome, String> {
        let FinishedWorld { net, end, events, violations, .. } = self.run_world(|stack, _| {
            // Client is host 0 (leaf 0); servers are the 16 hosts of leaf 1 —
            // responses cross the fabric and converge on the client's access
            // downlink, as in the paper's testbed.
            let client = HostId(0);
            let servers: Vec<HostId> = (16..32).map(HostId).collect();
            let mptcp = self.scheme.mptcp_subflows();
            let mut server_conn = FxHashMap::default();
            for (i, &server) in servers.iter().enumerate() {
                // Server→client data pipe.
                let plan = clove_workload::rpc::ConnectionPlan {
                    client: server, // the sending side of the pipe
                    server: client,
                    sport: 7000 + i as u16 * 16,
                    dport: 5201,
                };
                let conn_idx = stack.add_connection(&plan, mptcp, Time::ZERO);
                server_conn.insert(server, conn_idx);
            }
            let spec = IncastSpec { client, servers, object_bytes, fanout, requests };
            stack.set_incast(spec, server_conn, self.seed);
        })?;
        let (rounds, elapsed) = net.hosts.incast_result().expect("incast configured");
        let bytes = rounds as u64 * object_bytes;
        let goodput_bps = if elapsed.is_zero() { 0.0 } else { bytes as f64 * 8.0 / elapsed.as_secs_f64() };
        Ok(IncastOutcome { goodput_bps, rounds, sim_time: end, events, timeouts: net.hosts.stats.timeouts, invariant_violations: violations.len() as u64 })
    }
}

/// A world after [`Scenario::run_world`]: run to completion, links settled.
struct FinishedWorld {
    net: Network<HostStack>,
    queue: EventQueue<Event>,
    /// Simulated time at the last event.
    end: Time,
    /// Logical event count (scheduler pops plus transmitted packets).
    events: u64,
    /// What the strict-mode monitor found (empty when `strict` is off).
    violations: Vec<String>,
    trace: Trace,
}

/// Drive the network until all jobs complete or the horizon passes. When a
/// monitor is supplied it checks the full invariant set at every chunk
/// boundary (including the final state), so a violation is caught within
/// 50 ms of simulated time of its cause.
fn run_to_completion(
    net: &mut Network<HostStack>,
    queue: &mut EventQueue<Event>,
    horizon: Time,
    mut monitor: Option<&mut InvariantMonitor>,
) -> clove_sim::RunSummary {
    let chunk = Duration::from_millis(50);
    let mut upto = Time::ZERO + chunk;
    let mut total = clove_sim::RunSummary { events: 0, end_time: Time::ZERO, hit_horizon: false };
    loop {
        let s = clove_sim::run(net, queue, upto.min(horizon));
        total.events += s.events;
        total.end_time = total.end_time.max(s.end_time);
        total.hit_horizon = s.hit_horizon;
        if let Some(m) = monitor.as_deref_mut() {
            m.check(total.end_time, net);
        }
        let done = net.hosts.fct.completed() as u64 >= net.hosts.total_jobs;
        if done || !s.hit_horizon || upto >= horizon {
            return total;
        }
        upto += chunk;
    }
}

/// Results of one RPC run.
#[derive(Debug, Clone)]
pub struct RpcOutcome {
    /// FCT summaries (all / mice / elephants / p99).
    pub fct: FctSummary,
    /// Simulated time at the last event.
    pub sim_time: Time,
    /// Events processed.
    pub events: u64,
    /// Packets dropped in the fabric.
    pub drops: u64,
    /// CE marks applied.
    pub ecn_marks: u64,
    /// TCP timeouts.
    pub timeouts: u64,
    /// TCP retransmissions (all kinds).
    pub retransmits: u64,
    /// Fast retransmissions.
    pub fast_retransmits: u64,
    /// Spurious retransmissions undone (DSACK).
    pub spurious_undos: u64,
    /// Discovery updates installed.
    pub path_updates: u64,
    /// Black-holed paths evicted by discovery and dropped from policies.
    pub path_evictions: u64,
    /// Aggregated fault damage: drops by cause, down/degraded link-time.
    pub fault_stats: FaultStats,
    /// Control-plane fault damage: probes/replies/feedback lost, delayed
    /// or corrupted by the injected control faults.
    pub control_stats: ControlFaultStats,
    /// Mean FCT slowdown (FCT over the flow's unloaded ideal) per window
    /// of completion time — the resilience experiments' time series.
    pub fct_windows: Vec<(Time, f64)>,
    /// Time from the first mid-run fault until the windowed slowdown
    /// returned within [`RECOVERY_FACTOR`]× of the pre-fault mean; `None`
    /// when no mid-run fault was injected or it never came back within
    /// bound.
    pub recovery: Option<Duration>,
    /// Diagnostic lines for connections that never drained.
    pub stalled: Vec<String>,
    /// Per-fabric-link utilization diagnostics.
    pub link_report: Vec<String>,
    /// Invariant violations detected by the strict-mode monitor (empty
    /// when the run was clean, or when `strict` was off).
    pub violations: Vec<String>,
    /// Event-queue pressure profile (peak pending events, push-to-pop
    /// delay histogram) — the data wheel bucket sizing is tuned from.
    pub queue_profile: QueueProfile,
    /// Structured decision trace (empty unless [`Scenario::trace`] is set).
    pub trace: Vec<TraceEvent>,
    /// Events dropped because the trace buffer hit capacity.
    pub trace_dropped: u64,
}

/// Recovery bound: the run counts as recovered once the per-window mean
/// FCT is back within this factor of the pre-fault mean.
pub const RECOVERY_FACTOR: f64 = 1.5;

/// Window for the FCT time series: the probing interval (the cadence at
/// which the edge can react), floored so degenerate profiles don't produce
/// thousands of empty windows.
fn fct_window_for(probe_interval: Duration) -> Duration {
    probe_interval.max(Duration::from_millis(1))
}

/// The unloaded ideal FCT a flow of `bytes` could hope for: a base latency
/// plus serialization at the access rate. Used to turn raw FCTs into
/// size-independent slowdowns, so a window isn't judged "degraded" merely
/// because an elephant happened to finish in it.
fn ideal_fct_secs(bytes: u64, rate_bps: u64, base: Duration) -> f64 {
    base.as_secs_f64() + bytes as f64 * 8.0 / rate_bps as f64
}

/// Mean FCT slowdown (FCT over the flow's unloaded ideal at `rate_bps`
/// with `base` latency) of flows grouped by completion-time window.
/// Windows with no completions are omitted.
pub fn fct_windows(records: &[FlowRecord], window: Duration, rate_bps: u64, base: Duration) -> Vec<(Time, f64)> {
    if records.is_empty() || window.is_zero() {
        return Vec::new();
    }
    let mut sums: FxHashMap<u64, (f64, u64)> = FxHashMap::default();
    for r in records {
        let idx = r.end.0 / window.0;
        let e = sums.entry(idx).or_insert((0.0, 0));
        e.0 += r.fct_secs() / ideal_fct_secs(r.bytes, rate_bps, base);
        e.1 += 1;
    }
    let mut out: Vec<(Time, f64)> = sums.into_iter().map(|(i, (s, c))| (Time(i * window.0), s / c as f64)).collect();
    out.sort_by_key(|&(t, _)| t);
    out
}

/// Time from `fault_at` until the windowed mean slowdown first returns
/// within `factor`× the pre-fault mean (measured to the end of the
/// recovering window). `None` when there is no pre-fault baseline or the
/// slowdown never comes back within bound.
pub fn recovery_time(records: &[FlowRecord], fault_at: Time, window: Duration, factor: f64, rate_bps: u64, base: Duration) -> Option<Duration> {
    let pre: Vec<f64> = records.iter().filter(|r| r.end <= fault_at).map(|r| r.fct_secs() / ideal_fct_secs(r.bytes, rate_bps, base)).collect();
    if pre.is_empty() {
        return None;
    }
    let bound = factor * pre.iter().sum::<f64>() / pre.len() as f64;
    for (start, mean) in fct_windows(records, window, rate_bps, base) {
        if start < fault_at {
            continue;
        }
        if mean <= bound {
            return Some((start + window).saturating_since(fault_at));
        }
    }
    None
}

/// Summarize switch-to-switch link usage (diagnostics).
fn link_report(fabric: &clove_net::Fabric) -> Vec<String> {
    fabric
        .links
        .iter()
        .filter(|l| matches!((l.from, l.to), (NodeId::Switch(_), NodeId::Switch(_))))
        .map(|l| {
            format!(
                "{:?}->{:?} {} tx={}MB drops={} marks={} maxq={}KB",
                l.from,
                l.to,
                if l.up { "up" } else { "DOWN" },
                l.stats.tx_bytes / 1_000_000,
                l.stats.drops_overflow,
                l.stats.ecn_marks,
                l.stats.max_queue_bytes / 1024,
            )
        })
        .collect()
}

/// Results of one incast run.
#[derive(Debug, Clone, Copy)]
pub struct IncastOutcome {
    /// Client receive goodput in bits/second.
    pub goodput_bps: f64,
    /// Completed request rounds.
    pub rounds: u32,
    /// Simulated time at the last event.
    pub sim_time: Time,
    /// Events processed.
    pub events: u64,
    /// TCP timeouts.
    pub timeouts: u64,
    /// Invariant violations counted by the strict-mode monitor (0 when
    /// clean or when `strict` was off).
    pub invariant_violations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_topology_kind_and_each_round_trips_through_json() {
        for (i, t) in TopologyKind::all().iter().enumerate() {
            // No wildcard arm: a new variant must be given a slot here, and
            // `all()` must then hold it in that slot.
            let slot = match t {
                TopologyKind::Symmetric => 0,
                TopologyKind::Asymmetric => 1,
                TopologyKind::FatTree { .. } => 2,
            };
            assert_eq!(slot, i);
        }
        for t in TopologyKind::all().into_iter().chain([TopologyKind::FatTree { k: 8 }]) {
            assert_eq!(TopologyKind::from_json(&t.to_json()), Ok(t), "{}", t.to_json().render());
        }
        let parse = |json: &str| TopologyKind::from_json(&Json::parse(json).expect("test JSON"));
        assert!(parse(r#"{"kind":"torus"}"#).unwrap_err().contains("want symmetric | asymmetric | fat-tree"));
        assert!(parse(r#"{"kind":"fat-tree"}"#).unwrap_err().contains("'k'"));
    }

    #[test]
    fn a_bad_scalar_is_an_error_from_the_run_not_a_panic() {
        // The gate sits in front of both workloads, so a programmatic
        // scenario gets the same diagnosis a spec file does.
        let mut s = Scenario::new(Scheme::Ecmp, TopologyKind::Symmetric, 0.0, 1);
        assert!(s.try_run_rpc(&clove_workload::web_search()).unwrap_err().starts_with("load:"));
        s.load = 0.5;
        s.topology = TopologyKind::FatTree { k: 3 };
        assert!(s.try_run_incast(4, 1, 1000).unwrap_err().starts_with("topology.k:"));
    }

    #[test]
    fn fat_tree_links_take_the_profile_so_clove_int_sees_utilisation() {
        let mut s = Scenario::new(Scheme::CloveInt, TopologyKind::FatTree { k: 4 }, 0.5, 7);
        s.profile.ecn_threshold_pkts = 7;
        let topo = s.build_topology();
        for l in &topo.fabric.links {
            assert!(l.cfg.int_enabled, "Clove-INT needs every link to stamp INT: {:?}", l.id);
            assert_eq!((l.cfg.ecn_threshold_bytes, l.cfg.prop_delay), (7 * Profile::MTU, s.profile.prop_delay));
        }
        s.jobs_per_conn = 8;
        s.conns_per_client = 1;
        s.horizon = Time::from_secs(10);
        s.trace = true;
        let out = s.run_rpc(&clove_workload::web_search());
        let utils: std::collections::BTreeSet<u64> =
            out.trace.iter().filter_map(|e| if let TraceEvent::IntReading { util_pm, .. } = e { Some(*util_pm) } else { None }).collect();
        assert!(utils.len() > 1, "a loaded fat-tree must report more than one utilisation level, got {utils:?}");
    }
}
