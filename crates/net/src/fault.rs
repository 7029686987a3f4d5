//! Fault injection: declarative timelines of link, node and control-plane
//! faults.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultSpec`]s — "at time T, do X
//! to cable C". Cables are named by a topology-level [`CableSelector`]
//! (e.g. "the first trunk cable between leaf 1 and spine 1") rather than by
//! raw link ids, so scenarios stay readable and re-usable across topology
//! scales. A spec names the atomic [`LinkAction`] its event applies
//! ([`FaultKind::Set`]) or is a [`FaultKind::Flap`]; [`FaultPlan::expand`]
//! lowers the plan into a timestamp-sorted list of [`FaultAction`]s — a
//! flap becomes its individual down/up pairs — which the harness resolves
//! against a built [`crate::topology::Topology`] and schedules as
//! [`crate::fabric::Event::Fault`] events.
//!
//! Faults come in two flavours, controlled by [`FaultSpec::announced`]:
//!
//! * **announced** — the network control plane notices and recomputes ECMP
//!   routes around the fault (planned maintenance, a routing protocol
//!   converging).
//! * **silent** — the data plane keeps hashing packets onto the dead link
//!   (gray failure). Only the virtual edge can detect this, by probing —
//!   the failure mode Clove's path discovery exists for (paper §3.1).
//!
//! [`FaultStats`] aggregates the damage for reports: drops by cause and
//! cumulative down/degraded link-time.
//!
//! ## Node faults and cable/node precedence
//!
//! Beyond per-cable faults, a plan may carry node-level faults
//! ([`NodeFaultSpec`]): a whole switch or host crashes and restarts. A node
//! fault is *defined* as its lowering onto the node's incident cable set
//! ([`FaultPlan::lower_nodes`]): a `Down` on every incident cable at the
//! crash time and an `Up` on each at the restart time, in catalog order —
//! plus a node-level lifecycle action ([`NodeFaultAction`]) that carries
//! the warm/cold state semantics the cables cannot express.
//!
//! When a node fault and a hand-written cable fault overlap the same cable
//! in the same window, the rule is:
//!
//! 1. **Point events, last-action-wins.** Expanded actions are applied in
//!    timestamp order; at equal timestamps, hand-written cable specs apply
//!    *before* node-derived ones (lowering appends node-derived specs after
//!    the cable specs, and expansion sorting is stable), so an explicit
//!    cable action is overridden by a simultaneous node action — the node
//!    outage is the coarser, physically-dominant event.
//! 2. **No double-counted damage.** Link down/degraded accounting is
//!    idempotent (`Link::set_up_at` ignores a `Down` while already down and
//!    an `Up` while already up), so overlapping down windows contribute
//!    their union to [`FaultStats::down_time`], never the sum. A cable cut
//!    inside a node outage window therefore adds zero extra down-time; an
//!    `Up` from a node restart ends the open interval even if it was opened
//!    by a cable fault (and vice versa).
//! 3. **`faults_applied` counts atomic actions**, including each
//!    node-derived per-cable action — it measures injection activity, not
//!    distinct outages.
//!
//! ## Control-plane faults
//!
//! A [`ControlFaultPlan`] is the same idiom for the edge control loop: each
//! [`ControlFaultSpec`] carries the one [`ControlAction`] its
//! [`crate::fabric::Event::ControlFault`] applies fabric-wide, so expanding
//! the plan is a stable sort by time.

use clove_sim::{Duration, Time};

/// Names a cable (a duplex link pair) in topology-level terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CableSelector {
    /// The `which`-th parallel trunk cable between a leaf and a spine,
    /// both by tier-local index (leaf-spine topologies only).
    LeafSpine {
        /// Leaf index, 0-based.
        leaf: u32,
        /// Spine index, 0-based.
        spine: u32,
        /// Which of the `trunk` parallel cables, 0-based.
        which: u32,
    },
    /// The access cable of a host.
    Access {
        /// Host index.
        host: u32,
    },
    /// A cable by its raw index into `Topology::cables` (escape hatch for
    /// topologies without named tiers, e.g. fat-trees).
    Index(usize),
}

impl CableSelector {
    /// The paper's asymmetry: the first cable between leaf 1 (L2) and
    /// spine 1 (S2) — the cable every failure experiment in the paper cuts.
    pub const S2_L2: CableSelector = CableSelector::LeafSpine { leaf: 1, spine: 1, which: 0 };
}

/// What happens to the selected cable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Apply one atomic action at the spec time (the ranges a rate or loss
    /// must lie in are [`FaultPlan::validate`]'s).
    Set(LinkAction),
    /// `count` down/up cycles: down for `period × duty`, then up for the
    /// remainder of each `period`.
    Flap {
        /// Length of one down+up cycle.
        period: Duration,
        /// Fraction of each period spent down (0 < duty < 1).
        duty: f64,
        /// Number of cycles.
        count: u32,
    },
}

/// One timed fault against one cable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// When the fault starts.
    pub at: Time,
    /// Which cable it hits.
    pub cable: CableSelector,
    /// What happens.
    pub kind: FaultKind,
    /// Whether the fabric control plane notices and reroutes (see module
    /// docs). Silent faults are the ones only edge probing can catch.
    pub announced: bool,
}

/// An atomic link operation: what a [`FaultKind::Set`] spec applies and
/// what every expanded [`FaultAction`] carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkAction {
    /// Take the link down (its queue flushes, later packets drop).
    Down,
    /// Bring the link back up.
    Up,
    /// Set the fraction of nominal line rate that remains (0 < fraction ≤
    /// 1; 1.0 restores full rate). Models a flapping optic renegotiating a
    /// lower speed or a mis-seated cable.
    SetRate(f64),
    /// Set the independent per-packet drop probability (0 ≤ rate < 1; 0.0
    /// turns loss back off). Models a dirty optic / failing laser.
    SetLoss(f64),
}

impl LinkAction {
    /// Stable schema name for trace output.
    pub fn name(self) -> &'static str {
        match self {
            LinkAction::Down => "down",
            LinkAction::Up => "up",
            LinkAction::SetRate(_) => "set_rate",
            LinkAction::SetLoss(_) => "set_loss",
        }
    }
}

/// One scheduled atomic action, produced by [`FaultPlan::expand`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultAction {
    /// When to apply it.
    pub at: Time,
    /// Which cable.
    pub cable: CableSelector,
    /// The atomic operation.
    pub action: LinkAction,
    /// Whether routes are recomputed afterwards.
    pub announced: bool,
}

/// Names a whole node — a switch or a host/hypervisor — the unit of a
/// node-level fault domain. Tiered selectors (leaf/spine) resolve only on
/// leaf-spine topologies, like [`CableSelector::LeafSpine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSelector {
    /// A leaf (ToR) switch by tier-local index.
    Leaf(u32),
    /// A spine switch by tier-local index.
    Spine(u32),
    /// A host (its hypervisor/vswitch) by index. Works on any topology.
    Host(u32),
}

impl NodeSelector {
    /// Stable schema name of the node tier, for trace output.
    pub fn tier(self) -> &'static str {
        match self {
            NodeSelector::Leaf(_) => "leaf",
            NodeSelector::Spine(_) => "spine",
            NodeSelector::Host(_) => "host",
        }
    }

    /// Tier-local index of the node.
    pub fn index(self) -> u32 {
        match self {
            NodeSelector::Leaf(i) | NodeSelector::Spine(i) | NodeSelector::Host(i) => i,
        }
    }
}

/// One timed crash-restart of one node: it goes dark at `at` — every
/// incident cable drops — and returns `down_for` later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFaultSpec {
    /// When the node crashes.
    pub at: Time,
    /// Which node.
    pub node: NodeSelector,
    /// How long the node stays down before restarting (must be positive).
    pub down_for: Duration,
    /// Whether soft state is lost across the restart. A cold return
    /// (power-cycle, hypervisor crash) brings a switch back with empty
    /// tables, and a host's vswitch flushes its flowlet/WRR/ECN/INT state
    /// while its probe daemon re-discovers from scratch; a warm one
    /// (battery-backed tables, a fast supervisor restart, a live-migrated
    /// VM) keeps all of it.
    pub cold: bool,
    /// Whether the fabric control plane notices each incident-cable flip
    /// and reroutes (a dead ToR trips link-layer alarms; a silent node
    /// fault models a hung dataplane that keeps link lights on).
    pub announced: bool,
}

impl NodeFaultSpec {
    /// The `(crash, restart)` window.
    pub fn window(&self) -> (Time, Time) {
        (self.at, self.at + self.down_for)
    }

    /// Lower onto the node's incident cable set (resolved by the caller,
    /// in catalog order): a `Down` on every cable at the crash time, then
    /// an `Up` on each at the restart time.
    pub fn cable_specs(&self, incident: &[CableSelector]) -> Vec<FaultSpec> {
        let (down_at, up_at) = self.window();
        let mut out = Vec::with_capacity(incident.len() * 2);
        for (at, action) in [(down_at, LinkAction::Down), (up_at, LinkAction::Up)] {
            out.extend(incident.iter().map(|&cable| FaultSpec { at, cable, kind: FaultKind::Set(action), announced: self.announced }));
        }
        out
    }
}

/// One scheduled node lifecycle action, produced by
/// [`FaultPlan::node_actions`] — the state-semantics companion to the
/// per-cable actions a node fault lowers to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFaultAction {
    /// When it happens.
    pub at: Time,
    /// Which node.
    pub node: NodeSelector,
    /// `false` = crash (node goes dark), `true` = restart (node returns).
    pub up: bool,
    /// Whether the return is cold (state lost). Carried on both phases so
    /// traces can show the eventual semantics at crash time.
    pub cold: bool,
}

/// An ordered timeline of faults for one experiment run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The cable-fault timeline (any insertion order; expansion sorts by
    /// time).
    pub specs: Vec<FaultSpec>,
    /// The node-fault timeline (see module docs for how node faults lower
    /// to cable faults and compose with them).
    pub node_specs: Vec<NodeFaultSpec>,
}

impl FaultPlan {
    /// The empty plan (a clean run).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if no faults are planned.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty() && self.node_specs.is_empty()
    }

    /// Append a cable fault.
    pub fn push(&mut self, spec: FaultSpec) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// Append a node fault.
    pub fn push_node(&mut self, spec: NodeFaultSpec) -> &mut Self {
        self.node_specs.push(spec);
        self
    }

    /// A single announced cut of `cable` at `at`, never restored — the
    /// classic asymmetry experiment, and the spec key `fail_at_ms`'s cut.
    pub fn cut(at: Time, cable: CableSelector) -> FaultPlan {
        FaultPlan { specs: vec![FaultSpec { at, cable, kind: FaultKind::Set(LinkAction::Down), announced: true }], node_specs: Vec::new() }
    }

    /// A silent flap of `cable`: `count` cycles of `period`, down for
    /// `duty` of each, starting at `at`.
    pub fn flap(at: Time, cable: CableSelector, period: Duration, duty: f64, count: u32) -> FaultPlan {
        FaultPlan { specs: vec![FaultSpec { at, cable, kind: FaultKind::Flap { period, duty, count }, announced: false }], node_specs: Vec::new() }
    }

    /// A silent rate degrade of `cable` to `fraction` of nominal at `at`,
    /// never restored.
    pub fn degrade(at: Time, cable: CableSelector, fraction: f64) -> FaultPlan {
        FaultPlan { specs: vec![FaultSpec { at, cable, kind: FaultKind::Set(LinkAction::SetRate(fraction)), announced: false }], node_specs: Vec::new() }
    }

    /// Silent stochastic loss on `cable` at `rate` from `at` on, never
    /// cleared.
    pub fn loss(at: Time, cable: CableSelector, rate: f64) -> FaultPlan {
        FaultPlan { specs: vec![FaultSpec { at, cable, kind: FaultKind::Set(LinkAction::SetLoss(rate)), announced: false }], node_specs: Vec::new() }
    }

    /// An announced crash-restart of `node` at `at`, returning `down_for`
    /// later, `cold` (state lost) or warm.
    pub fn node_crash(at: Time, node: NodeSelector, down_for: Duration, cold: bool) -> FaultPlan {
        FaultPlan { specs: Vec::new(), node_specs: vec![NodeFaultSpec { at, node, down_for, cold, announced: true }] }
    }

    /// Merge another plan's specs into this one.
    pub fn extend(&mut self, other: FaultPlan) -> &mut Self {
        self.specs.extend(other.specs);
        self.node_specs.extend(other.node_specs);
        self
    }

    /// Check every spec's parameters without expanding: degrade fractions
    /// in (0, 1], loss rates in [0, 1), flap duty cycles in (0, 1) with a
    /// positive period, positive reboot windows. [`FaultPlan::expand`]
    /// panics on exactly the plans this rejects. Cable names are *not*
    /// checked here — they only resolve against a built topology
    /// (`Scenario::validate` in the harness does both).
    pub fn validate(&self) -> Result<(), String> {
        for (i, spec) in self.specs.iter().enumerate() {
            match spec.kind {
                FaultKind::Set(LinkAction::Down | LinkAction::Up) => {}
                FaultKind::Set(LinkAction::SetRate(fraction)) => {
                    if !(fraction > 0.0 && fraction <= 1.0) {
                        return Err(format!("spec {i}: degrade fraction {fraction} must be in (0, 1]"));
                    }
                }
                FaultKind::Set(LinkAction::SetLoss(rate)) => {
                    if !(0.0..1.0).contains(&rate) {
                        return Err(format!("spec {i}: loss rate {rate} must be in [0, 1)"));
                    }
                }
                FaultKind::Flap { period, duty, count: _ } => {
                    if period.is_zero() {
                        return Err(format!("spec {i}: flap period must be positive"));
                    }
                    if !(duty > 0.0 && duty < 1.0) {
                        return Err(format!("spec {i}: flap duty {duty} must be in (0, 1)"));
                    }
                }
            }
        }
        for (i, spec) in self.node_specs.iter().enumerate() {
            if spec.down_for.is_zero() {
                return Err(format!("node spec {i}: crash-restart down_for must be positive"));
            }
        }
        Ok(())
    }

    /// Lower every node fault onto its incident cable set (resolved by
    /// `incident`, typically `Topology::incident_cables`), returning a plan
    /// with only cable specs: the hand-written cable specs first, then each
    /// node spec's lowering in insertion order — the precedence documented
    /// in the module docs. Errs when a node selector does not resolve.
    pub fn lower_nodes(&self, mut incident: impl FnMut(NodeSelector) -> Option<Vec<CableSelector>>) -> Result<FaultPlan, String> {
        let mut out = FaultPlan { specs: self.specs.clone(), node_specs: Vec::new() };
        for (i, spec) in self.node_specs.iter().enumerate() {
            let cables = incident(spec.node).ok_or_else(|| format!("node spec {i}: {:?} does not resolve on this topology", spec.node))?;
            out.specs.extend(spec.cable_specs(&cables));
        }
        Ok(out)
    }

    /// The node lifecycle timeline: a crash and a restart action per node
    /// spec, sorted by timestamp (stable: ties keep spec order, a crash
    /// precedes its own restart).
    pub fn node_actions(&self) -> Vec<NodeFaultAction> {
        let mut out = Vec::with_capacity(self.node_specs.len() * 2);
        for spec in &self.node_specs {
            let (down_at, up_at) = spec.window();
            out.push(NodeFaultAction { at: down_at, node: spec.node, up: false, cold: spec.cold });
            out.push(NodeFaultAction { at: up_at, node: spec.node, up: true, cold: spec.cold });
        }
        out.sort_by_key(|a| a.at);
        out
    }

    /// Lower the cable plan into atomic actions sorted by timestamp
    /// (stable: ties keep spec order, and a flap's down precedes its up).
    /// Node specs are *not* included — they only lower against a topology
    /// (see [`FaultPlan::lower_nodes`]). A plan [`FaultPlan::validate`]
    /// rejects panics here, at plan time, rather than mid-run.
    pub fn expand(&self) -> Vec<FaultAction> {
        if let Err(e) = self.validate() {
            panic!("invalid fault plan: {e}");
        }
        let mut out = Vec::new();
        for spec in &self.specs {
            let action_at = |at, action| FaultAction { at, cable: spec.cable, action, announced: spec.announced };
            match spec.kind {
                FaultKind::Set(action) => out.push(action_at(spec.at, action)),
                FaultKind::Flap { period, duty, count } => {
                    let down_span = period.mul_f64(duty);
                    for i in 0..count {
                        let cycle_start = spec.at + period * i as u64;
                        out.push(action_at(cycle_start, LinkAction::Down));
                        out.push(action_at(cycle_start + down_span, LinkAction::Up));
                    }
                }
            }
        }
        out.sort_by_key(|a| a.at);
        out
    }
}

/// A control-plane setting change, applied fabric-wide by an
/// [`crate::fabric::Event::ControlFault`].
///
/// Unlike [`LinkAction`], these target the *edge control loop* rather than
/// a cable: Clove's congestion awareness rides on TTL-stepped probes, the
/// ICMP time-exceeded replies they elicit, and (sport, CE/util) feedback
/// piggybacked on reverse traffic. A production deployment must keep
/// making reasonable decisions when those signals are lossy, delayed, or
/// corrupted — this is what the feedback-degradation experiment injects.
/// Every rate is a probability in [0, 1); 0.0 (or a zero delay) turns the
/// fault off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlAction {
    /// Drop each outbound probe packet with this probability.
    SetProbeLoss(f64),
    /// Drop each ICMP time-exceeded (probe reply) with this probability at
    /// the moment of generation.
    SetReplyLoss(f64),
    /// Strip each piggybacked feedback entry with this probability.
    SetFeedbackLoss(f64),
    /// Detach piggybacked feedback from its carrier and deliver it this
    /// much later as a standalone relay packet (models a slow relay path).
    SetFeedbackDelay(Duration),
    /// Corrupt each feedback entry with this probability: the congested
    /// bit flips, the utilization inverts.
    SetFeedbackCorrupt(f64),
}

impl ControlAction {
    /// Stable schema name for trace output.
    pub fn name(self) -> &'static str {
        match self {
            ControlAction::SetProbeLoss(_) => "set_probe_loss",
            ControlAction::SetReplyLoss(_) => "set_reply_loss",
            ControlAction::SetFeedbackLoss(_) => "set_feedback_loss",
            ControlAction::SetFeedbackDelay(_) => "set_feedback_delay",
            ControlAction::SetFeedbackCorrupt(_) => "set_feedback_corrupt",
        }
    }
}

/// One timed control-plane fault: from `at` on, the fabric applies
/// `action`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlFaultSpec {
    /// When the fault takes effect.
    pub at: Time,
    /// The setting change.
    pub action: ControlAction,
}

/// An ordered timeline of control-plane faults for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControlFaultPlan {
    /// The fault timeline (any insertion order; expansion sorts by time).
    pub specs: Vec<ControlFaultSpec>,
}

impl ControlFaultPlan {
    /// The empty plan (a healthy control plane).
    pub fn none() -> ControlFaultPlan {
        ControlFaultPlan::default()
    }

    /// True if no control faults are planned.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Append a fault.
    pub fn push(&mut self, spec: ControlFaultSpec) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// The paper-matrix composite: probe, reply *and* feedback loss all at
    /// `rate` from `at` on — "the control loop is `rate` lossy".
    pub fn lossy_control(at: Time, rate: f64) -> ControlFaultPlan {
        let actions = [ControlAction::SetProbeLoss(rate), ControlAction::SetReplyLoss(rate), ControlAction::SetFeedbackLoss(rate)];
        ControlFaultPlan { specs: actions.into_iter().map(|action| ControlFaultSpec { at, action }).collect() }
    }

    /// Check every spec's rate: loss/corruption rates in [0, 1).
    /// [`ControlFaultPlan::expand`] panics on exactly the plans this
    /// rejects.
    pub fn validate(&self) -> Result<(), String> {
        for (i, spec) in self.specs.iter().enumerate() {
            let (name, rate) = match spec.action {
                ControlAction::SetProbeLoss(rate) => ("probe loss", rate),
                ControlAction::SetReplyLoss(rate) => ("reply loss", rate),
                ControlAction::SetFeedbackLoss(rate) => ("feedback loss", rate),
                ControlAction::SetFeedbackCorrupt(rate) => ("feedback corrupt", rate),
                ControlAction::SetFeedbackDelay(_) => continue,
            };
            if !(0.0..1.0).contains(&rate) {
                return Err(format!("spec {i}: {name} rate {rate} must be in [0, 1)"));
            }
        }
        Ok(())
    }

    /// The timeline sorted by timestamp (stable: ties keep spec order) —
    /// each spec already is the one action its event applies. A plan
    /// [`ControlFaultPlan::validate`] rejects panics here, at plan time,
    /// rather than mid-run.
    pub fn expand(&self) -> Vec<ControlFaultSpec> {
        if let Err(e) = self.validate() {
            panic!("invalid control fault plan: {e}");
        }
        let mut out = self.specs.clone();
        out.sort_by_key(|s| s.at);
        out
    }
}

/// Control-plane damage counters for one run, kept by the fabric and
/// rendered in the feedback-degradation report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlFaultStats {
    /// Outbound probe packets dropped by injected probe loss.
    pub probes_dropped: u64,
    /// Probe replies suppressed at generation by injected reply loss.
    pub replies_dropped: u64,
    /// Feedback entries stripped by injected feedback loss.
    pub feedback_dropped: u64,
    /// Feedback entries detached and re-delivered late.
    pub feedback_delayed: u64,
    /// Feedback entries corrupted in flight.
    pub feedback_corrupted: u64,
    /// Atomic control-fault actions applied.
    pub control_faults_applied: u64,
}

impl ControlFaultStats {
    /// Accumulate another run's damage into this one (pooling seeds).
    pub fn absorb(&mut self, other: &ControlFaultStats) {
        self.probes_dropped += other.probes_dropped;
        self.replies_dropped += other.replies_dropped;
        self.feedback_dropped += other.feedback_dropped;
        self.feedback_delayed += other.feedback_delayed;
        self.feedback_corrupted += other.feedback_corrupted;
        self.control_faults_applied += other.control_faults_applied;
    }
}

/// Aggregated fault damage for one run, built by
/// `Fabric::fault_stats` and rendered in resilience reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped because a link was down (includes queue flushes).
    pub drops_down: u64,
    /// Packets dropped by injected stochastic loss.
    pub drops_loss: u64,
    /// Packets dropped by buffer overflow (congestion, not faults — kept
    /// here so reports show all causes side by side).
    pub drops_overflow: u64,
    /// Packets dropped at switches with no route (announced faults can
    /// leave transient route gaps).
    pub drops_no_route: u64,
    /// Sum over links of time spent administratively down.
    pub down_time: Duration,
    /// Sum over links of time spent degraded (reduced rate or loss > 0).
    pub degraded_time: Duration,
    /// Atomic fault actions applied to the fabric.
    pub faults_applied: u64,
}

impl FaultStats {
    /// Accumulate another run's damage into this one (pooling seeds).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.drops_down += other.drops_down;
        self.drops_loss += other.drops_loss;
        self.drops_overflow += other.drops_overflow;
        self.drops_no_route += other.drops_no_route;
        self.down_time = Duration(self.down_time.0 + other.down_time.0);
        self.degraded_time = Duration(self.degraded_time.0 + other.degraded_time.0);
        self.faults_applied += other.faults_applied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_expands_to_single_down() {
        let plan = FaultPlan::cut(Time::from_millis(5), CableSelector::S2_L2);
        let actions = plan.expand();
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].at, Time::from_millis(5));
        assert_eq!(actions[0].action, LinkAction::Down);
        assert!(actions[0].announced);
    }

    #[test]
    fn flap_expands_to_down_up_pairs() {
        let plan = FaultPlan::flap(Time::from_millis(10), CableSelector::S2_L2, Duration::from_millis(4), 0.5, 3);
        let actions = plan.expand();
        assert_eq!(actions.len(), 6);
        // down at 10, up at 12, down at 14, up at 16, down at 18, up at 20.
        let expect: Vec<(u64, LinkAction)> =
            vec![(10, LinkAction::Down), (12, LinkAction::Up), (14, LinkAction::Down), (16, LinkAction::Up), (18, LinkAction::Down), (20, LinkAction::Up)];
        for (a, (ms, action)) in actions.iter().zip(expect) {
            assert_eq!(a.at, Time::from_millis(ms));
            assert_eq!(a.action, action);
            assert!(!a.announced, "flaps default to silent faults");
        }
    }

    #[test]
    fn expansion_sorts_by_time_stably() {
        let mut plan = FaultPlan::none();
        plan.push(FaultSpec { at: Time::from_millis(20), cable: CableSelector::Index(3), kind: FaultKind::Set(LinkAction::SetLoss(0.01)), announced: false });
        plan.push(FaultSpec { at: Time::from_millis(5), cable: CableSelector::S2_L2, kind: FaultKind::Set(LinkAction::SetRate(0.5)), announced: false });
        plan.push(FaultSpec { at: Time::from_millis(20), cable: CableSelector::Access { host: 7 }, kind: FaultKind::Set(LinkAction::Down), announced: true });
        let actions = plan.expand();
        assert_eq!(actions.len(), 3);
        assert_eq!(actions[0].action, LinkAction::SetRate(0.5));
        // The two t=20 actions keep their insertion order.
        assert_eq!(actions[1].action, LinkAction::SetLoss(0.01));
        assert_eq!(actions[2].action, LinkAction::Down);
    }

    #[test]
    fn extend_merges_plans() {
        let mut plan = FaultPlan::cut(Time::from_millis(1), CableSelector::S2_L2);
        plan.extend(FaultPlan::flap(Time::from_millis(2), CableSelector::Index(0), Duration::from_millis(1), 0.25, 2));
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.expand().len(), 5);
    }

    #[test]
    fn degrade_and_loss_are_silent_single_actions() {
        let d = FaultPlan::degrade(Time::from_millis(3), CableSelector::S2_L2, 0.5).expand();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].action, LinkAction::SetRate(0.5));
        assert!(!d[0].announced);
        let l = FaultPlan::loss(Time::from_millis(3), CableSelector::S2_L2, 0.01).expand();
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].action, LinkAction::SetLoss(0.01));
        assert!(!l[0].announced);
    }

    #[test]
    fn stats_absorb_sums_all_fields() {
        let mut a = FaultStats {
            drops_down: 1,
            drops_loss: 2,
            drops_overflow: 3,
            drops_no_route: 4,
            down_time: Duration::from_millis(5),
            degraded_time: Duration::from_millis(6),
            faults_applied: 7,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.drops_down, 2);
        assert_eq!(a.drops_loss, 4);
        assert_eq!(a.drops_overflow, 6);
        assert_eq!(a.drops_no_route, 8);
        assert_eq!(a.down_time, Duration::from_millis(10));
        assert_eq!(a.degraded_time, Duration::from_millis(12));
        assert_eq!(a.faults_applied, 14);
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn flap_rejects_bad_duty() {
        FaultPlan::flap(Time::ZERO, CableSelector::S2_L2, Duration::from_millis(1), 1.5, 1).expand();
    }

    #[test]
    fn validate_catches_what_expand_would_panic_on() {
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan::cut(Time::ZERO, CableSelector::S2_L2).validate().is_ok());
        assert!(FaultPlan::loss(Time::ZERO, CableSelector::S2_L2, 0.99).validate().is_ok());
        for (plan, field) in [
            (FaultPlan::flap(Time::ZERO, CableSelector::S2_L2, Duration::from_millis(1), 1.5, 1), "duty"),
            (FaultPlan::flap(Time::ZERO, CableSelector::S2_L2, Duration::ZERO, 0.5, 1), "period"),
            (FaultPlan::degrade(Time::ZERO, CableSelector::S2_L2, 0.0), "fraction"),
            (FaultPlan::loss(Time::ZERO, CableSelector::S2_L2, 1.0), "rate"),
            (FaultPlan::node_crash(Time::ZERO, NodeSelector::Leaf(0), Duration::ZERO, false), "down_for"),
        ] {
            assert!(plan.validate().unwrap_err().contains(field));
            // `expand` rejects exactly what `validate` rejects.
            assert!(std::panic::catch_unwind(|| plan.expand()).is_err(), "{field}");
        }
    }

    /// A one-spec control plan at 3 ms.
    fn control(action: ControlAction) -> ControlFaultPlan {
        ControlFaultPlan { specs: vec![ControlFaultSpec { at: Time::from_millis(3), action }] }
    }

    #[test]
    fn control_validate_catches_bad_rates() {
        assert!(ControlFaultPlan::none().validate().is_ok());
        assert!(ControlFaultPlan::lossy_control(Time::ZERO, 0.5).validate().is_ok());
        assert!(control(ControlAction::SetProbeLoss(1.5)).validate().unwrap_err().contains("probe loss"));
        assert!(control(ControlAction::SetFeedbackCorrupt(-0.1)).validate().unwrap_err().contains("feedback corrupt"));
        assert!(control(ControlAction::SetFeedbackDelay(Duration::from_secs(100))).validate().is_ok());
    }

    #[test]
    fn control_plan_expands_sorted_and_stable() {
        let mut plan = ControlFaultPlan::none();
        plan.push(ControlFaultSpec { at: Time::from_millis(20), action: ControlAction::SetFeedbackLoss(0.5) });
        plan.push(ControlFaultSpec { at: Time::from_millis(5), action: ControlAction::SetProbeLoss(0.1) });
        plan.push(ControlFaultSpec { at: Time::from_millis(20), action: ControlAction::SetReplyLoss(0.2) });
        let actions = plan.expand();
        assert_eq!(actions.len(), 3);
        assert_eq!(actions[0].action, ControlAction::SetProbeLoss(0.1));
        // The two t=20 actions keep their insertion order.
        assert_eq!(actions[1].action, ControlAction::SetFeedbackLoss(0.5));
        assert_eq!(actions[2].action, ControlAction::SetReplyLoss(0.2));
    }

    #[test]
    fn lossy_control_bundles_three_kinds() {
        let plan = ControlFaultPlan::lossy_control(Time::from_millis(7), 0.2);
        let actions = plan.expand();
        assert_eq!(actions.len(), 3);
        assert!(actions.iter().all(|a| a.at == Time::from_millis(7)));
        assert_eq!(actions[0].action, ControlAction::SetProbeLoss(0.2));
        assert_eq!(actions[1].action, ControlAction::SetReplyLoss(0.2));
        assert_eq!(actions[2].action, ControlAction::SetFeedbackLoss(0.2));
    }

    #[test]
    fn control_delay_and_corrupt_expand() {
        // A delay has no range to check; a corruption rate in range passes.
        let d = control(ControlAction::SetFeedbackDelay(Duration::from_micros(250)));
        assert_eq!(d.expand(), d.specs);
        let c = control(ControlAction::SetFeedbackCorrupt(0.05)).expand();
        assert_eq!(c[0].action, ControlAction::SetFeedbackCorrupt(0.05));
    }

    #[test]
    #[should_panic(expected = "probe loss rate")]
    fn control_plan_rejects_bad_rate() {
        control(ControlAction::SetProbeLoss(1.5)).expand();
    }

    #[test]
    fn node_crash_lowers_to_downs_then_ups_after_cable_specs() {
        let mut plan = FaultPlan::cut(Time::from_millis(1), CableSelector::S2_L2);
        plan.extend(FaultPlan::node_crash(Time::from_millis(10), NodeSelector::Spine(1), Duration::from_millis(5), true));
        assert!(!plan.is_empty());
        let incident = vec![CableSelector::LeafSpine { leaf: 0, spine: 1, which: 0 }, CableSelector::S2_L2];
        let lowered = plan.lower_nodes(|_| Some(incident.clone())).expect("resolves");
        assert!(lowered.node_specs.is_empty());
        // Hand-written spec first, then 2 downs + 2 ups from the node.
        assert_eq!(lowered.specs.len(), 5);
        assert_eq!(lowered.specs[0].at, Time::from_millis(1));
        let actions = lowered.expand();
        assert_eq!(actions.len(), 5);
        assert_eq!(actions[0].action, LinkAction::Down);
        assert!(actions[1..3].iter().all(|a| a.at == Time::from_millis(10) && a.action == LinkAction::Down && a.announced));
        assert!(actions[3..5].iter().all(|a| a.at == Time::from_millis(15) && a.action == LinkAction::Up && a.announced));
        // Incident cables keep catalog order within each phase.
        assert_eq!(actions[1].cable, incident[0]);
        assert_eq!(actions[2].cable, incident[1]);
    }

    #[test]
    fn node_actions_give_crash_and_restart_sorted() {
        let mut plan = FaultPlan::node_crash(Time::from_millis(20), NodeSelector::Leaf(0), Duration::from_millis(10), true);
        plan.extend(FaultPlan::node_crash(Time::from_millis(5), NodeSelector::Host(3), Duration::from_millis(40), false));
        let actions = plan.node_actions();
        assert_eq!(actions.len(), 4);
        assert_eq!((actions[0].at, actions[0].node, actions[0].up, actions[0].cold), (Time::from_millis(5), NodeSelector::Host(3), false, false));
        assert_eq!((actions[1].at, actions[1].up, actions[1].cold), (Time::from_millis(20), false, true));
        assert_eq!((actions[2].at, actions[2].node, actions[2].up), (Time::from_millis(30), NodeSelector::Leaf(0), true));
        assert_eq!((actions[3].at, actions[3].node, actions[3].up), (Time::from_millis(45), NodeSelector::Host(3), true));
    }

    #[test]
    fn node_validate_and_lowering_errors() {
        let mut bad = FaultPlan::none();
        bad.push_node(NodeFaultSpec { at: Time::ZERO, node: NodeSelector::Leaf(0), down_for: Duration::ZERO, cold: false, announced: true });
        assert!(bad.validate().unwrap_err().contains("down_for"));
        let plan = FaultPlan::node_crash(Time::ZERO, NodeSelector::Leaf(9), Duration::from_millis(1), false);
        assert!(plan.validate().is_ok());
        assert!(plan.lower_nodes(|_| None).unwrap_err().contains("Leaf(9)"));
    }

    #[test]
    fn node_selector_names() {
        assert_eq!(NodeSelector::Leaf(1).tier(), "leaf");
        assert_eq!(NodeSelector::Spine(0).tier(), "spine");
        assert_eq!(NodeSelector::Host(7).tier(), "host");
        assert_eq!(NodeSelector::Host(7).index(), 7);
    }

    #[test]
    fn control_stats_absorb_sums_all_fields() {
        let mut a = ControlFaultStats {
            probes_dropped: 1,
            replies_dropped: 2,
            feedback_dropped: 3,
            feedback_delayed: 4,
            feedback_corrupted: 5,
            control_faults_applied: 6,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.probes_dropped, 2);
        assert_eq!(a.replies_dropped, 4);
        assert_eq!(a.feedback_dropped, 6);
        assert_eq!(a.feedback_delayed, 8);
        assert_eq!(a.feedback_corrupted, 10);
        assert_eq!(a.control_faults_applied, 12);
    }
}
