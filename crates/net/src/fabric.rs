//! The assembled fabric plus all forwarding behaviour and the event loop.
//!
//! [`Fabric`] owns every switch, link, and host attachment. [`Network`]
//! pairs a fabric with user-supplied [`HostLogic`] (the hypervisor stack:
//! vswitch, TCP endpoints, applications — implemented in higher crates) and
//! implements [`clove_sim::World`], so a whole experiment is just
//! `clove_sim::run(&mut network, &mut queue, horizon)`.
//!
//! ## Event flow
//!
//! * A host calls [`HostCtx::send`] → packet enqueued on its uplink; if the
//!   transmitter was idle its `Arrive{node, via}` (serialization + one
//!   propagation delay later) is scheduled immediately.
//! * `Arrive{node, via}` first settles `via` ([`Fabric::settle_link`]):
//!   every queued packet whose serialization has started by now is committed
//!   back-to-back and its own `Arrive` scheduled — there is no per-packet
//!   `TxDone` event, so a backlog of N packets costs N events, not 2N.
//! * `Arrive` at a switch → [`Fabric::switch_receive`]: TTL handling
//!   (probe expiry → ProbeReply), scheme-specific egress selection (ECMP /
//!   CONGA / HULA), enqueue on the chosen egress link.
//! * `Arrive` at a host → handed to [`HostLogic::on_packet`].
//! * `HostTimer` → handed to [`HostLogic::on_timer`].
//! * `Fault` → [`Fabric::apply_fault`]: the link's state changes, and an
//!   announced down/up recomputes routes — this is how experiments inject
//!   mid-run failures.
//!
//! ## Copy contract
//!
//! The event loop lends each event in place ([`World::handle_mut`]), and
//! the switch path — [`Fabric::switch_receive`], egress choice, the
//! enqueue on the chosen link, [`Link::offer`] — passes that `&mut Packet`
//! down, so TTL, CONGA tag, CE and INT marks are written into the
//! scheduler's batch slot, which is discarded after the run. A packet is
//! cloned only where it comes to rest: into the egress link's FIFO, or into
//! the `Event::Arrive` pushed for it (see the [`crate::link`] docs), plus
//! once at host delivery because [`HostLogic::on_packet`] owns what it
//! receives. Deliveries are pushed in the order the link commits them
//! (settled backlog in FIFO order, then the offered packet); every seq
//! number, and so every run digest, depends on that order. The by-value
//! entry points — [`Fabric::host_transmit`], [`HostCtx::send`] and the
//! provided `World::handle` — exist for callers that own what they hand
//! over (host logic building a packet; a hand-written loop that pops
//! events out of the batch) and immediately borrow it into the same path.

use crate::fault::{ControlAction, ControlFaultStats, FaultStats, LinkAction, NodeSelector};
use crate::hash::ecmp_select;
use crate::link::Link;
use crate::packet::{CongaTag, Feedback, Packet, PacketKind, PROBE_REPLY_SIZE, PROBE_SIZE};
use crate::switch::{FabricScheme, FlowletEntry, Switch};
use crate::types::{FlowKey, HostId, LinkId, NodeId, SwitchId};
use clove_sim::{Duration, EventQueue, SimRng, Time, World};
use clove_telemetry::Trace;

/// CONGA: the inter-packet gap that opens a new flowlet (two loaded RTTs).
pub const CONGA_FLOWLET_GAP: Duration = Duration::from_micros(200);
/// CONGA: bits of congestion-metric quantization (CONGA uses 3).
pub const CONGA_QUANT_BITS: u8 = 3;
/// CONGA: congestion-to-leaf entries age out after this long (20 gaps).
pub const CONGA_METRIC_AGE: Duration = Duration::from_millis(4);
/// HULA: how often each ToR floods probes.
pub const HULA_PROBE_INTERVAL: Duration = Duration::from_micros(200);
/// HULA: the inter-packet gap that opens a new flowlet (CONGA's).
pub const HULA_FLOWLET_GAP: Duration = Duration::from_micros(200);
/// HULA: best-hop entries older than this are ignored (20 probe intervals).
pub const HULA_ENTRY_AGE: Duration = Duration::from_millis(4);

/// A switch's flowlet table, keyed by the routed five-tuple.
type FlowletTable = rustc_hash::FxHashMap<FlowKey, FlowletEntry>;

/// Per-host attachment to the fabric.
#[derive(Debug, Clone, Copy)]
pub struct HostAttachment {
    /// The host's transmit link (host → leaf).
    pub uplink: LinkId,
    /// The leaf's transmit link toward the host (leaf → host).
    pub downlink: LinkId,
    /// The leaf switch the host hangs off.
    pub leaf: SwitchId,
}

/// Simulation events understood by [`Network`].
#[derive(Debug, Clone)]
pub enum Event {
    /// A packet reaches `node` having traversed `via` (None only for
    /// packets injected directly, which does not happen in practice).
    Arrive {
        /// The node receiving the packet.
        node: NodeId,
        /// The link it arrived on (probe replies need the ingress id).
        via: LinkId,
        /// The packet itself.
        pkt: Packet,
    },
    /// Opaque host-level timer (TCP RTO, probe rounds, app arrivals...).
    HostTimer {
        /// The host whose timer fired.
        host: HostId,
        /// Caller-defined token (see `clove-harness`'s token scheme).
        token: u64,
    },
    /// HULA probe round: every leaf floods fresh probes, then the tick
    /// reschedules itself at the configured interval.
    HulaTick,
    /// Apply one expanded fault action to one link direction (see
    /// [`crate::fault`]). Routes are only recomputed when the fault is
    /// `announced` — silent faults leave the data plane hashing into the
    /// failure, which only edge probing can detect.
    Fault {
        /// The directed link the action applies to.
        link: LinkId,
        /// The atomic operation.
        action: LinkAction,
        /// Whether the control plane notices (recompute routes).
        announced: bool,
    },
    /// Apply one expanded control-plane fault action (probe/feedback
    /// attacks, see [`crate::fault::ControlFaultPlan`]). These are always
    /// "silent": nothing reroutes, the edge just sees fewer signals.
    ControlFault {
        /// The setting change.
        action: ControlAction,
    },
    /// One lifecycle phase of a node fault (see
    /// [`crate::fault::NodeFaultSpec`]). The incident-cable flips are
    /// separate [`Event::Fault`]s scheduled at the same timestamps, before
    /// this event — this one carries only the state semantics: a cold
    /// switch restart clears the switch's soft forwarding tables, and a
    /// host restart is dispatched to [`HostLogic::on_restart`].
    NodeFault {
        /// The node, for traces and host dispatch.
        node: NodeSelector,
        /// Resolved switch id when the node is a switch (`None` for
        /// hosts) — resolved at schedule time because only the topology
        /// knows the tier layout.
        switch: Option<SwitchId>,
        /// `true` = restart phase, `false` = crash phase.
        up: bool,
        /// Whether the restart is cold (soft state lost).
        cold: bool,
    },
}

// Every hop copies one `Packet` into the next `Arrive` event and the wheel
// moves whole `ScheduledEvent`s, so these sizes are hot-path costs: growing
// one is a decision, not a side effect of adding a field.
const _: () = assert!(std::mem::size_of::<Packet>() <= 128);
const _: () = assert!(std::mem::size_of::<Event>() <= 144);
const _: () = assert!(std::mem::size_of::<clove_sim::ScheduledEvent<Event>>() <= 160);

/// Current control-plane fault settings, mutated by
/// [`Event::ControlFault`] and consulted on the probe/feedback hot paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControlPlaneFaults {
    /// Per-probe drop probability at the host uplink.
    pub probe_loss: f64,
    /// Per-reply drop probability at generation.
    pub reply_loss: f64,
    /// Per-entry feedback strip probability.
    pub feedback_loss: f64,
    /// Extra one-way delay applied to every feedback entry
    /// (`Duration::ZERO`: off).
    pub feedback_delay: Duration,
    /// Per-entry feedback corruption probability.
    pub feedback_corrupt: f64,
}

impl ControlPlaneFaults {
    /// True when no control-plane fault is currently active (the common
    /// case — keeps the per-packet cost to one branch).
    fn is_clean(&self) -> bool {
        self.probe_loss == 0.0 && self.feedback_loss == 0.0 && self.feedback_delay == Duration::ZERO && self.feedback_corrupt == 0.0
    }
}

/// Fabric-wide counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricStats {
    /// Packets that arrived at a switch with no route to their destination
    /// (transient during failures) and were dropped.
    pub no_route_drops: u64,
    /// Probe replies generated by TTL expiry.
    pub probe_replies: u64,
    /// Atomic fault actions applied via [`Event::Fault`].
    pub faults_applied: u64,
    /// Control-plane damage counters (probe/feedback attacks).
    pub control: ControlFaultStats,
}

/// The physical network: switches, links, host attachments, and the
/// fabric-wide scheme/config.
pub struct Fabric {
    /// All switches, indexed by `SwitchId.0`.
    pub switches: Vec<Switch>,
    /// All directed links, indexed by `LinkId.0`.
    pub links: Vec<Link>,
    /// Host attachments, indexed by `HostId.0`.
    pub hosts: Vec<HostAttachment>,
    /// Which algorithm the switches run.
    pub scheme: FabricScheme,
    /// Counters.
    pub stats: FabricStats,
    /// Deterministic randomness for in-switch decisions (CONGA's random
    /// tie-breaks among least-loaded members).
    pub rng: SimRng,
    /// Active control-plane fault settings.
    pub control: ControlPlaneFaults,
    /// Decision-trace handle for fabric-level events (ECN marks, faults).
    /// Disabled by default; recording never alters forwarding behaviour.
    trace: Trace,
    /// Packet uid source for switch-originated packets (probe replies).
    next_uid: u64,
}

impl Fabric {
    /// Assemble a fabric from parts (normally done by `topology` builders).
    pub fn new(switches: Vec<Switch>, links: Vec<Link>, hosts: Vec<HostAttachment>, scheme: FabricScheme, seed: u64) -> Fabric {
        Fabric {
            switches,
            links,
            hosts,
            scheme,
            stats: FabricStats::default(),
            rng: SimRng::new(seed ^ 0xFAB0_5EED),
            control: ControlPlaneFaults::default(),
            trace: Trace::disabled(),
            // High bit set: never collides with host-assigned uids.
            next_uid: 1 << 63,
        }
    }

    /// Install a decision-trace handle for fabric-level events.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The leaf switch of a host.
    pub fn leaf_of(&self, host: HostId) -> SwitchId {
        self.hosts[host.0 as usize].leaf
    }

    /// Borrow a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    fn fresh_uid(&mut self) -> u64 {
        self.next_uid += 1;
        self.next_uid
    }

    /// Transmit a host-originated packet onto the host's access uplink.
    pub fn host_transmit(&mut self, now: Time, host: HostId, mut pkt: Packet, q: &mut EventQueue<Event>) {
        if !self.control.is_clean() && !self.apply_control_to_packet(now, &mut pkt, q) {
            return;
        }
        let uplink = self.hosts[host.0 as usize].uplink;
        self.enqueue_on(now, uplink, &mut pkt, q);
    }

    /// Apply active control-plane faults to one outbound packet. Returns
    /// `false` when the packet itself is consumed (probe dropped).
    fn apply_control_to_packet(&mut self, now: Time, pkt: &mut Packet, q: &mut EventQueue<Event>) -> bool {
        if matches!(pkt.kind, PacketKind::Probe { .. }) {
            if self.control.probe_loss > 0.0 && self.rng.chance(self.control.probe_loss) {
                self.stats.control.probes_dropped += 1;
                return false;
            }
            return true;
        }
        if pkt.feedback.is_none() {
            return true;
        }
        if self.control.feedback_loss > 0.0 && self.rng.chance(self.control.feedback_loss) {
            pkt.feedback = None;
            self.stats.control.feedback_dropped += 1;
            return true;
        }
        if self.control.feedback_corrupt > 0.0 && self.rng.chance(self.control.feedback_corrupt) {
            if let Some(fb) = pkt.feedback.as_mut() {
                *fb = Self::corrupt_feedback(*fb);
                self.stats.control.feedback_corrupted += 1;
            }
        }
        if self.control.feedback_delay > Duration::ZERO {
            if let Some(fb) = pkt.feedback.take() {
                self.stats.control.feedback_delayed += 1;
                let carrier = self.feedback_carrier(pkt, fb);
                let dst = carrier.routed_dst();
                let downlink = self.hosts[dst.0 as usize].downlink;
                q.push(now + self.control.feedback_delay, Event::Arrive { node: NodeId::Host(dst), via: downlink, pkt: carrier });
            }
        }
        true
    }

    /// A standalone relay packet carrying feedback detached from `orig`,
    /// addressed so the destination vswitch attributes it to the right
    /// source hypervisor.
    fn feedback_carrier(&mut self, orig: &Packet, fb: Feedback) -> Packet {
        let key = orig.routed_key();
        let mut carrier = Packet::new(self.fresh_uid(), PROBE_REPLY_SIZE, FlowKey::tcp(key.src, key.dst, key.sport, key.dport), PacketKind::FeedbackOnly);
        carrier.outer = orig.outer;
        carrier.feedback = Some(fb);
        carrier
    }

    /// Deterministic feedback corruption: the kind of damage a bit flip in
    /// the STT context bits would do.
    fn corrupt_feedback(fb: Feedback) -> Feedback {
        match fb {
            Feedback::Ecn { sport, congested } => Feedback::Ecn { sport, congested: !congested },
            Feedback::Util { sport, util_pm } => Feedback::Util { sport, util_pm: 1000 - util_pm.min(1000) },
        }
    }

    /// Apply one expanded control-plane fault action.
    pub fn apply_control_fault(&mut self, action: ControlAction) {
        match action {
            ControlAction::SetProbeLoss(rate) => self.control.probe_loss = rate,
            ControlAction::SetReplyLoss(rate) => self.control.reply_loss = rate,
            ControlAction::SetFeedbackLoss(rate) => self.control.feedback_loss = rate,
            ControlAction::SetFeedbackDelay(delay) => self.control.feedback_delay = delay,
            ControlAction::SetFeedbackCorrupt(rate) => self.control.feedback_corrupt = rate,
        }
        self.stats.control.control_faults_applied += 1;
    }

    /// Control-plane damage so far.
    pub fn control_stats(&self) -> ControlFaultStats {
        self.stats.control
    }

    /// Enqueue on a specific link, scheduling an `Arrive` for every packet
    /// the link commits (the offered packet if the transmitter was idle,
    /// plus any backlog the pre-admission settle drained).
    fn enqueue_on(&mut self, now: Time, link: LinkId, pkt: &mut Packet, q: &mut EventQueue<Event>) {
        // Injected stochastic loss (fault injection): the coin is flipped
        // here rather than in `Link` so the link stays deterministic and the
        // fabric's seeded RNG governs all randomness.
        let l = &mut self.links[link.0 as usize];
        if l.loss_rate() > 0.0 && self.rng.chance(l.loss_rate()) {
            l.stats.drops_loss += 1;
            return;
        }
        let to = l.to;
        // Marks are counted in `Link::offer`; the before/after delta tells
        // the trace how many CE marks this admission applied without adding
        // any state to the link hot path.
        let marks_before = l.stats.ecn_marks;
        let _ = l.offer(now, pkt, &mut arrivals(q, to, link));
        if self.trace.is_enabled() {
            let delta = l.stats.ecn_marks - marks_before;
            if delta > 0 {
                self.trace.ecn_mark(now.0, link.0, delta);
            }
        }
    }

    /// Bring one link's transmitter up to date with the clock, scheduling an
    /// `Arrive` for every queued packet whose serialization has started by
    /// `now`. A one-branch no-op when the link is idle or still mid-packet;
    /// called before every read or mutation that depends on transmitter or
    /// DRE state (arrivals on the link, CONGA/HULA metric reads, fault
    /// application, end-of-run stats collection).
    pub fn settle_link(&mut self, now: Time, link: LinkId, q: &mut EventQueue<Event>) {
        let l = &mut self.links[link.0 as usize];
        if !l.needs_settle(now) {
            return;
        }
        let to = l.to;
        l.settle_into(now, &mut arrivals(q, to, link));
    }

    /// Settle every link. Run this at end of run (or before reading
    /// fabric-wide stats) so `LinkStats::tx_packets` / `tx_bytes` and DRE
    /// state reflect everything that happened by `now`.
    pub fn settle_all(&mut self, now: Time, q: &mut EventQueue<Event>) {
        for i in 0..self.links.len() {
            self.settle_link(now, LinkId(i as u32), q);
        }
    }

    /// A packet arrives at a switch: forward it.
    pub fn switch_receive(&mut self, now: Time, sw: SwitchId, via: LinkId, pkt: &mut Packet, q: &mut EventQueue<Event>) {
        if let PacketKind::HulaProbe { tor, util_pm } = pkt.kind {
            if self.scheme == FabricScheme::Hula {
                self.hula_probe(now, sw, via, tor, util_pm, q);
            }
            return;
        }
        // TTL handling: probes expire and elicit a reply identifying this
        // switch and the ingress interface — the Paris-traceroute analogue
        // Clove's path discovery is built on (paper §3.1).
        if pkt.ttl <= 1 {
            if let PacketKind::Probe { probe_id, ttl_sent } = pkt.kind {
                // Injected reply loss: the ICMP time-exceeded never forms
                // (rate-limited ICMP generation is the real-world analogue).
                if self.control.reply_loss > 0.0 && self.rng.chance(self.control.reply_loss) {
                    self.stats.control.replies_dropped += 1;
                    return;
                }
                self.stats.probe_replies += 1;
                let src = pkt.routed_key().src;
                let reply_kind = PacketKind::ProbeReply { probe_id, ttl_sent, switch: sw, ingress: Some(via) };
                let mut reply = Packet::new(
                    self.fresh_uid(),
                    PROBE_REPLY_SIZE,
                    // Replies are routed on their own (switch→prober) key.
                    FlowKey::tcp(HostId(u32::MAX - sw.0), src, 0, 0),
                    reply_kind,
                );
                self.forward_from_switch(now, sw, &mut reply, q);
            }
            // Expired packets (probe or not) are dropped.
            return;
        }
        pkt.ttl -= 1;

        // CONGA dest-leaf processing happens when the packet is about to
        // exit toward a local host.
        self.forward_from_switch(now, sw, pkt, q);
    }

    /// The egress link behind member `i` of switch `swi`'s ECMP group toward
    /// host index `dst`.
    fn group_link(&self, swi: usize, dst: usize, i: usize) -> LinkId {
        let sw = &self.switches[swi];
        sw.ports[sw.routes[dst][i]]
    }

    /// Core egress selection + enqueue at a switch. The ECMP group is read
    /// in place from the route table (never copied), so a group may have any
    /// number of members.
    fn forward_from_switch(&mut self, now: Time, sw: SwitchId, pkt: &mut Packet, q: &mut EventQueue<Event>) {
        let dst_host = pkt.routed_dst();
        let dst = dst_host.0 as usize;
        let swi = sw.0 as usize;
        let n = self.switches[swi].routes.get(dst).map_or(0, Vec::len);
        if n == 0 {
            self.stats.no_route_drops += 1;
            return;
        }

        // CONGA reads every member's DRE at choice time (and folds the
        // chosen egress DRE into the tag): bring those transmitters up to
        // date first so the estimates include all traffic up to `now`.
        if self.scheme == FabricScheme::Conga {
            for i in 0..n {
                let member = self.group_link(swi, dst, i);
                self.settle_link(now, member, q);
            }
        }

        // Is the next hop the destination host itself? (last-hop delivery)
        let first_link = self.group_link(swi, dst, 0);
        let last_hop = matches!(self.links[first_link.0 as usize].to, NodeId::Host(h) if h == dst_host);

        let choice = if last_hop {
            // Access links never ECMP (single downlink per host).
            0
        } else {
            match self.scheme {
                FabricScheme::Ecmp => ecmp_select(&pkt.routed_key(), self.switches[swi].seed, n),
                FabricScheme::Conga => self.conga_choice(now, swi, dst, pkt),
                FabricScheme::Hula => self.hula_choice(now, swi, dst, pkt),
            }
        };

        // CONGA: processing at the destination leaf (packet exits fabric).
        if last_hop {
            if let (FabricScheme::Conga, Some(tag)) = (self.scheme, pkt.conga) {
                self.conga_dest_leaf(now, swi, pkt, tag);
            }
        }

        let egress = self.group_link(swi, dst, choice % n);
        // CONGA: every hop folds its chosen egress DRE into the metric.
        if let (FabricScheme::Conga, Some(tag)) = (self.scheme, pkt.conga.as_mut()) {
            let qz = self.links[egress.0 as usize].dre.quantized(now, CONGA_QUANT_BITS);
            tag.ce = tag.ce.max(qz);
        }
        self.enqueue_on(now, egress, pkt, q);
    }

    /// CONGA source-leaf / spine egress choice among the group toward host
    /// index `dst`.
    fn conga_choice(&mut self, now: Time, swi: usize, dst: usize, pkt: &mut Packet) -> usize {
        let n = self.switches[swi].routes[dst].len();
        let is_leaf = self.switches[swi].is_leaf;
        if !is_leaf || pkt.conga.is_some() {
            // Spine (or transit leaf): local decision among parallel trunk
            // members — least-loaded by local DRE, but pinned per flowlet
            // so parallel cables don't reorder a flowlet's packets.
            let key = pkt.routed_key();
            let choice = match pinned_choice(&self.switches[swi].hop_flowlets, &key, now, CONGA_FLOWLET_GAP) {
                Some(pinned) => pinned % n,
                None => self.least_loaded_member(now, swi, dst),
            };
            pin(&mut self.switches[swi].hop_flowlets, key, choice, now);
            return choice;
        }
        // Source leaf: flowlet table + congestion-to-leaf table.
        let dst_leaf = self.leaf_of(pkt.routed_dst()).0;
        let key = pkt.routed_key();
        let choice = match pinned_choice(&self.switches[swi].conga.flowlets, &key, now, CONGA_FLOWLET_GAP) {
            Some(pinned) => pinned,
            None => self.conga_best_uplink(now, swi, dst, dst_leaf),
        };
        pin(&mut self.switches[swi].conga.flowlets, key, choice, now);
        // Stamp the forward tag; attach pending feedback for the reverse
        // direction (dest leaf of *this* packet = the leaf we owe metrics).
        let fb = Self::conga_take_feedback(&mut self.switches[swi], dst_leaf);
        pkt.conga = Some(CongaTag { lbtag: choice as u8, ce: 0, fb });
        choice
    }

    /// Least-loaded member with *random* tie-breaking — CONGA picks
    /// uniformly among minima; a deterministic tie-break would herd every
    /// flowlet in a DRE period onto one member and oscillate.
    fn least_loaded_member(&mut self, now: Time, swi: usize, dst: usize) -> usize {
        let sw = &self.switches[swi];
        let group = &sw.routes[dst];
        let links = &mut self.links;
        random_argmin(&mut self.rng, group.len(), |i| links[sw.ports[group[i]].0 as usize].dre.quantized(now, CONGA_QUANT_BITS) as u16)
    }

    /// CONGA's argmin over uplinks of max(local DRE, remote metric), with
    /// random tie-breaking among minima (as in the CONGA paper).
    fn conga_best_uplink(&mut self, now: Time, swi: usize, dst: usize, dst_leaf: u32) -> usize {
        let sw = &self.switches[swi];
        let group = &sw.routes[dst];
        let remote = sw.conga.to_leaf.get(&dst_leaf);
        let links = &mut self.links;
        random_argmin(&mut self.rng, group.len(), |i| {
            let local = links[sw.ports[group[i]].0 as usize].dre.quantized(now, CONGA_QUANT_BITS);
            let remote = remote.and_then(|v| v.get(i)).filter(|(_, t)| now.saturating_since(*t) < CONGA_METRIC_AGE).map_or(0, |&(m, _)| m);
            local.max(remote) as u16
        })
    }

    /// Pop one (lbtag, metric) pair owed to `dst_leaf`, round-robin.
    fn conga_take_feedback(sw: &mut Switch, dst_leaf: u32) -> Option<(u8, u8)> {
        let metrics = sw.conga.from_leaf.get(&dst_leaf)?;
        if metrics.is_empty() {
            return None;
        }
        let cursor = sw.conga.fb_cursor.entry(dst_leaf).or_insert(0);
        let idx = *cursor % metrics.len();
        *cursor = (*cursor + 1) % metrics.len();
        let (m, _) = metrics[idx];
        Some((idx as u8, m))
    }

    /// Destination-leaf CONGA processing: record the arriving metric and
    /// absorb any piggybacked feedback.
    fn conga_dest_leaf(&mut self, now: Time, swi: usize, pkt: &Packet, tag: CongaTag) {
        let src_leaf = self.leaf_of(pkt.routed_key().src).0;
        let sw = &mut self.switches[swi];
        // from_leaf[src_leaf][lbtag] = ce — metrics we owe back to src_leaf.
        let v = sw.conga.from_leaf.entry(src_leaf).or_default();
        let need = tag.lbtag as usize + 1;
        if v.len() < need {
            v.resize(need, (0, Time::ZERO));
        }
        v[tag.lbtag as usize] = (tag.ce, now);
        // fb describes *our* uplink paths toward src_leaf.
        if let Some((fb_tag, fb_metric)) = tag.fb {
            let t = sw.conga.to_leaf.entry(src_leaf).or_default();
            let need = fb_tag as usize + 1;
            if t.len() < need {
                t.resize(need, (0, Time::ZERO));
            }
            t[fb_tag as usize] = (fb_metric, now);
        }
    }

    /// HULA data plane: route the flowlet on the best next hop toward the
    /// destination's ToR; fall back to ECMP when no fresh entry exists.
    fn hula_choice(&mut self, now: Time, swi: usize, dst: usize, pkt: &Packet) -> usize {
        let key = pkt.routed_key();
        let sw = &self.switches[swi];
        let group = &sw.routes[dst];
        let choice = match pinned_choice(&sw.hop_flowlets, &key, now, HULA_FLOWLET_GAP) {
            Some(pinned) => pinned % group.len(),
            None => {
                let tor = self.leaf_of(pkt.routed_dst()).0;
                // The best hop is a port index; map into the ECMP group if
                // it is fresh and present there, else fall back.
                let best = match sw.hula_best.get(&tor) {
                    Some(&(port, _, at)) if now.saturating_since(at) <= HULA_ENTRY_AGE => group.iter().position(|&g| g == port),
                    _ => None,
                };
                best.unwrap_or_else(|| ecmp_select(&key, sw.seed, group.len()))
            }
        };
        pin(&mut self.switches[swi].hop_flowlets, key, choice, now);
        choice
    }

    /// HULA control plane: absorb a probe and re-flood it with the updated
    /// max-utilization if it improved our best entry (split-horizon: never
    /// back out the ingress port).
    fn hula_probe(&mut self, now: Time, sw: SwitchId, via: LinkId, tor: u32, util_pm: u16, q: &mut EventQueue<Event>) {
        let swi = sw.0 as usize;
        // A ToR's own advertisement coming back is a routing loop: drop.
        if self.switches[swi].is_leaf && self.switches[swi].id.0 == tor {
            return;
        }
        // Utilization in the *data* direction (reverse of the probe); the
        // DRE only counts settled transmissions, so settle first.
        let data_link = self.links[via.0 as usize].reverse.unwrap_or(via);
        self.settle_link(now, data_link, q);
        let link_util = self.links[data_link.0 as usize].dre.utilization_pm(now);
        let path_util = util_pm.max(link_util);
        // Which local port leads back toward the ToR? The reverse link.
        let Some(port) = self.switches[swi].ports.iter().position(|&l| l == data_link) else {
            return;
        };
        let best = self.switches[swi].hula_best.get(&tor).copied();
        let improved = match best {
            Some((bport, butil, at)) => bport == port || path_util < butil || now.saturating_since(at) > HULA_ENTRY_AGE,
            None => true,
        };
        if !improved {
            return;
        }
        self.switches[swi].hula_best.insert(tor, (port, path_util, now));
        // Re-flood to all other switch neighbours.
        let ports: Vec<LinkId> = self.switches[swi].ports.clone();
        for l in ports {
            if l == data_link {
                continue; // split horizon
            }
            let link = &self.links[l.0 as usize];
            if !link.up || !matches!(link.to, NodeId::Switch(_)) {
                continue;
            }
            let mut probe = Packet::new(
                self.fresh_uid(),
                PROBE_SIZE,
                FlowKey::tcp(HostId(u32::MAX - 1), HostId(u32::MAX - 1), 0, 0),
                PacketKind::HulaProbe { tor, util_pm: path_util },
            );
            self.enqueue_on(now, l, &mut probe, q);
        }
    }

    /// Start a HULA probe round: every leaf advertises itself on all its
    /// fabric uplinks with utilization 0 (refined hop by hop).
    pub fn hula_tick(&mut self, now: Time, q: &mut EventQueue<Event>) {
        if self.scheme != FabricScheme::Hula {
            return;
        }
        for swi in 0..self.switches.len() {
            if !self.switches[swi].is_leaf {
                continue;
            }
            let tor = self.switches[swi].id.0;
            let ports: Vec<LinkId> = self.switches[swi].ports.clone();
            for l in ports {
                let link = &self.links[l.0 as usize];
                if !link.up || !matches!(link.to, NodeId::Switch(_)) {
                    continue;
                }
                let mut probe = Packet::new(
                    self.fresh_uid(),
                    PROBE_SIZE,
                    FlowKey::tcp(HostId(u32::MAX - 1), HostId(u32::MAX - 1), 0, 0),
                    PacketKind::HulaProbe { tor, util_pm: 0 },
                );
                self.enqueue_on(now, l, &mut probe, q);
            }
        }
        q.push(now + HULA_PROBE_INTERVAL, Event::HulaTick);
    }

    /// Apply one expanded fault action (see [`crate::fault`]). Routes are
    /// recomputed only for `announced` up/down faults; rate and loss
    /// changes never alter routing (the link is still nominally up).
    ///
    /// The link settles first, so every packet whose serialization started
    /// before the fault is committed under the pre-fault link state and a
    /// `Down` flushes exactly the packets that had not started by `now`.
    pub fn apply_fault(&mut self, now: Time, link: LinkId, action: LinkAction, announced: bool, q: &mut EventQueue<Event>) {
        self.settle_link(now, link, q);
        let l = &mut self.links[link.0 as usize];
        let routes_change = match action {
            LinkAction::Down => {
                l.set_up_at(now, false);
                announced
            }
            LinkAction::Up => {
                l.set_up_at(now, true);
                announced
            }
            LinkAction::SetRate(fraction) => {
                l.set_rate_fraction(now, fraction);
                false
            }
            LinkAction::SetLoss(rate) => {
                l.set_loss_rate(now, rate);
                false
            }
        };
        self.stats.faults_applied += 1;
        self.trace.fault_activation(now.0, link.0, action.name(), announced);
        if routes_change {
            crate::topology::recompute_routes(self);
        }
    }

    /// Cold-restart semantics for a switch: every soft forwarding table the
    /// reboot would lose — the per-hop flowlet table, all four CONGA
    /// maps, and the HULA best-hop table — is flushed. Routes themselves
    /// are rebuilt by the announced incident-cable `Up`s; warm restarts
    /// skip this entirely (state survives in the model, as it would in a
    /// supervisor fast-restart).
    pub fn switch_cold_restart(&mut self, now: Time, sw: SwitchId, node: NodeSelector) {
        let s = &mut self.switches[sw.0 as usize];
        s.cold_clear();
        self.trace.state_flush(now.0, node.tier(), node.index(), "fabric_lb");
    }

    /// Aggregate fault damage across all links as of `now` (open down /
    /// degraded intervals are included).
    pub fn fault_stats(&self, now: Time) -> FaultStats {
        let mut out = FaultStats { faults_applied: self.stats.faults_applied, ..FaultStats::default() };
        out.drops_no_route = self.stats.no_route_drops;
        for l in &self.links {
            out.drops_down += l.stats.drops_down;
            out.drops_loss += l.stats.drops_loss;
            out.drops_overflow += l.stats.drops_overflow;
            out.down_time += l.down_time_as_of(now);
            out.degraded_time += l.degraded_time_as_of(now);
        }
        out
    }
}

/// The commit sink the fabric hands a link: each committed packet is cloned
/// — the one clone of its hop — into the `Arrive` event for the link's far
/// end.
fn arrivals(q: &mut EventQueue<Event>, node: NodeId, via: LinkId) -> impl FnMut(Time, &Packet) + '_ {
    move |at, pkt| q.push(at, Event::Arrive { node, via, pkt: pkt.clone() })
}

/// The switch-flowlet rule CONGA and HULA share: a flow whose table
/// entry has been idle for at most `gap` stays on the egress it is pinned
/// to; with no entry, or once a new flowlet starts, the caller picks afresh.
fn pinned_choice(table: &FlowletTable, key: &FlowKey, now: Time, gap: Duration) -> Option<usize> {
    table.get(key).filter(|e| now.saturating_since(e.last_seen) <= gap).map(|e| e.port_choice)
}

/// Record the packet just forwarded: the flow is pinned to `choice` and was
/// last seen `now`.
fn pin(table: &mut FlowletTable, key: FlowKey, choice: usize, now: Time) {
    table.insert(key, FlowletEntry { port_choice: choice, last_seen: now });
}

/// Index of one of the minima of `metric` over `0..n`, picked uniformly with
/// a single draw. Two passes instead of a list of minima, so `n` is
/// unbounded; `metric` must return the same value both times.
fn random_argmin(rng: &mut SimRng, n: usize, mut metric: impl FnMut(usize) -> u16) -> usize {
    let mut best = u16::MAX;
    let mut n_min = 0u64;
    for i in 0..n {
        let m = metric(i);
        if m < best {
            best = m;
            n_min = 1;
        } else if m == best {
            n_min += 1;
        }
    }
    let pick = rng.below(n_min) as usize;
    (0..n).filter(|&i| metric(i) == best).nth(pick).expect("one of the counted minima")
}

/// The host-side of the simulation: hypervisor vswitch, transports, apps.
///
/// Implemented by `clove-harness`'s `HostStack`; kept abstract here so the
/// fabric layer has no upward dependencies.
pub trait HostLogic {
    /// A packet was delivered to `host`'s NIC.
    fn on_packet(&mut self, host: HostId, pkt: Packet, ctx: &mut HostCtx<'_>);
    /// A timer set through [`HostCtx::timer_in`] fired.
    fn on_timer(&mut self, host: HostId, token: u64, ctx: &mut HostCtx<'_>);
    /// The hypervisor under `host` restarted after a crash ([`Event::NodeFault`]
    /// restart phase). `cold` means the vswitch's soft state (flowlet
    /// table, WRR weights, ECN/INT feedback, discovery selections) was
    /// lost and must be flushed; warm restarts keep it. Default: no-op
    /// (hostless harnesses and sinks don't model hypervisor state).
    fn on_restart(&mut self, _host: HostId, _cold: bool, _ctx: &mut HostCtx<'_>) {}
}

/// Capabilities handed to host logic while it runs.
pub struct HostCtx<'a> {
    /// Current simulated time.
    pub now: Time,
    /// The host being driven.
    pub host: HostId,
    fabric: &'a mut Fabric,
    queue: &'a mut EventQueue<Event>,
}

impl HostCtx<'_> {
    /// Transmit a packet onto this host's access uplink.
    pub fn send(&mut self, pkt: Packet) {
        self.fabric.host_transmit(self.now, self.host, pkt, self.queue);
    }

    /// Arrange for [`HostLogic::on_timer`] with `token` after `delay`.
    pub fn timer_in(&mut self, delay: Duration, token: u64) {
        self.queue.push(self.now + delay, Event::HostTimer { host: self.host, token });
    }

    /// Arrange a timer for a *different* host (application-level control
    /// messages modeled as a delay, e.g. incast request fan-out).
    pub fn timer_for(&mut self, host: HostId, delay: Duration, token: u64) {
        self.queue.push(self.now + delay, Event::HostTimer { host, token });
    }

    /// Read-only fabric access (tests, instrumentation).
    pub fn fabric(&self) -> &Fabric {
        self.fabric
    }
}

/// A fabric plus host logic: the complete simulated world.
pub struct Network<H: HostLogic> {
    /// The physical network.
    pub fabric: Fabric,
    /// All host-side state.
    pub hosts: H,
}

impl<H: HostLogic> Network<H> {
    /// Pair a fabric with host logic.
    pub fn new(fabric: Fabric, hosts: H) -> Network<H> {
        Network { fabric, hosts }
    }
}

impl<H: HostLogic> World for Network<H> {
    type Event = Event;

    fn handle_mut(&mut self, now: Time, event: &mut Event, queue: &mut EventQueue<Event>) {
        match *event {
            Event::Arrive { node, via, ref mut pkt } => {
                // A delivery on `via` means its transmitter finished one
                // propagation delay ago: settle it, which also commits the
                // next queued packet(s) and schedules their arrivals —
                // this chain is what replaces per-packet TxDone events.
                self.fabric.settle_link(now, via, queue);
                match node {
                    NodeId::Switch(sw) => self.fabric.switch_receive(now, sw, via, pkt, queue),
                    NodeId::Host(h) => {
                        let mut ctx = HostCtx { now, host: h, fabric: &mut self.fabric, queue };
                        // The one clone of host delivery: host logic owns
                        // what it receives (it may hold or re-send it).
                        self.hosts.on_packet(h, pkt.clone(), &mut ctx);
                    }
                }
            }
            Event::HostTimer { host, token } => {
                let mut ctx = HostCtx { now, host, fabric: &mut self.fabric, queue };
                self.hosts.on_timer(host, token, &mut ctx);
            }
            Event::HulaTick => self.fabric.hula_tick(now, queue),
            Event::Fault { link, action, announced } => self.fabric.apply_fault(now, link, action, announced, queue),
            Event::ControlFault { action } => {
                self.fabric.trace.control_fault(now.0, action.name());
                self.fabric.apply_control_fault(action);
            }
            Event::NodeFault { node, switch, up, cold } => {
                self.fabric.trace.node_fault_activation(now.0, node.tier(), node.index(), if up { "up" } else { "down" }, cold);
                if up {
                    match switch {
                        Some(sw) if cold => self.fabric.switch_cold_restart(now, sw, node),
                        Some(_) => {}
                        None => {
                            let host = HostId(node.index());
                            let mut ctx = HostCtx { now, host, fabric: &mut self.fabric, queue };
                            self.hosts.on_restart(host, cold, &mut ctx);
                        }
                    }
                }
            }
        }
    }
}
