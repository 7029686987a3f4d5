//! The per-hypervisor virtual switch.
//!
//! [`VSwitch`] sits between the guest transport endpoints and the NIC:
//!
//! * outbound guest segments pass through [`VSwitch::encap`], which asks
//!   the configured [`EdgePolicy`] for an outer source port, wraps the
//!   packet in the STT-like encapsulation, sets ECT, stamps the send time,
//!   and piggybacks any feedback owed to the destination hypervisor;
//! * inbound packets pass through [`VSwitch::decap_into`], which strips the
//!   encapsulation, hands relayed feedback to the policy, records this
//!   packet's own observations for the reverse relay, and (for Presto)
//!   runs flowcell reassembly before delivering to the guest.
//!
//! The vswitch is the deployment seam the paper argues for: everything
//! here runs in the hypervisor, with unmodified guests and fabric.

use crate::feedback::{FeedbackCollector, FeedbackMode};
use crate::presto_rx::{PrestoReassembly, ReassemblyConfig};
use clove_net::packet::{Encap, Feedback, Packet};
use clove_net::types::HostId;
use clove_sim::{Duration, Time};
use clove_telemetry::Trace;
use rustc_hash::FxHashMap;

/// The pluggable path-selection policy: where ECMP, Presto, Edge-Flowlet,
/// Clove-ECN, Clove-INT and Clove-Latency differ.
///
/// Implementations live in `clove-core` (the paper's contribution) and
/// `clove-baselines`.
pub trait EdgePolicy {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Choose the outer transport source port for this outbound packet.
    /// May annotate the packet (e.g. Presto sets `flowcell`).
    fn select_port(&mut self, now: Time, dst_hv: HostId, pkt: &mut Packet) -> u16;

    /// Feedback relayed back from `dst_hv` about one of our forward paths.
    fn on_feedback(&mut self, _now: Time, _dst_hv: HostId, _fb: &Feedback) {}

    /// The discovery daemon refreshed the usable ports toward `dst_hv`.
    fn on_paths_updated(&mut self, _now: Time, _dst_hv: HostId, _ports: &[u16]) {}

    /// The discovery daemon declared `port` toward `dst_hv` black-holed:
    /// stop scheduling onto it immediately (don't wait for the next full
    /// path refresh). Weight-based policies redistribute its share across
    /// the surviving paths without resetting their learned state.
    fn on_path_dead(&mut self, _now: Time, _dst_hv: HostId, _port: u16) {}

    /// True when every known path toward `dst_hv` is congested — the one
    /// case where Clove stops masking ECN from the guest (paper §3.2).
    fn all_paths_congested(&self, _now: Time, _dst_hv: HostId) -> bool {
        false
    }

    /// Introspection: the current per-port weights toward `dst_hv`, when
    /// the policy is weight-based (Clove-ECN). Used by the stability
    /// analysis (paper §7) and tests; `None` for weightless policies.
    fn debug_weights(&self, _dst_hv: HostId) -> Option<Vec<(u16, f64)>> {
        None
    }

    /// Introspection: live flowlet-table entry count, for policies that
    /// keep one. The invariant monitor asserts it stays bounded (no state
    /// leak); `None` for policies without flowlet state.
    fn flowlet_len(&self) -> Option<usize> {
        None
    }

    /// Install a decision-trace handle, pre-bound to this policy's host.
    /// Default is a no-op for policies with nothing to trace. Recording an
    /// event must never change a scheduling outcome: a traced run has to
    /// stay byte-identical to an untraced one.
    fn set_trace(&mut self, _trace: Trace) {}

    /// The hypervisor cold-restarted: drop every piece of learned soft
    /// state (flowlet table, WRR weights, feedback estimates, per-dst
    /// path sets) as a crash would, keeping only construction-time config.
    /// Paths are re-learned from scratch via `on_paths_updated` when the
    /// probe daemon's cold re-discovery completes. Default: no-op, correct
    /// for stateless policies (ECMP hashing, Presto's static round-robin).
    fn on_cold_restart(&mut self, _now: Time) {}
}

/// Deployment-wide vswitch configuration (identical on every hypervisor).
#[derive(Debug, Clone, Copy)]
pub struct VSwitchConfig {
    /// Set ECT on outer headers so switches can CE-mark (Clove-ECN).
    pub set_ect: bool,
    /// What the receive side measures and relays.
    pub feedback_mode: FeedbackMode,
    /// Minimum spacing between relays for one path (≈ RTT/2 per paper).
    pub relay_interval: Duration,
    /// Enable Presto receive-side flowcell reassembly.
    pub presto_reassembly: Option<ReassemblyConfig>,
    /// Non-overlay mode: rewrite the inner five-tuple instead of
    /// encapsulating (paper §7).
    pub non_overlay: bool,
}

impl VSwitchConfig {
    /// Plain ECMP deployment: no feedback, no ECT.
    pub fn plain() -> VSwitchConfig {
        VSwitchConfig {
            set_ect: false,
            feedback_mode: FeedbackMode::None,
            relay_interval: Duration::from_micros(50),
            presto_reassembly: None,
            non_overlay: false,
        }
    }

    /// Clove-ECN deployment.
    pub fn clove_ecn(relay_interval: Duration) -> VSwitchConfig {
        VSwitchConfig { set_ect: true, feedback_mode: FeedbackMode::Ecn, relay_interval, presto_reassembly: None, non_overlay: false }
    }

    /// Clove-INT deployment.
    pub fn clove_int(relay_interval: Duration) -> VSwitchConfig {
        VSwitchConfig { set_ect: false, feedback_mode: FeedbackMode::Util, relay_interval, presto_reassembly: None, non_overlay: false }
    }

    /// Clove-Latency deployment (paper §7 extension).
    pub fn clove_latency(relay_interval: Duration) -> VSwitchConfig {
        VSwitchConfig { set_ect: false, feedback_mode: FeedbackMode::Latency, relay_interval, presto_reassembly: None, non_overlay: false }
    }

    /// Presto deployment: reassembly on, no feedback.
    pub fn presto() -> VSwitchConfig {
        VSwitchConfig {
            set_ect: false,
            feedback_mode: FeedbackMode::None,
            relay_interval: Duration::from_micros(50),
            presto_reassembly: Some(ReassemblyConfig::default()),
            non_overlay: false,
        }
    }
}

/// vswitch counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct VSwitchStats {
    /// Packets encapsulated.
    pub encapped: u64,
    /// Packets decapsulated.
    pub decapped: u64,
    /// Feedback entries piggybacked outbound.
    pub feedback_sent: u64,
    /// Feedback entries received and handed to the policy.
    pub feedback_received: u64,
    /// Outer CE marks intercepted at the receive side.
    pub ce_intercepted: u64,
}

/// One hypervisor's virtual switch. See module docs.
pub struct VSwitch {
    /// The hypervisor this vswitch runs on.
    pub host: HostId,
    /// Deployment configuration.
    pub cfg: VSwitchConfig,
    policy: Box<dyn EdgePolicy>,
    /// Receive-side feedback state per source hypervisor.
    collectors: FxHashMap<HostId, FeedbackCollector>,
    presto: Option<PrestoReassembly>,
    /// Non-overlay restoration map is implicit (the original port rides in
    /// a TCP option, `Packet::orig_sport`).
    /// Counters.
    pub stats: VSwitchStats,
    /// Decision-trace handle (disabled by default); records INT readings
    /// observed at decap and is shared with the policy.
    trace: Trace,
}

impl VSwitch {
    /// Build a vswitch with the given policy.
    pub fn new(host: HostId, cfg: VSwitchConfig, policy: Box<dyn EdgePolicy>) -> VSwitch {
        VSwitch {
            host,
            cfg,
            policy,
            collectors: FxHashMap::default(),
            presto: cfg.presto_reassembly.map(PrestoReassembly::new),
            stats: VSwitchStats::default(),
            trace: Trace::disabled(),
        }
    }

    /// Install a decision-trace handle; the same handle is shared with the
    /// policy so its flowlet/weight/ladder decisions land in one buffer.
    pub fn set_trace(&mut self, trace: Trace) {
        self.policy.set_trace(trace.clone());
        self.trace = trace;
    }

    /// The policy, for discovery-daemon updates and inspection.
    pub fn policy_mut(&mut self) -> &mut dyn EdgePolicy {
        self.policy.as_mut()
    }

    /// Borrow the policy.
    pub fn policy(&self) -> &dyn EdgePolicy {
        self.policy.as_ref()
    }

    /// Encapsulate an outbound guest packet toward hypervisor `dst_hv`.
    pub fn encap(&mut self, now: Time, dst_hv: HostId, mut pkt: Packet) -> Packet {
        self.stats.encapped += 1;
        let sport = self.policy.select_port(now, dst_hv, &mut pkt);
        if self.cfg.non_overlay {
            // Five-tuple swap: keep the packet native, hide the original
            // source port in a TCP option (paper §7).
            pkt.orig_sport = Some(pkt.flow.sport);
            pkt.flow.sport = sport;
        } else {
            pkt.outer = Some(Encap { src: self.host, dst: dst_hv, sport });
        }
        pkt.ect = self.cfg.set_ect;
        pkt.ce = false;
        pkt.sent_at = now;
        // Piggyback one due feedback entry for this destination.
        if let Some(collector) = self.collectors.get_mut(&dst_hv) {
            if let Some(fb) = collector.take_due(now) {
                pkt.feedback = Some(fb);
                self.stats.feedback_sent += 1;
            }
        }
        pkt
    }

    /// Decapsulate an inbound packet from the fabric, appending any
    /// guest-deliverable inner packets to `out` in order (none while Presto
    /// holds segments, more than one when a hole just filled). Returns
    /// whether the guest should see a CE mark on this delivery (Clove masks
    /// outer CE unless all paths are congested).
    ///
    /// `out` is a caller-owned scratch buffer: it is *not* cleared here, so
    /// the caller controls reuse and the common one-packet delivery costs no
    /// allocation once the buffer has warmed up.
    pub fn decap_into(&mut self, now: Time, mut pkt: Packet, out: &mut Vec<Packet>) -> bool {
        self.stats.decapped += 1;
        // 1. Absorb piggybacked feedback about *our* forward paths.
        if let Some(fb) = pkt.feedback.take() {
            self.stats.feedback_received += 1;
            let peer = Self::peer_of(&pkt);
            self.policy.on_feedback(now, peer, &fb);
        }
        // 2. Record this packet's own path observations for the reverse
        //    relay (only data-bearing traffic measures the forward path —
        //    relaying observations about pure ACKs is disabled to mirror
        //    the paper's data-path focus; ACKs still *carry* feedback).
        let src_hv = Self::peer_of(&pkt);
        let sport = pkt.outer.map(|e| e.sport).unwrap_or(pkt.flow.sport);
        if pkt.ce {
            self.stats.ce_intercepted += 1;
        }
        if pkt.is_data() && self.cfg.feedback_mode != FeedbackMode::None {
            let one_way = now.saturating_since(pkt.sent_at);
            self.collectors.entry(src_hv).or_insert_with(|| FeedbackCollector::new(self.cfg.feedback_mode, self.cfg.relay_interval)).observe(
                now,
                sport,
                pkt.ce,
                pkt.int_util_pm,
                one_way,
            );
            if let Some(util) = pkt.int_util_pm {
                self.trace.int_reading(now.0, sport, util as u64);
            }
        }
        // 3. Strip the encapsulation / restore the five-tuple.
        let ce_on_wire = pkt.ce;
        pkt.ce = false;
        pkt.int_util_pm = None;
        pkt.outer = None;
        if let Some(orig) = pkt.orig_sport.take() {
            pkt.flow.sport = orig;
        }
        // 4. ECN masking: the guest sees CE only when the source reports
        //    all paths congested. In overlay mode the *sender's* vswitch
        //    makes that call; the receiver masks unconditionally and the
        //    sender re-injects congestion via ACK `ece` when needed (the
        //    harness consults `all_paths_congested` on the ACK path).
        let ce_visible = ce_on_wire && self.cfg.feedback_mode == FeedbackMode::None && self.cfg.set_ect;
        // 5. Presto reassembly.
        match (&mut self.presto, pkt.is_data()) {
            (Some(engine), true) => out.extend(engine.on_data(now, pkt)),
            _ => out.push(pkt),
        }
        ce_visible
    }

    /// Hypervisor cold-restart: flush everything a crash would lose — the
    /// policy's learned state, the receive-side feedback collectors, and
    /// any in-flight Presto reassembly buffers (rebuilt empty from config).
    /// Cumulative counters survive: they model the experiment's ledger,
    /// not hypervisor RAM.
    pub fn cold_restart(&mut self, now: Time) {
        self.policy.on_cold_restart(now);
        self.collectors.clear();
        self.presto = self.cfg.presto_reassembly.map(PrestoReassembly::new);
    }

    /// Presto: flush reassembly buffers whose timeout expired (driven by a
    /// periodic host timer).
    pub fn presto_poll(&mut self, now: Time) -> Vec<Packet> {
        self.presto.as_mut().map(|p| p.poll(now)).unwrap_or_default()
    }

    /// True when the policy reports every path to `dst_hv` congested — the
    /// harness uses this to stop masking ECN toward the guest (DCTCP VMs).
    pub fn should_relay_ecn_to_guest(&self, now: Time, dst_hv: HostId) -> bool {
        self.policy.all_paths_congested(now, dst_hv)
    }

    /// The remote hypervisor a fabric packet came from / goes to.
    fn peer_of(pkt: &Packet) -> HostId {
        match pkt.outer {
            Some(e) => e.src,
            None => pkt.flow.src,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_net::packet::PacketKind;
    use clove_net::types::{FlowKey, STT_PORT};

    /// A fixed-port test policy recording the feedback it was handed.
    struct FixedPolicy {
        port: u16,
        feedback: Vec<(HostId, Feedback)>,
    }

    impl EdgePolicy for FixedPolicy {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn select_port(&mut self, _now: Time, _dst: HostId, _pkt: &mut Packet) -> u16 {
            self.port
        }
        fn on_feedback(&mut self, _now: Time, dst: HostId, fb: &Feedback) {
            self.feedback.push((dst, *fb));
        }
    }

    fn data_pkt(src: HostId, dst: HostId, seq: u64) -> Packet {
        Packet::new(seq, 1500, FlowKey::tcp(src, dst, 1000, 80), PacketKind::Data { seq, len: 1400, dsn: seq })
    }

    /// `decap_into` a fresh buffer: `(guest deliveries, CE visible to the guest)`.
    fn decap(vs: &mut VSwitch, now: Time, pkt: Packet) -> (Vec<Packet>, bool) {
        let mut deliver = Vec::new();
        let ce_visible = vs.decap_into(now, pkt, &mut deliver);
        (deliver, ce_visible)
    }

    fn vswitch(host: HostId, cfg: VSwitchConfig) -> VSwitch {
        VSwitch::new(host, cfg, Box::new(FixedPolicy { port: 5555, feedback: vec![] }))
    }

    #[test]
    fn encap_sets_outer_and_ect() {
        let mut vs = vswitch(HostId(0), VSwitchConfig::clove_ecn(Duration::from_micros(50)));
        let p = vs.encap(Time::from_micros(9), HostId(1), data_pkt(HostId(0), HostId(1), 0));
        let e = p.outer.expect("encapsulated");
        assert_eq!(e.src, HostId(0));
        assert_eq!(e.dst, HostId(1));
        assert_eq!(e.sport, 5555);
        assert_eq!(p.routed_key().dport, STT_PORT);
        assert!(p.ect);
        assert_eq!(p.sent_at, Time::from_micros(9));
    }

    #[test]
    fn decap_strips_and_masks_ce() {
        let mut sender = vswitch(HostId(0), VSwitchConfig::clove_ecn(Duration::from_micros(50)));
        let mut receiver = vswitch(HostId(1), VSwitchConfig::clove_ecn(Duration::from_micros(50)));
        let mut p = sender.encap(Time::ZERO, HostId(1), data_pkt(HostId(0), HostId(1), 0));
        p.ce = true; // marked in the fabric
        let (deliver, ce_visible) = decap(&mut receiver, Time::from_micros(40), p);
        assert_eq!(deliver.len(), 1);
        let inner = &deliver[0];
        assert!(inner.outer.is_none());
        assert!(!inner.ce);
        // Clove masks CE from the guest.
        assert!(!ce_visible);
        assert_eq!(receiver.stats.ce_intercepted, 1);
    }

    #[test]
    fn ce_relayed_back_via_reverse_traffic() {
        let relay = Duration::from_micros(50);
        let mut a = vswitch(HostId(0), VSwitchConfig::clove_ecn(relay));
        let mut b = vswitch(HostId(1), VSwitchConfig::clove_ecn(relay));
        // A → B data gets CE-marked.
        let mut p = a.encap(Time::ZERO, HostId(1), data_pkt(HostId(0), HostId(1), 0));
        p.ce = true;
        decap(&mut b, Time::from_micros(40), p);
        // B → A reverse packet picks up the feedback.
        let rev = b.encap(Time::from_micros(45), HostId(0), data_pkt(HostId(1), HostId(0), 0));
        let fb = rev.feedback.expect("feedback piggybacked");
        assert_eq!(fb, Feedback::Ecn { sport: 5555, congested: true });
        // A's policy hears about it on decap.
        decap(&mut a, Time::from_micros(90), rev);
        assert_eq!(a.stats.feedback_received, 1);
    }

    #[test]
    fn relay_rate_limited() {
        let relay = Duration::from_micros(100);
        let mut a = vswitch(HostId(0), VSwitchConfig::clove_ecn(relay));
        let mut b = vswitch(HostId(1), VSwitchConfig::clove_ecn(relay));
        for i in 0..5 {
            let mut p = a.encap(Time::from_micros(i), HostId(1), data_pkt(HostId(0), HostId(1), i));
            p.ce = true;
            decap(&mut b, Time::from_micros(i + 1), p);
        }
        // Two immediate reverse packets: only the first carries feedback.
        let r1 = b.encap(Time::from_micros(10), HostId(0), data_pkt(HostId(1), HostId(0), 0));
        let r2 = b.encap(Time::from_micros(11), HostId(0), data_pkt(HostId(1), HostId(0), 1));
        assert!(r1.feedback.is_some());
        assert!(r2.feedback.is_none());
        assert_eq!(b.stats.feedback_sent, 1);
    }

    #[test]
    fn int_mode_relays_max_utilization() {
        let relay = Duration::from_micros(50);
        let mut a = vswitch(HostId(0), VSwitchConfig::clove_int(relay));
        let mut b = vswitch(HostId(1), VSwitchConfig::clove_int(relay));
        let mut p = a.encap(Time::ZERO, HostId(1), data_pkt(HostId(0), HostId(1), 0));
        p.int_util_pm = Some(912);
        decap(&mut b, Time::from_micros(40), p);
        let rev = b.encap(Time::from_micros(60), HostId(0), data_pkt(HostId(1), HostId(0), 0));
        assert_eq!(rev.feedback, Some(Feedback::Util { sport: 5555, util_pm: 912 }));
        // INT stamp is stripped before guest delivery.
        let (deliver, _) = decap(&mut b, Time::from_micros(80), a.encap(Time::from_micros(70), HostId(1), data_pkt(HostId(0), HostId(1), 1)));
        assert!(deliver[0].int_util_pm.is_none());
    }

    #[test]
    fn latency_mode_relays_one_way_delay() {
        let relay = Duration::from_micros(50);
        let mut a = vswitch(HostId(0), VSwitchConfig::clove_latency(relay));
        let mut b = vswitch(HostId(1), VSwitchConfig::clove_latency(relay));
        let p = a.encap(Time::from_micros(100), HostId(1), data_pkt(HostId(0), HostId(1), 0));
        decap(&mut b, Time::from_micros(180), p);
        let rev = b.encap(Time::from_micros(200), HostId(0), data_pkt(HostId(1), HostId(0), 0));
        assert_eq!(rev.feedback, Some(Feedback::Latency { sport: 5555, one_way: Duration::from_micros(80) }));
    }

    #[test]
    fn non_overlay_swaps_and_restores_five_tuple() {
        let cfg = VSwitchConfig { non_overlay: true, ..VSwitchConfig::plain() };
        let mut a = vswitch(HostId(0), cfg);
        let mut b = vswitch(HostId(1), cfg);
        let p = a.encap(Time::ZERO, HostId(1), data_pkt(HostId(0), HostId(1), 0));
        assert!(p.outer.is_none());
        assert_eq!(p.flow.sport, 5555, "rewritten for ECMP steering");
        assert_eq!(p.orig_sport, Some(1000));
        let (deliver, _) = decap(&mut b, Time::from_micros(10), p);
        assert_eq!(deliver[0].flow.sport, 1000, "restored for the guest");
        assert_eq!(deliver[0].orig_sport, None);
    }

    #[test]
    fn presto_reassembly_engaged_for_data() {
        let mut b = vswitch(HostId(1), VSwitchConfig::presto());
        let mut a = vswitch(HostId(0), VSwitchConfig::presto());
        let p1 = a.encap(Time::ZERO, HostId(1), data_pkt(HostId(0), HostId(1), 1400));
        let p0 = a.encap(Time::ZERO, HostId(1), data_pkt(HostId(0), HostId(1), 0));
        // Out-of-order arrival: held.
        assert!(decap(&mut b, Time::from_micros(10), p1).0.is_empty());
        // Hole filled: both released in order.
        assert_eq!(decap(&mut b, Time::from_micros(11), p0).0.len(), 2);
    }

    #[test]
    fn plain_mode_shows_ce_to_guest_if_ect() {
        // Without Clove feedback (e.g. a DCTCP-over-ECMP ablation), CE
        // passes through to the guest.
        let cfg = VSwitchConfig { set_ect: true, ..VSwitchConfig::plain() };
        let mut a = vswitch(HostId(0), cfg);
        let mut b = vswitch(HostId(1), cfg);
        let mut p = a.encap(Time::ZERO, HostId(1), data_pkt(HostId(0), HostId(1), 0));
        p.ce = true;
        assert!(decap(&mut b, Time::from_micros(10), p).1);
    }
}
