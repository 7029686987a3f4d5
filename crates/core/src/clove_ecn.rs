//! Clove-ECN: congestion-aware weighted round-robin (paper §3.2).
//!
//! The deployable-today variant. Fabric switches CE-mark the ECT-enabled
//! outer headers above a queue threshold; the destination hypervisor relays
//! (source port, ecnSet) back in STT context bits; this policy reacts:
//!
//! * flowlets are scheduled over the discovered ports by weighted round
//!   robin;
//! * ECN feedback for a port cuts its weight by a configurable proportion
//!   (default ⅓) and spreads the removed weight equally over the paths not
//!   recently congested;
//! * when *every* path is congested, weights stay put and the policy
//!   reports `all_paths_congested` so the vswitch stops masking ECN from
//!   the guest — the one case where the guest should throttle.

use crate::flowlet::{FlowletConfig, FlowletTable};
use crate::paths::{Ladder, PathSet};
use crate::wrr::Wrr;
use clove_net::packet::{Feedback, Packet};
use clove_net::types::{FlowKey, HostId};
use clove_sim::{Duration, Time};
use clove_telemetry::{LadderRung, Trace};
use rustc_hash::FxHashMap;

/// Clove-ECN tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CloveEcnConfig {
    /// Flowlet detection parameters (gap ≈ 1–2 RTT).
    pub flowlet: FlowletConfig,
    /// Weight fraction removed from a congested path per ECN indication
    /// (paper: "e.g., by a third").
    pub weight_cut: f64,
    /// How long a path stays "congested" after an ECN indication, for the
    /// purposes of redistribution and guest-ECN masking.
    pub congested_window: Duration,
    /// Optional slow drift of weights back toward uniform (per feedback
    /// event); 0 disables. Documented implementation choice: without it a
    /// path cut during a transient can only recover when *other* paths get
    /// cut.
    pub recovery_rho: f64,
    /// When the freshest feedback for a destination is older than this,
    /// learned weights are considered stale and start decaying toward
    /// uniform on the data path (degradation ladder, first rung).
    pub stale_horizon: Duration,
    /// When the freshest feedback is older than this, weights are not
    /// trusted at all: new flowlets hash-spread uniformly over the
    /// discovered ports (Edge-Flowlet behaviour, bottom rung).
    pub dead_horizon: Duration,
    /// Decay rate applied while stale (per decay step).
    pub stale_rho: f64,
    /// Minimum spacing between stale-decay steps — the decay is applied
    /// lazily on the data path, so this bounds how fast it can run.
    pub stale_decay_interval: Duration,
}

impl CloveEcnConfig {
    /// Defaults scaled for a base RTT: gap = 1×RTT (the paper's best
    /// testbed setting, Figure 6), window = 2×RTT. Staleness horizons are
    /// generous multiples of RTT: feedback normally arrives every ~RTT, so
    /// 16×RTT of silence means the control loop is broken, and 64×RTT
    /// means it has been broken long enough to forget everything.
    pub fn for_rtt(rtt: Duration) -> CloveEcnConfig {
        CloveEcnConfig {
            flowlet: FlowletConfig::with_gap(rtt),
            weight_cut: 1.0 / 3.0,
            congested_window: rtt * 2,
            recovery_rho: 0.01,
            stale_horizon: rtt * 16,
            dead_horizon: rtt * 64,
            stale_rho: 0.1,
            stale_decay_interval: rtt * 2,
        }
    }
}

#[derive(Default)]
struct DstState {
    paths: PathSet,
    wrr: Wrr,
    ladder: Ladder,
}

/// Policy counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CloveEcnStats {
    /// ECN feedback entries processed.
    pub ecn_feedback: u64,
    /// Weight cuts applied.
    pub weight_cuts: u64,
    /// Feedback arriving while all paths were congested (no cut applied).
    pub all_congested_events: u64,
    /// Paths dropped on a black-hole eviction from discovery.
    pub paths_dropped: u64,
    /// Stale-decay steps applied while feedback was overdue.
    pub stale_decays: u64,
    /// Flowlet picks made in the dead state (uniform hash-spread because
    /// all feedback aged out).
    pub degraded_picks: u64,
}

/// The Clove-ECN edge policy. See module docs.
pub struct CloveEcnPolicy {
    cfg: CloveEcnConfig,
    flowlets: FlowletTable,
    dsts: FxHashMap<HostId, DstState>,
    /// Counters.
    pub stats: CloveEcnStats,
    /// Decision-trace handle (disabled by default).
    trace: Trace,
}

impl CloveEcnPolicy {
    /// Build the policy.
    pub fn new(cfg: CloveEcnConfig) -> CloveEcnPolicy {
        CloveEcnPolicy { flowlets: FlowletTable::new(cfg.flowlet), dsts: FxHashMap::default(), stats: CloveEcnStats::default(), cfg, trace: Trace::disabled() }
    }

    /// Fallback port (pre-discovery): hash-spread like plain ECMP.
    fn fallback_port(flow: &FlowKey, flowlet_id: u64) -> u16 {
        49152 + (clove_net::hash::hash_tuple(flow, flowlet_id ^ 0xEC4) % 64) as u16
    }

    /// Current weight of `port` toward `dst` (tests/diagnostics).
    pub fn weight(&self, dst: HostId, port: u16) -> Option<f64> {
        self.dsts.get(&dst).and_then(|d| d.wrr.weight(port))
    }
}

impl clove_overlay::EdgePolicy for CloveEcnPolicy {
    fn name(&self) -> &'static str {
        "clove-ecn"
    }

    fn select_port(&mut self, now: Time, dst_hv: HostId, pkt: &mut Packet) -> u16 {
        let dst = self.dsts.entry(dst_hv).or_default();
        let flow = pkt.flow;
        let dead = dst.ladder.on_tx(now, &dst.paths, self.cfg.stale_horizon, self.cfg.dead_horizon, &self.trace, dst_hv) == LadderRung::Dead;
        if dst.ladder.stale_decay_due(now, self.cfg.stale_decay_interval) {
            // Stale rung: forget toward uniform.
            dst.wrr.decay_toward_uniform(self.cfg.stale_rho);
            self.stats.stale_decays += 1;
        }
        let DstState { paths, wrr, .. } = dst;
        let stats = &mut self.stats;
        self.flowlets.on_packet(now, flow, |flowlet_id| {
            if dead && !paths.is_empty() {
                // Bottom rung: weights are ancient — hash-spread uniformly
                // over the discovered ports (Edge-Flowlet behaviour).
                let ports = paths.ports();
                stats.degraded_picks += 1;
                return ports[(clove_net::hash::hash_tuple(&flow, flowlet_id ^ 0xDEAD) % ports.len() as u64) as usize];
            }
            wrr.pick().unwrap_or_else(|| Self::fallback_port(&flow, flowlet_id))
        })
    }

    fn on_feedback(&mut self, now: Time, dst_hv: HostId, fb: &Feedback) {
        let Feedback::Ecn { sport, congested } = *fb else {
            return;
        };
        self.stats.ecn_feedback += 1;
        let Some(dst) = self.dsts.get_mut(&dst_hv) else {
            return;
        };
        dst.paths.record_ecn(now, sport, congested);
        if congested {
            let receivers = dst.paths.uncongested_ports(now, self.cfg.congested_window);
            if receivers.is_empty() {
                // All paths congested: no point shuffling weights; the
                // vswitch will stop masking ECN from the guest instead.
                self.stats.all_congested_events += 1;
            } else {
                dst.wrr.cut_and_redistribute(sport, self.cfg.weight_cut, &receivers);
                self.stats.weight_cuts += 1;
                if self.trace.is_enabled() {
                    let ppm = (dst.wrr.weight(sport).unwrap_or(0.0) * 1e6).round() as u64;
                    self.trace.weight_update(now.0, dst_hv.0, sport, ppm, "ecn_cut");
                }
            }
        }
        if self.cfg.recovery_rho > 0.0 {
            dst.wrr.decay_toward_uniform(self.cfg.recovery_rho);
        }
    }

    fn on_paths_updated(&mut self, _now: Time, dst_hv: HostId, ports: &[u16]) {
        let dst = self.dsts.entry(dst_hv).or_default();
        // Diff against the current set instead of rebuilding: surviving
        // paths keep their learned weights *and* their smooth-WRR rotation
        // state, so a refresh that changes nothing is a true no-op and a
        // re-added path slots in at a uniform share.
        for port in dst.wrr.ports() {
            if !ports.contains(&port) {
                dst.wrr.remove_port(port);
                dst.paths.remove_port(port);
            }
        }
        for &port in ports {
            dst.wrr.add_port(port);
            dst.paths.add_port(port);
        }
    }

    fn on_cold_restart(&mut self, _now: Time) {
        // Everything learned lives in kernel/userspace tables a crash
        // destroys: the flowlet table and every per-destination record
        // (WRR weights, congestion history, ladder clocks). Cumulative
        // stats survive — they are the experiment ledger, not vswitch
        // state. Fresh flowlets hash-spread via `fallback_port` until
        // discovery re-learns paths.
        self.flowlets.clear();
        self.dsts.clear();
    }

    fn on_path_dead(&mut self, _now: Time, dst_hv: HostId, port: u16) {
        let Some(dst) = self.dsts.get_mut(&dst_hv) else {
            return;
        };
        dst.paths.remove_port(port);
        dst.wrr.remove_port(port);
        self.stats.paths_dropped += 1;
    }

    fn all_paths_congested(&self, now: Time, dst_hv: HostId) -> bool {
        self.dsts.get(&dst_hv).map(|d| d.paths.all_congested(now, self.cfg.congested_window)).unwrap_or(false)
    }

    fn debug_weights(&self, dst_hv: HostId) -> Option<Vec<(u16, f64)>> {
        self.dsts.get(&dst_hv).map(|d| d.wrr.ports().into_iter().map(|p| (p, d.wrr.weight(p).unwrap_or(0.0))).collect())
    }

    fn flowlet_len(&self) -> Option<usize> {
        Some(self.flowlets.len())
    }

    fn set_trace(&mut self, trace: Trace) {
        self.flowlets.set_trace(trace.clone());
        self.trace = trace;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_net::packet::PacketKind;
    use clove_overlay::EdgePolicy;
    use rustc_hash::FxHashMap;

    const RTT: Duration = Duration(100_000); // 100us

    fn policy() -> CloveEcnPolicy {
        let mut p = CloveEcnPolicy::new(CloveEcnConfig::for_rtt(RTT));
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20, 30, 40]);
        p
    }

    fn pkt(sport: u16) -> Packet {
        Packet::new(1, 1500, FlowKey::tcp(HostId(0), HostId(1), sport, 80), PacketKind::Data { seq: 0, len: 1400, dsn: 0 })
    }

    /// Keep one flow transmitting (every 3 RTTs) so the ladder's silence
    /// clock keeps running — an idle tx gap resets it by design.
    fn keep_transmitting(p: &mut CloveEcnPolicy, from: Time, to: Time) {
        let mut t = from;
        while t < to {
            let mut a = pkt(9999);
            p.select_port(t, HostId(1), &mut a);
            t += RTT * 3;
        }
    }

    /// Drive many flowlets and count port usage.
    fn spread(p: &mut CloveEcnPolicy, n: usize, start: Time) -> FxHashMap<u16, usize> {
        let mut m = FxHashMap::default();
        let mut t = start;
        for i in 0..n {
            let mut a = pkt(5000 + i as u16);
            *m.entry(p.select_port(t, HostId(1), &mut a)).or_insert(0) += 1;
            t += Duration::from_micros(1);
        }
        m
    }

    #[test]
    fn balanced_before_feedback() {
        let mut p = policy();
        let m = spread(&mut p, 400, Time::ZERO);
        for port in [10, 20, 30, 40] {
            assert_eq!(m[&port], 100);
        }
    }

    #[test]
    fn ecn_cut_shifts_new_flowlets_away() {
        let mut p = policy();
        for i in 0..6 {
            p.on_feedback(Time::from_micros(i), HostId(1), &Feedback::Ecn { sport: 10, congested: true });
        }
        assert!(p.weight(HostId(1), 10).unwrap() < 0.1);
        let m = spread(&mut p, 400, Time::from_micros(10));
        let congested = m.get(&10).copied().unwrap_or(0);
        assert!(congested < 40, "congested path got {congested}/400");
        assert_eq!(p.stats.weight_cuts, 6);
    }

    #[test]
    fn redistribution_only_to_uncongested() {
        let mut p = policy();
        let t = Time::from_micros(5);
        p.on_feedback(t, HostId(1), &Feedback::Ecn { sport: 20, congested: true });
        p.on_feedback(t, HostId(1), &Feedback::Ecn { sport: 10, congested: true });
        // 10's cut went to 30 and 40, not 20.
        let w30 = p.weight(HostId(1), 30).unwrap();
        let w20 = p.weight(HostId(1), 20).unwrap();
        assert!(w30 > w20, "w30={w30} w20={w20}");
    }

    #[test]
    fn all_congested_reported_and_no_cut() {
        let mut p = policy();
        let t = Time::from_micros(5);
        for port in [10, 20, 30] {
            p.on_feedback(t, HostId(1), &Feedback::Ecn { sport: port, congested: true });
        }
        assert!(!p.all_paths_congested(t, HostId(1)));
        p.on_feedback(t, HostId(1), &Feedback::Ecn { sport: 40, congested: true });
        assert!(p.all_paths_congested(t, HostId(1)));
        // Another congested indication cannot redistribute anywhere.
        let cuts_before = p.stats.weight_cuts;
        p.on_feedback(t, HostId(1), &Feedback::Ecn { sport: 10, congested: true });
        assert_eq!(p.stats.weight_cuts, cuts_before);
        assert!(p.stats.all_congested_events >= 1);
        // The window expires.
        assert!(!p.all_paths_congested(t + RTT * 4, HostId(1)));
    }

    #[test]
    fn explicit_clear_reopens_path() {
        let mut p = policy();
        let t = Time::from_micros(5);
        for port in [10, 20, 30, 40] {
            p.on_feedback(t, HostId(1), &Feedback::Ecn { sport: port, congested: true });
        }
        assert!(p.all_paths_congested(t, HostId(1)));
        p.on_feedback(t, HostId(1), &Feedback::Ecn { sport: 30, congested: false });
        assert!(!p.all_paths_congested(t, HostId(1)));
    }

    #[test]
    fn flowlet_stickiness_survives_feedback() {
        let mut p = policy();
        let mut a = pkt(1234);
        let port0 = p.select_port(Time::ZERO, HostId(1), &mut a);
        for i in 0..8 {
            p.on_feedback(Time::from_micros(i), HostId(1), &Feedback::Ecn { sport: port0, congested: true });
        }
        // Packets inside the same flowlet stay put (no reordering).
        let port1 = p.select_port(Time::from_micros(20), HostId(1), &mut a);
        assert_eq!(port0, port1);
        // A new flowlet avoids the hammered port with high probability:
        // with weight < 0.05 across 100 new flows, expect ≈ a few.
        let m = spread(&mut p, 200, Time::from_micros(30));
        assert!(m.get(&port0).copied().unwrap_or(0) < 30);
    }

    #[test]
    fn path_death_evicts_immediately_without_resetting_survivors() {
        let mut p = policy();
        let t = Time::from_micros(5);
        // Learn an asymmetry first: port 20 is congested.
        for _ in 0..4 {
            p.on_feedback(t, HostId(1), &Feedback::Ecn { sport: 20, congested: true });
        }
        let w20 = p.weight(HostId(1), 20).unwrap();
        let w30 = p.weight(HostId(1), 30).unwrap();
        assert!(w20 < w30);
        p.on_path_dead(t, HostId(1), 10);
        assert_eq!(p.stats.paths_dropped, 1);
        assert!(p.weight(HostId(1), 10).is_none(), "dead path dropped");
        // Survivors keep their learned *relative* weights.
        let r_before = w20 / w30;
        let r_after = p.weight(HostId(1), 20).unwrap() / p.weight(HostId(1), 30).unwrap();
        assert!((r_before - r_after).abs() < 1e-9, "{r_before} vs {r_after}");
        // New flowlets never land on the dead port.
        let m = spread(&mut p, 300, Time::from_micros(10));
        assert_eq!(m.get(&10), None, "flowlets on evicted path: {m:?}");
        // Unknown destinations are ignored.
        p.on_path_dead(t, HostId(99), 10);
        assert_eq!(p.stats.paths_dropped, 1);
    }

    #[test]
    fn readded_path_joins_at_uniform_share() {
        let mut p = policy();
        let t = Time::from_micros(5);
        for _ in 0..4 {
            p.on_feedback(t, HostId(1), &Feedback::Ecn { sport: 20, congested: true });
        }
        p.on_path_dead(t, HostId(1), 10);
        let w20 = p.weight(HostId(1), 20).unwrap();
        let w30 = p.weight(HostId(1), 30).unwrap();
        // Discovery re-adopts the recovered path.
        p.on_paths_updated(Time::from_micros(50), HostId(1), &[10, 20, 30, 40]);
        let w10 = p.weight(HostId(1), 10).unwrap();
        assert!(w10 > 0.0);
        // Port 20's learned deficit against 30 survives the refresh.
        let r_before = w20 / w30;
        let r_after = p.weight(HostId(1), 20).unwrap() / p.weight(HostId(1), 30).unwrap();
        assert!((r_before - r_after).abs() < 1e-9, "{r_before} vs {r_after}");
    }

    #[test]
    fn unknown_destination_feedback_is_ignored() {
        let mut p = policy();
        p.on_feedback(Time::ZERO, HostId(99), &Feedback::Ecn { sport: 10, congested: true });
        assert_eq!(p.stats.weight_cuts, 0);
    }

    #[test]
    fn fallback_port_before_discovery() {
        let mut p = CloveEcnPolicy::new(CloveEcnConfig::for_rtt(RTT));
        let mut a = pkt(77);
        let port = p.select_port(Time::ZERO, HostId(3), &mut a);
        assert!(port >= 49152);
    }

    #[test]
    fn stale_feedback_decays_weights_toward_uniform() {
        let mut p = policy();
        // Learn a heavy skew, then let the feedback loop go silent.
        for i in 0..8 {
            p.on_feedback(Time::from_micros(i), HostId(1), &Feedback::Ecn { sport: 10, congested: true });
        }
        let skewed = p.weight(HostId(1), 10).unwrap();
        assert!(skewed < 0.1, "precondition: skew learned ({skewed})");
        // stale_horizon = 16×RTT = 1.6ms; drive flowlets from 2ms to 5.3ms
        // (still inside dead_horizon = 6.4ms) spaced past the decay interval.
        let mut t = Time::from_micros(2000);
        for i in 0..12u16 {
            let mut a = pkt(6000 + i);
            p.select_port(t, HostId(1), &mut a);
            t += RTT * 3;
        }
        assert!(p.stats.stale_decays > 0, "no stale decays ran");
        assert_eq!(p.stats.degraded_picks, 0, "not dead yet");
        let recovered = p.weight(HostId(1), 10).unwrap();
        assert!(recovered > skewed * 2.0, "weight did not drift up: {skewed} -> {recovered}");
    }

    #[test]
    fn dead_feedback_hash_spreads_over_discovered_ports() {
        let mut p = policy();
        for i in 0..8 {
            p.on_feedback(Time::from_micros(i), HostId(1), &Feedback::Ecn { sport: 10, congested: true });
        }
        // dead_horizon = 64×RTT = 6.4ms; at 10ms the weights are ancient.
        // Traffic keeps flowing the whole time, so the silence is real.
        keep_transmitting(&mut p, Time::from_micros(100), Time::from_micros(10_000));
        let m = spread(&mut p, 400, Time::from_micros(10_000));
        assert!(p.stats.degraded_picks > 0, "dead state never engaged");
        // The once-congested port gets its uniform share back (≈100/400).
        let hammered = m.get(&10).copied().unwrap_or(0);
        assert!(hammered > 50, "dead state still avoids port 10: {m:?}");
        for port in [10, 20, 30, 40] {
            assert!(m.get(&port).copied().unwrap_or(0) > 0, "port {port} unused: {m:?}");
        }
    }

    #[test]
    fn fresh_feedback_exits_the_ladder() {
        let mut p = policy();
        p.on_feedback(Time::ZERO, HostId(1), &Feedback::Ecn { sport: 10, congested: false });
        // Go dead under continuous traffic, confirm degradation, then hear
        // feedback again.
        keep_transmitting(&mut p, Time::from_micros(100), Time::from_micros(10_000));
        let _ = spread(&mut p, 50, Time::from_micros(10_000));
        let degraded = p.stats.degraded_picks;
        assert!(degraded > 0);
        p.on_feedback(Time::from_micros(11_000), HostId(1), &Feedback::Ecn { sport: 20, congested: false });
        let _ = spread(&mut p, 50, Time::from_micros(11_001));
        assert_eq!(p.stats.degraded_picks, degraded, "still degrading after fresh feedback");
    }

    #[test]
    fn never_heard_feedback_is_not_stale() {
        let mut p = policy();
        // Discovery done, zero feedback ever: WRR stays authoritative even
        // at a huge timestamp — the ladder needs evidence to age out.
        let m = spread(&mut p, 400, Time::from_micros(50_000));
        assert_eq!(p.stats.degraded_picks, 0);
        assert_eq!(p.stats.stale_decays, 0);
        for port in [10, 20, 30, 40] {
            assert_eq!(m[&port], 100);
        }
    }

    #[test]
    fn cold_restart_flushes_learned_state_but_not_stats() {
        let mut p = policy();
        for i in 0..6 {
            p.on_feedback(Time::from_micros(i), HostId(1), &Feedback::Ecn { sport: 10, congested: true });
        }
        let cuts = p.stats.weight_cuts;
        assert!(cuts > 0);
        clove_overlay::EdgePolicy::on_cold_restart(&mut p, Time::from_micros(100));
        // Weights and discovered paths are gone: pre-discovery fallback.
        assert!(p.weight(HostId(1), 10).is_none());
        let mut a = pkt(42);
        assert!(p.select_port(Time::from_micros(101), HostId(1), &mut a) >= 49152);
        assert_eq!(p.flowlet_len(), Some(1), "flowlet table restarted empty");
        // The cumulative ledger survives the crash.
        assert_eq!(p.stats.weight_cuts, cuts);
    }

    /// Drive a fresh policy with one batch of ECN feedback per relay
    /// interval (50 us) for 200 steps; returns the weight vector (ports
    /// 10/20/30/40) after every step.
    fn weight_trajectory(feedback: impl Fn(u64) -> Vec<(u16, bool)>) -> Vec<[f64; 4]> {
        let mut p = policy();
        (0..200)
            .map(|step| {
                for (port, congested) in feedback(step) {
                    p.on_feedback(Time::from_micros(step * 50), HostId(1), &Feedback::Ecn { sport: port, congested });
                }
                [10, 20, 30, 40].map(|port| p.weight(HostId(1), port).expect("discovered port"))
            })
            .collect()
    }

    /// Mean absolute per-step change of the weight vector over `steps`.
    fn flap(steps: &[[f64; 4]]) -> f64 {
        let moved: f64 = steps.windows(2).map(|w| w[0].iter().zip(&w[1]).map(|(a, b)| (a - b).abs()).sum::<f64>()).sum();
        moved / (steps.len() - 1) as f64
    }

    /// Paper section 7 argues, without an experiment, that weight adaptation on
    /// dataplane-timescale feedback is stable. Three synthetic regimes:
    #[test]
    fn control_loop_is_stable_under_persistent_alternating_and_total_congestion() {
        // 1. One persistently congested path converges to the weight floor
        //    and stays there: a stable fixed point, the rest share evenly.
        let steps = weight_trajectory(|_| vec![(10, true), (20, false), (30, false), (40, false)]);
        let tail = &steps[40..];
        assert!(tail.iter().all(|w| w[0] < 0.05), "the congested path is pinned at the floor: {:?}", tail[0]);
        assert!(tail.iter().all(|w| (w[1] - w[3]).abs() < 1e-9 && (w[2] - w[3]).abs() < 1e-9), "clean paths share evenly");
        assert!(flap(tail) < 1e-3, "converged, not oscillating: flap {}", flap(tail));

        // 2. Congestion alternating between two paths at the relay
        //    timescale, the worst case for flapping: both end up parked at
        //    the floor, traffic rides the clean pair, oscillation is bounded.
        let steps = weight_trajectory(|step| if step % 2 == 0 { vec![(10, true), (20, false)] } else { vec![(10, false), (20, true)] });
        let tail = &steps[40..];
        assert!(tail.iter().all(|w| w[0] < 0.05 && w[1] < 0.05), "both flapping paths are parked: {:?}", tail[0]);
        assert!(tail.iter().all(|w| w[2] > 0.45 && (w[2] - w[3]).abs() < 1e-9), "the clean pair carries the traffic: {:?}", tail[0]);
        assert!(flap(&steps) < 0.05 && flap(tail) < 0.02, "bounded, not divergent: flap {} overall, {} in the tail", flap(&steps), flap(tail));

        // 3. Every path congested: nowhere better to shift traffic, so the
        //    policy stops steering (section 3.2) and drifts to uniform.
        let steps = weight_trajectory(|_| [10, 20, 30, 40].iter().map(|&port| (port, true)).collect());
        let off_uniform = |w: &[f64; 4]| w.iter().fold(0.0f64, |m, x| m.max((x - 0.25).abs()));
        assert!(off_uniform(&steps[0]) > 0.1, "the first round of cuts skews the weights: {:?}", steps[0]);
        assert!(off_uniform(&steps[199]) < 0.01, "uniform at the end: {:?}", steps[199]);
    }

    #[test]
    fn non_ecn_feedback_ignored() {
        let mut p = policy();
        p.on_feedback(Time::ZERO, HostId(1), &Feedback::Util { sport: 10, util_pm: 999 });
        assert_eq!(p.stats.ecn_feedback, 0);
    }
}
