//! Clove-INT: the utilization-aware variant.
//!
//! Clove-INT (paper §3.2) asks every fabric hop to stamp egress link
//! utilization into packets (In-band Network Telemetry); the destination
//! hypervisor relays the path maximum back, and the source routes each new
//! flowlet on the least-utilized path. Unlike Clove-ECN — which only reacts
//! once queues cross the marking threshold — this is *proactive*: the
//! simulations show it captures ~95% of CONGA's gain (paper §6.2).

use crate::flowlet::{FlowletConfig, FlowletTable};
use crate::paths::{Ladder, PathSet};
use crate::wrr::Wrr;
use clove_net::packet::{Feedback, Packet};
use clove_net::types::{FlowKey, HostId};
use clove_sim::{Duration, Time};
use clove_telemetry::{LadderRung, Trace};
use rustc_hash::FxHashMap;

/// Clove-INT configuration.
#[derive(Debug, Clone, Copy)]
pub struct CloveUtilConfig {
    /// Flowlet detection parameters.
    pub flowlet: FlowletConfig,
    /// Utilization reports older than this count as zero (stale paths get
    /// probed again rather than shunned forever).
    pub stale_after: Duration,
    /// When the *freshest* feedback for a destination is older than this,
    /// Clove-INT stops trusting utilization entirely and hash-spreads new
    /// flowlets uniformly (bottom of the degradation ladder). Between
    /// `stale_after` and this horizon it falls back to ECN-style weighted
    /// round-robin over the last-known utilizations.
    pub dead_horizon: Duration,
    /// Decay rate of the fallback WRR weights toward uniform while stale.
    pub stale_rho: f64,
    /// Minimum spacing between lazy stale-decay steps on the data path.
    pub stale_decay_interval: Duration,
}

impl CloveUtilConfig {
    /// Defaults scaled for a base RTT.
    pub fn for_rtt(rtt: Duration) -> CloveUtilConfig {
        CloveUtilConfig { flowlet: FlowletConfig::with_gap(rtt), stale_after: rtt * 8, dead_horizon: rtt * 64, stale_rho: 0.1, stale_decay_interval: rtt * 2 }
    }
}

/// Clove-INT counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CloveUtilStats {
    /// Utilization feedback entries processed.
    pub feedback: u64,
    /// Stale-decay steps applied to the fallback WRR.
    pub stale_decays: u64,
    /// Flowlet picks made below the fresh tier: WRR fallback while stale,
    /// or uniform hash-spread once dead.
    pub degraded_picks: u64,
}

#[derive(Default)]
struct IntDstState {
    paths: PathSet,
    /// ECN-style fallback scheduler fed from utilization reports — the
    /// middle rung of the degradation ladder.
    wrr: Wrr,
    ladder: Ladder,
}

/// Clove-INT: new flowlets take the least-utilized discovered path.
pub struct CloveIntPolicy {
    cfg: CloveUtilConfig,
    flowlets: FlowletTable,
    dsts: FxHashMap<HostId, IntDstState>,
    /// Counters.
    pub stats: CloveUtilStats,
    /// Decision-trace handle (disabled by default).
    trace: Trace,
}

impl CloveIntPolicy {
    /// Build the policy.
    pub fn new(cfg: CloveUtilConfig) -> CloveIntPolicy {
        CloveIntPolicy { flowlets: FlowletTable::new(cfg.flowlet), dsts: FxHashMap::default(), stats: CloveUtilStats::default(), cfg, trace: Trace::disabled() }
    }

    fn fallback_port(flow: &FlowKey, flowlet_id: u64) -> u16 {
        49152 + (clove_net::hash::hash_tuple(flow, flowlet_id ^ 0x147) % 64) as u16
    }
}

impl clove_overlay::EdgePolicy for CloveIntPolicy {
    fn name(&self) -> &'static str {
        "clove-int"
    }

    fn select_port(&mut self, now: Time, dst_hv: HostId, pkt: &mut Packet) -> u16 {
        let dst = self.dsts.entry(dst_hv).or_default();
        let stale = self.cfg.stale_after;
        let flow = pkt.flow;
        // Degradation ladder: fresh → least-utilized; stale → ECN-style WRR
        // over the last-known utilizations; dead → uniform hash-spread,
        // Edge-Flowlet behaviour.
        let rung = dst.ladder.on_tx(now, &dst.paths, stale, self.cfg.dead_horizon, &self.trace, dst_hv);
        let (dead, wrr_tier) = (rung == LadderRung::Dead, rung == LadderRung::Stale);
        if dst.ladder.stale_decay_due(now, self.cfg.stale_decay_interval) {
            dst.wrr.decay_toward_uniform(self.cfg.stale_rho);
            self.stats.stale_decays += 1;
        }
        let IntDstState { paths, wrr, .. } = dst;
        let stats = &mut self.stats;
        self.flowlets.on_packet(now, flow, |flowlet_id| {
            if dead && !paths.is_empty() {
                let ports = paths.ports();
                stats.degraded_picks += 1;
                return ports[(clove_net::hash::hash_tuple(&flow, flowlet_id ^ 0x1DEAD) % ports.len() as u64) as usize];
            }
            if wrr_tier {
                if let Some(port) = wrr.pick() {
                    stats.degraded_picks += 1;
                    return port;
                }
            }
            paths.least_utilized(now, stale).unwrap_or_else(|| Self::fallback_port(&flow, flowlet_id))
        })
    }

    fn on_feedback(&mut self, now: Time, dst_hv: HostId, fb: &Feedback) {
        if let Feedback::Util { sport, util_pm } = *fb {
            self.stats.feedback += 1;
            if let Some(dst) = self.dsts.get_mut(&dst_hv) {
                dst.paths.record_util(now, sport, util_pm);
                // Keep the fallback WRR primed: a lightly loaded path earns
                // a proportionally larger share should the loop go quiet.
                dst.wrr.set_weight(sport, f64::from(1050 - util_pm.min(1000)) / 1000.0);
                if self.trace.is_enabled() {
                    let ppm = (dst.wrr.weight(sport).unwrap_or(0.0) * 1e6).round() as u64;
                    self.trace.weight_update(now.0, dst_hv.0, sport, ppm, "util_report");
                }
            }
        }
    }

    fn on_paths_updated(&mut self, _now: Time, dst_hv: HostId, ports: &[u16]) {
        let dst = self.dsts.entry(dst_hv).or_default();
        dst.paths.set_ports(ports);
        dst.wrr.set_ports(ports);
    }

    fn on_cold_restart(&mut self, _now: Time) {
        // Flowlet table and per-destination utilization/WRR/ladder state
        // are crash-lost; cumulative stats survive (experiment ledger).
        self.flowlets.clear();
        self.dsts.clear();
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

    const RTT: Duration = Duration(100_000);

    fn pkt(sport: u16) -> Packet {
        Packet::new(1, 1500, FlowKey::tcp(HostId(0), HostId(1), sport, 80), PacketKind::Data { seq: 0, len: 1400, dsn: 0 })
    }

    #[test]
    fn int_routes_new_flowlets_to_least_utilized() {
        let mut p = CloveIntPolicy::new(CloveUtilConfig::for_rtt(RTT));
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20, 30]);
        let t = Time::from_micros(10);
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 10, util_pm: 900 });
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 20, util_pm: 100 });
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 30, util_pm: 500 });
        let mut a = pkt(1);
        assert_eq!(p.select_port(t, HostId(1), &mut a), 20);
        // Same flowlet sticks even if feedback changes.
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 20, util_pm: 999 });
        assert_eq!(p.select_port(t + Duration::from_micros(10), HostId(1), &mut a), 20);
        // A new flow goes elsewhere now.
        let mut b = pkt(2);
        assert_eq!(p.select_port(t + Duration::from_micros(20), HostId(1), &mut b), 30);
    }

    #[test]
    fn int_stale_reports_age_out() {
        let mut p = CloveIntPolicy::new(CloveUtilConfig::for_rtt(RTT));
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20]);
        p.on_feedback(Time::from_micros(10), HostId(1), &Feedback::Util { sport: 10, util_pm: 900 });
        p.on_feedback(Time::from_millis(5), HostId(1), &Feedback::Util { sport: 20, util_pm: 100 });
        // Port 10's report is ancient by t=5ms: treated as idle, wins ties
        // by port order.
        let mut a = pkt(3);
        assert_eq!(p.select_port(Time::from_millis(5), HostId(1), &mut a), 10);
    }

    #[test]
    fn int_ignores_ecn_feedback() {
        let mut p = CloveIntPolicy::new(CloveUtilConfig::for_rtt(RTT));
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20]);
        p.on_feedback(Time::ZERO, HostId(1), &Feedback::Ecn { sport: 10, congested: true });
        assert_eq!(p.stats.feedback, 0);
    }

    /// Keep one flow transmitting (every 3 RTTs) so the ladder's silence
    /// clock keeps running — an idle tx gap resets it by design.
    fn keep_transmitting(p: &mut CloveIntPolicy, from: Time, to: Time) {
        let mut t = from;
        while t < to {
            let mut a = pkt(9999);
            p.select_port(t, HostId(1), &mut a);
            t += RTT * 3;
        }
    }

    /// Drive many one-packet flowlets and count port usage.
    fn spread(p: &mut CloveIntPolicy, n: usize, start: Time) -> FxHashMap<u16, usize> {
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
    fn int_stale_tier_uses_weighted_round_robin() {
        let mut p = CloveIntPolicy::new(CloveUtilConfig::for_rtt(RTT));
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20, 30]);
        let t = Time::from_micros(10);
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 10, util_pm: 950 });
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 20, util_pm: 50 });
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 30, util_pm: 500 });
        // stale_after = 8×RTT = 800µs; at 2ms the reports are stale but not
        // dead (dead_horizon = 6.4ms): ECN-style WRR over last-known utils.
        // Traffic keeps flowing so the silence clock keeps running.
        keep_transmitting(&mut p, Time::from_micros(50), Time::from_micros(2000));
        let m = spread(&mut p, 300, Time::from_micros(2000));
        assert!(p.stats.degraded_picks > 0, "stale tier never engaged");
        let hot = m.get(&10).copied().unwrap_or(0);
        let cool = m.get(&20).copied().unwrap_or(0);
        assert!(cool > hot, "WRR ignores last-known utilization: {m:?}");
        // All paths still carry *some* traffic (WRR floor, no starvation).
        for port in [10, 20, 30] {
            assert!(m.get(&port).copied().unwrap_or(0) > 0, "port {port} starved: {m:?}");
        }
    }

    #[test]
    fn int_dead_tier_hash_spreads_uniformly() {
        let mut p = CloveIntPolicy::new(CloveUtilConfig::for_rtt(RTT));
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20, 30, 40]);
        let t = Time::from_micros(10);
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 10, util_pm: 990 });
        // Way past dead_horizon: even the hottest path gets a uniform share.
        // Traffic keeps flowing the whole time, so the silence is real.
        keep_transmitting(&mut p, Time::from_micros(100), Time::from_millis(20));
        let m = spread(&mut p, 400, Time::from_millis(20));
        assert!(p.stats.degraded_picks > 0);
        let hot = m.get(&10).copied().unwrap_or(0);
        assert!(hot > 50, "dead tier still avoids port 10: {m:?}");
        for port in [10, 20, 30, 40] {
            assert!(m.get(&port).copied().unwrap_or(0) > 0, "port {port} unused: {m:?}");
        }
    }

    #[test]
    fn int_fresh_feedback_restores_least_utilized() {
        let mut p = CloveIntPolicy::new(CloveUtilConfig::for_rtt(RTT));
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20]);
        p.on_feedback(Time::from_micros(10), HostId(1), &Feedback::Util { sport: 10, util_pm: 900 });
        keep_transmitting(&mut p, Time::from_micros(100), Time::from_millis(20));
        let _ = spread(&mut p, 20, Time::from_millis(20));
        let degraded = p.stats.degraded_picks;
        assert!(degraded > 0);
        // The loop comes back: fresh utilization, fresh tier.
        let t = Time::from_millis(30);
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 10, util_pm: 900 });
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 20, util_pm: 100 });
        let mut a = pkt(9999);
        assert_eq!(p.select_port(t, HostId(1), &mut a), 20);
        assert_eq!(p.stats.degraded_picks, degraded);
    }

    #[test]
    fn fallback_when_no_paths_known() {
        let mut p = CloveIntPolicy::new(CloveUtilConfig::for_rtt(RTT));
        let mut a = pkt(9);
        let port = p.select_port(Time::ZERO, HostId(5), &mut a);
        assert!(port >= 49152);
    }
}
