//! Clove-INT: the utilization-aware variant.
//!
//! Clove-INT (paper §3.2) asks every fabric hop to stamp egress link
//! utilization into packets (In-band Network Telemetry); the destination
//! hypervisor relays the path maximum back, and the source routes each new
//! flowlet on the least-utilized path. Unlike Clove-ECN — which only reacts
//! once queues cross the marking threshold — this is *proactive*: the
//! simulations show it captures ~95% of CONGA's gain (paper §6.2).

use crate::flowlet::{FlowletConfig, FlowletTable};
use crate::paths::{fallback_port, PathSet};
use clove_net::packet::{Feedback, Packet};
use clove_net::types::HostId;
use clove_sim::{Duration, Time};
use clove_telemetry::{LadderRung, Trace};
use rustc_hash::FxHashMap;

// Multiples of the 100 µs loaded RTT the runs operate at.

/// Utilization reports older than this count as zero (stale paths get
/// probed again rather than shunned forever; 8×RTT). It is also the
/// ladder's stale horizon: when the *freshest* feedback for a destination
/// is older than this, Clove-INT falls back to ECN-style smooth weighted
/// round-robin over `1.05 − utilization` weights from the last reports,
/// decaying toward uniform; past [`crate::paths::DEAD_HORIZON`] it
/// hash-spreads new flowlets uniformly.
pub const STALE_AFTER: Duration = Duration::from_micros(800);

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

/// Clove-INT: new flowlets take the least-utilized discovered path.
pub struct CloveIntPolicy {
    flowlets: FlowletTable,
    /// Per-destination paths; the weights are the stale rung's fallback
    /// scheduler, fed from utilization reports.
    dsts: FxHashMap<HostId, PathSet>,
    /// Counters.
    pub stats: CloveUtilStats,
    /// Decision-trace handle (disabled by default).
    trace: Trace,
}

impl CloveIntPolicy {
    /// Build the policy with flowlets detected by `flowlet`.
    pub fn new(flowlet: FlowletConfig) -> CloveIntPolicy {
        CloveIntPolicy { flowlets: FlowletTable::new(flowlet), dsts: FxHashMap::default(), stats: CloveUtilStats::default(), trace: Trace::disabled() }
    }
}

impl clove_overlay::EdgePolicy for CloveIntPolicy {
    fn name(&self) -> &'static str {
        "clove-int"
    }

    fn select_port(&mut self, now: Time, dst_hv: HostId, pkt: &mut Packet) -> u16 {
        let paths = self.dsts.entry(dst_hv).or_default();
        let flow = pkt.flow;
        // Degradation ladder: fresh → least-utilized; stale → ECN-style WRR
        // over the last-known utilizations; dead → uniform hash-spread,
        // Edge-Flowlet behaviour.
        let rung = paths.on_tx(now, STALE_AFTER, &self.trace, dst_hv);
        if paths.stale_decay(now) {
            self.stats.stale_decays += 1;
        }
        let stats = &mut self.stats;
        self.flowlets.on_packet(now, flow, |flowlet_id| {
            let degraded = match rung {
                LadderRung::Dead => paths.spread(clove_net::hash::hash_tuple(&flow, flowlet_id ^ 0x1DEAD)),
                LadderRung::Stale => paths.pick(),
                LadderRung::Fresh => None,
            };
            if let Some(port) = degraded {
                stats.degraded_picks += 1;
                return port;
            }
            paths.least_utilized(now, STALE_AFTER).unwrap_or_else(|| fallback_port(&flow, flowlet_id ^ 0x147))
        })
    }

    fn on_feedback(&mut self, now: Time, dst_hv: HostId, fb: &Feedback) {
        if let Feedback::Util { sport, util_pm } = *fb {
            self.stats.feedback += 1;
            if let Some(paths) = self.dsts.get_mut(&dst_hv) {
                paths.record_util(now, sport, util_pm);
                // Keep the fallback WRR primed: a lightly loaded path earns
                // a proportionally larger share should the loop go quiet.
                paths.set_weight(sport, f64::from(1050 - util_pm.min(1000)) / 1000.0);
                if self.trace.is_enabled() {
                    let ppm = (paths.weight(sport).unwrap_or(0.0) * 1e6).round() as u64;
                    self.trace.weight_update(now.0, dst_hv.0, sport, ppm, "util_report");
                }
            }
        }
    }

    fn on_paths_updated(&mut self, _now: Time, dst_hv: HostId, ports: &[u16]) {
        self.dsts.entry(dst_hv).or_default().set_ports(ports);
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
    use clove_net::types::FlowKey;
    use clove_overlay::EdgePolicy;

    const RTT: Duration = Duration(100_000);

    fn pkt(sport: u16) -> Packet {
        Packet::new(1, 1500, FlowKey::tcp(HostId(0), HostId(1), sport, 80), PacketKind::Data { seq: 0, len: 1400, dsn: 0 })
    }

    #[test]
    fn int_routes_new_flowlets_to_least_utilized() {
        let mut p = CloveIntPolicy::new(FlowletConfig::with_gap(RTT));
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
        let mut p = CloveIntPolicy::new(FlowletConfig::with_gap(RTT));
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
        let mut p = CloveIntPolicy::new(FlowletConfig::with_gap(RTT));
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
        let mut p = CloveIntPolicy::new(FlowletConfig::with_gap(RTT));
        p.on_paths_updated(Time::ZERO, HostId(1), &[10, 20, 30]);
        let t = Time::from_micros(10);
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 10, util_pm: 950 });
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 20, util_pm: 50 });
        p.on_feedback(t, HostId(1), &Feedback::Util { sport: 30, util_pm: 500 });
        // STALE_AFTER = 800µs; at 2ms the reports are stale but not dead
        // (DEAD_HORIZON = 6.4ms): ECN-style WRR over last-known utils.
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
        let mut p = CloveIntPolicy::new(FlowletConfig::with_gap(RTT));
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
        let mut p = CloveIntPolicy::new(FlowletConfig::with_gap(RTT));
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
        let mut p = CloveIntPolicy::new(FlowletConfig::with_gap(RTT));
        let mut a = pkt(9);
        let port = p.select_port(Time::ZERO, HostId(5), &mut a);
        assert!(port >= 49152);
    }
}
