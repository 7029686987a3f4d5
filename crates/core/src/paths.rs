//! Per-destination path state shared by the Clove policy variants.
//!
//! Each hypervisor keeps, for every destination it actively talks to, the
//! set of discovered outer source ports and per-port network state: the
//! last time ECN feedback marked the path congested and the latest relayed
//! utilization (INT). The paper sizes this at `k`
//! paths × `N` destinations and argues it is trivially cheap on x86 (§4
//! "Scalability") — here it is a small `Vec` per destination.

use clove_net::types::HostId;
use clove_sim::{Duration, Time};
use clove_telemetry::{LadderRung, Trace};

/// State for one discovered path (outer source port) to a destination.
#[derive(Debug, Clone, Copy)]
pub struct PathInfo {
    /// The outer transport source port steering onto this path.
    pub port: u16,
    /// Last time ECN feedback reported this path congested.
    pub last_congested: Option<Time>,
    /// Latest relayed max link utilization (per-mille), if INT is on.
    pub util_pm: Option<u16>,
    /// When the utilization was last refreshed.
    pub util_at: Option<Time>,
    /// Last time *any* feedback (ECN or utilization) arrived for
    /// this path — the staleness clock for the degradation ladder.
    pub last_feedback: Option<Time>,
}

impl PathInfo {
    fn new(port: u16) -> PathInfo {
        PathInfo { port, last_congested: None, util_pm: None, util_at: None, last_feedback: None }
    }
}

/// The path set toward one destination hypervisor.
#[derive(Debug, Clone, Default)]
pub struct PathSet {
    paths: Vec<PathInfo>,
}

impl PathSet {
    /// An empty set (before discovery completes).
    pub fn new() -> PathSet {
        PathSet { paths: Vec::new() }
    }

    /// Replace the port list, preserving state for surviving ports. The
    /// paper notes network state "may be maintained through such a
    /// transition" when only the port→path mapping changes (§3.1).
    pub fn set_ports(&mut self, ports: &[u16]) {
        let old = std::mem::take(&mut self.paths);
        self.paths = ports.iter().map(|&p| old.iter().find(|i| i.port == p).copied().unwrap_or_else(|| PathInfo::new(p))).collect();
    }

    /// All ports.
    pub fn ports(&self) -> Vec<u16> {
        self.paths.iter().map(|p| p.port).collect()
    }

    /// Drop `port` (path eviction); state for the other paths is untouched.
    pub fn remove_port(&mut self, port: u16) {
        self.paths.retain(|p| p.port != port);
    }

    /// Add `port` with fresh (unknown) state; no-op if already present.
    pub fn add_port(&mut self, port: u16) {
        if self.get(port).is_none() {
            self.paths.push(PathInfo::new(port));
        }
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True before discovery.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Look up a path by port.
    pub fn get(&self, port: u16) -> Option<&PathInfo> {
        self.paths.iter().find(|p| p.port == port)
    }

    /// Mutable lookup by port.
    pub fn get_mut(&mut self, port: u16) -> Option<&mut PathInfo> {
        self.paths.iter_mut().find(|p| p.port == port)
    }

    /// Iterate paths.
    pub fn iter(&self) -> impl Iterator<Item = &PathInfo> {
        self.paths.iter()
    }

    /// Record ECN feedback for `port`.
    pub fn record_ecn(&mut self, now: Time, port: u16, congested: bool) {
        if let Some(p) = self.get_mut(port) {
            if congested {
                p.last_congested = Some(now);
            } else {
                p.last_congested = None;
            }
            p.last_feedback = Some(now);
        }
    }

    /// Record utilization feedback for `port`.
    pub fn record_util(&mut self, now: Time, port: u16, util_pm: u16) {
        if let Some(p) = self.get_mut(port) {
            p.util_pm = Some(util_pm);
            p.util_at = Some(now);
            p.last_feedback = Some(now);
        }
    }

    /// The most recent feedback timestamp across all paths, or `None` if
    /// no feedback has ever arrived for this destination. Drives the
    /// staleness degradation ladder: a destination whose *freshest* entry
    /// is old has lost its control loop entirely.
    pub fn freshest_feedback(&self) -> Option<Time> {
        self.paths.iter().filter_map(|p| p.last_feedback).max()
    }

    /// Age of the freshest feedback at `now`. `None` means feedback has
    /// never arrived — callers treat that as "not stale" because there is
    /// nothing learned to distrust yet.
    pub fn feedback_age(&self, now: Time) -> Option<Duration> {
        self.freshest_feedback().map(|t| now.saturating_since(t))
    }

    /// Is `port` considered congested at `now` (ECN within `window`)?
    pub fn is_congested(&self, now: Time, port: u16, window: Duration) -> bool {
        self.get(port).and_then(|p| p.last_congested).map(|t| now.saturating_since(t) <= window).unwrap_or(false)
    }

    /// Ports *not* congested at `now`.
    pub fn uncongested_ports(&self, now: Time, window: Duration) -> Vec<u16> {
        self.paths.iter().filter(|p| p.last_congested.map(|t| now.saturating_since(t) > window).unwrap_or(true)).map(|p| p.port).collect()
    }

    /// The port with the least utilization; unknown utilization counts as
    /// zero (encourages probing fresh paths). `stale_after` ages out old
    /// reports the same way. Ties break to the lowest port for determinism.
    pub fn least_utilized(&self, now: Time, stale_after: Duration) -> Option<u16> {
        self.paths
            .iter()
            .map(|p| {
                let util = match (p.util_pm, p.util_at) {
                    (Some(u), Some(at)) if now.saturating_since(at) <= stale_after => u,
                    _ => 0,
                };
                (util, p.port)
            })
            .min()
            .map(|(_, port)| port)
    }
}

/// One destination's place on the staleness degradation ladder, and the
/// clocks that decide it. Clove-ECN and Clove-INT both hold one beside
/// their [`PathSet`]; they differ only in what each rung *does*.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ladder {
    /// Last time a stale-decay step ran (rate-limits the lazy decay).
    last_stale_decay: Time,
    /// Last data-path transmission toward this destination.
    last_tx: Time,
    /// Start of the current continuously-transmitting span. Silence is
    /// only evidence of control-plane trouble while we are sending — an
    /// idle destination owes us no feedback.
    silence_base: Time,
    /// Rung this destination was last observed on; kept current regardless
    /// of tracing so trace on/off cannot diverge.
    rung: LadderRung,
}

impl Ladder {
    /// Account one data-path transmission toward `dst` at `now` and judge
    /// how long its feedback loop has been silent: past `stale_horizon` the
    /// destination is [`LadderRung::Stale`], past `dead_horizon`
    /// [`LadderRung::Dead`]. Never-heard is *not* stale — there is nothing
    /// learned to distrust yet — and silence only accumulates while we keep
    /// transmitting: a tx gap past the stale horizon restarts the clock
    /// rather than aging the learned state. A rung change is traced.
    pub fn on_tx(&mut self, now: Time, paths: &PathSet, stale_horizon: Duration, dead_horizon: Duration, trace: &Trace, dst: HostId) -> LadderRung {
        if now.saturating_since(self.last_tx) > stale_horizon {
            self.silence_base = now;
        }
        self.last_tx = now;
        let age = paths.feedback_age(now).map(|a| a.min(now.saturating_since(self.silence_base)));
        let rung = match age {
            Some(a) if a > dead_horizon => LadderRung::Dead,
            Some(a) if a > stale_horizon => LadderRung::Stale,
            _ => LadderRung::Fresh,
        };
        if rung != self.rung {
            trace.ladder_transition(now.0, dst.0, self.rung, rung);
            self.rung = rung;
        }
        rung
    }

    /// Whether a stale-decay step is due at `now`: only on the stale rung,
    /// and at most once per `interval` — the decay runs lazily on the data
    /// path, so a burst of packets must not fast-forward it. A `true`
    /// answer records the step as taken.
    pub fn stale_decay_due(&mut self, now: Time, interval: Duration) -> bool {
        let due = self.rung == LadderRung::Stale && now.saturating_since(self.last_stale_decay) >= interval;
        if due {
            self.last_stale_decay = now;
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> PathSet {
        let mut s = PathSet::new();
        s.set_ports(&[10, 20, 30, 40]);
        s
    }

    const W: Duration = Duration(200_000); // 200us window

    #[test]
    fn congestion_window_semantics() {
        let mut s = set();
        s.record_ecn(Time::from_micros(100), 10, true);
        assert!(s.is_congested(Time::from_micros(150), 10, W));
        assert!(s.is_congested(Time::from_micros(300), 10, W));
        assert!(!s.is_congested(Time::from_micros(301), 10, W));
        assert!(!s.is_congested(Time::from_micros(150), 20, W));
    }

    #[test]
    fn explicit_uncongested_feedback_clears() {
        let mut s = set();
        s.record_ecn(Time::from_micros(100), 10, true);
        s.record_ecn(Time::from_micros(120), 10, false);
        assert!(!s.is_congested(Time::from_micros(130), 10, W));
    }

    #[test]
    fn uncongested_ports_and_all_congested() {
        let mut s = set();
        let t = Time::from_micros(100);
        for p in [10, 20, 30] {
            s.record_ecn(t, p, true);
        }
        assert_eq!(s.uncongested_ports(t, W), vec![40]);
        s.record_ecn(t, 40, true);
        assert!(s.uncongested_ports(t, W).is_empty());
        // The window ages them out again.
        assert_eq!(s.uncongested_ports(Time::from_micros(500), W), vec![10, 20, 30, 40]);
    }

    #[test]
    fn least_utilized_prefers_unknown_then_lowest() {
        let mut s = set();
        let t = Time::from_micros(100);
        s.record_util(t, 10, 500);
        s.record_util(t, 20, 300);
        // 30 and 40 unknown → util 0 → lowest port 30 wins.
        assert_eq!(s.least_utilized(t, W), Some(30));
        s.record_util(t, 30, 100);
        s.record_util(t, 40, 200);
        assert_eq!(s.least_utilized(t, W), Some(30));
        s.record_util(t, 30, 900);
        assert_eq!(s.least_utilized(t, W), Some(40));
    }

    #[test]
    fn stale_utilization_ages_to_zero() {
        let mut s = set();
        s.record_util(Time::from_micros(100), 10, 900);
        s.record_util(Time::from_micros(100), 20, 1);
        s.record_util(Time::from_micros(400), 30, 1);
        s.record_util(Time::from_micros(400), 40, 2);
        // At t=400, port 10's report (900) is stale (>200us old) → counts 0.
        assert_eq!(s.least_utilized(Time::from_micros(400), W), Some(10));
    }

    #[test]
    fn feedback_age_tracks_freshest_path() {
        let mut s = set();
        // Never heard anything: no age at all.
        assert_eq!(s.freshest_feedback(), None);
        assert_eq!(s.feedback_age(Time::from_micros(500)), None);
        // Both feedback kinds bump the clock.
        s.record_ecn(Time::from_micros(100), 10, false);
        s.record_util(Time::from_micros(200), 20, 500);
        s.record_ecn(Time::from_micros(300), 30, true);
        assert_eq!(s.freshest_feedback(), Some(Time::from_micros(300)));
        assert_eq!(s.feedback_age(Time::from_micros(450)), Some(Duration::from_micros(150)));
        // Feedback for an unknown port does not count.
        s.record_util(Time::from_micros(900), 77, 100);
        assert_eq!(s.freshest_feedback(), Some(Time::from_micros(300)));
        // Evicting the freshest path makes the remaining set look older.
        s.remove_port(30);
        assert_eq!(s.freshest_feedback(), Some(Time::from_micros(200)));
    }

    #[test]
    fn set_ports_preserves_surviving_state() {
        let mut s = set();
        s.record_ecn(Time::from_micros(100), 20, true);
        s.set_ports(&[20, 50]);
        assert!(s.is_congested(Time::from_micros(150), 20, W));
        assert!(!s.is_congested(Time::from_micros(150), 50, W));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_and_add_port() {
        let mut s = set();
        s.record_ecn(Time::from_micros(100), 20, true);
        s.remove_port(10);
        assert_eq!(s.ports(), vec![20, 30, 40]);
        assert!(s.is_congested(Time::from_micros(150), 20, W));
        s.add_port(10);
        assert_eq!(s.len(), 4);
        assert!(!s.is_congested(Time::from_micros(150), 10, W));
        // Idempotent.
        s.add_port(10);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn empty_set_edge_cases() {
        let s = PathSet::new();
        assert!(s.is_empty());
        assert!(s.uncongested_ports(Time::ZERO, W).is_empty());
        assert_eq!(s.least_utilized(Time::ZERO, W), None);
    }
}
