//! The per-destination path table every path-learning edge policy keeps.
//!
//! Each hypervisor keeps, for every destination it actively talks to, one
//! small table of the discovered outer source ports, in discovery order.
//! Each entry carries everything known about that path: its weighted
//! round-robin weight and smooth-WRR credit, the last time ECN feedback
//! marked it congested, and the latest relayed utilization (INT). The
//! destination's degradation-ladder clocks live in the same table. The
//! paper sizes this state at `k` paths × `N` destinations and argues it is
//! trivially cheap on x86 (§4 "Scalability"); here it is one `Vec` per
//! destination.
//!
//! Clove-ECN and Clove-INT use all of it; Presto uses only the weights
//! (static oracle values) and Edge-Flowlet only the port list.
//!
//! The scheduler is the smooth weighted round-robin popularized by nginx.
//! Clove-ECN "schedules new flowlets on different paths by rotating through
//! source ports in a weighted round-robin fashion" (paper §1); the smooth
//! variant spreads picks evenly through the cycle instead of emitting runs
//! of the same port, which matters here because consecutive flowlets should
//! not pile onto one path.

use clove_net::types::{FlowKey, HostId};
use clove_sim::{Duration, Time};
use clove_telemetry::{LadderRung, Trace};

// The ladder constants are multiples of the 100 µs loaded RTT the runs
// operate at; each policy keeps its own stale horizon beside it.

/// When the freshest feedback for a destination is older than this,
/// weights are not trusted at all: new flowlets hash-spread uniformly over
/// the discovered ports (Edge-Flowlet behaviour, bottom rung; 64×RTT).
pub const DEAD_HORIZON: Duration = Duration::from_micros(6400);

/// Decay rate of the weights toward uniform per stale-decay step.
pub const STALE_RHO: f64 = 0.1;

/// Minimum spacing between stale-decay steps — the decay is applied lazily
/// on the data path, so this bounds how fast it can run (2×RTT).
pub const STALE_DECAY_INTERVAL: Duration = Duration::from_micros(200);

/// Number of ports, from 49152 up, that a policy hash-spreads over while it
/// has no discovered path to a destination.
pub const FALLBACK_SPAN: u16 = 64;

/// The port a policy uses before discovery has found any path: a hash of
/// `flow` salted with `salted` (the caller's flowlet or flowcell id XOR its
/// own salt), spread over [`FALLBACK_SPAN`] ports like plain ECMP, so
/// behaviour degrades gracefully (paper §7, incremental deployment).
pub fn fallback_port(flow: &FlowKey, salted: u64) -> u16 {
    49152 + (clove_net::hash::hash_tuple(flow, salted) % FALLBACK_SPAN as u64) as u16
}

/// Weight floor: no path is starved forever.
const WEIGHT_FLOOR: f64 = 1e-3;

/// One discovered path (outer source port) to a destination.
#[derive(Debug, Clone, Copy)]
struct PathInfo {
    /// The outer transport source port steering onto this path.
    port: u16,
    /// WRR weight. Weights are relative (`pick` works off the live total);
    /// every table operation but `set_weight` renormalizes them to sum 1.
    weight: f64,
    /// Smooth-WRR credit: grows by `weight` every pick, drops by the total
    /// when this path is picked.
    credit: f64,
    /// Last time ECN feedback reported this path congested.
    last_congested: Option<Time>,
    /// Latest relayed max link utilization (per-mille), if INT is on.
    util_pm: Option<u16>,
    /// When the utilization was last refreshed.
    util_at: Option<Time>,
    /// Last time *any* feedback (ECN or utilization) arrived for
    /// this path — the staleness clock for the degradation ladder.
    last_feedback: Option<Time>,
}

impl PathInfo {
    fn new(port: u16, weight: f64) -> PathInfo {
        PathInfo { port, weight, credit: 0.0, last_congested: None, util_pm: None, util_at: None, last_feedback: None }
    }
}

/// The path table toward one destination hypervisor. See module docs.
#[derive(Debug, Clone, Default)]
pub struct PathSet {
    paths: Vec<PathInfo>,
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

impl PathSet {
    /// An empty table (before discovery completes).
    pub fn new() -> PathSet {
        PathSet::default()
    }

    /// Replace the port list. Surviving ports keep their feedback history
    /// and weight — the paper notes network state "may be maintained
    /// through such a transition" when only the port→path mapping changes
    /// (§3.1) — a new port starts at weight 1, every WRR credit restarts
    /// at 0, and the weights are renormalized.
    pub fn set_ports(&mut self, ports: &[u16]) {
        let old = std::mem::take(&mut self.paths);
        self.paths = ports
            .iter()
            .map(|&p| {
                let kept = old.iter().find(|i| i.port == p).copied();
                PathInfo { credit: 0.0, ..kept.unwrap_or_else(|| PathInfo::new(p, 1.0)) }
            })
            .collect();
        self.normalize();
    }

    /// All ports, in table order.
    pub fn ports(&self) -> Vec<u16> {
        self.paths.iter().map(|p| p.port).collect()
    }

    /// Drop `port` (path eviction). The removed weight mass redistributes
    /// *proportionally* across the survivors via normalization, so their
    /// learned relative weights, their smooth round-robin positions and
    /// their feedback history are untouched. No-op if absent.
    pub fn remove_port(&mut self, port: u16) {
        let before = self.paths.len();
        self.paths.retain(|p| p.port != port);
        if self.paths.len() != before {
            self.normalize();
        }
    }

    /// Append `port` with no feedback history and a uniform share (the
    /// mean of the surviving weights), leaving the survivors' learned
    /// relative weights intact. No-op if already present.
    pub fn add_port(&mut self, port: u16) {
        if self.get(port).is_some() {
            return;
        }
        let mean = if self.paths.is_empty() { 1.0 } else { self.paths.iter().map(|p| p.weight).sum::<f64>() / self.paths.len() as f64 };
        self.paths.push(PathInfo::new(port, mean));
        self.normalize();
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True before discovery.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    fn get(&self, port: u16) -> Option<&PathInfo> {
        self.paths.iter().find(|p| p.port == port)
    }

    fn get_mut(&mut self, port: u16) -> Option<&mut PathInfo> {
        self.paths.iter_mut().find(|p| p.port == port)
    }

    /// The port at position `draw % len` in table order, `None` when the
    /// table is empty. With a salted flow hash as `draw` this is the
    /// ladder's bottom rung, a uniform hash-spread over the discovered
    /// ports; Edge-Flowlet passes a uniform random draw.
    pub(crate) fn spread(&self, draw: u64) -> Option<u16> {
        (!self.paths.is_empty()).then(|| self.paths[(draw % self.paths.len() as u64) as usize].port)
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

    /// The weight of `port`, if present.
    pub fn weight(&self, port: u16) -> Option<f64> {
        self.get(port).map(|p| p.weight)
    }

    /// Every `(port, weight)`, in table order.
    pub(crate) fn weights(&self) -> impl Iterator<Item = (u16, f64)> + '_ {
        self.paths.iter().map(|p| (p.port, p.weight))
    }

    /// Overwrite the weight of `port`. Weights are relative — `pick`
    /// works off the live total — so setting several weights in sequence
    /// behaves as expected; a small floor prevents total starvation.
    pub fn set_weight(&mut self, port: u16, weight: f64) {
        if let Some(p) = self.get_mut(port) {
            p.weight = if weight.is_finite() { weight.max(WEIGHT_FLOOR) } else { WEIGHT_FLOOR };
        }
    }

    /// Scale the weight of `port` by `factor` and redistribute the removed
    /// mass equally across `receivers` — the Clove-ECN adjustment: "the
    /// weight of that path is reduced by some predefined proportion ... the
    /// weight remainder is then spread equally across all the other
    /// uncongested paths" (paper §3.2). No-op if `receivers` is empty.
    pub fn cut_and_redistribute(&mut self, port: u16, factor: f64, receivers: &[u16]) {
        if receivers.is_empty() || !factor.is_finite() {
            return;
        }
        let Some(p) = self.get_mut(port) else {
            return;
        };
        let cut = p.weight * factor.clamp(0.0, 1.0);
        if cut <= 0.0 {
            return;
        }
        p.weight -= cut;
        let share = cut / receivers.len() as f64;
        for &r in receivers {
            if r == port {
                continue;
            }
            if let Some(p) = self.get_mut(r) {
                p.weight += share;
            }
        }
        self.normalize();
    }

    /// Drift all weights toward uniform by `rho` in `[0, 1]` — a gentle
    /// recovery so a path cut long ago can regain traffic even if no
    /// further feedback arrives (implementation choice documented in
    /// DESIGN.md; the paper's redistribution alone never restores a path
    /// that stays quiet).
    pub fn decay_toward_uniform(&mut self, rho: f64) {
        if self.paths.is_empty() {
            return;
        }
        let uniform = 1.0 / self.paths.len() as f64;
        for p in &mut self.paths {
            p.weight += rho.clamp(0.0, 1.0) * (uniform - p.weight);
        }
        self.normalize();
    }

    /// Pick the next port (smooth WRR). Returns `None` when empty.
    pub fn pick(&mut self) -> Option<u16> {
        if self.paths.is_empty() {
            return None;
        }
        let total: f64 = self.paths.iter().map(|p| p.weight).sum();
        for p in &mut self.paths {
            p.credit += p.weight;
        }
        // Strictly-greater keeps ties resolved by lowest index: deterministic.
        let mut best = 0usize;
        for (idx, p) in self.paths.iter().enumerate().skip(1) {
            if p.credit > self.paths[best].credit {
                best = idx;
            }
        }
        self.paths[best].credit -= total;
        Some(self.paths[best].port)
    }

    /// Normalize weights to sum to 1 (keeps floats bounded over long runs);
    /// enforces a small floor so no path is starved forever.
    fn normalize(&mut self) {
        if self.paths.is_empty() {
            return;
        }
        for p in &mut self.paths {
            if !p.weight.is_finite() || p.weight < WEIGHT_FLOOR {
                p.weight = WEIGHT_FLOOR;
            }
        }
        let total: f64 = self.paths.iter().map(|p| p.weight).sum();
        for p in &mut self.paths {
            p.weight /= total;
        }
    }

    /// Account one data-path transmission toward `dst` at `now` and judge
    /// how long its feedback loop has been silent: past `stale_horizon` the
    /// destination is [`LadderRung::Stale`], past [`DEAD_HORIZON`]
    /// [`LadderRung::Dead`]. Never-heard is *not* stale — there is nothing
    /// learned to distrust yet — and silence only accumulates while we keep
    /// transmitting: a tx gap past the stale horizon restarts the clock
    /// rather than aging the learned state. A rung change is traced.
    pub fn on_tx(&mut self, now: Time, stale_horizon: Duration, trace: &Trace, dst: HostId) -> LadderRung {
        if now.saturating_since(self.last_tx) > stale_horizon {
            self.silence_base = now;
        }
        self.last_tx = now;
        let age = self.feedback_age(now).map(|a| a.min(now.saturating_since(self.silence_base)));
        let rung = match age {
            Some(a) if a > DEAD_HORIZON => LadderRung::Dead,
            Some(a) if a > stale_horizon => LadderRung::Stale,
            _ => LadderRung::Fresh,
        };
        if rung != self.rung {
            trace.ladder_transition(now.0, dst.0, self.rung, rung);
            self.rung = rung;
        }
        rung
    }

    /// On the stale rung, forget toward uniform: decay the weights by
    /// [`STALE_RHO`], at most once per [`STALE_DECAY_INTERVAL`] — the decay
    /// runs lazily on the data path, so a burst of packets must not
    /// fast-forward it. Returns whether a step ran.
    pub fn stale_decay(&mut self, now: Time) -> bool {
        let due = self.rung == LadderRung::Stale && now.saturating_since(self.last_stale_decay) >= STALE_DECAY_INTERVAL;
        if due {
            self.last_stale_decay = now;
            self.decay_toward_uniform(STALE_RHO);
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
