//! Receiver-side feedback collection and rate-limited relay.
//!
//! The destination hypervisor observes, per (source hypervisor, outer
//! source port): CE marks (Clove-ECN) or the max INT utilization along the
//! forward path (Clove-INT). It relays one observation at a time in the STT
//! context bits of reverse traffic, rate-limited per path by
//! `relay_interval` — the paper's "ECN relay frequency", recommended at half
//! the RTT, and deliberately coarser than per-packet to avoid over-reacting
//! to bursts (paper §3.2).

use clove_net::packet::Feedback;
use clove_sim::{Duration, Time};
use std::collections::BTreeMap;

/// What the destination hypervisor measures and relays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackMode {
    /// Relay nothing (ECMP / Edge-Flowlet / Presto deployments).
    None,
    /// Relay per-path CE marks (Clove-ECN).
    Ecn,
    /// Relay per-path max INT utilization (Clove-INT).
    Util,
}

#[derive(Debug, Clone, Copy)]
struct PathObservation {
    /// CE seen since the last relay.
    congested: bool,
    /// Max utilization per-mille since the last relay.
    util_pm: u16,
    /// When this path last had an observation relayed (`None`: never —
    /// a new path's first observation relays immediately).
    last_relay: Option<Time>,
    /// Whether anything new arrived since the last relay.
    dirty: bool,
}

/// Per-source-hypervisor feedback state at the destination hypervisor.
#[derive(Debug)]
pub struct FeedbackCollector {
    mode: FeedbackMode,
    relay_interval: Duration,
    /// Keyed by outer source port (the path identifier); ordered so the
    /// round-robin relay scan needs no per-call sort or allocation.
    paths: BTreeMap<u16, PathObservation>,
    /// Round-robin cursor over due ports, for fairness.
    cursor: usize,
}

impl FeedbackCollector {
    /// A collector relaying `mode` observations at most once per
    /// `relay_interval` per path.
    pub fn new(mode: FeedbackMode, relay_interval: Duration) -> FeedbackCollector {
        FeedbackCollector { mode, relay_interval, paths: BTreeMap::new(), cursor: 0 }
    }

    /// Record an arriving data packet's observations for path `sport`.
    pub fn observe(&mut self, sport: u16, ce: bool, util_pm: Option<u16>) {
        if self.mode == FeedbackMode::None {
            return;
        }
        let obs = self.paths.entry(sport).or_insert(PathObservation { congested: false, util_pm: 0, last_relay: None, dirty: false });
        obs.congested |= ce;
        if let Some(u) = util_pm {
            obs.util_pm = obs.util_pm.max(u);
        }
        obs.dirty = true;
    }

    /// Pop at most one feedback entry that is due for relay. Called when a
    /// reverse packet is about to be encapsulated; resets the chosen path's
    /// accumulators.
    pub fn take_due(&mut self, now: Time) -> Option<Feedback> {
        if self.mode == FeedbackMode::None || self.paths.is_empty() {
            return None;
        }
        // BTreeMap iteration is in port order; for round-robin fairness
        // the first due path at or after `cursor`, cyclically, goes next.
        let n = self.paths.len();
        let start = self.cursor % n;
        let relay_interval = self.relay_interval;
        let due = |obs: &PathObservation| obs.dirty && obs.last_relay.is_none_or(|t| now.saturating_since(t) >= relay_interval);
        let (k, (&port, obs)) = self.paths.iter_mut().enumerate().filter(|(_, (_, obs))| due(obs)).min_by_key(|&(k, _)| (k + n - start) % n)?;
        let fb = match self.mode {
            FeedbackMode::Ecn => Feedback::Ecn { sport: port, congested: obs.congested },
            FeedbackMode::Util => Feedback::Util { sport: port, util_pm: obs.util_pm },
            FeedbackMode::None => unreachable!("checked on entry"),
        };
        *obs = PathObservation { congested: false, util_pm: 0, last_relay: Some(now), dirty: false };
        self.cursor = (k + 1) % n;
        Some(fb)
    }

    /// Number of paths with observations.
    pub fn tracked_paths(&self) -> usize {
        self.paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector(mode: FeedbackMode) -> FeedbackCollector {
        FeedbackCollector::new(mode, Duration::from_micros(100))
    }

    #[test]
    fn none_mode_collects_nothing() {
        let mut c = collector(FeedbackMode::None);
        c.observe(5, true, None);
        assert_eq!(c.tracked_paths(), 0);
        assert!(c.take_due(Time::from_secs(1)).is_none());
    }

    #[test]
    fn ecn_relayed_once_per_interval() {
        let mut c = collector(FeedbackMode::Ecn);
        c.observe(5, true, None);
        // First take: due (never relayed).
        let fb = c.take_due(Time::from_micros(200)).unwrap();
        assert_eq!(fb, Feedback::Ecn { sport: 5, congested: true });
        // Immediately after: nothing dirty.
        assert!(c.take_due(Time::from_micros(201)).is_none());
        // New observation, but inside the relay interval: suppressed.
        c.observe(5, true, None);
        assert!(c.take_due(Time::from_micros(210)).is_none());
        // After the interval: relayed.
        let fb2 = c.take_due(Time::from_micros(301)).unwrap();
        assert_eq!(fb2, Feedback::Ecn { sport: 5, congested: true });
    }

    #[test]
    fn uncongested_state_also_relayed() {
        // The ecnSet bit can be false — "path is fine" is information too.
        let mut c = collector(FeedbackMode::Ecn);
        c.observe(9, false, None);
        let fb = c.take_due(Time::from_micros(100)).unwrap();
        assert_eq!(fb, Feedback::Ecn { sport: 9, congested: false });
    }

    #[test]
    fn congested_bit_accumulates_until_relay() {
        let mut c = collector(FeedbackMode::Ecn);
        c.observe(5, true, None);
        c.observe(5, false, None);
        // A single CE inside the window marks the whole relay.
        let fb = c.take_due(Time::from_micros(150)).unwrap();
        assert_eq!(fb, Feedback::Ecn { sport: 5, congested: true });
        // After relay, the bit resets.
        c.observe(5, false, None);
        let fb2 = c.take_due(Time::from_micros(300)).unwrap();
        assert_eq!(fb2, Feedback::Ecn { sport: 5, congested: false });
    }

    #[test]
    fn util_relays_running_max() {
        let mut c = collector(FeedbackMode::Util);
        c.observe(7, false, Some(300));
        c.observe(7, false, Some(800));
        c.observe(7, false, Some(500));
        let fb = c.take_due(Time::from_micros(100)).unwrap();
        assert_eq!(fb, Feedback::Util { sport: 7, util_pm: 800 });
    }

    #[test]
    fn round_robin_across_paths() {
        let mut c = collector(FeedbackMode::Ecn);
        for p in [1u16, 2, 3] {
            c.observe(p, false, None);
        }
        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.push(c.take_due(Time::from_micros(100)).unwrap().sport());
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3]);
        assert!(c.take_due(Time::from_micros(101)).is_none());
    }

    #[test]
    fn relay_order_rotates_from_the_cursor_and_wraps() {
        let mut c = collector(FeedbackMode::Ecn);
        let mut order = Vec::new();
        let take = |c: &mut FeedbackCollector, us: u64| c.take_due(Time::from_micros(us)).map(|fb| fb.sport());
        for p in [10u16, 20, 30, 40] {
            c.observe(p, false, None);
        }
        order.extend([take(&mut c, 100), take(&mut c, 100)]);
        // 10 is dirty again but inside its relay interval: 30 goes next.
        c.observe(10, false, None);
        order.push(take(&mut c, 150));
        c.observe(20, false, None);
        // Due: 10, 20 (before the cursor) and 40 (at it). 40 first, then wrap.
        order.extend([take(&mut c, 250), take(&mut c, 250), take(&mut c, 250), take(&mut c, 250)]);
        // The cursor now sits on 30; the only due path is behind it.
        c.observe(10, false, None);
        order.push(take(&mut c, 400));
        let want = [Some(10), Some(20), Some(30), Some(40), Some(10), Some(20), None, Some(10)];
        assert_eq!(order, want);
    }
}
