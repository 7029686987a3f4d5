//! Path discovery using traceroute (paper §3.1).
//!
//! For each destination hypervisor with active traffic, the daemon
//! periodically sends probes with randomized encapsulation source ports;
//! each probe is repeated with TTL = 1, 2, ..., diameter. A switch where a
//! probe's TTL expires returns a time-exceeded reply naming itself and the
//! ingress interface, so the replies for one source port assemble into a
//! *path signature* (the ordered list of traversed interfaces). Because
//! probes carry the same outer five-tuple as data with that source port,
//! ECMP routes them identically.
//!
//! From the signatures, the daemon greedily selects [`K_PATHS`] ports:
//! repeatedly add the candidate path sharing the fewest links with those
//! already picked (the paper's heuristic for distinct — ideally disjoint —
//! paths).
//!
//! The daemon is sans-IO: [`ProbeDaemon::start_round`] returns probe
//! packets for the caller to transmit, [`ProbeDaemon::on_reply`] consumes
//! replies, and [`ProbeDaemon::finish_round`] (driven by a host timer)
//! closes the round and yields the selected ports. Rounds repeat every
//! `probe_interval`, so topology changes are re-learned automatically —
//! the reaction time the paper ties to the probing frequency (§4).

use clove_net::packet::{Encap, Packet, PacketKind, PROBE_SIZE};
use clove_net::types::{FlowKey, HostId, LinkId, SwitchId};
use clove_sim::{Duration, SimRng, Time};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;

/// Randomized candidate source ports probed per round.
pub const CANDIDATES: usize = 24;
/// Paths (ports) handed to the load-balancing policy.
pub const K_PATHS: usize = 4;
/// Maximum TTL probed (network diameter in switch hops).
pub const MAX_TTL: u8 = 4;
/// How long a round waits for replies before it closes.
pub const ROUND_TIMEOUT: Duration = Duration::from_millis(1);
/// Bottom of the ephemeral port range probes draw from.
pub const PORT_BASE: u16 = 49152;
/// Size of the ephemeral port range.
pub const PORT_SPAN: u16 = 16000;
/// Consecutive rounds a *selected* port may yield a truncated (or absent)
/// trace before it is declared black-holed and evicted.
pub const BLACKHOLE_ROUNDS: u32 = 3;
/// Extra attempts when a round closes with zero replies (probe or reply
/// loss ate the whole round).
pub const MAX_RETRIES: u32 = 2;
/// Base delay before the first retry; attempt `n` waits
/// `RETRY_BACKOFF × 2^(n-1)` plus jitter (exponential backoff).
pub const RETRY_BACKOFF: Duration = Duration::from_millis(1);
/// Jitter fraction added to each backoff delay: the actual wait is uniform
/// in `[backoff, backoff × (1 + jitter)]` so retrying daemons don't
/// synchronize.
pub const BACKOFF_JITTER: f64 = 0.25;
/// Upper bound on unanswered probes in flight across all destinations — a
/// lossy fabric must not let the daemon flood the network.
pub const MAX_OUTSTANDING: usize = 1024;

// The selection is drawn from the candidates, each of which needs its own
// source port; a black hole needs at least one silent round; the jitter is
// a fraction; tracing a single path needs one probe per TTL step.
const _: () = assert!(0 < K_PATHS && K_PATHS <= CANDIDATES && CANDIDATES <= PORT_SPAN as usize);
const _: () = assert!(BLACKHOLE_ROUNDS >= 1);
const _: () = assert!(0.0 <= BACKOFF_JITTER && BACKOFF_JITTER < 1.0);
const _: () = assert!(MAX_OUTSTANDING >= MAX_TTL as usize);

/// One hop of a path signature: (hop switch, ingress interface).
pub type Hop = (SwitchId, LinkId);

#[derive(Debug, Default)]
struct Round {
    /// probe_id → candidate sport.
    probes: FxHashMap<u64, u16>,
    /// sport → hops by TTL.
    traces: FxHashMap<u16, BTreeMap<u8, Hop>>,
    open: bool,
    /// Probes emitted this round still awaiting a reply (budget tracking).
    unanswered: usize,
    /// Retry attempts consumed for the current probing interval.
    attempt: u32,
}

/// Something the caller must act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscoveryEvent {
    /// A fresh port selection for a destination: install into the policy.
    PathsUpdated {
        /// Destination hypervisor.
        dst: HostId,
        /// Selected outer source ports, one per distinct path.
        ports: Vec<u16>,
    },
    /// A selected port was declared black-holed (its traces stayed
    /// truncated for [`BLACKHOLE_ROUNDS`] consecutive rounds): the policy
    /// must stop scheduling flowlets onto it immediately.
    PathDead {
        /// Destination hypervisor.
        dst: HostId,
        /// The evicted outer source port.
        port: u16,
    },
}

/// Daemon counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscoveryStats {
    /// Probe packets produced.
    pub probes_sent: u64,
    /// Replies consumed.
    pub replies: u64,
    /// Rounds completed.
    pub rounds: u64,
    /// Selected ports evicted as black-holed.
    pub paths_evicted: u64,
    /// Rounds re-probed after closing with zero replies.
    pub round_retries: u64,
    /// Rounds abandoned because their state vanished mid-start (should
    /// never happen; counted instead of aborting the simulation).
    pub rounds_aborted: u64,
    /// Probes withheld by the outstanding-probe budget.
    pub probes_suppressed: u64,
}

/// The per-hypervisor traceroute daemon. See module docs.
pub struct ProbeDaemon {
    /// The hypervisor this daemon runs on.
    pub host: HostId,
    /// Time between rounds per destination.
    probe_interval: Duration,
    rng: SimRng,
    rounds: FxHashMap<HostId, Round>,
    /// Last selection per destination (inspection / idempotent updates).
    selections: FxHashMap<HostId, Vec<u16>>,
    /// Consecutive truncated-trace rounds per selected (dst, port).
    silence: FxHashMap<(HostId, u16), u32>,
    /// Unanswered probes in flight across all destinations.
    outstanding: usize,
    next_probe_id: u64,
    uid_counter: u64,
    /// Counters.
    pub stats: DiscoveryStats,
}

impl ProbeDaemon {
    /// Build a daemon for `host` that probes each destination every
    /// `probe_interval`.
    pub fn new(host: HostId, probe_interval: Duration, seed: u64) -> ProbeDaemon {
        ProbeDaemon {
            host,
            probe_interval,
            rng: SimRng::new(seed ^ ((host.0 as u64) << 32) ^ 0xD15C),
            rounds: FxHashMap::default(),
            selections: FxHashMap::default(),
            silence: FxHashMap::default(),
            outstanding: 0,
            next_probe_id: (host.0 as u64) << 40,
            uid_counter: 0,
            stats: DiscoveryStats::default(),
        }
    }

    /// The hypervisor cold-restarted: drop every learned selection, open
    /// round, and black-hole counter — the daemon starts re-discovery from
    /// scratch on its next scheduled round. Deliberately *kept*: the RNG
    /// stream and the probe-id/uid counters (replies to pre-crash probes
    /// may still be in flight, and reusing a probe id or packet uid would
    /// let them corrupt post-crash rounds), plus the cumulative stats.
    pub fn cold_restart(&mut self) {
        self.rounds.clear();
        self.selections.clear();
        self.silence.clear();
        self.outstanding = 0;
    }

    /// The probing interval (callers schedule rounds on this cadence).
    pub fn probe_interval(&self) -> Duration {
        self.probe_interval
    }

    /// The last selection made for `dst`.
    pub fn selection(&self, dst: HostId) -> Option<&[u16]> {
        self.selections.get(&dst).map(|v| v.as_slice())
    }

    /// Open a probing round toward `dst`: returns the probe packets to
    /// transmit ([`CANDIDATES`] × [`MAX_TTL`] of them). The currently-selected
    /// ports are always among the candidates — re-probing them is what
    /// lets [`ProbeDaemon::finish_round`] detect a selected port that has
    /// started black-holing traffic.
    pub fn start_round(&mut self, dst: HostId) -> Vec<Packet> {
        {
            let round = self.rounds.entry(dst).or_default();
            // Probes of the superseded round will never be answered:
            // return their budget before opening the new round.
            self.outstanding = self.outstanding.saturating_sub(round.unanswered);
            round.probes.clear();
            round.traces.clear();
            round.unanswered = 0;
            round.open = true;
        }
        // Current selection first, then distinct random candidate ports.
        let mut ports: Vec<u16> = self.selections.get(&dst).cloned().unwrap_or_default();
        ports.truncate(CANDIDATES);
        while ports.len() < CANDIDATES {
            let p = PORT_BASE + self.rng.below(PORT_SPAN as u64) as u16;
            if !ports.contains(&p) {
                ports.push(p);
            }
        }
        let mut out = Vec::with_capacity(ports.len() * MAX_TTL as usize);
        let mut entries: Vec<(u64, u16)> = Vec::with_capacity(out.capacity());
        'ports: for &sport in &ports {
            for ttl in 1..=MAX_TTL {
                // Bounded outstanding-probe budget: under heavy loss the
                // unanswered backlog grows; stop emitting rather than
                // flooding (selected ports were queued first, so they are
                // the last to be suppressed).
                if self.outstanding + out.len() >= MAX_OUTSTANDING {
                    let remaining = ports.len() * MAX_TTL as usize - out.len();
                    self.stats.probes_suppressed += remaining as u64;
                    break 'ports;
                }
                self.next_probe_id += 1;
                let probe_id = self.next_probe_id;
                entries.push((probe_id, sport));
                self.uid_counter += 1;
                let mut pkt = Packet::new(
                    ((self.host.0 as u64) << 44) | self.uid_counter,
                    PROBE_SIZE,
                    FlowKey::tcp(self.host, dst, sport, clove_net::types::STT_PORT),
                    PacketKind::Probe { probe_id, ttl_sent: ttl },
                );
                pkt.outer = Some(Encap { src: self.host, dst, sport });
                pkt.ttl = ttl;
                out.push(pkt);
            }
        }
        // The round was (re)created above, but if it vanished anyway, log
        // and send nothing rather than aborting the whole simulation.
        let Some(round) = self.rounds.get_mut(&dst) else {
            self.stats.rounds_aborted += 1;
            return Vec::new();
        };
        round.probes.extend(entries);
        round.unanswered += out.len();
        self.outstanding += out.len();
        self.stats.probes_sent += out.len() as u64;
        out
    }

    /// Consume a time-exceeded reply.
    pub fn on_reply(&mut self, probe_id: u64, ttl_sent: u8, switch: SwitchId, ingress: Option<LinkId>) {
        self.stats.replies += 1;
        for round in self.rounds.values_mut() {
            if !round.open {
                continue;
            }
            if let Some(&sport) = round.probes.get(&probe_id) {
                round.unanswered = round.unanswered.saturating_sub(1);
                self.outstanding = self.outstanding.saturating_sub(1);
                let hop = (switch, ingress.unwrap_or(LinkId(u32::MAX)));
                round.traces.entry(sport).or_default().insert(ttl_sent, hop);
                return;
            }
        }
        // Reply for a closed/unknown round: stale, drop silently.
    }

    /// Close the round for `dst` like [`ProbeDaemon::finish_round`] — but
    /// when the round collected *zero* replies (probe or reply loss ate
    /// all of it) and retry budget remains, returns `Err(backoff)`
    /// instead: the caller should re-open the round (via
    /// [`ProbeDaemon::start_round`]) after that delay rather than waiting
    /// out a full probe interval on dead state. The backoff is
    /// exponential per attempt with deterministic jitter drawn from the
    /// daemon's seeded RNG.
    pub fn finish_round_or_retry(&mut self, now: Time, dst: HostId) -> Result<Vec<DiscoveryEvent>, Duration> {
        let retry = match self.rounds.get_mut(&dst) {
            Some(round) if round.open && round.traces.is_empty() && round.attempt < MAX_RETRIES => {
                round.attempt += 1;
                // Close the attempt; start_round re-opens and reclaims the
                // unanswered budget.
                round.open = false;
                Some(round.attempt)
            }
            _ => None,
        };
        match retry {
            Some(attempt) => {
                self.stats.round_retries += 1;
                let base = RETRY_BACKOFF * (1u64 << (attempt - 1).min(16));
                let jitter = base.mul_f64(BACKOFF_JITTER * self.rng.f64());
                Err(base + jitter)
            }
            None => Ok(self.finish_round(now, dst)),
        }
    }

    /// Unanswered probes currently in flight (budget introspection).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Close the round for `dst` and compute the port selection from the
    /// replies gathered so far. Returns the events the caller must act on,
    /// in order: first any [`DiscoveryEvent::PathDead`] evictions, then at
    /// most one [`DiscoveryEvent::PathsUpdated`] with the new selection.
    /// Empty if no round was open or nothing changed and no trace arrived.
    ///
    /// Black-hole detection: a probe whose path crosses a silently-dead
    /// link still gets its early-TTL replies (the first switches are
    /// reachable), then nothing — so a black-holed port shows up as a
    /// *truncated* trace, shorter than the longest trace observed in the
    /// same round. A selected port that stays truncated (or yields no
    /// trace at all) for [`BLACKHOLE_ROUNDS`] consecutive rounds is evicted.
    ///
    /// Selection is *sticky*: selected ports that traced healthily stay
    /// selected (so policy state learned about them survives), and the
    /// greedy-disjoint heuristic only tops the set back up to [`K_PATHS`].
    pub fn finish_round(&mut self, _now: Time, dst: HostId) -> Vec<DiscoveryEvent> {
        let mut events = Vec::new();
        let Some(round) = self.rounds.get_mut(&dst) else {
            return events;
        };
        if !round.open {
            return events;
        }
        round.open = false;
        // Unanswered probes are written off: return their budget.
        self.outstanding = self.outstanding.saturating_sub(round.unanswered);
        round.unanswered = 0;
        round.attempt = 0;
        self.stats.rounds += 1;
        // Build signatures: ordered hop list per candidate port, tagged
        // with the deepest TTL that answered. Health is judged on *depth*,
        // not signature length: a trace with a lost mid-TTL reply still
        // proves the path reaches the deepest tier (partial-round
        // acceptance under reply loss), while a truncated trace — nothing
        // past some early hop — is the black-hole signature.
        let mut candidates: Vec<(u16, u8, Vec<Hop>)> = round
            .traces
            .iter()
            .map(|(&sport, hops)| (sport, hops.keys().max().copied().unwrap_or(0), hops.values().copied().collect()))
            .filter(|(_, _, sig): &(u16, u8, Vec<Hop>)| !sig.is_empty())
            .collect();
        candidates.sort_by_key(|&(sport, _, _)| sport); // determinism
        let full_depth = candidates.iter().map(|&(_, depth, _)| depth).max().unwrap_or(0);
        let healthy: Vec<(u16, Vec<Hop>)> = candidates.iter().filter(|&&(_, depth, _)| depth == full_depth).map(|(p, _, sig)| (*p, sig.clone())).collect();
        // Silence bookkeeping for the current selection: healthy traces
        // clear the counter, truncated/missing ones advance it; a port at
        // the threshold is evicted, the rest stay on benefit of the doubt.
        let prev = self.selections.get(&dst).cloned().unwrap_or_default();
        let mut kept: Vec<u16> = Vec::new();
        for &port in &prev {
            if healthy.iter().any(|&(p, _)| p == port) {
                self.silence.remove(&(dst, port));
                kept.push(port);
                continue;
            }
            let n = self.silence.entry((dst, port)).or_insert(0);
            *n += 1;
            if *n >= BLACKHOLE_ROUNDS {
                self.silence.remove(&(dst, port));
                self.stats.paths_evicted += 1;
                events.push(DiscoveryEvent::PathDead { dst, port });
            } else {
                kept.push(port);
            }
        }
        if candidates.is_empty() {
            // Destination unreachable this round (or startup race): no new
            // selection, but evictions above still shrink the current one.
            if kept != prev {
                self.selections.insert(dst, kept);
            }
            return events;
        }
        let ports = greedy_disjoint_keeping(&healthy, K_PATHS, &kept);
        self.silence.retain(|&(d, p), _| d != dst || ports.contains(&p));
        self.selections.insert(dst, ports.clone());
        events.push(DiscoveryEvent::PathsUpdated { dst, ports });
        events
    }
}

/// The paper's heuristic: greedily add the candidate whose path shares the
/// fewest links with the union of already-picked paths; skip candidates
/// whose signature duplicates a picked one unless nothing else remains.
#[cfg(test)]
fn greedy_disjoint(candidates: &[(u16, Vec<Hop>)], k: usize) -> Vec<u16> {
    greedy_disjoint_keeping(candidates, k, &[])
}

/// [`greedy_disjoint`] seeded with an already-selected `keep` set (sticky
/// selection across rounds). Kept ports enter the selection first — even
/// when absent from this round's candidates (a suspect port still on
/// benefit of the doubt) — and their signatures count toward the
/// shared-link penalty of new picks, so top-ups steer away from them.
fn greedy_disjoint_keeping(candidates: &[(u16, Vec<Hop>)], k: usize, keep: &[u16]) -> Vec<u16> {
    let mut out: Vec<u16> = Vec::new();
    let mut picked: Vec<usize> = Vec::new();
    let mut picked_links: Vec<Hop> = Vec::new();
    let mut picked_sigs: Vec<&Vec<Hop>> = Vec::new();
    for &port in keep {
        if out.len() >= k {
            break;
        }
        out.push(port);
        if let Some(idx) = candidates.iter().position(|&(p, _)| p == port) {
            picked.push(idx);
            picked_links.extend(candidates[idx].1.iter().copied());
            picked_sigs.push(&candidates[idx].1);
        }
    }
    while out.len() < k && picked.len() < candidates.len() {
        let mut best: Option<(usize, usize, bool)> = None; // (idx, shared, dup)
        for (idx, (port, sig)) in candidates.iter().enumerate() {
            if picked.contains(&idx) || out.contains(port) {
                continue;
            }
            let shared = sig.iter().filter(|h| picked_links.contains(h)).count();
            let dup = picked_sigs.contains(&sig);
            let better = match best {
                None => true,
                // Prefer non-duplicates, then fewest shared links.
                Some((_, bshared, bdup)) => (dup, shared) < (bdup, bshared),
            };
            if better {
                best = Some((idx, shared, dup));
            }
        }
        let Some((idx, _, dup)) = best else { break };
        // Stop adding once only duplicate paths remain and we already have
        // at least one path: more ports on the same path add nothing.
        if dup && !out.is_empty() {
            break;
        }
        picked.push(idx);
        picked_links.extend(candidates[idx].1.iter().copied());
        picked_sigs.push(&candidates[idx].1);
        out.push(candidates[idx].0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn daemon() -> ProbeDaemon {
        ProbeDaemon::new(HostId(0), Duration::from_millis(100), 7)
    }

    fn sig(hops: &[(u32, u32)]) -> Vec<Hop> {
        hops.iter().map(|&(s, l)| (SwitchId(s), LinkId(l))).collect()
    }

    /// Drive a complete round: every probe is answered (or not) by
    /// `reply(sport, ttl)`, mimicking the fabric.
    fn run_round(d: &mut ProbeDaemon, dst: HostId, t: Time, reply: impl Fn(u16, u8) -> Option<Hop>) -> Vec<DiscoveryEvent> {
        let probes = d.start_round(dst);
        for p in &probes {
            let PacketKind::Probe { probe_id, ttl_sent } = p.kind else { unreachable!() };
            let sport = p.outer.unwrap().sport;
            if let Some((sw, link)) = reply(sport, ttl_sent) {
                d.on_reply(probe_id, ttl_sent, sw, Some(link));
            }
        }
        d.finish_round(t + Duration::from_millis(2), dst)
    }

    /// A two-spine fabric: sport parity picks the spine. The first hop
    /// (source leaf) is shared by every path, like a real leaf-spine pod.
    /// `dead_parity` makes that spine's leaf→spine link a silent black
    /// hole: replies stop after the first hop.
    fn parity_fabric(dead_parity: Option<u16>) -> impl Fn(u16, u8) -> Option<Hop> {
        move |sport, ttl| {
            let q = (sport % 2) as u32;
            if Some(sport % 2) == dead_parity && ttl >= 2 {
                return None; // probe died entering the dead spine
            }
            match ttl {
                1 => Some((SwitchId(1), LinkId(1))),
                2 => Some((SwitchId(10 + q), LinkId(100 + q))),
                3 => Some((SwitchId(2), LinkId(200 + q))),
                _ => None,
            }
        }
    }

    #[test]
    fn round_produces_candidates_times_ttl_probes() {
        let mut d = daemon();
        let probes = d.start_round(HostId(1));
        assert_eq!(probes.len(), 24 * 4);
        // All probes are encapsulated toward the destination with stepped TTL.
        for p in &probes {
            let e = p.outer.expect("encapsulated");
            assert_eq!(e.dst, HostId(1));
            match p.kind {
                PacketKind::Probe { ttl_sent, .. } => assert_eq!(p.ttl, ttl_sent),
                _ => panic!("not a probe"),
            }
        }
        // 24 distinct sports.
        let mut sports: Vec<u16> = probes.iter().map(|p| p.outer.unwrap().sport).collect();
        sports.sort_unstable();
        sports.dedup();
        assert_eq!(sports.len(), 24);
    }

    #[test]
    fn replies_assemble_into_selection() {
        let mut d = daemon();
        let probes = d.start_round(HostId(1));
        // Simulate: sport parity decides path A or B (two distinct paths).
        for p in &probes {
            let PacketKind::Probe { probe_id, ttl_sent } = p.kind else { unreachable!() };
            let sport = p.outer.unwrap().sport;
            let path = (sport % 2) as u32;
            // Hop identities depend on path and ttl.
            d.on_reply(probe_id, ttl_sent, SwitchId(path * 10 + ttl_sent as u32), Some(LinkId(path * 100 + ttl_sent as u32)));
        }
        let evs = d.finish_round(Time::from_millis(2), HostId(1));
        assert_eq!(evs.len(), 1);
        let DiscoveryEvent::PathsUpdated { dst, ports } = evs.into_iter().next().unwrap() else { panic!("expected PathsUpdated") };
        assert_eq!(dst, HostId(1));
        // Only two distinct paths exist: selection stops at 2.
        assert_eq!(ports.len(), 2);
        assert_ne!(ports[0] % 2, ports[1] % 2, "one port per distinct path");
        assert_eq!(d.selection(HostId(1)).unwrap(), &ports[..]);
    }

    #[test]
    fn no_replies_yields_none() {
        let mut d = daemon();
        d.start_round(HostId(1));
        assert!(d.finish_round(Time::from_millis(2), HostId(1)).is_empty());
    }

    #[test]
    fn finish_without_round_is_none() {
        let mut d = daemon();
        assert!(d.finish_round(Time::ZERO, HostId(9)).is_empty());
    }

    #[test]
    fn stale_replies_ignored() {
        let mut d = daemon();
        let probes = d.start_round(HostId(1));
        d.finish_round(Time::from_millis(2), HostId(1));
        let PacketKind::Probe { probe_id, ttl_sent } = probes[0].kind else { unreachable!() };
        d.on_reply(probe_id, ttl_sent, SwitchId(1), Some(LinkId(1)));
        // The reply landed after close: no new selection appears.
        assert!(d.finish_round(Time::from_millis(3), HostId(1)).is_empty());
    }

    #[test]
    fn greedy_prefers_disjoint() {
        // Four candidates: two on path A, one on B, one sharing a link
        // with A.
        let candidates = vec![
            (100u16, sig(&[(1, 1), (2, 2), (3, 3)])), // A
            (101, sig(&[(1, 1), (2, 2), (3, 3)])),    // A duplicate
            (102, sig(&[(1, 4), (5, 5), (3, 6)])),    // B disjoint
            (103, sig(&[(1, 1), (7, 8), (3, 9)])),    // shares (1,1) with A
        ];
        let picked = greedy_disjoint(&candidates, 3);
        assert_eq!(picked.len(), 3);
        assert!(picked.contains(&100), "first candidate picked");
        assert!(picked.contains(&102), "disjoint path picked");
        assert!(picked.contains(&103), "least-overlapping picked over duplicate");
    }

    #[test]
    fn greedy_stops_at_duplicates() {
        let candidates = vec![(100u16, sig(&[(1, 1)])), (101, sig(&[(1, 1)])), (102, sig(&[(1, 1)]))];
        let picked = greedy_disjoint(&candidates, 4);
        assert_eq!(picked, vec![100], "identical paths add nothing");
    }

    #[test]
    fn greedy_respects_k() {
        let candidates: Vec<(u16, Vec<Hop>)> = (0..10).map(|i| (100 + i as u16, sig(&[(i, i), (i + 50, i + 50)]))).collect();
        assert_eq!(greedy_disjoint(&candidates, 4).len(), 4);
    }

    #[test]
    fn new_round_resets_traces() {
        let mut d = daemon();
        let probes = d.start_round(HostId(1));
        let PacketKind::Probe { probe_id, ttl_sent } = probes[0].kind else { unreachable!() };
        d.on_reply(probe_id, ttl_sent, SwitchId(1), Some(LinkId(1)));
        // Restart before finishing: old replies are discarded.
        d.start_round(HostId(1));
        assert!(d.finish_round(Time::from_millis(12), HostId(1)).is_empty());
    }

    #[test]
    fn selection_is_reprobed_and_sticky() {
        let mut d = daemon();
        let dst = HostId(1);
        let evs = run_round(&mut d, dst, Time::ZERO, parity_fabric(None));
        let DiscoveryEvent::PathsUpdated { ports, .. } = evs[0].clone() else { panic!() };
        assert_eq!(ports.len(), 2);
        // The next round re-probes the selected ports...
        let probes = d.start_round(dst);
        let sports: Vec<u16> = probes.iter().map(|p| p.outer.unwrap().sport).collect();
        for &p in &ports {
            assert!(sports.contains(&p), "selected port {p} not re-probed");
        }
        // ...and a healthy round keeps the same selection (sticky).
        for p in &probes {
            let PacketKind::Probe { probe_id, ttl_sent } = p.kind else { unreachable!() };
            if let Some((sw, link)) = parity_fabric(None)(p.outer.unwrap().sport, ttl_sent) {
                d.on_reply(probe_id, ttl_sent, sw, Some(link));
            }
        }
        let evs = d.finish_round(Time::from_millis(52), dst);
        let DiscoveryEvent::PathsUpdated { ports: again, .. } = evs[0].clone() else { panic!() };
        assert_eq!(again, ports, "healthy selection must not churn");
    }

    #[test]
    fn blackholed_port_evicted_after_n_rounds() {
        let mut d = daemon();
        let dst = HostId(1);
        run_round(&mut d, dst, Time::ZERO, parity_fabric(None));
        let sel = d.selection(dst).unwrap().to_vec();
        let dead = *sel.iter().find(|p| *p % 2 == 0).expect("an even-parity port selected");
        // The even spine silently dies: its traces truncate at hop 1.
        let mut evicted_at = None;
        for round in 1..=4u64 {
            let t = Time::from_millis(50 * round);
            let evs = run_round(&mut d, dst, t, parity_fabric(Some(0)));
            if evs.contains(&DiscoveryEvent::PathDead { dst, port: dead }) {
                evicted_at = Some(round);
                break;
            }
            // Until eviction, the suspect port stays selected (sticky).
            assert!(d.selection(dst).unwrap().contains(&dead));
        }
        assert_eq!(evicted_at, Some(3), "evicted exactly at blackhole_rounds");
        assert!(!d.selection(dst).unwrap().contains(&dead));
        assert_eq!(d.stats.paths_evicted, 1);
        // Every port now selected is on the live parity.
        assert!(d.selection(dst).unwrap().iter().all(|p| p % 2 == 1));
    }

    #[test]
    fn healthy_round_resets_silence() {
        let mut d = daemon();
        let dst = HostId(1);
        run_round(&mut d, dst, Time::ZERO, parity_fabric(None));
        let dead = *d.selection(dst).unwrap().iter().find(|p| *p % 2 == 0).unwrap();
        // Two truncated rounds (one short of the threshold), then recovery.
        run_round(&mut d, dst, Time::from_millis(50), parity_fabric(Some(0)));
        run_round(&mut d, dst, Time::from_millis(100), parity_fabric(Some(0)));
        run_round(&mut d, dst, Time::from_millis(150), parity_fabric(None));
        // Two more truncated rounds must NOT evict: the counter restarted.
        run_round(&mut d, dst, Time::from_millis(200), parity_fabric(Some(0)));
        let evs = run_round(&mut d, dst, Time::from_millis(250), parity_fabric(Some(0)));
        assert!(evs.iter().all(|e| !matches!(e, DiscoveryEvent::PathDead { .. })));
        assert!(d.selection(dst).unwrap().contains(&dead));
        assert_eq!(d.stats.paths_evicted, 0);
    }

    #[test]
    fn evicted_path_readopted_after_recovery() {
        let mut d = daemon();
        let dst = HostId(1);
        run_round(&mut d, dst, Time::ZERO, parity_fabric(None));
        for round in 1..=3u64 {
            run_round(&mut d, dst, Time::from_millis(50 * round), parity_fabric(Some(0)));
        }
        assert!(d.selection(dst).unwrap().iter().all(|p| p % 2 == 1));
        // The spine comes back: the next healthy round re-adopts the path.
        run_round(&mut d, dst, Time::from_millis(400), parity_fabric(None));
        assert!(d.selection(dst).unwrap().iter().any(|p| p % 2 == 0), "recovered path re-adopted: {:?}", d.selection(dst));
    }

    #[test]
    fn empty_round_retries_with_exponential_backoff() {
        let mut d = daemon();
        let dst = HostId(1);
        // All probes vanish: the first two closes ask for a retry.
        d.start_round(dst);
        let b1 = d.finish_round_or_retry(Time::from_millis(2), dst).expect_err("first retry");
        d.start_round(dst);
        let b2 = d.finish_round_or_retry(Time::from_millis(5), dst).expect_err("second retry");
        // Exponential: the second backoff's floor is twice the first's.
        let base = RETRY_BACKOFF;
        assert!(b1 >= base && b1 <= base.mul_f64(1.25), "b1 = {b1:?}");
        assert!(b2 >= base * 2 && b2 <= (base * 2).mul_f64(1.25), "b2 = {b2:?}");
        // Retry budget (max_retries = 2) exhausted: the round completes.
        d.start_round(dst);
        let evs = d.finish_round_or_retry(Time::from_millis(10), dst).expect("gives up after max_retries");
        assert!(evs.is_empty());
        assert_eq!(d.stats.round_retries, 2);
        // A fresh interval starts the ladder over.
        d.start_round(dst);
        assert!(d.finish_round_or_retry(Time::from_millis(52), dst).is_err());
        assert_eq!(d.stats.round_retries, 3);
    }

    #[test]
    fn round_with_replies_never_retries() {
        let mut d = daemon();
        let dst = HostId(1);
        let probes = d.start_round(dst);
        let PacketKind::Probe { probe_id, ttl_sent } = probes[0].kind else { unreachable!() };
        d.on_reply(probe_id, ttl_sent, SwitchId(1), Some(LinkId(1)));
        assert!(d.finish_round_or_retry(Time::from_millis(2), dst).is_ok());
        assert_eq!(d.stats.round_retries, 0);
    }

    #[test]
    fn mid_trace_reply_loss_does_not_disqualify_path() {
        // Port A loses its TTL-2 reply but answers at TTL 3 — the path
        // demonstrably reaches the deepest tier, so it stays healthy.
        let mut d = daemon();
        let dst = HostId(1);
        let evs = run_round(&mut d, dst, Time::ZERO, |sport, ttl| {
            let q = (sport % 2) as u32;
            if sport % 2 == 0 && ttl == 2 {
                return None; // lost mid-trace reply, not a black hole
            }
            match ttl {
                1 => Some((SwitchId(1), LinkId(1))),
                2 => Some((SwitchId(10 + q), LinkId(100 + q))),
                3 => Some((SwitchId(2), LinkId(200 + q))),
                _ => None,
            }
        });
        let DiscoveryEvent::PathsUpdated { ports, .. } = evs[0].clone() else { panic!() };
        assert_eq!(ports.len(), 2, "both parities selected: {ports:?}");
        assert_ne!(ports[0] % 2, ports[1] % 2);
    }

    #[test]
    fn outstanding_budget_caps_probes_in_flight() {
        let mut d = daemon();
        let per_round = CANDIDATES * MAX_TTL as usize;
        // Whole rounds toward distinct destinations up to the budget...
        let full = MAX_OUTSTANDING / per_round;
        for dst in 1..=full as u32 {
            assert_eq!(d.start_round(HostId(dst)).len(), per_round);
        }
        assert_eq!(d.stats.probes_suppressed, 0);
        // ...then the next destination's round stops at the budget.
        let last = HostId(full as u32 + 1);
        let probes = d.start_round(last);
        let room = MAX_OUTSTANDING - full * per_round;
        assert_eq!(probes.len(), room, "emission stops at the budget");
        assert_eq!(d.outstanding(), MAX_OUTSTANDING);
        assert_eq!(d.stats.probes_suppressed, (per_round - room) as u64);
        // Replies free budget...
        for p in &probes {
            let PacketKind::Probe { probe_id, ttl_sent } = p.kind else { unreachable!() };
            d.on_reply(probe_id, ttl_sent, SwitchId(1), Some(LinkId(1)));
        }
        assert_eq!(d.outstanding(), MAX_OUTSTANDING - room);
        // ...and closing a round writes off its unanswered probes.
        d.finish_round(Time::from_millis(2), HostId(1));
        assert_eq!(d.outstanding(), MAX_OUTSTANDING - room - per_round);
        assert_eq!(d.start_round(HostId(1)).len(), per_round);
        assert_eq!(d.outstanding(), MAX_OUTSTANDING - room);
    }

    #[test]
    fn superseded_round_returns_its_budget() {
        let mut d = daemon();
        let per_round = CANDIDATES * MAX_TTL as usize;
        // Fill the budget to within one round of its cap...
        let full = MAX_OUTSTANDING / per_round;
        for dst in 1..=full as u32 {
            d.start_round(HostId(dst));
        }
        assert_eq!(d.outstanding(), full * per_round);
        // ...then restart every round without finishing it: each restart
        // returns the old round's budget, so none is suppressed and the
        // total never grows.
        for _ in 0..3 {
            for dst in 1..=full as u32 {
                assert_eq!(d.start_round(HostId(dst)).len(), per_round);
            }
        }
        assert_eq!(d.outstanding(), full * per_round);
        assert_eq!(d.stats.probes_suppressed, 0);
    }

    #[test]
    fn cold_restart_forgets_selections_but_not_probe_ids() {
        let mut d = daemon();
        let dst = HostId(1);
        run_round(&mut d, dst, Time::ZERO, parity_fabric(None));
        assert!(d.selection(dst).is_some());
        let probes_before = d.start_round(dst);
        let max_id_before = probes_before
            .iter()
            .map(|p| match p.kind {
                PacketKind::Probe { probe_id, .. } => probe_id,
                _ => unreachable!(),
            })
            .max()
            .unwrap();
        d.cold_restart();
        // Learned state is gone and the outstanding budget is reset...
        assert_eq!(d.selection(dst), None);
        assert_eq!(d.outstanding(), 0);
        // ...but probe ids never go backwards: a stale pre-crash reply can
        // never be mistaken for a post-crash probe's answer.
        let probes_after = d.start_round(dst);
        for p in &probes_after {
            let PacketKind::Probe { probe_id, .. } = p.kind else { unreachable!() };
            assert!(probe_id > max_id_before, "probe id reused across restart");
        }
        // A stale reply for a pre-crash probe is dropped silently.
        let PacketKind::Probe { probe_id, ttl_sent } = probes_before[0].kind else { unreachable!() };
        d.on_reply(probe_id, ttl_sent, SwitchId(1), Some(LinkId(1)));
        // And re-discovery works from scratch.
        for p in &probes_after {
            let PacketKind::Probe { probe_id, ttl_sent } = p.kind else { unreachable!() };
            if let Some((sw, link)) = parity_fabric(None)(p.outer.unwrap().sport, ttl_sent) {
                d.on_reply(probe_id, ttl_sent, sw, Some(link));
            }
        }
        let evs = d.finish_round(Time::from_millis(102), dst);
        assert!(matches!(evs.last(), Some(DiscoveryEvent::PathsUpdated { .. })), "{evs:?}");
    }
}
