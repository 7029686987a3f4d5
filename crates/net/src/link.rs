//! Directed links: the queueing heart of the simulator.
//!
//! A [`Link`] models one direction of a cable attached to an egress port:
//! a FIFO drop-tail byte-bounded queue, a transmitter that serializes one
//! packet at a time at the line rate, fixed propagation delay, ECN marking
//! when the *standing queue* exceeds a threshold (the switch-feature Clove
//! relies on, paper §3.2), and a [`Dre`] utilization estimator (CONGA / INT).
//!
//! The link itself schedules no events — [`crate::fabric`] drives it with
//! `offer` / `settle_into` calls and owns the event queue. Transmission is
//! *arrive-driven*: when a packet's serialization starts, its delivery event
//! (`done + PROP_DELAY`) is emitted immediately, and the rest of the queue is
//! committed lazily by [`Link::settle_into`], which drains every packet whose
//! serialization has started by `now` in one back-to-back batch. No per-packet
//! `TxDone` event exists; a queue of N packets costs N arrival events total
//! rather than 2N scheduler round-trips. Because every state change that can
//! affect serialization (rate degrade, cable pull, loss injection) settles the
//! link first, each packet is committed under exactly the link state that was
//! in force when its serialization started, so the lazy schedule is
//! byte-identical to the eager one.
//!
//! ## Copy contract
//!
//! A packet is 128 bytes and crosses a link on every hop, so the link never
//! takes one by value on the hot path. [`Link::offer`] borrows the caller's
//! packet (marks land in the caller's copy) and [`Link::settle_into`] lends
//! each committed packet to a `FnMut(Time, &Packet)` sink straight out of the
//! FIFO. Every place a packet comes to rest is therefore reached by exactly
//! one clone and no by-value stop in between: caller's copy → FIFO when the
//! transmitter is busy, caller's copy → sink when it is idle, FIFO slot →
//! sink when a settle commits it (the fabric's sink builds the
//! `Event::Arrive` it pushes around that clone). There is one admission and
//! one settle implementation; [`Link::enqueue`] and
//! [`Link::settle`] are the same routines with a `Vec`-collecting sink, kept
//! for callers that own their packets (unit tests, the benchmark's link
//! kernel).

use crate::dre::Dre;
use crate::packet::Packet;
use crate::types::{LinkId, NodeId};
use clove_sim::{Duration, Time};
use std::collections::VecDeque;

/// Propagation delay of every link.
pub const PROP_DELAY: Duration = Duration::from_micros(1);

/// The parameters of a link direction that runs vary.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// Drop-tail buffer capacity in bytes.
    pub buffer_bytes: u32,
    /// ECN marking threshold in bytes of standing queue (the paper and
    /// DCTCP recommend ~20 MTU-sized packets).
    pub ecn_threshold_bytes: u32,
    /// Whether this link's switch stamps INT utilization into packets.
    pub int_enabled: bool,
}

impl LinkConfig {
    /// A link at `rate_bps` with a 256 KB buffer, a 30 KB ECN threshold
    /// (20 × 1500 B) and no INT. The harness sets the buffer, the ECN
    /// threshold and the INT flag.
    pub fn for_rate(rate_bps: u64) -> LinkConfig {
        LinkConfig { rate_bps, buffer_bytes: 256 * 1024, ecn_threshold_bytes: 30_000, int_enabled: false }
    }
}

/// Counters exposed for experiments and assertions.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Packets fully transmitted.
    pub tx_packets: u64,
    /// Bytes fully transmitted.
    pub tx_bytes: u64,
    /// Packets dropped: buffer overflow.
    pub drops_overflow: u64,
    /// Packets dropped: link administratively down.
    pub drops_down: u64,
    /// Packets dropped by injected stochastic loss (fault injection).
    pub drops_loss: u64,
    /// Packets that received a CE mark here.
    pub ecn_marks: u64,
    /// High-water mark of the queue in bytes.
    pub max_queue_bytes: u32,
    /// Cumulative time spent down (closed intervals only; see
    /// [`Link::down_time_as_of`] for the live total).
    pub down_time: Duration,
    /// Cumulative time spent degraded — reduced rate or loss injected
    /// (closed intervals only; see [`Link::degraded_time_as_of`]).
    pub degraded_time: Duration,
}

/// What `enqueue` did with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Queued (possibly CE-marked); transmitter already busy. The packet is
    /// committed — and its delivery emitted — by a later [`Link::settle`].
    Queued,
    /// The transmitter was idle: serialization started at `now` and the
    /// packet's delivery event was emitted into the caller's scratch.
    StartedTx {
        /// When serialization of this packet completes.
        done_at: Time,
    },
    /// Dropped (full buffer or link down).
    Dropped,
}

/// One direction of a cable. See module docs.
#[derive(Debug)]
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Static parameters.
    pub cfg: LinkConfig,
    /// Administrative and physical state.
    pub up: bool,
    /// The opposite direction of this cable (set by topology builders);
    /// HULA probes use it to read utilization in the data direction.
    pub reverse: Option<LinkId>,
    /// Utilization estimator.
    pub dre: Dre,
    /// Counters.
    pub stats: LinkStats,
    queue: VecDeque<Packet>,
    queue_bytes: u32,
    /// The committed packet on the wire: `(serialization done, size)`. Its
    /// delivery event was emitted when serialization started; only the tx
    /// accounting and the hand-off to the next queued packet remain, both
    /// performed by [`Link::settle`] once `done ≤ now`.
    in_flight: Option<(Time, u32)>,
    /// Fraction of nominal line rate available (fault injection; 1.0 =
    /// healthy).
    rate_fraction: f64,
    /// `cfg.rate_bps × rate_fraction`, recomputed only when the fraction
    /// changes so the per-packet serialization time is integer-only.
    effective_rate_bps: u64,
    /// Stochastic per-packet drop probability (fault injection; applied by
    /// the fabric, which owns the RNG — the link just stores the rate).
    loss_rate: f64,
    /// Start of the current down interval, if down.
    down_since: Option<Time>,
    /// Start of the current degraded interval, if degraded.
    degraded_since: Option<Time>,
}

impl Link {
    /// Create an idle, up link.
    pub fn new(id: LinkId, from: NodeId, to: NodeId, cfg: LinkConfig) -> Link {
        Link {
            id,
            from,
            to,
            up: true,
            reverse: None,
            dre: Dre::new(cfg.rate_bps),
            stats: LinkStats::default(),
            queue: VecDeque::new(),
            queue_bytes: 0,
            in_flight: None,
            rate_fraction: 1.0,
            effective_rate_bps: scaled_rate(cfg.rate_bps, 1.0),
            loss_rate: 0.0,
            down_since: None,
            degraded_since: None,
            cfg,
        }
    }

    /// Standing queue length in bytes as of the last settle (excludes the
    /// packet on the wire).
    pub fn queue_bytes(&self) -> u32 {
        self.queue_bytes
    }

    /// Number of queued packets as of the last settle (excludes the packet
    /// on the wire).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True if the transmitter was serializing a packet as of the last
    /// settle.
    pub fn busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// The line rate currently available, after any injected degradation.
    pub fn effective_rate_bps(&self) -> u64 {
        self.effective_rate_bps
    }

    /// Time to serialize `bytes` on this link at its *effective* rate.
    pub fn ser_time(&self, bytes: u32) -> Duration {
        Duration::for_bytes_at(bytes as u64, self.effective_rate_bps)
    }

    /// Current injected stochastic loss rate (0.0 when healthy).
    pub fn loss_rate(&self) -> f64 {
        self.loss_rate
    }

    /// Current fraction of nominal line rate (1.0 when healthy).
    pub fn rate_fraction(&self) -> f64 {
        self.rate_fraction
    }

    /// True if [`settle_into`] at `now` would change state — the in-flight
    /// packet's serialization has completed. Lets callers skip the call on
    /// idle or still-busy links without touching the queue.
    ///
    /// [`settle_into`]: Link::settle_into
    pub fn needs_settle(&self, now: Time) -> bool {
        self.in_flight.is_some_and(|(done, _)| done <= now)
    }

    /// Bring the transmitter up to date with the simulated clock: retire
    /// every in-flight packet whose serialization completed by `now` and
    /// commit the queued packets whose serialization therefore started, in
    /// one back-to-back batch. Each committed packet's delivery is handed to
    /// `commit` as `(arrival_time, &packet)` in FIFO order — always `≥ now`,
    /// because the predecessor's delivery (which triggers this settle) lands
    /// exactly one propagation delay after its serialization finished. The
    /// packet is lent out of the FIFO slot it is about to leave; the sink
    /// clones it into wherever it goes next.
    ///
    /// Called before any read or mutation that depends on transmitter
    /// state: admission, DRE reads at path choice, fault application, and
    /// final stats collection.
    pub fn settle_into(&mut self, now: Time, commit: &mut impl FnMut(Time, &Packet)) {
        while let Some((done, size)) = self.in_flight {
            if done > now {
                break;
            }
            self.in_flight = None;
            self.stats.tx_packets += 1;
            self.stats.tx_bytes += size as u64;
            let Some(next) = self.queue.front() else { break };
            // The next packet's serialization started the instant the
            // previous one finished — commit it under the current link
            // state (every rate change settles first, so that state is the
            // one in force at `done`).
            let next_done = done + self.ser_time(next.size);
            self.queue_bytes -= next.size;
            self.dre.on_transmit(done, next.size);
            self.in_flight = Some((next_done, next.size));
            commit(next_done + PROP_DELAY, next);
            self.queue.pop_front();
        }
    }

    /// [`Link::settle_into`] collecting the deliveries into `out` as
    /// `(arrival_time, packet)`.
    pub fn settle(&mut self, now: Time, out: &mut Vec<(Time, Packet)>) {
        self.settle_into(now, &mut |at, pkt| out.push((at, pkt.clone())));
    }

    /// Offer a packet to this egress port at `now`.
    ///
    /// Settles first, then applies admission (drop-tail), ECN marking, and
    /// INT stamping — the marks are written to the caller's packet. If the
    /// transmitter is idle the packet starts serializing immediately and its
    /// delivery is handed to `commit` (after any backlog the settle
    /// committed); otherwise a copy waits in the queue for a later settle to
    /// commit it.
    pub fn offer(&mut self, now: Time, pkt: &mut Packet, commit: &mut impl FnMut(Time, &Packet)) -> EnqueueOutcome {
        self.settle_into(now, commit);
        if !self.up {
            self.stats.drops_down += 1;
            return EnqueueOutcome::Dropped;
        }
        if self.queue_bytes.saturating_add(pkt.size) > self.cfg.buffer_bytes {
            self.stats.drops_overflow += 1;
            return EnqueueOutcome::Dropped;
        }
        // ECN: mark on enqueue if the standing queue already exceeds the
        // threshold and the packet is ECN-capable.
        if pkt.ect && self.queue_bytes >= self.cfg.ecn_threshold_bytes {
            if !pkt.ce {
                self.stats.ecn_marks += 1;
            }
            pkt.ce = true;
        }
        // INT: stamp the running max of this egress link's utilization.
        if self.cfg.int_enabled {
            let u = self.dre.utilization_pm(now);
            pkt.int_util_pm = Some(pkt.int_util_pm.map_or(u, |prev| prev.max(u)));
        }
        if self.in_flight.is_none() {
            debug_assert!(self.queue.is_empty());
            let done_at = now + self.ser_time(pkt.size);
            self.dre.on_transmit(now, pkt.size);
            self.in_flight = Some((done_at, pkt.size));
            commit(done_at + PROP_DELAY, pkt);
            EnqueueOutcome::StartedTx { done_at }
        } else {
            self.queue_bytes += pkt.size;
            self.stats.max_queue_bytes = self.stats.max_queue_bytes.max(self.queue_bytes);
            self.queue.push_back(pkt.clone());
            EnqueueOutcome::Queued
        }
    }

    /// [`Link::offer`] for a caller that owns the packet, collecting the
    /// deliveries into `out` as `(arrival_time, packet)`.
    pub fn enqueue(&mut self, now: Time, mut pkt: Packet, out: &mut Vec<(Time, Packet)>) -> EnqueueOutcome {
        self.offer(now, &mut pkt, &mut |at, pkt| out.push((at, pkt.clone())))
    }

    /// Administratively set link state, with down-time accounting against
    /// the simulated clock so reports can show how long each link was dark.
    /// Taking the link down flushes the uncommitted queue (packets are lost,
    /// as with a real cable pull); the packet currently on the wire is
    /// allowed to arrive. Callers settle first so "uncommitted" means
    /// exactly the packets whose serialization had not started.
    pub fn set_up_at(&mut self, now: Time, up: bool) {
        if up {
            if let Some(since) = self.down_since.take() {
                self.stats.down_time += now.saturating_since(since);
            }
        } else if self.up && self.down_since.is_none() {
            self.down_since = Some(now);
        }
        self.up = up;
        if !up {
            self.stats.drops_down += self.queue.len() as u64;
            self.queue.clear();
            self.queue_bytes = 0;
        }
    }

    /// Degrade (or restore, with 1.0) the line rate. Affects packets whose
    /// serialization starts after this call; the one on the wire finishes
    /// at its old rate. Callers settle first so every packet that started
    /// earlier is already committed at the old rate.
    pub fn set_rate_fraction(&mut self, now: Time, fraction: f64) {
        assert!(fraction > 0.0 && fraction <= 1.0, "rate fraction must be in (0, 1], got {fraction}");
        self.rate_fraction = fraction;
        self.effective_rate_bps = scaled_rate(self.cfg.rate_bps, fraction);
        self.update_degraded(now);
    }

    /// Set (or clear, with 0.0) the injected stochastic loss rate.
    pub fn set_loss_rate(&mut self, now: Time, rate: f64) {
        assert!((0.0..1.0).contains(&rate), "loss rate must be in [0, 1), got {rate}");
        self.loss_rate = rate;
        self.update_degraded(now);
    }

    fn update_degraded(&mut self, now: Time) {
        let degraded = self.rate_fraction < 1.0 || self.loss_rate > 0.0;
        if degraded {
            if self.degraded_since.is_none() {
                self.degraded_since = Some(now);
            }
        } else if let Some(since) = self.degraded_since.take() {
            self.stats.degraded_time += now.saturating_since(since);
        }
    }

    /// Total down time as of `now`, including a still-open interval.
    pub fn down_time_as_of(&self, now: Time) -> Duration {
        self.stats.down_time + self.down_since.map_or(Duration::ZERO, |s| now.saturating_since(s))
    }

    /// Total degraded time as of `now`, including a still-open interval.
    pub fn degraded_time_as_of(&self, now: Time) -> Duration {
        self.stats.degraded_time + self.degraded_since.map_or(Duration::ZERO, |s| now.saturating_since(s))
    }
}

/// `fraction` of a nominal line rate, never below 1 bit/s.
fn scaled_rate(rate_bps: u64, fraction: f64) -> u64 {
    ((rate_bps as f64 * fraction) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::types::{FlowKey, HostId, SwitchId};

    fn cfg() -> LinkConfig {
        LinkConfig {
            rate_bps: 1_000_000_000, // 1 Gbps: 1500 B = 12 us
            buffer_bytes: 6000,
            ecn_threshold_bytes: 3000,
            int_enabled: false,
        }
    }

    fn link() -> Link {
        Link::new(LinkId(0), NodeId::Switch(SwitchId(0)), NodeId::Host(HostId(0)), cfg())
    }

    fn pkt(uid: u64, size: u32) -> Packet {
        let mut p = Packet::new(uid, size, FlowKey::tcp(HostId(0), HostId(1), 1, 2), PacketKind::Data { seq: 0, len: size, dsn: 0 });
        p.ect = true;
        p
    }

    #[test]
    fn idle_link_starts_transmission() {
        let mut l = link();
        let mut out = Vec::new();
        match l.enqueue(Time::ZERO, pkt(1, 1500), &mut out) {
            EnqueueOutcome::StartedTx { done_at } => assert_eq!(done_at, Time::from_micros(12)),
            other => panic!("{other:?}"),
        }
        assert!(l.busy());
        assert_eq!(l.queue_len(), 0);
        // The delivery (done + prop) is emitted at start time.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Time::from_micros(13));
        assert_eq!(out[0].1.uid, 1);
    }

    #[test]
    fn busy_link_queues_then_chains() {
        let mut l = link();
        let mut out = Vec::new();
        assert!(matches!(l.enqueue(Time::ZERO, pkt(1, 1500), &mut out), EnqueueOutcome::StartedTx { .. }));
        assert_eq!(l.enqueue(Time::ZERO, pkt(2, 1500), &mut out), EnqueueOutcome::Queued);
        assert_eq!(l.queue_bytes(), 1500);
        // Packet 1 arrives at 13 us; settling there retires it and commits
        // packet 2 back-to-back (starts at 12, done 24, arrives 25).
        out.clear();
        l.settle(Time::from_micros(13), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Time::from_micros(25));
        assert_eq!(out[0].1.uid, 2);
        assert_eq!(l.queue_bytes(), 0);
        out.clear();
        l.settle(Time::from_micros(25), &mut out);
        assert!(out.is_empty());
        assert!(!l.busy());
        assert_eq!(l.stats.tx_packets, 2);
        assert_eq!(l.stats.tx_bytes, 3000);
    }

    #[test]
    fn settle_drains_whole_backlog_back_to_back() {
        let mut l = link();
        let mut out = Vec::new();
        for i in 0..4 {
            l.enqueue(Time::ZERO, pkt(i, 1500), &mut out);
        }
        assert_eq!(out.len(), 1, "only the started packet is committed");
        // One settle far in the future commits the whole chain: packets
        // depart every 12 us, arrivals 1 us after each departure.
        out.clear();
        l.settle(Time::from_millis(1), &mut out);
        let got: Vec<(u64, u64)> = out.iter().map(|(t, p)| (t.as_nanos() / 1000, p.uid)).collect();
        assert_eq!(got, vec![(25, 1), (37, 2), (49, 3)]);
        assert_eq!(l.stats.tx_packets, 4);
        assert!(!l.busy());
        assert_eq!(l.queue_bytes(), 0);
    }

    #[test]
    fn drop_tail_on_overflow() {
        let mut l = link();
        let mut out = Vec::new();
        // 1 in flight + 4 queued fills 6000-byte buffer.
        for i in 0..5 {
            assert_ne!(l.enqueue(Time::ZERO, pkt(i, 1500), &mut out), EnqueueOutcome::Dropped);
        }
        assert_eq!(l.enqueue(Time::ZERO, pkt(9, 1500), &mut out), EnqueueOutcome::Dropped);
        assert_eq!(l.stats.drops_overflow, 1);
    }

    #[test]
    fn ecn_marks_above_threshold_only_ect() {
        let mut l = link();
        let mut out = Vec::new();
        // First packet in flight; two queued puts queue at 3000 = threshold.
        l.enqueue(Time::ZERO, pkt(0, 1500), &mut out);
        l.enqueue(Time::ZERO, pkt(1, 1500), &mut out);
        l.enqueue(Time::ZERO, pkt(2, 1500), &mut out);
        // Fourth packet sees queue_bytes = 3000 >= 3000: marked.
        l.enqueue(Time::ZERO, pkt(3, 1500), &mut out);
        // Non-ECT packet is never marked.
        let mut non_ect = pkt(4, 100);
        non_ect.ect = false;
        l.enqueue(Time::ZERO, non_ect, &mut out);
        out.clear();
        l.settle(Time::from_millis(1), &mut out);
        let marked: Vec<(u64, bool)> = out.iter().map(|(_, p)| (p.uid, p.ce)).collect();
        assert_eq!(marked, vec![(1, false), (2, false), (3, true), (4, false)]);
        assert_eq!(l.stats.ecn_marks, 1);
    }

    #[test]
    fn int_stamps_running_max() {
        let mut c = cfg();
        c.int_enabled = true;
        let mut l = Link::new(LinkId(0), NodeId::Switch(SwitchId(0)), NodeId::Host(HostId(0)), c);
        let mut p = pkt(1, 1500);
        p.int_util_pm = Some(700);
        let mut out = Vec::new();
        // Link idle: utilization ~0, running max stays 700.
        match l.enqueue(Time::ZERO, p, &mut out) {
            EnqueueOutcome::StartedTx { .. } => {}
            o => panic!("{o:?}"),
        }
        assert_eq!(out[0].1.int_util_pm, Some(700));
    }

    #[test]
    fn down_link_drops_and_flushes() {
        let mut l = link();
        let mut out = Vec::new();
        l.enqueue(Time::ZERO, pkt(1, 1500), &mut out);
        l.enqueue(Time::ZERO, pkt(2, 1500), &mut out);
        l.set_up_at(Time::ZERO, false);
        assert_eq!(l.queue_len(), 0);
        assert_eq!(l.enqueue(Time::ZERO, pkt(3, 1500), &mut out), EnqueueOutcome::Dropped);
        assert_eq!(l.stats.drops_down, 2);
        // The in-flight packet still completes (its delivery was emitted at
        // start); settling past its done time books the tx and ends there.
        out.clear();
        l.settle(Time::from_micros(12), &mut out);
        assert!(out.is_empty());
        assert_eq!(l.stats.tx_packets, 1);
        assert!(!l.busy());
    }

    #[test]
    fn max_queue_high_water_mark() {
        let mut l = link();
        let mut out = Vec::new();
        for i in 0..4 {
            l.enqueue(Time::ZERO, pkt(i, 1000), &mut out);
        }
        assert_eq!(l.stats.max_queue_bytes, 3000);
    }

    #[test]
    fn down_up_lifecycle_resumes_traffic() {
        let mut l = link();
        let mut out = Vec::new();
        // Busy link with one queued packet, then a cable pull.
        l.enqueue(Time::ZERO, pkt(1, 1500), &mut out);
        l.enqueue(Time::ZERO, pkt(2, 1500), &mut out);
        l.set_up_at(Time::from_micros(5), false);
        // Queue flushed into drops_down; offers while down also drop.
        assert_eq!(l.queue_len(), 0);
        assert_eq!(l.enqueue(Time::from_micros(6), pkt(3, 1500), &mut out), EnqueueOutcome::Dropped);
        assert_eq!(l.stats.drops_down, 2);
        // The in-flight packet still completes.
        out.clear();
        l.settle(Time::from_micros(12), &mut out);
        assert!(out.is_empty());
        assert_eq!(l.stats.tx_packets, 1);
        // Back up: traffic flows again from a clean queue.
        l.set_up_at(Time::from_micros(105), true);
        match l.enqueue(Time::from_micros(110), pkt(4, 1500), &mut out) {
            EnqueueOutcome::StartedTx { done_at } => {
                assert_eq!(done_at, Time::from_micros(110) + Duration::from_micros(12));
            }
            other => panic!("{other:?}"),
        }
        l.settle(Time::from_micros(122), &mut out);
        assert_eq!(l.stats.tx_packets, 2);
        assert_eq!(l.stats.drops_down, 2, "no further down drops after recovery");
        assert_eq!(l.stats.down_time, Duration::from_micros(100));
    }

    #[test]
    fn rate_degrade_stretches_serialization_and_is_timed() {
        let mut l = link();
        let mut out = Vec::new();
        l.set_rate_fraction(Time::from_micros(10), 0.5);
        // Half rate: 1500 B now takes 24 us instead of 12.
        match l.enqueue(Time::from_micros(10), pkt(1, 1500), &mut out) {
            EnqueueOutcome::StartedTx { done_at } => {
                assert_eq!(done_at, Time::from_micros(34));
            }
            other => panic!("{other:?}"),
        }
        l.settle(Time::from_micros(34), &mut out);
        // Restore closes the degraded interval.
        l.set_rate_fraction(Time::from_micros(50), 1.0);
        assert_eq!(l.stats.degraded_time, Duration::from_micros(40));
        assert_eq!(l.degraded_time_as_of(Time::from_micros(99)), Duration::from_micros(40));
        match l.enqueue(Time::from_micros(60), pkt(2, 1500), &mut out) {
            EnqueueOutcome::StartedTx { done_at } => assert_eq!(done_at, Time::from_micros(72)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ser_time_follows_the_cached_effective_rate() {
        let mut l = link();
        let nominal = l.ser_time(1500);
        assert_eq!(l.effective_rate_bps(), 1_000_000_000);
        assert_eq!(nominal, Duration::from_micros(12));
        l.set_rate_fraction(Time::from_micros(1), 0.3);
        assert_eq!(l.effective_rate_bps(), (1e9 * 0.3) as u64);
        for bytes in [0, 64, 1500, 9000, u32::MAX] {
            assert_eq!(l.ser_time(bytes), Duration::for_bytes_at(bytes as u64, l.effective_rate_bps()));
        }
        assert!(l.ser_time(1500) > nominal * 3);
        l.set_rate_fraction(Time::from_micros(2), 1.0);
        assert_eq!(l.effective_rate_bps(), 1_000_000_000);
        assert_eq!(l.ser_time(1500), nominal);
    }

    #[test]
    fn offer_marks_the_callers_packet_and_settle_lends_in_fifo_order() {
        let mut l = link();
        let mut delivered = Vec::new();
        let mut sink = |at: Time, p: &Packet| delivered.push((at, p.uid, p.ce));
        // One on the wire, two queued: the standing queue reaches the ECN
        // threshold, so the fourth offer is marked — in the caller's copy.
        for uid in 0..3 {
            l.offer(Time::ZERO, &mut pkt(uid, 1500), &mut sink);
        }
        let mut fourth = pkt(3, 1500);
        assert_eq!(l.offer(Time::ZERO, &mut fourth, &mut sink), EnqueueOutcome::Queued);
        assert!(fourth.ce);
        assert_eq!(l.queue_len(), 3);
        // Settling lends each queued packet to the sink in FIFO order.
        l.settle_into(Time::from_millis(1), &mut sink);
        assert_eq!(l.queue_len(), 0);
        let us = Time::from_micros;
        assert_eq!(delivered, vec![(us(13), 0, false), (us(25), 1, false), (us(37), 2, false), (us(49), 3, true)]);
    }

    #[test]
    fn settle_before_rate_change_commits_at_old_rate() {
        let mut l = link();
        let mut out = Vec::new();
        l.enqueue(Time::ZERO, pkt(1, 1500), &mut out); // done 12
        l.enqueue(Time::ZERO, pkt(2, 1500), &mut out); // starts at 12
                                                       // Fault at t = 15: the fabric settles first, so packet 2 (started
                                                       // at 12, under the old full rate) is committed with done = 24 ...
        out.clear();
        l.settle(Time::from_micros(15), &mut out);
        assert_eq!(out[0].0, Time::from_micros(25));
        l.set_rate_fraction(Time::from_micros(15), 0.5);
        // ... and only a packet starting after the change is stretched.
        out.clear();
        l.settle(Time::from_micros(24), &mut out);
        match l.enqueue(Time::from_micros(30), pkt(3, 1500), &mut out) {
            EnqueueOutcome::StartedTx { done_at } => assert_eq!(done_at, Time::from_micros(54)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loss_rate_counts_as_degraded_until_cleared() {
        let mut l = link();
        l.set_loss_rate(Time::from_micros(5), 0.01);
        assert_eq!(l.loss_rate(), 0.01);
        assert_eq!(l.degraded_time_as_of(Time::from_micros(15)), Duration::from_micros(10));
        l.set_loss_rate(Time::from_micros(25), 0.0);
        assert_eq!(l.stats.degraded_time, Duration::from_micros(20));
        assert_eq!(l.degraded_time_as_of(Time::from_micros(99)), Duration::from_micros(20));
    }

    #[test]
    fn open_down_interval_visible_in_as_of() {
        let mut l = link();
        l.set_up_at(Time::from_micros(10), false);
        assert_eq!(l.down_time_as_of(Time::from_micros(35)), Duration::from_micros(25));
        // Redundant downs don't reset the interval start.
        l.set_up_at(Time::from_micros(20), false);
        assert_eq!(l.down_time_as_of(Time::from_micros(35)), Duration::from_micros(25));
    }
}
