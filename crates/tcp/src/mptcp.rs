//! Multipath TCP: the paper's host-based baseline.
//!
//! MPTCP v0.89 (as deployed on the testbed, paper §5) splits a connection
//! into `k` subflows with distinct five-tuples; ECMP then routes each
//! subflow independently (possibly colliding — the paper's p99 story).
//! This model reproduces the properties the evaluation depends on:
//!
//! * **Static subflow→path binding** — subflows get fixed inner source
//!   ports at creation; their paths never change (unlike Clove flowlets).
//! * **Data-level sequencing** — a chunk assigned to a stalled subflow
//!   head-of-line-blocks connection-level delivery, which is why MPTCP's
//!   tail FCTs suffer when all subflows hash onto congested paths
//!   (Figure 5c).
//! * **Lowest-RTT-first scheduling** with per-subflow windows.
//! * **LIA coupled congestion control** (Wischik et al., NSDI '11) so the
//!   aggregate is fair but shifts load toward less-congested subflows.
//! * **Synchronized subflow ramp-up** — all subflows slow-start at once,
//!   producing the incast burstiness of Figure 7.
//!
//! Loss recovery per subflow is a simplified NewReno (fast retransmit on
//! three dup-acks, go-back-N on RTO) over the subflow sequence space, with
//! a subflow-seq → data-seq map so retransmissions carry the same data.

use crate::config::{wire_size, HEADER_OVERHEAD, INIT_CWND, MAX_CWND_BYTES, MSS};
use crate::receiver::{Arrival, ReceiveCursor};
use crate::sender::{JobCompletion, JobQueue, RtoTimer};
use clove_net::packet::{Packet, PacketKind};
use clove_net::types::FlowKey;
use clove_sim::{Duration, Time};
use std::collections::BTreeMap;

/// Per-subflow sender state.
#[derive(Debug)]
pub struct Subflow {
    /// The subflow's own five-tuple (distinct inner source port).
    pub key: FlowKey,
    snd_una: u64,
    snd_nxt: u64,
    cwnd: u64,
    ssthresh: u64,
    /// Whether the subflow is in (fast or timeout) recovery.
    pub in_recovery: bool,
    /// `snd_nxt` when recovery was entered (NewReno exit point).
    pub recover: u64,
    dup_acks: u32,
    /// subflow_seq → (dsn, len): what data each subflow byte range carries.
    map: BTreeMap<u64, (u64, u32)>,
    timer: RtoTimer,
}

impl Subflow {
    fn new(key: FlowKey) -> Subflow {
        Subflow {
            key,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: INIT_CWND,
            ssthresh: u64::MAX / 2,
            in_recovery: false,
            recover: 0,
            dup_acks: 0,
            map: BTreeMap::new(),
            timer: RtoTimer::new(),
        }
    }

    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// RTT estimate (the scheduler's key) and retransmission timer.
    pub fn timer(&self) -> &RtoTimer {
        &self.timer
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Highest cumulative subflow-level ack.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next new subflow byte to assign.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    fn emit(&mut self, now: Time, seq: u64, dsn: u64, len: u32, is_rtx: bool, out: &mut Vec<Packet>) {
        self.timer.on_send(now, seq + len as u64, is_rtx);
        out.push(Packet::new(0, wire_size(len), self.key, PacketKind::Data { seq, len, dsn }));
    }

    /// Retransmit the mapped chunk covering `seq`. Returns false when no
    /// mapping covers it (nothing is sent).
    fn retransmit_at(&mut self, now: Time, seq: u64, out: &mut Vec<Packet>) -> bool {
        if let Some((&mseq, &(dsn, len))) = self.map.range(..=seq).next_back() {
            // The mapping entry covering `seq` (chunks are contiguous).
            if mseq <= seq && seq < mseq + len as u64 {
                self.emit(now, mseq, dsn, len, true, out);
                return true;
            }
        }
        false
    }
}

/// MPTCP connection counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MptcpStats {
    /// Retransmissions across all subflows.
    pub retransmits: u64,
    /// RTO firings across all subflows.
    pub timeouts: u64,
}

/// The sender side of an MPTCP connection.
#[derive(Debug)]
pub struct MptcpConnection {
    /// All subflows.
    pub subflows: Vec<Subflow>,
    data_next: u64, // next dsn to assign to a subflow
    data_una: u64,  // cumulative data-level ack
    stream_len: u64,
    jobs: JobQueue,
    /// Counters.
    pub stats: MptcpStats,
}

impl MptcpConnection {
    /// Create a connection with `k` subflows. Subflow `i` uses inner source
    /// port `base_sport + i`, so ECMP assigns each an independent path.
    pub fn new(src: clove_net::types::HostId, dst: clove_net::types::HostId, base_sport: u16, dport: u16, k: usize) -> MptcpConnection {
        assert!(k >= 1, "need at least one subflow");
        let subflows = (0..k).map(|i| Subflow::new(FlowKey::tcp(src, dst, base_sport + i as u16, dport))).collect();
        MptcpConnection { subflows, data_next: 0, data_una: 0, stream_len: 0, jobs: JobQueue::default(), stats: MptcpStats::default() }
    }

    /// True when all enqueued data is acknowledged at the data level.
    pub fn idle(&self) -> bool {
        self.data_una == self.stream_len
    }

    /// Enqueue a job and transmit what the subflow windows allow.
    pub fn enqueue_job(&mut self, now: Time, job_id: u64, bytes: u64, out: &mut Vec<Packet>) {
        assert!(bytes > 0);
        self.stream_len += bytes;
        self.jobs.push(job_id, self.stream_len, bytes);
        self.pump(now, out);
        for sf in &mut self.subflows {
            sf.timer.ensure(now, sf.flight());
        }
    }

    /// LIA alpha: `cwnd_total * max_i(cwnd_i/rtt_i²) / (Σ cwnd_i/rtt_i)²`.
    fn lia_alpha(&self) -> f64 {
        let total: f64 = self.subflows.iter().map(|s| s.cwnd as f64).sum();
        let mut max_term: f64 = 0.0;
        let mut sum_term: f64 = 0.0;
        for s in &self.subflows {
            let rtt = s.timer.srtt().map(|d| d.as_secs_f64()).unwrap_or(1e-4).max(1e-9);
            max_term = max_term.max(s.cwnd as f64 / (rtt * rtt));
            sum_term += s.cwnd as f64 / rtt;
        }
        if sum_term <= 0.0 {
            return 1.0;
        }
        (total * max_term / (sum_term * sum_term)).max(0.0)
    }

    /// Lowest-RTT-first scheduling over open windows.
    fn pump(&mut self, now: Time, out: &mut Vec<Packet>) {
        loop {
            if self.data_next >= self.stream_len {
                return;
            }
            // Pick the sendable subflow with the lowest smoothed RTT
            // (unknown RTT sorts first: new subflows probe immediately).
            let mut best: Option<usize> = None;
            for (i, sf) in self.subflows.iter().enumerate() {
                if sf.flight() >= sf.cwnd {
                    continue;
                }
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        let rb = self.subflows[b].timer.srtt().unwrap_or(Duration::ZERO);
                        let ri = sf.timer.srtt().unwrap_or(Duration::ZERO);
                        if ri < rb {
                            best = Some(i);
                        }
                    }
                }
            }
            let Some(i) = best else { return };
            let len = (self.stream_len - self.data_next).min(MSS as u64) as u32;
            let dsn = self.data_next;
            self.data_next += len as u64;
            let sf = &mut self.subflows[i];
            let seq = sf.snd_nxt;
            sf.map.insert(seq, (dsn, len));
            sf.snd_nxt += len as u64;
            sf.emit(now, seq, dsn, len, false, out);
        }
    }

    /// Process an ACK arriving on subflow `i`. Returns completed jobs.
    pub fn on_ack(&mut self, now: Time, i: usize, ackno: u64, dack: u64, out: &mut Vec<Packet>) -> Vec<JobCompletion> {
        let alpha = self.lia_alpha();
        let total_cwnd: u64 = self.subflows.iter().map(|s| s.cwnd).sum();
        let mss = MSS as u64;
        let sf = &mut self.subflows[i];
        if ackno > sf.snd_nxt {
            return Vec::new();
        }
        sf.timer.on_ack(now, ackno);
        if ackno > sf.snd_una {
            let acked = ackno - sf.snd_una;
            sf.snd_una = ackno;
            sf.dup_acks = 0;
            // Clean consumed mapping entries.
            while let Some((&s, &(_, l))) = sf.map.first_key_value() {
                if s + l as u64 <= sf.snd_una {
                    sf.map.pop_first();
                } else {
                    break;
                }
            }
            if sf.in_recovery {
                if ackno >= sf.recover {
                    sf.cwnd = sf.ssthresh.max(2 * mss);
                    sf.in_recovery = false;
                } else {
                    // Partial ack: retransmit the hole.
                    if sf.retransmit_at(now, ackno, out) {
                        self.stats.retransmits += 1;
                    }
                }
            } else if sf.cwnd < sf.ssthresh {
                sf.cwnd += acked.min(mss);
            } else {
                // LIA coupled increase, in bytes:
                // min(alpha * acked * mss / cwnd_total, acked_mss * mss / cwnd_i)
                let coupled = (alpha * acked.min(mss) as f64 * mss as f64 / total_cwnd.max(1) as f64) as u64;
                let uncoupled = acked.min(mss) * mss / sf.cwnd.max(1);
                sf.cwnd += coupled.min(uncoupled).max(1);
            }
            sf.cwnd = sf.cwnd.min(MAX_CWND_BYTES);
        } else if sf.flight() > 0 && ackno == sf.snd_una {
            sf.dup_acks += 1;
            if sf.in_recovery {
                sf.cwnd += mss;
            } else if sf.dup_acks == 3 {
                sf.ssthresh = (sf.flight() / 2).max(2 * mss);
                sf.cwnd = sf.ssthresh + 3 * mss;
                sf.recover = sf.snd_nxt;
                sf.in_recovery = true;
                sf.timer.drop_probe();
                if sf.retransmit_at(now, sf.snd_una, out) {
                    self.stats.retransmits += 1;
                }
            }
        }
        // Data-level progress.
        if dack > self.data_una {
            self.data_una = dack;
        }
        let completions = self.jobs.complete(self.data_una);
        self.pump(now, out);
        // Restart the acked subflow's RTO; only *ensure* the others'.
        let sf = &mut self.subflows[i];
        sf.timer.restart(now, sf.flight());
        for sf in &mut self.subflows {
            sf.timer.ensure(now, sf.flight());
        }
        completions
    }

    /// An RTO fired for subflow `idx`; stale generations are ignored.
    pub fn on_rto_timer(&mut self, now: Time, idx: usize, generation: u64, out: &mut Vec<Packet>) {
        let mss = MSS as u64;
        let Some(sf) = self.subflows.get_mut(idx) else { return };
        if !sf.timer.expired(now, generation) || sf.flight() == 0 {
            return;
        }
        self.stats.timeouts += 1;
        self.stats.retransmits += 1;
        sf.timer.back_off();
        sf.ssthresh = (sf.flight() / 2).max(2 * mss);
        sf.cwnd = mss;
        // Timeout recovery: treat everything outstanding as lost and let
        // each partial ack trigger the next hole's retransmission —
        // otherwise every hole costs a full (possibly backed-off) RTO.
        sf.in_recovery = true;
        sf.recover = sf.snd_nxt;
        sf.dup_acks = 0;
        // Resend the first unacked chunk; partial acks chain the rest.
        sf.retransmit_at(now, sf.snd_una, out);
        sf.timer.restart(now, sf.flight());
    }
}

/// The receiver side of an MPTCP connection: one [`ReceiveCursor`] per
/// subflow sequence space (the subflow's cumulative ACK) plus one over the
/// data sequence space (the connection-level reassembly point).
#[derive(Debug)]
pub struct MptcpReceiver {
    /// Per-subflow `(data-direction key, cursor)`, in subflow order.
    subflows: Vec<(FlowKey, ReceiveCursor)>,
    data: ReceiveCursor,
}

impl MptcpReceiver {
    /// Build the receiver for a connection created with the same params.
    pub fn new(src: clove_net::types::HostId, dst: clove_net::types::HostId, base_sport: u16, dport: u16, k: usize) -> MptcpReceiver {
        let subflows = (0..k).map(|i| (FlowKey::tcp(src, dst, base_sport + i as u16, dport), ReceiveCursor::default())).collect();
        MptcpReceiver { subflows, data: ReceiveCursor::default() }
    }

    /// Cumulative in-order data-level bytes received.
    pub fn data_rcv_nxt(&self) -> u64 {
        self.data.rcv_nxt()
    }

    /// Accept a data segment on subflow `i`; returns the ACK.
    pub fn on_data(&mut self, i: usize, seq: u64, len: u32, dsn: u64) -> Packet {
        let (key, cursor) = &mut self.subflows[i];
        let dup = (cursor.accept(seq, len) == Arrival::Duplicate).then_some(seq);
        self.data.accept(dsn, len);
        let kind = PacketKind::Ack { ackno: cursor.rcv_nxt(), dack: self.data.rcv_nxt(), ece: false, dup };
        Packet::new(0, HEADER_OVERHEAD, key.reversed(), kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_net::types::HostId;

    fn conn(k: usize) -> (MptcpConnection, MptcpReceiver) {
        (MptcpConnection::new(HostId(0), HostId(1), 20_000, 80, k), MptcpReceiver::new(HostId(0), HostId(1), 20_000, 80, k))
    }

    /// The index of the subflow sending on `data_key`.
    fn sub(c: &MptcpConnection, data_key: FlowKey) -> usize {
        c.subflows.iter().position(|s| s.key == data_key).unwrap()
    }

    fn data_fields(p: &Packet) -> (u64, u32, u64) {
        match p.kind {
            PacketKind::Data { seq, len, dsn } => (seq, len, dsn),
            _ => panic!("not data"),
        }
    }

    #[test]
    fn subflows_have_distinct_tuples() {
        let (c, _) = conn(4);
        let mut sports: Vec<u16> = c.subflows.iter().map(|s| s.key.sport).collect();
        sports.dedup();
        assert_eq!(sports, vec![20_000, 20_001, 20_002, 20_003]);
    }

    #[test]
    fn job_spreads_across_subflows() {
        let (mut c, _) = conn(4);
        let mut out = Vec::new();
        c.enqueue_job(Time::ZERO, 1, 200_000, &mut out);
        // 4 subflows × IW 10 segments = 40 segments initially.
        assert_eq!(out.len(), 40);
        let mut by_subflow = rustc_hash::FxHashMap::default();
        for p in &out {
            *by_subflow.entry(p.flow.sport).or_insert(0) += 1;
        }
        assert_eq!(by_subflow.len(), 4);
        // DSNs are unique and contiguous.
        let mut dsns: Vec<u64> = out.iter().map(|p| data_fields(p).2).collect();
        dsns.sort_unstable();
        assert_eq!(dsns, (0..40).map(|i| i * 1400).collect::<Vec<_>>());
    }

    #[test]
    fn full_transfer_completes_via_loopback() {
        let (mut c, mut r) = conn(2);
        let size = 100 * 1400u64;
        let mut wire = Vec::new();
        c.enqueue_job(Time::ZERO, 42, size, &mut wire);
        let mut now = Time::ZERO;
        let mut completions = Vec::new();
        let mut guard = 0;
        while !c.idle() {
            guard += 1;
            assert!(guard < 10_000, "transfer did not converge");
            now += Duration::from_micros(50);
            let batch: Vec<Packet> = std::mem::take(&mut wire);
            let mut acks = Vec::new();
            for p in batch {
                let (seq, len, dsn) = data_fields(&p);
                acks.push(r.on_data(sub(&c, p.flow), seq, len, dsn));
            }
            now += Duration::from_micros(50);
            for a in acks {
                let PacketKind::Ack { ackno, dack, .. } = a.kind else { unreachable!() };
                completions.extend(c.on_ack(now, sub(&c, a.flow.reversed()), ackno, dack, &mut wire));
            }
        }
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].job_id, 42);
        assert_eq!(completions[0].bytes, size);
        assert_eq!(r.data_rcv_nxt(), size);
    }

    #[test]
    fn subflow_rto_retransmits_same_dsn() {
        let (mut c, _) = conn(2);
        let mut out = Vec::new();
        c.enqueue_job(Time::ZERO, 1, 100_000, &mut out);
        let first_sf_key = c.subflows[0].key;
        let first_chunk: Vec<_> = out.iter().filter(|p| p.flow == first_sf_key).collect();
        let (seq0, _, dsn0) = data_fields(first_chunk[0]);
        let generation = c.subflows[0].timer().generation();
        let deadline = c.subflows[0].timer().deadline().unwrap();
        out.clear();
        c.on_rto_timer(deadline, 0, generation, &mut out);
        assert_eq!(out.len(), 1);
        let (rseq, _, rdsn) = data_fields(&out[0]);
        assert_eq!((rseq, rdsn), (seq0, dsn0));
        assert_eq!(c.stats.timeouts, 1);
        assert_eq!(c.subflows[0].cwnd(), 1400);
    }

    #[test]
    fn stale_rto_ignored() {
        let (mut c, _) = conn(1);
        let mut out = Vec::new();
        c.enqueue_job(Time::ZERO, 1, 100_000, &mut out);
        out.clear();
        c.on_rto_timer(Time::from_secs(10), 0, 999, &mut out);
        assert!(out.is_empty());
        assert_eq!(c.stats.timeouts, 0);
    }

    #[test]
    fn dup_acks_trigger_subflow_fast_retransmit() {
        let (mut c, _) = conn(1);
        let mut out = Vec::new();
        c.enqueue_job(Time::ZERO, 1, 200_000, &mut out);
        out.clear();
        for _ in 0..3 {
            c.on_ack(Time::from_micros(100), 0, 0, 0, &mut out);
        }
        assert!(c.stats.retransmits >= 1);
        let (seq, _, dsn) = data_fields(&out[0]);
        assert_eq!((seq, dsn), (0, 0));
        assert!(c.subflows[0].in_recovery);
    }

    #[test]
    fn receiver_data_level_reassembly_across_subflows() {
        let (mut c, mut r) = conn(2);
        let mut out = Vec::new();
        c.enqueue_job(Time::ZERO, 1, 10 * 1400, &mut out);
        // Deliver in reverse order: data-level cursor only advances once
        // the first dsn arrives.
        out.reverse();
        let mut last_dack = 0;
        for p in &out {
            let (seq, len, dsn) = data_fields(p);
            let a = r.on_data(sub(&c, p.flow), seq, len, dsn);
            let PacketKind::Ack { dack, .. } = a.kind else { unreachable!() };
            last_dack = dack;
        }
        assert_eq!(last_dack, 10 * 1400);
    }

    #[test]
    fn lia_alpha_is_finite_and_positive() {
        let (mut c, _) = conn(4);
        let mut out = Vec::new();
        c.enqueue_job(Time::ZERO, 1, 1_000_000, &mut out);
        let a = c.lia_alpha();
        assert!(a.is_finite() && a >= 0.0, "alpha {a}");
    }

    #[test]
    fn head_of_line_blocking_visible_at_data_level() {
        // A chunk on subflow 0 is "lost"; subflow 1 delivers everything —
        // data-level ack must stall at the missing dsn.
        let (mut c, mut r) = conn(2);
        let mut out = Vec::new();
        c.enqueue_job(Time::ZERO, 1, 40 * 1400, &mut out);
        let sf0 = c.subflows[0].key;
        let mut last_dack = 0;
        let mut skipped_first_sf0 = false;
        for p in &out {
            let (seq, len, dsn) = data_fields(p);
            if p.flow == sf0 && !skipped_first_sf0 {
                skipped_first_sf0 = true;
                continue; // drop the first chunk of subflow 0
            }
            let a = r.on_data(sub(&c, p.flow), seq, len, dsn);
            let PacketKind::Ack { dack, .. } = a.kind else { unreachable!() };
            last_dack = last_dack.max(dack);
        }
        assert!(last_dack < 40 * 1400, "data ack should stall at the hole");
    }

    #[test]
    fn recovery_after_blackhole_window() {
        // 2 subflows; the entire first window of subflow 1 is lost. Drive RTOs
        // and verify the connection eventually completes.
        let mut c = MptcpConnection::new(HostId(0), HostId(1), 20_000, 80, 2);
        let mut r = MptcpReceiver::new(HostId(0), HostId(1), 20_000, 80, 2);
        let size = 60 * 1400u64;
        let mut wire = Vec::new();
        c.enqueue_job(Time::ZERO, 1, size, &mut wire);
        let sf1 = c.subflows[1].key;
        // Drop subflow 1's initial window.
        wire.retain(|p| p.flow != sf1);
        let mut now = Time::ZERO;
        let mut done = false;
        for _round in 0..100000 {
            now += Duration::from_micros(100);
            // deliver data
            let batch: Vec<Packet> = std::mem::take(&mut wire);
            let mut acks = Vec::new();
            for p in batch {
                let PacketKind::Data { seq, len, dsn } = p.kind else { continue };
                acks.push(r.on_data(sub(&c, p.flow), seq, len, dsn));
            }
            now += Duration::from_micros(100);
            for a in acks {
                let PacketKind::Ack { ackno, dack, .. } = a.kind else { unreachable!() };
                if !c.on_ack(now, sub(&c, a.flow.reversed()), ackno, dack, &mut wire).is_empty() {
                    done = true;
                }
            }
            // fire due RTOs
            for i in 0..2 {
                if let Some(d) = c.subflows[i].timer().deadline() {
                    if now >= d {
                        let g = c.subflows[i].timer().generation();
                        c.on_rto_timer(now, i, g, &mut wire);
                    }
                }
            }
            if done {
                break;
            }
        }
        assert!(
            done,
            "connection never completed: to={} una0={} una1={} dl1={:?} wire={}",
            c.stats.timeouts,
            c.subflows[0].snd_una(),
            c.subflows[1].snd_una(),
            c.subflows[1].timer().deadline(),
            wire.len()
        );
        assert!(c.stats.timeouts <= 3, "too many timeouts: {}", c.stats.timeouts);
    }
}
