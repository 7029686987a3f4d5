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

use crate::config::{wire_size, HEADER_OVERHEAD, INIT_CWND, INIT_RTO, MAX_CWND_BYTES, MAX_RTO, MIN_RTO, MSS};
use crate::sender::JobCompletion;
use clove_net::packet::{Packet, PacketKind};
use clove_net::types::FlowKey;
use clove_sim::{Duration, Time};
use std::collections::{BTreeMap, VecDeque};

#[derive(Debug, Clone, Copy)]
struct PendingJob {
    job_id: u64,
    end_dsn: u64,
    bytes: u64,
}

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
    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    rtt_probe: Option<(u64, Time)>,
    /// subflow_seq → (dsn, len): what data each subflow byte range carries.
    map: BTreeMap<u64, (u64, u32)>,
    /// RTO deadline + generation (see `TcpSender` for the pattern).
    pub rto_deadline: Option<Time>,
    /// Bumped each re-arm.
    pub rto_generation: u64,
    uid_base: u64,
    uid_counter: u64,
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
            srtt: None,
            rttvar: Duration::ZERO,
            rto: INIT_RTO,
            rtt_probe: None,
            map: BTreeMap::new(),
            rto_deadline: None,
            rto_generation: 0,
            uid_base: clove_net::hash::hash_tuple(&key, 0x3177) << 20,
            uid_counter: 0,
        }
    }

    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current smoothed RTT (used by the scheduler).
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
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
        self.uid_counter += 1;
        let pkt = Packet::new(self.uid_base.wrapping_add(self.uid_counter), wire_size(len), self.key, PacketKind::Data { seq, len, dsn });
        // Karn: sample RTT only on never-retransmitted byte ranges.
        if self.rtt_probe.is_none() && !is_rtx {
            self.rtt_probe = Some((seq + len as u64, now));
        }
        out.push(pkt);
    }

    fn update_rtt(&mut self, sample: Duration) {
        let srtt = match self.srtt {
            None => {
                self.rttvar = sample / 2;
                sample
            }
            Some(s) => {
                let err = if sample > s { sample - s } else { s - sample };
                self.rttvar = Duration::from_nanos((self.rttvar.as_nanos() * 3 + err.as_nanos()) / 4);
                Duration::from_nanos((s.as_nanos() * 7 + sample.as_nanos()) / 8)
            }
        };
        self.srtt = Some(srtt);
        self.rto = (srtt + self.rttvar * 4).max(MIN_RTO).min(MAX_RTO);
    }

    /// Restart the RTO (on progress for this subflow).
    fn arm_rto(&mut self, now: Time) {
        if self.flight() > 0 {
            self.rto_deadline = Some(now + self.rto);
            self.rto_generation += 1;
        } else {
            self.rto_deadline = None;
        }
    }

    /// Ensure an RTO exists without postponing one already pending —
    /// acknowledgements on *other* subflows must not push this subflow's
    /// timeout into the future.
    fn ensure_rto(&mut self, now: Time) {
        if self.flight() == 0 {
            self.rto_deadline = None;
        } else if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
            self.rto_generation += 1;
        }
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
    jobs: VecDeque<PendingJob>,
    /// Counters.
    pub stats: MptcpStats,
}

impl MptcpConnection {
    /// Create a connection with `k` subflows. Subflow `i` uses inner source
    /// port `base_sport + i`, so ECMP assigns each an independent path.
    pub fn new(src: clove_net::types::HostId, dst: clove_net::types::HostId, base_sport: u16, dport: u16, k: usize) -> MptcpConnection {
        assert!(k >= 1, "need at least one subflow");
        let subflows = (0..k).map(|i| Subflow::new(FlowKey::tcp(src, dst, base_sport + i as u16, dport))).collect();
        MptcpConnection { subflows, data_next: 0, data_una: 0, stream_len: 0, jobs: VecDeque::new(), stats: MptcpStats::default() }
    }

    /// True when all enqueued data is acknowledged at the data level.
    pub fn idle(&self) -> bool {
        self.data_una == self.stream_len
    }

    /// Enqueue a job and transmit what the subflow windows allow.
    pub fn enqueue_job(&mut self, now: Time, job_id: u64, bytes: u64, out: &mut Vec<Packet>) {
        assert!(bytes > 0);
        self.stream_len += bytes;
        self.jobs.push_back(PendingJob { job_id, end_dsn: self.stream_len, bytes });
        self.pump(now, out);
        for sf in &mut self.subflows {
            sf.ensure_rto(now);
        }
    }

    /// LIA alpha: `cwnd_total * max_i(cwnd_i/rtt_i²) / (Σ cwnd_i/rtt_i)²`.
    fn lia_alpha(&self) -> f64 {
        let total: f64 = self.subflows.iter().map(|s| s.cwnd as f64).sum();
        let mut max_term: f64 = 0.0;
        let mut sum_term: f64 = 0.0;
        for s in &self.subflows {
            let rtt = s.srtt.map(|d| d.as_secs_f64()).unwrap_or(1e-4).max(1e-9);
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
                        let rb = self.subflows[b].srtt.unwrap_or(Duration::ZERO);
                        let ri = sf.srtt.unwrap_or(Duration::ZERO);
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

    /// Which subflow receives packets with reverse key `rkey`.
    fn subflow_index(&self, data_key: &FlowKey) -> Option<usize> {
        self.subflows.iter().position(|s| s.key == *data_key)
    }

    /// Process an ACK arriving on some subflow. Returns completed jobs.
    pub fn on_ack(&mut self, now: Time, ack_flow: FlowKey, ackno: u64, dack: u64, out: &mut Vec<Packet>) -> Vec<JobCompletion> {
        let data_key = ack_flow.reversed();
        let Some(i) = self.subflow_index(&data_key) else {
            return Vec::new();
        };
        let alpha = self.lia_alpha();
        let total_cwnd: u64 = self.subflows.iter().map(|s| s.cwnd).sum();
        let mss = MSS as u64;
        let sf = &mut self.subflows[i];
        if ackno > sf.snd_nxt {
            return Vec::new();
        }
        if let Some((probe, sent)) = sf.rtt_probe {
            if ackno >= probe {
                sf.update_rtt(now.saturating_since(sent));
                sf.rtt_probe = None;
            }
        }
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
                sf.rtt_probe = None;
                if sf.retransmit_at(now, sf.snd_una, out) {
                    self.stats.retransmits += 1;
                }
            }
        }
        // Data-level progress.
        if dack > self.data_una {
            self.data_una = dack;
        }
        let mut completions = Vec::new();
        while let Some(job) = self.jobs.front() {
            if self.data_una >= job.end_dsn {
                completions.push(JobCompletion { job_id: job.job_id, bytes: job.bytes });
                self.jobs.pop_front();
            } else {
                break;
            }
        }
        self.pump(now, out);
        // Restart the acked subflow's RTO; only *ensure* the others'.
        self.subflows[i].arm_rto(now);
        for sf in &mut self.subflows {
            sf.ensure_rto(now);
        }
        completions
    }

    /// An RTO fired for subflow `idx`; stale generations are ignored.
    pub fn on_rto_timer(&mut self, now: Time, idx: usize, generation: u64, out: &mut Vec<Packet>) {
        let mss = MSS as u64;
        let Some(sf) = self.subflows.get_mut(idx) else { return };
        if generation != sf.rto_generation {
            return;
        }
        let Some(deadline) = sf.rto_deadline else { return };
        if now < deadline || sf.flight() == 0 {
            return;
        }
        self.stats.timeouts += 1;
        self.stats.retransmits += 1;
        sf.rto = (sf.rto * 2).min(MAX_RTO);
        sf.ssthresh = (sf.flight() / 2).max(2 * mss);
        sf.cwnd = mss;
        // Timeout recovery: treat everything outstanding as lost and let
        // each partial ack trigger the next hole's retransmission —
        // otherwise every hole costs a full (possibly backed-off) RTO.
        sf.in_recovery = true;
        sf.recover = sf.snd_nxt;
        sf.dup_acks = 0;
        sf.rtt_probe = None;
        // Resend the first unacked chunk; partial acks chain the rest.
        sf.retransmit_at(now, sf.snd_una, out);
        sf.arm_rto(now);
    }
}

/// The receiver side of an MPTCP connection: per-subflow cumulative ACKs
/// plus a connection-level (data sequence) reassembly cursor.
#[derive(Debug)]
pub struct MptcpReceiver {
    /// Per-subflow receive state, keyed by the subflow's data-direction key.
    subflows: Vec<(FlowKey, u64, BTreeMap<u64, u32>)>, // (key, rcv_nxt, ooo)
    data_rcv_nxt: u64,
    data_ooo: BTreeMap<u64, u32>,
    uid_base: u64,
    uid_counter: u64,
}

impl MptcpReceiver {
    /// Build the receiver for a connection created with the same params.
    pub fn new(src: clove_net::types::HostId, dst: clove_net::types::HostId, base_sport: u16, dport: u16, k: usize) -> MptcpReceiver {
        let subflows = (0..k).map(|i| (FlowKey::tcp(src, dst, base_sport + i as u16, dport), 0u64, BTreeMap::new())).collect();
        MptcpReceiver {
            subflows,
            data_rcv_nxt: 0,
            data_ooo: BTreeMap::new(),
            uid_base: 0x3177_7700_0000_0000 ^ ((src.0 as u64) << 32 | dst.0 as u64) << 8,
            uid_counter: 0,
        }
    }

    /// Cumulative in-order data-level bytes received.
    pub fn data_rcv_nxt(&self) -> u64 {
        self.data_rcv_nxt
    }

    /// Accept a data segment on any subflow; returns the ACK.
    pub fn on_data(&mut self, flow: FlowKey, seq: u64, len: u32, dsn: u64) -> Option<Packet> {
        let sf = self.subflows.iter_mut().find(|(k, _, _)| *k == flow)?;
        let (_, rcv_nxt, ooo) = sf;
        let end = seq + len as u64;
        let dup = if end <= *rcv_nxt { Some(seq) } else { None };
        if seq <= *rcv_nxt && end > *rcv_nxt {
            *rcv_nxt = end;
            while let Some((&s, &l)) = ooo.first_key_value() {
                if s > *rcv_nxt {
                    break;
                }
                ooo.pop_first();
                *rcv_nxt = (*rcv_nxt).max(s + l as u64);
            }
        } else if seq > *rcv_nxt {
            ooo.insert(seq, len);
        }
        let sub_ack = *rcv_nxt;
        // Data-level reassembly.
        let dend = dsn + len as u64;
        if dsn <= self.data_rcv_nxt && dend > self.data_rcv_nxt {
            self.data_rcv_nxt = dend;
            while let Some((&s, &l)) = self.data_ooo.first_key_value() {
                if s > self.data_rcv_nxt {
                    break;
                }
                self.data_ooo.pop_first();
                self.data_rcv_nxt = self.data_rcv_nxt.max(s + l as u64);
            }
        } else if dsn > self.data_rcv_nxt {
            self.data_ooo.insert(dsn, len);
        }
        self.uid_counter += 1;
        Some(Packet::new(
            self.uid_base.wrapping_add(self.uid_counter),
            HEADER_OVERHEAD,
            flow.reversed(),
            PacketKind::Ack { ackno: sub_ack, dack: self.data_rcv_nxt, ece: false, dup },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_net::types::HostId;

    fn conn(k: usize) -> (MptcpConnection, MptcpReceiver) {
        (MptcpConnection::new(HostId(0), HostId(1), 20_000, 80, k), MptcpReceiver::new(HostId(0), HostId(1), 20_000, 80, k))
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
                if let Some(a) = r.on_data(p.flow, seq, len, dsn) {
                    acks.push(a);
                }
            }
            now += Duration::from_micros(50);
            for a in acks {
                let PacketKind::Ack { ackno, dack, .. } = a.kind else { unreachable!() };
                completions.extend(c.on_ack(now, a.flow, ackno, dack, &mut wire));
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
        let generation = c.subflows[0].rto_generation;
        let deadline = c.subflows[0].rto_deadline.unwrap();
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
        let akey = c.subflows[0].key.reversed();
        for _ in 0..3 {
            c.on_ack(Time::from_micros(100), akey, 0, 0, &mut out);
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
            let a = r.on_data(p.flow, seq, len, dsn).unwrap();
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
            if let Some(a) = r.on_data(p.flow, seq, len, dsn) {
                let PacketKind::Ack { dack, .. } = a.kind else { unreachable!() };
                last_dack = last_dack.max(dack);
            }
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
                if let Some(a) = r.on_data(p.flow, seq, len, dsn) {
                    acks.push(a);
                }
            }
            now += Duration::from_micros(100);
            for a in acks {
                let PacketKind::Ack { ackno, dack, .. } = a.kind else { unreachable!() };
                if !c.on_ack(now, a.flow, ackno, dack, &mut wire).is_empty() {
                    done = true;
                }
            }
            // fire due RTOs
            for i in 0..2 {
                if let Some(d) = c.subflows[i].rto_deadline {
                    if now >= d {
                        let g = c.subflows[i].rto_generation;
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
            c.subflows[1].rto_deadline,
            wire.len()
        );
        assert!(c.stats.timeouts <= 3, "too many timeouts: {}", c.stats.timeouts);
    }
}
