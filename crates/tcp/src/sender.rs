//! The TCP sender: NewReno congestion control over a byte stream.
//!
//! A [`TcpSender`] models one simplex data pipe of a persistent connection.
//! Applications enqueue *jobs* (flows, in the paper's workload sense) onto
//! the connection; jobs serialize FIFO on the byte stream, and a job's
//! completion time — measured from `enqueue_job` to the cumulative ACK
//! covering its last byte — is the paper's Flow Completion Time.
//!
//! The sender is sans-IO: `on_ack` / `on_rto_timer` / `enqueue_job` push
//! outgoing segments into a caller-provided `Vec<Packet>`, and the caller
//! arms timers from the sender's [`RtoTimer`] (generation-checked, so
//! stale timer events are ignored without cancellation support).
//!
//! Two mechanisms here are shared with the MPTCP subflows: [`RtoTimer`]
//! (RTT estimation and the retransmission timer) and `JobQueue` (FIFO
//! job completion on a byte stream).

use crate::config::{wire_size, TcpConfig, INIT_CWND, INIT_RTO, MAX_CWND_BYTES, MAX_RTO, MIN_RTO, MSS};
use clove_net::packet::{Packet, PacketKind};
use clove_net::types::FlowKey;
use clove_sim::{Duration, Time};
use std::collections::VecDeque;

/// Congestion-control phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    SlowStart,
    CongestionAvoidance,
    FastRecovery,
}

/// A job whose last byte was just cumulatively acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCompletion {
    /// Caller-assigned job id.
    pub job_id: u64,
    /// Job size in payload bytes.
    pub bytes: u64,
}

/// The jobs queued on one byte stream (plain TCP's sequence space or
/// MPTCP's data sequence space), in FIFO order: a job completes when the
/// cumulative ack covers its last byte.
#[derive(Debug, Default)]
pub(crate) struct JobQueue {
    /// `(job_id, end, bytes)`: `end` is the stream offset past the job's
    /// last byte.
    jobs: VecDeque<(u64, u64, u64)>,
}

impl JobQueue {
    /// Queue a job of `bytes` bytes ending at stream offset `end`.
    pub(crate) fn push(&mut self, job_id: u64, end: u64, bytes: u64) {
        self.jobs.push_back((job_id, end, bytes));
    }

    /// Pop every job whose last byte the cumulative ack `una` covers.
    pub(crate) fn complete(&mut self, una: u64) -> Vec<JobCompletion> {
        let mut done = Vec::new();
        while let Some(&(job_id, end, bytes)) = self.jobs.front() {
            if una < end {
                break;
            }
            done.push(JobCompletion { job_id, bytes });
            self.jobs.pop_front();
        }
        done
    }
}

/// Round-trip estimation and the retransmission timer of one sequence
/// space, shared by [`TcpSender`] and the MPTCP subflows: Jacobson/Karels
/// smoothing of Karn-valid samples (one probe at a time, never on a
/// retransmitted range), a timeout clamped to `[MIN_RTO, MAX_RTO]` that
/// doubles on every firing, and a deadline with a generation counter so
/// the host can ignore stale timer events instead of cancelling them.
#[derive(Debug)]
pub struct RtoTimer {
    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    /// `(end, sent)`: the ack covering `end` yields an RTT sample.
    probe: Option<(u64, Time)>,
    deadline: Option<Time>,
    generation: u64,
}

impl RtoTimer {
    pub(crate) fn new() -> RtoTimer {
        RtoTimer { srtt: None, rttvar: Duration::ZERO, rto: INIT_RTO, probe: None, deadline: None, generation: 0 }
    }

    /// Current smoothed RTT estimate.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// Current retransmission timeout.
    pub fn timeout(&self) -> Duration {
        self.rto
    }

    /// The pending deadline, if packets are outstanding.
    pub fn deadline(&self) -> Option<Time> {
        self.deadline
    }

    /// Bumped whenever the deadline is re-armed; a timer event carries the
    /// value it was armed with.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A segment ending at `end` left at `now`. It becomes the RTT probe
    /// unless one is outstanding or the range was sent before (Karn).
    pub(crate) fn on_send(&mut self, now: Time, end: u64, retransmission: bool) {
        if self.probe.is_none() && !retransmission {
            self.probe = Some((end, now));
        }
    }

    /// A cumulative ack of `ackno` arrived: sample the RTT if it covers
    /// the probe.
    pub(crate) fn on_ack(&mut self, now: Time, ackno: u64) {
        if let Some((end, sent)) = self.probe {
            if ackno >= end {
                self.update(now.saturating_since(sent));
                self.probe = None;
            }
        }
    }

    fn update(&mut self, sample: Duration) {
        let srtt = match self.srtt {
            None => {
                self.rttvar = sample / 2;
                sample
            }
            Some(srtt) => {
                // Jacobson/Karels: rttvar = 3/4 rttvar + 1/4 |srtt - sample|
                let err = if sample > srtt { sample - srtt } else { srtt - sample };
                self.rttvar = Duration::from_nanos((self.rttvar.as_nanos() * 3 + err.as_nanos()) / 4);
                Duration::from_nanos((srtt.as_nanos() * 7 + sample.as_nanos()) / 8)
            }
        };
        self.srtt = Some(srtt);
        self.rto = (srtt + self.rttvar * 4).max(MIN_RTO).min(MAX_RTO);
    }

    /// Karn: a retransmission invalidates the outstanding probe.
    pub(crate) fn drop_probe(&mut self) {
        self.probe = None;
    }

    /// The timer fired: double the timeout and take no sample across it.
    pub(crate) fn back_off(&mut self) {
        self.rto = (self.rto * 2).min(MAX_RTO);
        self.probe = None;
    }

    /// Restart the deadline one timeout from `now` while `flight` bytes
    /// are outstanding; clear it when none are.
    pub(crate) fn restart(&mut self, now: Time, flight: u64) {
        self.deadline = None;
        self.ensure(now, flight);
    }

    /// Like [`RtoTimer::restart`], but without postponing a pending
    /// deadline — acknowledgements on *other* MPTCP subflows must not push
    /// this subflow's timeout into the future.
    pub(crate) fn ensure(&mut self, now: Time, flight: u64) {
        if flight == 0 {
            self.deadline = None;
        } else if self.deadline.is_none() {
            self.deadline = Some(now + self.rto);
            self.generation += 1;
        }
    }

    /// True when a timer event armed with `generation` fires at `now` on
    /// the current deadline.
    pub(crate) fn expired(&self, now: Time, generation: u64) -> bool {
        generation == self.generation && self.deadline.is_some_and(|d| now >= d)
    }
}

/// Sender-side counters; the host stack sums them at run end.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// Retransmitted segments.
    pub retransmits: u64,
    /// RTO firings.
    pub timeouts: u64,
    /// Fast-retransmit events.
    pub fast_retransmits: u64,
    /// Spurious fast retransmissions undone via the DSACK signal.
    pub spurious_undos: u64,
}

/// One simplex TCP sending endpoint. See module docs.
#[derive(Debug)]
pub struct TcpSender {
    /// The five-tuple this sender transmits on (src = local host).
    pub key: FlowKey,
    cfg: TcpConfig,

    // --- stream state ---
    snd_una: u64,
    snd_nxt: u64,
    /// Highest byte ever transmitted. After a go-back-N RTO rewinds
    /// `snd_nxt`, ACKs up to `snd_max` are still legitimate (they cover
    /// pre-timeout transmissions that survived).
    snd_max: u64,
    stream_len: u64, // total bytes enqueued by the application
    jobs: JobQueue,

    // --- congestion control ---
    cwnd: u64,
    ssthresh: u64,
    phase: Phase,
    dup_acks: u32,
    /// Dup-acks required to trigger fast retransmit. Starts at 3 and rises
    /// when retransmissions prove spurious — a simplified version of
    /// Linux's adaptive reordering detection, without which flowlet
    /// re-routing triggers constant false recoveries.
    dup_threshold: u32,
    recover: u64, // NewReno: snd_nxt when recovery was entered
    /// Pre-fast-retransmit `(cwnd, ssthresh, retransmitted_seq)` for
    /// DSACK-style undo: when the receiver reports that exactly the
    /// segment we fast-retransmitted arrived as a duplicate, the loss was
    /// spurious (reordering, not congestion) and the cut is reverted —
    /// mirroring Linux's undo machinery, without which flowlet-induced
    /// reordering over-penalizes every path-switching scheme.
    undo: Option<(u64, u64, u64)>,

    timer: RtoTimer,
    last_send: Time,

    /// Counters.
    pub stats: SenderStats,
}

impl TcpSender {
    /// A fresh, idle sender for `key`.
    pub fn new(key: FlowKey, cfg: TcpConfig, now: Time) -> TcpSender {
        TcpSender {
            key,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            stream_len: 0,
            jobs: JobQueue::default(),
            cwnd: INIT_CWND,
            ssthresh: u64::MAX / 2,
            phase: Phase::SlowStart,
            dup_acks: 0,
            dup_threshold: 3,
            recover: 0,
            undo: None,
            timer: RtoTimer::new(),
            last_send: now,
            stats: SenderStats::default(),
            cfg,
        }
    }

    /// Bytes in flight.
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// True when every enqueued byte has been acknowledged.
    pub fn idle(&self) -> bool {
        self.snd_una == self.stream_len
    }

    /// Highest cumulative ack received.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next new byte to send.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// RTT estimate and retransmission timer.
    pub fn timer(&self) -> &RtoTimer {
        &self.timer
    }

    /// Append a job of `bytes` payload bytes to the stream and transmit
    /// whatever the window allows.
    pub fn enqueue_job(&mut self, now: Time, job_id: u64, bytes: u64, out: &mut Vec<Packet>) {
        assert!(bytes > 0, "zero-byte jobs are not meaningful flows");
        // Idle restart (RFC 2861 flavour): after an idle period longer
        // than one RTO, restart from the initial window rather than
        // blasting a stale window into the network.
        if self.idle() && now.saturating_since(self.last_send) > self.timer.timeout() {
            self.cwnd = INIT_CWND.min(self.cwnd);
            self.phase = Phase::SlowStart;
        }
        self.stream_len += bytes;
        self.jobs.push(job_id, self.stream_len, bytes);
        self.pump(now, out);
        self.timer.restart(now, self.flight());
    }

    /// Transmit as many new segments as the window and backlog allow.
    fn pump(&mut self, now: Time, out: &mut Vec<Packet>) {
        while self.snd_nxt < self.stream_len && self.flight() < self.cwnd {
            let remaining_window = self.cwnd - self.flight();
            let len = (self.stream_len - self.snd_nxt).min(MSS as u64).min(remaining_window.max(1)) as u32;
            // Do not send runt segments mid-stream while a full MSS worth
            // of window is unavailable (Nagle-ish; avoids silly windows).
            if (len as u64) < MSS as u64 && self.stream_len - self.snd_nxt > len as u64 && self.flight() > 0 {
                break;
            }
            self.emit_segment(now, self.snd_nxt, len, out);
            self.snd_nxt += len as u64;
        }
    }

    fn emit_segment(&mut self, now: Time, seq: u64, len: u32, out: &mut Vec<Packet>) {
        let pkt = Packet::new(0, wire_size(len), self.key, PacketKind::Data { seq, len, dsn: seq });
        self.last_send = now;
        // Anything at or below snd_max has been sent before.
        let end = seq + len as u64;
        self.timer.on_send(now, end, end <= self.snd_max);
        self.snd_max = self.snd_max.max(end);
        out.push(pkt);
    }

    /// Process a cumulative acknowledgement. `dup` is the receiver's
    /// duplicate-segment (DSACK) report; the ECN echo `_ece` is ignored,
    /// as a NewReno guest ignores it.
    /// Completed jobs are returned; new segments are pushed to `out`.
    pub fn on_ack(&mut self, now: Time, ackno: u64, _ece: bool, dup: Option<u64>, out: &mut Vec<Packet>) -> Vec<JobCompletion> {
        // DSACK undo: exactly the segment we fast-retransmitted arrived as
        // a duplicate — the original was merely reordered, not lost.
        // Revert the window cut. (Go-back-N overlap duplicates report
        // other sequences and must NOT trigger undo.)
        if let (Some(dup_seq), Some(&(cwnd, ssthresh, retx_seq))) = (dup, self.undo.as_ref()) {
            if self.cfg.dsack_undo && dup_seq == retx_seq {
                self.undo = None;
                self.cwnd = self.cwnd.max(cwnd);
                self.ssthresh = ssthresh;
                if self.phase == Phase::FastRecovery {
                    self.phase = if self.cwnd < self.ssthresh { Phase::SlowStart } else { Phase::CongestionAvoidance };
                }
                self.stats.spurious_undos += 1;
                // Reordering, not loss: tolerate more before reacting.
                self.dup_threshold = (self.dup_threshold + 2).min(16);
            }
        }
        if ackno > self.snd_max {
            // Ack for data never sent — ignore (cannot happen without
            // simulator bugs; be robust rather than corrupt state).
            return Vec::new();
        }
        // After a go-back-N rewind, an ACK above snd_nxt covers surviving
        // pre-timeout transmissions: fast-forward instead of resending.
        if ackno > self.snd_nxt {
            self.snd_nxt = ackno;
        }
        // RTT sampling (Karn: probe invalidated by RTO, see on_rto_timer).
        self.timer.on_ack(now, ackno);
        if ackno > self.snd_una {
            let acked = ackno - self.snd_una;
            self.snd_una = ackno;
            self.dup_acks = 0;
            match self.phase {
                Phase::FastRecovery => {
                    if ackno >= self.recover {
                        // Full ack: leave recovery.
                        self.cwnd = self.ssthresh.max(2 * MSS as u64);
                        self.phase = Phase::CongestionAvoidance;
                    } else {
                        // NewReno partial ack: retransmit the next hole,
                        // deflate by the acked amount, stay in recovery.
                        // (For a *spurious* recovery this wastes one
                        // segment per partial ack until the DSACK undo
                        // fires — the price of modeling NewReno rather
                        // than SACK; see DESIGN.md §7.)
                        self.stats.retransmits += 1;
                        let len = ((self.recover - ackno).min(MSS as u64)) as u32;
                        self.emit_segment(now, ackno, len, out);
                        self.cwnd = self.cwnd.saturating_sub(acked).max(MSS as u64) + MSS as u64;
                    }
                }
                Phase::SlowStart => {
                    // Appropriate Byte Counting (RFC 3465, L=2).
                    self.cwnd += acked.min(2 * MSS as u64);
                    if self.cwnd >= self.ssthresh {
                        self.phase = Phase::CongestionAvoidance;
                    }
                }
                Phase::CongestionAvoidance => {
                    // Byte-counting additive increase: mss²/cwnd per mss acked.
                    let inc = (MSS as u64 * MSS as u64) / self.cwnd.max(1);
                    self.cwnd += inc.max(1);
                }
            }
            self.cwnd = self.cwnd.min(MAX_CWND_BYTES);
        } else if self.flight() > 0 && ackno == self.snd_una {
            // Duplicate ack.
            self.dup_acks += 1;
            match self.phase {
                Phase::FastRecovery => {
                    // Window inflation keeps the pipe full during recovery.
                    self.cwnd += MSS as u64;
                }
                _ => {
                    // Early-retransmit cap (RFC 5827 flavour): with a
                    // small flight there will never be many dupacks, so
                    // the adaptive threshold is capped at flight-1.
                    let flight_pkts = (self.flight() / MSS as u64).max(2) as u32;
                    let threshold = self.dup_threshold.min(flight_pkts.saturating_sub(1)).max(2);
                    if self.dup_acks == threshold {
                        self.enter_fast_recovery(now, out);
                    }
                }
            }
        }
        let completions = self.jobs.complete(self.snd_una);
        self.pump(now, out);
        self.timer.restart(now, self.flight());
        completions
    }

    fn enter_fast_recovery(&mut self, now: Time, out: &mut Vec<Packet>) {
        self.stats.fast_retransmits += 1;
        self.stats.retransmits += 1;
        self.undo = Some((self.cwnd, self.ssthresh, self.snd_una));
        self.ssthresh = (self.flight() / 2).max(2 * MSS as u64);
        self.cwnd = self.ssthresh + 3 * MSS as u64;
        self.recover = self.snd_nxt;
        self.phase = Phase::FastRecovery;
        let len = ((self.snd_nxt - self.snd_una).min(MSS as u64)) as u32;
        self.emit_segment(now, self.snd_una, len, out);
        // The retransmission restarts the RTT probe invalid state.
        self.timer.drop_probe();
    }

    /// The host's RTO timer fired. `generation` must match the value the
    /// timer was armed with; stale timers are ignored.
    pub fn on_rto_timer(&mut self, now: Time, generation: u64, out: &mut Vec<Packet>) {
        if !self.timer.expired(now, generation) || self.flight() == 0 {
            return;
        }
        self.stats.timeouts += 1;
        self.stats.retransmits += 1;
        // A timeout is unambiguous congestion: no undo across it.
        self.undo = None;
        // Multiplicative backoff (Karn: no sampling across a timeout) and
        // full go-back-N restart.
        self.timer.back_off();
        self.ssthresh = (self.flight() / 2).max(2 * MSS as u64);
        self.cwnd = MSS as u64;
        self.phase = Phase::SlowStart;
        self.dup_acks = 0;
        self.dup_threshold = 3; // real loss: restore prompt recovery
        self.snd_nxt = self.snd_una;
        self.pump(now, out);
        self.timer.restart(now, self.flight());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_net::types::HostId;

    fn key() -> FlowKey {
        FlowKey::tcp(HostId(0), HostId(1), 10_000, 80)
    }

    fn sender() -> TcpSender {
        TcpSender::new(key(), TcpConfig::default(), Time::ZERO)
    }

    fn seqs(pkts: &[Packet]) -> Vec<(u64, u32)> {
        pkts.iter()
            .map(|p| match p.kind {
                PacketKind::Data { seq, len, .. } => (seq, len),
                _ => panic!("expected data"),
            })
            .collect()
    }

    #[test]
    fn initial_window_burst() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 100_000, &mut out);
        // IW = 10 * 1400 = 14000 bytes = 10 segments.
        assert_eq!(out.len(), 10);
        assert_eq!(seqs(&out)[0], (0, 1400));
        assert_eq!(seqs(&out)[9], (9 * 1400, 1400));
        assert_eq!(s.flight(), 14_000);
        assert!(s.timer().deadline().is_some());
    }

    #[test]
    fn small_job_sent_whole() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 500, &mut out);
        assert_eq!(seqs(&out), vec![(0, 500)]);
    }

    #[test]
    fn ack_clocking_releases_new_segments_and_grows_window() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1_000_000, &mut out);
        out.clear();
        // Ack the first two segments: slow start grows cwnd by 1 MSS per
        // MSS acked → 2 segments freed + 2 growth = 4 new segments.
        let done = s.on_ack(Time::from_micros(100), 2800, false, None, &mut out);
        assert!(done.is_empty());
        assert_eq!(out.len(), 4);
        assert_eq!(s.cwnd(), 14_000 + 2800);
    }

    #[test]
    fn job_completion_reported_once() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 7, 1400, &mut out);
        let done = s.on_ack(Time::from_micros(50), 1400, false, None, &mut out);
        assert_eq!(done, vec![JobCompletion { job_id: 7, bytes: 1400 }]);
        assert!(s.idle());
        assert!(s.timer().deadline().is_none());
        // Re-acking yields nothing.
        let done2 = s.on_ack(Time::from_micros(60), 1400, false, None, &mut out);
        assert!(done2.is_empty());
    }

    #[test]
    fn multiple_jobs_fifo_completion() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1000, &mut out);
        s.enqueue_job(Time::ZERO, 2, 1000, &mut out);
        let done = s.on_ack(Time::from_micros(10), 2000, false, None, &mut out);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].job_id, 1);
        assert_eq!(done[1].job_id, 2);
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1_000_000, &mut out);
        out.clear();
        for i in 0..3 {
            s.on_ack(Time::from_micros(100 + i), 0, false, None, &mut out);
        }
        // Fast retransmit of the first segment.
        assert_eq!(s.stats.fast_retransmits, 1);
        let retx = seqs(&out);
        assert_eq!(retx[0], (0, 1400));
        // ssthresh = flight/2 = 7000.
        assert_eq!(s.cwnd(), 7000 + 3 * 1400);
    }

    #[test]
    fn recovery_full_ack_deflates_window() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1_000_000, &mut out);
        out.clear();
        for i in 0..3 {
            s.on_ack(Time::from_micros(100 + i), 0, false, None, &mut out);
        }
        let recover = s.snd_nxt;
        // Ack everything sent so far: full ack exits recovery at ssthresh.
        s.on_ack(Time::from_micros(300), recover, false, None, &mut out);
        assert_eq!(s.cwnd(), 7000);
        assert_eq!(s.phase, Phase::CongestionAvoidance);
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1_000_000, &mut out);
        // Establish an RTT sample (srtt = 100us).
        s.on_ack(Time::from_micros(100), 1400, false, None, &mut out);
        out.clear();
        for i in 0..3 {
            s.on_ack(Time::from_micros(200 + i), 1400, false, None, &mut out);
        }
        out.clear();
        // A partial ack: the next hole is retransmitted immediately.
        let rtx_before = s.stats.retransmits;
        s.on_ack(Time::from_micros(250), 2800, false, None, &mut out);
        assert!(s.stats.retransmits > rtx_before);
        assert_eq!(seqs(&out)[0], (2800, 1400));
    }

    #[test]
    fn rto_restarts_in_slow_start() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1_000_000, &mut out);
        out.clear();
        let generation = s.timer().generation();
        let deadline = s.timer().deadline().unwrap();
        s.on_rto_timer(deadline, generation, &mut out);
        assert_eq!(s.stats.timeouts, 1);
        assert_eq!(s.cwnd(), 1400);
        assert_eq!(seqs(&out), vec![(0, 1400)]);
        assert_eq!(s.phase, Phase::SlowStart);
    }

    #[test]
    fn stale_rto_generation_ignored() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 100_000, &mut out);
        let old_generation = s.timer().generation();
        out.clear();
        // An ack re-arms the timer, bumping the generation.
        s.on_ack(Time::from_micros(100), 1400, false, None, &mut out);
        out.clear();
        s.on_rto_timer(Time::from_secs(1), old_generation, &mut out);
        assert_eq!(s.stats.timeouts, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn rto_backoff_doubles() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 100_000, &mut out);
        let r0 = s.timer().timeout();
        let generation = s.timer().generation();
        s.on_rto_timer(s.timer().deadline().unwrap(), generation, &mut out);
        assert_eq!(s.timer().timeout(), r0 * 2);
        let g2 = s.timer().generation();
        s.on_rto_timer(s.timer().deadline().unwrap(), g2, &mut out);
        assert_eq!(s.timer().timeout(), r0 * 4);
    }

    #[test]
    fn rtt_estimation_sets_rto() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1400, &mut out);
        s.on_ack(Time::from_micros(1000), 1400, false, None, &mut out);
        assert_eq!(s.timer().srtt(), Some(Duration::from_micros(1000)));
        // rto = srtt + 4*rttvar = 1000 + 4*500 = 3000us, above the 2ms floor.
        assert_eq!(s.timer().timeout(), Duration::from_micros(3000));
    }

    #[test]
    fn min_rto_enforced() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1400, &mut out);
        s.on_ack(Time::from_nanos(100), 1400, false, None, &mut out);
        assert_eq!(s.timer().timeout(), MIN_RTO);
    }

    #[test]
    fn idle_restart_resets_to_initial_window() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 200_000, &mut out);
        // Drive the window up.
        let mut t = Time::from_micros(100);
        loop {
            out.clear();
            let done = s.on_ack(t, s.snd_nxt.min(s.snd_una + 2800), false, None, &mut out);
            t += Duration::from_micros(100);
            if !done.is_empty() {
                break;
            }
        }
        assert!(s.cwnd() > INIT_CWND);
        // A long idle, then a new job: window restarts.
        out.clear();
        s.enqueue_job(t + Duration::from_secs(1), 2, 100_000, &mut out);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn dsack_undo_reverts_spurious_cut() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1_000_000, &mut out);
        let before = s.cwnd();
        out.clear();
        // Reordering: three dupacks trigger a spurious fast retransmit.
        for i in 0..3 {
            s.on_ack(Time::from_micros(100 + i), 0, false, None, &mut out);
        }
        assert!(s.cwnd() < before);
        // The "lost" original arrives: big cumulative ack, then our
        // retransmission shows up as a duplicate of seq 0 (DSACK).
        s.on_ack(Time::from_micros(200), s.snd_nxt(), false, None, &mut out);
        s.on_ack(Time::from_micros(210), s.snd_nxt(), false, Some(0), &mut out);
        assert_eq!(s.stats.spurious_undos, 1);
        assert!(s.cwnd() >= before, "cwnd {} not restored to {}", s.cwnd(), before);
    }

    #[test]
    fn unrelated_duplicate_does_not_undo() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1_000_000, &mut out);
        out.clear();
        for i in 0..3 {
            s.on_ack(Time::from_micros(100 + i), 0, false, None, &mut out);
        }
        let cut = s.cwnd();
        // A duplicate report for some OTHER range (go-back-N overlap).
        s.on_ack(Time::from_micros(200), 1400, false, Some(2800), &mut out);
        assert_eq!(s.stats.spurious_undos, 0);
        assert!(s.cwnd() <= cut + 2 * 1400, "undo fired for unrelated dup");
    }

    #[test]
    fn newreno_ignores_ece() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1_000_000, &mut out);
        let before = s.cwnd();
        s.on_ack(Time::from_micros(100), 1400, true, None, &mut out);
        assert!(s.cwnd() > before);
    }

    #[test]
    fn ack_beyond_snd_nxt_is_ignored() {
        let mut s = sender();
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 1400, &mut out);
        let done = s.on_ack(Time::from_micros(1), 999_999, false, None, &mut out);
        assert!(done.is_empty());
        assert_eq!(s.flight(), 1400);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut s = sender();
        s.ssthresh = 14_000; // already at threshold
        s.phase = Phase::CongestionAvoidance;
        let mut out = Vec::new();
        s.enqueue_job(Time::ZERO, 1, 10_000_000, &mut out);
        let w0 = s.cwnd();
        // One full window of acks grows cwnd by ~1 MSS.
        let mut acked = 0;
        let mut t = Time::from_micros(100);
        while acked < w0 {
            acked += 1400;
            out.clear();
            s.on_ack(t, acked, false, None, &mut out);
            t += Duration::from_micros(10);
        }
        let grown = s.cwnd() - w0;
        assert!((1300..1600).contains(&(grown as i64)), "CA growth {grown}");
    }
}
