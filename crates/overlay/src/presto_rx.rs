//! Presto flowcell reassembly at the receiving hypervisor.
//!
//! Presto sprays fixed-size flowcells over distinct paths, so flowcells can
//! arrive out of order. Its vswitch merges them back in order before the
//! guest VM sees them, so the guest TCP never generates dup-acks for
//! spray-induced reordering (paper §5, "Presto" implementation notes). The
//! reproduction buffers out-of-order segments per flow keyed by inner
//! sequence number, releases contiguous runs, and flushes on a timeout or
//! when a buffer cap is hit (the paper's "empirical static timeout" and
//! "limit on the number of flowcells that are buffered").

use clove_net::packet::{Packet, PacketKind};
use clove_net::types::FlowKey;
use clove_sim::{Duration, Time};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;

/// Deliver buffered segments anyway after the head has waited this long.
pub const FLUSH_TIMEOUT: Duration = Duration::from_micros(500);

/// Maximum buffered segments per flow before a forced flush (loss
/// recovery: the hole is declared lost and TCP takes over).
pub const MAX_BUFFERED: usize = 128;

#[derive(Debug, Default)]
struct FlowBuf {
    expected: u64,
    /// seq → packet, ordered.
    buffered: BTreeMap<u64, Packet>,
    /// When the current head-of-line blockage started.
    blocked_since: Option<Time>,
}

/// Counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReassemblyStats {
    /// Segments delivered without buffering.
    pub passed_through: u64,
    /// Segments held back at least once.
    pub buffered: u64,
    /// Forced flushes (timeout or overflow).
    pub flushes: u64,
}

/// Per-host Presto reassembly engine; `default()` is a fresh one.
#[derive(Debug, Default)]
pub struct PrestoReassembly {
    flows: FxHashMap<FlowKey, FlowBuf>,
    /// Counters.
    pub stats: ReassemblyStats,
}

impl PrestoReassembly {
    /// Accept a data segment; returns the segments now deliverable to the
    /// VM, in order. Non-data packets should not be passed here.
    pub fn on_data(&mut self, now: Time, pkt: Packet) -> Vec<Packet> {
        let PacketKind::Data { seq, len, .. } = pkt.kind else {
            return vec![pkt];
        };
        let buf = self.flows.entry(pkt.flow).or_default();
        let mut out = Vec::new();
        if seq <= buf.expected {
            // In order (or old retransmission): deliver, then drain.
            buf.expected = buf.expected.max(seq + len as u64);
            self.stats.passed_through += 1;
            out.push(pkt);
            Self::drain(buf, &mut out);
            if buf.buffered.is_empty() {
                buf.blocked_since = None;
            } else {
                buf.blocked_since = Some(now);
            }
        } else {
            self.stats.buffered += 1;
            if buf.blocked_since.is_none() {
                buf.blocked_since = Some(now);
            }
            buf.buffered.insert(seq, pkt);
            // Timeout or overflow: give up on the hole — deliver buffered
            // segments in order and let the guest TCP see the gap.
            let blocked_for = buf.blocked_since.map(|t| now.saturating_since(t)).unwrap_or(Duration::ZERO);
            if buf.buffered.len() > MAX_BUFFERED || blocked_for >= FLUSH_TIMEOUT {
                self.stats.flushes += 1;
                Self::flush(buf, &mut out);
            }
        }
        out
    }

    /// Flush any flows whose head-of-line wait exceeded the timeout
    /// (driven by a periodic host timer; also runs lazily in `on_data`).
    pub fn poll(&mut self, now: Time) -> Vec<Packet> {
        let mut out = Vec::new();
        for buf in self.flows.values_mut() {
            if let Some(since) = buf.blocked_since {
                if now.saturating_since(since) >= FLUSH_TIMEOUT && !buf.buffered.is_empty() {
                    self.stats.flushes += 1;
                    Self::flush(buf, &mut out);
                }
            }
        }
        out
    }

    fn drain(buf: &mut FlowBuf, out: &mut Vec<Packet>) {
        while let Some((&seq, _)) = buf.buffered.first_key_value() {
            if seq > buf.expected {
                break;
            }
            let (_, pkt) = buf.buffered.pop_first().expect("checked non-empty");
            if let PacketKind::Data { seq, len, .. } = pkt.kind {
                buf.expected = buf.expected.max(seq + len as u64);
            }
            out.push(pkt);
        }
    }

    fn flush(buf: &mut FlowBuf, out: &mut Vec<Packet>) {
        while let Some((_, pkt)) = buf.buffered.pop_first() {
            if let PacketKind::Data { seq, len, .. } = pkt.kind {
                buf.expected = buf.expected.max(seq + len as u64);
            }
            out.push(pkt);
        }
        buf.blocked_since = None;
    }

    /// Segments currently held across all flows.
    pub fn held(&self) -> usize {
        self.flows.values().map(|b| b.buffered.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_net::types::HostId;

    fn data(seq: u64) -> Packet {
        Packet::new(seq, 1500, FlowKey::tcp(HostId(0), HostId(1), 10, 80), PacketKind::Data { seq, len: 1400, dsn: seq })
    }

    fn seqs(pkts: &[Packet]) -> Vec<u64> {
        pkts.iter()
            .map(|p| match p.kind {
                PacketKind::Data { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect()
    }

    fn engine() -> PrestoReassembly {
        PrestoReassembly::default()
    }

    #[test]
    fn in_order_passes_through() {
        let mut e = engine();
        assert_eq!(seqs(&e.on_data(Time::ZERO, data(0))), vec![0]);
        assert_eq!(seqs(&e.on_data(Time::ZERO, data(1400))), vec![1400]);
        assert_eq!(e.held(), 0);
        assert_eq!(e.stats.passed_through, 2);
    }

    #[test]
    fn out_of_order_held_then_released_in_order() {
        let mut e = engine();
        // 2800 and 1400 arrive before 0.
        assert!(e.on_data(Time::ZERO, data(2800)).is_empty());
        assert!(e.on_data(Time::ZERO, data(1400)).is_empty());
        assert_eq!(e.held(), 2);
        let released = e.on_data(Time::ZERO, data(0));
        assert_eq!(seqs(&released), vec![0, 1400, 2800]);
        assert_eq!(e.held(), 0);
    }

    #[test]
    fn timeout_flush_gives_up_on_hole() {
        let mut e = engine();
        assert!(e.on_data(Time::ZERO, data(1400)).is_empty());
        // Nothing for 500us: poll flushes.
        let flushed = e.poll(Time::from_micros(500));
        assert_eq!(seqs(&flushed), vec![1400]);
        assert_eq!(e.stats.flushes, 1);
        // Late-arriving hole filler is treated as old data and passes.
        let late = e.on_data(Time::from_micros(600), data(0));
        assert_eq!(seqs(&late), vec![0]);
    }

    #[test]
    fn lazy_flush_on_arrival_after_timeout() {
        let mut e = engine();
        assert!(e.on_data(Time::ZERO, data(1400)).is_empty());
        let out = e.on_data(Time::from_micros(600), data(2800));
        assert_eq!(seqs(&out), vec![1400, 2800]);
    }

    #[test]
    fn overflow_flush() {
        let mut e = engine();
        // Segments 1..=MAX_BUFFERED wait behind the hole at 0 ...
        let held: Vec<u64> = (1..=MAX_BUFFERED as u64).map(|i| i * 1400).collect();
        for &seq in &held {
            assert!(e.on_data(Time::ZERO, data(seq)).is_empty());
        }
        assert_eq!(e.held(), MAX_BUFFERED);
        // ... and one more exceeds the cap: everything flushes, in order.
        let next = (MAX_BUFFERED as u64 + 1) * 1400;
        let out = e.on_data(Time::ZERO, data(next));
        assert_eq!(seqs(&out), held.iter().copied().chain([next]).collect::<Vec<_>>());
        assert_eq!(e.held(), 0);
    }

    #[test]
    fn flows_are_independent() {
        let mut e = engine();
        let mut other = data(1400);
        other.flow = FlowKey::tcp(HostId(2), HostId(1), 10, 80);
        assert!(e.on_data(Time::ZERO, other).is_empty());
        // The first flow is unaffected by the other's hole.
        assert_eq!(seqs(&e.on_data(Time::ZERO, data(0))), vec![0]);
    }
}
