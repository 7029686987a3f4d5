//! The TCP receiver: cumulative ACKs with out-of-order buffering.
//!
//! Reordering fidelity matters for the reproduction: when flowlets (or
//! Presto flowcells) arrive out of order, a real receiver emits duplicate
//! ACKs, which can push the sender into spurious fast retransmit — the very
//! cost the flowlet gap (and Presto's reassembly buffer) exist to avoid.
//! This receiver reproduces that behaviour: every data segment triggers an
//! ACK carrying the current cumulative `rcv_nxt`, so out-of-order arrivals
//! produce duplicates.
//!
//! The reassembly itself is a [`ReceiveCursor`], the one implementation of
//! "advance `rcv_nxt`, buffer out of order, drain" — a [`TcpReceiver`] runs
//! one, an MPTCP receiver one per subflow plus one over the data sequence
//! space.

use crate::config::{TcpConfig, HEADER_OVERHEAD};
use clove_net::packet::{Packet, PacketKind};
use clove_net::types::FlowKey;
use clove_sim::Time;
use std::collections::BTreeMap;

/// Receiver-side counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiverStats {
    /// Data segments accepted in order.
    pub in_order: u64,
    /// Data segments buffered out of order.
    pub out_of_order: u64,
    /// Duplicate (already-covered) segments discarded.
    pub duplicates: u64,
    /// Data packets whose (inner) CE mark was visible to the VM.
    pub ce_seen: u64,
}

/// What a segment did to a [`ReceiveCursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// It started at or below `rcv_nxt` and advanced it.
    InOrder,
    /// A hole precedes it: buffered until the hole fills.
    OutOfOrder,
    /// Every byte was already covered: discarded.
    Duplicate,
}

/// The cumulative receive point of one sequence space, with the segments
/// that arrived above a hole buffered until it fills.
///
/// A buffered sequence number keeps the longest length seen for it: a
/// NewReno sender may re-send a range from the same start with a
/// different length. An MPTCP sender never does — a chunk's `(seq, len)`
/// and `(dsn, len)` are fixed when the subflow scheduler maps it and a
/// retransmission re-sends the mapped chunk — so for its cursors keeping
/// the longest and keeping the last agree.
#[derive(Debug, Default)]
pub struct ReceiveCursor {
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u32>, // seq -> len of buffered segments
}

impl ReceiveCursor {
    /// The lowest byte not yet received in order.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Number of segments buffered out of order.
    pub fn buffered(&self) -> usize {
        self.ooo.len()
    }

    /// Take in the segment `[seq, seq + len)`.
    pub fn accept(&mut self, seq: u64, len: u32) -> Arrival {
        let end = seq + len as u64;
        if end <= self.rcv_nxt {
            return Arrival::Duplicate;
        }
        if seq > self.rcv_nxt {
            let entry = self.ooo.entry(seq).or_insert(0);
            *entry = (*entry).max(len);
            return Arrival::OutOfOrder;
        }
        // In order (possibly partially duplicate): advance and drain.
        self.rcv_nxt = end;
        while let Some((&seq, &len)) = self.ooo.first_key_value() {
            if seq > self.rcv_nxt {
                break;
            }
            self.ooo.pop_first();
            self.rcv_nxt = self.rcv_nxt.max(seq + len as u64);
        }
        Arrival::InOrder
    }
}

/// One simplex TCP receiving endpoint.
#[derive(Debug)]
pub struct TcpReceiver {
    /// The five-tuple of the *incoming* data (src = remote host).
    pub key: FlowKey,
    cursor: ReceiveCursor,
    /// Counters.
    pub stats: ReceiverStats,
}

impl TcpReceiver {
    /// A fresh receiver for data arriving on `key`. The receiver has no
    /// parameter of its own; `_cfg` stays because `benchmark/` calls this
    /// form.
    pub fn new(key: FlowKey, _cfg: TcpConfig) -> TcpReceiver {
        TcpReceiver { key, cursor: ReceiveCursor::default(), stats: ReceiverStats::default() }
    }

    /// Cumulative bytes delivered in order.
    pub fn rcv_nxt(&self) -> u64 {
        self.cursor.rcv_nxt()
    }

    /// Number of segments currently buffered out of order.
    pub fn ooo_segments(&self) -> usize {
        self.cursor.buffered()
    }

    /// Accept a data segment; returns the ACK to send back.
    ///
    /// `ce_visible` is what the hypervisor let the VM see of the CE mark;
    /// the vswitch always masks outer CE (paper §3.2), so the host stack
    /// passes `false`. The ACK depends on no clock. `_now` and `ce_visible`
    /// stay because `benchmark/` calls this form; removing them is a change
    /// to the benchmark as well.
    pub fn on_data(&mut self, _now: Time, seq: u64, len: u32, ce_visible: bool) -> Packet {
        if ce_visible {
            self.stats.ce_seen += 1;
        }
        let mut dup = None;
        match self.cursor.accept(seq, len) {
            Arrival::InOrder => self.stats.in_order += 1,
            Arrival::OutOfOrder => self.stats.out_of_order += 1,
            Arrival::Duplicate => {
                self.stats.duplicates += 1;
                dup = Some(seq);
            }
        }
        let rcv_nxt = self.cursor.rcv_nxt();
        Packet::new(0, HEADER_OVERHEAD, self.key.reversed(), PacketKind::Ack { ackno: rcv_nxt, dack: rcv_nxt, ece: ce_visible, dup })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_net::types::HostId;

    fn rx() -> TcpReceiver {
        TcpReceiver::new(FlowKey::tcp(HostId(0), HostId(1), 10, 80), TcpConfig::default())
    }

    fn ackno(p: &Packet) -> u64 {
        match p.kind {
            PacketKind::Ack { ackno, .. } => ackno,
            _ => panic!("not an ack"),
        }
    }

    #[test]
    fn in_order_delivery_advances() {
        let mut r = rx();
        let a1 = r.on_data(Time::ZERO, 0, 1400, false);
        assert_eq!(ackno(&a1), 1400);
        let a2 = r.on_data(Time::ZERO, 1400, 1400, false);
        assert_eq!(ackno(&a2), 2800);
        assert_eq!(r.stats.in_order, 2);
        // ACKs travel the reverse direction.
        assert_eq!(a1.flow.src, HostId(1));
        assert_eq!(a1.flow.dst, HostId(0));
    }

    #[test]
    fn gap_produces_dup_acks_then_catches_up() {
        let mut r = rx();
        r.on_data(Time::ZERO, 0, 1400, false);
        // Segment 2 lost; 3 and 4 arrive.
        let d3 = r.on_data(Time::ZERO, 2800, 1400, false);
        let d4 = r.on_data(Time::ZERO, 4200, 1400, false);
        assert_eq!(ackno(&d3), 1400);
        assert_eq!(ackno(&d4), 1400);
        assert_eq!(r.ooo_segments(), 2);
        // The hole fills: cumulative ack jumps over the buffered data.
        let a = r.on_data(Time::ZERO, 1400, 1400, false);
        assert_eq!(ackno(&a), 5600);
        assert_eq!(r.ooo_segments(), 0);
    }

    #[test]
    fn duplicate_segments_discarded() {
        let mut r = rx();
        r.on_data(Time::ZERO, 0, 1400, false);
        let a = r.on_data(Time::ZERO, 0, 1400, false);
        assert_eq!(ackno(&a), 1400);
        assert_eq!(r.stats.duplicates, 1);
    }

    #[test]
    fn overlapping_retransmission_advances_correctly() {
        let mut r = rx();
        r.on_data(Time::ZERO, 0, 1400, false);
        // Go-back-N retransmission overlaps previously buffered data.
        r.on_data(Time::ZERO, 2800, 1400, false);
        let a = r.on_data(Time::ZERO, 1400, 1400, false);
        assert_eq!(ackno(&a), 4200);
    }

    #[test]
    fn ece_echoed_when_ce_visible() {
        let mut r = rx();
        let a = r.on_data(Time::ZERO, 0, 1400, true);
        match a.kind {
            PacketKind::Ack { ece, .. } => assert!(ece),
            _ => unreachable!(),
        }
        let a2 = r.on_data(Time::ZERO, 1400, 1400, false);
        match a2.kind {
            PacketKind::Ack { ece, .. } => assert!(!ece),
            _ => unreachable!(),
        }
        assert_eq!(r.stats.ce_seen, 1);
    }

    #[test]
    fn reordered_ooo_segments_drain_in_order() {
        let mut r = rx();
        // Arrive fully reversed.
        r.on_data(Time::ZERO, 4200, 1400, false);
        r.on_data(Time::ZERO, 2800, 1400, false);
        r.on_data(Time::ZERO, 1400, 1400, false);
        let a = r.on_data(Time::ZERO, 0, 1400, false);
        assert_eq!(ackno(&a), 5600);
    }
}
