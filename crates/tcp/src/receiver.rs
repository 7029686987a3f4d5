//! The TCP receiver: cumulative ACKs with out-of-order buffering.
//!
//! Reordering fidelity matters for the reproduction: when flowlets (or
//! Presto flowcells) arrive out of order, a real receiver emits duplicate
//! ACKs, which can push the sender into spurious fast retransmit — the very
//! cost the flowlet gap (and Presto's reassembly buffer) exist to avoid.
//! This receiver reproduces that behaviour: every data segment triggers an
//! ACK carrying the current cumulative `rcv_nxt`, so out-of-order arrivals
//! produce duplicates.

use crate::config::TcpConfig;
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

/// One simplex TCP receiving endpoint.
#[derive(Debug)]
pub struct TcpReceiver {
    /// The five-tuple of the *incoming* data (src = remote host).
    pub key: FlowKey,
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u32>, // seq -> len of buffered segments
    uid_base: u64,
    uid_counter: u64,
    /// Counters.
    pub stats: ReceiverStats,
}

impl TcpReceiver {
    /// A fresh receiver for data arriving on `key`. The receiver has no
    /// parameter of its own; `_cfg` stays because `benchmark/` calls this
    /// form.
    pub fn new(key: FlowKey, _cfg: TcpConfig) -> TcpReceiver {
        TcpReceiver {
            key,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            uid_base: clove_net::hash::hash_tuple(&key, 0xACE) << 20,
            uid_counter: 0,
            stats: ReceiverStats::default(),
        }
    }

    /// Cumulative bytes delivered in order.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Number of segments currently buffered out of order.
    pub fn ooo_segments(&self) -> usize {
        self.ooo.len()
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
        let end = seq + len as u64;
        let mut dup = None;
        if end <= self.rcv_nxt {
            self.stats.duplicates += 1;
            dup = Some(seq);
        } else {
            self.absorb(seq, len);
        }
        self.make_ack(ce_visible, dup)
    }

    /// Advance receive state for a non-duplicate segment.
    fn absorb(&mut self, seq: u64, len: u32) {
        let end = seq + len as u64;
        if seq <= self.rcv_nxt {
            // In order (possibly partially duplicate): advance and drain.
            self.rcv_nxt = end;
            self.stats.in_order += 1;
            self.drain_ooo();
        } else {
            // A hole precedes this segment: buffer it.
            self.stats.out_of_order += 1;
            let entry = self.ooo.entry(seq).or_insert(0);
            *entry = (*entry).max(len);
        }
    }

    fn drain_ooo(&mut self) {
        while let Some((&seq, &len)) = self.ooo.first_key_value() {
            if seq > self.rcv_nxt {
                break;
            }
            self.ooo.pop_first();
            let end = seq + len as u64;
            if end > self.rcv_nxt {
                self.rcv_nxt = end;
            }
        }
    }

    fn make_ack(&mut self, ece: bool, dup: Option<u64>) -> Packet {
        self.uid_counter += 1;
        Packet::new(
            self.uid_base.wrapping_add(self.uid_counter),
            crate::config::HEADER_OVERHEAD,
            self.key.reversed(),
            PacketKind::Ack { ackno: self.rcv_nxt, dack: self.rcv_nxt, ece, dup },
        )
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
