//! The simulated packet.
//!
//! A [`Packet`] is a metadata record, not a byte buffer: payload bytes are
//! counted, never materialized. Fields map one-to-one onto what Clove
//! manipulates on the wire:
//!
//! * `flow` — the inner (guest VM) five-tuple.
//! * `outer` — the STT-like encapsulation header added by the source
//!   hypervisor. The outer transport source port is Clove's steering knob:
//!   ECMP switches hash the *outer* tuple, so changing `outer.sport`
//!   changes the path.
//! * `ect` / `ce` — outer-header ECN bits. The source vswitch sets ECT;
//!   switches set CE above the queue threshold.
//! * `int_util_pm` — the running maximum egress-link utilization stamped by
//!   INT-capable switches (per-mille).
//! * `feedback` — Clove metadata the destination hypervisor piggybacks in
//!   reserved STT-context bits of reverse traffic.
//! * `conga` — CONGA's lbtag/CE fields, present only under the CONGA
//!   fabric scheme.

use crate::types::{FlowKey, HostId, LinkId, SwitchId, PROTO_TCP, STT_PORT};

/// The STT-like overlay encapsulation header (the fields ECMP hashes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Encap {
    /// Source hypervisor (outer source address).
    pub src: HostId,
    /// Destination hypervisor (outer destination address).
    pub dst: HostId,
    /// Outer transport source port — Clove's path selector.
    pub sport: u16,
}

impl Encap {
    /// The outer five-tuple as seen by fabric ECMP.
    pub fn outer_key(&self) -> FlowKey {
        FlowKey { src: self.src, dst: self.dst, sport: self.sport, dport: STT_PORT, proto: PROTO_TCP }
    }
}

/// What kind of segment this packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A TCP data segment: `seq` is the subflow-level byte offset of the
    /// first payload byte, `len` the payload length; `dsn` is the MPTCP
    /// data-level sequence number (equals `seq` for plain TCP).
    Data {
        /// Subflow-level byte offset of the first payload byte.
        seq: u64,
        /// Payload length in bytes.
        len: u32,
        /// MPTCP data-level sequence number (== `seq` for plain TCP).
        dsn: u64,
    },
    /// A cumulative TCP acknowledgement for subflow bytes below `ackno`.
    /// `dack` is the MPTCP data-level cumulative ack (equals `ackno` for
    /// plain TCP). `ece` is the guest's ECN echo; the vswitch never lets a
    /// guest see a CE mark, so the host stack's ACKs carry `false`.
    /// `dup` is the DSACK-style signal: when the segment that triggered
    /// this ACK was an already-received duplicate, it carries that
    /// segment's start sequence (lets senders undo spurious
    /// retransmissions, as Linux does — important under flowlet
    /// reordering).
    Ack {
        /// Cumulative subflow-level acknowledgement.
        ackno: u64,
        /// Cumulative MPTCP data-level acknowledgement.
        dack: u64,
        /// ECN echo toward the sending guest (always `false`; see above).
        ece: bool,
        /// DSACK: start seq of a duplicate segment, when one triggered
        /// this ACK.
        dup: Option<u64>,
    },
    /// A Clove traceroute probe sent with an exploratory TTL.
    Probe {
        /// Prober-assigned id echoed by replies.
        probe_id: u64,
        /// The TTL this probe was launched with (its hop index).
        ttl_sent: u8,
    },
    /// ICMP time-exceeded equivalent: the reply a switch generates when a
    /// probe's TTL expires, identifying the switch and ingress interface.
    ProbeReply {
        /// Echo of the probe's id.
        probe_id: u64,
        /// Echo of the probe's TTL.
        ttl_sent: u8,
        /// The switch where the TTL expired.
        switch: SwitchId,
        /// The interface the probe arrived on at that switch.
        ingress: Option<LinkId>,
    },
    /// A standalone feedback carrier, used only when no reverse traffic is
    /// available to piggyback on.
    FeedbackOnly,
    /// A HULA probe (Katta et al., SOSR '16 — paper §8): advertises the
    /// best-path utilization *toward* `tor`, flooding away from it.
    HulaProbe {
        /// The ToR (leaf) switch this probe advertises reachability to.
        tor: u32,
        /// Max utilization (per-mille) along the advertised path so far.
        util_pm: u16,
    },
}

/// Clove metadata relayed from destination to source hypervisor in the
/// reserved STT-context bits of reverse traffic (paper §3.2, Figure 2/3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// Clove-ECN: the named outer source port saw (or did not see) CE on
    /// the forward path.
    Ecn {
        /// The outer source port (path) this feedback describes.
        sport: u16,
        /// Whether CE was observed on that path since the last relay.
        congested: bool,
    },
    /// Clove-INT: maximum forward-path link utilization in per-mille.
    Util {
        /// The outer source port (path) this feedback describes.
        sport: u16,
        /// Maximum per-mille link utilization observed along the path.
        util_pm: u16,
    },
}

impl Feedback {
    /// The outer source port this feedback describes.
    pub fn sport(&self) -> u16 {
        match *self {
            Feedback::Ecn { sport, .. } | Feedback::Util { sport, .. } => sport,
        }
    }
}

/// CONGA per-packet state (only under the CONGA fabric scheme): the
/// forward-direction lbtag + congestion metric, and the piggybacked
/// feedback pair for the reverse direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CongaTag {
    /// Uplink index chosen by the source leaf for this packet's flowlet.
    pub lbtag: u8,
    /// Running max of quantized path congestion (updated at each hop).
    pub ce: u8,
    /// Feedback for the reverse direction: `(lbtag, metric)` from the
    /// packet receiver's leaf back to the sender's leaf.
    pub fb: Option<(u8, u8)>,
}

/// A simulated packet. See the module docs for field semantics.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Unique id (diagnostics and tests).
    pub uid: u64,
    /// Total size on the wire in bytes, headers included.
    pub size: u32,
    /// Inner (guest VM) five-tuple.
    pub flow: FlowKey,
    /// Overlay encapsulation; `None` until the source vswitch encapsulates
    /// (and for fabric-generated packets).
    pub outer: Option<Encap>,
    /// Remaining IP TTL (outer header if encapsulated).
    pub ttl: u8,
    /// ECN-Capable-Transport bit on the routed (outer) header.
    pub ect: bool,
    /// Congestion-Experienced bit on the routed (outer) header.
    pub ce: bool,
    /// Segment type and transport fields.
    pub kind: PacketKind,
    /// INT: running max egress utilization (per-mille), when INT enabled.
    pub int_util_pm: Option<u16>,
    /// Piggybacked Clove feedback (STT context bits).
    pub feedback: Option<Feedback>,
    /// CONGA metadata, when the fabric runs CONGA.
    pub conga: Option<CongaTag>,
    /// Presto flowcell index within the flow (0 when unused).
    pub flowcell: u32,
}

/// Default IP TTL for data traffic — large enough to never expire in a
/// datacenter fabric.
pub const DATA_TTL: u8 = 64;

/// Wire size of a traceroute probe (the nominal 100-byte per-packet
/// overhead; see `clove_tcp::config::HEADER_OVERHEAD`).
pub const PROBE_SIZE: u32 = 100;
/// Wire size of a probe reply (ICMP time-exceeded analogue).
pub const PROBE_REPLY_SIZE: u32 = 100;

impl Packet {
    /// Build a packet with the common defaults; callers adjust fields.
    pub fn new(uid: u64, size: u32, flow: FlowKey, kind: PacketKind) -> Packet {
        Packet { uid, size, flow, outer: None, ttl: DATA_TTL, ect: false, ce: false, kind, int_util_pm: None, feedback: None, conga: None, flowcell: 0 }
    }

    /// The five-tuple the *fabric* routes and hashes on: the outer header
    /// when encapsulated, otherwise the inner one.
    pub fn routed_key(&self) -> FlowKey {
        match &self.outer {
            Some(e) => e.outer_key(),
            None => self.flow,
        }
    }

    /// The destination the fabric delivers to.
    pub fn routed_dst(&self) -> HostId {
        self.routed_key().dst
    }

    /// True for TCP payload-bearing segments.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routed_key_prefers_outer() {
        let flow = FlowKey::tcp(HostId(1), HostId(2), 100, 200);
        let mut p = Packet::new(1, 1500, flow, PacketKind::Data { seq: 0, len: 1400, dsn: 0 });
        assert_eq!(p.routed_key(), flow);
        p.outer = Some(Encap { src: HostId(10), dst: HostId(20), sport: 5555 });
        let k = p.routed_key();
        assert_eq!(k.src, HostId(10));
        assert_eq!(k.dst, HostId(20));
        assert_eq!(k.sport, 5555);
        assert_eq!(k.dport, STT_PORT);
        assert_eq!(p.routed_dst(), HostId(20));
    }

    #[test]
    fn feedback_sport_accessor() {
        assert_eq!(Feedback::Ecn { sport: 7, congested: true }.sport(), 7);
        assert_eq!(Feedback::Util { sport: 8, util_pm: 500 }.sport(), 8);
    }

    /// Every hop copies the whole packet and the event queue holds one
    /// event per packet in flight, so a new per-packet field is a reviewed
    /// change to these numbers, not a side effect.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn per_packet_footprint_is_pinned() {
        assert_eq!(std::mem::size_of::<Packet>(), 112);
        assert_eq!(std::mem::size_of::<clove_sim::ScheduledEvent<crate::Event>>(), 144);
    }

    #[test]
    fn new_packet_defaults() {
        let p = Packet::new(9, 100, FlowKey::tcp(HostId(0), HostId(1), 1, 2), PacketKind::FeedbackOnly);
        assert_eq!(p.ttl, DATA_TTL);
        assert!(!p.ect && !p.ce);
        assert!(p.outer.is_none());
        assert!(!p.is_data());
    }
}
