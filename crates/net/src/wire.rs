//! On-the-wire encodings, in the smoltcp idiom.
//!
//! The simulator's fast path moves structured [`crate::packet::Packet`]s,
//! but every field the Clove algorithms manipulate has a real wire
//! representation, implemented here as zero-copy views over byte buffers:
//!
//! * [`ipv4::HeaderView`] — version/IHL, TTL, protocol, ECN bits (ECT/CE
//!   in the DSCP/ECN byte), addresses, header checksum.
//! * [`tcp::HeaderView`] — ports, sequence/ack numbers, flags.
//! * [`stt::HeaderView`] — the STT-like encapsulation header with the
//!   64-bit *context* field whose reserved bits carry Clove's feedback
//!   (relayed source port, the `ecnSet` bit, utilization, latency), per
//!   paper §4 and Figure 3.
//! * [`probe::ProbePayload`] — the traceroute probe / reply payload.
//!
//! Each view type follows the smoltcp pattern: `new_checked` validates
//! lengths, accessors decode fields in place, setters encode them, and a
//! round-trip property-test suite (in `tests/`) pins the formats.

/// Wire size of a traceroute probe (the nominal 100-byte per-packet
/// overhead; see `clove_tcp::config::DEFAULT_HEADER_OVERHEAD`).
pub const PROBE_SIZE: u32 = 100;
/// Wire size of a probe reply (ICMP time-exceeded analogue).
pub const PROBE_REPLY_SIZE: u32 = 100;

/// Big-endian u32 from the first four bytes of `b` (caller checks length).
fn be_u32(b: &[u8]) -> u32 {
    u32::from_be_bytes([b[0], b[1], b[2], b[3]])
}

/// Big-endian u64 from the first eight bytes of `b` (caller checks length).
fn be_u64(b: &[u8]) -> u64 {
    u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Errors returned by `new_checked` constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header.
    Truncated,
    /// A version or constant field had an unexpected value.
    Malformed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer too short for header"),
            WireError::Malformed => write!(f, "malformed header field"),
        }
    }
}

impl std::error::Error for WireError {}

/// IPv4 header encoding (20-byte fixed header, no options).
pub mod ipv4 {
    use super::WireError;

    /// Header length.
    pub const LEN: usize = 20;
    /// ECN codepoint: not ECN-capable.
    pub const ECN_NOT_ECT: u8 = 0b00;
    /// ECN codepoint: ECN-capable transport (ECT(0)).
    pub const ECN_ECT0: u8 = 0b10;
    /// ECN codepoint: congestion experienced.
    pub const ECN_CE: u8 = 0b11;

    /// A mutable view over an IPv4 header.
    #[derive(Debug)]
    pub struct HeaderView<T: AsRef<[u8]>>(T);

    impl<T: AsRef<[u8]>> HeaderView<T> {
        /// Wrap a buffer, validating length and version.
        pub fn new_checked(buf: T) -> Result<Self, WireError> {
            let b = buf.as_ref();
            if b.len() < LEN {
                return Err(WireError::Truncated);
            }
            if b[0] >> 4 != 4 {
                return Err(WireError::Malformed);
            }
            Ok(HeaderView(buf))
        }

        /// Wrap without validation (for emitting into zeroed buffers).
        pub fn new_unchecked(buf: T) -> Self {
            HeaderView(buf)
        }

        /// The two ECN bits.
        pub fn ecn(&self) -> u8 {
            self.0.as_ref()[1] & 0b11
        }
        /// Time-to-live.
        pub fn ttl(&self) -> u8 {
            self.0.as_ref()[8]
        }
        /// IP protocol number.
        pub fn protocol(&self) -> u8 {
            self.0.as_ref()[9]
        }
        /// Header checksum field.
        pub fn checksum(&self) -> u16 {
            u16::from_be_bytes([self.0.as_ref()[10], self.0.as_ref()[11]])
        }
        /// Source address.
        pub fn src(&self) -> u32 {
            super::be_u32(&self.0.as_ref()[12..16])
        }
        /// Destination address.
        pub fn dst(&self) -> u32 {
            super::be_u32(&self.0.as_ref()[16..20])
        }
        /// Total length field.
        pub fn total_len(&self) -> u16 {
            u16::from_be_bytes([self.0.as_ref()[2], self.0.as_ref()[3]])
        }
        /// Verify the header checksum.
        pub fn checksum_ok(&self) -> bool {
            super::checksum16(&self.0.as_ref()[..LEN]) == 0
        }
    }

    impl<T: AsRef<[u8]> + AsMut<[u8]>> HeaderView<T> {
        /// Write version=4, IHL=5 and defaults.
        pub fn init(&mut self) {
            let b = self.0.as_mut();
            b[..LEN].fill(0);
            b[0] = 0x45;
        }
        /// Set the ECN bits.
        pub fn set_ecn(&mut self, ecn: u8) {
            let b = self.0.as_mut();
            b[1] = (b[1] & !0b11) | (ecn & 0b11);
        }
        /// Set TTL.
        pub fn set_ttl(&mut self, ttl: u8) {
            self.0.as_mut()[8] = ttl;
        }
        /// Set protocol.
        pub fn set_protocol(&mut self, p: u8) {
            self.0.as_mut()[9] = p;
        }
        /// Set source address.
        pub fn set_src(&mut self, a: u32) {
            self.0.as_mut()[12..16].copy_from_slice(&a.to_be_bytes());
        }
        /// Set destination address.
        pub fn set_dst(&mut self, a: u32) {
            self.0.as_mut()[16..20].copy_from_slice(&a.to_be_bytes());
        }
        /// Set total length.
        pub fn set_total_len(&mut self, len: u16) {
            self.0.as_mut()[2..4].copy_from_slice(&len.to_be_bytes());
        }
        /// Compute and store the header checksum.
        pub fn fill_checksum(&mut self) {
            let b = self.0.as_mut();
            b[10] = 0;
            b[11] = 0;
            let c = super::checksum16(&b[..LEN]);
            b[10..12].copy_from_slice(&c.to_be_bytes());
        }
    }
}

/// TCP header encoding (20-byte fixed header).
pub mod tcp {
    use super::WireError;

    /// Header length (no options).
    pub const LEN: usize = 20;

    /// A view over a TCP header.
    #[derive(Debug)]
    pub struct HeaderView<T: AsRef<[u8]>>(T);

    impl<T: AsRef<[u8]>> HeaderView<T> {
        /// Wrap a buffer, validating length.
        pub fn new_checked(buf: T) -> Result<Self, WireError> {
            if buf.as_ref().len() < LEN {
                return Err(WireError::Truncated);
            }
            Ok(HeaderView(buf))
        }
        /// Wrap without validation.
        pub fn new_unchecked(buf: T) -> Self {
            HeaderView(buf)
        }
        /// Source port — the field Clove rotates on encapsulation headers.
        pub fn sport(&self) -> u16 {
            u16::from_be_bytes([self.0.as_ref()[0], self.0.as_ref()[1]])
        }
        /// Destination port.
        pub fn dport(&self) -> u16 {
            u16::from_be_bytes([self.0.as_ref()[2], self.0.as_ref()[3]])
        }
        /// Sequence number.
        pub fn seq(&self) -> u32 {
            super::be_u32(&self.0.as_ref()[4..8])
        }
        /// Acknowledgement number.
        pub fn ack(&self) -> u32 {
            super::be_u32(&self.0.as_ref()[8..12])
        }
        /// Flags byte (CWR ECE URG ACK PSH RST SYN FIN).
        pub fn flags(&self) -> u8 {
            self.0.as_ref()[13]
        }
    }

    impl<T: AsRef<[u8]> + AsMut<[u8]>> HeaderView<T> {
        /// Zero the header and set data offset = 5 words.
        pub fn init(&mut self) {
            let b = self.0.as_mut();
            b[..LEN].fill(0);
            b[12] = 5 << 4;
        }
        /// Set source port.
        pub fn set_sport(&mut self, p: u16) {
            self.0.as_mut()[0..2].copy_from_slice(&p.to_be_bytes());
        }
        /// Set destination port.
        pub fn set_dport(&mut self, p: u16) {
            self.0.as_mut()[2..4].copy_from_slice(&p.to_be_bytes());
        }
        /// Set sequence number.
        pub fn set_seq(&mut self, s: u32) {
            self.0.as_mut()[4..8].copy_from_slice(&s.to_be_bytes());
        }
        /// Set ack number.
        pub fn set_ack(&mut self, a: u32) {
            self.0.as_mut()[8..12].copy_from_slice(&a.to_be_bytes());
        }
        /// Set flags byte.
        pub fn set_flags(&mut self, f: u8) {
            self.0.as_mut()[13] = f;
        }
    }
}

/// The STT-like encapsulation header.
///
/// Real STT is 18 bytes after the outer TCP-like header; the field Clove
/// borrows is the 64-bit *context id*. This reproduction packs feedback as:
///
/// ```text
///  bits 63..48  relayed outer source port
///  bits 47..46  feedback kind (0 none, 1 ECN, 2 UTIL, 3 LATENCY)
///  bit  45      ecnSet (kind = ECN)
///  bits 44..32  utilization per-mille (kind = UTIL)
///  bits 31..0   one-way latency in 64ns units (kind = LATENCY)
/// ```
pub mod stt {
    use super::WireError;

    /// Header length (version, flags, l4 offset, reserved, mss, vlan,
    /// context id, padding) — mirrors STT's 18-byte layout.
    pub const LEN: usize = 18;
    /// Feedback kind: none.
    pub const FB_NONE: u8 = 0;
    /// Feedback kind: Clove-ECN.
    pub const FB_ECN: u8 = 1;
    /// Feedback kind: Clove-INT utilization.
    pub const FB_UTIL: u8 = 2;
    /// Feedback kind: Clove latency extension.
    pub const FB_LATENCY: u8 = 3;

    /// A view over the STT-like header.
    #[derive(Debug)]
    pub struct HeaderView<T: AsRef<[u8]>>(T);

    impl<T: AsRef<[u8]>> HeaderView<T> {
        /// Wrap a buffer, validating length and version.
        pub fn new_checked(buf: T) -> Result<Self, WireError> {
            let b = buf.as_ref();
            if b.len() < LEN {
                return Err(WireError::Truncated);
            }
            if b[0] != 0 {
                return Err(WireError::Malformed); // STT version 0
            }
            Ok(HeaderView(buf))
        }
        /// Wrap without validation.
        pub fn new_unchecked(buf: T) -> Self {
            HeaderView(buf)
        }
        /// The raw 64-bit context id.
        pub fn context(&self) -> u64 {
            super::be_u64(&self.0.as_ref()[8..16])
        }
        /// Decode the feedback kind bits.
        pub fn fb_kind(&self) -> u8 {
            ((self.context() >> 46) & 0b11) as u8
        }
        /// The relayed outer source port.
        pub fn fb_sport(&self) -> u16 {
            (self.context() >> 48) as u16
        }
        /// The `ecnSet` bit (valid when kind = ECN).
        pub fn fb_ecn_set(&self) -> bool {
            (self.context() >> 45) & 1 == 1
        }
        /// Utilization per-mille (valid when kind = UTIL).
        pub fn fb_util_pm(&self) -> u16 {
            ((self.context() >> 32) & 0x1FFF) as u16
        }
        /// One-way latency in nanoseconds (valid when kind = LATENCY).
        pub fn fb_latency_ns(&self) -> u64 {
            (self.context() & 0xFFFF_FFFF) * 64
        }
    }

    impl<T: AsRef<[u8]> + AsMut<[u8]>> HeaderView<T> {
        /// Zero the header (version 0).
        pub fn init(&mut self) {
            self.0.as_mut()[..LEN].fill(0);
        }
        /// Store a raw context id.
        pub fn set_context(&mut self, c: u64) {
            self.0.as_mut()[8..16].copy_from_slice(&c.to_be_bytes());
        }
        /// Encode ECN feedback.
        pub fn set_fb_ecn(&mut self, sport: u16, ecn_set: bool) {
            let c = ((sport as u64) << 48) | ((FB_ECN as u64) << 46) | ((ecn_set as u64) << 45);
            self.set_context(c);
        }
        /// Encode utilization feedback.
        pub fn set_fb_util(&mut self, sport: u16, util_pm: u16) {
            let c = ((sport as u64) << 48) | ((FB_UTIL as u64) << 46) | (((util_pm & 0x1FFF) as u64) << 32);
            self.set_context(c);
        }
        /// Encode latency feedback (rounded to 64 ns granularity).
        pub fn set_fb_latency(&mut self, sport: u16, ns: u64) {
            let units = (ns / 64).min(0xFFFF_FFFF);
            let c = ((sport as u64) << 48) | ((FB_LATENCY as u64) << 46) | units;
            self.set_context(c);
        }
    }
}

/// Traceroute probe / reply payloads.
pub mod probe {
    use super::WireError;

    /// Payload length.
    pub const LEN: usize = 16;
    /// Discriminator: probe.
    pub const KIND_PROBE: u8 = 1;
    /// Discriminator: reply.
    pub const KIND_REPLY: u8 = 2;

    /// Decoded probe payload.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ProbePayload {
        /// Probe vs reply.
        pub kind: u8,
        /// TTL the probe was sent with (identifies the hop index).
        pub ttl_sent: u8,
        /// Prober-assigned id, echoed in replies.
        pub probe_id: u64,
        /// Replying switch (reply only).
        pub switch: u32,
        /// Ingress interface at the replying switch (reply only).
        pub ingress: u16,
    }

    impl ProbePayload {
        /// Encode into a 16-byte buffer.
        pub fn emit(&self, buf: &mut [u8]) -> Result<(), WireError> {
            if buf.len() < LEN {
                return Err(WireError::Truncated);
            }
            buf[0] = self.kind;
            buf[1] = self.ttl_sent;
            buf[2..10].copy_from_slice(&self.probe_id.to_be_bytes());
            buf[10..14].copy_from_slice(&self.switch.to_be_bytes());
            buf[14..16].copy_from_slice(&self.ingress.to_be_bytes());
            Ok(())
        }

        /// Decode from a buffer.
        pub fn parse(buf: &[u8]) -> Result<ProbePayload, WireError> {
            if buf.len() < LEN {
                return Err(WireError::Truncated);
            }
            let kind = buf[0];
            if kind != KIND_PROBE && kind != KIND_REPLY {
                return Err(WireError::Malformed);
            }
            Ok(ProbePayload {
                kind,
                ttl_sent: buf[1],
                probe_id: super::be_u64(&buf[2..10]),
                switch: super::be_u32(&buf[10..14]),
                ingress: u16::from_be_bytes([buf[14], buf[15]]),
            })
        }
    }
}

/// Internet one's-complement checksum over a buffer.
pub fn checksum16(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_round_trip() {
        let mut buf = [0u8; ipv4::LEN];
        let mut h = ipv4::HeaderView::new_unchecked(&mut buf[..]);
        h.init();
        h.set_ecn(ipv4::ECN_ECT0);
        h.set_ttl(64);
        h.set_protocol(6);
        h.set_src(0x0A000001);
        h.set_dst(0x0A000002);
        h.set_total_len(1500);
        h.fill_checksum();
        let h = ipv4::HeaderView::new_checked(&buf[..]).unwrap();
        assert_eq!(h.ecn(), ipv4::ECN_ECT0);
        assert_eq!(h.ttl(), 64);
        assert_eq!(h.protocol(), 6);
        assert_eq!(h.src(), 0x0A000001);
        assert_eq!(h.dst(), 0x0A000002);
        assert_eq!(h.total_len(), 1500);
        assert!(h.checksum_ok());
    }

    #[test]
    fn ipv4_ce_mark_keeps_checksum_refreshable() {
        let mut buf = [0u8; ipv4::LEN];
        let mut h = ipv4::HeaderView::new_unchecked(&mut buf[..]);
        h.init();
        h.set_ecn(ipv4::ECN_ECT0);
        h.fill_checksum();
        // A switch marking CE must refresh the checksum.
        let mut h = ipv4::HeaderView::new_unchecked(&mut buf[..]);
        h.set_ecn(ipv4::ECN_CE);
        h.fill_checksum();
        let h = ipv4::HeaderView::new_checked(&buf[..]).unwrap();
        assert_eq!(h.ecn(), ipv4::ECN_CE);
        assert!(h.checksum_ok());
    }

    #[test]
    fn ipv4_rejects_short_and_bad_version() {
        assert_eq!(ipv4::HeaderView::new_checked(&[0u8; 10][..]).unwrap_err(), WireError::Truncated);
        let buf = [0u8; ipv4::LEN]; // version nibble 0
        assert_eq!(ipv4::HeaderView::new_checked(&buf[..]).unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn tcp_round_trip() {
        let mut buf = [0u8; tcp::LEN];
        let mut h = tcp::HeaderView::new_unchecked(&mut buf[..]);
        h.init();
        h.set_sport(50001);
        h.set_dport(7471);
        h.set_seq(123456789);
        h.set_ack(987654321);
        h.set_flags(0b0001_0000);
        let h = tcp::HeaderView::new_checked(&buf[..]).unwrap();
        assert_eq!(h.sport(), 50001);
        assert_eq!(h.dport(), 7471);
        assert_eq!(h.seq(), 123456789);
        assert_eq!(h.ack(), 987654321);
        assert_eq!(h.flags(), 0b0001_0000);
    }

    #[test]
    fn stt_feedback_encodings() {
        let mut buf = [0u8; stt::LEN];
        let mut h = stt::HeaderView::new_unchecked(&mut buf[..]);
        h.init();
        h.set_fb_ecn(50003, true);
        let h = stt::HeaderView::new_checked(&buf[..]).unwrap();
        assert_eq!(h.fb_kind(), stt::FB_ECN);
        assert_eq!(h.fb_sport(), 50003);
        assert!(h.fb_ecn_set());

        let mut h = stt::HeaderView::new_unchecked(&mut buf[..]);
        h.set_fb_util(40000, 850);
        let h = stt::HeaderView::new_checked(&buf[..]).unwrap();
        assert_eq!(h.fb_kind(), stt::FB_UTIL);
        assert_eq!(h.fb_sport(), 40000);
        assert_eq!(h.fb_util_pm(), 850);

        let mut h = stt::HeaderView::new_unchecked(&mut buf[..]);
        h.set_fb_latency(65535, 128_000);
        let h = stt::HeaderView::new_checked(&buf[..]).unwrap();
        assert_eq!(h.fb_kind(), stt::FB_LATENCY);
        assert_eq!(h.fb_sport(), 65535);
        assert_eq!(h.fb_latency_ns(), 128_000);
    }

    #[test]
    fn probe_round_trip() {
        let p = probe::ProbePayload { kind: probe::KIND_REPLY, ttl_sent: 2, probe_id: 0xDEADBEEF, switch: 3, ingress: 17 };
        let mut buf = [0u8; probe::LEN];
        p.emit(&mut buf).unwrap();
        assert_eq!(probe::ProbePayload::parse(&buf).unwrap(), p);
    }

    #[test]
    fn probe_rejects_bad_kind() {
        let mut buf = [0u8; probe::LEN];
        buf[0] = 9;
        assert_eq!(probe::ProbePayload::parse(&buf).unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example-style check: sum of buffer with its checksum = 0.
        let data = [0x45u8, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7];
        let c = checksum16(&data);
        let mut with = data;
        with[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(checksum16(&with), 0);
    }

    #[test]
    fn checksum_odd_length() {
        let c = checksum16(&[0xFF, 0x00, 0xAB]);
        // manual: 0xFF00 + 0xAB00 = 0x1AA00 -> 0xAA01 -> !0xAA01 = 0x55FE
        assert_eq!(c, 0x55FE);
    }
}
