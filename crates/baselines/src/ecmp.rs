//! The ECMP baseline: static, congestion-oblivious flow hashing.

use clove_net::packet::Packet;
use clove_net::types::HostId;
use clove_overlay::EdgePolicy;
use clove_sim::Time;

/// Port span the hash spreads over (≫ number of paths so ECMP sees an
/// effectively random port per flow).
pub const SPAN: u16 = 4096;

/// Outer source port = hash(inner five-tuple): each flow takes one path
/// for its entire lifetime, however long and however congested — the
/// behaviour every other scheme improves on.
pub struct EcmpPolicy;

impl EdgePolicy for EcmpPolicy {
    fn name(&self) -> &'static str {
        "ecmp"
    }

    fn select_port(&mut self, _now: Time, _dst: HostId, pkt: &mut Packet) -> u16 {
        let h = clove_net::hash::hash_tuple(&pkt.flow, 0xEC3B);
        49152 + (h % SPAN as u64) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_net::packet::PacketKind;
    use clove_net::types::FlowKey;

    fn pkt(sport: u16) -> Packet {
        Packet::new(1, 1500, FlowKey::tcp(HostId(0), HostId(1), sport, 80), PacketKind::Data { seq: 0, len: 1400, dsn: 0 })
    }

    #[test]
    fn stable_per_flow_forever() {
        let mut p = EcmpPolicy;
        let mut a = pkt(1000);
        let port = p.select_port(Time::ZERO, HostId(1), &mut a);
        for t in [1u64, 1000, 1_000_000_000] {
            assert_eq!(p.select_port(Time::from_nanos(t), HostId(1), &mut a), port);
        }
    }

    #[test]
    fn different_flows_spread() {
        let mut p = EcmpPolicy;
        let mut seen = rustc_hash::FxHashSet::default();
        for s in 0..256 {
            let mut a = pkt(s);
            seen.insert(p.select_port(Time::ZERO, HostId(1), &mut a));
        }
        assert!(seen.len() > 200, "poor spread: {}", seen.len());
    }
}
