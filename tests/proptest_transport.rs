//! Property tests on the transport and algorithm invariants.

use clove::algo::{FlowletConfig, FlowletTable, PathSet};
use clove::net::packet::{Packet, PacketKind};
use clove::net::types::{FlowKey, HostId};
use clove::sim::{Duration, SimRng, Time};
use clove::tcp::{ReceiveCursor, TcpConfig, TcpReceiver, TcpSender};
use clove::workload::fct::Summary;
use proptest::prelude::*;

/// Drive a sender/receiver pair over a lossy, reordering "wire" and check
/// that every byte is eventually delivered exactly once, regardless of
/// the loss pattern — the fundamental transport invariant.
fn lossy_loopback(total_bytes: u64, loss_seed: u64, loss_rate: f64) -> bool {
    // The run's transport, RTO backoff to 2 s included.
    let cfg = TcpConfig::default();
    let key = FlowKey::tcp(HostId(0), HostId(1), 99, 80);
    let mut tx = TcpSender::new(key, cfg, Time::ZERO);
    let mut rx = TcpReceiver::new(key, cfg);
    let mut rng = SimRng::new(loss_seed);
    let mut wire: Vec<Packet> = Vec::new();
    tx.enqueue_job(Time::ZERO, 1, total_bytes, &mut wire);
    let mut now = Time::ZERO;
    let mut done = false;
    for _ in 0..200_000 {
        if wire.is_empty() {
            // Nothing on the wire: only the RTO moves the transfer on, so
            // the clock jumps straight to it — a long backoff costs one
            // iteration, not one per 40 µs.
            let Some(deadline) = tx.timer().deadline() else { break };
            now = now.max(deadline);
            let generation = tx.timer().generation();
            tx.on_rto_timer(now, generation, &mut wire);
            continue;
        }
        now += Duration::from_micros(20);
        let batch: Vec<Packet> = std::mem::take(&mut wire);
        let mut acks = Vec::new();
        for p in batch {
            if rng.chance(loss_rate) {
                continue; // dropped in the "network"
            }
            if let PacketKind::Data { seq, len, .. } = p.kind {
                acks.push(rx.on_data(now, seq, len, false));
            }
        }
        now += Duration::from_micros(20);
        for a in acks {
            if rng.chance(loss_rate) {
                continue; // ack lost
            }
            let PacketKind::Ack { ackno, ece, dup, .. } = a.kind else { unreachable!() };
            if !tx.on_ack(now, ackno, ece, dup, &mut wire).is_empty() {
                done = true;
            }
        }
        if let Some(deadline) = tx.timer().deadline() {
            if now >= deadline {
                let generation = tx.timer().generation();
                tx.on_rto_timer(now, generation, &mut wire);
            }
        }
        if done {
            break;
        }
    }
    done && rx.rcv_nxt() == total_bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tcp_delivers_under_random_loss(
        kb in 1u64..200,
        seed in any::<u64>(),
        loss in 0.0f64..0.25,
    ) {
        prop_assert!(lossy_loopback(kb * 1024, seed, loss), "transfer stalled");
    }
}

proptest! {
    /// The shared receive cursor against a naive model: a stream cut into
    /// segments, delivered in a random order with duplicates and re-sends
    /// from a segment's start with another length. After every arrival
    /// `rcv_nxt` is the lowest byte no segment so far has covered.
    #[test]
    fn receive_cursor_matches_lowest_uncovered_byte(
        sizes in prop::collection::vec(1u32..3000, 1..40),
        dups in prop::collection::vec(any::<u64>(), 0..20),
        resend in prop::collection::vec((any::<u64>(), 1u32..3000), 0..20),
        seed in any::<u64>(),
    ) {
        let mut segs: Vec<(u64, u32)> = Vec::new();
        let mut total = 0u64;
        for &len in &sizes {
            segs.push((total, len));
            total += len as u64;
        }
        let n = segs.len() as u64;
        let dup_segs: Vec<(u64, u32)> = dups.iter().map(|&i| segs[(i % n) as usize]).collect();
        let resends: Vec<(u64, u32)> = resend.iter().map(|&(i, len)| (segs[(i % n) as usize].0, len)).collect();
        segs.extend(dup_segs);
        segs.extend(resends);
        let mut rng = SimRng::new(seed);
        for i in (1..segs.len()).rev() {
            segs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut cursor = ReceiveCursor::default();
        let mut covered = vec![false; total as usize + 3000];
        let mut model = 0usize;
        for &(seq, len) in &segs {
            cursor.accept(seq, len);
            covered[seq as usize..(seq + len as u64) as usize].fill(true);
            while covered[model] {
                model += 1;
            }
            prop_assert_eq!(cursor.rcv_nxt(), model as u64, "after ({}, {})", seq, len);
        }
        prop_assert!(cursor.rcv_nxt() >= total);
        prop_assert_eq!(cursor.buffered(), 0);
    }
    #[test]
    fn flowlet_port_stable_within_gap(
        gap_us in 1u64..10_000,
        steps in prop::collection::vec(1u64..50_000, 1..200),
    ) {
        let gap = Duration::from_micros(gap_us);
        let mut table = FlowletTable::new(FlowletConfig::with_gap(gap));
        let flow = FlowKey::tcp(HostId(0), HostId(1), 5, 80);
        let mut now = Time::ZERO;
        let mut current_port = 0u16;
        let mut next_port = 1u16;
        for dt_us in steps {
            let dt = Duration::from_micros(dt_us);
            let within = dt <= gap;
            now += dt;
            let assigned = table.on_packet(now, flow, |_| {
                next_port += 1;
                next_port
            });
            if within && current_port != 0 {
                prop_assert_eq!(assigned, current_port, "re-routed within gap");
            }
            current_port = assigned;
        }
    }

    #[test]
    fn wrr_total_weight_conserved_under_cuts(
        cuts in prop::collection::vec((0usize..4, 0.0f64..1.0), 0..64),
    ) {
        let ports = [10u16, 20, 30, 40];
        let mut w = PathSet::new();
        w.set_ports(&ports);
        for (idx, frac) in cuts {
            let receivers: Vec<u16> = ports.iter().copied().filter(|&p| p != ports[idx]).collect();
            w.cut_and_redistribute(ports[idx], frac, &receivers);
            let total: f64 = ports.iter().map(|&p| w.weight(p).unwrap()).sum();
            prop_assert!((total - 1.0).abs() < 1e-6, "total drifted to {total}");
            for &p in &ports {
                prop_assert!(w.weight(p).unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn wrr_long_run_frequencies_match_weights(
        w1 in 1u32..10, w2 in 1u32..10, w3 in 1u32..10,
    ) {
        let mut w = PathSet::new();
        w.set_ports(&[1, 2, 3]);
        w.set_weight(1, w1 as f64);
        w.set_weight(2, w2 as f64);
        w.set_weight(3, w3 as f64);
        let total = (w1 + w2 + w3) as f64;
        let n = 6000usize;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            match w.pick().unwrap() {
                1 => counts[0] += 1,
                2 => counts[1] += 1,
                3 => counts[2] += 1,
                _ => unreachable!(),
            }
        }
        for (i, &want) in [w1, w2, w3].iter().enumerate() {
            let expect = want as f64 / total * n as f64;
            let got = counts[i] as f64;
            prop_assert!((got - expect).abs() <= expect * 0.05 + 3.0,
                "port {i}: got {got}, expected {expect}");
        }
    }

    #[test]
    fn summary_quantiles_bounded_and_ordered(
        samples in prop::collection::vec(0.0f64..1e6, 1..500),
    ) {
        let mut s = Summary::new();
        for &x in &samples {
            s.add(x);
        }
        let (min, max) = (s.quantile(0.0), s.quantile(1.0));
        let p50 = s.p50();
        let p95 = s.quantile(0.95);
        let p99 = s.p99();
        prop_assert!(p50 <= p95 && p95 <= p99);
        prop_assert!(min <= p50 && p99 <= max);
        prop_assert!(s.mean() >= min && s.mean() <= max);
    }

    #[test]
    fn websearch_sampler_within_support(seed in any::<u64>()) {
        let dist = clove::workload::web_search();
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            let size = dist.sample(&mut rng);
            prop_assert!((1..=20_000_000).contains(&size), "size {size} out of support");
        }
    }
}
