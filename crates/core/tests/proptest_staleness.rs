//! Property tests for the path table and the degradation ladder built on
//! it: weight decay must move every weight monotonically toward uniform and
//! never manufacture a NaN, no matter what feedback (or garbage) arrives;
//! the staleness clock must always equal the age of the latest feedback
//! record; and the table's port order must follow the port-list operations
//! alone.

use clove_core::PathSet;
use clove_sim::{Duration, Time};
use clove_telemetry::Trace;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decay_toward_uniform` is a contraction toward the uniform point:
    /// after one step no weight is farther from `1/n` than before, the
    /// distribution still sums to 1, and nothing is NaN. Weights start in
    /// [0.5, 10] so the 1e-3 starvation floor stays inactive and the
    /// bound is exact.
    #[test]
    fn decay_moves_every_weight_toward_uniform(
        weights in prop::collection::vec(0.5f64..10.0, 2..9),
        rho in 0.0f64..1.0,
    ) {
        let ports: Vec<u16> = (0..weights.len() as u16).map(|i| 100 + i).collect();
        let mut w = PathSet::new();
        w.set_ports(&ports);
        for (&p, &wt) in ports.iter().zip(&weights) {
            w.set_weight(p, wt);
        }
        w.decay_toward_uniform(0.0); // normalize the baseline, zero drift
        let uniform = 1.0 / ports.len() as f64;
        let before: Vec<f64> = ports.iter().map(|&p| w.weight(p).unwrap()).collect();
        w.decay_toward_uniform(rho);
        let mut sum = 0.0;
        for (i, &p) in ports.iter().enumerate() {
            let after = w.weight(p).unwrap();
            prop_assert!(after.is_finite() && after > 0.0, "port {} weight {}", p, after);
            prop_assert!(
                (after - uniform).abs() <= (before[i] - uniform).abs() + 1e-9,
                "port {} moved away from uniform: |{} - {}| > |{} - {}|",
                p, after, uniform, before[i], uniform
            );
            sum += after;
        }
        prop_assert!((sum - 1.0).abs() < 1e-6, "weights sum to {}", sum);
    }

    /// Whatever sequence of feedback-driven operations hits the scheduler —
    /// including NaN/infinite/negative inputs — every weight stays finite
    /// and positive and `pick` keeps returning a port.
    #[test]
    fn weights_never_nan_under_adversarial_ops(
        ops in prop::collection::vec((0u32..4, 0usize..6, -2.0f64..2.0), 1..40),
    ) {
        let ports: Vec<u16> = (1..=6).map(|i| 10 * i as u16).collect();
        let mut w = PathSet::new();
        w.set_ports(&ports);
        for (kind, pi, x) in ops {
            let p = ports[pi];
            match kind {
                0 => w.set_weight(p, if x < -1.0 { f64::NAN } else if x > 1.5 { f64::INFINITY } else { x }),
                1 => w.cut_and_redistribute(p, if x < -1.5 { f64::NAN } else { x }, &ports),
                2 => w.decay_toward_uniform(x), // clamps rho internally
                _ => {
                    let _ = w.pick();
                }
            }
            for &q in &ports {
                let wt = w.weight(q).unwrap();
                prop_assert!(wt.is_finite() && wt > 0.0, "port {} weight {} after op {:?}", q, wt, kind);
            }
            prop_assert!(w.pick().is_some());
        }
    }

    /// The staleness clock is exactly the age of the newest feedback
    /// record: `None` before any feedback, then `now - latest` regardless
    /// of which kind of feedback (ECN / utilization) arrived on which path.
    #[test]
    fn feedback_age_tracks_latest_record(
        events in prop::collection::vec((0u8..2, 0usize..4, 0u64..1000), 0..30),
    ) {
        let ports = [10u16, 20, 30, 40];
        let mut ps = PathSet::new();
        ps.set_ports(&ports);
        prop_assert!(ps.feedback_age(Time::from_micros(5)).is_none(), "no feedback yet");
        let mut t = Time::ZERO;
        let mut last = None;
        for (kind, pi, dt) in events {
            t += Duration::from_micros(dt);
            match kind {
                0 => ps.record_ecn(t, ports[pi], true),
                _ => ps.record_util(t, ports[pi], 500),
            }
            last = Some(t);
        }
        let now = t + Duration::from_micros(7);
        match last {
            None => prop_assert!(ps.feedback_age(now).is_none()),
            Some(l) => prop_assert_eq!(ps.feedback_age(now), Some(now.saturating_since(l))),
        }
    }

    /// The table's port order is exactly what the port-list operations
    /// make of it — `set_ports` takes the given order, `add_port` appends
    /// a newcomer, `remove_port` keeps the rest in place — whatever
    /// feedback, scheduling and ladder steps run in between. WRR tie-breaks
    /// and the dead rung's hash-spread index this order, so the run digests
    /// depend on it.
    #[test]
    fn port_order_follows_the_port_list_operations(
        ops in prop::collection::vec((0u8..10, 0u16..8, prop::collection::vec(0u16..8, 0..9)), 1..80),
    ) {
        let port = |i: u16| 10 * (i + 1);
        let mut ps = PathSet::new();
        let mut model: Vec<u16> = Vec::new();
        let trace = Trace::disabled();
        let mut t = Time::ZERO;
        for (kind, i, list) in ops {
            t += Duration::from_micros(100 * u64::from(i + 1));
            let p = port(i);
            match kind {
                0 => {
                    model = list.iter().map(|&j| port(j)).collect();
                    ps.set_ports(&model);
                }
                1 => {
                    if !model.contains(&p) {
                        model.push(p);
                    }
                    ps.add_port(p);
                }
                2 => {
                    model.retain(|&q| q != p);
                    ps.remove_port(p);
                }
                3 => ps.record_ecn(t, p, i % 2 == 0),
                4 => ps.record_util(t, p, 125 * i),
                5 => {
                    let receivers = ps.uncongested_ports(t, Duration::from_micros(200));
                    ps.cut_and_redistribute(p, f64::from(i) / 8.0, &receivers);
                }
                6 => ps.set_weight(p, f64::from(i)),
                7 => ps.decay_toward_uniform(f64::from(i) / 8.0),
                8 => {
                    let _ = ps.pick();
                }
                _ => {
                    let _ = ps.on_tx(t, Duration::from_micros(800), &trace, clove_net::types::HostId(1));
                    let _ = ps.stale_decay(t);
                }
            }
            prop_assert_eq!(ps.ports(), model.clone(), "after op {} on port {}", kind, p);
        }
    }
}
