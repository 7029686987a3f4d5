//! Behavioural integration tests: does Clove actually do what the paper
//! says, inside a full live simulation?

use clove::harness::{Scenario, Scheme, TopologyKind};
use clove::net::fault::{CableSelector, FaultPlan};
use clove::net::types::{NodeId, SwitchId};
use clove::sim::Time;
use clove::workload::web_search;

fn scenario(scheme: Scheme, topology: TopologyKind, load: f64) -> Scenario {
    let mut s = Scenario::new(scheme, topology, load, 4242);
    // Statistical assertions need this much signal; run this suite with
    // --release if debug mode feels slow.
    s.jobs_per_conn = 30;
    s.conns_per_client = 2;
    s.horizon = Time::from_secs(20);
    s
}

/// Pull the tx bytes of the two S2→L2-side fabric directions vs the S1
/// ones out of a link report line set.
fn fabric_share(report: &[String], spine: u32) -> u64 {
    report
        .iter()
        .filter(|l| l.contains(&format!("Switch(SwitchId({spine}))->Switch(SwitchId(1))")))
        .map(|l| {
            let tx = l.split("tx=").nth(1).unwrap();
            tx.split("MB").next().unwrap().parse::<u64>().unwrap()
        })
        .sum()
}

#[test]
fn clove_shifts_traffic_off_the_degraded_spine() {
    // Under asymmetry, S2 (spine id 3) has half the downlink capacity to
    // L2. ECMP keeps hashing half the traffic through it; Clove-ECN must
    // shift a visibly larger share onto S1 (spine id 2).
    //
    // ECMP routes ~half the *flows* through S2, but any one seed's byte
    // share is noisy because a handful of heavy-tailed flows dominate
    // bytes — so aggregate bytes over several seeds before comparing.
    let s2_frac = |scheme: Scheme| {
        let (mut s1, mut s2) = (0u64, 0u64);
        for seed in [4242, 7, 31] {
            let mut s = Scenario::new(scheme.clone(), TopologyKind::Asymmetric, 0.7, seed);
            s.jobs_per_conn = 30;
            s.conns_per_client = 2;
            s.horizon = Time::from_secs(20);
            let out = s.run_rpc(&web_search());
            s1 += fabric_share(&out.link_report, 2);
            s2 += fabric_share(&out.link_report, 3);
        }
        s2 as f64 / (s1 + s2) as f64
    };
    let ecmp_s2_frac = s2_frac(Scheme::Ecmp);
    let clove_s2_frac = s2_frac(Scheme::CloveEcn);
    assert!((0.30..0.75).contains(&ecmp_s2_frac), "ECMP S2 share {ecmp_s2_frac}");
    assert!(clove_s2_frac < ecmp_s2_frac - 0.05, "Clove did not shift: ECMP {ecmp_s2_frac:.2} vs Clove {clove_s2_frac:.2}");
}

#[test]
fn clove_feedback_loop_is_active() {
    let out = scenario(Scheme::CloveEcn, TopologyKind::Asymmetric, 0.7).run_rpc(&web_search());
    assert!(out.ecn_marks > 0, "no CE marks at 70% load?");
    assert!(out.path_updates > 0, "discovery never installed paths");
}

#[test]
fn ecmp_packets_are_never_marked() {
    // ECMP's vswitch does not set ECT, so switches must not mark.
    let out = scenario(Scheme::Ecmp, TopologyKind::Asymmetric, 0.7).run_rpc(&web_search());
    assert_eq!(out.ecn_marks, 0);
}

#[test]
fn symmetric_clove_not_worse_than_ecmp() {
    // Figure 4b / 8a sanity: on the healthy topology Clove-ECN must be in
    // the same ballpark as ECMP (the paper shows parity at low/mid load).
    let ecmp = scenario(Scheme::Ecmp, TopologyKind::Symmetric, 0.5).run_rpc(&web_search());
    let clove = scenario(Scheme::CloveEcn, TopologyKind::Symmetric, 0.5).run_rpc(&web_search());
    assert!(clove.fct.avg() < ecmp.fct.avg() * 1.6, "Clove {}s vs ECMP {}s on symmetric", clove.fct.avg(), ecmp.fct.avg());
}

#[test]
fn asymmetric_clove_beats_ecmp_at_high_load() {
    // The headline claim, at reduced scale (so the margin is modest but
    // the direction must hold).
    let ecmp = scenario(Scheme::Ecmp, TopologyKind::Asymmetric, 0.7).run_rpc(&web_search());
    let clove = scenario(Scheme::CloveEcn, TopologyKind::Asymmetric, 0.7).run_rpc(&web_search());
    assert!(clove.fct.avg() < ecmp.fct.avg(), "Clove {}s not better than ECMP {}s under asymmetry", clove.fct.avg(), ecmp.fct.avg());
}

#[test]
fn mid_run_failure_is_survived_and_rediscovered() {
    // Fail the S2–L2 cable *during* the run: traffic must keep completing
    // (in-flight packets on the dead cable are lost; TCP recovers) and
    // the probe daemon must keep installing fresh path selections.
    let mut s = scenario(Scheme::CloveEcn, TopologyKind::Symmetric, 0.4);
    s.faults.extend(FaultPlan::cut(Time::from_millis(50), CableSelector::S2_L2));
    s.horizon = Time::from_secs(30);
    let out = s.run_rpc(&web_search());
    assert_eq!(out.fct.incomplete, 0, "jobs lost after mid-run failure");
    assert!(out.path_updates > 0);
    // Control without failure completes too, faster on average.
    let control = scenario(Scheme::CloveEcn, TopologyKind::Symmetric, 0.4).run_rpc(&web_search());
    assert_eq!(control.fct.incomplete, 0);
}

#[test]
fn incast_goodput_saturates_at_small_fanout() {
    let s = scenario(Scheme::CloveEcn, TopologyKind::Symmetric, 0.5);
    let out = s.run_incast(4, 8, 10_000_000);
    assert!(out.rounds >= 8, "only {} rounds", out.rounds);
    // 10G access link: goodput must be positive and below line rate.
    assert!(out.goodput_bps > 1e9, "goodput {}", out.goodput_bps);
    assert!(out.goodput_bps < 10.5e9);
}

#[test]
fn incast_mptcp_degrades_with_fanout() {
    // Figure 7's qualitative claim at tiny scale: MPTCP at high fan-in is
    // no better than at low fan-in (it collapses; Clove holds).
    let low = scenario(Scheme::Mptcp { subflows: 4 }, TopologyKind::Symmetric, 0.5).run_incast(2, 6, 10_000_000);
    let high = scenario(Scheme::Mptcp { subflows: 4 }, TopologyKind::Symmetric, 0.5).run_incast(16, 6, 10_000_000);
    assert!(high.goodput_bps <= low.goodput_bps * 1.15, "MPTCP improved with fanout?! low={} high={}", low.goodput_bps, high.goodput_bps);
    let _ = SwitchId(0);
    let _ = NodeId::Host(clove::net::types::HostId(0));
}

#[test]
fn partial_deployment_at_either_extreme_is_the_uniform_scheme() {
    // §7 "Incremental Deployment" at its ends: with no Clove hypervisor
    // every vswitch is plain ECMP, and with all 32 of the testbed's it is
    // Clove-ECN. An `RpcOutcome` carries no scheme label, so each pair must
    // agree on every field. A half deployment must differ from both, or
    // the comparison could not tell the schemes apart.
    let outcome = |scheme: Scheme, topology: TopologyKind| {
        let mut s = Scenario::new(scheme, topology, 0.6, 11);
        s.jobs_per_conn = 6;
        s.conns_per_client = 1;
        s.horizon = Time::from_secs(5);
        format!("{:?}", s.run_rpc(&web_search()))
    };
    let partial = |clove_hosts| Scheme::Incremental { clove_hosts };
    for topology in [TopologyKind::Asymmetric, TopologyKind::Symmetric] {
        let (none, all) = (outcome(partial(0), topology), outcome(partial(32), topology));
        assert!(none == outcome(Scheme::Ecmp, topology), "{topology:?}: no Clove host differs from ECMP");
        assert!(all == outcome(Scheme::CloveEcn, topology), "{topology:?}: every host Clove differs from Clove-ECN");
        let half = outcome(partial(16), topology);
        assert!(half != none && half != all, "{topology:?}: 16 Clove hosts matches an extreme");
    }
}
