//! End-to-end smoke tests: tiny RPC runs complete for every scheme.

use clove::harness::{Scenario, Scheme, TopologyKind};
use clove::sim::Time;
use clove::workload::web_search;

fn tiny(scheme: Scheme, topology: TopologyKind) -> Scenario {
    let mut s = Scenario::new(scheme, topology, 0.3, 7);
    s.jobs_per_conn = 3;
    s.conns_per_client = 1;
    s.horizon = Time::from_secs(10);
    s
}

fn assert_completes(scheme: Scheme, topology: TopologyKind) {
    let s = tiny(scheme.clone(), topology);
    let out = s.run_rpc(&web_search());
    // 16 clients × 1 conn × 3 jobs = 48 jobs.
    assert_eq!(out.fct.all.count() + out.fct.incomplete, 48, "{}: jobs lost", scheme.label());
    assert!(out.fct.all.count() >= 46, "{}: only {}/48 completed (timeouts={}, drops={})", scheme.label(), out.fct.all.count(), out.timeouts, out.drops);
    assert!(out.fct.avg() > 0.0, "{}: zero FCT", scheme.label());
}

#[test]
fn ecmp_completes_symmetric() {
    assert_completes(Scheme::Ecmp, TopologyKind::Symmetric);
}

#[test]
fn edge_flowlet_completes_symmetric() {
    assert_completes(Scheme::EdgeFlowlet, TopologyKind::Symmetric);
}

#[test]
fn clove_ecn_completes_symmetric() {
    assert_completes(Scheme::CloveEcn, TopologyKind::Symmetric);
}

#[test]
fn clove_ecn_completes_asymmetric() {
    assert_completes(Scheme::CloveEcn, TopologyKind::Asymmetric);
}

#[test]
fn clove_int_completes_symmetric() {
    assert_completes(Scheme::CloveInt, TopologyKind::Symmetric);
}

#[test]
fn mptcp_completes_symmetric() {
    assert_completes(Scheme::Mptcp { subflows: 4 }, TopologyKind::Symmetric);
}

#[test]
fn presto_completes_symmetric() {
    assert_completes(Scheme::Presto { oracle_weights: None }, TopologyKind::Symmetric);
}

#[test]
fn conga_completes_asymmetric() {
    assert_completes(Scheme::Conga, TopologyKind::Asymmetric);
}

#[test]
fn letflow_completes_symmetric() {
    assert_completes(Scheme::LetFlow, TopologyKind::Symmetric);
}

#[test]
fn dctcp_ablations_complete() {
    assert_completes(Scheme::EcmpDctcp, TopologyKind::Symmetric);
    assert_completes(Scheme::CloveEcnDctcp, TopologyKind::Asymmetric);
}

#[test]
fn hula_completes_asymmetric() {
    assert_completes(Scheme::Hula, TopologyKind::Asymmetric);
}

#[test]
fn fat_tree_rpc_completes() {
    // "Works on any topology": the same stack over a k=4 fat-tree.
    let mut s = Scenario::new(Scheme::CloveEcn, TopologyKind::FatTree { k: 4 }, 0.3, 7);
    s.jobs_per_conn = 3;
    s.conns_per_client = 1;
    s.horizon = Time::from_secs(10);
    let out = s.run_rpc(&web_search());
    // 8 clients × 1 conn × 3 jobs.
    assert_eq!(out.fct.all.count() + out.fct.incomplete, 24);
    assert!(out.fct.all.count() >= 22, "only {}/24 completed", out.fct.all.count());
    assert!(out.path_updates > 0, "discovery must work on fat-trees");
}

#[test]
fn incremental_deployment_completes() {
    // Half the hypervisors run Clove (§7 incremental deployment).
    assert_completes(Scheme::Incremental { clove_hosts: 16 }, TopologyKind::Asymmetric);
}

#[test]
fn determinism_same_seed_same_result() {
    let a = tiny(Scheme::CloveEcn, TopologyKind::Symmetric).run_rpc(&web_search());
    let b = tiny(Scheme::CloveEcn, TopologyKind::Symmetric).run_rpc(&web_search());
    assert_eq!(a.events, b.events);
    assert_eq!(a.fct.all.count(), b.fct.all.count());
    assert!((a.fct.avg() - b.fct.avg()).abs() < 1e-15);
}

#[test]
fn different_seeds_differ() {
    let a = tiny(Scheme::CloveEcn, TopologyKind::Symmetric).run_rpc(&web_search());
    let mut s = tiny(Scheme::CloveEcn, TopologyKind::Symmetric);
    s.seed = 8;
    let b = s.run_rpc(&web_search());
    assert_ne!(a.events, b.events);
}
