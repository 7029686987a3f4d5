//! The parallel experiment runner must be invisible in the output:
//! every figure table rendered at `--jobs 1` and `--jobs 8` must be
//! byte-identical. These tests pin the three fold shapes (point cache,
//! flat incast cells, resilience cells) at smoke scale.

use clove_harness::experiments::{self, ExpConfig, PointCache};
use clove_harness::Scheme;

fn smoke() -> ExpConfig {
    // seeds = 2 so the seed axis actually fans out.
    ExpConfig { jobs_per_conn: 4, conns_per_client: 1, seeds: 2, horizon_secs: 10, jobs: 1, strict: false, ..ExpConfig::quick() }
}

#[test]
fn fig4_csv_identical_serial_vs_jobs8() {
    let loads = [0.3, 0.5];
    let serial = experiments::fig4c_cached(&loads, &smoke(), &mut PointCache::new());
    let parallel = experiments::fig4c_cached(&loads, &smoke().with_jobs(8), &mut PointCache::new());
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn fig7_incast_csv_identical_serial_vs_jobs8() {
    let fanouts = [4, 8];
    let serial = experiments::fig7(&fanouts, 5, &smoke());
    let parallel = experiments::fig7(&fanouts, 5, &smoke().with_jobs(8));
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn resilience_csv_identical_serial_vs_jobs8() {
    let schemes = [Scheme::Ecmp, Scheme::CloveEcn];
    let serial = experiments::resilience(&schemes, &smoke());
    let parallel = experiments::resilience(&schemes, &smoke().with_jobs(8));
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn feedback_csv_identical_serial_vs_jobs8() {
    let schemes = [Scheme::EdgeFlowlet, Scheme::CloveEcn];
    let serial = experiments::feedback_degradation(&schemes, &smoke());
    let parallel = experiments::feedback_degradation(&schemes, &smoke().with_jobs(8));
    assert_eq!(serial.to_csv(), parallel.to_csv());
}
