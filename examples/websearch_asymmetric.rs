//! The paper's headline experiment in miniature: web-search RPC workload
//! over the asymmetric leaf-spine, sweeping load for the deployable
//! schemes (Figure 4c shape).
//!
//! Run with: `cargo run --release --example websearch_asymmetric`
//! (takes a few minutes; pass `--quick` for a fast noisy variant)

use clove::harness::experiments::{fig4c_cached, ExpConfig, PointCache};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        ExpConfig::quick()
    } else {
        ExpConfig { jobs_per_conn: 150, conns_per_client: 2, seeds: 1, horizon_secs: 60, jobs: 1, strict: false, ..ExpConfig::quick() }
    };
    let loads = if quick { vec![0.5, 0.7] } else { vec![0.3, 0.5, 0.7] };
    let table = fig4c_cached(&loads, &cfg, &mut PointCache::new());
    println!("{}", table.render());
    // The paper's qualitative claim: under asymmetry at high load, ECMP
    // collapses and Clove-ECN leads the deployable schemes.
    if let (Some(ecmp), Some(clove)) = (table.value("ECMP", 70.0), table.value("Clove-ECN", 70.0)) {
        println!("Clove-ECN vs ECMP at 70% load: {:.2}x lower average FCT", ecmp / clove);
    }
}
