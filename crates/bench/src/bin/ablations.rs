#![warn(clippy::unwrap_used)]

//! Ablation studies for the design choices DESIGN.md §7 calls out.
//!
//! ```text
//! cargo run --release -p clove-bench --bin ablations [--quick] [--jobs N] [--resume]
//! ```
//!
//! Each ablation flips one calibration decision and reports Clove-ECN's
//! average FCT on the asymmetric testbed at 60% load:
//!
//! 1. **DSACK undo off** — quantifies how much spurious-retransmission
//!    undo matters for a path-switching scheme.
//! 2. **Weight recovery off** (`recovery_rho = 0`) — the paper's literal
//!    cut-and-redistribute with no drift back to uniform.
//! 3. **Per-packet relaying** (`relay_interval ≈ 0`) — the paper's §3.2
//!    warning about "unnecessarily aggressive manipulation of path
//!    weights" when ECN is relayed on every packet.
//! 4. **Flowlet gap 10×** (1 ms) — elephants stay pinned to one path for
//!    longer, so two of them colliding on a path stay collided.
//!
//! The ablations are independent runs, so `--jobs N` executes them
//! concurrently; results print in ablation order regardless. Completed
//! ablations are checkpointed to `results/.journal/ablations/`; `--resume`
//! serves them from disk after an interrupted run. An ablation that panics
//! is quarantined and reported in place of its result line.

use clove_harness::orchestrator::{self, CellOutcome};
use clove_harness::scenario::{Scenario, TopologyKind};
use clove_harness::{cli, Scheme};
use clove_sim::{Duration, Time};
use clove_workload::web_search;

/// One ablation: display label plus the scenario tweak it applies.
/// Plain function pointers keep the cell type `Sync` for the orchestrator.
struct Ablation {
    label: &'static str,
    tweak: fn(&mut Scenario),
}

fn run(cell: &Ablation, jobs_per_conn: u32) -> String {
    let mut s = Scenario::new(Scheme::CloveEcn, TopologyKind::Asymmetric, 0.6, 4040);
    s.jobs_per_conn = jobs_per_conn;
    s.conns_per_client = 2;
    s.horizon = Time::from_secs(30);
    (cell.tweak)(&mut s);
    let out = s.run_rpc(&web_search());
    format!(
        "{:<34} avg={:.4}s p99={:.4}s rtx={} undo={} timeouts={}",
        cell.label,
        out.fct.avg(),
        {
            let mut f = out.fct.clone();
            f.p99()
        },
        out.retransmits,
        out.spurious_undos,
        out.timeouts,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = match cli::check_flags(&args, &["--quick", "--resume"], &["--jobs"]).and_then(|()| cli::parse_jobs(&args)) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("ablations: {e}\nusage: ablations [--quick] [--jobs N] [--resume]");
            std::process::exit(2);
        }
    };
    let jobs_per_conn = if cli::has_flag(&args, "--quick") { 20 } else { 100 };
    let journal = cli::open_journal("ablations", cli::has_flag(&args, "--resume"));
    println!("Clove-ECN ablations — asymmetric testbed, 60% load, {jobs_per_conn} jobs/conn\n");

    let cells = [
        Ablation { label: "baseline (all mechanisms on)", tweak: |_| {} },
        Ablation {
            label: "1. DSACK undo OFF",
            tweak: |s| {
                s.profile.dsack_undo = false;
            },
        },
        Ablation {
            label: "2. weight recovery OFF",
            tweak: |s| {
                // recovery_rho lives inside the policy config derived from
                // the profile's loaded RTT; zero the drift via the
                // env-independent profile knob.
                s.profile.clove_recovery_rho = 0.0;
            },
        },
        Ablation {
            label: "3. per-packet ECN relaying",
            tweak: |s| {
                s.profile.relay_interval = Duration::from_nanos(1);
            },
        },
        Ablation {
            label: "4. flowlet gap 10x (elephant collisions)",
            tweak: |s| {
                s.profile.flowlet_gap = Duration::from_micros(1000);
            },
        },
    ];
    let outcomes = orchestrator::run_journaled(
        &cells,
        jobs,
        None, // five near-identical Clove-ECN runs: uniform cost
        journal.as_ref().map(|j| (j, "ablations")),
        |cell: &Ablation| format!("ablation|{}|jpc{}", cell.label, jobs_per_conn),
        |cell| run(cell, jobs_per_conn),
    );
    let mut quarantined = 0u32;
    for (cell, outcome) in cells.iter().zip(outcomes) {
        match outcome {
            CellOutcome::Ok(line) => println!("{line}"),
            bad => {
                println!("{:<34} QUARANTINED ({})", cell.label, bad.describe());
                quarantined += 1;
            }
        }
    }
    if let Some(hits) = journal.as_ref().map(|j| j.hits()).filter(|&hits| hits > 0) {
        eprintln!("ablations: resumed {hits} ablation(s) from the journal");
    }
    println!("\nBaseline should win or tie every ablation; the margins quantify");
    println!("each mechanism's contribution (DESIGN.md section 7).");
    if quarantined > 0 {
        eprintln!("ablations: {quarantined} ablation(s) quarantined");
        std::process::exit(3);
    }
}
