#![warn(clippy::unwrap_used)]

//! Regenerate the paper's figures as text tables.
//!
//! Usage:
//! ```text
//! cargo run --release -p clove-bench --bin figures -- [fig4b|fig4c|fig5|fig6|fig7|fig8a|fig8b|fig9|resilience|feedback|recovery|headline|all] [--quick] [--jobs N] [--strict] [--resume]
//! ```
//!
//! `--quick` uses the small experiment configuration (fast, noisier);
//! the default uses `ExpConfig::full()` (the settings behind the numbers
//! recorded in EXPERIMENTS.md). `--jobs N` fans the experiment matrix out
//! over N worker threads; the tables are byte-identical at any N.
//! `--strict` runs every cell under the invariant monitor and aborts on
//! any violation.
//!
//! Every completed cell is checkpointed to `results/.journal/figures/`.
//! `--resume` serves cells finished by an earlier (interrupted) invocation
//! from that journal instead of re-running them; the resulting tables are
//! byte-identical to an uninterrupted run at any `--jobs` width. Without
//! `--resume` the journal is wiped at startup.
//!
//! Cells that panic or stall are quarantined, not fatal: affected points
//! render as `-` with a footer naming each quarantined cell — plus the
//! telemetry snapshot written for it under `results/telemetry/` (cell
//! metadata, failure reason, and a `--trace` repro command) — and the
//! process exits 3 so CI notices.
//!
//! Per-phase wall-clock timings go to stderr; `CLOVE_PROFILE=1` adds a
//! per-matrix orchestrator profile line (cell counts, summed cell time,
//! slowest cell). Neither touches stdout, so tables and CSVs stay
//! byte-identical.

use clove_harness::experiments::{self, ExpConfig, PointCache};
use clove_harness::report::FaultTable;
use clove_harness::scenario::TopologyKind;
use clove_harness::{cli, write_atomic, Scheme};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set when any emitted table carried quarantined cells; turns into exit 3.
static SAW_QUARANTINE: AtomicBool = AtomicBool::new(false);

fn note_quarantine(quarantined: &[String]) {
    if !quarantined.is_empty() {
        SAW_QUARANTINE.store(true, Ordering::Release);
    }
}

/// Wall-clock per-phase timing for the figure run itself. Stderr only —
/// the stdout tables/CSVs are byte-identical regardless — and bench-level,
/// so the sim's determinism contract is untouched. Set `CLOVE_PROFILE=1`
/// to additionally get per-matrix orchestrator profiles (cell counts,
/// summed cell time, slowest cell) from the harness.
fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    eprintln!("figures: phase {name} {:.3}s", start.elapsed().as_secs_f64());
    out
}

fn save_csv(csv_name: &str, contents: &str) {
    if std::env::var_os("CLOVE_SAVE_CSV").is_some() {
        let _ = write_atomic(Path::new(&format!("results/{csv_name}.csv")), contents);
    }
}

fn emit(table: clove_harness::report::FigureTable, csv_name: &str) {
    println!("{}", table.render());
    note_quarantine(&table.quarantined);
    save_csv(csv_name, &table.to_csv());
}

/// The usage line (also printed when a flag is not one of these).
const USAGE: &str =
    "usage: figures [fig4b|fig4c|fig5|fig6|fig7|fig8a|fig8b|fig9|resilience|feedback|recovery|headline|all] [--quick] [--jobs N] [--strict] [--resume]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = cli::check_flags(&args, &["--quick", "--strict", "--resume"], &["--jobs"]) {
        eprintln!("figures: {e}\n{USAGE}");
        std::process::exit(2);
    }
    let quick = cli::has_flag(&args, "--quick");
    let strict = cli::has_flag(&args, "--strict");
    let jobs = cli::parse_jobs(&args).unwrap_or(1);
    let which = cli::positional(&args, &["--jobs"]).unwrap_or("all");
    let journal = cli::open_journal("figures", cli::has_flag(&args, "--resume")).map(std::sync::Arc::new);
    let cfg = (if quick { ExpConfig::quick() } else { ExpConfig::full() }).with_jobs(jobs).with_strict(strict).with_journal(journal.clone());

    // The paper sweeps 20–90%; the reproduction reports a representative
    // subset to bound wall-clock time.
    let loads_full = [0.5, 0.8];
    let loads_asym = [0.3, 0.5, 0.7];
    let loads = if quick { &loads_full[..1] } else { &loads_full[..] };
    let loads_a = if quick { &loads_asym[1..3] } else { &loads_asym[..] };

    let run_fig = |name: &str| which == "all" || which == name || (which == "fig5" && name.starts_with("fig5"));
    // Shared run caches: 4c/5a/5b/5c share testbed-asymmetric runs; 8b/9
    // share sim-asymmetric runs.
    let mut testbed_cache = PointCache::new();
    let mut sim_cache = PointCache::new();

    if run_fig("fig4b") {
        timed("fig4b", || emit(experiments::fig4b_cached(loads, &cfg, &mut PointCache::new()), "fig4b"));
    }
    if run_fig("fig4c") {
        timed("fig4c", || emit(experiments::fig4c_cached(loads_a, &cfg, &mut testbed_cache), "fig4c"));
    }
    if run_fig("fig5a") {
        timed("fig5a", || emit(experiments::fig5a_cached(loads_a, &cfg, &mut testbed_cache), "fig5a"));
    }
    if run_fig("fig5b") {
        timed("fig5b", || emit(experiments::fig5b_cached(loads_a, &cfg, &mut testbed_cache), "fig5b"));
    }
    if run_fig("fig5c") {
        timed("fig5c", || emit(experiments::fig5c_cached(loads_a, &cfg, &mut testbed_cache), "fig5c"));
    }
    if run_fig("fig6") {
        // Two loads suffice for the sensitivity story.
        timed("fig6", || emit(experiments::fig6(&loads_a[1..], &cfg), "fig6"));
    }
    if run_fig("fig7") {
        let fanouts: Vec<u32> = if quick { vec![4, 12] } else { vec![1, 4, 8, 16] };
        let requests = if quick { 10 } else { 25 };
        timed("fig7", || emit(experiments::fig7(&fanouts, requests, &cfg), "fig7"));
    }
    if run_fig("fig8a") {
        timed("fig8a", || emit(experiments::fig8a_cached(loads, &cfg, &mut PointCache::new()), "fig8a"));
    }
    if run_fig("fig8b") {
        timed("fig8b", || emit(experiments::fig8b_cached(loads_a, &cfg, &mut sim_cache), "fig8b"));
    }
    if run_fig("fig9") {
        timed("fig9", || {
            println!("## Fig 9 — mice FCT CDFs at 70% load, asymmetric");
            for (scheme, cdf) in experiments::fig9_cached(&cfg, &mut sim_cache) {
                if scheme.ends_with("[quarantined]") {
                    SAW_QUARANTINE.store(true, Ordering::Release);
                }
                println!("# {scheme}");
                for (fct, frac) in cdf {
                    println!("{fct:.6},{frac:.4}");
                }
            }
            println!();
        });
    }
    type FaultSweep = fn(&[Scheme], &ExpConfig) -> FaultTable;
    let sweeps: [(&str, FaultSweep); 3] =
        [("resilience", experiments::resilience), ("feedback", experiments::feedback_degradation), ("recovery", experiments::recovery)];
    for (name, sweep) in sweeps {
        if run_fig(name) {
            timed(name, || {
                let table = sweep(&experiments::resilience_schemes(), &cfg);
                println!("{}", table.render());
                note_quarantine(&table.quarantined);
                save_csv(name, &table.to_csv());
            });
        }
    }
    if run_fig("headline") {
        timed("headline", || headline(&cfg));
    }
    if let Some(j) = &journal {
        if j.hits() > 0 {
            eprintln!("figures: resumed {} cell(s) from the journal", j.hits());
        }
    }
    if SAW_QUARANTINE.load(Ordering::Acquire) {
        eprintln!("figures: some cells were quarantined (see table footers); affected points render as '-'");
        std::process::exit(3);
    }
}

/// The paper's headline ratios (§5.1/5.2, §6): how much better Clove-ECN
/// is than ECMP, and what fraction of the ECMP→CONGA gap it captures.
fn headline(cfg: &ExpConfig) {
    let load = 0.7;
    println!("## Headline ratios at {:.0}% load, asymmetric topology", load * 100.0);
    let ecmp = experiments::rpc_point(&Scheme::Ecmp, TopologyKind::Asymmetric, load, cfg).avg();
    let ef = experiments::rpc_point(&Scheme::EdgeFlowlet, TopologyKind::Asymmetric, load, cfg).avg();
    let clove = experiments::rpc_point(&Scheme::CloveEcn, TopologyKind::Asymmetric, load, cfg).avg();
    let conga = experiments::rpc_point(&Scheme::Conga, TopologyKind::Asymmetric, load, cfg).avg();
    println!("avg FCT (s): ECMP={ecmp:.3} Edge-Flowlet={ef:.3} Clove-ECN={clove:.3} CONGA={conga:.3}");
    println!("Clove-ECN vs ECMP speedup: {:.2}x (paper: ~3-7.5x at high load)", ecmp / clove);
    println!("Edge-Flowlet vs ECMP speedup: {:.2}x (paper: ~4.2x at 80%)", ecmp / ef);
    let gap = ecmp - conga;
    if gap > 0.0 {
        let captured = (ecmp - clove) / gap * 100.0;
        println!("Clove-ECN captures {captured:.0}% of the ECMP→CONGA gap (paper: ~80%)");
    }
}
