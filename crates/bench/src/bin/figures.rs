#![warn(clippy::unwrap_used)]

//! Regenerate the paper's figures as text tables.
//!
//! Usage:
//! ```text
//! cargo run --release -p clove-bench --bin figures -- [FIGURE] [--quick] [--jobs N] [--strict] [--resume]
//! ```
//!
//! `FIGURE` is a name from the `FIGURES` table below, `fig5` (5a–5c) or
//! `all` (the default); any other word is a usage error that lists them.
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
//! Cells that panic are quarantined, not fatal: affected points
//! render as `-` with a footer naming each quarantined cell — plus the
//! telemetry snapshot written for it under `results/telemetry/` (cell
//! metadata, failure reason, and a `--trace` repro command) — and the
//! process exits 3 so CI notices.

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

/// The three fault sweeps run the same schemes and print the same way.
fn emit_sweep(name: &str, sweep: fn(&[Scheme], &ExpConfig) -> FaultTable, cfg: &ExpConfig) {
    let table = sweep(&experiments::resilience_schemes(), cfg);
    println!("{}", table.render());
    note_quarantine(&table.quarantined);
    save_csv(name, &table.to_csv());
}

/// What the figures of one invocation share.
struct Shared {
    cfg: ExpConfig,
    quick: bool,
    /// 4c/5a/5b/5c share testbed-asymmetric runs.
    testbed_cache: PointCache,
    /// 8b/9 and the headline share sim-asymmetric runs.
    sim_cache: PointCache,
}

// The paper sweeps 20–90%; the reproduction reports a representative
// subset to bound wall-clock time.
impl Shared {
    fn loads(&self) -> &'static [f64] {
        if self.quick {
            &[0.5]
        } else {
            &[0.5, 0.8]
        }
    }

    fn loads_asym(&self) -> &'static [f64] {
        if self.quick {
            &[0.5, 0.7]
        } else {
            &[0.3, 0.5, 0.7]
        }
    }
}

/// Runs and prints one figure.
type Figure = fn(&mut Shared);

/// Every figure by name, in the order `all` prints them: the one list
/// behind dispatch, acceptance of the positional argument and the usage
/// line.
const FIGURES: &[(&str, Figure)] = &[
    ("fig4b", |s| emit(experiments::fig4b_cached(s.loads(), &s.cfg, &mut PointCache::new()), "fig4b")),
    ("fig4c", |s| emit(experiments::fig4c_cached(s.loads_asym(), &s.cfg, &mut s.testbed_cache), "fig4c")),
    ("fig5a", |s| emit(experiments::fig5a_cached(s.loads_asym(), &s.cfg, &mut s.testbed_cache), "fig5a")),
    ("fig5b", |s| emit(experiments::fig5b_cached(s.loads_asym(), &s.cfg, &mut s.testbed_cache), "fig5b")),
    ("fig5c", |s| emit(experiments::fig5c_cached(s.loads_asym(), &s.cfg, &mut s.testbed_cache), "fig5c")),
    // Two loads suffice for the sensitivity story.
    ("fig6", |s| emit(experiments::fig6(&s.loads_asym()[1..], &s.cfg), "fig6")),
    ("fig7", |s| {
        let (fanouts, requests): (&[u32], u32) = if s.quick { (&[4, 12], 10) } else { (&[1, 4, 8, 16], 25) };
        emit(experiments::fig7(fanouts, requests, &s.cfg), "fig7")
    }),
    ("fig8a", |s| emit(experiments::fig8a_cached(s.loads(), &s.cfg, &mut PointCache::new()), "fig8a")),
    ("fig8b", |s| emit(experiments::fig8b_cached(s.loads_asym(), &s.cfg, &mut s.sim_cache), "fig8b")),
    ("fig9", fig9),
    ("resilience", |s| emit_sweep("resilience", experiments::resilience, &s.cfg)),
    ("feedback", |s| emit_sweep("feedback", experiments::feedback_degradation, &s.cfg)),
    ("recovery", |s| emit_sweep("recovery", experiments::recovery, &s.cfg)),
    ("headline", headline),
];

/// Names that select several figures at once: every figure whose name
/// starts with the prefix.
const GROUPS: [(&str, &str); 2] = [("fig5", "fig5"), ("all", "")];

fn selects(which: &str, name: &str) -> bool {
    which == name || GROUPS.iter().any(|&(group, prefix)| which == group && name.starts_with(prefix))
}

fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).chain(GROUPS.iter().map(|&(group, _)| group)).collect();
    format!("usage: figures [{}] [--quick] [--jobs N] [--strict] [--resume]", names.join("|"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = cli::positional(&args, &["--jobs"]).unwrap_or("all");
    let parsed = cli::check_flags(&args, &["--quick", "--strict", "--resume"], &["--jobs"])
        .and_then(|()| if FIGURES.iter().any(|&(name, _)| selects(which, name)) { Ok(()) } else { Err(format!("unknown figure '{which}'")) })
        .and_then(|()| cli::parse_jobs(&args));
    let jobs = match parsed {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("figures: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let quick = cli::has_flag(&args, "--quick");
    let journal = cli::open_journal("figures", cli::has_flag(&args, "--resume")).map(std::sync::Arc::new);
    let cfg = (if quick { ExpConfig::quick() } else { ExpConfig::full() })
        .with_jobs(jobs)
        .with_strict(cli::has_flag(&args, "--strict"))
        .with_journal(journal.clone());
    let mut shared = Shared { cfg, quick, testbed_cache: PointCache::new(), sim_cache: PointCache::new() };
    for &(name, run) in FIGURES {
        if selects(which, name) {
            run(&mut shared);
        }
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

fn fig9(s: &mut Shared) {
    println!("## Fig 9 — mice FCT CDFs at 70% load, asymmetric");
    for (scheme, cdf) in experiments::fig9_cached(&s.cfg, &mut s.sim_cache) {
        if scheme.ends_with("[quarantined]") {
            SAW_QUARANTINE.store(true, Ordering::Release);
        }
        println!("# {scheme}");
        for (fct, frac) in cdf {
            println!("{fct:.6},{frac:.4}");
        }
    }
    println!();
}

/// The paper's headline ratios (§5.1/5.2, §6): how much better Clove-ECN
/// is than ECMP, and what fraction of the ECMP→CONGA gap it captures.
/// Its points are fig8b's at 70 % load, so `all` serves them from the
/// shared cache.
fn headline(s: &mut Shared) {
    let (topology, load) = (TopologyKind::Asymmetric, 0.7);
    let schemes = [Scheme::Ecmp, Scheme::EdgeFlowlet, Scheme::CloveEcn, Scheme::Conga];
    println!("## Headline ratios at {:.0}% load, asymmetric topology", load * 100.0);
    s.sim_cache.prefetch(&schemes, topology, &[load], &s.cfg);
    let avgs: Option<Vec<f64>> = schemes.iter().map(|scheme| s.sim_cache.point(scheme, topology, load, &s.cfg).map(|fct| fct.avg())).collect();
    let Some(&[ecmp, ef, clove, conga]) = avgs.as_deref() else {
        println!("QUARANTINED cells (no ratios computed):");
        for line in schemes.iter().flat_map(|scheme| s.sim_cache.quarantine_lines(scheme, topology, load)) {
            println!("  ! {line}");
        }
        SAW_QUARANTINE.store(true, Ordering::Release);
        return;
    };
    println!("avg FCT (s): ECMP={ecmp:.3} Edge-Flowlet={ef:.3} Clove-ECN={clove:.3} CONGA={conga:.3}");
    println!("Clove-ECN vs ECMP speedup: {:.2}x (paper: ~3-7.5x at high load)", ecmp / clove);
    println!("Edge-Flowlet vs ECMP speedup: {:.2}x (paper: ~4.2x at 80%)", ecmp / ef);
    let gap = ecmp - conga;
    if gap > 0.0 {
        let captured = (ecmp - clove) / gap * 100.0;
        println!("Clove-ECN captures {captured:.0}% of the ECMP→CONGA gap (paper: ~80%)");
    }
}
