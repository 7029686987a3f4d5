#![warn(clippy::unwrap_used)]

//! Run a Clove experiment described by a JSON file, or a chaos-fuzz campaign.
//!
//! ```text
//! clove-run <spec.json> [--jobs N] [--strict] [--resume] [--trace FILE]
//!                                    # prints a RunReport as JSON on stdout
//! clove-run chaos [--runs N] [--seed S] [--jobs N] [--shrink-budget B] [--out FILE]
//!                                    # fuzz fault timelines against the invariants
//! clove-run trace-check <trace.jsonl>  # validate a --trace dump's schema
//! clove-run --example                # prints a commented example spec
//! ```
//!
//! `--jobs N` fans the spec's `seeds` (or the chaos iterations) out over N
//! worker threads; the output is byte-identical at any N. `--strict` runs
//! every seed under the invariant monitor and exits non-zero on any
//! violation (the spec's own `"strict": true` field does the same).
//!
//! `--resume` re-serves seeds already completed by an earlier interrupted
//! invocation from the checkpoint journal at `results/.journal/clove-run/`;
//! without it the journal is wiped and every seed re-executes.
//!
//! `--trace FILE` additionally captures the structured decision trace
//! (flowlet lifecycle, weight updates, ECN marks, ladder transitions,
//! faults — see `clove-telemetry`) and writes it to FILE as JSONL, pooled
//! in seed order so the dump is byte-identical at any `--jobs`. The
//! RunReport on stdout is byte-identical to an untraced run. Trace runs
//! bypass the checkpoint journal (`--resume` has no buffer to replay).
//!
//! `chaos` draws `--runs` random fault timelines (link faults plus
//! control-plane faults), runs each against a strict quick-scale scenario,
//! shrinks any violating timeline to a minimal reproducer, and exits 2 if
//! anything was found (0 when clean). Fully determined by `--seed`.

use clove_harness::chaos::{run_chaos, ChaosConfig};
use clove_harness::cli::{self, parse_flag};
use clove_harness::config::ScenarioSpec;
use clove_harness::{check_trace_jsonl, write_atomic, Scheme, TopologyKind};
use std::path::Path;

const USAGE: &str = "usage: clove-run <spec.json> [--jobs N] [--strict] [--resume] [--trace FILE] | chaos [--runs N] [--seed S] [--jobs N] [--shrink-budget B] [--out FILE] | trace-check <trace.jsonl> | --example";

/// Flags that take a value.
const VALUED: [&str; 6] = ["--jobs", "--runs", "--seed", "--shrink-budget", "--out", "--trace"];

/// A command line this binary does not understand: say why, show the
/// usage line, exit 2 before anything runs.
fn usage_error(e: &str) -> ! {
    eprintln!("clove-run: {e}\n{USAGE}");
    std::process::exit(2);
}

fn chaos_config(args: &[String], jobs: usize) -> Result<ChaosConfig, String> {
    let default = ChaosConfig::default();
    Ok(ChaosConfig {
        runs: cli::parse_uint(args, "--runs", default.runs)?,
        seed: cli::parse_uint(args, "--seed", default.seed)?,
        jobs,
        shrink_budget: cli::parse_uint(args, "--shrink-budget", default.shrink_budget)?,
    })
}

fn chaos_main(args: &[String], jobs: usize) -> ! {
    let cfg = chaos_config(args, jobs).unwrap_or_else(|e| usage_error(&e));
    eprintln!("clove-run chaos: {} run(s), seed {}, {} job(s), shrink budget {}", cfg.runs, cfg.seed, cfg.jobs, cfg.shrink_budget);
    let report = run_chaos(&cfg);
    print!("{}", report.render());
    if let Some(out) = parse_flag(args, "--out") {
        match write_atomic(Path::new(out), &(report.to_json().render_pretty() + "\n")) {
            Ok(()) => eprintln!("clove-run chaos: wrote {out}"),
            Err(e) => {
                eprintln!("clove-run chaos: cannot write {out}: {e}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(if report.clean() { 0 } else { 2 });
}

/// `args` are what follows the `trace-check` word.
fn trace_check_main(args: &[String]) -> ! {
    let Some(path) = cli::positional(args, &VALUED) else {
        eprintln!("usage: clove-run trace-check <trace.jsonl>");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clove-run trace-check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match check_trace_jsonl(&text) {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("clove-run trace-check: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs =
        cli::check_flags(&args, &["--strict", "--resume", "--example"], &VALUED).and_then(|()| cli::parse_jobs(&args)).unwrap_or_else(|e| usage_error(&e));
    if cli::has_flag(&args, "--example") {
        // Rendered through the spec codec, so the example always parses.
        let example = ScenarioSpec { jobs_per_conn: 100, seed: 42, ..ScenarioSpec::new(Scheme::CloveEcn, TopologyKind::Asymmetric, 0.7) };
        println!("{}", example.to_json().render_pretty());
        return;
    }
    let Some(arg) = cli::positional(&args, &VALUED) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if arg == "chaos" {
        chaos_main(&args, jobs);
    }
    if arg == "trace-check" {
        let word = args.iter().position(|a| a == arg).expect("the positional is one of the arguments");
        trace_check_main(&args[word + 1..]);
    }
    let text = match std::fs::read_to_string(arg) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clove-run: cannot read {arg}: {e}");
            std::process::exit(1);
        }
    };
    let trace_path = parse_flag(&args, "--trace");
    let spec = ScenarioSpec::from_json_str(&text).map(|spec| ScenarioSpec {
        strict: spec.strict || cli::has_flag(&args, "--strict"),
        trace: trace_path.is_some(),
        ..spec
    });
    // One gate before any worker starts: a bad spec is one line, not a
    // panic quarantined per seed.
    let spec = match spec.and_then(|spec| spec.validate().map(|()| spec)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("clove-run: bad spec: {e}");
            std::process::exit(1);
        }
    };
    // Trace runs bypass the journal (see `ScenarioSpec::run`), so they do
    // not open — and thereby wipe — it either.
    let journal = if spec.trace { None } else { cli::open_journal("clove-run", cli::has_flag(&args, "--resume")) };
    let (report, jsonl, dropped) = match spec.run(jobs, journal.as_ref()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("clove-run: {e}");
            std::process::exit(1);
        }
    };
    if let Some(trace_path) = trace_path {
        if let Err(e) = write_atomic(Path::new(trace_path), &jsonl) {
            eprintln!("clove-run: cannot write trace {trace_path}: {e}");
            std::process::exit(1);
        }
        eprintln!("clove-run: wrote {} trace event(s) to {trace_path}", jsonl.lines().count());
        if dropped > 0 {
            eprintln!("clove-run: warning: {dropped} trace event(s) dropped at buffer capacity");
        }
    }
    if let Some(hits) = journal.as_ref().map(|j| j.hits()).filter(|&hits| hits > 0) {
        eprintln!("clove-run: resumed {hits} seed(s) from the journal");
    }
    println!("{}", report.to_json().render_pretty());
}
