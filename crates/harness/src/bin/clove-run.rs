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
use clove_harness::config::ScenarioSpec;
use clove_harness::{check_trace_jsonl, write_atomic, Journal};
use std::path::Path;

/// Parse `--flag N` / `--flag=N`.
fn parse_flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().map(|s| s.as_str());
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v);
        }
    }
    None
}

/// Parse `--jobs N` / `--jobs=N` (default 1 = serial).
fn parse_jobs(args: &[String]) -> usize {
    parse_flag(args, "--jobs").and_then(|v| v.parse().ok()).filter(|&n| n >= 1).unwrap_or(1)
}

fn chaos_main(args: &[String]) -> ! {
    let cfg = ChaosConfig {
        runs: parse_flag(args, "--runs").and_then(|v| v.parse().ok()).unwrap_or(20),
        seed: parse_flag(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(1),
        jobs: parse_jobs(args),
        shrink_budget: parse_flag(args, "--shrink-budget").and_then(|v| v.parse().ok()).unwrap_or(64),
    };
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

fn trace_check_main(args: &[String]) -> ! {
    let Some(path) = args.iter().skip(1).find(|a| !a.starts_with("--")) else {
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
    let jobs = parse_jobs(&args);
    let value_flags = ["--jobs", "--runs", "--seed", "--shrink-budget", "--out", "--trace"];
    let arg = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !(a.starts_with("--") || i > 0 && value_flags.contains(&args[i - 1].as_str())))
        .map(|(_, a)| a.clone())
        .next()
        .or_else(|| args.iter().find(|a| *a == "--example").cloned())
        .unwrap_or_default();
    if arg == "chaos" {
        chaos_main(&args);
    }
    if arg == "trace-check" {
        let rest: Vec<String> = args.iter().skip_while(|a| *a != "trace-check").cloned().collect();
        trace_check_main(&rest);
    }
    if arg == "--example" || arg.is_empty() {
        eprintln!("usage: clove-run <spec.json> | chaos | trace-check <trace.jsonl> | --example");
        println!(
            "{{
  \"scheme\": {{ \"name\": \"clove-ecn\" }},
  \"topology\": {{ \"kind\": \"asymmetric\" }},
  \"load\": 0.7,
  \"workload\": \"web-search\",
  \"jobs_per_conn\": 100,
  \"conns_per_client\": 2,
  \"seed\": 42,
  \"seeds\": 1,
  \"horizon_secs\": 30
}}"
        );
        std::process::exit(if arg.is_empty() { 2 } else { 0 });
    }
    let text = match std::fs::read_to_string(&arg) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("clove-run: cannot read {arg}: {e}");
            std::process::exit(1);
        }
    };
    let mut spec: ScenarioSpec = match ScenarioSpec::from_json_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("clove-run: bad spec: {e}");
            std::process::exit(1);
        }
    };
    if args.iter().any(|a| a == "--strict") {
        spec.strict = true;
    }
    if let Some(trace_path) = parse_flag(&args, "--trace") {
        // Trace runs bypass the journal: a resumed seed has no trace buffer
        // to replay, and a partial dump would silently lose events.
        match spec.run_jobs_traced(jobs) {
            Ok((report, jsonl, dropped)) => {
                if let Err(e) = write_atomic(Path::new(trace_path), &jsonl) {
                    eprintln!("clove-run: cannot write trace {trace_path}: {e}");
                    std::process::exit(1);
                }
                let lines = jsonl.lines().count();
                eprintln!("clove-run: wrote {lines} trace event(s) to {trace_path}");
                if dropped > 0 {
                    eprintln!("clove-run: warning: {dropped} trace event(s) dropped at buffer capacity");
                }
                println!("{}", report.to_json().render_pretty());
                return;
            }
            Err(e) => {
                eprintln!("clove-run: {e}");
                std::process::exit(1);
            }
        }
    }
    let resume = args.iter().any(|a| a == "--resume");
    let journal = match Journal::open("results/.journal/clove-run", resume) {
        Ok(j) => Some(j),
        Err(e) => {
            eprintln!("clove-run: warning: no checkpoint journal ({e}); running without one");
            None
        }
    };
    match spec.run_jobs_journaled(jobs, journal.as_ref()) {
        Ok(report) => {
            if let Some(j) = &journal {
                if j.hits() > 0 {
                    eprintln!("clove-run: resumed {} seed(s) from the journal", j.hits());
                }
            }
            println!("{}", report.to_json().render_pretty());
        }
        Err(e) => {
            eprintln!("clove-run: {e}");
            std::process::exit(1);
        }
    }
}
