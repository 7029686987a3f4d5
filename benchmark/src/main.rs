//! `clove-benchmark` — the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! clove-benchmark --workload W --seed S --seconds T --trace 0|1   one workload (the driver's form)
//! clove-benchmark [--seed S] [--reps N] [--traced] [--smoke] [--out FILE]   the whole suite
//! clove-benchmark compare A.json B.json
//! clove-benchmark manifest            BENCHMARK.json, from the tables in this package
//! ```
//!
//! The suite re-executes this binary once per workload, so each workload's
//! `peak_rss_mib` is its own process's `VmHWM`.

mod api;
mod cell;
mod compare;
mod env;
mod json;
mod kernels;
mod layers;
mod result;
mod runner;
mod spans;
mod stats;
mod workloads;

use env::Env;
use json::Json;
use result::{ResultFile, Row, END_TO_END};
use runner::{Plan, Stop};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage:
  clove-benchmark --workload <name> [--seed N] [--seconds T | --reps N] [--trace 0|1] [--smoke] [--row-out FILE]
  clove-benchmark [--seed N] [--reps N] [--traced] [--smoke] [--out FILE]
  clove-benchmark compare A.json B.json
  clove-benchmark manifest
workloads: websearch_asym incast_fanin recovery_traced matrix_jobs";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    traced: bool,
    smoke: bool,
    write_golden: bool,
    out: Option<String>,
    row_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = Some(value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => args.seconds = Some(value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--reps" => args.reps = Some(value("a number")?.parse().map_err(|e| format!("--reps: {e}"))?),
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--write-golden" => args.write_golden = true,
            "--out" => args.out = Some(value("a file")?),
            "--row-out" => args.row_out = Some(value("a file")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s <= 3600.0)) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    // The process moves into its work directory before running: pin the
    // output paths to where the caller stood.
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    for path in [&mut args.out, &mut args.row_out].into_iter().flatten() {
        *path = cwd.join(&*path).to_string_lossy().into_owned();
    }
    Ok(args)
}

/// How long one driver run measures (`run_seconds` in BENCHMARK.json).
const RUN_SECONDS: u64 = 12;

/// BENCHMARK.json, generated from the workload and metric tables so the
/// manifest cannot drift from what the binary prints (a test compares the
/// committed file with this).
fn manifest() -> Json {
    let named = |name: &str, unit: &str, better: &str| vec![("name", Json::str(name)), ("unit", Json::str(unit)), ("better", Json::str(better))];
    Json::obj(vec![
        ("command", Json::Arr(["bash", "benchmark/run.sh"].map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(Workload::ALL.iter().map(|w| Json::obj(vec![("name", Json::str(w.name())), ("why", Json::str(w.why()))])).collect())),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter_map(|m| {
                        let mut fields = named(m.name, m.unit, m.better);
                        fields.push(("bound", Json::Num(m.driver_bound?)));
                        Some(Json::obj(fields))
                    })
                    .collect(),
            ),
        ),
        ("per_layer", Json::Arr(layers::PER_LAYER.iter().map(|m| Json::obj(named(m.name, m.unit, m.better))).collect())),
    ])
}

/// `benchmark/` as built; the driver builds and runs in one checkout.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The directory this process works in: journals, span dumps and whatever
/// the harness writes relative to the cwd (quarantine snapshots) stay under
/// `benchmark/out/`, never in `results/`.
fn enter_work_dir() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let out = package_dir().join("out");
    if cwd.starts_with(&out) {
        return Ok(cwd);
    }
    let stamp = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let dir = out.join(format!("run-{stamp}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::env::set_current_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn print_row(row: &Row) {
    for (name, s) in &row.metrics {
        let q = s.quartiles();
        println!("  {name:<18} {:>16.6} {:<7} [q1 {:.6}, q3 {:.6}, n={}]", q.median, s.unit, q.q1, q.q3, q.n);
    }
    for (name, unit, value) in &row.layers {
        println!("  {name:<40} {value:>18.4} {unit}");
    }
    let checks: Vec<String> = row.checks.iter().map(|(k, ok)| format!("{k}={}", if *ok { "ok" } else { "FAILED" })).collect();
    println!(
        "  ops_attempted {}  ops_failed {}  sim_digest {}  model_changed {}  {}",
        row.ops_attempted,
        row.ops_failed,
        row.sim_digest,
        row.model_changed.map_or("-".into(), |c| (c as u8).to_string()),
        checks.join(" ")
    );
    for f in &row.flags {
        println!("  flag: {f}");
    }
}

/// The contract's last stdout line.
fn contract_line(row: &Row) -> String {
    let metrics: Vec<(String, Json)> = if row.layers.is_empty() {
        END_TO_END
            .iter()
            .filter(|m| m.driver_bound.is_some())
            .filter_map(|m| {
                row.metric(m.name).map(|s| (m.name.to_string(), Json::obj(vec![("value", Json::Num(s.quartiles().median)), ("unit", Json::str(m.unit))])))
            })
            .collect()
    } else {
        row.layers.iter().map(|(name, unit, value)| (name.clone(), Json::obj(vec![("value", Json::Num(*value)), ("unit", Json::str(unit))]))).collect()
    };
    Json::obj(vec![
        ("correct", Json::Bool(row.correct())),
        ("attempted", Json::Num(row.ops_attempted.max(1) as f64)),
        ("failed", Json::Num(row.ops_failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// One workload in this process.
fn run_workload(args: &Args, name: &str, process_start: Instant) -> Result<ExitCode, String> {
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let work = enter_work_dir()?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let stop = match (args.seconds, args.reps) {
        (Some(s), None) => Stop::Seconds(s),
        (None, reps) => Stop::Reps(reps.unwrap_or(5)),
        (Some(_), Some(_)) => return Err("give --seconds or --reps, not both".into()),
    };
    let plan = Plan { workload, seed, smoke: args.smoke, stop, work, golden: Some(package_dir().join("golden")), write_golden: args.write_golden };
    println!(
        "{} seed {seed} scale {} {}",
        workload.name(),
        if args.smoke { "smoke" } else { "full" },
        if args.trace { "traced pass" } else { "end-to-end (tracing off)" }
    );
    let row = if args.trace { runner::run_traced(&plan)? } else { runner::run_untraced(&plan, process_start)? };
    print_row(&row);
    if let Some(path) = &args.row_out {
        // A child of the suite: the parent gathers the row, nobody parses stdout.
        std::fs::write(path, row.to_json().render_pretty()).map_err(|e| format!("{path}: {e}"))?;
        return Ok(ExitCode::SUCCESS);
    }
    // An untraced single run leaves nothing behind: drop its work directory
    // (this fails, harmlessly, when the directory holds files or is shared).
    let _ = std::env::set_current_dir(package_dir()).and_then(|()| std::fs::remove_dir(&plan.work));
    println!("{}", contract_line(&row));
    Ok(ExitCode::SUCCESS)
}

/// The whole suite: one child process per workload (and per traced pass),
/// rows gathered into one result file.
fn run_suite(args: &Args) -> Result<ExitCode, String> {
    let work = enter_work_dir()?;
    let mut env = Env::capture();
    println!(
        "clove-benchmark: {} x{}, {}, commit {}{}, load {:.2}",
        env.cpu_model,
        env.nproc,
        env.rustc,
        env.git_commit,
        if env.git_dirty { " (dirty)" } else { "" },
        env.loadavg_before
    );
    if let Some(w) = env.busy_warning() {
        println!("{w}");
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rows: Vec<Row> = Vec::new();
    let mut all_ok = true;
    for workload in Workload::ALL {
        let passes: &[bool] = if args.traced { &[false, true] } else { &[false] };
        let mut row: Option<Row> = None;
        for &trace in passes {
            let row_file = work.join(format!("row-{}-{}.json", workload.name(), trace as u8));
            let mut cmd = Command::new(&exe);
            cmd.current_dir(&work).args([
                "--workload",
                workload.name(),
                "--seed",
                &args.seed.unwrap_or(DEFAULT_SEED).to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]);
            cmd.args(["--reps", &args.reps.unwrap_or(5).to_string(), "--row-out"]).arg(&row_file);
            if args.smoke {
                cmd.arg("--smoke");
            }
            if args.write_golden {
                cmd.arg("--write-golden");
            }
            // The child's report streams through; the parent only waits.
            let status = cmd.status().map_err(|e| format!("cannot start child for {}: {e}", workload.name()))?;
            if !status.success() {
                return Err(format!("{} child exited with {status}", workload.name()));
            }
            let text = std::fs::read_to_string(&row_file).map_err(|e| format!("{}: {e}", row_file.display()))?;
            let part = Row::from_json(&Json::parse(&text)?)?;
            all_ok &= part.correct() && part.ops_failed == 0;
            match row.as_mut() {
                None => row = Some(part),
                // The traced pass adds the ledger and its own checks to the row.
                Some(r) => {
                    r.layers = part.layers;
                    r.checks.extend(part.checks.into_iter().map(|(k, ok)| (format!("traced.{k}"), ok)));
                }
            }
        }
        rows.extend(row);
    }
    env.finish();
    let file = ResultFile { env, scale: if args.smoke { "smoke" } else { "full" }.into(), rows };
    let out = args.out.clone().map_or_else(|| work.join("result.json"), PathBuf::from);
    let text = file.to_json().render_pretty();
    std::fs::write(&out, &text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nresult: {}", out.display());
    println!(
        "{}",
        if all_ok { "all identity checks passed, no operation failed" } else { "FAILED: an identity check failed or an operation failed (see rows above)" }
    );
    println!("\"claim\": null");
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("manifest") {
        print!("{}", manifest().render_pretty());
        Ok(ExitCode::SUCCESS)
    } else if argv.first().map(String::as_str) == Some("compare") {
        match argv.as_slice() {
            [_, a, b] => ResultFile::read(a).and_then(|a| Ok((a, ResultFile::read(b)?))).map(|(a, b)| {
                let (report, pass) = compare::compare(&a, &b);
                print!("{report}");
                if pass {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }),
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse_args(&argv).and_then(|args| match args.workload.clone() {
            Some(name) => run_workload(&args, &name, process_start),
            None => run_suite(&args),
        })
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("clove-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::web_search;
    use crate::runner::ScratchDir;
    use crate::spans::Recorder;
    use crate::workloads::{cells, run_cell, Sizes};

    /// A scratch directory under `benchmark/out/`, removed on drop.
    fn test_dir(name: &str) -> ScratchDir {
        let dir = ScratchDir::new(&package_dir().join("out"), name);
        std::fs::create_dir_all(&dir.0).unwrap();
        dir
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = package_dir().join("../BENCHMARK.json");
        let committed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(committed, manifest(), "regenerate with: clove-benchmark manifest > BENCHMARK.json");
        // The contract's shape, beyond what the tables' own tests hold.
        let keys: Vec<&str> = committed.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(std::fs::metadata(&path).unwrap().len() <= 64 * 1024);
    }

    #[test]
    fn argument_errors_are_reported_not_panicked() {
        let args = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
        let ok = args(&["--workload", "incast_fanin", "--seed", "7", "--seconds", "12", "--trace", "1"]).unwrap();
        assert_eq!((ok.workload.as_deref(), ok.seed, ok.seconds, ok.trace), (Some("incast_fanin"), Some(7), Some(12.0), true));
    }

    /// The `--smoke` scale: every workload end to end with all its identity
    /// checks, and the contract line it would print.
    #[test]
    fn smoke_suite_passes_every_identity_check() {
        let dir = test_dir("test-smoke");
        for workload in Workload::ALL {
            let plan = Plan { workload, seed: 7, smoke: true, stop: Stop::Reps(2), work: dir.0.clone(), golden: None, write_golden: false };
            let row = runner::run_untraced(&plan, Instant::now()).unwrap();
            assert!(row.correct(), "{}: {:?}", workload.name(), row.checks);
            assert_eq!(row.ops_failed, 0, "{}", workload.name());
            assert!(row.ops_attempted > 0 && row.model_changed.is_none());
            let line = Json::parse(&contract_line(&row)).unwrap();
            let keys: Vec<&str> = line.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed: Vec<&str> = line.get("metrics").unwrap().as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(printed, ["setup_s", "wall_s", "events_per_s"], "every driver metric, on every workload");
            assert!(line.get("metrics").unwrap().as_object().unwrap().iter().all(|(_, m)| m.get("value").and_then(Json::as_f64).is_some_and(|v| v > 0.0)));
            // Round trip through the row file the suite gathers.
            assert_eq!(Row::from_json(&Json::parse(&row.to_json().render_pretty()).unwrap()).unwrap(), row);
        }
    }

    /// The replica is the same simulation as `Scenario`: one RPC cell and
    /// one incast cell, digest field by field.
    #[test]
    fn traced_replica_matches_its_scenario_twin() {
        let dist = web_search();
        let mut rec = Recorder::new(Instant::now());
        let rpc = cells(Workload::WebsearchAsym, 7, &Sizes::SMOKE).swap_remove(2);
        let incast = cells(Workload::IncastFanin, 7, &Sizes::SMOKE).swap_remove(1);
        assert!(rpc.pooled && incast.pooled);
        for (i, cell) in [rpc, incast].iter().enumerate() {
            let twin = run_cell(cell, &dist, false);
            let replica = cell::run_traced(cell, &dist, &mut rec, i as u32, 0).unwrap();
            assert_eq!(twin.digest, Some(replica.digest), "{}", cell.label);
            assert!(replica.counts.events_popped > 0 && replica.counts.flows_completed == replica.counts.flows_started);
        }
        assert!(layers::accounting_gap(&rec, rec.stat(spans::Span::Cell).total_ns as f64 / 1e9) < 1e-9);
    }

    /// The traced pass fills every ledger entry and its checks hold.
    #[test]
    fn traced_pass_prints_every_per_layer_metric() {
        let dir = test_dir("test-traced");
        let plan =
            Plan { workload: Workload::RecoveryTraced, seed: 7, smoke: true, stop: Stop::Reps(1), work: dir.0.clone(), golden: None, write_golden: false };
        let row = runner::run_traced(&plan).unwrap();
        assert!(row.correct(), "{:?}", row.checks);
        assert!(row.layers.iter().map(|(n, _, _)| n.as_str()).eq(layers::PER_LAYER.iter().map(|m| m.name)));
        let value = |name: &str| row.layers.iter().find(|(n, _, _)| n == name).unwrap().2;
        assert!(value("net.faults_applied") > 0.0 && value("telemetry.trace_events") > 0.0 && value("telemetry.trace_dropped") == 0.0);
        assert!(value("trace.overhead_ratio") > 1.0 && value("sim.queue_kernel_ns_per_op") > 0.0);
        assert!(dir.0.join("spans-recovery_traced.json").exists());
        let line = Json::parse(&contract_line(&row)).unwrap();
        assert_eq!(line.get("metrics").unwrap().as_object().unwrap().len(), layers::PER_LAYER.len());
    }
}
