//! One workload, start to row: the untimed set-ups, the timed repetitions,
//! the identity checks — and, separately, the traced pass.
//!
//! End-to-end numbers come only from [`run_untraced`] (tracing off, every
//! cell through `Scenario` / the figure API). [`run_traced`] is one
//! repetition through the replica with spans on, plus the kernels; its
//! numbers never mix into the end-to-end ones.

use crate::api::*;
use crate::cell::{run_traced as run_traced_cell, CellCounts};
use crate::env::peak_rss_mib;
use crate::kernels::{self, KernelInputs};
use crate::layers::{accounting_gap, ledger, Extras, Kernels, LedgerInputs, TraceKinds, PER_LAYER};
use crate::result::{Row, Samples};
use crate::spans::{timer_ns, Recorder, Span};
use crate::workloads::*;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Exactly this many timed repetitions (`run.sh` default: 5).
    Reps(usize),
    /// Repeat until this many seconds were measured, at least twice.
    Seconds(f64),
}

impl Stop {
    fn done(self, reps: usize, measured_s: f64) -> bool {
        match self {
            Stop::Reps(n) => reps >= n.max(1),
            Stop::Seconds(s) => reps >= 2 && measured_s >= s,
        }
    }
}

pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// The ~1/16 scale; golden digests apply to full scale at the default seed.
    pub smoke: bool,
    pub stop: Stop,
    /// Scratch directory for journals and span dumps (under `benchmark/out/`).
    pub work: PathBuf,
    /// Where `<workload>.digest` files live; `None` skips the comparison.
    pub golden: Option<PathBuf>,
    /// Record this run's digest as the golden one instead of comparing.
    pub write_golden: bool,
}

impl Plan {
    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// `model_changed` for a digest: compared only where a golden one applies.
fn model_changed(plan: &Plan, digest: u64) -> Option<bool> {
    let dir = plan.golden.as_ref()?;
    if plan.seed != DEFAULT_SEED || plan.smoke {
        return None;
    }
    let path = dir.join(format!("{}.digest", plan.workload.name()));
    if plan.write_golden {
        match std::fs::write(&path, format!("{}\n", hex(digest))) {
            Ok(()) => println!("golden digest written: {}", path.display()),
            Err(e) => println!("cannot write {}: {e}", path.display()),
        }
        return Some(false);
    }
    let golden = std::fs::read_to_string(&path).ok()?;
    let changed = golden.trim() != hex(digest);
    if changed {
        println!(
            "MODEL CHANGED: {} sim_digest {} != golden {} (not a failure; a perf or simplicity PR must show 0)",
            plan.workload.name(),
            hex(digest),
            golden.trim()
        );
    }
    Some(changed)
}

fn single(unit: &str, value: f64) -> Samples {
    Samples { unit: unit.into(), values: vec![value] }
}

/// Host-time and simulated metrics of a finished run, as row entries.
fn metrics_of(setups: &[f64], reps: &[Rep], rss: Option<f64>) -> Vec<(String, Samples)> {
    let mut out = vec![
        ("setup_s".to_string(), Samples { unit: "s".into(), values: setups.to_vec() }),
        ("wall_s".to_string(), Samples { unit: "s".into(), values: reps.iter().map(|r| r.wall_s).collect() }),
        ("events_per_s".to_string(), Samples { unit: "1/s".into(), values: reps.iter().map(|r| r.events as f64 / r.wall_s).collect() }),
    ];
    out.extend(rss.map(|mib| ("peak_rss_mib".to_string(), single("MiB", mib))));
    let sim = reps[0].sim;
    out.extend(sim.fct_avg_ms.map(|v| ("sim_fct_avg_ms".to_string(), single("ms", v))));
    out.extend(sim.fct_p99_ms.map(|v| ("sim_fct_p99_ms".to_string(), single("ms", v))));
    out.extend(sim.goodput_gbps.map(|v| ("sim_goodput_gbps".to_string(), single("Gbit/s", v))));
    out
}

fn reps_identical(reps: &[Rep]) -> bool {
    reps.iter().all(|r| r.sim_digest == reps[0].sim_digest && r.sim == reps[0].sim && r.events == reps[0].events)
}

/// A scratch directory (named, not yet created) that is gone when the run is.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(work: &Path, name: &str) -> ScratchDir {
        ScratchDir(work.join(format!("{name}-{}", std::process::id())))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover journal is only clutter under out/.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The end-to-end run of one workload, tracing off.
pub fn run_untraced(plan: &Plan, process_start: Instant) -> Result<Row, String> {
    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut flags = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let (reps, rss) = if plan.workload == Workload::MatrixJobs {
        let jobs = matrix_jobs_width();
        if jobs < 2 {
            flags.push("degraded_single_cpu".to_string());
        }
        for i in 0..SETUPS {
            let t = if i == 0 { process_start } else { Instant::now() };
            warm_matrix(plan.seed, &plan.sizes(), jobs);
            setups.push(t.elapsed().as_secs_f64());
        }
        let journal = ScratchDir::new(&plan.work, "journal");
        let timed = Instant::now();
        let mut runs: Vec<MatrixRun> = Vec::new();
        while !plan.stop.done(runs.len(), timed.elapsed().as_secs_f64()) {
            runs.push(run_matrix(plan.seed, &plan.sizes(), jobs, &journal.0, false)?);
        }
        let rss = peak_rss_mib();
        // CSV bytes identical at jobs 1, jobs N and after resume.
        let last = runs.last().expect("at least one repetition");
        let resumed = run_matrix(plan.seed, &plan.sizes(), jobs, &journal.0, true)?;
        checks.push(("csv_resumed_identical".into(), resumed.csvs == last.csvs && resumed.journal_hits == last.cells && resumed.journal_stores == 0));
        let serial_dir = ScratchDir::new(&plan.work, "journal-serial");
        let serial = run_matrix(plan.seed, &plan.sizes(), 1, &serial_dir.0, false)?;
        checks.push(("csv_jobs1_identical".into(), serial.csvs == last.csvs));
        checks.push(("journal_stored_every_cell".into(), last.journal_stores == last.cells && last.journal_hits == 0));
        (runs.into_iter().map(|r| r.rep).collect::<Vec<Rep>>(), rss)
    } else {
        let mut built = None;
        for i in 0..SETUPS {
            let t = if i == 0 { process_start } else { Instant::now() };
            let dist = web_search();
            let cells = cells(plan.workload, plan.seed, &plan.sizes());
            for c in cells.iter().filter(|c| c.warmup) {
                black_box(run_cell(c, &dist, false));
            }
            setups.push(t.elapsed().as_secs_f64());
            built = Some((cells, dist));
        }
        let (cells, dist) = built.expect("SETUPS >= 1");
        let timed = Instant::now();
        let mut reps: Vec<Rep> = Vec::new();
        while !plan.stop.done(reps.len(), timed.elapsed().as_secs_f64()) {
            reps.push(run_rep(&cells, &dist));
        }
        let rss = peak_rss_mib();
        if plan.workload == Workload::RecoveryTraced {
            // Pure-observer identity: the same cells with trace and strict
            // off are the same simulation; and what the ring recorded is
            // schema-valid JSONL with nothing dropped.
            let off: Vec<CellSpec> = cells.iter().map(|c| c.with_observers(false, false)).collect();
            checks.push(("observers_off_identical".into(), run_rep(&off, &dist).sim_digest == reps[0].sim_digest));
            let mut schema_ok = true;
            let mut on_digests = Vec::new();
            for c in &cells {
                let run = run_cell(c, &dist, true);
                if let Err(e) = check_trace_jsonl(&render_jsonl(&run.trace)) {
                    println!("trace of {} fails its schema: {e}", c.label);
                    schema_ok = false;
                }
                on_digests.extend(run.digest);
            }
            checks.push(("trace_schema_valid".into(), schema_ok && sim_digest(&on_digests) == reps[0].sim_digest));
            checks.push(("trace_not_dropped".into(), reps.iter().all(|r| r.trace_dropped == 0) && reps[0].trace_events > 0));
        }
        (reps, rss)
    };
    for e in reps.iter().flat_map(|r| &r.errors) {
        println!("cell failed: {e}");
    }
    checks.push(("no_cell_errors".into(), reps.iter().all(|r| r.errors.is_empty())));
    checks.push(("reps_identical".into(), reps_identical(&reps)));
    let first = &reps[0];
    Ok(Row {
        workload: plan.workload.name().into(),
        seed: plan.seed,
        metrics: metrics_of(&setups, &reps, rss),
        ops_attempted: first.ops_attempted,
        ops_failed: reps.iter().map(|r| r.ops_failed).max().unwrap_or(0),
        sim_digest: hex(first.sim_digest),
        model_changed: model_changed(plan, first.sim_digest),
        checks,
        flags,
        layers: Vec::new(),
    })
}

/// Count the trace kinds the core layer reports.
fn count_kinds(kinds: &mut TraceKinds, trace: &[TraceEvent]) {
    for ev in trace {
        match ev.kind() {
            "flowlet_create" => kinds.flowlets_created += 1,
            "flowlet_switch" => kinds.flowlet_switches += 1,
            "weight_update" => kinds.weight_updates += 1,
            "ladder_transition" => kinds.ladder_transitions += 1,
            "state_flush" => kinds.state_flushes += 1,
            _ => {}
        }
    }
}

/// The biggest entry a journal holds: the JSON kernel's real input.
fn largest_journal_entry(root: &Path) -> Option<String> {
    let mut best: Option<(u64, PathBuf)> = None;
    for scope in std::fs::read_dir(root).ok()?.flatten() {
        for entry in std::fs::read_dir(scope.path()).into_iter().flatten().flatten() {
            let len = entry.metadata().map_or(0, |m| m.len());
            if best.as_ref().is_none_or(|(l, _)| len > *l) {
                best = Some((len, entry.path()));
            }
        }
    }
    std::fs::read_to_string(best?.1).ok()
}

/// The traced pass of one workload: one repetition through the replica with
/// spans on, each cell checked against its `Scenario` twin, then the
/// kernels replaying what was recorded. Writes `spans-<workload>.json`.
pub fn run_traced(plan: &Plan) -> Result<Row, String> {
    let clock_ns = timer_ns();
    let dist = web_search();
    let mut rec = Recorder::new(Instant::now());
    let (run_id, workload_id, rep_id) = (rec.reserve_id(), rec.reserve_id(), rec.reserve_id());
    let run_start = rec.now();
    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut flags = Vec::new();
    let mut extras = Extras::default();
    let mut journal_entry = None;

    // matrix_jobs: the figure set under spans, then the serial and resumed
    // twins; its layer counters come from replaying its fig4c middle-load
    // row through the replica below.
    if plan.workload == Workload::MatrixJobs {
        let jobs = matrix_jobs_width();
        if jobs < 2 {
            flags.push("degraded_single_cpu".to_string());
        }
        let journal = ScratchDir::new(&plan.work, "journal-traced");
        let start = rec.now();
        let parallel = run_matrix(plan.seed, &plan.sizes(), jobs, &journal.0, false)?;
        let figures_id = rec.reserve_id();
        let mut at = start;
        for wall_s in &parallel.figure_walls {
            let end = at + (wall_s * 1e9) as u64;
            rec.record(Span::MatrixFigure, figures_id, at, end);
            at = end;
        }
        rec.close(Span::MatrixFigures, figures_id, rep_id, start, at);
        rec.record(Span::ReportRender, rep_id, at, at + (parallel.render_s * 1e9) as u64);
        let start = rec.now();
        let resumed = run_matrix(plan.seed, &plan.sizes(), jobs, &journal.0, true)?;
        rec.record(Span::MatrixResume, rep_id, start, rec.now());
        journal_entry = largest_journal_entry(&journal.0);
        let serial_dir = ScratchDir::new(&plan.work, "journal-traced-serial");
        let serial = run_matrix(plan.seed, &plan.sizes(), 1, &serial_dir.0, false)?;
        checks.push(("csv_resumed_identical".into(), resumed.csvs == parallel.csvs && resumed.journal_hits == parallel.cells));
        checks.push(("csv_jobs1_identical".into(), serial.csvs == parallel.csvs));
        extras = Extras {
            cells: parallel.cells,
            quarantined: parallel.quarantined,
            journal_stores: parallel.journal_stores,
            journal_hits: resumed.journal_hits,
            // A "speed-up" on one CPU would be scheduler overhead: leave it out.
            jobs_speedup: if jobs >= 2 { serial.rep.wall_s / parallel.rep.wall_s } else { 0.0 },
            resume_s: resumed.rep.wall_s,
            report_render_ms: parallel.render_s * 1e3,
            sim_fct_avg_ms: parallel.rep.sim.fct_avg_ms.unwrap_or(0.0),
            sim_fct_p99_ms: parallel.rep.sim.fct_p99_ms.unwrap_or(0.0),
            ..Extras::default()
        };
    }

    // Every cell twice: through `Scenario` (untraced, the twin) and through
    // the replica (traced). Same digest or the pass fails.
    let cells = cells(plan.workload, plan.seed, &plan.sizes());
    let recovery = plan.workload == Workload::RecoveryTraced;
    let mut counts = CellCounts::default();
    let mut kinds = TraceKinds::default();
    let mut twins: Vec<CellRun> = Vec::new();
    let mut scheme_costs: Vec<(String, f64, u64)> = Vec::new();
    let mut matches = true;
    let (mut traced_wall, mut dump_s) = (0.0, 0.0);
    for (i, cell) in cells.iter().enumerate() {
        let mut twin = run_cell(cell, &dist, recovery);
        if recovery {
            count_kinds(&mut kinds, &twin.trace);
            let t = Instant::now();
            let valid = check_trace_jsonl(&render_jsonl(&twin.trace));
            dump_s += t.elapsed().as_secs_f64();
            if let Err(e) = valid {
                println!("trace of {} fails its schema: {e}", cell.label);
                matches = false;
            }
            twin.trace = Vec::new();
        }
        let replica = run_traced_cell(cell, &dist, &mut rec, i as u32, rep_id)?;
        if twin.digest != Some(replica.digest) {
            println!("replica of {} is not its Scenario twin: {:?} vs {:?}", cell.label, replica.digest, twin.digest);
            matches = false;
        }
        traced_wall += replica.wall_s;
        counts.absorb(&replica.counts);
        let key = cell.scheme_key();
        let events = twin.digest.map_or(0, |d| d.events);
        match scheme_costs.iter_mut().find(|(k, _, _)| *k == key) {
            Some(entry) => {
                entry.1 += twin.wall_s * 1e9;
                entry.2 += events;
            }
            None => scheme_costs.push((key, twin.wall_s * 1e9, events)),
        }
        twins.push(twin);
    }
    let end = rec.now();
    for (span, id, parent) in [(Span::Rep, rep_id, workload_id), (Span::Workload, workload_id, run_id), (Span::Run, run_id, 0)] {
        rec.close(span, id, parent, run_start, end);
    }
    checks.push(("replica_matches_scenario".into(), matches));
    // The books must close against a stopwatch the recorder does not own.
    let gap = accounting_gap(&rec, traced_wall);
    checks.push(("span_accounting_within_2pct".into(), gap <= 0.02));

    // The untraced wall of the same cells, observers off — the base of
    // `trace.overhead_ratio` and of the observer cost ratios.
    let mut untraced_wall: f64 = twins.iter().map(|t| t.wall_s).sum();
    if recovery {
        let wall_with = |trace: bool, strict: bool| -> f64 { cells.iter().map(|c| run_cell(&c.with_observers(trace, strict), &dist, false).wall_s).sum() };
        untraced_wall = wall_with(false, false);
        extras.trace_cost_ratio = wall_with(true, false) / untraced_wall;
        extras.strict_cost_ratio = wall_with(false, true) / untraced_wall;
        extras.trace_dump_ms = dump_s * 1e3;
    }
    let folded = fold_rep(&cells, &twins, untraced_wall);
    extras.trace_events = folded.trace_events;
    extras.trace_dropped = folded.trace_dropped;
    if plan.workload != Workload::MatrixJobs {
        extras.cells = cells.len() as u64;
        extras.sim_fct_avg_ms = folded.sim.fct_avg_ms.unwrap_or(0.0);
        extras.sim_fct_p99_ms = folded.sim.fct_p99_ms.unwrap_or(0.0);
        extras.sim_goodput_gbps = folded.sim.goodput_gbps.unwrap_or(0.0);
    }

    // Kernels last, so they replay what the cells recorded.
    let inputs = KernelInputs::from_counts(&counts);
    let entry = journal_entry.unwrap_or_else(|| match twins.iter().find_map(|t| t.fct.as_ref()) {
        Some(fct) => kernels::journal_entry(fct, folded.events),
        None => kernels::journal_entry(&kernels::synthetic_fct(&inputs).summarize(), folded.events),
    });
    let (encap, decap) = kernels::vswitch(&inputs);
    let (policy_select, policy_feedback) = kernels::policy(&inputs);
    let kernels = Kernels {
        queue: kernels::queue(&inputs),
        link: kernels::link(),
        ecmp: kernels::ecmp(&inputs),
        encap,
        decap,
        flowlet: kernels::flowlet(&inputs),
        policy_select,
        policy_feedback,
        tcp: kernels::tcp(),
        fct_fold: kernels::fct_fold(&inputs),
        harness_json: kernels::harness_json(&entry),
        hist: kernels::hist(&inputs),
        trace: kernels::trace(),
    };

    let values = ledger(&LedgerInputs {
        counts: &counts,
        rec: &rec,
        timer_ns: clock_ns,
        kinds,
        kernels,
        extras,
        scheme_costs: &scheme_costs,
        overhead_ratio: traced_wall / untraced_wall,
    });
    let dump = plan.work.join(format!("spans-{}.json", plan.workload.name()));
    if let Err(e) = std::fs::write(&dump, rec.to_json().render()) {
        println!("cannot write {}: {e}", dump.display());
    }
    println!("spans written: {} (accounting gap {:.3}%)", dump.display(), gap * 100.0);
    Ok(Row {
        workload: plan.workload.name().into(),
        seed: plan.seed,
        metrics: Vec::new(),
        ops_attempted: folded.ops_attempted,
        ops_failed: folded.ops_failed,
        sim_digest: hex(folded.sim_digest),
        model_changed: None,
        checks,
        flags,
        layers: PER_LAYER.iter().zip(values).map(|(m, (name, v))| (name.to_string(), m.unit.to_string(), v)).collect(),
    })
}
