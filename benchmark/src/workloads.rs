//! The four named workloads: their cell lists, how one cell and one
//! repetition run through the public `Scenario` / figure API, and the
//! simulation digest that makes "same model, same bytes" checkable.
//!
//! Names and definitions are fixed (later issues refer to them); only the
//! counts in [`Sizes`] may be re-tuned to hit a run length.

use crate::api::*;
use rustc_hash::FxHasher;
use std::hash::Hasher;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `--seed` default; the golden digests are recorded at this seed.
pub const DEFAULT_SEED: u64 = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WebsearchAsym,
    IncastFanin,
    RecoveryTraced,
    MatrixJobs,
}

impl Workload {
    pub const ALL: [Workload; 4] = [Workload::WebsearchAsym, Workload::IncastFanin, Workload::RecoveryTraced, Workload::MatrixJobs];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WebsearchAsym => "websearch_asym",
            Workload::IncastFanin => "incast_fanin",
            Workload::RecoveryTraced => "recovery_traced",
            Workload::MatrixJobs => "matrix_jobs",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (BENCHMARK.json carries the same).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WebsearchAsym => "paper headline cell: 7 schemes x asymmetric x load 0.7, thousands of short web-search flows; every per-packet layer plus flow set-up, flowlets and feedback work here; ECMP is the bypass row",
            Workload::IncastFanin => "opposite mix: few long synchronised 10 MB flows into one downlink, deep drop-tail queue, MPTCP RTO storms; almost no flow churn or path decisions, so flow set-up gains must not show here",
            Workload::RecoveryTraced => "same layers with observers on: trace ring + strict monitor, node faults, cold vswitch restart and re-discovery mid-run; the only workload that moves with tracing, strict, fault or discovery code",
            Workload::MatrixJobs => "the only workload where the harness works: orchestrator pool, LPT order, panic isolation, journal, JSON, PointCache fold, CSV render and the vendored rayon, at min(nproc,4) jobs",
        }
    }
}

/// The counts a builder may re-tune; everything else is definition.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub web_jobs_per_conn: u32,
    pub incast_requests: u32,
    pub recovery_jobs_per_conn: u32,
    pub matrix_jobs_per_conn: u32,
    pub matrix_seeds: u32,
}

impl Sizes {
    /// Recording scale: ~92 M / 70 M / 55 M / 139 M events per repetition.
    pub const FULL: Sizes = Sizes { web_jobs_per_conn: 32, incast_requests: 100, recovery_jobs_per_conn: 16, matrix_jobs_per_conn: 16, matrix_seeds: 2 };
    /// ~1/20 of FULL: every code path and identity check, seconds in total.
    pub const SMOKE: Sizes = Sizes { web_jobs_per_conn: 2, incast_requests: 5, recovery_jobs_per_conn: 2, matrix_jobs_per_conn: 2, matrix_seeds: 1 };
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellKind {
    Rpc,
    Incast { fanin: u32, requests: u32 },
}

/// 10 MB objects, as in the paper's Figure 7.
pub const INCAST_OBJECT_BYTES: u64 = 10_000_000;

/// One simulation cell of a serial workload.
#[derive(Debug, Clone)]
pub struct CellSpec {
    pub label: String,
    pub scenario: Scenario,
    pub kind: CellKind,
    /// A Clove-ECN cell: its flows feed the workload's simulated metrics.
    pub pooled: bool,
    /// Runs in the untimed warm-up (the workload's ECMP and Clove-ECN cells).
    pub warmup: bool,
}

impl CellSpec {
    /// `ecmp`, `clove-ecn`, ... — the key of the `scheme.<key>.ns_per_event` rows.
    pub fn scheme_key(&self) -> String {
        self.scenario.scheme.label().to_lowercase()
    }

    /// The cell with its observers (trace ring, strict monitor) switched.
    pub fn with_observers(&self, trace: bool, strict: bool) -> CellSpec {
        let mut c = self.clone();
        c.scenario.trace = trace;
        c.scenario.strict = strict;
        c
    }
}

/// The cell list of a workload. `seed` is added to every cell's own
/// seed (its index), so a run draws one independent flow set per cell.
pub fn cells(workload: Workload, seed: u64, sizes: &Sizes) -> Vec<CellSpec> {
    let mut out: Vec<CellSpec> = Vec::new();
    let mut push = |label: String, scenario: Scenario, kind: CellKind| {
        let pooled = scenario.scheme == Scheme::CloveEcn;
        let warmup = pooled || scenario.scheme == Scheme::Ecmp;
        out.push(CellSpec { label, scenario, kind, pooled, warmup });
    };
    match workload {
        Workload::WebsearchAsym => {
            let schemes = [
                Scheme::Ecmp,
                Scheme::EdgeFlowlet,
                Scheme::CloveEcn,
                Scheme::CloveInt,
                Scheme::Conga,
                Scheme::Presto { oracle_weights: presto_oracle_weights(TopologyKind::Asymmetric) },
                Scheme::Mptcp { subflows: 4 },
            ];
            for (i, scheme) in schemes.into_iter().enumerate() {
                let mut s = Scenario::new(scheme, TopologyKind::Asymmetric, 0.7, seed + i as u64);
                s.jobs_per_conn = sizes.web_jobs_per_conn;
                s.conns_per_client = 2;
                s.horizon = Time::from_secs(60);
                push(s.scheme.label().to_string(), s, CellKind::Rpc);
            }
        }
        Workload::IncastFanin => {
            let mut i = 0;
            for scheme in [Scheme::CloveEcn, Scheme::EdgeFlowlet, Scheme::Mptcp { subflows: 4 }] {
                for fanin in [4u32, 16] {
                    let s = Scenario::new(scheme.clone(), TopologyKind::Symmetric, 0.5, seed + i);
                    i += 1;
                    push(format!("{} fan-in {fanin}", s.scheme.label()), s, CellKind::Incast { fanin, requests: sizes.incast_requests });
                }
            }
        }
        Workload::RecoveryTraced => {
            let mut i = 0;
            for scheme in [Scheme::Ecmp, Scheme::CloveEcn, Scheme::CloveInt, Scheme::Conga] {
                for case in [RecoveryCase::RollingTor, RecoveryCase::HostCrashCold] {
                    let mut s = Scenario::new(scheme.clone(), TopologyKind::Symmetric, 0.6, seed + i);
                    i += 1;
                    s.jobs_per_conn = sizes.recovery_jobs_per_conn;
                    s.conns_per_client = 2;
                    s.profile.probe_interval = Duration::from_millis(5);
                    s.faults = case.plan(RESILIENCE_FAULT_AT);
                    s.trace = true;
                    s.strict = true;
                    push(format!("{} {}", s.scheme.label(), case.label()), s, CellKind::Rpc);
                }
            }
        }
        // The matrix runs through the figure API; this is only the sample
        // the traced pass replays so its layer counters exist too: the
        // fig4c row at the middle load point, first harness seed, built the
        // way `experiments::scenario` builds it.
        Workload::MatrixJobs => {
            let cfg = matrix_config(sizes, 1, None);
            for scheme in [
                Scheme::Ecmp,
                Scheme::EdgeFlowlet,
                Scheme::CloveEcn,
                Scheme::Mptcp { subflows: 4 },
                Scheme::Presto { oracle_weights: presto_oracle_weights(TopologyKind::Asymmetric) },
            ] {
                let mut s = Scenario::new(scheme, TopologyKind::Asymmetric, matrix_loads(seed)[1], 1000);
                s.jobs_per_conn = cfg.jobs_per_conn;
                s.conns_per_client = cfg.conns_per_client;
                s.horizon = Time::from_secs(cfg.horizon_secs);
                push(s.scheme.label().to_string(), s, CellKind::Rpc);
            }
        }
    }
    out
}

/// What makes two runs "the same simulation": compared field by field
/// between a traced replica and its `Scenario` twin, and folded in cell
/// order into the workload's `sim_digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellDigest {
    pub events: u64,
    pub sim_ns: u64,
    /// Completed flows (RPC) or completed request rounds (incast).
    pub flows: u64,
    /// Bits of the mean FCT in seconds (RPC) or of the goodput in bit/s (incast).
    pub avg_bits: u64,
    /// Bits of the p99 FCT in seconds (RPC); 0 for incast.
    pub p99_bits: u64,
    pub drops: u64,
    pub marks: u64,
    pub timeouts: u64,
    pub retransmits: u64,
}

impl CellDigest {
    pub fn of_rpc(fct: &mut FctSummary, events: u64, sim_time: Time, drops: u64, marks: u64, timeouts: u64, retransmits: u64) -> CellDigest {
        CellDigest {
            events,
            sim_ns: sim_time.as_nanos(),
            flows: fct.all.count() as u64,
            avg_bits: fct.avg().to_bits(),
            p99_bits: fct.p99().to_bits(),
            drops,
            marks,
            timeouts,
            retransmits,
        }
    }

    pub fn of_incast(events: u64, sim_time: Time, rounds: u32, goodput_bps: f64, timeouts: u64) -> CellDigest {
        CellDigest {
            events,
            sim_ns: sim_time.as_nanos(),
            flows: rounds as u64,
            avg_bits: goodput_bps.to_bits(),
            p99_bits: 0,
            drops: 0,
            marks: 0,
            timeouts,
            retransmits: 0,
        }
    }

    fn feed(&self, h: &mut FxHasher) {
        for v in [self.events, self.sim_ns, self.flows, self.avg_bits, self.p99_bits, self.drops, self.marks, self.timeouts, self.retransmits] {
            h.write_u64(v);
        }
    }
}

/// FxHash over the cells' digests, in cell order (order is part of it).
pub fn sim_digest<'a>(cells: impl IntoIterator<Item = &'a CellDigest>) -> u64 {
    let mut h = FxHasher::default();
    for c in cells {
        c.feed(&mut h);
    }
    h.finish()
}

/// The outcome of one cell, reduced to what the benchmark reports.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// `None` when the scenario returned `Err` (every flow then counts failed).
    pub digest: Option<CellDigest>,
    pub wall_s: f64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub fct: Option<FctSummary>,
    pub goodput_gbps: Option<f64>,
    pub trace_events: u64,
    /// The events themselves, only when the caller asked to keep them.
    pub trace: Vec<TraceEvent>,
    pub trace_dropped: u64,
    pub error: Option<String>,
}

/// Flows a cell is expected to run (the operation count when it errors out).
fn expected_flows(cell: &CellSpec) -> u64 {
    match cell.kind {
        CellKind::Rpc => 16 * cell.scenario.conns_per_client as u64 * cell.scenario.jobs_per_conn as u64,
        CellKind::Incast { requests, .. } => requests as u64,
    }
}

/// Run one cell through `Scenario::try_run_*` and time it.
pub fn run_cell(cell: &CellSpec, dist: &FlowSizeDist, keep_trace: bool) -> CellRun {
    let started = Instant::now();
    let mut run = CellRun {
        digest: None,
        wall_s: 0.0,
        ops_attempted: expected_flows(cell),
        ops_failed: expected_flows(cell),
        fct: None,
        goodput_gbps: None,
        trace_events: 0,
        trace: Vec::new(),
        trace_dropped: 0,
        error: None,
    };
    match cell.kind {
        CellKind::Rpc => match cell.scenario.try_run_rpc(dist) {
            Ok(RpcOutcome { mut fct, sim_time, events, drops, ecn_marks, timeouts, retransmits, violations, trace, trace_dropped, .. }) => {
                run.digest = Some(CellDigest::of_rpc(&mut fct, events, sim_time, drops, ecn_marks, timeouts, retransmits));
                run.ops_attempted = (fct.all.count() + fct.incomplete) as u64;
                // A strict violation voids the whole cell.
                run.ops_failed = if violations.is_empty() { fct.incomplete as u64 } else { run.ops_attempted };
                run.fct = Some(fct);
                run.trace_events = trace.len() as u64;
                if keep_trace {
                    run.trace = trace;
                }
                run.trace_dropped = trace_dropped;
            }
            Err(e) => run.error = Some(e),
        },
        CellKind::Incast { fanin, requests } => match cell.scenario.try_run_incast(fanin, requests, INCAST_OBJECT_BYTES) {
            Ok(IncastOutcome { goodput_bps, rounds, sim_time, events, timeouts, invariant_violations }) => {
                run.digest = Some(CellDigest::of_incast(events, sim_time, rounds, goodput_bps, timeouts));
                run.ops_failed = if invariant_violations == 0 { (requests - rounds.min(requests)) as u64 } else { run.ops_attempted };
                run.goodput_gbps = Some(goodput_bps / 1e9);
            }
            Err(e) => run.error = Some(e),
        },
    }
    run.wall_s = started.elapsed().as_secs_f64();
    run
}

/// The workload's simulated metrics, from its Clove-ECN cells in cell order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimMetrics {
    /// Mean FCT of the pooled flows, ms (RPC workloads).
    pub fct_avg_ms: Option<f64>,
    /// p99 FCT of the same pool, ms.
    pub fct_p99_ms: Option<f64>,
    /// Mean client goodput, Gbit/s (`incast_fanin`).
    pub goodput_gbps: Option<f64>,
}

pub fn pool_fct(pooled: Option<FctSummary>) -> SimMetrics {
    match pooled {
        Some(mut p) if p.all.count() > 0 => SimMetrics { fct_avg_ms: Some(p.avg() * 1e3), fct_p99_ms: Some(p.p99() * 1e3), goodput_gbps: None },
        _ => SimMetrics::default(),
    }
}

fn merge_into(pool: &mut Option<FctSummary>, fct: &FctSummary) {
    match pool.as_mut() {
        None => *pool = Some(fct.clone()),
        Some(p) => p.merge(fct),
    }
}

/// One timed repetition of a workload, whichever way it ran.
#[derive(Debug, Clone)]
pub struct Rep {
    pub wall_s: f64,
    pub events: u64,
    pub sim_digest: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub sim: SimMetrics,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub errors: Vec<String>,
}

/// Fold cell runs (in cell order) into a repetition; `wall_s` is the wall
/// time of the whole set, measured by the caller around the runs.
pub fn fold_rep(cells: &[CellSpec], runs: &[CellRun], wall_s: f64) -> Rep {
    let mut pooled = None;
    let mut goodputs = Vec::new();
    for (cell, run) in cells.iter().zip(runs) {
        if cell.pooled {
            if let Some(fct) = &run.fct {
                merge_into(&mut pooled, fct);
            }
            goodputs.extend(run.goodput_gbps);
        }
    }
    let mut sim = pool_fct(pooled);
    if !goodputs.is_empty() {
        sim.goodput_gbps = Some(goodputs.iter().sum::<f64>() / goodputs.len() as f64);
    }
    // A cell that errored has no digest; a sentinel keeps the fold defined
    // (and different from any clean run) while `ops_failed` reports it.
    const FAILED: CellDigest = CellDigest { events: u64::MAX, sim_ns: 0, flows: 0, avg_bits: 0, p99_bits: 0, drops: 0, marks: 0, timeouts: 0, retransmits: 0 };
    let digests: Vec<CellDigest> = runs.iter().map(|r| r.digest.unwrap_or(FAILED)).collect();
    Rep {
        wall_s,
        events: runs.iter().filter_map(|r| r.digest.map(|d| d.events)).sum(),
        sim_digest: sim_digest(&digests),
        ops_attempted: runs.iter().map(|r| r.ops_attempted).sum(),
        ops_failed: runs.iter().map(|r| r.ops_failed).sum(),
        sim,
        trace_events: runs.iter().map(|r| r.trace_events).sum(),
        trace_dropped: runs.iter().map(|r| r.trace_dropped).sum(),
        errors: runs.iter().zip(cells).filter_map(|(r, c)| r.error.as_ref().map(|e| format!("{}: {e}", c.label))).collect(),
    }
}

/// Run every cell of a serial workload once. Each cell's trace is freed as
/// soon as it is counted, so the ring of one cell is the peak, not eight.
pub fn run_rep(cells: &[CellSpec], dist: &FlowSizeDist) -> Rep {
    let started = Instant::now();
    let runs: Vec<CellRun> = cells.iter().map(|c| run_cell(c, dist, false)).collect();
    let wall_s = started.elapsed().as_secs_f64();
    fold_rep(cells, &runs, wall_s)
}

// ---------------------------------------------------------------- matrix_jobs

/// Base load points of the matrix; `fig9` is pinned to the last one.
const MATRIX_LOADS: [f64; 3] = [0.3, 0.5, 0.7];

/// The matrix's load points for a seed. The harness fixes its own cell
/// seeds (`1000 + s`), so the benchmark's seed moves the two lower load
/// points by up to +1.9 points instead — a different arrival schedule per
/// seed, none at the default. The top point stays 0.7 so `fig9` keeps
/// sharing `fig8b`'s cells and every seed runs the same number of cells.
pub fn matrix_loads(seed: u64) -> Vec<f64> {
    let k = seed.wrapping_sub(DEFAULT_SEED);
    let jitter = |prime: u64| (k.wrapping_mul(prime) % 20) as f64 / 1000.0;
    vec![MATRIX_LOADS[0] + jitter(7), MATRIX_LOADS[1] + jitter(13), MATRIX_LOADS[2]]
}

/// Threads the matrix may use: `min(nproc, 4)`.
pub fn matrix_jobs_width() -> usize {
    (crate::env::nproc() as usize).min(4)
}

pub fn matrix_config(sizes: &Sizes, jobs: usize, journal: Option<Arc<Journal>>) -> ExpConfig {
    ExpConfig { jobs_per_conn: sizes.matrix_jobs_per_conn, conns_per_client: 1, seeds: sizes.matrix_seeds, horizon_secs: 10, jobs, ..ExpConfig::quick() }
        .with_journal(journal)
}

/// One pass over the figure set, with everything the checks compare.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    pub rep: Rep,
    /// `FigureTable::to_csv` of each table plus the `fig9` CDF, in figure order.
    pub csvs: Vec<String>,
    /// Wall of each figure, in figure order; cached figures cost nothing.
    pub figure_walls: Vec<f64>,
    pub render_s: f64,
    pub journal_stores: u64,
    pub journal_hits: u64,
    pub cells: u64,
    pub quarantined: u64,
}

/// `fig4c + fig5a/5b/5c + fig8b + fig9` through a fresh `PointCache`,
/// journaled under `journal_dir` (`resume` keeps what is there), then every
/// table rendered to CSV.
pub fn run_matrix(seed: u64, sizes: &Sizes, jobs: usize, journal_dir: &Path, resume: bool) -> Result<MatrixRun, String> {
    let started = Instant::now();
    let journal = Arc::new(Journal::open(journal_dir, resume).map_err(|e| format!("journal {}: {e}", journal_dir.display()))?);
    let cfg = matrix_config(sizes, jobs, Some(Arc::clone(&journal)));
    let loads = matrix_loads(seed);
    let mut cache = PointCache::new();
    let mut figure_walls = Vec::new();
    let mut tables: Vec<FigureTable> = Vec::new();
    type Figure = fn(&[f64], &ExpConfig, &mut PointCache) -> FigureTable;
    let figures: [Figure; 5] = [fig4c_cached, fig5a_cached, fig5b_cached, fig5c_cached, fig8b_cached];
    for figure in figures {
        let t = Instant::now();
        tables.push(figure(&loads, &cfg, &mut cache));
        figure_walls.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let cdfs = fig9_cached(&cfg, &mut cache);
    figure_walls.push(t.elapsed().as_secs_f64());

    let t = Instant::now();
    let mut csvs: Vec<String> = tables.iter().map(FigureTable::to_csv).collect();
    let mut fig9 = String::from("scheme,fct_s,cdf\n");
    for (scheme, points) in &cdfs {
        for (x, y) in points {
            fig9.push_str(&format!("{scheme},{x},{y}\n"));
        }
    }
    csvs.push(fig9);
    let render_s = t.elapsed().as_secs_f64();
    let wall_s = started.elapsed().as_secs_f64();

    // Operations: one per simulated flow of every distinct point. A
    // quarantined point (NaN in its tables) fails all the flows it owed.
    let asym = TopologyKind::Asymmetric;
    let schemes = matrix_schemes();
    let flows_per_point = 16 * cfg.conns_per_client as u64 * cfg.jobs_per_conn as u64 * cfg.seeds as u64;
    let (mut attempted, mut failed, mut quarantined, mut points) = (0u64, 0u64, 0u64, 0u64);
    let mut pooled = None;
    for scheme in &schemes {
        for &load in &loads {
            points += 1;
            match cache.point(scheme, asym, load, &cfg) {
                Some(fct) => {
                    attempted += (fct.all.count() + fct.incomplete) as u64;
                    failed += fct.incomplete as u64;
                    if *scheme == Scheme::CloveEcn {
                        merge_into(&mut pooled, &fct);
                    }
                }
                None => {
                    attempted += flows_per_point;
                    failed += flows_per_point;
                    quarantined += cache.quarantine_lines(scheme, asym, load).len() as u64;
                }
            }
        }
    }
    let mut h = FxHasher::default();
    for csv in &csvs {
        h.write(csv.as_bytes());
        h.write_u8(0xff);
    }
    let rep = Rep {
        wall_s,
        events: cache.events,
        sim_digest: h.finish(),
        ops_attempted: attempted,
        ops_failed: failed,
        sim: pool_fct(pooled),
        trace_events: 0,
        trace_dropped: 0,
        errors: tables.iter().flat_map(|t| t.quarantined.iter().cloned()).collect(),
    };
    Ok(MatrixRun {
        rep,
        csvs,
        figure_walls,
        render_s,
        journal_stores: journal.stores(),
        journal_hits: journal.hits(),
        cells: points * cfg.seeds as u64,
        quarantined,
    })
}

/// Every scheme the figure set touches: the testbed set (figs 4c/5) and the
/// two the simulation set (figs 8b/9) adds.
fn matrix_schemes() -> [Scheme; 7] {
    [
        Scheme::Ecmp,
        Scheme::EdgeFlowlet,
        Scheme::CloveEcn,
        Scheme::Mptcp { subflows: 4 },
        Scheme::Presto { oracle_weights: presto_oracle_weights(TopologyKind::Asymmetric) },
        Scheme::CloveInt,
        Scheme::Conga,
    ]
}

/// The matrix's untimed warm-up: its ECMP and Clove-ECN points at the three
/// loads, through the same pool and orchestrator, journal off.
pub fn warm_matrix(seed: u64, sizes: &Sizes, jobs: usize) {
    let cfg = matrix_config(sizes, jobs, None);
    PointCache::new().prefetch(&[Scheme::Ecmp, Scheme::CloveEcn], TopologyKind::Asymmetric, &matrix_loads(seed), &cfg);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(events: u64) -> CellDigest {
        CellDigest { events, sim_ns: 5, flows: 3, avg_bits: 1.5f64.to_bits(), p99_bits: 2.5f64.to_bits(), drops: 0, marks: 1, timeouts: 0, retransmits: 2 }
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let (a, b) = (d(10), d(11));
        assert_eq!(sim_digest(&[a, b]), sim_digest(&[a, b]));
        assert_ne!(sim_digest(&[a, b]), sim_digest(&[b, a]), "cell order is part of the digest");
        assert_ne!(sim_digest(&[a, b]), sim_digest(&[a]));
        let mut c = b;
        c.retransmits += 1;
        assert_ne!(sim_digest(&[a, b]), sim_digest(&[a, c]), "every field is part of the digest");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "BENCHMARK.json caps a why at 200 characters");
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn cell_lists_match_their_definitions() {
        let web = cells(Workload::WebsearchAsym, 1000, &Sizes::FULL);
        assert_eq!(web.iter().map(|c| c.scheme_key()).collect::<Vec<_>>(), ["ecmp", "edge-flowlet", "clove-ecn", "clove-int", "conga", "presto", "mptcp"]);
        assert_eq!(web.iter().filter(|c| c.pooled).count(), 1);
        assert_eq!(web.iter().filter(|c| c.warmup).count(), 2);
        assert!(web
            .iter()
            .enumerate()
            .all(|(i, c)| c.scenario.seed == 1000 + i as u64 && c.scenario.load == 0.7 && c.scenario.topology == TopologyKind::Asymmetric));
        let incast = cells(Workload::IncastFanin, 7, &Sizes::FULL);
        assert_eq!(incast.len(), 6);
        assert_eq!(incast.iter().filter(|c| c.pooled).count(), 2);
        let rec = cells(Workload::RecoveryTraced, 7, &Sizes::FULL);
        assert_eq!(rec.len(), 8);
        assert!(rec.iter().all(|c| c.scenario.trace && c.scenario.strict && !c.scenario.faults.is_empty()));
        // p99 needs >= 1024 pooled flows at recording scale.
        for cells in [&web, &rec] {
            let flows: u64 = cells.iter().filter(|c| c.pooled).map(expected_flows).sum();
            assert!(flows >= 1024, "{flows}");
        }
    }

    #[test]
    fn matrix_loads_are_seeded_and_exact_at_default() {
        assert_eq!(matrix_loads(DEFAULT_SEED), vec![0.3, 0.5, 0.7]);
        assert_eq!(matrix_loads(7), matrix_loads(7));
        assert_ne!(matrix_loads(7), matrix_loads(8));
        for seed in 0..50 {
            let l = matrix_loads(seed);
            assert!((0.3..0.32).contains(&l[0]) && (0.5..0.52).contains(&l[1]) && l[2] == 0.7, "{l:?}");
        }
    }
}
