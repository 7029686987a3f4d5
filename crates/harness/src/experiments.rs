//! One function per paper figure, over one seeded-matrix driver.
//!
//! Every function returns a [`FigureTable`] (a [`FaultTable`] for the fault
//! sweeps) whose series reproduce the corresponding plot. [`ExpConfig`]
//! sizes the runs: the paper uses 50 K jobs per connection on the testbed
//! and 20 K in NS2, [`ExpConfig::full`] uses 80 — enough for the
//! qualitative ordering, as EXPERIMENTS.md documents — and `--quick` runs
//! and smoke tests use [`ExpConfig::quick`].
//!
//! ## One seeded matrix, many reduces
//!
//! The evaluation is a grid of independent cells: a *point* (scheme × load,
//! fan-in or fault case) run once per seed. `run_seeded` is the one place
//! that builds the `(point, seed)` cells and sends them through
//! [`orchestrator::run_journaled`]; it hands each point back as all of its
//! seeds' results in seed order, or as quarantine footer lines
//! (`fold_point`).
//! [`PointCache::prefetch`] (every FCT-vs-load figure and the headline),
//! [`fig6`], [`fig7`] and `fault_sweep` (behind [`resilience`],
//! [`recovery`] and [`feedback_degradation`]) add only their own reduce;
//! `pool_fct` is the one seed-pooling loop.
//!
//! ## Parallelism and determinism
//!
//! Each cell is an independent simulation: the determinism contract in
//! `clove-sim` is *per run*, so cells can execute on any worker in any
//! order. [`orchestrator::run_matrix`] hands results back **in cell order**
//! regardless of completion order, and every fold consumes them in that
//! order (seed merges, goodput sums, fault-stat absorbs). Output is
//! therefore byte-identical at any [`ExpConfig::jobs`] setting — the
//! regression test `determinism_parallel.rs` pins this.
//!
//! ## Fault tolerance and resume
//!
//! The [`orchestrator`] adds its fault model on top of the fan-out: a
//! panicking cell is quarantined on its first (and only) execution, and —
//! when [`ExpConfig::journal`] is set — completed cells are checkpointed so
//! an interrupted run resumes without re-executing them.
//! A point with any quarantined seed has no trustworthy value (a partial
//! seed pool would silently shift the statistics): it surfaces as `NaN`
//! plus one footer line per bad seed, never silently dropped. Journal
//! values round-trip losslessly (see [`crate::journal`]), so a resumed
//! run's CSVs are byte-identical to an uninterrupted one at any `--jobs`
//! width; an entry that no longer decodes is a miss and re-executes.

use crate::config::{ScenarioSpec, QUARANTINE_KEY};
use crate::journal::{self, JournalValue};
use crate::json::Json;
use crate::orchestrator::{self, CellOutcome};
use crate::report::{FaultColumn, FaultRow, FaultTable, FigureTable, DAMAGE_COLUMNS, FEEDBACK_COLUMNS};
use crate::scenario::{RpcOutcome, Scenario, TopologyKind};
use crate::scheme::Scheme;
use clove_net::fault::{CableSelector, ControlFaultPlan, ControlFaultStats, FaultPlan, FaultStats, NodeSelector};
use clove_sim::{Duration, Time};
use clove_workload::{web_search, FctSummary, FlowSizeDist};
use std::sync::Arc;

/// Shared experiment sizing.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Jobs per client connection.
    pub jobs_per_conn: u32,
    /// Connections per client.
    pub conns_per_client: u32,
    /// Seeds to average over (paper: 3).
    pub seeds: u32,
    /// Simulated-time ceiling per run.
    pub horizon_secs: u64,
    /// Worker threads for the experiment matrix (1 = serial). Output is
    /// identical at any setting; see the module docs.
    pub jobs: usize,
    /// Run every cell under the [`crate::invariants::InvariantMonitor`]
    /// and panic on any violation (`figures --strict`, integration tests).
    pub strict: bool,
    /// Completed-cell journal for checkpoint/resume; `None` disables
    /// journaling (cells always execute).
    pub journal: Option<Arc<crate::journal::Journal>>,
}

impl ExpConfig {
    /// A configuration suitable for generating the committed figures.
    pub fn full() -> ExpConfig {
        ExpConfig { jobs_per_conn: 80, conns_per_client: 2, seeds: 2, horizon_secs: 60, jobs: 1, strict: false, journal: None }
    }

    /// A tiny configuration for `--quick` runs and CI smoke tests.
    pub fn quick() -> ExpConfig {
        ExpConfig { jobs_per_conn: 8, conns_per_client: 1, seeds: 1, horizon_secs: 10, jobs: 1, strict: false, journal: None }
    }

    /// The same configuration with a different worker count.
    pub fn with_jobs(mut self, jobs: usize) -> ExpConfig {
        self.jobs = jobs.max(1);
        self
    }

    /// The same configuration with strict invariant checking toggled.
    pub fn with_strict(mut self, strict: bool) -> ExpConfig {
        self.strict = strict;
        self
    }

    /// The same configuration with a checkpoint journal installed.
    pub fn with_journal(mut self, journal: Option<Arc<crate::journal::Journal>>) -> ExpConfig {
        self.journal = journal;
        self
    }

    /// The journal-key fragment for the shared sizing knobs: everything
    /// that changes a cell's *result* except the per-cell parameters.
    /// `jobs` is deliberately excluded — results are jobs-independent, so
    /// a journal written at `--jobs 1` resumes correctly at `--jobs 8` —
    /// and so is `seeds`, because the seed itself is a cell parameter.
    pub fn key_fragment(&self) -> String {
        format!("jpc{}|cpc{}|h{}|strict{}", self.jobs_per_conn, self.conns_per_client, self.horizon_secs, self.strict)
    }
}

/// The oracle Presto weights for the asymmetric topology (paper §5.2:
/// 0.33/0.33/0.17/0.17 — full weight on the two healthy S1 paths, half on
/// the S2 paths that share the surviving S2–L2 cable).
pub fn presto_oracle_weights(topology: TopologyKind) -> Option<Vec<f64>> {
    match topology {
        TopologyKind::Asymmetric => Some(vec![0.33, 0.33, 0.17, 0.17]),
        _ => None,
    }
}

/// One figure cell as a run description: what every driver runs (through
/// `to_scenario`), and what a quarantine snapshot embeds so `clove-run` can replay the failed cell
/// under `--trace`.
fn cell_spec(scheme: &Scheme, topology: TopologyKind, load: f64, seed: u64, cfg: &ExpConfig) -> ScenarioSpec {
    ScenarioSpec {
        jobs_per_conn: cfg.jobs_per_conn,
        conns_per_client: cfg.conns_per_client,
        seed,
        horizon_secs: cfg.horizon_secs,
        strict: cfg.strict,
        ..ScenarioSpec::new(scheme.clone(), topology, load)
    }
}

/// Run one scenario, failing loudly on strict-mode invariant violations
/// (the outcome carries them only when the scenario ran strict). Every
/// figure/ablation driver funnels its RPC runs through here so `--strict`
/// covers the whole experiment surface. Under `run_seeded` the panic is
/// caught and the cell quarantined with this message.
fn run_rpc_checked(s: &Scenario, dist: &FlowSizeDist) -> RpcOutcome {
    let out = s.run_rpc(dist);
    assert!(out.violations.is_empty(), "invariant violations in {} (seed {}): {:#?}", s.scheme.label(), s.seed, out.violations);
    out
}

/// A stable tag for journal keys and quarantine labels.
fn topology_tag(topology: TopologyKind) -> String {
    match topology {
        TopologyKind::Symmetric => "sym".into(),
        TopologyKind::Asymmetric => "asym".into(),
        TopologyKind::FatTree { k } => format!("fattree{k}"),
    }
}

/// Where quarantined-cell telemetry snapshots land.
const TELEMETRY_SNAPSHOT_DIR: &str = "results/telemetry";

/// A filesystem-safe slug: alphanumerics, `.`, `_` and `-` pass through,
/// every other run of characters collapses to one `-`.
fn path_slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
            out.push(c);
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// Persist a telemetry snapshot for a quarantined cell under
/// [`TELEMETRY_SNAPSHOT_DIR`] and return a footer suffix naming it (empty
/// when the write fails — the footer then carries the reason alone).
///
/// Snapshots are written only when a cell is quarantined, so clean runs
/// create no files and figure output stays byte-identical. When the cell
/// is a plain RPC point its spec is embedded at the snapshot's top level;
/// `ScenarioSpec` parsing accepts the extra `quarantine` object, so the
/// snapshot file itself is a valid `clove-run` input and the recorded
/// repro command replays exactly the failed seed with `--trace` on.
fn quarantine_snapshot(scope: &str, cell: &str, seed: u64, reason: &str, spec: Option<Json>) -> String {
    let name = format!("{}-seed{seed}", path_slug(&format!("{scope}-{cell}")));
    let path = format!("{TELEMETRY_SNAPSHOT_DIR}/{name}.json");
    let repro = match &spec {
        Some(_) => format!("cargo run --release -p clove-harness --bin clove-run -- {path} --trace {TELEMETRY_SNAPSHOT_DIR}/{name}.trace.jsonl"),
        None => format!("cargo run --release -p clove-bench --bin figures -- {scope} --strict --jobs 1"),
    };
    let meta = Json::Obj(vec![
        ("scope".to_string(), Json::Str(scope.to_string())),
        ("cell".to_string(), Json::Str(cell.to_string())),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("reason".to_string(), Json::Str(reason.to_string())),
        ("repro".to_string(), Json::Str(repro)),
    ]);
    let mut fields = match spec {
        Some(Json::Obj(fields)) => fields,
        _ => Vec::new(),
    };
    fields.push((QUARANTINE_KEY.to_string(), meta));
    match journal::write_atomic(std::path::Path::new(&path), &(Json::Obj(fields).render_pretty() + "\n")) {
        Ok(()) => format!(" (snapshot: {path})"),
        #[expect(clippy::print_stderr, reason = "best-effort stderr warning on an already-failing path")]
        Err(e) => {
            eprintln!("telemetry: cannot write quarantine snapshot {path}: {e}");
            String::new()
        }
    }
}

/// One point of a seeded sweep after the fold: every seed's result in seed
/// order, or — if any seed was quarantined — one footer line per bad seed.
pub(crate) type PointResult<R> = Result<Vec<R>, Vec<String>>;

/// The shared point fold: one point's per-seed outcomes, in seed order
/// starting at `seed_base`, become a [`PointResult`]. Pure: `snapshot`
/// is handed each bad `(seed, reason)` and returns the footer suffix
/// naming whatever it persisted.
pub(crate) fn fold_point<R>(outcomes: Vec<CellOutcome<R>>, seed_base: u64, label: &str, mut snapshot: impl FnMut(u64, &str) -> String) -> PointResult<R> {
    let mut ok = Vec::with_capacity(outcomes.len());
    let mut bad = Vec::new();
    for (off, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            CellOutcome::Ok(r) => ok.push(r),
            other => {
                let (seed, reason) = (seed_base.wrapping_add(off as u64), other.describe());
                bad.push(format!("{label} seed {seed}: {reason}{}", snapshot(seed, &reason)));
            }
        }
    }
    if bad.is_empty() {
        Ok(ok)
    } else {
        Err(bad)
    }
}

/// What a seeded sweep says about its points, besides how to run them.
struct Sweep<'a, P> {
    /// Journal scope, snapshot prefix and first segment of every cell key.
    scope: &'a str,
    /// Seed of each point's first run; run `s` uses `seed_base + s`.
    seed_base: u64,
    /// Relative wall-time estimate of one run of the point: the
    /// orchestrator starts the most expensive cells first, so a long cell
    /// never becomes the matrix tail at `jobs > 1`.
    cost: &'a dyn Fn(&P) -> f64,
    /// The point's journal-key segment: cell keys are
    /// `scope|tag|seed<seed>|<ExpConfig::key_fragment>`.
    tag: &'a (dyn Fn(&P) -> String + Sync),
    /// The point's name in quarantine footers and snapshot file names.
    label: &'a dyn Fn(&P) -> String,
    /// The `clove-run` spec replaying one seed of the point ([`cell_spec`]),
    /// embedded in its quarantine snapshot; `None` for sweeps whose cells a
    /// spec cannot express (their snapshots fall back to a `figures` repro
    /// command).
    replay: &'a dyn Fn(&P, u64) -> Option<Json>,
}

/// The seeded-matrix driver every figure and sweep goes through: fan
/// `points × cfg.seeds` out as flat `(point, seed)` cells — so parallelism
/// spans the whole matrix, not just the seeds of one point — and fold them
/// back into one [`PointResult`] per point, in point order. Quarantined
/// seeds have their telemetry snapshot written on the way.
fn run_seeded<P, R>(sweep: &Sweep<'_, P>, points: &[P], cfg: &ExpConfig, run: impl Fn(&P, u64) -> R + Send + Sync) -> Vec<PointResult<R>>
where
    P: Sync,
    R: Send + JournalValue,
{
    let (scope, tag) = (sweep.scope, sweep.tag);
    let cells: Vec<(usize, u64)> = (0..points.len()).flat_map(|pi| (0..cfg.seeds).map(move |s| (pi, sweep.seed_base + s as u64))).collect();
    let costs: Vec<f64> = cells.iter().map(|&(pi, _)| (sweep.cost)(&points[pi])).collect();
    let mut outcomes = orchestrator::run_journaled(
        &cells,
        cfg.jobs,
        Some(&costs),
        cfg.journal.as_deref().map(|journal| (journal, scope)),
        |&(pi, seed)| format!("{scope}|{}|seed{seed}|{}", tag(&points[pi]), cfg.key_fragment()),
        |&(pi, seed)| run(&points[pi], seed),
    )
    .into_iter();
    points
        .iter()
        .map(|point| {
            let label = (sweep.label)(point);
            let seeds = outcomes.by_ref().take(cfg.seeds as usize).collect();
            fold_point(seeds, sweep.seed_base, &label, |seed, reason| quarantine_snapshot(scope, &label, seed, reason, (sweep.replay)(point, seed)))
        })
        .collect()
}

/// Pool per-seed FCT summaries, in the order given. Seed order is part of
/// the byte-identity contract: the pooled Welford state depends on it.
pub(crate) fn pool_fct(seeds: impl IntoIterator<Item = FctSummary>) -> FctSummary {
    let mut seeds = seeds.into_iter();
    let mut pooled = seeds.next().expect("at least one seed");
    for fct in seeds {
        pooled.merge(&fct);
    }
    pooled
}

/// A load as the integer per-mille used in journal keys and cache keys.
fn per_mille(load: f64) -> u64 {
    (load * 1000.0).round() as u64
}

/// First seed of every RPC point (figures 4, 5, 8, 9 and the headline).
const RPC_SEED_BASE: u64 = 1000;

type PointKey = (String, String, u64);

/// Memoizes RPC point results so figures sharing the same underlying
/// runs (4c with 5a/5b/5c, 8b with 9) pay for them once; a figure run on
/// its own takes `&mut PointCache::new()`.
///
/// An `Err` entry is a *quarantined* point: at least one of its seed runs
/// panicked, so the point has no trustworthy value, only the
/// per-seed reasons that surface in figure footers.
#[derive(Default)]
pub struct PointCache {
    entries: rustc_hash::FxHashMap<PointKey, Result<FctSummary, Vec<String>>>,
    /// Total simulation events processed by the runs pooled into this
    /// cache (cache hits and journal hits add nothing — the run already
    /// happened — and neither do the surviving seeds of a quarantined
    /// point).
    pub events: u64,
}

impl PointCache {
    /// An empty cache.
    pub fn new() -> PointCache {
        PointCache::default()
    }

    /// Keyed like the journal: two topologies share an entry only if they
    /// share a [`topology_tag`].
    fn key(scheme: &Scheme, topology: TopologyKind, load: f64) -> PointKey {
        (scheme.label().to_string(), topology_tag(topology), per_mille(load))
    }

    /// Fetch or compute a point; `None` means the point is quarantined
    /// (see [`PointCache::quarantine_lines`] for why).
    pub fn point(&mut self, scheme: &Scheme, topology: TopologyKind, load: f64, cfg: &ExpConfig) -> Option<FctSummary> {
        self.prefetch(std::slice::from_ref(scheme), topology, &[load], cfg);
        self.entries[&Self::key(scheme, topology, load)].clone().ok()
    }

    /// The per-seed quarantine reasons for a point (empty when the point
    /// completed cleanly).
    pub fn quarantine_lines(&self, scheme: &Scheme, topology: TopologyKind, load: f64) -> &[String] {
        match self.entries.get(&Self::key(scheme, topology, load)) {
            Some(Err(lines)) => lines,
            _ => &[],
        }
    }

    /// Compute every missing `(scheme, load)` point of a figure in one
    /// `run_seeded` fan-out.
    ///
    /// Points are pooled scheme-major, then load, then seed — exactly the
    /// order the serial [`point`] path merges in, so a prefetched cache is
    /// indistinguishable from a serially filled one.
    ///
    /// [`point`]: PointCache::point
    pub fn prefetch(&mut self, schemes: &[Scheme], topology: TopologyKind, loads: &[f64], cfg: &ExpConfig) {
        let mut missing: Vec<(&Scheme, f64)> = Vec::new();
        for scheme in schemes {
            for &load in loads {
                let key = Self::key(scheme, topology, load);
                if !self.entries.contains_key(&key) && !missing.iter().any(|&(s, l)| Self::key(s, topology, l) == key) {
                    missing.push((scheme, load));
                }
            }
        }
        if missing.is_empty() {
            return;
        }
        let dist = web_search();
        let sweep: Sweep<'_, (&Scheme, f64)> = Sweep {
            scope: "rpc",
            seed_base: RPC_SEED_BASE,
            // Heavier schemes at higher load run longest (fig8b/fig9's
            // CONGA @ 90% cell dominates the matrix) — start them first.
            cost: &|&(scheme, load)| scheme.cost_weight() * (1.0 + load),
            tag: &|&(scheme, load)| format!("{}|{}|load{}", scheme.label(), topology_tag(topology), per_mille(load)),
            label: &|&(scheme, load)| format!("{} @ {:.0}% load ({})", scheme.label(), load * 100.0, topology_tag(topology)),
            replay: &|&(scheme, load), seed| Some(cell_spec(scheme, topology, load, seed, cfg).to_json()),
        };
        let results = run_seeded(&sweep, &missing, cfg, |&(scheme, load), seed| {
            let s = cell_spec(scheme, topology, load, seed, cfg).to_scenario();
            let out = run_rpc_checked(&s, &dist);
            (out.fct, out.events)
        });
        for (&(scheme, load), result) in missing.iter().zip(results) {
            let pooled = result.map(|seeds| {
                self.events += seeds.iter().map(|(_, events)| events).sum::<u64>();
                pool_fct(seeds.into_iter().map(|(fct, _)| fct))
            });
            self.entries.insert(Self::key(scheme, topology, load), pooled);
        }
    }
}

/// The paper's testbed scheme set (Figures 4–6).
pub fn testbed_schemes(topology: TopologyKind) -> Vec<Scheme> {
    vec![Scheme::Ecmp, Scheme::EdgeFlowlet, Scheme::CloveEcn, Scheme::Mptcp { subflows: 4 }, Scheme::Presto { oracle_weights: presto_oracle_weights(topology) }]
}

/// The paper's simulation scheme set (Figures 8–9).
pub fn sim_schemes() -> Vec<Scheme> {
    vec![Scheme::Ecmp, Scheme::EdgeFlowlet, Scheme::CloveEcn, Scheme::CloveInt, Scheme::Conga]
}

/// Figure 4b: symmetric topology, average FCT vs load.
pub fn fig4b_cached(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure("Fig 4b — testbed symmetric, avg FCT (s)", TopologyKind::Symmetric, &testbed_schemes(TopologyKind::Symmetric), loads, cfg, cache, |s| s.avg())
}

/// Figure 4c: asymmetric topology, average FCT vs load.
pub fn fig4c_cached(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure("Fig 4c — testbed asymmetric, avg FCT (s)", TopologyKind::Asymmetric, &testbed_schemes(TopologyKind::Asymmetric), loads, cfg, cache, |s| {
        s.avg()
    })
}

/// Figure 5a: asymmetric, average FCT of mice (<100 KB) vs load.
pub fn fig5a_cached(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure(
        "Fig 5a — asymmetric, mice (<100KB) avg FCT (s)",
        TopologyKind::Asymmetric,
        &testbed_schemes(TopologyKind::Asymmetric),
        loads,
        cfg,
        cache,
        |s| s.mice.mean(),
    )
}

/// Figure 5b: asymmetric, average FCT of elephants (>10 MB) vs load.
pub fn fig5b_cached(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure(
        "Fig 5b — asymmetric, elephants (>10MB) avg FCT (s)",
        TopologyKind::Asymmetric,
        &testbed_schemes(TopologyKind::Asymmetric),
        loads,
        cfg,
        cache,
        |s| s.elephants.mean(),
    )
}

/// Figure 5c: asymmetric, 99th-percentile FCT vs load.
pub fn fig5c_cached(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure("Fig 5c — asymmetric, p99 FCT (s)", TopologyKind::Asymmetric, &testbed_schemes(TopologyKind::Asymmetric), loads, cfg, cache, |s| s.p99())
}

/// Assemble a series-major figure from its `series × table.xs` points:
/// each point goes through `reduce`; a quarantined point becomes `NaN`
/// plus its footer lines.
fn series_table<T>(
    mut table: FigureTable,
    series: &[&str],
    points: impl IntoIterator<Item = Result<T, Vec<String>>>,
    reduce: impl Fn(T) -> f64,
) -> FigureTable {
    let mut points = points.into_iter();
    for &name in series {
        let mut ys = Vec::with_capacity(table.xs.len());
        for _ in 0..table.xs.len() {
            match points.next().expect("one point per (series, x)") {
                Ok(point) => ys.push(reduce(point)),
                Err(bad) => {
                    ys.push(f64::NAN);
                    table.quarantined.extend(bad);
                }
            }
        }
        table.push_series(name, ys);
    }
    table
}

/// Figure 6: Clove-ECN parameter sensitivity on the asymmetric topology.
/// Series: (flowlet-gap multiplier × RTT, ECN threshold in packets).
pub fn fig6(loads: &[f64], cfg: &ExpConfig) -> FigureTable {
    let variants: [(&str, f64, u32); 4] =
        [("Clove-best (1*RTT, 20pkts)", 1.0, 20), ("Clove (0.2*RTT, 20pkts)", 0.2, 20), ("Clove (5*RTT, 20pkts)", 5.0, 20), ("Clove (1*RTT, 40pkts)", 1.0, 40)];
    let dist = web_search();
    let points: Vec<((&str, f64, u32), f64)> = variants.iter().flat_map(|&v| loads.iter().map(move |&load| (v, load))).collect();
    let sweep = Sweep {
        scope: "fig6",
        seed_base: 2000,
        // Same scheme everywhere: cost scales with offered load alone.
        cost: &|&(_, load)| 1.0 + load,
        tag: &|&((name, _, _), load)| format!("{name}|load{}", per_mille(load)),
        label: &|&((name, _, _), load)| format!("{name} @ {:.0}% load", load * 100.0),
        replay: &|_, _| None,
    };
    let results = run_seeded(&sweep, &points, cfg, |&((_, gap_mult, ecn_pkts), load), seed| {
        let mut s = cell_spec(&Scheme::CloveEcn, TopologyKind::Asymmetric, load, seed, cfg).to_scenario();
        // Multipliers are relative to the default gap (≈ the loaded RTT,
        // the paper's "1×RTT best" operating point).
        s.profile.flowlet_gap = Duration::from_secs_f64(s.profile.flowlet_gap.as_secs_f64() * gap_mult);
        s.profile.ecn_threshold_pkts = ecn_pkts;
        run_rpc_checked(&s, &dist).fct
    });
    let table = FigureTable::new("Fig 6 — Clove-ECN parameter sensitivity, asymmetric, avg FCT (s)", "load %", loads.iter().map(|l| l * 100.0).collect());
    series_table(table, &variants.map(|(name, _, _)| name), results, |fcts| pool_fct(fcts).avg())
}

/// Figure 7: incast — client goodput (Gbps) vs request fan-in.
pub fn fig7(fanouts: &[u32], requests: u32, cfg: &ExpConfig) -> FigureTable {
    let schemes = [Scheme::CloveEcn, Scheme::EdgeFlowlet, Scheme::Mptcp { subflows: 4 }];
    let points: Vec<(&Scheme, u32)> = schemes.iter().flat_map(|scheme| fanouts.iter().map(move |&fanout| (scheme, fanout))).collect();
    let sweep: Sweep<'_, (&Scheme, u32)> = Sweep {
        scope: "fig7",
        seed_base: 3000,
        // Incast cost grows with fan-in (more servers, more packets).
        cost: &|&(scheme, fanout)| scheme.cost_weight() * fanout as f64,
        tag: &|&(scheme, fanout)| format!("{}|fanout{fanout}|req{requests}", scheme.label()),
        label: &|&(scheme, fanout)| format!("{} @ fan-in {fanout}", scheme.label()),
        replay: &|_, _| None,
    };
    let results = run_seeded(&sweep, &points, cfg, |&(scheme, fanout), seed| {
        let s = cell_spec(scheme, TopologyKind::Symmetric, 0.5, seed, cfg).to_scenario();
        let out = s.run_incast(fanout, requests, 10_000_000);
        assert!(out.invariant_violations == 0, "{} invariant violations in incast {} (seed {})", out.invariant_violations, scheme.label(), seed);
        out.goodput_bps / 1e9
    });
    let table = FigureTable::new("Fig 7 — incast: client goodput (Gbps) vs request fan-in", "fan-in", fanouts.iter().map(|&f| f as f64).collect());
    series_table(table, &schemes.each_ref().map(Scheme::label), results, |gbps| gbps.iter().fold(0.0, |sum, g| sum + g) / cfg.seeds as f64)
}

/// Figure 8a: simulation scheme set, symmetric topology, avg FCT vs load.
pub fn fig8a_cached(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure("Fig 8a — sim symmetric, avg FCT (s)", TopologyKind::Symmetric, &sim_schemes(), loads, cfg, cache, |s| s.avg())
}

/// Figure 8b: simulation scheme set, asymmetric topology, avg FCT vs load.
pub fn fig8b_cached(loads: &[f64], cfg: &ExpConfig, cache: &mut PointCache) -> FigureTable {
    rpc_figure("Fig 8b — sim asymmetric, avg FCT (s)", TopologyKind::Asymmetric, &sim_schemes(), loads, cfg, cache, |s| s.avg())
}

/// Figure 9: CDFs of mice FCTs at 70% load on the asymmetric topology for
/// ECMP, Clove-ECN, CONGA. Returns `(scheme, cdf points)` triples; a
/// quarantined scheme yields an empty point list and a `[quarantined]`
/// label suffix rather than aborting the figure.
pub fn fig9_cached(cfg: &ExpConfig, cache: &mut PointCache) -> Vec<(String, Vec<(f64, f64)>)> {
    let schemes = [Scheme::Ecmp, Scheme::CloveEcn, Scheme::Conga];
    cache.prefetch(&schemes, TopologyKind::Asymmetric, &[0.7], cfg);
    schemes
        .into_iter()
        .map(|scheme| {
            let label = scheme.label().to_string();
            match cache.point(&scheme, TopologyKind::Asymmetric, 0.7, cfg) {
                Some(mut s) => (label, s.mice_cdf(40)),
                None => (format!("{label} [quarantined]"), Vec::new()),
            }
        })
        .collect()
}

/// The schemes the resilience sweep covers: the union of the testbed and
/// simulation sets (every scheme the figures exercise, each once).
pub fn resilience_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Ecmp,
        Scheme::EdgeFlowlet,
        Scheme::CloveEcn,
        Scheme::Mptcp { subflows: 4 },
        Scheme::Presto { oracle_weights: None },
        Scheme::CloveInt,
        Scheme::Conga,
    ]
}

/// When the resilience faults land: late enough for a pre-fault FCT
/// baseline, early enough that plenty of traffic runs under the fault.
pub const RESILIENCE_FAULT_AT: Time = Time(20_000_000); // 20 ms

fn fault_stats_to_json(s: &FaultStats) -> Json {
    Json::Obj(vec![
        ("drops_down".into(), s.drops_down.to_journal()),
        ("drops_loss".into(), s.drops_loss.to_journal()),
        ("drops_overflow".into(), s.drops_overflow.to_journal()),
        ("drops_no_route".into(), s.drops_no_route.to_journal()),
        ("down_time_ns".into(), s.down_time.as_nanos().to_journal()),
        ("degraded_time_ns".into(), s.degraded_time.as_nanos().to_journal()),
        ("faults_applied".into(), s.faults_applied.to_journal()),
    ])
}

fn fault_stats_from_json(v: &Json) -> Result<FaultStats, String> {
    Ok(FaultStats {
        drops_down: journal::deu64(journal::field(v, "drops_down")?)?,
        drops_loss: journal::deu64(journal::field(v, "drops_loss")?)?,
        drops_overflow: journal::deu64(journal::field(v, "drops_overflow")?)?,
        drops_no_route: journal::deu64(journal::field(v, "drops_no_route")?)?,
        down_time: Duration::from_nanos(journal::deu64(journal::field(v, "down_time_ns")?)?),
        degraded_time: Duration::from_nanos(journal::deu64(journal::field(v, "degraded_time_ns")?)?),
        faults_applied: journal::deu64(journal::field(v, "faults_applied")?)?,
    })
}

fn control_stats_to_json(s: &ControlFaultStats) -> Json {
    Json::Obj(vec![
        ("probes_dropped".into(), s.probes_dropped.to_journal()),
        ("replies_dropped".into(), s.replies_dropped.to_journal()),
        ("feedback_dropped".into(), s.feedback_dropped.to_journal()),
        ("feedback_delayed".into(), s.feedback_delayed.to_journal()),
        ("feedback_corrupted".into(), s.feedback_corrupted.to_journal()),
        ("control_faults_applied".into(), s.control_faults_applied.to_journal()),
    ])
}

fn control_stats_from_json(v: &Json) -> Result<ControlFaultStats, String> {
    Ok(ControlFaultStats {
        probes_dropped: journal::deu64(journal::field(v, "probes_dropped")?)?,
        replies_dropped: journal::deu64(journal::field(v, "replies_dropped")?)?,
        feedback_dropped: journal::deu64(journal::field(v, "feedback_dropped")?)?,
        feedback_delayed: journal::deu64(journal::field(v, "feedback_delayed")?)?,
        feedback_corrupted: journal::deu64(journal::field(v, "feedback_corrupted")?)?,
        control_faults_applied: journal::deu64(journal::field(v, "control_faults_applied")?)?,
    })
}

/// Per-run payload of one fault-sweep cell, pre-fold.
struct FaultRun {
    fct: FctSummary,
    evictions: u64,
    fault_stats: FaultStats,
    control: ControlFaultStats,
    recovery: Option<Duration>,
}

impl JournalValue for FaultRun {
    fn to_journal(&self) -> Json {
        Json::Obj(vec![
            ("fct".into(), self.fct.to_journal()),
            ("evictions".into(), self.evictions.to_journal()),
            ("fault_stats".into(), fault_stats_to_json(&self.fault_stats)),
            ("control".into(), control_stats_to_json(&self.control)),
            ("recovery".into(), journal::opt_duration_to_json(self.recovery)),
        ])
    }
    fn from_journal(v: &Json) -> Result<FaultRun, String> {
        Ok(FaultRun {
            fct: FctSummary::from_journal(journal::field(v, "fct")?)?,
            evictions: journal::deu64(journal::field(v, "evictions")?)?,
            fault_stats: fault_stats_from_json(journal::field(v, "fault_stats")?)?,
            control: control_stats_from_json(journal::field(v, "control")?)?,
            recovery: journal::opt_duration_from_json(journal::field(v, "recovery")?)?,
        })
    }
}

/// One case of a fault sweep. The first case of every sweep is the clean
/// baseline the others are normalized to.
struct SweepCase {
    /// The row's `case` cell and the case's name in quarantine footers.
    label: String,
    /// The case's journal-key segment.
    tag: String,
    /// Inject the case into an otherwise clean scenario.
    apply: Box<dyn Fn(&mut Scenario) + Send + Sync>,
}

/// What tells the three fault sweeps apart.
struct FaultSweep {
    /// Journal scope (`figures -- <scope>`).
    scope: &'static str,
    seed_base: u64,
    /// Caption up to the fault time, e.g. "Resilience — S2-L2 faults at".
    title: &'static str,
    columns: &'static [FaultColumn],
    /// A `(scheme, case)` cell's name in quarantine footers.
    cell_label: fn(&str, &str) -> String,
    /// Clean baseline first.
    cases: Vec<SweepCase>,
}

/// Load every fault sweep runs at, on the symmetric testbed topology.
const FAULT_SWEEP_LOAD: f64 = 0.6;

/// The one fault sweep: `sweep.cases × schemes` at 60% load on the
/// symmetric testbed topology, every case injected at
/// [`RESILIENCE_FAULT_AT`]. Probing is tightened to 5 ms rounds so
/// detection, re-discovery and staleness horizons are all crossed on the
/// timescale of the faults.
fn fault_sweep(sweep: FaultSweep, schemes: &[Scheme], cfg: &ExpConfig) -> FaultTable {
    let dist = web_search();
    // Scheme-major, cases in list order so the clean baseline folds first.
    let points: Vec<(&Scheme, &SweepCase)> = schemes.iter().flat_map(|scheme| sweep.cases.iter().map(move |case| (scheme, case))).collect();
    let seeded: Sweep<'_, (&Scheme, &SweepCase)> = Sweep {
        scope: sweep.scope,
        seed_base: sweep.seed_base,
        // All cells share one load; scheme weight dominates wall time.
        cost: &|&(scheme, _)| scheme.cost_weight(),
        tag: &|&(scheme, case)| format!("{}|{}", scheme.label(), case.tag),
        label: &|&(scheme, case)| (sweep.cell_label)(scheme.label(), &case.label),
        replay: &|_, _| None,
    };
    let results = run_seeded(&seeded, &points, cfg, |&(scheme, case), seed| {
        let mut s = cell_spec(scheme, TopologyKind::Symmetric, FAULT_SWEEP_LOAD, seed, cfg).to_scenario();
        s.profile.probe_interval = Duration::from_millis(5);
        (case.apply)(&mut s);
        let out = run_rpc_checked(&s, &dist);
        FaultRun { fct: out.fct, evictions: out.path_evictions, fault_stats: out.fault_stats, control: out.control_stats, recovery: out.recovery }
    });
    let title = format!("{} {} ms, symmetric, {:.0}% load", sweep.title, RESILIENCE_FAULT_AT.0 / 1_000_000, FAULT_SWEEP_LOAD * 100.0);
    let mut table = FaultTable::new(title, sweep.columns);
    let cases: Vec<&str> = sweep.cases.iter().map(|c| c.label.as_str()).collect();
    (table.rows, table.quarantined) = fold_fault_rows(schemes, &cases, results);
    table
}

/// `v` relative to the scheme's clean `base`; `NaN` if either is missing.
fn ratio_to_clean(v: f64, base: f64) -> f64 {
    if v.is_nan() || base.is_nan() {
        f64::NAN
    } else if base > 0.0 {
        v / base
    } else {
        1.0
    }
}

/// Fold a fault sweep's `schemes × cases` points (scheme-major, each
/// scheme's clean case first) into rows plus quarantine footer lines.
///
/// A quarantined `(scheme, case)` point renders as `NaN` FCTs with zeroed
/// damage counters; when the *clean* baseline of a scheme is quarantined,
/// the ratio columns of its other cases are `NaN` as well (there is
/// nothing sound to normalize against).
fn fold_fault_rows(schemes: &[Scheme], cases: &[&str], results: Vec<PointResult<FaultRun>>) -> (Vec<FaultRow>, Vec<String>) {
    let (mut rows, mut quarantined) = (Vec::new(), Vec::new());
    let mut results = results.into_iter();
    for scheme in schemes {
        let mut clean: Option<(f64, f64)> = None;
        for &case in cases {
            let mut row =
                FaultRow { case: case.to_string(), scheme: scheme.label().to_string(), avg_fct_s: f64::NAN, p99_fct_s: f64::NAN, ..FaultRow::default() };
            match results.next().expect("one result per (scheme, case) point") {
                Ok(runs) => {
                    for run in &runs {
                        row.path_evictions += run.evictions;
                        row.stats.absorb(&run.fault_stats);
                        row.control.absorb(&run.control);
                    }
                    let recovered_ms: Vec<f64> = runs.iter().filter_map(|run| run.recovery).map(|r| r.as_secs_f64() * 1e3).collect();
                    if !recovered_ms.is_empty() {
                        row.recovery_ms = Some(recovered_ms.iter().sum::<f64>() / recovered_ms.len() as f64);
                    }
                    let mut fct = pool_fct(runs.into_iter().map(|run| run.fct));
                    (row.avg_fct_s, row.p99_fct_s) = (fct.avg(), fct.p99());
                }
                Err(bad) => quarantined.extend(bad),
            }
            let (clean_avg, clean_p99) = *clean.get_or_insert((row.avg_fct_s, row.p99_fct_s));
            row.avg_ratio = ratio_to_clean(row.avg_fct_s, clean_avg);
            row.p99_ratio = ratio_to_clean(row.p99_fct_s, clean_p99);
            rows.push(row);
        }
    }
    (rows, quarantined)
}

/// The resilience sweep: `{clean, single-cut, flapping, 50%-degraded,
/// 1%-loss}` × `schemes` (`fault_sweep`), reporting average FCT,
/// degradation vs. the scheme's clean run, recovery time and the fabric's
/// fault damage. Every case hits the paper's S2–L2 cable
/// ([`CableSelector::S2_L2`]) mid-run.
pub fn resilience(schemes: &[Scheme], cfg: &ExpConfig) -> FaultTable {
    const AT: Time = RESILIENCE_FAULT_AT;
    const CABLE: CableSelector = CableSelector::S2_L2;
    /// A case's fault timeline, given the scenario's probe interval.
    type Plan = fn(Duration) -> FaultPlan;
    let cases: [(&str, Plan); 5] = [
        ("clean", |_| FaultPlan::none()),
        // One announced cut, never restored (the paper's asymmetry, but
        // arriving mid-run).
        ("single-cut", |_| FaultPlan::cut(AT, CABLE)),
        // A silent flap — the gray failure edge probing exists for. Cycles
        // are sized in probe intervals so the detection race
        // (blackhole_rounds consecutive truncated rounds vs. the down span)
        // scales with the profile: down for 4 intervals, up for 2, twice.
        ("flapping", |probe_interval| FaultPlan::flap(AT, CABLE, probe_interval * 6, 2.0 / 3.0, 2)),
        ("50%-degraded", |_| FaultPlan::degrade(AT, CABLE, 0.5)),
        ("1%-loss", |_| FaultPlan::loss(AT, CABLE, 0.01)),
    ];
    let cases =
        cases.map(|(label, plan)| SweepCase { label: label.into(), tag: label.into(), apply: Box::new(move |s| s.faults = plan(s.profile.probe_interval)) });
    let sweep = FaultSweep {
        scope: "resilience",
        seed_base: 4000,
        title: "Resilience — S2-L2 faults at",
        columns: DAMAGE_COLUMNS,
        cell_label: |scheme, case| format!("{scheme} / {case}"),
        cases: cases.into(),
    };
    fault_sweep(sweep, schemes, cfg)
}

/// One node-fault case of the recovery matrix. Every case crashes whole
/// nodes on the otherwise symmetric testbed topology and watches traffic
/// ride the outage out and re-converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryCase {
    /// No fault — the per-scheme baseline the others are normalized to.
    Clean,
    /// ToR (leaf 1) crash-restart, cold: its CONGA/HULA soft state
    /// is gone when it boots back.
    TorReboot,
    /// Spine 1 crash-restart, cold — half the fabric's middle stage.
    SpineReboot,
    /// Hypervisor 0 crash-restart, warm: the vswitch state survives (VM
    /// live-migration-style restart), only the outage itself hurts.
    HostCrashWarm,
    /// Hypervisor 0 crash-restart, cold: flowlet table, WRR weights and
    /// discovery selections are flushed; re-discovery starts from scratch
    /// under the degradation ladder.
    HostCrashCold,
    /// Rolling ToR maintenance: leaf 0 reboots, then leaf 1 after the
    /// first is back — the planned-upgrade pattern.
    RollingTor,
}

impl RecoveryCase {
    /// Every case, clean first (the matrix relies on that ordering to have
    /// the baseline before computing degradations).
    pub const ALL: [RecoveryCase; 6] = [
        RecoveryCase::Clean,
        RecoveryCase::TorReboot,
        RecoveryCase::SpineReboot,
        RecoveryCase::HostCrashWarm,
        RecoveryCase::HostCrashCold,
        RecoveryCase::RollingTor,
    ];

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryCase::Clean => "clean",
            RecoveryCase::TorReboot => "tor-reboot",
            RecoveryCase::SpineReboot => "spine-reboot",
            RecoveryCase::HostCrashWarm => "host-crash-warm",
            RecoveryCase::HostCrashCold => "host-crash-cold",
            RecoveryCase::RollingTor => "rolling-tor",
        }
    }

    /// The node-fault timeline for this case, anchored at `at`. Switch
    /// reboots take 15 ms (three 5 ms probe rounds — long enough that the
    /// blind window matters), host reboots 10 ms; the rolling upgrade
    /// staggers the two ToRs so the fabric is never fully dark.
    pub fn plan(self, at: Time) -> FaultPlan {
        let switch_boot = Duration::from_millis(15);
        let host_boot = Duration::from_millis(10);
        match self {
            RecoveryCase::Clean => FaultPlan::none(),
            RecoveryCase::TorReboot => FaultPlan::node_crash(at, NodeSelector::Leaf(1), switch_boot, true),
            RecoveryCase::SpineReboot => FaultPlan::node_crash(at, NodeSelector::Spine(1), switch_boot, true),
            RecoveryCase::HostCrashWarm => FaultPlan::node_crash(at, NodeSelector::Host(0), host_boot, false),
            RecoveryCase::HostCrashCold => FaultPlan::node_crash(at, NodeSelector::Host(0), host_boot, true),
            RecoveryCase::RollingTor => {
                let mut plan = FaultPlan::node_crash(at, NodeSelector::Leaf(0), host_boot, true);
                plan.extend(FaultPlan::node_crash(at + host_boot + Duration::from_millis(5), NodeSelector::Leaf(1), host_boot, true));
                plan
            }
        }
    }
}

/// The recovery-conformance matrix: `{clean, tor-reboot, spine-reboot,
/// host-crash-warm, host-crash-cold, rolling-tor}` × `schemes`
/// (`fault_sweep`), reporting time-to-recover and the SLO damage ledger
/// (FCT degradation vs. the scheme's clean run, drops, down time,
/// evictions). Node faults lower to their incident cable sets plus the
/// restart-semantics events (`clove_net::fault` module docs); cold restarts
/// additionally flush switch LB tables or the whole vswitch (flowlets, WRR
/// weights, discovery selections).
pub fn recovery(schemes: &[Scheme], cfg: &ExpConfig) -> FaultTable {
    let cases = RecoveryCase::ALL.iter().map(|&case| SweepCase {
        label: case.label().into(),
        tag: case.label().into(),
        apply: Box::new(move |s| s.faults = case.plan(RESILIENCE_FAULT_AT)),
    });
    let sweep = FaultSweep {
        scope: "recovery",
        seed_base: 6000,
        title: "Recovery — node crash-restarts at",
        columns: DAMAGE_COLUMNS,
        cell_label: |scheme, case| format!("{scheme} / {case}"),
        cases: cases.collect(),
    };
    fault_sweep(sweep, schemes, cfg)
}

/// The control-loop loss rates the feedback-degradation sweep covers,
/// clean first (the sweep relies on that ordering to have the baseline
/// before computing slowdowns).
pub const FEEDBACK_LOSS_RATES: [f64; 5] = [0.0, 0.01, 0.05, 0.20, 0.50];

/// The feedback-degradation sweep: `{0, 1, 5, 20, 50}%` control-loop loss
/// (probes, probe replies *and* congestion feedback all dropped at the
/// rate, via [`ControlFaultPlan::lossy_control`]) × `schemes`
/// (`fault_sweep`). Reports average and p99 FCT slowdown vs. the scheme's
/// clean run plus time-to-recover — the degradation ladder's report card:
/// schemes that *depend* on feedback (Clove-ECN/INT) should degrade toward
/// Edge-Flowlet, not below it.
///
/// The data plane is untouched: only the control loop is damaged, so any
/// slowdown is pure feedback starvation.
pub fn feedback_degradation(schemes: &[Scheme], cfg: &ExpConfig) -> FaultTable {
    let cases = FEEDBACK_LOSS_RATES.iter().map(|&rate| SweepCase {
        label: (rate * 100.0).to_string(),
        tag: format!("rate{}", per_mille(rate)),
        apply: Box::new(move |s| {
            if rate > 0.0 {
                s.control_faults = ControlFaultPlan::lossy_control(RESILIENCE_FAULT_AT, rate);
            }
        }),
    });
    let sweep = FaultSweep {
        scope: "feedback",
        seed_base: 5000,
        title: "Feedback degradation — lossy control loop from",
        columns: FEEDBACK_COLUMNS,
        cell_label: |scheme, pct| format!("{scheme} @ {pct}% control loss"),
        cases: cases.collect(),
    };
    fault_sweep(sweep, schemes, cfg)
}

/// Shared driver for FCT-vs-load figures: prefetch the whole scheme × load
/// matrix as one parallel fan-out, then assemble from cache hits.
fn rpc_figure(
    title: &str,
    topology: TopologyKind,
    schemes: &[Scheme],
    loads: &[f64],
    cfg: &ExpConfig,
    cache: &mut PointCache,
    metric: impl Fn(&mut FctSummary) -> f64,
) -> FigureTable {
    cache.prefetch(schemes, topology, loads, cfg);
    let table = FigureTable::new(title, "load %", loads.iter().map(|l| l * 100.0).collect());
    let names: Vec<&str> = schemes.iter().map(Scheme::label).collect();
    let points = schemes.iter().flat_map(|scheme| loads.iter().map(|&load| cache.entries[&PointCache::key(scheme, topology, load)].clone()));
    series_table(table, &names, points, |mut fct| metric(&mut fct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_slug_collapses_unsafe_characters() {
        assert_eq!(path_slug("Clove-ECN @ 70% load (asym)"), "Clove-ECN-70-load-asym");
        assert_eq!(path_slug("MPTCP/4 / single-cut"), "MPTCP-4-single-cut");
        assert_eq!(path_slug("---"), "");
    }

    #[test]
    fn point_cache_keys_follow_the_journal_topology_tag() {
        // Symmetric and fat-tree points have distinct journal keys; a cache
        // that has seen one must not serve it for the other.
        let key = |topology| PointCache::key(&Scheme::Ecmp, topology, 0.5);
        assert_ne!(key(TopologyKind::Symmetric), key(TopologyKind::FatTree { k: 4 }));
        assert_ne!(key(TopologyKind::FatTree { k: 4 }), key(TopologyKind::FatTree { k: 8 }));
        assert_ne!(key(TopologyKind::Symmetric), key(TopologyKind::Asymmetric));
        assert_eq!(key(TopologyKind::Asymmetric), PointCache::key(&Scheme::Ecmp, TopologyKind::Asymmetric, 0.5004));
    }

    #[test]
    fn fold_point_keeps_seed_order_or_names_every_bad_seed() {
        let no_snapshot = |_: u64, _: &str| -> String { panic!("an all-Ok point persists nothing") };
        assert_eq!(fold_point(vec![CellOutcome::Ok(7), CellOutcome::Ok(3), CellOutcome::Ok(5)], 2000, "p", no_snapshot), Ok(vec![7, 3, 5]));

        let mut persisted = Vec::new();
        let outcomes = vec![CellOutcome::Ok(1), CellOutcome::Panicked { msg: "boom".into() }, CellOutcome::Ok(2), CellOutcome::Panicked { msg: "bang".into() }];
        let folded = fold_point(outcomes, 4000, "ECMP / clean", |seed, reason| {
            persisted.push((seed, reason.to_string()));
            format!(" (snapshot: s{seed})")
        });
        assert_eq!(
            folded,
            Err(vec![
                "ECMP / clean seed 4001: panicked: boom (snapshot: s4001)".to_string(),
                "ECMP / clean seed 4003: panicked: bang (snapshot: s4003)".to_string(),
            ])
        );
        assert_eq!(persisted.iter().map(|(seed, _)| *seed).collect::<Vec<_>>(), [4001, 4003]);
        assert_eq!(persisted[0].1, "panicked: boom");
    }

    /// A one-flow run whose FCT is `fct_s`, with one of every damage counter.
    fn fault_run(fct_s: f64) -> FaultRun {
        let mut fct = FctSummary { all: Default::default(), mice: Default::default(), elephants: Default::default(), incomplete: 0 };
        fct.all.add(fct_s);
        FaultRun {
            fct,
            evictions: 1,
            fault_stats: FaultStats { drops_down: 1, faults_applied: 1, ..FaultStats::default() },
            control: ControlFaultStats { probes_dropped: 1, ..ControlFaultStats::default() },
            recovery: Some(Duration::from_millis(4)),
        }
    }

    #[test]
    fn fault_fold_quarantine_poisons_ratios_only_through_the_clean_case() {
        let schemes = [Scheme::Ecmp, Scheme::CloveEcn];
        let results = vec![
            // ECMP: the clean baseline is quarantined.
            Err(vec!["ECMP / clean seed 4000: panicked: boom".to_string()]),
            Ok(vec![fault_run(0.2), fault_run(0.4)]),
            // Clove-ECN: a non-clean case is quarantined.
            Ok(vec![fault_run(0.1), fault_run(0.1)]),
            Err(vec!["Clove-ECN / cut seed 4001: panicked: boom".to_string()]),
        ];
        let (rows, quarantined) = fold_fault_rows(&schemes, &["clean", "cut"], results);
        assert_eq!(quarantined, ["ECMP / clean seed 4000: panicked: boom", "Clove-ECN / cut seed 4001: panicked: boom"]);
        let [ecmp_clean, ecmp_cut, clove_clean, clove_cut] = &rows[..] else { panic!("one row per (scheme, case)") };

        // No baseline: every ratio of the scheme is NaN, its own data stays.
        assert!(ecmp_clean.avg_fct_s.is_nan() && ecmp_clean.avg_ratio.is_nan() && ecmp_clean.p99_ratio.is_nan());
        assert!(ecmp_cut.avg_ratio.is_nan() && ecmp_cut.p99_ratio.is_nan());
        assert!((ecmp_cut.avg_fct_s - 0.3).abs() < 1e-12);
        assert_eq!((ecmp_cut.path_evictions, ecmp_cut.stats.drops_down, ecmp_cut.control.probes_dropped), (2, 2, 2));
        assert_eq!(ecmp_cut.recovery_ms, Some(4.0));

        // A quarantined non-clean case: NaN FCTs and ratios, zeroed damage,
        // and the clean neighbour is untouched.
        assert_eq!((clove_clean.avg_ratio, clove_clean.p99_ratio), (1.0, 1.0));
        assert_eq!((clove_clean.path_evictions, clove_clean.stats.faults_applied), (2, 2));
        assert!(clove_cut.avg_fct_s.is_nan() && clove_cut.p99_fct_s.is_nan() && clove_cut.avg_ratio.is_nan() && clove_cut.p99_ratio.is_nan());
        assert_eq!((clove_cut.path_evictions, clove_cut.recovery_ms), (0, None));
        assert_eq!((clove_cut.stats, clove_cut.control), (FaultStats::default(), ControlFaultStats::default()));
        assert_eq!((clove_cut.case.as_str(), clove_cut.scheme.as_str()), ("cut", "Clove-ECN"));
    }

    #[test]
    fn corrupt_fault_run_entries_decode_or_miss() {
        journal::tests::assert_corruptions_decode_or_miss(&fault_run(0.1));
    }

    #[test]
    fn a_quarantined_point_names_the_seed_and_the_original_message() {
        // `conns_per_client: 0` fails `Scenario::validate`, so the point's
        // one cell panics inside `run_rpc`, deterministically.
        let cfg = ExpConfig { conns_per_client: 0, ..ExpConfig::quick() };
        let mut cache = PointCache::new();
        let point = cache.point(&Scheme::Ecmp, TopologyKind::Symmetric, 0.5, &cfg);
        // The quarantine wrote its replay snapshot under the test's working
        // directory; take it away again before asserting anything.
        let snapshot = format!("{TELEMETRY_SNAPSHOT_DIR}/rpc-ECMP-50-load-sym-seed1000.json");
        let written = std::fs::remove_file(&snapshot).is_ok();
        let _ = std::fs::remove_dir(TELEMETRY_SNAPSHOT_DIR);
        let _ = std::fs::remove_dir("results");
        assert!(point.is_none(), "a quarantined point has no value to return");
        assert_eq!(
            cache.quarantine_lines(&Scheme::Ecmp, TopologyKind::Symmetric, 0.5),
            [format!("ECMP @ 50% load (sym) seed 1000: panicked: invalid scenario: conns_per_client: 0 is outside 1..=64 (snapshot: {snapshot})")]
        );
        assert!(written, "the quarantined cell's snapshot must have been written");
    }

    #[test]
    fn recovery_cases_validate_and_lower_on_the_testbed() {
        for case in RecoveryCase::ALL {
            let mut s = Scenario::new(Scheme::CloveEcn, TopologyKind::Symmetric, 0.5, 1);
            s.faults = case.plan(RESILIENCE_FAULT_AT);
            s.validate().unwrap_or_else(|e| panic!("{} must resolve on the paper testbed: {e}", case.label()));
            let nodes = s.faults.node_specs.len();
            match case {
                RecoveryCase::Clean => assert_eq!(nodes, 0),
                RecoveryCase::RollingTor => assert_eq!(nodes, 2, "rolling upgrade reboots both ToRs"),
                _ => assert_eq!(nodes, 1),
            }
        }
        // The warm and cold host crashes differ only in restart state.
        let warm = RecoveryCase::HostCrashWarm.plan(RESILIENCE_FAULT_AT);
        let cold = RecoveryCase::HostCrashCold.plan(RESILIENCE_FAULT_AT);
        assert!(!warm.node_specs[0].cold && cold.node_specs[0].cold);
        assert_eq!(warm.node_specs[0].window(), cold.node_specs[0].window());
    }

    #[test]
    fn quarantine_spec_round_trips_through_clove_run_parsing() {
        // The snapshot's repro command feeds the snapshot file straight to
        // clove-run, so the embedded spec (plus the extra `quarantine`
        // object, the one non-field key the parser accepts) has to parse
        // back into a single-seed ScenarioSpec for the failed cell — for
        // figure and extension schemes alike.
        let cfg = ExpConfig::quick();
        let presto = Scheme::Presto { oracle_weights: presto_oracle_weights(TopologyKind::Asymmetric) };
        for scheme in [Scheme::CloveEcn, Scheme::Mptcp { subflows: 4 }, presto, Scheme::Incremental { clove_hosts: 16 }] {
            let Json::Obj(mut fields) = cell_spec(&scheme, TopologyKind::Asymmetric, 0.7, 1001, &cfg).to_json() else { panic!("spec must be an object") };
            fields.push(("quarantine".to_string(), Json::Obj(vec![("reason".to_string(), Json::Str("panicked".to_string()))])));
            let parsed = ScenarioSpec::from_json_str(&Json::Obj(fields).render()).expect("snapshot parses as a clove-run spec");
            assert_eq!((&parsed.scheme, parsed.topology), (&scheme, TopologyKind::Asymmetric));
            assert_eq!(parsed.load, 0.7);
            assert_eq!(parsed.seed, 1001);
            assert_eq!(parsed.seeds, 1, "replay exactly the failed seed");
            assert_eq!((parsed.jobs_per_conn, parsed.conns_per_client, parsed.horizon_secs), (cfg.jobs_per_conn, cfg.conns_per_client, cfg.horizon_secs));
            parsed.validate().expect("a cell the figures ran is a valid spec");
        }
    }
}
