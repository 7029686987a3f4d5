//! Serializable experiment specifications — run scenarios from JSON.
//!
//! [`ScenarioSpec`] is the on-disk form of a [`Scenario`]: a JSON file a
//! user can write without touching Rust, consumed by the `clove-run`
//! binary. [`RunReport`] is its JSON output (summary numbers only; full
//! CDFs via the `cdf_points` knob). Parsing and rendering go through the
//! in-tree [`crate::json`] module so the workspace builds fully offline.

use crate::journal::{Journal, JournalValue};
use crate::json::Json;
use crate::orchestrator::{self, CellOutcome, ExecPolicy};
use crate::profile::Profile;
use crate::scenario::{Scenario, TopologyKind};
use crate::scheme::Scheme;
use clove_sim::{Duration, Time};
use clove_workload::{data_mining, enterprise, web_search, FlowSizeDist};
use std::sync::Arc;

/// JSON-facing scheme name (`{"name": "clove-ecn", ...}`).
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeSpec {
    /// Static flow hashing.
    Ecmp,
    /// Random port per flowlet.
    EdgeFlowlet,
    /// Clove with ECN feedback.
    CloveEcn,
    /// Clove with INT feedback.
    CloveInt,
    /// Clove with latency feedback.
    CloveLatency {
        /// Enable the adaptive flowlet gap.
        adaptive_gap: bool,
    },
    /// Presto with optional static path weights.
    Presto {
        /// Oracle weights per discovered path.
        weights: Option<Vec<f64>>,
    },
    /// MPTCP with k subflows.
    Mptcp {
        /// Subflow count (paper: 4).
        subflows: usize,
    },
    /// CONGA in the switches.
    Conga,
    /// LetFlow in the switches.
    LetFlow,
    /// HULA in the switches.
    Hula,
    /// Partial Clove deployment.
    Incremental {
        /// Number of Clove-enabled hypervisors.
        clove_hosts: u32,
    },
}

impl SchemeSpec {
    /// Parse from the tagged-object form, e.g. `{"name":"mptcp","subflows":4}`.
    pub fn from_json(v: &Json) -> Result<SchemeSpec, String> {
        let name = v.get("name").and_then(Json::as_str).ok_or_else(|| "scheme: missing string field 'name'".to_string())?;
        match name {
            "ecmp" => Ok(SchemeSpec::Ecmp),
            "edge-flowlet" => Ok(SchemeSpec::EdgeFlowlet),
            "clove-ecn" => Ok(SchemeSpec::CloveEcn),
            "clove-int" => Ok(SchemeSpec::CloveInt),
            "clove-latency" => Ok(SchemeSpec::CloveLatency { adaptive_gap: v.get("adaptive_gap").and_then(Json::as_bool).unwrap_or(false) }),
            "presto" => {
                let weights = match v.get("weights") {
                    None | Some(Json::Null) => None,
                    Some(w) => Some(
                        w.as_array()
                            .ok_or_else(|| "presto: 'weights' must be an array".to_string())?
                            .iter()
                            .map(|x| x.as_f64().ok_or_else(|| "presto: weights must be numbers".to_string()))
                            .collect::<Result<Vec<f64>, String>>()?,
                    ),
                };
                Ok(SchemeSpec::Presto { weights })
            }
            "mptcp" => Ok(SchemeSpec::Mptcp {
                subflows: v.get("subflows").and_then(Json::as_u64).ok_or_else(|| "mptcp: missing integer field 'subflows'".to_string())? as usize,
            }),
            "conga" => Ok(SchemeSpec::Conga),
            "let-flow" => Ok(SchemeSpec::LetFlow),
            "hula" => Ok(SchemeSpec::Hula),
            "incremental" => Ok(SchemeSpec::Incremental {
                clove_hosts: v.get("clove_hosts").and_then(Json::as_u64).ok_or_else(|| "incremental: missing integer field 'clove_hosts'".to_string())? as u32,
            }),
            other => Err(format!("unknown scheme name '{other}'")),
        }
    }

    /// Render back to the tagged-object form.
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        let name = match self {
            SchemeSpec::Ecmp => "ecmp",
            SchemeSpec::EdgeFlowlet => "edge-flowlet",
            SchemeSpec::CloveEcn => "clove-ecn",
            SchemeSpec::CloveInt => "clove-int",
            SchemeSpec::CloveLatency { .. } => "clove-latency",
            SchemeSpec::Presto { .. } => "presto",
            SchemeSpec::Mptcp { .. } => "mptcp",
            SchemeSpec::Conga => "conga",
            SchemeSpec::LetFlow => "let-flow",
            SchemeSpec::Hula => "hula",
            SchemeSpec::Incremental { .. } => "incremental",
        };
        fields.push(("name".to_string(), Json::Str(name.to_string())));
        match self {
            SchemeSpec::CloveLatency { adaptive_gap } => {
                fields.push(("adaptive_gap".to_string(), Json::Bool(*adaptive_gap)));
            }
            SchemeSpec::Presto { weights } => {
                let w = match weights {
                    Some(ws) => Json::Arr(ws.iter().map(|&x| Json::Num(x)).collect()),
                    None => Json::Null,
                };
                fields.push(("weights".to_string(), w));
            }
            SchemeSpec::Mptcp { subflows } => {
                fields.push(("subflows".to_string(), Json::Num(*subflows as f64)));
            }
            SchemeSpec::Incremental { clove_hosts } => {
                fields.push(("clove_hosts".to_string(), Json::Num(*clove_hosts as f64)));
            }
            _ => {}
        }
        Json::Obj(fields)
    }
}

impl From<SchemeSpec> for Scheme {
    fn from(s: SchemeSpec) -> Scheme {
        match s {
            SchemeSpec::Ecmp => Scheme::Ecmp,
            SchemeSpec::EdgeFlowlet => Scheme::EdgeFlowlet,
            SchemeSpec::CloveEcn => Scheme::CloveEcn,
            SchemeSpec::CloveInt => Scheme::CloveInt,
            SchemeSpec::CloveLatency { adaptive_gap } => Scheme::CloveLatency { adaptive_gap },
            SchemeSpec::Presto { weights } => Scheme::Presto { oracle_weights: weights },
            SchemeSpec::Mptcp { subflows } => Scheme::Mptcp { subflows },
            SchemeSpec::Conga => Scheme::Conga,
            SchemeSpec::LetFlow => Scheme::LetFlow,
            SchemeSpec::Hula => Scheme::Hula,
            SchemeSpec::Incremental { clove_hosts } => Scheme::Incremental { clove_hosts },
        }
    }
}

/// JSON-facing topology (`{"kind": "asymmetric"}`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// Healthy 2×2×16 leaf-spine.
    Symmetric,
    /// Leaf-spine with the S2–L2 cable down from t = 0.
    Asymmetric,
    /// k-ary fat-tree.
    FatTree {
        /// Pod arity (even, ≥ 4).
        k: u32,
    },
}

impl TopologySpec {
    /// Parse from the tagged-object form, e.g. `{"kind":"fat-tree","k":4}`.
    pub fn from_json(v: &Json) -> Result<TopologySpec, String> {
        let kind = v.get("kind").and_then(Json::as_str).ok_or_else(|| "topology: missing string field 'kind'".to_string())?;
        match kind {
            "symmetric" => Ok(TopologySpec::Symmetric),
            "asymmetric" => Ok(TopologySpec::Asymmetric),
            "fat-tree" => {
                Ok(TopologySpec::FatTree { k: v.get("k").and_then(Json::as_u64).ok_or_else(|| "fat-tree: missing integer field 'k'".to_string())? as u32 })
            }
            other => Err(format!("unknown topology kind '{other}'")),
        }
    }

    /// Render back to the tagged-object form.
    pub fn to_json(&self) -> Json {
        match self {
            TopologySpec::Symmetric => Json::Obj(vec![("kind".to_string(), Json::Str("symmetric".to_string()))]),
            TopologySpec::Asymmetric => Json::Obj(vec![("kind".to_string(), Json::Str("asymmetric".to_string()))]),
            TopologySpec::FatTree { k } => Json::Obj(vec![("kind".to_string(), Json::Str("fat-tree".to_string())), ("k".to_string(), Json::Num(*k as f64))]),
        }
    }
}

impl From<TopologySpec> for TopologyKind {
    fn from(t: TopologySpec) -> TopologyKind {
        match t {
            TopologySpec::Symmetric => TopologyKind::Symmetric,
            TopologySpec::Asymmetric => TopologyKind::Asymmetric,
            TopologySpec::FatTree { k } => TopologyKind::FatTree { k },
        }
    }
}

/// JSON-facing node crash-restart
/// (`{"node":"leaf1","at_ms":20,"down_ms":15,"state":"cold"}`): the named
/// node goes dark at `at_ms` — every incident cable drops — and reboots
/// `down_ms` later, cold (soft state flushed: switch LB tables, or the
/// whole vswitch plus discovery for a host) or warm (state survives).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCrashSpec {
    /// Which node reboots.
    pub node: clove_net::fault::NodeSelector,
    /// Crash time in milliseconds.
    pub at_ms: u64,
    /// Reboot duration in milliseconds (must be positive).
    pub down_ms: u64,
    /// Cold (default) or warm restart.
    pub cold: bool,
}

impl NodeCrashSpec {
    /// Parse from the object form. The node is named `leaf<N>`, `spine<N>`
    /// or `host<N>`; `state` is `"cold"` (default) or `"warm"`.
    pub fn from_json(v: &Json) -> Result<NodeCrashSpec, String> {
        let name = v.get("node").and_then(Json::as_str).ok_or_else(|| "node_crash: missing string field 'node'".to_string())?;
        let node = parse_node(name)?;
        let num = |key: &str| v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("node_crash: missing integer field '{key}'"));
        let down_ms = num("down_ms")?;
        if down_ms == 0 {
            return Err("node_crash: 'down_ms' must be positive".to_string());
        }
        let cold = match v.get("state") {
            None | Some(Json::Null) => true,
            Some(s) => match s.as_str() {
                Some("cold") => true,
                Some("warm") => false,
                _ => return Err("node_crash: 'state' must be \"cold\" or \"warm\"".to_string()),
            },
        };
        Ok(NodeCrashSpec { node, at_ms: num("at_ms")?, down_ms, cold })
    }

    /// Render back to the object form.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("node".to_string(), Json::Str(format!("{}{}", self.node.tier(), self.node.index()))),
            ("at_ms".to_string(), Json::Num(self.at_ms as f64)),
            ("down_ms".to_string(), Json::Num(self.down_ms as f64)),
            ("state".to_string(), Json::Str(if self.cold { "cold" } else { "warm" }.to_string())),
        ])
    }

    /// The one-spec fault plan this crash describes.
    pub fn plan(&self) -> clove_net::fault::FaultPlan {
        use clove_net::fault::{FaultPlan, NodeState};
        FaultPlan::node_crash(
            Time::from_millis(self.at_ms),
            self.node,
            Duration::from_millis(self.down_ms),
            if self.cold { NodeState::Cold } else { NodeState::Warm },
        )
    }
}

/// Parse a node name like `leaf0`, `spine1` or `host12`.
fn parse_node(name: &str) -> Result<clove_net::fault::NodeSelector, String> {
    use clove_net::fault::NodeSelector;
    let digits = name.find(|c: char| c.is_ascii_digit()).ok_or_else(|| format!("node '{name}': want leaf<N> | spine<N> | host<N>"))?;
    let (tier, idx) = name.split_at(digits);
    let index: u32 = idx.parse().map_err(|_| format!("node '{name}': bad index '{idx}'"))?;
    match tier {
        "leaf" => Ok(NodeSelector::Leaf(index)),
        "spine" => Ok(NodeSelector::Spine(index)),
        "host" => Ok(NodeSelector::Host(index)),
        other => Err(format!("node '{name}': unknown tier '{other}' (want leaf | spine | host)")),
    }
}

/// A complete experiment specification.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Load balancer under test.
    pub scheme: SchemeSpec,
    /// Topology variant.
    pub topology: TopologySpec,
    /// Offered load as a fraction of bisection bandwidth.
    pub load: f64,
    /// Flow-size distribution: "web-search", "enterprise", "data-mining".
    pub workload: String,
    /// Jobs per client connection.
    pub jobs_per_conn: u32,
    /// Persistent connections per client.
    pub conns_per_client: u32,
    /// RNG seed (base seed when `seeds > 1`).
    pub seed: u64,
    /// Consecutive seeds to run and pool, starting at `seed` (default 1).
    /// Seeds are independent runs, so they fan out across `--jobs` workers.
    pub seeds: u32,
    /// Simulated-time ceiling in seconds.
    pub horizon_secs: u64,
    /// Optional mid-run S2–L2 failure time in milliseconds.
    pub fail_at_ms: Option<u64>,
    /// Optional node crash-restart (composes with `fail_at_ms`; the
    /// cable/node precedence rules in `clove_net::fault` apply when both
    /// touch the same cable).
    pub node_crash: Option<NodeCrashSpec>,
    /// Flowlet gap override in microseconds.
    pub flowlet_gap_us: Option<u64>,
    /// ECN threshold override in MTU packets.
    pub ecn_threshold_pkts: Option<u32>,
    /// Optional control-loop loss rate in [0, 1): probes, probe replies
    /// and congestion feedback are all dropped at this rate (the
    /// feedback-degradation knob).
    pub control_loss: Option<f64>,
    /// When the control-loop loss starts, in milliseconds (default 0).
    pub control_loss_at_ms: Option<u64>,
    /// Run under the invariant monitor and fail the run on any violation
    /// (`clove-run --strict` forces this on).
    pub strict: bool,
    /// Capture structured decision traces (`clove-run --trace FILE`).
    /// CLI-only and *not* part of the spec JSON or journal keys:
    /// tracing must never change the report, and trace runs bypass the
    /// checkpoint journal (a resumed seed has no buffer to replay).
    pub trace: bool,
}

impl ScenarioSpec {
    /// Parse a spec from JSON text, applying defaults for omitted fields.
    pub fn from_json_str(text: &str) -> Result<ScenarioSpec, String> {
        let v = Json::parse(text)?;
        if !matches!(v, Json::Obj(_)) {
            return Err("spec must be a JSON object".to_string());
        }
        let scheme = SchemeSpec::from_json(v.get("scheme").ok_or_else(|| "missing field 'scheme'".to_string())?)?;
        let topology = TopologySpec::from_json(v.get("topology").ok_or_else(|| "missing field 'topology'".to_string())?)?;
        let load = v.get("load").and_then(Json::as_f64).ok_or_else(|| "missing numeric field 'load'".to_string())?;
        let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(x) => x.as_u64().map(Some).ok_or_else(|| format!("'{key}' must be a non-negative integer")),
            }
        };
        Ok(ScenarioSpec {
            scheme,
            topology,
            load,
            workload: match v.get("workload") {
                None => "web-search".to_string(),
                Some(w) => w.as_str().ok_or_else(|| "'workload' must be a string".to_string())?.to_string(),
            },
            jobs_per_conn: opt_u64("jobs_per_conn")?.unwrap_or(60) as u32,
            conns_per_client: opt_u64("conns_per_client")?.unwrap_or(2) as u32,
            seed: opt_u64("seed")?.unwrap_or(0),
            seeds: opt_u64("seeds")?.unwrap_or(1).max(1) as u32,
            horizon_secs: opt_u64("horizon_secs")?.unwrap_or(30),
            fail_at_ms: opt_u64("fail_at_ms")?,
            node_crash: match v.get("node_crash") {
                None | Some(Json::Null) => None,
                Some(x) => Some(NodeCrashSpec::from_json(x)?),
            },
            flowlet_gap_us: opt_u64("flowlet_gap_us")?,
            ecn_threshold_pkts: opt_u64("ecn_threshold_pkts")?.map(|x| x as u32),
            control_loss: match v.get("control_loss") {
                None | Some(Json::Null) => None,
                Some(x) => {
                    let rate = x.as_f64().ok_or_else(|| "'control_loss' must be a number".to_string())?;
                    if !(0.0..1.0).contains(&rate) {
                        return Err("'control_loss' must be in [0, 1)".to_string());
                    }
                    Some(rate)
                }
            },
            control_loss_at_ms: opt_u64("control_loss_at_ms")?,
            strict: match v.get("strict") {
                None | Some(Json::Null) => false,
                Some(x) => x.as_bool().ok_or_else(|| "'strict' must be a boolean".to_string())?,
            },
            trace: false,
        })
    }

    /// Render back to JSON (all fields explicit).
    pub fn to_json(&self) -> Json {
        let opt = |o: Option<u64>| o.map(|x| Json::Num(x as f64)).unwrap_or(Json::Null);
        Json::Obj(vec![
            ("scheme".to_string(), self.scheme.to_json()),
            ("topology".to_string(), self.topology.to_json()),
            ("load".to_string(), Json::Num(self.load)),
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("jobs_per_conn".to_string(), Json::Num(self.jobs_per_conn as f64)),
            ("conns_per_client".to_string(), Json::Num(self.conns_per_client as f64)),
            ("seed".to_string(), Json::Num(self.seed as f64)),
            ("seeds".to_string(), Json::Num(self.seeds as f64)),
            ("horizon_secs".to_string(), Json::Num(self.horizon_secs as f64)),
            ("fail_at_ms".to_string(), opt(self.fail_at_ms)),
            ("node_crash".to_string(), self.node_crash.as_ref().map(NodeCrashSpec::to_json).unwrap_or(Json::Null)),
            ("flowlet_gap_us".to_string(), opt(self.flowlet_gap_us)),
            ("ecn_threshold_pkts".to_string(), opt(self.ecn_threshold_pkts.map(u64::from))),
            ("control_loss".to_string(), self.control_loss.map(Json::Num).unwrap_or(Json::Null)),
            ("control_loss_at_ms".to_string(), opt(self.control_loss_at_ms)),
            ("strict".to_string(), Json::Bool(self.strict)),
        ])
    }

    /// Resolve the named workload distribution.
    pub fn distribution(&self) -> Result<FlowSizeDist, String> {
        match self.workload.as_str() {
            "web-search" => Ok(web_search()),
            "enterprise" => Ok(enterprise()),
            "data-mining" => Ok(data_mining()),
            other => Err(format!("unknown workload '{other}' (want web-search | enterprise | data-mining)")),
        }
    }

    /// Build the runnable [`Scenario`].
    pub fn to_scenario(&self) -> Scenario {
        self.to_scenario_seeded(self.seed)
    }

    fn to_scenario_seeded(&self, seed: u64) -> Scenario {
        let mut s = Scenario::new(self.scheme.clone().into(), self.topology.into(), self.load, seed);
        s.jobs_per_conn = self.jobs_per_conn;
        s.conns_per_client = self.conns_per_client;
        s.horizon = Time::from_secs(self.horizon_secs);
        if let Some(ms) = self.fail_at_ms {
            s.fail_at(Time::from_millis(ms));
        }
        if let Some(crash) = &self.node_crash {
            s.faults.extend(crash.plan());
        }
        if let Some(rate) = self.control_loss {
            s.control_faults = clove_net::fault::ControlFaultPlan::lossy_control(Time::from_millis(self.control_loss_at_ms.unwrap_or(0)), rate);
        }
        s.strict = self.strict;
        s.trace = self.trace;
        let mut profile = Profile::default();
        if let Some(us) = self.flowlet_gap_us {
            profile.flowlet_gap = Duration::from_micros(us);
        }
        if let Some(pkts) = self.ecn_threshold_pkts {
            profile.ecn_threshold_pkts = pkts;
        }
        s.profile = profile;
        s
    }

    /// Run the RPC workload described by this spec (serial).
    pub fn run(&self) -> Result<RunReport, String> {
        self.run_jobs(1)
    }

    /// Run the RPC workload, fanning the spec's seeds out over `jobs`
    /// worker threads. Samples are pooled in seed order, so the report is
    /// identical at any `jobs` value.
    pub fn run_jobs(&self, jobs: usize) -> Result<RunReport, String> {
        self.run_jobs_journaled(jobs, None)
    }

    /// Run with decision tracing on: returns the report plus the pooled
    /// JSONL trace (seed order — deterministic at any `jobs`) and the count
    /// of events dropped at buffer capacity. The report itself is
    /// byte-identical to an untraced run.
    pub fn run_jobs_traced(&self, jobs: usize) -> Result<(RunReport, String, u64), String> {
        let mut spec = self.clone();
        spec.trace = true;
        spec.run_jobs_inner(jobs, None)
    }

    /// [`ScenarioSpec::run_jobs`] with panic isolation and an optional
    /// checkpoint journal: completed seeds are recorded under the journal's
    /// `clove-run` scope (keyed by the full spec JSON plus the seed), so an
    /// interrupted invocation re-run with `--resume` serves finished seeds
    /// from disk and only executes the remainder. The report is byte-identical
    /// with or without a resume, at any `jobs` value.
    pub fn run_jobs_journaled(&self, jobs: usize, journal: Option<&Journal>) -> Result<RunReport, String> {
        self.run_jobs_inner(jobs, journal).map(|(report, _, _)| report)
    }

    fn run_jobs_inner(&self, jobs: usize, journal: Option<&Journal>) -> Result<(RunReport, String, u64), String> {
        let dist = self.distribution()?;
        self.to_scenario().profile.discovery_config().validate().map_err(|e| format!("invalid discovery configuration: {e}"))?;
        let seeds: Vec<u64> = (0..self.seeds.max(1) as u64).map(|i| self.seed + i).collect();
        let spec_key = self.to_json().render();
        let (outcomes, _stats) = orchestrator::run_journaled(
            &seeds,
            jobs,
            ExecPolicy::default(),
            None, // seeds of one spec are uniform-cost
            journal.map(|j| (j, "clove-run")),
            |&seed| format!("{spec_key}|seed{seed}"),
            |&seed, control| {
                let mut s = self.to_scenario_seeded(seed);
                s.control = Some(Arc::clone(control));
                SeedRun::from_outcome(s.run_rpc(&dist))
            },
        );
        let mut fct: Option<clove_workload::FctSummary> = None;
        let (mut sim_time, mut events, mut drops, mut ecn_marks, mut timeouts, mut retransmits) = (0.0f64, 0u64, 0u64, 0u64, 0u64, 0u64);
        let mut violations: Vec<String> = Vec::new();
        let mut quarantined: Vec<String> = Vec::new();
        let mut trace_jsonl = String::new();
        let mut trace_dropped = 0u64;
        for (seed, outcome) in seeds.iter().zip(outcomes) {
            let out = match outcome {
                CellOutcome::Ok(run) => run,
                bad => {
                    quarantined.push(format!("seed {seed}: {}", bad.describe()));
                    continue;
                }
            };
            match fct.as_mut() {
                None => fct = Some(out.fct),
                Some(f) => f.merge(&out.fct),
            }
            sim_time = sim_time.max(out.sim_time_s);
            events += out.events;
            drops += out.drops;
            ecn_marks += out.ecn_marks;
            timeouts += out.timeouts;
            retransmits += out.retransmits;
            violations.extend(out.violations);
            trace_jsonl.push_str(&out.trace_jsonl);
            trace_dropped += out.trace_dropped;
        }
        if !quarantined.is_empty() {
            return Err(format!("{} seed(s) quarantined: {}", quarantined.len(), quarantined.join("; ")));
        }
        if !violations.is_empty() {
            return Err(format!("strict mode: {} invariant violation(s): {}", violations.len(), violations.join("; ")));
        }
        let mut fct = fct.expect("at least one seed");
        let report = RunReport {
            scheme: format!("{:?}", self.scheme),
            load: self.load,
            seeds: self.seeds.max(1) as u64,
            flows_completed: fct.all.count() as u64,
            flows_incomplete: fct.incomplete as u64,
            avg_fct_s: fct.avg(),
            p50_fct_s: fct.all.p50(),
            p99_fct_s: fct.p99(),
            mice_avg_fct_s: fct.mice.mean(),
            elephant_avg_fct_s: fct.elephants.mean(),
            sim_time_s: sim_time,
            events,
            drops,
            ecn_marks,
            timeouts,
            retransmits,
            strict: self.strict,
        };
        Ok((report, trace_jsonl, trace_dropped))
    }
}

/// The per-seed slice of an [`RpcOutcome`](crate::scenario::RpcOutcome)
/// that [`ScenarioSpec::run_jobs_journaled`] folds into a [`RunReport`] —
/// exactly what gets checkpointed, so a resumed seed reproduces the fold
/// bit-for-bit.
#[derive(Debug, Clone)]
struct SeedRun {
    fct: clove_workload::FctSummary,
    sim_time_s: f64,
    events: u64,
    drops: u64,
    ecn_marks: u64,
    timeouts: u64,
    retransmits: u64,
    violations: Vec<String>,
    /// Rendered decision trace (empty unless the scenario traced). Not
    /// journaled: trace runs bypass the checkpoint journal entirely.
    trace_jsonl: String,
    /// Trace events dropped at buffer capacity.
    trace_dropped: u64,
}

impl SeedRun {
    fn from_outcome(out: crate::scenario::RpcOutcome) -> SeedRun {
        SeedRun {
            fct: out.fct,
            sim_time_s: out.sim_time.as_secs_f64(),
            events: out.events,
            drops: out.drops,
            ecn_marks: out.ecn_marks,
            timeouts: out.timeouts,
            retransmits: out.retransmits,
            violations: out.violations,
            trace_jsonl: clove_telemetry::render_jsonl(&out.trace),
            trace_dropped: out.trace_dropped,
        }
    }
}

impl JournalValue for SeedRun {
    fn to_journal(&self) -> Json {
        Json::Obj(vec![
            ("fct".into(), self.fct.to_journal()),
            ("sim_time_s".into(), Json::Num(self.sim_time_s)),
            ("events".into(), Json::Num(self.events as f64)),
            ("drops".into(), Json::Num(self.drops as f64)),
            ("ecn_marks".into(), Json::Num(self.ecn_marks as f64)),
            ("timeouts".into(), Json::Num(self.timeouts as f64)),
            ("retransmits".into(), Json::Num(self.retransmits as f64)),
            ("violations".into(), Json::Arr(self.violations.iter().map(|v| Json::Str(v.clone())).collect())),
        ])
    }

    fn from_journal(v: &Json) -> Result<SeedRun, String> {
        let violations = match v.get("violations") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|x| x.as_str().map(str::to_string).ok_or_else(|| "violation entries must be strings".to_string()))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing 'violations' array".into()),
        };
        let scalar = |key: &str| v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing numeric '{key}'"));
        Ok(SeedRun {
            fct: clove_workload::FctSummary::from_journal(v.get("fct").ok_or("missing 'fct'")?)?,
            sim_time_s: scalar("sim_time_s")?,
            events: scalar("events")? as u64,
            drops: scalar("drops")? as u64,
            ecn_marks: scalar("ecn_marks")? as u64,
            timeouts: scalar("timeouts")? as u64,
            retransmits: scalar("retransmits")? as u64,
            violations,
            trace_jsonl: String::new(),
            trace_dropped: 0,
        })
    }
}

/// JSON result summary of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scheme descriptor.
    pub scheme: String,
    /// Offered load fraction.
    pub load: f64,
    /// Seeds pooled into this report.
    pub seeds: u64,
    /// Flows completed before the horizon.
    pub flows_completed: u64,
    /// Flows still in flight at the horizon.
    pub flows_incomplete: u64,
    /// Average flow completion time, seconds.
    pub avg_fct_s: f64,
    /// Median FCT.
    pub p50_fct_s: f64,
    /// 99th-percentile FCT.
    pub p99_fct_s: f64,
    /// Average FCT of flows under 100 KB.
    pub mice_avg_fct_s: f64,
    /// Average FCT of flows over 10 MB.
    pub elephant_avg_fct_s: f64,
    /// Simulated seconds elapsed.
    pub sim_time_s: f64,
    /// Simulation events processed.
    pub events: u64,
    /// Packets dropped.
    pub drops: u64,
    /// CE marks applied.
    pub ecn_marks: u64,
    /// TCP timeouts.
    pub timeouts: u64,
    /// TCP retransmissions.
    pub retransmits: u64,
    /// Whether the run executed under the invariant monitor. A strict
    /// report only renders when no invariant was violated (violations turn
    /// the run into an error instead).
    pub strict: bool,
}

impl RunReport {
    /// Render as a JSON object, keys in declaration order.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scheme".to_string(), Json::Str(self.scheme.clone())),
            ("load".to_string(), Json::Num(self.load)),
            ("seeds".to_string(), Json::Num(self.seeds as f64)),
            ("flows_completed".to_string(), Json::Num(self.flows_completed as f64)),
            ("flows_incomplete".to_string(), Json::Num(self.flows_incomplete as f64)),
            ("avg_fct_s".to_string(), Json::Num(self.avg_fct_s)),
            ("p50_fct_s".to_string(), Json::Num(self.p50_fct_s)),
            ("p99_fct_s".to_string(), Json::Num(self.p99_fct_s)),
            ("mice_avg_fct_s".to_string(), Json::Num(self.mice_avg_fct_s)),
            ("elephant_avg_fct_s".to_string(), Json::Num(self.elephant_avg_fct_s)),
            ("sim_time_s".to_string(), Json::Num(self.sim_time_s)),
            ("events".to_string(), Json::Num(self.events as f64)),
            ("drops".to_string(), Json::Num(self.drops as f64)),
            ("ecn_marks".to_string(), Json::Num(self.ecn_marks as f64)),
            ("timeouts".to_string(), Json::Num(self.timeouts as f64)),
            ("retransmits".to_string(), Json::Num(self.retransmits as f64)),
            ("strict".to_string(), Json::Bool(self.strict)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec {
            scheme: SchemeSpec::CloveEcn,
            topology: TopologySpec::Asymmetric,
            load: 0.7,
            workload: "web-search".into(),
            jobs_per_conn: 10,
            conns_per_client: 1,
            seed: 42,
            seeds: 1,
            horizon_secs: 10,
            fail_at_ms: Some(100),
            node_crash: Some(NodeCrashSpec { node: clove_net::fault::NodeSelector::Leaf(1), at_ms: 20, down_ms: 15, cold: true }),
            flowlet_gap_us: Some(150),
            ecn_threshold_pkts: Some(30),
            control_loss: Some(0.2),
            control_loss_at_ms: Some(20),
            strict: true,
            trace: false,
        };
        let json = spec.to_json().render_pretty();
        let back = ScenarioSpec::from_json_str(&json).unwrap();
        assert_eq!(back.load, 0.7);
        assert_eq!(back.scheme, SchemeSpec::CloveEcn);
        assert_eq!(back.fail_at_ms, Some(100));
        assert_eq!(back.node_crash, spec.node_crash);
        assert_eq!(back.control_loss, Some(0.2));
        assert_eq!(back.control_loss_at_ms, Some(20));
        assert!(back.strict);
        let s = back.to_scenario();
        assert!(s.strict);
        assert_eq!(s.control_faults.expand().len(), 3, "lossy_control covers probes, replies and feedback");
    }

    #[test]
    fn node_crash_spec_parses_and_builds_the_plan() {
        let json = r#"{"scheme":{"name":"clove-ecn"},"topology":{"kind":"symmetric"},"load":0.5,
                       "node_crash":{"node":"host3","at_ms":20,"down_ms":10,"state":"warm"}}"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        let crash = spec.node_crash.expect("node crash parsed");
        assert_eq!(crash.node, clove_net::fault::NodeSelector::Host(3));
        assert!(!crash.cold);
        let s = spec.to_scenario();
        assert_eq!(s.faults.node_specs.len(), 1);
        assert_eq!(s.faults.node_specs[0].window(), (Time::from_millis(20), Time::from_millis(30)));
        assert!(!s.faults.node_specs[0].is_cold());
        // State defaults to cold.
        let json = r#"{"scheme":{"name":"ecmp"},"topology":{"kind":"symmetric"},"load":0.5,
                       "node_crash":{"node":"spine1","at_ms":5,"down_ms":5}}"#;
        assert!(ScenarioSpec::from_json_str(json).unwrap().node_crash.unwrap().cold);
    }

    #[test]
    fn bad_node_crash_specs_are_rejected() {
        for bad in [
            r#"{"node":"pod1","at_ms":1,"down_ms":1}"#,                // unknown tier
            r#"{"node":"leaf","at_ms":1,"down_ms":1}"#,                // no index
            r#"{"node":"leaf0","at_ms":1,"down_ms":0}"#,               // zero reboot window
            r#"{"node":"leaf0","down_ms":1}"#,                         // missing at_ms
            r#"{"node":"leaf0","at_ms":1,"down_ms":1,"state":"hot"}"#, // bad state
        ] {
            let json = format!(r#"{{"scheme":{{"name":"ecmp"}},"topology":{{"kind":"symmetric"}},"load":0.5,"node_crash":{bad}}}"#);
            assert!(ScenarioSpec::from_json_str(&json).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn control_loss_rate_is_validated() {
        let json = r#"{"scheme":{"name":"ecmp"},"topology":{"kind":"symmetric"},"load":0.5,"control_loss":1.5}"#;
        assert!(ScenarioSpec::from_json_str(json).is_err());
        let json = r#"{"scheme":{"name":"ecmp"},"topology":{"kind":"symmetric"},"load":0.5,"strict":"yes"}"#;
        assert!(ScenarioSpec::from_json_str(json).is_err());
    }

    #[test]
    fn strict_lossy_spec_runs_clean_end_to_end() {
        let json = r#"{"scheme":{"name":"clove-ecn"},"topology":{"kind":"symmetric"},
                       "load":0.3,"jobs_per_conn":2,"conns_per_client":1,"horizon_secs":10,
                       "control_loss":0.5,"control_loss_at_ms":5,"strict":true}"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        let report = spec.run().unwrap();
        assert!(report.strict);
        assert!(report.flows_completed > 0);
        assert!(report.to_json().render().contains("\"strict\":true"));
    }

    #[test]
    fn minimal_json_uses_defaults() {
        let json = r#"{"scheme":{"name":"ecmp"},"topology":{"kind":"symmetric"},"load":0.5}"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        assert_eq!(spec.jobs_per_conn, 60);
        assert_eq!(spec.workload, "web-search");
        assert!(spec.fail_at_ms.is_none());
        let s = spec.to_scenario();
        assert_eq!(s.load, 0.5);
    }

    #[test]
    fn scheme_specs_map_to_schemes() {
        assert_eq!(Scheme::from(SchemeSpec::Mptcp { subflows: 4 }).label(), "MPTCP");
        assert_eq!(Scheme::from(SchemeSpec::Hula).label(), "HULA");
        assert_eq!(Scheme::from(SchemeSpec::Presto { weights: None }).label(), "Presto");
        assert_eq!(Scheme::from(SchemeSpec::Incremental { clove_hosts: 8 }).label(), "Clove-ECN (partial)");
    }

    #[test]
    fn tagged_scheme_variants_parse() {
        let m = SchemeSpec::from_json(&Json::parse(r#"{"name":"mptcp","subflows":4}"#).unwrap());
        assert_eq!(m.unwrap(), SchemeSpec::Mptcp { subflows: 4 });
        let p = SchemeSpec::from_json(&Json::parse(r#"{"name":"presto","weights":[0.5,0.5]}"#).unwrap());
        assert_eq!(p.unwrap(), SchemeSpec::Presto { weights: Some(vec![0.5, 0.5]) });
        assert!(SchemeSpec::from_json(&Json::parse(r#"{"name":"nope"}"#).unwrap()).is_err());
        assert!(SchemeSpec::from_json(&Json::parse(r#"{"name":"mptcp"}"#).unwrap()).is_err());
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let json = r#"{"scheme":{"name":"ecmp"},"topology":{"kind":"symmetric"},"load":0.5,"workload":"nope"}"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        assert!(spec.distribution().is_err());
    }

    #[test]
    fn tiny_spec_runs_end_to_end() {
        let json = r#"{"scheme":{"name":"clove-ecn"},"topology":{"kind":"asymmetric"},
                       "load":0.3,"jobs_per_conn":2,"conns_per_client":1,"horizon_secs":10}"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        let report = spec.run().unwrap();
        assert!(report.flows_completed > 0);
        let out_json = report.to_json().render();
        assert!(out_json.contains("avg_fct_s"));
    }

    #[test]
    fn multi_seed_report_is_identical_at_any_jobs_count() {
        let json = r#"{"scheme":{"name":"clove-ecn"},"topology":{"kind":"asymmetric"},
                       "load":0.3,"jobs_per_conn":2,"conns_per_client":1,"horizon_secs":10,
                       "seed":7,"seeds":3}"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        let serial = spec.run_jobs(1).unwrap();
        let parallel = spec.run_jobs(4).unwrap();
        assert_eq!(serial.to_json().render(), parallel.to_json().render());
        assert_eq!(serial.seeds, 3);
    }
}
