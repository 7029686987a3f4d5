//! Serializable experiment specifications — run scenarios from JSON.
//!
//! [`ScenarioSpec`] is the on-disk form of a [`Scenario`]: a JSON file a
//! user can write without touching Rust, consumed by the `clove-run`
//! binary, and a thin one — its `scheme` and `topology` are the real
//! [`Scheme`] and [`TopologyKind`], each with its own codec beside the
//! enum. [`RunReport`] is its JSON output (summary numbers only). Parsing
//! and rendering go through the in-tree [`crate::json`] module so the
//! workspace builds fully offline.

use crate::experiments::{fold_point, pool_fct};
use crate::journal::{Journal, JournalValue};
use crate::json::Json;
use crate::orchestrator;
use crate::profile::Profile;
use crate::scenario::{Scenario, TopologyKind};
use crate::scheme::Scheme;
use clove_sim::{Duration, Time};
use clove_workload::{data_mining, enterprise, web_search, FlowSizeDist};

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
        let num = |key: &str| time_field(v, key)?.ok_or_else(|| format!("node_crash: missing integer field '{key}'"));
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

/// A spec time field (`*_secs`, `*_ms`, `*_us`): decoded through `u32`, so
/// scaling it to the simulator's `u64` nanoseconds cannot overflow.
fn time_field(v: &Json, key: &str) -> Result<Option<u64>, String> {
    Ok(v.uint_field::<u32>(key)?.map(u64::from))
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

/// The one top-level key a spec file may carry besides the spec's own
/// fields: the object a quarantine snapshot adds beside the failed cell's
/// spec, so the snapshot file is itself a `clove-run` input.
pub(crate) const QUARANTINE_KEY: &str = "quarantine";

/// A complete experiment specification.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Load balancer under test.
    pub scheme: Scheme,
    /// Topology variant.
    pub topology: TopologyKind,
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
    /// Capture structured decision traces (`clove-run --trace FILE`):
    /// [`ScenarioSpec::run`] then returns the pooled JSONL next to the
    /// report. CLI-only and *not* part of the spec JSON or journal keys:
    /// tracing must never change the report, and trace runs bypass the
    /// checkpoint journal (a resumed seed has no buffer to replay).
    pub trace: bool,
}

impl ScenarioSpec {
    /// A spec with every field but the three required ones at its default —
    /// the values an omitted JSON key takes.
    pub fn new(scheme: Scheme, topology: TopologyKind, load: f64) -> ScenarioSpec {
        ScenarioSpec {
            scheme,
            topology,
            load,
            workload: "web-search".to_string(),
            jobs_per_conn: 60,
            conns_per_client: 2,
            seed: 0,
            seeds: 1,
            horizon_secs: 30,
            fail_at_ms: None,
            node_crash: None,
            flowlet_gap_us: None,
            ecn_threshold_pkts: None,
            control_loss: None,
            control_loss_at_ms: None,
            strict: false,
            trace: false,
        }
    }

    /// Parse a spec from JSON text, applying defaults for omitted fields and
    /// rejecting top-level keys that are not spec fields.
    /// Integers are range-checked into their field's type; whether the
    /// values describe a runnable scenario is [`Scenario::validate`]'s call.
    pub fn from_json_str(text: &str) -> Result<ScenarioSpec, String> {
        let v = Json::parse(text)?;
        let Json::Obj(members) = &v else {
            return Err("spec must be a JSON object".to_string());
        };
        let scheme = Scheme::from_json(v.get("scheme").ok_or_else(|| "missing field 'scheme'".to_string())?)?;
        let topology = TopologyKind::from_json(v.get("topology").ok_or_else(|| "missing field 'topology'".to_string())?)?;
        let load = v.get("load").and_then(Json::as_f64).ok_or_else(|| "missing numeric field 'load'".to_string())?;
        let d = ScenarioSpec::new(scheme, topology, load);
        // A misspelt key must not run the default in its place. The accepted
        // keys are the ones `to_json` renders, so the two cannot drift.
        let Json::Obj(known) = d.to_json() else { unreachable!("a spec renders as an object") };
        if let Some((key, _)) = members.iter().find(|(key, _)| key != QUARANTINE_KEY && known.iter().all(|(name, _)| name != key)) {
            let want: Vec<&str> = known.iter().map(|(name, _)| name.as_str()).collect();
            return Err(format!("unknown key '{key}' (want {})", want.join(" | ")));
        }
        Ok(ScenarioSpec {
            workload: match v.get("workload") {
                None => d.workload,
                Some(w) => w.as_str().ok_or_else(|| "'workload' must be a string".to_string())?.to_string(),
            },
            jobs_per_conn: v.uint_field("jobs_per_conn")?.unwrap_or(d.jobs_per_conn),
            conns_per_client: v.uint_field("conns_per_client")?.unwrap_or(d.conns_per_client),
            seed: v.uint_field("seed")?.unwrap_or(d.seed),
            seeds: v.uint_field("seeds")?.unwrap_or(d.seeds).max(1),
            horizon_secs: time_field(&v, "horizon_secs")?.unwrap_or(d.horizon_secs),
            fail_at_ms: time_field(&v, "fail_at_ms")?,
            node_crash: match v.get("node_crash") {
                None | Some(Json::Null) => None,
                Some(x) => Some(NodeCrashSpec::from_json(x)?),
            },
            flowlet_gap_us: time_field(&v, "flowlet_gap_us")?,
            ecn_threshold_pkts: v.uint_field("ecn_threshold_pkts")?,
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
            control_loss_at_ms: time_field(&v, "control_loss_at_ms")?,
            strict: match v.get("strict") {
                None | Some(Json::Null) => d.strict,
                Some(x) => x.as_bool().ok_or_else(|| "'strict' must be a boolean".to_string())?,
            },
            ..d
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
            other => Err(format!("workload: unknown '{other}' (want web-search | enterprise | data-mining)")),
        }
    }

    /// Build the runnable [`Scenario`] (for the spec's first seed).
    pub fn to_scenario(&self) -> Scenario {
        let mut s = Scenario::new(self.scheme.clone(), self.topology, self.load, self.seed);
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

    /// Check the whole run description — workload name plus everything
    /// [`Scenario::validate`] gates — before any worker starts. Errors lead
    /// with the offending field.
    pub fn validate(&self) -> Result<(), String> {
        self.distribution()?;
        self.to_scenario().validate()
    }

    /// Run the RPC workload described by this spec, fanning its seeds out
    /// over `jobs` worker threads under panic isolation, and return the
    /// report plus — when [`ScenarioSpec::trace`] is set — the pooled JSONL
    /// decision trace and the count of events dropped at buffer capacity.
    /// Samples and traces are pooled in seed order, so report and dump are
    /// byte-identical at any `jobs` value, and the report is byte-identical
    /// with tracing on or off.
    ///
    /// With a `journal`, completed seeds are recorded under its `clove-run`
    /// scope (keyed by the full spec JSON plus the seed), so an interrupted
    /// invocation re-run with `--resume` serves finished seeds from disk and
    /// only executes the remainder; the report does not change. Trace runs
    /// ignore the journal: a resumed seed has no trace buffer to replay.
    pub fn run(&self, jobs: usize, journal: Option<&Journal>) -> Result<(RunReport, String, u64), String> {
        self.validate()?;
        let dist = self.distribution()?;
        let seeds: Vec<u64> = (0..u64::from(self.seeds.max(1))).map(|i| self.seed.wrapping_add(i)).collect();
        let spec_key = self.to_json().render();
        let outcomes = orchestrator::run_journaled(
            &seeds,
            jobs,
            None, // seeds of one spec are uniform-cost
            journal.filter(|_| !self.trace).map(|j| (j, "clove-run")),
            |&seed| format!("{spec_key}|seed{seed}"),
            |&seed| SeedRun::from_outcome(Scenario { seed, ..self.to_scenario() }.run_rpc(&dist)),
        );
        let runs = fold_point(outcomes, self.seed, self.scheme.label(), |_, _| String::new())
            .map_err(|bad| format!("{} seed(s) quarantined: {}", bad.len(), bad.join("; ")))?;
        let violations: Vec<&str> = runs.iter().flat_map(|run| run.violations.iter().map(String::as_str)).collect();
        if !violations.is_empty() {
            return Err(format!("strict mode: {} invariant violation(s): {}", violations.len(), violations.join("; ")));
        }
        let sum = |field: fn(&SeedRun) -> u64| runs.iter().map(field).sum::<u64>();
        let (events, drops, ecn_marks, timeouts, retransmits) =
            (sum(|run| run.events), sum(|run| run.drops), sum(|run| run.ecn_marks), sum(|run| run.timeouts), sum(|run| run.retransmits));
        let trace_dropped = sum(|run| run.trace_dropped);
        let trace_jsonl: String = runs.iter().map(|run| run.trace_jsonl.as_str()).collect();
        let sim_time_s = runs.iter().map(|run| run.sim_time_s).fold(0.0, f64::max);
        let seeds = runs.len() as u64;
        let mut fct = pool_fct(runs.into_iter().map(|run| run.fct));
        let report = RunReport {
            scheme: self.scheme.label().to_string(),
            load: self.load,
            seeds,
            flows_completed: fct.all.count() as u64,
            flows_incomplete: fct.incomplete as u64,
            avg_fct_s: fct.avg(),
            p50_fct_s: fct.all.p50(),
            p99_fct_s: fct.p99(),
            mice_avg_fct_s: fct.mice.mean(),
            elephant_avg_fct_s: fct.elephants.mean(),
            sim_time_s,
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
/// that [`ScenarioSpec::run`] folds into a [`RunReport`] —
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

    /// The smallest spec around `fields` (extra top-level JSON members).
    fn spec_json(scheme: &str, topology: &str, fields: &str) -> String {
        format!(r#"{{"scheme":{scheme},"topology":{topology},"load":0.5{fields}}}"#)
    }

    fn ecmp_spec(fields: &str) -> String {
        spec_json(r#"{"name":"ecmp"}"#, r#"{"kind":"symmetric"}"#, fields)
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec {
            jobs_per_conn: 10,
            conns_per_client: 1,
            seed: 42,
            horizon_secs: 10,
            fail_at_ms: Some(100),
            node_crash: Some(NodeCrashSpec { node: clove_net::fault::NodeSelector::Leaf(1), at_ms: 20, down_ms: 15, cold: true }),
            flowlet_gap_us: Some(150),
            ecn_threshold_pkts: Some(30),
            control_loss: Some(0.2),
            control_loss_at_ms: Some(20),
            strict: true,
            ..ScenarioSpec::new(Scheme::CloveEcn, TopologyKind::Asymmetric, 0.7)
        };
        let json = spec.to_json().render_pretty();
        let back = ScenarioSpec::from_json_str(&json).unwrap();
        assert_eq!(back.load, 0.7);
        assert_eq!(back.scheme, Scheme::CloveEcn);
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
    fn spec_round_trips_with_every_scheme_and_topology() {
        for scheme in Scheme::all() {
            for topology in TopologyKind::all() {
                let spec = ScenarioSpec::new(scheme.clone(), topology, 0.6);
                let text = spec.to_json().render();
                let back = ScenarioSpec::from_json_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
                assert_eq!((&back.scheme, back.topology), (&scheme, topology));
                assert_eq!(back.to_json().render(), text, "decode then encode is the identity");
                back.validate().unwrap_or_else(|e| panic!("{text}: {e}"));
            }
        }
    }

    #[test]
    fn node_crash_spec_parses_and_builds_the_plan() {
        let json = spec_json(r#"{"name":"clove-ecn"}"#, r#"{"kind":"symmetric"}"#, r#","node_crash":{"node":"host3","at_ms":20,"down_ms":10,"state":"warm"}"#);
        let spec = ScenarioSpec::from_json_str(&json).unwrap();
        let crash = spec.node_crash.expect("node crash parsed");
        assert_eq!(crash.node, clove_net::fault::NodeSelector::Host(3));
        assert!(!crash.cold);
        let s = spec.to_scenario();
        assert_eq!(s.faults.node_specs.len(), 1);
        assert_eq!(s.faults.node_specs[0].window(), (Time::from_millis(20), Time::from_millis(30)));
        assert!(!s.faults.node_specs[0].is_cold());
        // State defaults to cold.
        let json = ecmp_spec(r#","node_crash":{"node":"spine1","at_ms":5,"down_ms":5}"#);
        assert!(ScenarioSpec::from_json_str(&json).unwrap().node_crash.unwrap().cold);
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
            assert!(ScenarioSpec::from_json_str(&ecmp_spec(&format!(r#","node_crash":{bad}"#))).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn control_loss_rate_is_validated() {
        assert!(ScenarioSpec::from_json_str(&ecmp_spec(r#","control_loss":1.5"#)).is_err());
        assert!(ScenarioSpec::from_json_str(&ecmp_spec(r#","strict":"yes""#)).is_err());
    }

    /// Decode and validate, as `clove-run` does before fanning out.
    fn gate(json: &str) -> Result<(), String> {
        ScenarioSpec::from_json_str(json)?.validate()
    }

    #[test]
    fn out_of_range_specs_are_rejected_naming_the_field() {
        let mptcp = |subflows: &str| spec_json(&format!(r#"{{"name":"mptcp","subflows":{subflows}}}"#), r#"{"kind":"symmetric"}"#, "");
        let fat_tree = |k: &str| spec_json(r#"{"name":"ecmp"}"#, &format!(r#"{{"kind":"fat-tree","k":{k}}}"#), "");
        let load = |load: &str| format!(r#"{{"scheme":{{"name":"ecmp"}},"topology":{{"kind":"symmetric"}},"load":{load}}}"#);
        for (json, field) in [
            (load("0"), "load"),
            (load("-0.5"), "load"),
            (load("1.6"), "load"),
            (ecmp_spec(r#","conns_per_client":0"#), "conns_per_client"),
            (ecmp_spec(r#","conns_per_client":65"#), "conns_per_client"),
            (ecmp_spec(r#","jobs_per_conn":0"#), "jobs_per_conn"),
            (ecmp_spec(r#","jobs_per_conn":4294967298"#), "jobs_per_conn"),
            (ecmp_spec(r#","ecn_threshold_pkts":4294967296"#), "ecn_threshold_pkts"),
            (ecmp_spec(r#","horizon_secs":18446744073"#), "horizon_secs"),
            (fat_tree("3"), "topology.k"),
            (fat_tree("2"), "topology.k"),
            (fat_tree("20"), "topology.k"),
            (fat_tree("4294967298"), "'k'"),
            (mptcp("0"), "scheme.subflows"),
            (mptcp("17"), "scheme.subflows"),
            (mptcp("4294967297"), "'subflows'"),
            (spec_json(r#"{"name":"incremental","clove_hosts":33}"#, r#"{"kind":"symmetric"}"#, ""), "scheme.clove_hosts"),
        ] {
            let err = gate(&json).expect_err(&json);
            assert!(err.contains(field), "{json}: error must name {field}: {err}");
        }
        // The oversized subflow count never reaches a run: it fails at decode.
        assert!(ScenarioSpec::from_json_str(&mptcp("4294967297")).is_err());
        // The edges of each range are accepted.
        for json in [load("1.5"), ecmp_spec(r#","conns_per_client":64"#), fat_tree("4"), mptcp("16")] {
            gate(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
        }
    }

    #[test]
    fn strict_lossy_spec_runs_clean_end_to_end() {
        let json = r#"{"scheme":{"name":"clove-ecn"},"topology":{"kind":"symmetric"},
                       "load":0.3,"jobs_per_conn":2,"conns_per_client":1,"horizon_secs":10,
                       "control_loss":0.5,"control_loss_at_ms":5,"strict":true}"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        let (report, _, _) = spec.run(1, None).unwrap();
        assert!(report.strict);
        assert!(report.flows_completed > 0);
        assert!(report.to_json().render().contains("\"strict\":true"));
    }

    #[test]
    fn minimal_json_uses_defaults() {
        let spec = ScenarioSpec::from_json_str(&ecmp_spec("")).unwrap();
        assert_eq!(spec.jobs_per_conn, 60);
        assert_eq!(spec.workload, "web-search");
        assert!(spec.fail_at_ms.is_none());
        let s = spec.to_scenario();
        assert_eq!(s.load, 0.5);
    }

    #[test]
    fn scheme_specs_map_to_schemes() {
        let label = |json: &str| Scheme::from_json(&Json::parse(json).unwrap()).unwrap().label();
        assert_eq!(label(r#"{"name":"mptcp","subflows":4}"#), "MPTCP");
        assert_eq!(label(r#"{"name":"hula"}"#), "HULA");
        assert_eq!(label(r#"{"name":"presto"}"#), "Presto");
        assert_eq!(label(r#"{"name":"incremental","clove_hosts":8}"#), "Clove-ECN (partial)");
    }

    #[test]
    fn tagged_scheme_variants_parse() {
        let parse = |json: &str| Scheme::from_json(&Json::parse(json).unwrap());
        assert_eq!(parse(r#"{"name":"mptcp","subflows":4}"#).unwrap(), Scheme::Mptcp { subflows: 4 });
        assert_eq!(parse(r#"{"name":"presto","weights":[0.5,0.5]}"#).unwrap(), Scheme::Presto { oracle_weights: Some(vec![0.5, 0.5]) });
        assert!(parse(r#"{"name":"nope"}"#).unwrap_err().contains("want ecmp | edge-flowlet"), "an unknown name lists the accepted ones");
        assert!(parse(r#"{"name":"mptcp"}"#).is_err());
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let spec = ScenarioSpec::from_json_str(&ecmp_spec(r#","workload":"nope""#)).unwrap();
        assert!(spec.distribution().is_err());
        assert!(spec.validate().unwrap_err().starts_with("workload:"));
    }

    #[test]
    fn tiny_spec_runs_end_to_end() {
        let json = r#"{"scheme":{"name":"clove-ecn"},"topology":{"kind":"asymmetric"},
                       "load":0.3,"jobs_per_conn":2,"conns_per_client":1,"horizon_secs":10}"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        let (report, trace, dropped) = spec.run(1, None).unwrap();
        assert!(report.flows_completed > 0);
        assert!(trace.is_empty() && dropped == 0, "no trace unless the spec asks for one");
        let out_json = report.to_json().render();
        assert!(out_json.contains("avg_fct_s"));
    }

    #[test]
    fn report_names_the_scheme_by_its_table_label() {
        // One tiny run per variant: the `scheme` value is `Scheme::label()`
        // — the string every table and CSV keys on — never a `Debug` dump.
        for scheme in Scheme::all() {
            let spec =
                ScenarioSpec { jobs_per_conn: 1, conns_per_client: 1, horizon_secs: 5, ..ScenarioSpec::new(scheme.clone(), TopologyKind::Symmetric, 0.2) };
            let (report, _, _) = spec.run(1, None).unwrap_or_else(|e| panic!("{}: {e}", scheme.label()));
            assert_eq!(report.scheme, scheme.label());
            assert_eq!(report.to_json().get("scheme").and_then(Json::as_str), Some(scheme.label()));
        }
    }

    #[test]
    fn multi_seed_report_is_identical_at_any_jobs_count() {
        let json = r#"{"scheme":{"name":"clove-ecn"},"topology":{"kind":"asymmetric"},
                       "load":0.3,"jobs_per_conn":2,"conns_per_client":1,"horizon_secs":10,
                       "seed":7,"seeds":3}"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        let (serial, _, _) = spec.run(1, None).unwrap();
        let (parallel, _, _) = spec.run(4, None).unwrap();
        assert_eq!(serial.to_json().render(), parallel.to_json().render());
        assert_eq!(serial.seeds, 3);
    }
}
