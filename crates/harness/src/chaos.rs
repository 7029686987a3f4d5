//! The chaos fuzzer behind `clove-run chaos`: seeded fault plans, the
//! campaign that runs them and the shrinker that minimizes what it finds.
//!
//! Each iteration draws a random [`ChaosPlan`] — a cable-fault timeline,
//! node crash-restarts that lower to their incident cable sets plus
//! warm/cold restart semantics, and a control-plane fault timeline — picks
//! a scheme, and runs a quick-scale strict RPC scenario under the
//! [`InvariantMonitor`](crate::InvariantMonitor). Plans are drawn over the
//! paper testbed's extents only, so every one validates and resolves: the
//! fuzzer probes *behaviour*, not input parsing.
//! A *finding* is any plan whose run panics or trips an invariant; the
//! plan is then minimized by greedy spec deletion (same scheme, same
//! seed — the simulator's determinism makes the oracle exact) so the
//! report shows the smallest timeline that still reproduces the
//! violation.
//!
//! Everything is derived from one CLI seed: iteration `i` fuzzes with
//! `splitmix(seed, i)`, so `clove-run chaos --runs N --seed S` produces
//! the same findings (and the same shrunk plans) on every machine, at any
//! `--jobs` width — CI pins a seed and compares the `--out` reports of two
//! widths byte for byte.

use crate::json::Json;
use crate::orchestrator::run_matrix;
use crate::scenario::{Scenario, TopologyKind};
use crate::scheme::Scheme;
use clove_net::fault::{
    CableSelector, ControlAction, ControlFaultPlan, ControlFaultSpec, FaultKind, FaultPlan, FaultSpec, LinkAction, NodeFaultSpec, NodeSelector,
};
use clove_sim::{Duration, SimRng, Time};
use clove_workload::{web_search, FlowSizeDist};
use std::panic::{catch_unwind, AssertUnwindSafe};

// The sampling domain: the paper testbed's extents (§5: 2 leaves × 2
// spines, 2-cable trunks, 32 hosts), so every selector a plan draws
// resolves on the topology `chaos_scenario` builds.
const LEAVES: u32 = 2;
const SPINES: u32 = 2;
const TRUNK: u32 = 2;
const HOSTS: u32 = 32;
/// Fault times are drawn in `[0, HORIZON)`: inside the busy first
/// half-second the quick scenario runs through.
const HORIZON: Duration = Duration::from_millis(500);
/// Most cable specs per plan. At least one is always drawn — an empty plan
/// is a clean run and fuzzes nothing.
const MAX_FAULTS: u64 = 4;
/// Most node crash-restarts per plan (none is fine).
const MAX_NODE_FAULTS: u64 = 2;
/// Most control-plane specs per plan (none is fine: link faults alone are
/// a valid chaos case).
const MAX_CONTROL_FAULTS: u64 = 3;

/// Chaos campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Fuzz iterations.
    pub runs: u32,
    /// Master seed; every iteration derives its own stream from it.
    pub seed: u64,
    /// Worker threads (iterations are independent; findings come back in
    /// iteration order regardless).
    pub jobs: usize,
    /// Maximum oracle re-runs the shrinker may spend per finding.
    pub shrink_budget: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig { runs: 20, seed: 1, jobs: 1, shrink_budget: 64 }
    }
}

/// One violating chaos case, minimized.
#[derive(Debug, Clone)]
pub struct ChaosFinding {
    /// Which iteration found it.
    pub run: u32,
    /// The derived per-iteration seed (re-run with this to reproduce).
    pub seed: u64,
    /// Scheme under test.
    pub scheme: String,
    /// The minimized plan that still violates.
    pub plan: ChaosPlan,
    /// Spec count of the plan as generated, before shrinking.
    pub original_len: usize,
    /// Oracle re-runs the shrinker spent.
    pub shrink_calls: usize,
    /// What went wrong: the first invariant violation, or the panic text.
    pub violation: String,
}

/// The campaign's result: every finding, in iteration order.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Iterations executed.
    pub runs: u32,
    /// Master seed the campaign derived everything from.
    pub seed: u64,
    /// Violating cases, minimized, in iteration order.
    pub findings: Vec<ChaosFinding>,
}

impl ChaosReport {
    /// True when no iteration violated anything.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable summary (one block per finding).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## Chaos fuzz — {} runs, seed {}: {} finding(s)", self.runs, self.seed, self.findings.len());
        for f in &self.findings {
            let _ = writeln!(
                out,
                "run {} (seed {}, {}): {} — plan shrunk {} -> {} spec(s) in {} oracle call(s)",
                f.run,
                f.seed,
                f.scheme,
                f.violation,
                f.original_len,
                f.plan.len(),
                f.shrink_calls
            );
            let _ = writeln!(out, "{}", f.plan.describe());
        }
        out
    }

    /// Machine-readable form, written atomically by `clove-run chaos`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("runs".into(), Json::Num(self.runs as f64)),
            ("seed".into(), Json::Num(self.seed as f64)),
            (
                "findings".into(),
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                ("run".into(), Json::Num(f.run as f64)),
                                ("seed".into(), Json::Num(f.seed as f64)),
                                ("scheme".into(), Json::Str(f.scheme.clone())),
                                ("violation".into(), Json::Str(f.violation.clone())),
                                ("original_len".into(), Json::Num(f.original_len as f64)),
                                ("shrunk_len".into(), Json::Num(f.plan.len() as f64)),
                                ("shrink_calls".into(), Json::Num(f.shrink_calls as f64)),
                                ("plan".into(), Json::Str(f.plan.describe())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One generated chaos case: a link-fault timeline (cable and node specs)
/// plus a control-plane fault timeline, applied together to a scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// Cable and node faults.
    pub faults: FaultPlan,
    /// Probe/feedback control-plane faults.
    pub control: ControlFaultPlan,
}

impl ChaosPlan {
    /// Total spec count across both timelines (cable, node and control
    /// specs all count — the shrinker's progress metric).
    pub fn len(&self) -> usize {
        self.faults.specs.len() + self.faults.node_specs.len() + self.control.specs.len()
    }

    /// True if both timelines are empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.control.is_empty()
    }

    /// Draw a plan from the testbed's fault space: same rng state, same
    /// plan, forever.
    fn generate(rng: &mut SimRng) -> ChaosPlan {
        let mut faults = FaultPlan::none();
        for _ in 0..rng.range(1, MAX_FAULTS + 1) {
            faults.push(FaultSpec { at: random_time(rng), cable: random_cable(rng), kind: random_kind(rng), announced: rng.chance(0.5) });
        }
        for _ in 0..rng.below(MAX_NODE_FAULTS + 1) {
            faults.push_node(NodeFaultSpec {
                at: random_time(rng),
                node: random_node(rng),
                // Reboots from sub-probe-round blips to multi-round
                // outages; always positive, as validate requires.
                down_for: Duration::from_micros(rng.range(500, 50_000)),
                cold: rng.chance(0.5),
                announced: rng.chance(0.5),
            });
        }
        let mut control = ControlFaultPlan::none();
        for _ in 0..rng.below(MAX_CONTROL_FAULTS + 1) {
            control.push(ControlFaultSpec { at: random_time(rng), action: random_control_action(rng) });
        }
        ChaosPlan { faults, control }
    }

    /// One line per spec, in insertion order within each timeline — the
    /// shape findings reports print: ns times, selectors by name, actions
    /// by their trace names with their parameters.
    pub fn describe(&self) -> String {
        let mut lines = Vec::new();
        for spec in &self.faults.specs {
            let cable = match spec.cable {
                CableSelector::LeafSpine { leaf, spine, which } => format!("leaf{leaf}-spine{spine}#{which}"),
                CableSelector::Access { host } => format!("host{host}-access"),
                CableSelector::Index(i) => format!("cable{i}"),
            };
            let kind = match spec.kind {
                FaultKind::Set(action @ (LinkAction::Down | LinkAction::Up)) => action.name().to_string(),
                FaultKind::Set(action @ (LinkAction::SetRate(x) | LinkAction::SetLoss(x))) => format!("{} {x}", action.name()),
                FaultKind::Flap { period, duty, count } => format!("flap period={}ns duty={duty} count={count}", period.0),
            };
            lines.push(format!("  link  t={:>12}ns {cable} {kind} announced={}", spec.at.0, spec.announced));
        }
        for spec in &self.faults.node_specs {
            let node = spec.node;
            lines.push(format!(
                "  node  t={:>12}ns {}{} down_for={}ns cold={} announced={}",
                spec.at.0,
                node.tier(),
                node.index(),
                spec.down_for.0,
                spec.cold,
                spec.announced
            ));
        }
        for spec in &self.control.specs {
            let value = match spec.action {
                ControlAction::SetFeedbackDelay(delay) => format!("{}ns", delay.0),
                ControlAction::SetProbeLoss(rate)
                | ControlAction::SetReplyLoss(rate)
                | ControlAction::SetFeedbackLoss(rate)
                | ControlAction::SetFeedbackCorrupt(rate) => rate.to_string(),
            };
            lines.push(format!("  ctrl  t={:>12}ns {} {value}", spec.at.0, spec.action.name()));
        }
        lines.join("\n")
    }
}

fn random_time(rng: &mut SimRng) -> Time {
    Time(rng.below(HORIZON.0))
}

fn random_cable(rng: &mut SimRng) -> CableSelector {
    // Bias toward trunk cables: that is where load-balancing faults live.
    if rng.chance(0.25) {
        CableSelector::Access { host: rng.below(HOSTS.into()) as u32 }
    } else {
        CableSelector::LeafSpine { leaf: rng.below(LEAVES.into()) as u32, spine: rng.below(SPINES.into()) as u32, which: rng.below(TRUNK.into()) as u32 }
    }
}

fn random_node(rng: &mut SimRng) -> NodeSelector {
    // Hosts get half the draws: hypervisor crash-recovery is the vswitch
    // state machine under test; switch reboots cover the fabric side.
    match rng.below(4) {
        0 => NodeSelector::Leaf(rng.below(LEAVES.into()) as u32),
        1 => NodeSelector::Spine(rng.below(SPINES.into()) as u32),
        _ => NodeSelector::Host(rng.below(HOSTS.into()) as u32),
    }
}

fn random_kind(rng: &mut SimRng) -> FaultKind {
    match rng.below(5) {
        0 => FaultKind::Set(LinkAction::Down),
        1 => FaultKind::Set(LinkAction::Up),
        2 => FaultKind::Set(LinkAction::SetRate(0.05 + 0.95 * rng.f64())),
        3 => FaultKind::Set(LinkAction::SetLoss(0.9 * rng.f64())),
        _ => FaultKind::Flap { period: Duration::from_micros(rng.range(200, 20_000)), duty: 0.1 + 0.8 * rng.f64(), count: rng.range(1, 5) as u32 },
    }
}

fn random_control_action(rng: &mut SimRng) -> ControlAction {
    match rng.below(5) {
        0 => ControlAction::SetProbeLoss(0.9 * rng.f64()),
        1 => ControlAction::SetReplyLoss(0.9 * rng.f64()),
        2 => ControlAction::SetFeedbackLoss(0.9 * rng.f64()),
        3 => ControlAction::SetFeedbackDelay(Duration::from_micros(rng.range(0, 5_000))),
        _ => ControlAction::SetFeedbackCorrupt(0.9 * rng.f64()),
    }
}

/// Greedily minimize a violating plan: repeatedly try deleting one spec
/// and keep the deletion whenever `still_fails` confirms the violation
/// persists. Runs to a fixpoint (no single deletion preserves the
/// failure) or until `budget` oracle calls are spent. Returns the
/// minimized plan and the number of oracle calls used.
///
/// The result is 1-minimal with respect to spec deletion when the budget
/// suffices — not globally minimal, which is fine for a triage report.
fn shrink<F>(plan: &ChaosPlan, mut still_fails: F, budget: usize) -> (ChaosPlan, usize)
where
    F: FnMut(&ChaosPlan) -> bool,
{
    // The plan's three spec lists in visiting order: (length, delete one).
    type SpecList = (fn(&ChaosPlan) -> usize, fn(&mut ChaosPlan, usize));
    let lists: [SpecList; 3] = [
        (|p| p.faults.specs.len(), |p, i| _ = p.faults.specs.remove(i)),
        (|p| p.faults.node_specs.len(), |p, i| _ = p.faults.node_specs.remove(i)),
        (|p| p.control.specs.len(), |p, i| _ = p.control.specs.remove(i)),
    ];
    let mut best = plan.clone();
    let mut calls = 0usize;
    loop {
        let mut progressed = false;
        for (len, remove) in lists {
            // Walk indices from the back so a successful deletion does not
            // shift the indices still to be tried this pass.
            for i in (0..len(&best)).rev() {
                if calls >= budget {
                    return (best, calls);
                }
                let mut candidate = best.clone();
                remove(&mut candidate, i);
                calls += 1;
                if still_fails(&candidate) {
                    best = candidate;
                    progressed = true;
                }
            }
        }
        if !progressed {
            return (best, calls);
        }
    }
}

/// The schemes chaos rotates through: the two Clove variants (the code
/// under test) plus Edge-Flowlet (the feedback-free control — a violation
/// there implicates the substrate, not the congestion logic).
fn chaos_schemes() -> Vec<Scheme> {
    vec![Scheme::CloveEcn, Scheme::CloveInt, Scheme::EdgeFlowlet]
}

/// Mix iteration `i` into the master seed (splitmix64 finalizer) so each
/// iteration gets an independent, order-independent stream.
fn derive_seed(master: u64, i: u32) -> u64 {
    let mut z = master.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The quick-scale strict scenario one chaos case runs.
fn chaos_scenario(scheme: Scheme, plan: &ChaosPlan, seed: u64) -> Scenario {
    let mut s = Scenario::new(scheme, TopologyKind::Symmetric, 0.6, seed);
    s.jobs_per_conn = 8;
    s.conns_per_client = 1;
    s.horizon = Time::from_secs(5);
    s.strict = true;
    // Faults land inside the busy first half-second of the run.
    s.profile.probe_interval = Duration::from_millis(5);
    s.faults = plan.faults.clone();
    s.control_faults = plan.control.clone();
    s
}

/// Run one case and report what (if anything) went wrong. The oracle for
/// both discovery and shrinking: deterministic in (scheme, plan, seed).
fn violation_of(scheme: &Scheme, plan: &ChaosPlan, seed: u64, dist: &FlowSizeDist) -> Option<String> {
    let s = chaos_scenario(scheme.clone(), plan, seed);
    match catch_unwind(AssertUnwindSafe(|| s.try_run_rpc(dist))) {
        Ok(Ok(out)) => out.violations.first().map(|v| format!("invariant violation: {v}")),
        Ok(Err(e)) => Some(format!("scenario rejected a generated plan (generator bug): {e}")),
        Err(payload) => Some(format!("panicked: {}", crate::orchestrator::panic_message(payload))),
    }
}

/// Run the campaign: `cfg.runs` seeded iterations, violating plans
/// shrunk to (locally) minimal timelines. Iterations fan out over
/// `cfg.jobs` workers; the report is identical at any width.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let dist = web_search();
    let schemes = chaos_schemes();
    let iterations: Vec<u32> = (0..cfg.runs).collect();
    let findings = run_matrix(&iterations, cfg.jobs, |&i| {
        let seed = derive_seed(cfg.seed, i);
        let mut rng = SimRng::new(seed);
        let plan = ChaosPlan::generate(&mut rng);
        let scheme = &schemes[rng.below(schemes.len() as u64) as usize];
        let violation = violation_of(scheme, &plan, seed, &dist)?;
        let original_len = plan.len();
        let (minimized, shrink_calls) = shrink(&plan, |candidate| violation_of(scheme, candidate, seed, &dist).is_some(), cfg.shrink_budget);
        // Re-derive the violation text from the minimized plan so the
        // report describes what the shrunk timeline actually does.
        let violation = violation_of(scheme, &minimized, seed, &dist).unwrap_or(violation);
        Some(ChaosFinding { run: i, seed, scheme: scheme.label().to_string(), plan: minimized, original_len, shrink_calls, violation })
    });
    ChaosReport { runs: cfg.runs, seed: cfg.seed, findings: findings.into_iter().flatten().collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_order_independent_and_distinct() {
        let a: Vec<u64> = (0..10).map(|i| derive_seed(42, i)).collect();
        let b: Vec<u64> = (0..10).rev().map(|i| derive_seed(42, i)).rev().collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let mut a = SimRng::new(77);
        let mut b = SimRng::new(77);
        for _ in 0..50 {
            assert_eq!(ChaosPlan::generate(&mut a), ChaosPlan::generate(&mut b));
        }
        let mut c = SimRng::new(78);
        let differs = (0..50).any(|_| ChaosPlan::generate(&mut SimRng::new(77)) != ChaosPlan::generate(&mut c));
        assert!(differs, "different seeds should explore different plans");
    }

    #[test]
    fn generated_plans_validate_and_stay_in_space() {
        let mut rng = SimRng::new(123);
        for _ in 0..500 {
            let plan = ChaosPlan::generate(&mut rng);
            assert!(!plan.faults.is_empty(), "chaos plans always carry at least one link fault");
            assert!(plan.faults.specs.len() as u64 <= MAX_FAULTS);
            assert!(plan.faults.node_specs.len() as u64 <= MAX_NODE_FAULTS);
            assert!(plan.control.specs.len() as u64 <= MAX_CONTROL_FAULTS);
            plan.faults.validate().expect("generated fault plan must validate");
            plan.control.validate().expect("generated control plan must validate");
            for spec in &plan.faults.specs {
                assert!(spec.at < Time(HORIZON.0));
                match spec.cable {
                    CableSelector::LeafSpine { leaf, spine, which } => {
                        assert!(leaf < LEAVES && spine < SPINES && which < TRUNK);
                    }
                    CableSelector::Access { host } => assert!(host < HOSTS),
                    CableSelector::Index(_) => panic!("generator never emits raw-index selectors"),
                }
            }
            for spec in &plan.faults.node_specs {
                assert!(spec.at < Time(HORIZON.0));
                match spec.node {
                    NodeSelector::Leaf(l) => assert!(l < LEAVES),
                    NodeSelector::Spine(sp) => assert!(sp < SPINES),
                    NodeSelector::Host(h) => assert!(h < HOSTS),
                }
                assert!(spec.down_for.0 > 0, "validate requires a positive reboot window");
            }
        }
        let mut rng = SimRng::new(123);
        let any_node = (0..500).any(|_| !ChaosPlan::generate(&mut rng).faults.node_specs.is_empty());
        assert!(any_node, "the generator must actually exercise node faults");
    }

    /// The generator's stream for seeds 0..64 as `describe` renders it: ns
    /// times, selectors, action trace names and parameters, reboot
    /// windows, cold and announced flags — and no `Debug` output, so a
    /// reshaped fault type cannot change it unless a draw moved.
    fn generated_stream() -> String {
        (0..64).map(|seed| ChaosPlan::generate(&mut SimRng::new(seed)).describe() + "\n").collect()
    }

    #[test]
    fn the_generator_stream_is_pinned() {
        let stream = generated_stream();
        assert_eq!(crate::journal::fnv1a64(&stream), 0x1c16_561f_c871_0c67, "{stream}");
    }

    #[test]
    fn describe_pins_one_line_per_timeline() {
        let stream = generated_stream();
        let first = |prefix: &str| stream.lines().find(|line| line.starts_with(prefix)).unwrap_or_default().to_string();
        assert_eq!(first("  link"), "  link  t=   373887046ns host13-access set_loss 0.8997735926104078 announced=true");
        assert_eq!(first("  node"), "  node  t=   160808933ns host31 down_for=15479000ns cold=false announced=false");
        assert_eq!(first("  ctrl"), "  ctrl  t=   445037070ns set_probe_loss 0.26289275912181953");
        assert_eq!(
            first("  link  t=    55169929ns"),
            "  link  t=    55169929ns host3-access flap period=14228000ns duty=0.5802363104889855 count=3 announced=false"
        );
    }

    #[test]
    fn shrink_strips_innocent_node_specs() {
        // Oracle: the violation needs any *cold* node crash — cable and
        // control specs, and warm crashes, are noise the shrinker strips.
        let mut rng = SimRng::new(11);
        let mut plan = ChaosPlan::generate(&mut rng);
        plan.faults.node_specs.clear();
        plan.faults.push_node(NodeFaultSpec {
            at: Time::from_millis(2),
            node: NodeSelector::Host(5),
            down_for: Duration::from_millis(1),
            cold: false,
            announced: true,
        });
        plan.faults.push_node(NodeFaultSpec {
            at: Time::from_millis(3),
            node: NodeSelector::Leaf(1),
            down_for: Duration::from_millis(1),
            cold: true,
            announced: false,
        });
        let guilty = |p: &ChaosPlan| p.faults.node_specs.iter().any(|s| s.cold);
        assert!(guilty(&plan));
        let (min, _) = shrink(&plan, guilty, 1000);
        assert_eq!(min.len(), 1, "only the cold crash should survive: {min:?}");
        assert!(min.faults.node_specs[0].cold);
    }

    #[test]
    fn shrink_finds_the_one_guilty_spec() {
        // Oracle: the violation needs any loss spec — everything else is
        // noise the shrinker should strip.
        let is_loss = |s: &FaultSpec| matches!(s.kind, FaultKind::Set(LinkAction::SetLoss(_)));
        let mut rng = SimRng::new(9);
        let mut plan = ChaosPlan::generate(&mut rng);
        plan.faults.specs.retain(|s| !is_loss(s));
        plan.faults.extend(FaultPlan::loss(Time::from_millis(3), CableSelector::S2_L2, 0.5));
        let guilty = |p: &ChaosPlan| p.faults.specs.iter().any(is_loss);
        assert!(guilty(&plan));
        let (min, calls) = shrink(&plan, guilty, 1000);
        assert_eq!(min.len(), 1, "shrinker should strip every innocent spec: {min:?}");
        assert!(is_loss(&min.faults.specs[0]));
        assert!(calls <= 1000);
    }

    #[test]
    fn shrink_needs_both_specs_keeps_both() {
        // Oracle: violation requires a link fault AND a control fault.
        let mut plan = ChaosPlan::default();
        plan.faults.extend(FaultPlan::cut(Time::from_millis(1), CableSelector::S2_L2));
        plan.faults.extend(FaultPlan::degrade(Time::from_millis(2), CableSelector::Index(0), 0.5));
        plan.control.push(ControlFaultSpec { at: Time::from_millis(1), action: ControlAction::SetProbeLoss(0.5) });
        let oracle = |p: &ChaosPlan| !p.faults.is_empty() && !p.control.is_empty();
        let (min, _) = shrink(&plan, oracle, 1000);
        assert_eq!(min.faults.specs.len(), 1);
        assert_eq!(min.control.specs.len(), 1);
    }

    #[test]
    fn shrink_respects_budget_and_never_loses_the_failure() {
        // Three draws' timelines in one plan: more specs than one draw
        // carries.
        let mut rng = SimRng::new(55);
        let mut plan = ChaosPlan::generate(&mut rng);
        for _ in 0..2 {
            let more = ChaosPlan::generate(&mut rng);
            plan.faults.extend(more.faults);
            plan.control.specs.extend(more.control.specs);
        }
        let total = plan.len();
        let oracle = |p: &ChaosPlan| !p.faults.is_empty();
        let (min, calls) = shrink(&plan, oracle, 2);
        assert!(calls <= 2);
        assert!(oracle(&min), "shrinker must never return a plan the oracle rejects");
        assert!(!min.is_empty() && min.len() <= total);
    }

    #[test]
    fn describe_lists_every_spec() {
        let mut rng = SimRng::new(4);
        let plan = ChaosPlan::generate(&mut rng);
        let text = plan.describe();
        assert_eq!(text.lines().count(), plan.len());
    }

    #[test]
    fn chaos_campaign_is_deterministic_across_jobs() {
        let base = ChaosConfig { runs: 2, seed: 7, jobs: 1, shrink_budget: 8 };
        let serial = run_chaos(&base);
        let parallel = run_chaos(&ChaosConfig { jobs: 4, ..base });
        assert_eq!(serial.render(), parallel.render());
        assert_eq!(serial.to_json().render(), parallel.to_json().render());
    }

    #[test]
    fn report_renders_and_encodes() {
        let report = ChaosReport {
            runs: 3,
            seed: 9,
            findings: vec![ChaosFinding {
                run: 1,
                seed: 1234,
                scheme: "Clove-ECN".into(),
                plan: ChaosPlan::default(),
                original_len: 4,
                shrink_calls: 6,
                violation: "invariant violation: queue bound exceeded".into(),
            }],
        };
        assert!(!report.clean());
        let text = report.render();
        assert!(text.contains("3 runs"));
        assert!(text.contains("queue bound exceeded"));
        assert!(text.contains("4 -> 0 spec(s)"));
        let json = report.to_json().render();
        assert!(json.contains("\"shrunk_len\""));
        assert!(Json::parse(&json).is_ok());
    }
}
