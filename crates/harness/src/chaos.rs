//! The chaos-fuzz driver behind `clove-run chaos`.
//!
//! Each iteration draws a random [`ChaosPlan`] (a cable-fault timeline,
//! node crash-restarts that lower to their incident cable sets plus
//! warm/cold restart semantics, and a control-plane fault timeline —
//! always valid by construction, see [`clove_net::chaos`]), picks a
//! scheme, and runs a quick-scale strict RPC scenario under the
//! [`InvariantMonitor`](crate::InvariantMonitor).
//! A *finding* is any plan whose run panics or trips an invariant; the
//! plan is then minimized with the greedy [`shrink`](clove_net::chaos::shrink)
//! loop (same scheme, same seed — the simulator's determinism makes the
//! oracle exact) so the report shows the smallest timeline that still
//! reproduces the violation.
//!
//! Everything is derived from one CLI seed: iteration `i` fuzzes with
//! `splitmix(seed, i)`, so `clove-run chaos --runs N --seed S` produces
//! the same findings (and the same shrunk plans) on every machine, at any
//! `--jobs` width — CI pins a seed and diffs nothing but the exit code.

use crate::json::Json;
use crate::orchestrator::run_matrix;
use crate::scenario::{Scenario, TopologyKind};
use crate::scheme::Scheme;
use clove_net::chaos::{shrink, ChaosPlan, ChaosSpace};
use clove_sim::{Duration, SimRng, Time};
use clove_workload::{web_search, FlowSizeDist};
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// The sampling domain: the paper testbed's extents (including node
/// crash-restarts — the joint node × cable × control space), fault times
/// inside the window the quick scenario actually runs through.
fn chaos_space() -> ChaosSpace {
    ChaosSpace::paper_testbed(Duration::from_millis(500))
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
    let space = chaos_space();
    let schemes = chaos_schemes();
    let iterations: Vec<u32> = (0..cfg.runs).collect();
    let findings = run_matrix(&iterations, cfg.jobs, |&i| {
        let seed = derive_seed(cfg.seed, i);
        let mut rng = SimRng::new(seed);
        let plan = ChaosPlan::generate(&mut rng, &space);
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
