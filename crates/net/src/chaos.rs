//! Chaos-fuzz plan generation: seeded random walks over the fault space.
//!
//! `clove-run chaos` hammers strict-mode scenarios with randomly generated
//! [`FaultPlan`] × [`ControlFaultPlan`] timelines and reports any plan that
//! makes the invariant monitor fire (or the run panic). This module owns
//! the *plan* side of that loop so it can be property-tested without a
//! simulator in the loop:
//!
//! * [`ChaosSpace`] bounds the sampling domain — topology extents, the
//!   time horizon, and how many specs a plan may carry. Selectors are
//!   drawn only from forms the space can resolve, so a generated plan
//!   always passes [`FaultPlan::validate`] and resolves against the
//!   topology it was sized for; the fuzzer probes *behaviour*, not input
//!   parsing.
//! * [`ChaosPlan::generate`] draws a plan from a [`SimRng`] — same seed,
//!   same plan, forever; CI pins a seed.
//! * [`shrink`] greedily minimizes a violating plan by deleting one spec
//!   at a time while an oracle keeps reporting the violation, so findings
//!   land in the report at (locally) minimal size.

use crate::fault::{
    CableSelector, ControlFaultKind, ControlFaultPlan, ControlFaultSpec, FaultKind, FaultPlan, FaultSpec, NodeFaultKind, NodeFaultSpec, NodeSelector, NodeState,
};
use clove_sim::{Duration, SimRng, Time};

/// Bounds for chaos plan sampling: which selectors resolve and how large a
/// plan may grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpace {
    /// Leaf count (LeafSpine selectors draw `leaf` below this).
    pub leaves: u32,
    /// Spine count.
    pub spines: u32,
    /// Parallel trunk cables per leaf-spine pair.
    pub trunk: u32,
    /// Host count (Access selectors draw `host` below this).
    pub hosts: u32,
    /// Fault times are drawn in `[0, horizon)`.
    pub horizon: Duration,
    /// Maximum link-fault specs per plan (at least 1 is always drawn —
    /// an empty plan is a clean run and fuzzes nothing).
    pub max_faults: usize,
    /// Maximum control-fault specs per plan (0 is allowed: link faults
    /// alone are a valid chaos case).
    pub max_control_faults: usize,
    /// Maximum node crash-restart specs per plan (0 disables node faults).
    /// Node specs ride in [`FaultPlan::node_specs`] and lower to their
    /// incident cable sets at run time, so the fuzzer covers the joint
    /// node × cable × control fault space.
    pub max_node_faults: usize,
}

impl ChaosSpace {
    /// The paper's testbed extents (§5: 2 leaves × 2 spines, 2-cable
    /// trunks, 32 hosts) over the given horizon.
    pub fn paper_testbed(horizon: Duration) -> ChaosSpace {
        ChaosSpace { leaves: 2, spines: 2, trunk: 2, hosts: 32, horizon, max_faults: 4, max_control_faults: 3, max_node_faults: 2 }
    }
}

/// One generated chaos case: a link-fault timeline plus a control-plane
/// fault timeline, applied together to a scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// Link/cable faults.
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

    /// Draw a plan uniformly-ish from `space`. Deterministic in the rng
    /// state; every generated plan validates and resolves in a topology at
    /// least as large as `space` describes.
    pub fn generate(rng: &mut SimRng, space: &ChaosSpace) -> ChaosPlan {
        let mut faults = FaultPlan::none();
        let n_faults = rng.range(1, space.max_faults as u64 + 1) as usize;
        for _ in 0..n_faults {
            faults.push(FaultSpec { at: random_time(rng, space.horizon), cable: random_cable(rng, space), kind: random_kind(rng), announced: rng.chance(0.5) });
        }
        let n_nodes = if space.max_node_faults == 0 { 0 } else { rng.below(space.max_node_faults as u64 + 1) as usize };
        for _ in 0..n_nodes {
            faults.push_node(NodeFaultSpec {
                at: random_time(rng, space.horizon),
                node: random_node(rng, space),
                kind: NodeFaultKind::CrashRestart {
                    // Reboots from sub-probe-round blips to multi-round
                    // outages; always positive, as validate requires.
                    down_for: Duration::from_micros(rng.range(500, 50_000)),
                    state: if rng.chance(0.5) { NodeState::Cold } else { NodeState::Warm },
                },
                announced: rng.chance(0.5),
            });
        }
        let mut control = ControlFaultPlan::none();
        let n_control = if space.max_control_faults == 0 { 0 } else { rng.below(space.max_control_faults as u64 + 1) as usize };
        for _ in 0..n_control {
            control.push(ControlFaultSpec { at: random_time(rng, space.horizon), kind: random_control_kind(rng) });
        }
        ChaosPlan { faults, control }
    }

    /// One line per spec, timestamp-ordered within each timeline — the
    /// shape findings reports print.
    pub fn describe(&self) -> String {
        let mut lines = Vec::new();
        for spec in &self.faults.specs {
            lines.push(format!("  link  t={:>12}ns {:?} {:?} announced={}", spec.at.0, spec.cable, spec.kind, spec.announced));
        }
        for spec in &self.faults.node_specs {
            lines.push(format!("  node  t={:>12}ns {:?} {:?} announced={}", spec.at.0, spec.node, spec.kind, spec.announced));
        }
        for spec in &self.control.specs {
            lines.push(format!("  ctrl  t={:>12}ns {:?}", spec.at.0, spec.kind));
        }
        lines.join("\n")
    }
}

fn random_time(rng: &mut SimRng, horizon: Duration) -> Time {
    Time(rng.below(horizon.0.max(1)))
}

fn random_cable(rng: &mut SimRng, space: &ChaosSpace) -> CableSelector {
    // Bias toward trunk cables: that is where load-balancing faults live.
    if space.hosts > 0 && rng.chance(0.25) {
        CableSelector::Access { host: rng.below(space.hosts as u64) as u32 }
    } else {
        CableSelector::LeafSpine {
            leaf: rng.below(space.leaves as u64) as u32,
            spine: rng.below(space.spines as u64) as u32,
            which: rng.below(space.trunk as u64) as u32,
        }
    }
}

fn random_node(rng: &mut SimRng, space: &ChaosSpace) -> NodeSelector {
    // Hosts get half the draws: hypervisor crash-recovery is the vswitch
    // state machine under test; switch reboots cover the fabric side.
    match rng.below(4) {
        0 => NodeSelector::Leaf(rng.below(space.leaves as u64) as u32),
        1 => NodeSelector::Spine(rng.below(space.spines as u64) as u32),
        _ => NodeSelector::Host(rng.below(space.hosts as u64) as u32),
    }
}

fn random_kind(rng: &mut SimRng) -> FaultKind {
    match rng.below(5) {
        0 => FaultKind::LinkDown,
        1 => FaultKind::LinkUp,
        2 => FaultKind::RateDegrade { fraction: 0.05 + 0.95 * rng.f64() },
        3 => FaultKind::RandomLoss { rate: 0.9 * rng.f64() },
        _ => FaultKind::Flap { period: Duration::from_micros(rng.range(200, 20_000)), duty: 0.1 + 0.8 * rng.f64(), count: rng.range(1, 5) as u32 },
    }
}

fn random_control_kind(rng: &mut SimRng) -> ControlFaultKind {
    match rng.below(5) {
        0 => ControlFaultKind::ProbeLoss { rate: 0.9 * rng.f64() },
        1 => ControlFaultKind::ReplyLoss { rate: 0.9 * rng.f64() },
        2 => ControlFaultKind::FeedbackLoss { rate: 0.9 * rng.f64() },
        3 => ControlFaultKind::FeedbackDelay { delay: Duration::from_micros(rng.range(0, 5_000)) },
        _ => ControlFaultKind::FeedbackCorrupt { rate: 0.9 * rng.f64() },
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
pub fn shrink<F>(plan: &ChaosPlan, mut still_fails: F, budget: usize) -> (ChaosPlan, usize)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ChaosSpace {
        ChaosSpace::paper_testbed(Duration::from_secs(10))
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let mut a = SimRng::new(77);
        let mut b = SimRng::new(77);
        for _ in 0..50 {
            assert_eq!(ChaosPlan::generate(&mut a, &space()), ChaosPlan::generate(&mut b, &space()));
        }
        let mut c = SimRng::new(78);
        let differs = (0..50).any(|_| ChaosPlan::generate(&mut SimRng::new(77), &space()) != ChaosPlan::generate(&mut c, &space()));
        assert!(differs, "different seeds should explore different plans");
    }

    #[test]
    fn generated_plans_validate_and_stay_in_space() {
        let s = space();
        let mut rng = SimRng::new(123);
        for _ in 0..500 {
            let plan = ChaosPlan::generate(&mut rng, &s);
            assert!(!plan.faults.is_empty(), "chaos plans always carry at least one link fault");
            assert!(plan.faults.specs.len() <= s.max_faults);
            assert!(plan.faults.node_specs.len() <= s.max_node_faults);
            assert!(plan.control.specs.len() <= s.max_control_faults);
            plan.faults.validate().expect("generated fault plan must validate");
            plan.control.validate().expect("generated control plan must validate");
            for spec in &plan.faults.specs {
                assert!(spec.at < Time(s.horizon.0));
                match spec.cable {
                    CableSelector::LeafSpine { leaf, spine, which } => {
                        assert!(leaf < s.leaves && spine < s.spines && which < s.trunk);
                    }
                    CableSelector::Access { host } => assert!(host < s.hosts),
                    CableSelector::Index(_) => panic!("generator never emits raw-index selectors"),
                }
            }
            for spec in &plan.faults.node_specs {
                assert!(spec.at < Time(s.horizon.0));
                match spec.node {
                    NodeSelector::Leaf(l) => assert!(l < s.leaves),
                    NodeSelector::Spine(sp) => assert!(sp < s.spines),
                    NodeSelector::Host(h) => assert!(h < s.hosts),
                }
                let NodeFaultKind::CrashRestart { down_for, .. } = spec.kind;
                assert!(down_for.0 > 0, "validate requires a positive reboot window");
            }
        }
        let mut rng = SimRng::new(123);
        let any_node = (0..500).any(|_| !ChaosPlan::generate(&mut rng, &s).faults.node_specs.is_empty());
        assert!(any_node, "the generator must actually exercise node faults");
    }

    #[test]
    fn shrink_strips_innocent_node_specs() {
        // Oracle: the violation needs any *cold* node crash — cable and
        // control specs, and warm crashes, are noise the shrinker strips.
        let mut rng = SimRng::new(11);
        let mut plan = ChaosPlan::generate(&mut rng, &space());
        plan.faults.node_specs.clear();
        plan.faults.push_node(NodeFaultSpec {
            at: Time::from_millis(2),
            node: NodeSelector::Host(5),
            kind: NodeFaultKind::CrashRestart { down_for: Duration::from_millis(1), state: NodeState::Warm },
            announced: true,
        });
        plan.faults.push_node(NodeFaultSpec {
            at: Time::from_millis(3),
            node: NodeSelector::Leaf(1),
            kind: NodeFaultKind::CrashRestart { down_for: Duration::from_millis(1), state: NodeState::Cold },
            announced: false,
        });
        let guilty = |p: &ChaosPlan| p.faults.node_specs.iter().any(NodeFaultSpec::is_cold);
        assert!(guilty(&plan));
        let (min, _) = shrink(&plan, guilty, 1000);
        assert_eq!(min.len(), 1, "only the cold crash should survive: {min:?}");
        assert!(min.faults.node_specs[0].is_cold());
    }

    #[test]
    fn shrink_finds_the_one_guilty_spec() {
        // Oracle: the violation needs any RandomLoss spec — everything
        // else is noise the shrinker should strip.
        let mut rng = SimRng::new(9);
        let mut plan = ChaosPlan::generate(&mut rng, &space());
        plan.faults.specs.retain(|s| !matches!(s.kind, FaultKind::RandomLoss { .. }));
        plan.faults.push(FaultSpec { at: Time::from_millis(3), cable: CableSelector::S2_L2, kind: FaultKind::RandomLoss { rate: 0.5 }, announced: false });
        let guilty = |p: &ChaosPlan| p.faults.specs.iter().any(|s| matches!(s.kind, FaultKind::RandomLoss { .. }));
        assert!(guilty(&plan));
        let (min, calls) = shrink(&plan, guilty, 1000);
        assert_eq!(min.len(), 1, "shrinker should strip every innocent spec: {min:?}");
        assert!(matches!(min.faults.specs[0].kind, FaultKind::RandomLoss { .. }));
        assert!(calls <= 1000);
    }

    #[test]
    fn shrink_needs_both_specs_keeps_both() {
        // Oracle: violation requires a link fault AND a control fault.
        let mut plan = ChaosPlan::default();
        plan.faults.extend(FaultPlan::cut(Time::from_millis(1), CableSelector::S2_L2));
        plan.faults.extend(FaultPlan::degrade(Time::from_millis(2), CableSelector::Index(0), 0.5));
        plan.control.extend(ControlFaultPlan::probe_loss(Time::from_millis(1), 0.5));
        let oracle = |p: &ChaosPlan| !p.faults.is_empty() && !p.control.is_empty();
        let (min, _) = shrink(&plan, oracle, 1000);
        assert_eq!(min.faults.specs.len(), 1);
        assert_eq!(min.control.specs.len(), 1);
    }

    #[test]
    fn shrink_respects_budget_and_never_loses_the_failure() {
        let mut rng = SimRng::new(55);
        let plan = ChaosPlan::generate(&mut rng, &ChaosSpace { max_faults: 8, max_control_faults: 8, ..space() });
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
        let plan = ChaosPlan::generate(&mut rng, &space());
        let text = plan.describe();
        assert_eq!(text.lines().count(), plan.len());
    }
}
