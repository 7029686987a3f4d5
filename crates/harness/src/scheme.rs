//! The scheme matrix: every load balancer the paper evaluates.

use crate::json::Json;
use crate::profile::{Profile, LOADED_RTT};
use clove_baselines::{EcmpPolicy, PrestoConfig, PrestoPolicy};
use clove_core::{CloveEcnConfig, CloveEcnPolicy, CloveIntPolicy, CloveUtilConfig, EdgeFlowletPolicy, FlowletConfig};
use clove_net::switch::FabricScheme;
use clove_overlay::{EdgePolicy, VSwitchConfig};

/// Which load balancer a run deploys. Edge schemes ride a plain-ECMP
/// fabric; CONGA and HULA replace switch behaviour instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Scheme {
    /// Static flow hashing (the baseline everything beats).
    Ecmp,
    /// Random port per flowlet, congestion-oblivious.
    EdgeFlowlet,
    /// Clove with ECN feedback (the headline deployable scheme).
    CloveEcn,
    /// Clove with INT utilization feedback.
    CloveInt,
    /// Presto over L3 ECMP with optional oracle path weights.
    Presto {
        /// Static per-path weights (the paper's oracle configuration for
        /// asymmetric topologies); `None` = uniform.
        oracle_weights: Option<Vec<f64>>,
    },
    /// MPTCP with `subflows` subflows (paper: 4).
    Mptcp {
        /// Number of subflows per connection.
        subflows: usize,
    },
    /// CONGA in the fabric (hardware upper bound).
    Conga,
    /// HULA in the fabric (paper §8: summarized-state per-hop routing).
    Hula,
    /// Extension (§7 "Incremental Deployment"): only `clove_hosts` of the
    /// hypervisors run Clove-ECN; the rest are plain ECMP. Flows whose
    /// peer is not Clove-capable see no feedback and degrade gracefully to
    /// congestion-agnostic behaviour.
    Incremental {
        /// Number of Clove-enabled hypervisors (deployed in host-id order).
        clove_hosts: u32,
    },
}

impl Scheme {
    /// One value of every variant, payloads at the paper's settings: what
    /// [`Scheme::from_json`] searches by spec name and what the codec tests
    /// and the EXPERIMENTS.md name list iterate.
    pub fn all() -> Vec<Scheme> {
        vec![
            Scheme::Ecmp,
            Scheme::EdgeFlowlet,
            Scheme::CloveEcn,
            Scheme::CloveInt,
            Scheme::Presto { oracle_weights: None },
            Scheme::Mptcp { subflows: 4 },
            Scheme::Conga,
            Scheme::Hula,
            Scheme::Incremental { clove_hosts: 16 },
        ]
    }

    /// The variant's name in spec JSON (the `"name"` of the tagged object).
    /// This is the one name table — [`Scheme::to_json`] and
    /// [`Scheme::from_json`] both go through it — and it has no wildcard
    /// arm, so a new variant does not compile until it has a name.
    pub fn spec_name(&self) -> &'static str {
        match self {
            Scheme::Ecmp => "ecmp",
            Scheme::EdgeFlowlet => "edge-flowlet",
            Scheme::CloveEcn => "clove-ecn",
            Scheme::CloveInt => "clove-int",
            Scheme::Presto { .. } => "presto",
            Scheme::Mptcp { .. } => "mptcp",
            Scheme::Conga => "conga",
            Scheme::Hula => "hula",
            Scheme::Incremental { .. } => "incremental",
        }
    }

    /// Render to the tagged-object form: `"name"`, then the variant's payload
    /// (`"subflows"`, `"clove_hosts"`, `"weights"`).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("name".to_string(), Json::Str(self.spec_name().to_string()))];
        match self {
            Scheme::Presto { oracle_weights } => {
                let weights = oracle_weights.as_ref().map(|ws| Json::Arr(ws.iter().map(|&w| Json::Num(w)).collect()));
                fields.push(("weights".to_string(), weights.unwrap_or(Json::Null)));
            }
            Scheme::Mptcp { subflows } => fields.push(("subflows".to_string(), Json::Num(*subflows as f64))),
            Scheme::Incremental { clove_hosts } => fields.push(("clove_hosts".to_string(), Json::Num(f64::from(*clove_hosts)))),
            _ => {}
        }
        Json::Obj(fields)
    }

    /// Parse the tagged-object form. Payload integers are range-checked
    /// into their field's type here; whether they make sense for a run
    /// (subflow count, deployed hosts) is [`crate::Scenario::validate`]'s
    /// call. A key the parsed variant does not render (`"subflows"` on
    /// `ecmp`) is an error.
    pub fn from_json(v: &Json) -> Result<Scheme, String> {
        let name = v.get("name").and_then(Json::as_str).ok_or_else(|| "scheme: missing string field 'name'".to_string())?;
        let all = Scheme::all();
        let Some(scheme) = all.iter().find(|s| s.spec_name() == name) else {
            let names: Vec<&str> = all.iter().map(Scheme::spec_name).collect();
            return Err(format!("scheme: unknown name '{name}' (want {})", names.join(" | ")));
        };
        let required = |key: &str| format!("scheme: {name}: missing integer field '{key}'");
        let scheme = match scheme {
            Scheme::Presto { .. } => Scheme::Presto {
                oracle_weights: match v.get("weights") {
                    None | Some(Json::Null) => None,
                    Some(w) => Some(
                        w.as_array()
                            .ok_or_else(|| "scheme: presto: 'weights' must be an array".to_string())?
                            .iter()
                            .map(|x| x.as_f64().ok_or_else(|| "scheme: presto: 'weights' must be numbers".to_string()))
                            .collect::<Result<Vec<f64>, String>>()?,
                    ),
                },
            },
            // Subflow `i` sends from source port `sport + i`, a `u16`.
            Scheme::Mptcp { .. } => Scheme::Mptcp { subflows: usize::from(v.uint_field::<u16>("subflows")?.ok_or_else(|| required("subflows"))?) },
            Scheme::Incremental { .. } => Scheme::Incremental { clove_hosts: v.uint_field("clove_hosts")?.ok_or_else(|| required("clove_hosts"))? },
            plain => plain.clone(),
        };
        v.reject_unknown_keys(&scheme.to_json(), &[]).map_err(|e| format!("scheme: {name}: {e}"))?;
        Ok(scheme)
    }

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Ecmp => "ECMP",
            Scheme::EdgeFlowlet => "Edge-Flowlet",
            Scheme::CloveEcn => "Clove-ECN",
            Scheme::CloveInt => "Clove-INT",
            Scheme::Presto { .. } => "Presto",
            Scheme::Mptcp { .. } => "MPTCP",
            Scheme::Conga => "CONGA",
            Scheme::Hula => "HULA",
            Scheme::Incremental { .. } => "Clove-ECN (partial)",
        }
    }

    /// Relative wall-clock cost of simulating one cell under this scheme,
    /// used only to *rank* cells for the orchestrator's expensive-first
    /// schedule — it never affects results (outcomes are scattered back to
    /// cell order). Rough calibration from measured cell times (the repo
    /// benchmark's `scheme.*.ns_per_event` rows are the current reading):
    /// switch-local schemes that track per-uplink congestion state (CONGA,
    /// HULA) run markedly slower than stateless ECMP; MPTCP multiplies the
    /// flow count by its subflows; the Clove variants sit in between
    /// (feedback packets plus per-path state).
    pub fn cost_weight(&self) -> f64 {
        match self {
            Scheme::Ecmp => 1.0,
            Scheme::EdgeFlowlet => 1.2,
            Scheme::CloveEcn | Scheme::Incremental { .. } => 1.3,
            Scheme::Presto { .. } => 1.4,
            Scheme::CloveInt => 1.5,
            Scheme::Hula => 1.8,
            Scheme::Mptcp { subflows } => 1.0 + 0.4 * *subflows as f64,
            Scheme::Conga => 2.5,
        }
    }

    /// For incremental deployment: is `host` Clove-enabled?
    pub fn host_is_clove(&self, host: clove_net::types::HostId) -> bool {
        match self {
            Scheme::Incremental { clove_hosts } => host.0 < *clove_hosts,
            _ => true,
        }
    }

    /// The per-host vswitch config (differs from the uniform one only for
    /// incremental deployments).
    pub fn vswitch_config_for(&self, profile: &Profile, host: clove_net::types::HostId) -> VSwitchConfig {
        match self {
            Scheme::Incremental { .. } if !self.host_is_clove(host) => Scheme::Ecmp.vswitch_config(profile),
            Scheme::Incremental { .. } => Scheme::CloveEcn.vswitch_config(profile),
            _ => self.vswitch_config(profile),
        }
    }

    /// The per-host edge policy (see [`Scheme::vswitch_config_for`]).
    pub fn build_policy_for(&self, profile: &Profile, host: clove_net::types::HostId, seed: u64) -> Box<dyn EdgePolicy> {
        match self {
            Scheme::Incremental { .. } if !self.host_is_clove(host) => Scheme::Ecmp.build_policy(profile, seed),
            Scheme::Incremental { .. } => Scheme::CloveEcn.build_policy(profile, seed),
            _ => self.build_policy(profile, seed),
        }
    }

    /// What the fabric switches run. No profile knob reaches the fabric
    /// scheme; the parameter stays because `benchmark/` calls this form.
    pub fn fabric_scheme(&self, _profile: &Profile) -> FabricScheme {
        match self {
            Scheme::Conga => FabricScheme::Conga,
            Scheme::Hula => FabricScheme::Hula,
            _ => FabricScheme::Ecmp,
        }
    }

    /// Whether fabric links stamp INT utilization.
    pub fn int_enabled(&self) -> bool {
        matches!(self, Scheme::CloveInt)
    }

    /// Whether the scheme runs the traceroute discovery daemon (for an
    /// incremental deployment: on Clove hosts only — see
    /// [`Scheme::host_needs_discovery`]).
    pub fn needs_discovery(&self) -> bool {
        !matches!(self, Scheme::Ecmp | Scheme::Mptcp { .. } | Scheme::Conga | Scheme::Hula)
    }

    /// Per-host discovery decision.
    pub fn host_needs_discovery(&self, host: clove_net::types::HostId) -> bool {
        self.needs_discovery() && self.host_is_clove(host)
    }

    /// MPTCP subflow count, if the scheme is MPTCP.
    pub fn mptcp_subflows(&self) -> Option<usize> {
        match self {
            Scheme::Mptcp { subflows } => Some(*subflows),
            _ => None,
        }
    }

    /// The vswitch deployment configuration.
    pub fn vswitch_config(&self, profile: &Profile) -> VSwitchConfig {
        match self {
            Scheme::Ecmp | Scheme::Mptcp { .. } | Scheme::Conga | Scheme::Hula | Scheme::EdgeFlowlet => VSwitchConfig::plain(),
            Scheme::CloveEcn => VSwitchConfig::clove_ecn(profile.relay_interval),
            Scheme::CloveInt => VSwitchConfig::clove_int(profile.relay_interval),
            Scheme::Presto { .. } => VSwitchConfig::presto(),
            Scheme::Incremental { .. } => VSwitchConfig::clove_ecn(profile.relay_interval),
        }
    }

    /// Build the edge policy instance for one hypervisor.
    pub fn build_policy(&self, profile: &Profile, seed: u64) -> Box<dyn EdgePolicy> {
        let flowlet = FlowletConfig::with_gap(profile.flowlet_gap);
        match self {
            Scheme::Ecmp | Scheme::Mptcp { .. } | Scheme::Conga | Scheme::Hula => Box::new(EcmpPolicy::default()),
            Scheme::EdgeFlowlet => Box::new(EdgeFlowletPolicy::new(flowlet, seed)),
            Scheme::CloveEcn => {
                Box::new(CloveEcnPolicy::new(CloveEcnConfig { flowlet, recovery_rho: profile.clove_recovery_rho, ..CloveEcnConfig::for_rtt(LOADED_RTT) }))
            }
            Scheme::CloveInt => Box::new(CloveIntPolicy::new(CloveUtilConfig { flowlet, ..CloveUtilConfig::for_rtt(LOADED_RTT) })),
            Scheme::Presto { oracle_weights } => Box::new(PrestoPolicy::new(PrestoConfig { weights: oracle_weights.clone() })),
            // Uniform call sites never reach here for Incremental (the
            // harness uses the *_for variants), but default to Clove-ECN.
            Scheme::Incremental { .. } => Scheme::CloveEcn.build_policy(profile, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_variant_and_each_round_trips_through_json() {
        let all = Scheme::all();
        for (i, s) in all.iter().enumerate() {
            // No wildcard arm: a new variant must be given a slot here, and
            // `all()` must then hold it in that slot.
            let slot = match s {
                Scheme::Ecmp => 0,
                Scheme::EdgeFlowlet => 1,
                Scheme::CloveEcn => 2,
                Scheme::CloveInt => 3,
                Scheme::Presto { .. } => 4,
                Scheme::Mptcp { .. } => 5,
                Scheme::Conga => 6,
                Scheme::Hula => 7,
                Scheme::Incremental { .. } => 8,
            };
            assert_eq!(slot, i, "{}", s.label());
        }
        assert_eq!(all.len(), 9);
        let with_payloads = [Scheme::Presto { oracle_weights: Some(vec![0.33, 0.33, 0.17, 0.17]) }];
        for s in all.iter().chain(&with_payloads) {
            assert_eq!(Scheme::from_json(&s.to_json()).as_ref(), Ok(s), "{}", s.to_json().render());
            assert_eq!(Json::parse(&s.to_json().render()).map(|v| Scheme::from_json(&v)), Ok(Ok(s.clone())), "through text");
        }
    }

    #[test]
    fn every_scheme_builds_a_policy() {
        let p = Profile::default();
        for s in Scheme::all() {
            let policy = s.build_policy(&p, 1);
            assert!(!policy.name().is_empty(), "{:?}", s.label());
        }
    }

    #[test]
    fn discovery_matrix() {
        assert!(!Scheme::Ecmp.needs_discovery());
        assert!(!Scheme::Mptcp { subflows: 4 }.needs_discovery());
        assert!(!Scheme::Conga.needs_discovery());
        assert!(Scheme::CloveEcn.needs_discovery());
        assert!(Scheme::EdgeFlowlet.needs_discovery());
        assert!(Scheme::Presto { oracle_weights: None }.needs_discovery());
    }

    #[test]
    fn int_only_for_clove_int() {
        for s in Scheme::all() {
            assert_eq!(s.int_enabled(), s == Scheme::CloveInt, "{}", s.label());
        }
    }

    #[test]
    fn fabric_scheme_matrix() {
        let p = Profile::default();
        assert_eq!(Scheme::Conga.fabric_scheme(&p), FabricScheme::Conga);
        assert_eq!(Scheme::Hula.fabric_scheme(&p), FabricScheme::Hula);
        assert_eq!(Scheme::CloveEcn.fabric_scheme(&p), FabricScheme::Ecmp);
    }

    #[test]
    fn incremental_splits_hosts() {
        use clove_net::types::HostId;
        use clove_overlay::FeedbackMode;
        let s = Scheme::Incremental { clove_hosts: 16 };
        assert!(s.host_is_clove(HostId(0)));
        assert!(s.host_is_clove(HostId(15)));
        assert!(!s.host_is_clove(HostId(16)));
        assert!(s.host_needs_discovery(HostId(3)));
        assert!(!s.host_needs_discovery(HostId(30)));
        let p = Profile::default();
        assert_eq!(s.vswitch_config_for(&p, HostId(0)).feedback_mode, FeedbackMode::Ecn);
        assert_eq!(s.vswitch_config_for(&p, HostId(31)).feedback_mode, FeedbackMode::None);
        assert_eq!(s.build_policy_for(&p, HostId(0), 1).name(), "clove-ecn");
        assert_eq!(s.build_policy_for(&p, HostId(31), 1).name(), "ecmp");
    }
}
