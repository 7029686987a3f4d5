#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # clove-baselines — the schemes the paper compares against
//!
//! * [`EcmpPolicy`] — the status quo: the outer source port is a static
//!   hash of the inner five-tuple, so ECMP pins each flow to one path for
//!   its lifetime (paper §5 "ECMP").
//! * [`PrestoPolicy`] — Presto adapted to L3 ECMP exactly as the paper's
//!   re-implementation does (§5 "Presto"): 64 KB flowcells rotate through a
//!   pre-computed set of encapsulation source ports with *static* weights
//!   (the paper grants Presto ideal, oracle-configured weights under
//!   asymmetry); the receiving vswitch reassembles out-of-order flowcells
//!   (`clove_overlay::presto_rx`).
//! * CONGA and HULA live in the fabric (`clove_net::switch`), since
//!   they replace switch behaviour; [`fabric_schemes`] provides the
//!   configurations used by the experiments.
//! * MPTCP is a transport, not a vswitch policy: see `clove_tcp::mptcp`.

pub mod ecmp;
pub mod presto;

pub use ecmp::EcmpPolicy;
pub use presto::{PrestoConfig, PrestoPolicy};

/// Ready-made fabric-scheme configurations for the paper's in-network
/// comparison points.
pub mod fabric_schemes {
    use clove_net::switch::{CongaConfig, FabricScheme, HulaConfig};
    use clove_sim::Duration;

    /// Plain ECMP fabric (what every edge scheme runs over).
    pub fn ecmp() -> FabricScheme {
        FabricScheme::Ecmp
    }

    /// CONGA with the given flowlet gap (CONGA uses ~500 µs at 10/40G).
    pub fn conga(flowlet_gap: Duration) -> FabricScheme {
        FabricScheme::Conga(CongaConfig { flowlet_gap, quant_bits: 3, metric_age: flowlet_gap * 20 })
    }

    /// HULA with the given probe interval and flowlet gap (paper §8).
    pub fn hula(probe_interval: Duration, flowlet_gap: Duration) -> FabricScheme {
        FabricScheme::Hula(HulaConfig { probe_interval, flowlet_gap, entry_age: probe_interval * 20 })
    }
}
