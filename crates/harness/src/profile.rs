//! The experiment knobs: the parameters some experiment sets to a second
//! value (`flowlet_gap`, `ecn_threshold_pkts`, `probe_interval`,
//! `relay_interval`, `dsack_undo`, `clove_recovery_rho`), plus the link
//! rates `access_bps` and `fabric_bps`, which `benchmark/` reads. Defaults
//! mirror the paper's testbed (§5). Every other parameter has one value,
//! beside its reader: TCP RTOs in `TcpConfig::default`; the probe daemon
//! in `DiscoveryConfig::default`; propagation delay and DRE in
//! `LinkConfig::for_rate` (buffers here); CONGA and HULA in
//! `CongaConfig::default` / `HulaConfig::default`; Clove's windows and
//! degradation-ladder horizons in `CloveEcnConfig::for_rtt` /
//! `CloveUtilConfig::for_rtt` at `LOADED_RTT`; the warm-up, Presto poll and
//! incast request delay as constants in [`crate::stack`].

use clove_core::{CloveEcnConfig, DiscoveryConfig};
use clove_net::link::LinkConfig;
use clove_sim::Duration;
use clove_tcp::TcpConfig;

/// The effective RTT under load (ECN-bounded queues): the timescale of the
/// Clove policies and the base latency of an ideal FCT. The paper's relay
/// at "half the RTT" means this operating RTT, not the unloaded 20 µs.
pub(crate) const LOADED_RTT: Duration = Duration::from_micros(100);
const ACCESS_BUFFER_BYTES: u32 = 512 * 1024;
const FABRIC_BUFFER_BYTES: u32 = 1024 * 1024;

/// The run parameters an experiment varies.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Host access link rate.
    pub access_bps: u64,
    /// Leaf-spine link rate.
    pub fabric_bps: u64,
    /// Flowlet inter-packet gap. The paper recommends 1–2× the network
    /// RTT *under load*; with ECN-bounded queues the loaded RTT here is
    /// ~100 µs, and the Figure-6 sweep in this reproduction confirms the
    /// optimum (see EXPERIMENTS.md).
    pub flowlet_gap: Duration,
    /// Switch ECN marking threshold in MTU-sized packets (paper: 20).
    pub ecn_threshold_pkts: u32,
    /// Feedback relay interval (paper: RTT / 2).
    pub relay_interval: Duration,
    /// Probe daemon: interval between rounds per destination.
    pub probe_interval: Duration,
    /// DSACK undo in guest TCP (ablation knob; DESIGN.md §7.1).
    pub dsack_undo: bool,
    /// Clove-ECN weight drift toward uniform per feedback event
    /// (ablation knob; 0 = the paper's literal redistribution only).
    pub clove_recovery_rho: f64,
}

impl Default for Profile {
    fn default() -> Self {
        Profile {
            access_bps: 10_000_000_000,
            fabric_bps: 40_000_000_000,
            flowlet_gap: LOADED_RTT,
            ecn_threshold_pkts: 20,
            relay_interval: LOADED_RTT / 2,
            probe_interval: DiscoveryConfig::default().probe_interval,
            dsack_undo: TcpConfig::default().dsack_undo,
            clove_recovery_rho: CloveEcnConfig::for_rtt(LOADED_RTT).recovery_rho,
        }
    }
}

impl Profile {
    /// MTU on the wire (payload + headers).
    pub const MTU: u32 = 1500;

    /// The ECN threshold in bytes.
    pub fn ecn_threshold_bytes(&self) -> u32 {
        self.ecn_threshold_pkts * Self::MTU
    }

    /// Link configuration for access links.
    pub fn access_link(&self, int_enabled: bool) -> LinkConfig {
        LinkConfig { buffer_bytes: ACCESS_BUFFER_BYTES, ecn_threshold_bytes: self.ecn_threshold_bytes(), int_enabled, ..LinkConfig::for_rate(self.access_bps) }
    }

    /// Link configuration for fabric links.
    pub fn fabric_link(&self, int_enabled: bool) -> LinkConfig {
        LinkConfig { buffer_bytes: FABRIC_BUFFER_BYTES, ecn_threshold_bytes: self.ecn_threshold_bytes(), int_enabled, ..LinkConfig::for_rate(self.fabric_bps) }
    }

    /// The probe-daemon configuration this profile implies. Callers
    /// loading external configs should `validate()` the result.
    pub fn discovery_config(&self) -> DiscoveryConfig {
        DiscoveryConfig { probe_interval: self.probe_interval, ..DiscoveryConfig::default() }
    }

    /// TCP configuration with this profile's DSACK setting.
    pub fn tcp_config(&self) -> TcpConfig {
        TcpConfig { dsack_undo: self.dsack_undo, ..TcpConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = Profile::default();
        assert_eq!(p.access_bps, 10_000_000_000);
        assert_eq!(p.fabric_bps, 40_000_000_000);
        assert_eq!(p.ecn_threshold_bytes(), 30_000);
        assert_eq!(p.flowlet_gap, Duration::from_micros(100));
    }

    /// Every parameter the harness hands a component, rendered once. Moving
    /// a value between a `Profile` field and a component default must
    /// leave this text as it is.
    #[test]
    fn component_parameters_are_pinned() {
        use crate::Scheme;
        use clove_core::{CloveEcnConfig, CloveUtilConfig};
        use clove_net::types::HostId;
        let p = Profile::default();
        let mut lines = vec![format!("{:?}", p.tcp_config()), format!("{:?}", p.discovery_config())];
        for int_enabled in [false, true] {
            lines.push(format!("{:?}", p.access_link(int_enabled)));
            lines.push(format!("{:?}", p.fabric_link(int_enabled)));
        }
        for s in Scheme::all() {
            lines.push(format!("{}: {:?} {:?}", s.label(), s.fabric_scheme(&p), s.vswitch_config_for(&p, HostId(0))));
        }
        let loaded_rtt = Duration::from_micros(100);
        let (ecn, int) = (CloveEcnConfig::for_rtt(loaded_rtt), CloveUtilConfig::for_rtt(loaded_rtt));
        lines.push(format!("horizons: ecn {:?} {:?}, int {:?} {:?}", ecn.stale_horizon, ecn.dead_horizon, int.stale_after, int.dead_horizon));
        assert_eq!(
            lines.join("\n"),
            "TcpConfig { mss: 1400, header_overhead: 100, init_window_pkts: 10, max_cwnd_bytes: 4194304, init_rto: Duration(5000000), min_rto: Duration(2000000), max_rto: Duration(2000000000), rwnd_bytes: None, dsack_undo: true }\n\
             DiscoveryConfig { candidates: 24, k_paths: 4, max_ttl: 4, probe_interval: Duration(100000000), round_timeout: Duration(1000000), port_base: 49152, port_span: 16000, blackhole_rounds: 3, max_retries: 2, retry_backoff: Duration(1000000), backoff_jitter: 0.25, max_outstanding: 1024 }\n\
             LinkConfig { rate_bps: 10000000000, prop_delay: Duration(1000), buffer_bytes: 524288, ecn_threshold_bytes: 30000, int_enabled: false, dre_alpha: 0.1, dre_period: Duration(40000) }\n\
             LinkConfig { rate_bps: 40000000000, prop_delay: Duration(1000), buffer_bytes: 1048576, ecn_threshold_bytes: 30000, int_enabled: false, dre_alpha: 0.1, dre_period: Duration(40000) }\n\
             LinkConfig { rate_bps: 10000000000, prop_delay: Duration(1000), buffer_bytes: 524288, ecn_threshold_bytes: 30000, int_enabled: true, dre_alpha: 0.1, dre_period: Duration(40000) }\n\
             LinkConfig { rate_bps: 40000000000, prop_delay: Duration(1000), buffer_bytes: 1048576, ecn_threshold_bytes: 30000, int_enabled: true, dre_alpha: 0.1, dre_period: Duration(40000) }\n\
             ECMP: Ecmp VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: None }\n\
             Edge-Flowlet: Ecmp VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: None }\n\
             Clove-ECN: Ecmp VSwitchConfig { feedback_mode: Ecn, relay_interval: Duration(50000), presto_reassembly: None }\n\
             Clove-INT: Ecmp VSwitchConfig { feedback_mode: Util, relay_interval: Duration(50000), presto_reassembly: None }\n\
             Presto: Ecmp VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: Some(ReassemblyConfig { flush_timeout: Duration(500000), max_buffered: 128 }) }\n\
             MPTCP: Ecmp VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: None }\n\
             CONGA: Conga(CongaConfig { flowlet_gap: Duration(200000), quant_bits: 3, metric_age: Duration(4000000) }) VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: None }\n\
             HULA: Hula(HulaConfig { probe_interval: Duration(200000), flowlet_gap: Duration(200000), entry_age: Duration(4000000) }) VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: None }\n\
             Clove-ECN (partial): Ecmp VSwitchConfig { feedback_mode: Ecn, relay_interval: Duration(50000), presto_reassembly: None }\n\
             horizons: ecn Duration(1600000) Duration(6400000), int Duration(800000) Duration(6400000)"
        );
    }

    #[test]
    fn link_configs_carry_int_flag() {
        let p = Profile::default();
        assert!(!p.access_link(false).int_enabled);
        assert!(p.fabric_link(true).int_enabled);
        assert_eq!(p.fabric_link(false).rate_bps, 40_000_000_000);
    }
}
