//! The experiment knobs: the parameters some experiment sets to a second
//! value (`flowlet_gap`, `ecn_threshold_pkts`, `probe_interval`,
//! `relay_interval`, `dsack_undo`, `clove_recovery_rho`), plus the link
//! rates `access_bps` and `fabric_bps`, which `benchmark/` reads. Defaults
//! mirror the paper's testbed (§5). Every other parameter has one value,
//! a constant beside its reader: the TCP segment, window and RTO constants
//! in `clove_tcp::config`; the probe daemon's in `clove_core::discovery`;
//! the flowlet table's cap in `clove_core::flowlet`; propagation delay in
//! `clove_net::link` and the DRE's gain and period in `clove_net::dre`;
//! CONGA's and HULA's in `clove_net::fabric`; Presto's flowcell size in
//! `clove_baselines::presto` and its reassembly timeout and cap in
//! `clove_overlay::presto_rx`; the access/fabric buffers here; Clove's
//! windows and degradation-ladder horizons in `CloveEcnConfig::for_rtt` /
//! `CloveUtilConfig::for_rtt` at `LOADED_RTT`; the warm-up, Presto poll and
//! incast request delay in [`crate::stack`].

use clove_core::CloveEcnConfig;
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
            probe_interval: Duration::from_millis(100),
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

    /// TCP configuration with this profile's DSACK setting.
    pub fn tcp_config(&self) -> TcpConfig {
        TcpConfig { dsack_undo: self.dsack_undo }
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

    /// Every parameter the harness hands a component, rendered once, and
    /// every component constant by name. Moving a value between a
    /// `Profile` field and a component default must leave this text as it
    /// is; a drifted constant fails here before any digest moves.
    #[test]
    fn component_parameters_are_pinned() {
        use crate::Scheme;
        use clove_core::{CloveEcnConfig, CloveUtilConfig};
        use clove_net::types::HostId;
        let p = Profile::default();
        let mut lines = vec![format!("{:?}", p.tcp_config()), format!("probe interval {:?}", p.probe_interval)];
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
        {
            use clove_baselines::presto::FLOWCELL_BYTES;
            use clove_core::discovery::*;
            use clove_core::flowlet::MAX_ENTRIES;
            use clove_net::dre::{DRE_ALPHA, DRE_PERIOD};
            use clove_net::fabric::*;
            use clove_net::link::PROP_DELAY;
            use clove_overlay::presto_rx::{FLUSH_TIMEOUT, MAX_BUFFERED};
            use clove_tcp::config::*;
            lines.push(format!(
                "tcp: MSS={MSS} HEADER_OVERHEAD={HEADER_OVERHEAD} INIT_WINDOW_PKTS={INIT_WINDOW_PKTS} MAX_CWND_BYTES={MAX_CWND_BYTES} \
                 INIT_RTO={INIT_RTO:?} MIN_RTO={MIN_RTO:?} MAX_RTO={MAX_RTO:?}\n\
                 discovery: CANDIDATES={CANDIDATES} K_PATHS={K_PATHS} MAX_TTL={MAX_TTL} ROUND_TIMEOUT={ROUND_TIMEOUT:?} \
                 PORT_BASE={PORT_BASE} PORT_SPAN={PORT_SPAN} BLACKHOLE_ROUNDS={BLACKHOLE_ROUNDS} MAX_RETRIES={MAX_RETRIES} \
                 RETRY_BACKOFF={RETRY_BACKOFF:?} BACKOFF_JITTER={BACKOFF_JITTER} MAX_OUTSTANDING={MAX_OUTSTANDING}\n\
                 link: PROP_DELAY={PROP_DELAY:?} DRE_ALPHA={DRE_ALPHA} DRE_PERIOD={DRE_PERIOD:?}\n\
                 fabric: CONGA_FLOWLET_GAP={CONGA_FLOWLET_GAP:?} CONGA_QUANT_BITS={CONGA_QUANT_BITS} CONGA_METRIC_AGE={CONGA_METRIC_AGE:?} \
                 HULA_PROBE_INTERVAL={HULA_PROBE_INTERVAL:?} HULA_FLOWLET_GAP={HULA_FLOWLET_GAP:?} HULA_ENTRY_AGE={HULA_ENTRY_AGE:?}\n\
                 presto: FLOWCELL_BYTES={FLOWCELL_BYTES} FLUSH_TIMEOUT={FLUSH_TIMEOUT:?} MAX_BUFFERED={MAX_BUFFERED}\n\
                 flowlet: MAX_ENTRIES={MAX_ENTRIES}"
            ));
        }
        assert_eq!(
            lines.join("\n"),
            "TcpConfig { dsack_undo: true }\n\
             probe interval Duration(100000000)\n\
             LinkConfig { rate_bps: 10000000000, buffer_bytes: 524288, ecn_threshold_bytes: 30000, int_enabled: false }\n\
             LinkConfig { rate_bps: 40000000000, buffer_bytes: 1048576, ecn_threshold_bytes: 30000, int_enabled: false }\n\
             LinkConfig { rate_bps: 10000000000, buffer_bytes: 524288, ecn_threshold_bytes: 30000, int_enabled: true }\n\
             LinkConfig { rate_bps: 40000000000, buffer_bytes: 1048576, ecn_threshold_bytes: 30000, int_enabled: true }\n\
             ECMP: Ecmp VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: false }\n\
             Edge-Flowlet: Ecmp VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: false }\n\
             Clove-ECN: Ecmp VSwitchConfig { feedback_mode: Ecn, relay_interval: Duration(50000), presto_reassembly: false }\n\
             Clove-INT: Ecmp VSwitchConfig { feedback_mode: Util, relay_interval: Duration(50000), presto_reassembly: false }\n\
             Presto: Ecmp VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: true }\n\
             MPTCP: Ecmp VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: false }\n\
             CONGA: Conga VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: false }\n\
             HULA: Hula VSwitchConfig { feedback_mode: None, relay_interval: Duration(50000), presto_reassembly: false }\n\
             Clove-ECN (partial): Ecmp VSwitchConfig { feedback_mode: Ecn, relay_interval: Duration(50000), presto_reassembly: false }\n\
             horizons: ecn Duration(1600000) Duration(6400000), int Duration(800000) Duration(6400000)\n\
             tcp: MSS=1400 HEADER_OVERHEAD=100 INIT_WINDOW_PKTS=10 MAX_CWND_BYTES=4194304 \
             INIT_RTO=Duration(5000000) MIN_RTO=Duration(2000000) MAX_RTO=Duration(2000000000)\n\
             discovery: CANDIDATES=24 K_PATHS=4 MAX_TTL=4 ROUND_TIMEOUT=Duration(1000000) \
             PORT_BASE=49152 PORT_SPAN=16000 BLACKHOLE_ROUNDS=3 MAX_RETRIES=2 \
             RETRY_BACKOFF=Duration(1000000) BACKOFF_JITTER=0.25 MAX_OUTSTANDING=1024\n\
             link: PROP_DELAY=Duration(1000) DRE_ALPHA=0.1 DRE_PERIOD=Duration(40000)\n\
             fabric: CONGA_FLOWLET_GAP=Duration(200000) CONGA_QUANT_BITS=3 CONGA_METRIC_AGE=Duration(4000000) \
             HULA_PROBE_INTERVAL=Duration(200000) HULA_FLOWLET_GAP=Duration(200000) HULA_ENTRY_AGE=Duration(4000000)\n\
             presto: FLOWCELL_BYTES=65536 FLUSH_TIMEOUT=Duration(500000) MAX_BUFFERED=128\n\
             flowlet: MAX_ENTRIES=65536"
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
