//! The experiment parameter profile.
//!
//! Defaults mirror the paper's testbed (§5): 10G access links, 40G fabric
//! links with two cables per leaf-spine pair, ECN threshold of 20
//! MTU-sized packets, flowlet gap of one network RTT (the paper's best
//! setting, Figure 6), and an ECN relay interval of half an RTT. The one
//! deliberate deviation is the TCP minimum RTO: Linux's 200 ms floor would
//! dwarf a 20 µs RTT and our runs are shorter than the testbed's 50 K
//! jobs, so the floor is 2 ms — still ≫ RTT, preserving the qualitative
//! cost of a timeout (documented in DESIGN.md).

use clove_core::DiscoveryConfig;
use clove_net::link::LinkConfig;
use clove_sim::Duration;
use clove_tcp::TcpConfig;

/// All tunables for one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Host access link rate.
    pub access_bps: u64,
    /// Leaf-spine link rate.
    pub fabric_bps: u64,
    /// Estimated unloaded network RTT (drives flowlet gap, relay interval
    /// and congestion windows).
    pub rtt: Duration,
    /// Flowlet inter-packet gap. The paper recommends 1–2× the network
    /// RTT *under load*; with ECN-bounded queues the loaded RTT here is
    /// ~100 µs, and the Figure-6 sweep in this reproduction confirms the
    /// optimum (see EXPERIMENTS.md).
    pub flowlet_gap: Duration,
    /// CONGA's in-switch flowlet gap (sweep-calibrated; see EXPERIMENTS.md).
    pub conga_flowlet_gap: Duration,
    /// HULA probe flood interval (paper §8 extension).
    pub hula_probe_interval: Duration,
    /// Switch ECN marking threshold in MTU-sized packets (paper: 20).
    pub ecn_threshold_pkts: u32,
    /// Effective RTT under load (ECN-bounded queues): the timescale for
    /// feedback relaying and congestion windows (paper: relay at RTT/2 of
    /// the *operating* RTT, not the unloaded one).
    pub loaded_rtt: Duration,
    /// Feedback relay interval (paper: RTT / 2).
    pub relay_interval: Duration,
    /// Access link buffer.
    pub access_buffer_bytes: u32,
    /// Fabric link buffer.
    pub fabric_buffer_bytes: u32,
    /// Link propagation delay.
    pub prop_delay: Duration,
    /// TCP minimum RTO.
    pub min_rto: Duration,
    /// TCP initial RTO (before an RTT sample).
    pub init_rto: Duration,
    /// Probe daemon: interval between rounds per destination.
    pub probe_interval: Duration,
    /// Probe daemon: reply collection window per round.
    pub round_timeout: Duration,
    /// Candidate ports probed per round.
    pub probe_candidates: usize,
    /// Paths selected per destination (testbed: 4 disjoint paths).
    pub k_paths: usize,
    /// Consecutive truncated-trace rounds before a selected path is
    /// declared black-holed and evicted.
    pub blackhole_rounds: u32,
    /// Presto receive-side reassembly poll period.
    pub presto_poll: Duration,
    /// Warm-up before application traffic starts (lets the first probe
    /// round finish so policies have discovered paths).
    pub warmup: Duration,
    /// DSACK undo in guest TCP (ablation knob; DESIGN.md §7.1).
    pub dsack_undo: bool,
    /// Clove-ECN weight drift toward uniform per feedback event
    /// (ablation knob; 0 = the paper's literal redistribution only).
    pub clove_recovery_rho: f64,
    /// Degradation ladder, first rung: learned path weights start decaying
    /// toward uniform once the freshest feedback for a destination is older
    /// than this many loaded RTTs.
    pub stale_horizon_rtts: u64,
    /// Degradation ladder, bottom rung: weights are abandoned for uniform
    /// hash-spread once the freshest feedback is older than this many
    /// loaded RTTs.
    pub dead_horizon_rtts: u64,
}

impl Default for Profile {
    fn default() -> Self {
        let rtt = Duration::from_micros(20);
        Profile {
            access_bps: 10_000_000_000,
            fabric_bps: 40_000_000_000,
            rtt,
            flowlet_gap: Duration::from_micros(100),
            conga_flowlet_gap: Duration::from_micros(200),
            hula_probe_interval: Duration::from_micros(200),
            ecn_threshold_pkts: 20,
            loaded_rtt: Duration::from_micros(100),
            relay_interval: Duration::from_micros(50),
            access_buffer_bytes: 512 * 1024,
            fabric_buffer_bytes: 1024 * 1024,
            prop_delay: Duration::from_micros(1),
            min_rto: Duration::from_millis(2),
            init_rto: Duration::from_millis(5),
            probe_interval: Duration::from_millis(100),
            round_timeout: Duration::from_millis(1),
            probe_candidates: 24,
            k_paths: 4,
            blackhole_rounds: 3,
            presto_poll: Duration::from_micros(250),
            warmup: Duration::from_millis(3),
            dsack_undo: true,
            clove_recovery_rho: 0.01,
            stale_horizon_rtts: 16,
            dead_horizon_rtts: 64,
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
        LinkConfig {
            rate_bps: self.access_bps,
            prop_delay: self.prop_delay,
            buffer_bytes: self.access_buffer_bytes,
            ecn_threshold_bytes: self.ecn_threshold_bytes(),
            int_enabled,
            dre_alpha: 0.1,
            dre_period: Duration::from_micros(40),
        }
    }

    /// Link configuration for fabric links.
    pub fn fabric_link(&self, int_enabled: bool) -> LinkConfig {
        LinkConfig {
            rate_bps: self.fabric_bps,
            prop_delay: self.prop_delay,
            buffer_bytes: self.fabric_buffer_bytes,
            ecn_threshold_bytes: self.ecn_threshold_bytes(),
            int_enabled,
            dre_alpha: 0.1,
            dre_period: Duration::from_micros(40),
        }
    }

    /// The probe-daemon configuration this profile implies. Callers
    /// loading external configs should `validate()` the result.
    pub fn discovery_config(&self) -> DiscoveryConfig {
        DiscoveryConfig {
            candidates: self.probe_candidates,
            k_paths: self.k_paths,
            max_ttl: 4,
            probe_interval: self.probe_interval,
            round_timeout: self.round_timeout,
            blackhole_rounds: self.blackhole_rounds,
            ..DiscoveryConfig::default()
        }
    }

    /// TCP configuration with this profile's RTO floors.
    pub fn tcp_config(&self) -> TcpConfig {
        TcpConfig { min_rto: self.min_rto, init_rto: self.init_rto, dsack_undo: self.dsack_undo, ..TcpConfig::default() }
    }

    /// A cheaper profile for CI and quick-scale runs: identical shape,
    /// shorter probes and warmup.
    pub fn quick() -> Profile {
        Profile { probe_interval: Duration::from_millis(10), warmup: Duration::from_millis(2), ..Profile::default() }
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
        assert_eq!(p.relay_interval, p.loaded_rtt / 2);
        assert!(p.min_rto > p.rtt * 10);
    }

    #[test]
    fn link_configs_carry_int_flag() {
        let p = Profile::default();
        assert!(!p.access_link(false).int_enabled);
        assert!(p.fabric_link(true).int_enabled);
        assert_eq!(p.fabric_link(false).rate_bps, 40_000_000_000);
    }
}
