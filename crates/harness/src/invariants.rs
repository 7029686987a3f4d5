//! Runtime invariant monitor for strict-mode runs.
//!
//! Fault-injection experiments deliberately push the stack into corners —
//! lossy control planes, dead feedback loops, flapping cables. The monitor
//! asserts, at every run-loop chunk boundary, that no amount of injected
//! damage corrupts *internal* state:
//!
//! * drop-tail discipline: no link queue ever exceeds its configured
//!   buffer (neither instantaneously nor in its high-water mark);
//! * weight sanity: every policy weight is finite and non-negative, and
//!   per-destination weights sum to ≈ 1 after normalization;
//! * bounded state: flowlet tables stay under their eviction bound and
//!   probe daemons never exceed their outstanding-probe budget;
//! * conservation: completed jobs never exceed the jobs created.
//!
//! Violations are collected as strings (not panics) so a run reports all
//! of them; `clove-run --strict` and the integration tests fail the run
//! when any are present.

use crate::stack::HostStack;
use clove_core::discovery::MAX_OUTSTANDING;
use clove_core::flowlet::MAX_ENTRIES;
use clove_net::Network;
use clove_sim::Time;

/// Flowlet tables sweep past [`MAX_ENTRIES`]; allow 2× headroom so the
/// check flags leaks, not transient overshoot.
const FLOWLET_TABLE_BOUND: usize = 2 * MAX_ENTRIES;

/// Tolerance on the per-destination weight sum (weights normalize to 1).
const WEIGHT_SUM_TOL: f64 = 1e-6;

/// Collects invariant violations across a run. See module docs.
#[derive(Debug, Default)]
pub struct InvariantMonitor {
    /// Human-readable violation descriptions, in detection order.
    pub violations: Vec<String>,
    /// Check passes executed (diagnostics; proves the monitor ran).
    pub checks: u64,
}

impl InvariantMonitor {
    /// A fresh monitor with no recorded violations.
    pub fn new() -> InvariantMonitor {
        InvariantMonitor::default()
    }

    /// True when no invariant has been violated so far.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn violation(&mut self, now: Time, what: String) {
        // Cap the list so a systemic breakage doesn't eat memory; the
        // count of distinct messages matters less than their existence.
        if self.violations.len() < 64 {
            self.violations.push(format!("t={}ns {}", now.0, what));
        }
    }

    /// Run every check against the current network state.
    pub fn check(&mut self, now: Time, net: &Network<HostStack>) {
        self.checks += 1;
        self.check_links(now, net);
        self.check_policies(now, net);
        self.check_conservation(now, net);
    }

    fn check_links(&mut self, now: Time, net: &Network<HostStack>) {
        for link in &net.fabric.links {
            let buf = link.cfg.buffer_bytes;
            if link.queue_bytes() > buf {
                self.violation(now, format!("link {:?}->{:?} queue {}B exceeds buffer {}B", link.from, link.to, link.queue_bytes(), buf));
            }
            if link.stats.max_queue_bytes > buf {
                self.violation(now, format!("link {:?}->{:?} max queue {}B exceeded buffer {}B", link.from, link.to, link.stats.max_queue_bytes, buf));
            }
        }
    }

    fn check_policies(&mut self, now: Time, net: &Network<HostStack>) {
        for host in &net.hosts.hosts {
            let policy = host.vswitch.policy();
            for &peer in &host.peers {
                let Some(weights) = policy.debug_weights(peer) else {
                    continue;
                };
                if weights.is_empty() {
                    continue;
                }
                let mut sum = 0.0;
                for &(port, w) in &weights {
                    if !w.is_finite() || w < 0.0 {
                        self.violation(now, format!("host {} dst {} port {} weight {} is not finite/non-negative", host.id, peer, port, w));
                    } else {
                        sum += w;
                    }
                }
                if (sum - 1.0).abs() > WEIGHT_SUM_TOL {
                    self.violation(now, format!("host {} dst {} weights sum to {} (expected 1)", host.id, peer, sum));
                }
            }
            if let Some(len) = policy.flowlet_len() {
                if len > FLOWLET_TABLE_BOUND {
                    self.violation(now, format!("host {} flowlet table holds {} entries (bound {})", host.id, len, FLOWLET_TABLE_BOUND));
                }
            }
            if let Some(daemon) = &host.daemon {
                if daemon.outstanding() > MAX_OUTSTANDING {
                    self.violation(now, format!("host {} probe daemon has {} outstanding probes (budget {MAX_OUTSTANDING})", host.id, daemon.outstanding()));
                }
            }
        }
    }

    fn check_conservation(&mut self, now: Time, net: &Network<HostStack>) {
        let completed = net.hosts.fct.completed() as u64;
        if completed > net.hosts.total_jobs && net.hosts.total_jobs > 0 {
            self.violation(now, format!("{} jobs completed but only {} were created", completed, net.hosts.total_jobs));
        }
    }
}
