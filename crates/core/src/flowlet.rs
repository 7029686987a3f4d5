//! Software flowlet switching (paper §3.2).
//!
//! A flowlet is a burst of packets in a flow separated from the next burst
//! by an idle gap long enough that re-routing the new burst cannot reorder
//! it behind the old one. The paper recommends a gap of one to two network
//! RTTs; Figure 6 shows the sensitivity (0.2×RTT reorders and degrades 5×,
//! 5×RTT suffers elephant-flowlet collisions).
//!
//! [`FlowletTable`] is the hypervisor-side structure: a map from five-tuple
//! to `(last_seen, port, flowlet_id)`. The kernel implementation uses RCU
//! hash lists for lock-free reads (paper §4); single-threaded simulation
//! needs only a `HashMap`, but the aging/eviction behaviour is modeled so
//! the state-space claims of §4 hold.

#![expect(
    clippy::disallowed_types,
    reason = "generic over BuildHasher for the counting-hasher tests; the default is FxBuildHasher, so RandomState is unreachable from production code"
)]

use clove_net::types::FlowKey;
use clove_sim::{Duration, Time};
use clove_telemetry::Trace;
use rustc_hash::FxBuildHasher;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Soft cap on table entries: a packet that finds more tracked flows than
/// this first sweeps out the idle ones.
pub const MAX_ENTRIES: usize = 65_536;

/// Flowlet detection parameters.
#[derive(Debug, Clone, Copy)]
pub struct FlowletConfig {
    /// Idle gap that opens a new flowlet.
    pub gap: Duration,
}

impl FlowletConfig {
    /// A config with the given gap.
    pub fn with_gap(gap: Duration) -> FlowletConfig {
        FlowletConfig { gap }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    last_seen: Time,
    port: u16,
    /// The id `pick` was called with (diagnostics).
    flowlet_id: u64,
}

/// Table statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowletStats {
    /// New flowlets opened (including the first of each flow).
    pub flowlets: u64,
    /// Entries evicted by aging.
    pub evictions: u64,
}

/// The per-hypervisor flowlet table.
///
/// Generic over the hash builder so tests can count hash invocations with a
/// shim; production code always uses the [`FxBuildHasher`] default (the
/// table sits on the per-packet hot path).
#[derive(Debug)]
pub struct FlowletTable<S: BuildHasher = FxBuildHasher> {
    cfg: FlowletConfig,
    entries: HashMap<FlowKey, Entry, S>,
    next_flowlet_id: u64,
    /// Counters.
    pub stats: FlowletStats,
    /// Decision-trace handle (disabled by default): flowlet create/switch/
    /// expire events. Recording never affects classification.
    trace: Trace,
}

impl FlowletTable {
    /// An empty table.
    pub fn new(cfg: FlowletConfig) -> FlowletTable {
        FlowletTable::with_hasher(cfg, FxBuildHasher::default())
    }
}

impl<S: BuildHasher> FlowletTable<S> {
    /// An empty table using a caller-provided hash builder (tests use this
    /// with a counting shim to assert hot-path lookup counts).
    pub fn with_hasher(cfg: FlowletConfig, hasher: S) -> FlowletTable<S> {
        FlowletTable {
            cfg,
            entries: HashMap::with_capacity_and_hasher(64, hasher),
            next_flowlet_id: 0,
            stats: FlowletStats::default(),
            trace: Trace::disabled(),
        }
    }

    /// Install a decision-trace handle (pre-bound to the owning host).
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Classify a packet: returns the port its flowlet is pinned to.
    /// `pick` runs exactly when a new flowlet opens and chooses its port;
    /// it receives the fresh flowlet id.
    ///
    /// Every path through here hashes the key exactly once (`entry`): the
    /// common no-new-flowlet case updates in place, and even the miss/
    /// expired paths reuse the same slot instead of a second probe.
    pub fn on_packet(&mut self, now: Time, flow: FlowKey, pick: impl FnOnce(u64) -> u16) -> u16 {
        if self.entries.len() > MAX_ENTRIES {
            self.sweep(now);
        }
        let gap = self.cfg.gap;
        match self.entries.entry(flow) {
            MapEntry::Occupied(mut occ) => {
                let e = occ.get_mut();
                if now.saturating_since(e.last_seen) <= gap {
                    e.last_seen = now;
                    e.port
                } else {
                    let flowlet_id = self.next_flowlet_id;
                    self.next_flowlet_id += 1;
                    self.stats.flowlets += 1;
                    let port = pick(flowlet_id);
                    self.trace.flowlet_switch(now.0, flow.dst.0, flowlet_id, port, e.port, now.saturating_since(e.last_seen).0);
                    *e = Entry { last_seen: now, port, flowlet_id };
                    port
                }
            }
            MapEntry::Vacant(vac) => {
                let flowlet_id = self.next_flowlet_id;
                self.next_flowlet_id += 1;
                self.stats.flowlets += 1;
                let port = pick(flowlet_id);
                self.trace.flowlet_create(now.0, flow.dst.0, flowlet_id, port);
                vac.insert(Entry { last_seen: now, port, flowlet_id });
                port
            }
        }
    }

    /// The port the current flowlet of `flow` is pinned to, if fresh.
    pub fn current_port(&self, now: Time, flow: &FlowKey) -> Option<u16> {
        self.entries.get(flow).filter(|e| now.saturating_since(e.last_seen) <= self.cfg.gap).map(|e| e.port)
    }

    /// The id of the current flowlet of `flow`, if tracked.
    pub fn current_flowlet_id(&self, flow: &FlowKey) -> Option<u64> {
        self.entries.get(flow).map(|e| e.flowlet_id)
    }

    /// Tracked flows in table iteration order. The order is arbitrary but
    /// — because the default hasher is the unseeded [`FxBuildHasher`] —
    /// reproducible across table instances and process runs; the
    /// `iteration_order_is_stable_across_instances` test pins that down.
    pub fn flows(&self) -> impl Iterator<Item = &FlowKey> {
        self.entries.keys()
    }

    /// Drop every tracked flow at once (vswitch cold restart). The flowlet
    /// id counter deliberately survives: a restarted hypervisor never
    /// reuses an id, so traced flowlets stay unique across the crash.
    /// Stats survive too — they are the experiment's cumulative ledger.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn sweep(&mut self, now: Time) {
        // Entries idle longer than 64 gaps go, which keeps the table at the
        // "order of destinations actively talked to" size the paper cites.
        let evict = self.cfg.gap * 64;
        let before = self.entries.len();
        let trace = &self.trace;
        // `retain` walks the map in its (deterministic, Fx-hashed) iteration
        // order, so traced expiries land in a reproducible order too.
        self.entries.retain(|flow, e| {
            let idle = now.saturating_since(e.last_seen);
            let keep = idle <= evict;
            if !keep {
                trace.flowlet_expire(now.0, flow.dst.0, e.flowlet_id, e.port, idle.0);
            }
            keep
        });
        self.stats.evictions += (before - self.entries.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clove_net::types::HostId;

    fn flow(sport: u16) -> FlowKey {
        FlowKey::tcp(HostId(0), HostId(1), sport, 80)
    }

    fn table(gap_us: u64) -> FlowletTable {
        FlowletTable::new(FlowletConfig::with_gap(Duration::from_micros(gap_us)))
    }

    #[test]
    fn first_packet_opens_flowlet() {
        let mut t = table(100);
        let port = t.on_packet(Time::ZERO, flow(1), |_| 42);
        assert_eq!(port, 42);
        assert_eq!(t.stats.flowlets, 1);
    }

    #[test]
    fn packets_within_gap_stick() {
        let mut t = table(100);
        t.on_packet(Time::ZERO, flow(1), |_| 42);
        for us in [10u64, 50, 149, 240] {
            // Each packet refreshes last_seen, so gaps are measured
            // packet-to-packet, not from the flowlet start.
            let port = t.on_packet(Time::from_micros(us), flow(1), |_| 99);
            assert_eq!(port, 42, "at t={us}us");
        }
        assert_eq!(t.stats.flowlets, 1);
    }

    #[test]
    fn gap_opens_new_flowlet_with_fresh_id() {
        let mut t = table(100);
        let mut ids = vec![];
        t.on_packet(Time::ZERO, flow(1), |id| {
            ids.push(id);
            1
        });
        t.on_packet(Time::from_micros(300), flow(1), |id| {
            ids.push(id);
            2
        });
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(t.stats.flowlets, 2);
    }

    #[test]
    fn boundary_gap_exactly_equal_stays() {
        let mut t = table(100);
        t.on_packet(Time::ZERO, flow(1), |_| 7);
        let port = t.on_packet(Time::from_micros(100), flow(1), |_| 8);
        assert_eq!(port, 7, "gap == threshold keeps the flowlet");
        let port = t.on_packet(Time::from_micros(201), flow(1), |_| 8);
        assert_eq!(port, 8, "gap > threshold re-routes");
    }

    #[test]
    fn flows_tracked_independently() {
        let mut t = table(100);
        t.on_packet(Time::ZERO, flow(1), |_| 1);
        t.on_packet(Time::ZERO, flow(2), |_| 2);
        assert_eq!(t.current_port(Time::ZERO, &flow(1)), Some(1));
        assert_eq!(t.current_port(Time::ZERO, &flow(2)), Some(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn current_port_expires() {
        let mut t = table(100);
        t.on_packet(Time::ZERO, flow(1), |_| 1);
        assert_eq!(t.current_port(Time::from_micros(50), &flow(1)), Some(1));
        assert_eq!(t.current_port(Time::from_micros(500), &flow(1)), None);
    }

    #[test]
    fn eviction_sweep_trims_idle_flows() {
        // More flows than one host pair's source ports: spread over dsts.
        let key = |i: u32| FlowKey::tcp(HostId(0), HostId(1 + (i >> 16)), i as u16, 80);
        let mut t = table(100);
        let n = MAX_ENTRIES as u32 + 1;
        for i in 0..n {
            t.on_packet(Time::ZERO, key(i), |_| 1);
        }
        // Next packet after the 6.4 ms idle eviction triggers the sweep first.
        t.on_packet(Time::from_millis(10), key(n), |_| 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats.evictions, n as u64);
    }

    #[test]
    fn flowlet_ids_are_monotone() {
        let mut t = table(100);
        t.on_packet(Time::ZERO, flow(1), |_| 1);
        let id1 = t.current_flowlet_id(&flow(1)).unwrap();
        t.on_packet(Time::from_millis(1), flow(1), |_| 2);
        let id2 = t.current_flowlet_id(&flow(1)).unwrap();
        assert!(id2 > id1);
        assert_eq!(t.current_flowlet_id(&flow(9)), None);
    }

    /// Determinism regression (the `clippy.toml` `HashMap` ban): the
    /// table's iteration order must not depend on per-instance hasher
    /// state. With std's `RandomState` every instance draws a fresh seed
    /// and this test fails; with the unseeded `FxBuildHasher` default the
    /// order is a pure function of the inserted keys, so two identically
    /// loaded tables — and therefore two identical runs — iterate alike.
    #[test]
    fn iteration_order_is_stable_across_instances() {
        let build = || {
            let mut t = table(100);
            for s in 0..257u16 {
                // Enough keys to force several resizes/rehashes.
                t.on_packet(Time::ZERO, flow(s), |_| 1);
            }
            t.flows().copied().collect::<Vec<_>>()
        };
        let a = build();
        let b = build();
        assert_eq!(a.len(), 257);
        assert_eq!(a, b, "flowlet-table iteration order must be reproducible across instances/runs");
    }

    /// A hash builder that counts how many hashers it hands out — i.e. how
    /// many times the map hashed a key. Delegates the actual hashing to Fx.
    #[derive(Clone)]
    struct CountingHasher {
        hashes: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl std::hash::BuildHasher for CountingHasher {
        type Hasher = rustc_hash::FxHasher;
        fn build_hasher(&self) -> Self::Hasher {
            self.hashes.set(self.hashes.get() + 1);
            rustc_hash::FxHasher::default()
        }
    }

    #[test]
    fn on_packet_hashes_key_exactly_once() {
        let hashes = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let mut t = FlowletTable::with_hasher(FlowletConfig::with_gap(Duration::from_micros(100)), CountingHasher { hashes: hashes.clone() });
        // `with_hasher` pre-sizes the map, so no resize-triggered rehashes
        // muddy the counts below.

        // Cold miss (vacant insert): one hash.
        t.on_packet(Time::ZERO, flow(1), |_| 1);
        assert_eq!(hashes.get(), 1, "vacant insert must hash once");

        // Hot hit (the per-packet common case): one hash.
        t.on_packet(Time::from_micros(10), flow(1), |_| 2);
        assert_eq!(hashes.get(), 2, "in-gap hit must hash once");

        // Expired entry (new flowlet over an occupied slot): still one hash
        // — the slot found by `entry` is reused, not re-probed.
        t.on_packet(Time::from_millis(10), flow(1), |_| 3);
        assert_eq!(hashes.get(), 3, "expired-entry replacement must hash once");
        assert_eq!(t.stats.flowlets, 2);
    }
}
