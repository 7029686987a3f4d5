//! The per-layer ledger: which metrics exist, where each comes from, which
//! end-to-end metric it should move, and how the traced pass's counts,
//! spans and kernels turn into values.
//!
//! A layer is a crate. Sources: `Count` is exact, read from the finished
//! world or the replica's own loop; `Span` is host time from the traced
//! pass with the clock's own cost taken out; `Kernel` is an isolated timing
//! fed with inputs recorded from the workload; `Derived` is arithmetic on
//! the others. The driver wants every name on every workload, so a metric a
//! workload does not define is printed as 0 there (README lists which).

use crate::api::{Event, Packet, ScheduledEvent};
use crate::cell::CellCounts;
use crate::spans::{Recorder, Span};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Count,
    Span,
    Kernel,
    Derived,
}

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, source: Source) -> LayerMetric {
    LayerMetric { name, unit, better, source }
}

use Source::{Count as C, Derived as D, Kernel as K, Span as S};

/// Every per-layer metric, in ledger order. BENCHMARK.json's `per_layer`
/// lists exactly these (a test holds the two together).
pub const PER_LAYER: &[LayerMetric] = &[
    // sim -> events_per_s / wall_s on all four (fixed cost per event).
    m("sim.events_popped", "count", "lower", C),
    m("sim.batches", "count", "lower", C),
    m("sim.events_per_batch", "count", "higher", D),
    m("sim.peak_pending", "count", "lower", C),
    m("sim.far_push_share", "share", "lower", C),
    m("sim.event_bytes", "B", "lower", C),
    m("sim.queue_pop_ns_per_event", "ns", "lower", S),
    m("sim.queue_pop_share", "share", "lower", S),
    m("sim.queue_kernel_ns_per_op", "ns", "lower", K),
    // net -> events_per_s on websearch_asym first, incast_fanin second.
    m("net.arrive_host", "count", "lower", C),
    m("net.arrive_leaf", "count", "lower", C),
    m("net.arrive_spine", "count", "lower", C),
    m("net.host_timer_events", "count", "lower", C),
    m("net.fault_events", "count", "lower", C),
    m("net.link_tx_packets", "count", "lower", C),
    m("net.link_tx_bytes", "B", "lower", C),
    m("net.drops_overflow", "count", "lower", C),
    m("net.drops_down", "count", "lower", C),
    m("net.drops_loss", "count", "lower", C),
    m("net.ecn_marks", "count", "lower", C),
    m("net.max_queue_bytes", "B", "lower", C),
    m("net.no_route_drops", "count", "lower", C),
    m("net.probe_replies", "count", "lower", C),
    m("net.faults_applied", "count", "lower", C),
    m("net.packet_bytes", "B", "lower", C),
    m("net.drop_share", "share", "lower", D),
    m("net.fabric_ns_per_switch_arrival", "ns", "lower", S),
    m("net.fabric_ns_per_host_arrival", "ns", "lower", S),
    m("net.fabric_share", "share", "lower", S),
    m("net.link_kernel_ns_per_pkt", "ns", "lower", K),
    m("net.ecmp_kernel_ns_per_hash", "ns", "lower", K),
    // overlay -> events_per_s on the Clove rows of websearch_asym / recovery_traced.
    m("overlay.encapped", "count", "lower", C),
    m("overlay.decapped", "count", "lower", C),
    m("overlay.feedback_sent", "count", "lower", C),
    m("overlay.feedback_received", "count", "lower", C),
    m("overlay.ce_intercepted", "count", "lower", C),
    m("overlay.pure_ack_share", "share", "lower", D),
    m("overlay.encap_kernel_ns_per_pkt", "ns", "lower", K),
    m("overlay.decap_kernel_ns_per_pkt", "ns", "lower", K),
    // core -> events_per_s and sim_fct_* on websearch_asym; ladder -> recovery_traced.
    m("core.path_updates", "count", "lower", C),
    m("core.path_evictions", "count", "lower", C),
    m("core.flowlets_created", "count", "lower", C),
    m("core.flowlet_switches", "count", "lower", C),
    m("core.weight_updates", "count", "lower", C),
    m("core.ladder_transitions", "count", "lower", C),
    m("core.state_flushes", "count", "lower", C),
    m("core.flowlet_kernel_ns_per_lookup", "ns", "lower", K),
    m("core.policy_kernel_ns_per_select", "ns", "lower", K),
    m("core.policy_kernel_ns_per_feedback", "ns", "lower", K),
    // tcp -> events_per_s on incast_fanin and the MPTCP row; timeouts -> sim_goodput_gbps.
    m("tcp.delivered_segments", "count", "higher", C),
    m("tcp.retransmits", "count", "lower", C),
    m("tcp.timeouts", "count", "lower", C),
    m("tcp.fast_retransmits", "count", "lower", C),
    m("tcp.spurious_undos", "count", "lower", C),
    m("tcp.data_rx", "count", "lower", C),
    m("tcp.acks_rx", "count", "lower", C),
    m("tcp.retransmit_share", "share", "lower", D),
    m("tcp.kernel_ns_per_segment", "ns", "lower", K),
    // workload -> setup_s and wall_s on websearch_asym / matrix_jobs (many flows).
    m("workload.flows_started", "count", "higher", C),
    m("workload.flows_completed", "count", "higher", C),
    m("workload.bytes_offered", "B", "higher", C),
    m("workload.plan_ms", "ms", "lower", S),
    m("workload.fct_fold_kernel_ns_per_sample", "ns", "lower", K),
    // harness -> wall_s / events_per_s on matrix_jobs only.
    m("harness.host_ns_per_packet", "ns", "lower", S),
    m("harness.host_ns_per_timer", "ns", "lower", S),
    m("harness.host_share", "share", "lower", S),
    m("harness.cell_setup_ms", "ms", "lower", S),
    m("harness.cell_teardown_ms", "ms", "lower", S),
    m("harness.cells", "count", "higher", C),
    m("harness.quarantined", "count", "lower", C),
    m("harness.journal_stores", "count", "lower", C),
    m("harness.journal_hits", "count", "higher", C),
    m("harness.jobs_speedup", "ratio", "higher", D),
    m("harness.resume_s", "s", "lower", S),
    m("harness.report_render_ms", "ms", "lower", S),
    m("harness.strict_cost_ratio", "ratio", "lower", D),
    m("harness.json_kernel_ns_per_byte", "ns", "lower", K),
    // telemetry -> wall_s and peak_rss_mib on recovery_traced; flat elsewhere.
    m("telemetry.trace_events", "count", "lower", C),
    m("telemetry.trace_dropped", "count", "lower", C),
    m("telemetry.trace_cost_ratio", "ratio", "lower", D),
    m("telemetry.trace_dump_ms", "ms", "lower", S),
    m("telemetry.hist_kernel_ns_per_record", "ns", "lower", K),
    m("telemetry.trace_kernel_ns_per_event", "ns", "lower", K),
    // scheme rows -> each moves events_per_s by its share of the cell set.
    m("scheme.ecmp.ns_per_event", "ns", "lower", S),
    m("scheme.edge-flowlet.ns_per_event", "ns", "lower", S),
    m("scheme.clove-ecn.ns_per_event", "ns", "lower", S),
    m("scheme.clove-int.ns_per_event", "ns", "lower", S),
    m("scheme.conga.ns_per_event", "ns", "lower", S),
    m("scheme.presto.ns_per_event", "ns", "lower", S),
    m("scheme.mptcp.ns_per_event", "ns", "lower", S),
    // trace bookkeeping.
    m("trace.timer_ns", "ns", "lower", S),
    m("trace.overhead_ratio", "ratio", "lower", D),
    m("trace.unattributed_share", "share", "lower", S),
    // The simulated outputs of the traced cells' `Scenario` twins, so the
    // driver's traced run sees the model's numbers too (no bound: they
    // move with the seed by tens of percent at this flow count).
    m("sim_fct_avg_ms", "ms", "lower", D),
    m("sim_fct_p99_ms", "ms", "lower", D),
    m("sim_goodput_gbps", "Gbit/s", "higher", D),
];

/// Counts of the trace kinds the core layer reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceKinds {
    pub flowlets_created: u64,
    pub flowlet_switches: u64,
    pub weight_updates: u64,
    pub ladder_transitions: u64,
    pub state_flushes: u64,
}

/// Kernel timings, ns per op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels {
    pub queue: f64,
    pub link: f64,
    pub ecmp: f64,
    pub encap: f64,
    pub decap: f64,
    pub flowlet: f64,
    pub policy_select: f64,
    pub policy_feedback: f64,
    pub tcp: f64,
    pub fct_fold: f64,
    pub harness_json: f64,
    pub hist: f64,
    pub trace: f64,
}

/// What only some workloads measure; 0 where a workload does not define it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Extras {
    pub cells: u64,
    pub quarantined: u64,
    pub journal_stores: u64,
    pub journal_hits: u64,
    pub jobs_speedup: f64,
    pub resume_s: f64,
    pub report_render_ms: f64,
    pub strict_cost_ratio: f64,
    pub trace_events: u64,
    pub trace_dropped: u64,
    pub trace_cost_ratio: f64,
    pub trace_dump_ms: f64,
    pub sim_fct_avg_ms: f64,
    pub sim_fct_p99_ms: f64,
    pub sim_goodput_gbps: f64,
}

pub struct LedgerInputs<'a> {
    pub counts: &'a CellCounts,
    pub rec: &'a Recorder,
    pub timer_ns: f64,
    pub kinds: TraceKinds,
    pub kernels: Kernels,
    pub extras: Extras,
    /// `(scheme key, untraced wall ns, events)` summed per scheme.
    pub scheme_costs: &'a [(String, f64, u64)],
    /// Wall of the traced cells over wall of the same cells untraced.
    pub overhead_ratio: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of queue pushes scheduled at least 2^16 ns ahead of the head.
fn far_push_share(c: &CellCounts) -> f64 {
    // log2 bucket k >= 1 holds delays in [2^(k-1), 2^k).
    let log2 = c.queue.delay_hist.log2_counts();
    ratio(log2[17..].iter().sum::<u64>() as f64, log2.iter().sum::<u64>() as f64)
}

/// The ledger, one `(name, value)` per entry of [`PER_LAYER`], same order.
pub fn ledger(inp: &LedgerInputs<'_>) -> Vec<(&'static str, f64)> {
    let (c, r, t) = (inp.counts, inp.rec, inp.timer_ns);
    let own = |s: Span| r.self_ns_corrected(s, t);
    let dispatch = [Span::DispatchArriveHost, Span::DispatchArriveLeaf, Span::DispatchArriveSpine, Span::DispatchHostTimer, Span::DispatchOther];
    let fabric_ns: f64 = dispatch.iter().map(|&s| own(s)).sum();
    let host_ns = own(Span::HostOnPacket) + own(Span::HostOnTimer);
    // The loop's time once the clock reads are taken out: what shares are of.
    let loop_ns = own(Span::CellLoop) + own(Span::QueuePop) + fabric_ns + host_ns;
    let cells = r.stat(Span::Cell).count as f64;
    let traced_wall = r.stat(Span::Cell).total_ns as f64;
    let drops = (c.drops_overflow + c.drops_down + c.drops_loss) as f64;
    let scheme_ns = |key: &str| inp.scheme_costs.iter().find(|(k, _, _)| k == key).map_or(0.0, |&(_, ns, ev)| ratio(ns, ev as f64));
    let (k, x) = (&inp.kernels, &inp.extras);
    let entries: Vec<(&'static str, f64)> = vec![
        ("sim.events_popped", c.events_popped as f64),
        ("sim.batches", c.batches as f64),
        ("sim.events_per_batch", ratio(c.events_popped as f64, c.batches as f64)),
        ("sim.peak_pending", c.queue.peak_pending as f64),
        ("sim.far_push_share", far_push_share(c)),
        ("sim.event_bytes", std::mem::size_of::<ScheduledEvent<Event>>() as f64),
        ("sim.queue_pop_ns_per_event", ratio(own(Span::QueuePop), c.events_popped as f64)),
        ("sim.queue_pop_share", ratio(own(Span::QueuePop), loop_ns)),
        ("sim.queue_kernel_ns_per_op", k.queue),
        ("net.arrive_host", c.arrive_host as f64),
        ("net.arrive_leaf", c.arrive_leaf as f64),
        ("net.arrive_spine", c.arrive_spine as f64),
        ("net.host_timer_events", c.host_timer_events as f64),
        ("net.fault_events", c.fault_events as f64),
        ("net.link_tx_packets", c.link_tx_packets as f64),
        ("net.link_tx_bytes", c.link_tx_bytes as f64),
        ("net.drops_overflow", c.drops_overflow as f64),
        ("net.drops_down", c.drops_down as f64),
        ("net.drops_loss", c.drops_loss as f64),
        ("net.ecn_marks", c.ecn_marks as f64),
        ("net.max_queue_bytes", c.max_queue_bytes as f64),
        ("net.no_route_drops", c.no_route_drops as f64),
        ("net.probe_replies", c.probe_replies as f64),
        ("net.faults_applied", c.faults_applied as f64),
        ("net.packet_bytes", std::mem::size_of::<Packet>() as f64),
        ("net.drop_share", ratio(drops, c.link_tx_packets as f64 + drops)),
        ("net.fabric_ns_per_switch_arrival", ratio(own(Span::DispatchArriveLeaf) + own(Span::DispatchArriveSpine), (c.arrive_leaf + c.arrive_spine) as f64)),
        ("net.fabric_ns_per_host_arrival", ratio(own(Span::DispatchArriveHost), c.arrive_host as f64)),
        ("net.fabric_share", ratio(fabric_ns, loop_ns)),
        ("net.link_kernel_ns_per_pkt", k.link),
        ("net.ecmp_kernel_ns_per_hash", k.ecmp),
        ("overlay.encapped", c.encapped as f64),
        ("overlay.decapped", c.decapped as f64),
        ("overlay.feedback_sent", c.feedback_sent as f64),
        ("overlay.feedback_received", c.feedback_received as f64),
        ("overlay.ce_intercepted", c.ce_intercepted as f64),
        ("overlay.pure_ack_share", ratio(c.acks_rx as f64, c.arrive_host as f64)),
        ("overlay.encap_kernel_ns_per_pkt", k.encap),
        ("overlay.decap_kernel_ns_per_pkt", k.decap),
        ("core.path_updates", c.path_updates as f64),
        ("core.path_evictions", c.path_evictions as f64),
        ("core.flowlets_created", inp.kinds.flowlets_created as f64),
        ("core.flowlet_switches", inp.kinds.flowlet_switches as f64),
        ("core.weight_updates", inp.kinds.weight_updates as f64),
        ("core.ladder_transitions", inp.kinds.ladder_transitions as f64),
        ("core.state_flushes", inp.kinds.state_flushes as f64),
        ("core.flowlet_kernel_ns_per_lookup", k.flowlet),
        ("core.policy_kernel_ns_per_select", k.policy_select),
        ("core.policy_kernel_ns_per_feedback", k.policy_feedback),
        ("tcp.delivered_segments", c.delivered_segments as f64),
        ("tcp.retransmits", c.retransmits as f64),
        ("tcp.timeouts", c.timeouts as f64),
        ("tcp.fast_retransmits", c.fast_retransmits as f64),
        ("tcp.spurious_undos", c.spurious_undos as f64),
        ("tcp.data_rx", c.data_rx as f64),
        ("tcp.acks_rx", c.acks_rx as f64),
        ("tcp.retransmit_share", ratio(c.retransmits as f64, (c.delivered_segments + c.retransmits) as f64)),
        ("tcp.kernel_ns_per_segment", k.tcp),
        ("workload.flows_started", c.flows_started as f64),
        ("workload.flows_completed", c.flows_completed as f64),
        ("workload.bytes_offered", c.bytes_offered as f64),
        ("workload.plan_ms", ratio(r.stat(Span::WorkloadPlan).total_ns as f64 / 1e6, cells)),
        ("workload.fct_fold_kernel_ns_per_sample", k.fct_fold),
        ("harness.host_ns_per_packet", ratio(own(Span::HostOnPacket), r.stat(Span::HostOnPacket).count as f64)),
        ("harness.host_ns_per_timer", ratio(own(Span::HostOnTimer), r.stat(Span::HostOnTimer).count as f64)),
        ("harness.host_share", ratio(host_ns, loop_ns)),
        ("harness.cell_setup_ms", ratio(r.stat(Span::CellSetup).total_ns as f64 / 1e6, cells)),
        ("harness.cell_teardown_ms", ratio(r.stat(Span::CellTeardown).total_ns as f64 / 1e6, cells)),
        ("harness.cells", x.cells as f64),
        ("harness.quarantined", x.quarantined as f64),
        ("harness.journal_stores", x.journal_stores as f64),
        ("harness.journal_hits", x.journal_hits as f64),
        ("harness.jobs_speedup", x.jobs_speedup),
        ("harness.resume_s", x.resume_s),
        ("harness.report_render_ms", x.report_render_ms),
        ("harness.strict_cost_ratio", x.strict_cost_ratio),
        ("harness.json_kernel_ns_per_byte", k.harness_json),
        ("telemetry.trace_events", x.trace_events as f64),
        ("telemetry.trace_dropped", x.trace_dropped as f64),
        ("telemetry.trace_cost_ratio", x.trace_cost_ratio),
        ("telemetry.trace_dump_ms", x.trace_dump_ms),
        ("telemetry.hist_kernel_ns_per_record", k.hist),
        ("telemetry.trace_kernel_ns_per_event", k.trace),
        ("scheme.ecmp.ns_per_event", scheme_ns("ecmp")),
        ("scheme.edge-flowlet.ns_per_event", scheme_ns("edge-flowlet")),
        ("scheme.clove-ecn.ns_per_event", scheme_ns("clove-ecn")),
        ("scheme.clove-int.ns_per_event", scheme_ns("clove-int")),
        ("scheme.conga.ns_per_event", scheme_ns("conga")),
        ("scheme.presto.ns_per_event", scheme_ns("presto")),
        ("scheme.mptcp.ns_per_event", scheme_ns("mptcp")),
        ("trace.timer_ns", t),
        ("trace.overhead_ratio", inp.overhead_ratio),
        ("trace.unattributed_share", ratio((r.self_ns(Span::CellLoop) + r.self_ns(Span::Cell)) as f64, traced_wall)),
        ("sim_fct_avg_ms", x.sim_fct_avg_ms),
        ("sim_fct_p99_ms", x.sim_fct_p99_ms),
        ("sim_goodput_gbps", x.sim_goodput_gbps),
    ];
    assert!(entries.iter().map(|e| e.0).eq(PER_LAYER.iter().map(|m| m.name)), "the ledger fills PER_LAYER, in order");
    entries
}

/// How far the recorder's books are from closed: every span's raw self time
/// below `cell` (the loop's and the cell's own being the unattributed part)
/// summed, against `wall_s` — the traced cells' wall by an independent
/// stopwatch. 0 is exact.
pub fn accounting_gap(r: &Recorder, wall_s: f64) -> f64 {
    let below_cell = |s: &Span| std::iter::successors(Some(*s), |s| s.parent()).any(|p| p == Span::Cell);
    let summed: u64 = Span::ALL.iter().filter(|s| below_cell(s)).map(|&s| r.self_ns(s)).sum();
    ratio((summed as f64 - wall_s * 1e9).abs(), wall_s * 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_names_are_unique_contract_shaped_and_at_most_128() {
        assert!(PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "a name is used once");
        for m in PER_LAYER {
            assert!(m.name.len() <= 64 && m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m.unit.len() <= 16 && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for key in ["ecmp", "edge-flowlet", "clove-ecn", "clove-int", "conga", "presto", "mptcp"] {
            assert!(PER_LAYER.iter().any(|m| m.name == format!("scheme.{key}.ns_per_event")));
        }
    }
}
