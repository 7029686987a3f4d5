//! Structured decision tracing: sim-time-stamped events for the moments the
//! paper's schemes actually *decide* something — flowlet lifecycle, WRR
//! weight updates, ECN marks, INT readings, degradation-ladder rung changes,
//! path eviction, fault activation.
//!
//! Events land in a capped buffer behind a cheap cloneable handle
//! ([`Trace`]). A disabled handle is a single `Option` check per call site,
//! and a run with tracing enabled must produce byte-identical simulation
//! output to one without — recording never mutates simulation state.
//!
//! The handle is `Rc`-based on purpose: a simulation cell runs single-
//! threaded on its worker, and keeping the handle `!Send` makes it
//! impossible to accidentally share a buffer across cells (which would
//! destroy deterministic dump ordering at `--jobs > 1`).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Version stamp emitted as the `v` field of every JSONL record. Bump this
/// (and the golden schema test) whenever a field is added/renamed.
///
/// History: v1 — the original 10 kinds; v2 — adds `node_fault_activation`,
/// `vswitch_restart`, and `state_flush` (node-level fault domains). v1
/// dumps remain valid v2 documents: no v1 field changed.
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// Rungs of the graceful-degradation ladder in the Clove policies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderRung {
    /// Feedback is fresh; normal congestion-aware operation.
    #[default]
    Fresh,
    /// Feedback is stale; weights decay toward uniform.
    Stale,
    /// Feedback is dead; the policy falls back to hash-spreading.
    Dead,
}

impl LadderRung {
    /// Stable schema name.
    pub fn name(self) -> &'static str {
        match self {
            LadderRung::Fresh => "fresh",
            LadderRung::Stale => "stale",
            LadderRung::Dead => "dead",
        }
    }
}

/// One traced decision. All payloads are plain integers or `'static` names
/// so rendering is trivially deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A new flowlet entry was created for a flow (first packet, or table
    /// entry previously swept away).
    FlowletCreate { t_ns: u64, host: u32, dst: u32, flowlet_id: u64, port: u16 },
    /// An existing flowlet's idle gap elapsed and the flow was re-pinned,
    /// possibly onto a different port.
    FlowletSwitch { t_ns: u64, host: u32, dst: u32, flowlet_id: u64, port: u16, prev_port: u16, idle_ns: u64 },
    /// A flowlet entry was evicted by the idle sweep without a successor.
    FlowletExpire { t_ns: u64, host: u32, dst: u32, flowlet_id: u64, port: u16, idle_ns: u64 },
    /// A WRR weight changed in response to feedback. `weight_ppm` is the
    /// post-update weight in parts-per-million of the distribution.
    WeightUpdate { t_ns: u64, host: u32, dst: u32, port: u16, weight_ppm: u64, cause: &'static str },
    /// A packet was CE-marked crossing a link's ECN threshold.
    EcnMark { t_ns: u64, link: u32, marks: u64 },
    /// An INT utilization reading arrived back at the source edge.
    IntReading { t_ns: u64, host: u32, port: u16, util_pm: u64 },
    /// The degradation ladder moved between rungs for a destination.
    LadderTransition { t_ns: u64, host: u32, dst: u32, from: LadderRung, to: LadderRung },
    /// Discovery declared a path dead and evicted it from the policy.
    PathEviction { t_ns: u64, host: u32, dst: u32, port: u16 },
    /// A data-plane fault fired on a link.
    FaultActivation { t_ns: u64, link: u32, action: &'static str, announced: bool },
    /// A control-plane fault regime was activated.
    ControlFault { t_ns: u64, action: &'static str },
    /// A node-level fault phase fired (`action`: "down" = crash, "up" =
    /// restart) on a node named by tier + index. `cold` is the eventual
    /// restart semantics, carried on both phases. Since v2.
    NodeFaultActivation { t_ns: u64, node: &'static str, index: u32, action: &'static str, cold: bool },
    /// A host's vswitch came back from a hypervisor crash-restart. Since v2.
    VswitchRestart { t_ns: u64, host: u32, cold: bool },
    /// A node flushed a class of soft state (`what`, e.g. "fabric_lb",
    /// "vswitch", "discovery") during a cold restart. Since v2.
    StateFlush { t_ns: u64, node: &'static str, index: u32, what: &'static str },
}

impl TraceEvent {
    /// Stable schema kind name (the JSONL `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FlowletCreate { .. } => "flowlet_create",
            TraceEvent::FlowletSwitch { .. } => "flowlet_switch",
            TraceEvent::FlowletExpire { .. } => "flowlet_expire",
            TraceEvent::WeightUpdate { .. } => "weight_update",
            TraceEvent::EcnMark { .. } => "ecn_mark",
            TraceEvent::IntReading { .. } => "int_reading",
            TraceEvent::LadderTransition { .. } => "ladder_transition",
            TraceEvent::PathEviction { .. } => "path_eviction",
            TraceEvent::FaultActivation { .. } => "fault_activation",
            TraceEvent::ControlFault { .. } => "control_fault",
            TraceEvent::NodeFaultActivation { .. } => "node_fault_activation",
            TraceEvent::VswitchRestart { .. } => "vswitch_restart",
            TraceEvent::StateFlush { .. } => "state_flush",
        }
    }

    /// Sim timestamp of the event in nanoseconds.
    pub fn t_ns(&self) -> u64 {
        match *self {
            TraceEvent::FlowletCreate { t_ns, .. }
            | TraceEvent::FlowletSwitch { t_ns, .. }
            | TraceEvent::FlowletExpire { t_ns, .. }
            | TraceEvent::WeightUpdate { t_ns, .. }
            | TraceEvent::EcnMark { t_ns, .. }
            | TraceEvent::IntReading { t_ns, .. }
            | TraceEvent::LadderTransition { t_ns, .. }
            | TraceEvent::PathEviction { t_ns, .. }
            | TraceEvent::FaultActivation { t_ns, .. }
            | TraceEvent::ControlFault { t_ns, .. }
            | TraceEvent::NodeFaultActivation { t_ns, .. }
            | TraceEvent::VswitchRestart { t_ns, .. }
            | TraceEvent::StateFlush { t_ns, .. } => t_ns,
        }
    }

    /// Append this event as one JSONL line (including the trailing newline).
    /// Field order is fixed: `v`, `kind`, `t_ns`, then kind-specific fields
    /// in declaration order — the golden schema test pins this.
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = write!(out, "{{\"v\":{},\"kind\":\"{}\",\"t_ns\":{}", TRACE_SCHEMA_VERSION, self.kind(), self.t_ns());
        match *self {
            TraceEvent::FlowletCreate { host, dst, flowlet_id, port, .. } => {
                let _ = write!(out, ",\"host\":{host},\"dst\":{dst},\"flowlet_id\":{flowlet_id},\"port\":{port}");
            }
            TraceEvent::FlowletSwitch { host, dst, flowlet_id, port, prev_port, idle_ns, .. } => {
                let _ =
                    write!(out, ",\"host\":{host},\"dst\":{dst},\"flowlet_id\":{flowlet_id},\"port\":{port},\"prev_port\":{prev_port},\"idle_ns\":{idle_ns}");
            }
            TraceEvent::FlowletExpire { host, dst, flowlet_id, port, idle_ns, .. } => {
                let _ = write!(out, ",\"host\":{host},\"dst\":{dst},\"flowlet_id\":{flowlet_id},\"port\":{port},\"idle_ns\":{idle_ns}");
            }
            TraceEvent::WeightUpdate { host, dst, port, weight_ppm, cause, .. } => {
                let _ = write!(out, ",\"host\":{host},\"dst\":{dst},\"port\":{port},\"weight_ppm\":{weight_ppm},\"cause\":\"{cause}\"");
            }
            TraceEvent::EcnMark { link, marks, .. } => {
                let _ = write!(out, ",\"link\":{link},\"marks\":{marks}");
            }
            TraceEvent::IntReading { host, port, util_pm, .. } => {
                let _ = write!(out, ",\"host\":{host},\"port\":{port},\"util_pm\":{util_pm}");
            }
            TraceEvent::LadderTransition { host, dst, from, to, .. } => {
                let _ = write!(out, ",\"host\":{host},\"dst\":{dst},\"from\":\"{}\",\"to\":\"{}\"", from.name(), to.name());
            }
            TraceEvent::PathEviction { host, dst, port, .. } => {
                let _ = write!(out, ",\"host\":{host},\"dst\":{dst},\"port\":{port}");
            }
            TraceEvent::FaultActivation { link, action, announced, .. } => {
                let _ = write!(out, ",\"link\":{link},\"action\":\"{action}\",\"announced\":{announced}");
            }
            TraceEvent::ControlFault { action, .. } => {
                let _ = write!(out, ",\"action\":\"{action}\"");
            }
            TraceEvent::NodeFaultActivation { node, index, action, cold, .. } => {
                let _ = write!(out, ",\"node\":\"{node}\",\"index\":{index},\"action\":\"{action}\",\"cold\":{cold}");
            }
            TraceEvent::VswitchRestart { host, cold, .. } => {
                let _ = write!(out, ",\"host\":{host},\"cold\":{cold}");
            }
            TraceEvent::StateFlush { node, index, what, .. } => {
                let _ = write!(out, ",\"node\":\"{node}\",\"index\":{index},\"what\":\"{what}\"");
            }
        }
        out.push_str("}\n");
    }
}

/// Bounded event store behind a [`Trace`] handle. Once `capacity` events are
/// held, further events are counted in `dropped` instead of stored, so a
/// pathological cell cannot exhaust memory.
#[derive(Debug)]
pub struct TraceBuf {
    capacity: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceBuf {
    fn new(capacity: usize) -> TraceBuf {
        TraceBuf { capacity, events: Vec::new(), dropped: 0 }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// Default trace buffer capacity (events, not bytes).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Cloneable handle to a shared [`TraceBuf`], pre-bound to a reporting host.
/// A handle made with [`Trace::disabled`] (or `Default`) never records and
/// costs one branch per call.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    buf: Option<Rc<RefCell<TraceBuf>>>,
    host: u32,
}

impl Trace {
    /// Handle that records nothing.
    pub fn disabled() -> Trace {
        Trace::default()
    }

    /// Enabled handle backed by a fresh buffer of `capacity` events.
    pub fn new(capacity: usize) -> Trace {
        Trace { buf: Some(Rc::new(RefCell::new(TraceBuf::new(capacity)))), host: 0 }
    }

    /// Same buffer, different pre-bound reporting host.
    pub fn with_host(&self, host: u32) -> Trace {
        Trace { buf: self.buf.clone(), host }
    }

    /// True when events will actually be stored.
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Record a fully-formed event.
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        if let Some(buf) = &self.buf {
            buf.borrow_mut().push(ev);
        }
    }

    /// Pre-bound reporting host for the convenience constructors below.
    pub fn host(&self) -> u32 {
        self.host
    }

    /// Record a flowlet-create decision.
    #[inline]
    pub fn flowlet_create(&self, t_ns: u64, dst: u32, flowlet_id: u64, port: u16) {
        if self.buf.is_some() {
            self.record(TraceEvent::FlowletCreate { t_ns, host: self.host, dst, flowlet_id, port });
        }
    }

    /// Record a flowlet gap expiry that re-pinned the flow.
    #[inline]
    pub fn flowlet_switch(&self, t_ns: u64, dst: u32, flowlet_id: u64, port: u16, prev_port: u16, idle_ns: u64) {
        if self.buf.is_some() {
            self.record(TraceEvent::FlowletSwitch { t_ns, host: self.host, dst, flowlet_id, port, prev_port, idle_ns });
        }
    }

    /// Record a flowlet entry evicted by the idle sweep.
    #[inline]
    pub fn flowlet_expire(&self, t_ns: u64, dst: u32, flowlet_id: u64, port: u16, idle_ns: u64) {
        if self.buf.is_some() {
            self.record(TraceEvent::FlowletExpire { t_ns, host: self.host, dst, flowlet_id, port, idle_ns });
        }
    }

    /// Record a feedback-driven WRR weight change.
    #[inline]
    pub fn weight_update(&self, t_ns: u64, dst: u32, port: u16, weight_ppm: u64, cause: &'static str) {
        if self.buf.is_some() {
            self.record(TraceEvent::WeightUpdate { t_ns, host: self.host, dst, port, weight_ppm, cause });
        }
    }

    /// Record CE marks applied on a link (count of marks in this enqueue).
    #[inline]
    pub fn ecn_mark(&self, t_ns: u64, link: u32, marks: u64) {
        if self.buf.is_some() {
            self.record(TraceEvent::EcnMark { t_ns, link, marks });
        }
    }

    /// Record an INT utilization reading observed at decap.
    #[inline]
    pub fn int_reading(&self, t_ns: u64, port: u16, util_pm: u64) {
        if self.buf.is_some() {
            self.record(TraceEvent::IntReading { t_ns, host: self.host, port, util_pm });
        }
    }

    /// Record a degradation-ladder rung change for a destination.
    #[inline]
    pub fn ladder_transition(&self, t_ns: u64, dst: u32, from: LadderRung, to: LadderRung) {
        if self.buf.is_some() {
            self.record(TraceEvent::LadderTransition { t_ns, host: self.host, dst, from, to });
        }
    }

    /// Record a discovery-driven path eviction.
    #[inline]
    pub fn path_eviction(&self, t_ns: u64, dst: u32, port: u16) {
        if self.buf.is_some() {
            self.record(TraceEvent::PathEviction { t_ns, host: self.host, dst, port });
        }
    }

    /// Record a data-plane fault firing.
    #[inline]
    pub fn fault_activation(&self, t_ns: u64, link: u32, action: &'static str, announced: bool) {
        if self.buf.is_some() {
            self.record(TraceEvent::FaultActivation { t_ns, link, action, announced });
        }
    }

    /// Record a control-plane fault regime change.
    #[inline]
    pub fn control_fault(&self, t_ns: u64, action: &'static str) {
        if self.buf.is_some() {
            self.record(TraceEvent::ControlFault { t_ns, action });
        }
    }

    /// Record a node-level fault phase (crash or restart).
    #[inline]
    pub fn node_fault_activation(&self, t_ns: u64, node: &'static str, index: u32, action: &'static str, cold: bool) {
        if self.buf.is_some() {
            self.record(TraceEvent::NodeFaultActivation { t_ns, node, index, action, cold });
        }
    }

    /// Record a vswitch returning from a hypervisor crash-restart.
    #[inline]
    pub fn vswitch_restart(&self, t_ns: u64, cold: bool) {
        if self.buf.is_some() {
            self.record(TraceEvent::VswitchRestart { t_ns, host: self.host, cold });
        }
    }

    /// Record a cold-restart state flush on a node.
    #[inline]
    pub fn state_flush(&self, t_ns: u64, node: &'static str, index: u32, what: &'static str) {
        if self.buf.is_some() {
            self.record(TraceEvent::StateFlush { t_ns, node, index, what });
        }
    }

    /// Drain the shared buffer: recorded events in insertion order (which is
    /// sim-time order, since a cell runs single-threaded through the event
    /// loop) plus the count of events dropped at capacity.
    pub fn take(&self) -> (Vec<TraceEvent>, u64) {
        match &self.buf {
            Some(buf) => {
                let mut b = buf.borrow_mut();
                (std::mem::take(&mut b.events), b.dropped)
            }
            None => (Vec::new(), 0),
        }
    }
}

/// Render a slice of events as a JSONL document.
pub fn render_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        ev.write_jsonl(&mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Trace::disabled();
        t.flowlet_create(1, 2, 3, 4);
        t.fault_activation(5, 6, "cut_link", true);
        assert!(!t.is_enabled());
        assert_eq!(t.take(), (Vec::new(), 0));
    }

    #[test]
    fn handle_binds_host_and_preserves_order() {
        let root = Trace::new(16);
        let h3 = root.with_host(3);
        let h7 = root.with_host(7);
        h3.flowlet_create(10, 1, 100, 2);
        h7.path_eviction(20, 1, 2);
        h3.ladder_transition(30, 1, LadderRung::Fresh, LadderRung::Stale);
        let (events, dropped) = root.take();
        assert_eq!(dropped, 0);
        assert_eq!(
            events,
            vec![
                TraceEvent::FlowletCreate { t_ns: 10, host: 3, dst: 1, flowlet_id: 100, port: 2 },
                TraceEvent::PathEviction { t_ns: 20, host: 7, dst: 1, port: 2 },
                TraceEvent::LadderTransition { t_ns: 30, host: 3, dst: 1, from: LadderRung::Fresh, to: LadderRung::Stale },
            ]
        );
    }

    #[test]
    fn ring_buffer_caps_and_counts_drops() {
        let t = Trace::new(2);
        for i in 0..5 {
            t.ecn_mark(i, 0, 1);
        }
        let (events, dropped) = t.take();
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 3);
    }

    #[test]
    fn jsonl_rendering_is_stable() {
        let ev = TraceEvent::WeightUpdate { t_ns: 42, host: 1, dst: 2, port: 3, weight_ppm: 250_000, cause: "ecn_cut" };
        let mut s = String::new();
        ev.write_jsonl(&mut s);
        assert_eq!(s, "{\"v\":2,\"kind\":\"weight_update\",\"t_ns\":42,\"host\":1,\"dst\":2,\"port\":3,\"weight_ppm\":250000,\"cause\":\"ecn_cut\"}\n");
    }

    #[test]
    fn v2_node_kinds_render_stably() {
        let mut s = String::new();
        TraceEvent::NodeFaultActivation { t_ns: 7, node: "leaf", index: 1, action: "down", cold: true }.write_jsonl(&mut s);
        TraceEvent::VswitchRestart { t_ns: 8, host: 4, cold: false }.write_jsonl(&mut s);
        TraceEvent::StateFlush { t_ns: 9, node: "host", index: 4, what: "vswitch" }.write_jsonl(&mut s);
        assert_eq!(
            s,
            concat!(
                "{\"v\":2,\"kind\":\"node_fault_activation\",\"t_ns\":7,\"node\":\"leaf\",\"index\":1,\"action\":\"down\",\"cold\":true}\n",
                "{\"v\":2,\"kind\":\"vswitch_restart\",\"t_ns\":8,\"host\":4,\"cold\":false}\n",
                "{\"v\":2,\"kind\":\"state_flush\",\"t_ns\":9,\"node\":\"host\",\"index\":4,\"what\":\"vswitch\"}\n",
            )
        );
    }
}
