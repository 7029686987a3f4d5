//! In-memory span recording for the traced pass.
//!
//! A span is (name, start, end, parent); the spans of one cell share its
//! id. The tree is static — every name has exactly one parent name — so
//! self time falls out of per-name totals: `self = total - sum(children)`.
//! Per name we keep count, total and a log2 histogram of durations; the
//! first [`RAW_SPANS_PER_CELL`] spans of each cell are kept raw as well.
//! Nothing is written until the run ends.

use crate::json::Json;
use crate::stats::Quartiles;
use std::time::Instant;

/// Every span the traced pass records, in tree order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Span {
    Run,
    Workload,
    Rep,
    Cell,
    CellSetup,
    WorkloadPlan,
    CellLoop,
    QueuePop,
    DispatchArriveHost,
    HostOnPacket,
    DispatchArriveLeaf,
    DispatchArriveSpine,
    DispatchHostTimer,
    HostOnTimer,
    DispatchOther,
    CellTeardown,
    MatrixFigures,
    MatrixFigure,
    MatrixResume,
    ReportRender,
}

pub const SPAN_COUNT: usize = Span::ReportRender as usize + 1;

impl Span {
    pub const ALL: [Span; SPAN_COUNT] = [
        Span::Run,
        Span::Workload,
        Span::Rep,
        Span::Cell,
        Span::CellSetup,
        Span::WorkloadPlan,
        Span::CellLoop,
        Span::QueuePop,
        Span::DispatchArriveHost,
        Span::HostOnPacket,
        Span::DispatchArriveLeaf,
        Span::DispatchArriveSpine,
        Span::DispatchHostTimer,
        Span::HostOnTimer,
        Span::DispatchOther,
        Span::CellTeardown,
        Span::MatrixFigures,
        Span::MatrixFigure,
        Span::MatrixResume,
        Span::ReportRender,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Run => "run",
            Span::Workload => "workload",
            Span::Rep => "rep",
            Span::Cell => "cell",
            Span::CellSetup => "cell.setup",
            Span::WorkloadPlan => "workload.plan",
            Span::CellLoop => "cell.loop",
            Span::QueuePop => "queue.pop",
            Span::DispatchArriveHost => "dispatch.arrive_host",
            Span::HostOnPacket => "host.on_packet",
            Span::DispatchArriveLeaf => "dispatch.arrive_leaf",
            Span::DispatchArriveSpine => "dispatch.arrive_spine",
            Span::DispatchHostTimer => "dispatch.host_timer",
            Span::HostOnTimer => "host.on_timer",
            Span::DispatchOther => "dispatch.other",
            Span::CellTeardown => "cell.teardown",
            Span::MatrixFigures => "matrix.figures",
            Span::MatrixFigure => "matrix.figure",
            Span::MatrixResume => "matrix.resume",
            Span::ReportRender => "report.render",
        }
    }

    pub fn parent(self) -> Option<Span> {
        Some(match self {
            Span::Run => return None,
            Span::Workload => Span::Run,
            Span::Rep => Span::Workload,
            Span::Cell | Span::MatrixFigures | Span::MatrixResume | Span::ReportRender => Span::Rep,
            Span::CellSetup | Span::CellLoop | Span::CellTeardown => Span::Cell,
            Span::WorkloadPlan => Span::CellSetup,
            Span::QueuePop
            | Span::DispatchArriveHost
            | Span::DispatchArriveLeaf
            | Span::DispatchArriveSpine
            | Span::DispatchHostTimer
            | Span::DispatchOther => Span::CellLoop,
            Span::HostOnPacket => Span::DispatchArriveHost,
            Span::HostOnTimer => Span::DispatchHostTimer,
            Span::MatrixFigure => Span::MatrixFigures,
        })
    }
}

/// How many spans of one cell are kept raw (the rest only aggregate).
pub const RAW_SPANS_PER_CELL: usize = 10_000;

#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub id: u64,
    pub parent: u64,
    pub cell: u32,
    pub span: Span,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    /// `hist[k]` counts durations in `[2^(k-1), 2^k)` ns; `hist[0]` is 0 ns.
    pub hist: [u64; 40],
}

impl SpanStat {
    const ZERO: SpanStat = SpanStat { count: 0, total_ns: 0, hist: [0; 40] };

    #[inline]
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.hist[((64 - ns.leading_zeros()) as usize).min(39)] += 1;
    }
}

/// The recorder: one per traced pass, owned by the thread that runs the
/// cells. Recording a span costs the caller two clock reads and a few adds
/// here — no allocation past the raw-span cap.
pub struct Recorder {
    epoch: Instant,
    pub stats: [SpanStat; SPAN_COUNT],
    pub raw: Vec<RawSpan>,
    raw_in_cell: usize,
    cell: u32,
    next_id: u64,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, stats: [SpanStat::ZERO; SPAN_COUNT], raw: Vec::new(), raw_in_cell: 0, cell: 0, next_id: 0 }
    }

    /// The instant every timestamp counts from, for other stopwatches of
    /// the same run.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the run's epoch — the timestamp every span uses.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new cell: raw capture begins again from zero.
    pub fn begin_cell(&mut self, cell: u32) {
        self.cell = cell;
        self.raw_in_cell = 0;
    }

    /// Reserve the id a span will be recorded under, so children recorded
    /// before the parent closes can name it.
    #[inline]
    pub fn reserve_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Record a closed span under a reserved id.
    #[inline]
    pub fn close(&mut self, span: Span, id: u64, parent: u64, start_ns: u64, end_ns: u64) {
        self.stats[span as usize].add(end_ns.saturating_sub(start_ns));
        if self.raw_in_cell < RAW_SPANS_PER_CELL {
            self.raw_in_cell += 1;
            self.raw.push(RawSpan { id, parent, cell: self.cell, span, start_ns, end_ns });
        }
    }

    /// Record a closed span under a fresh id; returns the id.
    #[inline]
    pub fn record(&mut self, span: Span, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.reserve_id();
        self.close(span, id, parent, start_ns, end_ns);
        id
    }

    pub fn stat(&self, span: Span) -> &SpanStat {
        &self.stats[span as usize]
    }

    /// Total time of the direct children of `span`.
    pub fn children_ns(&self, span: Span) -> u64 {
        Span::ALL.iter().filter(|c| c.parent() == Some(span)).map(|&c| self.stat(c).total_ns).sum()
    }

    /// Spans directly under `span`, counted — each costs the parent one
    /// clock-read pair of overhead inside its own self time.
    pub fn children_count(&self, span: Span) -> u64 {
        Span::ALL.iter().filter(|c| c.parent() == Some(span)).map(|&c| self.stat(c).count).sum()
    }

    /// Raw self time: total minus what the children cover.
    pub fn self_ns(&self, span: Span) -> u64 {
        self.stat(span).total_ns.saturating_sub(self.children_ns(span))
    }

    /// Self time with the clock's own cost taken out: a span's measured
    /// length includes about one clock read, and each direct child adds one
    /// more to its parent's self time.
    pub fn self_ns_corrected(&self, span: Span, timer_ns: f64) -> f64 {
        (self.self_ns(span) as f64 - timer_ns * (self.stat(span).count + self.children_count(span)) as f64).max(0.0)
    }

    /// Everything recorded, for `benchmark/out/<run>/spans-*.json`.
    pub fn to_json(&self) -> Json {
        let spans = Span::ALL
            .iter()
            .filter(|&&s| self.stat(s).count > 0)
            .map(|&s| {
                let st = self.stat(s);
                let last = st.hist.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
                Json::obj(vec![
                    ("name", Json::str(s.name())),
                    ("parent", s.parent().map_or(Json::Null, |p| Json::str(p.name()))),
                    ("count", Json::Num(st.count as f64)),
                    ("total_ns", Json::Num(st.total_ns as f64)),
                    ("self_ns", Json::Num(self.self_ns(s) as f64)),
                    ("log2_hist", Json::Arr(st.hist[..last].iter().map(|&c| Json::Num(c as f64)).collect())),
                ])
            })
            .collect();
        let raw = self
            .raw
            .iter()
            .map(|r| {
                Json::Arr(vec![
                    Json::Num(r.id as f64),
                    Json::Num(r.parent as f64),
                    Json::Num(r.cell as f64),
                    Json::str(r.span.name()),
                    Json::Num(r.start_ns as f64),
                    Json::Num(r.end_ns as f64),
                ])
            })
            .collect();
        Json::obj(vec![
            ("spans", Json::Arr(spans)),
            ("raw_columns", Json::Arr(["id", "parent", "cell", "name", "start_ns", "end_ns"].map(Json::str).to_vec())),
            ("raw", Json::Arr(raw)),
        ])
    }
}

/// Cost of one back-to-back clock read, ns (median of batches).
pub fn timer_ns() -> f64 {
    let epoch = Instant::now();
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let start = Instant::now();
            let mut sink = 0u64;
            for _ in 0..10_000 {
                sink = sink.wrapping_add(epoch.elapsed().as_nanos() as u64);
            }
            std::hint::black_box(sink);
            start.elapsed().as_nanos() as f64 / 10_000.0
        })
        .collect();
    Quartiles::of(&batches).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_is_rooted_and_acyclic() {
        for s in Span::ALL {
            let mut hops = 0;
            let mut at = s;
            while let Some(p) = at.parent() {
                at = p;
                hops += 1;
                assert!(hops < SPAN_COUNT, "cycle at {}", s.name());
            }
            assert_eq!(at, Span::Run);
        }
        assert!(Span::ALL.iter().enumerate().all(|(i, s)| *s as usize == i));
    }

    #[test]
    fn self_time_is_total_minus_children_and_raw_capture_is_capped_per_cell() {
        let mut r = Recorder::new(Instant::now());
        r.begin_cell(1);
        let parent = r.reserve_id();
        for i in 0..(RAW_SPANS_PER_CELL as u64 + 5) {
            r.record(Span::QueuePop, parent, i * 10, i * 10 + 4);
        }
        r.close(Span::CellLoop, parent, 0, 0, 1_000_000);
        assert_eq!(r.stat(Span::QueuePop).count, RAW_SPANS_PER_CELL as u64 + 5);
        assert_eq!(r.self_ns(Span::CellLoop), 1_000_000 - 4 * (RAW_SPANS_PER_CELL as u64 + 5));
        assert_eq!(r.raw.len(), RAW_SPANS_PER_CELL, "the cap holds; the closing parent fell past it");
        r.begin_cell(2);
        r.record(Span::QueuePop, 0, 0, 7);
        assert_eq!(r.raw.len(), RAW_SPANS_PER_CELL + 1);
        assert_eq!(r.raw.last().map(|s| s.cell), Some(2));
        // 4 ns lands in bucket 3 ([4, 8)), 7 ns too.
        assert_eq!(r.stat(Span::QueuePop).hist[3], RAW_SPANS_PER_CELL as u64 + 6);
        assert!(timer_ns() > 0.0);
    }
}
