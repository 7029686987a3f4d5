//! Isolated timings of each layer's public functions.
//!
//! A kernel answers "what does this layer cost per operation when nothing
//! else runs", so a later change to one layer has a number that moves with
//! it alone. The inputs are the ones recorded from the workload's traced
//! cells (queue delay histogram, peak occupancy, concurrent connections,
//! data/ACK mix, flow count), not guessed. Every kernel reports the median
//! of [`BATCHES`] batches, in ns per operation.

use crate::api::*;
use crate::cell::CellCounts;
use crate::stats::Quartiles;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

/// Median ns per op of `BATCHES` calls of `batch`, each doing `ops` ops.
fn median_ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Quartiles::of(&samples).median
}

/// What the traced cells recorded, reduced to what kernels replay.
pub struct KernelInputs {
    /// `(delay_ns, cumulative_count)` over the queue's push-to-pop delays.
    delay_cdf: Vec<(u64, u64)>,
    peak_pending: usize,
    connections: usize,
    /// Data segments per host arrival that is data or ACK.
    data_share: f64,
    flows: usize,
}

impl KernelInputs {
    pub fn from_counts(c: &CellCounts) -> KernelInputs {
        let mut cum = 0;
        let delay_cdf = c
            .queue
            .delay_hist
            .nonzero_buckets()
            .into_iter()
            .map(|(high, n)| {
                cum += n;
                (high, cum)
            })
            .collect();
        let segs = (c.data_rx + c.acks_rx).max(1);
        KernelInputs {
            delay_cdf,
            peak_pending: (c.queue.peak_pending as usize).max(1),
            connections: (c.connections as usize).max(1),
            data_share: c.data_rx as f64 / segs as f64,
            flows: (c.flows_started as usize).max(1),
        }
    }

    /// The delay at quantile `u` of the recorded histogram (1 ns if empty).
    fn delay_at(&self, u: f64) -> u64 {
        let total = self.delay_cdf.last().map_or(0, |&(_, c)| c);
        let rank = (u * total as f64) as u64;
        self.delay_cdf.iter().find(|&&(_, c)| c > rank).map_or(1, |&(d, _)| d.max(1))
    }
}

fn data_packet(flow: FlowKey, seq: u64) -> Packet {
    Packet::new(seq, Profile::MTU, flow, PacketKind::Data { seq, len: 1400, dsn: seq })
}

fn flows_of(n: usize) -> Vec<FlowKey> {
    (0..n).map(|i| FlowKey::tcp(HostId(i as u32 % 16), HostId(16 + (i as u32 / 16) % 16), 20_000 + i as u16, 5201)).collect()
}

/// `sim.queue_kernel_ns_per_op`: one push plus its share of a `pop_run`,
/// with real `Event` payloads, the workload's delay distribution, and the
/// queue held at the workload's peak occupancy.
pub fn queue(inp: &KernelInputs) -> f64 {
    let mut rng = SimRng::new(11);
    let flow = FlowKey::tcp(HostId(0), HostId(17), 20_000, 5201);
    let event = || Event::Arrive { node: NodeId::Host(HostId(17)), via: LinkId(3), pkt: data_packet(flow, 0) };
    let mut q: EventQueue<Event> = EventQueue::with_capacity(inp.peak_pending.next_power_of_two());
    for _ in 0..inp.peak_pending {
        q.push(Time(inp.delay_at(rng.f64())), event());
    }
    let mut batch = std::collections::VecDeque::new();
    const OPS: u64 = 400_000;
    median_ns_per_op(OPS, || {
        let mut done = 0;
        while done < OPS {
            let now = q.pop_run(&mut batch).expect("occupancy is held, so the queue never drains");
            while let Some(ev) = batch.pop_front() {
                done += 1;
                q.push(now + Duration(inp.delay_at(rng.f64())), black_box(ev.event));
            }
        }
    })
}

/// `net.link_kernel_ns_per_pkt`: `Link::enqueue` + `settle` on a saturated
/// fabric link, MTU packets arriving exactly at line rate.
pub fn link() -> f64 {
    let cfg = Profile::default().fabric_link(false);
    let mut link = Link::new(LinkId(0), NodeId::Host(HostId(0)), NodeId::Host(HostId(1)), cfg);
    let flow = FlowKey::tcp(HostId(0), HostId(1), 20_000, 5201);
    let gap = link.ser_time(Profile::MTU);
    let mut now = Time::ZERO;
    let mut out = Vec::new();
    // Prime a standing queue so every enqueue settles one and queues one.
    for i in 0..8 {
        link.enqueue(now, data_packet(flow, i), &mut out);
    }
    const OPS: u64 = 400_000;
    median_ns_per_op(OPS, || {
        for i in 0..OPS {
            now += gap;
            black_box(link.enqueue(now, data_packet(flow, i), &mut out));
            out.clear();
        }
    })
}

/// `net.ecmp_kernel_ns_per_hash`: `ecmp_select` over the workload's flows.
pub fn ecmp(inp: &KernelInputs) -> f64 {
    let flows = flows_of(inp.connections);
    const OPS: u64 = 2_000_000;
    median_ns_per_op(OPS, || {
        let mut acc = 0usize;
        for i in 0..OPS as usize {
            acc = acc.wrapping_add(ecmp_select(black_box(&flows[i % flows.len()]), 0xDEAD_BEEF, 4));
        }
        black_box(acc);
    })
}

const PORTS: [u16; 4] = [49_152, 49_153, 49_154, 49_155];

fn clove_vswitch(host: HostId, peer: HostId) -> VSwitch {
    let profile = Profile::default();
    let scheme = Scheme::CloveEcn;
    let mut vs = VSwitch::new(host, scheme.vswitch_config(&profile), scheme.build_policy(&profile, 17));
    vs.policy_mut().on_paths_updated(Time::ZERO, peer, &PORTS);
    vs
}

/// `overlay.encap_kernel_ns_per_pkt`, `overlay.decap_kernel_ns_per_pkt`: a
/// Clove-ECN `VSwitch` pair, 4 discovered paths, the workload's concurrent
/// flows, its data/ACK mix. Returns `(encap, decap)`.
pub fn vswitch(inp: &KernelInputs) -> (f64, f64) {
    let (a, b) = (HostId(0), HostId(17));
    let mut tx = clove_vswitch(a, b);
    let mut rx = clove_vswitch(b, a);
    let flows: Vec<FlowKey> = (0..inp.connections).map(|i| FlowKey::tcp(a, b, 20_000 + i as u16, 5201)).collect();
    let mut rng = SimRng::new(5);
    let mut mk = |i: usize| {
        let flow = flows[i % flows.len()];
        if rng.f64() < inp.data_share {
            data_packet(flow, i as u64)
        } else {
            Packet::new(i as u64, 100, flow, PacketKind::Ack { ackno: i as u64, dack: i as u64, ece: false, dup: None })
        }
    };
    const OPS: usize = 200_000;
    let inner: Vec<Packet> = (0..OPS).map(&mut mk).collect();
    let mut now = Time::ZERO;
    let mut wire: Vec<Packet> = Vec::with_capacity(OPS);
    let encap = median_ns_per_op(OPS as u64, || {
        wire.clear();
        for pkt in &inner {
            now += Duration::from_nanos(300);
            wire.push(tx.encap(now, b, pkt.clone()));
        }
    });
    let mut out = Vec::new();
    let decap = median_ns_per_op(OPS as u64, || {
        for pkt in &wire {
            now += Duration::from_nanos(300);
            black_box(rx.decap_into(now, pkt.clone(), &mut out));
            out.clear();
        }
    });
    (encap, decap)
}

/// `core.flowlet_kernel_ns_per_lookup`: `FlowletTable::on_packet` over the
/// workload's concurrent flows at the profile's flowlet gap.
pub fn flowlet(inp: &KernelInputs) -> f64 {
    let mut table = FlowletTable::new(FlowletConfig::with_gap(Profile::default().flowlet_gap));
    let flows = flows_of(inp.connections);
    let mut now = Time::ZERO;
    const OPS: usize = 1_000_000;
    median_ns_per_op(OPS as u64, || {
        for i in 0..OPS {
            now += Duration::from_nanos(300);
            black_box(table.on_packet(now, flows[i % flows.len()], |id| PORTS[id as usize % 4]));
        }
    })
}

/// `core.policy_kernel_ns_per_select`, `core.policy_kernel_ns_per_feedback`:
/// the Clove-ECN policy behind `Scheme::CloveEcn.build_policy`, 4 paths.
/// Returns `(select_port, on_feedback)`.
pub fn policy(inp: &KernelInputs) -> (f64, f64) {
    let dst = HostId(17);
    let mut policy = Scheme::CloveEcn.build_policy(&Profile::default(), 17);
    policy.on_paths_updated(Time::ZERO, dst, &PORTS);
    let mut pkts: Vec<Packet> = (0..inp.connections).map(|i| data_packet(FlowKey::tcp(HostId(0), dst, 20_000 + i as u16, 5201), 0)).collect();
    let mut now = Time::ZERO;
    const OPS: usize = 1_000_000;
    let n = pkts.len();
    let select = median_ns_per_op(OPS as u64, || {
        for i in 0..OPS {
            now += Duration::from_nanos(300);
            black_box(policy.select_port(now, dst, &mut pkts[i % n]));
        }
    });
    let feedback = median_ns_per_op(OPS as u64, || {
        for i in 0..OPS {
            now += Duration::from_nanos(900);
            policy.on_feedback(now, dst, &Feedback::Ecn { sport: PORTS[i % 4], congested: i % 3 == 0 });
        }
    });
    (select, feedback)
}

/// `tcp.kernel_ns_per_segment`: one 10 MB job looped back
/// `TcpSender` -> `TcpReceiver` -> `on_ack`, no network in between.
pub fn tcp() -> f64 {
    let cfg = Profile::default().tcp_config();
    let key = FlowKey::tcp(HostId(0), HostId(17), 20_000, 5201);
    let mut segments = 0u64;
    let mut total_ns = Vec::new();
    for _ in 0..BATCHES {
        let mut tx = TcpSender::new(key, cfg, Time::ZERO);
        let mut rx = TcpReceiver::new(key, cfg);
        let mut now = Time::ZERO;
        let mut wire = Vec::new();
        let mut next = Vec::new();
        let t = Instant::now();
        tx.enqueue_job(now, 1, 10_000_000, &mut wire);
        let mut done = false;
        segments = 0;
        while !done {
            assert!(!wire.is_empty(), "loop-back never loses a segment, so the window always reopens");
            for pkt in wire.drain(..) {
                now += Duration::from_nanos(1_200);
                let PacketKind::Data { seq, len, .. } = pkt.kind else { continue };
                segments += 1;
                let ack = rx.on_data(now, seq, len, false);
                let PacketKind::Ack { ackno, ece, dup, .. } = ack.kind else { continue };
                done |= !tx.on_ack(now, ackno, ece, dup, &mut next).is_empty();
            }
            std::mem::swap(&mut wire, &mut next);
        }
        total_ns.push(t.elapsed().as_nanos() as f64 / segments as f64);
    }
    black_box(segments);
    Quartiles::of(&total_ns).median
}

/// As many completed web-search flows as the workload ran, FCT ~ size.
pub fn synthetic_fct(inp: &KernelInputs) -> FctCollector {
    let dist = web_search();
    let mut rng = SimRng::new(3);
    let mut col = FctCollector::new();
    for i in 0..inp.flows as u64 {
        let bytes = dist.sample(&mut rng);
        col.job_started(i, bytes, Time(i * 1_000));
        col.job_finished(i, Time(i * 1_000 + 20_000 + bytes / 2));
    }
    col
}

/// `workload.fct_fold_kernel_ns_per_sample`: `FctCollector::summarize` +
/// `FctSummary::merge` + `p99` over the workload's flow count.
pub fn fct_fold(inp: &KernelInputs) -> f64 {
    let col = synthetic_fct(inp);
    // Enough rounds that one batch is at least ~1 ms of work.
    let rounds = (200_000 / inp.flows).max(1);
    median_ns_per_op((rounds * inp.flows) as u64, || {
        for _ in 0..rounds {
            let mut pooled = col.summarize();
            pooled.merge(&col.summarize());
            black_box(pooled.p99());
        }
    })
}

/// `harness.json_kernel_ns_per_byte`: `Json::parse` + `render` of a real
/// journal entry (the caller supplies one the workload produced).
pub fn harness_json(entry: &str) -> f64 {
    let rounds = (2_000_000 / entry.len().max(1)).max(1);
    median_ns_per_op((rounds * entry.len().max(1)) as u64, || {
        for _ in 0..rounds {
            let v = HarnessJson::parse(black_box(entry)).expect("a journal entry the harness wrote parses");
            black_box(v.render());
        }
    })
}

/// A journal entry as the harness stores one: `{key, value}` around the
/// `JournalValue` encoding of a cell's `(FctSummary, events)`.
pub fn journal_entry(fct: &FctSummary, events: u64) -> String {
    HarnessJson::Obj(vec![("key".to_string(), HarnessJson::Str("rpc|benchmark|kernel".to_string())), ("value".to_string(), (fct.clone(), events).to_journal())])
        .render()
}

/// `telemetry.hist_kernel_ns_per_record`: `Histogram::record` fed with the
/// workload's queue delays.
pub fn hist(inp: &KernelInputs) -> f64 {
    let mut rng = SimRng::new(9);
    let delays: Vec<u64> = (0..4096).map(|_| inp.delay_at(rng.f64())).collect();
    let mut h = Histogram::new();
    const OPS: usize = 2_000_000;
    let ns = median_ns_per_op(OPS as u64, || {
        for i in 0..OPS {
            h.record(delays[i % delays.len()]);
        }
    });
    black_box(h.count());
    ns
}

/// `telemetry.trace_kernel_ns_per_event`: recording into an enabled ring.
pub fn trace() -> f64 {
    const OPS: usize = 500_000;
    median_ns_per_op(OPS as u64, || {
        let trace = Trace::new(OPS).with_host(3);
        for i in 0..OPS as u64 {
            trace.flowlet_create(i, 17, i, PORTS[i as usize % 4]);
        }
        black_box(trace.take().0.len());
    })
}
