//! The event queue under a *real* run's load: the push-offset mix and the
//! occupancy a scenario cell recorded (`QueueProfile`: the push-to-pop
//! delay histogram and `peak_pending`) are replayed as a push/`pop_run`
//! stream against the timing wheel and against the binary-heap model
//! (`clove-sim/tests/support/heap_model.rs`, test code), and the two pop
//! streams must be identical. The differential proptest in `clove-sim`
//! covers arbitrary interleavings; this covers the offsets and depths the
//! simulator actually produces, and debug builds of `clove_sim::run`
//! assert `(at, seq)` order on every event of every run in the suite.

#[path = "../../sim/tests/support/heap_model.rs"]
#[allow(dead_code)] // the replay never clears
mod heap_model;

use clove_harness::scenario::{Scenario, TopologyKind};
use clove_harness::stack::HostStack;
use clove_harness::{Profile, Scheme};
use clove_net::{Event, HostId, LeafSpine, Network};
use clove_sim::{Duration, EventQueue, QueueProfile, ScheduledEvent, SimRng, Time};
use clove_workload::rpc::ConnectionPlan;
use clove_workload::{web_search, IncastSpec};
use heap_model::{HeapModel, Popped};
use std::collections::VecDeque;

/// Hold both queues at the profile's peak occupancy and turn over `events`
/// events: every popped event schedules one successor at a delay drawn from
/// the recorded histogram (a bucket's upper bound stands for the bucket, so
/// zero delays — same-instant pushes — and equal instants are frequent).
fn replay(profile: &QueueProfile, events: u64) {
    let mut cum = 0;
    let cdf: Vec<(u64, u64)> = profile
        .delay_hist
        .nonzero_buckets()
        .into_iter()
        .map(|(high, n)| {
            cum += n;
            (high, cum)
        })
        .collect();
    assert!(cum > 0 && profile.peak_pending > 0, "the cell recorded no queue activity");
    let mut rng = SimRng::new(7);
    let mut delay = move || {
        let rank = rng.below(cum);
        cdf[cdf.partition_point(|&(_, c)| c <= rank)].0
    };
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap = HeapModel::default();
    for _ in 0..profile.peak_pending {
        push_both(&mut wheel, &mut heap, delay());
    }
    let mut run = VecDeque::new();
    let mut handled = 0;
    while handled < events {
        let now = wheel.pop_run(&mut run).expect("occupancy is held, so the queue never drains");
        assert_eq!(run.iter().map(popped).collect::<Vec<_>>(), heap.pop_run(), "run at {now:?} diverged after {handled} events");
        for _ in run.drain(..) {
            handled += 1;
            push_both(&mut wheel, &mut heap, now.0 + delay());
        }
        assert_eq!(wheel.len(), heap.len());
    }
    let tail: Vec<Popped> = std::iter::from_fn(|| wheel.pop()).map(|e| popped(&e)).collect();
    assert_eq!(tail, std::iter::from_fn(|| heap.pop()).collect::<Vec<_>>(), "final drain diverged");
}

fn popped(e: &ScheduledEvent<u64>) -> Popped {
    (e.at.0, e.seq, e.event)
}

/// The payload is the push's ordinal, which the model checks independently
/// of the sequence number it assigns itself.
fn push_both(wheel: &mut EventQueue<u64>, heap: &mut HeapModel, at: u64) {
    let payload = wheel.total_pushed();
    wheel.push(Time::from_nanos(at), payload);
    heap.push(at, payload);
}

#[test]
fn rpc_push_mix_replays_identically_on_wheel_and_heap() {
    let mut s = Scenario::new(Scheme::CloveEcn, TopologyKind::Asymmetric, 0.6, 77);
    s.jobs_per_conn = 6;
    s.conns_per_client = 1;
    replay(&s.run_rpc(&web_search()).queue_profile, 200_000);
}

#[test]
fn incast_push_mix_replays_identically_on_wheel_and_heap() {
    // `IncastOutcome` carries no queue profile (and cannot grow one here:
    // `benchmark/` destructures it field by field), so the incast world —
    // 6-way fan-in of 1 MB objects into host 0, as `Scenario::run_incast`
    // builds it — is assembled from the same public parts and its queue
    // read directly.
    const REQUESTS: u32 = 4;
    let (scheme, profile, seed) = (Scheme::EdgeFlowlet, Profile::default(), 31);
    let mut spec = LeafSpine::paper_testbed(1.0, seed);
    spec.scheme = scheme.fabric_scheme(&profile);
    let topo = spec.build();
    let mut stack = HostStack::new(topo.num_hosts, &scheme, profile, seed);
    let client = HostId(0);
    let servers: Vec<HostId> = (16..32).map(HostId).collect();
    let server_conn = servers
        .iter()
        .enumerate()
        .map(|(i, &server)| {
            let plan = ConnectionPlan { client: server, server: client, sport: 7000 + i as u16 * 16, dport: 5201 };
            (server, stack.add_connection(&plan, scheme.mptcp_subflows(), Time::ZERO))
        })
        .collect();
    stack.set_incast(IncastSpec { client, servers, object_bytes: 1_000_000, fanout: 6, requests: REQUESTS }, server_conn, seed);
    let mut queue: EventQueue<Event> = EventQueue::new();
    stack.bootstrap(&mut |host, token, at| queue.push(at, Event::HostTimer { host, token }));
    let mut net = Network::new(topo.fabric, stack);
    let mut upto = Time::ZERO;
    while net.hosts.incast_result().is_some_and(|(rounds, _)| rounds < REQUESTS) {
        upto += Duration::from_millis(50);
        assert!(upto <= Time::from_secs(30), "the incast never finished");
        clove_sim::run(&mut net, &mut queue, upto);
    }
    replay(queue.profile(), 200_000);
}
