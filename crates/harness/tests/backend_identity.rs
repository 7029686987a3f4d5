//! The event-queue backend must be invisible in the output: a figure cell
//! run on the timing wheel and on the legacy binary-heap oracle must
//! produce bit-identical results. Together with the differential proptest
//! in `clove-sim` (identical pop sequences) this pins the heap as a true
//! differential-testing oracle for the wheel. `Scenario::queue` is the one
//! seam the oracle reaches a full run through; no binary exposes it.

use clove_harness::experiments::testbed_schemes;
use clove_harness::scenario::{Scenario, TopologyKind};
use clove_harness::Scheme;
use clove_sim::QueueBackend;
use clove_workload::web_search;

#[test]
fn fig4c_cells_identical_wheel_vs_heap() {
    // Fig 4c's smoke cells (testbed schemes, asymmetric, 50% load, the
    // figure's seeds): the number the table prints must not move a bit.
    let dist = web_search();
    for scheme in testbed_schemes(TopologyKind::Asymmetric) {
        for seed in [1000, 1001] {
            let run = |backend| {
                let mut s = Scenario::new(scheme.clone(), TopologyKind::Asymmetric, 0.5, seed);
                s.jobs_per_conn = 4;
                s.conns_per_client = 1;
                s.queue = backend;
                s.run_rpc(&dist)
            };
            let (wheel, heap) = (run(QueueBackend::Wheel), run(QueueBackend::Heap));
            assert_eq!(wheel.events, heap.events, "{} seed {seed}", scheme.label());
            assert_eq!(wheel.fct.avg().to_bits(), heap.fct.avg().to_bits(), "{} seed {seed}", scheme.label());
        }
    }
}

#[test]
fn rpc_outcome_identical_wheel_vs_heap() {
    // One full scenario cell compared field-by-field, not just through the
    // table rendering: FCT stats, event counts, retransmits — everything
    // downstream of the event order must match exactly.
    let dist = web_search();
    let run = |backend| {
        let mut s = Scenario::new(Scheme::CloveEcn, TopologyKind::Asymmetric, 0.6, 77);
        s.jobs_per_conn = 6;
        s.conns_per_client = 1;
        s.queue = backend;
        s.run_rpc(&dist)
    };
    let wheel = run(QueueBackend::Wheel);
    let heap = run(QueueBackend::Heap);
    assert_eq!(wheel.events, heap.events);
    assert_eq!(wheel.fct.avg().to_bits(), heap.fct.avg().to_bits(), "FCT stats must be bit-identical");
    assert_eq!(wheel.retransmits, heap.retransmits);
    assert_eq!(wheel.timeouts, heap.timeouts);
    assert_eq!(wheel.drops, heap.drops);
    assert_eq!(wheel.ecn_marks, heap.ecn_marks);
    assert_eq!(wheel.sim_time, heap.sim_time);
    // The profile is a property of the stream, not the backend.
    assert_eq!(wheel.queue_profile, heap.queue_profile);
}

#[test]
fn incast_outcome_identical_wheel_vs_heap() {
    let run = |backend| {
        let mut s = Scenario::new(Scheme::EdgeFlowlet, TopologyKind::Symmetric, 0.5, 31);
        s.queue = backend;
        s.run_incast(6, 4, 1_000_000)
    };
    let wheel = run(QueueBackend::Wheel);
    let heap = run(QueueBackend::Heap);
    assert_eq!(wheel.events, heap.events);
    assert_eq!(wheel.goodput_bps.to_bits(), heap.goodput_bps.to_bits());
    assert_eq!(wheel.rounds, heap.rounds);
    assert_eq!(wheel.sim_time, heap.sim_time);
}
