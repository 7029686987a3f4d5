//! Differential property test: [`EventQueue`] (the timing wheel) and a plain
//! binary-heap model must produce *identical* `(time, seq, event)` pop
//! sequences under any interleaving of pushes, pops, whole-run pops and
//! clears. The model is test code (`support/heap_model.rs`) and is reached
//! through the queue's public API only. This is the randomized
//! generalization of the LCG-driven unit test in `clove-sim/src/queue.rs` —
//! together they pin the determinism contract the whole simulator (and its
//! byte-identical figure outputs) rests on.

#[path = "support/heap_model.rs"]
mod heap_model;

use clove_sim::{EventQueue, ScheduledEvent, Time};
use heap_model::{HeapModel, Popped};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One scripted operation against both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at `now + offset` (offsets exercise every wheel level plus the
    /// overflow heap).
    Push { offset: u64 },
    /// Pop one event and compare.
    Pop,
    /// Take the whole earliest run with `pop_run`, compare it, and — as a
    /// handler in `clove_sim::run` does while the batch is still being
    /// walked — schedule two events at the run's own instant and one
    /// `offset` later.
    Run { offset: u64 },
    /// Drop everything (the inter-run reuse path).
    Clear,
}

/// Decode one sampled `(kind, raw)` pair into an [`Op`]. Push kinds span
/// the wheel's whole range: near-future (level 0), mid-range (levels 1–3),
/// and far-future offsets past the 2^48 ns horizon (the overflow heap).
/// Pops and runs together outweigh pushes so queues drain as often as they
/// grow.
fn decode_op((kind, raw): (u32, u64)) -> Op {
    match kind {
        0 => Op::Push { offset: raw % 4096 },
        1 => Op::Push { offset: (1 << 12) + raw % (1 << 30) },
        2 => Op::Push { offset: (1 << 30) + raw % (1 << 50) },
        3 | 4 => Op::Pop,
        5 | 6 => Op::Run { offset: raw % (1 << 20) },
        _ => Op::Clear,
    }
}

fn popped(e: ScheduledEvent<u64>) -> Popped {
    (e.at.0, e.seq, e.event)
}

fn push_both(wheel: &mut EventQueue<u64>, heap: &mut HeapModel, at: u64, payload: u64) {
    wheel.push(Time::from_nanos(at), payload);
    heap.push(at, payload);
}

proptest! {
    #[test]
    fn wheel_and_heap_pop_identically(raw_ops in prop::collection::vec((0u32..8, 0u64..u64::MAX / 2), 1..400)) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap = HeapModel::default();
        let mut run = VecDeque::new();
        // `now` only advances (monotone pops give it meaning): pushes are
        // anchored at the last popped time, as in a real simulation.
        let mut now = 0u64;
        for (i, &raw) in raw_ops.iter().enumerate() {
            match decode_op(raw) {
                Op::Push { offset } => push_both(&mut wheel, &mut heap, now.saturating_add(offset), i as u64),
                Op::Pop => {
                    let a = wheel.pop().map(popped);
                    prop_assert_eq!(a, heap.pop(), "pop diverged at op {}", i);
                    now = a.map_or(now, |(at, _, _)| at);
                }
                Op::Run { offset } => {
                    let t = wheel.pop_run(&mut run);
                    let expect = heap.pop_run();
                    prop_assert_eq!(t.map(|t| t.0), expect.first().map(|e| e.0), "run time diverged at op {}", i);
                    // Half the batch is handled, the rest still sits in
                    // `run` (the next `pop_run` discards it, as the run
                    // loop's does) when the new events arrive: the
                    // same-instant pair must come out, in push order, in
                    // the *next* run.
                    let mut got: Vec<Popped> = run.drain(..run.len() / 2).map(popped).collect();
                    if let Some(t) = t {
                        now = t.0;
                        for at in [now, now, now.saturating_add(offset)] {
                            push_both(&mut wheel, &mut heap, at, i as u64);
                        }
                    }
                    got.extend(run.drain(..).map(popped));
                    prop_assert_eq!(got, expect, "run diverged at op {}", i);
                }
                Op::Clear => {
                    wheel.clear();
                    heap.clear();
                }
            }
            prop_assert_eq!(wheel.len(), heap.len(), "len diverged at op {}", i);
            prop_assert_eq!(wheel.peek_time().map(|t| t.0), heap.peek_time(), "peek diverged at op {}", i);
        }
        // Drain the remainder: the full tail must match too.
        loop {
            let a = wheel.pop().map(popped);
            prop_assert_eq!(a, heap.pop(), "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pop_run_matches_popping_singly(raw_ops in prop::collection::vec((0u32..3, 0u64..u64::MAX / 2), 1..200)) {
        // The batched whole-timestamp API must yield exactly the events
        // single pops would, in the same order.
        let mut batched: EventQueue<u64> = EventQueue::new();
        let mut single: EventQueue<u64> = EventQueue::new();
        for (i, &raw) in raw_ops.iter().enumerate() {
            if let Op::Push { offset } = decode_op(raw) {
                batched.push(Time::from_nanos(offset), i as u64);
                single.push(Time::from_nanos(offset), i as u64);
            }
        }
        let mut run = VecDeque::new();
        while let Some(t) = batched.pop_run(&mut run) {
            for e in run.drain(..) {
                let s = single.pop().expect("single queue has the event too");
                prop_assert_eq!((t, e.seq, e.event), (s.at, s.seq, s.event));
            }
        }
        prop_assert!(single.pop().is_none(), "batched run ended early");
    }
}
