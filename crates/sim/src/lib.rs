#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::print_stdout, clippy::print_stderr, clippy::exit))]

//! # clove-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the foundation every other crate in the Clove
//! reproduction builds on:
//!
//! * [`Time`] / [`Duration`] — nanosecond-resolution simulated clock types.
//! * [`EventQueue`] — a priority queue of timestamped events with a
//!   deterministic total order (ties broken by insertion sequence, never by
//!   allocator or hash order).
//! * [`World`] / [`run`] — a minimal event-loop abstraction: a world handles
//!   one event at a time and may schedule more.
//! * [`SimRng`] — a small, fast, fully deterministic PRNG (splitmix64 seeded
//!   xoshiro256**) with the handful of distributions the experiments need
//!   (uniform, exponential, empirical CDFs live in `clove-workload`).
//!
//! ## Determinism contract
//!
//! Everything in this crate is single-threaded and allocation-order
//! independent. Given the same seed and the same sequence of `push` calls, a
//! simulation replays identically. This is what lets the test-suite assert
//! exact packet counts and lets experiments be compared across schemes with
//! paired seeds.

pub mod queue;
pub mod rng;
pub mod time;

pub use queue::{EventQueue, QueueProfile, ScheduledEvent};
pub use rng::SimRng;
pub use time::{Duration, Time};

/// A simulated world: owns all state and reacts to one event at a time.
///
/// The event loop ([`run`]) pops the earliest run of events and hands each,
/// in place, to [`World::handle_mut`], which may push further events onto the
/// queue. The loop ends when the queue drains or the horizon is reached.
pub trait World {
    /// The event payload type this world understands.
    type Event;

    /// Handle a single event occurring at `now`. New events may be scheduled
    /// through `queue`; they must not be scheduled in the past.
    ///
    /// The event is lent, not given: it stays in the scheduler's popped
    /// batch, which is discarded after the run, so the handler may scribble
    /// on it (a switch decrements the TTL and sets CE right there) and copies
    /// out only what it keeps.
    fn handle_mut(&mut self, now: Time, event: &mut Self::Event, queue: &mut EventQueue<Self::Event>);

    /// [`World::handle_mut`] for a caller that owns the event (hand-written
    /// loops that `pop_front` each event out of the batch).
    fn handle(&mut self, now: Time, mut event: Self::Event, queue: &mut EventQueue<Self::Event>) {
        self.handle_mut(now, &mut event, queue);
    }
}

/// Outcome of driving a simulation with [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of events processed.
    pub events: u64,
    /// Simulated time of the last processed event (or `Time::ZERO` if none).
    pub end_time: Time,
    /// True if the loop stopped because the horizon was reached rather than
    /// because the queue drained.
    pub hit_horizon: bool,
}

/// Drive `world` until the queue drains or simulated time exceeds `horizon`.
///
/// Events scheduled exactly at the horizon are still processed; the first
/// event strictly after it terminates the loop (and remains in the queue).
pub fn run<W: World>(world: &mut W, queue: &mut EventQueue<W::Event>, horizon: Time) -> RunSummary {
    let mut events = 0u64;
    let mut end_time = Time::ZERO;
    // The whole earliest run (every event sharing one timestamp) is taken in
    // a single scheduler pop and walked in place — no event is moved out of
    // the batch; the next `pop_run` discards it, and the two buffers just
    // trade allocations back and forth. Handlers observing one batch may
    // push same-instant events — those land in the *next* run, in seq order,
    // exactly as a one-pop-per-event loop would deliver them.
    let mut batch: std::collections::VecDeque<ScheduledEvent<W::Event>> = std::collections::VecDeque::new();
    // Debug builds check the queue's contract on every handled event, so the
    // whole test suite is an order check of every scheme, topology and fault
    // plan it simulates; release builds compile this out.
    let mut last: Option<(Time, u64)> = None;
    loop {
        let Some(at) = queue.peek_time() else {
            return RunSummary { events, end_time, hit_horizon: false };
        };
        if at > horizon {
            return RunSummary { events, end_time, hit_horizon: true };
        }
        let now = queue.pop_run(&mut batch).expect("peeked queue must pop a run");
        debug_assert_eq!(now, at);
        end_time = now;
        for ev in batch.iter_mut() {
            debug_assert!(ev.at == now && last < Some((ev.at, ev.seq)), "event ({:?}, seq {}) handled after {last:?} in the run at {now:?}", ev.at, ev.seq);
            last = Some((ev.at, ev.seq));
            events += 1;
            world.handle_mut(now, &mut ev.event, queue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy world that counts events and optionally re-schedules itself.
    struct Ticker {
        remaining: u32,
        period: Duration,
        seen: Vec<Time>,
    }

    impl World for Ticker {
        type Event = ();
        fn handle_mut(&mut self, now: Time, _: &mut (), queue: &mut EventQueue<()>) {
            self.seen.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                queue.push(now + self.period, ());
            }
        }
    }

    #[test]
    fn run_drains_queue() {
        let mut w = Ticker { remaining: 4, period: Duration::from_micros(10), seen: vec![] };
        let mut q = EventQueue::new();
        q.push(Time::ZERO, ());
        let summary = run(&mut w, &mut q, Time::from_secs(1));
        assert_eq!(summary.events, 5);
        assert!(!summary.hit_horizon);
        assert_eq!(w.seen.len(), 5);
        assert_eq!(w.seen[4], Time::from_micros(40));
    }

    #[test]
    fn run_respects_horizon() {
        let mut w = Ticker { remaining: 1_000_000, period: Duration::from_micros(1), seen: vec![] };
        let mut q = EventQueue::new();
        q.push(Time::ZERO, ());
        let summary = run(&mut w, &mut q, Time::from_micros(10));
        assert!(summary.hit_horizon);
        // t = 0..=10 inclusive
        assert_eq!(summary.events, 11);
        assert_eq!(summary.end_time, Time::from_micros(10));
        // The next event is still queued.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_returns_zero_summary() {
        let mut w = Ticker { remaining: 0, period: Duration::ZERO, seen: vec![] };
        let mut q: EventQueue<()> = EventQueue::new();
        let summary = run(&mut w, &mut q, Time::from_secs(1));
        assert_eq!(summary.events, 0);
        assert_eq!(summary.end_time, Time::ZERO);
    }
}
