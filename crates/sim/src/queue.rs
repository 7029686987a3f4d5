//! The deterministic event queue.
//!
//! [`EventQueue`] orders [`ScheduledEvent`]s by `(time, sequence)`. The
//! sequence number is assigned at push time, so two events scheduled for the
//! same instant pop in insertion order regardless of payload — this is the
//! determinism anchor of the whole simulator.
//!
//! The queue is a hierarchical timing wheel: `LEVELS` cascading levels of
//! `SLOTS` slots each, with level-0 slots one nanosecond wide (the [`Time`]
//! resolution). A level-0 slot therefore holds exactly one timestamp, so
//! appending in push order keeps it seq-sorted for free; higher levels
//! cascade down as the cursor reaches their window, and events beyond the
//! wheel horizon (2^48 ns ≈ 78 h) wait in an overflow heap. Push and pop are
//! O(1) amortized for the near-constant link-latency offsets that dominate
//! the simulator's event mix.
//!
//! The earliest run of events is kept eagerly staged in a `current` buffer
//! (non-empty whenever the queue is non-empty), which is what makes
//! `peek_time(&self)` O(1) and lets [`EventQueue::pop_run`] hand a whole
//! same-timestamp batch to the run loop as one allocation swap.
//!
//! The contract is pinned from outside: the unit tests here, the proptest in
//! `tests/proptest_queue_differential.rs` and the harness's
//! `backend_identity.rs` all compare the wheel's pop stream against a plain
//! `BinaryHeap` model (`tests/support/heap_model.rs`, test code only), and
//! debug builds of [`crate::run`] assert the order on every handled event.

use crate::time::Time;
use clove_telemetry::Histogram;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

#[cfg(test)]
#[path = "../tests/support/heap_model.rs"]
mod heap_model;

/// An event plus the instant it fires at.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: Time,
    /// Monotone per-queue insertion counter; breaks same-instant ties.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

// Ordering is inverted (earliest first) because the overflow `BinaryHeap` is
// a max-heap.
impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller (time, seq) is "greater" so it pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Event-mix statistics the queue gathers as it runs: how deep the pending
/// set gets and how far ahead of "now" events are scheduled. Both feed wheel
/// bucket sizing (the repo benchmark reports them as `sim.peak_pending` and
/// `sim.far_push_share`) so the level geometry is tuned from measured data
/// rather than guesses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueueProfile {
    /// High-water mark of pending events.
    pub peak_pending: u64,
    /// Push-to-pop delay histogram over `at − last_popped_time` in ns: how
    /// far into the future of the queue's head each event was scheduled —
    /// exactly the offset distribution that decides which wheel level absorbs
    /// the event. Stored as the shared log-linear streaming histogram, whose
    /// `log2_counts` view (bucket 0 = zero delay, bucket `k ≥ 1` = delays in
    /// `[2^(k-1), 2^k)` ns) is the per-wheel-level reading.
    pub delay_hist: Histogram,
}

impl QueueProfile {
    /// Fold another profile into this one (cross-cell aggregation).
    pub fn merge(&mut self, other: &QueueProfile) {
        self.peak_pending = self.peak_pending.max(other.peak_pending);
        self.delay_hist.merge(&other.delay_hist);
    }
}

/// Slot-index bits per wheel level.
const SLOT_BITS: u32 = 8;
/// Slots per level (256).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; level `L` slots are `2^(8L)` ns wide, so six levels cover
/// a 2^48 ns ≈ 78 hour horizon before the overflow heap takes over.
const LEVELS: usize = 6;
/// 64-bit occupancy-bitmap words per level.
const WORDS: usize = SLOTS / 64;

/// A future-event set with deterministic ordering. See the module docs for
/// the wheel geometry; the structural invariants are:
///
/// 1. `current` is sorted by `(at, seq)` and is non-empty whenever the queue
///    is non-empty (events are staged eagerly at pop/refill time).
/// 2. When `current` is non-empty, `cursor == current.back().at`: the cursor
///    is pinned to the latest staged instant, and every event in the slots
///    or overflow fires strictly later than it.
/// 3. A slot vector is always seq-ascending: pushes append in seq order, and
///    a cascade drains its source slot in order into empty lower slots.
/// 4. The cursor never rewinds while events are pending, so slot indices
///    computed against it stay valid until drained.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The staged head of the queue, in pop order.
    current: VecDeque<ScheduledEvent<E>>,
    /// Scan anchor: the instant of `current.back()` (see invariant 2).
    cursor: u64,
    /// `LEVELS × SLOTS` slot vectors, level-major.
    slots: Vec<Vec<ScheduledEvent<E>>>,
    /// Per-level slot-occupancy bitmaps.
    occ: [[u64; WORDS]; LEVELS],
    /// Far-future events (further than the wheel horizon from the cursor).
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Events in `slots` + `overflow` (excludes `current`).
    pending: usize,
    /// The next push's sequence number, which is also the lifetime push
    /// count: it survives [`EventQueue::clear`].
    next_seq: u64,
    /// Instant of the most recent pop — the "now" each push's scheduling
    /// delay is measured against for the profile histogram.
    last_pop: u64,
    profile: QueueProfile,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue whose staged-run buffer is pre-allocated for `cap`
    /// events (at most 1024: a run is one timestamp's worth of events, and
    /// slot storage grows per slot).
    pub fn with_capacity(cap: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        EventQueue {
            current: VecDeque::with_capacity(cap.min(1024)),
            cursor: 0,
            slots,
            occ: [[0; WORDS]; LEVELS],
            overflow: BinaryHeap::new(),
            pending: 0,
            next_seq: 0,
            last_pop: 0,
            profile: QueueProfile::default(),
        }
    }

    /// Schedule `event` to fire at `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.profile.delay_hist.record(at.0.saturating_sub(self.last_pop));
        let ev = ScheduledEvent { at, seq, event };
        if self.current.is_empty() {
            // Empty queue (invariant 1 ⇒ nothing pending): re-anchor.
            debug_assert_eq!(self.pending, 0);
            self.cursor = at.0;
            self.current.push_back(ev);
        } else if at.0 >= self.cursor {
            if at.0 == self.cursor {
                // Same instant as the staged tail: the fresh seq is the
                // largest, so this is a plain O(1) append.
                self.current.push_back(ev);
            } else {
                self.place_future(ev);
            }
        } else {
            // Earlier than the staged tail — insert into `current` keeping
            // (at, seq) order. The fresh seq is larger than every staged
            // one, so the slot is right after the last event with at ≤ t.
            let pos = self.current.partition_point(|e| e.at <= at);
            self.current.insert(pos, ev);
        }
        let len = self.len() as u64;
        if len > self.profile.peak_pending {
            self.profile.peak_pending = len;
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.current.pop_front()?;
        if self.current.is_empty() {
            self.refill();
        }
        self.last_pop = ev.at.0;
        Some(ev)
    }

    /// The instant the earliest event fires at, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.current.front().map(|e| e.at)
    }

    /// Move the entire earliest run — every pending event sharing the
    /// earliest timestamp, in seq order — into `out` (which is cleared
    /// first), returning that timestamp. This is usually one allocation
    /// swap: the staged `current` buffer trades places with `out`, so a run
    /// loop that alternates `pop_run`/drain never copies events or allocates
    /// in steady state.
    pub fn pop_run(&mut self, out: &mut VecDeque<ScheduledEvent<E>>) -> Option<Time> {
        out.clear();
        let t = self.current.front()?.at;
        if self.current.back().is_some_and(|e| e.at == t) {
            // The whole staged buffer is one run: swap it out.
            mem::swap(&mut self.current, out);
            self.refill();
        } else {
            // `current` spans several instants (same-instant pushes landed
            // ahead of a later staged run): peel the head run in one bulk
            // drain (`current` is sorted by time).
            let n = self.current.partition_point(|e| e.at <= t);
            out.extend(self.current.drain(..n));
        }
        self.last_pop = t.0;
        Some(t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.current.len() + self.pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed over the queue's whole lifetime (for run
    /// statistics). This counter deliberately survives [`clear`]: a cleared
    /// queue is the *same* queue being reused, and run accounting wants the
    /// grand total, not a per-epoch count. Callers that need per-epoch
    /// deltas should snapshot `total_pushed()` before the epoch.
    ///
    /// [`clear`]: EventQueue::clear
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// The event-mix profile accumulated over the queue's lifetime.
    pub fn profile(&self) -> &QueueProfile {
        &self.profile
    }

    /// Drop all pending events, keeping allocations for reuse.
    ///
    /// The sequence counter survives on purpose: events pushed after a
    /// `clear` still tie-break deterministically against each other (a
    /// post-clear push can never collide with a stale `(time, seq)` pair
    /// from before the clear), and [`total_pushed`] keeps counting lifetime
    /// pushes; see its docs.
    ///
    /// The backing allocations (staged buffer, slot vectors, overflow heap)
    /// are retained, so clear-and-refill cycles do not reallocate.
    ///
    /// [`total_pushed`]: EventQueue::total_pushed
    pub fn clear(&mut self) {
        self.current.clear();
        for (level, bitmap) in self.occ.iter_mut().enumerate() {
            for (w, word) in bitmap.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let idx = w * 64 + bits.trailing_zeros() as usize;
                    self.slots[level * SLOTS + idx].clear();
                    bits &= bits - 1;
                }
                *word = 0;
            }
        }
        self.overflow.clear();
        self.pending = 0;
        self.cursor = 0;
        self.last_pop = 0;
    }

    /// Schedule an event that fires strictly after the cursor.
    fn place_future(&mut self, ev: ScheduledEvent<E>) {
        let t = ev.at.0;
        let diff = t ^ self.cursor;
        debug_assert!(t > self.cursor);
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(ev);
        } else {
            let idx = ((t >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            self.slots[level * SLOTS + idx].push(ev);
            self.occ[level][idx / 64] |= 1u64 << (idx % 64);
        }
        self.pending += 1;
    }

    /// First occupied slot at/after the cursor, if any: level 0 scans from
    /// the cursor's own slot (a post-cascade anchor can land exactly on an
    /// event), higher levels from the next slot over (the cursor's own
    /// higher-level slots are provably empty — an event there would share
    /// the slot's index bits with the cursor and so live at a lower level).
    fn find_slot(&self) -> Option<(usize, usize)> {
        let pos0 = (self.cursor & (SLOTS as u64 - 1)) as usize;
        if let Some(i) = scan_level(&self.occ[0], pos0) {
            return Some((0, i));
        }
        for level in 1..LEVELS {
            let pos = ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            if pos + 1 < SLOTS {
                if let Some(i) = scan_level(&self.occ[level], pos + 1) {
                    return Some((level, i));
                }
            }
        }
        None
    }

    /// Restage `current` with the earliest pending run. Called only when
    /// `current` is empty; restores invariants 1–2 unless the queue is done.
    fn refill(&mut self) {
        debug_assert!(self.current.is_empty());
        if self.pending == 0 {
            return;
        }
        loop {
            let Some((level, idx)) = self.find_slot() else {
                // Only the overflow holds events.
                self.take_overflow_run();
                return;
            };
            if level == 0 {
                let t = (self.cursor & !(SLOTS as u64 - 1)) | idx as u64;
                // A level-0 slot is one timestamp; the overflow may hold
                // the same instant (pushed when the cursor was far behind),
                // or an earlier one the slots can't see.
                match self.overflow.peek().map(|o| o.at.0.cmp(&t)) {
                    Some(Ordering::Less) => self.take_overflow_run(),
                    Some(Ordering::Equal) => self.take_slot_merged_with_overflow(idx, t),
                    _ => self.take_level0_slot(idx, t),
                }
                return;
            }
            // A higher-level window is next — but take the overflow run
            // first if it fires before that window even opens. (Checking
            // before cascading is what keeps the cursor monotone: a cascade
            // advances it to the window base.)
            let shift = SLOT_BITS * level as u32;
            let base = (self.cursor & !((1u64 << (shift + SLOT_BITS)) - 1)) | ((idx as u64) << shift);
            if self.overflow.peek().is_some_and(|o| o.at.0 < base) {
                self.take_overflow_run();
                return;
            }
            self.cascade(level, idx, base);
        }
    }

    /// Redistribute one higher-level slot across the levels below it,
    /// anchoring the cursor at the slot's window base. Every target slot is
    /// empty beforehand (its events would have mapped to this source slot),
    /// so draining in seq order preserves invariant 3.
    fn cascade(&mut self, level: usize, idx: usize, base: u64) {
        self.cursor = base;
        let mut v = mem::take(&mut self.slots[level * SLOTS + idx]);
        self.occ[level][idx / 64] &= !(1u64 << (idx % 64));
        self.pending -= v.len();
        for ev in v.drain(..) {
            if ev.at.0 == base {
                // The window base itself: level 0, the cursor's own slot —
                // which the inclusive level-0 scan picks up next.
                let i = (base & (SLOTS as u64 - 1)) as usize;
                self.slots[i].push(ev);
                self.occ[0][i / 64] |= 1u64 << (i % 64);
                self.pending += 1;
            } else {
                self.place_future(ev);
            }
        }
        // Hand the emptied vector's allocation back to the slot.
        self.slots[level * SLOTS + idx] = v;
    }

    fn take_level0_slot(&mut self, idx: usize, t: u64) {
        let v = mem::take(&mut self.slots[idx]);
        self.occ[0][idx / 64] &= !(1u64 << (idx % 64));
        self.pending -= v.len();
        self.cursor = t;
        // Refill only runs with `current` empty, so the slot's run (already
        // in seq order) can take over wholesale: trading allocations is O(1)
        // where an `extend` would copy every event — and every event in the
        // simulation funnels through this path once.
        debug_assert!(self.current.is_empty());
        let prev = mem::replace(&mut self.current, VecDeque::from(v));
        // An empty VecDeque converts back allocation-preserving in O(1).
        self.slots[idx] = Vec::from(prev);
    }

    fn take_overflow_run(&mut self) {
        let Some(first) = self.overflow.pop() else { return };
        let t = first.at;
        self.cursor = t.0;
        self.pending -= 1;
        self.current.push_back(first);
        while self.overflow.peek().is_some_and(|e| e.at == t) {
            if let Some(ev) = self.overflow.pop() {
                self.pending -= 1;
                self.current.push_back(ev);
            }
        }
    }

    /// The rare equal-instant split: part of the run sits in a level-0 slot
    /// (pushed near the cursor), part in the overflow (pushed far ahead of
    /// an older cursor). Merge the two seq-sorted streams.
    fn take_slot_merged_with_overflow(&mut self, idx: usize, t: u64) {
        let mut v = mem::take(&mut self.slots[idx]);
        self.occ[0][idx / 64] &= !(1u64 << (idx % 64));
        self.pending -= v.len();
        self.cursor = t;
        let mut from_overflow = Vec::new();
        while self.overflow.peek().is_some_and(|e| e.at.0 == t) {
            if let Some(ev) = self.overflow.pop() {
                self.pending -= 1;
                from_overflow.push(ev);
            }
        }
        let mut a = v.drain(..).peekable();
        let mut b = from_overflow.into_iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    if x.seq < y.seq {
                        self.current.extend(a.next());
                    } else {
                        self.current.extend(b.next());
                    }
                }
                (Some(_), None) => self.current.extend(a.next()),
                (None, Some(_)) => self.current.extend(b.next()),
                (None, None) => break,
            }
        }
        drop(a);
        self.slots[idx] = v;
    }
}

/// First set bit at/after `from` in a 256-bit occupancy bitmap.
fn scan_level(occ: &[u64; WORDS], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = occ[w] & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        if w == WORDS {
            return None;
        }
        word = occ[w];
    }
}

#[cfg(test)]
mod tests {
    use super::heap_model::{HeapModel, Popped};
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(30), "c");
        q.push(Time::from_micros(10), "a");
        q.push(Time::from_micros(20), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_micros(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_micros(10), 1);
        q.push(Time::from_micros(5), 0);
        assert_eq!(q.pop().unwrap().event, 0);
        q.push(Time::from_micros(7), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 1);
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::ZERO, ());
        q.push(Time::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn clear_and_reuse_keeps_counters() {
        let mut q = EventQueue::with_capacity(64);
        q.push(Time::from_micros(1), 0);
        q.push(Time::from_micros(1), 1);
        q.clear();
        assert_eq!(q.total_pushed(), 2);
        assert!(q.is_empty());
        // seq keeps counting: post-clear same-instant pushes still pop in
        // insertion order.
        q.push(Time::from_micros(1), 10);
        q.push(Time::from_micros(1), 11);
        assert_eq!(q.pop().map(|e| (e.seq, e.event)), Some((2, 10)));
        assert_eq!(q.pop().map(|e| (e.seq, e.event)), Some((3, 11)));
        assert_eq!(q.total_pushed(), 4);
    }

    #[test]
    fn zero_time_events_fire() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 42);
        let ev = q.pop().unwrap();
        assert_eq!(ev.at, Time::ZERO);
        assert_eq!(ev.event, 42);
    }

    fn popped(e: ScheduledEvent<u64>) -> Popped {
        (e.at.0, e.seq, e.event)
    }

    fn drain(q: &mut EventQueue<u64>) -> Vec<Popped> {
        std::iter::from_fn(|| q.pop().map(popped)).collect()
    }

    #[test]
    fn wheel_matches_heap_across_level_boundaries() {
        // Times straddling every wheel level, including duplicates and the
        // overflow horizon (≥ 2^48 ns from the anchor).
        let times = [0u64, 1, 255, 256, 257, 255, 65_535, 65_536, 1 << 24, (1 << 24) + 1, 1 << 40, (1 << 48) + 7, (1 << 48) + 7, 1 << 50, 3, 0];
        let mut wheel = EventQueue::new();
        let mut heap = HeapModel::default();
        for (i, &t) in times.iter().enumerate() {
            wheel.push(Time::from_nanos(t), i as u64);
            heap.push(t, i as u64);
        }
        let w = drain(&mut wheel);
        assert_eq!(w, std::iter::from_fn(|| heap.pop()).collect::<Vec<_>>());
        assert_eq!(w.len(), times.len());
    }

    #[test]
    fn wheel_overflow_and_slot_merge_same_instant() {
        // An event lands in the overflow (pushed > 2^48 ns ahead of the
        // cursor); later the cursor catches up and a second event for the
        // *same* instant lands in a level-0 slot. The refill must merge the
        // two sources in pure seq order.
        let t = (1u64 << 49) + 100;
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 0u64); // anchors the cursor at 0
        q.push(Time::from_nanos(t), 1); // 2^49 ns ahead → overflow
        q.push(Time::from_nanos(t - 50), 2); // also overflow
        assert_eq!(q.pop().unwrap().event, 0);
        // The refill staged event 2 from the overflow; cursor = t - 50.
        assert_eq!(q.peek_time(), Some(Time::from_nanos(t - 50)));
        q.push(Time::from_nanos(t), 3); // 50 ns ahead now → level-0 slot
        assert_eq!(q.pop().unwrap().event, 2);
        // Instant `t` is split: event 1 in the overflow, event 3 in a slot.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec![1, 3], "same-instant events split across overflow and slots must merge in seq order");
    }

    #[test]
    fn pop_run_returns_whole_timestamp_batch() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(10), 0u64);
        q.push(Time::from_nanos(10), 1);
        q.push(Time::from_nanos(20), 2);
        q.push(Time::from_nanos(10), 3);
        let mut run = VecDeque::new();
        assert_eq!(q.pop_run(&mut run), Some(Time::from_nanos(10)));
        assert_eq!(run.iter().map(|e| e.event).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_run(&mut run), Some(Time::from_nanos(20)));
        assert_eq!(run.iter().map(|e| e.event).collect::<Vec<_>>(), vec![2]);
        assert_eq!(q.pop_run(&mut run), None);
        assert!(run.is_empty());
    }

    #[test]
    fn pop_run_peels_partial_head_after_past_insert() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(10), 0u64);
        q.push(Time::from_nanos(20), 1);
        let mut run = VecDeque::new();
        q.pop_run(&mut run); // takes the run at 10; stages the run at 20
        q.push(Time::from_nanos(10), 2); // same-instant push lands ahead of the staged 20
        q.push(Time::from_nanos(15), 3);
        q.push(Time::from_nanos(10), 4); // joins event 2's run, behind it
        let mut order = Vec::new();
        while let Some(t) = q.pop_run(&mut run) {
            order.push((t.0, run.iter().map(|e| e.event).collect::<Vec<_>>()));
        }
        assert_eq!(order, vec![(10, vec![2, 4]), (15, vec![3]), (20, vec![1])]);
    }

    #[test]
    fn profile_tracks_peak_and_delay_buckets() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 0u64); // delay 0 → bucket 0
        q.push(Time::from_nanos(1), 1); // delay 1 → bucket 1
        q.push(Time::from_nanos(1000), 2); // delay 1000 → bucket 10
        assert_eq!(q.profile().peak_pending, 3);
        let log2 = q.profile().delay_hist.log2_counts();
        assert_eq!(log2[0], 1);
        assert_eq!(log2[1], 1);
        assert_eq!(log2[10], 1);
        assert_eq!(q.profile().delay_hist.count(), 3);
        assert_eq!(log2.iter().rposition(|&c| c > 0), Some(10));
        let mut hist = Histogram::new();
        for _ in 0..5 {
            hist.record(0);
        }
        let other = QueueProfile { peak_pending: 1, delay_hist: hist };
        let mut merged = q.profile().clone();
        merged.merge(&other);
        assert_eq!(merged.peak_pending, 3);
        assert_eq!(merged.delay_hist.log2_counts()[0], 6);
    }

    #[test]
    fn randomish_workload_matches_heap_exactly() {
        // A deterministic LCG drives interleaved push/pop/pop_run/clear on
        // the wheel and the heap model; the pop streams must be identical.
        // (The proptest in clove-sim/tests covers the randomized version of
        // this.)
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut wheel = EventQueue::new();
        let mut heap = HeapModel::default();
        let mut run = VecDeque::new();
        for i in 0..10_000u64 {
            let r = next();
            match r % 10 {
                0..=6 => {
                    // Mostly near-future pushes, some far, occasional dupes.
                    let t = match r % 3 {
                        0 => (i * 13) % 4096,
                        1 => next() % (1 << 20),
                        _ => next() % (1 << 45),
                    };
                    wheel.push(Time::from_nanos(t), i);
                    heap.push(t, i);
                }
                7 | 8 => assert_eq!(wheel.pop().map(popped), heap.pop(), "step {i}"),
                _ if r % 97 == 0 => {
                    wheel.clear();
                    heap.clear();
                }
                _ => {
                    wheel.pop_run(&mut run);
                    assert_eq!(run.drain(..).map(popped).collect::<Vec<_>>(), heap.pop_run(), "step {i}");
                }
            }
            assert_eq!(wheel.len(), heap.len(), "step {i}");
            assert_eq!(wheel.peek_time().map(|t| t.0), heap.peek_time(), "step {i}");
        }
        assert_eq!(drain(&mut wheel), std::iter::from_fn(|| heap.pop()).collect::<Vec<_>>());
    }
}
