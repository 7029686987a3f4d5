//! The reference `EventQueue` is checked against: a plain `BinaryHeap` over
//! `(at, seq, payload)` with its own sequence counter. Test code only —
//! pulled in by `#[path]` from the `queue.rs` unit tests, the differential
//! proptest and the harness's `backend_identity.rs`; it shares nothing with
//! the wheel, so agreement between the two is evidence about both.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `(at_ns, seq, payload)` — what a pop yields, on either side.
pub type Popped = (u64, u64, u64);

#[derive(Default)]
pub struct HeapModel {
    heap: BinaryHeap<Reverse<Popped>>,
    /// Survives `clear`, like the queue's.
    next_seq: u64,
}

impl HeapModel {
    pub fn push(&mut self, at_ns: u64, payload: u64) {
        self.heap.push(Reverse((at_ns, self.next_seq, payload)));
        self.next_seq += 1;
    }

    pub fn pop(&mut self) -> Option<Popped> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.0)
    }

    /// Every pending event sharing the earliest timestamp, in seq order.
    pub fn pop_run(&mut self) -> Vec<Popped> {
        let t = self.peek_time();
        std::iter::from_fn(|| if self.peek_time() == t { self.pop() } else { None }).collect()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn clear(&mut self) {
        self.heap.clear();
    }
}
