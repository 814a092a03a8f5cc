//! [`EventQueue`]: the deterministic priority queue at the heart of the
//! discrete-event simulation.
//!
//! Events are ordered by `(fire time, insertion sequence)`. The sequence
//! number breaks ties between events scheduled for the same instant in
//! *insertion order*, which is what makes simulations reproducible: two runs
//! that schedule the same events in the same order pop them in the same
//! order, regardless of the payload type's own ordering (the payload does
//! not even need to implement `Ord`).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A handle to a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct EventId(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    cancelled: bool,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic future-event list.
///
/// `pop` advances the queue's notion of *now* to the popped event's time;
/// scheduling an event in the past is clamped to *now* rather than
/// panicking (a component reacting to an event may legitimately want
/// "immediately", which is the current instant).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    // Number of live (non-cancelled) entries, so len() is O(1) and honest.
    live: usize,
    // Profiling counters: how much work this queue has seen. Observed
    // only — they never influence ordering, so instrumented and plain
    // runs are identical.
    popped: u64,
    peak_live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            live: 0,
            popped: 0,
            peak_live: 0,
        }
    }

    /// The current simulation instant: the time of the most recently popped
    /// event (zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at `at` (clamped to `now` if in the
    /// past). Returns a handle usable with [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            at,
            seq,
            cancelled: false,
            payload,
        });
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        EventId(seq)
    }

    /// Cancel a scheduled event; `false` if it already fired or was
    /// already cancelled. O(n): the entry is found by scanning, marked,
    /// and left in place to be discarded when it surfaces — except that
    /// the heap's top entry is never a cancelled one, which `cancel` and
    /// `pop` both restore before returning. That invariant is what lets
    /// `peek_time` read the top and `pop` take it without looking further.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // BinaryHeap has no in-place mutation; the flag is not part of
        // the ordering, so the vector goes back as the heap it was.
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        let entry = entries.iter_mut().find(|e| e.seq == id.0 && !e.cancelled);
        let found = entry.is_some();
        if let Some(e) = entry {
            e.cancelled = true;
            self.live -= 1;
        }
        self.heap = entries.into();
        self.purge_top();
        found
    }

    fn purge_top(&mut self) {
        while self.heap.peek().is_some_and(|e| e.cancelled) {
            self.heap.pop();
        }
    }

    /// Pop the earliest live event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(!entry.cancelled, "a cancelled entry sat at the top");
        self.live -= 1;
        self.popped += 1;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        // Only a queue holding cancelled entries can have exposed one.
        if self.heap.len() != self.live {
            self.purge_top();
        }
        Some((entry.at, entry.payload))
    }

    /// Fire time of the earliest live event without popping it. O(1),
    /// by the top-is-live invariant: the fleet loop re-keys a session
    /// with this after every one of its events.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// The live events still pending, in no particular order (diagnostics
    /// and invariant checks; nothing here can reorder the queue).
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        let live = self.heap.iter().filter(|e| !e.cancelled);
        live.map(|e| (e.at, &e.payload))
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total live events popped over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// High-water mark of live events (peak queue depth).
    pub fn peak_len(&self) -> usize {
        self.peak_live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn clock_advances_and_past_events_clamp() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "later");
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
        // Scheduling in the past clamps to now.
        q.schedule(SimTime::from_secs(1), "past");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(e, "past");
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn cancel_stress_preserves_order_of_survivors() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..200u64)
            .map(|i| q.schedule(SimTime::from_millis(i), i))
            .collect();
        // Cancel every third event.
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*id));
            }
        }
        assert_eq!(q.len(), 200 - 67);
        let mut last = None;
        let mut popped = 0;
        while let Some((t, v)) = q.pop() {
            assert!(v % 3 != 0, "cancelled event {v} escaped");
            if let Some(prev) = last {
                assert!(t >= prev);
            }
            last = Some(t);
            popped += 1;
        }
        assert_eq!(popped, 133);
    }

    #[test]
    fn profiling_counters_track_pops_and_peak_depth() {
        let mut q = EventQueue::new();
        for i in 0..4u64 {
            q.schedule(SimTime::from_secs(i), i);
        }
        assert_eq!(q.peak_len(), 4);
        let a = q.schedule(SimTime::from_secs(9), 9);
        assert_eq!(q.peak_len(), 5);
        q.cancel(a);
        while q.pop().is_some() {}
        // Cancelled events never count as popped.
        assert_eq!(q.popped(), 4);
        assert_eq!(q.peak_len(), 5, "peak survives draining");
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1u32);
        let (t1, _) = q.pop().unwrap();
        q.schedule(t1 + crate::SimDuration::from_secs(1), 2u32);
        q.schedule(t1 + crate::SimDuration::from_millis(500), 3u32);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }
}
