//! [`EventQueue`]: the deterministic priority queue at the heart of the
//! discrete-event simulation.
//!
//! Events are ordered by `(fire time, insertion sequence)`. The sequence
//! number breaks ties between events scheduled for the same instant in
//! *insertion order*, which is what makes simulations reproducible: two runs
//! that schedule the same events in the same order pop them in the same
//! order, regardless of the payload type's own ordering (the payload does
//! not even need to implement `Ord`).
//!
//! Most events come from a few sources that each schedule in ascending
//! time (a path's data arrivals, its ACKs one fixed delay after `now`,
//! periodic ticks), so beside a binary heap the queue keeps [`LANES`] FIFO
//! lanes. The caller names the lane of an event's stream
//! ([`EventQueue::schedule_in`]); an entry joins it only at its end and
//! only if that keeps it sorted. The next event is the smallest key over
//! the lane heads and the heap top: where an entry is *stored* never
//! changes the order it pops in.
//!
//! Entries live in one slab. When a pop leaves it three quarters empty
//! ([`slack::shrunk_capacity`]), the pending entries move into a slab of
//! the rule's size, each lane head to tail and then the heap's. An entry
//! keeps its key, and only keys decide order, so compaction cannot move
//! a pop.

use crate::slack::{self, GiveBackSlack};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A handle to a scheduled event, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct EventId(u64);

/// Pop order as one integer: fire time in the high half, insertion
/// sequence in the low half.
type Key = u128;

fn at_of(key: Key) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// FIFO lanes beside the heap: a connection names five (data and ACKs
/// of each of two paths, the tick), the sixth is [`SHARED_LANE`].
pub const LANES: usize = 6;
/// The lane of [`EventQueue::schedule`]: whatever has no lane of its own.
pub const SHARED_LANE: usize = LANES - 1;
/// Head key of an empty lane; no entry has it (sequence `u64::MAX`).
const NO_KEY: Key = Key::MAX;
/// End of a list in the slab.
const NIL: u32 = u32::MAX;

/// A slab slot: a pending entry, or (payload `None`) a free-list link.
struct Node<E> {
    key: Key,
    payload: Option<E>,
    next: u32,
}

/// Deterministic future-event list.
///
/// `pop` advances the queue's notion of *now* to the popped event's time;
/// scheduling an event in the past is clamped to *now* rather than
/// panicking (a component reacting to an event may legitimately want
/// "immediately", which is the current instant).
pub struct EventQueue<E> {
    /// Every pending entry, in one slab that grows with the queue's depth
    /// and is compacted when a pop leaves it three quarters empty.
    /// Lanes and the free list are singly linked through `Node::next`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Keys and slab slots of the entries that fit no lane.
    heap: BinaryHeap<Reverse<(Key, u32)>>,
    /// Per lane, the key of its oldest entry ([`NO_KEY`] when empty).
    head_key: [Key; LANES],
    /// Per lane, the key of the newest entry ever appended (kept when the
    /// lane drains): a later key may join the lane, an earlier one not.
    tail_key: [Key; LANES],
    head: [u32; LANES],
    tail: [u32; LANES],
    /// The smallest pending key and the lane holding it (`LANES`: the
    /// heap), kept current by every operation so `peek_time` is a read.
    next: (Key, usize),
    next_seq: u64,
    now: SimTime,
    len: usize,
    // Profiling counters: how much work this queue has seen. Observed
    // only — they never influence ordering, so instrumented and plain
    // runs are identical.
    popped: u64,
    peak_len: usize,
    heap_fallbacks: u64,
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
            nodes: Vec::new(),
            free: NIL,
            heap: BinaryHeap::new(),
            head_key: [NO_KEY; LANES],
            tail_key: [0; LANES],
            head: [NIL; LANES],
            tail: [NIL; LANES],
            next: (NO_KEY, LANES),
            next_seq: 0,
            now: SimTime::ZERO,
            len: 0,
            popped: 0,
            peak_len: 0,
            heap_fallbacks: 0,
        }
    }

    /// The current simulation instant: the time of the most recently popped
    /// event (zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` in [`SHARED_LANE`] to fire at `at` (clamped to
    /// `now` if in the past). Returns a handle for [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        self.schedule_in(SHARED_LANE, at, payload)
    }

    /// [`EventQueue::schedule`] for the stream the caller keeps in `lane`
    /// (below [`LANES`]). The entry joins the lane if its key is later
    /// than the lane's newest (which a drained lane remembers) and the
    /// heap otherwise — a jittered delivery overtaken by its successor, a
    /// timer shorter than the last. A wrong lane costs time, never order.
    pub fn schedule_in(&mut self, lane: usize, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = (at.max(self.now).as_nanos() as Key) << 64 | seq as Key;
        // Keys are unique, so `<=` only ever admits a fresh lane's 0.
        let fits = self.tail_key[lane] <= key;
        if key < self.next.0 {
            self.next = (key, if fits { lane } else { LANES });
        }
        let node = Node {
            key,
            payload: Some(payload),
            next: NIL,
        };
        let slot = match self.free {
            NIL => {
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
            slot => {
                self.free = std::mem::replace(&mut self.nodes[slot as usize], node).next;
                slot
            }
        };
        if fits {
            match self.tail[lane] {
                NIL => (self.head[lane], self.head_key[lane]) = (slot, key),
                tail => self.nodes[tail as usize].next = slot,
            }
            (self.tail[lane], self.tail_key[lane]) = (slot, key);
        } else {
            self.heap.push(Reverse((key, slot)));
            self.heap_fallbacks += 1;
        }
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        EventId(seq)
    }

    /// Free `slot`, returning its payload and its successor.
    fn release(&mut self, slot: u32) -> (E, u32) {
        let node = &mut self.nodes[slot as usize];
        let payload = node.payload.take().expect("a stored node is pending");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = slot;
        self.len -= 1;
        (payload, next)
    }

    /// Take `slot` out of `lane`; `prev` precedes it (`NIL` at the head).
    fn unlink(&mut self, lane: usize, prev: u32, slot: u32) -> E {
        let (payload, next) = self.release(slot);
        if next == NIL {
            self.tail[lane] = prev;
        }
        if prev == NIL {
            self.head[lane] = next;
            self.head_key[lane] = match next {
                NIL => NO_KEY,
                next => self.nodes[next as usize].key,
            };
        } else {
            self.nodes[prev as usize].next = next;
        }
        payload
    }

    /// The smallest pending key and where it is: what `next` must hold.
    fn earliest(&self) -> (Key, usize) {
        let mut best = (self.heap.peek().map_or(NO_KEY, |e| e.0 .0), LANES);
        for (lane, &key) in self.head_key.iter().enumerate() {
            if key < best.0 {
                best = (key, lane);
            }
        }
        best
    }

    /// Cancel a scheduled event; `false` if it already fired or was
    /// already cancelled. O(n): the entry is found by scanning and taken
    /// out, so no dead entry is ever stored and whatever `peek_time` and
    /// `pop` find first is live.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let (before, newest) = (self.len, self.tail_key);
        // A lane whose newest entry was scheduled before `id` cannot hold it.
        for lane in (0..LANES).filter(|&l| newest[l] as u64 >= id.0) {
            let (mut prev, mut slot) = (NIL, self.head[lane]);
            while slot != NIL && self.nodes[slot as usize].key as u64 != id.0 {
                (prev, slot) = (slot, self.nodes[slot as usize].next);
            }
            if slot != NIL {
                self.unlink(lane, prev, slot);
            }
        }
        if let Some(&Reverse(hit)) = self.heap.iter().find(|e| e.0 .0 as u64 == id.0) {
            self.heap.retain(|e| e.0 != hit);
            self.release(hit.1);
        }
        self.next = self.earliest();
        self.len < before
    }

    /// Pop the earliest live event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (key, lane) = self.next;
        let payload = if lane < LANES {
            self.unlink(lane, NIL, self.head[lane])
        } else {
            let Reverse((_, slot)) = self.heap.pop()?;
            self.release(slot).0
        };
        if let Some(capacity) = slack::shrunk_capacity(self.len, self.nodes.capacity()) {
            self.compact(capacity);
        }
        self.next = self.earliest();
        self.popped += 1;
        debug_assert!(at_of(key) >= self.now, "event queue time went backwards");
        self.now = at_of(key);
        Some((self.now, payload))
    }

    /// Move every pending entry into a fresh slab of `capacity` nodes:
    /// each lane head to tail, then the heap's entries, whose
    /// `(key, slot)` pairs are rebuilt on their new slots. Keys, head keys
    /// and `tail_key` are untouched, so the order pops come in is too.
    #[cold]
    #[inline(never)]
    fn compact(&mut self, capacity: usize) {
        let mut old = std::mem::replace(&mut self.nodes, Vec::with_capacity(capacity));
        let mut take = |nodes: &mut Vec<Node<E>>, slot: u32| {
            let node = &mut old[slot as usize];
            nodes.push(Node {
                key: node.key,
                payload: node.payload.take(),
                next: NIL,
            });
            (nodes.len() as u32 - 1, node.next)
        };
        for lane in 0..LANES {
            let (mut prev, mut slot) = (NIL, self.head[lane]);
            while slot != NIL {
                let (moved, next) = take(&mut self.nodes, slot);
                match prev {
                    NIL => self.head[lane] = moved,
                    prev => self.nodes[prev as usize].next = moved,
                }
                (prev, slot) = (moved, next);
            }
            self.tail[lane] = prev;
        }
        let mut heap = std::mem::take(&mut self.heap).into_vec();
        for Reverse((_, slot)) in &mut heap {
            *slot = take(&mut self.nodes, *slot).0;
        }
        heap.give_back_slack();
        self.heap = BinaryHeap::from(heap);
        self.free = NIL;
        debug_assert_eq!(self.nodes.len(), self.len);
    }

    /// Fire time of the earliest live event without popping it. O(1) in
    /// the queue's depth: the fleet loop re-keys a session with this
    /// after every one of its events.
    pub fn peek_time(&self) -> Option<SimTime> {
        (self.next.0 != NO_KEY).then(|| at_of(self.next.0))
    }

    /// The live events still pending, in no particular order (diagnostics
    /// and invariant checks; nothing here can reorder the queue).
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        let nodes = self.nodes.iter();
        nodes.flat_map(|n| n.payload.iter().map(move |p| (at_of(n.key), p)))
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total live events popped over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// High-water mark of live events (peak queue depth).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// `schedule` calls that joined a lane (an O(1) append).
    pub fn lane_appends(&self) -> u64 {
        self.next_seq - self.heap_fallbacks
    }

    /// `schedule` calls that did not fit their lane and paid for a heap push.
    pub fn heap_fallbacks(&self) -> u64 {
        self.heap_fallbacks
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
    fn a_drained_burst_gives_its_slab_back_and_keeps_its_order() {
        let mut q = EventQueue::new();
        // 10,000 events, an ascending stream per lane, every seventh one
        // 50 ms late: behind its lane's newest, so it takes the heap.
        for i in 0..10_000u64 {
            let ms = if i % 7 == 0 { i.saturating_sub(50) } else { i };
            q.schedule_in(i as usize % LANES, SimTime::from_millis(ms), i);
        }
        assert!(q.heap_fallbacks() > 1_000 && q.lane_appends() > 8_000);
        assert!(q.nodes.capacity() >= 10_000);
        let mut popped = Vec::new();
        while q.len() > 5 {
            popped.push(q.pop().unwrap());
        }
        assert!(q.nodes.capacity() <= (4 * q.len()).max(slack::MIN_CAPACITY));
        // The handful left pops after the rest, all in (time, insertion)
        // order: the payload is the insertion index.
        popped.extend(std::iter::from_fn(|| q.pop()));
        assert_eq!(popped.len(), 10_000);
        assert!(popped.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(q.peak_len(), 10_000);
        assert_eq!(q.lane_appends() + q.heap_fallbacks(), 10_000);
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
