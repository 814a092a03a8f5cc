//! [`NextEvent`]: which of the fleet's entities fires next.
//!
//! A winner tree over a fixed set of slots, each holding that entity's
//! next fire time or `None`. Re-keying one slot replays its matches
//! towards the root, O(log slots); reading the winner is O(1). Ties on
//! time go to the lower slot, so laying bottlenecks out before sessions
//! gives the fleet loop's `(time, bottleneck-before-session, index)`
//! order.

use mpdash_sim::SimTime;

/// A node's key for "nothing pending": later than every real time, so a
/// match is one integer compare with no empty case. No event fires at
/// `SimTime::MAX` (the simulation would have overflowed long before).
const EMPTY: u64 = u64::MAX;

pub(crate) struct NextEvent {
    // Implicit complete binary tree rooted at 1: node `j`'s children are
    // `2j` and `2j + 1`, nodes `leaves..` are the slots in order, and
    // every inner node is a copy of its earlier child: `(key ns, slot)`.
    nodes: Vec<(u64, usize)>,
    leaves: usize,
}

impl NextEvent {
    /// `slots` empty slots.
    pub(crate) fn new(slots: usize) -> Self {
        let leaves = slots.next_power_of_two();
        NextEvent {
            // Padding leaves stay `EMPTY` and so never win; an inner
            // node's slot is only read once its key is a time.
            nodes: (0..2 * leaves)
                .map(|j| (EMPTY, j.saturating_sub(leaves)))
                .collect(),
            leaves,
        }
    }

    /// Set `slot`'s next fire time (`None`: nothing pending).
    pub(crate) fn set(&mut self, slot: usize, key: Option<SimTime>) {
        debug_assert_ne!(key, Some(SimTime::MAX), "SimTime::MAX is the empty key");
        let mut j = self.leaves + slot;
        self.nodes[j].0 = key.map_or(EMPTY, SimTime::as_nanos);
        while j > 1 {
            j /= 2;
            let (l, r) = (self.nodes[2 * j], self.nodes[2 * j + 1]);
            // Every slot under the left child is lower than any under
            // the right, so the left one keeps ties.
            let earlier = if r.0 < l.0 { r } else { l };
            if self.nodes[j] == earlier {
                break;
            }
            self.nodes[j] = earlier;
        }
    }

    fn time(key: u64) -> Option<SimTime> {
        (key != EMPTY).then(|| SimTime::from_nanos(key))
    }

    /// `slot`'s next fire time as last set.
    pub(crate) fn key(&self, slot: usize) -> Option<SimTime> {
        Self::time(self.nodes[self.leaves + slot].0)
    }

    /// The earliest `(time, slot)`, `None` when every slot is empty.
    pub(crate) fn earliest(&self) -> Option<(SimTime, usize)> {
        let (key, slot) = self.nodes[1];
        Self::time(key).map(|t| (t, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a linear scan over the same keys. Times come from a
        /// handful of instants — the last of them one nanosecond short of
        /// the empty key — so ties across slots are the common case, and
        /// a third of the writes empty a slot, so slots go
        /// `Some → None → Some`.
        #[test]
        fn earliest_matches_a_linear_scan(
            slots in 1usize..41,
            writes in prop::collection::vec(0u64..(1 << 20), 1..120),
        ) {
            let mut tree = NextEvent::new(slots);
            let mut keys: Vec<Option<SimTime>> = vec![None; slots];
            prop_assert_eq!(tree.earliest(), None);
            for w in writes {
                let slot = w as usize % slots;
                let key = ((w >> 8) % 3 != 0).then(|| match (w >> 10) % 7 {
                    6 => SimTime::from_nanos(u64::MAX - 1),
                    ms => SimTime::from_millis(ms),
                });
                tree.set(slot, key);
                keys[slot] = key;
                let scan = keys
                    .iter()
                    .enumerate()
                    .filter_map(|(i, k)| k.map(|t| (t, i)))
                    .min();
                prop_assert_eq!(tree.earliest(), scan);
                prop_assert_eq!(tree.key(slot), key);
            }
        }
    }

    /// The one time that cannot be a key, caught where it is offered.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SimTime::MAX is the empty key")]
    fn the_empty_key_is_never_offered_as_a_time() {
        NextEvent::new(2).set(0, Some(SimTime::MAX));
    }
}
