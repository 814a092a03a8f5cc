//! [`NextEvent`]: which of the fleet's entities fires next.
//!
//! A winner tree over a fixed set of slots, each holding that entity's
//! next fire time or `None`. Re-keying one slot replays its matches
//! towards the root, O(log slots); reading the winner is O(1). Ties on
//! time go to the lower slot, so laying bottlenecks out before sessions
//! gives the fleet loop's `(time, bottleneck-before-session, index)`
//! order.

use mpdash_sim::SimTime;

pub(crate) struct NextEvent {
    // Implicit complete binary tree rooted at 1: node `j`'s children are
    // `2j` and `2j + 1`, nodes `leaves..` are the slots in order, and
    // every inner node is a copy of its earlier child.
    nodes: Vec<(Option<SimTime>, usize)>,
    leaves: usize,
}

impl NextEvent {
    /// `slots` empty slots.
    pub(crate) fn new(slots: usize) -> Self {
        let leaves = slots.next_power_of_two();
        NextEvent {
            // Padding leaves stay `None` and so never win; an inner
            // node's slot is only read once its key is `Some`.
            nodes: (0..2 * leaves)
                .map(|j| (None, j.saturating_sub(leaves)))
                .collect(),
            leaves,
        }
    }

    /// Set `slot`'s next fire time (`None`: nothing pending).
    pub(crate) fn set(&mut self, slot: usize, key: Option<SimTime>) {
        let mut j = self.leaves + slot;
        self.nodes[j].0 = key;
        while j > 1 {
            j /= 2;
            let (l, r) = (self.nodes[2 * j], self.nodes[2 * j + 1]);
            // Every slot under the left child is lower than any under
            // the right, so the left one keeps ties.
            let earlier = match (l.0, r.0) {
                (Some(a), Some(b)) if b < a => r,
                (None, Some(_)) => r,
                _ => l,
            };
            if self.nodes[j] == earlier {
                break;
            }
            self.nodes[j] = earlier;
        }
    }

    /// `slot`'s next fire time as last set.
    pub(crate) fn key(&self, slot: usize) -> Option<SimTime> {
        self.nodes[self.leaves + slot].0
    }

    /// The earliest `(time, slot)`, `None` when every slot is empty.
    pub(crate) fn earliest(&self) -> Option<(SimTime, usize)> {
        let (key, slot) = self.nodes[1];
        key.map(|t| (t, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a linear scan over the same keys. Times come from a
        /// handful of instants, so ties across slots are the common case,
        /// and a third of the writes empty a slot, so slots go
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
                let key = ((w >> 8) % 3 != 0).then(|| SimTime::from_millis((w >> 10) % 6));
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
}
