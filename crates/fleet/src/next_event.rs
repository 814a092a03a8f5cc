//! [`NextEvent`]: which of the fleet's entities fires next, in
//! `(time, bottleneck-before-session, index)` order.
//!
//! The handful of bottlenecks sit in an array that `earliest` scans. The
//! sessions sit in a winner tree whose every node is one `u64`,
//! `time_ns << slot_bits | slot`, so a match is an integer `min` and a
//! tie goes to the lower slot. The clock keeps `64 - slot_bits` bits
//! (DESIGN §4t has the table); a later time is refused, never wrapped.

use mpdash_sim::SimTime;

/// A node's key for "nothing pending": later than every real key.
const EMPTY: u64 = u64::MAX;

/// One entity of the fleet loop, by its index within its kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Entity {
    Bottleneck(usize),
    Session(usize),
}

pub(crate) struct NextEvent {
    /// Each bottleneck's next departure (`None`: idle), kept by the loop.
    pub(crate) departures: Vec<Option<SimTime>>,
    // Implicit complete binary tree rooted at 1: node `j`'s children are
    // `2j` and `2j + 1`, nodes `leaves..` are the sessions in order, and
    // every inner node is a copy of its smaller child.
    nodes: Vec<u64>,
    leaves: usize,
    slot_bits: u32,
    /// The latest time a key holds: one short of every clock bit set,
    /// which in the last slot would spell `EMPTY`.
    max_ns: u64,
}

impl NextEvent {
    /// Nothing pending for any of `bottlenecks` and `sessions`.
    pub(crate) fn new(bottlenecks: usize, sessions: usize) -> Self {
        let leaves = sessions.next_power_of_two();
        let slot_bits = leaves.trailing_zeros();
        NextEvent {
            departures: vec![None; bottlenecks],
            // Padding leaves stay `EMPTY` and so never win.
            nodes: vec![EMPTY; 2 * leaves],
            leaves,
            slot_bits,
            max_ns: (u64::MAX >> slot_bits) - 1,
        }
    }

    /// Set session `slot`'s next fire time (`None`: nothing pending).
    ///
    /// # Panics
    /// On a time past the clock bits left beside the slot.
    pub(crate) fn set_session(&mut self, slot: usize, at: Option<SimTime>) {
        let mut key = at.map_or(EMPTY, |t| {
            let (ns, max, bits) = (t.as_nanos(), self.max_ns, u64::BITS - self.slot_bits);
            assert!(
                ns <= max,
                "next event: time {ns} ns is past the {bits}-bit clock ({max} ns)"
            );
            ns << self.slot_bits | slot as u64
        });
        let mut j = self.leaves + slot;
        self.nodes[j] = key;
        while j > 1 {
            key = key.min(self.nodes[j ^ 1]);
            j /= 2;
            if self.nodes[j] == key {
                break;
            }
            self.nodes[j] = key;
        }
    }

    /// The earliest `(time, entity)`, `None` when nothing is pending.
    pub(crate) fn earliest(&self) -> Option<(SimTime, Entity)> {
        let root = self.nodes[1];
        let mut best = (root != EMPTY).then(|| {
            let t = SimTime::from_nanos(root >> self.slot_bits);
            (t, Entity::Session(root as usize & (self.leaves - 1)))
        });
        // Backwards with `<=`: a tie goes to the bottleneck, and among
        // bottlenecks to the lower index.
        for (i, at) in self.departures.iter().enumerate().rev() {
            if let Some(t) = *at {
                if best.is_none_or(|(earliest, _)| t <= earliest) {
                    best = Some((t, Entity::Bottleneck(i)));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The session tree against a linear scan over the same keys.
        /// Slot counts are every size up to 41 or an exact power of two;
        /// times come from a handful of instants — the last of them the
        /// latest the slot count's clock holds — so ties across slots are
        /// the common case, and a third of the writes empty a slot, so
        /// slots go `Some → None → Some`.
        #[test]
        fn earliest_matches_a_linear_scan(
            size in 1usize..54,
            writes in prop::collection::vec(0u64..(1 << 32), 1..120),
        ) {
            let slots = if size < 42 { size } else { 1 << (size - 41) };
            let mut tree = NextEvent::new(0, slots);
            let latest = SimTime::from_nanos(tree.max_ns);
            let mut keys: Vec<Option<SimTime>> = vec![None; slots];
            prop_assert_eq!(tree.earliest(), None);
            for w in writes {
                let slot = w as usize % (1 << 16) % slots;
                let key = ((w >> 16) % 3 != 0).then(|| match (w >> 18) % 7 {
                    6 => latest,
                    ms => SimTime::from_millis(ms),
                });
                tree.set_session(slot, key);
                keys[slot] = key;
                let scan = keys
                    .iter()
                    .enumerate()
                    .filter_map(|(i, k)| k.map(|t| (t, i)))
                    .min()
                    .map(|(t, i)| (t, Entity::Session(i)));
                prop_assert_eq!(tree.earliest(), scan);
            }
        }
    }

    /// Pop everything due, in order: the documented tie rule, directly.
    fn drain(next: &mut NextEvent) -> Vec<Entity> {
        std::iter::from_fn(|| {
            let (_, who) = next.earliest()?;
            match who {
                Entity::Bottleneck(i) => next.departures[i] = None,
                Entity::Session(k) => next.set_session(k, None),
            }
            Some(who)
        })
        .collect()
    }

    #[test]
    fn a_tie_pops_bottlenecks_then_sessions_each_by_index() {
        let t = Some(SimTime::from_millis(7));
        let mut next = NextEvent::new(2, 2);
        // Offered in the reverse of the order they must pop in.
        next.set_session(1, t);
        next.set_session(0, t);
        next.departures[1] = t;
        next.departures[0] = t;
        assert_eq!(
            drain(&mut next),
            [
                Entity::Bottleneck(0),
                Entity::Bottleneck(1),
                Entity::Session(0),
                Entity::Session(1)
            ]
        );
    }

    #[test]
    fn a_bottleneck_tied_with_a_session_goes_first_and_a_later_one_does_not() {
        let (t, later) = (SimTime::from_millis(7), SimTime::from_millis(8));
        let mut next = NextEvent::new(3, 5);
        next.set_session(4, Some(t));
        next.departures[2] = Some(t);
        next.departures[0] = Some(later);
        assert_eq!(
            drain(&mut next),
            [
                Entity::Bottleneck(2),
                Entity::Session(4),
                Entity::Bottleneck(0)
            ]
        );
    }

    /// The clock bound is a release-mode check: a wrapped key would
    /// reorder the fleet silently.
    #[test]
    #[should_panic(
        expected = "time 288230376151711743 ns is past the 58-bit clock (288230376151711742 ns)"
    )]
    fn a_time_past_the_clock_bound_panics_naming_it() {
        let mut next = NextEvent::new(2, 64);
        next.set_session(63, Some(SimTime::from_nanos((1 << 58) - 2)));
        next.set_session(63, Some(SimTime::from_nanos((1 << 58) - 1)));
    }
}
