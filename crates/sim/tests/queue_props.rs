//! Property test on [`EventQueue`]: random `schedule` / `cancel` / `pop`
//! interleavings against a naive model, a `Vec` of live entries that is
//! scanned for its minimum.
//!
//! The invariants:
//!
//! * **peek is exact** — after every operation `peek_time` is the
//!   minimum live fire time, also when the earliest entry was just
//!   cancelled and when that exposes a second entry cancelled before it;
//! * **pop order** — pops come out in `(time, insertion)` order with
//!   cancelled entries never surfacing, and advance `now`;
//! * **clamping** — an event scheduled in the past fires at `now`.

use mpdash_sim::{queue::EventId, EventQueue, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_matches_a_naive_vec_model(
        ops in prop::collection::vec(0u64..(1 << 20), 1..200),
    ) {
        let mut q = EventQueue::new();
        // Live entries as (fire time, id): ids ascend with insertion, so
        // the tuple minimum is the queue's documented pop order.
        let mut model: Vec<(SimTime, usize)> = Vec::new();
        let mut ids: Vec<EventId> = Vec::new();
        let mut now = SimTime::ZERO;
        for op in ops {
            let arg = op >> 3;
            match op & 7 {
                // Times span 0–31 ms: ties are common and, once the
                // clock has advanced, so are requests in the past.
                0..=3 => {
                    let at = SimTime::from_millis(arg % 32);
                    ids.push(q.schedule(at, ids.len()));
                    model.push((at.max(now), ids.len() - 1));
                }
                // Cancel any id ever issued: live, popped or cancelled.
                // The low ids are the likeliest to sit at the top.
                4 | 5 if !ids.is_empty() => {
                    let id = arg as usize % ids.len();
                    let live = model.iter().position(|&(_, m)| m == id);
                    prop_assert_eq!(q.cancel(ids[id]), live.is_some());
                    if let Some(i) = live {
                        model.swap_remove(i);
                    }
                }
                _ => {
                    let want = model.iter().copied().min();
                    model.retain(|&e| Some(e) != want);
                    prop_assert_eq!(q.pop(), want);
                    if let Some((t, _)) = want {
                        now = t;
                    }
                }
            }
            prop_assert_eq!(q.peek_time(), model.iter().map(|&(t, _)| t).min());
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.now(), now);
        }
    }
}
