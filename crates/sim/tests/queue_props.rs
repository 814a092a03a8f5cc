//! Property tests on [`EventQueue`]: random `schedule` / `cancel` / `pop`
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
//! * **clamping** — an event scheduled in the past fires at `now`;
//! * **storage is invisible** — all of the above hold whether an entry
//!   sits in a FIFO lane or in the heap, and whichever lane the caller
//!   named for it: one generator scatters times over random lanes
//!   (mostly heap), one schedules `now` + a fixed offset into that
//!   offset's lane the way the simulator does (mostly lanes), and one
//!   names lanes to hurt;
//! * **compaction is invisible** — a queue that bursts to hundreds of
//!   entries and drains moves them into smaller slabs again and again,
//!   and pops, peeks, cancels of ids issued before a move, and the
//!   `lane_appends` / `heap_fallbacks` split do not notice.

use mpdash_sim::queue::{EventId, LANES, SHARED_LANE};
use mpdash_sim::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;

/// Run `ops` against the queue and the model. The low three bits of an
/// op pick the operation, the rest is its argument; `place` turns the
/// argument and the clock into the lane to name and the time to schedule
/// at ([`SHARED_LANE`] goes through plain `schedule`).
fn check_against_model(
    ops: &[u64],
    place: impl Fn(u64, SimTime) -> (usize, SimTime),
) -> Result<(), TestCaseError> {
    let mut q = EventQueue::new();
    // Live entries as (fire time, id): ids ascend with insertion, so
    // the tuple minimum is the queue's documented pop order.
    let mut model: Vec<(SimTime, usize)> = Vec::new();
    let mut ids: Vec<EventId> = Vec::new();
    let mut now = SimTime::ZERO;
    for &op in ops {
        let arg = op >> 3;
        match op & 7 {
            0..=3 => {
                let (lane, at) = place(arg, now);
                ids.push(match lane {
                    SHARED_LANE => q.schedule(at, ids.len()),
                    lane => q.schedule_in(lane, at, ids.len()),
                });
                model.push((at.max(now), ids.len() - 1));
            }
            // Cancel the earliest live entry (a lane's head or the
            // heap's top) or any id ever issued: live, popped or
            // cancelled.
            4 | 5 if !ids.is_empty() => {
                let earliest = model.iter().min().map(|&(_, id)| id);
                let id = earliest
                    .filter(|_| arg & 1 == 0)
                    .unwrap_or((arg >> 1) as usize % ids.len());
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
        prop_assert_eq!(q.iter().count(), model.len());
    }
    prop_assert_eq!(q.lane_appends() + q.heap_fallbacks(), ids.len() as u64);
    Ok(())
}

/// The delays the simulator schedules at: `now` (an immediate reaction),
/// one-way delays, a tick, an RTO — more distinct ones than the queue has
/// lanes, so the last four share one and spill into the heap.
const OFFSETS_MS: [u64; 9] = [0, 5, 10, 15, 25, 30, 50, 200, 1000];

/// `now` + the offset `arg` picks, or (one argument in ten) a time in
/// the past; with the index of the offset's stream, past times last.
fn offset_stream(arg: u64, now: SimTime) -> (usize, SimTime) {
    match (arg % 10) as usize {
        9 => (
            9,
            SimTime::from_nanos(now.as_nanos().saturating_sub(7_000_000)),
        ),
        k => (k, now + SimDuration::from_millis(OFFSETS_MS[k])),
    }
}

/// Ops for [`check_against_model`]: per burst, `size` schedules, then
/// twice as many drain ops, of which one in eight cancels, one in eight
/// schedules and the rest pop. `args` are the arguments, reused in turn.
fn burst_and_drain(bursts: &[u64], args: &[u64]) -> Vec<u64> {
    let mut args = args.iter().cycle().enumerate().map(|(i, &a)| a ^ i as u64);
    let mut ops = Vec::new();
    for &size in bursts {
        ops.extend(args.by_ref().take(size as usize).map(|a| a << 3));
        ops.extend(args.by_ref().take(2 * size as usize).map(|a| {
            a << 3
                | match a >> 10 & 7 {
                    0 => 4,
                    1 => 0,
                    _ => 6,
                }
        }));
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Times span 0–31 ms whatever the clock reads, each in a random
    /// lane: ties are common and, once the clock has advanced, so are
    /// requests in the past. Few of these times ascend in any lane, so
    /// most entries take the heap.
    #[test]
    fn queue_matches_a_naive_vec_model(
        ops in prop::collection::vec(0u64..(1 << 20), 1..200),
    ) {
        check_against_model(&ops, |arg, _| {
            ((arg >> 5) as usize % LANES, SimTime::from_millis(arg % 32))
        })?;
    }

    /// `now` + a fixed offset, as the transport schedules, the first
    /// five offsets each in a lane of their own: those streams ascend,
    /// so lanes carry most entries, and because the clock only ever
    /// lands on sums of the offsets, ties between lanes, and between a
    /// lane and the heap, are the common case. The other four offsets
    /// and the past times share the last lane and mostly miss it.
    #[test]
    fn lane_shaped_schedules_match_the_model(
        ops in prop::collection::vec(0u64..(1 << 20), 1..400),
    ) {
        check_against_model(&ops, |arg, now| {
            let (stream, at) = offset_stream(arg, now);
            (stream.min(SHARED_LANE), at)
        })?;
    }

    /// The same streams with their lanes named to hurt: every stream in
    /// its neighbour's lane and two to a lane (so an ascending stream
    /// finds a later key from another already there), everything in one
    /// lane, or a lane drawn per event. Placement may cost a heap push;
    /// it must never cost order.
    #[test]
    fn adversarially_named_lanes_match_the_model(
        ops in prop::collection::vec(0u64..(1 << 20), 1..400),
        naming in 0usize..3,
        one_lane in 0usize..LANES,
    ) {
        check_against_model(&ops, |arg, now| {
            let (stream, at) = offset_stream(arg, now);
            let lane = match naming {
                0 => (stream / 2 + 1) % LANES,
                1 => one_lane,
                _ => (arg >> 8) as usize % LANES,
            };
            (lane, at)
        })?;
    }
}

proptest! {
    // A case is a few thousand ops, ten times the cases above.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bursts of a few hundred events, each drained back down: the slab
    /// fills and compacts several times a case while lanes and the heap
    /// hold entries. The drain still schedules (into lanes whose tails
    /// moved) and cancels (the earliest entry, or any id: most were
    /// issued before a compaction).
    #[test]
    fn bursts_drained_through_compaction_match_the_model(
        bursts in prop::collection::vec(100u64..400, 2..6),
        args in prop::collection::vec(0u64..(1 << 20), 64..256),
    ) {
        check_against_model(&burst_and_drain(&bursts, &args), |arg, now| {
            let (stream, at) = offset_stream(arg, now);
            (stream.min(SHARED_LANE), at)
        })?;
    }
}

/// The generators above must reach both kinds of storage, or the
/// properties would hold vacuously for one of them.
#[test]
fn ascending_times_take_lanes_and_descending_ones_spill_to_the_heap() {
    let mut q = EventQueue::new();
    for ms in 0..100 {
        q.schedule(SimTime::from_millis(ms), ms);
    }
    assert_eq!((q.lane_appends(), q.heap_fallbacks()), (100, 0));
    // One compare against the named lane: the first of a descending run
    // extends it, every later one misses it, and no other lane is tried
    // although all five are empty.
    for ms in (100..200).rev() {
        q.schedule(SimTime::from_millis(ms), ms);
    }
    assert_eq!((q.lane_appends(), q.heap_fallbacks()), (101, 99));
    let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, ms)| ms).collect();
    assert_eq!(popped, (0..200).collect::<Vec<_>>());
}
