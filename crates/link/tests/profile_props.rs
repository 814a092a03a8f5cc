//! A sampled profile stores rates on a grid and computes every slot edge;
//! the step function it replaced stored each edge as a timestamp. The two
//! must be the same function of time — every session's event sequence
//! follows from what `step_at` returns — so the old construction stays
//! here as the reference and the grid is held to it on every query the
//! profile answers. A grid slot holds a `u32` bits per second; a trace
//! with a faster sample is built as that reference instead, and is held
//! to it the same way.

use mpdash_link::BandwidthProfile;
use mpdash_sim::{Rate, SimDuration, SimTime};
use proptest::prelude::*;

/// The explicit-timestamp step function `from_samples` used to build:
/// slot `i` starts at the stored instant `i × slot`.
fn reference(slot: SimDuration, samples: &[Rate], looped: bool) -> BandwidthProfile {
    BandwidthProfile::Steps {
        steps: samples
            .iter()
            .enumerate()
            .map(|(i, &r)| (SimTime::ZERO + slot * i as u64, r))
            .collect(),
        period: looped.then(|| slot * samples.len() as u64),
    }
}

/// Every slot edge ± 1 ns over two and a half passes of the trace (across
/// the wrap of a looped trace, past the end of a one-shot one), and the
/// last two instants there are.
fn probes(slot: SimDuration, n: usize) -> Vec<SimTime> {
    let mut at = vec![SimTime::from_nanos(u64::MAX - 1), SimTime::MAX];
    for k in 0..=(2 * n + n / 2 + 1) as u64 {
        let edge = slot.as_nanos() * k;
        at.extend(
            [edge.saturating_sub(1), edge, edge + 1]
                .into_iter()
                .map(SimTime::from_nanos),
        );
    }
    at
}

/// Holds what `from_samples` built — a grid exactly when every sample
/// fits a `u32` bits per second — to the reference on every instant of
/// [`probes`] and a spread of `mean_rate` horizons, and hands both back
/// for more.
fn assert_same_function(
    slot: SimDuration,
    samples: &[Rate],
    looped: bool,
) -> (BandwidthProfile, BandwidthProfile) {
    let grid = BandwidthProfile::from_samples(slot, samples, looped);
    let steps = reference(slot, samples, looped);
    let fits = samples.iter().all(|r| r.as_bps() <= u64::from(u32::MAX));
    assert_eq!(
        matches!(grid, BandwidthProfile::Sampled { .. }),
        fits,
        "from_samples stores a grid if and only if every rate fits: {grid:?}"
    );
    for t in probes(slot, samples.len()) {
        assert_eq!(grid.step_at(t), steps.step_at(t), "step_at({t:?})");
        assert_eq!(grid.rate_at(t), steps.rate_at(t), "rate_at({t:?})");
        assert_eq!(
            grid.next_change_after(t),
            steps.next_change_after(t),
            "next_change_after({t:?})"
        );
        assert!(grid.next_change_after(t) > t || t == SimTime::MAX);
    }
    let pass = slot * samples.len() as u64;
    for horizon in [
        SimDuration::ZERO,
        SimDuration::from_nanos(1),
        slot,
        pass,
        pass + slot,
        pass * 2 + SimDuration::from_nanos(slot.as_nanos() / 2),
    ] {
        assert_eq!(
            grid.mean_rate(horizon),
            steps.mean_rate(horizon),
            "mean_rate({horizon:?})"
        );
    }
    (grid, steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_grid_profile_is_the_step_function_it_replaced(
        slot_ns in 1u64..20_000_000_000,
        tiny_slot in any::<bool>(),
        mbps in prop::collection::vec(0u32..100_000, 1..40),
        wide in 0u8..4,
        marks in prop::collection::vec(0u8..6, 40..41),
        far_bps in (u32::MAX as u64 + 2)..u64::MAX,
        looped in any::<bool>(),
        from_ns in 0u64..100_000_000_000,
        sample_ns in 1u64..5_000_000_000,
    ) {
        // Half the cases use a slot of 1-3 ns, where an edge ± 1 ns is
        // another slot.
        let slot = SimDuration::from_nanos(if tiny_slot { slot_ns % 3 + 1 } else { slot_ns });
        // Half the cases put samples on the `u32` boundary: a quarter of
        // them at `u32::MAX − 1` and `u32::MAX` bps, which fit a slot, and
        // a quarter also one past it and far above, which do not.
        let max = u64::from(u32::MAX);
        let samples: Vec<Rate> = mbps
            .iter()
            .zip(&marks)
            .map(|(&k, &mark)| match (wide, mark) {
                (2.., 2) => max - 1,
                (2.., 3) => max,
                (3, 4) => max + 1,
                (3, 5) => far_bps,
                _ => k as u64 * 1_000,
            })
            .map(Rate::from_bps)
            .collect();
        let (grid, steps) = assert_same_function(slot, &samples, looped);
        let (from, width) = (SimTime::from_nanos(from_ns), SimDuration::from_nanos(sample_ns));
        prop_assert_eq!(
            grid.sample_slots(from, width, 64),
            steps.sample_slots(from, width, 64)
        );
    }
}

/// The shapes the generator reaches rarely, by name: one sample (every
/// instant is its slot), a slot of one nanosecond, and the 50 ms slot of
/// the paper's traces — each with a last sample that fits a slot exactly
/// and with one a bit per second too fast for it.
#[test]
fn the_corner_grids_match_too() {
    let max = u64::from(u32::MAX);
    for last in [Rate::ZERO, Rate::from_bps(max), Rate::from_bps(max + 1)] {
        let rates = [Rate::from_bps(1_000_000), Rate::from_bps(3_000_000), last];
        for looped in [false, true] {
            assert_same_function(SimDuration::from_millis(50), &rates[..1], looped);
            assert_same_function(SimDuration::from_nanos(1), &rates[2..], looped);
            assert_same_function(SimDuration::from_nanos(1), &rates, looped);
            assert_same_function(SimDuration::from_millis(50), &rates, looped);
        }
    }
}

/// The fallback stores `slot × n` as its period, and a slot that long
/// saturates the product at the last instant there is instead of
/// overflowing it; the step function is still the reference's.
#[test]
fn a_fallback_period_past_the_end_of_time_saturates() {
    let half = u64::MAX / 2;
    let slot = SimDuration::from_nanos(half);
    let rates = [
        Rate::from_bps(u64::from(u32::MAX) + 1),
        Rate::from_bps(1_000),
        Rate::from_bps(2_000),
    ];
    let p = BandwidthProfile::from_samples(slot, &rates, true);
    let BandwidthProfile::Steps { period, .. } = &p else {
        panic!("a rate past u32::MAX bps is not a grid: {p:?}")
    };
    assert_eq!(*period, Some(SimDuration::from_nanos(u64::MAX)));
    let steps = reference(slot, &rates, true);
    for t in [0, half - 1, half, u64::MAX - 2, u64::MAX - 1, u64::MAX].map(SimTime::from_nanos) {
        assert_eq!(p.step_at(t), steps.step_at(t), "step_at({t:?})");
        assert_eq!(p.rate_at(t), steps.rate_at(t), "rate_at({t:?})");
        assert_eq!(p.next_change_after(t), steps.next_change_after(t));
    }
    for horizon in [slot, slot * 2] {
        assert_eq!(p.mean_rate(horizon), steps.mean_rate(horizon));
    }
    assert_eq!(
        p.sample_slots(SimTime::ZERO, slot, 4),
        steps.sample_slots(SimTime::ZERO, slot, 4)
    );
}

/// A one-shot trace ends: from its last slot on the rate holds and no edge
/// is ever reported, however far past the end the question is asked.
#[test]
fn a_one_shot_grid_holds_its_last_rate_forever() {
    let rates = [Rate::from_bps(1_000), Rate::from_bps(2_000)];
    let p = BandwidthProfile::from_samples(SimDuration::from_secs(1), &rates, false);
    for t in [
        SimTime::from_secs(1),
        SimTime::from_secs(1_000_000),
        SimTime::MAX,
    ] {
        assert_eq!(p.step_at(t), (rates[1], SimTime::MAX));
    }
    // Looped, the same instants have edges — and the last one saturates.
    let p = BandwidthProfile::from_samples(SimDuration::from_secs(1), &rates, true);
    assert_eq!(
        p.step_at(SimTime::from_secs(1_000_000)),
        (rates[0], SimTime::from_secs(1_000_001))
    );
    assert_eq!(
        p.next_change_after(SimTime::from_nanos(u64::MAX - 1)),
        SimTime::MAX
    );
}
