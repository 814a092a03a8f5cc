//! `mpdash_core`: Algorithm 1's progress check, the Holt-Winters
//! predictor, and the offline DP oracle at Table 2's largest shape.

use super::Probes;
use mpdash_core::deadline::{DeadlineScheduler, SchedulerParams};
use mpdash_core::optimal::{optimal_min_cost, SlotItem};
use mpdash_core::predict::{HoltWinters, Predictor};
use mpdash_sim::{Rate, SimDuration, SimTime};
use std::hint::black_box;

pub fn probes(p: &mut Probes) {
    // A 5 MB transfer that never completes: progress stays below size.
    let mut sched = DeadlineScheduler::new(SchedulerParams::default());
    sched.enable(SimTime::ZERO, 5_000_000, SimDuration::from_secs(10));
    let mut t = 0u64;
    p.ns("core.deadline_on_progress_ns", || {
        t += 1;
        black_box(sched.on_progress(
            SimTime::from_micros(t % 9_000_000),
            black_box(t % 4_000_000),
            Rate::from_mbps_f64(3.8),
        ));
    });

    let mut hw = HoltWinters::default();
    let mut x = 3.0f64;
    p.ns("core.holt_winters_ns", || {
        x = 3.0 + (x * 7.3) % 1.0;
        hw.observe(Rate::from_mbps_f64(black_box(x)));
        black_box(hw.forecast());
    });

    // 20 s of 50 ms slots on two paths, 12 MB to place: more than the
    // free path carries, in 4 KiB units so every slot counts.
    let items: Vec<SlotItem> = (0..800)
        .map(|i| SlotItem {
            bytes: 20_000 + (i % 17) * 1_000,
            cost: if i < 400 { 0.0 } else { 1.0 },
        })
        .collect();
    let ns = p.ns_per_call(|| {
        black_box(optimal_min_cost(black_box(&items), 12_000_000, 4_096));
    });
    p.put("core.optimal_dp_800_us", ns / 1e3);
}
