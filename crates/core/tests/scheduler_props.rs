//! Property tests on the MP-DASH core: Algorithm 1's safety/efficiency
//! envelope, the optimal solver's bounds, and predictor sanity.

use mpdash_core::deadline::{CellDecision, DeadlineScheduler, SchedulerParams};
use mpdash_core::multipath::MultiPathScheduler;
use mpdash_core::optimal::{optimal_cellular_bytes, optimal_min_cost, SlotItem};
use mpdash_core::predict::{HoltWinters, Predictor};
use mpdash_sim::{PathId, PathMask, Rate, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With a perfect constant-rate estimate, Algorithm 1's fluid
    /// evolution (WiFi always on, cellular per decision) always meets a
    /// feasible deadline and never uses cellular when WiFi alone covers
    /// the whole transfer with margin.
    #[test]
    fn algorithm1_fluid_envelope(
        wifi_mbps in 0.5f64..20.0,
        cell_mbps in 0.5f64..20.0,
        size_kb in 100u64..10_000,
        deadline_ds in 20u64..300, // deciseconds: 2.0 .. 30.0 s
    ) {
        let size = size_kb * 1000;
        let window = SimDuration::from_millis(deadline_ds * 100);
        let wifi = Rate::from_mbps_f64(wifi_mbps);
        let cell = Rate::from_mbps_f64(cell_mbps);
        let feasible = wifi.bytes_in(window) + cell.bytes_in(window) >= size * 11 / 10;

        let mut s = DeadlineScheduler::new(SchedulerParams::default());
        s.enable(SimTime::ZERO, size, window);
        let slot = SimDuration::from_millis(50);
        let mut sent = 0u64;
        let mut cell_on = false;
        let mut cell_bytes = 0u64;
        let mut t = SimTime::ZERO;
        let hard_stop = SimTime::ZERO + window * 4 + SimDuration::from_secs(10);
        while sent < size && t < hard_stop {
            match s.on_progress(t, sent, wifi) {
                CellDecision::Enable => cell_on = true,
                CellDecision::Disable => cell_on = false,
                CellDecision::NoChange => {}
            }
            sent += wifi.bytes_in(slot);
            if cell_on && sent < size {
                let add = cell.bytes_in(slot).min(size - sent);
                sent += add;
                cell_bytes += add;
            }
            t += slot;
        }
        prop_assert!(sent >= size, "transfer never finished");
        if feasible {
            prop_assert!(
                t <= SimTime::ZERO + window + slot,
                "feasible deadline missed: finished at {t} window {window}"
            );
        }
        // WiFi covering 120% of the size within the window ⇒ no cellular.
        if wifi.bytes_in(window) >= size * 12 / 10 {
            prop_assert_eq!(cell_bytes, 0, "cellular used despite ample WiFi");
        }
    }

    /// The fluid optimum is a true lower bound for the fluid online
    /// evolution above, on constant rates.
    #[test]
    fn fluid_online_never_beats_optimal(
        wifi_mbps in 0.5f64..10.0,
        cell_mbps in 0.5f64..10.0,
        size_kb in 100u64..5_000,
        deadline_s in 3u64..20,
    ) {
        let size = size_kb * 1000;
        let window = SimDuration::from_secs(deadline_s);
        let slot = SimDuration::from_millis(50);
        let n = (deadline_s * 20) as usize;
        let wifi = Rate::from_mbps_f64(wifi_mbps);
        let cell = Rate::from_mbps_f64(cell_mbps);
        let wifi_slots = vec![wifi.bytes_in(slot); n];
        let cell_slots = vec![cell.bytes_in(slot); n];
        let Some(optimal) = optimal_cellular_bytes(&wifi_slots, &cell_slots, size) else {
            return Ok(()); // infeasible: nothing to compare
        };

        let mut s = DeadlineScheduler::new(SchedulerParams::default());
        s.enable(SimTime::ZERO, size, window);
        let mut sent = 0u64;
        let mut cell_on = false;
        let mut cell_bytes = 0u64;
        let mut t = SimTime::ZERO;
        while sent < size {
            match s.on_progress(t, sent, wifi) {
                CellDecision::Enable => cell_on = true,
                CellDecision::Disable => cell_on = false,
                CellDecision::NoChange => {}
            }
            sent += wifi.bytes_in(slot);
            if cell_on && sent < size {
                let add = cell.bytes_in(slot).min(size - sent);
                sent += add;
                cell_bytes += add;
            }
            t += slot;
            if t > SimTime::ZERO + window * 5 + SimDuration::from_secs(5) {
                break;
            }
        }
        // Slot quantization can overshoot by up to ~2 slots of cellular.
        let slack = cell.bytes_in(slot) * 2 + 1;
        prop_assert!(
            cell_bytes + slack >= optimal,
            "online {cell_bytes} beat the optimum {optimal}"
        );
    }

    /// The DP plan always covers the requested bytes at finite cost, and
    /// adding items never increases the optimal cost.
    #[test]
    fn dp_monotone_in_items(
        bytes in prop::collection::vec(50u64..500, 3..15),
        need in 100u64..1500,
    ) {
        let items: Vec<SlotItem> = bytes
            .iter()
            .map(|&b| SlotItem { bytes: b, cost: b as f64 })
            .collect();
        let full = optimal_min_cost(&items, need, 50);
        let fewer = optimal_min_cost(&items[..items.len() - 1], need, 50);
        match (full, fewer) {
            (Some(f), Some(g)) => prop_assert!(f.total_cost <= g.total_cost + 1e-9),
            (None, Some(_)) => prop_assert!(false, "more items cannot lose feasibility"),
            _ => {}
        }
    }

    /// The N-path greedy never disables the preferred path and never
    /// enables a costlier path while a cheaper disabled one exists.
    #[test]
    fn greedy_enables_in_cost_order(
        costs in prop::collection::vec(0.0f64..5.0, 2..6),
        estimates_mbps in prop::collection::vec(0.1f64..10.0, 2..6),
        size_kb in 100u64..5_000,
    ) {
        let n = costs.len().min(estimates_mbps.len());
        let costs = costs[..n].to_vec();
        let estimates: Vec<Rate> = estimates_mbps[..n]
            .iter()
            .map(|&m| Rate::from_mbps_f64(m))
            .collect();
        let mut s = MultiPathScheduler::new(costs.clone(), SchedulerParams::default());
        let preferred = s.preferred();
        s.enable(SimTime::ZERO, size_kb * 1000, SimDuration::from_secs(10));
        let enabled = match s.on_progress(SimTime::from_millis(100), 0, &estimates) {
            Some(e) => e,
            None => s.enabled(),
        };
        prop_assert!(enabled.contains(preferred), "preferred path must stay on");
        // Cost-order property: every enabled path is at most as costly as
        // the cheapest disabled one (strictly: the enabled set is a
        // prefix in cost order, with index tie-breaks).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| costs[a].partial_cmp(&costs[b]).unwrap().then(a.cmp(&b)));
        let mut seen_disabled = false;
        for &p in &order {
            if !enabled.contains(PathId(p as u8)) {
                seen_disabled = true;
            } else {
                prop_assert!(!seen_disabled, "enabled set is not a cost-prefix");
            }
        }
    }

    /// The N-path scheduler computes α·D once, at `enable`; Algorithm 1's
    /// reference recomputes it on every check. Over two transfers with
    /// different windows — the first cut short by `disable` — the two give
    /// the same cellular decision at every step and the same counters.
    #[test]
    fn stored_target_matches_algorithm_one_decision_for_decision(
        windows_ms in prop::collection::vec(500u64..20_000, 2..3),
        alpha in 0.3f64..1.0,
        debounce in 1u32..5,
        size_kb in 200u64..8_000,
        dt_ms in prop::collection::vec(0u64..400, 40..120),
        dsent_kb in prop::collection::vec(0u64..300, 40..120),
        wifi_kbps in prop::collection::vec(0u64..12_000, 40..120),
    ) {
        let params = SchedulerParams::with_alpha(alpha).with_debounce(debounce);
        let mut multi = MultiPathScheduler::new(vec![0.0, 1.0], params);
        let mut single = DeadlineScheduler::new(params);
        let steps: Vec<_> = dt_ms.iter().zip(&dsent_kb).zip(&wifi_kbps).collect();
        let mut now = SimTime::from_millis(7);
        // The first transfer gets a third of the steps and is then
        // disabled, finished or not; the second runs to the end.
        let (first, second) = steps.split_at(steps.len() / 3);
        for (window_ms, steps) in windows_ms.iter().zip([first, second]) {
            let (size, window) = (size_kb * 1000, SimDuration::from_millis(*window_ms));
            prop_assert_eq!(multi.enable(now, size, window), PathMask::only(PathId::WIFI));
            prop_assert_eq!(single.enable(now, size, window), CellDecision::Disable);
            let (started, mut sent) = (now, 0u64);
            for &((dt, dsent), kbps) in steps {
                now += SimDuration::from_millis(*dt);
                sent += dsent * 1000;
                let wifi = Rate::from_kbps(*kbps);
                // At wifi_can == remaining the two differ by design: the
                // greedy keeps the next path on, Algorithm 1 keeps its
                // state. Not what this property is about.
                let left = window.mul_f64(alpha).saturating_sub(now.saturating_since(started));
                if sent < size && wifi.bytes_in(left) == size - sent {
                    continue;
                }
                let from_multi = multi
                    .on_progress(now, sent, &[wifi, Rate::from_mbps(3)])
                    .map(|enabled| enabled.contains(PathId::CELLULAR));
                let from_single = match single.on_progress(now, sent, wifi) {
                    CellDecision::Enable => Some(true),
                    CellDecision::Disable => Some(false),
                    CellDecision::NoChange => None,
                };
                prop_assert_eq!(from_multi, from_single, "at {} sent {}", now, sent);
                prop_assert_eq!(multi.is_active(), single.is_active());
            }
            prop_assert_eq!(multi.disable(), PathMask::first(2));
            prop_assert_eq!(single.disable(), CellDecision::Enable);
        }
        prop_assert_eq!(multi.toggles(), single.toggles());
        prop_assert_eq!(multi.missed_deadlines(), single.missed_deadlines());
        prop_assert_eq!(multi.completed(), single.completed());
    }

    /// Holt-Winters forecasts are finite and non-negative for any finite
    /// non-negative input series.
    #[test]
    fn holt_winters_total(
        samples in prop::collection::vec(0.0f64..100.0, 1..100),
    ) {
        let mut hw = HoltWinters::default();
        for s in &samples {
            hw.observe(Rate::from_mbps_f64(*s));
            let f = hw.forecast().unwrap().as_mbps_f64();
            prop_assert!(f.is_finite() && f >= 0.0, "forecast {f}");
            // Bounded by a generous envelope of the series.
            let max = samples.iter().cloned().fold(0.0, f64::max);
            prop_assert!(f <= max * 3.0 + 1.0, "forecast {f} vs max {max}");
        }
    }
}
