//! The cost-varying generalization of Algorithm 1 to N interfaces.
//!
//! §4 of the paper: *"we can first sort the interfaces based on their
//! costs, and then feed data from low-cost to high-cost interfaces, by
//! turning on/off the paths accordingly."* This module implements that
//! greedy: at every progress update it enables the cheapest prefix of
//! interfaces whose combined estimated capacity over the remaining
//! (α-shrunk) window covers the remaining bytes. The cheapest interface is
//! always on (it is the preferred path Algorithm 1 drives at full rate);
//! with N = 2 the behaviour reduces exactly to Algorithm 1, which the
//! tests assert.

use crate::deadline::SchedulerParams;
use mpdash_sim::{Rate, SimDuration, SimTime};

#[derive(Clone, Debug)]
struct ActiveN {
    size: u64,
    started: SimTime,
    window: SimDuration,
    /// α·D, fixed for the transfer (§3.2): computed once at `enable`,
    /// not once per progress check.
    target: SimDuration,
    sent: u64,
    enabled: Vec<bool>,
    missed: bool,
    /// Per-path consecutive checks wanting the path enabled (enable-side
    /// debounce; see [`SchedulerParams::enable_debounce`]).
    enable_streak: Vec<u32>,
}

/// N-interface deadline-aware scheduler (greedy cheapest-prefix).
#[derive(Clone, Debug)]
pub struct MultiPathScheduler {
    /// Unit cost per byte of each path (lower = preferred). Index = path.
    costs: Vec<f64>,
    /// Path indices sorted by ascending cost (ties break on index, so the
    /// conventional WiFi=0 wins against an equal-cost path).
    by_cost: Vec<usize>,
    params: SchedulerParams,
    active: Option<ActiveN>,
    /// Scratch for the set a check wants (no change, no allocation).
    want: Vec<bool>,
    toggles: u64,
    missed_deadlines: u64,
    completed: u64,
}

impl MultiPathScheduler {
    /// Build from per-path unit costs.
    ///
    /// # Panics
    /// If `costs` is empty or any cost is negative/non-finite.
    pub fn new(costs: Vec<f64>, params: SchedulerParams) -> Self {
        assert!(!costs.is_empty(), "need at least one path");
        assert!(
            costs.iter().all(|c| c.is_finite() && *c >= 0.0),
            "costs must be finite and non-negative"
        );
        let mut by_cost: Vec<usize> = (0..costs.len()).collect();
        by_cost.sort_by(|&a, &b| costs[a].partial_cmp(&costs[b]).unwrap().then(a.cmp(&b)));
        MultiPathScheduler {
            costs,
            by_cost,
            params,
            active: None,
            want: Vec::new(),
            toggles: 0,
            missed_deadlines: 0,
            completed: 0,
        }
    }

    /// The path index the policy prefers most (lowest cost).
    pub fn preferred(&self) -> usize {
        self.by_cost[0]
    }

    /// Whether a transfer is being scheduled.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Currently enabled paths under MP-DASH control (all paths when
    /// inactive — vanilla MPTCP).
    pub fn enabled(&self) -> Vec<bool> {
        match &self.active {
            Some(a) => a.enabled.clone(),
            None => vec![true; self.costs.len()],
        }
    }

    /// Lifetime enable/disable transition count across all paths.
    pub fn toggles(&self) -> u64 {
        self.toggles
    }

    /// Lifetime missed-deadline count.
    pub fn missed_deadlines(&self) -> u64 {
        self.missed_deadlines
    }

    /// Lifetime completed-transfer count.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Activate for `size` bytes within `window`. Only the preferred path
    /// starts enabled (Algorithm 1 line 3, generalized). Returns the
    /// initial enabled set.
    pub fn enable(&mut self, now: SimTime, size: u64, window: SimDuration) -> Vec<bool> {
        assert!(size > 0, "transfer size must be positive");
        assert!(!window.is_zero(), "deadline window must be positive");
        let mut enabled = vec![false; self.costs.len()];
        enabled[self.by_cost[0]] = true;
        self.active = Some(ActiveN {
            size,
            started: now,
            window,
            target: window.mul_f64(self.params.alpha),
            sent: 0,
            enabled: enabled.clone(),
            missed: false,
            enable_streak: vec![0; self.costs.len()],
        });
        enabled
    }

    /// Deactivate; the transport reverts to vanilla MPTCP (all paths).
    pub fn disable(&mut self) -> Vec<bool> {
        self.active = None;
        vec![true; self.costs.len()]
    }

    /// Progress update. `estimates[i]` is the current throughput estimate
    /// of path `i`. Returns `Some(enabled)` when the enabled set changed,
    /// `None` otherwise. Completion and missed deadlines behave as in
    /// [`crate::deadline::DeadlineScheduler`].
    pub fn on_progress(
        &mut self,
        now: SimTime,
        total_sent: u64,
        estimates: &[Rate],
    ) -> Option<Vec<bool>> {
        assert_eq!(estimates.len(), self.costs.len(), "one estimate per path");
        let a = self.active.as_mut()?;
        a.sent = a.sent.max(total_sent);

        if a.sent >= a.size {
            self.completed += 1;
            self.active = None;
            return Some(vec![true; self.costs.len()]);
        }

        if now >= a.started + a.window {
            if !a.missed {
                a.missed = true;
                self.missed_deadlines += 1;
            }
            let all = vec![true; self.costs.len()];
            if a.enabled != all {
                self.toggles += a.enabled.iter().filter(|&&e| !e).count() as u64;
                a.enabled = all.clone();
                return Some(all);
            }
            return None;
        }

        let remaining = a.size - a.sent;
        let spent = now.saturating_since(a.started);
        let time_left = a.target.saturating_sub(spent);

        // Greedy cheapest prefix: accumulate capacity until it covers the
        // remaining bytes. The preferred path is unconditionally on.
        let want = &mut self.want;
        want.clear();
        want.resize(self.costs.len(), false);
        let mut capacity: u64 = 0;
        for &p in &self.by_cost {
            want[p] = true;
            capacity = capacity.saturating_add(estimates[p].bytes_in(time_left));
            // Strict comparison mirrors Algorithm 1's line 16/19
            // inequalities: at exact equality we keep the next path on
            // (conservative toward meeting the deadline).
            if capacity > remaining {
                break;
            }
        }
        // If even all paths cannot cover, `want` is all-true — matching
        // Algorithm 1's "enable and hope" behaviour.

        // Enable-side debounce: a path may only turn ON after the greedy
        // has wanted it for `enable_debounce` consecutive checks; turning
        // OFF is immediate (always safe for the deadline).
        for (p, w) in want.iter_mut().enumerate() {
            if *w && !a.enabled[p] {
                a.enable_streak[p] += 1;
                if a.enable_streak[p] < self.params.enable_debounce {
                    *w = false; // not yet
                }
            } else {
                a.enable_streak[p] = 0;
            }
        }

        if *want != a.enabled {
            self.toggles += want
                .iter()
                .zip(a.enabled.iter())
                .filter(|(w, e)| w != e)
                .count() as u64;
            a.enabled.clone_from(want);
            Some(want.clone())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::{CellDecision, DeadlineScheduler};

    fn mbps(m: f64) -> Rate {
        Rate::from_mbps_f64(m)
    }

    const MB: u64 = 1_000_000;

    fn two_path() -> MultiPathScheduler {
        MultiPathScheduler::new(vec![0.0, 1.0], SchedulerParams::default())
    }

    #[test]
    fn starts_with_only_preferred_path() {
        let mut s = two_path();
        let en = s.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        assert_eq!(en, vec![true, false]);
    }

    #[test]
    fn enables_second_path_when_first_insufficient() {
        let mut s = two_path();
        s.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        let en = s
            .on_progress(SimTime::ZERO, 0, &[mbps(3.0), mbps(3.0)])
            .unwrap();
        assert_eq!(en, vec![true, true]);
    }

    #[test]
    fn three_paths_enable_in_cost_order() {
        // Path costs: p1 cheapest, p0 middle, p2 dearest.
        let mut s = MultiPathScheduler::new(vec![0.5, 0.0, 1.0], SchedulerParams::default());
        assert_eq!(s.preferred(), 1);
        let en = s.enable(SimTime::ZERO, 10 * MB, SimDuration::from_secs(10));
        assert_eq!(en, vec![false, true, false]);
        // p1 alone: 2 Mbps·10 s = 2.5 MB < 10 MB → add p0 (4 Mbps → 7.5 MB
        // total, still short) → add p2.
        let en = s
            .on_progress(SimTime::ZERO, 0, &[mbps(4.0), mbps(2.0), mbps(8.0)])
            .unwrap();
        assert_eq!(en, vec![true, true, true]);
        // Transfer catches up: 9 MB sent, 5 s left; p1 alone moves
        // 1.25 MB > 1 MB remaining → back to preferred only.
        let en = s
            .on_progress(
                SimTime::from_secs(5),
                9 * MB,
                &[mbps(4.0), mbps(2.0), mbps(8.0)],
            )
            .unwrap();
        assert_eq!(en, vec![false, true, false]);
    }

    #[test]
    fn reduces_to_algorithm_one_for_two_paths() {
        // Replay the same random-ish progress trajectory through both
        // schedulers and assert identical cellular decisions.
        let mut multi = two_path();
        let mut single = DeadlineScheduler::new(SchedulerParams::default());
        multi.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        single.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));

        let traj: &[(u64, u64, f64)] = &[
            // (millis, sent, wifi_mbps)
            (0, 0, 4.8),
            (500, 300_000, 4.5),
            (1_000, 500_000, 2.0),
            (2_000, 900_000, 2.0),
            (3_000, 1_600_000, 6.0),
            (4_000, 2_600_000, 6.0),
            (6_000, 4_000_000, 6.0),
            (8_000, 5_000_000, 6.0),
        ];
        for &(ms, sent, wifi) in traj {
            let now = SimTime::from_millis(ms);
            let est = [mbps(wifi), mbps(3.0)];
            let multi_cell = multi.on_progress(now, sent, &est).map(|en| en[1]);
            let single_cell = match single.on_progress(now, sent, mbps(wifi)) {
                CellDecision::Enable => Some(true),
                CellDecision::Disable => Some(false),
                CellDecision::NoChange => None,
            };
            // Completion returns all-enabled from both.
            assert_eq!(multi_cell, single_cell, "at t={ms}ms sent={sent}");
        }
        assert_eq!(multi.completed(), 1);
        assert_eq!(single.completed(), 1);
    }

    #[test]
    fn missed_deadline_enables_everything() {
        let mut s = MultiPathScheduler::new(vec![0.0, 1.0, 2.0], SchedulerParams::default());
        s.enable(SimTime::ZERO, 100 * MB, SimDuration::from_secs(1));
        let en = s
            .on_progress(
                SimTime::from_secs(2),
                MB,
                &[mbps(1.0), mbps(1.0), mbps(1.0)],
            )
            .unwrap();
        assert_eq!(en, vec![true, true, true]);
        assert_eq!(s.missed_deadlines(), 1);
    }

    #[test]
    fn inactive_scheduler_is_vanilla() {
        let s = two_path();
        assert_eq!(s.enabled(), vec![true, true]);
    }

    #[test]
    #[should_panic(expected = "one estimate per path")]
    fn estimate_arity_checked() {
        let mut s = two_path();
        s.enable(SimTime::ZERO, MB, SimDuration::from_secs(1));
        s.on_progress(SimTime::ZERO, 0, &[mbps(1.0)]);
    }
}
