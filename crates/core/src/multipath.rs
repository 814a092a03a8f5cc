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
use mpdash_sim::{PathId, PathMask, Rate, SimDuration, SimTime};

#[derive(Clone, Copy, Debug)]
struct ActiveN {
    size: u64,
    started: SimTime,
    window: SimDuration,
    /// α·D, fixed for the transfer (§3.2): computed once at `enable`,
    /// not once per progress check.
    target: SimDuration,
    sent: u64,
    enabled: PathMask,
    missed: bool,
}

/// N-interface deadline-aware scheduler (greedy cheapest-prefix).
#[derive(Clone, Debug)]
pub struct MultiPathScheduler {
    /// Unit cost per byte of each path (lower = preferred). Index = path.
    costs: Vec<f64>,
    /// Paths sorted by ascending cost (ties break on index, so the
    /// conventional WiFi=0 wins against an equal-cost path).
    by_cost: Vec<PathId>,
    /// Every path, the set vanilla MPTCP runs on: the low n bits, never
    /// [`PathMask::ALL`], so a fresh connection sees it as a change.
    all: PathMask,
    params: SchedulerParams,
    active: Option<ActiveN>,
    /// Per-path consecutive checks wanting the path enabled (enable-side
    /// debounce; see [`SchedulerParams::enable_debounce`]), reset at
    /// every `enable`.
    enable_streak: Vec<u32>,
    toggles: u64,
    missed_deadlines: u64,
    completed: u64,
}

impl MultiPathScheduler {
    /// Build from per-path unit costs.
    ///
    /// # Panics
    /// If `costs` is empty, longer than the 32 paths a [`PathMask`] can
    /// name, or any cost is negative/non-finite.
    pub fn new(costs: Vec<f64>, params: SchedulerParams) -> Self {
        assert!(!costs.is_empty(), "need at least one path");
        assert!(
            costs.iter().all(|c| c.is_finite() && *c >= 0.0),
            "costs must be finite and non-negative"
        );
        let all = PathMask::first(costs.len());
        let mut by_cost: Vec<PathId> = (0..costs.len()).map(|p| PathId(p as u8)).collect();
        by_cost.sort_by(|a, b| {
            costs[a.index()]
                .partial_cmp(&costs[b.index()])
                .unwrap()
                .then(a.cmp(b))
        });
        MultiPathScheduler {
            enable_streak: vec![0; costs.len()],
            costs,
            by_cost,
            all,
            params,
            active: None,
            toggles: 0,
            missed_deadlines: 0,
            completed: 0,
        }
    }

    /// The path the policy prefers most (lowest cost).
    pub fn preferred(&self) -> PathId {
        self.by_cost[0]
    }

    /// Whether a transfer is being scheduled.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Currently enabled paths under MP-DASH control (all paths when
    /// inactive — vanilla MPTCP).
    pub fn enabled(&self) -> PathMask {
        self.active.map_or(self.all, |a| a.enabled)
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
    pub fn enable(&mut self, now: SimTime, size: u64, window: SimDuration) -> PathMask {
        assert!(size > 0, "transfer size must be positive");
        assert!(!window.is_zero(), "deadline window must be positive");
        let enabled = PathMask::only(self.preferred());
        self.active = Some(ActiveN {
            size,
            started: now,
            window,
            target: window.mul_f64(self.params.alpha),
            sent: 0,
            enabled,
            missed: false,
        });
        self.enable_streak.fill(0);
        enabled
    }

    /// Deactivate; the transport reverts to vanilla MPTCP (all paths).
    pub fn disable(&mut self) -> PathMask {
        self.active = None;
        self.all
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
    ) -> Option<PathMask> {
        assert_eq!(estimates.len(), self.costs.len(), "one estimate per path");
        let a = self.active.as_mut()?;
        a.sent = a.sent.max(total_sent);

        if a.sent >= a.size {
            self.completed += 1;
            self.active = None;
            return Some(self.all);
        }

        let want = if now >= a.started + a.window {
            if !a.missed {
                a.missed = true;
                self.missed_deadlines += 1;
            }
            // Past the deadline every path turns on at once, debounce or
            // not.
            self.all
        } else {
            let remaining = a.size - a.sent;
            let time_left = a.target.saturating_sub(now.saturating_since(a.started));
            // Greedy cheapest prefix: accumulate capacity until it covers
            // the remaining bytes. The preferred path is unconditionally
            // on; if even all paths cannot cover, every path is wanted —
            // Algorithm 1's "enable and hope" behaviour.
            let mut want = PathMask::NONE;
            let mut capacity: u64 = 0;
            for &p in &self.by_cost {
                want = want.with(p);
                capacity = capacity.saturating_add(estimates[p.index()].bytes_in(time_left));
                // Strict comparison mirrors Algorithm 1's line 16/19
                // inequalities: at exact equality we keep the next path
                // on (conservative toward meeting the deadline).
                if capacity > remaining {
                    break;
                }
            }
            // Enable-side debounce: a path may only turn ON after the
            // greedy has wanted it for `enable_debounce` consecutive
            // checks; turning OFF is immediate (always safe for the
            // deadline).
            for (p, streak) in self.enable_streak.iter_mut().enumerate() {
                let p = PathId(p as u8);
                if want.contains(p) && !a.enabled.contains(p) {
                    *streak += 1;
                    if *streak < self.params.enable_debounce {
                        want = want.minus(PathMask::only(p)); // not yet
                    }
                } else {
                    *streak = 0;
                }
            }
            want
        };
        let flipped = (want.bits() ^ a.enabled.bits()).count_ones();
        self.toggles += u64::from(flipped);
        a.enabled = want;
        (flipped > 0).then_some(want)
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

    /// The mask enabling exactly `paths`.
    fn on(paths: &[u8]) -> PathMask {
        paths.iter().fold(PathMask::NONE, |m, &p| m.with(PathId(p)))
    }

    fn two_path() -> MultiPathScheduler {
        MultiPathScheduler::new(vec![0.0, 1.0], SchedulerParams::default())
    }

    #[test]
    fn starts_with_only_preferred_path() {
        let mut s = two_path();
        let en = s.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        assert_eq!(en, on(&[0]));
    }

    #[test]
    fn enables_second_path_when_first_insufficient() {
        let mut s = two_path();
        s.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        let en = s
            .on_progress(SimTime::ZERO, 0, &[mbps(3.0), mbps(3.0)])
            .unwrap();
        assert_eq!(en, on(&[0, 1]));
    }

    #[test]
    fn three_paths_enable_in_cost_order() {
        // Path costs: p1 cheapest, p0 middle, p2 dearest.
        let mut s = MultiPathScheduler::new(vec![0.5, 0.0, 1.0], SchedulerParams::default());
        assert_eq!(s.preferred(), PathId(1));
        let en = s.enable(SimTime::ZERO, 10 * MB, SimDuration::from_secs(10));
        assert_eq!(en, on(&[1]));
        // p1 alone: 2 Mbps·10 s = 2.5 MB < 10 MB → add p0 (4 Mbps → 7.5 MB
        // total, still short) → add p2.
        let en = s
            .on_progress(SimTime::ZERO, 0, &[mbps(4.0), mbps(2.0), mbps(8.0)])
            .unwrap();
        assert_eq!(en, on(&[0, 1, 2]));
        // Transfer catches up: 9 MB sent, 5 s left; p1 alone moves
        // 1.25 MB > 1 MB remaining → back to preferred only.
        let en = s
            .on_progress(
                SimTime::from_secs(5),
                9 * MB,
                &[mbps(4.0), mbps(2.0), mbps(8.0)],
            )
            .unwrap();
        assert_eq!(en, on(&[1]));
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
            let multi_cell = multi
                .on_progress(now, sent, &est)
                .map(|en| en.contains(PathId::CELLULAR));
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
        assert_eq!(en, on(&[0, 1, 2]));
        assert_eq!(s.missed_deadlines(), 1);
    }

    #[test]
    fn inactive_scheduler_is_vanilla() {
        let s = two_path();
        assert_eq!(s.enabled(), on(&[0, 1]));
    }

    #[test]
    #[should_panic(expected = "one estimate per path")]
    fn estimate_arity_checked() {
        let mut s = two_path();
        s.enable(SimTime::ZERO, MB, SimDuration::from_secs(1));
        s.on_progress(SimTime::ZERO, 0, &[mbps(1.0)]);
    }
}
