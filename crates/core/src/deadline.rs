//! Algorithm 1: the online deadline-aware MP-DASH scheduler.
//!
//! One transfer (a video chunk, or any delay-tolerant blob) is described
//! by its size `S` and download window `D`. The scheduler starts with the
//! costly (cellular) path **off**, drives the preferred (WiFi) path at
//! full rate, and after every progress update re-evaluates lines 16–21 of
//! the paper's Algorithm 1:
//!
//! ```text
//! if (α·D − timeSpent) · R_wifi > S − sentBytes  and cell on  → turn cell off
//! if (α·D − timeSpent) · R_wifi < S − sentBytes  and cell off → turn cell on
//! ```
//!
//! `α ≤ 1` shrinks the target window to absorb estimation error (§4); the
//! paper's evaluations use α = 1 with an α = 0.8 sensitivity point
//! (§7.2.1). If the real deadline passes before completion, both
//! interfaces stay on until the transfer finishes (§7.2.1).
//!
//! The scheduler is deliberately a pure decision function — no clocks, no
//! transport. The session layer feeds it `(now, bytes delivered, WiFi
//! estimate)` and applies the returned decision to the MPTCP path mask.
//!
//! ```
//! use mpdash_core::deadline::{CellDecision, DeadlineScheduler, SchedulerParams};
//! use mpdash_sim::{Rate, SimDuration, SimTime};
//!
//! let mut s = DeadlineScheduler::new(SchedulerParams::default());
//! // MP_DASH_ENABLE: 5 MB due in 10 s; the costly path starts off.
//! s.enable(SimTime::ZERO, 5_000_000, SimDuration::from_secs(10));
//!
//! // WiFi estimated at 3 Mbps can move only 3.75 MB in 10 s: enable LTE.
//! let d = s.on_progress(SimTime::ZERO, 0, Rate::from_mbps(3));
//! assert_eq!(d, CellDecision::Enable);
//!
//! // Two seconds in, 2.5 MB are through and WiFi recovered to 6 Mbps:
//! // the remaining 2.5 MB fit in the 8 s left — LTE goes dark again.
//! let d = s.on_progress(SimTime::from_secs(2), 2_500_000, Rate::from_mbps(6));
//! assert_eq!(d, CellDecision::Disable);
//! ```

use mpdash_sim::{Rate, SimDuration, SimTime};

/// Tunable parameters of Algorithm 1.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerParams {
    /// Target-window shrink factor α in `(0, 1]`. Smaller values finish
    /// earlier (fewer missed deadlines) at the price of more cellular
    /// bytes.
    pub alpha: f64,
    /// Enable-side debounce: the "WiFi alone will miss the deadline"
    /// condition must hold for this many consecutive progress checks
    /// before the costly path turns on. `1` is the paper's Algorithm 1
    /// verbatim; a few checks (the session layer uses 4, i.e. 200 ms of
    /// 50 ms ticks) filters throughput-estimate flicker that would
    /// otherwise toggle the cellular subflow several times per chunk —
    /// each spurious enable bursts a full retained congestion window onto
    /// the metered path and re-arms the LTE radio's high-power window.
    /// Disables are never debounced (turning cellular *off* is always
    /// safe).
    pub enable_debounce: u32,
}

impl Default for SchedulerParams {
    fn default() -> Self {
        SchedulerParams {
            alpha: 1.0,
            enable_debounce: 1,
        }
    }
}

impl SchedulerParams {
    /// Parameters with a specific α.
    ///
    /// # Panics
    /// If `alpha` is outside `(0, 1]`.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        SchedulerParams {
            alpha,
            enable_debounce: 1,
        }
    }

    /// Same parameters with an enable-side debounce of `checks`
    /// consecutive progress evaluations (min 1).
    pub fn with_debounce(mut self, checks: u32) -> Self {
        self.enable_debounce = checks.max(1);
        self
    }
}

/// What the decision function wants done with the costly path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellDecision {
    /// Enable the costly path (WiFi alone will miss the deadline).
    Enable,
    /// Disable the costly path (WiFi alone suffices).
    Disable,
    /// Keep the current setting.
    NoChange,
}

#[derive(Clone, Debug)]
struct Active {
    size: u64,
    started: SimTime,
    window: SimDuration,
    sent: u64,
    cell_enabled: bool,
    missed: bool,
    /// Consecutive progress checks that wanted the costly path on.
    enable_streak: u32,
}

/// The per-transfer state machine of Algorithm 1. See module docs.
#[derive(Clone, Debug)]
pub struct DeadlineScheduler {
    params: SchedulerParams,
    active: Option<Active>,
    /// Lifetime count of cellular on/off transitions (diagnostics; the
    /// analysis tool reports toggle churn).
    toggles: u64,
    /// Lifetime count of transfers that missed their real deadline.
    missed_deadlines: u64,
    /// Lifetime count of completed transfers.
    completed: u64,
}

impl DeadlineScheduler {
    /// A scheduler with the given parameters and no active transfer.
    pub fn new(params: SchedulerParams) -> Self {
        DeadlineScheduler {
            params,
            active: None,
            toggles: 0,
            missed_deadlines: 0,
            completed: 0,
        }
    }

    /// `MP_DASH_ENABLE`: activate for the next `size` bytes with download
    /// window `window`. Per Algorithm 1 the costly path starts **off**, so
    /// the returned decision is always [`CellDecision::Disable`]; callers
    /// apply it immediately.
    ///
    /// # Panics
    /// If `size` is zero (nothing to schedule) or `window` is zero (the
    /// deadline already passed at activation — callers should treat that
    /// as "don't activate").
    pub fn enable(&mut self, now: SimTime, size: u64, window: SimDuration) -> CellDecision {
        assert!(size > 0, "transfer size must be positive");
        assert!(!window.is_zero(), "deadline window must be positive");
        self.active = Some(Active {
            size,
            started: now,
            window,
            sent: 0,
            cell_enabled: false,
            missed: false,
            enable_streak: 0,
        });
        CellDecision::Disable
    }

    /// `MP_DASH_DISABLE`: deactivate explicitly. The transport reverts to
    /// vanilla MPTCP, so the costly path comes back on.
    pub fn disable(&mut self) -> CellDecision {
        self.active = None;
        CellDecision::Enable
    }

    /// Whether a transfer is currently being scheduled.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Whether the costly path is currently enabled under MP-DASH control
    /// (`true` also when inactive — vanilla MPTCP uses every path).
    pub fn cell_enabled(&self) -> bool {
        self.active.as_ref().is_none_or(|a| a.cell_enabled)
    }

    /// Lifetime cellular on/off transition count.
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

    /// Progress update: `total_sent` is the cumulative bytes of the
    /// *active transfer* delivered so far, `wifi_rate` the current
    /// preferred-path throughput estimate. Returns what to do with the
    /// costly path.
    ///
    /// Completion (`total_sent ≥ S`) deactivates the scheduler; per the
    /// interface contract (§3.2) the transport reverts to vanilla MPTCP,
    /// so completion returns [`CellDecision::Enable`]. DASH adapters
    /// immediately re-`enable` for the next chunk, and the link is idle in
    /// between, so no stray cellular bytes flow from this.
    pub fn on_progress(&mut self, now: SimTime, total_sent: u64, wifi_rate: Rate) -> CellDecision {
        let Some(a) = self.active.as_mut() else {
            return CellDecision::NoChange;
        };
        a.sent = a.sent.max(total_sent);

        // (1) Completed: deactivate.
        if a.sent >= a.size {
            self.completed += 1;
            self.active = None;
            return CellDecision::Enable;
        }

        // (2) Real deadline passed: both interfaces from now on (§7.2.1).
        if now >= a.started + a.window {
            if !a.missed {
                a.missed = true;
                self.missed_deadlines += 1;
            }
            if !a.cell_enabled {
                a.cell_enabled = true;
                self.toggles += 1;
                return CellDecision::Enable;
            }
            return CellDecision::NoChange;
        }

        // (3) Lines 16–21: compare what WiFi alone can still move within
        // the α-shrunk window against what remains.
        let remaining = a.size - a.sent;
        let spent = now.saturating_since(a.started);
        let target = a.window.mul_f64(self.params.alpha);
        let time_left = target.saturating_sub(spent);
        let wifi_can = wifi_rate.bytes_in(time_left);

        if wifi_can > remaining && a.cell_enabled {
            a.enable_streak = 0;
            a.cell_enabled = false;
            self.toggles += 1;
            CellDecision::Disable
        } else if wifi_can < remaining && !a.cell_enabled {
            a.enable_streak += 1;
            if a.enable_streak >= self.params.enable_debounce {
                a.enable_streak = 0;
                a.cell_enabled = true;
                self.toggles += 1;
                CellDecision::Enable
            } else {
                CellDecision::NoChange
            }
        } else {
            a.enable_streak = 0;
            CellDecision::NoChange
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(m: f64) -> Rate {
        Rate::from_mbps_f64(m)
    }

    fn sched() -> DeadlineScheduler {
        DeadlineScheduler::new(SchedulerParams::default())
    }

    const MB: u64 = 1_000_000;

    #[test]
    fn starts_with_cell_disabled() {
        let mut s = sched();
        let d = s.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        assert_eq!(d, CellDecision::Disable);
        assert!(s.is_active());
        assert!(!s.cell_enabled());
    }

    #[test]
    fn wifi_sufficient_keeps_cell_off() {
        // 5 MB in 10 s window needs 4 Mbps; WiFi at 4.8 Mbps suffices.
        let mut s = sched();
        s.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        let d = s.on_progress(SimTime::from_secs(1), 600_000, mbps(4.8));
        assert_eq!(d, CellDecision::NoChange);
        assert!(!s.cell_enabled());
    }

    #[test]
    fn underperforming_wifi_enables_cell() {
        // 5 MB in 10 s but WiFi only 3.0 Mbps (can move 3.75 MB): enable.
        let mut s = sched();
        s.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        let d = s.on_progress(SimTime::from_secs(0), 0, mbps(3.0));
        assert_eq!(d, CellDecision::Enable);
        assert!(s.cell_enabled());
        assert_eq!(s.toggles(), 1);
    }

    #[test]
    fn recovering_wifi_disables_cell_again() {
        let mut s = sched();
        s.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        s.on_progress(SimTime::ZERO, 0, mbps(3.0)); // enable
                                                    // WiFi recovers to 10 Mbps: 9 s left can move 11 MB > 4.6 MB left.
        let d = s.on_progress(SimTime::from_secs(1), 400_000, mbps(10.0));
        assert_eq!(d, CellDecision::Disable);
        assert!(!s.cell_enabled());
        assert_eq!(s.toggles(), 2);
    }

    #[test]
    fn completion_deactivates_and_restores_vanilla() {
        let mut s = sched();
        s.enable(SimTime::ZERO, MB, SimDuration::from_secs(10));
        let d = s.on_progress(SimTime::from_secs(3), MB, mbps(4.0));
        assert_eq!(d, CellDecision::Enable);
        assert!(!s.is_active());
        assert_eq!(s.completed(), 1);
        assert_eq!(s.missed_deadlines(), 0);
        // Further progress reports are no-ops.
        assert_eq!(
            s.on_progress(SimTime::from_secs(4), 2 * MB, mbps(4.0)),
            CellDecision::NoChange
        );
    }

    #[test]
    fn missed_deadline_forces_both_paths_on() {
        let mut s = sched();
        s.enable(SimTime::ZERO, 10 * MB, SimDuration::from_secs(5));
        // Pretend WiFi looked great so cell stayed off...
        s.on_progress(SimTime::from_secs(1), 500_000, mbps(100.0));
        assert!(!s.cell_enabled());
        // ...but at t=5 s the transfer is incomplete: deadline missed.
        let d = s.on_progress(SimTime::from_secs(5), 600_000, mbps(100.0));
        assert_eq!(d, CellDecision::Enable);
        assert_eq!(s.missed_deadlines(), 1);
        // Even a glowing WiFi estimate cannot disable cell any more.
        let d2 = s.on_progress(SimTime::from_secs(6), 700_000, mbps(1000.0));
        assert_eq!(d2, CellDecision::NoChange);
        assert!(s.cell_enabled());
        // Missing is counted once.
        s.on_progress(SimTime::from_secs(7), 800_000, mbps(1.0));
        assert_eq!(s.missed_deadlines(), 1);
    }

    #[test]
    fn alpha_shrinks_the_target_window() {
        // 5 MB, 10 s window, WiFi 4.8 Mbps: with α=1 WiFi suffices
        // (6 MB > 5 MB), with α=0.8 it does not (4.8 MB < 5 MB).
        let mut relaxed = DeadlineScheduler::new(SchedulerParams::with_alpha(1.0));
        relaxed.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        assert_eq!(
            relaxed.on_progress(SimTime::ZERO, 0, mbps(4.8)),
            CellDecision::NoChange
        );

        let mut tight = DeadlineScheduler::new(SchedulerParams::with_alpha(0.8));
        tight.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        assert_eq!(
            tight.on_progress(SimTime::ZERO, 0, mbps(4.8)),
            CellDecision::Enable
        );
    }

    #[test]
    fn explicit_disable_reverts_to_vanilla() {
        let mut s = sched();
        s.enable(SimTime::ZERO, MB, SimDuration::from_secs(4));
        assert_eq!(s.disable(), CellDecision::Enable);
        assert!(!s.is_active());
        assert!(s.cell_enabled(), "inactive means vanilla MPTCP");
    }

    #[test]
    fn progress_is_monotone_even_with_stale_reports() {
        let mut s = sched();
        s.enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        s.on_progress(SimTime::from_secs(1), 2 * MB, mbps(4.0));
        // A stale (smaller) progress report must not resurrect remaining
        // bytes.
        let d = s.on_progress(SimTime::from_secs(2), MB, mbps(3.2));
        // remaining = 3 MB, 8 s at 3.2 Mbps = 3.2 MB > 3 MB: stays off.
        assert_eq!(d, CellDecision::NoChange);
        assert!(!s.cell_enabled());
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn zero_alpha_rejected() {
        let _ = SchedulerParams::with_alpha(0.0);
    }

    #[test]
    #[should_panic(expected = "size must be positive")]
    fn zero_size_rejected() {
        let mut s = sched();
        s.enable(SimTime::ZERO, 0, SimDuration::from_secs(1));
    }
}
