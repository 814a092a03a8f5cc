//! [`MpDashControl`]: the socket-option-shaped control surface of the
//! MP-DASH scheduler (§3.2 of the paper).
//!
//! The paper exposes two things to applications:
//!
//! 1. `MP_DASH_ENABLE(S, D)` / `MP_DASH_DISABLE` — activate the
//!    deadline-aware scheduler for the next `S` bytes with window `D`.
//! 2. A query for the **aggregated throughput across all paths**, which
//!    the video adapter feeds to throughput-based DASH algorithms so the
//!    player "has a consistent view of the overall available network
//!    resources" even while MP-DASH has the cellular path disabled (§5.2.1).
//!
//! This type bundles the N-path scheduler with one Holt-Winters throughput
//! sampler per path and owns the estimate-freshness policy:
//!
//! * **Enabled** paths roll their samplers continuously — zero-byte slots
//!   are real signal (a blacked-out WiFi link must drag its estimate down
//!   so the scheduler reacts, Table 2's "Miss?" scenarios).
//! * **Disabled** paths freeze their samplers — no data flows on them *by
//!   design*, so their last live estimate (or a configured prior, e.g. the
//!   pre-play probe measurement the paper mentions in §7.3.3) stands in.

use crate::deadline::SchedulerParams;
use crate::multipath::MultiPathScheduler;
use crate::predict::{PredictorKind, ThroughputSampler};
use mpdash_sim::{PathId, PathMask, Rate, SimDuration, SimTime};

/// Lifetime statistics of a deadline scheduler instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Costly-path enable/disable flips (Algorithm 1 decisions that
    /// changed the enabled set).
    pub toggles: u64,
    /// Transfers whose deadline window expired before completion.
    pub missed_deadlines: u64,
    /// Transfers that finished under scheduler control.
    pub completed_transfers: u64,
}

/// Per-transfer, per-path MP-DASH control plane. See module docs.
pub struct MpDashControl {
    sched: MultiPathScheduler,
    samplers: Vec<ThroughputSampler>,
    priors: Vec<Rate>,
    /// Scratch for a progress check's estimates (it must not allocate).
    estimates: Vec<Rate>,
}

impl MpDashControl {
    /// Build the control plane.
    ///
    /// * `costs` — per-path unit cost (lower = preferred); index is the
    ///   path id.
    /// * `priors` — per-path initial throughput estimates used until a
    ///   path has live samples (the paper seeds these from pre-play
    ///   measurements).
    /// * `params` — Algorithm 1 tunables (α).
    /// * `slot` — sampling slot width; the paper uses one RTT (§7.2.2).
    /// * `predictor` — each path's estimator,
    ///   [`PredictorKind::control_default`] unless an ablation says
    ///   otherwise.
    ///
    /// # Panics
    /// If `costs` and `priors` differ in length, or name more than the
    /// 32 paths a [`PathMask`] can.
    pub fn new(
        costs: Vec<f64>,
        priors: Vec<Rate>,
        params: SchedulerParams,
        slot: SimDuration,
        predictor: PredictorKind,
    ) -> Self {
        assert_eq!(costs.len(), priors.len(), "one prior per path");
        let n = costs.len();
        assert!(n <= 32, "PathMask supports up to 32 paths");
        MpDashControl {
            sched: MultiPathScheduler::new(costs, params),
            samplers: (0..n)
                .map(|_| ThroughputSampler::new(predictor.build(), slot))
                .collect(),
            priors,
            estimates: Vec::with_capacity(n),
        }
    }

    /// Number of paths.
    pub fn n_paths(&self) -> usize {
        self.priors.len()
    }

    /// Whether a transfer is active under MP-DASH control.
    pub fn is_active(&self) -> bool {
        self.sched.is_active()
    }

    /// Lifetime scheduler statistics.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            toggles: self.sched.toggles(),
            missed_deadlines: self.sched.missed_deadlines(),
            completed_transfers: self.sched.completed(),
        }
    }

    /// `MP_DASH_ENABLE(S, D)`. Returns the enabled set to apply (only the
    /// preferred path). Enabled paths' samplers are re-anchored at `now`
    /// so the idle gap since the last chunk does not count as zero
    /// throughput — but their predictor state (the last chunk's estimate)
    /// carries over, which is what lets Algorithm 1 judge WiFi before the
    /// first progress sample of the new chunk.
    pub fn mp_dash_enable(&mut self, now: SimTime, size: u64, window: SimDuration) -> PathMask {
        let enabled = self.sched.enable(now, size, window);
        self.reanchor(now, enabled);
        enabled
    }

    /// `MP_DASH_DISABLE`. Returns the enabled set (all paths — vanilla
    /// MPTCP).
    pub fn mp_dash_disable(&mut self) -> PathMask {
        self.sched.disable()
    }

    /// Restart the sampling clock of every path in `paths` at `now`.
    fn reanchor(&mut self, now: SimTime, paths: PathMask) {
        for (i, s) in self.samplers.iter_mut().enumerate() {
            if paths.contains(PathId(i as u8)) {
                s.reanchor(now);
            }
        }
    }

    /// Feed `bytes` received on `path` at time `t` into its sampler.
    pub fn on_bytes(&mut self, path: usize, t: SimTime, bytes: u64) {
        self.samplers[path].on_bytes(t, bytes);
    }

    /// Current throughput estimate of `path`: live forecast when the path
    /// has one, configured prior otherwise.
    pub fn estimate(&self, path: usize) -> Rate {
        self.samplers[path].forecast().unwrap_or(self.priors[path])
    }

    /// The §3.2 aggregate-throughput interface: the sum of per-path
    /// estimates. This is what the video adapter hands to a
    /// throughput-based DASH algorithm in place of its own (single-path,
    /// under-counting) measurement.
    pub fn aggregate_throughput(&self) -> Rate {
        (0..self.n_paths())
            .map(|p| self.estimate(p))
            .fold(Rate::ZERO, Rate::saturating_add)
    }

    /// A path's subflow was torn down and re-established (e.g. WiFi
    /// reassociation after a disassociation fault): the Holt-Winters
    /// state learned on the old association is stale — the AP, channel
    /// conditions, or even the BSS may have changed — so reset the
    /// path's predictor and re-anchor its slot clock at `now`. Until
    /// fresh samples arrive the estimate falls back to the configured
    /// prior.
    pub fn on_path_reset(&mut self, path: usize, now: SimTime) {
        self.samplers[path].reset_at(now);
    }

    /// Progress update: advance busy paths' sampling clocks to `now`,
    /// run the scheduler on `total_sent` delivered bytes, and return the
    /// new enabled set if it changed.
    ///
    /// `busy` must hold path `p` while `p` has data outstanding (the
    /// transport's in-flight signal). Only busy, enabled paths roll their
    /// samplers: a silent busy path is a blackout (zero slots drag its
    /// estimate down, Algorithm 1 reacts), while a silent idle path just
    /// has nothing to carry — e.g. the tail of a chunk whose remainder is
    /// assigned to the other subflow — and its estimate must freeze, or
    /// every chunk tail would masquerade as a WiFi outage and force the
    /// costly path on at the next chunk.
    pub fn on_progress(
        &mut self,
        now: SimTime,
        total_sent: u64,
        busy: PathMask,
    ) -> Option<PathMask> {
        let enabled = self.sched.enabled();
        for (i, s) in self.samplers.iter_mut().enumerate() {
            let p = PathId(i as u8);
            if enabled.contains(p) && busy.contains(p) {
                s.roll_to(now);
            }
        }
        self.estimates.clear();
        for p in 0..self.n_paths() {
            self.estimates.push(self.estimate(p));
        }
        let change = self.sched.on_progress(now, total_sent, &self.estimates)?;
        // Paths coming online restart their sampling clock at `now`.
        self.reanchor(now, change.minus(enabled));
        Some(change)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(m: f64) -> Rate {
        Rate::from_mbps_f64(m)
    }

    const MB: u64 = 1_000_000;

    const WIFI: PathMask = PathMask::only(PathId::WIFI);
    const BOTH: PathMask = PathMask::first(2);

    fn control() -> MpDashControl {
        MpDashControl::new(
            vec![0.0, 1.0],
            vec![mbps(4.0), mbps(3.0)],
            SchedulerParams::default(),
            SimDuration::from_millis(50),
            PredictorKind::control_default(),
        )
    }

    #[test]
    fn enable_starts_preferred_only() {
        let mut c = control();
        let en = c.mp_dash_enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        assert_eq!(en, WIFI);
        assert!(c.is_active());
    }

    #[test]
    fn priors_stand_in_before_samples() {
        let c = control();
        assert_eq!(c.estimate(0), mbps(4.0));
        assert_eq!(c.estimate(1), mbps(3.0));
        assert_eq!(c.aggregate_throughput(), mbps(7.0));
    }

    #[test]
    fn live_samples_override_priors() {
        let mut c = control();
        c.mp_dash_enable(SimTime::ZERO, 10 * MB, SimDuration::from_secs(30));
        // 2 Mbps of real WiFi traffic for 1 s.
        for i in 0..20u64 {
            c.on_bytes(0, SimTime::from_millis(i * 50 + 10), 12_500);
        }
        c.on_progress(SimTime::from_secs(1), 250_000, BOTH);
        let est = c.estimate(0).as_mbps_f64();
        assert!((est - 2.0).abs() < 0.3, "estimate {est}");
    }

    #[test]
    fn underperforming_wifi_turns_cell_on_via_progress() {
        let mut c = control();
        // Need 4 Mbps, prior says WiFi has 4.0... just short after the
        // first samples come in at 2 Mbps.
        c.mp_dash_enable(SimTime::ZERO, 5 * MB, SimDuration::from_secs(10));
        for i in 0..20u64 {
            c.on_bytes(0, SimTime::from_millis(i * 50 + 10), 12_500); // 2 Mbps
        }
        let change = c.on_progress(SimTime::from_secs(1), 250_000, BOTH);
        assert_eq!(change, Some(BOTH), "cell must come on");
        assert_eq!(c.sched.enabled(), BOTH);
    }

    #[test]
    fn disabled_path_estimate_freezes_not_collapses() {
        let mut c = control();
        c.mp_dash_enable(SimTime::ZERO, 20 * MB, SimDuration::from_secs(60));
        // Cell disabled from the start; WiFi active at 1 Mbps (i.e. slow).
        for i in 0..40u64 {
            c.on_bytes(0, SimTime::from_millis(i * 50 + 10), 6_250);
        }
        c.on_progress(SimTime::from_secs(2), 250_000, BOTH);
        // Cellular never carried a byte: estimate must still be the prior,
        // not zero — otherwise the greedy would think cellular is useless.
        assert_eq!(c.estimate(1), mbps(3.0));
    }

    #[test]
    fn idle_gap_between_chunks_does_not_zero_the_estimate() {
        let mut c = control();
        c.mp_dash_enable(SimTime::ZERO, MB, SimDuration::from_secs(4));
        // Chunk 1 at 4 Mbps.
        for i in 0..40u64 {
            c.on_bytes(0, SimTime::from_millis(i * 50 + 10), 25_000);
        }
        c.on_progress(SimTime::from_secs(2), MB, BOTH); // completes
        assert!(!c.is_active());
        // 30 s idle (player buffer full), then the next chunk starts.
        let later = SimTime::from_secs(32);
        c.mp_dash_enable(later, MB, SimDuration::from_secs(4));
        let est = c.estimate(0).as_mbps_f64();
        assert!(est > 3.0, "idle gap must not collapse estimate: {est}");
    }

    #[test]
    fn blackout_during_transfer_does_collapse_the_estimate() {
        let mut c = control();
        c.mp_dash_enable(SimTime::ZERO, 20 * MB, SimDuration::from_secs(60));
        for i in 0..40u64 {
            c.on_bytes(0, SimTime::from_millis(i * 50 + 10), 25_000); // 4 Mbps
        }
        c.on_progress(SimTime::from_secs(2), MB, BOTH);
        assert!(c.estimate(0).as_mbps_f64() > 3.0);
        // WiFi goes dark for 3 s mid-transfer *with data in flight*.
        c.on_progress(SimTime::from_secs(5), MB, BOTH);
        assert!(
            c.estimate(0).as_mbps_f64() < 0.5,
            "in-transfer silence is a blackout: {}",
            c.estimate(0).as_mbps_f64()
        );
    }

    #[test]
    fn stats_flow_through() {
        let mut c = control();
        c.mp_dash_enable(SimTime::ZERO, MB, SimDuration::from_secs(4));
        c.on_progress(SimTime::from_secs(1), MB, BOTH);
        let stats = c.stats();
        assert_eq!(stats.missed_deadlines, 0);
        assert_eq!(stats.completed_transfers, 1);
    }
}
