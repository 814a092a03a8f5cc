//! The MP-DASH video adapter (§5): the thin shim between an off-the-shelf
//! DASH algorithm and the deadline-aware scheduler.
//!
//! For each chunk about to be requested, the adapter decides **whether**
//! MP-DASH should be active and **what deadline window** to hand it:
//!
//! 1. **Base deadline** (§5.1) — either the chunk's playout duration
//!    ([`DeadlineMode::Duration`]) or its size divided by the level's
//!    nominal bitrate ([`DeadlineMode::Rate`]). Both keep the buffer from
//!    decreasing: the first in the short term, the second in the long run.
//! 2. **Deadline extension** (§5.1) — above the high-buffer threshold Φ
//!    the player is in a "safe region"; the window is extended by
//!    `buffer − Φ` to give the scheduler more room to avoid cellular.
//! 3. **Low-buffer disable** (§5.1) — below the threshold Ω (startup,
//!    post-blackout) MP-DASH is turned off entirely and vanilla MPTCP
//!    takes over, protecting against stalls.
//!
//! Φ and Ω are category-specific (§5.2.1 vs §5.2.2); buffer-based
//! algorithms additionally keep MP-DASH off until the player has reached
//! the highest sustainable level.

use crate::abr::{Abr, AbrCategory};
use crate::video::Video;
use mpdash_sim::{Rate, SimDuration};

/// How the base deadline is derived (§5.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeadlineMode {
    /// `D` = the chunk's playout duration (stabilizes the buffer in the
    /// short term).
    Duration,
    /// `D` = chunk size ÷ the level's nominal average bitrate (stabilizes
    /// the buffer in the long run; the paper finds this the better
    /// performer, §7.3.2).
    Rate,
}

impl DeadlineMode {
    /// Display name matching the paper's table headers.
    pub fn name(self) -> &'static str {
        match self {
            DeadlineMode::Duration => "Duration",
            DeadlineMode::Rate => "Rate",
        }
    }
}

/// Adapter tunables; the defaults are the paper's Φ, Ω and `T`.
#[derive(Clone, Copy, Debug)]
pub struct AdapterConfig {
    /// Throughput-based Φ as a fraction of buffer capacity (paper: 0.8).
    pub phi_fraction: f64,
    /// Throughput-based Ω window `T` as a multiple of the buffer
    /// capacity (paper: 2×; 1× or 3× "does not qualitatively change the
    /// results").
    pub t_factor: f64,
    /// Floor on Ω as a fraction of capacity (paper: 0.4).
    pub omega_floor: f64,
}

impl Default for AdapterConfig {
    fn default() -> Self {
        AdapterConfig {
            phi_fraction: 0.8,
            t_factor: 2.0,
            omega_floor: 0.4,
        }
    }
}

/// The adapter's verdict for one chunk request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeadlineDecision {
    /// Run this chunk under MP-DASH with the given (possibly extended)
    /// window.
    Schedule(SimDuration),
    /// Leave MP-DASH off for this chunk: vanilla MPTCP (low buffer, or a
    /// buffer-based player not yet at its sustainable level).
    Bypass,
}

/// The per-session video adapter. See module docs.
#[derive(Clone, Copy, Debug)]
pub struct VideoAdapter {
    cfg: AdapterConfig,
    category: AbrCategory,
    mode: DeadlineMode,
}

impl VideoAdapter {
    /// Build for an algorithm category, a deadline mode and Φ/Ω
    /// tunables.
    pub fn new(category: AbrCategory, mode: DeadlineMode, cfg: AdapterConfig) -> Self {
        VideoAdapter {
            cfg,
            category,
            mode,
        }
    }

    /// The base (unextended) deadline for a chunk of `size` bytes at
    /// `level`.
    pub(crate) fn base_deadline(&self, video: &Video, level: usize, size: u64) -> SimDuration {
        match self.mode {
            DeadlineMode::Duration => video.chunk_duration(),
            DeadlineMode::Rate => {
                let rate = video.bitrate(level);
                rate.time_to_send(size)
            }
        }
    }

    /// The high-buffer extension threshold Φ for this category.
    pub(crate) fn phi(&self, video: &Video, capacity: SimDuration) -> SimDuration {
        match self.category {
            AbrCategory::ThroughputBased | AbrCategory::Hybrid => {
                capacity.mul_f64(self.cfg.phi_fraction)
            }
            // §5.2.2: conservatively capacity minus one chunk duration.
            AbrCategory::BufferBased => capacity.saturating_sub(video.chunk_duration()),
        }
    }

    /// The low-buffer disable threshold Ω for this category.
    ///
    /// * Throughput-based (§5.2.1): `Ω = max(T − T′, 0.4·capacity)` with
    ///   `T = 2 × capacity` and `T′` the content time downloadable in `T`
    ///   at the lowest bitrate under `estimate`.
    /// * Buffer-based (§5.2.2): `Ω = e_l(level) + chunk duration`, where
    ///   `e_l` comes from the algorithm's chunk map.
    pub(crate) fn omega(
        &self,
        video: &Video,
        abr: &Abr,
        level: usize,
        capacity: SimDuration,
        estimate: Rate,
    ) -> SimDuration {
        match self.category {
            AbrCategory::ThroughputBased | AbrCategory::Hybrid => {
                let t = capacity.mul_f64(self.cfg.t_factor);
                let lowest = video.bitrate(0).as_mbps_f64();
                let supplied = t.mul_f64(estimate.as_mbps_f64() / lowest.max(1e-9));
                let omega = t.saturating_sub(supplied);
                omega.max(capacity.mul_f64(self.cfg.omega_floor))
            }
            AbrCategory::BufferBased => {
                let el = abr
                    .level_buffer_range(level)
                    .map(|(el, _)| el)
                    .unwrap_or(SimDuration::ZERO);
                el + video.chunk_duration()
            }
        }
    }

    /// Decide for the next chunk: given the level the ABR chose, the
    /// chunk size, the current buffer, and the MP-DASH aggregate
    /// throughput estimate.
    #[allow(clippy::too_many_arguments)] // one argument per §5 input; a
                                         // context struct would only relocate the same seven names
    pub fn decide(
        &self,
        video: &Video,
        abr: &Abr,
        level: usize,
        size: u64,
        buffer: SimDuration,
        capacity: SimDuration,
        estimate: Rate,
    ) -> DeadlineDecision {
        // Buffer-based gate (§5.2.2): only at the highest sustainable
        // level is the scheduler allowed on.
        if self.category == AbrCategory::BufferBased {
            let sustainable = video.highest_level_at_most(estimate);
            if level != sustainable {
                return DeadlineDecision::Bypass;
            }
        }
        let omega = self.omega(video, abr, level, capacity, estimate);
        if buffer < omega {
            return DeadlineDecision::Bypass;
        }
        let mut window = self.base_deadline(video, level, size);
        let phi = self.phi(video, capacity);
        if buffer > phi {
            window += buffer - phi; // deadline extension (§5.1)
        }
        DeadlineDecision::Schedule(window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abr::AbrKind;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    fn mbps(m: f64) -> Rate {
        Rate::from_mbps_f64(m)
    }

    const CAP: f64 = 40.0;

    fn adapter(category: AbrCategory, mode: DeadlineMode) -> VideoAdapter {
        VideoAdapter::new(category, mode, AdapterConfig::default())
    }

    #[test]
    fn duration_mode_uses_playout_time() {
        let v = Video::big_buck_bunny();
        let a = adapter(AbrCategory::ThroughputBased, DeadlineMode::Duration);
        assert_eq!(a.base_deadline(&v, 4, 999_999_999), secs(4.0));
    }

    #[test]
    fn rate_mode_scales_with_chunk_size() {
        let v = Video::big_buck_bunny();
        let a = adapter(AbrCategory::ThroughputBased, DeadlineMode::Rate);
        // Paper's example: 1 MB at 4.0 Mbps nominal → 2 s.
        let d = Rate::from_mbps(4).time_to_send(1_000_000);
        assert_eq!(d, secs(2.0));
        // A chunk exactly at nominal size gets exactly the playout time.
        let nominal = v.bitrate(4).bytes_in(v.chunk_duration());
        assert_eq!(a.base_deadline(&v, 4, nominal), v.chunk_duration());
        // Larger-than-nominal chunks get a longer window (rate-based
        // advantage per §7.3.2).
        assert!(a.base_deadline(&v, 4, nominal * 12 / 10) > v.chunk_duration());
    }

    #[test]
    fn throughput_phi_is_80_percent() {
        let v = Video::big_buck_bunny();
        let a = adapter(AbrCategory::ThroughputBased, DeadlineMode::Rate);
        assert_eq!(a.phi(&v, secs(CAP)), secs(32.0));
    }

    #[test]
    fn buffer_based_phi_is_capacity_minus_chunk() {
        let v = Video::big_buck_bunny();
        let a = adapter(AbrCategory::BufferBased, DeadlineMode::Rate);
        assert_eq!(a.phi(&v, secs(CAP)), secs(36.0));
    }

    #[test]
    fn deadline_extension_above_phi() {
        let v = Video::big_buck_bunny();
        let a = adapter(AbrCategory::ThroughputBased, DeadlineMode::Duration);
        let abr = AbrKind::Festive.build(&v);
        // Buffer at 36 s > Φ=32 s: window = 4 s + 4 s extension.
        let d = a.decide(&v, &abr, 4, 1, secs(36.0), secs(CAP), mbps(5.0));
        assert_eq!(d, DeadlineDecision::Schedule(secs(8.0)));
    }

    #[test]
    fn low_buffer_bypasses() {
        let v = Video::big_buck_bunny();
        let a = adapter(AbrCategory::ThroughputBased, DeadlineMode::Rate);
        let abr = AbrKind::Festive.build(&v);
        // Ω floor = 16 s; buffer 10 s < Ω → bypass.
        let d = a.decide(&v, &abr, 2, 1, secs(10.0), secs(CAP), mbps(5.0));
        assert_eq!(d, DeadlineDecision::Bypass);
    }

    #[test]
    fn omega_grows_when_estimate_is_poor() {
        let v = Video::big_buck_bunny();
        let a = adapter(AbrCategory::ThroughputBased, DeadlineMode::Rate);
        let abr = AbrKind::Festive.build(&v);
        // Rich estimate: supplied ≥ T, Ω = floor (16 s).
        let rich = a.omega(&v, &abr, 0, secs(CAP), mbps(5.0));
        assert_eq!(rich, secs(16.0));
        // Estimate at half the lowest bitrate: T' = 40 s, Ω = 80−40 = 40 s.
        let poor = a.omega(&v, &abr, 0, secs(CAP), mbps(0.29));
        assert_eq!(poor, secs(40.0));
        assert!(poor > rich);
    }

    #[test]
    fn buffer_based_gate_requires_sustainable_level() {
        let v = Video::big_buck_bunny();
        let a = adapter(AbrCategory::BufferBased, DeadlineMode::Rate);
        let mut abr = AbrKind::Bba.build(&v);
        // Run a selection so the BBA map exists (it is built lazily).
        let _ = abr.select(
            &v,
            &crate::abr::AbrInput {
                buffer: secs(30.0),
                buffer_capacity: secs(CAP),
                last_level: Some(3),
                last_chunk_throughput: Some(mbps(3.4)),
                override_throughput: None,
            },
        );
        // Estimate 3.4 Mbps sustains level 3; a level-2 chunk bypasses.
        let d = a.decide(&v, &abr, 2, 1, secs(30.0), secs(CAP), mbps(3.4));
        assert_eq!(d, DeadlineDecision::Bypass);
        // At level 3 with a healthy buffer, it schedules.
        let d = a.decide(&v, &abr, 3, 1, secs(30.0), secs(CAP), mbps(3.4));
        assert!(matches!(d, DeadlineDecision::Schedule(_)));
    }

    #[test]
    fn buffer_based_omega_uses_chunk_map() {
        let v = Video::big_buck_bunny();
        let a = adapter(AbrCategory::BufferBased, DeadlineMode::Rate);
        let mut abr = AbrKind::Bba.build(&v);
        let _ = abr.select(
            &v,
            &crate::abr::AbrInput {
                buffer: secs(30.0),
                buffer_capacity: secs(CAP),
                last_level: Some(4),
                last_chunk_throughput: Some(mbps(5.0)),
                override_throughput: None,
            },
        );
        let (el, _) = abr.level_buffer_range(4).unwrap();
        let omega = a.omega(&v, &abr, 4, secs(CAP), mbps(5.0));
        assert_eq!(omega, el + v.chunk_duration());
        // Just below Ω: bypass. Just above: schedule.
        let below = omega - SimDuration::from_millis(1);
        assert_eq!(
            a.decide(&v, &abr, 4, 1, below, secs(CAP), mbps(5.0)),
            DeadlineDecision::Bypass
        );
        let above = omega + SimDuration::from_millis(1);
        assert!(matches!(
            a.decide(&v, &abr, 4, 1, above, secs(CAP), mbps(5.0)),
            DeadlineDecision::Schedule(_)
        ));
    }
}
