//! FESTIVE rate adaptation (Jiang, Sekar, Zhang — CoNEXT '12), the
//! representative throughput-based algorithm of the paper's evaluation.
//!
//! Three of FESTIVE's mechanisms matter for chunk selection (the fairness
//! machinery for competing players does not apply to a single client):
//!
//! * **Harmonic-mean estimation** over the last [`Festive::WINDOW`] chunk
//!   throughputs — robust to outlier-fast chunks served from caches.
//! * **Efficiency margin**: target the highest level whose bitrate is at
//!   most `γ ×` the estimate (γ = 0.85).
//! * **Gradual & stable switching**: step up at most one level at a time,
//!   and only after the target has persisted for a few consecutive
//!   decisions; stepping down is immediate.

use super::AbrInput;
use crate::video::Video;
use mpdash_sim::Rate;
use std::collections::VecDeque;

/// FESTIVE state. See module docs.
#[derive(Clone, Debug)]
pub struct Festive {
    /// Recent per-chunk throughput samples (Mbps).
    samples: VecDeque<f64>,
    /// Consecutive decisions in which the target exceeded the current
    /// level (stability gate for up-switches).
    up_streak: u32,
}

impl Festive {
    /// Harmonic-mean window, in chunks.
    pub(crate) const WINDOW: usize = 5;
    /// Efficiency factor γ: use at most this fraction of the estimate.
    pub(crate) const GAMMA: f64 = 0.85;
    /// Up-switches require the target to persist this many decisions.
    pub(crate) const STABILITY: u32 = 3;

    /// A new instance.
    pub(crate) fn new() -> Self {
        Festive {
            samples: VecDeque::with_capacity(Self::WINDOW),
            up_streak: 0,
        }
    }

    fn harmonic_mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let denom: f64 = self.samples.iter().map(|&s| 1.0 / s.max(1e-9)).sum();
        Some(self.samples.len() as f64 / denom)
    }

    /// Choose the quality level for the next chunk.
    pub(crate) fn select(&mut self, video: &Video, input: &AbrInput) -> usize {
        // Ingest the newest sample. With the MP-DASH override active, the
        // aggregate estimate replaces the (single-path, under-counting)
        // app-level measurement — §5.2.1.
        if let Some(rate) = input.throughput_signal() {
            if self.samples.len() == Self::WINDOW {
                self.samples.pop_front();
            }
            self.samples.push_back(rate.as_mbps_f64());
        }

        let current = input.last_level.unwrap_or(0);
        let Some(hm) = self.harmonic_mean() else {
            return 0; // nothing measured yet
        };
        let target = video.highest_level_at_most(Rate::from_mbps_f64(hm * Self::GAMMA));

        if target > current {
            self.up_streak += 1;
            if self.up_streak >= Self::STABILITY {
                self.up_streak = 0;
                current + 1 // gradual: one level at a time
            } else {
                current
            }
        } else {
            self.up_streak = 0;
            target // down-switches (and holds) are immediate
        }
    }
}

impl Default for Festive {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::SimDuration;

    fn input(last_level: Option<usize>, mbps: f64) -> AbrInput {
        AbrInput {
            buffer: SimDuration::from_secs(20),
            buffer_capacity: SimDuration::from_secs(40),
            last_level,
            last_chunk_throughput: Some(Rate::from_mbps_f64(mbps)),
            override_throughput: None,
        }
    }

    #[test]
    fn starts_low_without_history() {
        let v = Video::big_buck_bunny();
        let mut f = Festive::new();
        let lvl = f.select(
            &v,
            &AbrInput {
                buffer: SimDuration::ZERO,
                buffer_capacity: SimDuration::from_secs(40),
                last_level: None,
                last_chunk_throughput: None,
                override_throughput: None,
            },
        );
        assert_eq!(lvl, 0);
    }

    #[test]
    fn climbs_gradually_with_stability_gate() {
        let v = Video::big_buck_bunny(); // top level 3.94 Mbps
        let mut f = Festive::new();
        let mut level = 0;
        let mut trajectory = vec![];
        for _ in 0..20 {
            level = f.select(&v, &input(Some(level), 8.0));
            trajectory.push(level);
        }
        // Reaches the top...
        assert_eq!(*trajectory.last().unwrap(), 4);
        // ...one step at a time...
        for w in trajectory.windows(2) {
            assert!(w[1] <= w[0] + 1, "jumped {} -> {}", w[0], w[1]);
        }
        // ...and not before the stability gate allows.
        assert_eq!(trajectory[0], 0);
        assert_eq!(trajectory[1], 0);
        assert!(trajectory[2] <= 1);
    }

    #[test]
    fn drops_immediately_on_collapse() {
        let v = Video::big_buck_bunny();
        let mut f = Festive::new();
        let mut level = 0;
        for _ in 0..20 {
            level = f.select(&v, &input(Some(level), 8.0));
        }
        assert_eq!(level, 4);
        // Throughput collapses to 1 Mbps; harmonic mean punishes fast:
        // within a couple of chunks the level must fall hard.
        level = f.select(&v, &input(Some(level), 1.0));
        let after_one = level;
        level = f.select(&v, &input(Some(level), 1.0));
        assert!(level < 4, "dropped from top: {after_one} then {level}");
        // Keep collapsing: settles at a low level.
        for _ in 0..5 {
            level = f.select(&v, &input(Some(level), 1.0));
        }
        assert!(level <= 1, "settled at {level}");
    }

    #[test]
    fn harmonic_mean_resists_outliers() {
        let mut f = Festive::new();
        for s in [2.0, 2.0, 2.0, 2.0, 100.0] {
            f.samples.push_back(s);
        }
        let hm = f.harmonic_mean().unwrap();
        assert!(hm < 2.6, "harmonic mean {hm} should discount the outlier");
    }

    #[test]
    fn efficiency_margin_avoids_borderline_levels() {
        let v = Video::big_buck_bunny();
        let mut f = Festive::new();
        let mut level = 0;
        // Estimate 2.5 Mbps: level 3 is 2.41 Mbps — a borderline fit that
        // γ=0.85 rejects (0.85·2.5 = 2.125 < 2.41). FESTIVE stays at 2.
        for _ in 0..20 {
            level = f.select(&v, &input(Some(level), 2.5));
        }
        assert_eq!(level, 2);
    }
}
