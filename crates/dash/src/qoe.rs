//! Session-level QoE accounting: the paper's four metrics (§7.3) —
//! stalls, playback bitrate, plus quality switches and the per-level
//! histogram the analysis tool prints. Stalls come from the player, the
//! levels from the session's chunk log.

use crate::player::Player;
use crate::video::Video;
use mpdash_sim::SimDuration;

/// QoE summary over (a suffix of) a playback session.
#[derive(Clone, Debug, PartialEq)]
pub struct QoeSummary {
    /// Mid-stream stalls.
    pub stalls: u64,
    /// Total stalled time.
    pub stall_time: SimDuration,
    /// Time to first frame.
    pub startup_delay: Option<SimDuration>,
    /// Mean nominal playback bitrate over the counted chunks, Mbps.
    pub mean_bitrate_mbps: f64,
    /// Number of level changes between consecutive counted chunks.
    pub switches: u64,
    /// Chunks per level (index = level).
    pub level_histogram: Vec<usize>,
    /// Chunks counted (after any warm-up skip).
    pub chunks: usize,
}

impl QoeSummary {
    /// Summarize a player's playback and the `levels` its chunks were
    /// fetched at, in order, skipping the first `skip_fraction` of
    /// chunks — the paper reports "the last 80% chunks, when the player
    /// is in its steady state" (§7.3), i.e. `skip_fraction = 0.2`.
    pub fn from_player(
        video: &Video,
        player: &Player,
        levels: impl ExactSizeIterator<Item = usize>,
        skip_fraction: f64,
    ) -> Self {
        assert!((0.0..1.0).contains(&skip_fraction), "skip in [0,1)");
        let skip = (levels.len() as f64 * skip_fraction).floor() as usize;
        let counted = levels.len().saturating_sub(skip);

        let mut histogram = vec![0usize; video.n_levels()];
        let mut switches = 0u64;
        let mut bitrate_sum = 0.0;
        let mut prev_level: Option<usize> = None;
        for level in levels.skip(skip) {
            histogram[level] += 1;
            bitrate_sum += video.bitrate(level).as_mbps_f64();
            if let Some(p) = prev_level {
                if p != level {
                    switches += 1;
                }
            }
            prev_level = Some(level);
        }
        QoeSummary {
            stalls: player.stalls(),
            stall_time: player.stall_time(),
            startup_delay: player.startup_delay(),
            mean_bitrate_mbps: if counted == 0 {
                0.0
            } else {
                bitrate_sum / counted as f64
            },
            switches,
            level_histogram: histogram,
            chunks: counted,
        }
    }

    /// Relative playback-bitrate change versus `baseline` (positive =
    /// this summary is *lower*, i.e. a reduction — the sign convention of
    /// the paper's Figure 10).
    pub fn bitrate_reduction_vs(&self, baseline: &QoeSummary) -> f64 {
        if baseline.mean_bitrate_mbps <= 0.0 {
            return 0.0;
        }
        (baseline.mean_bitrate_mbps - self.mean_bitrate_mbps) / baseline.mean_bitrate_mbps
    }
}

/// Normalized QoE score in the style of the PIE/FQ-PIE streaming-quality
/// analysis: the three time-resolved signals that paper evaluates AQM
/// disciplines by (rebuffer ratio, mean bitrate, switch rate), folded
/// into one composite in `[0, 100]`.
///
/// The composite is
/// `100 · clamp(bitrate/max − rebuffer_ratio − 0.25 · switches/chunks, 0, 1)`:
/// full marks for streaming the top rung with no stalls, a one-to-one
/// penalty for the fraction of wall time spent rebuffering (the
/// dominant QoE factor in every streaming study), and a quarter-weight
/// penalty per switch-per-chunk (switches annoy but don't halt
/// playback). All inputs are ratios, so scores are comparable across
/// sessions, epochs, and fleets of different sizes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QoeScore {
    /// Stalled time / (played + stalled) time, in `[0, 1]`.
    pub rebuffer_ratio: f64,
    /// Mean nominal bitrate of the counted chunks, Mbps.
    pub mean_bitrate_mbps: f64,
    /// Level switches per minute of session time.
    pub switch_rate_per_min: f64,
    /// The composite score in `[0, 100]` (0 when nothing played).
    pub composite: f64,
}

impl QoeScore {
    fn build(
        rebuffer_ratio: f64,
        mean_bitrate_mbps: f64,
        switches: u64,
        chunks: u64,
        duration: SimDuration,
        max_bitrate_mbps: f64,
    ) -> Self {
        let minutes = duration.as_secs_f64() / 60.0;
        let switch_frac = switches as f64 / chunks.max(1) as f64;
        let bitrate_frac = if max_bitrate_mbps > 0.0 {
            mean_bitrate_mbps / max_bitrate_mbps
        } else {
            0.0
        };
        let composite = if chunks == 0 {
            0.0
        } else {
            100.0 * (bitrate_frac - rebuffer_ratio - 0.25 * switch_frac).clamp(0.0, 1.0)
        };
        QoeScore {
            rebuffer_ratio,
            mean_bitrate_mbps,
            switch_rate_per_min: if minutes > 0.0 {
                switches as f64 / minutes
            } else {
                0.0
            },
            composite,
        }
    }

    /// Whole-session score from a [`QoeSummary`]. `duration` is the
    /// session's virtual span (first request to last event) and
    /// `max_bitrate_mbps` the ladder's top rung, which anchors the
    /// bitrate term.
    pub fn compute(summary: &QoeSummary, duration: SimDuration, max_bitrate_mbps: f64) -> Self {
        let total = duration.as_secs_f64();
        let rebuffer = if total > 0.0 {
            (summary.stall_time.as_secs_f64() / total).clamp(0.0, 1.0)
        } else {
            0.0
        };
        QoeScore::build(
            rebuffer,
            summary.mean_bitrate_mbps,
            summary.switches,
            summary.chunks as u64,
            duration,
            max_bitrate_mbps,
        )
    }

    /// Per-epoch score from telemetry counters: chunk completions,
    /// their summed nominal bitrate (kbps), level switches, and stalled
    /// milliseconds inside one epoch of width `epoch`.
    pub fn from_epoch(
        chunks: u64,
        bitrate_kbps_sum: u64,
        switches: u64,
        stall_ms: u64,
        epoch: SimDuration,
        max_bitrate_mbps: f64,
    ) -> Self {
        let epoch_ms = epoch.as_millis_f64();
        let rebuffer = if epoch_ms > 0.0 {
            (stall_ms as f64 / epoch_ms).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let mean_bitrate_mbps = if chunks > 0 {
            bitrate_kbps_sum as f64 / chunks as f64 / 1000.0
        } else {
            0.0
        };
        QoeScore::build(
            rebuffer,
            mean_bitrate_mbps,
            switches,
            chunks,
            epoch,
            max_bitrate_mbps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::SimTime;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// A player fed one chunk a second, summarized at `levels`.
    fn summarize(levels: &[usize], skip_fraction: f64) -> QoeSummary {
        let v = Video::big_buck_bunny();
        let mut p = Player::new(&v, SimDuration::from_secs(40));
        for i in 0..levels.len() {
            p.on_chunk_complete(t(i as f64));
        }
        QoeSummary::from_player(&v, &p, levels.iter().copied(), skip_fraction)
    }

    #[test]
    fn histogram_and_switches() {
        let q = summarize(&[0, 0, 1, 1, 2, 1], 0.0);
        assert_eq!(q.chunks, 6);
        assert_eq!(q.level_histogram, vec![2, 3, 1, 0, 0]);
        assert_eq!(q.switches, 3);
    }

    #[test]
    fn skip_fraction_drops_warmup() {
        let q = summarize(&[0, 0, 4, 4, 4, 4, 4, 4, 4, 4], 0.2);
        assert_eq!(q.chunks, 8);
        assert_eq!(q.level_histogram[0], 0, "warm-up excluded");
        assert!((q.mean_bitrate_mbps - 3.94).abs() < 1e-9);
        assert_eq!(q.switches, 0);
    }

    #[test]
    fn bitrate_reduction_sign_convention() {
        let high = summarize(&[4, 4, 4, 4], 0.0);
        let low = summarize(&[3, 3, 3, 3], 0.0);
        let red = low.bitrate_reduction_vs(&high);
        assert!(red > 0.0, "lower bitrate = positive reduction");
        // (3.94-2.41)/3.94 ≈ 0.388 — the paper's "29%" style figure is in
        // this regime for oscillation-vs-locked comparisons.
        assert!((red - (3.94 - 2.41) / 3.94).abs() < 1e-9);
        let inc = high.bitrate_reduction_vs(&low);
        assert!(inc < 0.0, "higher bitrate = negative reduction (increase)");
    }

    #[test]
    fn empty_history_is_safe() {
        let q = summarize(&[], 0.2);
        assert_eq!(q.chunks, 0);
        assert_eq!(q.mean_bitrate_mbps, 0.0);
    }

    #[test]
    fn perfect_session_scores_one_hundred() {
        let q = summarize(&[4, 4, 4, 4], 0.0);
        let s = QoeScore::compute(&q, SimDuration::from_secs(16), 3.94);
        assert_eq!(s.composite, 100.0);
        assert_eq!(s.rebuffer_ratio, 0.0);
        assert_eq!(s.switch_rate_per_min, 0.0);
    }

    #[test]
    fn rebuffering_and_switching_cost_points() {
        let q = summarize(&[4, 3, 4, 3], 0.0);
        // 3 switches over 4 chunks; mean bitrate (2·3.94 + 2·2.41)/4.
        let s = QoeScore::compute(&q, SimDuration::from_secs(60), 3.94);
        let bitrate_frac = ((3.94 + 2.41) / 2.0) / 3.94;
        let want = 100.0 * (bitrate_frac - 0.25 * 3.0 / 4.0);
        assert!((s.composite - want).abs() < 1e-9);
        assert!((s.switch_rate_per_min - 3.0).abs() < 1e-9);
    }

    #[test]
    fn epoch_score_matches_session_score_on_uniform_signals() {
        // One chunk at 1000 kbps, no switches, 500 ms stalled in a 2 s
        // epoch: rebuffer ratio 0.25, bitrate frac 0.5 of a 2 Mbps top.
        let s = QoeScore::from_epoch(1, 1000, 0, 500, SimDuration::from_secs(2), 2.0);
        assert!((s.rebuffer_ratio - 0.25).abs() < 1e-9);
        assert!((s.mean_bitrate_mbps - 1.0).abs() < 1e-9);
        assert!((s.composite - 25.0).abs() < 1e-9);
    }

    #[test]
    fn idle_epoch_scores_zero() {
        let s = QoeScore::from_epoch(0, 0, 0, 0, SimDuration::from_secs(2), 2.0);
        assert_eq!(s.composite, 0.0);
    }
}
