//! Model-predictive rate adaptation (Yin et al., SIGCOMM '15), the hybrid
//! class the paper sketches MP-DASH support for in §5.2.3 and defers to
//! future work — implemented here as an extension.
//!
//! Each decision solves a small horizon problem: enumerate level sequences
//! for the next [`Mpc::HORIZON`] chunks, simulate the buffer under the
//! throughput prediction (harmonic mean of recent chunks, as fastMPC
//! does), and score them with the standard QoE objective
//!
//! ```text
//! Σ q(R_k)  −  λ Σ |q(R_k) − q(R_{k−1})|  −  μ · rebuffer_seconds
//! ```
//!
//! with `q` the bitrate in Mbps, λ = 1 and μ = 8 × top-rate (harsh on
//! stalls, as in the original). The first level of the best sequence is
//! played; the horizon re-solves every chunk (receding horizon).

use super::AbrInput;
use crate::video::Video;
use std::collections::VecDeque;

/// MPC state: the throughput sample window.
#[derive(Clone, Debug)]
pub struct Mpc {
    samples: VecDeque<f64>,
}

impl Mpc {
    /// Lookahead horizon, in chunks.
    pub(crate) const HORIZON: usize = 5;
    /// Throughput window for the harmonic-mean prediction.
    pub(crate) const WINDOW: usize = 5;
    /// Switching penalty weight λ.
    pub(crate) const LAMBDA: f64 = 1.0;

    /// A new instance.
    pub(crate) fn new() -> Self {
        Mpc {
            samples: VecDeque::with_capacity(Self::WINDOW),
        }
    }

    fn prediction(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let denom: f64 = self.samples.iter().map(|&s| 1.0 / s.max(1e-9)).sum();
        Some(self.samples.len() as f64 / denom)
    }

    /// Score one candidate sequence by simulating buffer evolution.
    fn score(
        video: &Video,
        seq: &[usize],
        mut buffer: f64,
        capacity: f64,
        pred_mbps: f64,
        prev_level: usize,
        mu: f64,
    ) -> f64 {
        let chunk_secs = video.chunk_duration().as_secs_f64();
        let mut utility = 0.0;
        let mut last = prev_level;
        for &lvl in seq {
            let rate = video.bitrate(lvl).as_mbps_f64();
            // Nominal download time of one chunk at `lvl` under the
            // prediction (future chunk sizes are unknown → use nominal).
            let dl = chunk_secs * rate / pred_mbps.max(1e-9);
            let rebuf = (dl - buffer).max(0.0);
            buffer = (buffer - dl).max(0.0) + chunk_secs;
            buffer = buffer.min(capacity);
            let q = rate;
            let q_last = video.bitrate(last).as_mbps_f64();
            utility += q - Self::LAMBDA * (q - q_last).abs() - mu * rebuf;
            last = lvl;
        }
        utility
    }

    /// Choose the quality level for the next chunk.
    pub(crate) fn select(&mut self, video: &Video, input: &AbrInput) -> usize {
        if let Some(rate) = input.throughput_signal() {
            if self.samples.len() == Self::WINDOW {
                self.samples.pop_front();
            }
            self.samples.push_back(rate.as_mbps_f64());
        }
        let Some(pred) = self.prediction() else {
            return 0;
        };
        let n_levels = video.n_levels();
        let prev = input.last_level.unwrap_or(0);
        let mu = 8.0 * video.bitrate(n_levels - 1).as_mbps_f64();
        let buffer = input.buffer.as_secs_f64();
        let capacity = input.buffer_capacity.as_secs_f64();

        // Enumerate all level sequences of length HORIZON (5^5 = 3125 for
        // a five-level ladder — small enough to brute-force, which is the
        // "solve the optimization directly" variant; the paper's table-
        // driven fastMPC precomputes the same answers).
        let mut best = (f64::NEG_INFINITY, 0usize);
        let total = n_levels.pow(Self::HORIZON as u32);
        let mut seq = [0usize; Self::HORIZON];
        for code in 0..total {
            let mut c = code;
            for slot in seq.iter_mut() {
                *slot = c % n_levels;
                c /= n_levels;
            }
            let s = Self::score(video, &seq, buffer, capacity, pred, prev, mu);
            if s > best.0 {
                best = (s, seq[0]);
            }
        }
        best.1
    }
}

impl Default for Mpc {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::{Rate, SimDuration};

    fn input(buffer: f64, last: Option<usize>, tput: f64) -> AbrInput {
        AbrInput {
            buffer: SimDuration::from_secs_f64(buffer),
            buffer_capacity: SimDuration::from_secs(40),
            last_level: last,
            last_chunk_throughput: Some(Rate::from_mbps_f64(tput)),
            override_throughput: None,
        }
    }

    #[test]
    fn starts_low() {
        let v = Video::big_buck_bunny();
        let mut m = Mpc::new();
        let lvl = m.select(
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
    fn rich_network_full_buffer_goes_high() {
        let v = Video::big_buck_bunny();
        let mut m = Mpc::new();
        let mut lvl = 0;
        for _ in 0..8 {
            lvl = m.select(&v, &input(30.0, Some(lvl), 10.0));
        }
        assert_eq!(lvl, 4);
    }

    #[test]
    fn poor_network_low_buffer_stays_low() {
        let v = Video::big_buck_bunny();
        let mut m = Mpc::new();
        let lvl = m.select(&v, &input(2.0, Some(0), 0.7));
        assert_eq!(lvl, 0, "rebuffer risk dominates");
    }

    #[test]
    fn switching_penalty_smooths_transitions() {
        let v = Video::big_buck_bunny();
        let mut m = Mpc::new();
        // From level 0 with a rich network and a healthy buffer MPC climbs,
        // but the λ-penalty makes it prefer stepping over jumping when the
        // gain is marginal. With high buffer + high prediction the end
        // state is the top level either way.
        let mut lvl = 0;
        let mut seen = vec![];
        for _ in 0..6 {
            lvl = m.select(&v, &input(25.0, Some(lvl), 6.0));
            seen.push(lvl);
        }
        assert_eq!(*seen.last().unwrap(), 4);
    }

    #[test]
    fn buffer_protects_against_transient_dip() {
        let v = Video::big_buck_bunny();
        let mut m = Mpc::new();
        // Warm up at high throughput.
        let mut lvl = 0;
        for _ in 0..6 {
            lvl = m.select(&v, &input(35.0, Some(lvl), 6.0));
        }
        assert_eq!(lvl, 4);
        // One bad sample with a fat buffer: harmonic mean dips but the
        // buffer keeps the level from collapsing to the floor immediately.
        lvl = m.select(&v, &input(35.0, Some(lvl), 1.5));
        assert!(lvl >= 2, "buffer cushions the dip, got {lvl}");
    }
}
