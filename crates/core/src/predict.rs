//! Throughput prediction.
//!
//! The paper's kernel module estimates per-subflow throughput with the
//! **non-seasonal Holt-Winters predictor** — double exponential smoothing
//! with a trend term — because it is "more robust than other approaches
//! such as EWMA for non-stationary processes" (§6, citing He et al.,
//! SIGCOMM '05). Both predictors are implemented here; the EWMA one feeds
//! the ablation benches.
//!
//! [`ThroughputSampler`] converts raw packet-arrival byte counts into
//! fixed-slot rate samples (the paper uses one slot per RTT, §7.2.2).

use mpdash_sim::{Rate, SimDuration, SimTime};

/// A one-step-ahead throughput predictor over a stream of rate samples.
pub trait Predictor {
    /// Ingest the next observed sample.
    fn observe(&mut self, sample: Rate);
    /// Current one-step-ahead forecast, or `None` before any observation.
    fn forecast(&self) -> Option<Rate>;
    /// Drop all state (used when a path goes idle long enough that old
    /// samples say nothing about the future).
    fn reset(&mut self);
}

impl Predictor for Box<dyn Predictor> {
    fn observe(&mut self, sample: Rate) {
        (**self).observe(sample)
    }
    fn forecast(&self) -> Option<Rate> {
        (**self).forecast()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

/// Which predictor the MP-DASH control plane runs — the paper argues for
/// Holt-Winters over EWMA (§6); [`PredictorKind::Ewma`] exists for the
/// ablation benches.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PredictorKind {
    /// Non-seasonal Holt-Winters with the given (α, β).
    HoltWinters {
        /// Level smoothing factor.
        alpha: f64,
        /// Trend smoothing factor.
        beta: f64,
    },
    /// Plain EWMA with the given α.
    Ewma {
        /// Smoothing factor.
        alpha: f64,
    },
}

impl PredictorKind {
    /// The control-plane default: Holt-Winters with moderate smoothing
    /// (see `mpdash-core::api` for the rationale).
    pub fn control_default() -> Self {
        PredictorKind::HoltWinters {
            alpha: 0.5,
            beta: 0.2,
        }
    }

    /// Instantiate.
    pub fn build(self) -> Box<dyn Predictor> {
        match self {
            PredictorKind::HoltWinters { alpha, beta } => Box::new(HoltWinters::new(alpha, beta)),
            PredictorKind::Ewma { alpha } => Box::new(EwmaPredictor::new(alpha)),
        }
    }
}

/// Non-seasonal Holt-Winters (double exponential smoothing with trend).
///
/// ```text
/// level_t = α·x_t + (1−α)·(level_{t−1} + trend_{t−1})
/// trend_t = β·(level_t − level_{t−1}) + (1−β)·trend_{t−1}
/// forecast = max(0, level_t + trend_t)
/// ```
///
/// Defaults α = 0.8, β = 0.3 follow the heavily-level-weighted settings
/// He et al. found effective for TCP throughput series; both are
/// configurable for sensitivity studies.
#[derive(Clone, Debug)]
pub struct HoltWinters {
    alpha: f64,
    beta: f64,
    level: Option<f64>, // Mbps
    trend: f64,         // Mbps per step
}

impl HoltWinters {
    /// Predictor with explicit smoothing parameters.
    ///
    /// # Panics
    /// If either parameter is outside `(0, 1]`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta in (0,1]");
        HoltWinters {
            alpha,
            beta,
            level: None,
            trend: 0.0,
        }
    }
}

impl Default for HoltWinters {
    fn default() -> Self {
        HoltWinters::new(0.8, 0.3)
    }
}

impl Predictor for HoltWinters {
    fn observe(&mut self, sample: Rate) {
        let x = sample.as_mbps_f64();
        match self.level {
            None => {
                self.level = Some(x);
                self.trend = 0.0;
            }
            Some(prev_level) => {
                let level = self.alpha * x + (1.0 - self.alpha) * (prev_level + self.trend);
                self.trend = self.beta * (level - prev_level) + (1.0 - self.beta) * self.trend;
                self.level = Some(level);
            }
        }
    }

    fn forecast(&self) -> Option<Rate> {
        self.level
            .map(|l| Rate::from_mbps_f64((l + self.trend).max(0.0)))
    }

    fn reset(&mut self) {
        self.level = None;
        self.trend = 0.0;
    }
}

/// Exponentially weighted moving average — the baseline the paper argues
/// Holt-Winters improves on; kept for the predictor-ablation bench.
#[derive(Clone, Debug)]
pub struct EwmaPredictor {
    alpha: f64,
    level: Option<f64>,
}

impl EwmaPredictor {
    /// EWMA with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
        EwmaPredictor { alpha, level: None }
    }
}

impl Default for EwmaPredictor {
    fn default() -> Self {
        EwmaPredictor::new(0.5)
    }
}

impl Predictor for EwmaPredictor {
    fn observe(&mut self, sample: Rate) {
        let x = sample.as_mbps_f64();
        self.level = Some(match self.level {
            None => x,
            Some(l) => self.alpha * x + (1.0 - self.alpha) * l,
        });
    }

    fn forecast(&self) -> Option<Rate> {
        self.level.map(Rate::from_mbps_f64)
    }

    fn reset(&mut self) {
        self.level = None;
    }
}

/// Turns packet-arrival byte counts into fixed-slot rate samples and feeds
/// them to a predictor.
///
/// The paper samples one slot per RTT (§7.2.2); the session layer picks
/// the slot width. Slots with zero bytes are still samples — a stalled
/// path must drag the estimate down, or the scheduler would keep trusting
/// a dead WiFi link (exactly the blackout case of Table 2's "Miss?"
/// column).
#[derive(Clone, Debug)]
pub struct ThroughputSampler<P: Predictor> {
    predictor: P,
    /// `predictor.forecast()`, refreshed whenever the predictor's state
    /// moves (a slot closes, a reset): it is read per path on every
    /// delivered packet, far more often than it changes.
    forecast: Option<Rate>,
    slot: SimDuration,
    slot_start: SimTime,
    bytes_in_slot: u64,
    /// Most recent completed-slot measurement (not the forecast).
    last_sample: Option<Rate>,
    /// After a re-anchor, suppress slot emission until the first bytes
    /// arrive: the request round-trip and connection ramp-up before the
    /// first delivery are not evidence of a slow path, and counting them
    /// as zero-throughput slots would spuriously collapse the estimate at
    /// every chunk start. Mid-transfer silence (after bytes have flowed)
    /// IS evidence — a blackout — and still emits zero slots.
    awaiting_first_bytes: bool,
}

impl<P: Predictor> ThroughputSampler<P> {
    /// Sampler with the given slot width.
    ///
    /// # Panics
    /// If `slot` is zero.
    pub fn new(predictor: P, slot: SimDuration) -> Self {
        assert!(!slot.is_zero(), "slot width must be positive");
        ThroughputSampler {
            forecast: predictor.forecast(),
            predictor,
            slot,
            slot_start: SimTime::ZERO,
            bytes_in_slot: 0,
            last_sample: None,
            awaiting_first_bytes: false,
        }
    }

    /// Record `bytes` arriving at `t`. Closes any elapsed slots first
    /// (emitting one sample per slot, zeros included).
    pub fn on_bytes(&mut self, t: SimTime, bytes: u64) {
        if self.awaiting_first_bytes {
            // First delivery since the re-anchor: measurement starts now.
            self.awaiting_first_bytes = false;
            self.slot_start = self.slot_start.max(t);
        }
        self.roll_to(t);
        self.bytes_in_slot += bytes;
    }

    /// Advance the slot clock to `t` without new bytes (call before
    /// reading a forecast so idle time is accounted).
    pub fn roll_to(&mut self, t: SimTime) {
        if self.awaiting_first_bytes {
            // No deliveries yet since the re-anchor: slide the slot clock
            // forward without emitting (see field docs).
            self.slot_start = self.slot_start.max(t);
            return;
        }
        while t.saturating_since(self.slot_start) >= self.slot {
            let secs = self.slot.as_secs_f64();
            let mbps = self.bytes_in_slot as f64 * 8.0 / secs / 1e6;
            let sample = Rate::from_mbps_f64(mbps);
            self.predictor.observe(sample);
            self.last_sample = Some(sample);
            self.bytes_in_slot = 0;
            self.slot_start += self.slot;
            self.forecast = self.predictor.forecast();
        }
    }

    /// Current forecast from the underlying predictor.
    pub fn forecast(&self) -> Option<Rate> {
        self.forecast
    }

    /// Re-anchor the slot clock at `t` while *keeping* predictor state.
    /// Used across application-idle gaps (player buffer full): the gap is
    /// by design, not zero throughput, so the previous transfer's estimate
    /// carries over to seed the next one.
    pub fn reanchor(&mut self, t: SimTime) {
        self.slot_start = t;
        self.bytes_in_slot = 0;
        self.awaiting_first_bytes = true;
    }

    /// Reset predictor state and slot accumulation, re-anchoring the slot
    /// clock at `t`. Used when a transfer starts after a long idle gap.
    pub fn reset_at(&mut self, t: SimTime) {
        self.predictor.reset();
        self.forecast = self.predictor.forecast();
        self.bytes_in_slot = 0;
        self.slot_start = t;
        self.last_sample = None;
        self.awaiting_first_bytes = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(m: f64) -> Rate {
        Rate::from_mbps_f64(m)
    }

    #[test]
    fn hw_converges_on_constant_series() {
        let mut hw = HoltWinters::default();
        for _ in 0..50 {
            hw.observe(mbps(3.8));
        }
        let f = hw.forecast().unwrap().as_mbps_f64();
        assert!((f - 3.8).abs() < 1e-6, "forecast {f}");
    }

    #[test]
    fn hw_tracks_linear_trend() {
        let mut hw = HoltWinters::default();
        // Ramp 1.0, 1.1, ..., 3.0 Mbps.
        for i in 0..21 {
            hw.observe(mbps(1.0 + 0.1 * i as f64));
        }
        let f = hw.forecast().unwrap().as_mbps_f64();
        // One-step-ahead of a clean ramp ending at 3.0 is ≈ 3.1; EWMA
        // would lag below 3.0.
        assert!(f > 3.0, "trend-aware forecast {f} should lead the series");
        assert!(f < 3.4, "forecast {f} should not wildly overshoot");
    }

    #[test]
    fn ewma_lags_a_trend() {
        let mut ew = EwmaPredictor::default();
        for i in 0..21 {
            ew.observe(mbps(1.0 + 0.1 * i as f64));
        }
        let f = ew.forecast().unwrap().as_mbps_f64();
        assert!(f < 3.0, "EWMA {f} lags the ramp — the paper's motivation");
    }

    #[test]
    fn hw_never_forecasts_negative() {
        let mut hw = HoltWinters::default();
        // Steep collapse creates a negative trend.
        for v in [10.0, 8.0, 4.0, 1.0, 0.0, 0.0, 0.0] {
            hw.observe(mbps(v));
        }
        let f = hw.forecast().unwrap();
        assert!(f.as_mbps_f64() >= 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut hw = HoltWinters::default();
        hw.observe(mbps(5.0));
        assert!(hw.forecast().is_some());
        hw.reset();
        assert!(hw.forecast().is_none());
    }

    #[test]
    #[should_panic(expected = "alpha in (0,1]")]
    fn invalid_params_rejected() {
        let _ = HoltWinters::new(0.0, 0.5);
    }

    #[test]
    fn sampler_emits_one_sample_per_slot() {
        let mut s = ThroughputSampler::new(HoltWinters::default(), SimDuration::from_millis(50));
        // 25 kB within the first 50 ms slot = 4 Mbps.
        s.on_bytes(SimTime::from_millis(10), 12_500);
        s.on_bytes(SimTime::from_millis(40), 12_500);
        assert!(s.last_sample.is_none(), "slot not closed yet");
        s.roll_to(SimTime::from_millis(50));
        let m = s.last_sample.unwrap().as_mbps_f64();
        assert!((m - 4.0).abs() < 1e-9, "sample {m}");
    }

    #[test]
    fn sampler_counts_idle_slots_as_zero() {
        let mut s = ThroughputSampler::new(HoltWinters::default(), SimDuration::from_millis(50));
        for i in 0..20 {
            s.on_bytes(SimTime::from_millis(i * 50 + 10), 25_000);
        }
        let busy = s.forecast().unwrap().as_mbps_f64();
        assert!(busy > 3.5);
        // One second of silence: forecast must collapse.
        s.roll_to(SimTime::from_millis(20 * 50).max(SimTime::ZERO) + SimDuration::from_secs(1));
        let idle = s.forecast().unwrap().as_mbps_f64();
        assert!(idle < 0.5, "idle forecast {idle} should collapse");
    }

    #[test]
    fn sampler_reset_reanchors() {
        let mut s = ThroughputSampler::new(HoltWinters::default(), SimDuration::from_millis(50));
        s.on_bytes(SimTime::from_millis(10), 99_000);
        s.reset_at(SimTime::from_secs(10));
        assert!(s.forecast().is_none());
        // Measurement resumes with the first delivery (10.02 s); the slot
        // clock snaps there, so the sample closes at 10.07 s.
        s.on_bytes(SimTime::from_millis(10_020), 25_000);
        s.roll_to(SimTime::from_millis(10_050));
        assert!(s.last_sample.is_none(), "slot not complete yet");
        s.roll_to(SimTime::from_millis(10_070));
        assert!((s.last_sample.unwrap().as_mbps_f64() - 4.0).abs() < 1e-9);
    }
}
