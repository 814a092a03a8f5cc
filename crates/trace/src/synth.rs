//! Synthetic bandwidth profiles: seeded AR(1) noise around a mean, with
//! optional deep fades.
//!
//! The paper's synthetic profiles (Table 1) fix the mean and the standard
//! deviation of instantaneous throughput (σ = 10% or 30% of the mean). A
//! white-noise series with that σ would be unrealistically jittery at
//! 50 ms slots; real last-mile traces are *correlated* (Figure 5's traces
//! wander on second scales). We therefore use an AR(1) process
//!
//! ```text
//! x_{t+1} = mean + ρ·(x_t − mean) + ε_t,   ε ~ N(0, σ²·(1−ρ²))
//! ```
//!
//! whose stationary standard deviation is exactly σ, with ρ = 0.9 at the
//! default 50 ms slot (decorrelation time ≈ 0.5 s).

use mpdash_link::BandwidthProfile;
use mpdash_sim::{Prng, Rate, SimDuration};

/// Specification of one synthetic trace.
#[derive(Clone, Debug)]
pub struct SynthSpec {
    /// Long-run mean, Mbps.
    pub mean_mbps: f64,
    /// Stationary standard deviation as a fraction of the mean.
    pub sigma_frac: f64,
    /// Slot width (the paper uses the path RTT; 50 ms default).
    pub slot: SimDuration,
    /// Trace length; loops afterwards.
    pub duration: SimDuration,
    /// AR(1) coefficient in `[0, 1)`.
    pub rho: f64,
    /// Hard floor, Mbps (bandwidth cannot go negative; public WiFi rarely
    /// hits true zero without a fade event).
    pub floor_mbps: f64,
    /// Optional deep fades: `(probability per slot, depth factor,
    /// duration)` — e.g. `(0.002, 0.05, 2 s)` yields a couple of
    /// near-blackouts per 10-minute trace.
    pub fade: Option<(f64, f64, SimDuration)>,
    /// RNG seed.
    pub seed: u64,
}

impl SynthSpec {
    /// A stationary profile with the given mean and σ-fraction, 10 minutes
    /// long at 50 ms slots, no fades.
    pub fn new(mean_mbps: f64, sigma_frac: f64, seed: u64) -> Self {
        SynthSpec {
            mean_mbps,
            sigma_frac,
            slot: SimDuration::from_millis(50),
            duration: SimDuration::from_secs(660),
            rho: 0.9,
            floor_mbps: mean_mbps * 0.05,
            fade: None,
            seed,
        }
    }

    /// Same spec with fade events enabled.
    pub fn with_fades(mut self, prob_per_slot: f64, depth: f64, len: SimDuration) -> Self {
        self.fade = Some((prob_per_slot, depth, len));
        self
    }

    /// Same spec with a different duration.
    pub fn with_duration(mut self, d: SimDuration) -> Self {
        self.duration = d;
        self
    }

    /// Number of slots in the trace.
    pub fn n_slots(&self) -> usize {
        (self.duration.as_nanos() / self.slot.as_nanos()).max(1) as usize
    }

    /// Generate the raw per-slot rates.
    pub fn samples(&self) -> Vec<Rate> {
        self.draws().collect()
    }

    /// Generate the looping [`BandwidthProfile`], each rate written into
    /// the profile's grid as it is drawn.
    pub fn profile(&self) -> BandwidthProfile {
        BandwidthProfile::from_sample_iter(self.slot, self.draws(), true)
    }

    /// The per-slot rates, drawn lazily in slot order.
    fn draws(&self) -> impl Iterator<Item = Rate> + '_ {
        let mut rng = Prng::new(self.seed);
        let sigma = self.mean_mbps * self.sigma_frac;
        let innov_sigma = sigma * (1.0 - self.rho * self.rho).sqrt();
        let mut x = self.mean_mbps;
        let mut fade_left = 0usize;
        let mut fade_depth = 1.0;
        (0..self.n_slots()).map(move |_| {
            // Box-Muller from two uniforms; deterministic per seed.
            let u1: f64 = rng.next_f64().max(1e-12);
            let u2: f64 = rng.next_f64();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            x = self.mean_mbps + self.rho * (x - self.mean_mbps) + innov_sigma * z;
            let mut v = x.max(self.floor_mbps);
            if let Some((p, depth, len)) = self.fade {
                if fade_left > 0 {
                    fade_left -= 1;
                } else if rng.next_f64() < p {
                    fade_left = (len.as_nanos() / self.slot.as_nanos()).max(1) as usize;
                    fade_depth = depth;
                }
                if fade_left > 0 {
                    v *= fade_depth;
                }
            }
            Rate::from_mbps_f64(v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::SimTime;

    fn stats(samples: &[Rate]) -> (f64, f64) {
        let vals: Vec<f64> = samples.iter().map(|r| r.as_mbps_f64()).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn mean_and_sigma_are_respected() {
        for &(mean, frac) in &[(3.8, 0.10), (3.8, 0.30), (8.1, 0.20)] {
            let spec = SynthSpec::new(mean, frac, 42);
            let (m, s) = stats(&spec.samples());
            assert!((m / mean - 1.0).abs() < 0.05, "mean {m} target {mean}");
            let target_sigma = mean * frac;
            assert!(
                (s / target_sigma - 1.0).abs() < 0.25,
                "sigma {s} target {target_sigma}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SynthSpec::new(3.8, 0.3, 7).samples();
        let b = SynthSpec::new(3.8, 0.3, 7).samples();
        let c = SynthSpec::new(3.8, 0.3, 8).samples();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn samples_are_temporally_correlated() {
        // Lag-1 autocorrelation should be near ρ, far above white noise.
        let spec = SynthSpec::new(5.0, 0.3, 11);
        let vals: Vec<f64> = spec.samples().iter().map(|r| r.as_mbps_f64()).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let num: f64 = vals.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
        let den: f64 = vals.iter().map(|v| (v - mean).powi(2)).sum();
        let rho = num / den;
        assert!(rho > 0.7, "lag-1 autocorrelation {rho}");
    }

    #[test]
    fn floor_is_enforced() {
        let spec = SynthSpec::new(1.0, 0.9, 3); // wild σ to force clipping
        assert!(spec
            .samples()
            .iter()
            .all(|r| r.as_mbps_f64() >= 0.05 - 1e-9));
    }

    #[test]
    fn fades_produce_deep_dips() {
        let spec = SynthSpec::new(5.0, 0.1, 21).with_fades(0.01, 0.05, SimDuration::from_secs(2));
        let samples = spec.samples();
        let min = samples
            .iter()
            .map(|r| r.as_mbps_f64())
            .fold(f64::INFINITY, f64::min);
        assert!(min < 0.5, "expected a deep fade, min {min}");
        // Without fades the same seed never dips that low.
        let clean = SynthSpec::new(5.0, 0.1, 21).samples();
        let clean_min = clean
            .iter()
            .map(|r| r.as_mbps_f64())
            .fold(f64::INFINITY, f64::min);
        assert!(clean_min > 2.0, "clean min {clean_min}");
    }

    #[test]
    fn profile_loops() {
        let spec = SynthSpec::new(3.0, 0.1, 5).with_duration(SimDuration::from_secs(10));
        let p = spec.profile();
        let a = p.rate_at(SimTime::from_millis(1_234));
        let b = p.rate_at(SimTime::from_millis(11_234));
        assert_eq!(a, b, "profile repeats with its period");
    }
}
