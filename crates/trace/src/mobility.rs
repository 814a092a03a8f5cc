//! The §7.3.4 mobility scenario: walking a fixed loop around a WiFi AP.
//!
//! The paper's Figure 11 shows WiFi throughput swinging between ~5 Mbps
//! (near the AP) and a deep fade (far side of the loop) roughly once a
//! minute, while the LTE link holds steady at ~5 Mbps. The profile here
//! is that shape: a raised-cosine path-loss sweep with mild
//! multiplicative noise, looping forever.

use crate::synth::SynthSpec;
use mpdash_link::{BandwidthProfile, LinkConfig};
use mpdash_sim::{Rate, SimDuration};

/// Walk parameters.
#[derive(Clone, Copy, Debug)]
pub struct MobilityWalk {
    /// Peak WiFi bandwidth next to the AP, Mbps.
    pub peak_mbps: f64,
    /// Minimum WiFi bandwidth at the far point, Mbps.
    pub trough_mbps: f64,
    /// Time for one full loop around the AP.
    pub lap: SimDuration,
    /// Steady LTE bandwidth, Mbps.
    pub lte_mbps: f64,
    /// Noise seed.
    pub seed: u64,
}

impl Default for MobilityWalk {
    fn default() -> Self {
        MobilityWalk {
            peak_mbps: 5.5,
            trough_mbps: 1.2,
            lap: SimDuration::from_secs(60),
            lte_mbps: 5.0,
            seed: 77,
        }
    }
}

impl MobilityWalk {
    /// The WiFi profile: raised cosine over the lap with ±10% noise,
    /// sampled at 250 ms.
    pub(crate) fn wifi_profile(&self) -> BandwidthProfile {
        let slot = SimDuration::from_millis(250);
        let n = (self.lap.as_nanos() / slot.as_nanos()).max(2) as usize;
        // Noise comes from a synthetic helper trace around 1.0.
        let noise = SynthSpec::new(1.0, 0.10, self.seed)
            .with_duration(self.lap)
            .samples();
        let samples: Vec<Rate> = (0..n)
            .map(|i| {
                let phase = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                let sweep = 0.5 * (1.0 + phase.cos()); // 1 at AP, 0 far side
                let base = self.trough_mbps + (self.peak_mbps - self.trough_mbps) * sweep;
                let k = noise
                    .get(i % noise.len())
                    .map(|r| r.as_mbps_f64())
                    .unwrap_or(1.0);
                Rate::from_mbps_f64(base * k)
            })
            .collect();
        BandwidthProfile::from_samples(slot, &samples, true)
    }

    /// The LTE profile: steady with mild commercial-network noise.
    pub(crate) fn lte_profile(&self) -> BandwidthProfile {
        SynthSpec::new(self.lte_mbps, 0.10, self.seed ^ 0xABCD).profile()
    }

    /// Link configurations (typical 30 ms WiFi RTT while moving, 60 ms
    /// LTE RTT).
    pub fn links(&self) -> (LinkConfig, LinkConfig) {
        (
            LinkConfig::constant(1.0, SimDuration::from_millis(15))
                .with_profile(self.wifi_profile()),
            LinkConfig::constant(1.0, SimDuration::from_millis(30))
                .with_profile(self.lte_profile()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::SimTime;

    #[test]
    fn wifi_swings_between_peak_and_trough() {
        let w = MobilityWalk::default();
        let p = w.wifi_profile();
        let vals: Vec<f64> = (0..240)
            .map(|i| p.rate_at(SimTime::from_millis(i * 250)).as_mbps_f64())
            .collect();
        let max = vals.iter().cloned().fold(0.0, f64::max);
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 4.5, "peak {max}");
        assert!(min < 1.6, "trough {min}");
    }

    #[test]
    fn profile_loops_with_the_lap_period() {
        let w = MobilityWalk::default();
        let p = w.wifi_profile();
        let a = p.rate_at(SimTime::from_millis(7_250));
        let b = p.rate_at(SimTime::from_millis(7_250 + 60_000));
        assert_eq!(a, b);
    }

    #[test]
    fn lte_stays_steady() {
        let w = MobilityWalk::default();
        let p = w.lte_profile();
        let vals: Vec<f64> = (0..1000)
            .map(|i| p.rate_at(SimTime::from_millis(i * 100)).as_mbps_f64())
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean / 5.0 - 1.0).abs() < 0.08, "lte mean {mean}");
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > 2.5, "lte never collapses: {min}");
    }
}
