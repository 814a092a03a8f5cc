//! GPAC's built-in rate adaptation (§6 of the paper): "estimates the
//! throughput by measuring the download time of the last chunk, and
//! selects the highest encoding bitrate lower than the estimated
//! throughput". The simplest throughput-based algorithm, used as the
//! workhorse of the throttling comparison (Table 4).

use super::AbrInput;
use crate::video::Video;

/// The GPAC picker. Stateless.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gpac;

impl Gpac {
    /// A new instance.
    pub(crate) fn new() -> Self {
        Gpac
    }

    /// Choose the quality level for the next chunk.
    pub(crate) fn select(&mut self, video: &Video, input: &AbrInput) -> usize {
        match input.throughput_signal() {
            // Highest level strictly below the estimate; ties resolve to
            // the level itself ("lower than" per the paper reads as ≤ in
            // the GPAC source — we use ≤, consistent with
            // `highest_level_at_most`).
            Some(rate) => video.highest_level_at_most(rate),
            // Nothing measured yet: start at the lowest level.
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::{Rate, SimDuration};

    fn input(mbps: Option<f64>, override_mbps: Option<f64>) -> AbrInput {
        AbrInput {
            buffer: SimDuration::from_secs(10),
            buffer_capacity: SimDuration::from_secs(40),
            last_level: None,
            last_chunk_throughput: mbps.map(Rate::from_mbps_f64),
            override_throughput: override_mbps.map(Rate::from_mbps_f64),
        }
    }

    #[test]
    fn starts_at_lowest() {
        let v = Video::big_buck_bunny();
        assert_eq!(Gpac::new().select(&v, &input(None, None)), 0);
    }

    #[test]
    fn picks_highest_sustainable() {
        let v = Video::big_buck_bunny();
        // Ladder: 0.58 / 1.01 / 1.47 / 2.41 / 3.94.
        assert_eq!(Gpac::new().select(&v, &input(Some(4.5), None)), 4);
        assert_eq!(Gpac::new().select(&v, &input(Some(3.0), None)), 3);
        assert_eq!(Gpac::new().select(&v, &input(Some(1.2), None)), 1);
        assert_eq!(Gpac::new().select(&v, &input(Some(0.1), None)), 0);
    }

    #[test]
    fn mp_dash_override_wins() {
        let v = Video::big_buck_bunny();
        // App-level measurement (WiFi only, cell disabled) says 2 Mbps,
        // but the MP-DASH aggregate estimate says 6 Mbps.
        assert_eq!(Gpac::new().select(&v, &input(Some(2.0), Some(6.0))), 4);
    }
}
