//! Video metadata: representations, chunk sizing, and the Table 3 dataset.
//!
//! A DASH video is split into fixed-playout-duration chunks, each encoded
//! at every quality level. Real encodings are variable-bitrate: a chunk's
//! byte size wobbles around `bitrate × duration`. We reproduce that with a
//! deterministic per-(video, chunk, level) size factor drawn uniformly
//! from `[1−v, 1+v]` via a hash — the wobble is what makes the paper's
//! duration-based and rate-based deadline settings genuinely different
//! (§5.1: a larger-than-nominal chunk gets a longer window under the
//! rate-based scheme).

use mpdash_sim::{Rate, SimDuration};

/// Default VBR variability: sizes uniform in ±25% of nominal.
pub const DEFAULT_VBR_SPREAD: f64 = 0.25;

/// A DASH video: quality ladder + chunking.
#[derive(Clone, Debug)]
pub struct Video {
    name: String,
    /// Average encoding bitrate per level, ascending.
    levels: Vec<Rate>,
    chunk_duration: SimDuration,
    n_chunks: usize,
    vbr_spread: f64,
    seed: u64,
}

impl Video {
    /// Construct a video.
    ///
    /// # Panics
    /// If `levels` is empty or not strictly ascending, `chunk_duration`
    /// is zero, or `n_chunks` is zero.
    pub fn new(
        name: impl Into<String>,
        levels_mbps: &[f64],
        chunk_duration: SimDuration,
        n_chunks: usize,
    ) -> Self {
        assert!(!levels_mbps.is_empty(), "need at least one level");
        assert!(
            levels_mbps.windows(2).all(|w| w[0] < w[1]),
            "levels must be strictly ascending"
        );
        assert!(!chunk_duration.is_zero(), "chunk duration must be positive");
        assert!(n_chunks > 0, "need at least one chunk");
        let name = name.into();
        let seed = name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        });
        Video {
            name,
            levels: levels_mbps
                .iter()
                .map(|&m| Rate::from_mbps_f64(m))
                .collect(),
            chunk_duration,
            n_chunks,
            vbr_spread: DEFAULT_VBR_SPREAD,
            seed,
        }
    }

    /// Table 3, "Big Buck Bunny": 0.58 / 1.01 / 1.47 / 2.41 / 3.94 Mbps,
    /// 10 minutes of 4-second chunks.
    pub fn big_buck_bunny() -> Self {
        Video::new(
            "Big Buck Bunny",
            &[0.58, 1.01, 1.47, 2.41, 3.94],
            SimDuration::from_secs(4),
            150,
        )
    }

    /// Table 3, "Red Bull Playstreets".
    pub fn red_bull_playstreets() -> Self {
        Video::new(
            "Red Bull Playstreets",
            &[0.50, 0.89, 1.50, 2.47, 3.99],
            SimDuration::from_secs(4),
            150,
        )
    }

    /// Table 3, "Tears of Steel".
    pub fn tears_of_steel() -> Self {
        Video::new(
            "Tears of Steel",
            &[0.50, 0.81, 1.51, 2.42, 4.01],
            SimDuration::from_secs(4),
            150,
        )
    }

    /// Table 3, "Tears of Steel HD" (10 Mbps top rate — the §7.3.5
    /// experiment where even WiFi+LTE cannot sustain the highest level).
    pub fn tears_of_steel_hd() -> Self {
        Video::new(
            "Tears of Steel HD",
            &[1.51, 2.42, 4.01, 6.03, 10.0],
            SimDuration::from_secs(4),
            150,
        )
    }

    /// The video's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of quality levels.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.n_chunks
    }

    /// Playout duration of every chunk.
    pub fn chunk_duration(&self) -> SimDuration {
        self.chunk_duration
    }

    /// Total playout duration.
    pub fn total_duration(&self) -> SimDuration {
        self.chunk_duration * self.n_chunks as u64
    }

    /// Average encoding bitrate of `level`.
    pub fn bitrate(&self, level: usize) -> Rate {
        self.levels[level]
    }

    /// All level bitrates, ascending.
    pub fn bitrates(&self) -> &[Rate] {
        &self.levels
    }

    /// The highest level whose bitrate does not exceed `rate`, or level 0
    /// if none fits (the common "highest sustainable level" query).
    pub fn highest_level_at_most(&self, rate: Rate) -> usize {
        self.levels.iter().rposition(|&b| b <= rate).unwrap_or(0)
    }

    /// Deterministic VBR size factor for `(chunk, level)` in
    /// `[1−spread, 1+spread]`.
    fn size_factor(&self, index: usize, level: usize) -> f64 {
        // SplitMix64 over (seed, index, level) for a uniform-ish factor.
        let mut z = self
            .seed
            .wrapping_add((index as u64).wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add((level as u64 + 1).wrapping_mul(0xBF58476D1CE4E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        1.0 - self.vbr_spread + 2.0 * self.vbr_spread * unit
    }

    /// Concrete byte size of chunk `index` at `level`.
    ///
    /// # Panics
    /// If `index` or `level` is out of range.
    pub fn chunk_size(&self, index: usize, level: usize) -> u64 {
        assert!(index < self.n_chunks, "chunk index out of range");
        let nominal = self.levels[level].bytes_in(self.chunk_duration) as f64;
        (nominal * self.size_factor(index, level)).round() as u64
    }

    /// Total bytes of the whole video at a fixed `level`.
    pub fn total_bytes_at(&self, level: usize) -> u64 {
        (0..self.n_chunks).map(|i| self.chunk_size(i, level)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_ladders() {
        let v = Video::big_buck_bunny();
        assert_eq!(v.n_levels(), 5);
        assert_eq!(v.n_chunks(), 150);
        assert_eq!(v.chunk_duration(), SimDuration::from_secs(4));
        assert_eq!(v.total_duration(), SimDuration::from_secs(600));
        assert!((v.bitrate(4).as_mbps_f64() - 3.94).abs() < 1e-9);
        let hd = Video::tears_of_steel_hd();
        assert!((hd.bitrate(4).as_mbps_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn chunk_sizes_center_on_nominal() {
        let v = Video::big_buck_bunny();
        let nominal = v.bitrate(4).bytes_in(v.chunk_duration()) as f64;
        let mean = (0..v.n_chunks())
            .map(|i| v.chunk_size(i, 4) as f64)
            .sum::<f64>()
            / v.n_chunks() as f64;
        assert!(
            (mean / nominal - 1.0).abs() < 0.05,
            "mean {mean} vs nominal {nominal}"
        );
        // Sizes actually vary (VBR).
        let min = (0..v.n_chunks()).map(|i| v.chunk_size(i, 4)).min().unwrap();
        let max = (0..v.n_chunks()).map(|i| v.chunk_size(i, 4)).max().unwrap();
        assert!(max > min, "VBR must produce varying sizes");
        // Within the configured spread.
        assert!(min as f64 >= nominal * (1.0 - DEFAULT_VBR_SPREAD) - 1.0);
        assert!(max as f64 <= nominal * (1.0 + DEFAULT_VBR_SPREAD) + 1.0);
    }

    #[test]
    fn sizes_are_deterministic() {
        let a = Video::big_buck_bunny();
        let b = Video::big_buck_bunny();
        for i in 0..150 {
            assert_eq!(a.chunk_size(i, 2), b.chunk_size(i, 2));
        }
        // Different videos get different size patterns.
        let c = Video::tears_of_steel();
        assert_ne!(
            (0..10).map(|i| a.chunk_size(i, 2)).collect::<Vec<_>>(),
            (0..10).map(|i| c.chunk_size(i, 2)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cbr_mode_is_exact() {
        let v = Video {
            vbr_spread: 0.0,
            ..Video::big_buck_bunny()
        };
        let nominal = v.bitrate(1).bytes_in(v.chunk_duration());
        for i in 0..10 {
            assert_eq!(v.chunk_size(i, 1), nominal);
        }
    }

    #[test]
    fn highest_level_at_most_queries() {
        let v = Video::big_buck_bunny();
        assert_eq!(v.highest_level_at_most(Rate::from_mbps_f64(10.0)), 4);
        assert_eq!(v.highest_level_at_most(Rate::from_mbps_f64(3.4)), 3);
        assert_eq!(v.highest_level_at_most(Rate::from_mbps_f64(1.0)), 0);
        assert_eq!(v.highest_level_at_most(Rate::ZERO), 0, "floor at lowest");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_ladder_rejected() {
        let _ = Video::new("x", &[2.0, 1.0], SimDuration::from_secs(4), 10);
    }
}
