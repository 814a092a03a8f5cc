//! Buffer-Based Adaptation (Huang et al., SIGCOMM '14) — BBA-2 — and the
//! paper's cellular-friendly variant BBA-C (§5.2.2).
//!
//! BBA's core is the **chunk map**: a piecewise-linear function `f(B)`
//! from buffer occupancy to bitrate, anchored at the lowest level below a
//! `reservoir` and at the highest level above a `cushion`. The selected
//! level follows the map with hysteresis: step up only when `f(B)` reaches
//! the *next* level's bitrate, step down only when it falls below the
//! *current* level's. That hysteresis notwithstanding, when the network
//! capacity sits between two encoding bitrates BBA oscillates between
//! them (the paper's Figure 3): the buffer grows at the lower level,
//! crosses the up-threshold, drains at the higher level, and falls back.
//!
//! **BBA-C** adds one rule (the paper's §5.2.2 fix): never select a level
//! whose bitrate exceeds the measured MPTCP throughput. With MP-DASH this
//! uses the aggregate override, so the cap reflects the true multipath
//! capacity.

use super::AbrInput;
use crate::video::Video;
use mpdash_sim::SimDuration;

/// The BBA chunk map: buffer-occupancy thresholds per level.
#[derive(Clone, Debug)]
pub struct BbaMap {
    /// Lower reservoir: below this, always the lowest level.
    reservoir: SimDuration,
    /// Upper anchor: at or above this, the highest level.
    cushion_top: SimDuration,
    /// Level bitrates (Mbps), ascending.
    rates: Vec<f64>,
}

impl BbaMap {
    /// Build the map for `video` with a buffer of `capacity`.
    /// Reservoir = 25% of capacity; the map reaches the top rate at 55%
    /// of capacity — the proportion implied by the paper's §5.2.2 example
    /// (top level's buffer range starting at 20 s of a ~40 s buffer).
    /// This is also what makes BBA "aggressive": it occupies the highest
    /// level from mid-buffer onward.
    pub(crate) fn new(video: &Video, capacity: SimDuration) -> Self {
        BbaMap {
            reservoir: capacity.mul_f64(0.25),
            cushion_top: capacity.mul_f64(0.55),
            rates: video.bitrates().iter().map(|r| r.as_mbps_f64()).collect(),
        }
    }

    /// The map `f(B)`: linear from the lowest to the highest bitrate
    /// across the cushion.
    pub(crate) fn rate_at(&self, buffer: SimDuration) -> f64 {
        let lo = self.rates[0];
        let hi = *self.rates.last().unwrap();
        if buffer <= self.reservoir {
            return lo;
        }
        if buffer >= self.cushion_top {
            return hi;
        }
        let span = (self.cushion_top - self.reservoir).as_secs_f64();
        let x = (buffer - self.reservoir).as_secs_f64();
        lo + (hi - lo) * x / span
    }

    /// Inverse of the map: the buffer level at which `f(B)` reaches
    /// `rate` (clamped into the cushion).
    fn buffer_for_rate(&self, rate: f64) -> SimDuration {
        let lo = self.rates[0];
        let hi = *self.rates.last().unwrap();
        if rate <= lo {
            return self.reservoir;
        }
        if rate >= hi {
            return self.cushion_top;
        }
        let span = (self.cushion_top - self.reservoir).as_secs_f64();
        let x = (rate - lo) / (hi - lo) * span;
        self.reservoir + SimDuration::from_secs_f64(x)
    }

    /// The buffer-occupancy range `[e_l, e_h)` in which the map holds
    /// `level` (the Ω inputs of §5.2.2).
    pub(crate) fn level_range(&self, level: usize) -> (SimDuration, SimDuration) {
        let el = self.buffer_for_rate(self.rates[level]);
        let eh = if level + 1 < self.rates.len() {
            self.buffer_for_rate(self.rates[level + 1])
        } else {
            SimDuration::MAX
        };
        (el, eh)
    }

    /// Apply the map with BBA's hysteresis, given the current level.
    pub(crate) fn select(&self, buffer: SimDuration, current: usize) -> usize {
        let f = self.rate_at(buffer);
        // Step up while the map reaches the next level's rate.
        let mut level = current;
        while level + 1 < self.rates.len() && f >= self.rates[level + 1] {
            level += 1;
        }
        // Step down while the map is below the current level's rate.
        while level > 0 && f < self.rates[level] {
            level -= 1;
        }
        level
    }
}

/// BBA-2, optionally with the BBA-C throughput cap.
#[derive(Clone, Debug)]
pub struct Bba {
    map: Option<BbaMap>,
    /// BBA-C: cap the selection at the measured throughput.
    cellular_friendly: bool,
    /// BBA-2 startup phase: active until the buffer first enters the
    /// cushion (or the map would pick below the current level).
    startup: bool,
    /// Buffer level at the previous decision, for the startup Δ-buffer
    /// rule.
    prev_buffer: SimDuration,
}

impl Bba {
    /// `cellular_friendly = true` builds BBA-C.
    pub(crate) fn new(_video: &Video, cellular_friendly: bool) -> Self {
        Bba {
            map: None,
            cellular_friendly,
            startup: true,
            prev_buffer: SimDuration::ZERO,
        }
    }

    fn ensure_map(&mut self, video: &Video, capacity: SimDuration) -> &BbaMap {
        if self.map.is_none() {
            self.map = Some(BbaMap::new(video, capacity));
        }
        self.map.as_ref().unwrap()
    }

    /// Choose the quality level for the next chunk.
    pub(crate) fn select(&mut self, video: &Video, input: &AbrInput) -> usize {
        let cellular_friendly = self.cellular_friendly;
        let map = self.ensure_map(video, input.buffer_capacity);
        let current = input.last_level.unwrap_or(0);
        let map_level = map.select(input.buffer, current);

        // BBA-2 startup: while the steady-state map would hold the player
        // at the floor (empty-ish buffer), ramp by the Δ-buffer rule —
        // step up one level whenever the previous chunk downloaded fast
        // enough that the buffer grew by more than ~⅛ of its playout
        // time. Startup ends when the map takes over (its choice reaches
        // the ramped level) or the buffer stops growing.
        let mut level = if self.startup {
            let grew = input.buffer.saturating_sub(self.prev_buffer);
            let threshold = video.chunk_duration().mul_f64(0.875);
            if input.last_level.is_some() && grew < threshold {
                // The buffer stopped growing fast: the network can no
                // longer outrun playback at this level — startup is over
                // and the steady-state map takes it from here (BBA-2's
                // exit condition).
                self.startup = false;
                map_level
            } else if input.last_level.is_some() {
                let ramped = (current + 1).min(video.n_levels() - 1);
                if map_level >= ramped {
                    self.startup = false;
                    map_level
                } else {
                    ramped
                }
            } else {
                // Very first chunk: nothing measured, start at the floor.
                map_level
            }
        } else {
            map_level
        };
        self.prev_buffer = input.buffer;

        if cellular_friendly {
            // BBA-C (§5.2.2): never above the actual network capacity.
            if let Some(rate) = input.throughput_signal() {
                let cap = video.highest_level_at_most(rate);
                level = level.min(cap);
            }
        }
        level
    }

    /// The chunk map's `[e_l, e_h)` for `level`, once the first selection
    /// has built the map.
    pub(crate) fn level_buffer_range(&self, level: usize) -> Option<(SimDuration, SimDuration)> {
        self.map.as_ref().map(|m| m.level_range(level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::Rate;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    fn input(buffer: f64, last_level: Option<usize>, tput: Option<f64>) -> AbrInput {
        AbrInput {
            buffer: secs(buffer),
            buffer_capacity: secs(40.0),
            last_level,
            last_chunk_throughput: tput.map(Rate::from_mbps_f64),
            override_throughput: None,
        }
    }

    #[test]
    fn map_anchors() {
        let v = Video::big_buck_bunny();
        let m = BbaMap::new(&v, secs(40.0));
        // Below reservoir (10 s): lowest rate.
        assert_eq!(m.rate_at(secs(5.0)), 0.58);
        // At/above cushion top (36 s): highest rate.
        assert_eq!(m.rate_at(secs(36.0)), 3.94);
        assert_eq!(m.rate_at(secs(40.0)), 3.94);
        // Monotone in between.
        assert!(m.rate_at(secs(20.0)) < m.rate_at(secs(30.0)));
    }

    #[test]
    fn low_buffer_picks_lowest() {
        let v = Video::big_buck_bunny();
        let mut b = Bba::new(&v, false);
        assert_eq!(b.select(&v, &input(2.0, None, None)), 0);
    }

    #[test]
    fn full_buffer_picks_highest() {
        let v = Video::big_buck_bunny();
        let mut b = Bba::new(&v, false);
        assert_eq!(b.select(&v, &input(38.0, Some(3), None)), 4);
    }

    #[test]
    fn map_bands_bound_the_selection() {
        let v = Video::big_buck_bunny();
        let m = BbaMap::new(&v, secs(40.0));
        // Just below level 3's band the map yields level 2; just above,
        // level 3 — regardless of the previous level.
        let (el3, _) = m.level_range(3);
        let just_below = el3 - SimDuration::from_millis(500);
        let just_above = el3 + SimDuration::from_millis(500);
        for current in 0..v.n_levels() {
            assert_eq!(m.select(just_below, current), 2);
            assert_eq!(m.select(just_above, current), 3);
        }
        let (el4, _) = m.level_range(4);
        assert_eq!(m.select(el4, 2), 4, "map at top rate climbs fully");
    }

    #[test]
    fn startup_ramps_on_buffer_growth() {
        // Fast network: each 4 s chunk downloads quickly, the buffer
        // grows by nearly a full chunk per decision, and BBA-2's startup
        // rule climbs one level per chunk instead of waiting for the
        // buffer to crawl through the reservoir.
        let v = Video::big_buck_bunny();
        let mut b = Bba::new(&v, false);
        let mut buffer = 0.0f64;
        let mut level = None;
        let mut picks = vec![];
        for _ in 0..6 {
            let l = b.select(
                &v,
                &AbrInput {
                    buffer: secs(buffer),
                    buffer_capacity: secs(40.0),
                    last_level: level,
                    last_chunk_throughput: Some(Rate::from_mbps_f64(20.0)),
                    override_throughput: None,
                },
            );
            picks.push(l);
            level = Some(l);
            buffer += 3.8; // downloads fast: ~full chunk added per pick
        }
        assert!(
            picks.windows(2).all(|w| w[1] >= w[0]),
            "monotone ramp: {picks:?}"
        );
        assert!(*picks.last().unwrap() >= 3, "ramped high: {picks:?}");
    }

    #[test]
    fn startup_holds_on_slow_networks() {
        // Slow network: the buffer barely grows; startup must not ramp.
        let v = Video::big_buck_bunny();
        let mut b = Bba::new(&v, false);
        let mut level = None;
        for i in 0..4 {
            let l = b.select(
                &v,
                &AbrInput {
                    buffer: secs(i as f64 * 0.3),
                    buffer_capacity: secs(40.0),
                    last_level: level,
                    last_chunk_throughput: Some(Rate::from_mbps_f64(0.6)),
                    override_throughput: None,
                },
            );
            assert_eq!(l, 0, "no ramp while the buffer crawls");
            level = Some(l);
        }
    }

    #[test]
    fn oscillation_between_adjacent_levels() {
        // Figure 3's mechanism, reproduced in miniature: capacity
        // R = 3.4 Mbps sits between level 3 (2.41) and level 4 (3.94).
        // Simulate crude buffer dynamics: downloading level l changes the
        // buffer at rate (R / bitrate(l) − 1) per content-second.
        let v = Video::big_buck_bunny();
        let mut b = Bba::new(&v, false);
        let capacity = 3.4; // Mbps
        let mut buffer = 20.0f64; // start mid-cushion
        let mut level = 3usize;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            level = b.select(&v, &input(buffer, Some(level), Some(capacity)));
            seen.insert(level);
            let rate = v.bitrate(level).as_mbps_f64();
            // One 4-second chunk: download time = 4·rate/capacity.
            buffer += 4.0 - 4.0 * rate / capacity;
            buffer = buffer.clamp(0.0, 40.0);
        }
        assert!(
            seen.contains(&3) && seen.contains(&4),
            "BBA oscillates between 3 and 4: saw {seen:?}"
        );
    }

    #[test]
    fn bba_c_caps_at_capacity() {
        // Same setup as the oscillation test, but BBA-C locks to level 3.
        let v = Video::big_buck_bunny();
        let mut b = Bba::new(&v, true);
        let capacity = 3.4;
        let mut buffer = 20.0f64;
        let mut level = 3usize;
        let mut above = 0;
        for i in 0..200 {
            level = b.select(&v, &input(buffer, Some(level), Some(capacity)));
            if i > 10 && level > 3 {
                above += 1;
            }
            let rate = v.bitrate(level).as_mbps_f64();
            buffer += 4.0 - 4.0 * rate / capacity;
            buffer = buffer.clamp(0.0, 40.0);
        }
        assert_eq!(above, 0, "BBA-C must never exceed the sustainable level");
        assert_eq!(level, 3);
    }

    #[test]
    fn level_ranges_are_ordered_and_cover_cushion() {
        let v = Video::big_buck_bunny();
        let m = BbaMap::new(&v, secs(40.0));
        let mut prev_el = SimDuration::ZERO;
        for lvl in 0..v.n_levels() {
            let (el, eh) = m.level_range(lvl);
            assert!(el >= prev_el, "e_l must be non-decreasing");
            assert!(eh > el);
            prev_el = el;
        }
        // Paper example shape: ranges live inside the buffer capacity.
        let (el4, _) = m.level_range(4);
        assert!(el4 <= secs(36.0));
    }
}
