//! [`Series`]: a time-stamped scalar recording, used by every experiment
//! that regenerates one of the paper's time-series figures (Figures 1, 5,
//! 6, 11) and by the analysis tool's throughput plots.

use crate::time::{SimDuration, SimTime};

/// An append-only `(time, value)` series with windowed aggregation helpers.
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// A new, empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Append a sample. Samples must be pushed in non-decreasing time
    /// order; out-of-order pushes are debug-asserted since the simulation
    /// clock is monotone.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(last, _)| t >= last),
            "series samples must be time-ordered"
        );
        self.points.push((t, v));
    }

    /// Re-bucket into fixed windows of `width`, producing per-window sums.
    ///
    /// This is how raw per-packet byte counts become the Mbps curves of the
    /// paper's throughput figures: sum bytes per window, then scale. Empty
    /// windows are emitted with a zero sum so the output is gap-free from
    /// the first to the last sample.
    pub fn bucket_sums(&self, width: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!width.is_zero(), "bucket width must be positive");
        let Some(&(first, _)) = self.points.first() else {
            return Vec::new();
        };
        let &(last, _) = self.points.last().unwrap();
        let w = width.as_nanos();
        let start_bucket = first.as_nanos() / w;
        let end_bucket = last.as_nanos() / w;
        let n = (end_bucket - start_bucket + 1) as usize;
        let mut out: Vec<(SimTime, f64)> = (0..n)
            .map(|i| (SimTime::from_nanos((start_bucket + i as u64) * w), 0.0))
            .collect();
        for &(t, v) in &self.points {
            let idx = (t.as_nanos() / w - start_bucket) as usize;
            out[idx].1 += v;
        }
        out
    }

    /// Treating the samples as byte counts, compute per-window throughput
    /// in Mbps (window sums scaled by 8 / width).
    pub fn throughput_mbps(&self, window: SimDuration) -> Vec<(SimTime, f64)> {
        let secs = window.as_secs_f64();
        self.bucket_sums(window)
            .into_iter()
            .map(|(t, bytes)| (t, bytes * 8.0 / secs / 1e6))
            .collect()
    }
}

/// Empirical CDF of a set of scalar observations, for the paper's Figures 9
/// and 10 (distributions over locations/experiments).
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    values: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// An empty distribution.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Add one observation. Non-finite values are rejected with a debug
    /// assertion and skipped in release builds.
    pub fn push(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "CDF observation must be finite");
        if v.is_finite() {
            self.values.push(v);
            self.sorted = false;
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
            self.sorted = true;
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Quantile by linear interpolation between order statistics;
    /// `q` is clamped to `[0, 1]`. `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.values[lo] * (1.0 - frac) + self.values[hi] * frac)
    }

    /// Fraction of observations `<= x`.
    pub fn fraction_at_most(&mut self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.values.partition_point(|&v| v <= x);
        n as f64 / self.values.len() as f64
    }

    /// Arithmetic mean of the observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    /// Several quantiles at once (each as [`Cdf::quantile`]), in the
    /// order requested — the summarization the structured experiment
    /// results persist instead of raw observation lists.
    pub fn quantiles(&mut self, qs: &[f64]) -> Vec<(f64, f64)> {
        qs.iter()
            .map(|&q| (q, self.quantile(q).unwrap_or(f64::NAN)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn an_empty_series_has_no_buckets() {
        let s = Series::new();
        assert!(s.bucket_sums(SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn bucketing_includes_empty_windows() {
        let mut s = Series::new();
        s.push(t(0.2), 1.0);
        s.push(t(0.3), 2.0);
        s.push(t(2.5), 4.0); // second 1 is empty
        let b = s.bucket_sums(SimDuration::from_secs(1));
        assert_eq!(b.len(), 3);
        assert_eq!(b[0].1, 3.0);
        assert_eq!(b[1].1, 0.0);
        assert_eq!(b[2].1, 4.0);
    }

    #[test]
    fn throughput_scaling() {
        // 1 MB in one 1-second window = 8 Mbps.
        let mut s = Series::new();
        s.push(t(0.5), 1_000_000.0);
        let th = s.throughput_mbps(SimDuration::from_secs(1));
        assert_eq!(th.len(), 1);
        assert!((th[0].1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_quantiles() {
        let mut c = Cdf::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            c.push(v);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.quantile(1.0), Some(4.0));
        assert_eq!(c.quantile(0.5), Some(2.5));
        assert_eq!(c.fraction_at_most(2.0), 0.5);
        assert_eq!(c.fraction_at_most(0.5), 0.0);
        assert_eq!(c.fraction_at_most(10.0), 1.0);
        assert_eq!(c.mean(), Some(2.5));
        assert_eq!(
            c.quantiles(&[0.0, 0.5, 1.0]),
            vec![(0.0, 1.0), (0.5, 2.5), (1.0, 4.0)]
        );
        assert!(Cdf::new().mean().is_none());
    }

    #[test]
    fn cdf_rejects_nan_in_release() {
        let mut c = Cdf::new();
        c.push(1.0);
        // NaN push is debug-asserted; in tests (debug) we cannot exercise
        // the skip path, so just confirm finite pushes count.
        assert_eq!(c.len(), 1);
        assert_eq!(c.quantile(0.5), Some(1.0));
    }
}
