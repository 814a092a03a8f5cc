//! A small metrics registry: named counters and log-scale histograms
//! with **deterministic** ordering and serialization.
//!
//! Determinism is the design constraint everything here serves: metric
//! names keep insertion order (no `HashMap` iteration order leaking
//! into artifacts), histogram buckets are powers of two (no float
//! boundary computation), and the JSON encoding reuses the byte-stable
//! [`Json`] writer. A [`MetricsSnapshot`] can therefore live inside a
//! session report and the experiment artifacts without breaking the
//! batch runner's byte-identity checks.

use mpdash_results::Json;

/// A power-of-two histogram: bucket `i` counts observations in
/// `[2^i, 2^(i+1))`, with 0 landing in bucket 0.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl LogHistogram {
    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let bucket = (64 - value.max(1).leading_zeros() - 1) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold `other` into `self`. Bucket counts and totals are `u64`
    /// sums, so merging is associative and commutative down to the bit
    /// — the property the epoch-rollup shard merge relies on. (`sum`
    /// saturates; at the saturation boundary order could matter, but a
    /// simulation would overflow virtual time long before 2^64 bytes.)
    pub fn merge(&mut self, other: &LogHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Forget every observation, keeping the bucket allocation.
    pub(crate) fn clear(&mut self) {
        self.buckets.clear();
        self.count = 0;
        self.sum = 0;
    }

    /// Drop the bucket room past the highest bucket observed.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.buckets.shrink_to_fit();
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Freeze into `(bucket lower bound, count)` pairs with empty
    /// buckets elided.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (1u64 << i, n))
                .collect(),
        }
    }
}

/// A counter of one [`MetricsRegistry`], from
/// [`MetricsRegistry::counter`]. Only meaningful on that registry.
#[derive(Clone, Copy, Debug)]
pub struct MetricCounter(usize);

/// A histogram of one [`MetricsRegistry`], from
/// [`MetricsRegistry::histogram`]. Only meaningful on that registry.
#[derive(Clone, Copy, Debug)]
pub struct MetricHistogram(usize);

/// A handle's row in its registry's `Vec` before its first write.
const UNREGISTERED: usize = usize::MAX;

/// `name`'s row in `rows`, appended at `T::default()` if it has none.
fn row_of<T: Default>(rows: &mut Vec<(String, T)>, name: &str) -> usize {
    rows.iter().position(|(k, _)| k == name).unwrap_or_else(|| {
        rows.push((name.to_string(), T::default()));
        rows.len() - 1
    })
}

/// Handle `h`'s row in `rows`: remembered, or found by name on its first
/// write.
#[inline]
fn handle_row<T: Default>(
    handles: &mut [(&'static str, usize)],
    rows: &mut Vec<(String, T)>,
    h: usize,
) -> usize {
    let (name, row) = handles[h];
    if row != UNREGISTERED {
        return row;
    }
    handles[h].1 = row_of(rows, name);
    handles[h].1
}

/// Mutable registry filled during a run. By-name lookups are linear
/// over a small `Vec` — sessions register a dozen names, not thousands —
/// which buys insertion-ordered, hash-free determinism. A per-packet
/// writer resolves a [`MetricCounter`] / [`MetricHistogram`] once and
/// then pays an index, not a string search. Either way a name enters
/// the registry — and takes its place in the snapshot's order — when it
/// is first *written*, never when a handle is resolved.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, LogHistogram)>,
    /// Per handle: its name and its row in `counters`, [`UNREGISTERED`]
    /// until its first write.
    counter_handles: Vec<(&'static str, usize)>,
    histogram_handles: Vec<(&'static str, usize)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to the named counter, creating it at zero first.
    pub fn add(&mut self, name: &str, n: u64) {
        let row = row_of(&mut self.counters, name);
        self.counters[row].1 += n;
    }

    /// Increment the named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Record `value` into the named log-scale histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        let row = row_of(&mut self.histograms, name);
        self.histograms[row].1.observe(value);
    }

    /// A handle for the named counter. Registers nothing: the counter
    /// appears in the snapshot once [`Self::counter_add`] first writes it.
    pub fn counter(&mut self, name: &'static str) -> MetricCounter {
        self.counter_handles.push((name, UNREGISTERED));
        MetricCounter(self.counter_handles.len() - 1)
    }

    /// A handle for the named histogram; see [`Self::counter`].
    pub fn histogram(&mut self, name: &'static str) -> MetricHistogram {
        self.histogram_handles.push((name, UNREGISTERED));
        MetricHistogram(self.histogram_handles.len() - 1)
    }

    /// [`Self::add`] through a handle.
    #[inline]
    pub fn counter_add(&mut self, c: MetricCounter, n: u64) {
        let row = handle_row(&mut self.counter_handles, &mut self.counters, c.0);
        self.counters[row].1 += n;
    }

    /// [`Self::observe`] through a handle.
    #[inline]
    pub fn histogram_observe(&mut self, h: MetricHistogram, value: u64) {
        let row = handle_row(&mut self.histogram_handles, &mut self.histograms, h.0);
        self.histograms[row].1.observe(value);
    }

    /// Freeze into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Frozen histogram: `(bucket lower bound, count)` pairs, empty buckets
/// elided, plus totals for mean computation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// `(2^i, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

/// An immutable, ordered snapshot of a [`MetricsRegistry`], suitable
/// for embedding in reports and byte-stable artifacts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Named counters in registration order.
    pub counters: Vec<(String, u64)>,
    /// Named histograms in registration order.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// True when nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Deterministic JSON encoding:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {"count", "sum", "buckets": [[lo, n], ...]}}}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            // No gauge was ever set; the empty object stays because the
            // artifacts' bytes are pinned.
            ("gauges", Json::Obj(Vec::new())),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            (
                                k.clone(),
                                Json::obj([
                                    ("count", Json::from(h.count)),
                                    ("sum", Json::from(h.sum)),
                                    (
                                        "buckets",
                                        Json::arr(h.buckets.iter().map(|&(lo, n)| {
                                            Json::arr([Json::from(lo), Json::from(n)])
                                        })),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_keep_insertion_order() {
        let mut m = MetricsRegistry::new();
        m.inc("zebra");
        m.inc("apple");
        m.add("zebra", 2);
        let s = m.snapshot();
        assert_eq!(s.counters, vec![("zebra".into(), 3), ("apple".into(), 1)]);
    }

    #[test]
    fn log_histogram_buckets_are_powers_of_two() {
        let mut m = MetricsRegistry::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            m.observe("chunk_ms", v);
        }
        let s = m.snapshot();
        let h = &s.histograms[0].1;
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        // 0 and 1 → bucket 1<<0; 2,3 → 1<<1; 4 → 1<<2; 1000 → 1<<9.
        assert_eq!(h.buckets, vec![(1, 2), (2, 2), (4, 1), (512, 1)]);
    }

    #[test]
    fn snapshot_json_is_byte_stable() {
        let mut m = MetricsRegistry::new();
        m.inc("chunks");
        m.observe("bytes", 300_000);
        let a = m.snapshot().to_json().to_pretty();
        let b = m.snapshot().to_json().to_pretty();
        assert_eq!(a, b);
        assert!(a.contains("\"chunks\""));
        assert!(a.contains("\"gauges\": {}"), "{a}");
    }
}
