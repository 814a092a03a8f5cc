//! Deterministic epoch time-series rollups: the fleet-scale telemetry
//! layer.
//!
//! A raw trace (PR 3) answers "what happened to this one session"; the
//! ROADMAP's mega-fleet experiments need "what was the fleet doing at
//! minute three". This module rolls per-session signals up into fixed
//! **virtual-time epochs**: epoch `i` of an [`EpochSeries`] covers
//! `[i·E, (i+1)·E)` where `E` is the configured epoch width. Each epoch
//! holds named counters and log₂ histograms — deliberately *only*
//! `u64`-valued aggregates, because the whole design hinges on
//! [`EpochSeries::merge`] being associative **and** commutative down to
//! the bit: shard-local series produced on any `MPDASH_WORKERS`
//! interleaving must combine into byte-identical fleet series. Integer
//! addition gives that for free; float accumulation (gauges, means)
//! would not, so float-valued signals are observed into histograms
//! (count + sum recover the mean deterministically).
//!
//! Names inside an epoch are kept **sorted**, not insertion-ordered
//! like [`MetricsRegistry`](crate::MetricsRegistry): two sessions that
//! touch the same signals in different orders must still serialize
//! identically after a merge, whichever series was the merge target.
//!
//! Everything is timestamped with [`SimTime`] — virtual time — so the
//! rollup is observe-only and byte-invariant under wall-clock jitter,
//! worker count, and whether any other observer is attached.

use crate::metrics::LogHistogram;
use mpdash_results::Json;
use mpdash_sim::{SimDuration, SimTime};
use std::sync::OnceLock;

/// Telemetry configuration: the epoch width of every series in a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Epoch width (must be non-zero).
    pub epoch: SimDuration,
}

impl TelemetrySpec {
    /// A spec with the given epoch width.
    ///
    /// # Panics
    /// If the epoch is zero — an epoch index would divide by zero.
    pub fn new(epoch: SimDuration) -> Self {
        assert!(!epoch.is_zero(), "telemetry epoch must be > 0");
        TelemetrySpec { epoch }
    }

    /// A spec with an epoch of `secs` seconds.
    pub fn seconds(secs: f64) -> Self {
        TelemetrySpec::new(SimDuration::from_secs_f64(secs))
    }
}

impl Default for TelemetrySpec {
    /// One-second epochs — fine-grained enough for per-chunk dynamics,
    /// coarse enough that a long fleet run stays a few hundred cells.
    fn default() -> Self {
        TelemetrySpec {
            epoch: SimDuration::from_secs(1),
        }
    }
}

/// The telemetry spec selected by `MPDASH_TELEMETRY`, resolved once per
/// process (the same pattern as [`Tracer::from_env`](crate::Tracer::from_env)):
///
/// * unset / `""` / `"0"` / `"off"` — `None` (telemetry disabled);
/// * a positive number — epoch width in (possibly fractional) seconds;
/// * `"1"` is therefore the natural "just turn it on" value: one-second
///   epochs.
///
/// An unparseable value degrades to disabled with a warning on stderr —
/// telemetry must never turn a working run into a failing one. Sessions
/// whose config carries no explicit [`TelemetrySpec`] fall back to this,
/// which is how CI proves artifacts are byte-identical with telemetry
/// on vs off without touching any experiment binary.
pub fn telemetry_from_env() -> Option<TelemetrySpec> {
    static ENV_TELEMETRY: OnceLock<Option<TelemetrySpec>> = OnceLock::new();
    *ENV_TELEMETRY.get_or_init(|| {
        let raw = std::env::var("MPDASH_TELEMETRY").unwrap_or_default();
        match raw.trim() {
            "" | "0" | "off" => None,
            v => match v.parse::<f64>() {
                Ok(secs) if secs > 0.0 && secs.is_finite() => Some(TelemetrySpec::seconds(secs)),
                _ => {
                    eprintln!(
                        "warning: unusable MPDASH_TELEMETRY value '{v}' \
                         (expected off|0|<epoch seconds>); telemetry disabled"
                    );
                    None
                }
            },
        }
    })
}

/// One epoch's rollup: sorted named counters and log₂ histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochCell {
    /// `(name, total)` sorted by name.
    counters: Vec<(String, u64)>,
    /// `(name, histogram)` sorted by name.
    histograms: Vec<(String, LogHistogram)>,
}

impl EpochCell {
    fn add(&mut self, name: &str, n: u64) {
        match self
            .counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
        {
            Ok(i) => self.counters[i].1 += n,
            Err(i) => self.counters.insert(i, (name.to_string(), n)),
        }
    }

    fn observe(&mut self, name: &str, value: u64) {
        match self
            .histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
        {
            Ok(i) => self.histograms[i].1.observe(value),
            Err(i) => {
                let mut h = LogHistogram::default();
                h.observe(value);
                self.histograms.insert(i, (name.to_string(), h));
            }
        }
    }

    /// Counter value by name (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// Histogram by name, if any value was observed this epoch.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map(|i| &self.histograms[i].1)
            .ok()
    }

    fn merge(&mut self, other: &EpochCell) {
        for (name, n) in &other.counters {
            self.add(name, *n);
        }
        for (name, h) in &other.histograms {
            match self
                .histograms
                .binary_search_by(|(k, _)| k.as_str().cmp(name.as_str()))
            {
                Ok(i) => self.histograms[i].1.merge(h),
                Err(i) => self.histograms.insert(i, (name.clone(), h.clone())),
            }
        }
    }

    fn to_json(&self) -> Json {
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
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            let s = h.snapshot();
                            (
                                k.clone(),
                                Json::obj([
                                    ("count", Json::from(s.count)),
                                    ("sum", Json::from(s.sum)),
                                    (
                                        "buckets",
                                        Json::arr(s.buckets.iter().map(|&(lo, n)| {
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

/// A dense series of [`EpochCell`]s over virtual time, from epoch 0 up
/// to the last epoch that recorded anything. See the module docs for
/// the merge-determinism contract.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSeries {
    epoch: SimDuration,
    cells: Vec<EpochCell>,
}

impl EpochSeries {
    /// An empty series with the spec's epoch width.
    pub fn new(spec: TelemetrySpec) -> Self {
        assert!(!spec.epoch.is_zero(), "telemetry epoch must be > 0");
        EpochSeries {
            epoch: spec.epoch,
            cells: Vec::new(),
        }
    }

    /// The epoch width.
    pub fn epoch_len(&self) -> SimDuration {
        self.epoch
    }

    /// The epoch index covering virtual time `t`.
    pub fn index_of(&self, t: SimTime) -> usize {
        (t.as_nanos() / self.epoch.as_nanos()) as usize
    }

    fn cell_at(&mut self, t: SimTime) -> &mut EpochCell {
        let i = self.index_of(t);
        if self.cells.len() <= i {
            self.cells.resize(i + 1, EpochCell::default());
        }
        &mut self.cells[i]
    }

    /// Add `n` to the named counter in `t`'s epoch.
    pub fn add(&mut self, t: SimTime, name: &str, n: u64) {
        self.cell_at(t).add(name, n);
    }

    /// Increment the named counter in `t`'s epoch.
    pub fn inc(&mut self, t: SimTime, name: &str) {
        self.add(t, name, 1);
    }

    /// Record `value` into the named log₂ histogram in `t`'s epoch.
    pub fn observe(&mut self, t: SimTime, name: &str, value: u64) {
        self.cell_at(t).observe(name, value);
    }

    /// Number of epochs (index of the last touched epoch + 1).
    pub fn n_epochs(&self) -> usize {
        self.cells.len()
    }

    /// Iterate `(epoch index, cell)`.
    pub fn cells(&self) -> impl Iterator<Item = (usize, &EpochCell)> {
        self.cells.iter().enumerate()
    }

    /// The named counter summed over all epochs.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.cells.iter().map(|c| c.counter(name)).sum()
    }

    /// Merge `other` into `self`, epoch by epoch. Associative and
    /// commutative (counters and histogram buckets are `u64` sums), so
    /// shard-local series combine bit-identically in any order.
    ///
    /// # Panics
    /// If the epoch widths differ — merging misaligned series would
    /// silently smear signals across time.
    pub fn merge(&mut self, other: &EpochSeries) {
        assert_eq!(
            self.epoch, other.epoch,
            "cannot merge series with different epoch widths"
        );
        if self.cells.len() < other.cells.len() {
            self.cells.resize(other.cells.len(), EpochCell::default());
        }
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            mine.merge(theirs);
        }
    }

    /// Deterministic JSON encoding: the epoch width plus one object per
    /// epoch, dense from epoch 0, names sorted. Byte-stable under the
    /// merge contract: however a series was sharded and recombined, the
    /// same underlying events produce the same bytes.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("epoch_s", Json::Float(self.epoch.as_secs_f64())),
            ("epochs", Json::arr(self.cells.iter().map(|c| c.to_json()))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn series(s: &EpochSeries, name: &str) -> Vec<u64> {
        s.cells().map(|(_, c)| c.counter(name)).collect()
    }

    fn spec2() -> TelemetrySpec {
        TelemetrySpec::new(SimDuration::from_secs(2))
    }

    #[test]
    fn events_land_in_their_epoch() {
        let mut s = EpochSeries::new(spec2());
        s.inc(t(0), "chunks");
        s.inc(t(1), "chunks"); // still epoch 0: [0, 2)
        s.inc(t(2), "chunks"); // epoch 1
        s.add(t(5), "chunks", 3); // epoch 2
        assert_eq!(series(&s, "chunks"), vec![2, 1, 3]);
        assert_eq!(s.counter_total("chunks"), 6);
        assert_eq!(s.n_epochs(), 3);
    }

    #[test]
    fn untouched_epochs_are_dense_zeros() {
        let mut s = EpochSeries::new(spec2());
        s.inc(t(9), "x"); // epoch 4; 0..=3 exist but are empty
        assert_eq!(series(&s, "x"), vec![0, 0, 0, 0, 1]);
        assert_eq!(s.cells[0], EpochCell::default());
    }

    #[test]
    fn names_serialize_sorted_regardless_of_insertion_order() {
        let mut a = EpochSeries::new(spec2());
        a.inc(t(0), "zebra");
        a.inc(t(0), "apple");
        let mut b = EpochSeries::new(spec2());
        b.inc(t(0), "apple");
        b.inc(t(0), "zebra");
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    }

    #[test]
    fn merge_is_commutative_bitwise() {
        let mut a = EpochSeries::new(spec2());
        a.inc(t(0), "chunks");
        a.observe(t(3), "buffer_ms", 900);
        let mut b = EpochSeries::new(spec2());
        b.add(t(4), "chunks", 2);
        b.observe(t(3), "buffer_ms", 40_000);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json().to_pretty(), ba.to_json().to_pretty());
        assert_eq!(series(&ab, "chunks"), vec![1, 0, 2]);
        assert_eq!(ab.cells[1].histogram("buffer_ms").unwrap().count(), 2);
    }

    #[test]
    #[should_panic(expected = "different epoch widths")]
    fn merging_misaligned_series_panics() {
        let mut a = EpochSeries::new(spec2());
        let b = EpochSeries::new(TelemetrySpec::default());
        a.merge(&b);
    }

    #[test]
    fn env_unset_means_disabled() {
        // The test harness never sets MPDASH_TELEMETRY.
        assert_eq!(telemetry_from_env(), None);
    }
}
