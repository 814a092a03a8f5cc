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
//!
//! A per-packet or per-tick writer does not search a cell per write: a
//! [`SignalRecorder`](crate::SignalRecorder) keeps the open epoch's
//! writes in slots and folds them into its series once per (signal,
//! epoch). [`EpochSeries::add`] / [`EpochSeries::observe`] write by name,
//! straight into the cell.

use crate::metrics::LogHistogram;
use mpdash_results::Json;
use mpdash_sim::{SimDuration, SimTime};

/// Telemetry configuration: the epoch width of every series in a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Epoch width (must be non-zero).
    pub epoch: SimDuration,
}

impl TelemetrySpec {
    /// The finest epoch an input (`MPDASH_TELEMETRY`, a scenario's
    /// `telemetry.epoch_s`) may ask for. A series stores a cell for every
    /// epoch from its first write to its last, so a microsecond epoch is
    /// millions of empty cells a simulated second, and nothing is sampled
    /// more often than the 50 ms tick.
    pub const MIN_EPOCH: SimDuration = SimDuration::from_millis(1);

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

/// One epoch's rollup: sorted named counters and log₂ histograms. A
/// name is a `&'static str`: every signal is named by a literal, so a
/// cell stores a pointer, not a copy, per key.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochCell {
    /// `(name, total)` sorted by name.
    counters: Vec<(&'static str, u64)>,
    /// `(name, histogram)` sorted by name.
    histograms: Vec<(&'static str, LogHistogram)>,
}

/// The cell of every epoch that recorded nothing.
static EMPTY_CELL: EpochCell = EpochCell {
    counters: Vec::new(),
    histograms: Vec::new(),
};

impl EpochCell {
    pub(crate) fn add(&mut self, name: &'static str, n: u64) {
        match self.counters.binary_search_by(|(k, _)| k.cmp(&name)) {
            Ok(i) => self.counters[i].1 += n,
            Err(i) => self.counters.insert(i, (name, n)),
        }
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        match self.histograms.binary_search_by(|(k, _)| k.cmp(&name)) {
            Ok(i) => self.histograms[i].1.observe(value),
            Err(i) => {
                let mut h = LogHistogram::default();
                h.observe(value);
                self.histograms.insert(i, (name, h));
            }
        }
    }

    /// Counter value by name (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| (*k).cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// Histogram by name, if any value was observed this epoch.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms
            .binary_search_by(|(k, _)| (*k).cmp(name))
            .map(|i| &self.histograms[i].1)
            .ok()
    }

    fn merge(&mut self, other: &EpochCell) {
        for &(name, n) in &other.counters {
            self.add(name, n);
        }
        for (name, h) in &other.histograms {
            self.merge_histogram(name, h);
        }
    }

    pub(crate) fn merge_histogram(&mut self, name: &'static str, h: &LogHistogram) {
        match self.histograms.binary_search_by(|(k, _)| k.cmp(&name)) {
            Ok(i) => self.histograms[i].1.merge(h),
            Err(i) => self.histograms.insert(i, (name, h.clone())),
        }
    }

    /// Give back the room kept for keys and buckets this cell will not
    /// get: its epoch has closed.
    fn shrink_to_fit(&mut self) {
        self.counters.shrink_to_fit();
        self.histograms.shrink_to_fit();
        for (_, h) in &mut self.histograms {
            h.shrink_to_fit();
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Json::from(v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.to_string(), h.snapshot().to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The stored cells of a series: those of epochs `first..first + len`.
/// Every epoch before `first` recorded nothing, so a viewer who joins at
/// minute three stores no cell for the first three minutes.
#[derive(Clone, Debug, Default)]
struct Cells {
    /// The epoch of `cells[0]` (0 while nothing is stored).
    first: usize,
    cells: Vec<EpochCell>,
}

impl Cells {
    /// Store a cell, empty if new, for every epoch in `lo..hi` (`lo < hi`).
    fn cover(&mut self, lo: usize, hi: usize) {
        if self.cells.is_empty() {
            self.first = lo;
        } else if lo < self.first {
            let before = std::iter::repeat_with(EpochCell::default).take(self.first - lo);
            self.cells.splice(0..0, before);
            self.first = lo;
        }
        if self.cells.len() < hi - self.first {
            self.cells.resize_with(hi - self.first, EpochCell::default);
        }
    }

    /// Epoch `i`'s cell, stored from now on.
    fn at(&mut self, i: usize) -> &mut EpochCell {
        self.cover(i, i + 1);
        &mut self.cells[i - self.first]
    }

    /// Epoch `i`'s cell, if one is stored.
    fn get_mut(&mut self, i: usize) -> Option<&mut EpochCell> {
        self.cells.get_mut(i.checked_sub(self.first)?)
    }

    /// Number of epochs: the last one stored, plus one.
    fn n_epochs(&self) -> usize {
        self.first + self.cells.len()
    }

    /// Every epoch's cell from epoch 0, stored or not.
    fn dense(&self) -> impl Iterator<Item = &EpochCell> {
        std::iter::repeat_n(&EMPTY_CELL, self.first).chain(&self.cells)
    }

    /// Fold `other`'s cells into the same epochs of `self`.
    fn merge(&mut self, other: &Cells) {
        if other.cells.is_empty() {
            return;
        }
        self.cover(other.first, other.n_epochs());
        let mine = &mut self.cells[other.first - self.first..];
        for (mine, theirs) in mine.iter_mut().zip(&other.cells) {
            mine.merge(theirs);
        }
    }
}

/// A series of [`EpochCell`]s over virtual time, read as dense from
/// epoch 0 up to the last epoch that recorded anything; it stores cells
/// only from the first epoch that recorded anything on. See the module
/// docs for the merge-determinism contract.
#[derive(Clone, Debug)]
pub struct EpochSeries {
    epoch: SimDuration,
    cells: Cells,
}

impl EpochSeries {
    /// An empty series with the spec's epoch width.
    pub fn new(spec: TelemetrySpec) -> Self {
        assert!(!spec.epoch.is_zero(), "telemetry epoch must be > 0");
        EpochSeries {
            epoch: spec.epoch,
            cells: Cells::default(),
        }
    }

    /// The epoch width.
    pub fn epoch_len(&self) -> SimDuration {
        self.epoch
    }

    /// The epoch index covering virtual time `t`.
    fn index_of(&self, t: SimTime) -> usize {
        (t.as_nanos() / self.epoch.as_nanos()) as usize
    }

    /// Add `n` to the named counter in `t`'s epoch.
    pub fn add(&mut self, t: SimTime, name: &'static str, n: u64) {
        let i = self.index_of(t);
        self.cells.at(i).add(name, n);
    }

    /// Record `value` into the named log₂ histogram in `t`'s epoch.
    pub fn observe(&mut self, t: SimTime, name: &'static str, value: u64) {
        let i = self.index_of(t);
        self.cells.at(i).observe(name, value);
    }

    /// Epoch `i`'s cell, stored from now on.
    pub(crate) fn cell(&mut self, i: usize) -> &mut EpochCell {
        self.cells.at(i)
    }

    /// Size epoch `i`'s cell, if stored, to what it holds: the epoch has
    /// closed.
    pub(crate) fn close(&mut self, i: usize) {
        if let Some(cell) = self.cells.get_mut(i) {
            cell.shrink_to_fit();
        }
    }

    /// Number of epochs (index of the last touched epoch + 1).
    pub fn n_epochs(&self) -> usize {
        self.cells.n_epochs()
    }

    /// Iterate `(epoch index, cell)` from epoch 0: an epoch that recorded
    /// nothing yields an empty cell.
    pub fn cells(&self) -> impl Iterator<Item = (usize, &EpochCell)> {
        self.cells.dense().enumerate()
    }

    /// The named counter summed over all epochs.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.cells.dense().map(|c| c.counter(name)).sum()
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
        self.cells.merge(&other.cells);
    }

    /// Deterministic JSON encoding: the epoch width plus one object per
    /// epoch, dense from epoch 0, names sorted. Byte-stable under the
    /// merge contract: however a series was sharded and recombined, the
    /// same underlying events produce the same bytes.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("epoch_s", Json::Float(self.epoch.as_secs_f64())),
            (
                "epochs",
                Json::arr(self.cells.dense().map(EpochCell::to_json)),
            ),
        ])
    }
}

impl PartialEq for EpochSeries {
    /// Equal when the same things were recorded, from whichever epoch
    /// each stores its cells.
    fn eq(&self, other: &EpochSeries) -> bool {
        self.epoch == other.epoch && self.cells.dense().eq(other.cells.dense())
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
        s.add(t(0), "chunks", 1);
        s.add(t(1), "chunks", 1); // still epoch 0: [0, 2)
        s.add(t(2), "chunks", 1); // epoch 1
        s.add(t(5), "chunks", 3); // epoch 2
        assert_eq!(series(&s, "chunks"), vec![2, 1, 3]);
        assert_eq!(s.counter_total("chunks"), 6);
        assert_eq!(s.n_epochs(), 3);
    }

    #[test]
    fn untouched_epochs_are_dense_zeros() {
        let mut s = EpochSeries::new(spec2());
        s.add(t(9), "x", 1); // epoch 4; 0..=3 recorded nothing
        assert_eq!(series(&s, "x"), vec![0, 0, 0, 0, 1]);
        assert_eq!(s.n_epochs(), 5);
        let cells: Vec<(usize, &EpochCell)> = s.cells().collect();
        assert_eq!(
            cells.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert!(cells[..4].iter().all(|&(_, c)| *c == EpochCell::default()));
        let mut x = EpochCell::default();
        x.add("x", 1);
        let empty = EpochCell::default().to_json();
        let want = Json::obj([
            ("epoch_s", Json::Float(2.0)),
            (
                "epochs",
                Json::arr([
                    empty.clone(),
                    empty.clone(),
                    empty.clone(),
                    empty,
                    x.to_json(),
                ]),
            ),
        ]);
        assert_eq!(s.to_json().to_pretty(), want.to_pretty());
    }

    #[test]
    fn a_series_stores_cells_from_its_first_touched_epoch() {
        let mut s = EpochSeries::new(spec2());
        s.add(t(9), "x", 1);
        assert_eq!((s.cells.first, s.cells.cells.len()), (4, 1));
        s.add(t(3), "x", 1); // before the first stored epoch: stored back to 1
        assert_eq!((s.cells.first, s.cells.cells.len()), (1, 4));
        assert_eq!(series(&s, "x"), vec![0, 1, 0, 0, 1]);

        let mut late = EpochSeries::new(spec2());
        late.add(t(21), "x", 1); // epoch 10
        let mut merged = s.clone();
        merged.merge(&late);
        assert_eq!((merged.cells.first, merged.cells.n_epochs()), (1, 11));
        let mut other_way = late.clone();
        other_way.merge(&s);
        assert_eq!(merged, other_way);
        assert_eq!(
            merged.to_json().to_pretty(),
            other_way.to_json().to_pretty()
        );
    }

    #[test]
    fn a_closed_epochs_cell_keeps_no_spare_room() {
        use crate::{Signal, SignalRecorder};
        static TABLE: [Signal; 6] = [
            Signal::counter(None, Some("a")),
            Signal::counter(None, Some("b")),
            Signal::counter(None, Some("c")),
            Signal::counter(None, Some("d")),
            Signal::counter(None, Some("e")),
            Signal::histogram(None, Some("h")),
        ];
        let mut rec = SignalRecorder::new(&TABLE, Some(spec2()));
        for row in 0..5 {
            rec.add(t(0), row, 1);
        }
        rec.observe(t(0), 5, 1 << 20);
        rec.add(t(2), 0, 1); // closes epoch 0
        let s = rec.take_epochs().expect("telemetry on");
        let cell = &s.cells.cells[0];
        assert_eq!(cell.counters.capacity(), cell.counters.len());
        assert_eq!(cell.histograms.capacity(), 1);
        let h = &cell.histograms[0].1;
        assert_eq!(h.snapshot().buckets, [(1 << 20, 1)]);
    }

    #[test]
    fn names_serialize_sorted_regardless_of_insertion_order() {
        let mut a = EpochSeries::new(spec2());
        a.add(t(0), "zebra", 1);
        a.add(t(0), "apple", 1);
        let mut b = EpochSeries::new(spec2());
        b.add(t(0), "apple", 1);
        b.add(t(0), "zebra", 1);
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    }

    #[test]
    fn merge_is_commutative_bitwise() {
        let mut a = EpochSeries::new(spec2());
        a.add(t(0), "chunks", 1);
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
        let epoch1 = ab.cells().nth(1).unwrap().1;
        assert_eq!(epoch1.histogram("buffer_ms").unwrap().count(), 2);
    }

    #[test]
    #[should_panic(expected = "different epoch widths")]
    fn merging_misaligned_series_panics() {
        let mut a = EpochSeries::new(spec2());
        let b = EpochSeries::new(TelemetrySpec::default());
        a.merge(&b);
    }
}
