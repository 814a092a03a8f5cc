//! [`SignalRecorder`]: one observing layer's signals, declared once.
//!
//! A layer (a session, the fleet loop, a shared bottleneck) declares one
//! `static` table with a [`Signal`] per thing it records: the name the
//! [`MetricsRegistry`] gives it, the name the telemetry epochs give it
//! (either may be absent), and whether it is a counter or a histogram.
//! Its call sites then write a row by index — [`SignalRecorder::add`],
//! [`SignalRecorder::observe`] — and the recorder puts the value in the
//! registry and, with telemetry on, in the open epoch. No call site
//! spells a name, resolves a handle or branches on telemetry.
//!
//! A row enters the registry when it is first *written*, found by name
//! so a by-name write of the same name shares its row; that first-write
//! order is the snapshot's, and `summary_json` carries it. From then on
//! a registry write is one compare and an indexed add.
//!
//! An epoch write is two compares against the open epoch's cached
//! `[lo, hi)` and an add into the row's pending slot — no division, no
//! string compare. The slots are folded into the series' sorted,
//! name-keyed cell once per (signal, epoch): when a write lands in
//! another epoch, and before the series is read or handed on. A slot
//! that was never written adds no key.

use crate::metrics::{row_of, LogHistogram, MetricsRegistry, MetricsSnapshot};
use crate::timeseries::{EpochSeries, TelemetrySpec};
use mpdash_sim::SimTime;

/// Whether a [`Signal`] sums values or buckets them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A `u64` sum.
    Counter,
    /// A log₂ histogram.
    Histogram,
}

/// One row of a layer's signal table.
#[derive(Clone, Copy, Debug)]
pub struct Signal {
    /// Its name in the registry, if the registry carries it.
    pub metric: Option<&'static str>,
    /// Its name in the epoch series, if telemetry carries it.
    pub epoch: Option<&'static str>,
    /// Counter or histogram.
    pub kind: Kind,
}

impl Signal {
    /// A counter row.
    pub const fn counter(metric: Option<&'static str>, epoch: Option<&'static str>) -> Self {
        Signal {
            metric,
            epoch,
            kind: Kind::Counter,
        }
    }

    /// A histogram row.
    pub const fn histogram(metric: Option<&'static str>, epoch: Option<&'static str>) -> Self {
        Signal {
            metric,
            epoch,
            kind: Kind::Histogram,
        }
    }
}

/// Declares a layer's signals: an enum whose variants index a `static`
/// table of [`Signal`]s, each variant beside its row, so a variant and
/// its row cannot drift apart. Each line reads
/// `Variant = counter(metric, epoch),` or `Variant = histogram(..),`;
/// the recorder writes a row as `Variant as usize`.
#[macro_export]
macro_rules! signal_table {
    ($(#[$doc:meta])* $vis:vis enum $enum:ident in $table:ident {
        $($variant:ident = $kind:ident($metric:expr, $epoch:expr),)*
    }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug)]
        $vis enum $enum {
            $($variant,)*
        }

        /// Per variant, in declaration order: its signal.
        static $table: &[$crate::Signal] = &[$($crate::Signal::$kind($metric, $epoch),)*];
    };
}

/// A row's place in the registry (or [`UNWRITTEN`], or [`ABSENT`]) and
/// its pending slot in the epoch series (or [`ABSENT`]).
#[derive(Clone, Copy, Debug)]
struct Place {
    metric: u32,
    epoch: u32,
}

/// The row has no name there.
const ABSENT: u32 = u32::MAX;
/// The row has a registry name but was never written.
const UNWRITTEN: u32 = u32::MAX - 1;

/// What one layer records: its table's rows, in a [`MetricsRegistry`]
/// and, when telemetry is on, an [`EpochSeries`]. Observe-only.
#[derive(Debug)]
pub struct SignalRecorder {
    table: &'static [Signal],
    places: Box<[Place]>,
    metrics: MetricsRegistry,
    epochs: Option<Epochs>,
}

/// The epoch series and the writes to its open epoch not yet in it.
#[derive(Clone, Debug)]
struct Epochs {
    series: EpochSeries,
    /// The open epoch, covering `[lo, hi)` ns (`lo == hi` before the
    /// first write).
    open: usize,
    lo: u64,
    hi: u64,
    /// Per counter slot: its name, whether it was written, and its sum.
    counters: Vec<(&'static str, bool, u64)>,
    /// Per histogram slot: its name and what it observed.
    histograms: Vec<(&'static str, LogHistogram)>,
}

impl Epochs {
    /// A pending slot for the named signal of `kind`. Adds no key: the
    /// name appears in an epoch only once a write lands there.
    fn slot(&mut self, name: &'static str, kind: Kind) -> u32 {
        let slot = match kind {
            Kind::Counter => self.counters.len(),
            Kind::Histogram => self.histograms.len(),
        };
        match kind {
            Kind::Counter => self.counters.push((name, false, 0)),
            Kind::Histogram => self.histograms.push((name, LogHistogram::default())),
        }
        slot as u32
    }

    /// Make `t`'s epoch the open one.
    #[inline(always)]
    fn open_at(&mut self, t: SimTime) {
        let ns = t.as_nanos();
        if ns < self.lo || ns >= self.hi {
            self.reopen(ns);
        }
    }

    /// Fold the open epoch's writes into its cell and size that cell to
    /// what it holds, then open the epoch covering `ns`.
    #[cold]
    fn reopen(&mut self, ns: u64) {
        self.flush();
        self.series.close(self.open);
        let width = self.series.epoch_len().as_nanos();
        self.open = (ns / width) as usize;
        self.lo = ns - ns % width;
        self.hi = self.lo.saturating_add(width);
    }

    /// Fold every pending write into the open epoch's cell.
    fn flush(&mut self) {
        for (name, written, n) in &mut self.counters {
            if std::mem::take(written) {
                self.series.cell(self.open).add(name, std::mem::take(n));
            }
        }
        for (name, h) in &mut self.histograms {
            if h.count() > 0 {
                self.series.cell(self.open).merge_histogram(name, h);
                h.clear();
            }
        }
    }

    /// The series, with every pending write in it.
    fn into_series(mut self) -> EpochSeries {
        self.flush();
        self.series
    }
}

impl SignalRecorder {
    /// A recorder of `table`'s rows, with telemetry if `telemetry` is set.
    pub fn new(table: &'static [Signal], telemetry: Option<TelemetrySpec>) -> Self {
        let metric = |s: &Signal| s.metric.map_or(ABSENT, |_| UNWRITTEN);
        let mut rec = SignalRecorder {
            table,
            places: (table.iter())
                .map(|s| Place {
                    metric: metric(s),
                    epoch: ABSENT,
                })
                .collect(),
            metrics: MetricsRegistry::new(),
            epochs: None,
        };
        if let Some(spec) = telemetry {
            rec.enable_telemetry(spec);
        }
        rec
    }

    /// Roll every row with an epoch name into epochs of `spec` from now
    /// on, in a new series.
    pub fn enable_telemetry(&mut self, spec: TelemetrySpec) {
        let mut epochs = Epochs {
            series: EpochSeries::new(spec),
            open: 0,
            lo: 0,
            hi: 0,
            counters: Vec::new(),
            histograms: Vec::new(),
        };
        for (place, s) in self.places.iter_mut().zip(self.table) {
            place.epoch = s.epoch.map_or(ABSENT, |name| epochs.slot(name, s.kind));
        }
        self.epochs = Some(epochs);
    }

    /// Add `n` to counter row `row` at `now`. Always inlined: a
    /// per-packet call site pays a compare and an indexed add, not a call.
    #[inline(always)]
    pub fn add(&mut self, now: SimTime, row: usize, n: u64) {
        let Place { metric, epoch } = self.places[row];
        if metric < UNWRITTEN {
            self.metrics.counters[metric as usize].1 += n;
        } else if metric == UNWRITTEN {
            let at = self.first_write(row, |m, name| row_of(&mut m.counters, name));
            self.metrics.counters[at].1 += n;
        }
        if epoch != ABSENT {
            if let Some(epochs) = &mut self.epochs {
                epochs.open_at(now);
                let slot = &mut epochs.counters[epoch as usize];
                slot.1 = true;
                slot.2 += n;
            }
        }
    }

    /// Record `value` into histogram row `row` at `now`; inlined like
    /// [`Self::add`].
    #[inline(always)]
    pub fn observe(&mut self, now: SimTime, row: usize, value: u64) {
        let Place { metric, epoch } = self.places[row];
        if metric < UNWRITTEN {
            self.metrics.histograms[metric as usize].1.observe(value);
        } else if metric == UNWRITTEN {
            let at = self.first_write(row, |m, name| row_of(&mut m.histograms, name));
            self.metrics.histograms[at].1.observe(value);
        }
        if epoch != ABSENT {
            if let Some(epochs) = &mut self.epochs {
                epochs.open_at(now);
                epochs.histograms[epoch as usize].1.observe(value);
            }
        }
    }

    /// Find `row`'s registry row by its name, appending it if new, and
    /// remember it: the row's first write.
    #[cold]
    #[inline(never)]
    fn first_write(
        &mut self,
        row: usize,
        find: fn(&mut MetricsRegistry, &'static str) -> usize,
    ) -> usize {
        let name = self.table[row].metric.expect("a row with a registry name");
        let at = find(&mut self.metrics, name);
        self.places[row].metric = at as u32;
        at
    }

    /// Counter row `row`'s registry total: 0 before its first write, and
    /// by-name writes of its name count too.
    #[inline]
    pub fn total(&self, row: usize) -> u64 {
        debug_assert_eq!(self.table[row].kind, Kind::Counter);
        let at = self.places[row].metric as usize;
        self.metrics.counters.get(at).map_or(0, |c| c.1)
    }

    /// The registry, frozen.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The registry, for writes by name: they share a row with a table
    /// row of the same name.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Whether telemetry is on.
    pub fn telemetry(&self) -> bool {
        self.epochs.is_some()
    }

    /// A copy of the epoch series with every write so far, if telemetry
    /// is on.
    pub fn epochs(&self) -> Option<EpochSeries> {
        self.epochs.clone().map(Epochs::into_series)
    }

    /// The epoch series, for writes by name: they commute with the rows'.
    pub fn epochs_mut(&mut self) -> Option<&mut EpochSeries> {
        self.epochs.as_mut().map(|e| &mut e.series)
    }

    /// The epoch series with every write, if telemetry is on. The rows'
    /// epoch writes stop here.
    pub fn take_epochs(&mut self) -> Option<EpochSeries> {
        self.epochs.take().map(Epochs::into_series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::SimDuration;

    static TABLE: [Signal; 4] = [
        Signal::counter(Some("both"), Some("both_epoch")),
        Signal::counter(None, Some("epoch_only")),
        Signal::histogram(Some("sizes"), Some("buffer_ms")),
        Signal::counter(Some("never"), Some("never")),
    ];

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn a_row_lands_where_its_table_names_it() {
        let mut rec = SignalRecorder::new(&TABLE, Some(TelemetrySpec::seconds(2.0)));
        rec.observe(t(0), 2, 300);
        rec.add(t(1), 1, 5);
        rec.metrics_mut().add("late", 1);
        assert_eq!(rec.total(0), 0, "not written yet");
        rec.add(t(3), 0, 2);
        rec.add(t(3), 0, 1);
        assert_eq!(rec.total(0), 3);
        let snap = rec.snapshot();
        assert_eq!(snap.counters, [("late".into(), 1), ("both".into(), 3)]);
        assert_eq!(snap.histograms[0].0, "sizes");
        let series = rec.take_epochs().expect("telemetry on");
        let cells: Vec<(u64, u64)> = (series.cells())
            .map(|(_, c)| (c.counter("epoch_only"), c.counter("both_epoch")))
            .collect();
        assert_eq!(cells, [(5, 0), (0, 3)]);
        assert!(!series.to_json().to_compact().contains("never"));
        assert!(!rec.telemetry());
    }

    #[test]
    fn without_telemetry_only_the_registry_is_written() {
        let mut rec = SignalRecorder::new(&TABLE, None);
        rec.add(SimTime::ZERO, 1, 5);
        rec.add(SimTime::ZERO, 0, 1);
        assert!(rec.take_epochs().is_none());
        assert_eq!(rec.snapshot().counters, [("both".into(), 1)]);
        rec.enable_telemetry(TelemetrySpec::new(SimDuration::from_secs(1)));
        rec.add(SimTime::ZERO, 3, 0);
        let series = rec.take_epochs().expect("telemetry on");
        assert_eq!(series.n_epochs(), 1);
        assert_eq!(rec.snapshot().counters.len(), 2);
    }

    #[test]
    fn row_writes_reach_the_cells_before_any_read() {
        let spec = TelemetrySpec::new(SimDuration::from_secs(2));
        let mut rec = SignalRecorder::new(&TABLE, Some(spec));
        rec.add(t(0), 1, 2);
        rec.observe(t(1), 2, 900);
        // Still pending: a copy of the series has them.
        let copy = rec.epochs().expect("telemetry on");
        assert_eq!(copy.n_epochs(), 1);
        assert_eq!(copy.counter_total("epoch_only"), 2);
        rec.add(t(5), 1, 0); // epoch 2: folds epoch 0, opens 2
        let s = rec.take_epochs().expect("telemetry on");
        let epoch0 = s.cells().next().unwrap().1;
        assert_eq!(epoch0.counter("epoch_only"), 2);
        assert_eq!(epoch0.histogram("buffer_ms").unwrap().count(), 1);

        let mut by_name = EpochSeries::new(spec);
        by_name.add(t(5), "epoch_only", 0); // a zero add still makes the key
        by_name.observe(t(1), "buffer_ms", 900);
        by_name.add(t(0), "epoch_only", 2);
        assert_eq!(s, by_name);
        assert_eq!(s.to_json().to_pretty(), by_name.to_json().to_pretty());
        assert_eq!(s.cells().count(), 3);
        assert!(!s.to_json().to_pretty().contains("never"));
    }
}
