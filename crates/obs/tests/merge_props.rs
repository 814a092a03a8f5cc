//! Property tests on the telemetry merge algebra: log₂ histograms and
//! epoch rollups must form a commutative monoid **down to the bit**, or
//! shard-local series produced at different `MPDASH_WORKERS` settings
//! would stop combining into byte-identical fleet series.
//!
//! The invariants:
//!
//! * **associativity / commutativity** — `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`
//!   and `a ⊕ b == b ⊕ a`, for both [`LogHistogram`] and
//!   [`EpochSeries`], checked structurally *and* on serialized bytes;
//! * **shard identity** — replaying one event stream into N shard-local
//!   series and merging them (in any shard order) serializes to exactly
//!   the bytes of the single-shard replay;
//! * **table row ≡ name** — a series (or registry) written through the
//!   rows of a [`SignalRecorder`]'s table, by name, or both mixed records
//!   exactly what the by-name replay does: the recorder's copy of its
//!   series, with its pending row writes folded in, equals the by-name
//!   replay structurally and on serialized bytes, and merge stays
//!   commutative;
//! * **sparse ≡ dense** — a series stores cells only from its first
//!   written epoch, yet shards that start hundreds of epochs apart,
//!   merged in any order, read exactly like a dense model from epoch 0.

use mpdash_obs::{
    EpochSeries, Kind, LogHistogram, MetricsRegistry, Signal, SignalRecorder, TelemetrySpec,
};
use mpdash_results::Json;
use mpdash_sim::{Prng, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A replayable telemetry event: counter add or histogram observation.
#[derive(Clone, Debug)]
struct Event {
    at: SimTime,
    name: &'static str,
    value: u64,
    histogram: bool,
}

const NAMES: [&str; 8] = [
    "chunks",
    "cell_bytes",
    "buffer_ms",
    "deadline_misses",
    "queue_depth_bytes",
    // AQM epoch cells: per-departure sojourn, PIE's drop probability,
    // and the dequeue-drop counter must shard-merge like everything
    // else or `exp aqm` artifacts would drift across MPDASH_WORKERS.
    "queue_wait_ms",
    "aqm_drop_prob_ppm",
    "aqm_dropped_packets",
];

/// Deterministically expand a seed into a random event stream.
fn events(seed: u64, n: usize) -> Vec<Event> {
    let mut rng = Prng::new(seed);
    (0..n)
        .map(|_| Event {
            at: SimTime::from_millis(rng.next_below(120_000)),
            name: NAMES[rng.next_below(NAMES.len() as u64) as usize],
            value: rng.next_below(1 << 22),
            histogram: rng.next_below(2) == 0,
        })
        .collect()
}

fn replay(spec: TelemetrySpec, events: &[Event]) -> EpochSeries {
    let mut s = EpochSeries::new(spec);
    for e in events {
        if e.histogram {
            s.observe(e.at, e.name, e.value);
        } else {
            s.add(e.at, e.name, e.value);
        }
    }
    s
}

/// A table with a counter and a histogram row for each of [`NAMES`], in
/// an order drawn from `rng`, so row numbering differs between tables;
/// and each name's two rows.
fn shuffled_table(rng: &mut Prng) -> (&'static [Signal], [(usize, usize); NAMES.len()]) {
    let mut rows: Vec<Signal> = (NAMES.iter())
        .flat_map(|&n| {
            [
                Signal::counter(Some(n), Some(n)),
                Signal::histogram(Some(n), Some(n)),
            ]
        })
        .collect();
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let row = |name, histogram: bool| {
        (rows.iter())
            .position(|s| s.metric == Some(name) && (s.kind == Kind::Histogram) == histogram)
            .expect("every name has both rows")
    };
    let rows_of = NAMES.map(|n| (row(n, false), row(n, true)));
    (Vec::leak(rows), rows_of)
}

/// [`replay`] into a recorder's series, but every event whose draw says
/// so goes through its table row, in a table shuffled by `seed`; a
/// quarter of the counter adds are zero-valued. The recorder's row writes
/// stay pending until its series is copied or taken.
fn replay_mixed(
    spec: TelemetrySpec,
    events: &[Event],
    seed: u64,
    row_share: u64,
) -> SignalRecorder {
    let mut rng = Prng::new(seed);
    let (table, rows) = shuffled_table(&mut rng);
    let mut rec = SignalRecorder::new(table, Some(spec));
    for e in events {
        let (counter, histogram) = rows[NAMES.iter().position(|&n| n == e.name).unwrap()];
        if rng.next_below(4) >= row_share {
            let series = rec.epochs_mut().expect("telemetry on");
            match e.histogram {
                true => series.observe(e.at, e.name, e.value),
                false => series.add(e.at, e.name, e.value),
            }
        } else if e.histogram {
            rec.observe(e.at, histogram, e.value);
        } else {
            rec.add(e.at, counter, e.value);
        }
    }
    rec
}

/// `events`, with a quarter of the values zeroed: a zero add must still
/// create its key.
fn events_with_zeros(seed: u64, n: usize) -> Vec<Event> {
    let mut rng = Prng::new(seed ^ 0x5EED);
    let mut stream = events(seed, n);
    for e in &mut stream {
        if rng.next_below(4) == 0 {
            e.value = 0;
        }
    }
    stream
}

/// One epoch of [`DenseModel`]: counters and histograms by name.
type ModelCell = (
    BTreeMap<&'static str, u64>,
    BTreeMap<&'static str, LogHistogram>,
);

/// The reference the sparse series is read against: one cell per epoch
/// from epoch 0, every name in a sorted map.
#[derive(Default)]
struct DenseModel {
    cells: Vec<ModelCell>,
}

impl DenseModel {
    fn replay(spec: TelemetrySpec, events: &[Event]) -> Self {
        let mut model = DenseModel::default();
        for e in events {
            let i = (e.at.as_nanos() / spec.epoch.as_nanos()) as usize;
            if model.cells.len() <= i {
                model.cells.resize_with(i + 1, Default::default);
            }
            let (counters, histograms) = &mut model.cells[i];
            if e.histogram {
                histograms.entry(e.name).or_default().observe(e.value);
            } else {
                *counters.entry(e.name).or_default() += e.value;
            }
        }
        model
    }

    /// The encoding [`EpochSeries::to_json`] documents, written out.
    fn to_json(&self, spec: TelemetrySpec) -> Json {
        let histogram = |h: &LogHistogram| {
            let s = h.snapshot();
            Json::obj([
                ("count", Json::from(s.count)),
                ("sum", Json::from(s.sum)),
                (
                    "buckets",
                    Json::arr(
                        s.buckets
                            .iter()
                            .map(|&(lo, n)| Json::arr([Json::from(lo), Json::from(n)])),
                    ),
                ),
            ])
        };
        let cells = self.cells.iter().map(|(counters, histograms)| {
            Json::obj([
                (
                    "counters",
                    Json::obj(counters.iter().map(|(&k, &v)| (k, Json::from(v)))),
                ),
                (
                    "histograms",
                    Json::obj(histograms.iter().map(|(&k, h)| (k, histogram(h)))),
                ),
            ])
        });
        Json::obj([
            ("epoch_s", Json::Float(spec.epoch.as_secs_f64())),
            ("epochs", Json::arr(cells)),
        ])
    }
}

fn histogram_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::default();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Histogram merge is associative and commutative, and merging the
    /// parts equals observing the concatenation directly.
    #[test]
    fn log_histogram_merge_is_a_commutative_monoid(
        xs in prop::collection::vec(0u64..5_000_000, 0..40),
        ys in prop::collection::vec(0u64..5_000_000, 0..40),
        zs in prop::collection::vec(0u64..5_000_000, 0..40),
    ) {
        let (a, b, c) = (histogram_of(&xs), histogram_of(&ys), histogram_of(&zs));

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "merge is not associative");

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "merge is not commutative");

        // Identity element: the empty histogram.
        let mut a_id = a.clone();
        a_id.merge(&LogHistogram::default());
        prop_assert_eq!(&a_id, &a);

        let mut all = xs.clone();
        all.extend(&ys);
        let direct = histogram_of(&all);
        prop_assert_eq!(&ab, &direct, "merged parts differ from the whole");
    }

    /// Epoch-series merge is associative and commutative structurally
    /// and on serialized bytes, even when the streams touch different
    /// names in different orders and span different epoch counts.
    #[test]
    fn epoch_series_merge_is_associative_and_commutative(
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        seed_c in 0u64..1_000_000,
        n in 0usize..60,
        epoch_ms in 200u64..5_000,
    ) {
        let spec = TelemetrySpec::new(SimDuration::from_millis(epoch_ms));
        let a = replay(spec, &events(seed_a, n));
        let b = replay(spec, &events(seed_b, n / 2 + 1));
        let c = replay(spec, &events(seed_c, n / 3 + 1));

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "series merge is not associative");
        prop_assert_eq!(
            ab_c.to_json().to_pretty(),
            a_bc.to_json().to_pretty(),
            "associativity holds structurally but not on bytes"
        );

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "series merge is not commutative");
        prop_assert_eq!(
            ab.to_json().to_pretty(),
            ba.to_json().to_pretty(),
            "commutativity holds structurally but not on bytes"
        );
    }

    /// Sharding one event stream across N shard-local series and
    /// merging them — in ascending or descending shard order — yields
    /// bytes identical to the single-shard replay. This is exactly the
    /// `MPDASH_WORKERS` 1-vs-N contract the fleet relies on.
    #[test]
    fn shard_merged_series_match_single_shard_bytes(
        seed in 0u64..1_000_000,
        n in 1usize..120,
        n_shards in 1usize..7,
        epoch_ms in 200u64..5_000,
    ) {
        let spec = TelemetrySpec::new(SimDuration::from_millis(epoch_ms));
        let stream = events(seed, n);
        let single = replay(spec, &stream);

        let shards: Vec<EpochSeries> = (0..n_shards)
            .map(|s| {
                let mine: Vec<Event> = stream
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % n_shards == s)
                    .map(|(_, e)| e.clone())
                    .collect();
                replay(spec, &mine)
            })
            .collect();

        let mut fwd = EpochSeries::new(spec);
        for s in &shards {
            fwd.merge(s);
        }
        let mut rev = EpochSeries::new(spec);
        for s in shards.iter().rev() {
            rev.merge(s);
        }

        let want = single.to_json().to_pretty();
        prop_assert_eq!(fwd.to_json().to_pretty(), want.clone(),
            "ascending shard merge diverged from single-shard bytes");
        prop_assert_eq!(rev.to_json().to_pretty(), want,
            "descending shard merge diverged from single-shard bytes");
    }

    /// Row-written, mixed and by-name series record the same thing: a
    /// recorder's copy of its series, with its pending row writes folded
    /// in, equals the by-name replay as a value and on rendered bytes,
    /// and the two are interchangeable under `merge`, also when a series
    /// is merged into a recorder whose row writes are still pending.
    /// Times are not monotone, so the open epoch moves back and forth.
    #[test]
    fn handle_written_series_equal_by_name_series(
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        n in 0usize..120,
        epoch_ms in 200u64..5_000,
    ) {
        let spec = TelemetrySpec::new(SimDuration::from_millis(epoch_ms));
        let (stream_a, stream_b) = (events_with_zeros(seed_a, n), events_with_zeros(seed_b, n / 2 + 1));
        let by_name = replay(spec, &stream_a);
        let want = by_name.to_json().to_pretty();
        for (order_seed, row_share) in [(seed_a, 4), (seed_b, 4), (seed_a, 2), (seed_b, 1)] {
            let rec = replay_mixed(spec, &stream_a, order_seed, row_share);
            let got = rec.epochs().expect("telemetry on");
            prop_assert_eq!(&got, &by_name, "row share {}/4", row_share);
            prop_assert_eq!(got.to_json().to_pretty(), want.clone());
            prop_assert_eq!(got.n_epochs(), by_name.n_epochs());
            prop_assert_eq!(got.counter_total("chunks"), by_name.counter_total("chunks"));
        }

        // Merge in both orders; `rec_ba` takes `a` by name while its own
        // row writes are still pending.
        let a = replay_mixed(spec, &stream_a, seed_b, 4);
        let b = replay_mixed(spec, &stream_b, seed_a, 3);
        let [a, b] = [&a, &b].map(|r| r.epochs().expect("telemetry on"));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut rec_ba = replay_mixed(spec, &stream_b, seed_b, 2);
        rec_ba.epochs_mut().expect("telemetry on").merge(&a);
        let ba = rec_ba.take_epochs().expect("telemetry on");
        let mut named = by_name.clone();
        named.merge(&replay(spec, &stream_b));
        prop_assert_eq!(&ab, &ba, "series merge is not commutative");
        prop_assert_eq!(&ab, &named);
        prop_assert_eq!(ab.to_json().to_pretty(), ba.to_json().to_pretty());
        prop_assert_eq!(ab.to_json().to_pretty(), named.to_json().to_pretty());
    }

    /// Shards whose streams start at different epochs — a late start of
    /// up to 300 epochs each, so most store no cell for their first
    /// hundreds — merged in a random order: bytes, epoch count and every
    /// cell equal a by-name replay of all the events into a dense model.
    #[test]
    fn late_starting_shards_merge_like_a_dense_reference(
        seed in 0u64..1_000_000,
        n in 1usize..120,
        n_shards in 1usize..7,
        epoch_ms in 200u64..5_000,
    ) {
        let spec = TelemetrySpec::new(SimDuration::from_millis(epoch_ms));
        let mut rng = Prng::new(seed ^ 0x1A7E);
        let streams: Vec<Vec<Event>> = (0..n_shards as u64)
            .map(|s| {
                let late = SimDuration::from_millis(rng.next_below(300 * epoch_ms));
                let mut stream = events_with_zeros(seed + s, n / n_shards + 1);
                for e in &mut stream {
                    e.at += late;
                }
                stream
            })
            .collect();
        let shards: Vec<EpochSeries> = streams.iter().map(|s| replay(spec, s)).collect();
        let mut order: Vec<usize> = (0..n_shards).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut merged = EpochSeries::new(spec);
        for &i in &order {
            merged.merge(&shards[i]);
        }

        let model = DenseModel::replay(spec, &streams.concat());
        prop_assert_eq!(merged.to_json().to_pretty(), model.to_json(spec).to_pretty());
        prop_assert_eq!(merged.n_epochs(), model.cells.len());
        prop_assert_eq!(merged.cells().count(), model.cells.len());
        for ((i, cell), (j, (counters, histograms))) in merged.cells().zip(model.cells.iter().enumerate()) {
            prop_assert_eq!(i, j);
            for name in NAMES {
                prop_assert_eq!(cell.counter(name), counters.get(name).copied().unwrap_or(0));
                prop_assert_eq!(cell.histogram(name), histograms.get(name));
            }
        }
        // The first shard alone, read the same way.
        let alone = DenseModel::replay(spec, &streams[0]);
        prop_assert_eq!(shards[0].to_json().to_pretty(), alone.to_json(spec).to_pretty());
    }

    /// A registry written through table rows snapshots exactly like one
    /// written by name — same values, same order: a name takes its place
    /// when first written, not when its table is built.
    #[test]
    fn handle_written_registry_equals_by_name_registry(
        seed in 0u64..1_000_000,
        n in 0usize..120,
        row_share in 1u64..5,
    ) {
        let stream = events_with_zeros(seed, n);
        let mut by_name = MetricsRegistry::new();
        let mut rng = Prng::new(seed);
        let (table, rows) = shuffled_table(&mut rng);
        let mut mixed = SignalRecorder::new(table, None);
        for e in &stream {
            let (counter, histogram) = rows[NAMES.iter().position(|&n| n == e.name).unwrap()];
            match (e.histogram, rng.next_below(4) < row_share) {
                (true, true) => mixed.observe(e.at, histogram, e.value),
                (true, false) => mixed.metrics_mut().observe(e.name, e.value),
                (false, true) => mixed.add(e.at, counter, e.value),
                (false, false) => mixed.metrics_mut().add(e.name, e.value),
            }
            if e.histogram {
                by_name.observe(e.name, e.value);
            } else {
                by_name.add(e.name, e.value);
            }
        }
        prop_assert_eq!(mixed.snapshot(), by_name.snapshot());
        prop_assert_eq!(
            mixed.snapshot().to_json().to_pretty(),
            by_name.snapshot().to_json().to_pretty()
        );
    }
}
