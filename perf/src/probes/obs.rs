//! `mpdash_obs`: epoch-series updates and merges, a registry counter,
//! the watchdog's checks — and the on/off twins of frozen configs that
//! turn the old overhead gates (watchdog ≤3%, telemetry ≤3%, quiescent
//! AQM ≤5%) into ledger rows.

use super::{best_of, overhead_pct, Probes};
use crate::workloads::{churn_mix, contended, solo_pair};
use mpdash_link::{AqmConfig, QueueDiscipline};
use mpdash_mptcp::SchedulerSpec;
use mpdash_obs::{
    ConservationCounters, EpochSeries, MetricsRegistry, RingSink, TelemetrySpec, Tracer, Watchdog,
};
use mpdash_session::StreamingSession;
use mpdash_sim::{SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;

/// The session signals an epoch cell carries in a telemetry-on run.
const SIGNALS: [&str; 6] = [
    "wifi_bytes",
    "cell_bytes",
    "chunks",
    "stall_ms",
    "deadline_misses",
    "scheduler_toggles",
];

/// 100 epochs of 2 s, every signal and one histogram in each.
fn filled_series() -> EpochSeries {
    let mut e = EpochSeries::new(TelemetrySpec::seconds(2.0));
    for epoch in 0..100 {
        let t = SimTime::from_secs(2 * epoch);
        for name in SIGNALS {
            e.add(t, name, epoch + 1);
        }
        e.observe(t, "queue_depth_bytes", 1 << (epoch % 20));
    }
    e
}

pub fn probes(p: &mut Probes, seed: u64) {
    let mut series = filled_series();
    let mut i = 0u64;
    p.ns("obs.epoch_add_ns", || {
        i += 1;
        let t = SimTime::from_millis(i % 200_000);
        series.add(t, "wifi_bytes", 1460);
        series.observe(t, "queue_depth_bytes", i % 65_536);
    });

    let (mut into, from) = (filled_series(), filled_series());
    let ns = p.ns_per_call(|| {
        into.merge(black_box(&from));
    });
    p.put("obs.epoch_merge_us", ns / 1e3);

    let mut registry = MetricsRegistry::new();
    for name in SIGNALS {
        registry.inc(name);
    }
    p.ns("obs.metrics_inc_ns", || {
        registry.inc(black_box("stall_ms"));
    });

    // One loop iteration's checks; the row is the mean of the four.
    let mut watchdog = Watchdog::new();
    let counters = ConservationCounters {
        offered_bytes: 100,
        delivered_bytes: 60,
        dropped_bytes: 10,
        queued_bytes: 30,
        offered_packets: 10,
        delivered_packets: 6,
        dropped_packets: 1,
        queued_packets: 3,
    };
    let mut t = 0u64;
    let ns = p.ns_per_call(|| {
        t += 1;
        let ok = watchdog.check_time(SimTime::from_micros(t)).is_ok()
            & watchdog.check_conservation(0, black_box(counters)).is_ok()
            & watchdog.check_breakers(0, black_box(Ok(()))).is_ok()
            & watchdog.check_hedges(0, 3, 1, black_box(2)).is_ok();
        black_box(ok);
    });
    p.put("obs.watchdog_check_ns", ns / 4.0);

    // Twins. Each differs from its base in the one knob named.
    let base = churn_mix(24, seed);
    let mut no_watchdog = base.clone();
    no_watchdog.watchdog = Some(false);
    let mut no_telemetry = base.clone();
    no_telemetry.telemetry = None;
    let run = |cfg| {
        move || {
            let report = mpdash_fleet::run_checked(cfg).expect("twin fleet");
            black_box(report.sessions.len());
        }
    };
    let [on, wd_off, tel_off] = best_of(
        5,
        [
            &mut run(&base),
            &mut run(&no_watchdog),
            &mut run(&no_telemetry),
        ],
    );
    p.put("obs.watchdog_overhead_pct", overhead_pct(on, wd_off));
    p.put("obs.telemetry_overhead_pct", overhead_pct(on, tel_off));

    // The first 150 s of an MP-DASH session, into a ring and not.
    let plain = solo_pair(seed)
        .1
        .with_max_watch(SimDuration::from_secs(150));
    let [ring, off] = best_of(
        3,
        [
            &mut || {
                let tracer = Tracer::new(Arc::new(RingSink::new(4096)));
                black_box(StreamingSession::run(plain.clone().with_tracer(tracer)).duration);
            },
            &mut || {
                black_box(StreamingSession::run(plain.clone()).duration);
            },
        ],
    );
    p.put("obs.ring_tracer_overhead_pct", overhead_pct(ring, off));

    // A PIE that never leaves drop probability zero (10 s target): the
    // packet schedule equals FIFO's, the delta is controller bookkeeping.
    let fifo = contended(8, SchedulerSpec::QAware, 10, 12);
    let mut quiescent = fifo.clone();
    quiescent.shared[0].config.discipline =
        QueueDiscipline::Pie(AqmConfig::pie().with_ecn(true).with_target_ms(10_000.0));
    let [pie, plain] = best_of(3, [&mut run(&quiescent), &mut run(&fifo)]);
    p.put("link.aqm_quiescent_overhead_pct", overhead_pct(pie, plain));
}
