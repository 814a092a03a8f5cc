//! [`Recorder`]: everything a session observes about itself, behind one
//! call per outcome.
//!
//! A session outcome (a cache hit, a retry, a deadline miss) can show up
//! in three places: a field of the report's [`LifecycleStats`] /
//! [`OriginStats`], a named counter in the [`MetricsRegistry`] snapshot,
//! and a per-epoch telemetry counter. [`Recorder::count`] updates all of
//! them from the one table in this file, so a name is spelled once.
//! Counters register in the registry on first use and that order is part
//! of `summary_json`, so call sites keep their relative order.

use crate::report::{LifecycleStats, OriginStats};
use mpdash_dash::player::Player;
use mpdash_link::PathId;
use mpdash_mptcp::MptcpSim;
use mpdash_obs::{EpochSeries, MetricsRegistry, TelemetrySpec, TraceEvent, Tracer};
use mpdash_sim::SimTime;

/// A countable session outcome. See [`Recorder::count`] for what each
/// one updates.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Outcome {
    DeadlineGranted,
    DeadlineBypassed,
    SchedulerToggle,
    ChunkFetched,
    DeadlineHit,
    DeadlineMiss,
    Departed,
    Shed,
    CacheHit,
    CacheMiss,
    CacheInsert,
    Routed,
    Failover,
    BreakerOpen,
    Hedge,
    HedgeWonPrimary,
    HedgeWonHedge,
    RequestError,
    Retried,
    Timeout,
    Abandoned,
    Resumed,
    WastedBytes,
}

/// Epoch-telemetry state: the session's rollup series plus the
/// last-sampled cumulative values the 50 ms tick turns into per-epoch
/// deltas (per-path bytes, stalled time).
struct Telemetry {
    series: EpochSeries,
    last_wifi_bytes: u64,
    last_cell_bytes: u64,
    last_stall_ms: u64,
}

/// The session's trace sink, metrics registry, epoch telemetry and
/// report counters. Strictly observe-only: it reads simulation state,
/// never steers it.
pub(crate) struct Recorder {
    /// Observe-only structured trace (config tracer, or the process-wide
    /// `MPDASH_TRACE` one when the config leaves it disabled).
    pub tracer: Tracer,
    /// Session-level counters/histograms, snapshotted into the report.
    pub metrics: MetricsRegistry,
    /// Request-lifecycle counters for the report.
    pub lifecycle: LifecycleStats,
    /// Multi-origin serving counters for the report.
    pub origin: OriginStats,
    telemetry: Option<Telemetry>,
}

impl Recorder {
    pub fn new(tracer: Tracer, telemetry: Option<TelemetrySpec>) -> Self {
        Recorder {
            tracer,
            metrics: MetricsRegistry::new(),
            lifecycle: LifecycleStats::default(),
            origin: OriginStats::default(),
            telemetry: telemetry.map(|spec| Telemetry {
                series: EpochSeries::new(spec),
                last_wifi_bytes: 0,
                last_cell_bytes: 0,
                last_stall_ms: 0,
            }),
        }
    }

    /// Record `n` of `what` at `now`: the report field (if it has one),
    /// the registry counter, and the counter in `now`'s telemetry epoch
    /// (if it has one and telemetry is on).
    pub fn count(&mut self, now: SimTime, what: Outcome, n: u64) {
        use Outcome::*;
        let (l, o) = (&mut self.lifecycle, &mut self.origin);
        let (field, metric, epoch) = match what {
            DeadlineGranted => (None, "deadline_granted", None),
            DeadlineBypassed => (None, "deadline_bypassed", None),
            SchedulerToggle => (None, "scheduler_toggles", None),
            ChunkFetched => (None, "chunks_fetched", Some("chunks")),
            DeadlineHit => (None, "deadline_hits", Some("deadline_hits")),
            DeadlineMiss => (None, "deadline_misses", Some("deadline_misses")),
            Departed => (None, "departed", Some("departures")),
            Shed => (None, "shed", None),
            CacheHit => (Some(&mut o.cache_hits), "cache_hits", Some("cache_hits")),
            CacheMiss => (
                Some(&mut o.cache_misses),
                "cache_misses",
                Some("cache_misses"),
            ),
            CacheInsert => (Some(&mut o.cache_insertions), "cache_insertions", None),
            Routed => (Some(&mut o.routed), "origin_routed", None),
            Failover => (Some(&mut o.failovers), "origin_failovers", None),
            BreakerOpen => (
                Some(&mut o.breaker_opens),
                "breaker_opens",
                Some("breaker_opens"),
            ),
            Hedge => (Some(&mut o.hedges), "hedges", Some("hedges")),
            HedgeWonPrimary => (Some(&mut o.hedge_wins_primary), "hedge_wins_primary", None),
            HedgeWonHedge => (Some(&mut o.hedge_wins_hedge), "hedge_wins_hedge", None),
            RequestError => (None, "request_errors", None),
            Retried => (Some(&mut l.retried), "requests_retried", Some("retries")),
            Timeout => (Some(&mut l.timeouts), "request_timeouts", Some("timeouts")),
            Abandoned => (Some(&mut l.abandoned), "requests_abandoned", None),
            Resumed => (Some(&mut l.resumed), "requests_resumed", Some("resumes")),
            WastedBytes => (
                Some(&mut l.wasted_bytes),
                "wasted_bytes",
                Some("wasted_bytes"),
            ),
        };
        if let Some(field) = field {
            *field += n;
        }
        self.metrics.add(metric, n);
        if let Some(epoch) = epoch {
            self.epoch_add(now, epoch, n);
        }
    }

    /// One occurrence of `what` at `now`, with the trace event that
    /// describes it.
    pub fn event(&mut self, now: SimTime, what: Outcome, build: impl FnOnce() -> TraceEvent) {
        self.count(now, what, 1);
        self.tracer.emit_with(now, build);
    }

    /// Add `n` to a telemetry-only counter in `now`'s epoch (no-op with
    /// telemetry off).
    pub fn epoch_add(&mut self, now: SimTime, name: &str, n: u64) {
        if let Some(ts) = self.telemetry.as_mut() {
            ts.series.add(now, name, n);
        }
    }

    /// Sample cumulative signals into the epoch series: per-path byte
    /// and stalled-time deltas since the last sample, plus the current
    /// buffer level. Runs on the 50 ms progress tick and once more at
    /// session end, so per-epoch byte counters sum exactly to the
    /// report's per-path totals.
    pub fn sample(&mut self, now: SimTime, sim: &MptcpSim, player: &Player) {
        let Some(ts) = self.telemetry.as_mut() else {
            return;
        };
        let mut delta = |name, last: &mut u64, total: u64| {
            if total > *last {
                ts.series.add(now, name, total - *last);
                *last = total;
            }
        };
        delta(
            "wifi_bytes",
            &mut ts.last_wifi_bytes,
            sim.path_bytes(PathId::WIFI),
        );
        delta(
            "cell_bytes",
            &mut ts.last_cell_bytes,
            sim.path_bytes(PathId::CELLULAR),
        );
        delta(
            "stall_ms",
            &mut ts.last_stall_ms,
            player.stall_time().as_millis_f64() as u64,
        );
        ts.series
            .observe(now, "buffer_ms", player.buffer().as_millis_f64() as u64);
    }

    /// The finished epoch series, if telemetry was on.
    pub fn take_epochs(&mut self) -> Option<EpochSeries> {
        self.telemetry.take().map(|ts| ts.series)
    }
}
