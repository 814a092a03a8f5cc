//! [`Recorder`]: everything a session observes about itself, behind one
//! call per outcome.
//!
//! A session outcome (a cache hit, a retry, a deadline miss) can show up
//! in three places: a field of the report's [`LifecycleStats`] /
//! [`OriginStats`], a named counter in the [`MetricsRegistry`] snapshot,
//! and a per-epoch telemetry counter. [`Recorder::count`] updates all of
//! them from the one table in this file ([`SIGNALS`]), so a name is
//! spelled once — and compared never: [`Recorder::new`] resolves every
//! name to a handle. Counters still enter the registry when first
//! *counted* and that order is part of `summary_json`, so call sites keep
//! their relative order.

use crate::report::{LifecycleStats, OriginStats};
use mpdash_dash::player::Player;
use mpdash_link::PathId;
use mpdash_mptcp::MptcpSim;
use mpdash_obs::{
    EpochCounter, EpochHistogram, EpochSeries, MetricCounter, MetricsRegistry, TelemetrySpec,
    TraceEvent, Tracer,
};
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

/// Per [`Outcome`], in declaration order (indexed by `outcome as usize`):
/// its registry counter and, if it has one, its epoch counter.
const SIGNALS: [(Outcome, &str, Option<&str>); 23] = {
    use Outcome::*;
    [
        (DeadlineGranted, "deadline_granted", None),
        (DeadlineBypassed, "deadline_bypassed", None),
        (SchedulerToggle, "scheduler_toggles", None),
        (ChunkFetched, "chunks_fetched", Some("chunks")),
        (DeadlineHit, "deadline_hits", Some("deadline_hits")),
        (DeadlineMiss, "deadline_misses", Some("deadline_misses")),
        (Departed, "departed", Some("departures")),
        (Shed, "shed", None),
        (CacheHit, "cache_hits", Some("cache_hits")),
        (CacheMiss, "cache_misses", Some("cache_misses")),
        (CacheInsert, "cache_insertions", None),
        (Routed, "origin_routed", None),
        (Failover, "origin_failovers", None),
        (BreakerOpen, "breaker_opens", Some("breaker_opens")),
        (Hedge, "hedges", Some("hedges")),
        (HedgeWonPrimary, "hedge_wins_primary", None),
        (HedgeWonHedge, "hedge_wins_hedge", None),
        (RequestError, "request_errors", None),
        (Retried, "requests_retried", Some("retries")),
        (Timeout, "request_timeouts", Some("timeouts")),
        (Abandoned, "requests_abandoned", None),
        (Resumed, "requests_resumed", Some("resumes")),
        (WastedBytes, "wasted_bytes", Some("wasted_bytes")),
    ]
};

/// Epoch-telemetry state: the session's rollup series plus the
/// last-sampled cumulative values the 50 ms tick turns into per-epoch
/// deltas (per-path bytes, stalled time).
struct Telemetry {
    series: EpochSeries,
    /// [`SIGNALS`]' epoch column, resolved.
    outcomes: [Option<EpochCounter>; SIGNALS.len()],
    wifi_bytes: EpochCounter,
    cell_bytes: EpochCounter,
    stall_ms: EpochCounter,
    buffer_ms: EpochHistogram,
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
    /// [`SIGNALS`]' registry column, resolved.
    outcomes: [MetricCounter; SIGNALS.len()],
    telemetry: Option<Telemetry>,
}

impl Recorder {
    pub fn new(tracer: Tracer, telemetry: Option<TelemetrySpec>) -> Self {
        let mut metrics = MetricsRegistry::new();
        Recorder {
            tracer,
            outcomes: SIGNALS.map(|(_, metric, _)| metrics.counter(metric)),
            metrics,
            lifecycle: LifecycleStats::default(),
            origin: OriginStats::default(),
            telemetry: telemetry.map(|spec| {
                let mut series = EpochSeries::new(spec);
                Telemetry {
                    outcomes: SIGNALS.map(|(_, _, epoch)| epoch.map(|name| series.counter(name))),
                    wifi_bytes: series.counter("wifi_bytes"),
                    cell_bytes: series.counter("cell_bytes"),
                    stall_ms: series.counter("stall_ms"),
                    buffer_ms: series.histogram("buffer_ms"),
                    series,
                    last_wifi_bytes: 0,
                    last_cell_bytes: 0,
                    last_stall_ms: 0,
                }
            }),
        }
    }

    /// Record `n` of `what` at `now`: the report field (if it has one),
    /// the registry counter, and the counter in `now`'s telemetry epoch
    /// (if it has one and telemetry is on).
    pub fn count(&mut self, now: SimTime, what: Outcome, n: u64) {
        use Outcome::*;
        let (l, o) = (&mut self.lifecycle, &mut self.origin);
        let field = match what {
            CacheHit => Some(&mut o.cache_hits),
            CacheMiss => Some(&mut o.cache_misses),
            CacheInsert => Some(&mut o.cache_insertions),
            Routed => Some(&mut o.routed),
            Failover => Some(&mut o.failovers),
            BreakerOpen => Some(&mut o.breaker_opens),
            Hedge => Some(&mut o.hedges),
            HedgeWonPrimary => Some(&mut o.hedge_wins_primary),
            HedgeWonHedge => Some(&mut o.hedge_wins_hedge),
            Retried => Some(&mut l.retried),
            Timeout => Some(&mut l.timeouts),
            Abandoned => Some(&mut l.abandoned),
            Resumed => Some(&mut l.resumed),
            WastedBytes => Some(&mut l.wasted_bytes),
            DeadlineGranted | DeadlineBypassed | SchedulerToggle | ChunkFetched | DeadlineHit
            | DeadlineMiss | Departed | Shed | RequestError => None,
        };
        if let Some(field) = field {
            *field += n;
        }
        self.metrics.counter_add(self.outcomes[what as usize], n);
        if let Some(ts) = self.telemetry.as_mut() {
            if let Some(epoch) = ts.outcomes[what as usize] {
                ts.series.counter_add(now, epoch, n);
            }
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
    pub fn epoch_add(&mut self, now: SimTime, name: &'static str, n: u64) {
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
        let series = &mut ts.series;
        let mut delta = |counter, last: &mut u64, total: u64| {
            if total > *last {
                series.counter_add(now, counter, total - *last);
                *last = total;
            }
        };
        delta(
            ts.wifi_bytes,
            &mut ts.last_wifi_bytes,
            sim.path_bytes(PathId::WIFI),
        );
        delta(
            ts.cell_bytes,
            &mut ts.last_cell_bytes,
            sim.path_bytes(PathId::CELLULAR),
        );
        delta(
            ts.stall_ms,
            &mut ts.last_stall_ms,
            player.stall_time().as_millis_f64() as u64,
        );
        ts.series
            .histogram_observe(now, ts.buffer_ms, player.buffer().as_millis_f64() as u64);
    }

    /// The finished epoch series, if telemetry was on.
    pub fn take_epochs(&mut self) -> Option<EpochSeries> {
        self.telemetry.take().map(|mut ts| {
            ts.series.flush();
            ts.series
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_signal_table_is_in_outcome_order() {
        for (i, (outcome, ..)) in SIGNALS.iter().enumerate() {
            assert_eq!(*outcome as usize, i, "{outcome:?}");
        }
    }
}
