//! [`Recorder`]: everything a session observes about itself, behind one
//! call per outcome.
//!
//! A session signal (a cache hit, a retry, a chunk's size, the buffer
//! level) is written once, by row: [`SIGNALS`] names each signal's
//! registry and epoch rows, and [`Recorder::count`] and
//! [`Recorder::observe`] write them. The report's [`LifecycleStats`] and
//! [`OriginStats`] are read back from the registry totals of the rows
//! they mirror ([`Recorder::lifecycle`], [`Recorder::origin`]). Rows
//! enter the registry when first written and that order is part of
//! `summary_json`, so call sites keep their relative order.

use crate::report::{LifecycleStats, OriginStats};
use mpdash_dash::player::Player;
use mpdash_link::PathId;
use mpdash_mptcp::MptcpSim;
use mpdash_obs::{SignalRecorder, TelemetrySpec, TraceEvent, Tracer};
use mpdash_sim::SimTime;

mpdash_obs::signal_table! {
    /// A session signal, a countable outcome or a value it samples or
    /// totals, beside its registry and epoch names. See
    /// [`Recorder::lifecycle`] and [`Recorder::origin`] for the report
    /// fields the totals of some outcomes become.
    pub(crate) enum Outcome in SIGNALS {
        DeadlineGranted      = counter(Some("deadline_granted"),       None),
        DeadlineBypassed     = counter(Some("deadline_bypassed"),      None),
        SchedulerToggle      = counter(Some("scheduler_toggles"),      None),
        ChunkFetched         = counter(Some("chunks_fetched"),         Some("chunks")),
        DeadlineHit          = counter(Some("deadline_hits"),          Some("deadline_hits")),
        DeadlineMiss         = counter(Some("deadline_misses"),        Some("deadline_misses")),
        Departed             = counter(Some("departed"),               Some("departures")),
        Shed                 = counter(Some("shed"),                   None),
        CacheHit             = counter(Some("cache_hits"),             Some("cache_hits")),
        CacheMiss            = counter(Some("cache_misses"),           Some("cache_misses")),
        CacheInsert          = counter(Some("cache_insertions"),       None),
        Routed               = counter(Some("origin_routed"),          None),
        Failover             = counter(Some("origin_failovers"),       None),
        BreakerOpen          = counter(Some("breaker_opens"),          Some("breaker_opens")),
        Hedge                = counter(Some("hedges"),                 Some("hedges")),
        HedgeWonPrimary      = counter(Some("hedge_wins_primary"),     None),
        HedgeWonHedge        = counter(Some("hedge_wins_hedge"),       None),
        RequestError         = counter(Some("request_errors"),         None),
        Retried              = counter(Some("requests_retried"),       Some("retries")),
        Timeout              = counter(Some("request_timeouts"),       Some("timeouts")),
        Abandoned            = counter(Some("requests_abandoned"),     None),
        Resumed              = counter(Some("requests_resumed"),       Some("resumes")),
        WastedBytes          = counter(Some("wasted_bytes"),           Some("wasted_bytes")),
        ChunkFetchMs         = histogram(Some("chunk_fetch_ms"),       None),
        ChunkBytes           = histogram(Some("chunk_bytes"),          None),
        ChunkBitrateKbps     = counter(None,                           Some("chunk_bitrate_kbps")),
        Switch               = counter(None,                           Some("switches")),
        WifiBytes            = counter(None,                           Some("wifi_bytes")),
        CellBytes            = counter(None,                           Some("cell_bytes")),
        StallMs              = counter(None,                           Some("stall_ms")),
        BufferMs             = histogram(None,                         Some("buffer_ms")),
        SchedulerToggleTotal = counter(Some("scheduler_toggle_total"), None),
        SubflowFailures      = counter(Some("subflow_failures"),       None),
        SubflowRevivals      = counter(Some("subflow_revivals"),       None),
        Stalls               = counter(Some("stalls"),                 None),
        LifecycleTimeouts    = counter(Some("lifecycle_timeouts"),     None),
        LifecycleAbandoned   = counter(Some("lifecycle_abandoned"),    None),
        LifecycleResumed     = counter(Some("lifecycle_resumed"),      None),
        LifecycleRetried     = counter(Some("lifecycle_retried"),      None),
    }
}

/// The session's trace sink, signals and report counters. Strictly
/// observe-only: it reads simulation state, never steers it.
pub(crate) struct Recorder {
    /// Observe-only structured trace: the config's tracer.
    pub tracer: Tracer,
    /// [`SIGNALS`]' registry and, with telemetry on, epoch series.
    pub signals: SignalRecorder,
    /// WiFi bytes, cellular bytes and stalled milliseconds at the last
    /// [`Self::sample`], which writes their growth since.
    sampled: [u64; 3],
}

impl Recorder {
    pub(crate) fn new(tracer: Tracer, telemetry: Option<TelemetrySpec>) -> Self {
        Recorder {
            tracer,
            signals: SignalRecorder::new(SIGNALS, telemetry),
            sampled: [0; 3],
        }
    }

    /// Record `n` of `what` at `now` in the signal's rows.
    pub(crate) fn count(&mut self, now: SimTime, what: Outcome, n: u64) {
        self.signals.add(now, what as usize, n);
    }

    /// The registry total of counter outcome `what` so far.
    pub(crate) fn total(&self, what: Outcome) -> u64 {
        self.signals.total(what as usize)
    }

    /// The report's request-lifecycle counters, so far.
    pub(crate) fn lifecycle(&self) -> LifecycleStats {
        use Outcome::*;
        LifecycleStats {
            timeouts: self.total(Timeout),
            abandoned: self.total(Abandoned),
            resumed: self.total(Resumed),
            retried: self.total(Retried),
            wasted_bytes: self.total(WastedBytes),
        }
    }

    /// The report's multi-origin serving counters, so far.
    pub(crate) fn origin(&self) -> OriginStats {
        use Outcome::*;
        OriginStats {
            routed: self.total(Routed),
            failovers: self.total(Failover),
            breaker_opens: self.total(BreakerOpen),
            hedges: self.total(Hedge),
            hedge_wins_primary: self.total(HedgeWonPrimary),
            hedge_wins_hedge: self.total(HedgeWonHedge),
            cache_hits: self.total(CacheHit),
            cache_misses: self.total(CacheMiss),
            cache_insertions: self.total(CacheInsert),
        }
    }

    /// Record `value` into histogram signal `what` at `now`.
    pub(crate) fn observe(&mut self, now: SimTime, what: Outcome, value: u64) {
        self.signals.observe(now, what as usize, value);
    }

    /// One occurrence of `what` at `now`, with the trace event that
    /// describes it.
    pub(crate) fn event(
        &mut self,
        now: SimTime,
        what: Outcome,
        build: impl FnOnce() -> TraceEvent,
    ) {
        self.count(now, what, 1);
        self.tracer.emit_with(now, build);
    }

    /// Sample cumulative signals into the epoch series: per-path byte
    /// and stalled-time growth since the last sample, plus the current
    /// buffer level. Runs on the 50 ms progress tick and once more at
    /// session end, so per-epoch byte counters sum exactly to the
    /// report's per-path totals. Every sampled signal is epoch-only, so
    /// with telemetry off there is nothing to read.
    pub(crate) fn sample(&mut self, now: SimTime, sim: &MptcpSim, player: &Player) {
        if !self.signals.telemetry() {
            return;
        }
        let totals = [
            sim.path_bytes(PathId::WIFI),
            sim.path_bytes(PathId::CELLULAR),
            player.stall_time().as_millis_f64() as u64,
        ];
        let rows = [Outcome::WifiBytes, Outcome::CellBytes, Outcome::StallMs];
        for ((what, last), total) in rows.into_iter().zip(&mut self.sampled).zip(totals) {
            if total > *last {
                self.signals.add(now, what as usize, total - *last);
                *last = total;
            }
        }
        let buffer = player.buffer().as_millis_f64() as u64;
        self.observe(now, Outcome::BufferMs, buffer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_signal_table_is_in_outcome_order() {
        // One row per outcome: the last outcome is the last row.
        assert_eq!(Outcome::LifecycleRetried as usize, SIGNALS.len() - 1);
        let row = |what: Outcome| SIGNALS[what as usize];
        assert_eq!(
            row(Outcome::DeadlineGranted).metric,
            Some("deadline_granted")
        );
        assert_eq!(row(Outcome::WastedBytes).epoch, Some("wasted_bytes"));
        assert_eq!(row(Outcome::BufferMs).epoch, Some("buffer_ms"));
        assert_eq!(row(Outcome::Stalls).metric, Some("stalls"));
    }

    /// The recorder is inline in every live session, telemetry on or
    /// off: its signals are a table reference, a boxed slice of row
    /// places, the registry and the optional epochs.
    #[test]
    fn a_recorder_stays_small() {
        let size = std::mem::size_of::<Recorder>();
        assert!(size <= 232, "{size} B");
    }
}
