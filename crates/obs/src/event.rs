//! The cross-layer trace event taxonomy.
//!
//! Events are deliberately flat and numeric: paths are dense indices
//! (0 = WiFi, 1 = cellular in the two-path sessions), sizes are bytes,
//! durations are seconds as `f64`. That keeps the enum free of
//! dependencies on the transport/link/dash crates (which all sit
//! *above* this one in the dependency graph) and keeps NDJSON lines
//! trivially machine-readable.
//!
//! [`TraceEvent`] is declared once, in the `trace_events!` table
//! below: each row is a variant, its `kind` string and its documented
//! fields, and each field's name is its NDJSON key. The enum,
//! [`TraceEvent::kind`] and [`TraceEvent::to_json`] are generated from
//! it, so a variant, its kind and its encoding cannot drift apart.

use mpdash_results::Json;
use mpdash_sim::SimTime;

/// Declares the event enum from its rows, each
/// `Variant = "kind" { field: Type, .. },` with its docs, and generates
/// `kind()` and `to_json()`. Every field type converts into [`Json`].
macro_rules! trace_events {
    (
        $(#[$doc:meta])*
        pub enum $name:ident {
            $(
                $(#[$vdoc:meta])*
                $variant:ident = $kind:literal {
                    $($(#[$fdoc:meta])* $field:ident: $ty:ty,)*
                },
            )*
        }
    ) => {
        $(#[$doc])*
        #[derive(Clone, Debug, PartialEq)]
        pub enum $name {
            $($(#[$vdoc])* $variant { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        impl $name {
            /// Stable, snake_case discriminant name (the `kind` field of
            /// the NDJSON encoding).
            pub fn kind(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $kind,)*
                }
            }

            /// Deterministic JSON encoding: `{"t_s": ..., "kind": ...,
            /// fields}`, each field under its name, in declaration
            /// order. One such object per line is the NDJSON trace
            /// format.
            pub fn to_json(&self, t: SimTime) -> Json {
                let mut members = vec![
                    ("t_s".to_string(), Json::from(t.as_secs_f64())),
                    ("kind".to_string(), Json::from(self.kind())),
                ];
                match self {
                    $($name::$variant { $($field),* } => {
                        $(members.push((stringify!($field).to_string(), Json::from(*$field)));)*
                    })*
                }
                Json::Obj(members)
            }
        }
    };
}

trace_events! {
    /// One structured trace event. Stamped with virtual [`SimTime`] at the
    /// emission site (the timestamp travels alongside, see
    /// [`TraceSink::record`](crate::TraceSink::record)).
    pub enum TraceEvent {
        /// The deadline scheduler toggled the costly path, with the
        /// feasibility inputs that drove the decision (Algorithm 1).
        SchedulerToggle = "scheduler_toggle" {
            /// Whether the cellular path is enabled after this decision.
            cell_enabled: bool,
            /// Preferred-path (WiFi) throughput estimate at decision time.
            wifi_estimate_mbps: f64,
            /// Bytes of the current transfer already delivered.
            received: u64,
            /// Total bytes of the current transfer.
            size: u64,
            /// The (α-shrunk) deadline window granted for the transfer.
            window_s: f64,
            /// Seconds elapsed since the transfer started.
            elapsed_s: f64,
        },
        /// A subflow's RTO fired with an empty window: it is considered
        /// failed and enters revival backoff.
        SubflowFailed = "subflow_failed" {
            /// Dense path index.
            path: usize,
        },
        /// A failed subflow came back (revival probe succeeded).
        SubflowRevived = "subflow_revived" {
            /// Dense path index.
            path: usize,
        },
        /// A congestion-control sample taken when an ACK advanced a subflow.
        PathSample = "path_sample" {
            /// Dense path index.
            path: usize,
            /// Congestion window, bytes.
            cwnd: u64,
            /// Smoothed RTT, milliseconds (`None` until first measurement).
            srtt_ms: Option<f64>,
        },
        /// The scheduler's desired path mask changed and a DSS-borne signal
        /// was sent to the peer (the MP_DASH socket-option path in §5.1).
        DssSignal = "dss_signal" {
            /// New desired mask, bit `i` = path `i` enabled.
            mask: u32,
        },
        /// The ABR algorithm chose a level for a chunk.
        AbrChoice = "abr_choice" {
            /// Chunk index.
            chunk: usize,
            /// Chosen bitrate level.
            level: usize,
            /// Throughput estimate the decision was based on.
            estimate_mbps: f64,
        },
        /// A chunk fetch was admitted to the deadline scheduler
        /// (`MP_DASH_ENABLE`).
        DeadlineGranted = "deadline_granted" {
            /// Chunk index.
            chunk: usize,
            /// Chunk size, bytes.
            size: u64,
            /// Deadline window, seconds.
            window_s: f64,
        },
        /// The adapter bypassed the deadline scheduler for a chunk (e.g.
        /// buffer below the urgency threshold).
        DeadlineBypassed = "deadline_bypassed" {
            /// Chunk index.
            chunk: usize,
        },
        /// A chunk with a deadline finished within its window.
        DeadlineHit = "deadline_hit" {
            /// Chunk index.
            chunk: usize,
            /// Seconds of slack left (non-negative).
            margin_s: f64,
        },
        /// A chunk with a deadline finished late.
        DeadlineMissed = "deadline_missed" {
            /// Chunk index.
            chunk: usize,
            /// Seconds past the window (positive = how late).
            overrun_s: f64,
        },
        /// A chunk finished downloading (always emitted, deadline or not).
        ChunkFetched = "chunk_fetched" {
            /// Chunk index.
            chunk: usize,
            /// Bitrate level it was fetched at.
            level: usize,
            /// Body size, bytes.
            size: u64,
            /// Virtual time the request was issued, seconds.
            started_s: f64,
        },
        /// An injected link fault became active (first observed at the
        /// link's send path).
        FaultActivated = "fault_activated" {
            /// Dense path index of the afflicted link.
            path: usize,
            /// Fault kind, e.g. `"burst_loss"`, `"disassociation"`.
            fault: &'static str,
            /// Virtual time the fault window ends, seconds.
            until_s: f64,
        },
        /// An injected link fault's window ended.
        FaultCleared = "fault_cleared" {
            /// Dense path index of the afflicted link.
            path: usize,
            /// Fault kind, e.g. `"rtt_spike"`, `"rate_collapse"`.
            fault: &'static str,
        },
        /// The player's playback state changed (startup→playing, stall,
        /// resume, finish) or a chunk landed in the buffer.
        BufferTransition = "buffer_transition" {
            /// `"started"`, `"stalled"`, `"resumed"`, `"chunk_buffered"`,
            /// or `"finished"`.
            state: &'static str,
            /// Buffered playout after the transition, seconds.
            buffer_s: f64,
        },
        /// The request lifecycle detected a dead or doomed fetch: no
        /// delivered bytes for the stall window, the deadline-derived
        /// timeout elapsed, or the scheduler's feasibility estimate said the
        /// chunk can no longer make its deadline.
        RequestTimeout = "request_timeout" {
            /// Chunk index.
            chunk: usize,
            /// What tripped: `"stall"`, `"deadline"`, or `"infeasible"`.
            cause: &'static str,
            /// Seconds since the fetch (first request) started.
            after_s: f64,
        },
        /// The fetch was abandoned mid-download; a cancel is on its way to
        /// the server.
        RequestAbandoned = "request_abandoned" {
            /// Chunk index.
            chunk: usize,
            /// Useful body bytes the client had at the abandon decision.
            received: u64,
            /// Body size the fetch was aiming for.
            size: u64,
        },
        /// A byte-range resume re-requested the missing tail of an
        /// abandoned fetch.
        RequestResumed = "request_resumed" {
            /// Chunk index.
            chunk: usize,
            /// First byte of the re-requested range.
            from: u64,
            /// Body size the resumed fetch is aiming for (may be smaller
            /// than the original after an ABR downshift).
            size: u64,
            /// Bitrate level of the resumed tail.
            level: usize,
        },
        /// A server error (5xx) triggered a seeded-backoff retry.
        RequestRetried = "request_retried" {
            /// Chunk index.
            chunk: usize,
            /// Retry attempt number (1 = first retry).
            attempt: u64,
            /// Backoff delay before the re-request, seconds.
            backoff_s: f64,
        },
        /// An injected server-side fault window became active (first
        /// observed when a request was served under it).
        ServerFaultActivated = "server_fault_activated" {
            /// Fault kind, e.g. `"error_burst"`, `"stalled_body"`.
            fault: &'static str,
            /// Virtual time the fault window ends, seconds.
            until_s: f64,
        },
        /// An injected server-side fault window ended.
        ServerFaultCleared = "server_fault_cleared" {
            /// Fault kind, e.g. `"slow_first_byte"`.
            fault: &'static str,
        },
        /// A packet sat in a shared bottleneck queue before its service
        /// started (multi-session fleets only; zero-wait departures are not
        /// emitted).
        SharedQueueWait = "shared_queue_wait" {
            /// Dense path index of the subflow the packet belongs to.
            path: usize,
            /// Seconds between the offer and the start of service.
            waited_s: f64,
            /// Wire size of the packet, bytes.
            size: u64,
        },
        /// The origin pool routed a chunk fetch to an origin.
        OriginRouted = "origin_routed" {
            /// Chunk index.
            chunk: usize,
            /// Dense origin index inside the pool.
            origin: usize,
            /// Why this routing happened: `"initial"`, `"retry"`,
            /// `"resume"`, or `"hedge"`.
            reason: &'static str,
        },
        /// A per-origin circuit breaker changed state.
        OriginHealth = "origin_health" {
            /// Dense origin index inside the pool.
            origin: usize,
            /// New breaker state: `"closed"`, `"open"`, or `"half_open"`.
            state: &'static str,
            /// Consecutive-failure streak at the transition.
            failures: u64,
        },
        /// A hedged fetch launched (`winner` absent) or resolved (`winner`
        /// present; exactly one resolution per launch).
        Hedge = "hedge" {
            /// Chunk index.
            chunk: usize,
            /// Origin the primary fetch was on.
            origin: usize,
            /// Origin the hedge raced on.
            hedge_origin: usize,
            /// `"primary"` or `"hedge"` once the race resolves.
            winner: Option<&'static str>,
            /// Loser's delivered body bytes, accounted as waste.
            wasted: u64,
        },
        /// A losing hedge request finished draining after its race resolved
        /// (primary wins only — a hedge win accounts its waste inside the
        /// resolution event). Separate from [`TraceEvent::Hedge`] because
        /// the drain can outlive the chunk that raced.
        HedgeLoserSettled = "hedge_loser_settled" {
            /// Chunk index the race was fetching.
            chunk: usize,
            /// Body bytes the loser delivered, accounted as waste.
            wasted: u64,
        },
        /// A shared segment-cache interaction for a chunk fetch.
        Cache = "cache" {
            /// Chunk index.
            chunk: usize,
            /// Bitrate level of the segment.
            level: usize,
            /// `"hit"`, `"miss"`, or `"insert"`.
            outcome: &'static str,
            /// Segment body bytes involved.
            bytes: u64,
        },
        /// The packet scheduler assigned one new segment to a subflow, with
        /// the inputs that won the pick (one event per scheduled segment;
        /// retransmissions and reinjections are not scheduler decisions).
        SchedulerPick = "scheduler_pick" {
            /// Dense path index the segment was assigned to.
            path: usize,
            /// Segment payload length, bytes.
            len: u64,
            /// The chosen path's smoothed RTT at decision time, milliseconds
            /// (`None` before the first sample).
            srtt_ms: Option<f64>,
            /// The chosen path's shared-bottleneck occupancy at decision
            /// time, bytes (`None` on private links).
            queue_bytes: Option<u64>,
        },
        /// A churning client reached its viewing duration and departed:
        /// no further chunks will be requested and the session finalizes a
        /// partial report once its transport drains.
        SessionDeparted = "session_departed" {
            /// Seconds of content downloaded when the viewer left.
            watched_s: f64,
            /// Chunks downloaded before departing.
            chunks: u64,
        },
        /// The fleet overload policy refused an arriving session (admission
        /// cap reached, or the shared queue already past its threshold).
        SessionShed = "session_shed" {
            /// Client index inside the fleet.
            client: usize,
            /// Active (admitted, unfinished) sessions at the decision.
            active: u64,
            /// Deepest shared-bottleneck occupancy at the decision, bytes.
            queue_bytes: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndjson_encoding_is_flat_and_stamped() {
        let e = TraceEvent::DeadlineMissed {
            chunk: 17,
            overrun_s: 1.25,
        };
        let j = e.to_json(SimTime::from_millis(68_000));
        assert_eq!(
            j.get("kind").and_then(|k| k.as_str()),
            Some("deadline_missed")
        );
        let line = j.to_string();
        assert!(line.starts_with("{\"t_s\":68"), "{line}");
        assert!(!line.contains('\n'));
    }
}
