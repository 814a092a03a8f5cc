//! Minimal HTTP/1.1 over the simulated MPTCP connection, with a
//! deadline-aware request lifecycle.
//!
//! DASH is plain HTTP GETs: the player requests one chunk URL at a time
//! and the server answers with a `Content-Length`-framed body (§5.1 of the
//! paper notes the chunk size "can almost always" be read from that
//! header). This crate models exactly that much of HTTP, in byte counts:
//!
//! * a GET request is `REQUEST_BYTES` of upstream traffic;
//! * a response is `RESPONSE_HEADER_BYTES` of header followed by a
//!   `Content-Length` body, all on one persistent connection;
//! * pipelined requests are answered in order (the DASH players in this
//!   workspace issue one request at a time, but the framing supports
//!   pipelining and the tests exercise it);
//! * every request names the [`Route`] that serves it — an origin of the
//!   layer's origin list or the edge cache — through the one issuing
//!   call, [`HttpLayer::get`]. The paper's single server is origin 0 of
//!   a one-entry list.
//!
//! On top of the framing sit the pieces that keep a request robust:
//!
//! * [`fault`] — a scripted server-side fault model (5xx bursts, stalled
//!   response bodies, slow first byte, blackholes) on the fault timeline
//!   `mpdash-link::fault` shares;
//! * [`lifecycle`] — the per-request state machine deciding when to stop
//!   waiting: stall/deadline timeouts, mid-download abandonment with
//!   byte-range resume, and bounded seeded retries;
//! * request **cancellation** ([`HttpLayer::cancel`]): a small upstream
//!   message that makes the server flush the unsent tail of the response
//!   it is serving, truncating it cleanly at the transport's committed
//!   boundary so the connection-level sequence space is never corrupted.
//!
//! The layer sits *beside* the transport rather than owning it, so the
//! session can keep manipulating the MPTCP path mask on the same
//! [`MptcpSim`] the HTTP layer drives.

use mpdash_mptcp::MptcpSim;
use mpdash_obs::{TraceEvent, Tracer};
use mpdash_sim::{FaultEdges, SimDuration, SimTime};
use std::collections::{BTreeMap, HashSet, VecDeque};

pub mod cache;
pub mod fault;
pub mod lifecycle;
pub mod origin;

pub use cache::{CacheStats, SegmentKey, SharedSegmentCache};
pub use fault::{ServerFaultEvent, ServerFaultKind, ServerFaultScript};
pub use lifecycle::{
    AbortAccounting, LifecycleAction, LifecyclePolicy, LifecycleState, RequestTracker, RetryPlan,
    RetryPolicy,
};
pub use mpdash_sim::DssRange;
pub use origin::{BreakerState, HealthTransition, OriginPool, OriginPoolConfig, OriginSpec};

/// Upstream bytes of one GET request (request line + typical headers).
pub(crate) const REQUEST_BYTES: u64 = 180;
/// Downstream bytes of one response header block.
pub(crate) const RESPONSE_HEADER_BYTES: u64 = 220;
/// Upstream bytes of a cancellation (connection reset / range-abort
/// signal; smaller than a full request).
pub(crate) const CANCEL_BYTES: u64 = 60;
/// High bit marking an upstream message as a cancellation of the
/// request id in the low bits. Request ids start at 1 and count up, so
/// the flag can never collide with a real id.
pub(crate) const CANCEL_FLAG: u64 = 1 << 63;
/// Base for application-timer ids owned by the HTTP layer (deferred
/// server sends). Far above the session driver's small timer ids and
/// below [`CANCEL_FLAG`].
pub(crate) const HTTP_TIMER_BASE: u64 = 1 << 62;

/// Identifier of one GET exchange.
pub type RequestId = u64;

/// Client-visible protocol events produced as response bytes arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpEvent {
    /// The response header finished arriving; `content_length` is the
    /// body size (the chunk size the MP-DASH adapter reads, §5.1).
    HeaderReceived {
        /// Which exchange.
        id: RequestId,
        /// Body size in bytes.
        content_length: u64,
    },
    /// `received` of `total` body bytes have arrived (monotone; emitted on
    /// every delivery that advances the body).
    BodyProgress {
        /// Which exchange.
        id: RequestId,
        /// Body bytes received so far.
        received: u64,
        /// Body size.
        total: u64,
    },
    /// The body completed. `body_dss` is the connection-level byte range
    /// the body occupied — the key the analysis tool uses to attribute
    /// per-path bytes to chunks.
    Complete {
        /// Which exchange.
        id: RequestId,
        /// Connection-stream range of the body.
        body_dss: DssRange,
    },
    /// The server answered with a 5xx (header-only response, no body).
    /// The lifecycle's retry policy decides when to re-request.
    Error {
        /// Which exchange.
        id: RequestId,
    },
    /// A cancelled request finished draining: `received` body bytes
    /// arrived before the truncation point and no more will come. The
    /// byte-range resume can now be issued.
    Aborted {
        /// Which exchange.
        id: RequestId,
        /// Body bytes delivered for this request in total.
        received: u64,
        /// Connection-stream range the partial body occupied.
        body_dss: DssRange,
    },
}

/// One GET exchange, from [`HttpLayer::get`] to its last framed byte:
/// the client's framing state and, once the request reached the server,
/// the server's side of it.
#[derive(Clone, Copy, Debug)]
struct Exchange {
    id: RequestId,
    /// Where the response comes from, applied when the server sees the
    /// request.
    route: Route,
    /// The server's record of the response, once it was served.
    served: Option<ServerResponse>,
    header_remaining: u64,
    body_len: u64,
    body_received: u64,
    /// DSS offset where the body starts (known once the header is
    /// consumed).
    body_dss_start: u64,
    /// The server answered 5xx: the "body" is absent and the exchange
    /// ends in [`HttpEvent::Error`] when the header drains.
    error: bool,
    /// Set by cancellation: total response bytes (header + body) that
    /// will actually arrive. When consumption reaches this, the
    /// exchange ends in [`HttpEvent::Aborted`].
    truncated: Option<u64>,
}

impl Exchange {
    fn consumed(&self) -> u64 {
        (RESPONSE_HEADER_BYTES - self.header_remaining) + self.body_received
    }

    /// Response bytes that will actually arrive (after any truncation).
    fn wire_total(&self) -> u64 {
        let full = RESPONSE_HEADER_BYTES + self.body_len;
        self.truncated.map_or(full, |t| t.min(full))
    }
}

/// Server-side record of a response being (or about to be) sent.
#[derive(Clone, Copy, Debug)]
struct ServerResponse {
    /// Connection-stream offset of the response's first byte.
    start: u64,
    /// Bytes this response will occupy absent cancellation.
    total: u64,
}

/// Where a request's response comes from — decided at `get` time,
/// applied at serve time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Origin `i` of the layer's origin list: that origin's fault script
    /// and RTT penalty apply. A layer built without
    /// [`HttpLayer::with_origins`] has exactly one healthy origin, so the
    /// paper's implicit single server is `Origin(0)`.
    Origin(usize),
    /// The edge cache: no faults, just this first-byte delay.
    Edge(SimDuration),
}

/// Serve-time behaviour of one origin. Health tracking and routing live
/// in [`OriginPool`], owned by the caller.
#[derive(Default)]
struct OriginServe {
    faults: ServerFaultScript,
    rtt_penalty: SimDuration,
    edges: FaultEdges,
}

impl OriginServe {
    fn new(spec: &OriginSpec) -> Self {
        OriginServe {
            faults: spec.faults.clone(),
            rtt_penalty: spec.rtt_penalty,
            edges: FaultEdges::default(),
        }
    }

    /// Emit activation/clearing trace edges for this origin's script, as
    /// observed at serve instants. Untraced, it returns before the loop.
    fn trace_edges(&mut self, tracer: &Tracer, now: SimTime) {
        if !tracer.enabled() {
            return;
        }
        self.edges.observe(&self.faults, now, |e, activated| {
            let fault = e.kind.name();
            tracer.emit_with(now, || {
                if activated {
                    let until_s = e.end().as_secs_f64();
                    TraceEvent::ServerFaultActivated { fault, until_s }
                } else {
                    TraceEvent::ServerFaultCleared { fault }
                }
            });
        });
    }
}

/// One persistent HTTP/1.1 connection: client framing + server behaviour.
///
/// The "server" half is the response generator: when the simulator reports
/// a [`ServerMsg`](mpdash_mptcp::StepOutcome::ServerMsg), call
/// [`HttpLayer::on_server_msg`] and the registered resource's bytes are
/// queued on the connection — possibly delayed, stalled or replaced by a
/// 5xx according to the serving origin's [`ServerFaultScript`].
pub struct HttpLayer {
    next_id: RequestId,
    /// Every exchange the client still expects bytes for, in request
    /// (and so stream) order. One leaves when its framing ends, its
    /// server side with it.
    exchanges: VecDeque<Exchange>,
    /// Requests cancelled before they reached the server; their later
    /// arrival must be ignored silently.
    cancelled: HashSet<RequestId>,
    /// Deferred response parts (slow first byte / stalled body), keyed
    /// by application-timer id.
    deferred: BTreeMap<u64, (RequestId, u64)>,
    /// Earliest virtual time the next response part may be queued —
    /// enforces FIFO stream order even when an earlier response's parts
    /// were deferred by a fault.
    next_free: SimTime,
    /// Total connection-stream bytes promised by served responses
    /// (allocator for `ServerResponse::start`).
    stream_planned: u64,
    /// Total connection-stream bytes the client has consumed (framing
    /// cursor; equals delivered bytes fed through `on_delivered`).
    cursor: u64,
    next_timer: u64,
    /// The origins a [`Route::Origin`] indexes; one healthy origin
    /// unless [`HttpLayer::with_origins`] replaced the list.
    origins: Vec<OriginServe>,
    tracer: Tracer,
}

impl Default for HttpLayer {
    fn default() -> Self {
        Self::new()
    }
}

impl HttpLayer {
    /// A fresh connection with no requests in flight and one healthy
    /// origin.
    pub fn new() -> Self {
        HttpLayer {
            next_id: 1,
            exchanges: VecDeque::new(),
            cancelled: HashSet::new(),
            deferred: BTreeMap::new(),
            next_free: SimTime::ZERO,
            stream_planned: 0,
            cursor: 0,
            next_timer: 0,
            origins: vec![OriginServe::default()],
            tracer: Tracer::disabled(),
        }
    }

    /// Replace the origin list: each origin's fault script and RTT
    /// penalty apply to the requests routed to it.
    pub fn with_origins(mut self, origins: &[OriginSpec]) -> Self {
        self.origins = origins.iter().map(OriginServe::new).collect();
        self
    }

    /// Attach a tracer for server-fault activation/clearing edges.
    /// Observe-only: attaching one changes no behaviour.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Issue a GET for the byte range `[from, total)` of a resource,
    /// served by `route` (`from = 0` is the plain full-resource GET; a
    /// positive `from` is the resume after an abandonment, the failover
    /// retry or the hedge). On the wire it is an ordinary request whose
    /// response body is the requested range.
    pub fn get(&mut self, sim: &mut MptcpSim, route: Route, total: u64, from: u64) -> RequestId {
        debug_assert!(from <= total, "range start past resource end");
        debug_assert!(
            !matches!(route, Route::Origin(i) if i >= self.origins.len()),
            "unknown origin in {route:?}"
        );
        let size = total - from;
        let id = self.next_id;
        self.next_id += 1;
        self.exchanges.push_back(Exchange {
            id,
            route,
            served: None,
            header_remaining: RESPONSE_HEADER_BYTES,
            body_len: size,
            body_received: 0,
            body_dss_start: 0,
            error: false,
            truncated: None,
        });
        sim.send_request(id, REQUEST_BYTES);
        id
    }

    /// Cancel request `id`: send the abort signal upstream. When it
    /// reaches the server, the unsent tail of the response is flushed
    /// and the client's framing is truncated at the transport's
    /// committed boundary; the exchange then ends in
    /// [`HttpEvent::Aborted`] once the surviving bytes drain.
    pub fn cancel(&mut self, sim: &mut MptcpSim, id: RequestId) {
        debug_assert!(id < CANCEL_FLAG);
        sim.send_request(CANCEL_FLAG | id, CANCEL_BYTES);
    }

    /// The server received upstream message `id`: either a request to
    /// serve (queue its response bytes, subject to the fault script) or
    /// a cancellation to apply. Returns any client-side events the
    /// cancellation produced (an already-drained abort surfaces here).
    pub fn on_server_msg(&mut self, sim: &mut MptcpSim, id: RequestId) -> Vec<HttpEvent> {
        if id & CANCEL_FLAG != 0 {
            return self.handle_cancel(sim, id & !CANCEL_FLAG);
        }
        let Some(x) = self.exchanges.iter_mut().find(|x| x.id == id) else {
            // A cancel overtook its own request; the exchange was
            // already unwound when the cancel was processed.
            let was_cancelled = self.cancelled.remove(&id);
            debug_assert!(was_cancelled, "server saw unknown request {id}");
            return Vec::new();
        };
        debug_assert!(x.served.is_none(), "server saw request {id} twice");
        let (size, route) = (x.body_len, x.route);
        let now = sim.now();
        // Resolve the serve-time behaviour for this request's route:
        // whether it 5xxes, its first-byte delay (fault + RTT penalty),
        // and any mid-body stall.
        let (is_error, first_delay, stall) = match route {
            Route::Edge(delay) => (false, delay, None),
            Route::Origin(i) => {
                let origin = &mut self.origins[i];
                origin.trace_edges(&self.tracer, now);
                (
                    origin.faults.error_at(now),
                    origin.faults.first_byte_delay_at(now) + origin.rtt_penalty,
                    origin.faults.stall_at(now),
                )
            }
        };

        // 5xx: a header-only response. The client reads the status line
        // from the same header block, so its expected body shrinks to
        // zero and the exchange ends in an Error event.
        let total = RESPONSE_HEADER_BYTES + if is_error { 0 } else { size };
        let start = self.stream_planned;
        self.stream_planned += total;
        x.served = Some(ServerResponse { start, total });
        if is_error {
            x.body_len = 0;
            x.error = true;
            self.queue_part(sim, id, total, now);
            return Vec::new();
        }
        let at = now + first_delay;
        if let Some((stall, frac)) = stall {
            let first_body = ((size as f64) * frac).ceil() as u64;
            let first = RESPONSE_HEADER_BYTES + first_body.min(size);
            let rest = total - first;
            self.queue_part(sim, id, first, at);
            if rest > 0 {
                self.queue_part(sim, id, rest, at + stall);
            }
        } else {
            self.queue_part(sim, id, total, at);
        }
        Vec::new()
    }

    /// An application timer fired. Returns `true` if it was an HTTP
    /// deferred-send timer (now handled); `false` means the id belongs
    /// to someone else (the session driver's own timers).
    pub fn on_app_timer(&mut self, sim: &mut MptcpSim, timer_id: u64) -> bool {
        if timer_id < HTTP_TIMER_BASE {
            return false;
        }
        let Some((id, bytes)) = self.deferred.remove(&timer_id) else {
            // A part cancelled after its timer was scheduled: benign.
            return true;
        };
        // A part of an exchange that ended (drained or cancelled) is
        // never sent.
        if self.exchanges.iter().any(|x| x.id == id) {
            sim.send_app(bytes);
        }
        true
    }

    /// The client's connection delivered `newly` more in-order bytes:
    /// advance framing and append the protocol events to `events` (the
    /// caller's reused buffer: this runs once per data packet).
    pub fn on_delivered(&mut self, newly: u64, events: &mut Vec<HttpEvent>) {
        let mut left = newly;
        loop {
            // Pop any front response that a cancellation truncated to
            // exactly what has already been consumed: it is fully
            // drained and must surface as Aborted even if no further
            // bytes belong to it.
            while let Some(x) = self.exchanges.front() {
                if x.truncated.is_none() || x.consumed() < x.wire_total() {
                    break;
                }
                let x = self.exchanges.pop_front().expect("front just seen");
                events.push(self.aborted(&x));
            }
            if left == 0 {
                break;
            }
            let Some(resp) = self.exchanges.front_mut() else {
                debug_assert!(false, "bytes delivered with no response expected");
                self.cursor += left;
                break;
            };
            let budget = resp.wire_total() - resp.consumed();
            if resp.header_remaining > 0 {
                let eat = left.min(resp.header_remaining).min(budget);
                resp.header_remaining -= eat;
                left -= eat;
                self.cursor += eat;
                if resp.header_remaining > 0 {
                    continue;
                }
                resp.body_dss_start = self.cursor;
                let id = resp.id;
                if resp.error {
                    self.exchanges.pop_front();
                    events.push(HttpEvent::Error { id });
                    continue;
                }
                events.push(HttpEvent::HeaderReceived {
                    id,
                    content_length: resp.body_len,
                });
            } else {
                let eat = left.min(resp.body_len - resp.body_received).min(budget);
                resp.body_received += eat;
                left -= eat;
                self.cursor += eat;
                events.push(HttpEvent::BodyProgress {
                    id: resp.id,
                    received: resp.body_received,
                    total: resp.body_len,
                });
            }
            // An empty body is complete the moment its header is: without
            // this, a zero-byte resource whose delivery ends exactly at
            // the header boundary never completes.
            if resp.body_received == resp.body_len {
                let id = resp.id;
                events.push(HttpEvent::Complete {
                    id,
                    body_dss: DssRange {
                        start: resp.body_dss_start,
                        end: self.cursor,
                    },
                });
                self.exchanges.pop_front();
            }
            // A drained truncated response is handled at the top of the
            // next iteration.
        }
    }

    /// Number of exchanges the client still expects bytes for.
    pub fn inflight(&self) -> usize {
        self.exchanges.len()
    }

    /// Queue `bytes` of response `id` on the connection at `at` (or
    /// now, if `at` is in the past), preserving FIFO stream order
    /// behind any earlier deferred part.
    fn queue_part(&mut self, sim: &mut MptcpSim, id: RequestId, bytes: u64, at: SimTime) {
        let now = sim.now();
        let at = at.max(self.next_free);
        self.next_free = at;
        if at <= now {
            sim.send_app(bytes);
        } else {
            let timer = HTTP_TIMER_BASE + self.next_timer;
            self.next_timer += 1;
            self.deferred.insert(timer, (id, bytes));
            sim.schedule_app_timer(at, timer);
        }
    }

    /// The terminal event of a cancelled exchange that has drained: the
    /// partial body occupies the stream from its first byte (or from the
    /// cursor, when not even the header completed) up to the cursor.
    fn aborted(&self, resp: &Exchange) -> HttpEvent {
        let start = if resp.header_remaining == 0 {
            resp.body_dss_start
        } else {
            self.cursor
        };
        HttpEvent::Aborted {
            id: resp.id,
            received: resp.body_received,
            body_dss: DssRange {
                start,
                end: self.cursor,
            },
        }
    }

    /// Apply a cancellation for request `id` at the server.
    fn handle_cancel(&mut self, sim: &mut MptcpSim, id: RequestId) -> Vec<HttpEvent> {
        let mut events = Vec::new();
        let Some(pos) = self.exchanges.iter().position(|x| x.id == id) else {
            // The response completed before the cancel arrived; the
            // session already saw Complete and this cancel is stale.
            return events;
        };
        let Some(sr) = self.exchanges[pos].served else {
            // The cancel overtook the request: nothing is on the wire
            // yet, so the exchange unwinds immediately.
            self.cancelled.insert(id);
            let x = self.exchanges.remove(pos).expect("position just found");
            events.push(self.aborted(&x));
            return events;
        };
        // Only the most recently served response can be cancelled:
        // every earlier response is fully consumed by the client (FIFO
        // framing), so the transport's unassigned tail belongs entirely
        // to this response and flushing it cannot touch other
        // exchanges' bytes.
        debug_assert_eq!(
            sr.start + sr.total,
            self.stream_planned,
            "cancellation must target the last served response"
        );
        self.deferred.retain(|_, (rid, _)| *rid != id);
        let _ = sim.flush_unsent();
        let committed = sim.conn_total();
        debug_assert!(committed >= sr.start);
        let survive = committed.saturating_sub(sr.start);
        self.stream_planned = committed;
        self.next_free = sim.now();
        let x = &mut self.exchanges[pos];
        x.served = Some(ServerResponse {
            total: survive,
            ..sr
        });
        x.truncated = Some(survive);
        if x.consumed() >= survive {
            // Everything that will ever arrive already drained.
            let x = self.exchanges.remove(pos).expect("position just found");
            events.push(self.aborted(&x));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_link::LinkConfig;
    use mpdash_mptcp::{MptcpConfig, StepOutcome};
    use mpdash_sim::SimDuration;

    /// `on_delivered` into a fresh buffer.
    fn delivered(http: &mut HttpLayer, newly: u64) -> Vec<HttpEvent> {
        let mut events = Vec::new();
        http.on_delivered(newly, &mut events);
        events
    }

    fn sim() -> MptcpSim {
        let wifi = LinkConfig::constant(3.8, SimDuration::from_millis(25));
        let cell = LinkConfig::constant(3.0, SimDuration::from_millis(30));
        MptcpSim::new(MptcpConfig::two_path(wifi, cell))
    }

    /// A connection whose single origin misbehaves per `script`.
    fn faulty(script: ServerFaultScript) -> HttpLayer {
        HttpLayer::new().with_origins(&[OriginSpec::new("origin").with_faults(script)])
    }

    /// Drive one GET to completion; returns the events seen.
    fn fetch(sim: &mut MptcpSim, http: &mut HttpLayer, size: u64) -> Vec<HttpEvent> {
        let id = http.get(sim, Route::Origin(0), size, 0);
        let mut events = Vec::new();
        loop {
            let Some((_, outcome)) = sim.step() else {
                panic!("drained before completing request {id}")
            };
            match outcome {
                StepOutcome::ServerMsg { id } => {
                    events.extend(http.on_server_msg(sim, id));
                }
                StepOutcome::AppTimer { id } => {
                    assert!(http.on_app_timer(sim, id), "unexpected non-HTTP timer");
                }
                StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                    let evs = delivered(http, newly_delivered);
                    let done = evs.iter().any(|e| {
                        matches!(e,
                            HttpEvent::Complete { id: i, .. }
                            | HttpEvent::Error { id: i }
                            | HttpEvent::Aborted { id: i, .. } if *i == id)
                    });
                    events.extend(evs);
                    if done {
                        return events;
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn single_get_round_trip() {
        let mut s = sim();
        let mut h = HttpLayer::new();
        let events = fetch(&mut s, &mut h, 100_000);
        assert!(matches!(
            events.first(),
            Some(HttpEvent::HeaderReceived {
                content_length: 100_000,
                ..
            })
        ));
        let Some(HttpEvent::Complete { body_dss, .. }) = events.last() else {
            panic!("no completion")
        };
        assert_eq!(body_dss.start, RESPONSE_HEADER_BYTES);
        assert_eq!(body_dss.len(), 100_000);
        assert_eq!(h.inflight(), 0);
    }

    #[test]
    fn body_progress_is_monotone_and_complete() {
        let mut s = sim();
        let mut h = HttpLayer::new();
        let events = fetch(&mut s, &mut h, 50_000);
        let mut last = 0;
        for e in &events {
            if let HttpEvent::BodyProgress {
                received, total, ..
            } = e
            {
                assert!(*received >= last);
                assert_eq!(*total, 50_000);
                last = *received;
            }
        }
        assert_eq!(last, 50_000);
    }

    #[test]
    fn sequential_gets_share_the_connection() {
        let mut s = sim();
        let mut h = HttpLayer::new();
        let e1 = fetch(&mut s, &mut h, 30_000);
        let e2 = fetch(&mut s, &mut h, 70_000);
        let Some(HttpEvent::Complete { body_dss: r1, .. }) = e1.last() else {
            panic!()
        };
        let Some(HttpEvent::Complete { body_dss: r2, .. }) = e2.last() else {
            panic!()
        };
        // Second body sits after the first response in the stream.
        assert_eq!(r2.start, r1.end + RESPONSE_HEADER_BYTES);
        assert_eq!(r2.len(), 70_000);
    }

    #[test]
    fn pipelined_requests_complete_in_order() {
        let mut s = sim();
        let mut h = HttpLayer::new();
        let a = h.get(&mut s, Route::Origin(0), 40_000, 0);
        let b = h.get(&mut s, Route::Origin(0), 10_000, 0);
        let mut completions = Vec::new();
        while completions.len() < 2 {
            let Some((_, outcome)) = s.step() else {
                panic!("drained early")
            };
            match outcome {
                StepOutcome::ServerMsg { id } => {
                    h.on_server_msg(&mut s, id);
                }
                StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                    for e in delivered(&mut h, newly_delivered) {
                        if let HttpEvent::Complete { id, .. } = e {
                            completions.push(id);
                        }
                    }
                }
                _ => {}
            }
        }
        assert_eq!(completions, vec![a, b]);
    }

    #[test]
    fn zero_byte_resource_completes_on_header() {
        let mut s = sim();
        let mut h = HttpLayer::new();
        let events = fetch(&mut s, &mut h, 0);
        let Some(HttpEvent::Complete { body_dss, .. }) = events.last() else {
            panic!("zero-byte GET must still complete")
        };
        assert!(body_dss.is_empty(), "empty body range");
        assert_eq!(h.inflight(), 0, "nothing may linger in flight");
    }

    #[test]
    fn many_tiny_pipelined_requests_frame_correctly() {
        let mut s = sim();
        let mut h = HttpLayer::new();
        let ids: Vec<_> = (0..20)
            .map(|i| h.get(&mut s, Route::Origin(0), 100 + i, 0))
            .collect();
        let mut done = Vec::new();
        while done.len() < ids.len() {
            let Some((_, o)) = s.step() else {
                panic!("drained")
            };
            match o {
                StepOutcome::ServerMsg { id } => {
                    h.on_server_msg(&mut s, id);
                }
                StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                    for e in delivered(&mut h, newly_delivered) {
                        if let HttpEvent::Complete { id, body_dss } = e {
                            let idx = (id - ids[0]) as usize;
                            assert_eq!(body_dss.len(), 100 + idx as u64);
                            done.push(id);
                        }
                    }
                }
                _ => {}
            }
        }
        assert_eq!(done, ids, "completions in request order");
    }

    #[test]
    fn transfer_time_reflects_link_rate() {
        let mut s = sim();
        let mut h = HttpLayer::new();
        fetch(&mut s, &mut h, 5_000_000);
        // 5 MB over ~6.8 Mbps aggregate ≈ 6 s (the paper's §2.3 numbers).
        let secs = s.now().as_secs_f64();
        assert!(secs > 5.0 && secs < 8.0, "took {secs:.2}s");
    }

    #[test]
    fn error_burst_returns_5xx_and_connection_survives() {
        let mut s = sim();
        let mut h =
            faulty(ServerFaultScript::new().error_burst(SimTime::ZERO, SimDuration::from_secs(1)));
        let events = fetch(&mut s, &mut h, 100_000);
        assert!(
            matches!(events.last(), Some(HttpEvent::Error { .. })),
            "expected a 5xx, got {events:?}"
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, HttpEvent::HeaderReceived { .. })),
            "an error response carries no content header"
        );
        assert_eq!(h.inflight(), 0);
        // Past the burst window the same connection serves normally.
        while s.now() < SimTime::from_secs(1) {
            if s.step().is_none() {
                break;
            }
        }
        let events = fetch(&mut s, &mut h, 100_000);
        assert!(matches!(events.last(), Some(HttpEvent::Complete { .. })));
    }

    #[test]
    fn slow_first_byte_defers_the_whole_response() {
        let mut fast = sim();
        let mut hf = HttpLayer::new();
        fetch(&mut fast, &mut hf, 50_000);
        let baseline = fast.now();

        let mut s = sim();
        let delay = SimDuration::from_millis(800);
        let mut h = faulty(ServerFaultScript::new().slow_first_byte(
            SimTime::ZERO,
            SimDuration::from_secs(5),
            delay,
        ));
        fetch(&mut s, &mut h, 50_000);
        let slowed = s.now();
        let extra = slowed.saturating_since(baseline);
        assert!(
            extra >= delay.mul_f64(0.9),
            "first-byte delay not applied: extra {extra}"
        );
    }

    #[test]
    fn stalled_body_pauses_midway_then_completes() {
        let mut s = sim();
        let stall = SimDuration::from_secs(2);
        let mut h = faulty(ServerFaultScript::new().stalled_body(
            SimTime::ZERO,
            SimDuration::from_secs(5),
            stall,
            0.5,
        ));
        let events = fetch(&mut s, &mut h, 200_000);
        assert!(matches!(events.last(), Some(HttpEvent::Complete { .. })));
        // The transfer must take at least the stall itself.
        assert!(s.now() >= SimTime::ZERO + stall, "stall not applied");
    }

    #[test]
    fn cancel_mid_body_truncates_and_resume_fetches_the_tail() {
        let mut s = sim();
        let mut h = HttpLayer::new();
        let size: u64 = 400_000;
        let id = h.get(&mut s, Route::Origin(0), size, 0);
        let mut received;
        let mut aborted: Option<(u64, DssRange)> = None;
        // Drive until roughly a quarter of the body arrived, then cancel.
        'outer: loop {
            let Some((_, o)) = s.step() else {
                panic!("drained")
            };
            match o {
                StepOutcome::ServerMsg { id } => {
                    h.on_server_msg(&mut s, id);
                }
                StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                    for e in delivered(&mut h, newly_delivered) {
                        if let HttpEvent::BodyProgress { received: r, .. } = e {
                            received = r;
                            if r > size / 4 {
                                break 'outer;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        h.cancel(&mut s, id);
        // Drain until the abort surfaces.
        while aborted.is_none() {
            let Some((_, o)) = s.step() else {
                panic!("drained without abort")
            };
            match o {
                StepOutcome::ServerMsg { id } => {
                    for e in h.on_server_msg(&mut s, id) {
                        if let HttpEvent::Aborted {
                            received, body_dss, ..
                        } = e
                        {
                            aborted = Some((received, body_dss));
                        }
                    }
                }
                StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                    for e in delivered(&mut h, newly_delivered) {
                        match e {
                            HttpEvent::Aborted {
                                received, body_dss, ..
                            } => aborted = Some((received, body_dss)),
                            HttpEvent::Complete { .. } => {
                                panic!("cancelled request must not complete")
                            }
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        let (got, dss) = aborted.unwrap();
        assert!(got >= received, "abort may only add in-flight bytes");
        assert!(got < size, "cancel flushed nothing");
        assert_eq!(dss.len(), got, "partial body range matches received");
        assert_eq!(h.inflight(), 0);
        // Byte-range resume for the missing tail completes and the tail
        // body sits directly after the aborted bytes plus its header.
        let events = fetch(&mut s, &mut h, size - got);
        let Some(HttpEvent::Complete { body_dss, .. }) = events.last() else {
            panic!("resume did not complete")
        };
        assert_eq!(body_dss.len(), size - got);
        assert_eq!(body_dss.start, dss.end + RESPONSE_HEADER_BYTES);
    }

    #[test]
    fn cancel_that_overtakes_its_request_unwinds_immediately() {
        let mut s = sim();
        let mut h = HttpLayer::new();
        let id = h.get(&mut s, Route::Origin(0), 100_000, 0);
        // Cancel immediately: the (smaller) cancel message can reach the
        // server before the request's serialization completes.
        h.cancel(&mut s, id);
        let mut aborted = false;
        let mut served = 0;
        for _ in 0..10_000 {
            let Some((_, o)) = s.step() else { break };
            match o {
                StepOutcome::ServerMsg { id } => {
                    served += 1;
                    for e in h.on_server_msg(&mut s, id) {
                        if matches!(e, HttpEvent::Aborted { received: 0, .. }) {
                            aborted = true;
                        }
                    }
                }
                StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                    for e in delivered(&mut h, newly_delivered) {
                        assert!(
                            !matches!(e, HttpEvent::Complete { .. }),
                            "cancelled request completed"
                        );
                    }
                }
                _ => {}
            }
        }
        assert_eq!(served, 2, "request and cancel must both arrive");
        assert!(aborted, "overtaking cancel must abort the exchange");
        assert_eq!(h.inflight(), 0);
        // The connection still works.
        let events = fetch(&mut s, &mut h, 10_000);
        assert!(matches!(events.last(), Some(HttpEvent::Complete { .. })));
    }

    #[test]
    fn cancel_during_stalled_body_aborts_without_waiting_out_the_stall() {
        let mut s = sim();
        let stall = SimDuration::from_secs(30);
        let mut h = faulty(ServerFaultScript::new().stalled_body(
            SimTime::ZERO,
            SimDuration::from_secs(5),
            stall,
            0.25,
        ));
        let size: u64 = 200_000;
        let id = h.get(&mut s, Route::Origin(0), size, 0);
        let mut last_progress = 0u64;
        let mut aborted_at = None;
        let mut cancelled = false;
        loop {
            let Some((t, o)) = s.step() else {
                panic!("drained")
            };
            match o {
                StepOutcome::ServerMsg { id } => {
                    for e in h.on_server_msg(&mut s, id) {
                        if let HttpEvent::Aborted { received, .. } = e {
                            aborted_at = Some((t, received));
                        }
                    }
                }
                StepOutcome::AppTimer { id } => {
                    h.on_app_timer(&mut s, id);
                }
                StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                    for e in delivered(&mut h, newly_delivered) {
                        if let HttpEvent::BodyProgress { received, .. } = e {
                            last_progress = received;
                        }
                        if let HttpEvent::Aborted { received, .. } = e {
                            aborted_at = Some((t, received));
                        }
                    }
                }
                _ => {}
            }
            // First quarter arrived and the stall is in force: cancel.
            if !cancelled && last_progress >= size / 4 {
                h.cancel(&mut s, id);
                cancelled = true;
            }
            if aborted_at.is_some() {
                break;
            }
        }
        let (t, received) = aborted_at.unwrap();
        assert!(
            t < SimTime::ZERO + stall,
            "abort must not wait out the stall (aborted at {t})"
        );
        assert_eq!(received, last_progress);
        // The stalled tail's deferred part was dropped with the cancel.
        let events = fetch(&mut s, &mut h, size - received);
        assert!(matches!(events.last(), Some(HttpEvent::Complete { .. })));
    }

    /// Drive an already-issued request to its terminal event.
    fn drive(sim: &mut MptcpSim, http: &mut HttpLayer, id: RequestId) -> Vec<HttpEvent> {
        let mut events = Vec::new();
        loop {
            let Some((_, outcome)) = sim.step() else {
                panic!("drained before finishing request {id}")
            };
            let evs = match outcome {
                StepOutcome::ServerMsg { id } => http.on_server_msg(sim, id),
                StepOutcome::AppTimer { id } => {
                    http.on_app_timer(sim, id);
                    Vec::new()
                }
                StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                    delivered(http, newly_delivered)
                }
                _ => Vec::new(),
            };
            let done = evs.iter().any(|e| {
                matches!(e,
                    HttpEvent::Complete { id: i, .. }
                    | HttpEvent::Error { id: i }
                    | HttpEvent::Aborted { id: i, .. } if *i == id)
            });
            events.extend(evs);
            if done {
                return events;
            }
        }
    }

    #[test]
    fn requests_route_to_their_own_origin_script() {
        let origins = [
            OriginSpec::new("healthy"),
            OriginSpec::new("erroring").with_faults(
                ServerFaultScript::new().error_burst(SimTime::ZERO, SimDuration::from_secs(600)),
            ),
        ];
        let mut s = sim();
        let mut h = HttpLayer::new().with_origins(&origins);
        let a = h.get(&mut s, Route::Origin(0), 20_000, 0);
        let events = drive(&mut s, &mut h, a);
        assert!(matches!(events.last(), Some(HttpEvent::Complete { .. })));
        let b = h.get(&mut s, Route::Origin(1), 20_000, 0);
        let events = drive(&mut s, &mut h, b);
        assert!(
            matches!(events.last(), Some(HttpEvent::Error { .. })),
            "origin 1's burst must 5xx its requests: {events:?}"
        );
    }

    #[test]
    fn rtt_penalty_defers_an_origin_response() {
        let mut fast = sim();
        let mut hf = HttpLayer::new().with_origins(&[OriginSpec::new("near")]);
        let id = hf.get(&mut fast, Route::Origin(0), 50_000, 0);
        drive(&mut fast, &mut hf, id);
        let baseline = fast.now();

        let penalty = SimDuration::from_millis(300);
        let mut s = sim();
        let mut h =
            HttpLayer::new().with_origins(&[OriginSpec::new("far").with_rtt_penalty(penalty)]);
        let id = h.get(&mut s, Route::Origin(0), 50_000, 0);
        drive(&mut s, &mut h, id);
        let extra = s.now().saturating_since(baseline);
        assert!(
            extra >= penalty.mul_f64(0.9),
            "rtt penalty not applied: extra {extra}"
        );
    }

    #[test]
    fn edge_fetch_bypasses_origin_faults() {
        let origins = [OriginSpec::new("dark").with_faults(
            ServerFaultScript::new().blackhole(SimTime::ZERO, SimDuration::from_secs(600)),
        )];
        let mut s = sim();
        let mut h = HttpLayer::new().with_origins(&origins);
        let id = h.get(&mut s, Route::Edge(SimDuration::from_millis(5)), 50_000, 0);
        let events = drive(&mut s, &mut h, id);
        assert!(matches!(events.last(), Some(HttpEvent::Complete { .. })));
        assert!(
            s.now() < SimTime::from_secs(10),
            "edge hit must not wait out the origin blackhole (now {})",
            s.now()
        );
    }

    #[test]
    fn blackholed_request_cancels_cleanly_and_failover_streams_immediately() {
        let origins = [
            OriginSpec::new("dark").with_faults(
                ServerFaultScript::new().blackhole(SimTime::ZERO, SimDuration::from_secs(120)),
            ),
            OriginSpec::new("healthy"),
        ];
        let mut s = sim();
        let mut h = HttpLayer::new().with_origins(&origins);
        let size: u64 = 100_000;
        let dark = h.get(&mut s, Route::Origin(0), size, 0);
        // Step until the request reaches the dark origin (stepping past
        // that point would jump the clock to the 120 s deferral timer —
        // the only other scheduled event), then fail over: cancel the
        // wedged exchange and re-request from origin 1. The cancel drops
        // the deferred (blackholed) response parts and resets stream
        // order, so the failover is not queued behind the outage window.
        loop {
            let (_, o) = s.step().expect("request must reach the origin");
            match o {
                StepOutcome::ServerMsg { id } if id == dark => {
                    h.on_server_msg(&mut s, id);
                    break;
                }
                StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                    delivered(&mut h, newly_delivered);
                }
                _ => {}
            }
        }
        assert!(
            !h.deferred.is_empty(),
            "the blackhole deferred the response"
        );
        h.cancel(&mut s, dark);
        let aborted = drive(&mut s, &mut h, dark);
        let Some(HttpEvent::Aborted { received, .. }) = aborted.last() else {
            panic!("wedged request must abort, got {aborted:?}")
        };
        assert_eq!(*received, 0, "a blackholed response delivered nothing");
        let retry = h.get(&mut s, Route::Origin(1), size, 0);
        let events = drive(&mut s, &mut h, retry);
        assert!(matches!(events.last(), Some(HttpEvent::Complete { .. })));
        assert!(
            s.now() < SimTime::from_secs(10),
            "failover fetch must not inherit the blackhole deferral (now {})",
            s.now()
        );
    }

    #[test]
    fn server_fault_edges_are_traced_once() {
        use mpdash_obs::RingSink;
        use std::sync::Arc;
        let ring = Arc::new(RingSink::new(64));
        let mut s = sim();
        let mut h = faulty(
            ServerFaultScript::new().error_burst(SimTime::ZERO, SimDuration::from_millis(500)),
        );
        h.set_tracer(Tracer::new(ring.clone()));
        fetch(&mut s, &mut h, 10_000); // inside the burst: 5xx
        while s.now() < SimTime::from_secs(1) {
            if s.step().is_none() {
                break;
            }
        }
        fetch(&mut s, &mut h, 10_000); // past the burst: edge clears
        let kinds: Vec<&'static str> = ring
            .events()
            .iter()
            .map(|(_, e)| e.kind())
            .filter(|k| k.starts_with("server_fault"))
            .collect();
        assert_eq!(
            kinds,
            vec!["server_fault_activated", "server_fault_cleared"]
        );
    }
}
