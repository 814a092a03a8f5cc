//! [`ChunkFetch`]: how one chunk's bytes arrive.
//!
//! The streaming loop above this module decides *what* to fetch and by
//! *when* (level, size, deadline window) and hands that to
//! [`ChunkFetch::begin`]; it hears back once, when
//! [`ChunkFetch::on_http_event`] returns the finished chunk. Everything
//! in between is this module's business and none of the loop's: which
//! origin (or the edge cache) serves the request, when a request is given
//! up on, how the missing byte range is re-requested — after a drained
//! cancel, after a 5xx backoff, or as a hedge raced against the cancelled
//! primary — and what all of that cost. MSPlayer is the precedent for the
//! shape: a chunk fetch, byte-range re-requests across sources included,
//! is one unit beneath the rate-adaptation loop, not part of it.
//!
//! It is a plain struct, not a trait: there is one way chunks are
//! fetched, and its policies are *data* ([`LifecyclePolicy`], an optional
//! [`OriginPool`], an optional [`SharedSegmentCache`]). A session that
//! configures none of them pays one early return per tick.
//!
//! Per chunk, the [`RequestTracker`] is the single owner of size, banked
//! bytes, last-progress instant and the cancelling flag; [`Inflight`]
//! adds only what the tracker cannot know (which request id is current,
//! where it was routed, its byte-range offset).

use crate::config::SessionConfig;
use crate::record::{Outcome, Recorder};
use crate::report::ChunkLogEntry;
use mpdash_core::MpDashControl;
use mpdash_http::{
    BreakerState, DssRange, HealthTransition, HttpEvent, HttpLayer, LifecycleAction,
    LifecyclePolicy, OriginPool, OriginSpec, RequestId, RequestTracker, RetryPlan, Route,
    SharedSegmentCache,
};
use mpdash_mptcp::MptcpSim;
use mpdash_obs::TraceEvent;
use mpdash_sim::{SimDuration, SimTime};

/// Timer for a pending lifecycle retry (seeded backoff after a 5xx).
const RETRY_ID: u64 = u64::MAX - 3;

/// The chunk being fetched.
pub(crate) struct Inflight {
    pub index: usize,
    pub level: usize,
    pub started: SimTime,
    /// The MP-DASH window granted, `None` when the adapter bypassed.
    pub deadline: Option<SimDuration>,
    /// Lifecycle state machine for the chunk's requests.
    tracker: RequestTracker,
    /// The request whose bytes currently count for this chunk.
    req: RequestId,
    /// Bytes already banked when `req` was issued (its byte-range
    /// offset).
    base: u64,
    /// Origin serving `req`; `None` for a cache-hit edge fetch.
    origin: Option<usize>,
    /// HTTP requests issued for this chunk so far.
    requests: u32,
    /// A live hedge race — the hedge's request id and origin: `req` has
    /// been cancelled and the missing byte range re-requested from a
    /// second origin. Connection stream order guarantees the primary's
    /// terminal event (Aborted or Error, or Complete when the cancel was
    /// stale) arrives before the hedge's, so the race resolves
    /// deterministically with exactly one winner.
    hedge: Option<(RequestId, usize)>,
}

impl Inflight {
    /// Body bytes of the chunk.
    pub fn size(&self) -> u64 {
        self.tracker.size()
    }

    /// Useful body bytes banked across every request for the chunk.
    pub fn received(&self) -> u64 {
        self.tracker.received()
    }

    /// `req`, issued to `origin` at `now` for the missing range, is now
    /// the request whose bytes count.
    fn adopt(&mut self, now: SimTime, req: RequestId, origin: usize) {
        self.req = req;
        self.base = self.tracker.received();
        self.origin = Some(origin);
        self.tracker.on_reissued(now);
    }
}

/// Fetches one chunk at a time over the session's connection. See the
/// module docs.
pub(crate) struct ChunkFetch {
    http: HttpLayer,
    /// Health-tracked origin pool (`None` = the single implicit origin,
    /// origin 0 of the HTTP layer's one-entry list).
    pool: Option<OriginPool>,
    /// Shared segment cache handle (`None` = no cache tier).
    cache: Option<SharedSegmentCache>,
    policy: LifecyclePolicy,
    current: Option<Inflight>,
    /// Hedge losers whose cancel is draining, with the chunk they raced
    /// for; their terminal event accounts the duplicate bytes as waste.
    losers: Vec<(RequestId, usize)>,
}

impl ChunkFetch {
    pub fn new(cfg: &SessionConfig, rec: &Recorder) -> Self {
        let pool = cfg.origins.clone().map(OriginPool::new);
        let http = HttpLayer::new();
        let mut http = match pool.as_ref() {
            Some(pool) => http.with_origins(&pool.config().origins),
            None => http
                .with_origins(&[OriginSpec::new("origin").with_faults(cfg.server_faults.clone())]),
        };
        http.set_tracer(rec.tracer.clone());
        ChunkFetch {
            http,
            pool,
            cache: cfg.cache.clone(),
            policy: cfg.lifecycle,
            current: None,
            losers: Vec::new(),
        }
    }

    /// The chunk in flight, if any.
    pub fn current(&self) -> Option<&Inflight> {
        self.current.as_ref()
    }

    /// Breaker-state sanity probe for the runtime watchdog (`Ok(())`
    /// without a pool).
    pub fn breaker_sanity(&self) -> Result<(), &'static str> {
        self.pool.as_ref().map_or(Ok(()), |p| p.sanity())
    }

    /// Issue the first request for a chunk: from the shared segment
    /// cache when the full chunk is hot, otherwise from the origin the
    /// pool routes it to.
    pub fn begin(
        &mut self,
        sim: &mut MptcpSim,
        rec: &mut Recorder,
        index: usize,
        level: usize,
        size: u64,
        deadline: Option<SimDuration>,
    ) {
        let now = sim.now();
        let mut edge = None;
        if let Some(cache) = self.cache.as_ref() {
            let hit = cache.lookup((index, level));
            debug_assert!(
                hit.is_none_or(|bytes| bytes == size),
                "a cached segment must match the origin bytes"
            );
            let (what, outcome) = match hit {
                Some(_) => (Outcome::CacheHit, "hit"),
                None => (Outcome::CacheMiss, "miss"),
            };
            rec.event(now, what, || TraceEvent::Cache {
                chunk: index,
                level,
                outcome,
                bytes: size,
            });
            edge = hit.map(|_| Route::Edge(cache.edge_delay()));
        }
        let (route, origin) = match edge {
            Some(edge) => (edge, None),
            None => {
                let origin = self.route(rec, now, index, "initial", None);
                (Route::Origin(origin), Some(origin))
            }
        };
        self.current = Some(Inflight {
            index,
            level,
            started: now,
            deadline,
            tracker: RequestTracker::new(self.policy, index, now, size, deadline),
            req: self.http.get(sim, route, size, 0),
            base: 0,
            origin,
            requests: 1,
            hedge: None,
        });
    }

    /// The connection delivered `newly` more bytes; append the events.
    pub fn on_delivered(&mut self, newly: u64, events: &mut Vec<HttpEvent>) {
        self.http.on_delivered(newly, events);
    }

    /// The server received upstream message `id` (a request to serve or
    /// a cancellation to apply).
    pub fn on_server_msg(&mut self, sim: &mut MptcpSim, id: u64) -> Vec<HttpEvent> {
        self.http.on_server_msg(sim, id)
    }

    /// React to one client-side HTTP event. Returns the chunk's log
    /// entry when the event completed it.
    pub fn on_http_event(
        &mut self,
        sim: &mut MptcpSim,
        rec: &mut Recorder,
        ev: HttpEvent,
    ) -> Option<ChunkLogEntry> {
        let t = sim.now();
        let (id, delivered) = match ev {
            HttpEvent::HeaderReceived { .. } => return None,
            HttpEvent::BodyProgress { id, received, .. } => {
                if let Some(cur) = self.current.as_mut().filter(|c| c.req == id) {
                    cur.tracker.on_progress(t, cur.base + received);
                }
                return None;
            }
            HttpEvent::Complete { id, body_dss } => (id, body_dss.len()),
            HttpEvent::Error { id } => (id, 0),
            HttpEvent::Aborted { id, received, .. } => (id, received),
        };
        // A terminal event: of a retired hedge loser (everything it
        // delivered duplicates bytes the winner already provided), or of
        // the current request.
        if let Some(pos) = self.losers.iter().position(|&(l, _)| l == id) {
            let (_, chunk) = self.losers.remove(pos);
            rec.count(t, Outcome::WastedBytes, delivered);
            rec.tracer.emit_with(t, || TraceEvent::HedgeLoserSettled {
                chunk,
                wasted: delivered,
            });
        } else if self.current.as_ref().is_some_and(|c| c.req == id) {
            match ev {
                HttpEvent::Complete { body_dss, .. } => {
                    return Some(self.on_complete(sim, rec, body_dss))
                }
                HttpEvent::Error { .. } => self.on_error(sim, rec),
                _ => self.on_drained(sim, rec, delivered),
            }
        }
        None
    }

    /// The 50 ms progress tick: the hedge trigger, then the lifecycle's
    /// timeout/abandonment decision. `control` supplies the aggregate
    /// throughput estimate for the feasibility verdict.
    pub fn tick(
        &mut self,
        sim: &mut MptcpSim,
        rec: &mut Recorder,
        control: Option<&MpDashControl>,
    ) {
        if self.pool.is_none() && self.policy.is_passive() {
            return;
        }
        self.hedge_poll(sim, rec);
        self.lifecycle_poll(sim, rec, control);
    }

    /// An application timer that is not the session's own fired: the
    /// retry backoff, or a deferred server send (fault-delayed response
    /// part).
    pub fn on_timer(&mut self, sim: &mut MptcpSim, rec: &mut Recorder, id: u64) {
        if id != RETRY_ID {
            self.http.on_app_timer(sim, id);
        } else if self.current.is_some() {
            self.reissue(sim, rec, "retry", None);
        }
    }

    /// Choose the origin for a request and record the choice: `forced`
    /// (a hedge target) or the pool's pick, with any breaker promotion on
    /// the way. Without a pool every request goes to origin 0 — the
    /// paper's single server — and nothing is recorded.
    fn route(
        &mut self,
        rec: &mut Recorder,
        now: SimTime,
        chunk: usize,
        reason: &'static str,
        forced: Option<usize>,
    ) -> usize {
        let Some(pool) = self.pool.as_mut() else {
            return 0;
        };
        let origin = forced.unwrap_or_else(|| {
            let (origin, transitions) = pool.route(now);
            note_health(rec, now, &transitions);
            origin
        });
        rec.event(now, Outcome::Routed, || TraceEvent::OriginRouted {
            chunk,
            origin,
            reason,
        });
        origin
    }

    /// The one place a replacement request is issued: GET the chunk's
    /// missing byte range `[received, size)`. A resume or retry goes
    /// where the pool routes it — so the tail lands on a different
    /// origin when the old one's breaker is Open, which counts as a
    /// failover — and becomes the current request. A hedge goes to
    /// `hedge` and only races: it becomes current if the cancelled
    /// primary drains before completing.
    fn reissue(
        &mut self,
        sim: &mut MptcpSim,
        rec: &mut Recorder,
        reason: &'static str,
        hedge: Option<usize>,
    ) {
        let now = sim.now();
        let cur = self.current.as_ref().expect("reissue without a chunk");
        let (chunk, size, from, prev) = (cur.index, cur.size(), cur.received(), cur.origin);
        let origin = self.route(rec, now, chunk, reason, hedge);
        let req = self.http.get(sim, Route::Origin(origin), size, from);
        let cur = self.current.as_mut().expect("checked above");
        cur.requests += 1;
        if hedge.is_some() {
            cur.hedge = Some((req, origin));
        } else {
            if prev.is_some_and(|prev| prev != origin) {
                rec.count(now, Outcome::Failover, 1);
            }
            cur.adopt(now, req, origin);
        }
    }

    /// Record `origin`'s request outcome with its breaker.
    fn origin_outcome(
        &mut self,
        rec: &mut Recorder,
        now: SimTime,
        origin: Option<usize>,
        success: bool,
    ) {
        let (Some(pool), Some(origin)) = (self.pool.as_mut(), origin) else {
            return;
        };
        let tr = if success {
            pool.on_success(origin)
        } else {
            pool.on_failure(origin, now)
        };
        if let Some(tr) = tr {
            note_health(rec, now, &[tr]);
        }
    }

    /// The current request completed the chunk.
    fn on_complete(
        &mut self,
        sim: &mut MptcpSim,
        rec: &mut Recorder,
        body_dss: DssRange,
    ) -> ChunkLogEntry {
        let now = sim.now();
        let cur = self.current.take().expect("caller checked the request");
        let (chunk, level, size) = (cur.index, cur.level, cur.size());
        if let (Some((hedge_req, hedge_origin)), Some(origin)) = (cur.hedge, cur.origin) {
            // A live hedge race means the cancel was stale and the
            // primary won. Cancel the losing hedge *before* the caller
            // issues the next chunk's GET (upstream FIFO then applies the
            // cancel while the hedge is still the last-served response);
            // its drained bytes settle as waste later.
            self.http.cancel(sim, hedge_req);
            self.losers.push((hedge_req, chunk));
            rec.event(now, Outcome::HedgeWonPrimary, || TraceEvent::Hedge {
                chunk,
                origin,
                hedge_origin,
                winner: Some("primary"),
                wasted: 0,
            });
        }
        self.origin_outcome(rec, now, cur.origin, true);
        // Bank the finished segment in the shared cache, unless that is
        // where it came from.
        if let (Some(cache), Some(_)) = (self.cache.as_ref(), cur.origin) {
            cache.insert((chunk, level), size);
            rec.event(now, Outcome::CacheInsert, || TraceEvent::Cache {
                chunk,
                level,
                outcome: "insert",
                bytes: size,
            });
        }
        ChunkLogEntry {
            index: chunk,
            level,
            size,
            started: cur.started,
            completed: now,
            body_dss,
            deadline: cur.deadline,
            requests: cur.requests,
        }
    }

    /// The current request got a 5xx. It has no body: for a cancelling
    /// request that is the drained abort with nothing wasted; otherwise
    /// schedule the seeded-backoff retry (wait-forever retries at once,
    /// so a bounded burst can never wedge a session).
    fn on_error(&mut self, sim: &mut MptcpSim, rec: &mut Recorder) {
        let now = sim.now();
        let cur = self.current.as_ref().expect("error without a chunk");
        if cur.tracker.cancelling() {
            return self.on_drained(sim, rec, 0);
        }
        self.origin_outcome(rec, now, cur.origin, false);
        rec.count(now, Outcome::RequestError, 1);
        let cur = self.current.as_mut().expect("checked above");
        let RetryPlan {
            at,
            attempt,
            backoff,
        } = cur.tracker.on_error(now);
        let chunk = cur.index;
        rec.event(now, Outcome::Retried, || TraceEvent::RequestRetried {
            chunk,
            attempt: attempt as u64,
            backoff_s: backoff.as_secs_f64(),
        });
        sim.schedule_app_timer(at, RETRY_ID);
    }

    /// The cancelled current request finished draining, having
    /// delivered `request_received` body bytes in total: account the
    /// tail that arrived after the cancel decision as waste, then either
    /// promote the hedge that was racing it, or issue the byte-range
    /// resume.
    fn on_drained(&mut self, sim: &mut MptcpSim, rec: &mut Recorder, request_received: u64) {
        let now = sim.now();
        let cur = self.current.as_mut().expect("abort without a chunk");
        let acct = cur.tracker.on_aborted(cur.base + request_received);
        let (chunk, level, size, origin) = (cur.index, cur.level, cur.size(), cur.origin);
        if let (Some((hedge_req, hedge_origin)), Some(origin)) = (cur.hedge.take(), origin) {
            cur.adopt(now, hedge_req, hedge_origin);
            rec.count(now, Outcome::WastedBytes, acct.wasted);
            rec.event(now, Outcome::HedgeWonHedge, || TraceEvent::Hedge {
                chunk,
                origin,
                hedge_origin,
                winner: Some("hedge"),
                wasted: acct.wasted,
            });
            return;
        }
        // An abandonment is evidence against the origin that served the
        // doomed request (cache-hit edge fetches have no origin).
        self.origin_outcome(rec, now, origin, false);
        rec.count(now, Outcome::WastedBytes, acct.wasted);
        self.reissue(sim, rec, "resume", None);
        rec.event(now, Outcome::Resumed, || TraceEvent::RequestResumed {
            chunk,
            from: acct.resume_from,
            size,
            level,
        });
    }

    /// Deterministic hedge trigger: when a deadline-granted origin fetch
    /// has banked no new bytes for the configured quantile of its
    /// deadline budget and a second origin is available, cancel the
    /// wedged request and race the missing byte range from the other
    /// origin. On the single FIFO connection the "race" is a
    /// cancel-then-reissue: the upstream cancel is processed before the
    /// hedge GET, so the hedge never queues behind the wedged response's
    /// bytes, and the primary's terminal event resolves the race before
    /// the hedge's can arrive.
    fn hedge_poll(&mut self, sim: &mut MptcpSim, rec: &mut Recorder) {
        let now = sim.now();
        let (Some(pool), Some(cur)) = (self.pool.as_mut(), self.current.as_mut()) else {
            return;
        };
        let (Some(primary), Some(window)) = (cur.origin, cur.deadline) else {
            return;
        };
        let idle = now.saturating_since(cur.tracker.last_progress());
        if !cur.tracker.on_wire() || !pool.config().hedge_due(window, idle) {
            return;
        }
        // The stall is evidence against the serving origin — count it
        // before picking the hedge target so a repeat offender trips.
        let fail = pool.on_failure(primary, now);
        let (target, mut transitions) = pool.hedge_target(now, primary);
        if let Some(tr) = fail {
            transitions.insert(0, tr);
        }
        note_health(rec, now, &transitions);
        let Some(hedge_origin) = target else {
            // No healthy second origin: ride the primary out (the
            // lifecycle policy may still abandon it).
            return;
        };
        // Cancel first: upstream FIFO applies the cancel before the
        // hedge GET reaches the server.
        cur.tracker.cancel();
        let (chunk, req) = (cur.index, cur.req);
        self.http.cancel(sim, req);
        self.reissue(sim, rec, "hedge", Some(hedge_origin));
        rec.event(now, Outcome::Hedge, || TraceEvent::Hedge {
            chunk,
            origin: primary,
            hedge_origin,
            winner: None,
            wasted: 0,
        });
    }

    /// Feed the tracker the feasibility verdict and act on a
    /// timeout-driven abandonment.
    fn lifecycle_poll(
        &mut self,
        sim: &mut MptcpSim,
        rec: &mut Recorder,
        control: Option<&MpDashControl>,
    ) {
        let now = sim.now();
        if self.policy.is_passive() {
            return;
        }
        let Some(cur) = self.current.as_mut() else {
            return;
        };
        // Feasibility: can the remaining bytes make the deadline at the
        // current aggregate estimate? Only *deep* infeasibility (2× the
        // remaining window) counts, and only before the deadline — past
        // it, restarting the tail can no longer help.
        let infeasible = match (control, cur.deadline) {
            (Some(control), Some(window)) => {
                let deadline_at = cur.started + window;
                now < deadline_at && {
                    let remaining = cur.size().saturating_sub(cur.received());
                    let budget = deadline_at.saturating_since(now);
                    control.aggregate_throughput().time_to_send(remaining) > budget * 2
                }
            }
            _ => false,
        };
        if let LifecycleAction::Abandon { cause, received } = cur.tracker.poll(now, infeasible) {
            let (chunk, size, req) = (cur.index, cur.size(), cur.req);
            let after_s = now.saturating_since(cur.started).as_secs_f64();
            rec.event(now, Outcome::Timeout, || TraceEvent::RequestTimeout {
                chunk,
                cause,
                after_s,
            });
            rec.event(now, Outcome::Abandoned, || TraceEvent::RequestAbandoned {
                chunk,
                received,
                size,
            });
            self.http.cancel(sim, req);
        }
    }
}

/// Emit breaker transitions to the trace and count trips.
fn note_health(rec: &mut Recorder, now: SimTime, transitions: &[HealthTransition]) {
    for tr in transitions {
        if tr.state == BreakerState::Open {
            rec.count(now, Outcome::BreakerOpen, 1);
        }
        let (origin, state, failures) = (tr.origin, tr.state.name(), u64::from(tr.failures));
        rec.tracer.emit_with(now, || TraceEvent::OriginHealth {
            origin,
            state,
            failures,
        });
    }
}
