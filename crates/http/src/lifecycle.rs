//! The deadline-aware request lifecycle: a per-chunk state machine that
//! decides, in virtual time, when a request should stop waiting.
//!
//! MP-DASH's contract (§5 of the paper) is that a chunk either arrives
//! by its deadline or the scheduler escalates — but the HTTP layer on
//! its own would fire a request and wait forever, so a stalled or
//! failing server wedges the whole session in a way no transport-level
//! mechanism can see. Real multipath players recover at the *request*
//! layer: MSPlayer re-issues byte-range requests for the unfinished
//! tail of a chunk, and preference-aware SVC streaming abandons
//! enhancement data mid-download rather than miss a deadline. This
//! module is that recovery logic, factored as a pure state machine so
//! the session driver stays a thin translator:
//!
//! ```text
//!             poll: stall/timeout/infeasible
//!   Inflight ───────────────────────────────▶ Cancelling
//!      ▲  │ 5xx                                   │ Aborted drained
//!      │  ▼                                       ▼
//!   AwaitingRetry ◀── on_error            (byte-range resume)
//!      │ backoff timer fires                      │
//!      └────────── on_reissued ──▶ Inflight ◀─────┘
//! ```
//!
//! The tracker is the single owner of a chunk's size, banked bytes,
//! last-progress instant and cancelling flag: the driver reads them here
//! and keeps no copy. A hedge race enters `Cancelling` the same way an
//! abandonment does ([`RequestTracker::cancel`]), and a 5xx that lands
//! on a cancelling request is that request's drained abort, not a retry.
//!
//! The machine never talks to the transport itself: it returns a
//! [`LifecycleAction`] or a [`RetryPlan`] and the driver performs the
//! cancel / re-request / timer scheduling. All randomness (retry jitter) comes from a
//! per-chunk [`Prng`] stream derived from the policy seed, so a session
//! replays bit-identically regardless of worker count or tracing.

use mpdash_sim::{derive_seed, Prng, SimDuration, SimTime};

/// Seed-stream tag for per-chunk retry jitter, in the same spirit as
/// the link layer's `GE_STREAM`/`JITTER_STREAM` constants.
const RETRY_STREAM: u64 = 0x4C1F_0000;

/// How many consecutive infeasible polls (driver ticks) must accumulate
/// before the feasibility signal triggers an abandonment. Debounces the
/// scheduler's throughput estimate, which dips transiently on loss.
const INFEASIBLE_DEBOUNCE: u32 = 4;

/// Bounded, seeded retry behaviour for server errors (5xx).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RetryPolicy {
    /// Retries with exponential backoff before falling back to naive
    /// immediate re-requests (the session must never wedge on a chunk).
    pub max_retries: u32,
    /// First backoff; doubles each attempt.
    pub base: SimDuration,
    /// Uniform jitter in `[0, jitter)` added to each backoff.
    pub jitter: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base: SimDuration::from_millis(200),
            jitter: SimDuration::from_millis(100),
        }
    }
}

/// Knobs for the whole lifecycle. Two presets matter:
/// [`wait_forever`](LifecyclePolicy::wait_forever) is the pre-PR-4
/// behaviour (the experiment baseline) and
/// [`deadline_aware`](LifecyclePolicy::deadline_aware) is the full
/// machinery.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LifecyclePolicy {
    /// Abandon when no bytes arrive for this long (stall detection).
    /// `None` disables.
    pub stall_window: Option<SimDuration>,
    /// Abandon when elapsed time exceeds `factor ×` the chunk's
    /// deadline window. `None` disables. A window of zero (request
    /// granted at or after its deadline) times out on the first poll.
    pub timeout_factor: Option<f64>,
    /// Whether abandonment + byte-range resume is enabled at all; when
    /// false the poll triggers never fire and the request rides out
    /// whatever the server does.
    pub abandon_resume: bool,
    /// Abandonments allowed per chunk before the lifecycle gives up and
    /// waits (guards against abandon/resume ping-pong).
    pub max_abandons: u32,
    /// Retry behaviour for 5xx responses.
    pub retry: RetryPolicy,
    /// Base seed for the per-chunk jitter streams.
    pub seed: u64,
}

impl LifecyclePolicy {
    /// The pre-lifecycle baseline: no stall detection, no timeouts, no
    /// abandonment. Server errors are re-requested immediately with no
    /// backoff and no cap — crude, but a session can never wedge on a
    /// bounded error burst, which keeps the baseline comparable.
    pub fn wait_forever() -> Self {
        LifecyclePolicy {
            stall_window: None,
            timeout_factor: None,
            abandon_resume: false,
            max_abandons: 0,
            retry: RetryPolicy {
                max_retries: 0,
                base: SimDuration::ZERO,
                jitter: SimDuration::ZERO,
            },
            seed: 0,
        }
    }

    /// Seeded exponential-backoff retries only; no abandonment. The
    /// middle rung of the `exp lifecycle` policy ladder.
    pub fn retry_only() -> Self {
        LifecyclePolicy {
            retry: RetryPolicy::default(),
            seed: 0x11FE,
            ..LifecyclePolicy::wait_forever()
        }
    }

    /// The full deadline-aware lifecycle: stall detection, deadline
    /// timeouts, abandonment with byte-range resume, bounded seeded
    /// retries.
    pub fn deadline_aware() -> Self {
        LifecyclePolicy {
            stall_window: Some(SimDuration::from_millis(1500)),
            timeout_factor: Some(1.5),
            abandon_resume: true,
            max_abandons: 4,
            retry: RetryPolicy::default(),
            seed: 0x11FE,
        }
    }

    /// Override the jitter seed (batch runners derive per-job seeds).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether this policy is inert (the wait-forever baseline shape:
    /// nothing to poll for). Used by the driver to skip per-tick work.
    pub fn is_passive(&self) -> bool {
        !self.abandon_resume && self.stall_window.is_none() && self.timeout_factor.is_none()
    }
}

impl Default for LifecyclePolicy {
    fn default() -> Self {
        LifecyclePolicy::wait_forever()
    }
}

/// Where a tracked request currently is. See the module diagram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LifecycleState {
    /// A request is on the wire and expected to make progress.
    Inflight,
    /// No progress for at least the stall window (observational rung
    /// before abandonment fires; visible in tests).
    Stalled,
    /// A cancel is in flight; waiting for the truncated response to
    /// drain so the resume can be issued.
    Cancelling,
    /// A 5xx arrived; the backoff timer has been scheduled.
    AwaitingRetry,
}

/// What a periodic poll tells the driver to do.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LifecycleAction {
    /// Keep waiting.
    None,
    /// Cancel the in-flight request; `cause` is one of `"stall"`,
    /// `"deadline"`, `"infeasible"` and `received` is the byte count
    /// banked so far (the resume offset).
    Abandon {
        /// Why the request was given up on.
        cause: &'static str,
        /// Useful body bytes received before the decision.
        received: u64,
    },
}

/// The answer to a 5xx: re-issue the request at virtual time `at`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RetryPlan {
    /// When to re-request (now + backoff).
    pub at: SimTime,
    /// 1-based attempt counter (for traces).
    pub attempt: u32,
    /// The backoff that was drawn (for traces).
    pub backoff: SimDuration,
}

/// Byte accounting handed back when an abandoned request finishes
/// draining, splitting the transport's delivered bytes into the useful
/// prefix and the wasted tail.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbortAccounting {
    /// Offset the byte-range resume should start from (bytes banked at
    /// the abandonment decision).
    pub resume_from: u64,
    /// Bytes of the aborted response delivered *after* the decision —
    /// duplicates of what the resume will re-fetch, counted as waste.
    pub wasted: u64,
}

/// Per-chunk lifecycle tracker. The driver creates one when it issues
/// the first request for a chunk and feeds it progress, errors, abort
/// completions and periodic polls; the tracker answers with
/// [`LifecycleAction`]s.
#[derive(Clone, Debug)]
pub struct RequestTracker {
    policy: LifecyclePolicy,
    state: LifecycleState,
    /// The chunk's body size.
    size: u64,
    /// Useful body bytes banked across all requests for this chunk.
    received: u64,
    last_progress: SimTime,
    /// Absolute instant the deadline-factor timeout fires, if armed.
    timeout_at: Option<SimTime>,
    abandons: u32,
    retries: u32,
    infeasible_streak: u32,
    rng: Prng,
}

impl RequestTracker {
    /// Start tracking chunk `chunk` whose first request was issued at
    /// `now` for `size` body bytes, with `window` left until its
    /// deadline (`None` for bypassed/undeadlined chunks).
    pub fn new(
        policy: LifecyclePolicy,
        chunk: usize,
        now: SimTime,
        size: u64,
        window: Option<SimDuration>,
    ) -> Self {
        let timeout_at = match (policy.timeout_factor, window) {
            (Some(f), Some(w)) => Some(now + w.mul_f64(f)),
            _ => None,
        };
        RequestTracker {
            policy,
            state: LifecycleState::Inflight,
            size,
            received: 0,
            last_progress: now,
            timeout_at,
            abandons: 0,
            retries: 0,
            infeasible_streak: 0,
            rng: Prng::new(derive_seed(policy.seed, RETRY_STREAM + chunk as u64)),
        }
    }

    /// Useful body bytes banked so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// The chunk's body size.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Last instant the chunk banked new body bytes (the issue time of
    /// the current request until its first byte).
    pub fn last_progress(&self) -> SimTime {
        self.last_progress
    }

    /// A request is on the wire and its bytes count as progress — not
    /// while a cancel drains, nor while a retry backoff runs.
    pub fn on_wire(&self) -> bool {
        matches!(
            self.state,
            LifecycleState::Inflight | LifecycleState::Stalled
        )
    }

    /// A cancel is in flight: delivered bytes are the doomed tail.
    pub fn cancelling(&self) -> bool {
        self.state == LifecycleState::Cancelling
    }

    /// The transport delivered body bytes: `total` is the cumulative
    /// count for the current request plan (base + current request's
    /// progress). Ignored while a cancel is draining — those bytes are
    /// the doomed tail, not progress.
    pub fn on_progress(&mut self, now: SimTime, total: u64) {
        if self.state == LifecycleState::Cancelling {
            return;
        }
        if total > self.received {
            self.received = total;
            self.last_progress = now;
            self.infeasible_streak = 0;
            if self.state == LifecycleState::Stalled {
                self.state = LifecycleState::Inflight;
            }
        }
    }

    /// Periodic check (driver tick). `infeasible` is the scheduler's
    /// verdict that the remaining bytes cannot make the deadline at the
    /// current aggregate rate; it is debounced over
    /// four consecutive polls.
    pub fn poll(&mut self, now: SimTime, infeasible: bool) -> LifecycleAction {
        if !self.on_wire() || self.received >= self.size {
            return LifecycleAction::None;
        }

        let stalled = self
            .policy
            .stall_window
            .is_some_and(|w| now.saturating_since(self.last_progress) >= w);
        let timed_out = self.timeout_at.is_some_and(|t| now >= t);
        if infeasible {
            self.infeasible_streak += 1;
        } else {
            self.infeasible_streak = 0;
        }
        let infeasible_now = self.policy.abandon_resume
            && self.infeasible_streak >= INFEASIBLE_DEBOUNCE
            && self.abandons == 0;

        let cause = if timed_out {
            Some("deadline")
        } else if stalled {
            Some("stall")
        } else if infeasible_now {
            Some("infeasible")
        } else {
            None
        };

        match cause {
            Some(cause)
                if self.policy.abandon_resume && self.abandons < self.policy.max_abandons =>
            {
                self.abandons += 1;
                self.infeasible_streak = 0;
                // The deadline timeout is a one-shot: once it has
                // driven an abandonment, further escalation comes from
                // stall detection, else every post-deadline poll would
                // re-abandon the resumed request.
                self.timeout_at = None;
                self.state = LifecycleState::Cancelling;
                LifecycleAction::Abandon {
                    cause,
                    received: self.received,
                }
            }
            Some(_) if stalled => {
                self.state = LifecycleState::Stalled;
                LifecycleAction::None
            }
            _ => LifecycleAction::None,
        }
    }

    /// A 5xx arrived for the request on the wire. Returns when to
    /// re-issue: seeded exponential backoff while attempts remain,
    /// immediate (zero backoff) once the budget is exhausted or for the
    /// wait-forever baseline. A 5xx for a *cancelling* request is not a
    /// retry: it is that request's drained abort
    /// ([`RequestTracker::on_aborted`]).
    pub fn on_error(&mut self, now: SimTime) -> RetryPlan {
        debug_assert!(self.on_wire(), "5xx in state {:?}", self.state);
        self.retries += 1;
        self.state = LifecycleState::AwaitingRetry;
        let policy = self.policy.retry;
        let backoff = if self.retries <= policy.max_retries && !policy.base.is_zero() {
            let exp = policy.base * (1u64 << (self.retries - 1).min(16));
            let jitter = policy.jitter.mul_f64(self.rng.next_f64());
            exp + jitter
        } else {
            SimDuration::ZERO
        };
        RetryPlan {
            at: now + backoff,
            attempt: self.retries,
            backoff,
        }
    }

    /// The driver cancelled the request on the wire for a reason of its
    /// own (a hedge race): same state as a poll-driven abandonment, but
    /// it does not spend the abandon budget.
    pub fn cancel(&mut self) {
        debug_assert!(self.on_wire(), "cancel in state {:?}", self.state);
        self.state = LifecycleState::Cancelling;
    }

    /// The cancelled response finished draining with `final_received`
    /// body bytes delivered in total for the chunk. Splits the count
    /// into the banked prefix and the wasted tail.
    pub fn on_aborted(&mut self, final_received: u64) -> AbortAccounting {
        debug_assert_eq!(self.state, LifecycleState::Cancelling);
        AbortAccounting {
            resume_from: self.received,
            wasted: final_received.saturating_sub(self.received),
        }
    }

    /// A replacement request for the missing range went on the wire at
    /// `now` — the byte-range resume after a drained cancel, the retry
    /// after a backoff, or a hedge promoted to the current fetch.
    pub fn on_reissued(&mut self, now: SimTime) {
        debug_assert!(!self.on_wire(), "reissue over a live request");
        self.state = LifecycleState::Inflight;
        self.last_progress = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn wait_forever_never_abandons() {
        let mut tr = RequestTracker::new(
            LifecyclePolicy::wait_forever(),
            0,
            SimTime::ZERO,
            1_000_000,
            Some(SimDuration::from_secs(2)),
        );
        for i in 1..2000 {
            assert_eq!(
                tr.poll(t(i as f64 * 0.05), true),
                LifecycleAction::None,
                "baseline must ride out any stall"
            );
        }
        assert_eq!(tr.state, LifecycleState::Inflight);
    }

    #[test]
    fn stall_without_progress_abandons_once_window_elapses() {
        let mut tr = RequestTracker::new(
            LifecyclePolicy::deadline_aware(),
            3,
            SimTime::ZERO,
            1_000_000,
            Some(SimDuration::from_secs(30)),
        );
        tr.on_progress(t(0.5), 400_000);
        assert_eq!(tr.poll(t(1.0), false), LifecycleAction::None);
        // 1.5s with no bytes: stall fires.
        match tr.poll(t(2.1), false) {
            LifecycleAction::Abandon { cause, received } => {
                assert_eq!(cause, "stall");
                assert_eq!(received, 400_000);
            }
            other => panic!("expected abandon, got {other:?}"),
        }
        assert_eq!(tr.state, LifecycleState::Cancelling);
        // Progress during cancel is the doomed tail, not progress.
        tr.on_progress(t(2.2), 450_000);
        assert_eq!(tr.received(), 400_000);
        let acct = tr.on_aborted(450_000);
        assert_eq!(
            acct,
            AbortAccounting {
                resume_from: 400_000,
                wasted: 50_000
            }
        );
        tr.on_reissued(t(2.3));
        assert_eq!(tr.state, LifecycleState::Inflight);
    }

    #[test]
    fn deadline_timeout_is_one_shot() {
        let mut tr = RequestTracker::new(
            LifecyclePolicy::deadline_aware(),
            0,
            SimTime::ZERO,
            1_000_000,
            Some(SimDuration::from_secs(2)),
        );
        // Keep progress fresh so only the deadline factor can fire.
        tr.on_progress(t(2.9), 10_000);
        match tr.poll(t(3.0), false) {
            LifecycleAction::Abandon { cause, .. } => assert_eq!(cause, "deadline"),
            other => panic!("expected deadline abandon, got {other:?}"),
        }
        tr.on_aborted(10_000);
        tr.on_reissued(t(3.1));
        // Past the deadline but making progress: no re-abandon.
        tr.on_progress(t(3.2), 20_000);
        assert_eq!(tr.poll(t(3.25), false), LifecycleAction::None);
    }

    #[test]
    fn zero_window_times_out_on_first_poll() {
        // Satellite: a request granted at/after its deadline must fail
        // fast instead of lingering in-flight.
        let mut tr = RequestTracker::new(
            LifecyclePolicy::deadline_aware(),
            0,
            t(10.0),
            500_000,
            Some(SimDuration::ZERO),
        );
        match tr.poll(t(10.0), false) {
            LifecycleAction::Abandon { cause, received } => {
                assert_eq!(cause, "deadline");
                assert_eq!(received, 0);
            }
            other => panic!("expected immediate abandon, got {other:?}"),
        }
    }

    #[test]
    fn infeasibility_is_debounced_and_fires_once() {
        let mut tr = RequestTracker::new(
            LifecyclePolicy::deadline_aware(),
            1,
            SimTime::ZERO,
            1_000_000,
            Some(SimDuration::from_secs(60)),
        );
        // Progress keeps flowing, but the scheduler says "can't make it".
        for i in 1..=3 {
            tr.on_progress(t(i as f64 * 0.05), i * 1000);
            assert_eq!(tr.poll(t(i as f64 * 0.05), true), LifecycleAction::None);
        }
        // Progress resets the streak.
        tr.on_progress(t(0.2), 4000);
        assert_eq!(tr.poll(t(0.2), true), LifecycleAction::None);
        // Four consecutive infeasible polls with no progress in between
        // (the poll right after the last progress was the first).
        assert_eq!(tr.poll(t(0.25), true), LifecycleAction::None);
        assert_eq!(tr.poll(t(0.3), true), LifecycleAction::None);
        match tr.poll(t(0.35), true) {
            LifecycleAction::Abandon { cause, .. } => assert_eq!(cause, "infeasible"),
            other => panic!("expected infeasible abandon, got {other:?}"),
        }
    }

    #[test]
    fn retry_backoff_is_exponential_seeded_and_bounded() {
        let mut tr = RequestTracker::new(
            LifecyclePolicy::retry_only(),
            7,
            SimTime::ZERO,
            100_000,
            None,
        );
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=4u32 {
            let plan = tr.on_error(t(attempt as f64));
            assert_eq!(plan.attempt, attempt);
            let floor = SimDuration::from_millis(200) * (1u64 << (attempt - 1));
            assert!(plan.backoff >= floor, "backoff below exponential floor");
            assert!(
                plan.backoff < floor + SimDuration::from_millis(100),
                "jitter out of range"
            );
            assert!(plan.backoff > prev);
            prev = plan.backoff;
            tr.on_reissued(t(attempt as f64 + 1.0));
        }
        // Budget exhausted: immediate naive retry, zero backoff.
        let plan = tr.on_error(t(10.0));
        assert_eq!(plan.attempt, 5);
        assert_eq!(plan.backoff, SimDuration::ZERO);
        // Same seed, same chunk => identical draw sequence.
        let mut tr2 = RequestTracker::new(
            LifecyclePolicy::retry_only(),
            7,
            SimTime::ZERO,
            100_000,
            None,
        );
        assert_eq!(tr2.on_error(t(1.0)), {
            let mut tr3 = RequestTracker::new(
                LifecyclePolicy::retry_only(),
                7,
                SimTime::ZERO,
                100_000,
                None,
            );
            tr3.on_error(t(1.0))
        });
    }

    #[test]
    fn abandons_are_capped() {
        let mut policy = LifecyclePolicy::deadline_aware();
        policy.max_abandons = 1;
        let mut tr = RequestTracker::new(policy, 0, SimTime::ZERO, 1_000_000, None);
        match tr.poll(t(2.0), false) {
            LifecycleAction::Abandon { .. } => {}
            other => panic!("expected abandon, got {other:?}"),
        }
        tr.on_aborted(0);
        tr.on_reissued(t(2.1));
        // Stalls again, but the budget is spent.
        assert_eq!(tr.poll(t(10.0), false), LifecycleAction::None);
        assert_eq!(tr.state, LifecycleState::Stalled);
    }
}
