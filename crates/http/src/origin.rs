//! Multi-origin serving: a pool of origins with per-origin health,
//! circuit breaking, deterministic failover routing, and the hedged
//! fetch trigger.
//!
//! The paper assumes one healthy origin; in production the origin tier
//! is itself a failure domain (MSPlayer makes multi-source fetch a
//! first-class citizen for exactly this workload). This module models
//! that tier:
//!
//! * [`OriginSpec`] — one origin: an id, its own
//!   [`ServerFaultScript`], and an RTT penalty added to every response
//!   it serves (a far-away origin is slower to first byte).
//! * [`OriginPool`] — per-origin circuit breakers plus the routing
//!   policy. Every origin runs the classic state machine: **Closed**
//!   (healthy) counts consecutive failures; at the threshold it trips
//!   **Open** for a seeded exponentially backed-off window; when the
//!   window lapses the next route attempt promotes it to **Half-Open**
//!   and admits exactly one probe, whose outcome either closes the
//!   breaker or re-opens it with a longer window.
//! * **Hedging** — [`OriginPoolConfig::hedge_due`] is the deterministic
//!   trigger: when a deadline-granted request has made no progress for
//!   a configurable quantile of its deadline budget, the session cancels
//!   it and races the missing byte range on a second origin
//!   ([`OriginPool::hedge_target`]); first completion wins and the
//!   loser's tail is cancelled through the ordinary
//!   [`cancel`](crate::HttpLayer::cancel)/`flush_unsent` path.
//!
//! Everything here is a pure, seeded state machine over virtual time:
//! no wall clock, no hidden randomness — the same failure sequence
//! reproduces the same breaker timeline bit-for-bit, which is what lets
//! fleet artifacts stay identical at any `MPDASH_WORKERS`.

use crate::fault::ServerFaultScript;
use mpdash_sim::{derive_seed, Prng, SimDuration, SimTime};

/// RNG stream offset for per-origin breaker jitter, far from the
/// lifecycle's `RETRY_STREAM`.
const BREAKER_STREAM: u64 = 0x0B1E_0000;

/// Exponent cap on the breaker backoff doubling (2^6 = 64x base).
const BACKOFF_EXP_CAP: u32 = 6;

/// One origin server in the pool.
#[derive(Clone, Debug, PartialEq)]
pub struct OriginSpec {
    /// Stable identifier (scenario JSON key, explain label).
    pub id: String,
    /// This origin's own fault timeline.
    pub faults: ServerFaultScript,
    /// Extra time-to-first-byte on every response this origin serves —
    /// the distance cost of a farther replica.
    pub rtt_penalty: SimDuration,
}

impl OriginSpec {
    /// A healthy, zero-penalty origin.
    pub fn new(id: impl Into<String>) -> Self {
        OriginSpec {
            id: id.into(),
            faults: ServerFaultScript::new(),
            rtt_penalty: SimDuration::ZERO,
        }
    }

    /// Attach a fault script to this origin.
    pub fn with_faults(mut self, faults: ServerFaultScript) -> Self {
        self.faults = faults;
        self
    }

    /// Set the per-response RTT penalty.
    pub fn with_rtt_penalty(mut self, penalty: SimDuration) -> Self {
        self.rtt_penalty = penalty;
        self
    }
}

/// Circuit-breaker state of one origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, consecutive failures are counted.
    Closed,
    /// Tripped: no requests until the backoff window lapses.
    Open,
    /// Backoff lapsed: exactly one probe request is admitted.
    HalfOpen,
}

impl BreakerState {
    /// Stable snake_case name for traces and rendered timelines.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Pool-wide policy knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct OriginPoolConfig {
    /// The origins, in priority order (ties in health and penalty break
    /// toward the lower index).
    pub origins: Vec<OriginSpec>,
    /// Consecutive failures that trip a Closed breaker Open.
    pub failure_threshold: u32,
    /// First Open window; doubles on every re-trip (capped at 64x).
    pub backoff_base: SimDuration,
    /// Uniform seeded jitter added to every Open window so a fleet's
    /// breakers do not all re-probe in the same tick.
    pub backoff_jitter: SimDuration,
    /// Hedge when a deadline-granted request has made no progress for
    /// this fraction of its deadline budget, in `(0, 1]`. `None`
    /// disables hedging.
    pub hedge_quantile: Option<f64>,
    /// Seed for the per-origin jitter streams.
    pub seed: u64,
}

impl OriginPoolConfig {
    /// A pool over `origins` with the default breaker policy: trip
    /// after 2 consecutive failures, 2 s base backoff with 500 ms
    /// jitter, hedging disabled.
    pub fn new(origins: Vec<OriginSpec>) -> Self {
        OriginPoolConfig {
            origins,
            failure_threshold: 2,
            backoff_base: SimDuration::from_secs(2),
            backoff_jitter: SimDuration::from_millis(500),
            hedge_quantile: None,
            seed: 0x0816,
        }
    }

    /// Enable hedging at `quantile` of the deadline budget.
    ///
    /// # Panics
    /// If `quantile` is outside `(0, 1]` — 0 would hedge every request
    /// instantly and anything above 1 can never fire before the
    /// deadline itself.
    pub fn with_hedge_quantile(mut self, quantile: f64) -> Self {
        assert!(
            quantile > 0.0 && quantile <= 1.0,
            "hedge quantile must be in (0, 1], got {quantile}"
        );
        self.hedge_quantile = Some(quantile);
        self
    }

    /// Set the consecutive-failure trip threshold.
    pub fn with_failure_threshold(mut self, threshold: u32) -> Self {
        self.failure_threshold = threshold.max(1);
        self
    }

    /// Set the jitter seed (fleets derive a per-client seed here).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The deterministic hedge trigger: fire when `idle` (time since
    /// the request last made progress) has consumed `hedge_quantile` of
    /// the deadline budget `window`.
    pub fn hedge_due(&self, window: SimDuration, idle: SimDuration) -> bool {
        match self.hedge_quantile {
            Some(q) => idle >= window.mul_f64(q),
            None => false,
        }
    }
}

/// A breaker transition worth observing (trace + metrics material).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthTransition {
    /// Which origin.
    pub origin: usize,
    /// The state entered.
    pub state: BreakerState,
    /// Consecutive-failure streak at the transition.
    pub failures: u32,
}

#[derive(Clone, Debug)]
struct OriginHealth {
    state: BreakerState,
    /// Consecutive failures since the last success.
    streak: u32,
    /// When an Open breaker may admit its half-open probe.
    open_until: SimTime,
    /// Times tripped — drives the exponential backoff.
    opens: u32,
    /// A half-open probe is in flight; no second request until it
    /// resolves.
    probing: bool,
    rng: Prng,
}

impl OriginHealth {
    fn new(seed: u64, index: usize) -> Self {
        OriginHealth {
            state: BreakerState::Closed,
            streak: 0,
            open_until: SimTime::ZERO,
            opens: 0,
            probing: false,
            rng: Prng::new(derive_seed(seed, BREAKER_STREAM + index as u64)),
        }
    }
}

/// The health-tracked origin pool: breaker per origin plus the
/// deterministic routing policy.
#[derive(Clone, Debug)]
pub struct OriginPool {
    cfg: OriginPoolConfig,
    health: Vec<OriginHealth>,
}

impl OriginPool {
    /// Build the pool; every breaker starts Closed.
    ///
    /// # Panics
    /// If the config has no origins — routing from an empty pool is
    /// meaningless.
    pub fn new(cfg: OriginPoolConfig) -> Self {
        assert!(!cfg.origins.is_empty(), "an origin pool needs >= 1 origin");
        let health = (0..cfg.origins.len())
            .map(|i| OriginHealth::new(cfg.seed, i))
            .collect();
        OriginPool { cfg, health }
    }

    /// The pool's configuration (origin specs included).
    pub fn config(&self) -> &OriginPoolConfig {
        &self.cfg
    }

    /// Number of origins.
    pub fn len(&self) -> usize {
        self.cfg.origins.len()
    }

    /// True when the pool has no origins (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cfg.origins.is_empty()
    }

    /// A request served by `origin` succeeded: reset the streak and
    /// close the breaker (a successful half-open probe heals it).
    pub fn on_success(&mut self, origin: usize) -> Option<HealthTransition> {
        let h = &mut self.health[origin];
        h.streak = 0;
        h.probing = false;
        if h.state != BreakerState::Closed {
            h.state = BreakerState::Closed;
            h.opens = 0;
            Some(HealthTransition {
                origin,
                state: BreakerState::Closed,
                failures: 0,
            })
        } else {
            None
        }
    }

    /// A request served by `origin` failed (5xx, stall abandonment, or
    /// a lost hedge race): bump the streak and trip the breaker at the
    /// threshold. A failed half-open probe re-opens immediately with a
    /// doubled window.
    pub fn on_failure(&mut self, origin: usize, now: SimTime) -> Option<HealthTransition> {
        let h = &mut self.health[origin];
        h.streak += 1;
        let trip = h.state == BreakerState::HalfOpen || h.streak >= self.cfg.failure_threshold;
        if !trip {
            return None;
        }
        h.probing = false;
        h.state = BreakerState::Open;
        h.opens += 1;
        let exp = self
            .cfg
            .backoff_base
            .mul_f64((1u64 << (h.opens - 1).min(BACKOFF_EXP_CAP)) as f64);
        let jitter = self.cfg.backoff_jitter.mul_f64(h.rng.next_f64());
        h.open_until = now + exp + jitter;
        Some(HealthTransition {
            origin,
            state: BreakerState::Open,
            failures: h.streak,
        })
    }

    /// Route the next request at `now`: the best available origin, with
    /// any lapsed Open breakers promoted to Half-Open on the way (the
    /// promotions are returned so the caller can trace them).
    ///
    /// Preference order: Closed beats Half-Open; within a tier, the
    /// lowest `(rtt_penalty, index)` wins. A Half-Open origin is only a
    /// candidate while no probe is outstanding; routing to it marks the
    /// probe as launched. If every breaker is Open and unexpired, the
    /// pool degrades to the least-bad choice — the origin whose window
    /// lapses soonest — because not fetching at all is worse than
    /// probing a sick origin.
    pub fn route(&mut self, now: SimTime) -> (usize, Vec<HealthTransition>) {
        let transitions = self.promote_lapsed(now);
        let pick = self
            .candidate(now, None)
            .unwrap_or_else(|| self.least_bad(None));
        self.mark_probe(pick);
        (pick, transitions)
    }

    /// Pick a hedge origin distinct from `avoid`, or `None` when no
    /// other origin is currently available — hedging onto an Open
    /// breaker would just double the damage.
    pub fn hedge_target(
        &mut self,
        now: SimTime,
        avoid: usize,
    ) -> (Option<usize>, Vec<HealthTransition>) {
        let transitions = self.promote_lapsed(now);
        let pick = self.candidate(now, Some(avoid));
        if let Some(origin) = pick {
            self.mark_probe(origin);
        }
        (pick, transitions)
    }

    /// Promote every lapsed Open breaker to Half-Open.
    fn promote_lapsed(&mut self, now: SimTime) -> Vec<HealthTransition> {
        let mut out = Vec::new();
        for (i, h) in self.health.iter_mut().enumerate() {
            if h.state == BreakerState::Open && now >= h.open_until {
                h.state = BreakerState::HalfOpen;
                h.probing = false;
                out.push(HealthTransition {
                    origin: i,
                    state: BreakerState::HalfOpen,
                    failures: h.streak,
                });
            }
        }
        out
    }

    /// Best currently-admissible origin, or `None` when every breaker
    /// is Open (or busy probing, or excluded).
    fn candidate(&self, _now: SimTime, avoid: Option<usize>) -> Option<usize> {
        (0..self.len())
            .filter(|&i| Some(i) != avoid)
            .filter(|&i| match self.health[i].state {
                BreakerState::Closed => true,
                BreakerState::HalfOpen => !self.health[i].probing,
                BreakerState::Open => false,
            })
            .min_by_key(|&i| {
                let tier = match self.health[i].state {
                    BreakerState::Closed => 0u8,
                    _ => 1,
                };
                (tier, self.cfg.origins[i].rtt_penalty, i)
            })
    }

    /// No admissible candidate: every breaker is Open or busy probing.
    /// Prefer the Open origin whose window lapses soonest — a Half-Open
    /// origin already carries its single probe and must not absorb
    /// extra traffic while an Open alternative exists. Only when every
    /// remaining origin is mid-probe does the pool pile on, cheapest
    /// first.
    fn least_bad(&self, avoid: Option<usize>) -> usize {
        (0..self.len())
            .filter(|&i| Some(i) != avoid)
            .filter(|&i| self.health[i].state == BreakerState::Open)
            .min_by_key(|&i| (self.health[i].open_until, i))
            .unwrap_or_else(|| {
                (0..self.len())
                    .filter(|&i| Some(i) != avoid)
                    .min_by_key(|&i| (self.cfg.origins[i].rtt_penalty, i))
                    .unwrap_or(0)
            })
    }

    /// Routing to a Half-Open origin launches its single probe.
    fn mark_probe(&mut self, origin: usize) {
        let h = &mut self.health[origin];
        if h.state == BreakerState::HalfOpen {
            h.probing = true;
        }
    }

    /// Breaker-state sanity probe for the runtime watchdog: a handful
    /// of integer comparisons over the state machine's own invariants.
    /// `Err` carries a static description of the first inconsistency.
    pub fn sanity(&self) -> Result<(), &'static str> {
        for h in &self.health {
            if h.probing && h.state != BreakerState::HalfOpen {
                return Err("probe outstanding outside the half-open state");
            }
            if h.state == BreakerState::Open && h.opens == 0 {
                return Err("open breaker that never tripped");
            }
            if h.state == BreakerState::Closed && h.streak >= self.cfg.failure_threshold.max(1) {
                return Err("closed breaker at or past its failure threshold");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_origin_cfg() -> OriginPoolConfig {
        OriginPoolConfig::new(vec![
            OriginSpec::new("near"),
            OriginSpec::new("mid").with_rtt_penalty(SimDuration::from_millis(20)),
            OriginSpec::new("far").with_rtt_penalty(SimDuration::from_millis(40)),
        ])
    }

    #[test]
    fn routes_prefer_the_lowest_penalty_closed_origin() {
        let mut pool = OriginPool::new(three_origin_cfg());
        let (pick, _) = pool.route(SimTime::ZERO);
        assert_eq!(pick, 0, "healthy pool routes to the nearest origin");
    }

    #[test]
    fn breaker_trips_after_threshold_and_steers_routing_away() {
        let mut pool = OriginPool::new(three_origin_cfg());
        let t = SimTime::from_secs(10);
        assert!(
            pool.on_failure(0, t).is_none(),
            "one failure keeps it closed"
        );
        let tr = pool.on_failure(0, t).expect("second failure trips");
        assert_eq!(tr.state, BreakerState::Open);
        assert_eq!(tr.failures, 2);
        assert_eq!(pool.health[0].state, BreakerState::Open);
        let (pick, _) = pool.route(t);
        assert_eq!(pick, 1, "routing falls over to the next-nearest origin");
    }

    #[test]
    fn half_open_admits_one_probe_then_closes_on_success() {
        let mut pool = OriginPool::new(three_origin_cfg());
        let t = SimTime::from_secs(10);
        pool.on_failure(0, t);
        pool.on_failure(0, t);
        // Ride past the first backoff window (2 s base + <= 500 ms jitter).
        let later = t + SimDuration::from_secs(3);
        let (pick, transitions) = pool.route(later);
        assert_eq!(
            pool.health[0].state,
            BreakerState::HalfOpen,
            "window lapsed"
        );
        assert!(transitions
            .iter()
            .any(|tr| tr.origin == 0 && tr.state == BreakerState::HalfOpen));
        // Closed origin 1 still outranks the half-open probe target.
        assert_eq!(pick, 1);
        // Trip 1 and 2 too: the only candidate left is the probe.
        for o in [1, 2] {
            pool.on_failure(o, later);
            pool.on_failure(o, later);
        }
        let (pick, _) = pool.route(later);
        assert_eq!(pick, 0, "half-open origin admits its probe");
        // While the probe is outstanding no second request may land on it:
        // the pool degrades to the least-bad open breaker.
        let (second, _) = pool.route(later);
        assert_ne!(second, 0, "single probe only");
        assert!(pool.on_success(0).is_some(), "probe success closes");
        assert_eq!(pool.health[0].state, BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_with_a_longer_window() {
        let mut pool = OriginPool::new(three_origin_cfg());
        let t = SimTime::from_secs(10);
        pool.on_failure(0, t);
        pool.on_failure(0, t);
        let first_window = pool.health[0].open_until.saturating_since(t);
        let later = t + SimDuration::from_secs(3);
        pool.route(later); // promotes to half-open
        let tr = pool.on_failure(0, later).expect("failed probe re-trips");
        assert_eq!(tr.state, BreakerState::Open);
        let second_window = pool.health[0].open_until.saturating_since(later);
        assert!(
            second_window > first_window,
            "backoff must grow: {second_window} vs {first_window}"
        );
    }

    #[test]
    fn backoff_jitter_is_seeded_and_bounded() {
        let windows: Vec<SimDuration> = [1u64, 2]
            .iter()
            .map(|&seed| {
                let mut pool = OriginPool::new(three_origin_cfg().with_seed(seed));
                pool.on_failure(0, SimTime::ZERO);
                pool.on_failure(0, SimTime::ZERO);
                pool.health[0].open_until.saturating_since(SimTime::ZERO)
            })
            .collect();
        let base = SimDuration::from_secs(2);
        for w in &windows {
            assert!(*w >= base && *w < base + SimDuration::from_millis(500));
        }
        assert_ne!(
            windows[0], windows[1],
            "different seeds draw different jitter"
        );
        // Same seed reproduces the same window bit-for-bit.
        let mut again = OriginPool::new(three_origin_cfg().with_seed(1));
        again.on_failure(0, SimTime::ZERO);
        again.on_failure(0, SimTime::ZERO);
        assert_eq!(
            again.health[0].open_until.saturating_since(SimTime::ZERO),
            windows[0]
        );
    }

    #[test]
    fn hedge_target_excludes_the_stalled_origin() {
        let mut pool = OriginPool::new(three_origin_cfg());
        let (target, _) = pool.hedge_target(SimTime::ZERO, 0);
        assert_eq!(target, Some(1), "nearest other origin");
        // With both alternatives tripped there is nothing to hedge onto.
        for o in [1, 2] {
            pool.on_failure(o, SimTime::ZERO);
            pool.on_failure(o, SimTime::ZERO);
        }
        let (target, _) = pool.hedge_target(SimTime::ZERO, 0);
        assert_eq!(target, None, "hedging onto an open breaker is refused");
    }

    #[test]
    fn hedge_target_rides_the_half_open_probe_deterministically() {
        // The hedge trigger racing a breaker's Half-Open probe window:
        // hedging may *be* the probe (one per origin), but a second
        // hedge while the probe is outstanding must be refused — the
        // single-probe rule holds no matter which code path routes.
        let mut pool = OriginPool::new(three_origin_cfg());
        let t0 = SimTime::from_secs(10);
        // Trip both alternatives; only the primary (0) stays closed.
        for o in [1, 2] {
            pool.on_failure(o, t0);
            pool.on_failure(o, t0);
        }
        let (none, _) = pool.hedge_target(t0, 0);
        assert_eq!(none, None, "open breakers are not hedge material");
        // Past the backoff window, the hedge call itself promotes the
        // lapsed breaker to Half-Open and launches the probe.
        let later = t0 + SimDuration::from_secs(3);
        let (probe, transitions) = pool.hedge_target(later, 0);
        assert_eq!(probe, Some(1), "the hedge is the half-open probe");
        assert!(transitions
            .iter()
            .any(|tr| tr.origin == 1 && tr.state == BreakerState::HalfOpen));
        assert_eq!(pool.health[1].state, BreakerState::HalfOpen);
        // While that probe is outstanding, origin 1 is off the table;
        // origin 2 (also lapsed to Half-Open) absorbs the next hedge,
        // and once both probes are in flight nothing is left.
        let (second, _) = pool.hedge_target(later, 0);
        assert_eq!(second, Some(2), "next hedge takes the other probe slot");
        let (third, _) = pool.hedge_target(later, 0);
        assert_eq!(third, None, "one probe per half-open origin, no piling on");
        pool.sanity().expect("mid-probe state is self-consistent");
        // Probe outcomes resolve the race deterministically: a win
        // closes the breaker, a loss re-opens it with a longer window.
        assert!(pool.on_success(1).is_some());
        assert_eq!(pool.health[1].state, BreakerState::Closed);
        let tr = pool.on_failure(2, later).expect("failed probe re-trips");
        assert_eq!(tr.state, BreakerState::Open);
        pool.sanity().expect("resolved state is self-consistent");
        // The same sequence replayed is bit-identical.
        let replay = || {
            let mut p = OriginPool::new(three_origin_cfg());
            for o in [1, 2] {
                p.on_failure(o, t0);
                p.on_failure(o, t0);
            }
            let mut picks = Vec::new();
            for _ in 0..3 {
                picks.push(p.hedge_target(later, 0).0);
            }
            picks
        };
        assert_eq!(replay(), replay());
    }

    #[test]
    fn sanity_accepts_every_reachable_state() {
        let mut pool = OriginPool::new(three_origin_cfg());
        pool.sanity().expect("fresh pool");
        pool.on_failure(0, SimTime::ZERO);
        pool.sanity().expect("closed with a sub-threshold streak");
        pool.on_failure(0, SimTime::ZERO);
        pool.sanity().expect("open");
        for o in [1, 2] {
            pool.on_failure(o, SimTime::ZERO);
            pool.on_failure(o, SimTime::ZERO);
        }
        // Every window lapses by t=5 (2 s base + <= 500 ms jitter), so
        // routing promotes all three to Half-Open and launches the
        // cheapest one's probe.
        let (pick, _) = pool.route(SimTime::from_secs(5));
        assert_eq!(pick, 0);
        pool.sanity().expect("half-open with a probe in flight");
        // Hand-corrupt a probe flag: the watchdog probe must notice.
        pool.health[0].state = BreakerState::Closed;
        assert_eq!(
            pool.sanity(),
            Err("probe outstanding outside the half-open state")
        );
    }

    #[test]
    fn hedge_due_fires_at_the_quantile() {
        let cfg = three_origin_cfg().with_hedge_quantile(0.25);
        let window = SimDuration::from_secs(8);
        assert!(!cfg.hedge_due(window, SimDuration::from_millis(1_999)));
        assert!(cfg.hedge_due(window, SimDuration::from_secs(2)));
        let off = three_origin_cfg();
        assert!(
            !off.hedge_due(window, SimDuration::from_secs(8)),
            "disabled"
        );
    }

    #[test]
    #[should_panic(expected = "hedge quantile")]
    fn zero_hedge_quantile_rejected() {
        let _ = three_origin_cfg().with_hedge_quantile(0.0);
    }

    #[test]
    #[should_panic(expected = ">= 1 origin")]
    fn empty_pool_rejected() {
        let _ = OriginPool::new(OriginPoolConfig::new(Vec::new()));
    }
}
