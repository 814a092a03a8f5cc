//! Active queue management controllers for the shared bottleneck.
//!
//! Three standard AQMs, all reimplemented on integer virtual time so a
//! run is a pure function of its config (no floats on the control path,
//! no wall clock, no global RNG):
//!
//! * **PIE** (RFC 8033, timestamp variant) — a proportional-integral
//!   controller updates a drop probability every `interval` of virtual
//!   time from the queue-delay error, and admission drops (or
//!   ECN-marks) arriving packets with that probability via a seeded
//!   [`Prng`] Bernoulli draw.
//! * **CoDel** (RFC 8289) — tracks per-packet sojourn time at dequeue;
//!   once sojourn has stayed above `target` for a full `interval` it
//!   enters a dropping state and drops on the `interval / sqrt(count)`
//!   schedule. The square root runs on a 16.16 fixed-point integer
//!   `isqrt`, so the schedule is bit-deterministic.
//! * **FQ-PIE** — composed in [`shared`](crate::shared): the existing
//!   DRR flow queues, with one independent [`Pie`] instance (and one
//!   derived RNG stream) per flow.
//!
//! Probabilities live in units of 2⁻³² (`PROB_ONE`); the PIE gains
//! `alpha`/`beta` are 16.16 fixed point (units of 2⁻¹⁶ per second).
//! Simplifications versus the RFCs, chosen for determinism and noted
//! here so nobody hunts for missing code: PIE's burst allowance and
//! auto-tuned gain scaling are omitted, and queue delay is the measured
//! sojourn of the latest departed packet (the "timestamp" estimator)
//! rather than the departure-rate estimator.

use mpdash_sim::{Prng, SimDuration, SimTime};

/// Probability scale: `PROB_ONE` ≡ 1.0. A drop probability is a `u64`
/// in `[0, PROB_ONE]`.
pub(crate) const PROB_ONE: u64 = 1 << 32;

/// Fixed-point scale for the PIE gains (2¹⁶ ≡ 1.0).
pub(crate) const GAIN_ONE: u32 = 1 << 16;

/// Fixed seed for AQM Bernoulli draws. The controllers need a
/// reproducible coin, not entropy; scenarios may override per
/// bottleneck via [`AqmConfig::with_seed`].
pub(crate) const DEFAULT_AQM_SEED: u64 = 0x00A1_C305_EED0_u64;

/// Static knobs shared by every controller. Integer-only so the
/// discipline enum stays `Copy + Eq`; scenario floats (alpha/beta,
/// fractional milliseconds) are converted once at parse time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AqmConfig {
    /// Queue-delay target in nanoseconds.
    pub target_ns: u64,
    /// PIE update period / CoDel sliding window, nanoseconds.
    pub interval_ns: u64,
    /// PIE proportional gain, 16.16 fixed point (per second).
    pub alpha_fp: u32,
    /// PIE derivative gain, 16.16 fixed point (per second).
    pub beta_fp: u32,
    /// Mark instead of dropping (the ECN-style early signal the MPTCP
    /// sender answers with a multiplicative cwnd backoff).
    pub ecn: bool,
    /// Seed for the Bernoulli coin (PIE only; CoDel is coin-free).
    pub seed: u64,
}

impl AqmConfig {
    /// RFC 8033 defaults: 15 ms target, 15 ms update period,
    /// alpha = 0.125/s, beta = 1.25/s.
    pub fn pie() -> Self {
        AqmConfig {
            target_ns: 15_000_000,
            interval_ns: 15_000_000,
            alpha_fp: GAIN_ONE / 8,
            beta_fp: GAIN_ONE + GAIN_ONE / 4,
            ecn: false,
            seed: DEFAULT_AQM_SEED,
        }
    }

    /// RFC 8289 defaults: 5 ms target, 100 ms interval. The PIE gains
    /// are carried but unused.
    pub fn codel() -> Self {
        AqmConfig {
            target_ns: 5_000_000,
            interval_ns: 100_000_000,
            ..AqmConfig::pie()
        }
    }

    /// Override the queue-delay target (fractional milliseconds).
    pub fn with_target_ms(mut self, ms: f64) -> Self {
        self.target_ns = (ms * 1e6) as u64;
        self
    }

    /// Override the update/sliding interval (fractional milliseconds).
    pub fn with_interval_ms(mut self, ms: f64) -> Self {
        self.interval_ns = (ms * 1e6) as u64;
        self
    }

    /// Override the PIE proportional gain (per second).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha_fp = (alpha * f64::from(GAIN_ONE)).round() as u32;
        self
    }

    /// Override the PIE derivative gain (per second).
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta_fp = (beta * f64::from(GAIN_ONE)).round() as u32;
        self
    }

    /// Mark instead of dropping.
    pub fn with_ecn(mut self, ecn: bool) -> Self {
        self.ecn = ecn;
        self
    }

    /// Reseed the Bernoulli coin.
    pub(crate) fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What the controller decided for one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AqmVerdict {
    /// Let it through untouched.
    Deliver,
    /// Let it through carrying a congestion mark (ECN mode).
    Mark,
    /// Drop it.
    Drop,
}

/// Integer square root of a `u128` (floor).
fn isqrt(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    // Newton's method from a power-of-two overestimate; converges in a
    // handful of iterations and is exact at the floor.
    let mut x = 1u128 << (n.ilog2() / 2 + 1);
    loop {
        let next = (x + n / x) / 2;
        if next >= x {
            return x;
        }
        x = next;
    }
}

/// `interval / sqrt(count)` on 16.16 fixed point.
fn control_law(interval_ns: u64, count: u64) -> u64 {
    // isqrt(count << 32) == floor(sqrt(count) * 2^16).
    let sqrt_fp = isqrt((count.max(1) as u128) << 32);
    (((interval_ns as u128) << 16) / sqrt_fp) as u64
}

/// One PIE controller instance (whole queue, or one flow of FQ-PIE).
#[derive(Clone, Debug)]
pub struct Pie {
    cfg: AqmConfig,
    /// Drop probability in `[0, PROB_ONE]`.
    prob: u64,
    /// Latest queue-delay sample (sojourn of the last departure), ns.
    qdelay_ns: u64,
    /// Sample at the previous update.
    qdelay_old_ns: u64,
    /// Next scheduled probability update.
    next_update: SimTime,
    rng: Prng,
}

impl Pie {
    /// Fresh controller with probability zero.
    pub(crate) fn new(cfg: AqmConfig) -> Self {
        Pie {
            cfg,
            prob: 0,
            qdelay_ns: 0,
            qdelay_old_ns: 0,
            next_update: SimTime::from_nanos(cfg.interval_ns),
            rng: Prng::new(cfg.seed),
        }
    }

    /// Current drop probability in parts per million (telemetry).
    pub(crate) fn prob_ppm(&self) -> u64 {
        self.prob * 1_000_000 / PROB_ONE
    }

    /// Feed the sojourn time of a departing packet — the timestamp
    /// queue-delay estimator.
    pub(crate) fn on_departure(&mut self, now: SimTime, sojourn: SimDuration) {
        self.catch_up(now);
        self.qdelay_ns = sojourn.as_nanos();
    }

    /// Run every update whose period has elapsed by `now`. Lazy but
    /// exact: probability only matters at admission decisions, and the
    /// update sequence is a pure function of (samples, virtual time).
    fn catch_up(&mut self, now: SimTime) {
        while now >= self.next_update {
            self.update();
            self.next_update += SimDuration::from_nanos(self.cfg.interval_ns);
            if self.prob == 0 && self.qdelay_ns == 0 && self.qdelay_old_ns == 0 {
                // Fully decayed and idle: fast-forward past the gap
                // instead of looping once per empty interval.
                if now >= self.next_update {
                    let gap = now.as_nanos() - self.next_update.as_nanos();
                    let skip = gap / self.cfg.interval_ns + 1;
                    self.next_update += SimDuration::from_nanos(skip * self.cfg.interval_ns);
                }
            }
        }
    }

    /// One RFC 8033 §4.2 probability update.
    fn update(&mut self) {
        let qdelay = self.qdelay_ns as i128;
        let err = i128::from(self.cfg.alpha_fp) * (qdelay - self.cfg.target_ns as i128)
            + i128::from(self.cfg.beta_fp) * (qdelay - self.qdelay_old_ns as i128);
        // err is in (2^-16 · ns/s); probability units are 2^-32, so
        // dp = err · 2^16 / 1e9.
        let dp = err * i128::from(GAIN_ONE) / 1_000_000_000;
        let p = i128::from(self.prob) + dp;
        self.prob = p.clamp(0, PROB_ONE as i128) as u64;
        if self.qdelay_ns == 0 && self.qdelay_old_ns == 0 {
            // Idle queue: exponentially decay toward zero (RFC 8033
            // uses the same 2% step).
            self.prob = self.prob * 98 / 100;
        }
        self.qdelay_old_ns = self.qdelay_ns;
    }

    /// Admission decision for one arriving packet. `queued_packets` is
    /// the backlog the packet joins (in-service included): below two
    /// packets PIE never drops, so a lone flow's trickle survives.
    pub(crate) fn admit(&mut self, now: SimTime, queued_packets: u64) -> AqmVerdict {
        self.catch_up(now);
        if self.prob == 0 || queued_packets < 2 {
            return AqmVerdict::Deliver;
        }
        if self.rng.next_below(PROB_ONE) < self.prob {
            if self.cfg.ecn {
                AqmVerdict::Mark
            } else {
                AqmVerdict::Drop
            }
        } else {
            AqmVerdict::Deliver
        }
    }
}

/// One CoDel controller instance. Consulted at dequeue — each candidate
/// packet the discipline selects is either served or dropped, and a
/// drop makes the server immediately consider the next candidate.
#[derive(Clone, Debug)]
pub struct Codel {
    cfg: AqmConfig,
    /// When sojourn first exceeded target (None while below).
    first_above: Option<SimTime>,
    /// Next scheduled drop while in the dropping state.
    drop_next: SimTime,
    /// Drops in the current dropping episode.
    count: u64,
    dropping: bool,
}

/// Below this backlog CoDel always stands down — one MTU of queue is
/// not standing queue (RFC 8289 §4.2).
const CODEL_MTU: u64 = 1500;

impl Codel {
    /// Fresh controller.
    pub(crate) fn new(cfg: AqmConfig) -> Self {
        Codel {
            cfg,
            first_above: None,
            drop_next: SimTime::ZERO,
            count: 0,
            dropping: false,
        }
    }

    /// Has sojourn stayed above target for a full interval?
    fn ok_to_drop(&mut self, now: SimTime, sojourn_ns: u64, backlog_bytes: u64) -> bool {
        if sojourn_ns < self.cfg.target_ns || backlog_bytes <= CODEL_MTU {
            self.first_above = None;
            return false;
        }
        match self.first_above {
            None => {
                self.first_above = Some(now + SimDuration::from_nanos(self.cfg.interval_ns));
                false
            }
            Some(at) => now >= at,
        }
    }

    /// Decide the fate of one dequeued candidate with the given sojourn
    /// and the bottleneck backlog (candidate included).
    pub(crate) fn on_dequeue(
        &mut self,
        now: SimTime,
        sojourn_ns: u64,
        backlog_bytes: u64,
    ) -> AqmVerdict {
        let ok = self.ok_to_drop(now, sojourn_ns, backlog_bytes);
        if self.dropping {
            if !ok {
                self.dropping = false;
                return AqmVerdict::Deliver;
            }
            if now >= self.drop_next {
                self.count += 1;
                self.drop_next +=
                    SimDuration::from_nanos(control_law(self.cfg.interval_ns, self.count));
                return self.signal();
            }
            AqmVerdict::Deliver
        } else if ok {
            // Enter dropping. If we left the state recently, resume the
            // drop cadence where it was instead of restarting from 1
            // (RFC 8289 §5.4's hysteresis).
            let recent = now.saturating_since(self.drop_next).as_nanos() < self.cfg.interval_ns;
            self.count = if recent && self.count > 2 {
                self.count - 2
            } else {
                1
            };
            self.dropping = true;
            self.drop_next =
                now + SimDuration::from_nanos(control_law(self.cfg.interval_ns, self.count));
            self.signal()
        } else {
            AqmVerdict::Deliver
        }
    }

    fn signal(&self) -> AqmVerdict {
        if self.cfg.ecn {
            AqmVerdict::Mark
        } else {
            AqmVerdict::Drop
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn isqrt_is_exact_floor() {
        for n in [0u128, 1, 2, 3, 4, 15, 16, 17, 1 << 32, (1 << 32) + 1] {
            let r = isqrt(n);
            assert!(r * r <= n, "{n}");
            assert!((r + 1) * (r + 1) > n, "{n}");
        }
    }

    #[test]
    fn control_law_halves_at_4x_count() {
        let i = 100_000_000;
        assert_eq!(control_law(i, 1), i);
        assert_eq!(control_law(i, 4), i / 2);
        // sqrt(2) spacing between 1 and 2.
        let at2 = control_law(i, 2);
        assert!(at2 > i / 2 && at2 < i, "{at2}");
    }

    #[test]
    fn pie_probability_tracks_the_delay_error() {
        let cfg = AqmConfig::pie(); // target 15 ms, alpha 0.125, beta 1.25
        let mut pie = Pie::new(cfg);
        // Constant 40 ms sojourn: every update adds
        // alpha·25ms + beta·(delta). First update also sees the full
        // 40 ms derivative step.
        pie.on_departure(ms(1), SimDuration::from_millis(40));
        pie.catch_up(ms(16));
        let p1 = pie.prob;
        assert!(p1 > 0, "steady excess delay must raise the probability");
        pie.on_departure(ms(20), SimDuration::from_millis(40));
        pie.catch_up(ms(31));
        assert!(pie.prob > p1, "integral term keeps climbing: {}", pie.prob);
        // Exactly reproducible: same inputs, same probability.
        let mut again = Pie::new(cfg);
        again.on_departure(ms(1), SimDuration::from_millis(40));
        again.catch_up(ms(16));
        again.on_departure(ms(20), SimDuration::from_millis(40));
        again.catch_up(ms(31));
        assert_eq!(again.prob, pie.prob);
    }

    #[test]
    fn pie_update_magnitude_matches_fixed_point_math() {
        // alpha = 0.125/s over a 10 ms error with beta zeroed:
        // dp = 0.125 · 0.010 = 0.00125 of PROB_ONE.
        let cfg = AqmConfig::pie().with_target_ms(15.0).with_beta(0.0);
        let mut pie = Pie::new(cfg);
        pie.on_departure(ms(1), SimDuration::from_millis(25));
        pie.catch_up(ms(16));
        let expect = (0.125f64 * 0.010 * PROB_ONE as f64) as u64;
        let diff = pie.prob.abs_diff(expect);
        assert!(
            diff < PROB_ONE / 100_000,
            "prob {} vs expected {expect}",
            pie.prob
        );
    }

    #[test]
    fn pie_decays_when_idle_and_never_drops_a_tiny_queue() {
        let mut pie = Pie::new(AqmConfig::pie());
        pie.on_departure(ms(1), SimDuration::from_millis(200));
        pie.catch_up(ms(16));
        let peak = pie.prob;
        assert!(peak > 0);
        // Tiny queue: no drops regardless of probability.
        assert_eq!(pie.admit(ms(17), 1), AqmVerdict::Deliver);
        // Queue drains: samples go to zero, probability decays.
        pie.on_departure(ms(20), SimDuration::ZERO);
        pie.catch_up(ms(200));
        assert!(pie.prob < peak / 2, "{} !< {}", pie.prob, peak / 2);
        // And a long idle gap fully decays it without wedging.
        pie.catch_up(SimTime::from_secs(3600));
        assert_eq!(pie.prob, 0);
    }

    #[test]
    fn pie_at_saturation_drops_everything_and_ecn_marks_instead() {
        let mut pie = Pie::new(AqmConfig::pie());
        // Push probability to the ceiling with absurd delay samples.
        for k in 0..200u64 {
            pie.on_departure(ms(15 * k + 1), SimDuration::from_secs(5));
        }
        pie.catch_up(SimTime::from_secs(4));
        assert_eq!(pie.prob, PROB_ONE);
        assert_eq!(pie.admit(SimTime::from_secs(4), 10), AqmVerdict::Drop);
        let mut marking = Pie::new(AqmConfig::pie().with_ecn(true));
        for k in 0..200u64 {
            marking.on_departure(ms(15 * k + 1), SimDuration::from_secs(5));
        }
        marking.catch_up(SimTime::from_secs(4));
        assert_eq!(marking.admit(SimTime::from_secs(4), 10), AqmVerdict::Mark);
    }

    #[test]
    fn codel_waits_a_full_interval_before_dropping() {
        let mut c = Codel::new(AqmConfig::codel()); // target 5 ms, interval 100 ms
        let soj = 20_000_000; // 20 ms, above target
        let backlog = 100_000;
        // First sighting arms the interval window; no drop yet.
        assert_eq!(c.on_dequeue(ms(0), soj, backlog), AqmVerdict::Deliver);
        assert_eq!(c.on_dequeue(ms(50), soj, backlog), AqmVerdict::Deliver);
        // A dip below target disarms it.
        assert_eq!(
            c.on_dequeue(ms(60), 1_000_000, backlog),
            AqmVerdict::Deliver
        );
        assert_eq!(c.on_dequeue(ms(110), soj, backlog), AqmVerdict::Deliver);
        // Re-armed at 110; full interval later it drops.
        assert_eq!(c.on_dequeue(ms(215), soj, backlog), AqmVerdict::Drop);
        assert!(c.dropping);
    }

    #[test]
    fn codel_drop_schedule_accelerates_with_sqrt_count() {
        let mut c = Codel::new(AqmConfig::codel());
        let soj = 50_000_000;
        let backlog = 1_000_000;
        c.on_dequeue(ms(0), soj, backlog);
        let mut drops = Vec::new();
        for k in 1..=4000u64 {
            if c.on_dequeue(ms(k), soj, backlog) == AqmVerdict::Drop {
                drops.push(k);
            }
        }
        assert!(drops.len() >= 4, "{drops:?}");
        let gaps: Vec<u64> = drops.windows(2).map(|w| w[1] - w[0]).collect();
        // The 1 ms sampling grid can round one gap up past its
        // predecessor; allow that quantum of jitter but require the
        // trend and the endpoints to shrink.
        assert!(
            gaps.windows(2).all(|w| w[1] <= w[0] + 1),
            "drop gaps must shrink: {gaps:?}"
        );
        assert!(gaps.last().unwrap() < gaps.first().unwrap(), "{gaps:?}");
    }

    #[test]
    fn codel_stands_down_when_the_queue_empties() {
        let mut c = Codel::new(AqmConfig::codel());
        let soj = 50_000_000;
        c.on_dequeue(ms(0), soj, 1_000_000);
        // Force into dropping.
        let mut k = 1;
        while !c.dropping {
            c.on_dequeue(ms(k), soj, 1_000_000);
            k += 1;
        }
        // Backlog collapses below one MTU: deliver and leave dropping.
        assert_eq!(c.on_dequeue(ms(k + 1), soj, CODEL_MTU), AqmVerdict::Deliver);
        assert!(!c.dropping);
    }

    #[test]
    fn codel_ecn_marks_instead_of_dropping() {
        let mut c = Codel::new(AqmConfig::codel().with_ecn(true));
        let soj = 50_000_000;
        c.on_dequeue(ms(0), soj, 1_000_000);
        let mut verdicts = Vec::new();
        for k in 1..=300u64 {
            verdicts.push(c.on_dequeue(ms(k), soj, 1_000_000));
        }
        assert!(verdicts.contains(&AqmVerdict::Mark));
        assert!(!verdicts.contains(&AqmVerdict::Drop));
    }
}
