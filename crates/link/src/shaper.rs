//! [`TokenBucket`]: a byte-granularity token-bucket rate limiter.
//!
//! This is the simulation stand-in for the Dummynet pipe the paper uses to
//! throttle the cellular path in the §7.3.1 comparison ("simply throttling
//! the cellular path" at 200/700/1000 kbps). The bucket answers one
//! question: *given the current time, when may a packet of `size` bytes
//! depart?* — and consumes the tokens when the caller commits to that
//! departure.

use mpdash_sim::{Rate, SimTime};

/// Token bucket with fill rate `rate` and capacity `burst` bytes.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: Rate,
    burst_bytes: u64,
    /// Token level at `last_update`, in bytes.
    tokens: f64,
    last_update: SimTime,
}

impl TokenBucket {
    /// A bucket that starts full.
    ///
    /// # Panics
    /// If `rate` is zero (a zero-rate shaper would block forever; model a
    /// dead path with the bandwidth profile instead) or `burst_bytes` is
    /// zero (no packet could ever pass).
    pub fn new(rate: Rate, burst_bytes: u64) -> Self {
        assert!(!rate.is_zero(), "token bucket rate must be positive");
        assert!(burst_bytes > 0, "token bucket burst must be positive");
        TokenBucket {
            rate,
            burst_bytes,
            tokens: burst_bytes as f64,
            last_update: SimTime::ZERO,
        }
    }

    fn refill_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update);
        let add = self.rate.bytes_in(dt) as f64;
        self.tokens = (self.tokens + add).min(self.burst_bytes as f64);
        self.last_update = self.last_update.max(now);
    }

    /// The earliest instant at or after `now` when `size` bytes of tokens
    /// are available, without consuming anything.
    pub(crate) fn earliest_departure(&mut self, now: SimTime, size: u64) -> SimTime {
        self.refill_to(now);
        // After refill, the token level is valid at `last_update`, which is
        // `max(now, previous last_update)` — it can sit in the future when
        // a prior `consume` committed a future departure. The deficit must
        // therefore fill from `last_update`, not from `now`, or a caller
        // that keeps offering packets "now" would see the bucket refill
        // from scratch each time and pace far above the configured rate.
        let base = self.last_update.max(now);
        let have = self.tokens;
        if have >= size as f64 {
            base
        } else {
            // Packets larger than the burst drain the bucket to empty and
            // wait for a full `size` worth of fill; this keeps the shaper
            // total rather than dead-locking on jumbo writes.
            let deficit = (size as f64 - have).ceil() as u64;
            base + self.rate.time_to_send(deficit)
        }
    }

    /// Commit a departure of `size` bytes at `at` (which must be at or
    /// after the instant returned by [`TokenBucket::earliest_departure`]).
    pub(crate) fn consume(&mut self, at: SimTime, size: u64) {
        self.refill_to(at);
        self.tokens -= size as f64;
        // A correct caller never drives the level below one packet's worth
        // of negative rounding; clamp defensively so a misuse cannot stall
        // the bucket forever.
        if self.tokens < -(size as f64) {
            self.tokens = 0.0;
        }
    }

    /// Convenience: earliest departure + consume in one call.
    pub(crate) fn admit(&mut self, now: SimTime, size: u64) -> SimTime {
        let at = self.earliest_departure(now, size);
        self.consume(at, size);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::SimDuration;

    fn bucket_700kbps() -> TokenBucket {
        // 700 kbps, one-packet burst — the paper's throttling setup.
        TokenBucket::new(Rate::from_kbps(700), 1500)
    }

    #[test]
    fn full_bucket_passes_immediately() {
        let mut b = bucket_700kbps();
        let now = SimTime::from_secs(1);
        assert_eq!(b.earliest_departure(now, 1500), now);
    }

    #[test]
    fn drained_bucket_delays_by_fill_time() {
        let mut b = bucket_700kbps();
        let t0 = SimTime::ZERO;
        let d0 = b.admit(t0, 1500);
        assert_eq!(d0, t0);
        // Immediately after, a second packet must wait for 1500 B at
        // 700 kbps ≈ 17.14 ms.
        let d1 = b.admit(t0, 1500);
        let wait = d1.saturating_since(t0);
        let expect = Rate::from_kbps(700).time_to_send(1500);
        assert_eq!(wait, expect);
    }

    #[test]
    fn sustained_rate_matches_configuration() {
        let mut b = bucket_700kbps();
        let mut t = SimTime::ZERO;
        let n = 200u64;
        for _ in 0..n {
            t = b.admit(t, 1500);
        }
        // First packet free (full bucket); remaining n-1 paced at 700 kbps.
        let total_bytes = (n - 1) * 1500;
        let measured_bps = total_bytes as f64 * 8.0 / t.as_secs_f64();
        assert!(
            (measured_bps - 700_000.0).abs() / 700_000.0 < 0.01,
            "measured {measured_bps} bps"
        );
    }

    #[test]
    fn idle_time_refills_up_to_burst() {
        let mut b = TokenBucket::new(Rate::from_mbps(1), 3000);
        // Drain.
        b.admit(SimTime::ZERO, 3000);
        // After a long idle period the bucket is full again (but not more):
        let later = SimTime::from_secs(100);
        assert_eq!(b.earliest_departure(later, 3000), later);
        b.consume(later, 3000);
        // And immediately after, 1500 B needs 1500 B of fill at 1 Mbps = 12 ms.
        let d = b.earliest_departure(later, 1500);
        assert_eq!(d.saturating_since(later), SimDuration::from_millis(12));
    }

    #[test]
    fn oversized_packet_does_not_deadlock() {
        let mut b = TokenBucket::new(Rate::from_mbps(1), 1500);
        let d = b.admit(SimTime::ZERO, 15_000); // 10x burst
        assert!(d > SimTime::ZERO);
        assert!(d < SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = TokenBucket::new(Rate::ZERO, 1500);
    }
}
