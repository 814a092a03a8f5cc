//! [`Rate`]: a bandwidth value with exact byte/time conversions.
//!
//! Internally stored as **bits per second** in a `u64`. The two conversions
//! every transport and link component needs — "how long does it take to
//! serialize N bytes at this rate" and "how many bytes fit in this window" —
//! are implemented in integer arithmetic (64-bit where the product fits,
//! 128-bit otherwise) so repeated conversions do not accumulate
//! floating-point drift over a multi-minute session.

use crate::time::{SimDuration, NANOS_PER_SEC};
use std::fmt;
use std::ops::{Add, Sub};

/// A bandwidth, stored as whole bits per second.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rate(u64);

impl Rate {
    /// Zero bandwidth (a blacked-out path).
    pub const ZERO: Rate = Rate(0);

    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Construct from kilobits per second (10^3 bits).
    #[inline]
    pub const fn from_kbps(kbps: u64) -> Self {
        Rate(kbps * 1_000)
    }

    /// Construct from megabits per second (10^6 bits).
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        Rate(mbps * 1_000_000)
    }

    /// Construct from fractional megabits per second. Negative or
    /// non-finite inputs collapse to zero, so trace noise cannot produce a
    /// nonsensical rate.
    #[inline]
    pub fn from_mbps_f64(mbps: f64) -> Self {
        if !mbps.is_finite() || mbps <= 0.0 {
            return Rate::ZERO;
        }
        Rate((mbps * 1e6).round() as u64)
    }

    /// Whole bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Fractional megabits per second.
    #[inline]
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True when the rate is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Time needed to serialize `bytes` at this rate.
    ///
    /// Returns [`SimDuration::MAX`] for a zero rate: a blacked-out link
    /// never finishes a transmission, and callers treat `MAX` as "park this
    /// packet until the rate changes".
    #[inline]
    pub fn time_to_send(self, bytes: u64) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        // A packet's worth of bit-nanoseconds fits 64 bits (anything up
        // to 2.3 GB does), which spares the 128-bit divide.
        if let Some(bit_nanos) = bytes.checked_mul(8 * NANOS_PER_SEC) {
            return SimDuration::from_nanos(bit_nanos / self.0);
        }
        let bits = bytes as u128 * 8;
        let nanos = bits * NANOS_PER_SEC as u128 / self.0 as u128;
        if nanos >= u64::MAX as u128 {
            SimDuration::MAX
        } else {
            SimDuration::from_nanos(nanos as u64)
        }
    }

    /// Bytes that can be carried in `window` at this rate (floor).
    #[inline]
    pub fn bytes_in(self, window: SimDuration) -> u64 {
        if let Some(bit_nanos) = self.0.checked_mul(window.as_nanos()) {
            return bit_nanos / NANOS_PER_SEC / 8;
        }
        let bits = self.0 as u128 * window.as_nanos() as u128 / NANOS_PER_SEC as u128;
        let bytes = bits / 8;
        if bytes >= u64::MAX as u128 {
            u64::MAX
        } else {
            bytes as u64
        }
    }

    /// Scale the rate by a non-negative factor (used by synthetic bandwidth
    /// profiles applying multiplicative noise).
    #[inline]
    pub fn mul_f64(self, k: f64) -> Rate {
        if !k.is_finite() || k <= 0.0 {
            return Rate::ZERO;
        }
        let scaled = self.0 as f64 * k;
        if scaled >= u64::MAX as f64 {
            Rate(u64::MAX)
        } else {
            Rate(scaled.round() as u64)
        }
    }

    /// Saturating sum of two rates (aggregate multipath capacity).
    #[inline]
    pub fn saturating_add(self, other: Rate) -> Rate {
        Rate(self.0.saturating_add(other.0))
    }
}

impl Add for Rate {
    type Output = Rate;
    #[inline]
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0.saturating_add(rhs.0))
    }
}

impl Sub for Rate {
    type Output = Rate;
    #[inline]
    fn sub(self, rhs: Rate) -> Rate {
        Rate(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Mbps", self.as_mbps_f64())
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} Mbps", self.as_mbps_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn conversions() {
        assert_eq!(Rate::from_mbps(4).as_bps(), 4_000_000);
        assert_eq!(Rate::from_kbps(700).as_bps(), 700_000);
        assert_eq!(Rate::from_mbps_f64(3.8).as_bps(), 3_800_000);
        assert!((Rate::from_bps(2_500_000).as_mbps_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        assert_eq!(Rate::from_mbps_f64(-1.0), Rate::ZERO);
        assert_eq!(Rate::from_mbps_f64(f64::NAN), Rate::ZERO);
        assert!(Rate::ZERO.is_zero());
    }

    #[test]
    fn time_to_send_exact() {
        // 1500 bytes at 12 Mbps = 12000 bits / 12e6 bps = 1 ms exactly.
        let r = Rate::from_mbps(12);
        assert_eq!(r.time_to_send(1500), SimDuration::from_millis(1));
        // Zero rate parks forever.
        assert_eq!(Rate::ZERO.time_to_send(1), SimDuration::MAX);
    }

    #[test]
    fn bytes_in_window() {
        // 8 Mbps for 1 s = 1 MB.
        let r = Rate::from_mbps(8);
        assert_eq!(r.bytes_in(SimDuration::from_secs(1)), 1_000_000);
        assert_eq!(r.bytes_in(SimDuration::ZERO), 0);
        assert_eq!(Rate::ZERO.bytes_in(SimDuration::from_secs(100)), 0);
    }

    #[test]
    fn send_then_fit_round_trip() {
        // bytes_in(time_to_send(n)) should recover n (within rounding).
        for &bytes in &[1u64, 17, 1460, 5_000_000] {
            let r = Rate::from_mbps_f64(3.8);
            let t = r.time_to_send(bytes);
            let back = r.bytes_in(t);
            assert!(
                back <= bytes && bytes - back <= 1,
                "bytes={bytes} back={back}"
            );
        }
    }

    #[test]
    fn arithmetic() {
        let a = Rate::from_mbps(3);
        let b = Rate::from_mbps(5);
        assert_eq!(a + b, Rate::from_mbps(8));
        assert_eq!(b - a, Rate::from_mbps(2));
        assert_eq!(a - b, Rate::ZERO); // saturating
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Rate::from_mbps(4).mul_f64(0.5), Rate::from_mbps(2));
        assert_eq!(Rate::from_mbps(4).mul_f64(-1.0), Rate::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Rate::from_mbps_f64(3.8)), "3.80 Mbps");
    }
}
