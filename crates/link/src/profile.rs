//! [`BandwidthProfile`]: the available bandwidth of a path as a function of
//! simulated time.
//!
//! Profiles are *data*, not generators: the synthetic Gaussian-walk and
//! field-location profiles in `mpdash-trace` pre-sample their randomness
//! into a grid of rates here, so the link layer itself stays deterministic
//! and cheap to query. This mirrors how the paper feeds recorded bandwidth
//! traces into its trace-driven simulation (§7.2.2).

use mpdash_sim::{Rate, SimDuration, SimTime};
use std::fmt;
use std::sync::Arc;

/// The rates of a sampled trace, one per slot, each stored as the whole
/// bits per second it holds in a `u32`: 4 bytes, exact up to 4.29 Gbps.
/// `Debug` prints every slot as the [`Rate`] it reads back as, so a
/// config prints the same as when a slot was a `Rate`.
#[derive(Clone)]
pub struct SlotRates(Arc<[u32]>);

impl SlotRates {
    /// Each slot's bits per second, as stored: the one allocation every
    /// clone of the trace shares.
    pub fn bps(&self) -> &Arc<[u32]> {
        &self.0
    }

    fn rate(&self, i: usize) -> Rate {
        Rate::from_bps(u64::from(self.0[i]))
    }
}

impl fmt::Debug for SlotRates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.0.len()).map(|i| self.rate(i)))
            .finish()
    }
}

/// A path's available bandwidth over time.
///
/// A profile is immutable once built, and `Clone` shares its storage
/// (a reference bump, O(1) in trace length): every config that carries a
/// clone of a recorded trace — a session's five modes, a fleet's clients,
/// a batch's jobs — reads the one allocation.
#[derive(Clone, Debug)]
pub enum BandwidthProfile {
    /// Bandwidth fixed for all time (the controlled experiments of §7.3.2,
    /// where Dummynet pins WiFi/LTE to e.g. 3.8/3.0 Mbps).
    Constant(Rate),
    /// Evenly spaced samples: the rate is slot `i`'s over
    /// `[i × slot, (i + 1) × slot)`. A slot's start is its index times
    /// `slot`, so no timestamp is stored (4 bytes a slot) and a lookup is
    /// one division. `rates` is non-empty and `slot` non-zero
    /// ([`Self::from_samples`] checks both).
    Sampled {
        /// Width of every slot.
        slot: SimDuration,
        /// One rate per slot.
        rates: SlotRates,
        /// Whether the pattern repeats after the last slot (otherwise the
        /// last rate holds forever).
        looped: bool,
    },
    /// A right-continuous step function: `steps[i] = (start_i, rate_i)`
    /// means the rate is `rate_i` from `start_i` (inclusive) until the next
    /// step. `steps` must be non-empty with strictly increasing, zero-based
    /// start times. If `period` is set, the pattern repeats with that
    /// period. This is the shape of a recorded trace file, whose points
    /// are irregular; sampled traces are [`Self::Sampled`] unless a sample
    /// does not fit its slot.
    Steps {
        /// Step boundaries: `(start, rate)` pairs, first start must be 0.
        steps: Arc<[(SimTime, Rate)]>,
        /// Optional looping period; must be ≥ the last step's start (a step
        /// past the period is never reached).
        period: Option<SimDuration>,
    },
}

impl BandwidthProfile {
    /// A constant-rate profile from fractional Mbps.
    pub fn constant_mbps(mbps: f64) -> Self {
        BandwidthProfile::Constant(Rate::from_mbps_f64(mbps))
    }

    /// Build a profile from evenly spaced samples of width `slot` (the
    /// natural shape of both the paper's synthetic profiles and its
    /// 50 ms-slot trace-driven simulation).
    ///
    /// The result is [`Self::Sampled`] when every sample fits a slot
    /// (at most `u32::MAX` bits per second), and otherwise the same step
    /// function as [`Self::Steps`] with each slot's start stored, so no
    /// input loses a bit.
    ///
    /// # Panics
    /// If `samples` is empty or `slot` is zero.
    pub fn from_samples(slot: SimDuration, samples: &[Rate], looped: bool) -> Self {
        Self::from_sample_iter(slot, samples.iter().copied(), looped)
    }

    /// [`Self::from_samples`] over samples drawn as they are stored, so a
    /// generated trace is written into its grid with no slice in between.
    /// `samples` is read once.
    ///
    /// # Panics
    /// If `samples` is empty or `slot` is zero.
    pub fn from_sample_iter(
        slot: SimDuration,
        samples: impl Iterator<Item = Rate>,
        looped: bool,
    ) -> Self {
        // The samples a slot cannot hold, by index, for the fallback.
        let mut wide = Vec::new();
        // A mapped slice or `Range` has an exact length, so `Arc`'s collect
        // allocates once, 4 bytes a slot, and writes each slot in place.
        let bps: Arc<[u32]> = samples
            .enumerate()
            .map(|(i, r)| {
                u32::try_from(r.as_bps()).unwrap_or_else(|_| {
                    wide.push((i, r));
                    0
                })
            })
            .collect();
        assert!(!bps.is_empty(), "profile needs at least one sample");
        assert!(!slot.is_zero(), "slot width must be positive");
        if wide.is_empty() {
            return BandwidthProfile::Sampled {
                slot,
                rates: SlotRates(bps),
                looped,
            };
        }
        // Every slot as stored, but the wide ones as drawn. Both products
        // saturate, like the grid's own edges.
        let mut wide = wide.into_iter().peekable();
        BandwidthProfile::Steps {
            steps: bps
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let rate = match wide.next_if(|&(at, _)| at == i) {
                        Some((_, r)) => r,
                        None => Rate::from_bps(u64::from(b)),
                    };
                    (SimTime::ZERO + slot * i as u64, rate)
                })
                .collect(),
            period: looped.then(|| slot * bps.len() as u64),
        }
    }

    /// The available bandwidth at instant `t`.
    pub fn rate_at(&self, t: SimTime) -> Rate {
        self.step_at(t).0
    }

    /// The step holding `t`: its rate and the next instant strictly after
    /// `t` at which the rate may change ([`SimTime::MAX`] if never). One
    /// lookup answers both, which is what `Link::send` pays per step.
    pub fn step_at(&self, t: SimTime) -> (Rate, SimTime) {
        let (steps, period) = match self {
            BandwidthProfile::Constant(r) => return (*r, SimTime::MAX),
            BandwidthProfile::Sampled {
                slot,
                rates,
                looped,
            } => {
                // `t` is in slot `i`, counted from time zero; a one-shot
                // trace never leaves its last slot.
                let (i, last) = (t.as_nanos() / slot.as_nanos(), rates.0.len() as u64 - 1);
                return if *looped || i < last {
                    // Saturates at `SimTime::MAX`.
                    let edge = SimTime::ZERO + *slot * i.saturating_add(1);
                    (rates.rate((i % (last + 1)) as usize), edge)
                } else {
                    (rates.rate(last as usize), SimTime::MAX)
                };
            }
            BandwidthProfile::Steps { steps, period } => (steps, period),
        };
        debug_assert!(!steps.is_empty());
        // A looping profile answers in the cycle holding `t`: `cycle_start`
        // is that cycle's first instant, `wrap` the distance to the next.
        let (cycle_start, local, wrap) = match period {
            Some(p) if !p.is_zero() => {
                let (t, p) = (t.as_nanos(), p.as_nanos());
                (t - t % p, SimTime::from_nanos(t % p), p)
            }
            _ => (0, t, u64::MAX),
        };
        // Count of steps with start <= local: the last of them holds `t`.
        let idx = steps.partition_point(|&(start, _)| start <= local);
        let next = steps.get(idx).map_or(wrap, |&(start, _)| start.as_nanos());
        (
            steps[idx.saturating_sub(1)].1,
            SimTime::from_nanos(cycle_start.saturating_add(next)),
        )
    }

    /// Mean rate over `[0, horizon)`, exact over the step structure.
    pub fn mean_rate(&self, horizon: SimDuration) -> Rate {
        if horizon.is_zero() {
            return self.rate_at(SimTime::ZERO);
        }
        match self {
            BandwidthProfile::Constant(r) => *r,
            _ => {
                // Integrate bits over the horizon by walking step edges.
                let mut bits: u128 = 0;
                let mut t = SimTime::ZERO;
                let end = SimTime::ZERO + horizon;
                while t < end {
                    let (r, next) = self.step_at(t);
                    let next = next.min(end);
                    let span = next.saturating_since(t);
                    bits += r.as_bps() as u128 * span.as_nanos() as u128;
                    t = next;
                }
                let bps = bits / horizon.as_nanos() as u128;
                Rate::from_bps(bps.min(u64::MAX as u128) as u64)
            }
        }
    }

    /// The next instant strictly after `t` at which the rate may change
    /// ([`SimTime::MAX`] for constant profiles): [`Self::step_at`]'s
    /// second half, for callers that want the edge alone.
    pub fn next_change_after(&self, t: SimTime) -> SimTime {
        self.step_at(t).1
    }

    /// Heap bytes the profile's storage occupies (shared by every clone):
    /// the trace's counterpart of `PacketLog::heap_bytes`.
    pub fn heap_bytes(&self) -> usize {
        // An `Arc`'s allocation starts with its two reference counts.
        let header = 2 * std::mem::size_of::<usize>();
        match self {
            BandwidthProfile::Constant(_) => 0,
            BandwidthProfile::Sampled { rates, .. } => header + std::mem::size_of_val(&*rates.0),
            BandwidthProfile::Steps { steps, .. } => header + std::mem::size_of_val(&**steps),
        }
    }

    /// Sample the profile into `n` evenly spaced slots of width `slot`
    /// starting at `from` (the discretization used by the offline optimal
    /// solver and by Table 2's simulation).
    pub fn sample_slots(&self, from: SimTime, slot: SimDuration, n: usize) -> Vec<Rate> {
        (0..n)
            .map(|i| self.rate_at(from + slot * i as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(m: f64) -> Rate {
        Rate::from_mbps_f64(m)
    }

    #[test]
    fn constant_profile() {
        let p = BandwidthProfile::constant_mbps(3.8);
        assert_eq!(p.rate_at(SimTime::ZERO), mbps(3.8));
        assert_eq!(p.rate_at(SimTime::from_secs(1000)), mbps(3.8));
        assert_eq!(p.mean_rate(SimDuration::from_secs(10)), mbps(3.8));
        assert_eq!(p.next_change_after(SimTime::ZERO), SimTime::MAX);
    }

    #[test]
    fn step_lookup() {
        let p = BandwidthProfile::Steps {
            steps: vec![
                (SimTime::ZERO, mbps(1.0)),
                (SimTime::from_secs(10), mbps(2.0)),
                (SimTime::from_secs(20), mbps(4.0)),
            ]
            .into(),
            period: None,
        };
        assert_eq!(p.rate_at(SimTime::ZERO), mbps(1.0));
        assert_eq!(p.rate_at(SimTime::from_secs(9)), mbps(1.0));
        assert_eq!(p.rate_at(SimTime::from_secs(10)), mbps(2.0));
        assert_eq!(p.rate_at(SimTime::from_secs(19)), mbps(2.0));
        assert_eq!(p.rate_at(SimTime::from_secs(25)), mbps(4.0));
        assert_eq!(p.rate_at(SimTime::from_secs(10_000)), mbps(4.0));
    }

    #[test]
    fn looping_profile_wraps() {
        let p = BandwidthProfile::from_samples(
            SimDuration::from_secs(1),
            &[mbps(1.0), mbps(2.0)],
            true,
        );
        assert_eq!(p.rate_at(SimTime::from_millis(500)), mbps(1.0));
        assert_eq!(p.rate_at(SimTime::from_millis(1500)), mbps(2.0));
        // Wraps: t = 2.5 s is 0.5 s into the second cycle.
        assert_eq!(p.rate_at(SimTime::from_millis(2500)), mbps(1.0));
        assert_eq!(p.rate_at(SimTime::from_millis(3500)), mbps(2.0));
    }

    #[test]
    fn mean_rate_integrates_steps() {
        // 1 Mbps for 1 s then 3 Mbps for 1 s -> mean 2 Mbps over 2 s.
        let p = BandwidthProfile::from_samples(
            SimDuration::from_secs(1),
            &[mbps(1.0), mbps(3.0)],
            false,
        );
        assert_eq!(p.mean_rate(SimDuration::from_secs(2)), mbps(2.0));
        // Over just the first second, mean is 1 Mbps.
        assert_eq!(p.mean_rate(SimDuration::from_secs(1)), mbps(1.0));
    }

    #[test]
    fn mean_rate_of_looped_profile() {
        let p = BandwidthProfile::from_samples(
            SimDuration::from_secs(1),
            &[mbps(2.0), mbps(4.0)],
            true,
        );
        // Over 4 s (two full cycles) the mean is 3 Mbps.
        assert_eq!(p.mean_rate(SimDuration::from_secs(4)), mbps(3.0));
    }

    #[test]
    fn next_change_walks_edges() {
        let p = BandwidthProfile::from_samples(
            SimDuration::from_secs(1),
            &[mbps(1.0), mbps(2.0)],
            false,
        );
        assert_eq!(p.next_change_after(SimTime::ZERO), SimTime::from_secs(1));
        assert_eq!(
            p.next_change_after(SimTime::from_millis(1500)),
            SimTime::MAX
        );

        let looped = BandwidthProfile::from_samples(
            SimDuration::from_secs(1),
            &[mbps(1.0), mbps(2.0)],
            true,
        );
        assert_eq!(
            looped.next_change_after(SimTime::from_millis(1500)),
            SimTime::from_secs(2)
        );
    }

    #[test]
    fn sample_slots_matches_rate_at() {
        let p = BandwidthProfile::from_samples(
            SimDuration::from_millis(50),
            &[mbps(1.0), mbps(2.0), mbps(3.0)],
            false,
        );
        let slots = p.sample_slots(SimTime::ZERO, SimDuration::from_millis(50), 4);
        assert_eq!(slots, vec![mbps(1.0), mbps(2.0), mbps(3.0), mbps(3.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        let _ = BandwidthProfile::from_samples(SimDuration::from_secs(1), &[], false);
    }
}
