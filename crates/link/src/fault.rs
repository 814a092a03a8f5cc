//! Deterministic fault injection: a seeded timeline of adverse events
//! applied on top of any [`Link`](crate::Link).
//!
//! The base link model covers the *steady-state* impairments of the
//! paper's testbed (time-varying rate, queueing, i.i.d. loss). Real
//! wireless paths fail differently: loss arrives in bursts, latency
//! spikes in storms, WiFi throughput collapses near the cell edge, and
//! associations drop outright and take seconds to come back (the §2.2
//! measurement study's "sometimes/never sustains playback" locations).
//! A [`FaultScript`] layers exactly those four fault families over a
//! link, deterministically:
//!
//! * **Burst loss** — a two-state Gilbert–Elliott chain ([`GilbertElliott`])
//!   gates packet drops while the event is active, producing the
//!   correlated losses that i.i.d. loss cannot.
//! * **RTT spike** — a fixed latency inflation plus seeded jitter added
//!   to each delivery during the event (bufferbloat / interference
//!   storms). Jittered deliveries may reorder; the transport's
//!   reassembly must cope.
//! * **Rate collapse** — the profile's serialization rate is scaled by a
//!   factor in `(0, 1]`, composing with whatever [`crate::BandwidthProfile`]
//!   the link already has (use a disassociation for a full outage).
//! * **Disassociation** — the link delivers nothing from the event start
//!   until `duration + reassociation` has elapsed: the association is
//!   gone for `duration`, then the re-handshake burns `reassociation`
//!   more. Every offered packet in the window is dropped with
//!   [`DropReason::Disassociated`](crate::DropReason::Disassociated).
//!
//! Determinism: events are kept sorted by start time (stable in
//! insertion order), and every stochastic element — each burst-loss
//! chain, the jitter draw — runs on its own RNG stream derived from the
//! link seed via [`derive_seed`], so the same seed and the same offered
//! packet sequence reproduce the same fault pattern bit-for-bit,
//! independent of the link's i.i.d. loss stream.
//!
//! ```
//! use mpdash_link::{FaultScript, GilbertElliott, Link, LinkConfig};
//! use mpdash_sim::{SimDuration, SimTime};
//!
//! let script = FaultScript::new()
//!     .burst_loss(
//!         SimTime::from_secs(20),
//!         SimDuration::from_secs(30),
//!         GilbertElliott::new(0.05, 0.30, 0.50),
//!     )
//!     .disassociation(
//!         SimTime::from_secs(60),
//!         SimDuration::from_secs(10),
//!         SimDuration::from_secs(2),
//!     );
//! let mut wifi = Link::new(
//!     LinkConfig::constant(8.0, SimDuration::from_millis(15)).with_faults(script),
//! );
//! assert!(matches!(
//!     wifi.send(SimTime::from_secs(65), 1500),
//!     mpdash_link::SendOutcome::Dropped(mpdash_link::DropReason::Disassociated)
//! ));
//! ```

use mpdash_sim::{derive_seed, Prng, SimDuration, SimTime};

/// Parameters of a two-state Gilbert–Elliott burst-loss model.
///
/// The chain advances once per offered packet. In the *good* state
/// packets drop with probability `loss_good` (usually 0); in the *bad*
/// state with `loss_bad`. Transitions good→bad happen with `p_enter`
/// per packet and bad→good with `p_exit`, giving geometric burst
/// lengths with mean `1 / p_exit` packets and a stationary bad-state
/// probability of `p_enter / (p_enter + p_exit)`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GilbertElliott {
    /// P(good → bad) per offered packet, in `(0, 1]`.
    pub p_enter: f64,
    /// P(bad → good) per offered packet, in `(0, 1]`.
    pub p_exit: f64,
    /// Per-packet loss probability while in the bad state, in `[0, 1]`.
    pub loss_bad: f64,
    /// Per-packet loss probability while in the good state, in `[0, 1]`.
    pub loss_good: f64,
}

impl GilbertElliott {
    /// The classic Gilbert model: lossless good state, `loss_bad`-lossy
    /// bad state.
    ///
    /// # Panics
    /// If a transition probability is outside `(0, 1]` or `loss_bad` is
    /// outside `[0, 1]`.
    pub fn new(p_enter: f64, p_exit: f64, loss_bad: f64) -> Self {
        assert!(p_enter > 0.0 && p_enter <= 1.0, "p_enter must be in (0,1]");
        assert!(p_exit > 0.0 && p_exit <= 1.0, "p_exit must be in (0,1]");
        assert!((0.0..=1.0).contains(&loss_bad), "loss_bad must be in [0,1]");
        GilbertElliott {
            p_enter,
            p_exit,
            loss_bad,
            loss_good: 0.0,
        }
    }

    /// Mean burst (bad-state sojourn) length in packets: `1 / p_exit`.
    pub fn mean_burst_len(&self) -> f64 {
        1.0 / self.p_exit
    }

    /// Long-run packet loss rate implied by the parameters.
    pub fn stationary_loss(&self) -> f64 {
        let pi_bad = self.p_enter / (self.p_enter + self.p_exit);
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

/// A running Gilbert–Elliott chain: parameters plus Markov state and a
/// dedicated RNG stream. Advances exactly once per [`Self::lose_packet`]
/// call, so identical call sequences reproduce identical loss patterns.
#[derive(Clone, Debug)]
pub struct GeChain {
    params: GilbertElliott,
    bad: bool,
    rng: Prng,
}

impl GeChain {
    /// A chain starting in the good state, drawing from `seed`.
    pub fn new(params: GilbertElliott, seed: u64) -> Self {
        GeChain {
            params,
            bad: false,
            rng: Prng::new(seed),
        }
    }

    /// Advance the chain one packet and decide whether it is lost.
    pub fn lose_packet(&mut self) -> bool {
        // Transition first, then sample loss in the new state, so a
        // burst can claim the packet that triggered it.
        let flip = if self.bad {
            self.params.p_exit
        } else {
            self.params.p_enter
        };
        if self.rng.next_f64() < flip {
            self.bad = !self.bad;
        }
        let p = if self.bad {
            self.params.loss_bad
        } else {
            self.params.loss_good
        };
        p > 0.0 && self.rng.next_f64() < p
    }

    /// Whether the chain is currently in the bad (bursty) state.
    pub fn in_bad_state(&self) -> bool {
        self.bad
    }
}

/// One family of injected fault behaviour. See the module docs for the
/// semantics of each variant.
#[derive(Clone, PartialEq, Debug)]
pub enum FaultKind {
    /// Correlated packet loss driven by a [`GilbertElliott`] chain.
    BurstLoss(GilbertElliott),
    /// Latency inflation: every delivery during the event arrives
    /// `extra + U(0,1)·jitter` later.
    RttSpike {
        /// Deterministic extra one-way latency.
        extra: SimDuration,
        /// Upper bound of the uniform per-packet jitter on top.
        jitter: SimDuration,
    },
    /// Serialization rate scaled by `factor` in `(0, 1]`.
    RateCollapse {
        /// Multiplier applied to the profile rate.
        factor: f64,
    },
    /// Association lost: nothing is delivered for
    /// `duration + reassociation`.
    Disassociation {
        /// Extra outage spent re-handshaking after `duration` elapses.
        reassociation: SimDuration,
    },
}

impl FaultKind {
    /// Stable snake_case name, used by trace events and the `explain`
    /// timeline.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::BurstLoss(_) => "burst_loss",
            FaultKind::RttSpike { .. } => "rtt_spike",
            FaultKind::RateCollapse { .. } => "rate_collapse",
            FaultKind::Disassociation { .. } => "disassociation",
        }
    }
}

/// One scheduled fault: a kind active on `[at, at + duration)` (a
/// [`FaultKind::Disassociation`] extends the window by its
/// reassociation delay).
#[derive(Clone, PartialEq, Debug)]
pub struct FaultEvent {
    /// When the fault begins.
    pub at: SimTime,
    /// How long the fault condition itself lasts.
    pub duration: SimDuration,
    /// What the fault does.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// The instant the fault stops affecting the link (for a
    /// disassociation this includes the reassociation delay).
    pub fn end(&self) -> SimTime {
        let extra = match self.kind {
            FaultKind::Disassociation { reassociation } => reassociation,
            _ => SimDuration::ZERO,
        };
        self.at + self.duration + extra
    }

    /// Whether the fault affects the link at `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.at && t < self.end()
    }
}

/// A deterministic timeline of fault events for one link.
///
/// Events are kept ordered by start time (stable under insertion order
/// for ties), may overlap, and compose: an active rate collapse scales
/// the profile while an active burst-loss chain eats packets. Attach to
/// a link with [`LinkConfig::with_faults`](crate::LinkConfig::with_faults);
/// all randomness is then derived from the link's seed.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FaultScript {
    events: Vec<FaultEvent>,
}

impl FaultScript {
    /// An empty script (no faults).
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Add an arbitrary event, keeping the timeline ordered.
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        // Stable: simultaneous events stay in insertion order, so the
        // timeline — and every RNG stream keyed by event index — is a
        // pure function of the construction sequence.
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Add a Gilbert–Elliott burst-loss window.
    pub fn burst_loss(self, at: SimTime, duration: SimDuration, ge: GilbertElliott) -> Self {
        self.with_event(FaultEvent {
            at,
            duration,
            kind: FaultKind::BurstLoss(ge),
        })
    }

    /// Add an RTT-spike window adding `extra` plus up to `jitter` of
    /// uniform per-packet jitter to each delivery.
    pub fn rtt_spike(
        self,
        at: SimTime,
        duration: SimDuration,
        extra: SimDuration,
        jitter: SimDuration,
    ) -> Self {
        self.with_event(FaultEvent {
            at,
            duration,
            kind: FaultKind::RttSpike { extra, jitter },
        })
    }

    /// Add a rate-collapse window scaling the profile rate by `factor`.
    ///
    /// # Panics
    /// If `factor` is outside `(0, 1]` — use
    /// [`FaultScript::disassociation`] for a full outage, so the zero-rate
    /// handling stays in one place.
    pub fn rate_collapse(self, at: SimTime, duration: SimDuration, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "rate-collapse factor must be in (0,1]"
        );
        self.with_event(FaultEvent {
            at,
            duration,
            kind: FaultKind::RateCollapse { factor },
        })
    }

    /// Add a disassociation: total outage `duration + reassociation`.
    pub fn disassociation(
        self,
        at: SimTime,
        duration: SimDuration,
        reassociation: SimDuration,
    ) -> Self {
        self.with_event(FaultEvent {
            at,
            duration,
            kind: FaultKind::Disassociation { reassociation },
        })
    }

    /// The ordered event timeline.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the script has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether a disassociation outage (including its reassociation
    /// tail) covers `t`.
    pub fn disassociated_at(&self, t: SimTime) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Disassociation { .. }) && e.active_at(t))
    }

    /// Product of all rate-collapse factors active at `t` (1.0 when
    /// none are).
    pub fn rate_factor_at(&self, t: SimTime) -> f64 {
        self.events
            .iter()
            .filter(|e| e.active_at(t))
            .filter_map(|e| match e.kind {
                FaultKind::RateCollapse { factor } => Some(factor),
                _ => None,
            })
            .product()
    }
}

/// Per-link runtime state for an attached [`FaultScript`]: one
/// [`GeChain`] per burst-loss event and one jitter stream, all derived
/// from the link seed.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    script: FaultScript,
    /// Parallel to `script.events()`: `Some` for burst-loss events.
    chains: Vec<Option<GeChain>>,
    jitter_rng: Prng,
}

/// Stream tags keeping the fault RNGs independent of the link's i.i.d.
/// loss RNG (which is seeded with the raw link seed).
const GE_STREAM: u64 = 0x6E57_0000;
const JITTER_STREAM: u64 = 0x4A17;

impl FaultState {
    pub(crate) fn new(script: FaultScript, link_seed: u64) -> Self {
        let chains = script
            .events()
            .iter()
            .enumerate()
            .map(|(idx, e)| match e.kind {
                FaultKind::BurstLoss(ge) => Some(GeChain::new(
                    ge,
                    derive_seed(link_seed, GE_STREAM + idx as u64),
                )),
                _ => None,
            })
            .collect();
        FaultState {
            script,
            chains,
            jitter_rng: Prng::new(derive_seed(link_seed, JITTER_STREAM)),
        }
    }

    /// Whether a disassociation outage covers `t`.
    pub(crate) fn disassociated_at(&self, t: SimTime) -> bool {
        self.script.disassociated_at(t)
    }

    /// Advance every burst-loss chain active at `t` by one packet and
    /// report whether any of them lost it. All active chains advance
    /// even after one claims the packet, so each chain sees every
    /// offered packet exactly once regardless of overlap.
    pub(crate) fn burst_lose_packet(&mut self, t: SimTime) -> bool {
        let mut lost = false;
        for (event, chain) in self.script.events.iter().zip(self.chains.iter_mut()) {
            if let Some(chain) = chain {
                if event.active_at(t) {
                    lost |= chain.lose_packet();
                }
            }
        }
        lost
    }

    /// Combined rate-collapse factor at `t`.
    pub(crate) fn rate_factor_at(&self, t: SimTime) -> f64 {
        self.script.rate_factor_at(t)
    }

    /// Total extra latency (fixed + jitter draw) for a delivery whose
    /// serialization starts at `t`. Draws from the jitter stream only
    /// for packets inside a spike window, so packets outside the window
    /// do not perturb the stream.
    pub(crate) fn rtt_extra_at(&mut self, t: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for e in &self.script.events {
            if let FaultKind::RttSpike { extra, jitter } = e.kind {
                if e.active_at(t) {
                    total += extra;
                    if !jitter.is_zero() {
                        total += jitter.mul_f64(self.jitter_rng.next_f64());
                    }
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ge_statistics_match_parameters() {
        // Modest transition rates: mean burst 1/0.2 = 5 packets,
        // stationary bad probability 0.02/(0.02+0.2) ≈ 9.1%, loss ≈
        // 9.1% · 0.8 ≈ 7.3%.
        let ge = GilbertElliott::new(0.02, 0.2, 0.8);
        let mut chain = GeChain::new(ge, 42);
        let n = 200_000u64;
        let mut losses = 0u64;
        let mut bursts = 0u64; // completed bad-state sojourns
        let mut burst_packets = 0u64;
        let mut was_bad = false;
        for _ in 0..n {
            if chain.lose_packet() {
                losses += 1;
            }
            let bad = chain.in_bad_state();
            if bad {
                burst_packets += 1;
            }
            if was_bad && !bad {
                bursts += 1;
            }
            was_bad = bad;
        }
        let loss_rate = losses as f64 / n as f64;
        let expect = ge.stationary_loss();
        assert!(
            (loss_rate - expect).abs() / expect < 0.10,
            "loss rate {loss_rate:.4} vs stationary {expect:.4}"
        );
        let mean_burst = burst_packets as f64 / bursts as f64;
        assert!(
            (mean_burst - ge.mean_burst_len()).abs() / ge.mean_burst_len() < 0.10,
            "mean burst {mean_burst:.2} vs {:.2}",
            ge.mean_burst_len()
        );
    }

    #[test]
    fn ge_same_seed_same_pattern() {
        let ge = GilbertElliott::new(0.05, 0.3, 0.5);
        let pattern = |seed| {
            let mut chain = GeChain::new(ge, seed);
            (0..1000).map(|_| chain.lose_packet()).collect::<Vec<_>>()
        };
        assert_eq!(pattern(7), pattern(7), "same seed, same losses");
        assert_ne!(pattern(7), pattern(8), "different seed diverges");
    }

    #[test]
    fn ge_losses_are_bursty_not_iid() {
        // At equal long-run loss rates, GE losses must clump: the
        // probability that the packet after a loss is also lost should
        // far exceed the marginal loss rate.
        let ge = GilbertElliott::new(0.01, 0.25, 1.0);
        let mut chain = GeChain::new(ge, 9);
        let seq: Vec<bool> = (0..100_000).map(|_| chain.lose_packet()).collect();
        let losses = seq.iter().filter(|&&l| l).count() as f64;
        let marginal = losses / seq.len() as f64;
        let after_loss = seq.windows(2).filter(|w| w[0] && w[1]).count() as f64 / losses;
        assert!(
            after_loss > 5.0 * marginal,
            "P(loss|loss) {after_loss:.3} should dwarf marginal {marginal:.3}"
        );
    }

    #[test]
    fn script_orders_events_and_reports_windows() {
        let s = FaultScript::new()
            .disassociation(
                SimTime::from_secs(30),
                SimDuration::from_secs(5),
                SimDuration::from_secs(2),
            )
            .rate_collapse(SimTime::from_secs(10), SimDuration::from_secs(5), 0.25);
        assert_eq!(s.events()[0].at, SimTime::from_secs(10));
        assert_eq!(s.events()[1].at, SimTime::from_secs(30));
        assert!(s.disassociated_at(SimTime::from_secs(36)), "reassoc tail");
        assert!(!s.disassociated_at(SimTime::from_secs(37)));
        assert!((s.rate_factor_at(SimTime::from_secs(12)) - 0.25).abs() < 1e-12);
        assert!((s.rate_factor_at(SimTime::from_secs(20)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_collapses_compose_multiplicatively() {
        let s = FaultScript::new()
            .rate_collapse(SimTime::ZERO, SimDuration::from_secs(10), 0.5)
            .rate_collapse(SimTime::from_secs(5), SimDuration::from_secs(10), 0.5);
        assert!((s.rate_factor_at(SimTime::from_secs(7)) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rate-collapse factor")]
    fn zero_collapse_factor_rejected() {
        let _ = FaultScript::new().rate_collapse(SimTime::ZERO, SimDuration::from_secs(1), 0.0);
    }
}
