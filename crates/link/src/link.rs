//! [`Link`]: one unidirectional simulated path.
//!
//! The model is the classic "single server + drop-tail queue + propagation
//! delay" pipe that Dummynet implements and the paper's testbed uses:
//!
//! * **Serialization** — packets are transmitted one at a time at the rate
//!   the [`BandwidthProfile`] reports at the packet's transmission start
//!   (rate changes mid-packet are ignored; at MSS granularity a packet
//!   occupies the server for ~3 ms at 4 Mbps, well below the 50 ms slots of
//!   the paper's own discretization).
//! * **Queueing** — packets waiting for the server occupy a finite
//!   drop-tail queue measured in bytes; arrivals that would overflow it are
//!   dropped (this is what couples TCP's congestion control to the profile
//!   rate).
//! * **Propagation** — delivery happens one fixed one-way delay after
//!   serialization completes.
//! * **Loss** — optional i.i.d. random loss, applied before queueing, from
//!   a per-link seeded RNG (deterministic per seed).
//! * **Throttle** — an optional [`TokenBucket`] in front of the server,
//!   the stand-in for the paper's cellular-throttling baseline (§7.3.1).

use crate::fault::{FaultScript, FaultState};
use crate::profile::BandwidthProfile;
use crate::shaper::TokenBucket;
use crate::shared::{FlowId, SharedBottleneck, SharedOutcome};
use mpdash_obs::{TraceEvent, Tracer};
use mpdash_sim::{Prng, Rate, SimDuration, SimTime};
use std::collections::VecDeque;

/// Why a packet was not delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// The drop-tail queue was full on arrival.
    QueueOverflow,
    /// The i.i.d. loss process discarded the packet.
    RandomLoss,
    /// The profile reports zero bandwidth with no future change (a link
    /// permanently blacked out); the packet can never be serialized.
    DeadLink,
    /// An injected Gilbert–Elliott burst-loss chain discarded the packet
    /// (see [`crate::fault`]).
    BurstLoss,
    /// An injected disassociation window covers this instant: the
    /// association is down (or still re-handshaking), so nothing crosses
    /// the link.
    Disassociated,
    /// An AQM controller dropped the packet early — PIE at admission or
    /// CoDel at dequeue — while the queue still had capacity.
    AqmEarly,
    /// An AQM controller in ECN mode marked the packet instead of
    /// dropping it. Never returned as a drop outcome (the packet is
    /// delivered); exists so attribution code can name the signal.
    AqmMark,
}

/// Result of [`Link::send`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendOutcome {
    /// The packet will arrive at the far end at the given instant; the
    /// caller schedules the delivery event.
    Delivered { at: SimTime },
    /// The packet was dropped.
    Dropped(DropReason),
}

/// Static configuration of a [`Link`].
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Time-varying available bandwidth.
    pub profile: BandwidthProfile,
    /// One-way propagation delay (half the path RTT in a symmetric setup).
    pub delay: SimDuration,
    /// Drop-tail queue capacity in bytes. The default (64 KiB) is roughly
    /// a Dummynet default of ~42 MSS packets.
    pub queue_capacity: u64,
    /// Independent per-packet loss probability in `[0, 1)`.
    pub loss: f64,
    /// Optional token-bucket throttle ahead of the server.
    pub throttle: Option<TokenBucket>,
    /// Seed for the loss RNG (per-link, so loss patterns are reproducible
    /// and independent across links). Fault-script randomness (burst
    /// chains, jitter) runs on streams derived from this same seed.
    pub seed: u64,
    /// Optional deterministic fault timeline layered over the link.
    pub faults: Option<FaultScript>,
}

impl LinkConfig {
    /// A clean constant-rate link: no loss, no throttle.
    pub fn constant(rate_mbps: f64, one_way_delay: SimDuration) -> Self {
        LinkConfig {
            profile: BandwidthProfile::constant_mbps(rate_mbps),
            delay: one_way_delay,
            queue_capacity: 64 * 1024,
            loss: 0.0,
            throttle: None,
            seed: 0,
            faults: None,
        }
    }

    /// Same link with a different bandwidth profile.
    pub fn with_profile(mut self, profile: BandwidthProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Same link with random loss probability `p`.
    pub fn with_loss(mut self, p: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability must be in [0,1)");
        self.loss = p;
        self.seed = seed;
        self
    }

    /// Same link throttled by a token bucket (the Table 4 baseline).
    pub fn with_throttle(mut self, bucket: TokenBucket) -> Self {
        self.throttle = Some(bucket);
        self
    }

    /// Same link with a different queue capacity in bytes.
    pub fn with_queue_capacity(mut self, bytes: u64) -> Self {
        self.queue_capacity = bytes;
        self
    }

    /// Same link with a deterministic fault timeline attached. Fault
    /// randomness derives from the link `seed` (set it via
    /// [`LinkConfig::with_loss`] or directly) on streams independent of
    /// the i.i.d. loss RNG.
    pub fn with_faults(mut self, script: FaultScript) -> Self {
        self.faults = Some(script);
        self
    }
}

/// One unidirectional simulated path. See the module docs for the model.
pub struct Link {
    cfg: LinkConfig,
    rng: Prng,
    /// Runtime state for the attached fault script, if any.
    faults: Option<FaultState>,
    /// The profile step that served the last packet: `rate` holds over
    /// `[from, until)`. Service starts rarely leave it, so `send` looks
    /// the profile up once per step, not once per packet.
    step: (SimTime, SimTime, Rate),
    /// Instant at which the server finishes the last accepted packet.
    busy_until: SimTime,
    /// Accepted packets still occupying the queue/server:
    /// `(serialization end, size)`. Lazily purged as time advances.
    in_system: VecDeque<(SimTime, u64)>,
    /// Sum of the sizes in `in_system`, kept as packets enter and leave.
    in_system_bytes: u64,
    /// High-water mark of the lazy purge clock: occupancy has been
    /// sampled at this instant. Enforces the one-`now`-per-tick rule
    /// (see [`Link::backlog`]).
    purged_to: SimTime,
    /// When attached, serialization happens at a [`SharedBottleneck`]
    /// instead of this link's private server (see [`Link::offer_shared`]).
    shared: Option<(SharedBottleneck, FlowId)>,
    // Lifetime counters for the analysis tool.
    /// Observe-only trace emission; never feeds back into the model.
    tracer: Tracer,
    /// Dense path index used to label trace events.
    trace_path: usize,
    /// Which scripted fault windows were active at the last `send`, so
    /// activation/clearance edges are emitted exactly once.
    fault_active: Vec<bool>,
}

impl Link {
    /// Build a link from its configuration.
    pub fn new(cfg: LinkConfig) -> Self {
        let rng = Prng::new(cfg.seed);
        let faults = cfg
            .faults
            .clone()
            .map(|script| FaultState::new(script, cfg.seed));
        Link {
            cfg,
            rng,
            faults,
            step: (SimTime::ZERO, SimTime::ZERO, Rate::ZERO),
            busy_until: SimTime::ZERO,
            in_system: VecDeque::new(),
            in_system_bytes: 0,
            purged_to: SimTime::ZERO,
            shared: None,
            tracer: Tracer::disabled(),
            trace_path: 0,
            fault_active: Vec::new(),
        }
    }

    /// Attach a tracer labelling this link's events with dense path
    /// index `path`. Tracing is observe-only: enabling it does not
    /// change a single delivery or drop decision.
    pub fn set_tracer(&mut self, tracer: Tracer, path: usize) {
        self.tracer = tracer;
        self.trace_path = path;
        self.fault_active = self
            .cfg
            .faults
            .as_ref()
            .map(|s| vec![false; s.events().len()])
            .unwrap_or_default();
    }

    /// Emit activation/clearance edges for scripted fault windows whose
    /// active state changed since the last offered packet. Runs only
    /// when a tracer is attached.
    fn trace_fault_edges(&mut self, now: SimTime) {
        if !self.tracer.enabled() {
            return;
        }
        let Some(script) = &self.cfg.faults else {
            return;
        };
        for (i, e) in script.events().iter().enumerate() {
            let active = e.active_at(now);
            if active == self.fault_active[i] {
                continue;
            }
            self.fault_active[i] = active;
            let (path, kind) = (self.trace_path, e.kind.name());
            if active {
                self.tracer.emit_with(now, || TraceEvent::FaultActivated {
                    path,
                    kind,
                    until_s: e.end().as_secs_f64(),
                });
            } else {
                self.tracer
                    .emit_with(now, || TraceEvent::FaultCleared { path, kind });
            }
        }
    }

    /// The profile's rate at `t` and the instant it may next change.
    fn step_at(&mut self, t: SimTime) -> (Rate, SimTime) {
        let (from, until, _) = self.step;
        if t < from || t >= until {
            let (rate, until) = self.cfg.profile.step_at(t);
            self.step = (t, until, rate);
        }
        let (_, until, rate) = self.step;
        (rate, until)
    }

    /// Configured one-way delay.
    pub fn delay(&self) -> SimDuration {
        self.cfg.delay
    }

    /// Bytes currently queued or in service at `now` (after lazy purge).
    ///
    /// **Single-`now` rule**: within one tick, occupancy must be sampled
    /// at exactly one instant — the arrival instant — and every decision
    /// derived from it (drop-tail admission, accounting) must reuse that
    /// sample. Re-sampling at a *later* instant inside the same tick
    /// (say, a throttle-deferred service start) would see a drained
    /// queue and let admission and accounting disagree by one tick —
    /// harmless on a private link, but visible drift once a queue is
    /// shared. The purge clock is monotone and remembered in
    /// `purged_to`; a query older than it returns the already-purged
    /// occupancy rather than resurrecting departed packets.
    pub fn backlog(&mut self, now: SimTime) -> u64 {
        if now > self.purged_to {
            self.purged_to = now;
        }
        let horizon = self.purged_to;
        while let Some(&(end, size)) = self.in_system.front() {
            if end <= horizon {
                self.in_system.pop_front();
                self.in_system_bytes -= size;
            } else {
                break;
            }
        }
        self.in_system_bytes
    }

    /// Attach this link to a [`SharedBottleneck`] as subscription
    /// `flow`. From then on the transport must route packets through
    /// [`Link::offer_shared`]; the private server and queue are unused.
    pub fn attach_shared(&mut self, bottleneck: SharedBottleneck, flow: FlowId) {
        self.shared = Some((bottleneck, flow));
    }

    /// Whether this link serializes at a shared bottleneck.
    pub fn is_shared(&self) -> bool {
        self.shared.is_some()
    }

    /// Occupancy of the attached shared bottleneck in bytes, `None` on a
    /// private link. Read-only: the queue-aware scheduler's cross-layer
    /// signal, safe to sample without perturbing link state.
    pub fn shared_queue_depth(&self) -> Option<u64> {
        self.shared.as_ref().map(|(bn, _)| bn.occupancy_bytes())
    }

    /// Offer a packet to the attached shared bottleneck at `now`.
    ///
    /// The link-local air-interface hazards (disassociation windows,
    /// burst loss, i.i.d. loss) still apply first, exactly as in
    /// [`Link::send`] steps 0–2; what moves to the shared resource is
    /// serialization and queueing (steps 3–5), whose outcome is deferred
    /// — the returned ticket's departure arrives later through the
    /// co-simulation loop, and propagation delay is added by the caller
    /// when scheduling that delivery. Rate-collapse and RTT-spike fault
    /// kinds act on the private server/propagation stages and thus do
    /// not apply on a shared path.
    ///
    /// # Panics
    /// If no bottleneck is attached.
    pub fn offer_shared(&mut self, now: SimTime, size: u64) -> SharedOutcome {
        debug_assert!(size > 0, "packets must be non-empty");
        self.trace_fault_edges(now);
        if let Some(faults) = &self.faults {
            if faults.disassociated_at(now) {
                return SharedOutcome::Dropped(DropReason::Disassociated);
            }
        }
        if let Some(faults) = &mut self.faults {
            if faults.burst_lose_packet(now) {
                return SharedOutcome::Dropped(DropReason::BurstLoss);
            }
        }
        if self.cfg.loss > 0.0 && self.rng.next_f64() < self.cfg.loss {
            return SharedOutcome::Dropped(DropReason::RandomLoss);
        }
        let (bottleneck, flow) = self.shared.as_ref().expect("no shared bottleneck attached");
        bottleneck.offer(now, *flow, size)
    }

    /// Offer a packet of `size` bytes to the link at time `now`.
    ///
    /// On success, the returned instant is when the last byte arrives at
    /// the far end; the caller is responsible for scheduling that event.
    pub fn send(&mut self, now: SimTime, size: u64) -> SendOutcome {
        debug_assert!(size > 0, "packets must be non-empty");
        self.trace_fault_edges(now);

        // 0. An active disassociation outage swallows everything — the
        //    association (or its re-handshake) isn't up, so the packet
        //    never reaches the air.
        if let Some(faults) = &self.faults {
            if faults.disassociated_at(now) {
                return SendOutcome::Dropped(DropReason::Disassociated);
            }
        }

        // 1. Burst loss: every active Gilbert–Elliott chain advances one
        //    step per offered packet; any of them may eat it.
        if let Some(faults) = &mut self.faults {
            if faults.burst_lose_packet(now) {
                return SendOutcome::Dropped(DropReason::BurstLoss);
            }
        }

        // 2. Random loss happens "on the wire" but is decided up front —
        //    the byte still occupied upstream buffers in reality, but for a
        //    drop-tail model deciding early is equivalent and simpler.
        if self.cfg.loss > 0.0 && self.rng.next_f64() < self.cfg.loss {
            return SendOutcome::Dropped(DropReason::RandomLoss);
        }

        // 3. Drop-tail admission check against the current backlog. This
        //    is the tick's single occupancy sample (see `backlog` docs):
        //    the throttle or a blackout below may defer service past
        //    `now`, but admission must NOT be re-judged at that later
        //    start or it would disagree with this sample within one tick.
        let backlog = self.backlog(now);
        if backlog + size > self.cfg.queue_capacity {
            return SendOutcome::Dropped(DropReason::QueueOverflow);
        }

        // 4. Optional throttle delays the earliest service start.
        let earliest = match &mut self.cfg.throttle {
            Some(bucket) => bucket.admit(now, size),
            None => now,
        };

        // 5. Serialize after the server frees up. If the profile is at
        //    zero, wait for its next change (a temporary blackout); if it
        //    never changes, the packet is undeliverable. An active rate
        //    collapse scales the profile rate (sampled, like the rate
        //    itself, at serialization start).
        let mut start = earliest.max(self.busy_until);
        let (mut rate, mut until) = self.step_at(start);
        while rate.is_zero() {
            if until == SimTime::MAX {
                return SendOutcome::Dropped(DropReason::DeadLink);
            }
            start = until;
            (rate, until) = self.step_at(start);
        }
        if let Some(faults) = &self.faults {
            let factor = faults.rate_factor_at(start);
            if factor < 1.0 {
                // Clamp to 1 bps: the factor is in (0,1] by construction,
                // so a collapse may crawl but never turns into the
                // dead-link (infinite serialization) case.
                rate = rate.mul_f64(factor).max(Rate::from_bps(1));
            }
        }
        let ser = rate.time_to_send(size);
        let tx_end = start + ser;
        self.busy_until = tx_end;
        self.in_system.push_back((tx_end, size));
        self.in_system_bytes += size;

        // 6. An active RTT spike inflates propagation for this delivery.
        let extra = match &mut self.faults {
            Some(faults) => faults.rtt_extra_at(start),
            None => SimDuration::ZERO,
        };

        SendOutcome::Delivered {
            at: tx_end + self.cfg.delay + extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1460;

    fn clean_link(mbps: f64) -> Link {
        Link::new(LinkConfig::constant(mbps, SimDuration::from_millis(25)))
    }

    #[test]
    fn single_packet_timing() {
        let mut l = clean_link(12.0);
        // 1500 B at 12 Mbps = 1 ms serialization + 25 ms delay.
        match l.send(SimTime::ZERO, 1500) {
            SendOutcome::Delivered { at } => {
                assert_eq!(at, SimTime::from_millis(26));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_server() {
        let mut l = clean_link(12.0);
        let SendOutcome::Delivered { at: a1 } = l.send(SimTime::ZERO, 1500) else {
            panic!()
        };
        let SendOutcome::Delivered { at: a2 } = l.send(SimTime::ZERO, 1500) else {
            panic!()
        };
        // Second packet waits 1 ms for the server.
        assert_eq!(a2.saturating_since(a1), SimDuration::from_millis(1));
    }

    #[test]
    fn sustained_throughput_matches_profile() {
        let mut l = clean_link(3.8);
        let mut t = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        let n = 1000u64;
        for _ in 0..n {
            // Closed loop: send next as the previous finishes serializing
            // (backlog stays ~1 packet, no overflow).
            match l.send(t, MSS) {
                SendOutcome::Delivered { at } => {
                    last = at;
                    t = at - l.delay();
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let goodput = (n * MSS) as f64 * 8.0 / (last - SimTime::ZERO).as_secs_f64();
        assert!(
            (goodput - 3.8e6).abs() / 3.8e6 < 0.01,
            "goodput {goodput} bps"
        );
    }

    #[test]
    fn queue_overflow_drops() {
        let mut l = Link::new(
            LinkConfig::constant(1.0, SimDuration::from_millis(1)).with_queue_capacity(3 * MSS),
        );
        let mut delivered = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match l.send(SimTime::ZERO, MSS) {
                SendOutcome::Delivered { .. } => delivered += 1,
                SendOutcome::Dropped(DropReason::QueueOverflow) => dropped += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(delivered, 3);
        assert_eq!(dropped, 7);
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut l = Link::new(
            LinkConfig::constant(1.0, SimDuration::from_millis(1)).with_queue_capacity(10 * MSS),
        );
        for _ in 0..5 {
            l.send(SimTime::ZERO, MSS);
        }
        assert_eq!(l.backlog(SimTime::ZERO), 5 * MSS);
        // 1460*8 bits at 1 Mbps = 11.68 ms per packet; after 30 ms two have
        // left the system.
        assert_eq!(l.backlog(SimTime::from_millis(30)), 3 * MSS);
        assert_eq!(l.backlog(SimTime::from_secs(1)), 0);
    }

    #[test]
    fn backlog_purge_clock_is_monotone() {
        let mut l = Link::new(
            LinkConfig::constant(1.0, SimDuration::from_millis(1)).with_queue_capacity(10 * MSS),
        );
        for _ in 0..5 {
            l.send(SimTime::ZERO, MSS);
        }
        // Purge at t=30 ms (two packets have left), then query an older
        // instant: the sample must not resurrect departed packets, and
        // the same tick keeps seeing one consistent occupancy.
        assert_eq!(l.backlog(SimTime::from_millis(30)), 3 * MSS);
        assert_eq!(l.backlog(SimTime::from_millis(10)), 3 * MSS);
        assert_eq!(l.backlog(SimTime::from_millis(30)), 3 * MSS);
    }

    #[test]
    fn throttled_admission_uses_the_arrival_instant_sample() {
        // A deep throttle defers service far beyond `now`. Admission
        // must still be judged against the occupancy at the arrival
        // instant — not re-sampled at the deferred start (where the
        // queue would look empty and admission would diverge from the
        // recorded occupancy by one tick).
        let bucket = TokenBucket::new(Rate::from_kbps(100), 1500);
        let mut l = Link::new(
            LinkConfig::constant(10.0, SimDuration::ZERO)
                .with_throttle(bucket)
                .with_queue_capacity(3 * MSS),
        );
        let mut admitted = 0;
        for _ in 0..6 {
            if matches!(l.send(SimTime::ZERO, MSS), SendOutcome::Delivered { .. }) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 3, "admission judged at the single t=0 sample");
    }

    #[test]
    fn random_loss_is_seeded_and_in_range() {
        let run = |seed| {
            let mut l = Link::new(
                LinkConfig::constant(100.0, SimDuration::from_millis(1))
                    .with_loss(0.3, seed)
                    .with_queue_capacity(u64::MAX),
            );
            let mut drops = 0;
            for i in 0..1000u64 {
                if matches!(
                    l.send(SimTime::from_millis(i), MSS),
                    SendOutcome::Dropped(DropReason::RandomLoss)
                ) {
                    drops += 1;
                }
            }
            drops
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same losses");
        assert!((200..400).contains(&a), "drop count {a} near 30%");
        assert_ne!(a, c, "different seed, (almost surely) different losses");
    }

    #[test]
    fn blackout_parks_until_profile_recovers() {
        // 0 Mbps for 1 s, then 8 Mbps.
        let profile = BandwidthProfile::from_samples(
            SimDuration::from_secs(1),
            &[Rate::ZERO, Rate::from_mbps(8)],
            false,
        );
        let mut l = Link::new(LinkConfig::constant(1.0, SimDuration::ZERO).with_profile(profile));
        match l.send(SimTime::ZERO, 1000) {
            SendOutcome::Delivered { at } => {
                // Starts at t=1 s, 1000 B at 8 Mbps = 1 ms.
                assert_eq!(at, SimTime::from_millis(1001));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dead_link_rejects() {
        let mut l = Link::new(
            LinkConfig::constant(1.0, SimDuration::ZERO)
                .with_profile(BandwidthProfile::Constant(Rate::ZERO)),
        );
        assert_eq!(
            l.send(SimTime::ZERO, 100),
            SendOutcome::Dropped(DropReason::DeadLink)
        );
    }

    #[test]
    fn disassociation_window_swallows_then_recovers() {
        let script = crate::fault::FaultScript::new().disassociation(
            SimTime::from_secs(10),
            SimDuration::from_secs(5),
            SimDuration::from_secs(2),
        );
        let mut l =
            Link::new(LinkConfig::constant(12.0, SimDuration::from_millis(25)).with_faults(script));
        assert!(matches!(
            l.send(SimTime::from_secs(9), MSS),
            SendOutcome::Delivered { .. }
        ));
        // Down for the disassociation AND the reassociation handshake.
        for s in [10, 12, 14, 16] {
            assert_eq!(
                l.send(SimTime::from_secs(s), MSS),
                SendOutcome::Dropped(DropReason::Disassociated),
                "at {s} s"
            );
        }
        assert!(matches!(
            l.send(SimTime::from_secs(17), MSS),
            SendOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn rate_collapse_stretches_serialization() {
        let script = crate::fault::FaultScript::new().rate_collapse(
            SimTime::from_secs(10),
            SimDuration::from_secs(10),
            0.25,
        );
        let mut l = Link::new(LinkConfig::constant(12.0, SimDuration::ZERO).with_faults(script));
        // Healthy: 1500 B at 12 Mbps = 1 ms.
        let SendOutcome::Delivered { at } = l.send(SimTime::ZERO, 1500) else {
            panic!()
        };
        assert_eq!(at, SimTime::from_millis(1));
        // Collapsed to 3 Mbps: 4 ms.
        let SendOutcome::Delivered { at } = l.send(SimTime::from_secs(10), 1500) else {
            panic!()
        };
        assert_eq!(at, SimTime::from_secs(10) + SimDuration::from_millis(4));
    }

    #[test]
    fn rtt_spike_inflates_delivery_deterministically() {
        let script = || {
            crate::fault::FaultScript::new().rtt_spike(
                SimTime::from_secs(10),
                SimDuration::from_secs(10),
                SimDuration::from_millis(300),
                SimDuration::from_millis(100),
            )
        };
        let deliveries = |seed: u64| {
            let mut l = Link::new(
                LinkConfig::constant(12.0, SimDuration::from_millis(25))
                    .with_loss(0.0, seed)
                    .with_faults(script()),
            );
            (0..20u64)
                .map(|i| {
                    match l.send(
                        SimTime::from_secs(10) + SimDuration::from_millis(i * 100),
                        1500,
                    ) {
                        SendOutcome::Delivered { at } => at,
                        other => panic!("unexpected {other:?}"),
                    }
                })
                .collect::<Vec<_>>()
        };
        let a = deliveries(3);
        // Baseline without the spike: serialization 1 ms + delay 25 ms.
        for (i, at) in a.iter().enumerate() {
            let offered = SimTime::from_secs(10) + SimDuration::from_millis(i as u64 * 100);
            let base = offered + SimDuration::from_millis(26);
            let extra = at.saturating_since(base);
            assert!(
                extra >= SimDuration::from_millis(300) && extra <= SimDuration::from_millis(400),
                "packet {i}: extra {extra:?}"
            );
        }
        assert_eq!(a, deliveries(3), "same seed, same jitter");
        assert_ne!(a, deliveries(4), "different seed, different jitter");
    }

    #[test]
    fn burst_loss_window_drops_only_inside_window() {
        let script = crate::fault::FaultScript::new().burst_loss(
            SimTime::from_secs(10),
            SimDuration::from_secs(10),
            crate::fault::GilbertElliott::new(0.2, 0.2, 1.0),
        );
        let mut l = Link::new(
            LinkConfig::constant(100.0, SimDuration::ZERO)
                .with_queue_capacity(u64::MAX)
                .with_faults(script),
        );
        for i in 0..100u64 {
            assert!(
                matches!(
                    l.send(SimTime::from_millis(i), MSS),
                    SendOutcome::Delivered { .. }
                ),
                "before the window nothing drops"
            );
        }
        let mut dropped = 0;
        for i in 0..500u64 {
            if matches!(
                l.send(
                    SimTime::from_secs(10) + SimDuration::from_millis(i * 10),
                    MSS
                ),
                SendOutcome::Dropped(DropReason::BurstLoss)
            ) {
                dropped += 1;
            }
        }
        // Stationary bad probability 0.5 with loss 1.0 → about half drop.
        assert!((150..350).contains(&dropped), "in-window drops {dropped}");
    }

    #[test]
    fn throttled_link_paces_at_bucket_rate() {
        let bucket = TokenBucket::new(Rate::from_kbps(700), 1500);
        let mut l = Link::new(
            LinkConfig::constant(10.0, SimDuration::ZERO)
                .with_throttle(bucket)
                .with_queue_capacity(u64::MAX),
        );
        let mut last = SimTime::ZERO;
        let n = 100u64;
        for _ in 0..n {
            match l.send(SimTime::ZERO, 1500) {
                SendOutcome::Delivered { at } => last = at,
                other => panic!("unexpected {other:?}"),
            }
        }
        let rate = ((n - 1) * 1500) as f64 * 8.0 / last.as_secs_f64();
        assert!(
            (rate - 700_000.0).abs() / 700_000.0 < 0.02,
            "paced at {rate} bps"
        );
    }
}
