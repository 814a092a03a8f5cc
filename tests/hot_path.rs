//! The single-session hot path does only necessary work — and the same
//! work: a one-pass outage-bridging attribution equal to the nested scan
//! it replaced, and a running link backlog equal to the sum it replaced.
//! (One live RTO event per subflow is checked in `mpdash-mptcp`'s own
//! tests, the event queue's lanes against a model in `mpdash-sim`'s.)
//!
//! And each event costs little without changing what it does: the
//! receiver's sorted-vector reassembly equals a byte-set model,
//! `Link::send`'s remembered profile step equals a fresh lookup per
//! packet, `Rate`'s 64-bit divide equals the 128-bit one, and the radio
//! meter fed one packet at a time equals the indexed walk over a slice.
//!
//! And what a session keeps per packet is bounded: 16 bytes of log for
//! a standalone session, nothing for a fleet client nobody traces.

use mpdash::dash::abr::AbrKind;
use mpdash::dash::video::Video;
use mpdash::energy::{radio_energy, radio_energy_of, EnergyBreakdown, RadioMeter, RadioModel};
use mpdash::fleet::{FleetConfig, SharedLinkSpec};
use mpdash::http::{LifecyclePolicy, OriginPoolConfig, OriginSpec, ServerFaultScript};
use mpdash::link::{
    BandwidthProfile, DropReason, FaultScript, Link, LinkConfig, PathId, SendOutcome,
    SharedBottleneckConfig,
};
use mpdash::mptcp::reassembly::IntervalSet;
use mpdash::mptcp::receiver::Receiver;
use mpdash::mptcp::{PoppedByKind, SchedulerSpec};
use mpdash::obs::Tracer;
use mpdash::session::{SessionConfig, SessionReport, SimProfile, StreamingSession, TransportMode};
use mpdash::sim::{Rate, SimDuration, SimTime};
use mpdash::trace::table1;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// What `into_report` did before its attribution became one pass: per
/// chunk, scan every packet record for the body's stream range.
fn outage_bridged_nested_scan(r: &SessionReport) -> u64 {
    let bridged = |c: &&mpdash::session::ChunkLogEntry| {
        let body = r
            .records
            .iter()
            .filter(|p| p.dss >= c.body_dss.start && p.dss < c.body_dss.end);
        let (mut wifi, mut other) = (0u64, 0u64);
        for p in body {
            if p.path == PathId::WIFI {
                wifi += p.len;
            } else {
                other += p.len;
            }
        }
        other > 0 && wifi * 10 < wifi + other
    };
    r.chunks.iter().filter(bridged).count() as u64
}

#[test]
fn one_pass_outage_attribution_equals_the_nested_scan() {
    let video = Video::new(
        "BBB-short",
        &[0.58, 1.01, 1.47, 2.41, 3.94],
        SimDuration::from_secs(4),
        40,
    );
    let base = || {
        SessionConfig::controlled(
            table1::synthetic_profile_pair(3.8, 3.0, 0.10, 42),
            AbrKind::Festive,
            TransportMode::mpdash_rate_based(),
        )
        .with_video(video.clone())
    };
    // Chunk bodies end up in the stream three different ways: bridged by
    // cellular across a WiFi disassociation, as the tail a byte-range
    // resume fetched after an abandonment, and as whichever request won a
    // hedge race against a blackholed origin.
    let disassociated = base().with_wifi_faults(FaultScript::new().disassociation(
        SimTime::from_secs(40),
        SimDuration::from_secs(15),
        SimDuration::from_secs(2),
    ));
    let resumed = base()
        .with_server_faults(ServerFaultScript::new().stalled_body(
            SimTime::from_secs(8),
            SimDuration::from_secs(1),
            SimDuration::from_secs(30),
            0.5,
        ))
        .with_lifecycle(LifecyclePolicy::deadline_aware());
    let dark_primary_pool = OriginPoolConfig::new(vec![
        OriginSpec::new("primary").with_faults(
            ServerFaultScript::new().blackhole(SimTime::from_secs(20), SimDuration::from_secs(80)),
        ),
        OriginSpec::new("backup-a").with_rtt_penalty(SimDuration::from_millis(20)),
        OriginSpec::new("backup-b").with_rtt_penalty(SimDuration::from_millis(40)),
    ]);
    let hedged = base()
        .with_origins(dark_primary_pool.with_hedge_quantile(0.5))
        .with_lifecycle(LifecyclePolicy::wait_forever());

    let reports = [disassociated, resumed, hedged].map(StreamingSession::run);
    for r in &reports {
        assert_eq!(r.chunks.len(), 40);
        assert_eq!(
            r.degradation.outage_bridged_chunks,
            outage_bridged_nested_scan(r)
        );
    }
    let [disassociated, resumed, hedged] = &reports;
    assert!(disassociated.degradation.outage_bridged_chunks > 0);
    assert!(
        resumed.lifecycle.resumed > 0,
        "a body must be a resumed tail"
    );
    assert!(
        hedged.origin.hedge_wins_hedge > 0,
        "a hedge must win a body"
    );
}

/// A whole 10-minute MP-DASH session's capture is 16 bytes a packet plus
/// the unfilled tail of one block (at most 64 KiB with the table of
/// blocks): a fatter record or a log that over-allocates fails here, not
/// as a drifting `peak_rss_mb`.
#[test]
fn a_sessions_packet_log_holds_16_bytes_a_packet_plus_one_block() {
    let r = StreamingSession::run(SessionConfig::controlled(
        table1::synthetic_profile_pair(3.8, 3.0, 0.10, 42),
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    ));
    assert!(r.duration >= SimDuration::from_secs(600));
    let packets = r.records.len();
    assert!(packets > 100_000, "only {packets} packets");
    // The log is every data packet the session's queue popped: the
    // counter a reader that only wants the count can use instead.
    assert_eq!(r.sim_profile.by_kind.data, packets as u64);
    let held = r.records.heap_bytes();
    assert!(
        held <= 16 * packets + 64 * 1024,
        "{held} bytes for {packets} packets"
    );
}

/// `radio_energy` as it walked a slice by index, before the replay took
/// an iterator.
fn radio_energy_indexed(
    model: &RadioModel,
    packets: &[(SimTime, u64)],
    horizon: SimDuration,
) -> EnergyBreakdown {
    let horizon_end = SimTime::ZERO + horizon;
    let mut total_bits: f64 = 0.0;
    let mut active_time = SimDuration::ZERO;
    let mut drx_time = SimDuration::ZERO;
    let mut promotions = 0u64;
    let mut prev_active_end: Option<SimTime> = None;
    let drx_window = |drx_start: SimTime| {
        (drx_start + model.drx_time)
            .min(horizon_end)
            .saturating_since(drx_start)
    };
    let mut i = 0;
    while i < packets.len() {
        let burst_start = packets[i].0;
        let mut burst_last = burst_start;
        while i < packets.len() {
            let (t, bytes) = packets[i];
            if t.saturating_since(burst_last) > model.tail_active {
                break;
            }
            burst_last = t;
            total_bits += bytes as f64 * 8.0;
            i += 1;
        }
        let active_end = (burst_last + model.tail_active).min(horizon_end);
        if active_end > burst_start {
            active_time += active_end - burst_start;
        }
        match prev_active_end {
            Some(drx_start) if burst_start <= drx_start + model.drx_time => {
                drx_time += burst_start.saturating_since(drx_start);
            }
            _ => {
                drx_time += prev_active_end.map_or(SimDuration::ZERO, drx_window);
                promotions += 1;
            }
        }
        prev_active_end = Some(active_end);
    }
    drx_time += prev_active_end.map_or(SimDuration::ZERO, drx_window);
    let idle = horizon
        .saturating_sub(active_time)
        .saturating_sub(drx_time)
        .saturating_sub(model.promo_time.mul_f64(promotions as f64));
    EnergyBreakdown {
        promotion_j: promotions as f64 * model.promo_power_mw * model.promo_time.as_secs_f64()
            / 1_000.0,
        active_j: model.active_power_mw * active_time.as_secs_f64() / 1_000.0,
        drx_j: model.drx_power_mw * drx_time.as_secs_f64() / 1_000.0,
        transfer_j: total_bits / 1e6 * model.per_mbit_mj / 1_000.0,
        idle_j: model.idle_power_mw * idle.as_secs_f64() / 1_000.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The running backlog is the sum of what has not left the link by the
    /// purge clock's high-water mark, whatever order sends and queries
    /// come in and however the clock they carry wanders; drop-tail
    /// admission is judged on that same figure.
    #[test]
    fn link_backlog_is_the_sum_of_what_has_not_left(
        mbps in 0.5f64..20.0,
        ops in prop::collection::vec(0u64..1_000_000, 1..400),
    ) {
        const CAPACITY: u64 = 16 * 1024;
        let delay = SimDuration::from_millis(10);
        let mut link = Link::new(LinkConfig::constant(mbps, delay).with_queue_capacity(CAPACITY));
        // The model: every accepted packet with its serialization end.
        let mut accepted: Vec<(SimTime, u64)> = Vec::new();
        let mut purged_to = SimTime::ZERO;
        let mut now_us = 0u64;
        for op in ops {
            // The clock steps in [-5, +15) ms: queries older than the
            // purge clock must not resurrect departed packets.
            now_us = (now_us + (op / 3) % 20_000).saturating_sub(5_000);
            let now = SimTime::from_micros(now_us);
            purged_to = purged_to.max(now);
            let in_system = |accepted: &[(SimTime, u64)]| -> u64 {
                accepted.iter().filter(|&&(end, _)| end > purged_to).map(|&(_, size)| size).sum()
            };
            if op % 3 == 0 {
                prop_assert_eq!(link.backlog(now), in_system(&accepted));
                continue;
            }
            let size = 40 + op % 1461;
            let fits = in_system(&accepted) + size <= CAPACITY;
            match link.send(now, size) {
                SendOutcome::Delivered { at } => {
                    prop_assert!(fits, "admitted past capacity");
                    accepted.push((at - delay, size));
                }
                SendOutcome::Dropped(reason) => {
                    prop_assert_eq!(reason, DropReason::QueueOverflow);
                    prop_assert!(!fits, "dropped with room to spare");
                }
            }
            prop_assert_eq!(link.backlog(now), in_system(&accepted));
        }
    }
}

/// `Link::send`'s delivery time computed the slow way: look the profile
/// (and the fault script) up afresh for every packet. The queue is sized
/// so that nothing overflows; the serializer is all there is.
struct ReferenceLink {
    profile: BandwidthProfile,
    faults: FaultScript,
    delay: SimDuration,
    busy_until: SimTime,
}

impl ReferenceLink {
    fn send(&mut self, now: SimTime, size: u64) -> SendOutcome {
        let mut start = now.max(self.busy_until);
        while self.profile.rate_at(start).is_zero() {
            start = self.profile.next_change_after(start);
            if start == SimTime::MAX {
                return SendOutcome::Dropped(DropReason::DeadLink);
            }
        }
        let mut rate = self.profile.rate_at(start);
        let factor = self.faults.rate_factor_at(start);
        if factor < 1.0 {
            rate = rate.mul_f64(factor).max(Rate::from_bps(1));
        }
        self.busy_until = start + rate.time_to_send(size);
        SendOutcome::Delivered {
            at: self.busy_until + self.delay,
        }
    }
}

/// 128-bit `Rate::time_to_send` and `Rate::bytes_in`, as both were
/// before a 64-bit path was put in front of them.
fn time_to_send_u128(rate: Rate, bytes: u64) -> SimDuration {
    let nanos = bytes as u128 * 8 * 1_000_000_000 / rate.as_bps() as u128;
    SimDuration::from_nanos(nanos.min(u64::MAX as u128) as u64)
}

fn bytes_in_u128(rate: Rate, window: SimDuration) -> u64 {
    let bytes = rate.as_bps() as u128 * window.as_nanos() as u128 / 1_000_000_000 / 8;
    bytes.min(u64::MAX as u128) as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The receiver against a model that keeps every byte it was handed
    /// in a set: per subflow the cumulative ACK, per connection the
    /// deliverable prefix, under in-order arrival, two-path striping
    /// with holes filled late, duplicates, retransmissions nested in or
    /// spanning earlier segments, and SYN resyncs that abandon a range.
    #[test]
    fn reassembly_matches_a_byte_set_model(
        ops in prop::collection::vec(0u64..(1 << 24), 1..300),
    ) {
        let mut rx = Receiver::new(2);
        let mut conn = IntervalSet::new();
        // The model: bytes held per subflow beyond its ACK point, the
        // ACK points, and every connection-level byte seen.
        let mut sub_bytes = [BTreeSet::new(), BTreeSet::new()];
        let mut sub_nxt = [0u64; 2];
        let mut conn_bytes: BTreeSet<u64> = BTreeSet::new();
        let mut delivered = 0u64;
        // The sender: next sequence numbers, segments sent but withheld
        // (holes), segments already handed over (to repeat or overlap).
        let mut snd_nxt = [0u64; 2];
        let mut dss_nxt = 0u64;
        let mut withheld: Vec<(usize, u64, u64, u64)> = Vec::new();
        let mut seen: Vec<(usize, u64, u64, u64)> = Vec::new();
        for op in ops {
            let (kind, path, arg) = (op % 16, (op >> 4) as usize % 2, op >> 5);
            let len = 1 + arg % 6;
            let fresh = (path, snd_nxt[path], len, dss_nxt);
            let (segment, syn) = match kind {
                // A hole: the segment is sent but arrives later, if ever.
                0 | 1 => {
                    snd_nxt[path] += len;
                    dss_nxt += len;
                    withheld.push(fresh);
                    continue;
                }
                2 | 3 if !withheld.is_empty() => {
                    (withheld.swap_remove(arg as usize % withheld.len()), false)
                }
                4 if !seen.is_empty() => (seen[arg as usize % seen.len()], false),
                // Nested in, or reaching past, an earlier segment: the
                // same subflow-to-stream mapping, shifted and resized.
                5 if !seen.is_empty() => {
                    let (p, seq, l, dss) = seen[arg as usize % seen.len()];
                    let shift = (arg >> 8) % l;
                    let nested = (p, seq + shift, 1 + (arg >> 12) % (l + 2), dss + shift);
                    (nested, false)
                }
                // A re-established subflow skips what the old one left.
                6 => {
                    snd_nxt[path] += 1 + (arg >> 8) % 9;
                    ((path, snd_nxt[path], len, dss_nxt), true)
                }
                _ => (fresh, false),
            };
            let (p, seq, len, dss) = segment;
            if (seq, dss) == (snd_nxt[p], dss_nxt) {
                snd_nxt[p] += len;
                dss_nxt += len;
            }
            seen.push(segment);

            if syn && seq > sub_nxt[p] {
                sub_nxt[p] = seq;
                sub_bytes[p].clear();
            }
            if seq <= sub_nxt[p] {
                sub_nxt[p] = sub_nxt[p].max(seq + len);
                while sub_bytes[p].contains(&sub_nxt[p]) {
                    sub_nxt[p] += 1;
                }
            } else {
                sub_bytes[p].extend(seq..seq + len);
            }
            conn_bytes.extend(dss..dss + len);
            let before = delivered;
            while conn_bytes.contains(&delivered) {
                delivered += 1;
            }

            let got = rx.on_data(SimTime::ZERO, PathId(p as u8), seq, len, dss, false, syn);
            prop_assert_eq!(got.ack, sub_nxt[p]);
            prop_assert_eq!(got.newly_delivered, delivered - before);
            prop_assert_eq!(rx.delivered(), delivered);
            conn.insert(dss, dss + len);
            prop_assert_eq!(conn.total_bytes(), conn_bytes.len() as u64);
            let gaps = conn_bytes.iter().filter(|&&b| !conn_bytes.contains(&(b + 1)));
            prop_assert_eq!(conn.run_count(), gaps.count());
            let probe = arg % (dss_nxt + 2);
            let run_end = (probe..).find(|b| !conn_bytes.contains(b)).expect("finite");
            prop_assert_eq!(conn.contiguous_from(probe), run_end);
            prop_assert!(conn.covers(probe, run_end));
            prop_assert!(!conn.covers(probe, run_end + 1));
        }
    }

    /// The profile step `Link::send` remembers never changes a delivery:
    /// looping profiles (the step spans a wrap), zero-rate slots in the
    /// middle of one (the packet waits for the next non-zero slot), a
    /// profile that ends dark (dead link) and a rate-collapse window on
    /// top, with a clock that idles across many steps and steps back.
    #[test]
    fn link_send_equals_a_fresh_profile_lookup_per_packet(
        slot_ms in 1u64..40,
        looped in any::<bool>(),
        slots in prop::collection::vec(0u64..8, 1..12),
        sends in prop::collection::vec(0u64..1_000_000, 1..300),
    ) {
        // A third of the slots are dark, but never the first: a looping
        // profile that is dark throughout has no next change to wait for.
        let kbps = |(i, &s): (usize, &u64)| if i == 0 { 900 } else { s.saturating_sub(2) * 700 };
        let rates: Vec<Rate> = slots.iter().enumerate().map(kbps).map(Rate::from_kbps).collect();
        let slot = SimDuration::from_millis(slot_ms);
        let profile = BandwidthProfile::from_samples(slot, &rates, looped);
        let faults = FaultScript::new().rate_collapse(
            SimTime::from_millis(3 * slot_ms),
            SimDuration::from_millis(4 * slot_ms),
            0.25,
        );
        let delay = SimDuration::from_millis(10);
        let cfg = LinkConfig::constant(1.0, delay)
            .with_profile(profile.clone())
            .with_queue_capacity(u64::MAX)
            .with_faults(faults.clone());
        let mut link = Link::new(cfg);
        let mut reference = ReferenceLink { profile, faults, delay, busy_until: SimTime::ZERO };
        let mut now_us = 0u64;
        for op in sends {
            // Mostly a packet time apart, sometimes idle for several slots,
            // sometimes back in the past (where, after a dead-link
            // verdict, the profile may still be lit).
            now_us = match op % 8 {
                0 => now_us + (op >> 3) % (5_000 * slot_ms),
                1 => now_us.saturating_sub((op >> 3) % (3_000 * slot_ms)),
                _ => now_us + (op >> 3) % 8_000,
            };
            let (now, size) = (SimTime::from_micros(now_us), 40 + (op >> 3) % 1461);
            prop_assert_eq!(link.send(now, size), reference.send(now, size));
        }
    }

    /// One radio's packets picked out of a two-path capture on the fly
    /// and pushed into a meter one at a time replay to the joule, bit for
    /// bit, as the same packets copied into a slice and walked by index:
    /// gaps either side of the inactivity window, the DRX window and the
    /// idle demotion, simultaneous arrivals, and horizons that clip a
    /// tail or end before the trace — before its last burst, too.
    #[test]
    fn streamed_radio_energy_equals_the_indexed_walk(
        draws in prop::collection::vec(0u64..1_000_000, 0..400),
        horizon_ms in 1u64..400_000,
    ) {
        let mut at_us = 0u64;
        let capture: Vec<(SimTime, u64, bool)> = draws
            .iter()
            .map(|&d| {
                // Up to 1 ms, 1 s, 4 s or 30 s after the packet before.
                at_us += (d >> 3) % [1_000, 1_000_000, 4_000_000, 30_000_000][d as usize % 4];
                (SimTime::from_micros(at_us), 40 + (d >> 3) % 1_461, d % 8 < 4)
            })
            .collect();
        let horizon = SimDuration::from_millis(horizon_ms);
        let bits = |e: EnergyBreakdown| {
            [e.promotion_j, e.active_j, e.drx_j, e.transfer_j, e.idle_j].map(f64::to_bits)
        };
        for model in [RadioModel::lte_galaxy_note(), RadioModel::wifi_galaxy_s3()] {
            for radio in [false, true] {
                let on_radio = || {
                    let picked = capture.iter().filter(move |&&(_, _, r)| r == radio);
                    picked.map(|&(t, bytes, _)| (t, bytes))
                };
                let copied: Vec<(SimTime, u64)> = on_radio().collect();
                let expected = bits(radio_energy_indexed(&model, &copied, horizon));
                prop_assert_eq!(bits(radio_energy_of(&model, on_radio(), horizon)), expected);
                prop_assert_eq!(bits(radio_energy(&model, &copied, horizon)), expected);
                let mut meter = RadioMeter::new(model);
                for (t, bytes) in on_radio() {
                    meter.push(t, bytes);
                }
                prop_assert_eq!(bits(meter.finish(horizon)), expected);
                // One meter, read at any horizon: just before the last
                // packet (inside its burst or before it) and halfway.
                if let Some(&(last, _)) = copied.last() {
                    let last = last.saturating_since(SimTime::ZERO);
                    let tick = SimDuration::from_nanos(1);
                    for early in [last.saturating_sub(tick), last / 2] {
                        let expected = bits(radio_energy_indexed(&model, &copied, early));
                        prop_assert_eq!(bits(meter.finish(early)), expected);
                    }
                }
            }
        }
    }

    /// Either side of the products that no longer fit 64 bits.
    #[test]
    fn rate_conversions_agree_across_the_64_bit_boundary(
        bps in 1u64..50_000_000_000,
        near in 0u64..2_000,
        far in 0u64..u64::MAX,
    ) {
        let rate = Rate::from_bps(bps);
        let bytes_edge = u64::MAX / 8_000_000_000;
        let nanos_edge = u64::MAX / bps;
        for d in [near, far] {
            for bytes in [d, bytes_edge.saturating_sub(d), bytes_edge.saturating_add(d)] {
                prop_assert_eq!(rate.time_to_send(bytes), time_to_send_u128(rate, bytes));
            }
            for nanos in [d, nanos_edge.saturating_sub(d), nanos_edge.saturating_add(d)] {
                let window = SimDuration::from_nanos(nanos);
                prop_assert_eq!(rate.bytes_in(window), bytes_in_u128(rate, window));
            }
        }
    }
}

/// Every stream a session schedules — a path's arrivals, its ACKs, the
/// 50 ms ticks — ascends and is named its own queue lane, so over the
/// whole 10-minute MP-DASH session only the sparse timers that share a
/// lane (RTOs, wakes, requests) can need the heap: under 1% of events.
/// More means a stream rides a lane that is not its own.
#[test]
fn a_session_schedules_mostly_into_lanes() {
    let cfg = SessionConfig::controlled(
        table1::synthetic_profile_pair(3.8, 3.0, 0.10, 42),
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    )
    .with_video(Video::big_buck_bunny());
    let profile = StreamingSession::run(cfg).sim_profile;
    assert!(profile.events_popped > 300_000);
    assert_under_one_percent_heap(profile);
}

/// The same bound where arrivals come off shared bottlenecks: one client
/// of `perf`'s warm-up fleet (4 QAware MP-DASH clients, 20 chunks, 1 s
/// stagger, 10 ms RTT skew, FIFO AP at 1.5 Mbps a client behind 64 KiB a
/// client, FIFO sector at 2 Mbps a client). Departures are FIFO per flow
/// and the delay after them is constant, so the data lanes still ascend.
#[test]
fn a_contended_fleet_client_schedules_mostly_into_lanes() {
    let clients = 4;
    let video = Video::new(
        "BBB-perf",
        &[0.58, 1.01, 1.47, 2.41, 3.94],
        SimDuration::from_secs(4),
        20,
    );
    let base = SessionConfig::controlled_mbps(
        50.0,
        30.0,
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    )
    .with_video(video)
    .with_scheduler(SchedulerSpec::QAware);
    let fleet = FleetConfig::new(base, clients)
        .with_stagger(SimDuration::from_secs(1))
        .with_rtt_skew(SimDuration::from_millis(10))
        .with_seed(11)
        .with_shared(SharedLinkSpec::wifi_ap(
            SharedBottleneckConfig::fifo_mbps(1.5 * clients as f64)
                .with_capacity(64 * 1024 * clients as u64),
        ))
        .with_shared(SharedLinkSpec::cell_sector(
            SharedBottleneckConfig::fifo_mbps(2.0 * clients as f64),
        ));
    let report = mpdash::fleet::run(&fleet);
    let last = report.sessions.last().expect("four clients").sim_profile;
    assert!(last.events_popped > 30_000);
    assert_under_one_percent_heap(last);
    // No client is traced, so none keeps a packet log.
    assert!(report.sessions.iter().all(|s| s.records.is_empty()));
}

/// What one standalone session pops, kind by kind: `perf`'s `solo_grid`
/// cell for FESTIVE on the seed-42 synthetic pair (3.8 / 3.0 Mbps,
/// σ = 0.10), Big Buck Bunny cut to 75 chunks, under vanilla MPTCP and
/// under MP-DASH. A change that keeps every transport event and every
/// Algorithm 1 decision pops exactly these; one that moves a decision, a
/// timer or a packet moves them. Under MP-DASH more than half of the
/// events are app timers, nearly all of them 50 ms progress ticks.
#[test]
fn a_standalone_sessions_event_mix_is_pinned() {
    let bbb = Video::big_buck_bunny();
    let ladder: Vec<f64> = bbb.bitrates().iter().map(|r| r.as_mbps_f64()).collect();
    let video = Video::new("BBB-5min", &ladder, bbb.chunk_duration(), 75);
    let pair = table1::synthetic_profile_pair(3.8, 3.0, 0.10, 42);
    for (mode, events_popped, by_kind) in [
        (
            TransportMode::Vanilla,
            187_881,
            PoppedByKind {
                data: 90_508,
                ack: 90_508,
                rto: 1_818,
                app_timer: 4_972,
                reverse_msg: 75,
            },
        ),
        (
            TransportMode::mpdash_rate_based(),
            409_299,
            PoppedByKind {
                data: 91_565,
                ack: 91_857,
                rto: 1_978,
                app_timer: 223_824,
                reverse_msg: 75,
            },
        ),
    ] {
        let cfg = SessionConfig::controlled(pair.clone(), AbrKind::Festive, mode)
            .with_video(video.clone())
            .with_tracer(Tracer::disabled());
        let profile = StreamingSession::run(cfg).sim_profile;
        assert_eq!(profile.events_popped, events_popped, "{mode:?}");
        assert_eq!(profile.by_kind, by_kind, "{mode:?}");
    }
}

fn assert_under_one_percent_heap(profile: SimProfile) {
    let scheduled = profile.lane_appends + profile.heap_fallbacks;
    assert!(scheduled >= profile.events_popped);
    assert!(
        profile.heap_fallbacks * 100 <= scheduled,
        "{} of {scheduled} events took the heap",
        profile.heap_fallbacks
    );
}
