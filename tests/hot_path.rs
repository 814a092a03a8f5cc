//! The single-session hot path does only necessary work — and the same
//! work: one live RTO event per subflow, a one-pass outage-bridging
//! attribution equal to the nested scan it replaced, and a running link
//! backlog equal to the sum it replaced.

use mpdash::dash::abr::AbrKind;
use mpdash::dash::video::Video;
use mpdash::http::{LifecyclePolicy, OriginPoolConfig, OriginSpec, ServerFaultScript};
use mpdash::link::{
    BandwidthProfile, DropReason, FaultScript, Link, LinkConfig, PathId, SendOutcome,
};
use mpdash::mptcp::{MptcpConfig, MptcpSim, PathMask};
use mpdash::session::{SessionConfig, SessionReport, StreamingSession, TransportMode};
use mpdash::sim::{Rate, SimDuration, SimTime};
use mpdash::trace::table1;
use proptest::prelude::*;

/// The RTO timer keeps one live event per subflow (DESIGN §4b). A
/// deadline that moves earlier supersedes the pending event instead of
/// starting a second chain beside it, so `Rto` pops stay proportional to
/// elapsed time over the minimum RTO however often the mask flips and the
/// RTT swings.
#[test]
fn rto_timer_keeps_one_live_event_per_subflow() {
    // Bandwidth square waves fill and drain the drop-tail queues, so each
    // path's RTT (and with it the RTO) swings 50 ↔ 600 ms.
    let swing = |fast: u64, slow: u64, slot_ms: u64| {
        BandwidthProfile::from_samples(
            SimDuration::from_millis(slot_ms),
            &[Rate::from_mbps(fast), Rate::from_mbps(slow)],
            true,
        )
    };
    let wifi =
        LinkConfig::constant(1.0, SimDuration::from_millis(25)).with_profile(swing(8, 1, 1300));
    let cell =
        LinkConfig::constant(1.0, SimDuration::from_millis(30)).with_profile(swing(6, 1, 1700));
    let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
    // More than the links can carry in the run: no subflow idles, the
    // condition under which a second chain used to live forever.
    sim.send_app(200_000_000);

    let end = SimTime::from_secs(60);
    let mut next_flip = SimTime::ZERO;
    let mut wifi_only = false;
    while sim.now() < end {
        if sim.now() >= next_flip {
            wifi_only = !wifi_only;
            sim.set_desired_mask(if wifi_only {
                PathMask::only(PathId::WIFI)
            } else {
                PathMask::ALL
            });
            next_flip = sim.now() + SimDuration::from_millis(700);
        }
        sim.step().expect("the transfer outlasts the run");
        for path in [PathId::WIFI, PathId::CELLULAR] {
            let live = sim.live_rto_events(path);
            let armed = sim.path_in_flight(path) > 0;
            assert!(
                live <= 1 && (live == 1 || !armed),
                "{live} live Rto events on {path:?} at {:?} (armed: {armed})",
                sim.now()
            );
        }
    }
    let popped = sim.popped_by_kind();
    assert!(popped.data > 10_000, "the transfer ran: {popped:?}");
    // Per path: one live fire per minimum RTO (200 ms) of elapsed time,
    // plus the superseded events of each RTT swing (603 here; the chains
    // this replaces popped 30,489).
    let budget = 2 * (60_000 / 200 + 50);
    assert!(popped.rto <= budget, "{} Rto pops > {budget}", popped.rto);
}

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
