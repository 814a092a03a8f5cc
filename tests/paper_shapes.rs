//! The paper's headline result *shapes*, asserted end-to-end: who wins,
//! in which direction, and roughly where the crossovers fall. Absolute
//! numbers live in EXPERIMENTS.md; these tests pin the orderings.

use mpdash::core::optimal::optimal_cellular_bytes;
use mpdash::dash::abr::AbrKind;
use mpdash::dash::video::Video;
use mpdash::link::BandwidthProfile;
use mpdash::session::{
    FileTransfer, FileTransferConfig, SessionConfig, StreamingSession, TransportMode,
};
use mpdash::sim::{SimDuration, SimTime};
use mpdash::trace::field::{field_corpus, Scenario};
use mpdash::trace::table1;

fn short_video() -> Video {
    Video::new(
        "BBB-shape",
        &[0.58, 1.01, 1.47, 2.41, 3.94],
        SimDuration::from_secs(4),
        30,
    )
}

/// Figure 4's shape: the longer the deadline, the less cellular MP-DASH
/// uses, and it always meets the deadline when feasible.
#[test]
fn deadline_monotonicity() {
    let mut prev = u64::MAX;
    for d in [8u64, 9, 10] {
        let r = FileTransfer::run(
            FileTransferConfig::testbed(3.8, 3.0, TransportMode::mpdash_rate_based())
                .with_deadline(SimDuration::from_secs(d)),
        );
        assert!(!r.missed_deadline, "D={d}");
        assert!(r.cell_bytes < prev, "D={d}: {} !< {prev}", r.cell_bytes);
        prev = r.cell_bytes;
    }
}

/// Table 2's shape: the clairvoyant optimum never uses more cellular
/// than what the aggregate requires, and it is zero when WiFi suffices.
#[test]
fn optimal_bounds() {
    // WiFi 28.4 Mbps for 18 s moves ~63 MB: a 50 MB file needs no LTE.
    let wifi: Vec<u64> = vec![28_400_000 / 8 / 20; 18 * 20]; // 50 ms slots
    let cell: Vec<u64> = vec![19_100_000 / 8 / 20; 18 * 20];
    assert_eq!(optimal_cellular_bytes(&wifi, &cell, 50_000_000), Some(0));
    // And infeasible inputs are reported as such.
    assert_eq!(
        optimal_cellular_bytes(&wifi[..20], &cell[..20], 50_000_000),
        None
    );
}

/// Figure 3 / §5.2.2's shape: plain BBA oscillates between the two levels
/// bracketing the capacity; BBA-C locks the sustainable one.
#[test]
fn bba_oscillates_bbac_locks() {
    let mk = |abr| {
        SessionConfig::controlled(
            table1::synthetic_profile_pair(2.0, 1.5, 0.05, 9),
            abr,
            TransportMode::Vanilla,
        )
        .with_video(short_video())
    };
    let bba = StreamingSession::run(mk(AbrKind::Bba));
    let bbac = StreamingSession::run(mk(AbrKind::BbaC));
    let switches = |r: &mpdash::session::SessionReport| {
        r.chunks
            .windows(2)
            .filter(|w| w[0].level != w[1].level)
            .count()
    };
    assert!(
        switches(&bba) >= 4,
        "BBA should oscillate: {} switches",
        switches(&bba)
    );
    // BBA-C settles: at most the startup climb plus occasional probes.
    assert!(
        switches(&bbac) < switches(&bba) / 2,
        "BBA-C {} vs BBA {}",
        switches(&bbac),
        switches(&bba)
    );
    // BBA-C's steady level is the sustainable one (level 3 at ~3.4 Mbps).
    let last = bbac.chunks.last().unwrap().level;
    assert_eq!(last, 3);
}

/// §7.3.3's shape: savings grow with WiFi quality across the corpus's
/// three scenarios.
#[test]
fn savings_grow_with_wifi_quality() {
    let corpus = field_corpus();
    let pick = |s: Scenario| corpus.iter().find(|l| l.scenario == s).unwrap();
    let saving = |loc: &mpdash::trace::field::Location| {
        let base = StreamingSession::run(
            SessionConfig::at_location(loc, AbrKind::Festive, TransportMode::Vanilla)
                .with_video(short_video()),
        );
        let mp = StreamingSession::run(
            SessionConfig::at_location(loc, AbrKind::Festive, TransportMode::mpdash_rate_based())
                .with_video(short_video()),
        );
        assert_eq!(mp.qoe.stalls, 0, "{}", loc.name);
        mp.cell_saving_vs(&base)
    };
    let s1 = saving(pick(Scenario::WifiNeverSufficient));
    let s3 = saving(pick(Scenario::WifiAlwaysSufficient));
    assert!(
        s3 > s1,
        "scenario-3 saving {s3:.2} should exceed scenario-1 {s1:.2}"
    );
    assert!(s3 > 0.8, "good-WiFi location should save most: {s3:.2}");
}

/// Table 4's shape: MP-DASH costs less radio energy than throttling the
/// cellular path, at equal-or-better playback bitrate.
#[test]
fn mpdash_beats_throttling_on_energy_and_quality() {
    // This comparison needs a steady-state-dominated session: throttling
    // pays its dribbling tax continuously, while MP-DASH's costs
    // concentrate in the startup phase. 80 chunks (5+ minutes) is enough
    // for the paper's ordering to assert itself.
    let longer = Video::new(
        "BBB-throttle",
        &[0.58, 1.01, 1.47, 2.41, 3.94],
        SimDuration::from_secs(4),
        80,
    );
    let mk = |mode| {
        SessionConfig::controlled(
            table1::synthetic_profile_pair(3.8, 3.0, 0.10, 42),
            AbrKind::Gpac,
            mode,
        )
        .with_video(longer.clone())
    };
    let throttled = StreamingSession::run(mk(TransportMode::Throttled { kbps: 700 }));
    let mp = StreamingSession::run(mk(TransportMode::mpdash_rate_based()));
    assert!(
        mp.energy.total_j() < throttled.energy.total_j(),
        "mp {:.1} J vs throttled {:.1} J",
        mp.energy.total_j(),
        throttled.energy.total_j()
    );
    assert!(
        mp.qoe.mean_bitrate_mbps >= throttled.qoe.mean_bitrate_mbps,
        "mp {:.2} vs throttled {:.2}",
        mp.qoe.mean_bitrate_mbps,
        throttled.qoe.mean_bitrate_mbps
    );
}

/// §7.2.1's shape: a smaller α is more conservative — finishes earlier,
/// spends more cellular.
#[test]
fn alpha_tradeoff() {
    let run = |alpha| {
        FileTransfer::run(FileTransferConfig::testbed(
            3.8,
            3.0,
            TransportMode::MpDash {
                deadline: mpdash::dash::adapter::DeadlineMode::Rate,
                alpha,
            },
        ))
    };
    let tight = run(0.8);
    let loose = run(1.0);
    assert!(!tight.missed_deadline && !loose.missed_deadline);
    assert!(tight.cell_bytes > loose.cell_bytes);
    assert!(tight.duration <= loose.duration);
}

/// The packet-level online scheduler never beats the fluid optimum
/// (Table 2's reference column): on every Table 1 row × deadline, a real
/// MPTCP transfer under MP-DASH moves at least the cellular bytes that
/// perfect knowledge needs. The optimum sees 50 ms slots over
/// `max(finish, deadline)`, so a transfer that misses its deadline is
/// compared against the WiFi capacity it actually had. No upper factor
/// holds: Office misses at D = 9, 12 and 15 s, and at every Office
/// deadline moves 16–24 MB over cellular where the optimum over the same
/// span moves none. The tightest case is Coffeehouse D = 5 s, at 1.012.
#[test]
fn online_transfer_never_beats_the_fluid_optimum() {
    let slot = SimDuration::from_millis(50);
    for row in table1::table1_rows() {
        let (wifi, cell) = table1::testbed_links(row.wifi.clone(), row.cell.clone());
        for &d in row.deadlines_s {
            let deadline = SimDuration::from_secs(d);
            let mut cfg = FileTransferConfig::testbed(1.0, 1.0, TransportMode::mpdash_rate_based())
                .with_size(row.file_size)
                .with_deadline(deadline);
            cfg.wifi = wifi.clone();
            cfg.cell = cell.clone();
            let r = FileTransfer::run(cfg);

            let span = r.duration.max(deadline);
            let n = span.as_nanos().div_ceil(slot.as_nanos()) as usize;
            let capacity = |p: &BandwidthProfile| -> Vec<u64> {
                p.sample_slots(SimTime::ZERO, slot, n)
                    .iter()
                    .map(|rate| rate.bytes_in(slot))
                    .collect()
            };
            let optimum =
                optimal_cellular_bytes(&capacity(&row.wifi), &capacity(&row.cell), row.file_size)
                    .unwrap_or_else(|| panic!("{} D={d}: delivered, yet infeasible", row.name));
            assert!(
                r.cell_bytes >= optimum,
                "{} D={d}: online {} B of cellular < optimum {optimum} B",
                row.name,
                r.cell_bytes
            );
        }
    }
}
