//! Property tests on the MPTCP model: stream integrity, mask
//! enforcement, and scheduler equivalence under adversarial conditions.

use mpdash_link::{BandwidthProfile, LinkConfig, PathId};
use mpdash_mptcp::{CcKind, MptcpConfig, MptcpSim, PathMask, SchedulerSpec};
use mpdash_sim::{Rate, SimDuration, SimTime};
use proptest::prelude::*;

fn download(sim: &mut MptcpSim, bytes: u64) {
    sim.send_app(bytes);
    let mut guard = 0u64;
    while sim.delivered() < bytes {
        assert!(
            sim.step().is_some(),
            "queue drained at {}/{}",
            sim.delivered(),
            bytes
        );
        guard += 1;
        assert!(guard < 50_000_000, "runaway simulation");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Both stock schedulers and both congestion controllers deliver the
    /// stream intact under loss.
    #[test]
    fn all_scheduler_cc_combinations_deliver(
        sched_rr in any::<bool>(),
        cubic in any::<bool>(),
        loss_pm in 0u32..25,
        bytes in 50_000u64..1_500_000,
        seed in 0u64..500,
    ) {
        let wifi = LinkConfig::constant(4.0, SimDuration::from_millis(20))
            .with_loss(loss_pm as f64 / 1000.0, seed);
        let cell = LinkConfig::constant(2.5, SimDuration::from_millis(35))
            .with_loss(loss_pm as f64 / 1000.0, seed ^ 77);
        let cfg = MptcpConfig {
            scheduler: if sched_rr { SchedulerSpec::RoundRobin } else { SchedulerSpec::MinRtt },
            cc: if cubic { CcKind::Cubic } else { CcKind::Reno },
            ..MptcpConfig::two_path(wifi, cell)
        };
        let mut sim = MptcpSim::new(cfg);
        download(&mut sim, bytes);
        prop_assert_eq!(sim.delivered(), bytes);
    }

    /// Toggling the mask at arbitrary moments never wedges or corrupts
    /// the stream, and a final WiFi-only mask stops cellular growth.
    #[test]
    fn mask_toggling_mid_transfer_is_safe(
        toggle_points in prop::collection::vec(1u64..4_000, 1..6),
        bytes in 500_000u64..2_000_000,
    ) {
        let wifi = LinkConfig::constant(4.0, SimDuration::from_millis(20));
        let cell = LinkConfig::constant(3.0, SimDuration::from_millis(30));
        let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
        let mut toggles: Vec<SimTime> = toggle_points
            .iter()
            .map(|&ms| SimTime::from_millis(ms))
            .collect();
        toggles.sort();
        sim.send_app(bytes);
        let mut next = 0usize;
        let mut cell_on = true;
        while sim.delivered() < bytes {
            prop_assert!(sim.step().is_some());
            if next < toggles.len() && sim.now() >= toggles[next] {
                cell_on = !cell_on;
                let mask = if cell_on {
                    PathMask::ALL
                } else {
                    PathMask::only(PathId::WIFI)
                };
                sim.set_desired_mask(mask);
                next += 1;
            }
        }
        prop_assert_eq!(sim.delivered(), bytes);
    }

    /// A time-varying bandwidth profile (including zero-rate windows that
    /// recover) never deadlocks the transport.
    #[test]
    fn bandwidth_swings_with_blackouts_complete(
        pattern in prop::collection::vec(0u8..8, 4..12),
        bytes in 100_000u64..800_000,
    ) {
        // Map digits to Mbps; 0 means blackout for that second. Force at
        // least one live slot so delivery is possible.
        let mut rates: Vec<Rate> = pattern
            .iter()
            .map(|&d| Rate::from_mbps_f64(d as f64))
            .collect();
        if rates.iter().all(|r| r.is_zero()) {
            rates[0] = Rate::from_mbps(4);
        }
        let wifi_profile =
            BandwidthProfile::from_samples(SimDuration::from_secs(1), &rates, true);
        let wifi = LinkConfig::constant(1.0, SimDuration::from_millis(20))
            .with_profile(wifi_profile);
        let cell = LinkConfig::constant(2.0, SimDuration::from_millis(30));
        let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
        download(&mut sim, bytes);
        prop_assert_eq!(sim.delivered(), bytes);
    }

    /// SRTT estimates stay within physical bounds: at least the
    /// propagation RTT, at most propagation plus a full queue plus
    /// retransmission slack.
    #[test]
    fn srtt_is_physical(
        wifi_rtt_ms in 6u64..100,
        bytes in 200_000u64..1_000_000,
    ) {
        let one_way = SimDuration::from_millis(wifi_rtt_ms / 2 + 1);
        let wifi = LinkConfig::constant(4.0, one_way);
        let cell = LinkConfig::constant(3.0, SimDuration::from_millis(30));
        let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
        download(&mut sim, bytes);
        if let Some(srtt) = sim.srtt(PathId::WIFI) {
            let floor = one_way * 2;
            prop_assert!(srtt >= floor, "srtt {srtt} below propagation {floor}");
            // 64 KiB queue at 4 Mbps adds ≤ ~131 ms; allow 3x slack for
            // recovery-skewed samples.
            let ceil = floor + SimDuration::from_millis(400);
            prop_assert!(srtt <= ceil, "srtt {srtt} above bound {ceil}");
        }
    }
}
