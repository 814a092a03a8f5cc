//! §4's N-interface generalization, end-to-end on the transport: three
//! paths with distinct costs (say WiFi, LTE, and a 5G link that is fast
//! but dearest), driven by the cost-sorted greedy scheduler through the
//! same MP-DASH control plane the two-path experiments use.

use mpdash::core::deadline::SchedulerParams;
use mpdash::core::MpDashControl;
use mpdash::link::{LinkConfig, PathId};
use mpdash::mptcp::CcKind;
use mpdash::mptcp::{MptcpConfig, MptcpSim, PathConfig, SchedulerSpec};
use mpdash::session::DeadlineSignal;
use mpdash::sim::{Rate, SimDuration, SimTime};

const TICK: SimDuration = SimDuration::from_millis(50);
const TICK_ID: u64 = 9000;

fn three_path_sim(wifi_mbps: f64, lte_mbps: f64, fiveg_mbps: f64) -> MptcpSim {
    MptcpSim::new(MptcpConfig {
        paths: vec![
            PathConfig::symmetric(LinkConfig::constant(
                wifi_mbps,
                SimDuration::from_millis(20),
            )),
            PathConfig::symmetric(LinkConfig::constant(lte_mbps, SimDuration::from_millis(30))),
            PathConfig::symmetric(LinkConfig::constant(
                fiveg_mbps,
                SimDuration::from_millis(12),
            )),
        ],
        scheduler: SchedulerSpec::MinRtt,
        cc: CcKind::Reno,
    })
}

/// Run one deadline transfer over three paths under the greedy
/// scheduler; returns per-path byte counts and whether the deadline held.
fn run_transfer(wifi_mbps: f64, size: u64, deadline: SimDuration) -> ([u64; 3], bool) {
    let (sim, met) = run_transfer_sim(wifi_mbps, size, deadline);
    (
        [
            sim.path_bytes(PathId(0)),
            sim.path_bytes(PathId(1)),
            sim.path_bytes(PathId(2)),
        ],
        met,
    )
}

/// [`run_transfer`], handing back the connection as the last byte left it.
fn run_transfer_sim(wifi_mbps: f64, size: u64, deadline: SimDuration) -> (MptcpSim, bool) {
    let mut sim = three_path_sim(wifi_mbps, 6.0, 20.0);
    // Costs: WiFi free, LTE mid, 5G dearest.
    let mut control = MpDashControl::new(
        vec![0.0, 1.0, 3.0],
        vec![
            Rate::from_mbps_f64(wifi_mbps),
            Rate::from_mbps_f64(6.0),
            Rate::from_mbps_f64(20.0),
        ],
        SchedulerParams::default().with_debounce(4),
        SimDuration::from_millis(250),
    );
    sim.set_initial_mask(control.mp_dash_enable(SimTime::ZERO, size, deadline));
    sim.send_app(size);
    sim.schedule_app_tick(SimTime::ZERO + TICK, TICK_ID);

    // The same deadline-signal feed the two-path drivers run.
    let mut signal = DeadlineSignal::new(control);
    let mut finish = SimTime::ZERO;
    while sim.delivered() < size {
        let Some((t, outcome)) = sim.step() else {
            panic!("drained at {}", sim.delivered())
        };
        finish = t;
        if let Some(r) = sim.arrival() {
            signal.on_arrival(r);
        }
        if let Some(enabled) = signal.on_progress(&sim, t, sim.delivered()) {
            sim.set_desired_mask(enabled);
        }
        if matches!(
            outcome,
            mpdash::mptcp::StepOutcome::AppTimer { id: TICK_ID }
        ) {
            sim.schedule_app_tick(t + TICK, TICK_ID);
        }
    }
    let met = finish.saturating_since(SimTime::ZERO) <= deadline;
    (sim, met)
}

#[test]
fn ample_wifi_uses_only_the_cheapest_path() {
    // 4 MB in 10 s needs 3.2 Mbps; WiFi at 8 covers it alone.
    let (bytes, met) = run_transfer(8.0, 4_000_000, SimDuration::from_secs(10));
    assert!(met);
    assert_eq!(bytes[1], 0, "LTE untouched");
    assert_eq!(bytes[2], 0, "5G untouched");
}

#[test]
fn middling_wifi_adds_only_the_mid_cost_path() {
    // 8 MB in 10 s needs 6.4 Mbps; WiFi 3 + LTE 6 covers it; 5G must
    // stay silent because the greedy adds paths cheapest-first.
    let (bytes, met) = run_transfer(3.0, 8_000_000, SimDuration::from_secs(10));
    assert!(met, "WiFi+LTE must make the deadline");
    assert!(bytes[1] > 1_000_000, "LTE engaged: {}", bytes[1]);
    // The dearest path may catch a small spill while LTE's congestion
    // window ramps and its estimate briefly underestimates — the online
    // algorithm's documented bias toward spending rather than missing
    // (§7.2.2). It must stay a sliver, and LTE must dominate it.
    assert!(
        bytes[2] < 8_000_000 / 10,
        "5G spill too large: {} bytes",
        bytes[2]
    );
    assert!(
        bytes[1] > bytes[2] * 3,
        "LTE {} vs 5G {}",
        bytes[1],
        bytes[2]
    );
}

#[test]
fn tight_deadline_escalates_to_all_three() {
    // 16 MB in 6 s needs ~21 Mbps; every path must pull.
    let (bytes, met) = run_transfer(3.0, 16_000_000, SimDuration::from_secs(6));
    assert!(met, "aggregate ~29 Mbps should make it");
    assert!(bytes[0] > 0 && bytes[1] > 0 && bytes[2] > 0, "{bytes:?}");
    // The dearest path carried the bulk (it is also the fastest), but
    // WiFi was never idle — the preferred path always runs.
    assert!(bytes[0] > 1_000_000, "wifi pulled its weight: {}", bytes[0]);
}

#[test]
fn deadline_scaling_shifts_bytes_down_the_cost_ladder() {
    // Same 8 MB transfer; as deadlines relax the dear paths shed bytes.
    let tight = run_transfer(3.0, 8_000_000, SimDuration::from_secs(7)).0;
    let loose = run_transfer(3.0, 8_000_000, SimDuration::from_secs(16)).0;
    let dear_tight = tight[1] + tight[2];
    let dear_loose = loose[1] + loose[2];
    assert!(
        dear_loose < dear_tight,
        "loose {dear_loose} vs tight {dear_tight}"
    );
    assert!(loose[0] > tight[0], "WiFi carries more when time allows");
}

/// The event queue names lanes for paths 0 and 1 only; a third path's
/// data and ACKs share the timers' lane and take the heap when they do
/// not fit it. That is a cost, never a difference: the transfer delivers
/// the bytes and the per-path split it did before lanes had names, and
/// every event scheduled is accounted to a lane or to the heap.
#[test]
fn a_third_path_shares_a_lane_and_changes_nothing() {
    let size = 16_000_000;
    let (mut sim, met) = run_transfer_sim(3.0, size, SimDuration::from_secs(6));
    assert!(met);
    assert_eq!(sim.delivered(), size);
    let split = [PathId(0), PathId(1), PathId(2)].map(|p| sim.path_bytes(p));
    assert_eq!(split, [2_032_320, 3_790_020, 10_177_660]);
    // Drain what the last byte left pending (ACKs, stale RTOs, a tick):
    // nothing re-arms, so popped then equals scheduled.
    while sim.step().is_some() {}
    let (lanes, heap) = sim.queue_placement();
    assert_eq!(lanes + heap, sim.events_popped());
    assert!(lanes > 0 && heap > 0, "{lanes} lane appends, {heap} heap");
}
