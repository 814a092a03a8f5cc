//! `exp faults` — the resilience matrix (beyond the paper).
//!
//! The paper's evaluation streams over well-behaved links; this
//! experiment asks what happens when the preferred path misbehaves.
//! Every fault family of [`mpdash_link::FaultScript`] is injected on the
//! WiFi link mid-session and crossed with three transport modes:
//!
//! * **Baseline** — vanilla MPTCP, every subflow always on;
//! * **WiFi-only** — no second path, the degradation reference;
//! * **Rate** — MP-DASH with rate-based deadlines.
//!
//! The fold asserts the graceful-degradation invariants the robustness
//! work promises:
//!
//! 1. MP-DASH never stalls more than baseline MPTCP under any fault;
//! 2. cellular carries bytes through every WiFi fault window under
//!    MP-DASH (the costly path bridges the outage);
//! 3. the MP-DASH deadline-miss rate stays bounded even while faulted.
//!
//! Like every experiment, the artifact is bit-identical at any
//! `MPDASH_WORKERS` setting.

use crate::grid::Grid;
use crate::shapes::bbb_clip;
use crate::Table;
use mpdash_dash::abr::AbrKind;
use mpdash_http::ServerFaultScript;
use mpdash_link::{FaultScript, GilbertElliott, PathId};
use mpdash_results::{ExperimentResult, ScalarGroup};
use mpdash_session::{SessionConfig, SessionReport, TransportMode};
use mpdash_sim::{SimDuration, SimTime};

/// One row of the fault axis: a named script plus the wall-clock window
/// `[start, end)` (seconds) the fault affects — the window invariant 2
/// checks for cellular bridging.
struct FaultCase {
    name: &'static str,
    script: FaultScript,
    /// Server-side fault script served alongside the link fault (empty
    /// for the pure-link rows).
    server: ServerFaultScript,
    window: (f64, f64),
}

/// The four fault families, each parameterized to clearly hurt but not
/// sever the session — a bursty 30%-mean-loss window, a 300 ms RTT
/// storm, an 85% rate collapse, and a full disassociation with
/// reassociation — plus one combined row where a WiFi disassociation
/// overlaps a server-side 5xx burst (the link *and* the origin misbehave
/// at once).
fn fault_cases() -> Vec<FaultCase> {
    vec![
        FaultCase {
            name: "burst-loss",
            script: FaultScript::new().burst_loss(
                SimTime::from_secs(20),
                SimDuration::from_secs(40),
                GilbertElliott::default(),
            ),
            server: ServerFaultScript::new(),
            window: (20.0, 60.0),
        },
        FaultCase {
            name: "rtt-storm",
            script: FaultScript::new().rtt_spike(
                SimTime::from_secs(20),
                SimDuration::from_secs(40),
                SimDuration::from_millis(300),
                SimDuration::from_millis(100),
            ),
            server: ServerFaultScript::new(),
            window: (20.0, 60.0),
        },
        FaultCase {
            name: "rate-collapse",
            script: FaultScript::new().rate_collapse(
                SimTime::from_secs(20),
                SimDuration::from_secs(40),
                0.15,
            ),
            server: ServerFaultScript::new(),
            window: (20.0, 60.0),
        },
        FaultCase {
            name: "disassociation",
            script: FaultScript::new().disassociation(
                SimTime::from_secs(40),
                SimDuration::from_secs(15),
                SimDuration::from_secs(2),
            ),
            server: ServerFaultScript::new(),
            window: (40.0, 57.0),
        },
        FaultCase {
            name: "disassoc+5xx",
            script: FaultScript::new().disassociation(
                SimTime::from_secs(40),
                SimDuration::from_secs(15),
                SimDuration::from_secs(2),
            ),
            server: ServerFaultScript::new()
                .error_burst(SimTime::from_secs(20), SimDuration::from_secs(8)),
            window: (40.0, 57.0),
        },
    ]
}

/// Baseline first: the fold computes MP-DASH invariants against it.
fn matrix_modes() -> [TransportMode; 3] {
    [
        TransportMode::Vanilla,
        TransportMode::WifiOnly,
        TransportMode::mpdash_rate_based(),
    ]
}

/// Cellular payload bytes received inside the fault window (plus a small
/// tail for in-flight data).
fn window_cell_bytes(r: &SessionReport, window: (f64, f64)) -> u64 {
    r.records
        .iter()
        .filter(|p| {
            p.path == PathId::CELLULAR
                && p.t.as_secs_f64() >= window.0
                && p.t.as_secs_f64() < window.1 + 5.0
        })
        .map(|p| p.len)
        .sum()
}

/// Compute the resilience matrix: fault cases × modes as one batch.
pub(crate) fn result(quick: bool, env: &mpdash_obs::RunEnv) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "faults",
        "Resilience matrix — fault injection on the preferred path",
    )
    .with_quick(quick);
    res.text(concat!(
        "\nEvery fault hits the WiFi link mid-session; the invariants\n",
        "checked: MP-DASH never stalls more than baseline MPTCP, cellular\n",
        "bridges every WiFi fault window, deadline-miss rate stays bounded.\n",
        "The disassoc+5xx row overlaps a server-side error burst with the\n",
        "link fault: every mode must retry through it without wedging.",
    ));

    let mut t = Table::new(&[
        "fault",
        "mode",
        "stalls",
        "stall s",
        "bitrate",
        "cell MB",
        "missed",
        "bridged",
        "failovers",
        "revivals",
        "retries",
    ]);
    let cases = fault_cases();
    let mut cells = Vec::new();
    for (ci, case) in cases.iter().enumerate() {
        for mode in matrix_modes() {
            let cfg = SessionConfig::controlled_mbps(4.5, 4.0, AbrKind::Festive, mode)
                .with_video(bbb_clip("BBB-fault", if quick { 20 } else { 30 }))
                .with_wifi_faults(case.script.clone())
                .with_server_faults(case.server.clone());
            cells.push(((ci, mode), cfg));
        }
    }
    let grid = Grid::sessions_with_log(env, cells);

    let mut max_excess_stalls: i64 = 0;
    let mut min_window_cell = u64::MAX;
    let mut worst_miss_rate: f64 = 0.0;
    for (&(ci, mode), r) in grid.iter() {
        let case = &cases[ci];
        t.row(&[
            case.name.into(),
            mode.label(),
            format!("{}", r.qoe.stalls),
            format!("{:.2}", r.qoe.stall_time.as_secs_f64()),
            format!("{:.2}", r.qoe.mean_bitrate_mbps),
            format!("{:.2}", r.cell_bytes as f64 / 1e6),
            format!("{}", r.degradation.deadline_misses),
            format!("{}", r.degradation.outage_bridged_chunks),
            format!("{}", r.degradation.subflow_failures),
            format!("{}", r.degradation.subflow_revivals),
            format!("{}", r.lifecycle.retried),
        ]);
        // The combined row: every mode must ride out the 5xx burst by
        // retrying (no session may wedge on a server error), and the
        // burst must actually have been hit.
        if !case.server.is_empty() {
            assert!(
                r.lifecycle.retried > 0,
                "{}/{}: the 8s 5xx burst produced no retries",
                case.name,
                mode.label()
            );
        }
        if mode.is_mpdash() {
            // Invariant 1: faults on the preferred path must never
            // make MP-DASH stall more than always-on MPTCP.
            let base_stalls = grid[(ci, TransportMode::Vanilla)].qoe.stalls;
            let excess = r.qoe.stalls as i64 - base_stalls as i64;
            assert!(
                excess <= 0,
                "{}: MP-DASH stalled {} vs baseline {}",
                case.name,
                r.qoe.stalls,
                base_stalls
            );
            max_excess_stalls = max_excess_stalls.max(excess);
            // Invariant 2: the costly path actually bridges the
            // fault window.
            let bridged = window_cell_bytes(r, case.window);
            assert!(
                bridged > 0,
                "{}: no cellular bytes inside the fault window",
                case.name
            );
            min_window_cell = min_window_cell.min(bridged);
            // Invariant 3: deadline misses stay a bounded fraction
            // of completed transfers.
            let stats = r.scheduler_stats;
            let (missed, completed) = (stats.missed_deadlines, stats.completed_transfers);
            let rate = if completed == 0 {
                0.0
            } else {
                missed as f64 / completed as f64
            };
            assert!(
                rate <= 0.5,
                "{}: deadline-miss rate {rate:.2} out of bounds",
                case.name
            );
            worst_miss_rate = worst_miss_rate.max(rate);
        }
    }
    res.table(t);
    res.scalars(
        ScalarGroup::new("degradation invariants")
            .with("max_excess_stalls_vs_baseline", max_excess_stalls as f64)
            .with("min_window_cell_bytes", min_window_cell as f64)
            .with("worst_deadline_miss_rate", worst_miss_rate),
    );
    res
}
