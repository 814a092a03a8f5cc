//! `exp sched` — the pluggable packet-scheduler grid (beyond the paper).
//!
//! Crosses every [`SchedulerSpec`] with {solo, N-client fleet on shared
//! bottlenecks} × {vanilla MPTCP, MP-DASH rate-based}:
//!
//! * **solo** — one client on private links. Private links expose no
//!   queue signal, so QAware must degenerate to exactly minRTT: the fold
//!   asserts their session summaries serialize *byte-identically*.
//! * **fleet** — N clients behind one WiFi AP and one cellular sector.
//!   The AP is deliberately scarce (deep shared queue) while the sector
//!   keeps headroom, so a scheduler that only watches SRTT keeps piling
//!   onto WiFi until queueing delay finally shows up in its RTT samples,
//!   while QAware sees the queue depth directly and detours first.
//!
//! The fold asserts the tentpole invariant: under contention QAware
//! never increases the deadline-miss rate versus minRTT at any fleet
//! point, and strictly improves it at one or more points.
//!
//! Every cell is one batch job (solo sessions and fleet replicas alike,
//! the latter reduced on the worker to what the fold reads), so the grid
//! shards over `MPDASH_WORKERS` with bit-identical artifacts at any
//! worker count.

use crate::grid::Grid;
use crate::shapes::{bbb_clip, contended_fleet, fleet_client, vanilla_and_mpdash};
use crate::Table;
use mpdash_dash::abr::AbrKind;
use mpdash_fleet::FleetReport;
use mpdash_link::SharedBottleneckConfig;
use mpdash_mptcp::SchedulerSpec;
use mpdash_results::{ExperimentResult, ScalarGroup};
use mpdash_session::SessionConfig;

/// Quick keeps the 16-client fleet — the contention level where the
/// queue-aware win is structural (at 8 clients the deep AP buffer never
/// fills enough for the schedulers to diverge). Full adds that 8-client
/// tie point. Solo always runs (it carries the degeneracy proof).
fn fleet_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![16]
    } else {
        vec![8, 16]
    }
}

/// minRTT is the baseline the fold holds QAware against.
const SCHEDULERS: [SchedulerSpec; 3] = [
    SchedulerSpec::MinRtt,
    SchedulerSpec::RoundRobin,
    SchedulerSpec::QAware,
];

/// What the fold reads of one fleet replica.
struct FleetCell {
    mean_bitrate_mbps: f64,
    jain_bitrate: f64,
    miss_rate: f64,
    stalls: u64,
    cell_bytes: u64,
    wifi_bytes: u64,
}

fn fleet_cell(r: &FleetReport) -> FleetCell {
    FleetCell {
        mean_bitrate_mbps: r.mean_bitrate_mbps(),
        jain_bitrate: r.jain_bitrate,
        miss_rate: r.deadline_miss_rate,
        stalls: r.total_stalls,
        cell_bytes: r.total_cell_bytes,
        wifi_bytes: r.total_wifi_bytes,
    }
}

/// Compute the scheduler grid: the solo cells, then the fleet cells.
pub(crate) fn result(quick: bool, env: &mpdash_obs::RunEnv) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "sched",
        "Packet schedulers — minRTT vs round-robin vs QAware, solo and fleet",
    )
    .with_quick(quick);
    res.text(concat!(
        "\nEvery packet scheduler crossed with {solo, contended fleet} and\n",
        "{vanilla, MP-DASH}. Invariants: solo QAware is byte-identical to\n",
        "solo minRTT (no queue signal on private links), and under fleet\n",
        "contention QAware never misses more deadlines than minRTT and\n",
        "strictly beats it somewhere in the grid.",
    ));

    // Solo: the paper's testbed rates on private links, where QAware must
    // degenerate to minRTT exactly.
    let mut cells = Vec::new();
    for (mode_name, mode) in vanilla_and_mpdash() {
        for sched in SCHEDULERS {
            let cfg = SessionConfig::controlled_mbps(3.8, 3.0, AbrKind::Festive, mode)
                .with_video(bbb_clip("BBB-sched", 20))
                .with_scheduler(sched);
            cells.push(((mode_name, sched), cfg));
        }
    }
    let solo = Grid::sessions(env, cells);
    let mut t = Table::new(&["topo", "mode", "scheduler", "bitrate", "stalls", "cell MB"]);
    for (&(mode_name, sched), r) in solo.iter() {
        if sched == SchedulerSpec::QAware {
            assert_eq!(
                r.summary_json().to_pretty(),
                solo[(mode_name, SchedulerSpec::MinRtt)]
                    .summary_json()
                    .to_pretty(),
                "solo/{mode_name}: QAware must be byte-identical to minRTT on private links"
            );
        }
        t.row(&[
            "solo".into(),
            mode_name.into(),
            sched.label().into(),
            format!("{:.2}", r.qoe_all.mean_bitrate_mbps),
            format!("{}", r.qoe_all.stalls),
            format!("{:.2}", r.cell_bytes as f64 / 1e6),
        ]);
    }
    res.table(t);

    // Fleet: the AP gives each client ~1.5 Mbps behind a *deep* buffer
    // (64 KiB/client — bufferbloat territory: at capacity the queue holds
    // hundreds of milliseconds), while the sector keeps ~2 Mbps per
    // client of headroom behind the stock shallow queue. DASH traffic is
    // on-off, so at each fetch start a queue-blind scheduler steers by an
    // SRTT measured *before* the idle gap — it dumps the chunk into
    // whatever the other clients piled up meanwhile and only learns the
    // price one inflated RTT sample later. QAware reads the shared
    // queue's occupancy directly at pick time and detours first.
    let mut cells = Vec::new();
    for clients in fleet_sizes(quick) {
        for (mode_name, mode) in vanilla_and_mpdash() {
            for sched in SCHEDULERS {
                let cfg = contended_fleet(
                    fleet_client("BBB-sched", mode).with_scheduler(sched),
                    clients,
                    SharedBottleneckConfig::fifo_mbps(1.5 * clients as f64)
                        .with_capacity(64 * 1024 * clients as u64),
                    SharedBottleneckConfig::fifo_mbps(2.0 * clients as f64),
                );
                cells.push(((clients, mode_name, sched), cfg));
            }
        }
    }
    let fleet = Grid::run(env, cells, |cfg| fleet_cell(&mpdash_fleet::run(cfg)));

    // QAware's miss rate never exceeds minRTT's, and beats it strictly
    // at one or more points.
    let mut t = Table::new(&[
        "clients",
        "mode",
        "scheduler",
        "bitrate",
        "jain(bitrate)",
        "miss rate",
        "stalls",
        "cell MB",
        "wifi MB",
    ]);
    let mut best_improvement: f64 = 0.0;
    let mut worst_regression: f64 = 0.0;
    for (&(clients, mode_name, sched), c) in fleet.iter() {
        t.row(&[
            format!("{clients}"),
            mode_name.into(),
            sched.label().into(),
            format!("{:.2}", c.mean_bitrate_mbps),
            format!("{:.4}", c.jain_bitrate),
            format!("{:.3}", c.miss_rate),
            format!("{}", c.stalls),
            format!("{:.2}", c.cell_bytes as f64 / 1e6),
            format!("{:.2}", c.wifi_bytes as f64 / 1e6),
        ]);
        if sched == SchedulerSpec::QAware {
            let (miss, minrtt_miss) = (
                c.miss_rate,
                fleet[(clients, mode_name, SchedulerSpec::MinRtt)].miss_rate,
            );
            assert!(
                miss <= minrtt_miss,
                "n{clients}/{mode_name}: QAware miss rate {miss:.4} > minRTT {minrtt_miss:.4}"
            );
            best_improvement = best_improvement.max(minrtt_miss - miss);
            worst_regression = worst_regression.max(miss - minrtt_miss);
        }
    }
    assert!(
        best_improvement > 0.0,
        "QAware must strictly beat minRTT's deadline-miss rate somewhere in the grid"
    );
    res.table(t);
    res.scalars(
        ScalarGroup::new("scheduler invariants")
            .with("best_qaware_miss_improvement", best_improvement)
            .with("worst_qaware_miss_regression", worst_regression),
    );
    res
}
