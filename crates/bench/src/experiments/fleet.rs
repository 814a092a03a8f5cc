//! `exp fleet` — multi-client contention at shared bottlenecks (beyond
//! the paper).
//!
//! Every other experiment gives one client a private pair of links; this
//! one puts N streaming sessions behind one WiFi AP and one cellular
//! sector (both [`mpdash_link::SharedBottleneck`]s whose capacity scales
//! with the fleet so per-client shares stay scarce), crossed with:
//!
//! * **queue discipline** — FIFO/DropTail vs flow-queue round-robin
//!   (the FQ-PIE spirit: per-flow isolation at the shared queue);
//! * **transport mode** — vanilla MPTCP with its minRTT scheduler vs
//!   MP-DASH with rate-based deadlines.
//!
//! The fold asserts the two fleet invariants this PR promises:
//!
//! 1. MP-DASH's cellular savings *survive contention*: at every fleet
//!    size and under both disciplines, the MP-DASH fleet moves fewer
//!    cellular bytes than the minRTT fleet;
//! 2. flow-queuing never hurts fairness: at every size and mode, FQ's
//!    Jain index on per-client bitrate is at least FIFO's.
//!
//! Each fleet replica is one grid cell, reduced on its worker to the
//! handful of numbers the fold reads, so the size × discipline × mode
//! grid shards over `MPDASH_WORKERS` with bit-identical artifacts at any
//! worker count.

use crate::grid::Grid;
use crate::shapes::{contended_fleet, fleet_client};
use crate::Table;
use mpdash_fleet::FleetReport;
use mpdash_link::{QueueDiscipline, SharedBottleneckConfig, DRR_QUANTUM};
use mpdash_results::{ExperimentResult, ScalarGroup};
use mpdash_session::TransportMode;

/// Quick starts at 4 clients: a 2-client "fleet" is barely contended,
/// so its fairness indices are within noise of each other and say
/// nothing about the disciplines. Quick saves time on fleet sizes, not
/// session length.
fn fleet_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![4, 8]
    } else {
        vec![4, 8, 16]
    }
}

/// Flow-queue round-robin at the default (one-packet) DRR quantum.
const FQ: QueueDiscipline = QueueDiscipline::FlowQueue {
    quantum: DRR_QUANTUM,
};

/// What the fold reads of one fleet replica.
struct Cell {
    mean_bitrate_mbps: f64,
    jain_bitrate: f64,
    jain_cell_bytes: f64,
    cell_bytes: u64,
    miss_rate: f64,
    stalls: u64,
    dropped_packets: u64,
}

fn cell(r: &FleetReport) -> Cell {
    Cell {
        mean_bitrate_mbps: r.mean_bitrate_mbps(),
        jain_bitrate: r.jain_bitrate,
        jain_cell_bytes: r.jain_cell_bytes,
        cell_bytes: r.total_cell_bytes,
        miss_rate: r.deadline_miss_rate,
        stalls: r.total_stalls,
        dropped_packets: r.bottlenecks.iter().map(|b| b.stats.dropped_packets).sum(),
    }
}

/// Compute the fleet grid: sizes × disciplines × modes as one batch.
pub(crate) fn result(quick: bool, env: &mpdash_obs::RunEnv) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fleet",
        "Fleet contention — N clients sharing an AP and a cell sector",
    )
    .with_quick(quick);
    res.text(concat!(
        "\nN sessions share one WiFi AP (2.5 Mbps/client) and one cell\n",
        "sector (0.75 Mbps/client), FIFO vs flow-queue (DRR), minRTT vs\n",
        "MP-DASH. Invariants: MP-DASH moves fewer cellular bytes than\n",
        "minRTT at every size and discipline, and FQ's Jain bitrate\n",
        "fairness is never below FIFO's at the same size and mode.",
    ));

    // Capacity scales with the fleet — the AP gives each client
    // ~2.5 Mbps and the sector ~0.75 Mbps, so the 3.94 Mbps top level
    // never fits and the shared queues stay contended at every size,
    // while WiFi keeps enough headroom that a deadline-aware scheduler
    // *can* shed cellular traffic (with no headroom at all, deadline
    // pressure forces cellular on for everyone and there are no savings
    // left to measure).
    let modes = [
        ("minRTT", TransportMode::Vanilla),
        ("mpdash", TransportMode::mpdash_rate_based()),
    ];
    let mut cells = Vec::new();
    for clients in fleet_sizes(quick) {
        for d in [QueueDiscipline::Fifo, FQ] {
            for (mode_name, mode) in modes {
                let link = |mbps_per_client: f64| {
                    SharedBottleneckConfig::fifo_mbps(mbps_per_client * clients as f64)
                        .with_discipline(d)
                };
                let cfg = contended_fleet(
                    fleet_client("BBB-fleet", mode),
                    clients,
                    link(2.5),
                    link(0.75),
                );
                cells.push(((clients, d, mode_name), cfg));
            }
        }
    }
    let grid = Grid::run(env, cells, |cfg| cell(&mpdash_fleet::run(cfg)));

    let mut t = Table::new(&[
        "clients",
        "queue",
        "mode",
        "bitrate",
        "jain(bitrate)",
        "jain(cell)",
        "cell MB",
        "miss rate",
        "stalls",
        "drops",
    ]);
    let mut worst_cell_ratio: f64 = 0.0;
    let mut worst_jain_delta: f64 = f64::INFINITY;
    for (&(clients, d, mode_name), c) in grid.iter() {
        t.row(&[
            format!("{clients}"),
            d.label().into(),
            mode_name.into(),
            format!("{:.2}", c.mean_bitrate_mbps),
            format!("{:.4}", c.jain_bitrate),
            format!("{:.4}", c.jain_cell_bytes),
            format!("{:.2}", c.cell_bytes as f64 / 1e6),
            format!("{:.3}", c.miss_rate),
            format!("{}", c.stalls),
            format!("{}", c.dropped_packets),
        ]);
        if mode_name == "mpdash" {
            // Invariant 1: cellular savings survive contention.
            let (cell, minrtt_cell) = (
                c.cell_bytes as f64,
                grid[(clients, d, "minRTT")].cell_bytes as f64,
            );
            assert!(
                cell < minrtt_cell,
                "n{clients}/{}: MP-DASH cellular {cell} >= minRTT {minrtt_cell}",
                d.label()
            );
            worst_cell_ratio = worst_cell_ratio.max(cell / minrtt_cell.max(1.0));
        }
        if d == FQ {
            // Invariant 2: FQ is at least as fair as FIFO, per mode.
            let (fifo, fq) = (
                grid[(clients, QueueDiscipline::Fifo, mode_name)].jain_bitrate,
                c.jain_bitrate,
            );
            assert!(
                fq + 1e-9 >= fifo,
                "n{clients}/{mode_name}: FQ jain {fq:.4} < FIFO jain {fifo:.4}"
            );
            worst_jain_delta = worst_jain_delta.min(fq - fifo);
        }
    }
    res.table(t);
    res.scalars(
        ScalarGroup::new("fleet invariants")
            .with("worst_mpdash_cell_ratio_vs_minrtt", worst_cell_ratio)
            .with("min_fq_minus_fifo_jain_bitrate", worst_jain_delta),
    );
    res
}
