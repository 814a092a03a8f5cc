//! Figure 4: the MP-DASH scheduler alone (single 5 MB download, WiFi
//! 3.8 / LTE 3.0 Mbps) — bytes over LTE and radio energy versus deadline
//! (8/9/10 s) under both stock MPTCP packet schedulers, plus the §7.2.1
//! α-sensitivity study.
//!
//! Shape targets: MP-DASH cuts LTE bytes and energy versus the baseline;
//! longer deadlines save more (paper: 68% cellular / 44% energy at 10 s);
//! α = 0.8 still saves (paper: 28% / 15%) but less than α = 1.

use crate::grid::Grid;
use crate::shapes::vs_base;
use crate::{mb, Table};
use mpdash_dash::adapter::DeadlineMode;
use mpdash_mptcp::SchedulerSpec;
use mpdash_results::ExperimentResult;
use mpdash_session::{FileTransfer, FileTransferConfig, FileTransferReport, TransportMode};
use mpdash_sim::SimDuration;

const SCHEDULERS: [(&str, SchedulerSpec); 2] = [
    ("default (minRTT)", SchedulerSpec::MinRtt),
    ("round-robin", SchedulerSpec::RoundRobin),
];
const DEADLINES_S: [u64; 3] = [8, 9, 10];
const ALPHAS: [f64; 4] = [1.0, 0.95, 0.9, 0.8];

fn baseline() -> FileTransferConfig {
    FileTransferConfig::testbed(3.8, 3.0, TransportMode::Vanilla)
}

fn mpdash(alpha: f64, deadline_s: u64) -> FileTransferConfig {
    let deadline = DeadlineMode::Rate;
    FileTransferConfig::testbed(3.8, 3.0, TransportMode::MpDash { deadline, alpha })
        .with_deadline(SimDuration::from_secs(deadline_s))
}

fn transfers<K: PartialEq + std::fmt::Debug>(
    workers: usize,
    cells: Vec<(K, FileTransferConfig)>,
) -> Grid<K, FileTransferReport> {
    Grid::run(workers, cells, |cfg| FileTransfer::run(cfg.clone()))
}

fn cell_saving(r: &FileTransferReport, base: &FileTransferReport) -> f64 {
    1.0 - r.cell_bytes as f64 / base.cell_bytes as f64
}

fn energy_saving(r: &FileTransferReport, base: &FileTransferReport) -> f64 {
    1.0 - r.energy.total_j() / base.energy.total_j()
}

/// Compute the experiment: a transfer grid of baseline + deadline sweep
/// per scheduler, folded into one table per scheduler, then the α sweep
/// with its own baseline.
pub fn result(quick: bool, workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig4",
        "Figure 4 — MP-DASH scheduler alone: 5 MB, WiFi 3.8 / LTE 3.0",
    )
    .with_quick(quick);

    let mut cells = Vec::new();
    for (name, sched) in SCHEDULERS {
        cells.push(((name, None), baseline().with_scheduler(sched)));
        for d in DEADLINES_S {
            cells.push(((name, Some(d)), mpdash(1.0, d).with_scheduler(sched)));
        }
    }
    let grid = transfers(workers, cells);
    for (name, rows) in grid.sections(|k| k.0) {
        res.text(format!("\nMPTCP scheduler: {name}"));
        let base = &grid[(name, None)];
        let mut t = Table::new(&[
            "config",
            "LTE bytes",
            "energy (J)",
            "finish (s)",
            "LTE saving",
            "energy saving",
        ]);
        for ((_, deadline), r) in rows {
            let config = match deadline {
                None => "Baseline".into(),
                Some(d) => {
                    assert!(!r.missed_deadline, "deadline {d}s must be met");
                    format!("MP-DASH D={d}s")
                }
            };
            t.row(&[
                config,
                mb(r.cell_bytes),
                format!("{:.1}", r.energy.total_j()),
                format!("{:.2}", r.duration.as_secs_f64()),
                vs_base(r, base, cell_saving),
                vs_base(r, base, energy_saving),
            ]);
        }
        res.table(t);
    }

    res.text("\nα sensitivity at D = 10 s (minRTT):");
    let mut cells = vec![(None, baseline())];
    cells.extend(ALPHAS.map(|alpha| (Some(alpha), mpdash(alpha, 10))));
    let sweep = transfers(workers, cells);
    let base = &sweep[None];
    let mut t = Table::new(&[
        "alpha",
        "LTE bytes",
        "LTE saving",
        "energy saving",
        "finish (s)",
    ]);
    for (alpha, r) in sweep.iter() {
        let Some(alpha) = alpha else { continue };
        t.row(&[
            format!("{alpha:.2}"),
            mb(r.cell_bytes),
            vs_base(r, base, cell_saving),
            vs_base(r, base, energy_saving),
            format!("{:.2}", r.duration.as_secs_f64()),
        ]);
    }
    res.table(t);
    res
}
