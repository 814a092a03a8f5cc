//! Table 4 + Figure 6: the cellular-throttling alternative versus
//! MP-DASH, streaming with GPAC adaptation at WiFi 3.8 / LTE 3.0.
//!
//! Shape targets: throttling reduces cellular bytes but wastes radio
//! energy by dribbling (the LTE radio never rests); MP-DASH achieves both
//! the lowest cellular usage and the lowest energy; low throttle caps
//! also degrade chunk quality.

use crate::grid::Grid;
use crate::shapes::controlled;
use crate::{mb, pct, Table};
use mpdash_analysis::throughput_timeline;
use mpdash_dash::abr::AbrKind;
use mpdash_results::ExperimentResult;
use mpdash_session::TransportMode;
use mpdash_sim::SimDuration;

/// Compute the experiment (four sessions, batched).
pub fn result(quick: bool, workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "tab4",
        "Table 4 — cellular throttling vs MP-DASH (GPAC, W3.8/L3.0)",
    )
    .with_quick(quick);
    let configs = [
        ("Default", TransportMode::Vanilla),
        ("Throttle 700 Kbps", TransportMode::Throttled { kbps: 700 }),
        (
            "Throttle 1000 Kbps",
            TransportMode::Throttled { kbps: 1000 },
        ),
        ("MP-DASH (rate)", TransportMode::mpdash_rate_based()),
    ];
    let cells = configs
        .map(|(name, mode)| {
            let cfg = controlled(3.8, 3.0, AbrKind::Gpac, mode);
            (name, cfg)
        })
        .into();
    let grid = Grid::sessions_with_log(workers, cells);
    let mut t = Table::new(&[
        "config",
        "cell bytes",
        "% of cell data",
        "radio energy (J)",
        "mean bitrate",
        "stalls",
    ]);
    for (name, r) in grid.iter() {
        t.row(&[
            (*name).into(),
            mb(r.cell_bytes),
            pct(r.cell_fraction()),
            format!("{:.1}", r.energy.total_j()),
            format!("{:.2}", r.qoe.mean_bitrate_mbps),
            format!("{}", r.qoe.stalls),
        ]);
    }
    res.table(t);

    res.text("\nFigure 6 — traffic patterns (first 60 s, 1 s buckets):");
    for (name, r) in grid.iter() {
        if *name == "Throttle 1000 Kbps" {
            continue; // the paper's figure shows 700k / MP-DASH / default
        }
        res.text(format!("\n{name}:"));
        res.text(throughput_timeline(
            &r.records,
            SimDuration::from_secs(1),
            SimDuration::from_secs(60),
        ));
    }
    res
}
