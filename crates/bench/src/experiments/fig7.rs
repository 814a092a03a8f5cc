//! Figure 7(a–c): MP-DASH resource savings for FESTIVE, BBA and BBA-C
//! under the three controlled network conditions — W3.8/L3.0, W2.8/L3.0
//! and W2.2/L1.2 Mbps (Big Buck Bunny, 4 s chunks).
//!
//! Shape targets: savings for FESTIVE in all conditions, rate-based ≥
//! duration-based; BBA saves less (it is more aggressive) and nothing at
//! W2.2/L1.2 where it oscillates; BBA-C unlocks savings there by locking
//! the sustainable level (paper: ~69% cellular / 50% energy at a ~29%
//! bitrate cost versus oscillating BBA).

use crate::grid::Grid;
use crate::shapes::{controlled, vs_base, CONDITIONS};
use crate::{mb, Table};
use mpdash_dash::abr::AbrKind;
use mpdash_results::ExperimentResult;
use mpdash_session::{SessionReport, TransportMode};

const ABRS: [AbrKind; 3] = [AbrKind::Festive, AbrKind::Bba, AbrKind::BbaC];

/// A transport-mode constructor, named so the mode table stays legible.
type ModeCtor = fn() -> TransportMode;

const MODES: [(&str, ModeCtor); 3] = [
    ("Baseline", || TransportMode::Vanilla),
    ("Duration", TransportMode::mpdash_duration_based),
    ("Rate", TransportMode::mpdash_rate_based),
];

/// Compute the experiment: the full 3 ABRs × 3 conditions × 3 modes grid
/// as one batch, folded into one table per ABR.
pub(crate) fn result(quick: bool, env: &mpdash_obs::RunEnv) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig7",
        "Figure 7 — FESTIVE / BBA / BBA-C under three network conditions",
    )
    .with_quick(quick);

    let mut cells = Vec::new();
    for abr in ABRS {
        for (cname, wifi, lte) in CONDITIONS {
            for (mname, mode) in MODES {
                let cfg = controlled(wifi, lte, abr, mode());
                cells.push(((abr, cname, mname), cfg));
            }
        }
    }
    let grid = Grid::sessions(env, cells);

    for (abr, rows) in grid.sections(|k| k.0) {
        res.text(format!("\n--- {} ---", abr.name()));
        let mut t = Table::new(&[
            "condition",
            "config",
            "cell bytes",
            "energy (J)",
            "bitrate",
            "stalls",
            "cell saving",
            "energy saving",
        ]);
        for ((_, cname, mname), r) in rows {
            let base = &grid[(abr, *cname, "Baseline")];
            t.row(&[
                (*cname).into(),
                (*mname).into(),
                mb(r.cell_bytes),
                format!("{:.1}", r.energy.total_j()),
                format!("{:.2}", r.qoe.mean_bitrate_mbps),
                format!("{}", r.qoe.stalls),
                vs_base(r, base, SessionReport::cell_saving_vs),
                vs_base(r, base, SessionReport::energy_saving_vs),
            ]);
        }
        res.table(t);
    }
    res.text(
        "\nBBA vs BBA-C at W2.2/L1.2: BBA-C trades the oscillating 4↔5 \
         playback for a locked level, giving MP-DASH room to save (§7.3.2).",
    );
    res
}
