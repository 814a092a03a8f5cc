//! The MPC experiment — the paper's §5.2.3 sketch, implemented: a
//! model-predictive (hybrid throughput+buffer) rate adaptation running
//! under MP-DASH, across the three controlled network conditions.
//!
//! The paper lists "having not evaluated other DASH algorithms such as
//! MPC" among its limitations (§8); this is that evaluation. Expected
//! shapes: MPC behaves between FESTIVE (throughput-led) and BBA
//! (buffer-led); MP-DASH saves cellular for it with no stalls and little
//! bitrate impact, like the other throughput-consuming algorithms.

use crate::grid::Grid;
use crate::shapes::{controlled, vs_base, CONDITIONS};
use crate::{mb, Table};
use mpdash_dash::abr::AbrKind;
use mpdash_results::ExperimentResult;
use mpdash_session::{SessionReport, TransportMode};

/// A transport-mode constructor, named so the mode table stays legible.
type ModeCtor = fn() -> TransportMode;

const MODES: [(&str, ModeCtor); 3] = [
    ("Baseline", || TransportMode::Vanilla),
    ("Rate", TransportMode::mpdash_rate_based),
    ("Duration", TransportMode::mpdash_duration_based),
];

/// Compute the experiment (the 3 conditions × 3 modes grid as one batch).
pub fn result(quick: bool, workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "mpc",
        "Extension — MPC (hybrid) rate adaptation under MP-DASH (§5.2.3)",
    )
    .with_quick(quick);
    let mut cells = Vec::new();
    for (cname, wifi, lte) in CONDITIONS {
        for (mname, mode) in MODES {
            let cfg = controlled(wifi, lte, AbrKind::Mpc, mode());
            cells.push(((cname, mname), cfg));
        }
    }
    let grid = Grid::sessions(workers, cells);

    let mut t = Table::new(&[
        "condition",
        "config",
        "cell bytes",
        "energy (J)",
        "bitrate",
        "switches",
        "stalls",
        "cell saving",
    ]);
    for (&(cname, mname), r) in grid.iter() {
        let base = &grid[(cname, "Baseline")];
        t.row(&[
            cname.into(),
            mname.into(),
            mb(r.cell_bytes),
            format!("{:.1}", r.energy.total_j()),
            format!("{:.2}", r.qoe.mean_bitrate_mbps),
            format!("{}", r.qoe.switches),
            format!("{}", r.qoe.stalls),
            vs_base(r, base, SessionReport::cell_saving_vs),
        ]);
    }
    res.table(t);
    res
}
