//! Tables 1 & 2: trace-driven simulation of the online MP-DASH scheduler
//! versus the perfect-knowledge optimum, across the five Table 1
//! bandwidth profiles and the paper's deadline grid.
//!
//! Shape targets: online ≥ optimal everywhere; the gap ("Diff.") stays
//! small; deadlines are essentially never missed (the paper has a single
//! 10 ms miss); longer deadlines need less cellular.

use crate::{pct, simulate_online, Table};
use mpdash_results::ExperimentResult;
use mpdash_sim::SimDuration;
use mpdash_trace::table1::table1_rows;

/// Compute the experiment. Pure CPU (no sessions): `quick` only tags
/// the artifact and there is nothing to fan out over `workers`.
pub fn result(quick: bool, _workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "tab2",
        "Table 2 — online vs optimal cellular usage (trace-driven)",
    )
    .with_quick(quick);
    let mut t = Table::new(&[
        "trace",
        "D/L (s)",
        "Cell% optimal",
        "Cell% online",
        "Diff.",
        "Miss?",
    ]);
    for row in table1_rows() {
        for &d in row.deadlines_s {
            let r = simulate_online(
                &row.wifi,
                &row.cell,
                row.file_size,
                SimDuration::from_secs(d),
                SimDuration::from_millis(50),
                1.0,
            );
            t.row(&[
                row.name.into(),
                format!("{d}"),
                pct(r.optimal_cell_frac),
                pct(r.online_cell_frac),
                pct(r.diff()),
                if r.missed { "YES".into() } else { "No".into() },
            ]);
        }
    }
    res.table(t);
    res
}
