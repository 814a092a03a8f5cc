//! Figure 8: the analysis tool's chunk-bar visualization, comparing
//! default MPTCP against MP-DASH with rate- and duration-based deadlines
//! (FESTIVE, W3.8/L3.0).
//!
//! Shape targets: the default MPTCP rows show large cellular fractions
//! in every chunk; MP-DASH rows show mostly-WiFi chunks with occasional
//! cellular slivers, and the duration-based setting uses more cellular on
//! larger-than-nominal chunks than the rate-based one.

use crate::grid::Grid;
use crate::shapes::controlled;
use mpdash_analysis::{analyze, render_chunk_bars};
use mpdash_dash::abr::AbrKind;
use mpdash_results::ExperimentResult;
use mpdash_session::TransportMode;

/// Compute the experiment (three sessions, batched).
pub(crate) fn result(quick: bool, env: &mpdash_obs::RunEnv) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig8",
        "Figure 8 — analysis-tool chunk bars (FESTIVE, W3.8/L3.0)",
    )
    .with_quick(quick);
    let modes = [
        ("default MPTCP", TransportMode::Vanilla),
        ("MP-DASH rate-based", TransportMode::mpdash_rate_based()),
        (
            "MP-DASH duration-based",
            TransportMode::mpdash_duration_based(),
        ),
    ];
    let cells = modes
        .map(|(name, mode)| {
            let cfg = controlled(3.8, 3.0, AbrKind::Festive, mode);
            (name, cfg)
        })
        .into();
    for (name, report) in Grid::sessions(env, cells).iter() {
        let chunks = &report.chunks;
        let a = analyze(chunks, report.idle_gaps, 5);
        res.text(format!("\n{name} — chunks 30..46 (of {}):", chunks.len()));
        res.text(render_chunk_bars(&chunks[30..46], 24));
        res.text(format!(
            "session cellular body bytes: {:.2} MB | idle gaps >0.5 s: {} | switches: {}",
            a.cell_body_bytes as f64 / 1e6,
            a.idle_gaps,
            a.switches
        ));
    }
    res
}
