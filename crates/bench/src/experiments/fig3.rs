//! Figure 3: bitrate oscillation of the original BBA algorithm when the
//! MPTCP capacity (~3.4 Mbps) sits between two encoding bitrates
//! (2.41 and 3.94 Mbps for Big Buck Bunny), and how BBA-C locks the rate.

use crate::grid::Grid;
use mpdash_dash::abr::AbrKind;
use mpdash_results::{ExperimentResult, ScalarGroup};
use mpdash_session::{SessionConfig, SessionReport, TransportMode};
use mpdash_trace::table1;

fn oscillations(report: &SessionReport) -> (usize, Vec<usize>) {
    let levels: Vec<usize> = report.chunks.iter().map(|c| c.level).collect();
    let steady = &levels[levels.len() / 5..];
    let switches = steady.windows(2).filter(|w| w[0] != w[1]).count();
    (switches, levels)
}

/// Compute the experiment (two sessions, batched).
pub fn result(quick: bool, workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig3",
        "Figure 3 — BBA bitrate oscillation at MPTCP capacity ~3.4 Mbps",
    )
    .with_quick(quick);
    // WiFi 2.0 + LTE 1.5 gives an aggregate goodput near 3.4 Mbps —
    // squarely between levels 4 (2.41) and 5 (3.94).
    let cells = [AbrKind::Bba, AbrKind::BbaC]
        .map(|abr| {
            let cfg = SessionConfig::controlled(
                table1::synthetic_profile_pair(2.0, 1.5, 0.05, 9),
                abr,
                TransportMode::Vanilla,
            );
            (abr, cfg)
        })
        .into();
    let grid = Grid::sessions(workers, cells);
    let (bba, bbac) = (&grid[AbrKind::Bba], &grid[AbrKind::BbaC]);

    let (bba_sw, bba_levels) = oscillations(bba);
    let (bbac_sw, _) = oscillations(bbac);

    res.text(format!(
        "BBA   steady-state switches: {bba_sw} (mean bitrate {:.2} Mbps)",
        bba.qoe.mean_bitrate_mbps
    ));
    res.text(format!(
        "BBA-C steady-state switches: {bbac_sw} (mean bitrate {:.2} Mbps)",
        bbac.qoe.mean_bitrate_mbps
    ));
    res.scalars(
        ScalarGroup::new("steady-state switches")
            .with("bba_switches", bba_sw as f64)
            .with("bbac_switches", bbac_sw as f64)
            .with("bba_mean_bitrate_mbps", bba.qoe.mean_bitrate_mbps)
            .with("bbac_mean_bitrate_mbps", bbac.qoe.mean_bitrate_mbps),
    );
    res.text("\nBBA level per chunk (steady state, 1 char per chunk):");
    let line: String = bba_levels
        .iter()
        .map(|&l| char::from_digit(l as u32, 10).unwrap_or('?'))
        .collect();
    res.text(line);
    res.text(
        "\nShape check: BBA oscillates (switches ≫ 0) while BBA-C locks the \
         highest sustainable level — the paper's §5.2.2 motivation.",
    );
    res
}
