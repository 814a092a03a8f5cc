//! Table 6: the HD experiment — Tears of Steel HD (10 Mbps top rate) at
//! a location where even WiFi + LTE cannot sustain the highest level, so
//! the player lives at levels 3–4 and BBA-C's cap is exercised in the
//! wild.
//!
//! Shape targets (paper, rate-based deadlines): ~40% cellular saving for
//! FESTIVE with an *increased* playback bitrate (the transport-layer
//! estimate beats the app-level one), ~37% for BBA-C with a small bitrate
//! dip; single-digit energy savings.

use crate::grid::Grid;
use crate::shapes::vs_base;
use crate::{mb, pct, Table};
use mpdash_dash::abr::AbrKind;
use mpdash_dash::video::Video;
use mpdash_results::ExperimentResult;
use mpdash_session::{SessionConfig, SessionReport, TransportMode};
use mpdash_trace::table1;

fn config(abr: AbrKind, mode: TransportMode) -> SessionConfig {
    // "Supermarket": WiFi 4.5 + LTE 3.5 ≈ 8 Mbps aggregate < the 10 Mbps
    // top rate.
    SessionConfig::controlled(
        table1::synthetic_profile_pair(4.5, 3.5, 0.15, 31),
        abr,
        mode,
    )
    .with_video(Video::tears_of_steel_hd())
}

/// Compute the experiment (four sessions — baseline + MP-DASH per ABR —
/// as one batch).
pub fn result(quick: bool, workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "tab6",
        "Table 6 — HD video (Tears of Steel HD, aggregate < top rate)",
    )
    .with_quick(quick);
    let mut cells = Vec::new();
    for abr in [AbrKind::Festive, AbrKind::BbaC] {
        // BBA-C's baseline is unmodified BBA over vanilla MPTCP, per the
        // paper's "37% for BBA-C over the unmodified BBA".
        let base_abr = if abr == AbrKind::BbaC {
            AbrKind::Bba
        } else {
            abr
        };
        cells.push(((abr, "Baseline"), config(base_abr, TransportMode::Vanilla)));
        cells.push((
            (abr, "MP-DASH rate"),
            config(abr, TransportMode::mpdash_rate_based()),
        ));
    }
    let grid = Grid::sessions(workers, cells);

    let mut t = Table::new(&[
        "algorithm",
        "config",
        "cell bytes",
        "energy (J)",
        "bitrate (Mbps)",
        "cell saving",
        "energy saving",
        "bitrate change",
    ]);
    for (&(abr, name), r) in grid.iter() {
        let base = &grid[(abr, "Baseline")];
        t.row(&[
            abr.name().into(),
            name.into(),
            mb(r.cell_bytes),
            format!("{:.1}", r.energy.total_j()),
            format!("{:.2}", r.qoe.mean_bitrate_mbps),
            vs_base(r, base, SessionReport::cell_saving_vs),
            vs_base(r, base, SessionReport::energy_saving_vs),
            if std::ptr::eq(r, base) {
                "-".into()
            } else {
                let delta = -r.qoe.bitrate_reduction_vs(&base.qoe);
                format!("{}{}", if delta >= 0.0 { "+" } else { "" }, pct(delta))
            },
        ]);
    }
    res.table(t);
    res
}
