//! Figure 11: the mobility scenario — walking a loop around the WiFi AP
//! (WiFi swings 5 Mbps → near-zero → 5 Mbps, LTE steady at 5 Mbps),
//! streaming with FESTIVE.
//!
//! Shape targets: MP-DASH uses cellular only while the WiFi trough
//! starves the buffer, the default MPTCP drives LTE at full rate
//! throughout, and WiFi-only cannot hold the top bitrate (paper: 81%
//! cellular / 47% energy savings with no bitrate loss).

use crate::grid::Grid;
use crate::{mb, pct, Table};
use mpdash_analysis::throughput_timeline;
use mpdash_dash::abr::AbrKind;
use mpdash_results::{ExperimentResult, ScalarGroup};
use mpdash_session::{SessionConfig, TransportMode};
use mpdash_sim::{Rate, SimDuration};
use mpdash_trace::mobility::MobilityWalk;

/// The controlled setup on the walk's links, the WiFi prior at half the
/// walk's peak.
fn config(mode: TransportMode) -> SessionConfig {
    let walk = MobilityWalk::default();
    let (wifi, cell) = walk.links();
    SessionConfig {
        wifi,
        cell,
        priors: (
            Rate::from_mbps_f64(walk.peak_mbps * 0.5),
            Rate::from_mbps_f64(walk.lte_mbps),
        ),
        ..SessionConfig::controlled_mbps(walk.peak_mbps, walk.lte_mbps, AbrKind::Festive, mode)
    }
}

/// Compute the experiment (three sessions, batched).
pub fn result(quick: bool, workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig11",
        "Figure 11 — mobility walk (WiFi 5↔0 Mbps, LTE 5 Mbps, FESTIVE)",
    )
    .with_quick(quick);
    let modes = [
        TransportMode::Vanilla,
        TransportMode::mpdash_rate_based(),
        TransportMode::WifiOnly,
    ];
    let grid = Grid::sessions_with_log(workers, modes.map(|m| (m, config(m))).into());
    let [base, mp, wifi_only] = modes.map(|m| &grid[m]);

    let mut t = Table::new(&[
        "config",
        "cell bytes",
        "energy (J)",
        "bitrate (Mbps)",
        "stalls",
    ]);
    for (name, r) in [
        ("MP-DASH (rate)", mp),
        ("default MPTCP", base),
        ("WiFi only", wifi_only),
    ] {
        t.row(&[
            name.into(),
            mb(r.cell_bytes),
            format!("{:.1}", r.energy.total_j()),
            format!("{:.2}", r.qoe.mean_bitrate_mbps),
            format!("{}", r.qoe.stalls),
        ]);
    }
    res.table(t);
    let (cell_saving, energy_saving) = (mp.cell_saving_vs(base), mp.energy_saving_vs(base));
    res.text(format!(
        "MP-DASH vs default: cellular saving {}, energy saving {} (paper: 81.4% / 47.3%)",
        pct(cell_saving),
        pct(energy_saving),
    ));
    res.scalars(
        ScalarGroup::new("MP-DASH vs default MPTCP")
            .with("cell_saving", cell_saving)
            .with("energy_saving", energy_saving),
    );

    res.text("\ntraffic over two walk laps (1 s buckets):");
    for (name, r) in [
        ("MP-DASH", mp),
        ("default MPTCP", base),
        ("WiFi only", wifi_only),
    ] {
        res.text(format!("\n{name}:"));
        res.text(throughput_timeline(
            &r.records,
            SimDuration::from_secs(1),
            SimDuration::from_secs(60),
        ));
    }
    res
}
