//! Figure 1: WiFi/LTE subflow throughput while a DASH video streams over
//! vanilla MPTCP (WiFi 3.8 Mbps, LTE 3.0 Mbps, GPAC adaptation).
//!
//! Shape target: LTE runs near its full capacity throughout the steady
//! state even though WiFi alone nearly suffices, and the flow shows
//! on/off idle gaps as the player's buffer fills.

use crate::shapes::controlled;
use crate::Table;
use mpdash_analysis::throughput_timeline;
use mpdash_dash::abr::AbrKind;
use mpdash_link::PathId;
use mpdash_results::{ExperimentResult, MetricSeries, ScalarGroup};
use mpdash_session::{StreamingSession, TransportMode};
use mpdash_sim::{Series, SimDuration};

/// Compute the experiment (one session, so `workers` goes unused).
pub fn result(quick: bool, _workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig1",
        "Figure 1 — vanilla MPTCP throughput while streaming DASH (W3.8/L3.0)",
    )
    .with_quick(quick);
    let cfg = controlled(3.8, 3.0, AbrKind::Gpac, TransportMode::Vanilla);
    let report = StreamingSession::run(cfg);

    // Per-second throughput of each subflow over the steady state.
    let mut wifi = Series::new();
    let mut cell = Series::new();
    for r in &report.records {
        match r.path {
            PathId::WIFI => wifi.push(r.t, r.len as f64),
            PathId::CELLULAR => cell.push(r.t, r.len as f64),
            _ => {}
        }
    }
    let window = SimDuration::from_secs(1);
    let wifi_th = wifi.throughput_mbps(window);
    let cell_th = cell.throughput_mbps(window);
    res.series(MetricSeries::throughput("wifi_mbps", &wifi, window));
    res.series(MetricSeries::throughput("cell_mbps", &cell, window));

    let mut t = Table::new(&["t (s)", "WiFi Mbps", "LTE Mbps", "MPTCP Mbps"]);
    for i in 10..40 {
        let w = wifi_th.get(i).map(|&(_, v)| v).unwrap_or(0.0);
        let c = cell_th
            .iter()
            .find(|(tt, _)| (tt.as_secs_f64() - i as f64).abs() < 0.5)
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        t.row(&[
            format!("{i}"),
            format!("{w:.2}"),
            format!("{c:.2}"),
            format!("{:.2}", w + c),
        ]);
    }
    res.table(t);

    res.text(format!(
        "session: {} on WiFi, {} on LTE ({} of bytes over the metered link)",
        crate::mb(report.wifi_bytes),
        crate::mb(report.cell_bytes),
        crate::pct(report.cell_fraction()),
    ));
    res.text(format!(
        "mean playback bitrate {:.2} Mbps, stalls {}",
        report.qoe.mean_bitrate_mbps, report.qoe.stalls
    ));
    res.scalars(
        ScalarGroup::new("session totals")
            .with("wifi_bytes", report.wifi_bytes as f64)
            .with("cell_bytes", report.cell_bytes as f64)
            .with("cell_fraction", report.cell_fraction())
            .with("mean_bitrate_mbps", report.qoe.mean_bitrate_mbps)
            .with("stalls", report.qoe.stalls as f64),
    );
    res.text("\nfirst 60 s, 1 s buckets:");
    res.text(throughput_timeline(
        &report.records,
        SimDuration::from_secs(1),
        SimDuration::from_secs(60),
    ));
    res
}
