//! Figure 5: two field bandwidth traces (Fast Food, Coffeehouse) together
//! with their Holt-Winters one-step-ahead predictions.
//!
//! Shape target: the prediction tracks the fluctuating trace closely,
//! with bounded lag — the property Table 2's small online-vs-optimal gap
//! relies on.

use crate::Table;
use mpdash_core::predict::{HoltWinters, Predictor};
use mpdash_results::{ExperimentResult, MetricSeries, ScalarGroup};
use mpdash_sim::{SimDuration, SimTime};
use mpdash_trace::table1;

/// Compute the experiment. Pure prediction replay: `quick` only tags
/// the artifact and there is nothing to fan out or observe.
pub(crate) fn result(quick: bool, _env: &mpdash_obs::RunEnv) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig5",
        "Figure 5 — bandwidth traces and Holt-Winters prediction",
    )
    .with_quick(quick);
    let rows = table1::table1_rows();
    for row in rows
        .iter()
        .filter(|r| r.name.contains("Fast Food") || r.name.contains("Coffeehouse"))
    {
        res.text(format!("\ntrace: {}", row.name));
        let slot = SimDuration::from_millis(500);
        let mut hw = HoltWinters::default();
        let mut t = Table::new(&["t (s)", "actual Mbps", "HW forecast Mbps", "error"]);
        let mut forecast_points = Vec::new();
        let mut abs_err = 0.0;
        let mut n = 0;
        for i in 0..70 {
            let at = SimTime::ZERO + slot * i;
            let actual = row.wifi.rate_at(at).as_mbps_f64();
            let forecast = hw.forecast().map(|r| r.as_mbps_f64());
            if let Some(f) = forecast {
                abs_err += (f - actual).abs();
                n += 1;
                forecast_points.push((at.as_secs_f64(), f));
                if i % 4 == 0 {
                    t.row(&[
                        format!("{:.1}", at.as_secs_f64()),
                        format!("{actual:.2}"),
                        format!("{f:.2}"),
                        format!("{:+.2}", f - actual),
                    ]);
                }
            }
            hw.observe(row.wifi.rate_at(at));
        }
        res.table(t);
        res.series(MetricSeries::from_points(
            format!("hw_forecast/{}", row.name),
            "Mbps",
            forecast_points,
        ));
        let mean_abs_err = abs_err / n as f64;
        res.text(format!("mean |error| over 35 s: {mean_abs_err:.3} Mbps"));
        res.scalars(
            ScalarGroup::new(format!("prediction error — {}", row.name))
                .with("mean_abs_error_mbps", mean_abs_err),
        );
    }
    res
}
