//! §2.2's motivating measurement study, re-run over the corpus: at each
//! location, can WiFi alone sustain the highest bitrate of a 1080p video?
//!
//! The paper classifies its 33 locations 64% / 15% / 21% into "never /
//! sometimes / almost always" and observes that **MPTCP sustains the
//! highest bitrate at every location**. We stream a (shortened) session
//! WiFi-only and over vanilla MPTCP at every corpus location and classify
//! by the fraction of steady-state chunks fetched at the top level.

use crate::grid::Grid;
use crate::shapes::bbb_clip;
use crate::{pct, Table};
use mpdash_dash::abr::AbrKind;
use mpdash_results::{ExperimentResult, ScalarGroup};
use mpdash_session::{SessionConfig, TransportMode};
use mpdash_trace::field::{field_corpus, Scenario};

fn top_level_fraction(report: &mpdash_session::SessionReport) -> f64 {
    let top = 4;
    let counted = &report.chunks[report.chunks.len() / 5..];
    counted.iter().filter(|c| c.level == top).count() as f64 / counted.len() as f64
}

fn classify(frac: f64) -> Scenario {
    if frac < 0.10 {
        Scenario::WifiNeverSufficient
    } else if frac < 0.90 {
        Scenario::WifiSometimesSufficient
    } else {
        Scenario::WifiAlwaysSufficient
    }
}

/// Compute the study: two sessions per corpus location (WiFi-only and
/// vanilla MPTCP) as one flat batch. `quick` keeps the first 8 locations.
pub fn result(quick: bool, workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "motivation",
        "§2.2 motivation — can WiFi alone sustain the top bitrate?",
    )
    .with_quick(quick);
    let mut corpus = field_corpus();
    if quick {
        corpus.truncate(8);
    }
    // The clip is shortened so the 66-session sweep stays quick.
    let mut cells = Vec::new();
    for (i, loc) in corpus.iter().enumerate() {
        for mode in [TransportMode::WifiOnly, TransportMode::Vanilla] {
            let cfg = SessionConfig::at_location(loc, AbrKind::Festive, mode)
                .with_video(bbb_clip("BBB-motivation", 60));
            cells.push(((i, mode), cfg));
        }
    }
    let grid = Grid::sessions(workers, cells);

    let mut counts = [0usize; 3];
    let mut mptcp_ok = 0usize;
    let mut sample = Table::new(&[
        "location",
        "WiFi Mbps",
        "WiFi-only top-rate %",
        "class",
        "MPTCP top-rate %",
    ]);
    for (i, _) in grid.sections(|k| k.0) {
        let loc = &corpus[i];
        let wifi_only = &grid[(i, TransportMode::WifiOnly)];
        let mptcp = &grid[(i, TransportMode::Vanilla)];
        let frac = top_level_fraction(wifi_only);
        let class = classify(frac);
        counts[match class {
            Scenario::WifiNeverSufficient => 0,
            Scenario::WifiSometimesSufficient => 1,
            Scenario::WifiAlwaysSufficient => 2,
        }] += 1;
        let mfrac = top_level_fraction(mptcp);
        if mfrac > 0.95 && mptcp.qoe.stalls == 0 {
            mptcp_ok += 1;
        }
        if i % 5 == 0 {
            sample.row(&[
                loc.name.clone(),
                format!("{:.2}", loc.wifi_mbps),
                pct(frac),
                class.label().into(),
                pct(mfrac),
            ]);
        }
    }
    res.text("every 5th location:");
    res.table(sample);
    let n = corpus.len();
    res.text(format!(
        "classification: never {}/{} ({}), sometimes {}/{} ({}), always {}/{} ({})",
        counts[0],
        n,
        pct(counts[0] as f64 / n as f64),
        counts[1],
        n,
        pct(counts[1] as f64 / n as f64),
        counts[2],
        n,
        pct(counts[2] as f64 / n as f64),
    ));
    res.text("paper: 64% / 15% / 21%");
    res.text(format!(
        "MPTCP sustains the top bitrate (≥95% of steady chunks, 0 stalls) at {mptcp_ok}/{n} locations \
         (paper: all locations)"
    ));
    res.scalars(
        ScalarGroup::new("classification")
            .with("never_fraction", counts[0] as f64 / n as f64)
            .with("sometimes_fraction", counts[1] as f64 / n as f64)
            .with("always_fraction", counts[2] as f64 / n as f64)
            .with("mptcp_ok_fraction", mptcp_ok as f64 / n as f64),
    );
    res
}
