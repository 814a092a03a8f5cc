//! Figures 9 & 10 and Table 5: the 33-location field study.
//!
//! Every location in the corpus streams Big Buck Bunny under six schemes
//! (FESTIVE and BBA, each with vanilla MPTCP, MP-DASH rate-based and
//! MP-DASH duration-based). Reported:
//!
//! * Figure 9 — CDF of cellular-data savings (paper: 25/50/75th
//!   percentiles at 48% / 59% / 82%).
//! * Figure 10 — CDF of playback-bitrate reduction (paper: no reduction
//!   in 82.65% of experiments; average 2.5% among the rest).
//! * Table 5 — per-location savings for the seven named locations.
//! * Radio-energy savings percentiles (paper: 7.7% / 17% / 53%).
//!
//! This is the heaviest sweep (33 locations × 2 visits × 6 schemes =
//! 396 sessions on the full run) and the batch runner's showcase: the
//! whole grid is one flat list of cells, and the persisted CDF quantiles are
//! byte-identical at any `MPDASH_WORKERS` setting.

use crate::grid::Grid;
use crate::{pct, Table};
use mpdash_dash::abr::AbrKind;
use mpdash_results::{CdfSummary, ExperimentResult, ScalarGroup};
use mpdash_session::{SessionConfig, TransportMode};
use mpdash_sim::series::Cdf;
use mpdash_trace::field::{field_corpus, Location};

const ABRS: [AbrKind; 2] = [AbrKind::Festive, AbrKind::Bba];

/// Compute the field study. `quick` limits the corpus to 6 locations and
/// one visit (used by integration smoke tests); the full study covers all
/// 33 locations twice.
pub fn result(quick: bool, workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "field",
        "Figures 9 & 10 + Table 5 — the 33-location field study",
    )
    .with_quick(quick);
    let corpus = field_corpus();
    let corpus: Vec<&Location> = if quick {
        corpus.iter().take(6).collect()
    } else {
        corpus.iter().collect()
    };

    // The paper visits each site multiple times at different times of
    // day; revisits share the site's means but draw fresh instantaneous
    // conditions. Table 5 reports the first visit.
    let visits: u64 = if quick { 1 } else { 2 };
    let (vanilla, rate, duration) = (
        TransportMode::Vanilla,
        TransportMode::mpdash_rate_based(),
        TransportMode::mpdash_duration_based(),
    );
    let mut cells = Vec::new();
    for (site, loc) in corpus.iter().enumerate() {
        for visit in 0..visits {
            // One synthesis of the visit's trace pair; its six schemes
            // share it.
            let at = SessionConfig::at_location(&loc.revisit(visit), ABRS[0], vanilla);
            for abr in ABRS {
                for mode in [vanilla, rate, duration] {
                    let cfg = SessionConfig {
                        abr,
                        mode,
                        ..at.clone()
                    };
                    cells.push(((site, visit, abr, mode), cfg));
                }
            }
        }
    }
    let grid = Grid::sessions(workers, cells);
    // (cellular, energy, bitrate-reduction) savings of a cell versus the
    // vanilla run of the same site, visit and ABR.
    let savings = |(site, visit, abr, mode)| {
        let r = &grid[(site, visit, abr, mode)];
        let base = &grid[(site, visit, abr, vanilla)];
        (
            r.cell_saving_vs(base),
            r.energy_saving_vs(base),
            r.qoe.bitrate_reduction_vs(&base.qoe),
        )
    };

    let mut cell_cdf = Cdf::new();
    let mut energy_cdf = Cdf::new();
    let mut bitrate_cdf = Cdf::new();
    for (&key, _) in grid.iter().filter(|(key, _)| key.3 != vanilla) {
        let (cell, energy, bitrate) = savings(key);
        cell_cdf.push(cell);
        energy_cdf.push(energy);
        bitrate_cdf.push(bitrate);
    }

    res.text("\nFigure 9 — cellular-data savings across all experiments:");
    let mut t = Table::new(&["percentile", "saving (paper)", "saving (measured)"]);
    for (q, paper) in [(0.25, "48%"), (0.50, "59%"), (0.75, "82%")] {
        t.row(&[
            format!("{:.0}th", q * 100.0),
            paper.into(),
            pct(cell_cdf.quantile(q).unwrap_or(0.0)),
        ]);
    }
    res.table(t);
    res.cdf(CdfSummary::from_cdf("cell_saving", &mut cell_cdf));

    res.text("Radio-energy savings (paper: 7.7% / 17% / 53%):");
    let mut t = Table::new(&["percentile", "saving (measured)"]);
    for q in [0.25, 0.50, 0.75] {
        t.row(&[
            format!("{:.0}th", q * 100.0),
            pct(energy_cdf.quantile(q).unwrap_or(0.0)),
        ]);
    }
    res.table(t);
    res.cdf(CdfSummary::from_cdf("energy_saving", &mut energy_cdf));

    res.text("Figure 10 — playback-bitrate reduction:");
    let no_reduction = bitrate_cdf.fraction_at_most(0.005);
    res.text(format!(
        "  experiments with (essentially) no reduction: {} (paper: 82.65%)",
        pct(no_reduction)
    ));
    res.text(format!(
        "  median reduction: {} | 95th percentile: {}",
        pct(bitrate_cdf.quantile(0.5).unwrap_or(0.0)),
        pct(bitrate_cdf.quantile(0.95).unwrap_or(0.0)),
    ));
    res.cdf(CdfSummary::from_cdf("bitrate_reduction", &mut bitrate_cdf));
    res.scalars(
        ScalarGroup::new("headline numbers")
            .with("no_reduction_fraction", no_reduction)
            .with("median_cell_saving", cell_cdf.quantile(0.5).unwrap_or(0.0))
            .with(
                "median_energy_saving",
                energy_cdf.quantile(0.5).unwrap_or(0.0),
            ),
    );

    res.text("\nTable 5 — named locations (savings in % vs vanilla MPTCP):");
    let mut t = Table::new(&[
        "location",
        "FEST/bytes R",
        "FEST/bytes D",
        "FEST/energy R",
        "FEST/energy D",
        "BBA/bytes R",
        "BBA/bytes D",
        "BBA/energy R",
        "BBA/energy D",
    ]);
    let named = [
        "Hotel Hi",
        "Hotel Ha",
        "Food Market",
        "Airport",
        "Coffeehouse",
        "Library",
        "Elec. Store",
    ];
    for (site, _) in grid.sections(|key| key.0) {
        let name = &corpus[site].name;
        if !named.contains(&name.as_str()) {
            continue;
        }
        let mut row = vec![name.clone()];
        for abr in ABRS {
            let (r, d) = (
                savings((site, 0, abr, rate)),
                savings((site, 0, abr, duration)),
            );
            row.extend([pct(r.0), pct(d.0), pct(r.1), pct(d.1)]);
        }
        t.row(&row);
    }
    res.table(t);
    res
}
