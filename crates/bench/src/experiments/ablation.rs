//! Ablations of the design choices DESIGN.md calls out, including the
//! Φ/Ω parameter study the paper explicitly defers to future work
//! (§5.2.2: "We plan to evaluate how different values of these
//! parameters impact other QoE metrics").
//!
//! All runs: Big Buck Bunny, FESTIVE, W3.8/L3.0, rate-based deadlines —
//! the paper's primary controlled setting. Reported per variant: cellular
//! bytes, radio energy, bitrate, stalls, scheduler toggles and missed
//! deadlines. The variant sweep (26 sessions) is one grid, the device
//! cross-check (4) a second.

use crate::grid::Grid;
use crate::shapes::controlled;
use crate::{mb, Table};
use mpdash_core::predict::PredictorKind;
use mpdash_dash::abr::AbrKind;
use mpdash_dash::adapter::AdapterConfig;
use mpdash_energy::DeviceProfile;
use mpdash_mptcp::CcKind;
use mpdash_results::ExperimentResult;
use mpdash_session::{SessionConfig, SessionReport, TransportMode};
use mpdash_sim::SimDuration;

fn base_cfg() -> SessionConfig {
    controlled(
        3.8,
        3.0,
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    )
}

fn row(t: &mut Table, name: &str, r: &SessionReport) {
    let stats = r.scheduler_stats;
    let (toggles, missed) = (stats.toggles, stats.missed_deadlines);
    t.row(&[
        name.into(),
        mb(r.cell_bytes),
        format!("{:.1}", r.energy.total_j()),
        format!("{:.2}", r.qoe.mean_bitrate_mbps),
        format!("{}", r.qoe.stalls),
        format!("{toggles}"),
        format!("{missed}"),
    ]);
}

const HDR: [&str; 7] = [
    "variant",
    "cell bytes",
    "energy (J)",
    "bitrate",
    "stalls",
    "toggles",
    "missed",
];

fn with_adapter(f: impl FnOnce(&mut AdapterConfig)) -> SessionConfig {
    let mut ac = AdapterConfig::default();
    f(&mut ac);
    base_cfg().with_adapter(ac)
}

/// Compute all ablations as one batch.
pub(crate) fn result(quick: bool, env: &mpdash_obs::RunEnv) -> ExperimentResult {
    let mut res =
        ExperimentResult::new("ablation", "Ablations — MP-DASH design choices").with_quick(quick);

    // (section title, [(variant label, config)]) in report order.
    let cc_variants = [("Reno (paper)", CcKind::Reno), ("CUBIC", CcKind::Cubic)];
    let predictors = [
        ("Holt-Winters (paper)", PredictorKind::control_default()),
        (
            "HW aggressive (0.8/0.3)",
            PredictorKind::HoltWinters {
                alpha: 0.8,
                beta: 0.3,
            },
        ),
        ("EWMA 0.5", PredictorKind::Ewma { alpha: 0.5 }),
        ("EWMA 0.2", PredictorKind::Ewma { alpha: 0.2 }),
    ];
    let debounces = [1u32, 2, 4, 8];
    let slots_ms = [50u64, 100, 250, 500];
    let phis = [0.6f64, 0.7, 0.8, 0.9, 0.99];
    let omegas = [0.2f64, 0.4, 0.6, 0.8];
    let devices = [DeviceProfile::galaxy_note(), DeviceProfile::galaxy_s3()];
    let t_factors = [1.0f64, 2.0, 3.0];

    let mut sections: Vec<(&str, Vec<(String, SessionConfig)>)> = Vec::new();
    sections.push((
        "Ablation — congestion control (decoupled Reno vs CUBIC)",
        cc_variants
            .iter()
            .map(|&(name, cc)| (name.to_string(), base_cfg().with_cc(cc)))
            .collect(),
    ));
    sections.push((
        "Ablation — throughput predictor (the §6 choice)",
        predictors
            .iter()
            .map(|&(name, p)| (name.to_string(), base_cfg().with_predictor(p)))
            .collect(),
    ));
    sections.push((
        "Ablation — enable-side debounce (progress checks)",
        debounces
            .iter()
            .map(|&d| {
                (
                    format!("debounce {d} (paper: 1)"),
                    base_cfg().with_debounce(d),
                )
            })
            .collect(),
    ));
    sections.push((
        "Ablation — sampling-slot width",
        slots_ms
            .iter()
            .map(|&ms| {
                (
                    format!("{ms} ms"),
                    base_cfg().with_sample_slot(SimDuration::from_millis(ms)),
                )
            })
            .collect(),
    ));
    sections.push((
        "Ablation — Φ (deadline-extension threshold), paper default 0.8",
        phis.iter()
            .map(|&phi| {
                (
                    format!("phi = {phi:.2} x capacity"),
                    with_adapter(|ac| ac.phi_fraction = phi),
                )
            })
            .collect(),
    ));
    sections.push((
        "Ablation — Ω floor (low-buffer bypass), paper default 0.4",
        omegas
            .iter()
            .map(|&omega| {
                (
                    format!("omega >= {omega:.2} x capacity"),
                    with_adapter(|ac| ac.omega_floor = omega),
                )
            })
            .collect(),
    ));
    sections.push((
        "Ablation — Ω window T multiple, paper default 2 (1x/3x 'do not qualitatively change')",
        t_factors
            .iter()
            .map(|&tf| {
                (
                    format!("T = {tf:.0} x capacity"),
                    with_adapter(|ac| ac.t_factor = tf),
                )
            })
            .collect(),
    ));

    let cells = sections
        .into_iter()
        .flat_map(|(section, variants)| {
            variants
                .into_iter()
                .map(move |(name, cfg)| ((section, name), cfg))
        })
        .collect();
    let grid = Grid::sessions(env, cells);
    for (section, rows) in grid.sections(|k| k.0) {
        let mut t = Table::new(&HDR).with_title(format!("{section}:"));
        for ((_, name), r) in rows {
            row(&mut t, name, r);
        }
        res.table(t);
    }

    // The device cross-check pairs a vanilla baseline with MP-DASH on
    // each device.
    let cells = devices
        .iter()
        .flat_map(|&device| {
            let baseline = controlled(3.8, 3.0, AbrKind::Festive, TransportMode::Vanilla);
            [
                ((device.name, "baseline"), baseline.with_device(device)),
                ((device.name, "mpdash"), base_cfg().with_device(device)),
            ]
        })
        .collect();
    let grid = Grid::sessions(env, cells);
    let mut t = Table::new(&["device", "baseline E (J)", "MP-DASH E (J)", "energy saving"])
        .with_title(
            "Cross-check — device energy profiles (paper: 'both yielding similar results'):",
        );
    for (device, _) in grid.sections(|k| k.0) {
        let (base, mp) = (&grid[(device, "baseline")], &grid[(device, "mpdash")]);
        t.row(&[
            device.into(),
            format!("{:.1}", base.energy.total_j()),
            format!("{:.1}", mp.energy.total_j()),
            crate::pct(mp.energy_saving_vs(base)),
        ]);
    }
    res.table(t);
    res
}
