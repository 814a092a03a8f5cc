//! `mpdash timeline <scenario.json>`: fleet-wide time series over
//! virtual time.
//!
//! The scenario runner prints end-of-run aggregates; this command
//! renders *when* things happened. It runs the document's fleet once
//! per mode with epoch telemetry forced on, folds every client's
//! [`EpochSeries`], every shared bottleneck's, and the fleet loop's own
//! series into one fleet-wide series per mode, and renders the signals
//! the capacity questions need — deadline-miss rate, cellular bytes,
//! cache hit ratio, shared-queue depth, per-epoch QoE — as aligned
//! sparklines plus machine-readable NDJSON under `results/`.
//!
//! Determinism: every NDJSON byte derives from epoch series, which
//! merge associatively, so output is identical at any `MPDASH_WORKERS`
//! — CI diffs the file across worker counts. The wall-clock loop
//! profile is intrinsically machine-dependent, so it is quarantined in
//! `results/PROF_fleet.json` and never enters the NDJSON.

use crate::scenario::Scenario;
use mpdash_dash::QoeScore;
use mpdash_fleet::{run as run_fleet, FleetConfig, FleetProfile, FleetWallProfile};
use mpdash_obs::{EpochSeries, TelemetrySpec};
use mpdash_results::{artifact_dir, Json};
use mpdash_session::{run_batch, Job};
use mpdash_sim::default_workers;

/// Options parsed from the `timeline` command line.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimelineOptions {
    /// Reduced run: cap the fleet at 8 clients per mode.
    pub quick: bool,
}

/// Widest sparkline the report prints; longer series are downsampled
/// (deterministically, by averaging fixed-size epoch groups).
const SPARK_WIDTH: usize = 64;

/// Everything `mpdash timeline` produced: the rendered report plus the
/// artifact paths it wrote.
pub struct TimelineOutput {
    /// Human-readable report (sparklines + per-mode tables).
    pub rendered: String,
    /// The NDJSON export path (one line per mode per epoch).
    pub ndjson_path: std::path::PathBuf,
    /// The loop-profile path (`PROF_fleet.json`).
    pub profile_path: std::path::PathBuf,
}

/// Run the scenario's fleet per mode and build the timeline report.
/// Errors when the document has no `fleet` key.
pub fn timeline_scenario(
    scenario: &Scenario,
    opts: &TimelineOptions,
) -> Result<TimelineOutput, String> {
    let Some(mut configs) = scenario.fleet_configs() else {
        return Err("scenario has no 'fleet' key (timeline renders fleet runs)".into());
    };
    // Telemetry is the whole point here: force it on when the document
    // doesn't ask for it (default one-second epochs).
    let spec = scenario.base.telemetry.unwrap_or_default();
    for (_, fc) in configs.iter_mut() {
        *fc = fc.clone().with_telemetry(spec).with_wall_profile();
        if opts.quick {
            fc.clients = fc.clients.min(8);
        }
    }

    // One job per mode through the ordinary order-preserving batch
    // machinery: results come back in declaration order whatever
    // MPDASH_WORKERS says, and each job's value is pure epoch data.
    let jobs = configs
        .iter()
        .map(|(label, fc)| Job::new(label.clone(), move || mode_timeline(label, fc)))
        .collect();
    let mut modes = Vec::new();
    for r in run_batch(jobs, default_workers()?) {
        modes.push(r.report.map_err(|e| format!("job {}: {e}", r.label))?);
    }

    let rendered = render(scenario, opts, &modes);
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    // NDJSON: deterministic rows only, one line per mode per epoch.
    let ndjson_path = dir.join(format!("TIMELINE_{}.ndjson", slug(&scenario.name)));
    let mut ndjson = String::new();
    for mode in &modes {
        for row in &mode.rows {
            ndjson.push_str(&row.to_json(&mode.label).to_compact());
            ndjson.push('\n');
        }
    }
    std::fs::write(&ndjson_path, &ndjson)
        .map_err(|e| format!("writing {}: {e}", ndjson_path.display()))?;

    // The loop profile: deterministic span counters beside the
    // wall-clock phase breakdown. Machine-dependent by design, hence a
    // separate artifact that no determinism gate compares.
    let profile_path = dir.join("PROF_fleet.json");
    let prof = Json::obj([
        ("scenario", Json::from(scenario.name.as_str())),
        (
            "modes",
            Json::arr(modes.iter().map(|m| {
                Json::obj([
                    ("mode", Json::from(m.label.as_str())),
                    ("loop", m.profile.to_json()),
                    ("wall", m.wall.map(|w| w.to_json()).unwrap_or(Json::Null)),
                ])
            })),
        ),
    ]);
    std::fs::write(&profile_path, prof.to_pretty())
        .map_err(|e| format!("writing {}: {e}", profile_path.display()))?;

    Ok(TimelineOutput {
        rendered,
        ndjson_path,
        profile_path,
    })
}

/// One epoch of one mode's fleet-wide series: an NDJSON row, typed.
struct Row {
    epoch: u64,
    t_s: f64,
    deadline_hits: u64,
    deadline_misses: u64,
    miss_rate: f64,
    wifi_bytes: u64,
    cell_bytes: u64,
    chunks: u64,
    switches: u64,
    stall_ms: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_ratio: f64,
    queue_depth_mean: f64,
    queue_wait_mean_ms: f64,
    aqm_drop_prob_ppm_mean: f64,
    shared_dropped_bytes: u64,
    wasted_bytes: u64,
    loop_steps: u64,
    loop_departures: u64,
    fleet_arrivals: u64,
    fleet_departures: u64,
    fleet_shed: u64,
    active_sessions: u64,
    qoe_composite: f64,
}

impl Row {
    fn to_json(&self, mode: &str) -> Json {
        Json::obj([
            ("mode", Json::from(mode)),
            ("epoch", Json::from(self.epoch)),
            ("t_s", Json::Float(self.t_s)),
            ("deadline_hits", Json::from(self.deadline_hits)),
            ("deadline_misses", Json::from(self.deadline_misses)),
            ("miss_rate", Json::Float(self.miss_rate)),
            ("wifi_bytes", Json::from(self.wifi_bytes)),
            ("cell_bytes", Json::from(self.cell_bytes)),
            ("chunks", Json::from(self.chunks)),
            ("switches", Json::from(self.switches)),
            ("stall_ms", Json::from(self.stall_ms)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("cache_hit_ratio", Json::Float(self.cache_hit_ratio)),
            ("queue_depth_mean", Json::Float(self.queue_depth_mean)),
            ("queue_wait_mean_ms", Json::Float(self.queue_wait_mean_ms)),
            (
                "aqm_drop_prob_ppm_mean",
                Json::Float(self.aqm_drop_prob_ppm_mean),
            ),
            (
                "shared_dropped_bytes",
                Json::from(self.shared_dropped_bytes),
            ),
            ("wasted_bytes", Json::from(self.wasted_bytes)),
            ("loop_steps", Json::from(self.loop_steps)),
            ("loop_departures", Json::from(self.loop_departures)),
            ("fleet_arrivals", Json::from(self.fleet_arrivals)),
            ("fleet_departures", Json::from(self.fleet_departures)),
            ("fleet_shed", Json::from(self.fleet_shed)),
            ("active_sessions", Json::from(self.active_sessions)),
            ("qoe_composite", Json::Float(self.qoe_composite)),
        ])
    }
}

/// One mode's fleet run reduced to what the timeline shows: one row per
/// epoch plus the loop and wall-clock profiles. Every field except
/// `wall` is a pure function of the fleet config.
struct ModeTimeline {
    label: String,
    epoch_s: f64,
    qoe_mean: f64,
    miss_rate: f64,
    rows: Vec<Row>,
    profile: FleetProfile,
    wall: Option<FleetWallProfile>,
}

/// Run one mode's fleet and reduce it to its [`ModeTimeline`].
fn mode_timeline(label: &str, fc: &FleetConfig) -> ModeTimeline {
    let report = run_fleet(fc);
    let epoch = report
        .epochs
        .as_ref()
        .map(|e| e.epoch_len())
        .unwrap_or_default();
    // Fold clients + bottlenecks + loop into one series: the signal
    // names are disjoint, and one dense grid keeps the rows aligned.
    let mut all = report
        .epochs
        .clone()
        .unwrap_or_else(|| EpochSeries::new(TelemetrySpec::new(epoch)));
    for bn in &report.bottlenecks {
        if let Some(e) = &bn.epochs {
            all.merge(e);
        }
    }
    if let Some(e) = &report.profile.epochs {
        all.merge(e);
    }

    let top_rung_mbps = fc
        .base
        .video
        .bitrate(fc.base.video.n_levels() - 1)
        .as_mbps_f64();
    let epoch_s = epoch.as_secs_f64();
    // Running arrivals-minus-departures: the fleet loop's lifecycle
    // counters integrate into the concurrency the capacity questions
    // care about. Shed sessions never arrive, so they don't inflate it.
    let mut active: i64 = 0;
    let rows = all
        .cells()
        .map(|(i, c)| {
            let hits = c.counter("deadline_hits");
            let misses = c.counter("deadline_misses");
            let cache_hits = c.counter("cache_hits");
            let cache_misses = c.counter("cache_misses");
            // Mean of a per-departure histogram over the epoch; zero on
            // fleets whose series lack the cell (e.g. PIE's drop
            // probability, in parts per million, on a non-AQM fleet).
            let mean = |name: &str| {
                c.histogram(name)
                    .map(|h| h.sum() as f64 / h.count().max(1) as f64)
                    .unwrap_or(0.0)
            };
            let arrivals = c.counter("fleet_arrivals");
            let departures = c.counter("fleet_departures");
            active += arrivals as i64 - departures as i64;
            let qoe = QoeScore::from_epoch(
                c.counter("chunks"),
                c.counter("chunk_bitrate_kbps"),
                c.counter("switches"),
                c.counter("stall_ms"),
                epoch,
                top_rung_mbps,
            );
            Row {
                epoch: i as u64,
                t_s: i as f64 * epoch_s,
                deadline_hits: hits,
                deadline_misses: misses,
                miss_rate: misses as f64 / (hits + misses).max(1) as f64,
                wifi_bytes: c.counter("wifi_bytes"),
                cell_bytes: c.counter("cell_bytes"),
                chunks: c.counter("chunks"),
                switches: c.counter("switches"),
                stall_ms: c.counter("stall_ms"),
                cache_hits,
                cache_misses,
                cache_hit_ratio: cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64,
                queue_depth_mean: mean("queue_depth_bytes"),
                // Mean sojourn of the epoch's departures — bufferbloat
                // over time, and the signal an AQM holds near its target.
                queue_wait_mean_ms: mean("queue_wait_ms"),
                aqm_drop_prob_ppm_mean: mean("aqm_drop_prob_ppm"),
                shared_dropped_bytes: c.counter("shared_dropped_bytes"),
                wasted_bytes: c.counter("wasted_bytes"),
                loop_steps: c.counter("loop_steps"),
                loop_departures: c.counter("loop_departures"),
                fleet_arrivals: arrivals,
                fleet_departures: departures,
                fleet_shed: c.counter("fleet_shed"),
                active_sessions: active.max(0) as u64,
                qoe_composite: qoe.composite,
            }
        })
        .collect();

    let qoe_mean = if report.sessions.is_empty() {
        0.0
    } else {
        report
            .sessions
            .iter()
            .map(|s| s.qoe_score.composite)
            .sum::<f64>()
            / report.sessions.len() as f64
    };
    ModeTimeline {
        label: label.to_string(),
        epoch_s,
        qoe_mean,
        miss_rate: report.deadline_miss_rate,
        rows,
        profile: report.profile,
        wall: report.wall_profile,
    }
}

/// Downsample to at most `SPARK_WIDTH` columns by averaging fixed-size
/// groups of epochs, then render one glyph per column scaled to the
/// series max. All-zero series render as a flat baseline.
fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let group = values.len().div_ceil(SPARK_WIDTH);
    let cols: Vec<f64> = values
        .chunks(group)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let max = cols.iter().cloned().fold(0.0_f64, f64::max);
    cols.iter()
        .map(|&v| {
            if max <= 0.0 {
                GLYPHS[0]
            } else {
                let idx = (v / max * (GLYPHS.len() - 1) as f64).round() as usize;
                GLYPHS[idx.min(GLYPHS.len() - 1)]
            }
        })
        .collect()
}

/// One sparkline's value in a row.
type Track = fn(&Row) -> f64;

fn render(scenario: &Scenario, opts: &TimelineOptions, modes: &[ModeTimeline]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline: {}{} — {} mode(s), sparklines over virtual time",
        scenario.name,
        if opts.quick { " [quick]" } else { "" },
        modes.len()
    );
    for mode in modes {
        let n = mode.rows.len();
        let epoch_s = mode.epoch_s;
        let span = n as f64 * epoch_s;
        let _ = writeln!(
            out,
            "\n{}: {n} epochs x {epoch_s:.1}s ({span:.0}s), mean QoE {:.1}, miss rate {:.3}",
            mode.label, mode.qoe_mean, mode.miss_rate,
        );
        let tracks: [(&str, Track, f64, &str); 10] = [
            ("miss rate", |r| r.miss_rate, 1.0, ""),
            ("LTE bytes", |r| r.cell_bytes as f64, 1e-6, " MB"),
            ("cache hit%", |r| r.cache_hit_ratio, 100.0, "%"),
            ("queue depth", |r| r.queue_depth_mean, 1e-3, " KB"),
            ("queue delay", |r| r.queue_wait_mean_ms, 1.0, " ms"),
            ("aqm prob", |r| r.aqm_drop_prob_ppm_mean, 1e-4, "%"),
            ("QoE", |r| r.qoe_composite, 1.0, ""),
            ("loop steps", |r| r.loop_steps as f64, 1.0, ""),
            ("active sess", |r| r.active_sessions as f64, 1.0, ""),
            ("shed", |r| r.fleet_shed as f64, 1.0, ""),
        ];
        for (title, value, unit_scale, unit) in tracks {
            let vals: Vec<f64> = mode.rows.iter().map(value).collect();
            let peak = vals.iter().cloned().fold(0.0_f64, f64::max);
            let _ = writeln!(
                out,
                "  {title:<12} {} peak {:.2}{unit}",
                sparkline(&vals),
                peak * unit_scale,
            );
        }
    }
    out
}

/// Lowercase alphanumeric artifact stem for the scenario name.
fn slug(name: &str) -> String {
    let s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() {
        "scenario".into()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "name": "Timeline Demo",
        "video": {"custom": {"levels_mbps": [0.6, 1.5, 3.0], "chunk_secs": 4, "n_chunks": 15}},
        "wifi": {"constant": 8.0},
        "cell": {"constant": 4.0},
        "abr": "festive",
        "modes": ["vanilla", "mpdash_rate"],
        "telemetry": {"epoch_s": 2.0},
        "cache": {"capacity_mb": 64},
        "fleet": {
            "clients": 3,
            "shared": [{"rate_mbps": 10.0, "paths": ["wifi"]}]
        }
    }"#;

    fn demo_modes() -> Vec<ModeTimeline> {
        let sc = Scenario::from_json(DOC).unwrap();
        let spec = sc.base.telemetry.unwrap();
        sc.fleet_configs()
            .unwrap()
            .into_iter()
            .map(|(label, fc)| mode_timeline(&label, &fc.with_telemetry(spec)))
            .collect()
    }

    #[test]
    fn mode_timeline_rows_are_deterministic_and_dense() {
        let a = demo_modes();
        let b = demo_modes();
        for (ma, mb) in a.iter().zip(&b) {
            // The deterministic surface (everything but wall) matches
            // bit for bit across runs.
            let ndjson = |m: &ModeTimeline| {
                Json::arr(m.rows.iter().map(|r| r.to_json(&m.label))).to_pretty()
            };
            assert_eq!(ndjson(ma), ndjson(mb));
            let rows = &ma.rows;
            assert!(rows.len() > 5, "a real run spans many epochs");
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(r.epoch, i as u64);
            }
            let bytes: u64 = rows.iter().map(|r| r.cell_bytes).sum();
            assert!(bytes > 0, "cellular traffic shows up in the series");
        }
    }

    #[test]
    fn active_sessions_track_follows_churn_and_shedding() {
        let doc = r#"{
            "name": "churn-track",
            "video": {"custom": {"levels_mbps": [0.6, 1.5], "chunk_secs": 4, "n_chunks": 10}},
            "wifi": {"constant": 8.0},
            "cell": {"constant": 4.0},
            "abr": "festive",
            "buffer_secs": 8,
            "modes": ["mpdash_rate"],
            "telemetry": {"epoch_s": 2.0},
            "fleet": {
                "clients": 8,
                "seed": 23,
                "watchdog": true,
                "churn": {"mean_interarrival_s": 2.0, "mean_watch_s": 20.0},
                "overload": {"max_active": 2},
                "shared": [{"rate_mbps": 6.0, "paths": ["wifi"]}]
            }
        }"#;
        let sc = Scenario::from_json(doc).unwrap();
        let spec = sc.base.telemetry.unwrap();
        let (label, fc) = sc.fleet_configs().unwrap().remove(0);
        let mode = mode_timeline(&label, &fc.with_telemetry(spec));
        let rows = &mode.rows;
        let arrivals: u64 = rows.iter().map(|r| r.fleet_arrivals).sum();
        let departures: u64 = rows.iter().map(|r| r.fleet_departures).sum();
        let shed: u64 = rows.iter().map(|r| r.fleet_shed).sum();
        assert!(arrivals > 0, "admitted sessions arrive");
        assert_eq!(
            arrivals, departures,
            "every admitted session eventually departs"
        );
        assert!(shed > 0, "the cap sheds some of the 8 packed arrivals");
        assert_eq!(arrivals + shed, 8, "every client is admitted or shed");
        let peak = rows.iter().map(|r| r.active_sessions).max().unwrap();
        assert!(
            (1..=2).contains(&peak),
            "active sessions stay within the admission cap, peak {peak}"
        );
        assert_eq!(
            rows.last().unwrap().active_sessions,
            0,
            "the fleet drains to zero active sessions"
        );
    }

    #[test]
    fn aqm_fleet_surfaces_queue_delay_and_drop_probability() {
        let doc = r#"{
            "name": "aqm-track",
            "video": {"custom": {"levels_mbps": [0.6, 1.5, 3.0], "chunk_secs": 4, "n_chunks": 10}},
            "wifi": {"constant": 8.0},
            "cell": {"constant": 4.0},
            "abr": "festive",
            "buffer_secs": 8,
            "modes": ["mpdash_rate"],
            "telemetry": {"epoch_s": 2.0},
            "fleet": {
                "clients": 4,
                "shared": [{"rate_mbps": 4.0, "discipline": "pie", "paths": ["wifi"]}]
            }
        }"#;
        let sc = Scenario::from_json(doc).unwrap();
        let spec = sc.base.telemetry.unwrap();
        let (label, fc) = sc.fleet_configs().unwrap().remove(0);
        let mode = mode_timeline(&label, &fc.with_telemetry(spec));
        let peak = |value: Track| mode.rows.iter().map(value).fold(0.0_f64, f64::max);
        assert!(
            peak(|r| r.queue_wait_mean_ms) > 0.0,
            "a contended bottleneck shows queue delay"
        );
        assert!(
            peak(|r| r.aqm_drop_prob_ppm_mean) > 0.0,
            "sustained contention raises PIE's drop probability"
        );
        let text = render(&sc, &TimelineOptions::default(), &[mode]);
        assert!(text.contains("queue delay"), "{text}");
        assert!(text.contains("aqm prob"), "{text}");
    }

    #[test]
    fn sparklines_scale_and_downsample() {
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[1.0, 7.0]).chars().count(), 2);
        assert_eq!(sparkline(&[0.0, 7.0]), "▁█");
        let long: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert!(sparkline(&long).chars().count() <= SPARK_WIDTH);
    }

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(slug("Timeline Demo"), "timeline_demo");
        assert_eq!(slug(""), "scenario");
    }
}
