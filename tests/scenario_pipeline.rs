//! The shipped `scenarios/example.json` document drives the full
//! pipeline: parse → typed [`Scenario`] → session configs → batch runner.
//! This is the CLI's code path minus the printing, so the example file
//! can never rot.

use mpdash::dash::video::Video;
use mpdash::scenario::Scenario;
use mpdash::session::{run_batch, Job, RingSink, StreamingSession, Tracer, TransportMode};
use mpdash::sim::SimDuration;
use std::sync::Arc;

fn example() -> Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/example.json");
    let text = std::fs::read_to_string(path).expect("example scenario readable");
    Scenario::from_json(&text).expect("example scenario parses")
}

#[test]
fn example_scenario_round_trips_into_session_configs() {
    let sc = example();
    assert_eq!(
        sc.name,
        "paper motivating network: WiFi 3.8 Mbps + LTE 3.0 Mbps"
    );
    assert_eq!(sc.base.buffer_capacity, SimDuration::from_secs(40));

    let configs = sc.build();
    assert_eq!(configs.len(), 5, "one config per declared mode");
    let labels: Vec<&str> = configs.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(
        labels,
        ["Baseline", "Rate", "Duration", "Throttle700k", "WiFi-only"]
    );
    for (_, cfg) in &configs {
        // Declared document fields land in the config.
        assert_eq!(cfg.buffer_capacity, SimDuration::from_secs(40));
        assert_eq!(cfg.wifi.delay * 2, SimDuration::from_millis(50));
        assert_eq!(cfg.cell.delay * 2, SimDuration::from_millis(55));
        assert_eq!(cfg.video.name(), "Big Buck Bunny");
        assert!((cfg.priors.0.as_mbps_f64() - 3.8).abs() < 0.4);
        assert!((cfg.priors.1.as_mbps_f64() - 3.0).abs() < 0.1);
    }
    assert_eq!(configs[3].1.mode, TransportMode::Throttled { kbps: 700 });
}

#[test]
fn example_scenario_runs_through_the_batch_runner() {
    let sc = example();
    // Keep the smoke test fast: shrink the video, preserve everything
    // else the document declared.
    let jobs: Vec<_> = sc
        .build()
        .into_iter()
        .map(|(label, cfg)| {
            let tiny = Video::new("tiny", &[0.5, 1.0], SimDuration::from_secs(2), 4);
            Job::session(label, cfg.with_video(tiny))
        })
        .collect();
    assert_eq!(jobs.len(), 5);
    let results = run_batch(jobs, 2);
    assert_eq!(results.len(), 5);
    assert_eq!(results[0].label, "Baseline");
    let reports: Vec<_> = results
        .iter()
        .map(|r| r.report.as_ref().expect("session job"))
        .collect();
    for (r, report) in results.iter().zip(&reports) {
        assert_eq!(report.qoe_all.chunks, 4, "{}: all chunks fetched", r.label);
        assert!(report.duration > SimDuration::ZERO);
    }
    // WiFi-only really stays off cellular; the baseline does not.
    assert_eq!(reports[4].cell_bytes, 0);
    assert!(reports[0].cell_bytes > 0);
}

/// The parse error of a one-mode scenario whose WiFi path is the trace
/// file at `path`: a trace file is read while the document is parsed,
/// so a document that parses always builds.
fn parse_error_of_trace_at(tag: &str, path: &str) -> String {
    let doc = format!(
        r#"{{"name": "{tag}", "video": {{"named": "big_buck_bunny"}},
            "wifi": {{"file": "{path}"}}, "cell": {{"constant": 3.0}},
            "abr": "gpac", "modes": ["vanilla"]}}"#
    );
    Scenario::from_json(&doc).expect_err("the trace must be rejected")
}

/// [`parse_error_of_trace_at`] a file holding `trace`, and the path the
/// file was written to.
fn parse_error_of_trace_file(tag: &str, trace: &str) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("mpdash-scenario-pipeline-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wifi.json");
    std::fs::write(&path, trace).unwrap();
    let path = path.display().to_string();
    let err = parse_error_of_trace_at(tag, &path);
    (path, err)
}

/// A trace file that is not there fails the parse naming the path.
#[test]
fn a_missing_trace_file_fails_the_parse_naming_it() {
    let path = std::env::temp_dir().join("mpdash-scenario-pipeline-missing/absent.json");
    let _ = std::fs::remove_file(&path);
    let path = path.display().to_string();
    let err = parse_error_of_trace_at("missing", &path);
    assert!(err.starts_with(&format!("reading {path}: ")), "{err}");
}

/// A `{"file": …}` trace whose looping period ends before its last point
/// would silently never play that point; the parse names the file and
/// the rule instead.
#[test]
fn a_trace_file_whose_period_cuts_off_a_point_fails_the_build() {
    let (path, err) = parse_error_of_trace_file(
        "short-period",
        r#"{"name": "short", "period_secs": 1.5,
        "points": [{"at_secs": 0, "mbps": 4.0}, {"at_secs": 2, "mbps": 1.0}]}"#,
    );
    assert_eq!(
        err,
        format!("{path}: period_secs must be >= the last point's at_secs")
    );
}

/// A trace file is stored in nanoseconds, so it is judged in them: two
/// points that round to one instant would drop the first one's rate, and a
/// period that rounds to zero would make a looping trace one-shot. Both
/// pass every comparison made in seconds.
#[test]
fn a_trace_file_that_collapses_in_nanoseconds_fails_the_build() {
    let (path, err) = parse_error_of_trace_file(
        "colliding-points",
        r#"{"name": "collide", "period_secs": null,
        "points": [{"at_secs": 0, "mbps": 1.0}, {"at_secs": 1.0, "mbps": 2.0},
                   {"at_secs": 1.0000000002, "mbps": 3.0}]}"#,
    );
    assert_eq!(
        err,
        format!("{path}: points must be strictly increasing in time")
    );
    let (path, err) = parse_error_of_trace_file(
        "zero-period",
        r#"{"name": "zero", "period_secs": 1e-10,
        "points": [{"at_secs": 0, "mbps": 4.0}]}"#,
    );
    assert_eq!(
        err,
        format!(
            "{path}: times and rates must be finite and >= 0, period_secs at least a nanosecond"
        )
    );
}

/// A valid document can wedge the transport: with `"cell": {"constant":
/// 0}` the WiFi disassociation at 300 s strands chunk 68 on two dead
/// subflows and only the tick chain stays alive (ROADMAP item 3 has the
/// state). Until the transport is fixed the session must say so within an
/// event budget, not tick forever; the modes that never enable the dead
/// path finish as they always did.
#[test]
fn a_session_wedged_on_a_dead_cell_path_panics_naming_the_chunk() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/example.json");
    let text = std::fs::read_to_string(path).expect("example scenario readable");
    let doc = text.replace(
        r#""cell": { "constant": 3.0 }"#,
        r#""cell": { "constant": 0 }"#,
    );
    assert_ne!(doc, text, "the example's cell line changed shape");
    let configs = Scenario::from_json(&doc)
        .expect("a dead path is a valid document")
        .build();
    for (label, cfg) in configs {
        match label.as_str() {
            "Rate" => {
                let wedged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut s = StreamingSession::start(cfg);
                    let mut budget = 2_000_000u32;
                    while !s.finished() && s.step_once() {
                        budget -= 1;
                        assert!(budget > 0, "event budget spent without a verdict");
                    }
                }))
                .expect_err("the dead cell path must wedge the session");
                let msg = wedged.downcast_ref::<String>().expect("a formatted panic");
                assert!(
                    msg.starts_with(
                        "session wedged at 3900.081s: chunk 68 holds 407120 of 1028827 B"
                    ) && msg.contains("wifi: 0 B in flight, 1 failures / 0 revivals")
                        && msg.contains("cell: 55480 B in flight"),
                    "{msg}"
                );
            }
            "Baseline" | "WiFi-only" => {
                let r = StreamingSession::run(cfg);
                assert_eq!(r.chunks.len(), 150, "{label}");
                assert_eq!(r.cell_bytes, 0, "{label}");
            }
            _ => {}
        }
    }
}

/// `mpdash` takes one flag, `--chunks`: a typo of it (`--chunk`) or
/// another subcommand's flag (`--quick`) is a usage error, not a run
/// without the output it asked for.
#[test]
fn an_unknown_flag_is_a_usage_error() {
    for flag in ["--chunk", "--quick"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_mpdash"))
            .arg(flag)
            .arg(format!(
                "{}/scenarios/origins.json",
                env!("CARGO_MANIFEST_DIR")
            ))
            .output()
            .expect("mpdash runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag}: nothing ran");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag '{flag}'")) && err.contains("usage: mpdash"),
            "{err}"
        );
    }
}

/// A worker count that is set but unusable must stop the CLI before it
/// runs anything: falling back to every core would make a 1-vs-4
/// determinism comparison compare N with N.
#[test]
fn an_unusable_worker_count_is_a_usage_error() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mpdash"))
        .arg(format!(
            "{}/scenarios/example.json",
            env!("CARGO_MANIFEST_DIR")
        ))
        .env("MPDASH_WORKERS", "four")
        .output()
        .expect("mpdash runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("MPDASH_WORKERS") && err.contains("'four'"),
        "{err}"
    );
}

/// `MPDASH_TELEMETRY` must never turn a working run into a failing one:
/// an epoch too fine to be real (`1e-10` rounds to zero nanoseconds and
/// used to panic every job; `0.000001` used to exhaust memory on dense
/// cells) warns, disables telemetry, and changes nothing on stdout.
#[test]
fn a_sub_millisecond_telemetry_epoch_warns_and_disables() {
    let run = |telemetry: Option<&str>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_mpdash"));
        cmd.arg(format!(
            "{}/scenarios/origins.json",
            env!("CARGO_MANIFEST_DIR")
        ))
        .env_remove("MPDASH_TELEMETRY");
        if let Some(v) = telemetry {
            cmd.env("MPDASH_TELEMETRY", v);
        }
        cmd.output().expect("mpdash runs")
    };
    let off = run(None);
    assert!(off.status.success(), "{off:?}");
    for v in ["1e-10", "0.000001"] {
        let out = run(Some(v));
        assert!(out.status.success(), "{v}: {out:?}");
        assert_eq!(out.stdout, off.stdout, "{v}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unusable MPDASH_TELEMETRY") && err.contains(v),
            "{v}: {err}"
        );
    }
}

fn shipped(file: &str) -> Scenario {
    let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("shipped scenario readable");
    Scenario::from_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of every session summary a solo scenario document produces.
fn solo_digests(file: &str) -> Vec<(String, u64)> {
    shipped(file)
        .build()
        .into_iter()
        .map(|(label, cfg)| {
            let summary = StreamingSession::run(cfg).summary_json().to_compact();
            (label, fnv1a(summary.as_bytes()))
        })
        .collect()
}

/// "Same behaviour bit for bit" as a tier-1 test: each digest below was
/// recorded at the commit before the code it guards was rewritten (the
/// scenario decoder for the first two, the session driver split for the
/// last two). `churn.json` exercises churn, a fault domain, overload, two
/// shared links, telemetry and the watchdog; `origins.json` the pool,
/// hedging, per-origin faults, lifecycle and the cache;
/// `server_faults.json` an error burst, a stalled body and a slow first
/// byte under the deadline-aware lifecycle. The last digest covers the
/// ring-traced event stream of `origins.json` — event order is what
/// `mpdash explain` renders. A digest that moves means the document now
/// builds a different config or the simulator changed behaviour — then
/// re-record, and say so in the PR.
#[test]
fn shipped_scenarios_reproduce_their_golden_summaries() {
    let fleet: Vec<(String, u64)> = shipped("churn.json")
        .fleet_configs()
        .expect("churn scenario has a fleet")
        .into_iter()
        .map(|(label, fc)| {
            let summary = mpdash::fleet::run(&fc).summary_json().to_compact();
            (label, fnv1a(summary.as_bytes()))
        })
        .collect();
    assert_eq!(
        fleet,
        [
            ("Baseline".to_string(), 11554707720325534327),
            ("Rate".to_string(), 16090460244447604868),
        ]
    );

    assert_eq!(
        solo_digests("origins.json"),
        [("Rate".to_string(), 8387712229148742842)]
    );
    assert_eq!(
        solo_digests("server_faults.json"),
        [
            ("Baseline".to_string(), 12917740376144067320),
            ("Rate".to_string(), 11655620368456001984),
        ]
    );

    let ring = Arc::new(RingSink::new(1 << 20));
    for (_, cfg) in shipped("origins.json").build() {
        StreamingSession::run(cfg.with_tracer(Tracer::new(ring.clone())));
    }
    let events = ring.events();
    assert!(
        events.len() < 1 << 20,
        "the ring must hold the whole stream"
    );
    let stream: String = events
        .iter()
        .map(|(t, e)| e.to_json(*t).to_compact() + "\n")
        .collect();
    assert_eq!(
        (events.len(), fnv1a(stream.as_bytes())),
        (91901, 5741721942121880656)
    );
}

/// The epoch series' bytes, which no `summary_json` carries and so no
/// golden above sees: the NDJSON `mpdash timeline <scenario> --quick`
/// writes for the three shipped fleet scenarios — every client's series,
/// every bottleneck's and the fleet loop's own, merged and rendered.
/// Recorded at the commit before the series' write path moved from
/// by-name updates to resolved handles (PR 19); the same files hash, by
/// `sha256sum`, to `d459e788…971c` (aqm), `ad7df5e1…be89` (churn) and
/// `f4fe2339…82dc` (fleet).
#[test]
fn timeline_ndjson_reproduces_its_golden_bytes() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("timeline-golden");
    for (file, ndjson, digest) in [
        (
            "aqm.json",
            "TIMELINE_fleet_8_fq_pie_ap.ndjson",
            0x8036_b2a9_3d99_5a59_u64,
        ),
        (
            "churn.json",
            "TIMELINE_churn_8_domain_outage_shed.ndjson",
            0xb473_2f5e_337e_9657,
        ),
        (
            "fleet.json",
            "TIMELINE_fleet_16_shared_ap.ndjson",
            0xeaa9_b936_8b11_bdcd,
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_mpdash"))
            .arg("timeline")
            .arg(format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR")))
            .arg("--quick")
            .env("MPDASH_RESULTS_DIR", &dir)
            .env_remove("MPDASH_TELEMETRY")
            .output()
            .expect("mpdash runs");
        assert!(out.status.success(), "{file}: {out:?}");
        let bytes = std::fs::read(dir.join(ndjson)).expect("timeline NDJSON written");
        assert_eq!(fnv1a(&bytes), digest, "{file}");
    }
}
