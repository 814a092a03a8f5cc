//! The shipped `scenarios/example.json` document drives the full
//! pipeline: parse → typed [`Scenario`] → session configs → batch runner.
//! This is the CLI's code path minus the printing, so the example file
//! can never rot.

use mpdash::analysis::render_chunk_bars;
use mpdash::dash::video::Video;
use mpdash::explain::{explain_scenario, ExplainOptions};
use mpdash::obs::{MetricsSnapshot, TelemetrySpec, TraceEvent, TraceSink};
use mpdash::scenario::Scenario;
use mpdash::session::{
    run_batch, Job, RingSink, SessionReport, StreamingSession, Tracer, TransportMode,
};
use mpdash::sim::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::sync::{Arc, OnceLock};

#[path = "common/sha256.rs"]
mod sha256;
#[path = "common/signals.rs"]
mod signals;

fn example() -> Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/example.json");
    let text = std::fs::read_to_string(path).expect("example scenario readable");
    Scenario::from_json(&text).expect("example scenario parses")
}

/// The solo scenarios `scenarios/` ships, in the order `mpdash` would
/// print them; [`FLEET_TABLES`] holds the fleet ones.
const SOLO: [&str; 3] = ["example.json", "origins.json", "server_faults.json"];

/// Each shipped fleet scenario and the `sha256sum` of the comparison
/// table `mpdash <file>` prints.
const FLEET_TABLES: [(&str, &str); 3] = [
    (
        "fleet.json",
        "b07a3646c06b243296620b775718084f488f38a1ae1c6b35b9a539c3b8575e7a",
    ),
    (
        "churn.json",
        "fbbc536e2bdc0b2861bec565d02085b5fd9e0a0e481f7031766475d0109a57cb",
    ),
    (
        "aqm.json",
        "ca04def61f02dc0bb5bc02bf2cf2e2190aae71b139294665a9684a9606e9ed80",
    ),
];

fn scenario_path(file: &str) -> String {
    format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// The `mpdash` binary, run from the package root, with none of the
/// caller's `MPDASH_*` variables: a test sets the ones it means, so
/// `MPDASH_WORKERS=0 cargo test` or a traced shell changes nothing a test
/// sees and writes no trace.
fn mpdash() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mpdash"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    for var in [
        "MPDASH_WORKERS",
        "MPDASH_RESULTS_DIR",
        "MPDASH_TRACE",
        "MPDASH_TRACE_DIR",
        "MPDASH_TELEMETRY",
    ] {
        cmd.env_remove(var);
    }
    cmd
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
/// 0}` the WiFi disassociation at 300 s strands chunk 68. WiFi fails and
/// is never revived (only a pump revives, and nothing pumps), while the
/// dead cell path, the last live one, retries its RTO forever (ROADMAP
/// item 2). Until the transport is fixed the session must say so within an
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
                        && msg.contains("cell: 55480 B in flight")
                        && msg.contains("0 revivals, failed, revivable since 303.156s;")
                        && msg.contains("live, RTO at 3942.756s)"),
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
        let out = mpdash()
            .arg(flag)
            .arg(scenario_path("origins.json"))
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

/// `--chunks` draws the Figure 8 bars of solo sessions. A fleet scenario
/// has none to draw, so asking for them is a usage error, not a fleet
/// table printed without the bars it asked for.
#[test]
fn chunks_on_a_fleet_scenario_is_a_usage_error() {
    let out = mpdash()
        .arg("--chunks")
        .arg(scenario_path("fleet.json"))
        .output()
        .expect("mpdash runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--chunks draws the bars of solo sessions") && err.contains("usage: mpdash"),
        "{err}"
    );
}

/// A worker count that is set but unusable must stop the CLI before it
/// runs anything: falling back to every core would make a 1-vs-4
/// determinism comparison compare N with N.
#[test]
fn an_unusable_worker_count_is_a_usage_error() {
    let out = mpdash()
        .arg(scenario_path("example.json"))
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
        let mut cmd = mpdash();
        cmd.arg(scenario_path("origins.json"));
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
    let text = std::fs::read_to_string(scenario_path(file)).expect("shipped scenario readable");
    Scenario::from_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every session report a shipped solo scenario produces, by mode: each
/// file runs once, for every test that reads it.
fn solo_reports(file: &str) -> &'static [(String, SessionReport)] {
    static RUNS: [OnceLock<Vec<(String, SessionReport)>>; SOLO.len()] =
        [const { OnceLock::new() }; SOLO.len()];
    let at = SOLO
        .iter()
        .position(|f| *f == file)
        .expect("a solo scenario");
    RUNS[at].get_or_init(|| {
        shipped(file)
            .build()
            .into_iter()
            .map(|(label, cfg)| (label, StreamingSession::run(cfg)))
            .collect()
    })
}

/// Digest of `render` over each report, by mode.
fn digests(
    reports: &[(String, SessionReport)],
    render: impl Fn(&SessionReport) -> String,
) -> Vec<(String, u64)> {
    (reports.iter())
        .map(|(label, r)| (label.clone(), fnv1a(render(r).as_bytes())))
        .collect()
}

fn summary(report: &SessionReport) -> String {
    report.summary_json().to_compact()
}

/// Every chunk's Figure 8 bar, as `mpdash --chunks` draws them.
fn chunk_bars(report: &SessionReport) -> String {
    render_chunk_bars(&report.chunks, 24)
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
/// `mpdash explain` renders. The epoch series `summary_json` leaves out
/// are digested last, with the check that every signal name of
/// `tests/common/signals.rs` is nonzero in some pinned run. A digest that moves means the document now
/// builds a different config or the simulator changed behaviour — then
/// re-record, and say so in the PR.
#[test]
fn shipped_scenarios_reproduce_their_golden_summaries() {
    let fleet: Vec<(String, u64)> = shipped("churn.json")
        .fleet_configs()
        .expect("churn scenario has a fleet")
        .into_iter()
        .map(|(label, fc)| {
            let report = mpdash::fleet::run(&fc);
            assert!(report.shed_sessions > 0, "{label}: the cap sheds");
            (label, fnv1a(report.summary_json().to_compact().as_bytes()))
        })
        .collect();
    assert_eq!(
        fleet,
        [
            ("Baseline".to_string(), 13287554142692247610),
            ("Rate".to_string(), 11431705358340053705),
        ]
    );

    let origins = solo_reports("origins.json");
    assert_eq!(
        digests(origins, summary),
        [("Rate".to_string(), 8387712229148742842)]
    );
    let server_faults = solo_reports("server_faults.json");
    assert_eq!(
        digests(server_faults, summary),
        [
            ("Baseline".to_string(), 12917740376144067320),
            ("Rate".to_string(), 11655620368456001984),
        ]
    );
    // The Figure 8 bars of the same reports: each chunk's level, size,
    // fetch time and per-path byte split, the `--chunks` output. Recorded
    // while the split was still a replay of the packet log.
    assert_eq!(
        digests(origins, chunk_bars),
        [("Rate".to_string(), 16718078632578519832)]
    );
    assert_eq!(
        digests(server_faults, chunk_bars),
        [
            ("Baseline".to_string(), 13785779749881346158),
            ("Rate".to_string(), 5506723724756591737),
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

    // The series no summary carries: `server_faults.json` at 2 s
    // telemetry, whose error burst writes the retries, and `aqm.json`'s
    // fleet, whose FQ-PIE AP marks packets — the names `crates/fleet`'s
    // churn mix leaves at zero. Per mode: the session's series, or the
    // fleet's, each bottleneck's and the loop's profile.
    let mut epochs = Vec::new();
    let mut faults = Vec::new();
    for (label, mut cfg) in shipped("server_faults.json").build() {
        cfg.telemetry = Some(TelemetrySpec::seconds(2.0));
        let series = StreamingSession::run(cfg).epochs.expect("telemetry on");
        faults.push((label, fnv1a(series.to_json().to_compact().as_bytes())));
        epochs.push(series);
    }
    assert_eq!(
        faults,
        [
            ("Baseline".to_string(), 7957233557685100758),
            ("Rate".to_string(), 5729256874851343258),
        ]
    );
    let (mut aqm, mut queues) = (Vec::new(), Vec::new());
    for (label, fc) in shipped("aqm.json").fleet_configs().expect("a fleet") {
        let report = mpdash::fleet::run(&fc);
        let mut series = vec![report.epochs.expect("telemetry on")];
        for b in report.bottlenecks {
            series.push(b.epochs.expect("telemetry on"));
            queues.push(b.metrics);
        }
        let text: String = (series.iter())
            .map(|e| e.to_json().to_compact())
            .chain([report.profile.to_json().to_compact()])
            .collect();
        aqm.push((label, fnv1a(text.as_bytes())));
        epochs.extend(series);
    }
    assert_eq!(
        aqm,
        [
            ("Baseline".to_string(), 15684194935951416038),
            ("Rate".to_string(), 74230564494347594),
        ]
    );
    let sessions = solo_reports("server_faults.json")
        .iter()
        .map(|(_, r)| &r.metrics);
    let registries: Vec<&MetricsSnapshot> = queues.iter().chain(sessions).collect();
    let zeros = signals::zeros(&epochs.iter().collect::<Vec<_>>(), &registries);
    let unwritten: Vec<&str> = (signals::CHURN_MIX_ZEROS.into_iter())
        .filter(|name| zeros.iter().any(|z| z == name))
        .collect();
    assert_eq!(unwritten, ["registry:hedge_wins_primary"]);
}

/// Each mode's work by event kind, the `events (data, ack, rto,
/// app_timer, reverse_msg)` of `mpdash`'s `[profile]` line, for the three
/// shipped solo scenarios. `example.json`'s WiFi disassociation at 300 s
/// takes its modes through link-downs, subflow failures and revivals (21
/// of each under a trace), so its `rto` column counts the transport
/// timer's pops on the failure path too. A change that moves a timer, a
/// packet or a decision moves these; one that moves none keeps them
/// exactly. Every stream names its event-queue lane (DESIGN §4.1), so no
/// mode sends over 1 % of its events through the queue's heap: the most
/// is `origins` Rate's 0.50 % (477 of 95,157).
#[test]
fn shipped_solo_modes_pop_their_pinned_event_mix() {
    let mut mix = String::new();
    for file in SOLO {
        let name = file.trim_end_matches(".json");
        for (label, report) in solo_reports(file) {
            let p = report.sim_profile;
            let k = p.by_kind;
            writeln!(
                mix,
                "{name} {label}: {} (data {}, ack {}, rto {}, app_timer {}, reverse_msg {})",
                p.events_popped, k.data, k.ack, k.rto, k.app_timer, k.reverse_msg
            )
            .unwrap();
            assert!(
                p.heap_fallbacks * 100 <= p.events_popped,
                "{name} {label}: {} of {} events took the heap",
                p.heap_fallbacks,
                p.events_popped
            );
        }
    }
    assert_eq!(
        mix,
        "\
example Baseline: 370183 (data 177981, ack 177981, rto 3659, app_timer 10412, reverse_msg 150)
example Rate: 778699 (data 181824, ack 182410, rto 4060, app_timer 410255, reverse_msg 150)
example Duration: 783401 (data 182405, ack 182995, rto 4093, app_timer 413758, reverse_msg 150)
example Throttle700k: 236453 (data 107640, ack 107640, rto 2942, app_timer 18081, reverse_msg 150)
example WiFi-only: 244476 (data 108507, ack 108507, rto 2016, app_timer 25296, reverse_msg 150)
origins Rate: 95157 (data 45616, ack 45754, rto 749, app_timer 2994, reverse_msg 44)
server_faults Baseline: 85200 (data 41446, ack 41446, rto 684, app_timer 1574, reverse_msg 50)
server_faults Rate: 88679 (data 42478, ack 42606, rto 736, app_timer 2809, reverse_msg 50)
"
    );
}

/// `mpdash explain`'s text, which no summary carries: one solo mode
/// (`origins.json`'s `Rate`, with its routing, hedges, cache and the
/// pool primary's blackhole) and two fleet clients (`fleet.json`'s
/// client 3, with its shared-queue waits, and `churn.json`'s client 0,
/// inside fault domain `region`'s WiFi disassociation). Recorded while
/// each chunk's per-path split was a replay of the packet log; the
/// origins text moved when explain began reading the replayed config's
/// faults (pool origins and fault domains included), and again when a
/// pool origin's fault began counting only for chunks routed to it.
#[test]
fn explain_reproduces_its_golden_text() {
    let solo = explain_scenario(&shipped("origins.json"), &ExplainOptions::default())
        .expect("origins explains");
    let client = |file: &str, k| {
        let opts = ExplainOptions {
            client: Some(k),
            ..ExplainOptions::default()
        };
        explain_scenario(&shipped(file), &opts).expect("a fleet client explains")
    };
    let (fleet, churn) = (client("fleet.json", 3), client("churn.json", 0));
    assert_eq!(
        [solo, fleet, churn].map(|text| fnv1a(text.as_bytes())),
        [
            5696067966782480675,
            13474198893926727069,
            1395449403173759659
        ]
    );
}

/// `explain --client K` traces client K alone whatever the environment
/// says: the ring is the base tracer and `trace_client` names K, so the
/// 15 other clients write no line to an `MPDASH_TRACE` file, and the
/// text is `explain_reproduces_its_golden_text`'s.
#[test]
fn explain_writes_nothing_to_the_environment_trace() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("explain-env-trace");
    let out = mpdash()
        .arg("explain")
        .arg(scenario_path("fleet.json"))
        .args(["--client", "3"])
        .env("MPDASH_TRACE", "ndjson")
        .env("MPDASH_TRACE_DIR", &dir)
        .output()
        .expect("mpdash runs");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(fnv1a(&out.stdout), 13474198893926727069);
    let trace = std::fs::read_to_string(dir.join("trace.ndjson")).unwrap_or_default();
    assert_eq!(trace.lines().count(), 0);
}

/// The epoch rows `mpdash timeline <scenario> --quick` writes as NDJSON
/// for the three shipped fleet scenarios: one row an epoch of the
/// clients', bottlenecks' and fleet loop's series merged. A row renders
/// 20 of the 32 epoch names of `tests/common/signals.rs`, histograms
/// only as their means, so the series themselves are digested by
/// `shipped_scenarios_reproduce_their_golden_summaries` and the fleet
/// crate's churn-mix test. The aqm and fleet files were recorded before
/// the series' write path moved from by-name updates to resolved
/// handles, the churn file when its cap began to shed; they hash, by
/// `sha256sum`, to `d459e788…971c` (aqm), `e6612590…c2a6` (churn) and
/// `f4fe2339…82dc` (fleet). The same runs' stdout, less the two lines
/// naming the artifact paths, pins the sparklines and per-mode headers;
/// recorded before the NDJSON rows stopped passing through a typed copy.
/// Each file runs at 4 workers, and `fleet.json` at 1 too: the bytes are
/// the sequential reference's at any worker count.
#[test]
fn timeline_ndjson_reproduces_its_golden_bytes() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("timeline-golden");
    for (file, workers, ndjson, digest, stdout_digest) in [
        (
            "aqm.json",
            &["4"][..],
            "TIMELINE_fleet_8_fq_pie_ap.ndjson",
            0x8036_b2a9_3d99_5a59_u64,
            0x9631_5359_2d7a_d10c_u64,
        ),
        (
            "churn.json",
            &["4"],
            "TIMELINE_churn_8_domain_outage_shed.ndjson",
            0xa0c6_1699_60d8_ea8a,
            0x1705_d091_c367_0df5,
        ),
        (
            "fleet.json",
            &["1", "4"],
            "TIMELINE_fleet_16_shared_ap.ndjson",
            0xeaa9_b936_8b11_bdcd,
            0xf76f_1ce3_eee3_c180,
        ),
    ] {
        for &n in workers {
            let out = mpdash()
                .arg("timeline")
                .arg(scenario_path(file))
                .arg("--quick")
                .env("MPDASH_RESULTS_DIR", &dir)
                .env("MPDASH_WORKERS", n)
                .output()
                .expect("mpdash runs");
            assert!(out.status.success(), "{file}: {out:?}");
            let bytes = std::fs::read(dir.join(ndjson)).expect("timeline NDJSON written");
            assert_eq!(fnv1a(&bytes), digest, "{file} at {n} workers");
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
            let report: String = (stdout.lines())
                .filter(|l| !l.starts_with("ndjson: ") && !l.starts_with("profile: "))
                .flat_map(|l| [l, "\n"])
                .collect();
            assert_eq!(
                fnv1a(report.as_bytes()),
                stdout_digest,
                "{file} at {n} workers: {report}"
            );
        }
    }
}

/// The comparison table each shipped fleet scenario prints, byte for
/// byte: no other test reads it. A table names the path it was given, so
/// the pins run `scenarios/<file>` from the package root.
#[test]
fn fleet_scenarios_print_their_pinned_tables() {
    for (file, table) in FLEET_TABLES {
        let out = mpdash()
            .arg(format!("scenarios/{file}"))
            .output()
            .expect("mpdash runs");
        assert!(out.status.success(), "{file}: {out:?}");
        assert_eq!(sha256::hex(&out.stdout), table, "{file}");
    }
}

/// With no `trace_client`, `MPDASH_TRACE` reaches every fleet client:
/// `fleet.json` logs all 20 chunks of its 16 clients in both modes, and
/// prints the untraced table.
#[test]
fn an_environment_trace_reaches_every_fleet_client() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet-env-trace");
    let out = mpdash()
        .arg("scenarios/fleet.json")
        .env("MPDASH_TRACE", "ndjson")
        .env("MPDASH_TRACE_DIR", &dir)
        .output()
        .expect("mpdash runs");
    assert!(out.status.success(), "{out:?}");
    assert_eq!(sha256::hex(&out.stdout), FLEET_TABLES[0].1);
    let trace = std::fs::read_to_string(dir.join("trace.ndjson")).expect("trace written");
    let fetched = (trace.lines())
        .filter(|l| l.contains(r#""kind":"chunk_fetched""#))
        .count();
    assert_eq!(fetched, 2 * 16 * 20);
}

/// `mpdash --chunks` draws each mode's Figure 8 bars under its table row:
/// the first 20 chunks of the bars
/// `shipped_scenarios_reproduce_their_golden_summaries` pins, under the
/// `path share (#=cellular)` header.
#[test]
fn chunks_draws_the_pinned_bars() {
    let files = ["origins.json", "server_faults.json"];
    let out = mpdash()
        .arg("--chunks")
        .args(files.map(scenario_path))
        .output()
        .expect("mpdash runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    for file in files {
        for (label, report) in solo_reports(file) {
            let bars = render_chunk_bars(&report.chunks[..20], 24);
            assert!(bars
                .starts_with("idx | lvl |    size |  dl time | cell% | path share (#=cellular)\n"));
            assert!(stdout.contains(&bars), "{file} {label}: {stdout}");
        }
    }
}

/// Every file in `scenarios/` is one the pins above run: a new scenario
/// fails here until a test pins what it prints.
#[test]
fn every_shipped_scenario_is_pinned() {
    let shipped: BTreeSet<String> =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios"))
            .expect("scenarios/ readable")
            .map(|entry| entry.expect("directory entry").file_name())
            .map(|name| name.into_string().expect("UTF-8 file name"))
            .filter(|name| name.ends_with(".json"))
            .collect();
    let pinned: BTreeSet<String> = (SOLO.into_iter())
        .chain(FLEET_TABLES.map(|(file, _)| file))
        .map(String::from)
        .collect();
    assert_eq!(shipped, pinned);
}

/// Keeps only the scripted-fault edges, link and server, as NDJSON
/// lines in emission order.
#[derive(Default)]
struct FaultEdgeLines(std::sync::Mutex<String>);

impl TraceSink for FaultEdgeLines {
    fn record(&self, t: SimTime, event: &TraceEvent) {
        let kind = event.kind();
        if kind.starts_with("fault_") || kind.starts_with("server_fault_") {
            let mut lines = self.0.lock().unwrap();
            lines.push_str(&event.to_json(t).to_compact());
            lines.push('\n');
        }
    }
}

/// Every mode's fault-edge lines, as (line count, digest).
fn fault_edge_pin(sc: &Scenario) -> (usize, u64) {
    let sink = Arc::new(FaultEdgeLines::default());
    for (_, cfg) in sc.build() {
        StreamingSession::run(cfg.with_tracer(Tracer::new(sink.clone())));
    }
    let lines = sink.0.lock().unwrap();
    (lines.lines().count(), fnv1a(lines.as_bytes()))
}

/// The activation and clearance lines of scripted faults, at both
/// layers: all four link-fault kinds on both paths of a short inline
/// scenario, and `server_faults.json`'s three server kinds. Recorded
/// before the link and server scripts shared one window type and one
/// edge tracker.
#[test]
fn fault_edge_lines_reproduce_their_golden_digests() {
    let link_faults = Scenario::from_json(
        r#"{
          "name": "every link-fault kind",
          "video": {"custom": {"levels_mbps": [0.58, 1.01, 1.47, 2.41], "chunk_secs": 4, "n_chunks": 30}},
          "wifi": {"synthetic": {"mean_mbps": 4.0, "sigma": 0.1, "seed": 7}},
          "cell": {"constant": 3.0},
          "abr": "festive",
          "buffer_secs": 20,
          "modes": ["vanilla", "mpdash_rate"],
          "wifi_faults": [
            {"burst_loss": {"at_s": 5, "secs": 10, "p_enter": 0.1, "p_exit": 0.3, "loss": 0.6}},
            {"rtt_spike": {"at_s": 12, "secs": 8, "extra_ms": 150, "jitter_ms": 40}},
            {"rate_collapse": {"at_s": 30, "secs": 20, "factor": 0.2}},
            {"disassociation": {"at_s": 60, "secs": 6, "reassoc_s": 2}}
          ],
          "cell_faults": [
            {"rtt_spike": {"at_s": 40, "secs": 10}},
            {"disassociation": {"at_s": 90, "secs": 3}}
          ]
        }"#,
    )
    .unwrap();
    assert_eq!(fault_edge_pin(&link_faults), (22, 12764126579401084950));
    assert_eq!(
        fault_edge_pin(&shipped("server_faults.json")),
        (12, 3738484622233760362)
    );
}

/// A session's buffer transitions, `(time, state, buffer seconds)`: the
/// rebuffering report's input.
#[derive(Default)]
struct BufferTransitions(std::sync::Mutex<Vec<(SimTime, &'static str, f64)>>);

impl TraceSink for BufferTransitions {
    fn record(&self, t: SimTime, event: &TraceEvent) {
        if let TraceEvent::BufferTransition { state, buffer_s } = *event {
            self.0.lock().unwrap().push((t, state, buffer_s));
        }
    }
}

/// The §6 tool's rebuffering report as text: each stall's start and
/// length, then each buffer sample's time and level, in nanoseconds and
/// `f64` bits; with the stall count, the sample count and the peak.
fn rebuffer_pin(
    stalls: &[(SimTime, SimDuration)],
    buffer: &[(SimTime, f64)],
) -> (usize, usize, f64, u64) {
    let mut text = String::new();
    for (at, len) in stalls {
        writeln!(text, "stall {} {}", at.as_nanos(), len.as_nanos()).unwrap();
    }
    for (at, level) in buffer {
        writeln!(text, "buffer {} {:x}", at.as_nanos(), level.to_bits()).unwrap();
    }
    let peak = buffer.iter().map(|&(_, b)| b).fold(0.0, f64::max);
    (stalls.len(), buffer.len(), peak, fnv1a(text.as_bytes()))
}

/// The rebuffering report of `server_faults.json`'s two modes (its 5xx
/// burst and stalled body cost each one stall) and of the
/// `analyze_session` example's session (150 chunks, no stall, a 36 s
/// peak), read off each session's buffer transitions. Recorded from the
/// player's own event log, before the player stopped keeping one.
#[test]
fn the_rebuffer_report_reproduces_its_golden_digests() {
    use mpdash::analysis::{buffer_trajectory, stall_intervals};
    use mpdash::dash::abr::AbrKind;
    use mpdash::session::SessionConfig;
    use mpdash::trace::table1;
    let pin = |cfg: SessionConfig| {
        let sink = Arc::new(BufferTransitions::default());
        StreamingSession::run(cfg.with_tracer(Tracer::new(sink.clone())));
        let transitions = sink.0.lock().unwrap();
        rebuffer_pin(
            &stall_intervals(&transitions),
            &buffer_trajectory(&transitions),
        )
    };
    let faults: Vec<_> = (shipped("server_faults.json").build().into_iter())
        .map(|(label, cfg)| (label, pin(cfg)))
        .collect();
    assert_eq!(
        faults,
        [
            (
                "Baseline".to_string(),
                (1, 40, 9.618828, 1268972553093168984)
            ),
            (
                "Rate".to_string(),
                (1, 40, 8.994760631, 16121053055227226099)
            ),
        ]
    );
    let example = SessionConfig::controlled(
        table1::synthetic_profile_pair(3.8, 3.0, 0.10, 42),
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    );
    assert_eq!(pin(example), (0, 150, 36.002597416, 1617718841834934760));
}
