//! The `mpdash` CLI: run a JSON scenario and print the full comparison,
//! or replay one mode with tracing on and explain it chunk by chunk.
//!
//! ```sh
//! cargo run --release --bin mpdash -- scenarios/example.json
//! cargo run --release --bin mpdash -- --chunks scenarios/example.json   # + Figure 8 bars
//! cargo run --release --bin mpdash -- explain scenarios/example.json --chunk 40
//! cargo run --release --bin mpdash -- schema      # the scenario-key reference
//! ```

use mpdash::analysis::render_chunk_bars;
use mpdash::explain::{explain_scenario, ExplainOptions};
use mpdash::fleet::FleetConfig;
use mpdash::obs::RunEnv;
use mpdash::scenario::{reference, Scenario};
use mpdash::session::{run_batch, Job};
use mpdash::timeline::{timeline_scenario, TimelineOptions};
use std::process::ExitCode;

const USAGE: &str = "\
usage: mpdash [--chunks] <scenario.json>...
       mpdash explain <scenario.json> [--chunk N] [--mode LABEL] [--client K]
       mpdash timeline <scenario.json> [--quick]
       mpdash schema
see scenarios/example.json for the document format, `mpdash schema` for every key";

/// The scenario at `path`, or `None` once the reason is on stderr.
fn load(path: &str) -> Option<Scenario> {
    Scenario::load(path)
        .map_err(|e| eprintln!("error: {e}"))
        .ok()
}

/// `mpdash explain <scenario.json> [--chunk N] [--mode LABEL]`: replay
/// one mode with a trace ring attached and print the per-chunk timeline.
fn run_explain(args: &[String]) -> ExitCode {
    let mut opts = ExplainOptions::default();
    let mut path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--chunk" => {
                let Some(n) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --chunk needs a chunk index");
                    return ExitCode::from(2);
                };
                opts.chunk = Some(n);
            }
            "--mode" => {
                let Some(label) = it.next() else {
                    eprintln!("error: --mode needs a mode label (e.g. Rate)");
                    return ExitCode::from(2);
                };
                opts.mode = Some(label.clone());
            }
            "--client" => {
                let Some(k) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --client needs a client index");
                    return ExitCode::from(2);
                };
                opts.client = Some(k);
            }
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: mpdash explain <scenario.json> [--chunk N] [--mode LABEL] [--client K]");
        return ExitCode::from(2);
    };
    let Some(scenario) = load(&path) else {
        return ExitCode::FAILURE;
    };
    match explain_scenario(&scenario, &opts) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `mpdash timeline <scenario.json> [--quick]`: run the fleet per mode
/// with epoch telemetry forced on and render fleet-wide time series.
fn run_timeline(args: &[String], env: &RunEnv) -> ExitCode {
    let mut opts = TimelineOptions::default();
    let mut path = None;
    for arg in args {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: mpdash timeline <scenario.json> [--quick]");
        return ExitCode::from(2);
    };
    let Some(mut scenario) = load(&path) else {
        return ExitCode::FAILURE;
    };
    // The tracer only: a timeline draws the document's epochs, else 1 s.
    env.stamp(&mut scenario.base.tracer, &mut None);
    match timeline_scenario(&scenario, &opts, env.workers, &env.artifact_dir) {
        Ok(out) => {
            print!("{}", out.rendered);
            println!("\nndjson: {}", out.ndjson_path.display());
            println!("profile: {}", out.profile_path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run a fleet scenario: one co-simulated fleet per mode, each as one
/// batch job, rendered as a cross-client comparison. Returns false when
/// any mode failed.
fn run_fleet_scenario(
    name: &str,
    configs: Vec<(String, FleetConfig)>,
    path: &str,
    workers: usize,
) -> bool {
    let clients = configs.first().map_or(0, |(_, fc)| fc.clients);
    println!("scenario: {name} ({path}) — fleet of {clients} clients per mode");
    println!(
        "{:<16} {:>10} {:>10} {:>9} {:>13} {:>10} {:>7} {:>9}",
        "mode", "WiFi MB", "LTE MB", "bitrate", "jain(bitrate)", "jain(LTE)", "stalls", "miss rate"
    );
    let jobs = configs
        .into_iter()
        .map(|(label, fc)| Job::new(label, move || mpdash::fleet::run(&fc)))
        .collect();
    let results = run_batch(jobs, workers);
    let mut ok = true;
    let baseline_cell = results
        .first()
        .and_then(|r| r.report.as_ref().ok())
        .map(|fleet| fleet.total_cell_bytes as f64);
    for (i, result) in results.iter().enumerate() {
        let fleet = match &result.report {
            Ok(fleet) => fleet,
            Err(e) => {
                eprintln!("error: job {}: {e}", result.label);
                ok = false;
                continue;
            }
        };
        println!(
            "{:<16} {:>10.2} {:>10.2} {:>9.2} {:>13.4} {:>10.4} {:>7} {:>9.3}",
            result.label,
            fleet.total_wifi_bytes as f64 / 1e6,
            fleet.total_cell_bytes as f64 / 1e6,
            fleet.mean_bitrate_mbps(),
            fleet.jain_bitrate,
            fleet.jain_cell_bytes,
            fleet.total_stalls,
            fleet.deadline_miss_rate,
        );
        if let Some(base) = baseline_cell.filter(|_| i > 0) {
            if base > 0.0 {
                println!(
                    "{:<16} cellular saving {:5.1}% across the fleet",
                    "",
                    (1.0 - fleet.total_cell_bytes as f64 / base) * 100.0,
                );
            }
        }
    }
    println!();
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let var = |k: &str| std::env::var_os(k).map(|v| v.to_string_lossy().into_owned());
    let env = match RunEnv::parse(var, |w| eprintln!("warning: {w}")) {
        Ok(env) => env,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.first().map(String::as_str) == Some("explain") {
        return run_explain(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("timeline") {
        return run_timeline(&args[1..], &env);
    }
    if args.first().map(String::as_str) == Some("schema") {
        if let Some(extra) = args.get(1) {
            eprintln!("error: unexpected argument '{extra}'\nusage: mpdash schema");
            return ExitCode::from(2);
        }
        print!("{}", reference());
        return ExitCode::SUCCESS;
    }
    let mut show_chunks = false;
    let mut paths = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--chunks" => show_chunks = true,
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag '{flag}'\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(path),
        }
    }
    if paths.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut failed = false;
    for path in paths {
        let Some(mut scenario) = load(path) else {
            return ExitCode::FAILURE;
        };
        env.stamp(&mut scenario.base.tracer, &mut scenario.base.telemetry);
        if let Some(fleets) = scenario.fleet_configs() {
            if show_chunks {
                eprintln!(
                    "error: --chunks draws the bars of solo sessions, and {path} is a fleet \
                     (`mpdash explain {path} --client K` shows one client's chunks)\n{USAGE}"
                );
                return ExitCode::from(2);
            }
            failed |= !run_fleet_scenario(&scenario.name, fleets, path, env.workers);
            continue;
        }
        let configs = scenario.build();

        println!("scenario: {} ({path})", scenario.name);
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>9} {:>7} {:>9}",
            "mode", "WiFi MB", "LTE MB", "energy J", "bitrate", "stalls", "switches"
        );
        // All modes run as one parallel batch; results come back in
        // declaration order, so the first is the baseline for savings.
        let jobs = configs
            .into_iter()
            .map(|(label, cfg)| Job::session(label, cfg))
            .collect();
        let results = run_batch(jobs, env.workers);
        // Execution profiles go to stderr so piped stdout stays a clean,
        // machine-independent report.
        for result in &results {
            if let Ok(report) = &result.report {
                let p = report.sim_profile;
                let k = p.by_kind;
                eprintln!(
                    "[profile] {}: {:.2}s wall, {} events (data {}, ack {}, rto {}, \
                     app_timer {}, reverse_msg {}), peak queue {}, \
                     lane appends {}, heap fallbacks {}",
                    result.label,
                    result.wall.as_secs_f64(),
                    p.events_popped,
                    k.data,
                    k.ack,
                    k.rto,
                    k.app_timer,
                    k.reverse_msg,
                    p.peak_queue_depth,
                    p.lane_appends,
                    p.heap_fallbacks
                );
            }
        }
        // A failed job (e.g. a panic inside one mode's simulation) must
        // not take down the whole comparison: report it and keep going.
        let baseline = results.first().and_then(|r| r.report.as_ref().ok());
        for (i, result) in results.iter().enumerate() {
            let report = match &result.report {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: job {}: {e}", result.label);
                    failed = true;
                    continue;
                }
            };
            println!(
                "{:<16} {:>10.2} {:>10.2} {:>10.1} {:>9.2} {:>7} {:>9}",
                result.label,
                report.wifi_bytes as f64 / 1e6,
                report.cell_bytes as f64 / 1e6,
                report.energy.total_j(),
                report.qoe.mean_bitrate_mbps,
                report.qoe.stalls,
                report.qoe.switches,
            );
            if let Some(base) = baseline.filter(|_| i > 0) {
                println!(
                    "{:<16} cellular saving {:5.1}% | energy saving {:5.1}% | bitrate change {:+5.1}%",
                    "",
                    report.cell_saving_vs(base) * 100.0,
                    report.energy_saving_vs(base) * 100.0,
                    -report.qoe.bitrate_reduction_vs(&base.qoe) * 100.0,
                );
            }
            if show_chunks {
                let n = report.chunks.len().min(20);
                println!("{}", render_chunk_bars(&report.chunks[..n], 24));
            }
        }
        println!();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
