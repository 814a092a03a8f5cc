//! `perf` — the repo's one benchmark. See `perf/README.md`.
//!
//! ```text
//! perf [--seed N] [--seconds S] [--trace [0|1]] [--runs N] [--out FILE]
//! perf --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
//! perf compare A.json B.json
//! perf catalogue
//! ```
//!
//! Without `--workload` every workload runs in a child process of its
//! own (so `peak_rss_mb` is per workload) and the results are gathered
//! into a ledger file that `perf compare` reads. With `--workload` the
//! one workload runs in this process and the last line of standard
//! output is its result as one JSON object.

mod alloc;
mod calibrate;
mod compare;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod workloads;

use mpdash_results::Json;
use run::{Options, Outcome};
use std::process::{Command, ExitCode};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Knobs the simulator reads from the environment. The harness pins
/// each through a config builder, so a set variable means the figures
/// would not be what they claim.
const FORBIDDEN_ENV: [&str; 6] = [
    "MPDASH_TRACE",
    "MPDASH_TRACE_DIR",
    "MPDASH_TELEMETRY",
    "MPDASH_WATCHDOG",
    "MPDASH_WORKERS",
    "MPDASH_QUICK",
];

const DEFAULT_SEED: u64 = 11;

struct Args {
    seed: u64,
    seconds: f64,
    trace: bool,
    workload: Option<String>,
    runs: u64,
    out: String,
    /// Set on the children of an all-workloads run: no header, and the
    /// result line carries workload, seed, trace flag and digest.
    child: bool,
}

fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut argv = argv.peekable();
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        workload: None,
        runs: 1,
        out: "results/PERF.json".into(),
        child: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("not a whole number: {v}"))
        };
        match flag.as_str() {
            "--seed" => args.seed = number(value("a seed")?)?,
            "--runs" => args.runs = number(value("a count")?)?.max(1),
            "--seconds" => {
                let v = value("a duration")?;
                args.seconds = v.parse().map_err(|_| format!("not a duration: {v}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--workload" => args.workload = Some(value("a name")?),
            "--out" => args.out = value("a path")?,
            "--child" => args.child = true,
            // `--trace` alone means on; the driver passes 0 or 1.
            "--trace" => {
                let given = argv.next_if(|v| v == "0" || v == "1");
                args.trace = given.is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn header(args: &Args) -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("seed", args.seed.to_string()),
        (
            "commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        ("rustc", command_line("rustc", &["-V"])),
        ("nproc", cores.to_string()),
        (
            "passes",
            format!(
                "as many as fit {} s, at least 2 (untraced); 1 untraced + 1 traced (traced)",
                args.seconds
            ),
        ),
    ]
}

fn print_outcome(o: &Outcome) {
    println!(
        "== {} seed {} trace {}: {} sessions attempted, {} failed, digest {:016x}, {} passes",
        o.workload,
        o.seed,
        u8::from(o.trace),
        o.attempted,
        o.failed,
        o.digest,
        o.passes
    );
    for (name, unit, value) in &o.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    for note in &o.notes {
        println!("   {note}");
    }
    for unmet in &o.unmet {
        println!("   VACUOUS: {unmet}");
    }
}

/// Every workload, each in a child process, `runs` times over.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let head = header(args);
    for (k, v) in &head {
        println!("{k:<8} {v}");
    }
    let mut runs = Vec::new();
    let mut ok = true;
    for run in 0..args.runs {
        for w in &WORKLOADS {
            for trace in [false, true] {
                if trace && !args.trace {
                    continue;
                }
                let output = Command::new(&exe)
                    .args(["--child", "--workload", w.name])
                    .args(["--seed", &(args.seed + run).to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start {}: {e}", w.name))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let (report, result) = stdout
                    .trim_end()
                    .rsplit_once('\n')
                    .unwrap_or(("", stdout.trim_end()));
                println!("{report}");
                match Json::parse(result) {
                    Ok(json) => {
                        ok &= output.status.success()
                            && json.get("correct").and_then(Json::as_bool) == Some(true);
                        runs.push(json);
                    }
                    Err(e) => {
                        eprintln!("{}: no result line ({e}); exit {}", w.name, output.status);
                        ok = false;
                    }
                }
            }
        }
    }
    let ledger = Json::obj([
        ("schema", Json::from("mpdash-perf/1")),
        (
            "header",
            Json::obj(head.into_iter().map(|(k, v)| (k, Json::from(v)))),
        ),
        ("runs", Json::arr(runs)),
    ]);
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, ledger.to_pretty()).map_err(|e| format!("{}: {e}", args.out))?;
    println!("ledger written to {}", args.out);
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = if argv.peek().map(String::as_str) == Some("compare") {
        match (argv.nth(1), argv.next(), argv.next()) {
            (Some(a), Some(b), None) => compare::compare(&a, &b),
            _ => Err("usage: perf compare A.json B.json".into()),
        }
    } else if argv.peek().map(String::as_str) == Some("catalogue") {
        println!("{}", metrics::benchmark_json().to_pretty());
        Ok(true)
    } else {
        let set: Vec<_> = FORBIDDEN_ENV
            .iter()
            .filter(|k| std::env::var_os(k).is_some())
            .collect();
        if !set.is_empty() {
            eprintln!("unset {set:?}: the benchmark pins these knobs itself");
            return ExitCode::FAILURE;
        }
        parse(argv).and_then(|args| match &args.workload {
            None => run_all(&args),
            Some(name) => {
                let workload = workloads::find(name).ok_or(format!("no workload named {name}"))?;
                if !args.child {
                    for (k, v) in header(&args) {
                        println!("{k:<8} {v}");
                    }
                }
                let outcome = run::run(
                    workload,
                    &Options {
                        seed: args.seed,
                        seconds: args.seconds,
                        trace: args.trace,
                    },
                );
                print_outcome(&outcome);
                println!("{}", outcome.to_json(args.child).to_compact());
                Ok(outcome.correct())
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse;

    fn args(line: &str) -> Result<super::Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload solo_grid --seed 7 --seconds 10 --trace 1").expect("parses");
        assert_eq!(a.workload.as_deref(), Some("solo_grid"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.child),
            (7, 10.0, true, false)
        );
        assert!(!args("--trace 0").expect("parses").trace);
    }

    #[test]
    fn a_bare_trace_flag_means_on_and_eats_nothing() {
        let a = args("--trace --seed 5").expect("parses");
        assert!(a.trace);
        assert_eq!(a.seed, 5);
        assert!(args("--seed 5 --trace").expect("parses").trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for line in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--frobnicate",
        ] {
            assert!(args(line).is_err(), "{line}");
        }
    }
}
