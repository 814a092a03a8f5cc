//! One module per reproduced table/figure, and the one table that lists
//! them.
//!
//! Every module exposes `result(quick, env) -> ExperimentResult`, which
//! **computes** the experiment: it lists the grid's cells once (key +
//! config), runs them through `crate::grid::Grid` as [`RunEnv`] says,
//! and folds the keyed results into typed blocks (tables, CDF
//! summaries, series, scalars). [`ALL`] registers the modules; the `exp`
//! binary looks names up in it and hands each to [`run`], which
//! **renders** the result to stdout and **persists** it as a JSON
//! artifact (see [`mpdash_results::write_artifact_to`]).
//!
//! **Adding an experiment** is one module, one [`ALL`] row, and one line
//! in `tests/golden_quick.sha256` (a test checks the three agree).
//!
//! Because rendering is a pure function of the result, re-rendering a
//! deserialized artifact reproduces the printed report byte-for-byte —
//! the round-trip the test suite asserts.

pub mod ablation;
pub mod aqm;
pub mod churn;
pub mod faults;
pub mod field;
pub mod fig1;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fleet;
pub mod lifecycle;
pub mod motivation;
pub mod mpc;
pub mod origin;
pub mod sched;
pub mod tab2;
pub mod tab4;
pub mod tab6;

use mpdash_obs::RunEnv;
use mpdash_results::{write_artifact_to, ExperimentResult};
use std::path::Path;

/// One registered experiment.
pub struct Experiment {
    /// The name `exp` selects it by; also the artifact's stem and the
    /// `name` of the result it computes.
    pub name: &'static str,
    /// `result(quick, env)`: compute the experiment. `quick` shrinks it;
    /// nothing in `env` changes the result.
    pub result: fn(bool, &RunEnv) -> ExperimentResult,
}

impl Experiment {
    const fn new(name: &'static str, result: fn(bool, &RunEnv) -> ExperimentResult) -> Self {
        Experiment { name, result }
    }
}

/// Every experiment, in the order `exp all` runs them: the paper's
/// evaluation section by section, then the grids beyond the paper.
pub static ALL: [Experiment; 21] = [
    Experiment::new("motivation", motivation::result),
    Experiment::new("fig1", fig1::result),
    Experiment::new("fig3", fig3::result),
    Experiment::new("fig4", fig4::result),
    Experiment::new("fig5", fig5::result),
    Experiment::new("tab2", tab2::result),
    Experiment::new("tab4", tab4::result),
    Experiment::new("fig7", fig7::result),
    Experiment::new("fig8", fig8::result),
    Experiment::new("fig11", fig11::result),
    Experiment::new("tab6", tab6::result),
    Experiment::new("mpc", mpc::result),
    Experiment::new("ablation", ablation::result),
    Experiment::new("faults", faults::result),
    Experiment::new("lifecycle", lifecycle::result),
    Experiment::new("field", field::result),
    Experiment::new("fleet", fleet::result),
    Experiment::new("sched", sched::result),
    Experiment::new("aqm", aqm::result),
    Experiment::new("origin", origin::result),
    Experiment::new("churn", churn::result),
];

/// Resolve `exp`'s positional arguments: `all` (alone) is every
/// experiment in [`ALL`] order, anything else must be registered names.
pub(crate) fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names == ["all"] {
        return Ok(ALL.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            ALL.iter()
                .find(|e| e.name == name)
                .ok_or_else(|| format!("unknown experiment '{name}'"))
        })
        .collect()
}

/// Render `result` to stdout and persist its JSON artifact under `dir`;
/// the artifact path goes to stderr so piped stdout stays a clean
/// report. An artifact that could not be written is an error naming its
/// path — the report on stdout is complete either way.
fn execute(result: &ExperimentResult, dir: &Path) -> Result<(), String> {
    print!("{}", result.render());
    match write_artifact_to(dir, result) {
        Ok(path) => {
            eprintln!("[artifact] {}", path.display());
            Ok(())
        }
        Err(e) => {
            let path = dir.join(format!("{}.json", result.name));
            Err(format!("[artifact] {} not written: {e}", path.display()))
        }
    }
}

/// Compute `experiment`, then render and persist it in
/// `env.artifact_dir`, reporting per-stage wall-clock on stderr as a
/// `[stage]` line. Timing is diagnostic only: it goes to stderr, never
/// into stdout or the artifact, so reports stay byte-stable across machines.
pub fn run(experiment: &Experiment, quick: bool, env: &RunEnv) -> Result<(), String> {
    let t0 = std::time::Instant::now();
    let res = (experiment.result)(quick, env);
    let computed = t0.elapsed();
    let t1 = std::time::Instant::now();
    let persisted = execute(&res, &env.artifact_dir);
    eprintln!(
        "[stage] {}: compute {:.2}s, render+persist {:.3}s",
        experiment.name,
        computed.as_secs_f64(),
        t1.elapsed().as_secs_f64()
    );
    persisted
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_obs::{RingSink, TelemetrySpec, Tracer};
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    /// The golden manifest, `sha256sum`'s format: each artifact's file
    /// name and the digest of its bytes.
    fn goldens() -> BTreeMap<&'static str, &'static str> {
        include_str!("../../tests/golden_quick.sha256")
            .lines()
            .map(|line| {
                let (digest, file) = line.split_once("  ").expect("digest  file");
                (file, digest)
            })
            .collect()
    }

    /// An untraced environment with `workers` threads, artifacts in `dir`.
    fn env(workers: usize, dir: &Path) -> RunEnv {
        let untraced = RunEnv::parse(|_| None, |w| panic!("{w}")).expect("nothing set");
        RunEnv {
            workers,
            artifact_dir: dir.to_path_buf(),
            ..untraced
        }
    }

    /// The acceptance property of every batch-backed experiment: the
    /// persisted artifact is bit-identical at any worker count (1 is the
    /// sequential reference), traced into a ring or not, with one-second
    /// telemetry or none, and the sequential bytes are the ones
    /// `golden_quick.sha256` pins (`write_artifact_to` writes
    /// `to_json().to_pretty()`), so a refactor proves itself
    /// behaviour-preserving and not only worker-count-invariant. This also
    /// checks each row computes the result it is named for. Looping all 21
    /// experiments four times takes minutes in a debug build, so CI runs
    /// it with `--release -- --ignored`.
    #[test]
    #[ignore = "minutes in a debug build; CI runs it with --release -- --ignored"]
    fn artifact_is_bit_identical_across_worker_counts() {
        let goldens = goldens();
        let one = env(1, Path::new("results"));
        let four = env(4, Path::new("results"));
        let ring = RunEnv {
            tracer: Tracer::new(Arc::new(RingSink::new(1 << 16))),
            ..four.clone()
        };
        let telemetry = RunEnv {
            telemetry: Some(TelemetrySpec::seconds(1.0)),
            ..four.clone()
        };
        for e in &ALL {
            let seq = (e.result)(true, &one);
            assert_eq!(seq.name, e.name, "{}'s row computes another result", e.name);
            let seq = seq.to_json().to_pretty();
            assert_eq!(
                sha256::hex(seq.as_bytes()),
                goldens[format!("{}.json", e.name).as_str()],
                "`exp {} --quick` no longer matches its golden",
                e.name
            );
            for (observed, env) in [
                ("4 workers", &four),
                ("a ring tracer", &ring),
                ("telemetry", &telemetry),
            ] {
                assert_eq!(
                    seq,
                    (e.result)(true, env).to_json().to_pretty(),
                    "`exp {}` must serialize identically with {observed}",
                    e.name
                );
            }
        }
    }

    /// One registration point, kept honest: names are unique, and the
    /// registered set is exactly the set of artifacts the golden manifest
    /// pins — an experiment cannot land without a golden, nor a golden
    /// outlive its experiment.
    #[test]
    fn registry_names_are_unique_and_each_has_a_golden() {
        let names: BTreeSet<&str> = ALL.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), ALL.len(), "duplicate experiment name");
        let goldens: BTreeSet<&str> = (goldens().into_keys())
            .map(|file| file.strip_suffix(".json").expect("a .json artifact"))
            .collect();
        assert_eq!(names, goldens);
    }

    #[test]
    fn select_resolves_all_and_rejects_unknown_names() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(select(&names(&["all"])).unwrap().len(), ALL.len());
        let picked = select(&names(&["tab2", "fig5"])).unwrap();
        assert_eq!(picked[0].name, "tab2");
        assert_eq!(picked[1].name, "fig5");
        assert_eq!(
            select(&names(&["fig5", "nope"])).err().unwrap(),
            "unknown experiment 'nope'"
        );
    }

    /// A run that did not persist its artifact must fail, naming the
    /// path: here the target directory sits under a regular file.
    #[test]
    fn an_unwritable_artifact_is_an_error_naming_the_path() {
        let file = std::env::temp_dir().join(format!("mpdash-exp-{}.file", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let dir = file.join("results");
        let tab2 = select(&["tab2".to_string()]).unwrap()[0];
        let err = run(tab2, true, &env(1, &dir)).unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(
            err.contains(dir.join("tab2.json").to_str().unwrap()) && err.contains("not written"),
            "{err}"
        );
    }
}

/// The workspace's one test-only SHA-256, for the golden manifest.
#[cfg(test)]
#[path = "../../../../tests/common/sha256.rs"]
mod sha256;
