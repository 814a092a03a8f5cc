//! One module per reproduced table/figure, and the one table that lists
//! them.
//!
//! Every module exposes `result(quick, workers) -> ExperimentResult`,
//! which **computes** the experiment: it lists the grid's cells once
//! (key + config), runs them through [`crate::grid::Grid`] on `workers`
//! threads, and folds the keyed results into typed blocks (tables, CDF
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

use mpdash_results::{write_artifact_to, ExperimentResult};
use std::path::Path;

/// One registered experiment.
pub struct Experiment {
    /// The name `exp` selects it by; also the artifact's stem and the
    /// `name` of the result it computes.
    pub name: &'static str,
    /// `result(quick, workers)`: compute the experiment. The result is
    /// independent of `workers`.
    pub result: fn(bool, usize) -> ExperimentResult,
}

impl Experiment {
    const fn new(name: &'static str, result: fn(bool, usize) -> ExperimentResult) -> Self {
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
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
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

/// Compute `experiment`, then render and persist it, reporting per-stage
/// wall-clock on stderr as a `[stage]` line. Timing is diagnostic only:
/// it goes to stderr, never into stdout or the artifact, so reports stay
/// byte-stable across machines.
pub fn run(experiment: &Experiment, quick: bool, workers: usize, dir: &Path) -> Result<(), String> {
    let t0 = std::time::Instant::now();
    let res = (experiment.result)(quick, workers);
    let computed = t0.elapsed();
    let t1 = std::time::Instant::now();
    let persisted = execute(&res, dir);
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
    use std::collections::BTreeSet;

    /// The acceptance property of every batch-backed experiment: the
    /// persisted artifact is bit-identical at any worker count (1 is the
    /// sequential reference). This also checks each row computes the
    /// result it is named for. Looping all 21 experiments twice takes
    /// minutes in a debug build, so CI's `test` job runs it with
    /// `--release -- --ignored` (the `determinism` job checks the same
    /// property on the binary).
    #[test]
    #[ignore = "minutes in a debug build; CI runs it with --release -- --ignored"]
    fn artifact_is_bit_identical_across_worker_counts() {
        for e in &ALL {
            let seq = (e.result)(true, 1);
            let par = (e.result)(true, 4);
            assert_eq!(seq.name, e.name, "{}'s row computes another result", e.name);
            assert_eq!(
                seq.to_json().to_pretty(),
                par.to_json().to_pretty(),
                "`exp {}` must serialize identically at any MPDASH_WORKERS",
                e.name
            );
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
        let goldens: BTreeSet<&str> = include_str!("../../tests/golden_quick.sha256")
            .lines()
            .map(|line| {
                let file = line.split_whitespace().nth(1).expect("digest  file");
                file.strip_suffix(".json").expect("a .json artifact")
            })
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
        let err = run(tab2, true, 1, &dir).unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(
            err.contains(dir.join("tab2.json").to_str().unwrap()) && err.contains("not written"),
            "{err}"
        );
    }
}
