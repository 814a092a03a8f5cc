//! `exp` driven through its environment, as a user runs it: an NDJSON
//! trace changes no artifact byte, and the trace itself is pinned where a
//! grid's event order cannot move it.

#[path = "../../../tests/common/sha256.rs"]
mod sha256;

use std::path::{Path, PathBuf};
use std::process::Command;

/// The `exp` binary with none of the caller's `MPDASH_*` variables: a
/// test sets the ones it means.
fn exp() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
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

/// `exp faults --quick` into `dir`, traced as NDJSON into the same
/// directory or not at all; returns the artifact's bytes.
fn faults_artifact(dir: &Path, traced: bool) -> Vec<u8> {
    let mut cmd = exp();
    cmd.args(["faults", "--quick"])
        .env("MPDASH_RESULTS_DIR", dir);
    if traced {
        cmd.env("MPDASH_TRACE", "ndjson")
            .env("MPDASH_TRACE_DIR", dir);
    }
    let out = cmd.output().expect("exp runs");
    assert!(out.status.success(), "{out:?}");
    std::fs::read(dir.join("faults.json")).expect("faults.json written")
}

/// The faults grid traced to NDJSON writes the untraced artifact, and its
/// 21 subflow transitions (12 failed, 9 revived) hash to a pin once
/// sorted bytewise, as `LC_ALL=C sort` does, so the interleaving of worker
/// jobs in the one trace file drops out (DESIGN §4.3).
#[test]
fn a_traced_faults_grid_writes_the_same_artifact_and_pinned_transitions() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("exp-faults-trace");
    let _ = std::fs::remove_dir_all(&root);
    let traced = faults_artifact(&root.join("traced"), true);
    assert!(
        traced == faults_artifact(&root.join("untraced"), false),
        "tracing changed faults.json"
    );
    let trace =
        std::fs::read_to_string(root.join("traced/trace.ndjson")).expect("trace.ndjson written");
    let mut transitions: Vec<&str> = (trace.lines())
        .filter(|l| {
            l.contains(r#""kind":"subflow_failed""#) || l.contains(r#""kind":"subflow_revived""#)
        })
        .collect();
    transitions.sort_unstable();
    let sorted: String = transitions.iter().flat_map(|l| [*l, "\n"]).collect();
    assert_eq!(
        sha256::hex(sorted.as_bytes()),
        "a1b936563bc372b683e90500f15e4cad4368c3bf47f1b20486746cd40627cb6f",
        "{} transitions:\n{sorted}",
        transitions.len()
    );
}
