//! The scheduler-trait refactor's byte-identity proof at the artifact
//! level: the `exp fig4` quick grid — every MinRtt and RoundRobin cell
//! the paper's Figure 4 sweeps — must serialize byte-for-byte equal to
//! the artifact the seed enum dispatcher produced.
//!
//! `golden_fig4_quick_seed.json` was recorded by running the seed's
//! `exp_fig4 --quick` (today `exp fig4 --quick`) immediately before the
//! refactor landed. Note this covers the round-robin rotation fix too: on fig4's stable two-path
//! grid the last-picked-path rotation reproduces the seed cursor's pick
//! sequence exactly, so no golden expectation shifted.

const SEED_GOLDEN: &str = include_str!("golden_fig4_quick_seed.json");

#[test]
fn fig4_quick_artifact_is_byte_identical_to_the_seed_enum() {
    let now = mpdash_bench::experiments::fig4::result(true, 2)
        .to_json()
        .to_pretty();
    assert_eq!(
        now, SEED_GOLDEN,
        "trait-dispatched MinRtt/RoundRobin must reproduce the seed artifact byte-for-byte"
    );
}
