//! Property: the batch runner's output is bit-identical regardless of
//! worker count. One worker is the sequential reference; any parallel
//! pool must serialize every report to exactly the same bytes, because
//! each job is a pure function of its config and collection preserves
//! input order.

use mpdash_dash::abr::AbrKind;
use mpdash_dash::video::Video;
use mpdash_session::{run_batch, BatchResult, Job, SessionConfig, SessionReport, TransportMode};
use mpdash_sim::{derive_seed, SimDuration};
use proptest::prelude::*;

fn tiny_cfg(wifi_mbps: f64, mode: TransportMode) -> SessionConfig {
    SessionConfig::controlled_mbps(wifi_mbps, 2.0, AbrKind::Festive, mode).with_video(Video::new(
        "tiny",
        &[0.5, 1.0],
        SimDuration::from_secs(2),
        4,
    ))
}

/// Every observable byte of a batch: labels plus the full JSON summary of
/// each report, in order.
fn serialize(results: &[BatchResult<SessionReport>]) -> String {
    results
        .iter()
        .map(|r| {
            format!(
                "{}\n{}",
                r.label,
                r.report
                    .as_ref()
                    .expect("session job")
                    .summary_json()
                    .to_pretty()
            )
        })
        .collect::<Vec<_>>()
        .join("\n---\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn parallel_batch_serializes_bit_identically(
        n_jobs in 1usize..7,
        workers in 2usize..9,
        base_seed in any::<u64>(),
        wifi in 1.0f64..6.0,
        mpdash_mode in any::<bool>(),
    ) {
        let mode = if mpdash_mode {
            TransportMode::mpdash_rate_based()
        } else {
            TransportMode::Vanilla
        };
        // Job `i` draws its two link-loss streams from its own derived seed.
        let mk = || {
            (0..n_jobs as u64)
                .map(|i| {
                    let mut cfg = tiny_cfg(wifi + 0.37 * i as f64, mode);
                    let seed = derive_seed(base_seed, i);
                    cfg.wifi.seed = derive_seed(seed, 0);
                    cfg.cell.seed = derive_seed(seed, 1);
                    Job::session(format!("j{i}"), cfg)
                })
                .collect::<Vec<_>>()
        };
        let seq = run_batch(mk(), 1);
        let par = run_batch(mk(), workers);
        prop_assert_eq!(seq.len(), par.len());
        prop_assert_eq!(serialize(&seq), serialize(&par));
    }
}
