//! `exp_sched` — the pluggable packet-scheduler grid (beyond the paper).
//!
//! Crosses every [`SchedulerSpec`] with {solo, N-client fleet on shared
//! bottlenecks} × {vanilla MPTCP, MP-DASH rate-based}:
//!
//! * **solo** — one client on private links. Private links expose no
//!   queue signal, so QAware must degenerate to exactly minRTT: the fold
//!   asserts their session summaries serialize *byte-identically*.
//! * **fleet** — N clients behind one WiFi AP and one cellular sector.
//!   The AP is deliberately scarce (deep shared queue) while the sector
//!   keeps headroom, so a scheduler that only watches SRTT keeps piling
//!   onto WiFi until queueing delay finally shows up in its RTT samples,
//!   while QAware sees the queue depth directly and detours first.
//!
//! The fold asserts the tentpole invariant: under contention QAware
//! never increases the deadline-miss rate versus minRTT at any fleet
//! point, and strictly improves it at one or more points.
//!
//! Every cell is one [`mpdash_session::Job`] (solo sessions and fleet
//! replicas alike), so the grid shards over `MPDASH_WORKERS` with
//! bit-identical artifacts at any worker count.

use crate::Table;
use mpdash_dash::abr::AbrKind;
use mpdash_dash::video::Video;
use mpdash_fleet::{fleet_job, FleetConfig, SharedLinkSpec};
use mpdash_link::SharedBottleneckConfig;
use mpdash_mptcp::SchedulerSpec;
use mpdash_results::{ExperimentResult, Json, ScalarGroup};
use mpdash_session::{run_batch, run_batch_with, BatchResult, Job, SessionConfig, TransportMode};
use mpdash_sim::SimDuration;

/// Quick keeps the 16-client fleet — the contention level where the
/// queue-aware win is structural (at 8 clients the deep AP buffer never
/// fills enough for the schedulers to diverge). Full adds that 8-client
/// tie point. Solo always runs (it carries the degeneracy proof).
fn fleet_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![16]
    } else {
        vec![8, 16]
    }
}

/// minRTT first: the fold computes every invariant against it.
fn schedulers() -> [SchedulerSpec; 3] {
    [
        SchedulerSpec::MinRtt,
        SchedulerSpec::RoundRobin,
        SchedulerSpec::QAware,
    ]
}

fn modes() -> [TransportMode; 2] {
    [TransportMode::Vanilla, TransportMode::mpdash_rate_based()]
}

fn mode_name(mode: &TransportMode) -> &'static str {
    match mode {
        TransportMode::Vanilla => "vanilla",
        _ => "mpdash",
    }
}

/// Same 20-chunk ladder as the fleet experiment: long enough that the
/// steady state, not the ABR ramp, dominates the miss rate.
fn sched_video() -> Video {
    Video::new(
        "BBB-sched",
        &[0.58, 1.01, 1.47, 2.41, 3.94],
        SimDuration::from_secs(4),
        20,
    )
}

/// One solo cell: the paper's testbed rates on private links.
fn solo_cfg(sched: SchedulerSpec, mode: TransportMode) -> SessionConfig {
    SessionConfig::controlled_mbps(3.8, 3.0, AbrKind::Festive, mode)
        .with_video(sched_video())
        .with_scheduler(sched)
}

/// One fleet cell. The AP gives each client ~1.5 Mbps behind a *deep*
/// buffer (64 KiB/client — bufferbloat territory: at capacity the queue
/// holds hundreds of milliseconds), while the sector keeps ~2 Mbps per
/// client of headroom behind the stock shallow queue. DASH traffic is
/// on-off, so at each fetch start a queue-blind scheduler steers by an
/// SRTT measured *before* the idle gap — it dumps the chunk into
/// whatever the other clients piled up meanwhile and only learns the
/// price one inflated RTT sample later. QAware reads the shared queue's
/// occupancy directly at pick time and detours first.
fn fleet_cfg(clients: usize, sched: SchedulerSpec, mode: TransportMode) -> FleetConfig {
    let base = SessionConfig::controlled_mbps(50.0, 30.0, AbrKind::Festive, mode)
        .with_video(sched_video())
        .with_scheduler(sched);
    FleetConfig::new(base, clients)
        .with_stagger(SimDuration::from_secs(1))
        .with_rtt_skew(SimDuration::from_millis(10))
        .with_seed(11)
        .with_shared(SharedLinkSpec::wifi_ap(
            SharedBottleneckConfig::fifo_mbps(1.5 * clients as f64)
                .with_capacity(64 * 1024 * clients as u64),
        ))
        .with_shared(SharedLinkSpec::cell_sector(
            SharedBottleneckConfig::fifo_mbps(2.0 * clients as f64),
        ))
}

fn jobs(quick: bool) -> Vec<Job> {
    let mut jobs = Vec::new();
    for mode in modes() {
        for sched in schedulers() {
            jobs.push(Job::session(
                format!("solo/{}/{}", mode_name(&mode), sched.label()),
                solo_cfg(sched, mode),
            ));
        }
    }
    for &clients in &fleet_sizes(quick) {
        for mode in modes() {
            for sched in schedulers() {
                jobs.push(fleet_job(
                    format!("n{clients}/{}/{}", mode_name(&mode), sched.label()),
                    fleet_cfg(clients, sched, mode),
                ));
            }
        }
    }
    jobs
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("fleet summary missing '{key}'"))
}

fn fold(quick: bool, batch: Vec<BatchResult>) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "sched",
        "Packet schedulers — minRTT vs round-robin vs QAware, solo and fleet",
    )
    .with_quick(quick);
    res.text(concat!(
        "\nEvery packet scheduler crossed with {solo, contended fleet} and\n",
        "{vanilla, MP-DASH}. Invariants: solo QAware is byte-identical to\n",
        "solo minRTT (no queue signal on private links), and under fleet\n",
        "contention QAware never misses more deadlines than minRTT and\n",
        "strictly beats it somewhere in the grid.",
    ));
    let mut next = batch.iter();

    // Solo: QAware must degenerate to minRTT exactly.
    let mut t = Table::new(&["topo", "mode", "scheduler", "bitrate", "stalls", "cell MB"]);
    for mode in modes() {
        let mut minrtt_summary = String::new();
        for sched in schedulers() {
            let r = next.next().unwrap().session().expect("solo job");
            let summary = r.summary_json().to_pretty();
            match sched {
                SchedulerSpec::MinRtt => minrtt_summary = summary,
                SchedulerSpec::QAware => assert_eq!(
                    summary,
                    minrtt_summary,
                    "solo/{}: QAware must be byte-identical to minRTT on private links",
                    mode_name(&mode)
                ),
                SchedulerSpec::RoundRobin => {}
            }
            t.row(&[
                "solo".into(),
                mode_name(&mode).into(),
                sched.label().into(),
                format!("{:.2}", r.qoe_all.mean_bitrate_mbps),
                format!("{}", r.qoe_all.stalls),
                format!("{:.2}", r.cell_bytes as f64 / 1e6),
            ]);
        }
    }
    res.table(t);

    // Fleet: QAware's miss rate never exceeds minRTT's, and beats it
    // strictly at one or more points.
    let mut t = Table::new(&[
        "clients",
        "mode",
        "scheduler",
        "bitrate",
        "jain(bitrate)",
        "miss rate",
        "stalls",
        "cell MB",
        "wifi MB",
    ]);
    let mut best_improvement: f64 = 0.0;
    let mut worst_regression: f64 = 0.0;
    for &clients in &fleet_sizes(quick) {
        for mode in modes() {
            let mut minrtt_miss = 0.0f64;
            for sched in schedulers() {
                let j = next.next().unwrap().value().expect("fleet job").clone();
                let miss = num(&j, "deadline_miss_rate");
                let mean_bitrate: f64 = j
                    .get("per_client")
                    .and_then(|v| v.as_arr())
                    .map(|rows| {
                        rows.iter()
                            .map(|r| num(r, "mean_bitrate_mbps"))
                            .sum::<f64>()
                            / rows.len().max(1) as f64
                    })
                    .unwrap_or(0.0);
                t.row(&[
                    format!("{clients}"),
                    mode_name(&mode).into(),
                    sched.label().into(),
                    format!("{mean_bitrate:.2}"),
                    format!("{:.4}", num(&j, "jain_bitrate")),
                    format!("{miss:.3}"),
                    format!("{}", num(&j, "total_stalls") as u64),
                    format!("{:.2}", num(&j, "total_cell_bytes") / 1e6),
                    format!("{:.2}", num(&j, "total_wifi_bytes") / 1e6),
                ]);
                match sched {
                    SchedulerSpec::MinRtt => minrtt_miss = miss,
                    SchedulerSpec::QAware => {
                        assert!(
                            miss <= minrtt_miss,
                            "n{clients}/{}: QAware miss rate {miss:.4} > minRTT {minrtt_miss:.4}",
                            mode_name(&mode)
                        );
                        best_improvement = best_improvement.max(minrtt_miss - miss);
                        worst_regression = worst_regression.max(miss - minrtt_miss);
                    }
                    SchedulerSpec::RoundRobin => {}
                }
            }
        }
    }
    assert!(
        best_improvement > 0.0,
        "QAware must strictly beat minRTT's deadline-miss rate somewhere in the grid"
    );
    res.table(t);
    res.scalars(
        ScalarGroup::new("scheduler invariants")
            .with("best_qaware_miss_improvement", best_improvement)
            .with("worst_qaware_miss_regression", worst_regression),
    );
    res
}

/// Compute the scheduler grid on the default worker pool.
pub fn result(quick: bool) -> ExperimentResult {
    fold(quick, run_batch(jobs(quick)))
}

/// Same grid on an explicit worker count — the determinism test pins
/// both sides of its comparison with this.
pub fn result_with_workers(quick: bool, workers: usize) -> ExperimentResult {
    fold(quick, run_batch_with(jobs(quick), workers))
}

/// Compute, render, persist.
pub fn run_with(quick: bool) {
    crate::experiments::run_timed("sched", quick, result);
}

/// Full grid behind the shared quick switch.
pub fn run() {
    run_with(crate::cli::quick_requested());
}

#[cfg(test)]
mod tests {
    /// The acceptance property: the persisted artifact is bit-identical
    /// at any worker count (1 is the sequential reference).
    #[test]
    fn artifact_is_bit_identical_across_worker_counts() {
        let seq = super::result_with_workers(true, 1);
        let par = super::result_with_workers(true, 4);
        assert_eq!(
            seq.to_json().to_pretty(),
            par.to_json().to_pretty(),
            "exp_sched must serialize identically at any MPDASH_WORKERS"
        );
    }
}
