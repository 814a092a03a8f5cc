//! `exp_aqm` — AQM on the shared WiFi AP: FIFO vs PIE vs FQ-PIE (with a
//! CoDel reference column), reproducing the streaming comparison of
//! Naik et al. ("Performance evaluation of FQ-PIE for DASH traffic").
//!
//! Topology: N clients behind one WiFi AP with a *deep* buffer (at
//! capacity the FIFO queue holds the better part of a second) plus a
//! cellular sector with headroom. The grid crosses {vanilla MPTCP,
//! MP-DASH rate-based} with the queue disciplines; the AQM cells run
//! ECN-style marking so the senders back off a whole window ahead of
//! any loss.
//!
//! The fold asserts the reproduction's orderings, each in the mode
//! where the metric is the binding constraint:
//!
//! * **p95 queue delay** (both modes) — `FQ-PIE ≤ PIE ≤ FIFO` from the
//!   AP's `queue_wait_ms` histogram, strictly better somewhere;
//! * **stall time** (vanilla) — `FQ-PIE ≤ PIE ≤ FIFO` on total stalled
//!   wall-clock. Vanilla clients have no deadline machinery, so the
//!   AP's queueing delay feeds straight into rebuffering;
//! * **fairness** (vanilla) — `Jain(FQ-PIE) ≥ Jain(FIFO)` on per-client
//!   bitrate: with no deadline scheduler redistributing load, DRR
//!   isolation is the only fairness influence and can only help;
//! * **deadline misses** (MP-DASH) — `FQ-PIE ≤ PIE ≤ FIFO`. MP-DASH
//!   absorbs queue delay by detouring to cellular, so its stall time is
//!   scheduler-, not queue-dominated — what the AQM buys the deadline
//!   scheduler is feasibility, and the miss rate is where it shows.
//!
//! Full mode adds the controller sweeps: PIE target delay, FQ-PIE
//! quantum, and AP buffer capacity (the latter in drop mode, so both
//! the marking and the dropping signal paths land in the artifact).

use crate::Table;
use mpdash_dash::abr::AbrKind;
use mpdash_dash::video::Video;
use mpdash_fleet::{FleetConfig, SharedLinkSpec};
use mpdash_link::{AqmConfig, QueueDiscipline, SharedBottleneckConfig};
use mpdash_results::{ExperimentResult, Json, ScalarGroup};
use mpdash_session::{
    run_batch, run_batch_with, BatchResult, Job, JobReport, SessionConfig, TransportMode,
};
use mpdash_sim::SimDuration;

/// Headline fleet size: enough contention that the deep FIFO buffer
/// actually fills and bufferbloats.
const CLIENTS: usize = 8;

/// Deep AP buffer per client — with FIFO, a full queue at the AP rate
/// takes ~840 ms to drain, which is the bufferbloat the AQMs cut.
const DEEP_CAPACITY: u64 = 256 * 1024;

/// AP rate per client. 2.5 Mbps against a 0.58–3.94 Mbps ladder keeps
/// the AP contended without starving it: latency, not raw throughput,
/// is the binding constraint, which is the regime AQM addresses.
const AP_MBPS_PER_CLIENT: f64 = 2.5;

fn modes() -> [TransportMode; 2] {
    [TransportMode::Vanilla, TransportMode::mpdash_rate_based()]
}

fn mode_name(mode: &TransportMode) -> &'static str {
    match mode {
        TransportMode::Vanilla => "vanilla",
        _ => "mpdash",
    }
}

/// Same 20-chunk ladder as the scheduler grid: long enough that steady
/// state, not the ABR ramp, dominates stall accounting.
fn aqm_video() -> Video {
    Video::new(
        "BBB-aqm",
        &[0.58, 1.01, 1.47, 2.41, 3.94],
        SimDuration::from_secs(4),
        20,
    )
}

/// PIE with ECN marking on — the streaming-friendly configuration: the
/// controller signals a window early instead of costing a retransmit.
fn pie_marking() -> AqmConfig {
    AqmConfig::pie().with_ecn(true)
}

/// The headline disciplines, FIFO first: the fold computes every
/// ordering against it. CoDel rides along as an ungated reference
/// column (the reproduction itself is FIFO vs PIE vs FQ-PIE).
fn disciplines() -> [(&'static str, QueueDiscipline); 4] {
    [
        ("fifo", QueueDiscipline::Fifo),
        ("pie", QueueDiscipline::Pie(pie_marking())),
        (
            "fq_pie",
            QueueDiscipline::FqPie {
                quantum: 1540,
                aqm: pie_marking(),
            },
        ),
        (
            "codel",
            QueueDiscipline::Codel(AqmConfig::codel().with_ecn(true)),
        ),
    ]
}

/// One fleet cell: the AP gives each client ~2.5 Mbps behind the deep
/// buffer under the chosen discipline, while the sector keeps ~2 Mbps
/// per client of headroom. minRTT scheduling everywhere — the queue
/// discipline is the only variable in the grid.
fn fleet_cfg(
    clients: usize,
    mode: TransportMode,
    discipline: QueueDiscipline,
    capacity_per_client: u64,
) -> FleetConfig {
    let base =
        SessionConfig::controlled_mbps(50.0, 30.0, AbrKind::Festive, mode).with_video(aqm_video());
    FleetConfig::new(base, clients)
        .with_stagger(SimDuration::from_secs(1))
        .with_rtt_skew(SimDuration::from_millis(10))
        .with_seed(11)
        .with_shared(SharedLinkSpec::wifi_ap(
            SharedBottleneckConfig::fifo_mbps(AP_MBPS_PER_CLIENT * clients as f64)
                .with_capacity(capacity_per_client * clients as u64)
                .with_discipline(discipline),
        ))
        .with_shared(SharedLinkSpec::cell_sector(
            SharedBottleneckConfig::fifo_mbps(2.0 * clients as f64),
        ))
}

/// A fleet job whose value carries the summary JSON plus
/// `total_stall_ms` (the fleet summary only counts stalls; the
/// reproduction orders their *duration*). Enrichment happens inside the
/// job so the batch shards it like any other cell.
fn aqm_fleet_job(label: String, cfg: FleetConfig) -> Job {
    Job::custom(label, move || {
        let report = mpdash_fleet::run(&cfg);
        let stall_ms: f64 = report
            .sessions
            .iter()
            .map(|s| s.qoe_all.stall_time.as_millis_f64())
            .sum();
        let Json::Obj(mut members) = report.summary_json() else {
            unreachable!("fleet summary is an object")
        };
        members.push(("total_stall_ms".into(), Json::Float(stall_ms)));
        JobReport::Value(Box::new(Json::Obj(members)))
    })
}

fn jobs(quick: bool) -> Vec<Job> {
    let mut jobs = Vec::new();
    for mode in modes() {
        for (name, d) in disciplines() {
            jobs.push(aqm_fleet_job(
                format!("grid/{}/{name}", mode_name(&mode)),
                fleet_cfg(CLIENTS, mode, d, DEEP_CAPACITY),
            ));
        }
    }
    if !quick {
        let mode = TransportMode::mpdash_rate_based();
        for target_ms in TARGET_SWEEP_MS {
            jobs.push(aqm_fleet_job(
                format!("target/{target_ms}ms"),
                fleet_cfg(
                    CLIENTS,
                    mode,
                    QueueDiscipline::Pie(pie_marking().with_target_ms(target_ms as f64)),
                    DEEP_CAPACITY,
                ),
            ));
        }
        for quantum in QUANTUM_SWEEP {
            jobs.push(aqm_fleet_job(
                format!("quantum/{quantum}"),
                fleet_cfg(
                    CLIENTS,
                    mode,
                    QueueDiscipline::FqPie {
                        quantum,
                        aqm: pie_marking(),
                    },
                    DEEP_CAPACITY,
                ),
            ));
        }
        for capacity_kib in CAPACITY_SWEEP_KIB {
            for (name, d) in [
                ("fifo", QueueDiscipline::Fifo),
                // Drop mode: the dequeue path where PIE *drops* instead
                // of marking also has to carry a fleet.
                (
                    "fq_pie",
                    QueueDiscipline::FqPie {
                        quantum: 1540,
                        aqm: AqmConfig::pie(),
                    },
                ),
            ] {
                jobs.push(aqm_fleet_job(
                    format!("capacity/{capacity_kib}KiB/{name}"),
                    fleet_cfg(CLIENTS, mode, d, capacity_kib * 1024),
                ));
            }
        }
    }
    jobs
}

const TARGET_SWEEP_MS: [u64; 3] = [5, 15, 50];
const QUANTUM_SWEEP: [u64; 3] = [750, 1540, 3000];
const CAPACITY_SWEEP_KIB: [u64; 2] = [32, 256];

fn num(j: &Json, key: &str) -> f64 {
    j.get(key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("fleet summary missing '{key}'"))
}

/// p95 of the WiFi AP's per-departure sojourn, read from the log₂
/// `queue_wait_ms` histogram: the lower bound of the first bucket whose
/// cumulative count reaches 95% of departures. Power-of-two resolution
/// is plenty — the orderings the fold asserts span multiples.
fn p95_queue_wait_ms(j: &Json) -> f64 {
    let h = j
        .get("bottlenecks")
        .and_then(|b| b.as_arr())
        .and_then(|rows| rows.first())
        .and_then(|row| row.get("metrics"))
        .and_then(|m| m.get("histograms"))
        .and_then(|hs| hs.get("queue_wait_ms"))
        .unwrap_or_else(|| panic!("fleet summary missing the wifi queue_wait_ms histogram"));
    let count = h.get("count").and_then(Json::as_u64).unwrap_or(0);
    if count == 0 {
        return 0.0;
    }
    let need = (0.95 * count as f64).ceil() as u64;
    let mut cum = 0u64;
    for bucket in h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
        let pair = bucket.as_arr().unwrap_or(&[]);
        cum += pair.get(1).and_then(Json::as_u64).unwrap_or(0);
        if cum >= need {
            return pair.first().and_then(Json::as_u64).unwrap_or(0) as f64;
        }
    }
    0.0
}

/// The per-cell numbers every table and gate works from.
struct Cell {
    stall_ms: f64,
    p95_ms: f64,
    jain: f64,
    miss: f64,
    marked: f64,
    aqm_dropped: f64,
}

fn cell(j: &Json) -> Cell {
    Cell {
        stall_ms: num(j, "total_stall_ms"),
        p95_ms: p95_queue_wait_ms(j),
        jain: num(j, "jain_bitrate"),
        miss: num(j, "deadline_miss_rate"),
        marked: j
            .get("bottlenecks")
            .and_then(|b| b.as_arr())
            .and_then(|rows| rows.first())
            .and_then(|row| row.get("marked_packets"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        aqm_dropped: j
            .get("bottlenecks")
            .and_then(|b| b.as_arr())
            .and_then(|rows| rows.first())
            .and_then(|row| row.get("dropped_aqm_packets"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    }
}

fn row_of(t: &mut Table, head: [String; 2], c: &Cell) {
    let [a, b] = head;
    t.row(&[
        a,
        b,
        format!("{:.0}", c.stall_ms),
        format!("{:.0}", c.p95_ms),
        format!("{:.4}", c.jain),
        format!("{:.3}", c.miss),
        format!("{:.0}", c.marked),
        format!("{:.0}", c.aqm_dropped),
    ]);
}

fn fold(quick: bool, batch: Vec<BatchResult>) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "aqm",
        "AQM on the shared AP — FIFO vs PIE vs FQ-PIE under streaming fleets",
    )
    .with_quick(quick);
    res.text(concat!(
        "\nEight clients behind one deep-buffered WiFi AP, queue discipline\n",
        "the only variable. Invariants: FQ-PIE <= PIE <= FIFO on p95 queue\n",
        "delay in both modes (strictly better somewhere); on total stall\n",
        "time, plus Jain(FQ-PIE) >= Jain(FIFO), under vanilla MPTCP; and\n",
        "on the deadline-miss rate under MP-DASH, where the scheduler\n",
        "absorbs queue delay by detouring to cellular.",
    ));
    let mut next = batch.iter();

    let header = [
        "mode",
        "discipline",
        "stall ms",
        "p95 queue ms",
        "jain(bitrate)",
        "miss rate",
        "marked",
        "aqm drops",
    ];
    let mut t = Table::new(&header);
    let mut best_p95_cut: f64 = 0.0;
    let mut best_stall_cut: f64 = 0.0;
    for mode in modes() {
        let vanilla = matches!(mode, TransportMode::Vanilla);
        // Per-mode binding metric: stall time where the client has no
        // deadline machinery, miss rate where MP-DASH's detours make
        // stall time scheduler-dominated (see the module docs).
        let binding = |c: &Cell| if vanilla { c.stall_ms } else { c.miss };
        let binding_name = if vanilla { "stall time" } else { "miss rate" };
        let mut fifo: Option<Cell> = None;
        let mut pie: Option<Cell> = None;
        for (name, _) in disciplines() {
            let j = next.next().unwrap().value().expect("aqm fleet job").clone();
            let c = cell(&j);
            row_of(&mut t, [mode_name(&mode).into(), name.into()], &c);
            match name {
                "fifo" => {
                    assert_eq!(
                        c.marked + c.aqm_dropped,
                        0.0,
                        "FIFO produced AQM signals — the no-AQM path is contaminated"
                    );
                    fifo = Some(c);
                }
                "pie" => {
                    let f = fifo.as_ref().unwrap();
                    assert!(
                        binding(&c) <= binding(f),
                        "{}: PIE {binding_name} {:.4} > FIFO {:.4}",
                        mode_name(&mode),
                        binding(&c),
                        binding(f)
                    );
                    assert!(
                        c.p95_ms <= f.p95_ms,
                        "{}: PIE p95 queue delay {:.0}ms > FIFO {:.0}ms",
                        mode_name(&mode),
                        c.p95_ms,
                        f.p95_ms
                    );
                    pie = Some(c);
                }
                "fq_pie" => {
                    let (f, p) = (fifo.as_ref().unwrap(), pie.as_ref().unwrap());
                    assert!(
                        binding(&c) <= binding(p),
                        "{}: FQ-PIE {binding_name} {:.4} > PIE {:.4}",
                        mode_name(&mode),
                        binding(&c),
                        binding(p)
                    );
                    assert!(
                        c.p95_ms <= p.p95_ms,
                        "{}: FQ-PIE p95 queue delay {:.0}ms > PIE {:.0}ms",
                        mode_name(&mode),
                        c.p95_ms,
                        p.p95_ms
                    );
                    if vanilla {
                        assert!(
                            c.jain + 1e-9 >= f.jain,
                            "vanilla: Jain(FQ-PIE) {:.4} < Jain(FIFO) {:.4}",
                            c.jain,
                            f.jain
                        );
                        best_stall_cut = best_stall_cut.max(f.stall_ms - c.stall_ms);
                    }
                    best_p95_cut = best_p95_cut.max(f.p95_ms - c.p95_ms);
                }
                _ => {} // codel: reference column, ungated
            }
        }
    }
    assert!(
        best_p95_cut > 0.0,
        "FQ-PIE must strictly cut FIFO's p95 queue delay somewhere in the grid"
    );
    res.table(t);
    res.scalars(
        ScalarGroup::new("aqm invariants")
            .with("best_fq_pie_p95_cut_ms", best_p95_cut)
            .with("best_fq_pie_stall_cut_ms", best_stall_cut),
    );

    if !quick {
        let mut t = Table::new(&header);
        for target_ms in TARGET_SWEEP_MS {
            let j = next.next().unwrap().value().expect("target sweep").clone();
            row_of(
                &mut t,
                ["pie target".into(), format!("{target_ms} ms")],
                &cell(&j),
            );
        }
        for quantum in QUANTUM_SWEEP {
            let j = next.next().unwrap().value().expect("quantum sweep").clone();
            row_of(
                &mut t,
                ["fq_pie quantum".into(), format!("{quantum} B")],
                &cell(&j),
            );
        }
        for capacity_kib in CAPACITY_SWEEP_KIB {
            for name in ["fifo", "fq_pie(drop)"] {
                let j = next
                    .next()
                    .unwrap()
                    .value()
                    .expect("capacity sweep")
                    .clone();
                let c = cell(&j);
                if name != "fifo" {
                    assert_eq!(
                        c.marked, 0.0,
                        "drop-mode FQ-PIE must never mark ({capacity_kib} KiB)"
                    );
                }
                row_of(
                    &mut t,
                    [format!("cap {capacity_kib} KiB/client"), name.into()],
                    &c,
                );
            }
        }
        res.table(t);
    }
    res
}

/// Compute the AQM grid on the default worker pool.
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
    crate::experiments::run_timed("aqm", quick, result);
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
            "exp_aqm must serialize identically at any MPDASH_WORKERS"
        );
    }
}
