//! `exp aqm` — AQM on the shared WiFi AP: FIFO vs PIE vs FQ-PIE (with a
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

use crate::grid::Grid;
use crate::shapes::{contended_fleet, fleet_client, vanilla_and_mpdash};
use crate::Table;
use mpdash_fleet::{BottleneckSummary, FleetConfig, FleetReport};
use mpdash_link::{AqmConfig, QueueDiscipline, SharedBottleneckConfig};
use mpdash_results::{ExperimentResult, ScalarGroup};
use mpdash_session::TransportMode;

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

/// PIE with ECN marking on — the streaming-friendly configuration: the
/// controller signals a window early instead of costing a retransmit.
fn pie_marking() -> AqmConfig {
    AqmConfig::pie().with_ecn(true)
}

fn fq_pie(aqm: AqmConfig) -> QueueDiscipline {
    QueueDiscipline::FqPie { quantum: 1540, aqm }
}

/// The headline disciplines; the fold orders PIE and FQ-PIE against
/// FIFO. CoDel rides along as an ungated reference column (the
/// reproduction itself is FIFO vs PIE vs FQ-PIE).
fn disciplines() -> [(&'static str, QueueDiscipline); 4] {
    [
        ("fifo", QueueDiscipline::Fifo),
        ("pie", QueueDiscipline::Pie(pie_marking())),
        ("fq_pie", fq_pie(pie_marking())),
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
    mode: TransportMode,
    discipline: QueueDiscipline,
    capacity_per_client: u64,
) -> FleetConfig {
    contended_fleet(
        fleet_client("BBB-aqm", mode),
        CLIENTS,
        SharedBottleneckConfig::fifo_mbps(AP_MBPS_PER_CLIENT * CLIENTS as f64)
            .with_capacity(capacity_per_client * CLIENTS as u64)
            .with_discipline(discipline),
        SharedBottleneckConfig::fifo_mbps(2.0 * CLIENTS as f64),
    )
}

const TARGET_SWEEP_MS: [u64; 3] = [5, 15, 50];
const QUANTUM_SWEEP: [u64; 3] = [750, 1540, 3000];
const CAPACITY_SWEEP_KIB: [u64; 2] = [32, 256];

/// The per-cell numbers every table and gate works from, reduced from
/// the replica's report on the worker.
struct Cell {
    /// Total stalled time across clients (the fleet report only counts
    /// stalls; the reproduction orders their *duration*).
    stall_ms: f64,
    p95_ms: f64,
    jain: f64,
    miss: f64,
    marked: u64,
    aqm_dropped: u64,
}

fn cell(r: &FleetReport) -> Cell {
    let ap = &r.bottlenecks[0];
    Cell {
        stall_ms: r
            .sessions
            .iter()
            .map(|s| s.qoe_all.stall_time.as_millis_f64())
            .sum(),
        p95_ms: p95_queue_wait_ms(ap),
        jain: r.jain_bitrate,
        miss: r.deadline_miss_rate,
        marked: ap.stats.marked_packets,
        aqm_dropped: ap.stats.dropped_aqm_packets,
    }
}

/// p95 of the WiFi AP's per-departure sojourn, read from the log₂
/// `queue_wait_ms` histogram: the lower bound of the first bucket whose
/// cumulative count reaches 95% of departures. Power-of-two resolution
/// is plenty — the orderings the fold asserts span multiples.
fn p95_queue_wait_ms(ap: &BottleneckSummary) -> f64 {
    let (_, h) = ap
        .metrics
        .histograms
        .iter()
        .find(|(name, _)| name == "queue_wait_ms")
        .expect("the AP records a queue_wait_ms histogram");
    let need = (0.95 * h.count as f64).ceil() as u64;
    let mut cum = 0u64;
    for &(lo, n) in &h.buckets {
        cum += n;
        if cum >= need {
            return lo as f64;
        }
    }
    0.0
}

const HEADER: [&str; 8] = [
    "mode",
    "discipline",
    "stall ms",
    "p95 queue ms",
    "jain(bitrate)",
    "miss rate",
    "marked",
    "aqm drops",
];

fn row_of(t: &mut Table, head: [String; 2], c: &Cell) {
    let [a, b] = head;
    t.row(&[
        a,
        b,
        format!("{:.0}", c.stall_ms),
        format!("{:.0}", c.p95_ms),
        format!("{:.4}", c.jain),
        format!("{:.3}", c.miss),
        format!("{}", c.marked),
        format!("{}", c.aqm_dropped),
    ]);
}

/// Compute the AQM grid: modes × disciplines, then (full mode) the
/// controller sweeps.
pub fn result(quick: bool, workers: usize) -> ExperimentResult {
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

    let mut cells = Vec::new();
    for (mode_name, mode) in vanilla_and_mpdash() {
        for (name, d) in disciplines() {
            cells.push(((mode_name, name), fleet_cfg(mode, d, DEEP_CAPACITY)));
        }
    }
    let grid = Grid::run(workers, cells, |cfg| cell(&mpdash_fleet::run(cfg)));

    let mut t = Table::new(&HEADER);
    let mut best_p95_cut: f64 = 0.0;
    let mut best_stall_cut: f64 = 0.0;
    for (&(mode_name, name), c) in grid.iter() {
        row_of(&mut t, [mode_name.into(), name.into()], c);
        let vanilla = mode_name == "vanilla";
        // Per-mode binding metric: stall time where the client has no
        // deadline machinery, miss rate where MP-DASH's detours make
        // stall time scheduler-dominated (see the module docs).
        let binding = |c: &Cell| if vanilla { c.stall_ms } else { c.miss };
        let binding_name = if vanilla { "stall time" } else { "miss rate" };
        // `c` must not be worse than `than` on the binding metric or on
        // p95 queue delay.
        let no_worse = |than_name: &str, than: &Cell| {
            assert!(
                binding(c) <= binding(than),
                "{mode_name}: {name} {binding_name} {:.4} > {than_name} {:.4}",
                binding(c),
                binding(than)
            );
            assert!(
                c.p95_ms <= than.p95_ms,
                "{mode_name}: {name} p95 queue delay {:.0}ms > {than_name} {:.0}ms",
                c.p95_ms,
                than.p95_ms
            );
        };
        let fifo = &grid[(mode_name, "fifo")];
        match name {
            "fifo" => assert_eq!(
                c.marked + c.aqm_dropped,
                0,
                "FIFO produced AQM signals — the no-AQM path is contaminated"
            ),
            "pie" => no_worse("fifo", fifo),
            "fq_pie" => {
                no_worse("pie", &grid[(mode_name, "pie")]);
                if vanilla {
                    assert!(
                        c.jain + 1e-9 >= fifo.jain,
                        "vanilla: Jain(FQ-PIE) {:.4} < Jain(FIFO) {:.4}",
                        c.jain,
                        fifo.jain
                    );
                    best_stall_cut = best_stall_cut.max(fifo.stall_ms - c.stall_ms);
                }
                best_p95_cut = best_p95_cut.max(fifo.p95_ms - c.p95_ms);
            }
            _ => {} // codel: reference column, ungated
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
        res.table(sweeps(workers));
    }
    res
}

/// The controller sweeps under MP-DASH: PIE target delay, FQ-PIE
/// quantum, and AP buffer capacity. Each cell is keyed by the two
/// leading columns of its table row.
fn sweeps(workers: usize) -> Table {
    let mode = TransportMode::mpdash_rate_based();
    let mut cells = Vec::new();
    for target_ms in TARGET_SWEEP_MS {
        let d = QueueDiscipline::Pie(pie_marking().with_target_ms(target_ms as f64));
        let key = ["pie target".to_string(), format!("{target_ms} ms")];
        cells.push((key, fleet_cfg(mode, d, DEEP_CAPACITY)));
    }
    for quantum in QUANTUM_SWEEP {
        let d = QueueDiscipline::FqPie {
            quantum,
            aqm: pie_marking(),
        };
        let key = ["fq_pie quantum".to_string(), format!("{quantum} B")];
        cells.push((key, fleet_cfg(mode, d, DEEP_CAPACITY)));
    }
    for capacity_kib in CAPACITY_SWEEP_KIB {
        // Drop mode: the dequeue path where PIE *drops* instead of
        // marking also has to carry a fleet.
        for (name, d) in [
            ("fifo", QueueDiscipline::Fifo),
            ("fq_pie(drop)", fq_pie(AqmConfig::pie())),
        ] {
            let key = [format!("cap {capacity_kib} KiB/client"), name.to_string()];
            cells.push((key, fleet_cfg(mode, d, capacity_kib * 1024)));
        }
    }
    let grid = Grid::run(workers, cells, |cfg| cell(&mpdash_fleet::run(cfg)));

    let mut t = Table::new(&HEADER);
    for (head, c) in grid.iter() {
        if head[1] == "fq_pie(drop)" {
            assert_eq!(
                c.marked, 0,
                "drop-mode FQ-PIE must never mark ({})",
                head[0]
            );
        }
        row_of(&mut t, head.clone(), c);
    }
    t
}
