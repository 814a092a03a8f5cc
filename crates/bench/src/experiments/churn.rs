//! `exp churn` — fleet churn, correlated fault domains, and overload
//! shedding, with the runtime invariant watchdog armed everywhere.
//!
//! The grid crosses **churn rate** (light: ~5 concurrent viewers;
//! heavy: arrivals pack far past the admission cap) × **fault-domain
//! severity** (none, or a WiFi outage over a fixed four-client region
//! mid-run) × **overload policy** (admit everyone vs shed arrivals past
//! `MAX_ACTIVE`). Every cell runs through
//! [`mpdash_fleet::run_checked`] with the watchdog explicitly armed, so
//! a single invariant violation anywhere in the grid fails the
//! experiment with a typed error.
//!
//! The fold asserts the three robustness invariants this PR promises:
//!
//! 1. **Outages are bridged**: with a domain-wide WiFi outage, the
//!    affected clients' aggregate cellular share *during the outage
//!    window* rises (measured from 2 s epoch telemetry — whole-run
//!    shares are confounded by the ABR downshifting onto rungs WiFi
//!    alone can carry) and no cell of the grid stalls more than its
//!    outage-free twin — cellular bridges the dark window for every
//!    member.
//! 2. **Shedding beats collapse**: under heavy churn, the no-shed
//!    fleet's deadline-miss rate collapses; with shedding, admitted
//!    sessions stay under [`MISS_RATE_BOUND`] and strictly beat the
//!    no-shed rate, while the shed counter proves the policy engaged.
//! 3. **Zero watchdog violations** across all eight cells, with the
//!    check counter proving the watchdog actually ran.
//!
//! Each cell is one batch job, reduced on its worker to the numbers the
//! fold reads, so the grid shards over `MPDASH_WORKERS` with
//! bit-identical artifacts at any worker count.

use crate::grid::Grid;
use crate::shapes::fleet_client;
use crate::Table;
use mpdash_fleet::{
    ChurnSpec, FaultDomainSpec, FleetConfig, FleetReport, OverloadPolicy, SharedLinkSpec,
};
use mpdash_link::{FaultScript, SharedBottleneckConfig};
use mpdash_obs::TelemetrySpec;
use mpdash_results::{ExperimentResult, ScalarGroup};
use mpdash_session::TransportMode;
use mpdash_sim::{SimDuration, SimTime};

/// Admission cap of the shed cells; the shared capacity below is sized
/// so this many concurrent sessions stream comfortably.
const MAX_ACTIVE: usize = 4;

/// Upper bound on the admitted sessions' deadline-miss rate when
/// shedding is on — the "bounded, not collapsed" half of invariant 2.
const MISS_RATE_BOUND: f64 = 0.30;

/// Clients in the regional fault domain. Fixed, not a fleet fraction: a
/// fault domain is a *place* — the clients behind one physical AP — and
/// growing the fleet adds viewers elsewhere, not more people to the
/// café. (It also matches the admission cap, so a domain outage can
/// never be diluted below the concurrency the shed cells admit.)
const REGION_SIZE: usize = 4;

/// One churn intensity of the grid: a label, the arrival/viewing spec,
/// and how many clients the plan covers. Heavy churn is heavier in
/// *both* dimensions — twice the fleet packed into 1 s mean
/// inter-arrivals — so without shedding its concurrency runs far past
/// what the shared capacity below can carry even at the lowest rung.
struct ChurnLevel {
    name: &'static str,
    spec: ChurnSpec,
    clients: usize,
}

/// Light churn turns the fleet over around the admission cap (Little's
/// law: 30 s watch / 6 s inter-arrival ≈ 5 concurrent, peaking at 4);
/// heavy churn packs twice the arrivals an order of magnitude tighter.
/// Quick trims the fleet, not the video: shorter sessions are dominated
/// by the ABR ramp and the churn plan barely overlaps.
fn churn_levels(quick: bool) -> [ChurnLevel; 2] {
    [
        ChurnLevel {
            name: "light",
            spec: ChurnSpec::new(SimDuration::from_secs(6), SimDuration::from_secs(30)),
            clients: if quick { 8 } else { 12 },
        },
        ChurnLevel {
            name: "heavy",
            spec: ChurnSpec::new(SimDuration::from_millis(1000), SimDuration::from_secs(40)),
            clients: if quick { 16 } else { 24 },
        },
    ]
}

/// The regional outage: every domain member's WiFi disassociates at
/// t=30 s for 3 s plus a 1 s reassociation. The window is placed where
/// the light plan's long-lived member (client 0) streams at a high rung
/// with late arrivals already departed, so bridging is squarely the
/// transport's job: the link-down signal fails the WiFi subflow over to
/// cellular immediately, and the 12 s player buffer rides out whatever
/// the sector cannot absorb.
fn outage_script() -> FaultScript {
    FaultScript::new().disassociation(
        SimTime::from_secs(30),
        SimDuration::from_secs(3),
        SimDuration::from_secs(1),
    )
}

/// Virtual-time window the bridging invariant measures: the 3 s dark
/// window plus reassociation, rounded out to whole 2 s telemetry
/// epochs.
const OUTAGE_WINDOW_S: (f64, f64) = (30.0, 36.0);

const SEVERITIES: [&str; 2] = ["none", "wifi-outage"];
const POLICIES: [&str; 2] = ["no-shed", "shed"];

/// One grid cell. Capacity is sized for the admission cap, not the
/// fleet: `MAX_ACTIVE` concurrent sessions get ~1.2 Mbps of AP and
/// ~0.8 Mbps of sector each — comfortable for the cap (and for light
/// churn, which peaks at the cap), with enough sector headroom that a
/// failed-over member can drain a high-rung in-flight chunk while the
/// rest of the fleet leans on cellular too — while heavy churn's fleet
/// cannot fit even at the lowest rung (16 × 0.58 Mbps > 8.0 Mbps
/// total), so admitting everyone genuinely collapses the shared queues.
/// The 10 s player buffer paces downloads to playback, which is what
/// lets viewing-time departures and mid-stream outages land while
/// chunks are in flight.
fn cell_cfg(level: &ChurnLevel, severity: &str, policy: &str) -> FleetConfig {
    let base = fleet_client("BBB-churn", TransportMode::mpdash_rate_based())
        .with_buffer_capacity(SimDuration::from_secs(10));
    let mut cfg = FleetConfig::new(base, level.clients)
        .with_seed(23)
        .with_churn(level.spec)
        .with_watchdog(true)
        .with_telemetry(TelemetrySpec::seconds(2.0))
        .with_shared(SharedLinkSpec::wifi_ap(SharedBottleneckConfig::fifo_mbps(
            1.2 * MAX_ACTIVE as f64,
        )))
        .with_shared(SharedLinkSpec::cell_sector(
            SharedBottleneckConfig::fifo_mbps(0.8 * MAX_ACTIVE as f64),
        ));
    if severity != "none" {
        cfg = cfg.with_fault_domain(
            FaultDomainSpec::new("region", (0..REGION_SIZE).collect()).with_wifi(outage_script()),
        );
    }
    if policy == "shed" {
        cfg = cfg.with_overload(OverloadPolicy::max_active(MAX_ACTIVE));
    }
    cfg
}

/// Aggregate cellular byte share of the fault-domain members (the
/// first [`REGION_SIZE`] clients) over the epochs covering
/// [`OUTAGE_WINDOW_S`], from per-session telemetry. Whole-run shares
/// cannot carry the bridging invariant: an outage makes the ABR
/// downshift, and the lower rungs fit on WiFi alone for the rest of
/// the session, diluting cellular's whole-run fraction even though it
/// carried the dark window.
fn member_outage_cell_share(report: &FleetReport) -> f64 {
    let (mut wifi, mut cell) = (0u64, 0u64);
    for s in report.sessions.iter().take(REGION_SIZE) {
        let Some(e) = s.epochs.as_ref() else { continue };
        let len = e.epoch_len().as_secs_f64();
        for (i, c) in e.cells() {
            let start = i as f64 * len;
            if start + len > OUTAGE_WINDOW_S.0 && start < OUTAGE_WINDOW_S.1 {
                wifi += c.counter("wifi_bytes");
                cell += c.counter("cell_bytes");
            }
        }
    }
    if wifi + cell == 0 {
        0.0
    } else {
        cell as f64 / (wifi + cell) as f64
    }
}

/// What the fold reads of one fleet replica.
struct Cell {
    shed_sessions: u64,
    departed_sessions: u64,
    miss_rate: f64,
    stalls: u64,
    mean_bitrate_mbps: f64,
    /// Telemetry-derived: see [`member_outage_cell_share`].
    member_outage_cell_share: f64,
}

/// Run one cell through `run_checked` with the armed watchdog: a
/// violation fails the cell with its typed message, and a guard checks
/// that the checker actually ran.
fn cell(cfg: &FleetConfig) -> Cell {
    let report = match mpdash_fleet::run_checked(cfg) {
        Ok(r) => r,
        Err(v) => panic!("invariant violated: {v}"),
    };
    assert!(
        report.profile.watchdog_checks > 0,
        "the watchdog must have run"
    );
    Cell {
        shed_sessions: report.shed_sessions,
        departed_sessions: report.departed_sessions,
        miss_rate: report.deadline_miss_rate,
        stalls: report.total_stalls,
        mean_bitrate_mbps: report.mean_bitrate_mbps(),
        member_outage_cell_share: member_outage_cell_share(&report),
    }
}

/// Compute the churn grid: churn levels × severities × policies as one
/// batch.
pub fn result(quick: bool, workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "churn",
        "Fleet churn — arrivals/departures, correlated fault domains, overload shedding",
    )
    .with_quick(quick);
    res.text(concat!(
        "\nSeeded exponential arrivals and viewing-time departures over a\n",
        "shared AP + cell sector sized for the admission cap, crossed\n",
        "with a WiFi outage over a fixed four-client region and an\n",
        "overload policy shedding arrivals past the cap. The runtime\n",
        "invariant watchdog is armed in every cell. Invariants: cellular\n",
        "bridges the outage for every member with no stalls beyond the\n",
        "outage-free twin; under heavy churn, shedding keeps admitted\n",
        "sessions' deadline-miss rate bounded and strictly below the\n",
        "no-shed collapse; zero watchdog violations anywhere.",
    ));

    let mut cells = Vec::new();
    for level in churn_levels(quick) {
        for severity in SEVERITIES {
            for policy in POLICIES {
                let key = (level.name, level.clients, severity, policy);
                cells.push((key, cell_cfg(&level, severity, policy)));
            }
        }
    }
    let grid = Grid::run(workers, cells, cell);

    let mut t = Table::new(&[
        "churn",
        "clients",
        "domain",
        "policy",
        "shed",
        "departed",
        "miss rate",
        "stalls",
        "bitrate",
        "member cell% @30-36s",
    ]);
    let mut worst_stall_delta = i64::MIN;
    let mut min_share_gain = f64::INFINITY;
    let mut worst_shed_miss = 0.0f64;
    let mut best_noshed_miss = f64::INFINITY;
    for (&(churn, clients, severity, policy), c) in grid.iter() {
        t.row(&[
            churn.into(),
            format!("{clients}"),
            severity.into(),
            policy.into(),
            format!("{}", c.shed_sessions),
            format!("{}", c.departed_sessions),
            format!("{:.3}", c.miss_rate),
            format!("{}", c.stalls),
            format!("{:.2}", c.mean_bitrate_mbps),
            format!("{:.3}", c.member_outage_cell_share),
        ]);

        // Invariant 1: the outage is bridged. For each (churn, policy)
        // pair whose fleet is not in designed collapse — every pair
        // except heavy/no-shed, where the outage-free "baseline" is
        // itself a collapsed fleet — comparing the outage cell against
        // its outage-free twin: the members' cellular share during the
        // outage window must rise, and fleet-wide stalls must not. That
        // the invariant holds for heavy/*shed* is the composition this
        // grid exists to show: overload shedding is what keeps the
        // fault-domain failover bridgeable.
        if severity == "wifi-outage" && (churn, policy) != ("heavy", "no-shed") {
            let calm = &grid[(churn, clients, "none", policy)];
            let gain = c.member_outage_cell_share - calm.member_outage_cell_share;
            let stall_delta = c.stalls as i64 - calm.stalls as i64;
            assert!(
                gain > 0.0,
                "{churn}/{policy}: members' outage-window cellular share \
                 must rise (gain {gain:.4})"
            );
            assert!(
                stall_delta <= 0,
                "{churn}/{policy}: the outage added {stall_delta} stalls \
                 — cellular failed to bridge it"
            );
            min_share_gain = min_share_gain.min(gain);
            worst_stall_delta = worst_stall_delta.max(stall_delta);
        }

        // Invariant 2: shedding beats the no-shed collapse under heavy
        // churn, in both fault severities.
        if (churn, policy) == ("heavy", "shed") {
            let (m_shed, m_noshed) = (
                c.miss_rate,
                grid[(churn, clients, severity, "no-shed")].miss_rate,
            );
            assert!(
                c.shed_sessions > 0,
                "heavy/{severity}: the overload policy must have shed someone"
            );
            assert!(
                m_shed < m_noshed,
                "heavy/{severity}: shed miss rate {m_shed:.3} must beat no-shed {m_noshed:.3}"
            );
            assert!(
                m_shed <= MISS_RATE_BOUND,
                "heavy/{severity}: admitted sessions' miss rate {m_shed:.3} exceeds \
                 the {MISS_RATE_BOUND} bound"
            );
            worst_shed_miss = worst_shed_miss.max(m_shed);
            best_noshed_miss = best_noshed_miss.min(m_noshed);
        }
    }
    res.table(t);

    res.scalars(
        ScalarGroup::new("churn invariants")
            .with("min_member_cell_share_gain", min_share_gain)
            .with("worst_outage_stall_delta", worst_stall_delta as f64)
            .with("worst_heavy_shed_miss_rate", worst_shed_miss)
            .with("best_heavy_noshed_miss_rate", best_noshed_miss),
    );
    res
}
