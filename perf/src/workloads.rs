//! The four workloads: what one pass runs, how a pass is judged, and
//! the vacuity guards that prove each workload exercised what it claims.
//!
//! Every config is written out here and not imported from
//! `mpdash_bench::experiments::*`, so an experiment edit can never
//! silently change a workload. The program under test receives only the
//! generated configs; `seed` is the single source of randomness.

use crate::alloc;
use crate::calibrate;
use crate::spans::Spans;
use mpdash_dash::abr::AbrKind;
use mpdash_dash::video::Video;
use mpdash_energy::session_energy;
use mpdash_fleet::{
    ChurnSpec, FaultDomainSpec, FleetCacheSpec, FleetConfig, FleetReport, OverloadPolicy,
    SharedLinkSpec,
};
use mpdash_http::{LifecyclePolicy, OriginPoolConfig, OriginSpec, ServerFaultScript};
use mpdash_link::{AqmConfig, FaultScript, PathId, QueueDiscipline, SharedBottleneckConfig};
use mpdash_mptcp::SchedulerSpec;
use mpdash_obs::{HistogramSnapshot, InvariantViolation, TelemetrySpec, Tracer};
use mpdash_session::{SessionConfig, SessionReport, StreamingSession, TransportMode};
use mpdash_sim::{derive_seed, SimDuration, SimTime};
use mpdash_trace::table1::synthetic_profile_pair;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One workload of the benchmark.
pub struct Workload {
    pub name: &'static str,
    /// One-line rationale, repeated verbatim in `BENCHMARK.json`.
    pub why: &'static str,
    /// Configs of one timed pass, generated from the seed.
    pub plan: fn(u64) -> Vec<Unit>,
    /// The fixed untimed warm-up slice run inside set-up: the same
    /// whatever the seed, so `setup_s` varies with the seed only through
    /// generating the configs.
    pub warm_up: fn() -> Vec<Unit>,
    /// Vacuity guards: one message per claimed feature that did not fire.
    pub guards: fn(&[Unit], &Tally) -> Vec<String>,
    /// For a workload on the fleet size curve: its per-client config at
    /// a quarter of the clients, the base of `fleet.scale_ratio_64_over_16`.
    pub quarter_size: Option<fn() -> FleetConfig>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "solo_grid",
        why: "The paper's single-client path: 48 standalone sessions (4 profiles x 4 ABRs x 3 modes) on private links. Bypasses fleet, shared bottlenecks, origins and cache: the no-change workload for fleet work.",
        plan: solo_grid,
        warm_up: || solo_grid(WARM_UP_SEED).into_iter().take(3).collect(),
        guards: solo_guards,
        quarter_size: None,
    },
    Workload {
        name: "fleet16_contended",
        why: "exp_sched's heaviest cell, frozen: 16 MP-DASH clients with QAware on a contended FIFO AP and sector. The low point of the fleet size curve, and the only perf trajectory the repo had.",
        plan: |_| {
            (0..FLEET16_RUNS)
                .map(|_| Unit::Fleet(contended(16, SchedulerSpec::QAware, 10, 20)))
                .collect()
        },
        warm_up: small_contended,
        guards: contended_guards,
        quarter_size: None,
    },
    Workload {
        name: "fleet64_contended",
        why: "The same topology at 64 clients: the per-event scan over every session dominates, so a fleet event-core change must show here, and the size curve's shape is read here.",
        plan: |_| vec![Unit::Fleet(contended(64, SchedulerSpec::MinRtt, 1, FLEET64_CHUNKS))],
        warm_up: small_contended,
        guards: contended_guards,
        quarter_size: Some(|| contended(16, SchedulerSpec::MinRtt, 1, FLEET64_CHUNKS)),
    },
    Workload {
        name: "fleet192_churn_mix",
        why: "192 churning clients behind an admission cap, with AQM, a fault domain, a blackholed origin, cache, telemetry and an armed watchdog: the same fleet loop with mostly idle clients and every policy on.",
        plan: |seed| {
            (0..CHURN_FLEETS)
                .map(|i| Unit::Fleet(churn_mix(192, seed + 1000 * i)))
                .collect()
        },
        warm_up: || vec![Unit::Fleet(churn_mix(12, WARM_UP_SEED))],
        guards: churn_guards,
        quarter_size: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const WARM_UP_SEED: u64 = 11;

/// Back-to-back runs of the 16-client fleet in one pass (one run is
/// ~0.7 s, too short to time against a few-percent bound).
const FLEET16_RUNS: u64 = 4;
/// Fleet seeds per `fleet192_churn_mix` pass.
const CHURN_FLEETS: u64 = 2;

/// The three transport policies of the solo grid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Vanilla,
    Rate,
    Duration,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Vanilla, Mode::Rate, Mode::Duration];

    fn transport(self) -> TransportMode {
        match self {
            Mode::Vanilla => TransportMode::Vanilla,
            Mode::Rate => TransportMode::mpdash_rate_based(),
            Mode::Duration => TransportMode::mpdash_duration_based(),
        }
    }
}

/// One independently run piece of a pass.
pub enum Unit {
    /// A standalone session; `profile` and `mode` tag its grid cell.
    Session {
        cfg: SessionConfig,
        profile: usize,
        mode: Mode,
    },
    Fleet(FleetConfig),
}

impl Unit {
    /// Sessions this unit attempts.
    pub fn sessions(&self) -> u64 {
        match self {
            Unit::Session { .. } => 1,
            Unit::Fleet(cfg) => cfg.clients as u64,
        }
    }
}

/// Table 1's means with the noise levels of its four non-office rows:
/// (WiFi Mbps, LTE Mbps, sigma).
const PROFILES: [(f64, f64, f64); 4] = [
    (3.8, 3.0, 0.10),
    (3.8, 3.0, 0.30),
    (5.2, 8.1, 0.45),
    (1.4, 7.6, 0.40),
];

/// The paper's four rate-adaptation algorithms.
const ABRS: [AbrKind; 4] = [AbrKind::Gpac, AbrKind::Festive, AbrKind::Bba, AbrKind::BbaC];

/// 4 s chunks a solo session streams: 5 of Big Buck Bunny's 10 minutes.
const SOLO_CHUNKS: usize = 75;

/// The grid's first cell as (vanilla, MP-DASH rate) configs: what the
/// `session` probes drive.
pub fn solo_pair(seed: u64) -> (SessionConfig, SessionConfig) {
    let mut cells = solo_grid(seed).into_iter().map(|u| match u {
        Unit::Session { cfg, .. } => cfg,
        Unit::Fleet(_) => unreachable!("the solo grid holds sessions only"),
    });
    let vanilla = cells.next().expect("grid cell 0");
    (vanilla, cells.next().expect("grid cell 1"))
}

fn solo_grid(seed: u64) -> Vec<Unit> {
    // Big Buck Bunny's ladder and chunking, cut to its first 5 minutes.
    // A session's cost is chaotic in its profile (the busiest MP-DASH
    // cells swing 3x between seeds), so a pass steadies only by holding
    // many independent sessions; halving their length doubles how many
    // fit. Full-length sessions spread 18% between seeds, these 6%.
    let bbb = Video::big_buck_bunny();
    let ladder: Vec<f64> = bbb.bitrates().iter().map(|r| r.as_mbps_f64()).collect();
    let video = Video::new("BBB-5min", &ladder, bbb.chunk_duration(), SOLO_CHUNKS);
    let mut units = Vec::new();
    for (p, &(wifi, cell, sigma)) in PROFILES.iter().enumerate() {
        for (a, abr) in ABRS.into_iter().enumerate() {
            // One seeded pair per (profile, ABR) cell; its three modes
            // share it, which is what makes them twins.
            let cell_seed = derive_seed(seed, (p * ABRS.len() + a) as u64);
            let pair = synthetic_profile_pair(wifi, cell, sigma, cell_seed);
            for mode in Mode::ALL {
                let cfg = SessionConfig::controlled(pair.clone(), abr, mode.transport())
                    .with_video(video.clone())
                    .with_tracer(Tracer::disabled());
                units.push(Unit::Session {
                    cfg,
                    profile: p,
                    mode,
                });
            }
        }
    }
    units
}

/// The ladder every fleet workload streams, in 4 s chunks.
fn fleet_video(chunks: usize) -> Video {
    Video::new(
        "BBB-perf",
        &[0.58, 1.01, 1.47, 2.41, 3.94],
        SimDuration::from_secs(4),
        chunks,
    )
}

/// The contended topology: a scarce AP (1.5 Mbps/client) behind a deep
/// 64 KiB/client buffer, a sector with headroom (2 Mbps/client), FIFO
/// both, 1 s stagger, watchdog pinned off (telemetry is off because the
/// harness refuses to start with `MPDASH_TELEMETRY` set). Constant-rate
/// lossless links: this fleet draws no random numbers.
pub fn contended(
    clients: usize,
    sched: SchedulerSpec,
    rtt_skew_ms: u64,
    chunks: usize,
) -> FleetConfig {
    let base = SessionConfig::controlled_mbps(
        50.0,
        30.0,
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    )
    .with_video(fleet_video(chunks))
    .with_scheduler(sched)
    .with_tracer(Tracer::disabled());
    FleetConfig::new(base, clients)
        .with_stagger(SimDuration::from_secs(1))
        .with_rtt_skew(SimDuration::from_millis(rtt_skew_ms))
        .with_seed(11)
        .with_watchdog(false)
        .with_shared(SharedLinkSpec::wifi_ap(
            SharedBottleneckConfig::fifo_mbps(1.5 * clients as f64)
                .with_capacity(64 * 1024 * clients as u64),
        ))
        .with_shared(SharedLinkSpec::cell_sector(
            SharedBottleneckConfig::fifo_mbps(2.0 * clients as f64),
        ))
}

fn small_contended() -> Vec<Unit> {
    vec![Unit::Fleet(contended(4, SchedulerSpec::QAware, 10, 20))]
}

/// Chunks the 64-client fleet streams: 14 and not 20, so that a pass
/// takes ~3 s and a run fits several; the scan over 64 sessions per
/// event, which is what this workload is for, is the same.
const FLEET64_CHUNKS: usize = 14;

/// Concurrent sessions the churn mix admits; shared capacity is sized
/// for this many, not for the fleet.
const CHURN_CAP: usize = 24;

/// Share of a chunk's deadline budget without progress after which a
/// second origin is raced. Tuned so that both escapes from the dark
/// primary occur: below 0.3 hedges always pre-empt the stall timeout
/// (no failover), from 0.5 up the timeout always wins (no hedge).
const HEDGE_QUANTILE: f64 = 0.35;

/// The churning mixed-policy fleet. `fleet_seed` drives the churn plan
/// and, through the fleet's own derivation, every client's link,
/// lifecycle and AQM draw.
pub fn churn_mix(clients: usize, fleet_seed: u64) -> FleetConfig {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    // The primary goes dark twice, each longer than any deadline the
    // 10 s buffer grants, so waiting it out always misses.
    let outage = ServerFaultScript::new()
        .blackhole(at(40), SimDuration::from_secs(25))
        .blackhole(at(120), SimDuration::from_secs(25));
    let pool = OriginPoolConfig::new(vec![
        OriginSpec::new("primary").with_faults(outage),
        OriginSpec::new("backup").with_rtt_penalty(SimDuration::from_millis(20)),
    ])
    .with_hedge_quantile(HEDGE_QUANTILE)
    .with_seed(fleet_seed);
    let base = SessionConfig::controlled_mbps(
        50.0,
        30.0,
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    )
    .with_video(fleet_video(20))
    .with_buffer_capacity(SimDuration::from_secs(10))
    .with_origins(pool)
    .with_lifecycle(LifecyclePolicy::deadline_aware())
    .with_tracer(Tracer::disabled());
    let cap = CHURN_CAP.min(clients) as f64;
    FleetConfig::new(base, clients)
        .with_seed(fleet_seed)
        .with_churn(ChurnSpec::new(
            SimDuration::from_secs(1),
            SimDuration::from_secs(40),
        ))
        .with_overload(OverloadPolicy::max_active(CHURN_CAP))
        .with_shared(SharedLinkSpec::wifi_ap(
            SharedBottleneckConfig::fifo_mbps(1.2 * cap).with_discipline(QueueDiscipline::FqPie {
                quantum: 1540,
                aqm: AqmConfig::pie().with_ecn(true),
            }),
        ))
        .with_shared(SharedLinkSpec::cell_sector(
            SharedBottleneckConfig::fifo_mbps(0.8 * cap)
                .with_discipline(QueueDiscipline::Codel(AqmConfig::codel())),
        ))
        .with_fault_domain(
            FaultDomainSpec::new("ap-region", (0..clients / 4).collect()).with_wifi(
                FaultScript::new().disassociation(
                    at(30),
                    SimDuration::from_secs(3),
                    SimDuration::from_secs(1),
                ),
            ),
        )
        .with_cache(FleetCacheSpec::new(64 * 1024 * 1024))
        .with_telemetry(TelemetrySpec::seconds(2.0))
        .with_watchdog(true)
}

/// Everything one pass adds up. Simulated fields repeat exactly for a
/// given seed; only the `*_ns` fields and `unit_wall_s` are host time.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over every unit's `summary_json`, in unit order.
    pub digest: u64,
    pub sim_s: f64,
    pub stall_s: f64,
    /// Sum and count of `qoe_all.mean_bitrate_mbps` over sessions that
    /// fetched at least one chunk (shed sessions have no bitrate).
    pub bitrate_sum: f64,
    pub streamed_sessions: u64,
    /// Bytes of MP-DASH-mode sessions only.
    pub mp_cell_bytes: u64,
    pub mp_total_bytes: u64,
    pub missed_deadlines: u64,
    pub completed_transfers: u64,
    pub events_popped: u64,
    pub packets: u64,
    /// Per unit, in plan order: a session's (cell bytes, total bytes);
    /// (0, 0) for a fleet or a failed session.
    pub session_bytes: Vec<(u64, u64)>,
    /// Host seconds per unit, in plan order, as measured.
    pub unit_wall_s: Vec<f64>,
    /// Per unit: what the host-speed reference took, mean of the samples
    /// right before and right after the unit.
    pub unit_reference_ns: Vec<f64>,
    pub fleet: FleetTally,
}

/// The fleet-only part of a [`Tally`].
#[derive(Clone, Debug, Default)]
pub struct FleetTally {
    pub loop_iterations: u64,
    pub session_steps: u64,
    pub departures_popped: u64,
    pub watchdog_checks: u64,
    pub shed_sessions: u64,
    pub departed_sessions: u64,
    /// Offered / dropped / marked packets over all bottlenecks.
    pub offered_packets: u64,
    pub dropped_packets: u64,
    pub marked_packets: u64,
    /// AQM drops on the cell sector, ECN marks on the AP.
    pub sector_aqm_drops: u64,
    pub ap_marks: u64,
    /// Worst p95 of the AP's `queue_wait_ms` histogram over the fleets.
    pub ap_queue_wait_p95_ms: f64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub failovers: u64,
    pub hedges: u64,
    /// `FleetWallProfile` sums and allocations, traced passes only.
    pub peek_ns: u64,
    pub pop_ns: u64,
    pub step_ns: u64,
    pub allocs: u64,
}

impl Tally {
    /// Host seconds of the pass's units, as measured.
    pub fn wall_s(&self) -> f64 {
        self.unit_wall_s.iter().sum()
    }

    /// Per unit: host seconds at nominal host speed.
    pub fn unit_scaled_s(&self) -> impl Iterator<Item = f64> + '_ {
        let pairs = self.unit_wall_s.iter().zip(&self.unit_reference_ns);
        pairs.map(|(&wall_s, &reference_ns)| calibrate::at_nominal_speed(wall_s, reference_ns))
    }

    /// Fold `bytes` into the FNV-1a digest.
    fn digest_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn add_session(&mut self, r: &SessionReport, mpdash: bool) {
        self.sim_s += r.duration.as_secs_f64();
        self.stall_s += r.qoe_all.stall_time.as_secs_f64();
        if r.qoe_all.chunks > 0 {
            self.bitrate_sum += r.qoe_all.mean_bitrate_mbps;
            self.streamed_sessions += 1;
        }
        if mpdash {
            self.mp_cell_bytes += r.cell_bytes;
            self.mp_total_bytes += r.cell_bytes + r.wifi_bytes;
        }
        self.missed_deadlines += r.scheduler_stats.missed_deadlines;
        self.completed_transfers += r.scheduler_stats.completed_transfers;
        self.events_popped += r.sim_profile.events_popped;
        self.packets += r.records.len() as u64;
    }

    fn add_fleet(&mut self, cfg: &FleetConfig, r: &FleetReport) {
        let mpdash = cfg.base.mode.is_mpdash();
        for s in &r.sessions {
            self.add_session(s, mpdash);
            self.fleet.failovers += s.origin.failovers;
            self.fleet.hedges += s.origin.hedges;
        }
        let f = &mut self.fleet;
        f.loop_iterations += r.profile.loop_iterations;
        f.session_steps += r.profile.session_steps;
        f.departures_popped += r.profile.departures_popped;
        f.watchdog_checks += r.profile.watchdog_checks;
        f.shed_sessions += r.shed_sessions;
        f.departed_sessions += r.departed_sessions;
        for (b, spec) in r.bottlenecks.iter().zip(&cfg.shared) {
            f.offered_packets += b.stats.offered_packets;
            f.dropped_packets += b.stats.dropped_packets;
            f.marked_packets += b.stats.marked_packets;
            if spec.paths.contains(&PathId::WIFI) {
                f.ap_marks += b.stats.marked_packets;
                let waits = b.metrics.histograms.iter();
                let p95 = waits
                    .filter(|(name, _)| name == "queue_wait_ms")
                    .map(|(_, h)| histogram_p95(h))
                    .fold(0.0, f64::max);
                f.ap_queue_wait_p95_ms = f.ap_queue_wait_p95_ms.max(p95);
            } else {
                f.sector_aqm_drops += b.stats.dropped_aqm_packets;
            }
        }
        if let Some(c) = &r.cache {
            f.cache_hits += c.hits;
            f.cache_lookups += c.hits + c.misses;
        }
        if let Some(w) = &r.wall_profile {
            f.peek_ns += w.peek_ns;
            f.pop_ns += w.pop_ns;
            f.step_ns += w.step_ns;
        }
    }

    pub fn cell_byte_share(&self) -> f64 {
        self.mp_cell_bytes as f64 / self.mp_total_bytes.max(1) as f64
    }

    pub fn deadline_hit_rate(&self) -> f64 {
        1.0 - self.missed_deadlines as f64 / self.completed_transfers.max(1) as f64
    }

    pub fn playing_ratio(&self) -> f64 {
        1.0 - self.stall_s / self.sim_s.max(f64::MIN_POSITIVE)
    }

    pub fn mean_bitrate_mbps(&self) -> f64 {
        self.bitrate_sum / self.streamed_sessions.max(1) as f64
    }
}

/// p95 of a log2 histogram: the lower bound of the first bucket at
/// which the cumulative count reaches 95% (0 for an empty histogram).
fn histogram_p95(h: &HistogramSnapshot) -> f64 {
    let need = (h.count as f64 * 0.95).ceil() as u64;
    let mut seen = 0;
    for &(lo, n) in &h.buckets {
        seen += n;
        if seen >= need {
            return lo as f64;
        }
    }
    0.0
}

/// How a fleet unit is run; tests substitute a failing runner.
pub type FleetRunner = fn(&FleetConfig) -> Result<FleetReport, InvariantViolation>;

/// Run every unit once, in order, and add it up. A unit that panics,
/// returns an `InvariantViolation` or leaves a bottleneck unbalanced
/// fails all of its sessions. With `spans`, sessions are driven step by
/// step from here and fleets run with the wall profile on, so the
/// per-layer split is visible; the simulated results are the same.
pub fn run_pass(units: &[Unit], run_fleet: FleetRunner, mut spans: Option<&mut Spans>) -> Tally {
    let mut tally = Tally {
        digest: 0xcbf2_9ce4_8422_2325,
        session_bytes: vec![(0, 0); units.len()],
        ..Tally::default()
    };
    let mut reference_before = calibrate::sample_ns();
    for (id, unit) in units.iter().enumerate() {
        let started = Instant::now();
        tally.attempted += unit.sessions();
        let ok = catch_unwind(AssertUnwindSafe(|| match unit {
            Unit::Session { cfg, mode, .. } => {
                let report = match spans.as_deref_mut() {
                    None => StreamingSession::run(cfg.clone()),
                    Some(spans) => traced_session(cfg, id as u64, spans),
                };
                tally.digest_bytes(report.summary_json().to_compact().as_bytes());
                tally.add_session(&report, *mode != Mode::Vanilla);
                tally.session_bytes[id] =
                    (report.cell_bytes, report.cell_bytes + report.wifi_bytes);
                true
            }
            Unit::Fleet(cfg) => {
                let result = match spans.as_deref_mut() {
                    None => run_fleet(cfg),
                    Some(spans) => traced_fleet(cfg, id as u64, run_fleet, spans, &mut tally),
                };
                match result {
                    Ok(report) => {
                        tally.digest_bytes(report.summary_json().to_compact().as_bytes());
                        tally.add_fleet(cfg, &report);
                        report.bottlenecks.iter().all(|b| b.stats.conserved())
                    }
                    Err(violation) => {
                        eprintln!("unit {id}: invariant violated: {violation}");
                        false
                    }
                }
            }
        }))
        .unwrap_or(false);
        if !ok {
            tally.failed += unit.sessions();
        }
        tally.unit_wall_s.push(started.elapsed().as_secs_f64());
        let reference_after = calibrate::sample_ns();
        tally
            .unit_reference_ns
            .push((reference_before + reference_after) / 2.0);
        reference_before = reference_after;
    }
    if let Some(spans) = spans {
        spans.close_all();
    }
    tally
}

/// Steps per `session.steps` span.
const STEP_BATCH: u64 = 4096;

/// `StreamingSession::run`, driven from outside with a span around each
/// call into the session, and the energy replay repeated on the
/// report's packet records so its share of `into_report` is visible.
fn traced_session(cfg: &SessionConfig, id: u64, spans: &mut Spans) -> SessionReport {
    let root = spans.enter("session.run", id);
    let s = spans.enter("session.start", id);
    let mut session = StreamingSession::start(cfg.clone());
    spans.exit(s);
    loop {
        let batch = spans.enter("session.steps", id);
        let mut steps = 0;
        while steps < STEP_BATCH && !session.finished() && session.step_once() {
            steps += 1;
        }
        spans.exit_counted(batch, steps);
        if steps < STEP_BATCH {
            break;
        }
    }
    let s = spans.enter("session.into_report", id);
    let report = session.into_report();
    spans.exit(s);
    let s = spans.enter("energy.replay", id);
    std::hint::black_box(replay_energy(cfg, &report));
    spans.exit(s);
    spans.exit(root);
    assert_eq!(
        report.qoe_all.chunks,
        cfg.video.n_chunks(),
        "session ended before the last chunk"
    );
    report
}

/// The radio-energy replay `into_report` performs, from the outside.
pub fn replay_energy(cfg: &SessionConfig, report: &SessionReport) -> f64 {
    let on = |path| {
        report
            .records
            .iter()
            .filter(|r| r.path == path)
            .map(|r| (r.t, r.len))
            .collect::<Vec<_>>()
    };
    session_energy(
        &cfg.device,
        &on(PathId::WIFI),
        &on(PathId::CELLULAR),
        report.duration,
    )
    .total_j()
}

fn traced_fleet(
    cfg: &FleetConfig,
    id: u64,
    run_fleet: FleetRunner,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<FleetReport, InvariantViolation> {
    let profiled = cfg.clone().with_wall_profile();
    let span = spans.enter("fleet.run_checked", id);
    let before = alloc::count_from_here();
    let result = run_fleet(&profiled);
    tally.fleet.allocs += alloc::counted_since(before);
    spans.exit(span);
    if let Ok(report) = &result {
        if let Some(w) = report.wall_profile {
            let p = &report.profile;
            spans.phases(
                span,
                &[
                    ("fleet.peek", w.peek_ns, p.loop_iterations),
                    ("fleet.pop", w.pop_ns, p.departures_popped),
                    ("fleet.step", w.step_ns, p.session_steps),
                ],
            );
        }
    }
    result
}

/// Per profile and mode of the solo grid: (cell bytes, total bytes).
fn grid_bytes(units: &[Unit], tally: &Tally) -> [[(u64, u64); 3]; PROFILES.len()] {
    let mut bytes = [[(0, 0); 3]; PROFILES.len()];
    for (unit, &(cell, total)) in units.iter().zip(&tally.session_bytes) {
        if let Unit::Session { profile, mode, .. } = unit {
            let slot = &mut bytes[*profile][*mode as usize];
            *slot = (slot.0 + cell, slot.1 + total);
        }
    }
    bytes
}

/// The paper's headline over the solo grid: cellular bytes MP-DASH
/// (rate-based) saves against vanilla MPTCP, in percent; 0 off the grid.
pub fn cell_saving_pct(units: &[Unit], tally: &Tally) -> f64 {
    let cell = |mode: Mode| -> u64 {
        grid_bytes(units, tally)
            .iter()
            .map(|profile| profile[mode as usize].0)
            .sum()
    };
    match cell(Mode::Vanilla) {
        0 => 0.0,
        vanilla => (1.0 - cell(Mode::Rate) as f64 / vanilla as f64) * 100.0,
    }
}

fn solo_guards(units: &[Unit], tally: &Tally) -> Vec<String> {
    let mut out = Vec::new();
    for (p, modes) in grid_bytes(units, tally).iter().enumerate() {
        let share = |m: Mode| modes[m as usize].0 as f64 / modes[m as usize].1.max(1) as f64;
        for m in [Mode::Rate, Mode::Duration] {
            if share(m) >= share(Mode::Vanilla) {
                out.push(format!(
                    "profile {p}: MP-DASH {m:?} cell share {:.3} is not below vanilla's {:.3}",
                    share(m),
                    share(Mode::Vanilla)
                ));
            }
        }
    }
    out
}

fn contended_guards(_: &[Unit], tally: &Tally) -> Vec<String> {
    let mut out = Vec::new();
    if tally.fleet.departures_popped == 0 {
        out.push("no packet crossed a shared bottleneck".into());
    }
    if tally.fleet.ap_queue_wait_p95_ms <= 0.0 {
        out.push("the AP never queued: the fleet is not contended".into());
    }
    if tally.fleet.watchdog_checks != 0 {
        out.push("the watchdog ran although it is pinned off".into());
    }
    out
}

fn churn_guards(_: &[Unit], tally: &Tally) -> Vec<String> {
    let f = &tally.fleet;
    [
        (f.shed_sessions > 0, "no session was shed"),
        (f.departed_sessions > f.shed_sessions, "no viewer departed"),
        (f.sector_aqm_drops > 0, "CoDel never dropped on the sector"),
        (f.ap_marks > 0, "FQ-PIE never ECN-marked on the AP"),
        (f.cache_hits > 0, "the segment cache never hit"),
        (
            f.failovers + f.hedges > 0,
            "no origin failover and no hedge",
        ),
        (f.watchdog_checks > 0, "the armed watchdog never checked"),
    ]
    .into_iter()
    .filter(|(fired, _)| !fired)
    .map(|(_, what)| what.to_string())
    .collect()
}
