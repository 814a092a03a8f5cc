//! Multi-session co-simulation: N streaming clients sharing bottlenecks.
//!
//! Every experiment below this crate simulates one MP-DASH client against
//! a private pair of links. The fleet co-simulator is the contention
//! substrate: it interleaves N full [`StreamingSession`]s — each with its
//! own MPTCP connection, ABR, lifecycle policy, and staggered start — on
//! one deterministic virtual clock, with their subflows subscribed to
//! [`SharedBottleneck`] resources (a WiFi AP, a cell sector) instead of
//! private links.
//!
//! The loop is a global minimum over every bottleneck's next departure
//! and every unfinished session's next event, with a deterministic
//! tie-break (bottlenecks before sessions, then index order). That
//! ordering is also the correctness condition for the bottleneck's lazy
//! queue-discipline selection: offers reach each bottleneck in globally
//! non-decreasing time, and departures at time `t` are processed before
//! any session event at `t` can offer more packets.
//!
//! The output is a [`FleetReport`]: per-client [`SessionReport`]s plus
//! the cross-client aggregates the fairness questions need — Jain's
//! index on bitrate and on cellular bytes, the aggregate deadline-miss
//! rate, and per-bottleneck conservation stats and queue-depth
//! histograms. A replica is a pure function of its [`FleetConfig`], so
//! sweeps run one replica per [`mpdash_session::Job`] and parallelise
//! over `MPDASH_WORKERS` with bit-identical artifacts at any worker
//! count.

use mpdash_link::{FaultScript, PathId, SharedBottleneck, SharedBottleneckConfig, SharedStats};
use mpdash_obs::{
    EpochSeries, InvariantViolation, MetricsSnapshot, Signal, SignalRecorder, TelemetrySpec,
    TraceEvent, Tracer, Watchdog,
};
use mpdash_results::Json;
use mpdash_session::{
    CacheStats, ServerFaultScript, SessionConfig, SessionReport, SharedSegmentCache,
    StreamingSession,
};
use mpdash_sim::{derive_seed, Prng, SimDuration, SimTime};
use std::time::Instant;

mod next_event;
use next_event::{Entity, NextEvent};

/// One shared resource in the fleet topology: a bottleneck plus the
/// per-client paths that subscribe to it (e.g. every client's WiFi path
/// behind one AP).
#[derive(Clone, Debug)]
pub struct SharedLinkSpec {
    /// Capacity, queue bound, and discipline of the shared resource.
    pub config: SharedBottleneckConfig,
    /// Which of each client's paths ride this bottleneck. Every client
    /// subscribes each listed path, in client-major order.
    pub paths: Vec<PathId>,
}

impl SharedLinkSpec {
    /// A bottleneck shared by every client's WiFi path — the
    /// one-access-point topology of the multi-client AQM studies.
    pub fn wifi_ap(config: SharedBottleneckConfig) -> Self {
        SharedLinkSpec {
            config,
            paths: vec![PathId::WIFI],
        }
    }

    /// A bottleneck shared by every client's cellular path (one sector).
    pub fn cell_sector(config: SharedBottleneckConfig) -> Self {
        SharedLinkSpec {
            config,
            paths: vec![PathId::CELLULAR],
        }
    }
}

/// Shared segment-cache spec. [`run`] builds one *fresh* cache per
/// fleet run from this spec — rather than storing a live handle in the
/// config — so `run` stays a pure function of its configuration (a
/// stored handle would leak warm state between runs).
#[derive(Clone, Copy, Debug)]
pub struct FleetCacheSpec {
    /// Cache capacity in bytes.
    pub capacity_bytes: u64,
    /// Modeled delivery delay of a cache hit (the cheap edge fetch).
    pub edge_delay: SimDuration,
}

impl FleetCacheSpec {
    /// A cache of `capacity_bytes` with the default 5 ms edge delay.
    pub fn new(capacity_bytes: u64) -> Self {
        FleetCacheSpec {
            capacity_bytes,
            edge_delay: SimDuration::from_millis(5),
        }
    }
}

/// Deterministic fleet churn: clients arrive at seeded exponential
/// inter-arrival times (replacing the fixed `stagger` grid) and each
/// draws a bounded viewing duration, after which the session departs —
/// finalizing a clean partial report — even with chapters left.
///
/// Both draws come from RNG streams derived from the fleet seed alone
/// (never from the per-client link streams), so adding churn perturbs
/// no client's packet-level randomness, and the whole arrival/departure
/// schedule is a pure function of `(seed, clients, spec)`.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    /// Mean of the exponential inter-arrival gap between client joins.
    pub mean_interarrival: SimDuration,
    /// Mean of the exponential viewing-duration draw.
    pub mean_watch: SimDuration,
    /// Floor on the viewing draw: nobody leaves before watching this
    /// long (an exponential's short tail would otherwise produce
    /// zero-length "sessions" that never request a chunk).
    pub min_watch: SimDuration,
}

impl ChurnSpec {
    /// Churn with the given arrival and viewing means and a 4 s viewing
    /// floor (one default chunk).
    pub fn new(mean_interarrival: SimDuration, mean_watch: SimDuration) -> Self {
        ChurnSpec {
            mean_interarrival,
            mean_watch,
            min_watch: SimDuration::from_secs(4),
        }
    }

    /// The deterministic `(arrival_offset, viewing_limit)` plan this
    /// spec draws for a fleet of `clients` under `seed` — cumulative
    /// exponential inter-arrivals and floored exponential viewing
    /// durations, from two fleet-level streams that no per-client
    /// randomness touches. [`run`] derives each client's start offset
    /// and watch limit from exactly this, so experiments can inspect
    /// the plan (e.g. to place a fault window relative to arrivals)
    /// without re-deriving the streams.
    pub fn plan(&self, seed: u64, clients: usize) -> Vec<(SimDuration, SimDuration)> {
        let mut arrivals = Prng::new(derive_seed(seed, CHURN_ARRIVAL_STREAM));
        let mut watches = Prng::new(derive_seed(seed, CHURN_WATCH_STREAM));
        let mut at = SimDuration::ZERO;
        (0..clients)
            .map(|_| {
                at += exponential(&mut arrivals, self.mean_interarrival);
                let watch = self
                    .min_watch
                    .max(exponential(&mut watches, self.mean_watch));
                (at, watch)
            })
            .collect()
    }
}

/// A correlated fault domain: one shared fault timeline applied to a
/// group of clients (a regional WiFi outage hitting every apartment on
/// one AP, a domain-wide origin blackout). Domain scripts *compose*
/// with whatever per-client scripts the base config already carries —
/// events merge into each member's timeline — while packet-level draws
/// still come from each member's own link seed, so members share the
/// fault window but not its coin flips.
#[derive(Clone, Debug, Default)]
pub struct FaultDomainSpec {
    /// Domain label (traces and scenario files).
    pub label: String,
    /// Client indices in the domain, each below
    /// [`FleetConfig::clients`]: [`run`] refuses one past the fleet.
    pub members: Vec<usize>,
    /// Shared WiFi-link fault timeline for every member.
    pub wifi: FaultScript,
    /// Shared cellular-link fault timeline for every member.
    pub cell: FaultScript,
    /// Shared server-side fault timeline, merged into each member's
    /// implicit-origin script ([`SessionConfig::server_faults`]). A base
    /// with an origin pool serves every request from the pool and never
    /// reads that script; the scenario decoder refuses the combination.
    pub server: ServerFaultScript,
}

impl FaultDomainSpec {
    /// An empty domain over the given members.
    pub fn new(label: impl Into<String>, members: Vec<usize>) -> Self {
        FaultDomainSpec {
            label: label.into(),
            members,
            wifi: FaultScript::new(),
            cell: FaultScript::new(),
            server: ServerFaultScript::new(),
        }
    }

    /// Same domain with a shared WiFi fault timeline.
    pub fn with_wifi(mut self, script: FaultScript) -> Self {
        self.wifi = script;
        self
    }
}

/// Fleet-level overload protection: admission control at session
/// arrival. A joining client is *shed* — turned away with an empty
/// report, counted and traced — when the fleet already has `max_active`
/// admitted unfinished sessions, or when any shared bottleneck's queue
/// occupancy sits at or past `queue_threshold_bytes`. Shedding the
/// *newest* arrival (never an admitted session) is what keeps admitted
/// sessions' deadline-miss rate bounded under overload instead of
/// letting every client collapse together.
#[derive(Clone, Copy, Debug)]
pub struct OverloadPolicy {
    /// Admission cap on concurrently active (admitted, unfinished)
    /// sessions.
    pub max_active: usize,
    /// Shed arrivals while any shared bottleneck queues at least this
    /// many bytes.
    pub queue_threshold_bytes: u64,
}

impl OverloadPolicy {
    /// Cap concurrency at `n` sessions, with no queue-pressure trigger.
    pub fn max_active(n: usize) -> Self {
        OverloadPolicy {
            max_active: n,
            queue_threshold_bytes: u64::MAX,
        }
    }
}

/// Configuration of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Template session configuration every client starts from.
    pub base: SessionConfig,
    /// Number of concurrent streaming clients.
    pub clients: usize,
    /// Start-time spacing: client `k` issues its first request at
    /// `k * stagger` (staggered joins avoid the synchronized-start
    /// artifact of all ABRs probing at once).
    pub stagger: SimDuration,
    /// Shared-link topology. Empty means private links per client (a
    /// degenerate fleet, still useful as a no-contention control).
    pub shared: Vec<SharedLinkSpec>,
    /// Per-client propagation-delay skew: client `k`'s private links
    /// carry `k * rtt_skew` of extra one-way delay. Heterogeneous RTTs
    /// are what separate the queue disciplines — short-RTT flows
    /// out-compete long-RTT flows at a FIFO queue, while per-flow DRR
    /// serves them evenly regardless.
    pub rtt_skew: SimDuration,
    /// Base seed; client `k`'s links are reseeded with independent
    /// streams derived from it.
    pub seed: u64,
    /// The base config's tracer goes to every client unless this names
    /// one: then only client `K` is traced (the `mpdash explain --client
    /// K` replay hook). The named client also keeps its packet log in
    /// [`SessionReport::records`]; every other client reports an empty log.
    pub trace_client: Option<usize>,
    /// Shared segment cache every client fetches through. `None` means
    /// no cache (every chunk is an origin fetch).
    pub cache: Option<FleetCacheSpec>,
    /// Epoch telemetry for every client, every shared bottleneck, and
    /// the fleet loop itself. `None` takes the base config's `telemetry`.
    /// Observe-only: artifacts are byte-identical either way.
    pub telemetry: Option<TelemetrySpec>,
    /// Measure wall-clock time per fleet-loop phase (peek/pop/step).
    /// Nondeterministic by nature, so it rides in
    /// [`FleetReport::wall_profile`] and never in artifact JSON.
    pub wall_profile: bool,
    /// Seeded arrival/viewing churn. When set, it replaces the fixed
    /// `stagger` grid: client `k` joins at the `k`-th exponential
    /// arrival and departs after its drawn viewing duration.
    pub churn: Option<ChurnSpec>,
    /// Correlated fault domains layered on top of the base config's
    /// per-client fault scripts.
    pub fault_domains: Vec<FaultDomainSpec>,
    /// Overload protection at admission. `None` admits everyone.
    pub overload: Option<OverloadPolicy>,
    /// Arm the runtime invariant watchdog inside the fleet loop; `None`
    /// means armed. Observe-only either way: artifacts are byte-identical.
    pub watchdog: Option<bool>,
}

impl FleetConfig {
    /// The largest fleet [`run`] takes: the session tree's packed keys
    /// still keep a 48-bit clock (78 simulated hours) at this size.
    pub const MAX_CLIENTS: usize = 1 << 16;

    /// A fleet of `clients` identical sessions, 500 ms stagger, no
    /// shared links yet (add them with [`FleetConfig::with_shared`]).
    pub fn new(base: SessionConfig, clients: usize) -> Self {
        FleetConfig {
            base,
            clients,
            stagger: SimDuration::from_millis(500),
            shared: Vec::new(),
            rtt_skew: SimDuration::ZERO,
            seed: 1,
            trace_client: None,
            cache: None,
            telemetry: None,
            wall_profile: false,
            churn: None,
            fault_domains: Vec::new(),
            overload: None,
            watchdog: None,
        }
    }

    /// Client `k`'s session config as [`run`] builds it, fault domains
    /// merged into its scripts (`None` past the fleet). Telemetry and the
    /// shared cache, which [`run`] resolves once for the whole fleet, are
    /// left as the base has them.
    pub fn client_config(&self, k: usize) -> Option<SessionConfig> {
        client_configs(self, self.base.telemetry, None).nth(k)
    }

    /// Same fleet with a different stagger.
    pub fn with_stagger(mut self, stagger: SimDuration) -> Self {
        self.stagger = stagger;
        self
    }

    /// Same fleet with an extra shared bottleneck.
    pub fn with_shared(mut self, spec: SharedLinkSpec) -> Self {
        self.shared.push(spec);
        self
    }

    /// Same fleet with heterogeneous client RTTs (client `k` gains
    /// `k * skew` of one-way delay on both private links).
    pub fn with_rtt_skew(mut self, skew: SimDuration) -> Self {
        self.rtt_skew = skew;
        self
    }

    /// Same fleet with a different base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same fleet, tracing exactly client `k` through the base config's
    /// tracer and keeping its packet log.
    pub fn with_trace_client(mut self, k: usize) -> Self {
        self.trace_client = Some(k);
        self
    }

    /// Same fleet with a shared segment cache in front of the origins.
    pub fn with_cache(mut self, spec: FleetCacheSpec) -> Self {
        self.cache = Some(spec);
        self
    }

    /// Same fleet with epoch telemetry on every client and bottleneck.
    pub fn with_telemetry(mut self, spec: TelemetrySpec) -> Self {
        self.telemetry = Some(spec);
        self
    }

    /// Same fleet with wall-clock phase profiling of the event loop.
    pub fn with_wall_profile(mut self) -> Self {
        self.wall_profile = true;
        self
    }

    /// Same fleet with seeded arrival/viewing churn.
    pub fn with_churn(mut self, spec: ChurnSpec) -> Self {
        self.churn = Some(spec);
        self
    }

    /// Same fleet with an extra correlated fault domain.
    pub fn with_fault_domain(mut self, spec: FaultDomainSpec) -> Self {
        self.fault_domains.push(spec);
        self
    }

    /// Same fleet with overload protection at admission.
    pub fn with_overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = Some(policy);
        self
    }

    /// Same fleet with the runtime watchdog explicitly armed/disarmed.
    pub fn with_watchdog(mut self, on: bool) -> Self {
        self.watchdog = Some(on);
        self
    }
}

/// Aggregate view of one shared bottleneck after the run.
#[derive(Clone, Debug)]
pub struct BottleneckSummary {
    /// Discipline label: `"fifo"`, `"fq"`, `"pie"`, `"fq_pie"` or
    /// `"codel"`.
    pub discipline: &'static str,
    /// Byte/packet conservation counters.
    pub stats: SharedStats,
    /// Queue-depth and queue-wait histograms recorded during the run.
    pub metrics: MetricsSnapshot,
    /// Per-epoch offered/delivered/dropped bytes and queue-depth
    /// histograms, when telemetry is on. Kept per-bottleneck (not
    /// merged fleet-wide) so two bottlenecks' `queue_depth_bytes`
    /// series stay distinguishable.
    pub epochs: Option<EpochSeries>,
}

/// Deterministic span accounting of the fleet event loop: how the
/// peek/pop/step interleave spent its virtual time. Pure counts of
/// loop decisions, so identical at any `MPDASH_WORKERS` and with
/// telemetry on or off.
#[derive(Clone, Debug, Default)]
pub struct FleetProfile {
    /// Iterations of the global-minimum scan (one per event, plus the
    /// final empty scan that ends the loop).
    pub loop_iterations: u64,
    /// Bottleneck departures popped.
    pub departures_popped: u64,
    /// Session events stepped.
    pub session_steps: u64,
    /// Invariant checks the runtime watchdog performed (0 = disarmed).
    /// Deterministic, but kept out of `summary_json` artifacts so the
    /// same config serializes byte-identically with the watchdog on or
    /// off.
    pub watchdog_checks: u64,
    /// Per-epoch `loop_steps` / `loop_departures` counters (plus
    /// `fleet_arrivals` / `fleet_departures` / `fleet_shed` lifecycle
    /// counters), when telemetry is on — the "steps per epoch" view the
    /// profiler and the timeline render.
    pub epochs: Option<EpochSeries>,
}

impl FleetProfile {
    /// Deterministic JSON view (the epoch series included).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("loop_iterations", Json::from(self.loop_iterations)),
            ("departures_popped", Json::from(self.departures_popped)),
            ("session_steps", Json::from(self.session_steps)),
            ("watchdog_checks", Json::from(self.watchdog_checks)),
            (
                "epochs",
                (self.epochs.as_ref()).map_or(Json::Null, EpochSeries::to_json),
            ),
        ])
    }
}

/// Wall-clock self-profile of the fleet loop, split by phase.
/// Nondeterministic (it measures the host machine), so it is reported
/// beside — never inside — deterministic artifacts.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetWallProfile {
    /// Nanoseconds spent scanning for the globally earliest event.
    pub peek_ns: u64,
    /// Nanoseconds spent popping bottleneck departures.
    pub pop_ns: u64,
    /// Nanoseconds spent stepping sessions.
    pub step_ns: u64,
}

impl FleetWallProfile {
    /// JSON view, in nanoseconds per phase plus the total.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("peek_ns", Json::from(self.peek_ns)),
            ("pop_ns", Json::from(self.pop_ns)),
            ("step_ns", Json::from(self.step_ns)),
            (
                "total_ns",
                Json::from(self.peek_ns + self.pop_ns + self.step_ns),
            ),
        ])
    }
}

/// Everything measured across one fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-client session reports, in client order. Only
    /// [`FleetConfig::trace_client`]'s carries `records`.
    pub sessions: Vec<SessionReport>,
    /// Jain's fairness index over per-client mean bitrate.
    pub jain_bitrate: f64,
    /// Jain's fairness index over per-client cellular bytes.
    pub jain_cell_bytes: f64,
    /// Scheduler deadline misses over completed deadline transfers,
    /// summed across clients.
    pub deadline_miss_rate: f64,
    /// WiFi payload bytes summed across clients.
    pub total_wifi_bytes: u64,
    /// Cellular payload bytes summed across clients.
    pub total_cell_bytes: u64,
    /// Stalls summed across clients (all-chunk accounting).
    pub total_stalls: u64,
    /// Per-client shed flags (the overload policy turned the arrival
    /// away), in client order.
    pub shed: Vec<bool>,
    /// Sessions shed at admission by the overload policy.
    pub shed_sessions: u64,
    /// Sessions that departed before finishing the video (viewing limit
    /// reached, or shed).
    pub departed_sessions: u64,
    /// One summary per configured shared bottleneck, in topology order.
    pub bottlenecks: Vec<BottleneckSummary>,
    /// Global shared-cache counters at the end of the run, `None` when
    /// the fleet ran cacheless. Lives here and not in the per-session
    /// reports: the global hit/miss/eviction totals depend on how the
    /// fleet interleaved the clients, which no single session observes.
    pub cache: Option<CacheStats>,
    /// Fleet-wide epoch series: every client's session series merged in
    /// client order. Merge is associative and commutative, so this is
    /// bit-identical however the fleet was sharded. `None` when
    /// telemetry is off. Excluded from [`FleetReport::summary_json`],
    /// preserving artifact byte-identity with telemetry on vs off.
    pub epochs: Option<EpochSeries>,
    /// Deterministic loop-span accounting (also artifact-excluded).
    pub profile: FleetProfile,
    /// Wall-clock phase profile, present when
    /// [`FleetConfig::wall_profile`] was set.
    pub wall_profile: Option<FleetWallProfile>,
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 when all shares are
/// equal, → 1/n under a winner-take-all allocation. An empty or
/// all-zero allocation is vacuously fair.
pub(crate) fn jain(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|v| v * v).sum();
    if values.is_empty() || sq == 0.0 {
        return 1.0;
    }
    sum * sum / (values.len() as f64 * sq)
}

impl FleetReport {
    /// Mean of per-client mean bitrates.
    pub fn mean_bitrate_mbps(&self) -> f64 {
        if self.sessions.is_empty() {
            return 0.0;
        }
        self.sessions
            .iter()
            .map(|s| s.qoe_all.mean_bitrate_mbps)
            .sum::<f64>()
            / self.sessions.len() as f64
    }

    /// Deterministic artifact JSON: cross-client aggregates, compact
    /// per-client rows, and per-bottleneck conservation + histograms.
    pub fn summary_json(&self) -> Json {
        let per_client = self.sessions.iter().enumerate().map(|(k, s)| {
            Json::obj([
                ("client", Json::from(k)),
                (
                    "mean_bitrate_mbps",
                    Json::Float(s.qoe_all.mean_bitrate_mbps),
                ),
                ("wifi_bytes", Json::from(s.wifi_bytes)),
                ("cell_bytes", Json::from(s.cell_bytes)),
                ("stalls", Json::from(s.qoe_all.stalls)),
                (
                    "startup_s",
                    Json::Float(s.qoe_all.startup_delay.map_or(0.0, |d| d.as_secs_f64())),
                ),
                (
                    "deadline_misses",
                    Json::from(s.scheduler_stats.missed_deadlines),
                ),
                ("qoe_composite", Json::Float(s.qoe_score.composite)),
                ("departed", Json::Bool(s.departed)),
                ("shed", Json::Bool(self.shed[k])),
            ])
        });
        let bottlenecks = self.bottlenecks.iter().map(|b| {
            let mut row = vec![
                ("discipline", Json::from(b.discipline)),
                ("offered_bytes", Json::from(b.stats.offered_bytes)),
                ("delivered_bytes", Json::from(b.stats.delivered_bytes)),
                ("dropped_bytes", Json::from(b.stats.dropped_bytes)),
                ("queued_bytes", Json::from(b.stats.queued_bytes)),
                ("dropped_packets", Json::from(b.stats.dropped_packets)),
            ];
            // DropReason breakdown, emitted only under an AQM discipline
            // so no-AQM artifacts stay byte-identical to pre-AQM runs.
            if matches!(b.discipline, "pie" | "fq_pie" | "codel") {
                row.push((
                    "dropped_overflow_packets",
                    Json::from(b.stats.dropped_overflow_packets),
                ));
                row.push((
                    "dropped_aqm_packets",
                    Json::from(b.stats.dropped_aqm_packets),
                ));
                row.push(("marked_packets", Json::from(b.stats.marked_packets)));
            }
            row.push(("metrics", b.metrics.to_json()));
            Json::obj(row)
        });
        let cache = match &self.cache {
            Some(c) => Json::obj([
                ("hits", Json::from(c.hits)),
                ("misses", Json::from(c.misses)),
                ("evictions", Json::from(c.evictions)),
                ("insertions", Json::from(c.insertions)),
                ("resident_bytes", Json::from(c.resident_bytes)),
                ("hit_ratio", Json::Float(c.hit_ratio())),
            ]),
            None => Json::Null,
        };
        Json::obj([
            ("clients", Json::from(self.sessions.len())),
            ("jain_bitrate", Json::Float(self.jain_bitrate)),
            ("jain_cell_bytes", Json::Float(self.jain_cell_bytes)),
            ("deadline_miss_rate", Json::Float(self.deadline_miss_rate)),
            ("total_wifi_bytes", Json::from(self.total_wifi_bytes)),
            ("total_cell_bytes", Json::from(self.total_cell_bytes)),
            ("total_stalls", Json::from(self.total_stalls)),
            ("shed_sessions", Json::from(self.shed_sessions)),
            ("departed_sessions", Json::from(self.departed_sessions)),
            ("cache", cache),
            ("per_client", Json::arr(per_client)),
            ("bottlenecks", Json::arr(bottlenecks)),
        ])
    }
}

/// RNG stream ids for the churn draws. They feed `derive_seed(seed, ·)`
/// alongside the per-client streams (which use `k` in `0..clients`), so
/// they sit far above any plausible client count.
const CHURN_ARRIVAL_STREAM: u64 = 0xC4A2_0001;
const CHURN_WATCH_STREAM: u64 = 0xC4A2_0002;

/// Exponential draw with the given mean: `-mean · ln(1 − u)`.
fn exponential(rng: &mut Prng, mean: SimDuration) -> SimDuration {
    mean.mul_f64(-(1.0 - rng.next_f64()).ln())
}

/// One outcome of a fleet-loop iteration, with what the watchdog reads
/// after it.
enum Outcome<'a> {
    Step(usize, &'a StreamingSession),
    Departure(usize, &'a SharedBottleneck),
    AqmDrop,
    Arrival,
    Finish,
    Shed,
}

/// A count of [`FleetProfile`] or a phase of [`FleetWallProfile`].
type Field<T> = fn(&mut T) -> &mut u64;
type Row = (
    Signal,
    Option<Field<FleetProfile>>,
    Option<Field<FleetWallProfile>>,
);

/// Per [`Outcome`], in declaration order: its epoch counter, the
/// [`FleetProfile`] count it adds to and the wall phase it closes.
#[rustfmt::skip]
const OUTCOMES: [Row; 6] = [
    (Signal::counter(None, Some("loop_steps")),       Some(|p| &mut p.session_steps),     Some(|w| &mut w.step_ns)),
    (Signal::counter(None, Some("loop_departures")),  Some(|p| &mut p.departures_popped), Some(|w| &mut w.pop_ns)),
    (Signal::counter(None, Some("loop_aqm_drops")),   None,                               None),
    (Signal::counter(None, Some("fleet_arrivals")),   None,                               None),
    (Signal::counter(None, Some("fleet_departures")), None,                               Some(|w| &mut w.step_ns)),
    (Signal::counter(None, Some("fleet_shed")),       None,                               Some(|w| &mut w.step_ns)),
];

/// [`OUTCOMES`]' signal column: the table the loop's recorder writes.
static SIGNALS: [Signal; OUTCOMES.len()] = {
    let mut signals = [OUTCOMES[0].0; OUTCOMES.len()];
    let mut row = 1;
    while row < OUTCOMES.len() {
        signals[row] = OUTCOMES[row].0;
        row += 1;
    }
    signals
};

/// Everything the fleet loop observes about itself, behind one call per
/// outcome: the counts of [`FleetProfile`] and, each only when
/// configured, the loop's epoch series, the wall stopwatch and the
/// watchdog. Observe-only: it reads the loop and never steers it.
struct LoopRecorder {
    profile: FleetProfile,
    /// [`SIGNALS`]: a counter that never fires never appears as a key.
    signals: SignalRecorder,
    /// The phases so far, and when the last one closed.
    wall: Option<(FleetWallProfile, Instant)>,
    watchdog: Option<Watchdog>,
}

impl LoopRecorder {
    fn new(cfg: &FleetConfig, telemetry: Option<TelemetrySpec>) -> Self {
        LoopRecorder {
            profile: FleetProfile::default(),
            signals: SignalRecorder::new(&SIGNALS, telemetry),
            wall: (cfg.wall_profile).then(|| (FleetWallProfile::default(), Instant::now())),
            watchdog: cfg.watchdog.unwrap_or(true).then(Watchdog::new),
        }
    }

    /// One scan for the earliest event, which fires at `t` (`None` ends
    /// the run): virtual time must not run backwards.
    fn scan(&mut self, t: Option<SimTime>) -> Result<(), InvariantViolation> {
        self.profile.loop_iterations += 1;
        self.charge(|w| &mut w.peek_ns);
        match (t, self.watchdog.as_mut()) {
            (Some(t), Some(wd)) => wd.check_time(t),
            _ => Ok(()),
        }
    }

    /// Record `what` at `t`, then let the watchdog check what it touched.
    /// Inlined, so each call site reads its row of [`OUTCOMES`] as
    /// constants.
    #[inline(always)]
    fn record(&mut self, t: SimTime, what: Outcome) -> Result<(), InvariantViolation> {
        use Outcome::*;
        let row = match what {
            Step(..) => 0,
            Departure(..) => 1,
            AqmDrop => 2,
            Arrival => 3,
            Finish => 4,
            Shed => 5,
        };
        let (_, count, phase) = OUTCOMES[row];
        if let Some(count) = count {
            *count(&mut self.profile) += 1;
        }
        self.signals.add(t, row, 1);
        if let Some(phase) = phase {
            self.charge(phase);
        }
        match (what, self.watchdog.as_mut()) {
            (Step(k, session), Some(wd)) => {
                wd.check_breakers(k, session.breaker_sanity())?;
                let (hedges, wins_primary, wins_hedge) = session.hedge_accounting();
                wd.check_hedges(k, hedges, wins_primary, wins_hedge)
            }
            (Departure(i, bn), Some(wd)) => wd.check_conservation(i, bn.conservation_counters()),
            _ => Ok(()),
        }
    }

    /// Charge the wall time since the last charge to `phase`. It never
    /// branches on wall time, so it cannot perturb the interleave.
    fn charge(&mut self, phase: Field<FleetWallProfile>) {
        if let Some((wall, mark)) = self.wall.as_mut() {
            let now = Instant::now();
            *phase(wall) += now.duration_since(*mark).as_nanos() as u64;
            *mark = now;
        }
    }

    fn finish(mut self) -> (FleetProfile, Option<FleetWallProfile>) {
        self.profile.watchdog_checks = self.watchdog.map_or(0, |wd| wd.checks());
        self.profile.epochs = self.signals.take_epochs();
        (self.profile, self.wall.map(|(wall, _)| wall))
    }
}

/// Admission control, built only under an [`OverloadPolicy`].
struct Admission<'a> {
    policy: OverloadPolicy,
    /// Admitted, unfinished sessions.
    active: usize,
    /// Sheds happen outside any one session; observe-only.
    tracer: Tracer,
    /// Whose queues a shed reads.
    bottlenecks: &'a [SharedBottleneck],
    shed: Vec<bool>,
}

impl Admission<'_> {
    /// Whether client `k`, arriving at `t`, may start. A shed session
    /// never steps, so its report is empty.
    fn admit(&mut self, t: SimTime, k: usize, session: &mut StreamingSession) -> bool {
        let queue = (self.bottlenecks.iter().map(|b| b.occupancy_bytes()).max()).unwrap_or(0);
        if self.active < self.policy.max_active && queue < self.policy.queue_threshold_bytes {
            self.active += 1;
            return true;
        }
        session.mark_shed();
        self.shed[k] = true;
        self.tracer.emit_with(t, || TraceEvent::SessionShed {
            client: k,
            active: self.active as u64,
            queue_bytes: queue,
        });
        false
    }
}

/// Where a live client stands in the loop.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Its first event, the arrival wake, is not yet admitted.
    Arriving,
    /// Admitted and unfinished.
    Active,
    /// Finished, or shed at arrival: never stepped or woken again. A
    /// finished session can still own packets at a bottleneck — a
    /// spurious retransmission of data it has since acknowledged — and
    /// their departures still reach its transport.
    Done,
}

/// A fleet client: its whole session while the transport can still
/// touch it, then only the report the run returns.
enum Client {
    Live(Box<StreamingSession>, Phase),
    Reported(Box<SessionReport>),
}

impl Client {
    /// Its next event: none once it is done.
    fn wake(&self) -> Option<SimTime> {
        match self {
            Client::Live(session, phase) if *phase != Phase::Done => session.peek_time(),
            _ => None,
        }
    }

    /// Its session and phase. A client that wakes, or owns a packet a
    /// bottleneck hands back, is live: it is reported only once it is
    /// done and owns no queued packet.
    fn live(&mut self) -> (&mut StreamingSession, &mut Phase) {
        let Client::Live(session, phase) = self else {
            unreachable!("a reported client was touched")
        };
        (session, phase)
    }
}

/// Settle client `k` after anything touched it: re-key it in the session
/// tree, and once it is done and no packet of it waits at a bottleneck,
/// replace it by its report. A finished client with a late copy still
/// queued stays live until the copy departs or is dropped, so its report
/// is the one the end of the run would build. A client that traces
/// retires the same way: its report traces the player's last
/// transitions here, in the loop iteration that retires it.
fn settle(next: &mut NextEvent, clients: &mut Vec<Client>, k: usize) {
    next.set_session(k, clients[k].wake());
    let Client::Live(session, Phase::Done) = &clients[k] else {
        return;
    };
    if session.owns_queued_packets() {
        return;
    }
    // Move the session out of its slot (`into_report` takes it by value)
    // and put the report in its place, without a placeholder client.
    let last = clients.len() - 1;
    let Client::Live(session, _) = clients.swap_remove(k) else {
        unreachable!()
    };
    clients.push(Client::Reported(Box::new(session.into_report())));
    clients.swap(k, last);
}

/// The loop's order as a scan over every entity's live next fire time,
/// the oracle for what [`NextEvent::earliest`] answers from cached keys.
/// `min_by_key` keeps the first of equal times, and the chain is in tie
/// order: bottlenecks, then sessions, each by index.
fn earliest_by_scan(
    bottlenecks: &[SharedBottleneck],
    clients: &[Client],
) -> Option<(SimTime, Entity)> {
    let departures = (bottlenecks.iter().enumerate())
        .filter_map(|(i, bn)| Some((bn.next_departure()?, Entity::Bottleneck(i))));
    let wakes =
        (clients.iter().enumerate()).filter_map(|(k, c)| Some((c.wake()?, Entity::Session(k))));
    departures.chain(wakes).min_by_key(|&(t, _)| t)
}

/// Each client's session config, in client order: the base at the
/// client's arrival and RTT skew, reseeded from the fleet seed, with each
/// covering fault domain's timelines merged into its own scripts (shared
/// window, private coin flips: the draws still come from its link seeds).
fn client_configs<'a>(
    cfg: &'a FleetConfig,
    telemetry: Option<TelemetrySpec>,
    cache: Option<&'a SharedSegmentCache>,
) -> impl Iterator<Item = SessionConfig> + 'a {
    let n = cfg.clients;
    let churn = cfg.churn.map(|ch| ch.plan(cfg.seed, n));
    // Each domain's members in client order (a client listed twice is one
    // member), consumed as the clients are built.
    let mut domains: Vec<_> = (cfg.fault_domains.iter())
        .map(|dom| {
            let mut members = dom.members.clone();
            members.sort_unstable();
            members.dedup();
            if let Some(&k) = members.last() {
                let label = &dom.label;
                assert!(
                    k < n,
                    "fault domain {label:?} member {k} names none of the {n} clients"
                );
            }
            (dom, members.into_iter().peekable())
        })
        .collect();
    (0..n).map(move |k| {
        let mut sc = cfg.base.clone();
        match churn.as_ref() {
            Some(plan) => (sc.start_offset, sc.max_watch) = (plan[k].0, Some(plan[k].1)),
            None => sc.start_offset = cfg.stagger * k as u64,
        }
        sc.telemetry = telemetry;
        let skew = cfg.rtt_skew * k as u64;
        sc.wifi.delay += skew;
        sc.cell.delay += skew;
        let client_seed = derive_seed(cfg.seed, k as u64);
        sc.wifi.seed = derive_seed(client_seed, 0);
        sc.cell.seed = derive_seed(client_seed, 1);
        // Per-client retry jitter: a shared fault burst must not make
        // every client back off in lockstep and re-stampede together.
        sc.lifecycle = sc.lifecycle.with_seed(derive_seed(client_seed, 2));
        sc.cache = cache.cloned().or(sc.cache);
        if cfg.trace_client.is_some_and(|traced| traced != k) {
            sc.tracer = Tracer::disabled();
        }
        for (dom, members) in &mut domains {
            if members.next_if_eq(&k).is_none() {
                continue;
            }
            // A member's own windows come first at a shared instant.
            sc.wifi.faults.extend(dom.wifi.windows().iter().copied());
            sc.cell.faults.extend(dom.cell.windows().iter().copied());
            sc.server_faults
                .extend(dom.server.windows().iter().copied());
        }
        sc
    })
}

/// Run one fleet to completion. Deterministic: a pure function of the
/// configuration (tracing included — it is observe-only).
///
/// # Panics
/// On an [`InvariantViolation`] when the watchdog is armed; use
/// [`run_checked`] to handle violations as typed errors instead.
pub fn run(cfg: &FleetConfig) -> FleetReport {
    match run_checked(cfg) {
        Ok(report) => report,
        Err(v) => panic!("fleet invariant violated: {v}"),
    }
}

/// [`run`], with watchdog violations surfaced as typed errors. The
/// watchdog checks virtual-time monotonicity on every loop iteration,
/// byte conservation after every bottleneck departure, and breaker
/// sanity plus hedge accounting after every session step — each check a
/// few integer comparisons, cheap enough to leave armed everywhere.
pub fn run_checked(cfg: &FleetConfig) -> Result<FleetReport, InvariantViolation> {
    let (n, max, traced) = (cfg.clients, FleetConfig::MAX_CLIENTS, cfg.trace_client);
    assert!(
        (1..=max).contains(&n),
        "a fleet has 1..={max} clients, not {n}"
    );
    assert!(
        traced.is_none_or(|k| k < n),
        "trace_client {traced:?} names none of the {n} clients"
    );
    // One resolution for the whole fleet: clients, bottlenecks, and the
    // loop profiler all observe on the same epoch grid (or not at all).
    let telemetry = cfg.telemetry.or(cfg.base.telemetry);
    let cache = cfg
        .cache
        .map(|spec| SharedSegmentCache::new(spec.capacity_bytes).with_edge_delay(spec.edge_delay));
    let configs = client_configs(cfg, telemetry, cache.as_ref());
    // The shared topology. Each client subscribes its paths as it is built,
    // in client-major order, so `route[b][flow]` is a flow's (client, path).
    // A started session has only queued its first request: no data-link
    // transmit has happened yet.
    let bottlenecks: Vec<SharedBottleneck> = (cfg.shared.iter())
        .map(|spec| {
            let bn = SharedBottleneck::new(spec.config);
            if let Some(t) = telemetry {
                bn.enable_telemetry(t);
            }
            bn
        })
        .collect();
    let mut next = NextEvent::new(bottlenecks.len(), n);
    let mut route: Vec<Vec<(usize, PathId)>> = (cfg.shared.iter())
        .map(|spec| Vec::with_capacity(n * spec.paths.len()))
        .collect();
    let mut clients: Vec<Client> = (configs.enumerate())
        .map(|(k, sc)| {
            let mut session = StreamingSession::start(sc);
            // Only the traced client keeps its packet log: nothing reads
            // another's, and the logs would be most of a fleet's heap.
            session.set_logging(traced == Some(k));
            for ((spec, bn), flows) in cfg.shared.iter().zip(&bottlenecks).zip(&mut route) {
                for &path in &spec.paths {
                    let flow = session.attach_shared(path, bn);
                    debug_assert_eq!(flow, flows.len(), "flows subscribe densely");
                    flows.push((k, path));
                }
            }
            next.set_session(k, session.peek_time());
            Client::Live(Box::new(session), Phase::Arriving)
        })
        .collect();

    // The fleet event loop pops the globally earliest event, ties going to
    // bottlenecks, so departures at t precede any offer made at t. `next`
    // caches every entity's next fire time; each arm re-keys exactly the
    // entities it can have changed. A departure hands its packet, and each
    // CoDel casualty dropped while choosing it, back to its owner. A
    // client's first wake is its arrival, where admission runs; a step's
    // offers start service only at an idle bottleneck.
    let mut admission = cfg.overload.map(|policy| Admission {
        policy,
        active: 0,
        tracer: cfg.base.tracer.clone(),
        bottlenecks: &bottlenecks,
        shed: vec![false; n],
    });
    let mut rec = LoopRecorder::new(cfg, telemetry);
    loop {
        let best = next.earliest();
        rec.scan(best.map(|(t, _)| t))?;
        debug_assert_eq!(best, earliest_by_scan(&bottlenecks, &clients));
        let Some((t, entity)) = best else { break };
        match entity {
            Entity::Bottleneck(i) => {
                let d = bottlenecks[i].pop_departure().expect("departure peeked");
                let (k, path) = route[i][d.flow];
                let (owner, _) = clients[k].live();
                owner.on_shared_departure(path, d.ticket, d.at, d.marked);
                for drop in bottlenecks[i].take_aqm_drops() {
                    let (dk, dpath) = route[i][drop.flow];
                    let (owner, _) = clients[dk].live();
                    owner.on_shared_drop(dpath, drop.ticket);
                    settle(&mut next, &mut clients, dk);
                    rec.record(t, Outcome::AqmDrop)?;
                }
                rec.record(t, Outcome::Departure(i, &bottlenecks[i]))?;
                next.departures[i] = bottlenecks[i].next_departure();
                settle(&mut next, &mut clients, k);
            }
            Entity::Session(k) => {
                let (session, phase) = clients[k].live();
                if *phase == Phase::Arriving {
                    if admission.as_mut().is_none_or(|a| a.admit(t, k, session)) {
                        *phase = Phase::Active;
                        rec.record(t, Outcome::Arrival)?;
                    } else {
                        *phase = Phase::Done;
                        rec.record(t, Outcome::Shed)?;
                    }
                }
                if *phase == Phase::Active {
                    session.step_once();
                    rec.record(t, Outcome::Step(k, session))?;
                    if session.finished() {
                        *phase = Phase::Done;
                        admission.iter_mut().for_each(|a| a.active -= 1);
                        rec.record(t, Outcome::Finish)?;
                    }
                }
                settle(&mut next, &mut clients, k);
                for (at, bn) in next.departures.iter_mut().zip(&bottlenecks) {
                    *at = at.or_else(|| bn.next_departure());
                    debug_assert_eq!(*at, bn.next_departure());
                }
            }
        }
    }
    let (profile, wall_profile) = rec.finish();

    let bottlenecks: Vec<BottleneckSummary> = (bottlenecks.iter().zip(&cfg.shared))
        .map(|(bn, spec)| {
            let stats = bn.stats();
            assert!(stats.conserved(), "bottleneck conservation: {stats:?}");
            BottleneckSummary {
                discipline: spec.config.discipline.label(),
                stats,
                metrics: bn.metrics_snapshot(),
                epochs: bn.epoch_series(),
            }
        })
        .collect();

    // The loop ends with no packet queued anywhere, so every finished
    // client, owning none, was settled into its report.
    let mut sessions = Vec::with_capacity(n);
    sessions.extend(clients.into_iter().filter_map(|c| match c {
        Client::Reported(report) => Some(*report),
        Client::Live(..) => None,
    }));
    let unfinished = n - sessions.len();
    assert!(
        unfinished == 0,
        "fleet deadlocked: {unfinished} of {n} clients unfinished"
    );
    let shed = admission.map_or_else(|| vec![false; n], |a| a.shed);
    // Fleet-wide series: fold every client's series in client order.
    // merge() is associative + commutative, so any other fold order —
    // e.g. shard-local partial merges under MPDASH_WORKERS — yields the
    // same bytes.
    let epochs = telemetry.map(|spec| {
        let mut all = EpochSeries::new(spec);
        for e in sessions.iter().filter_map(|s| s.epochs.as_ref()) {
            all.merge(e);
        }
        all
    });
    let sum = |f: fn(&SessionReport) -> u64| sessions.iter().map(f).sum::<u64>();
    let jain_of = |f: fn(&SessionReport) -> f64| jain(&sessions.iter().map(f).collect::<Vec<_>>());
    let completed = sum(|s| s.scheduler_stats.completed_transfers);
    Ok(FleetReport {
        jain_bitrate: jain_of(|s| s.qoe_all.mean_bitrate_mbps),
        jain_cell_bytes: jain_of(|s| s.cell_bytes as f64),
        deadline_miss_rate: sum(|s| s.scheduler_stats.missed_deadlines) as f64
            / completed.max(1) as f64,
        total_wifi_bytes: sum(|s| s.wifi_bytes),
        total_cell_bytes: sum(|s| s.cell_bytes),
        total_stalls: sum(|s| s.qoe_all.stalls),
        shed_sessions: shed.iter().filter(|&&s| s).count() as u64,
        departed_sessions: sessions.iter().filter(|s| s.departed).count() as u64,
        shed,
        bottlenecks,
        cache: cache.map(|c| c.stats()),
        epochs,
        profile,
        wall_profile,
        sessions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signals;
    use mpdash_dash::abr::AbrKind;
    use mpdash_dash::video::Video;
    use mpdash_link::QueueDiscipline;
    use mpdash_session::{run_batch, Job, TransportMode};
    use mpdash_sim::SimTime;

    fn tiny_video() -> Video {
        Video::new(
            "tiny",
            &[0.58, 1.01, 1.47, 2.41, 3.94],
            SimDuration::from_secs(4),
            10,
        )
    }

    fn base(mode: TransportMode) -> SessionConfig {
        SessionConfig::controlled_mbps(20.0, 8.0, AbrKind::Festive, mode).with_video(tiny_video())
    }

    fn ap(mbps: f64, discipline: QueueDiscipline) -> SharedLinkSpec {
        SharedLinkSpec::wifi_ap(SharedBottleneckConfig::fifo_mbps(mbps).with_discipline(discipline))
    }

    #[test]
    fn a_private_link_fleet_matches_standalone_sessions() {
        // No shared links: each fleet client is an independent session,
        // so client 0 (zero stagger, same derived seed) must reproduce
        // the standalone run byte for byte. Tracing it keeps its log.
        // Under MP-DASH the fleet feeds the deadline signal as packets
        // arrive, the standalone session the same way from its own loop.
        for mode in [TransportMode::Vanilla, TransportMode::mpdash_rate_based()] {
            let cfg = FleetConfig::new(base(mode), 3).with_trace_client(0);
            let report = run(&cfg);
            assert_eq!(report.sessions.len(), 3);

            let mut alone = cfg.base.clone();
            let client_seed = derive_seed(cfg.seed, 0);
            alone.wifi.seed = derive_seed(client_seed, 0);
            alone.cell.seed = derive_seed(client_seed, 1);
            alone.lifecycle = alone.lifecycle.with_seed(derive_seed(client_seed, 2));
            let solo = StreamingSession::run(alone);
            assert_eq!(
                report.sessions[0].summary_json().to_pretty(),
                solo.summary_json().to_pretty(),
                "{mode:?}"
            );
            // The summary carries the scheduler's counters: under MP-DASH
            // the deadline signal must have run for them to mean anything.
            assert_eq!(
                solo.scheduler_stats.completed_transfers > 0,
                mode.is_mpdash(),
                "{mode:?}: {:?}",
                solo.scheduler_stats
            );
            // The summary is sums; the capture under it is every packet.
            assert!(!solo.records.is_empty());
            assert!(
                report.sessions[0].records == solo.records,
                "{mode:?}: client 0's packet log differs from the standalone session's"
            );
            // Nobody reads an untraced client's log, so none is kept.
            assert!(report.sessions[1..].iter().all(|s| s.records.is_empty()));
            assert!(report.sessions[1].sim_profile.by_kind.data > 0);
        }
    }

    #[test]
    fn staggered_clients_meter_radio_energy_from_their_own_origin() {
        // Three clients on private constant-rate links, 20 s apart: the
        // same traffic shifted in time, so the same radio bill. Metered
        // on the fleet's clock instead of its own, a late client's
        // packets would fall past its `[0, duration]` window.
        let cfg = FleetConfig::new(base(TransportMode::Vanilla), 3)
            .with_stagger(SimDuration::from_secs(20));
        let report = run(&cfg);
        let first = &report.sessions[0];
        assert!(first.energy.lte.total_j() > 0.0);
        for (k, s) in report.sessions.iter().enumerate() {
            assert_eq!(s.cell_bytes, first.cell_bytes, "client {k}");
            assert_eq!(s.energy, first.energy, "client {k}");
        }
    }

    #[test]
    fn staggered_clients_measure_qoe_from_their_own_origin() {
        let cfg = FleetConfig::new(base(TransportMode::Vanilla), 3)
            .with_stagger(SimDuration::from_secs(2));
        let report = run(&cfg);
        for s in &report.sessions {
            let startup = s.qoe_all.startup_delay.expect("all clients played");
            // Startup is measured from each client's own join, not from
            // the epoch — so a 2 s/4 s-late join must not inflate it.
            assert!(
                startup < SimDuration::from_secs(2),
                "startup {startup:?} includes the stagger offset"
            );
        }
    }

    #[test]
    fn contention_on_a_shared_ap_is_visible_and_conserved() {
        // Same shared topology, scarce vs generous capacity. Both the
        // AP and the cell sector are shared — otherwise each client's
        // private cellular path quietly absorbs the AP's scarcity. At
        // 2 + 1 Mbps across 4 clients (~0.75 Mbps each), even FESTIVE's
        // ramp levels no longer fit, so bitrate must drop and sessions
        // must stretch — while every offered byte stays accounted for.
        let mk = |wifi_mbps, cell_mbps| {
            run(&FleetConfig::new(base(TransportMode::Vanilla), 4)
                .with_shared(ap(wifi_mbps, QueueDiscipline::Fifo))
                .with_shared(SharedLinkSpec::cell_sector(
                    SharedBottleneckConfig::fifo_mbps(cell_mbps),
                )))
        };
        let free = mk(100.0, 100.0);
        let contended = mk(2.0, 1.0);
        assert_eq!(contended.bottlenecks.len(), 2);
        for bn in &contended.bottlenecks {
            assert!(bn.stats.conserved());
            assert!(bn.stats.offered_bytes > 0, "traffic rode the bottleneck");
        }
        assert!(
            contended.mean_bitrate_mbps() < free.mean_bitrate_mbps(),
            "contended {:.2} vs free {:.2}",
            contended.mean_bitrate_mbps(),
            free.mean_bitrate_mbps()
        );
        let longest = |r: &FleetReport| {
            r.sessions
                .iter()
                .map(|s| s.duration)
                .max()
                .expect("non-empty fleet")
        };
        assert!(
            longest(&contended) > longest(&free),
            "scarcity must stretch sessions"
        );
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let mk = || {
            FleetConfig::new(base(TransportMode::mpdash_rate_based()), 4)
                .with_shared(ap(14.0, QueueDiscipline::Fifo))
                .with_seed(7)
        };
        let a = run(&mk()).summary_json().to_pretty();
        let b = run(&mk()).summary_json().to_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn replicas_shard_identically_across_worker_counts() {
        let jobs = |n: u64| -> Vec<Job<'static, String>> {
            (0..n)
                .map(|r| {
                    let cfg = FleetConfig::new(base(TransportMode::Vanilla), 3)
                        .with_shared(ap(12.0, QueueDiscipline::Fifo))
                        .with_seed(100 + r);
                    Job::new(format!("replica{r}"), move || {
                        run(&cfg).summary_json().to_pretty()
                    })
                })
                .collect()
        };
        let seq = run_batch(jobs(4), 1);
        let par = run_batch(jobs(4), 4);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.report, b.report);
            assert!(a.report.is_ok());
        }
    }

    #[test]
    fn fq_is_no_less_fair_than_fifo_under_contention() {
        let mk = |d| {
            run(&FleetConfig::new(base(TransportMode::Vanilla), 4)
                .with_shared(ap(10.0, d))
                .with_seed(3))
        };
        let fifo = mk(QueueDiscipline::Fifo);
        let fq = mk(QueueDiscipline::FlowQueue { quantum: 1540 });
        assert!(
            fq.jain_bitrate + 1e-9 >= fifo.jain_bitrate,
            "fq jain {:.4} < fifo jain {:.4}",
            fq.jain_bitrate,
            fifo.jain_bitrate
        );
    }

    #[test]
    fn shared_fault_burst_retries_desynchronize_across_clients() {
        use mpdash_obs::{RingSink, TraceEvent, Tracer};
        use mpdash_session::{LifecyclePolicy, ServerFaultScript};
        use std::sync::Arc;
        // Same fleet twice, tracing a different client each time: fleet
        // runs are deterministic and tracing is observe-only, so the
        // two runs are faithful per-client views of one fleet.
        let backoffs = |client: usize| -> Vec<f64> {
            let ring = Arc::new(RingSink::new(1 << 16));
            let base = base(TransportMode::mpdash_rate_based())
                .with_server_faults(
                    ServerFaultScript::new()
                        .error_burst(SimTime::from_secs(5), SimDuration::from_secs(2)),
                )
                .with_lifecycle(LifecyclePolicy::retry_only())
                .with_tracer(Tracer::new(ring.clone()));
            let cfg = FleetConfig::new(base, 2)
                .with_stagger(SimDuration::ZERO)
                .with_trace_client(client);
            run(&cfg);
            ring.events()
                .iter()
                .filter_map(|(_, e)| match e {
                    TraceEvent::RequestRetried { backoff_s, .. } => Some(*backoff_s),
                    _ => None,
                })
                .collect()
        };
        let c0 = backoffs(0);
        let c1 = backoffs(1);
        assert!(
            !c0.is_empty() && !c1.is_empty(),
            "the shared burst must force retries on both clients"
        );
        assert_ne!(
            c0, c1,
            "per-client lifecycle seeds must desynchronize retry backoffs"
        );
    }

    #[test]
    fn shared_cache_hit_ratio_is_monotone_in_fleet_size() {
        let report = |clients: usize| {
            run(&FleetConfig::new(base(TransportMode::Vanilla), clients)
                .with_cache(FleetCacheSpec::new(256 * 1024 * 1024)))
        };
        let ratio = |r: &FleetReport| {
            let c = r.cache.expect("cache configured");
            // The global counters must reconcile with the per-session
            // views — the cache serves only these clients.
            let hits: u64 = r.sessions.iter().map(|s| s.origin.cache_hits).sum();
            let misses: u64 = r.sessions.iter().map(|s| s.origin.cache_misses).sum();
            assert_eq!((c.hits, c.misses), (hits, misses));
            c.hit_ratio()
        };
        let r1 = report(1);
        let r2 = report(2);
        let r4 = report(4);
        let (h1, h2, h4) = (ratio(&r1), ratio(&r2), ratio(&r4));
        assert_eq!(h1, 0.0, "a lone client never hits its own cold cache");
        assert!(
            h2 > 0.0,
            "the second client must reuse the first one's inserts"
        );
        assert!(
            h1 <= h2 && h2 <= h4,
            "hit ratio must be monotone in fleet size: {h1:.3} {h2:.3} {h4:.3}"
        );
    }

    #[test]
    fn cached_fleet_runs_are_pure_functions_of_config() {
        // The cache spec (not a live handle) is what FleetConfig holds:
        // two runs of the same config must not leak warm-cache state
        // into each other.
        let mk = || {
            FleetConfig::new(base(TransportMode::Vanilla), 3)
                .with_cache(FleetCacheSpec::new(64 * 1024 * 1024))
                .with_seed(9)
        };
        let a = run(&mk()).summary_json().to_pretty();
        let b = run(&mk()).summary_json().to_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn fleet_telemetry_is_observe_only_and_merges_client_series() {
        let mk = |telemetry: bool| {
            let mut cfg = FleetConfig::new(base(TransportMode::mpdash_rate_based()), 3)
                .with_shared(ap(12.0, QueueDiscipline::Fifo))
                .with_seed(11);
            if telemetry {
                cfg = cfg
                    .with_telemetry(TelemetrySpec::seconds(2.0))
                    .with_wall_profile();
            }
            run(&cfg)
        };
        let off = mk(false);
        let on = mk(true);
        // The artifact invariant: telemetry and wall profiling change
        // no observable byte of the summary.
        assert_eq!(
            off.summary_json().to_pretty(),
            on.summary_json().to_pretty()
        );
        assert!(off.epochs.is_none() && off.profile.epochs.is_none());
        assert!(off.wall_profile.is_none() && on.wall_profile.is_some());

        // The merged fleet series reconciles with the summed reports.
        let fleet = on.epochs.as_ref().expect("telemetry on");
        assert_eq!(fleet.counter_total("wifi_bytes"), on.total_wifi_bytes);
        assert_eq!(fleet.counter_total("cell_bytes"), on.total_cell_bytes);
        let chunk_sum: u64 = on.sessions.iter().map(|s| s.chunks.len() as u64).sum();
        assert_eq!(fleet.counter_total("chunks"), chunk_sum);

        // Loop accounting: every event was either a pop or a step, and
        // the epoch view re-adds to the same totals.
        let p = &on.profile;
        assert_eq!(p.loop_iterations, p.departures_popped + p.session_steps + 1);
        let loop_epochs = p.epochs.as_ref().expect("telemetry on");
        assert_eq!(
            loop_epochs.counter_total("loop_departures"),
            p.departures_popped
        );
        assert_eq!(loop_epochs.counter_total("loop_steps"), p.session_steps);

        // The shared AP recorded its own epoch series.
        let bn = on.bottlenecks[0].epochs.as_ref().expect("telemetry on");
        assert_eq!(
            bn.counter_total("shared_delivered_bytes"),
            on.bottlenecks[0].stats.delivered_bytes
        );
    }

    #[test]
    fn churned_fleets_are_deterministic_and_report_partial_sessions() {
        // Mean watch of 12 s against a 40 s video. The buffer must be
        // smaller than the video so the download is paced by playback —
        // with the default 40 s buffer the whole video lands in ~6 s of
        // virtual time and no viewing limit ever fires.
        let mk = || {
            let mut b = base(TransportMode::Vanilla);
            b.buffer_capacity = SimDuration::from_secs(8);
            FleetConfig::new(b, 4)
                .with_churn(ChurnSpec::new(
                    SimDuration::from_millis(800),
                    SimDuration::from_secs(12),
                ))
                .with_seed(21)
        };
        let report = run(&mk());
        assert!(
            report.departed_sessions > 0,
            "a 12 s mean watch must cut some 40 s sessions short"
        );
        assert_eq!(report.shed_sessions, 0, "no overload policy, no shedding");
        for s in &report.sessions {
            if s.departed {
                assert!(
                    s.qoe_all.chunks < tiny_video().n_chunks(),
                    "a departed session must not have finished the video"
                );
                assert!(
                    s.qoe_all.chunks > 0,
                    "the viewing floor guarantees at least one chunk"
                );
            }
        }
        // Arrivals are strictly increasing (cumulative exponential), so
        // no two clients join at the same instant.
        let report2 = run(&mk());
        assert_eq!(
            report.summary_json().to_pretty(),
            report2.summary_json().to_pretty()
        );
    }

    #[test]
    fn a_domain_wifi_outage_hits_members_only_and_cellular_bridges_it() {
        use mpdash_link::FaultScript;
        // Private links, so the only coupling between clients would be
        // the fault domain itself: non-members must be byte-identical
        // to the domain-free control run.
        let mk = |domain: bool| {
            let mut cfg = FleetConfig::new(base(TransportMode::Vanilla), 3).with_seed(5);
            if domain {
                // Early outage: the tiny video downloads in ~6 s, so
                // the window must open while chunks are still in flight.
                cfg = cfg.with_fault_domain(
                    FaultDomainSpec::new("apartment-block", vec![0, 1]).with_wifi(
                        FaultScript::new().disassociation(
                            SimTime::from_secs(2),
                            SimDuration::from_secs(3),
                            SimDuration::from_secs(1),
                        ),
                    ),
                );
            }
            run(&cfg)
        };
        let control = mk(false);
        let outage = mk(true);
        for k in [0usize, 1] {
            // The outage can shrink *absolute* cell bytes (ABR drops
            // rungs while WiFi is dark), but cellular's share of the
            // session must grow — that is the bridge.
            assert!(
                outage.sessions[k].cell_fraction() > control.sessions[k].cell_fraction(),
                "client {k}: cellular share must grow across the outage \
                 ({:.3} vs {:.3})",
                outage.sessions[k].cell_fraction(),
                control.sessions[k].cell_fraction()
            );
            // The control run carries one 0.15 s Festive startup stall on
            // this tiny video; the link-down fast failover can erase it in
            // the outage run (cellular picks up before the buffer drains),
            // so the bound is "the outage adds none", not equality.
            assert!(
                outage.sessions[k].qoe_all.stalls <= control.sessions[k].qoe_all.stalls,
                "client {k}: an 8 Mbps cellular path bridges the outage without \
                 adding stalls ({} vs {})",
                outage.sessions[k].qoe_all.stalls,
                control.sessions[k].qoe_all.stalls
            );
        }
        assert_eq!(
            outage.sessions[2].summary_json().to_pretty(),
            control.sessions[2].summary_json().to_pretty(),
            "a client outside the domain must not observe the outage"
        );
    }

    #[test]
    fn domain_scripts_compose_with_per_client_scripts() {
        use mpdash_link::FaultScript;
        // The base config already carries a per-client WiFi fault; the
        // domain adds a second window. The member's merged timeline must
        // contain both (composition, not replacement).
        let burst =
            FaultScript::new().rate_collapse(SimTime::from_secs(2), SimDuration::from_secs(1), 0.5);
        let cfg = FleetConfig::new(
            base(TransportMode::Vanilla).with_wifi_faults(burst.clone()),
            2,
        )
        .with_fault_domain(FaultDomainSpec::new("region", vec![0]).with_wifi(
            FaultScript::new().rate_collapse(SimTime::from_secs(8), SimDuration::from_secs(1), 0.5),
        ))
        .with_seed(6);
        // Both runs complete; the member sees more fault exposure than
        // the non-member, which keeps only the per-client script.
        let report = run(&cfg);
        assert_eq!(report.sessions.len(), 2);
        // Indirect but deterministic evidence of composition: the two
        // clients' summaries must differ (same seed-derived streams,
        // different fault timelines).
        assert_ne!(
            report.sessions[0].summary_json().to_pretty(),
            report.sessions[1].summary_json().to_pretty()
        );
    }

    #[test]
    fn overload_shedding_caps_active_sessions_and_sheds_newest_arrivals() {
        let cfg = FleetConfig::new(base(TransportMode::Vanilla), 4)
            .with_stagger(SimDuration::from_millis(200))
            .with_overload(OverloadPolicy::max_active(2))
            .with_seed(13);
        let report = run(&cfg);
        assert_eq!(
            report.shed_sessions, 2,
            "clients 2 and 3 arrive while 0 and 1 still stream"
        );
        assert_eq!(report.shed, vec![false, false, true, true]);
        for (k, s) in report.sessions.iter().enumerate() {
            if report.shed[k] {
                assert!(s.departed, "a shed session reports as departed");
                assert_eq!(s.qoe_all.chunks, 0, "shed sessions never fetch");
                assert_eq!(s.wifi_bytes + s.cell_bytes, 0);
                assert_eq!(s.duration, SimDuration::ZERO);
            } else {
                assert!(!s.departed);
            }
        }
        assert_eq!(report.departed_sessions, report.shed_sessions);
        // The artifact rows carry both flags.
        let json = report.summary_json();
        let rows = json.get("per_client").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(rows[3].get("shed").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(rows[0].get("shed").and_then(|v| v.as_bool()), Some(false));
    }

    #[test]
    fn queue_pressure_sheds_arrivals_the_cap_would_admit() {
        use mpdash_obs::{RingSink, Tracer};
        use std::sync::Arc;
        // A cap no arrival reaches: every shed here is the AP queue's, and
        // client 5 is admitted between shed neighbours once the queue
        // has drained below the threshold. No `trace_client`: every
        // client traces into the ring too, so it is sized to keep them all.
        let ring = Arc::new(RingSink::new(1 << 20));
        let threshold = 64 * 1024;
        let cfg = FleetConfig::new(
            base(TransportMode::Vanilla).with_tracer(Tracer::new(ring.clone())),
            8,
        )
        .with_stagger(SimDuration::from_millis(700))
        .with_shared(ap(6.0, QueueDiscipline::Fifo))
        .with_overload(OverloadPolicy {
            max_active: 8,
            queue_threshold_bytes: threshold,
        })
        .with_seed(29);
        let report = run(&cfg);
        let shed: Vec<usize> = (0..8).filter(|&k| report.shed[k]).collect();
        assert_eq!(shed, [4, 6, 7]);
        let traced: Vec<usize> = (ring.events().into_iter())
            .filter_map(|(_, e)| match e {
                TraceEvent::SessionShed {
                    client,
                    active,
                    queue_bytes,
                } => {
                    assert!(active < 8 && queue_bytes >= threshold, "client {client}");
                    Some(client)
                }
                _ => None,
            })
            .collect();
        assert_eq!(traced, shed);
        let p = &report.profile;
        assert_eq!(
            [p.loop_iterations, p.session_steps, p.departures_popped],
            [46_128, 41_442, 4_682]
        );
    }

    #[test]
    fn the_watchdog_is_observe_only_and_checks_every_iteration() {
        let mk = |wd: bool, wall: bool| {
            let cfg = FleetConfig::new(base(TransportMode::mpdash_rate_based()), 3)
                .with_shared(ap(12.0, QueueDiscipline::Fifo))
                .with_churn(ChurnSpec::new(
                    SimDuration::from_millis(500),
                    SimDuration::from_secs(20),
                ))
                .with_seed(17)
                .with_watchdog(wd);
            let cfg = if wall { cfg.with_wall_profile() } else { cfg };
            run_checked(&cfg).expect("no invariant violations")
        };
        let armed = mk(true, false);
        let disarmed = mk(false, false);
        let timed = mk(true, true);
        assert!(
            armed.profile.watchdog_checks > armed.profile.loop_iterations,
            "time checks alone cover every iteration ({} checks, {} iterations)",
            armed.profile.watchdog_checks,
            armed.profile.loop_iterations
        );
        assert_eq!(disarmed.profile.watchdog_checks, 0);
        assert_eq!(
            armed.summary_json().to_pretty(),
            disarmed.summary_json().to_pretty(),
            "arming the watchdog must change zero artifact bytes"
        );
        // The stopwatch reads the host clock and steers nothing.
        let counts = |r: &FleetReport| {
            let p = &r.profile;
            [
                p.loop_iterations,
                p.session_steps,
                p.departures_popped,
                p.watchdog_checks,
            ]
        };
        assert_eq!(counts(&timed), counts(&armed));
        assert_eq!(counts(&disarmed)[..3], counts(&armed)[..3]);
        assert_eq!(
            timed.summary_json().to_pretty(),
            armed.summary_json().to_pretty()
        );
        assert!(armed.wall_profile.is_none() && disarmed.wall_profile.is_none());
        let wall = timed.wall_profile.expect("asked for");
        assert!(wall.step_ns > 0, "{wall:?}");
    }

    #[test]
    fn a_late_copy_of_an_acked_packet_does_not_wake_a_finished_client() {
        use mpdash_obs::{RingSink, Tracer};
        use std::sync::Arc;
        // `exp churn`'s full-mode heavy / none / no-shed cell, written
        // out: 24 viewers packed into 1 s mean inter-arrivals on links
        // sized for four. A churned viewer finishes with a spurious
        // retransmission still queued at the AP; when that copy departs,
        // re-keying the finished client surfaced its abandoned timers in
        // the past (`virtual time regressed`).
        let video = Video::new(
            "BBB-churn",
            &[0.58, 1.01, 1.47, 2.41, 3.94],
            SimDuration::from_secs(4),
            20,
        );
        let client = SessionConfig::controlled_mbps(
            50.0,
            30.0,
            AbrKind::Festive,
            TransportMode::mpdash_rate_based(),
        )
        .with_video(video)
        .with_buffer_capacity(SimDuration::from_secs(10));
        let cfg = FleetConfig::new(client, 24)
            .with_seed(23)
            .with_churn(ChurnSpec::new(
                SimDuration::from_secs(1),
                SimDuration::from_secs(40),
            ))
            .with_watchdog(true)
            .with_telemetry(TelemetrySpec::seconds(2.0))
            .with_shared(ap(4.8, QueueDiscipline::Fifo))
            .with_shared(SharedLinkSpec::cell_sector(
                SharedBottleneckConfig::fifo_mbps(3.2),
            ));
        let report = run_checked(&cfg).expect("no invariant violations");
        assert!(report.departed_sessions > 0, "viewers churned away");
        let p = &report.profile;
        assert_eq!(p.loop_iterations, p.departures_popped + p.session_steps + 1);

        // The case is exercised: client 3 departs, its last ACK (a
        // `PathSample`) finishes it, and only then does a copy of a
        // packet it has seen acknowledged leave the AP queue — its
        // `SharedQueueWait` follows the client's every step. Tracing is
        // observe-only, so this is the run above.
        let ring = Arc::new(RingSink::new(1 << 20));
        let mut traced = cfg.clone().with_trace_client(3);
        traced.base = traced.base.with_tracer(Tracer::new(ring.clone()));
        let traced = run_checked(&traced).expect("no invariant violations");
        let events = ring.events();
        let last_ack = (events.iter())
            .rposition(|(_, e)| matches!(e, TraceEvent::PathSample { .. }))
            .expect("client 3 was acknowledged");
        assert!(events[..last_ack]
            .iter()
            .any(|(_, e)| matches!(e, TraceEvent::SessionDeparted { .. })));
        let late: Vec<SimTime> = (events[last_ack..].iter())
            .filter(|(_, e)| matches!(e, TraceEvent::SharedQueueWait { .. }))
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(format!("{late:?}"), "[t=28.086598s]");

        // What no summary shows: each client's event engine, down to the
        // `Data` event a late copy schedules (a lane append, and a slot
        // that can set the peak). Recorded before a finished client
        // became its report mid-run; a client reported before its late
        // copy departed would differ in `lane_appends`.
        // [events_popped, peak_queue_depth, data, ack, rto, app_timer,
        //  reverse_msg, lane_appends, heap_fallbacks]
        const PROFILES: [[u64; 9]; 24] = [
            [10976, 41, 3865, 3918, 456, 2720, 17, 10764, 212],
            [1814, 43, 822, 831, 45, 113, 3, 1794, 20],
            [3761, 42, 1520, 1531, 157, 548, 5, 3684, 78],
            [4347, 36, 1209, 1222, 165, 1747, 4, 4235, 122],
            [14905, 43, 5766, 5830, 469, 2820, 20, 14734, 174],
            [14876, 45, 5515, 5579, 408, 3354, 20, 14699, 181],
            [2503, 35, 840, 847, 126, 687, 3, 2414, 91],
            [7033, 45, 1921, 1945, 300, 2860, 7, 6898, 144],
            [8701, 32, 2384, 2445, 306, 3554, 12, 8576, 125],
            [2520, 42, 803, 816, 144, 753, 4, 2421, 103],
            [1202, 53, 447, 450, 79, 224, 2, 1146, 58],
            [1124, 35, 434, 438, 69, 181, 2, 1069, 60],
            [6938, 45, 2311, 2342, 275, 1999, 11, 6722, 216],
            [1227, 29, 435, 438, 69, 283, 2, 1176, 53],
            [8242, 41, 2352, 2381, 300, 3200, 9, 8081, 161],
            [876, 41, 233, 234, 32, 376, 1, 858, 21],
            [1239, 53, 460, 465, 67, 245, 2, 1204, 39],
            [7215, 31, 2521, 2554, 256, 1872, 12, 7126, 89],
            [24998, 50, 10894, 10974, 470, 2640, 20, 24796, 205],
            [7913, 38, 2880, 2911, 287, 1826, 9, 7790, 123],
            [692, 33, 241, 242, 53, 155, 1, 650, 44],
            [1879, 26, 621, 628, 116, 511, 3, 1808, 73],
            [1211, 31, 448, 451, 63, 247, 2, 1168, 46],
            [2663, 42, 815, 819, 128, 897, 4, 2549, 125],
        ];
        for (k, (s, want)) in report.sessions.iter().zip(PROFILES).enumerate() {
            let (p, b) = (&s.sim_profile, &s.sim_profile.by_kind);
            let got = [
                p.events_popped,
                p.peak_queue_depth as u64,
                b.data,
                b.ack,
                b.rto,
                b.app_timer,
                b.reverse_msg,
                p.lane_appends,
                p.heap_fallbacks,
            ];
            assert_eq!(got, want, "client {k}");
            assert_eq!(traced.sessions[k].sim_profile, *p, "client {k} traced");
        }
    }

    #[test]
    fn a_churn_mix_sheds_drops_and_retires_the_same_events() {
        use mpdash_http::{LifecyclePolicy, OriginPoolConfig, OriginSpec};
        use mpdash_link::{AqmConfig, FaultScript};
        use mpdash_obs::{RingSink, Tracer};
        use mpdash_session::ServerFaultScript;
        use std::sync::Arc;
        // The perf harness's `fleet192_churn_mix` at 16 clients: churn,
        // admission shedding, a fault domain, a blackholed primary origin,
        // a cache, telemetry, the watchdog and a CoDel sector, whose
        // dequeue drops go back to their owners through the loop. The
        // links are sized for four viewers and the cap admits twelve, so
        // the FIFO AP queues deep enough that finished viewers still have
        // late copies of acknowledged packets waiting there: they become
        // their reports at those copies' departures. Client 1 traces, and
        // retires like any other.
        let at = |s: u64| SimTime::from_secs(s);
        let seed = 22;
        let outage = ServerFaultScript::new()
            .blackhole(at(40), SimDuration::from_secs(25))
            .blackhole(at(120), SimDuration::from_secs(25));
        let pool = OriginPoolConfig::new(vec![
            OriginSpec::new("primary").with_faults(outage),
            OriginSpec::new("backup").with_rtt_penalty(SimDuration::from_millis(20)),
        ])
        .with_hedge_quantile(0.35)
        .with_seed(seed);
        let video = Video::new(
            "BBB-churn",
            &[0.58, 1.01, 1.47, 2.41, 3.94],
            SimDuration::from_secs(4),
            20,
        );
        let client = SessionConfig::controlled_mbps(
            50.0,
            30.0,
            AbrKind::Festive,
            TransportMode::mpdash_rate_based(),
        )
        .with_video(video)
        .with_buffer_capacity(SimDuration::from_secs(10))
        .with_origins(pool)
        .with_lifecycle(LifecyclePolicy::deadline_aware())
        .with_tracer(Tracer::new(Arc::new(RingSink::new(1 << 10))));
        let cfg = FleetConfig::new(client, 16)
            .with_seed(seed)
            .with_churn(ChurnSpec::new(
                SimDuration::from_secs(1),
                SimDuration::from_secs(40),
            ))
            .with_overload(OverloadPolicy::max_active(12))
            .with_shared(ap(4.8, QueueDiscipline::Fifo))
            .with_shared(SharedLinkSpec::cell_sector(
                SharedBottleneckConfig::fifo_mbps(1.6)
                    .with_discipline(QueueDiscipline::Codel(AqmConfig::codel())),
            ))
            .with_fault_domain(
                FaultDomainSpec::new("ap-region", (0..4).collect()).with_wifi(
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
            .with_trace_client(1);
        let report = run_checked(&cfg).expect("no invariant violations");
        assert!(report.shed_sessions > 0, "the cap sheds arrivals");
        let sector = &report.bottlenecks[1].stats;
        assert!(sector.dropped_aqm_packets > 0, "CoDel drops: {sector:?}");
        assert!(!report.sessions[1].records.is_empty(), "client 1 traces");

        // What the loop popped, who it shed, and each client's event
        // engine: a client stepped, woken or retired at another moment
        // moves one of them, and one reported while a late copy of its
        // packet is still queued pops fewer events.
        let p = &report.profile;
        assert_eq!(
            [p.loop_iterations, p.session_steps, p.departures_popped],
            [123_242, 87_916, 35_322]
        );
        let shed: Vec<usize> = (0..16).filter(|&k| report.shed[k]).collect();
        assert_eq!(shed, [13, 14, 15]);
        let popped: Vec<u64> = (report.sessions.iter())
            .map(|s| s.sim_profile.events_popped)
            .collect();
        assert_eq!(
            popped,
            [
                1797, 7119, 14072, 7169, 10025, 2466, 2523, 2349, 1503, 1400, 6006, 29605, 1882, 0,
                0, 0
            ]
        );

        // What no summary carries: the fleet's merged epoch series, each
        // bottleneck's series and registry, the loop's profile with its
        // series, and every client's registry in client order. A signal
        // write that is dropped, zeroed or renamed moves one of these.
        let digest = |text: String| {
            (text.bytes()).fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        fn series(e: &Option<EpochSeries>) -> &EpochSeries {
            e.as_ref().expect("telemetry on")
        }
        let [ap, sector] = [0, 1].map(|i| &report.bottlenecks[i]);
        let metrics: String = (report.sessions.iter())
            .map(|s| s.metrics.to_json().to_compact())
            .collect();
        let got = [
            series(&report.epochs).to_json().to_compact(),
            series(&ap.epochs).to_json().to_compact(),
            ap.metrics.to_json().to_compact(),
            series(&sector.epochs).to_json().to_compact(),
            sector.metrics.to_json().to_compact(),
            p.to_json().to_compact(),
            metrics,
        ]
        .map(digest);
        assert_eq!(
            got,
            [
                4536942046103290881,
                5346515727098354259,
                11232815344915566673,
                10280391034810081475,
                1544571937504950736,
                11762151591555805396,
                2971293060749005103,
            ]
        );
        // Every signal name is nonzero here but those the scenario pins
        // write (`tests/common/signals.rs`).
        let mut epochs = vec![series(&report.epochs), series(&p.epochs)];
        epochs.extend([ap, sector].map(|b| series(&b.epochs)));
        let mut registries = vec![&ap.metrics, &sector.metrics];
        registries.extend(report.sessions.iter().map(|s| &s.metrics));
        let mut want = signals::CHURN_MIX_ZEROS;
        want.sort_unstable();
        assert_eq!(signals::zeros(&epochs, &registries), want);
    }

    #[test]
    fn a_256_client_fleet_on_one_ap_finishes_and_conserves() {
        // Scale smoke: cheap only while total cost stays near-linear in
        // clients. Two chunks each, joins 100 ms apart, so the AP always
        // carries several overlapping sessions.
        let video = Video::new("two-chunk", &[0.58, 1.01], SimDuration::from_secs(4), 2);
        let cfg = FleetConfig::new(base(TransportMode::Vanilla).with_video(video), 256)
            .with_stagger(SimDuration::from_millis(100))
            .with_shared(ap(40.0, QueueDiscipline::Fifo));
        let report = run(&cfg);
        assert_eq!(report.sessions.len(), 256);
        for (k, s) in report.sessions.iter().enumerate() {
            assert_eq!(s.qoe_all.chunks, 2, "client {k} fetched the whole video");
            assert!(!s.departed);
        }
        let stats = &report.bottlenecks[0].stats;
        assert!(stats.conserved(), "{stats:?}");
        assert!(stats.delivered_bytes > 0 && stats.queued_bytes == 0);
        let p = &report.profile;
        assert_eq!(p.loop_iterations, p.departures_popped + p.session_steps + 1);
    }

    #[test]
    #[should_panic(expected = "a fleet has 1..=65536 clients, not 65537")]
    fn a_fleet_past_max_clients_is_refused_before_it_allocates() {
        let _ = run_checked(&FleetConfig::new(
            base(TransportMode::Vanilla),
            FleetConfig::MAX_CLIENTS + 1,
        ));
    }

    /// The base tracer reaches every client unless `trace_client` names
    /// one, and then that client's chunks are the only ones traced.
    #[test]
    fn the_base_tracer_reaches_every_client_unless_one_is_named() {
        use mpdash_obs::RingSink;
        use mpdash_session::ChunkRecord;
        use std::sync::Arc;
        let key = |c: &ChunkRecord| (c.index, c.size, c.started.as_secs_f64().to_bits());
        let fetched = |trace_client: Option<usize>| {
            let ring = Arc::new(RingSink::new(1 << 20));
            let base =
                base(TransportMode::mpdash_rate_based()).with_tracer(Tracer::new(ring.clone()));
            let cfg = FleetConfig {
                trace_client,
                ..FleetConfig::new(base, 3)
            };
            let report = run(&cfg);
            let mut traced: Vec<_> = (ring.events().into_iter())
                .filter_map(|(_, e)| match e {
                    TraceEvent::ChunkFetched {
                        chunk,
                        size,
                        started_s,
                        ..
                    } => Some((chunk, size, started_s.to_bits())),
                    _ => None,
                })
                .collect();
            traced.sort_unstable();
            (traced, report)
        };
        let (one, report) = fetched(Some(1));
        let mut want: Vec<_> = report.sessions[1].chunks.iter().map(key).collect();
        want.sort_unstable();
        assert_eq!((one.len(), &one), (10, &want));
        let (all, report) = fetched(None);
        let mut want: Vec<_> = (report.sessions.iter())
            .flat_map(|s| s.chunks.iter().map(key))
            .collect();
        want.sort_unstable();
        assert_eq!((all.len(), &all), (30, &want));
    }

    #[test]
    #[should_panic(expected = "trace_client Some(3) names none of the 3 clients")]
    fn a_trace_client_past_the_fleet_is_refused() {
        let _ =
            run_checked(&FleetConfig::new(base(TransportMode::Vanilla), 3).with_trace_client(3));
    }

    #[test]
    #[should_panic(expected = "fault domain \"region\" member 3 names none of the 3 clients")]
    fn a_fault_domain_member_past_the_fleet_is_refused() {
        let _ = run_checked(
            &FleetConfig::new(base(TransportMode::Vanilla), 3)
                .with_fault_domain(FaultDomainSpec::new("region", vec![0, 3])),
        );
    }

    #[test]
    fn jain_index_basics() {
        assert!((jain(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
    }
}

/// The signal names the churn-mix test holds nonzero, shared with the
/// workspace's scenario pins.
#[cfg(test)]
#[path = "../../../tests/common/signals.rs"]
mod signals;
