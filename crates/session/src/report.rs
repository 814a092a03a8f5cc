//! Session results: everything the benchmark harness and the analysis
//! tool need to regenerate the paper's tables and figures.

use mpdash_analysis::ChunkRecord;
use mpdash_core::SchedulerStats;
use mpdash_dash::qoe::{QoeScore, QoeSummary};
use mpdash_energy::SessionEnergy;
use mpdash_mptcp::{MptcpSim, PacketLog, PoppedByKind};
use mpdash_obs::{EpochSeries, MetricsSnapshot};
use mpdash_results::Json;
use mpdash_sim::SimDuration;

/// Event-loop profile of the simulation that produced a report — how
/// much discrete-event work the run did. Fully deterministic (it counts
/// virtual events, not wall time), but kept out of [`summary_json`]
/// artifacts alongside the raw packet trace: it describes the engine,
/// not the experiment.
///
/// [`summary_json`]: SessionReport::summary_json
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// Events popped from the simulator's queue over the whole run.
    pub events_popped: u64,
    /// High-water mark of live (non-cancelled) scheduled events.
    pub peak_queue_depth: usize,
    /// `events_popped` by event kind (the fields sum to it).
    pub by_kind: PoppedByKind,
    /// Events the queue stored with an O(1) append to a FIFO lane.
    pub lane_appends: u64,
    /// Events that fit no lane and went through the queue's heap.
    pub heap_fallbacks: u64,
}

impl SimProfile {
    /// The profile of `sim`'s event loop so far.
    pub(crate) fn of(sim: &MptcpSim) -> Self {
        let (lane_appends, heap_fallbacks) = sim.queue_placement();
        SimProfile {
            events_popped: sim.events_popped(),
            peak_queue_depth: sim.peak_queue_depth(),
            by_kind: sim.popped_by_kind(),
            lane_appends,
            heap_fallbacks,
        }
    }
}

/// How gracefully the session weathered path faults: the robustness
/// counters the `exp faults` resilience matrix asserts its invariants
/// over. All zeros in a fault-free run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradationMetrics {
    /// MP-DASH scheduler deadline misses (always 0 in non-MP-DASH
    /// modes, which set no deadlines).
    pub deadline_misses: u64,
    /// Chunks whose body rode almost entirely (> 90%) on non-preferred
    /// paths — the signature of cellular bridging a WiFi fault window.
    pub outage_bridged_chunks: u64,
    /// Subflow failure declarations, summed over paths.
    pub subflow_failures: u64,
    /// Subflow re-establishments after failure, summed over paths.
    pub subflow_revivals: u64,
}

/// Request-lifecycle counters: how often the deadline-aware machinery
/// (PR 4) intervened, and what the interventions cost. All zeros under
/// the wait-forever policy on a healthy server.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Stall/deadline/infeasibility timeouts that fired.
    pub timeouts: u64,
    /// Requests abandoned mid-download (cancel sent).
    pub abandoned: u64,
    /// Byte-range resumes issued after an abandonment.
    pub resumed: u64,
    /// Requests re-issued after a server 5xx.
    pub retried: u64,
    /// Bytes delivered for abandoned requests after the abandonment
    /// decision — duplicates of what the resume re-fetched.
    pub wasted_bytes: u64,
}

/// Multi-origin serving counters: how the origin pool, the hedging
/// policy, and the segment cache behaved. All zeros when the session
/// runs without a pool or cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OriginStats {
    /// Requests the pool routed to an origin (initial, retries,
    /// resumes, hedges; cache hits bypass the pool and do not count).
    pub routed: u64,
    /// Resumes or retries that landed on a different origin than the
    /// request they replaced — the circuit-breaking failover in action.
    pub failovers: u64,
    /// Circuit-breaker transitions into Open, summed over origins.
    pub breaker_opens: u64,
    /// Hedge races launched (progress stalled past the hedge quantile
    /// of the deadline budget with a second origin available).
    pub hedges: u64,
    /// Hedge races the primary request won (the cancel was stale).
    pub hedge_wins_primary: u64,
    /// Hedge races the hedge request won (the primary aborted).
    pub hedge_wins_hedge: u64,
    /// Segment-cache hits served as edge fetches by this session.
    pub cache_hits: u64,
    /// Segment-cache misses that fell through to an origin fetch.
    pub cache_misses: u64,
    /// Full segments this session inserted into the cache.
    pub cache_insertions: u64,
}

/// Everything measured in one streaming session.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// QoE over the steady-state suffix (last 80% of chunks, like §7.3).
    pub qoe: QoeSummary,
    /// QoE over all chunks (the paper notes "very similar results").
    pub qoe_all: QoeSummary,
    /// Payload bytes received over WiFi (retransmissions included).
    pub wifi_bytes: u64,
    /// Payload bytes received over cellular.
    pub cell_bytes: u64,
    /// Radio energy replay on the configured device.
    pub energy: SessionEnergy,
    /// Wall-clock (virtual) end of the session.
    pub duration: SimDuration,
    /// Per-chunk log, each chunk's body bytes attributed to paths as
    /// its packets arrived.
    pub chunks: Vec<ChunkRecord>,
    /// Inter-arrival gaps longer than
    /// [`IDLE_GAP`](mpdash_analysis::IDLE_GAP) over the session.
    pub idle_gaps: u64,
    /// Raw packet receive trace.
    pub records: PacketLog,
    /// MP-DASH scheduler statistics; all zeros for non-MP-DASH modes.
    pub scheduler_stats: SchedulerStats,
    /// Graceful-degradation counters (deadline misses, outage-bridged
    /// chunks, subflow failovers/revivals).
    pub degradation: DegradationMetrics,
    /// Request-lifecycle counters (timeouts, abandons, resumes,
    /// retries, wasted bytes).
    pub lifecycle: LifecycleStats,
    /// Multi-origin serving counters (routing, breakers, hedges,
    /// cache).
    pub origin: OriginStats,
    /// Named counters and histograms registered during the run.
    pub metrics: MetricsSnapshot,
    /// Normalized QoE score (rebuffer ratio, bitrate, switch rate,
    /// composite) over the steady-state suffix. Computed from the
    /// player alone, so it is identical whether telemetry is on or off.
    pub qoe_score: QoeScore,
    /// The viewer departed before the video ended (churn `max_watch`
    /// elapsed or the fleet shed the session on admission): the chunk
    /// log and playout accounting cover only the content fetched.
    pub departed: bool,
    /// Epoch telemetry rollups, when the config's `telemetry` is set.
    /// **Excluded from [`summary_json`]**: the same config must serialize
    /// byte-identically with telemetry on or off, so epoch series travel
    /// beside artifacts (the `timeline` NDJSON export), never inside them.
    ///
    /// [`summary_json`]: SessionReport::summary_json
    pub epochs: Option<EpochSeries>,
    /// Discrete-event engine profile (excluded from artifacts).
    pub sim_profile: SimProfile,
}

impl SessionReport {
    /// Fraction of bytes that travelled over cellular.
    pub fn cell_fraction(&self) -> f64 {
        let total = self.wifi_bytes + self.cell_bytes;
        if total == 0 {
            0.0
        } else {
            self.cell_bytes as f64 / total as f64
        }
    }

    /// Cellular-byte saving of `self` versus a `baseline` run
    /// (the paper's headline metric; 1.0 = 100% saved).
    pub fn cell_saving_vs(&self, baseline: &SessionReport) -> f64 {
        if baseline.cell_bytes == 0 {
            return 0.0;
        }
        1.0 - self.cell_bytes as f64 / baseline.cell_bytes as f64
    }

    /// Radio-energy saving versus a baseline run.
    pub fn energy_saving_vs(&self, baseline: &SessionReport) -> f64 {
        let base = baseline.energy.total_j();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy.total_j() / base
    }

    /// A deterministic JSON summary of the session: QoE, byte split,
    /// energy, scheduler statistics, and the chunk log. Deliberately
    /// excludes the raw packet trace (too large for artifacts) and any
    /// run-environment detail (worker count, wall time) — two runs of the
    /// same config serialize byte-identically, which is what the batch
    /// determinism tests compare.
    pub fn summary_json(&self) -> Json {
        fn qoe_json(q: &QoeSummary) -> Json {
            Json::obj([
                ("stalls", Json::from(q.stalls)),
                ("stall_time_s", Json::Float(q.stall_time.as_secs_f64())),
                (
                    "startup_delay_s",
                    Json::from(q.startup_delay.map(|d| d.as_secs_f64())),
                ),
                ("mean_bitrate_mbps", Json::Float(q.mean_bitrate_mbps)),
                ("switches", Json::from(q.switches)),
                (
                    "level_histogram",
                    Json::arr(q.level_histogram.iter().map(|&n| Json::from(n))),
                ),
                ("chunks", Json::from(q.chunks)),
            ])
        }
        Json::obj([
            ("qoe", qoe_json(&self.qoe)),
            ("qoe_all", qoe_json(&self.qoe_all)),
            (
                "qoe_score",
                Json::obj([
                    ("rebuffer_ratio", Json::Float(self.qoe_score.rebuffer_ratio)),
                    (
                        "mean_bitrate_mbps",
                        Json::Float(self.qoe_score.mean_bitrate_mbps),
                    ),
                    (
                        "switch_rate_per_min",
                        Json::Float(self.qoe_score.switch_rate_per_min),
                    ),
                    ("composite", Json::Float(self.qoe_score.composite)),
                ]),
            ),
            ("wifi_bytes", Json::from(self.wifi_bytes)),
            ("cell_bytes", Json::from(self.cell_bytes)),
            ("energy_j", Json::Float(self.energy.total_j())),
            ("energy_wifi_j", Json::Float(self.energy.wifi.total_j())),
            ("energy_lte_j", Json::Float(self.energy.lte.total_j())),
            ("duration_s", Json::Float(self.duration.as_secs_f64())),
            ("departed", Json::Bool(self.departed)),
            (
                "scheduler_stats",
                Json::obj([
                    ("toggles", Json::from(self.scheduler_stats.toggles)),
                    (
                        "missed_deadlines",
                        Json::from(self.scheduler_stats.missed_deadlines),
                    ),
                    (
                        "completed",
                        Json::from(self.scheduler_stats.completed_transfers),
                    ),
                ]),
            ),
            (
                "degradation",
                Json::obj([
                    (
                        "deadline_misses",
                        Json::from(self.degradation.deadline_misses),
                    ),
                    (
                        "outage_bridged_chunks",
                        Json::from(self.degradation.outage_bridged_chunks),
                    ),
                    (
                        "subflow_failures",
                        Json::from(self.degradation.subflow_failures),
                    ),
                    (
                        "subflow_revivals",
                        Json::from(self.degradation.subflow_revivals),
                    ),
                ]),
            ),
            (
                "lifecycle",
                Json::obj([
                    ("timeouts", Json::from(self.lifecycle.timeouts)),
                    ("abandoned", Json::from(self.lifecycle.abandoned)),
                    ("resumed", Json::from(self.lifecycle.resumed)),
                    ("retried", Json::from(self.lifecycle.retried)),
                    ("wasted_bytes", Json::from(self.lifecycle.wasted_bytes)),
                ]),
            ),
            (
                "origin",
                Json::obj([
                    ("routed", Json::from(self.origin.routed)),
                    ("failovers", Json::from(self.origin.failovers)),
                    ("breaker_opens", Json::from(self.origin.breaker_opens)),
                    ("hedges", Json::from(self.origin.hedges)),
                    (
                        "hedge_wins_primary",
                        Json::from(self.origin.hedge_wins_primary),
                    ),
                    ("hedge_wins_hedge", Json::from(self.origin.hedge_wins_hedge)),
                    ("cache_hits", Json::from(self.origin.cache_hits)),
                    ("cache_misses", Json::from(self.origin.cache_misses)),
                    ("cache_insertions", Json::from(self.origin.cache_insertions)),
                ]),
            ),
            ("metrics", self.metrics.to_json()),
            (
                "chunks",
                Json::arr(self.chunks.iter().map(|c| {
                    Json::obj([
                        ("index", Json::from(c.index)),
                        ("level", Json::from(c.level)),
                        ("size", Json::from(c.size)),
                        ("started_s", Json::Float(c.started.as_secs_f64())),
                        ("completed_s", Json::Float(c.completed.as_secs_f64())),
                        ("requests", Json::from(c.requests)),
                        (
                            "deadline_s",
                            Json::from(c.deadline.map(|d| d.as_secs_f64())),
                        ),
                    ])
                })),
            ),
        ])
    }
}
