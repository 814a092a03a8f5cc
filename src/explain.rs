//! `mpdash explain` — replay one scenario mode with tracing enabled and
//! render a per-chunk timeline: the fetch window, the per-path byte
//! split, the deadline margin, and any injected fault overlapping the
//! fetch.
//!
//! The replay is an ordinary deterministic session run — the attached
//! ring sink only observes, so every number printed here is exactly the
//! number an untraced run produces.

use crate::scenario::Scenario;
use mpdash_analysis::{chunk_path_splits, ChunkInfo};
use mpdash_fleet::BottleneckSummary;
use mpdash_link::FaultScript;
use mpdash_session::{
    RingSink, SessionConfig, SessionReport, StreamingSession, TraceEvent, Tracer,
};
use mpdash_sim::SimTime;
use std::fmt::Write as _;
use std::sync::Arc;

/// What `explain` should show.
#[derive(Debug, Default)]
pub struct ExplainOptions {
    /// Restrict the timeline to one chunk index.
    pub chunk: Option<usize>,
    /// Replay this mode label (e.g. `Rate`). Default: the first MP-DASH
    /// mode in the document, else the first mode.
    pub mode: Option<String>,
    /// For fleet scenarios: replay the whole fleet and explain this
    /// client's timeline (default client 0). Requires a `fleet` key.
    pub client: Option<usize>,
}

/// How one chunk's deadline played out.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeadlineOutcome {
    /// The adapter granted no window (low-buffer Ω bypass).
    Bypassed,
    /// Granted and met with this margin.
    Hit {
        /// The granted window, seconds.
        window_s: f64,
        /// Window minus fetch time (non-negative).
        margin_s: f64,
    },
    /// Granted and overrun by this much.
    Missed {
        /// The granted window, seconds.
        window_s: f64,
        /// Fetch time minus window (positive).
        overrun_s: f64,
    },
}

/// An injected fault window overlapping a chunk's fetch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultOverlap {
    /// Which link the fault was injected on: `"wifi"` or `"cell"`.
    pub path: &'static str,
    /// Fault family name (`rate_collapse`, `disassociation`, ...).
    pub kind: &'static str,
    /// When the fault begins, seconds.
    pub fault_start_s: f64,
    /// When it stops affecting the link (reassociation included).
    pub fault_end_s: f64,
    /// Seconds of the chunk's fetch spent under this fault.
    pub overlap_s: f64,
}

/// Shared-bottleneck queueing experienced by one path during one
/// chunk's fetch window (fleet replays only; private links never wait
/// in a shared queue).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueWaitSummary {
    /// Path index (0 = wifi, 1 = cellular).
    pub path: usize,
    /// Packets that waited behind other clients' traffic.
    pub waits: u64,
    /// Mean wait, milliseconds.
    pub mean_ms: f64,
    /// Worst wait, milliseconds.
    pub max_ms: f64,
}

/// Scheduler decisions that routed segments onto one path during one
/// chunk's fetch window, with the mean inputs the scheduler saw at pick
/// time (the raw per-segment `SchedulerPick` events would flood the
/// timeline, so they are rolled up per path).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchedulerPickSummary {
    /// Path index (0 = wifi, 1 = cellular).
    pub path: usize,
    /// Segments the scheduler assigned to this path.
    pub picks: u64,
    /// Bytes those segments carried.
    pub bytes: u64,
    /// Mean SRTT the scheduler saw when picking this path, milliseconds
    /// (`None` until the path has an RTT sample).
    pub mean_srtt_ms: Option<f64>,
    /// Mean shared-bottleneck queue depth seen at pick time, bytes
    /// (`None` on private links, which expose no queue signal).
    pub mean_queue_bytes: Option<f64>,
}

/// One chunk's explained timeline — the structured form the renderer
/// (and the test suite) consumes.
#[derive(Clone, Debug)]
pub struct ChunkExplain {
    /// Chunk index.
    pub index: usize,
    /// Quality level fetched.
    pub level: usize,
    /// Body bytes.
    pub size: u64,
    /// Fetch start, seconds.
    pub started_s: f64,
    /// Fetch completion, seconds.
    pub completed_s: f64,
    /// Body bytes that rode WiFi.
    pub wifi_bytes: u64,
    /// Body bytes that rode cellular.
    pub cell_bytes: u64,
    /// Deadline verdict.
    pub deadline: DeadlineOutcome,
    /// Injected faults overlapping the fetch window.
    pub faults: Vec<FaultOverlap>,
    /// Transport- and lifecycle-level trace lines inside the fetch
    /// window (scheduler toggles, subflow failures/revivals, request
    /// timeouts/abandons/resumes/retries, server-fault windows), as
    /// `(virtual seconds, description)`.
    pub transport: Vec<(f64, String)>,
    /// Per-path shared-queue waiting inside the fetch window,
    /// aggregated (the raw per-packet events would flood the timeline).
    pub queue: Vec<QueueWaitSummary>,
    /// Per-path scheduler-pick attribution inside the fetch window:
    /// which paths the packet scheduler chose and the SRTT/queue-depth
    /// inputs it chose them on.
    pub picks: Vec<SchedulerPickSummary>,
    /// Bytes the losing side of an origin hedge race had already
    /// delivered for this chunk when the race resolved — the per-chunk
    /// attribution of the pool's duplicated-work cost.
    pub hedge_wasted: u64,
}

/// Replay the scenario's chosen mode with a ring sink attached and
/// return the mode label, the full report, one [`ChunkExplain`] per
/// fetched chunk (all of them — filtering to `--chunk` happens at
/// render time), and each shared bottleneck's summary.
///
/// A fleet scenario co-simulates the whole fleet with the ring
/// forwarded to exactly one client (`--client`, default 0) and explains
/// that client's timeline, shared-queue waits included: all N clients
/// run — contention is the point — but only client `K`'s events and
/// report are kept. A solo replay has no bottlenecks.
pub fn explain_run(
    scenario: &Scenario,
    opts: &ExplainOptions,
) -> Result<
    (
        String,
        SessionReport,
        Vec<ChunkExplain>,
        Vec<BottleneckSummary>,
    ),
    String,
> {
    let client = match &scenario.fleet {
        None if opts.client.is_some() => {
            return Err("--client requires a 'fleet' key in the scenario".into())
        }
        None => None,
        Some(fleet) => {
            let k = opts.client.unwrap_or(0);
            if k >= fleet.clients {
                return Err(format!(
                    "--client {k} out of range (the fleet has {} clients)",
                    fleet.clients
                ));
            }
            Some(k)
        }
    };
    let (label, cfg) = pick_mode(scenario.build(), opts.mode.as_deref())?;
    let ring = Arc::new(RingSink::new(1 << 20));
    let cfg = cfg.with_tracer(Tracer::new(ring.clone()));
    let (label, report, bottlenecks) = match client {
        None => (label, StreamingSession::run(cfg), Vec::new()),
        Some(k) => {
            let fc = scenario
                .fleet_config(cfg)
                .expect("a fleet scenario")
                .with_trace_client(k);
            let mut fleet_report = mpdash_fleet::run(&fc);
            (
                format!("{label} (client {k}/{})", fc.clients),
                fleet_report.sessions.swap_remove(k),
                fleet_report.bottlenecks,
            )
        }
    };
    let chunks = explain_chunks(scenario, &report, &ring.events());
    Ok((label, report, chunks, bottlenecks))
}

/// Replay and render the timeline as text — the `mpdash explain`
/// subcommand body.
pub fn explain_scenario(scenario: &Scenario, opts: &ExplainOptions) -> Result<String, String> {
    let (label, report, chunks, bottlenecks) = explain_run(scenario, opts)?;
    if let Some(want) = opts.chunk {
        if !chunks.iter().any(|c| c.index == want) {
            return Err(format!(
                "chunk {want} not in this session (chunks 0..{})",
                chunks.len()
            ));
        }
    }
    Ok(render(
        scenario,
        &label,
        &report,
        &chunks,
        &bottlenecks,
        opts.chunk,
    ))
}

fn pick_mode(
    configs: Vec<(String, SessionConfig)>,
    want: Option<&str>,
) -> Result<(String, SessionConfig), String> {
    match want {
        Some(w) => {
            let labels: Vec<String> = configs.iter().map(|(l, _)| l.clone()).collect();
            configs.into_iter().find(|(l, _)| l == w).ok_or_else(|| {
                format!("scenario has no mode labelled '{w}' (available: {labels:?})")
            })
        }
        None => {
            let idx = configs
                .iter()
                .position(|(_, c)| c.mode.is_mpdash())
                .unwrap_or(0);
            Ok(configs.into_iter().nth(idx).expect("validated non-empty"))
        }
    }
}

/// Human name for an origin index: the pool id when the scenario
/// declares one, else the bare index (legacy single-origin runs).
fn origin_name(scenario: &Scenario, origin: usize) -> String {
    scenario
        .base
        .origins
        .as_ref()
        .and_then(|o| o.origins.get(origin))
        .map(|o| o.id.clone())
        .unwrap_or_else(|| format!("#{origin}"))
}

fn fault_overlaps<'a>(
    path: &'static str,
    script: Option<&'a FaultScript>,
    started_s: f64,
    completed_s: f64,
) -> impl Iterator<Item = FaultOverlap> + 'a {
    script
        .into_iter()
        .flat_map(FaultScript::events)
        .filter_map(move |e| {
            let start = e.at.as_secs_f64();
            let end = e.end().as_secs_f64();
            let overlap = completed_s.min(end) - started_s.max(start);
            (overlap > 0.0).then(|| FaultOverlap {
                path,
                kind: e.kind.name(),
                fault_start_s: start,
                fault_end_s: end,
                overlap_s: overlap,
            })
        })
}

/// The timeline line for a transport- or lifecycle-level event of chunk
/// `chunk`'s fetch window; `None` for events the timeline rolls up or
/// omits, and for request events that belong to another chunk.
fn transport_line(scenario: &Scenario, chunk: usize, e: &TraceEvent) -> Option<String> {
    let of_chunk = |c: &usize| *c == chunk;
    Some(match e {
        TraceEvent::SchedulerToggle {
            cell_enabled,
            wifi_estimate_mbps,
            ..
        } => format!(
            "scheduler: cellular {} (wifi estimate {wifi_estimate_mbps:.2} Mbps)",
            if *cell_enabled { "on" } else { "off" },
        ),
        TraceEvent::SubflowFailed { path } => format!("subflow {path} declared failed"),
        TraceEvent::SubflowRevived { path } => format!("subflow {path} revived"),
        TraceEvent::RequestTimeout {
            chunk,
            cause,
            after_s,
        } if of_chunk(chunk) => format!("request timeout ({cause}) after {after_s:.2}s"),
        TraceEvent::RequestAbandoned {
            chunk,
            received,
            size,
        } if of_chunk(chunk) => format!("abandoned mid-body at {received}/{size} B, cancel sent"),
        TraceEvent::RequestResumed {
            chunk,
            from,
            size,
            level,
        } if of_chunk(chunk) => {
            format!("byte-range resume from byte {from} (target {size} B, level {level})")
        }
        TraceEvent::RequestRetried {
            chunk,
            attempt,
            backoff_s,
        } if of_chunk(chunk) => format!("5xx retry #{attempt} after {backoff_s:.2}s backoff"),
        TraceEvent::ServerFaultActivated { kind, until_s } => {
            format!("server fault {kind} active until {until_s:.1}s")
        }
        TraceEvent::ServerFaultCleared { kind } => format!("server fault {kind} cleared"),
        TraceEvent::OriginRouted {
            chunk,
            origin,
            reason,
        } if of_chunk(chunk) => format!(
            "routed to origin {} ({reason})",
            origin_name(scenario, *origin)
        ),
        TraceEvent::OriginHealth {
            origin,
            state,
            failures,
        } => format!(
            "origin {} breaker -> {state} ({failures} consecutive failures)",
            origin_name(scenario, *origin)
        ),
        TraceEvent::Hedge {
            chunk,
            origin,
            hedge_origin,
            winner,
            wasted,
        } if of_chunk(chunk) => match winner {
            None => format!(
                "hedge launched: racing origin {} against stalled {}",
                origin_name(scenario, *hedge_origin),
                origin_name(scenario, *origin),
            ),
            Some(w) => format!(
                "hedge resolved: {w} won ({} vs {}), {wasted} B wasted",
                origin_name(scenario, *origin),
                origin_name(scenario, *hedge_origin),
            ),
        },
        TraceEvent::HedgeLoserSettled { chunk, wasted } if of_chunk(chunk) => {
            format!("hedge loser drained: {wasted} B duplicated")
        }
        TraceEvent::Cache {
            chunk,
            level,
            outcome,
            bytes,
        } if of_chunk(chunk) => match *outcome {
            "hit" => format!("cache hit: level {level} served from the edge ({bytes} B)"),
            "miss" => format!("cache miss: level {level} falls through to an origin"),
            _ => format!("cache insert: level {level} now resident ({bytes} B)"),
        },
        _ => return None,
    })
}

/// One [`ChunkExplain`] per fetched chunk, in one pass over the
/// time-ordered ring: each chunk's fetch window is a slice of it.
fn explain_chunks(
    scenario: &Scenario,
    report: &SessionReport,
    events: &[(SimTime, TraceEvent)],
) -> Vec<ChunkExplain> {
    debug_assert!(
        events.windows(2).all(|w| w[0].0 <= w[1].0),
        "the trace ring is time-ordered"
    );
    let infos: Vec<ChunkInfo> = report.chunks.iter().map(ChunkInfo::from).collect();
    let splits = chunk_path_splits(&report.records, &infos);
    // Hedge-loser waste by chunk index, whenever it was settled:
    // resolved races carry the hedge-win overlap; a primary win's loser
    // settles separately when its cancelled body finishes draining.
    let mut hedge_wasted = vec![0u64; report.chunks.iter().map(|c| c.index + 1).max().unwrap_or(0)];
    for (_, e) in events {
        if let TraceEvent::Hedge {
            chunk,
            winner: Some(_),
            wasted,
            ..
        }
        | TraceEvent::HedgeLoserSettled { chunk, wasted } = e
        {
            if let Some(sum) = hedge_wasted.get_mut(*chunk) {
                *sum += wasted;
            }
        }
    }
    report
        .chunks
        .iter()
        .zip(&splits)
        .map(|(c, split)| {
            let started_s = c.started.as_secs_f64();
            let completed_s = c.completed.as_secs_f64();
            let fetch_s = completed_s - started_s;
            let deadline = match c.deadline {
                None => DeadlineOutcome::Bypassed,
                Some(w) => {
                    let window_s = w.as_secs_f64();
                    if fetch_s <= window_s {
                        DeadlineOutcome::Hit {
                            window_s,
                            margin_s: window_s - fetch_s,
                        }
                    } else {
                        DeadlineOutcome::Missed {
                            window_s,
                            overrun_s: fetch_s - window_s,
                        }
                    }
                }
            };
            let base = &scenario.base;
            let faults = fault_overlaps("wifi", base.wifi.faults.as_ref(), started_s, completed_s)
                .chain(fault_overlaps(
                    "cell",
                    base.cell.faults.as_ref(),
                    started_s,
                    completed_s,
                ))
                .collect();
            // The fetch window, both ends inclusive: an event at an
            // instant two chunks share belongs to both.
            let window = &events[events.partition_point(|(t, _)| *t < c.started)
                ..events.partition_point(|(t, _)| *t <= c.completed)];
            let mut transport = Vec::new();
            // Per-packet shared-queue waits and scheduler decisions
            // inside the window, rolled up per path: (waits, sum, max)
            // and (picks, bytes, srtt sum/count, queue-depth sum/count).
            let mut waits: [(u64, f64, f64); 2] = [(0, 0.0, 0.0); 2];
            let mut pick_agg: [(u64, u64, f64, u64, f64, u64); 2] = Default::default();
            for (t, e) in window {
                match e {
                    TraceEvent::SharedQueueWait { path, waited_s, .. } if *path < waits.len() => {
                        let (n, sum, max) = &mut waits[*path];
                        *n += 1;
                        *sum += waited_s * 1e3;
                        *max = max.max(waited_s * 1e3);
                    }
                    TraceEvent::SchedulerPick {
                        path,
                        len,
                        srtt_ms,
                        queue_bytes,
                    } if *path < pick_agg.len() => {
                        let (n, bytes, srtt_sum, srtt_n, q_sum, q_n) = &mut pick_agg[*path];
                        *n += 1;
                        *bytes += len;
                        if let Some(srtt) = srtt_ms {
                            *srtt_sum += srtt;
                            *srtt_n += 1;
                        }
                        if let Some(q) = queue_bytes {
                            *q_sum += *q as f64;
                            *q_n += 1;
                        }
                    }
                    e => transport
                        .extend(transport_line(scenario, c.index, e).map(|l| (t.as_secs_f64(), l))),
                }
            }
            let queue = waits
                .iter()
                .enumerate()
                .filter(|(_, (n, _, _))| *n > 0)
                .map(|(path, (n, sum, max))| QueueWaitSummary {
                    path,
                    waits: *n,
                    mean_ms: sum / *n as f64,
                    max_ms: *max,
                })
                .collect();
            let picks = pick_agg
                .iter()
                .enumerate()
                .filter(|(_, (n, ..))| *n > 0)
                .map(
                    |(path, (n, bytes, srtt_sum, srtt_n, q_sum, q_n))| SchedulerPickSummary {
                        path,
                        picks: *n,
                        bytes: *bytes,
                        mean_srtt_ms: (*srtt_n > 0).then(|| srtt_sum / *srtt_n as f64),
                        mean_queue_bytes: (*q_n > 0).then(|| q_sum / *q_n as f64),
                    },
                )
                .collect();
            ChunkExplain {
                index: c.index,
                level: c.level,
                size: c.size,
                started_s,
                completed_s,
                wifi_bytes: split.wifi_bytes,
                cell_bytes: split.cell_bytes,
                deadline,
                faults,
                transport,
                queue,
                picks,
                hedge_wasted: hedge_wasted[c.index],
            }
        })
        .collect()
}

fn render(
    scenario: &Scenario,
    label: &str,
    report: &SessionReport,
    chunks: &[ChunkExplain],
    bottlenecks: &[BottleneckSummary],
    only: Option<usize>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario: {}", scenario.name);
    let stats = report.scheduler_stats;
    let _ = writeln!(
        out,
        "mode: {label} | duration {:.1}s | stalls {} | mean bitrate {:.2} Mbps",
        report.duration.as_secs_f64(),
        report.qoe_all.stalls,
        report.qoe_all.mean_bitrate_mbps,
    );
    let _ = writeln!(
        out,
        "scheduler: {} toggles, {} deadlines completed, {} missed",
        stats.toggles, stats.completed_transfers, stats.missed_deadlines,
    );
    let lc = report.lifecycle;
    let _ = writeln!(
        out,
        "lifecycle: {} timeouts, {} abandoned, {} resumed, {} retried, {:.1} KB wasted",
        lc.timeouts,
        lc.abandoned,
        lc.resumed,
        lc.retried,
        lc.wasted_bytes as f64 / 1e3,
    );
    let og = report.origin;
    let _ = writeln!(
        out,
        "origins: {} routed, {} failovers, {} breaker opens, {} hedges \
         ({} primary / {} hedge wins), cache {} hits / {} misses / {} inserts",
        og.routed,
        og.failovers,
        og.breaker_opens,
        og.hedges,
        og.hedge_wins_primary,
        og.hedge_wins_hedge,
        og.cache_hits,
        og.cache_misses,
        og.cache_insertions,
    );
    // Hedge-loser waste, attributed chunk by chunk: the duplicated
    // bytes the pool paid for its tail-latency insurance.
    let total_hedge_wasted: u64 = chunks.iter().map(|c| c.hedge_wasted).sum();
    if total_hedge_wasted > 0 {
        let per_chunk: Vec<String> = chunks
            .iter()
            .filter(|c| c.hedge_wasted > 0)
            .map(|c| format!("chunk {}: {:.1} KB", c.index, c.hedge_wasted as f64 / 1e3))
            .collect();
        let _ = writeln!(
            out,
            "origins: hedge losers wasted {:.1} KB ({})",
            total_hedge_wasted as f64 / 1e3,
            per_chunk.join(", "),
        );
    }
    // Fleet replays: attribute each shared bottleneck's losses by
    // reason — a drop-tail overflow and an AQM early drop call for
    // opposite remedies (more buffer vs an earlier controller).
    for (i, b) in bottlenecks.iter().enumerate() {
        let s = &b.stats;
        let mut line = format!(
            "bottleneck {i} ({}): {} dropped ({} overflow, {} aqm-early)",
            b.discipline, s.dropped_packets, s.dropped_overflow_packets, s.dropped_aqm_packets,
        );
        if s.marked_packets > 0 {
            let _ = write!(line, ", {} ecn-marked", s.marked_packets);
        }
        let _ = writeln!(out, "{line}");
    }
    let base = &scenario.base;
    let n_faults = [&base.wifi.faults, &base.cell.faults]
        .into_iter()
        .flatten()
        .map(|s| s.events().len())
        .sum::<usize>()
        + base.server_faults.events().len();
    let _ = writeln!(out, "injected faults: {n_faults}");
    for c in chunks {
        if only.is_some_and(|i| i != c.index) {
            continue;
        }
        let total = (c.wifi_bytes + c.cell_bytes).max(1);
        let _ = writeln!(
            out,
            "chunk {:>3}: level {}, {:.2} MB, fetched {:.2}s -> {:.2}s ({:.2}s)",
            c.index,
            c.level,
            c.size as f64 / 1e6,
            c.started_s,
            c.completed_s,
            c.completed_s - c.started_s,
        );
        let _ = writeln!(
            out,
            "    paths: wifi {:.2} MB ({:.0}%), cell {:.2} MB ({:.0}%)",
            c.wifi_bytes as f64 / 1e6,
            c.wifi_bytes as f64 * 100.0 / total as f64,
            c.cell_bytes as f64 / 1e6,
            c.cell_bytes as f64 * 100.0 / total as f64,
        );
        match c.deadline {
            DeadlineOutcome::Bypassed => {
                let _ = writeln!(out, "    deadline: bypassed (no window granted)");
            }
            DeadlineOutcome::Hit { window_s, margin_s } => {
                let _ = writeln!(
                    out,
                    "    deadline: window {window_s:.2}s, margin +{margin_s:.2}s (hit)"
                );
            }
            DeadlineOutcome::Missed {
                window_s,
                overrun_s,
            } => {
                let _ = writeln!(
                    out,
                    "    deadline: window {window_s:.2}s, MISSED by {overrun_s:.2}s"
                );
            }
        }
        for f in &c.faults {
            let _ = writeln!(
                out,
                "    fault: {} {} active {:.1}s-{:.1}s, overlaps fetch for {:.2}s",
                f.path, f.kind, f.fault_start_s, f.fault_end_s, f.overlap_s,
            );
        }
        for p in &c.picks {
            let srtt = match p.mean_srtt_ms {
                Some(ms) => format!("srtt {ms:.1} ms"),
                None => "srtt unsampled".to_string(),
            };
            let queue = match p.mean_queue_bytes {
                Some(b) => format!("shared queue {:.1} KB", b / 1e3),
                None => "no shared queue".to_string(),
            };
            let _ = writeln!(
                out,
                "    sched pick: {} {} segs ({:.2} MB), mean inputs: {srtt}, {queue}",
                if p.path == 0 { "wifi" } else { "cell" },
                p.picks,
                p.bytes as f64 / 1e6,
            );
        }
        for q in &c.queue {
            let _ = writeln!(
                out,
                "    shared queue: {} {} packets waited, mean {:.1} ms, max {:.1} ms",
                if q.path == 0 { "wifi" } else { "cell" },
                q.waits,
                q.mean_ms,
                q.max_ms,
            );
        }
        for (t, line) in &c.transport {
            let _ = writeln!(out, "    @{t:.2}s {line}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::SimDuration;

    /// A tight session built to miss deadlines inside the injected WiFi
    /// disassociation: cellular is far too slow to hold the window alone.
    const FAULTED: &str = r#"{
        "name": "forced-miss",
        "video": {"custom": {"levels_mbps": [0.8, 1.6], "chunk_secs": 2, "n_chunks": 30}},
        "wifi": {"constant": 4.0},
        "cell": {"constant": 0.25},
        "abr": "festive",
        "buffer_secs": 8,
        "modes": ["vanilla", "mpdash_rate"],
        "wifi_faults": [
            {"disassociation": {"at_s": 14, "secs": 20, "reassoc_s": 2}}
        ]
    }"#;

    /// The origin freezes one response mid-body for 30 s; the
    /// deadline-aware lifecycle must cancel and resume well before that.
    const SERVER_FAULTED: &str = r#"{
        "name": "stalled-origin",
        "video": {"custom": {"levels_mbps": [0.58, 1.01, 1.47, 2.41, 3.94], "chunk_secs": 4, "n_chunks": 20}},
        "wifi": {"constant": 4.5},
        "cell": {"constant": 4.0},
        "abr": "festive",
        "buffer_secs": 10,
        "modes": ["mpdash_rate"],
        "server_faults": [
            {"stalled_body": {"at_s": 8, "secs": 6, "stall_s": 30, "after_fraction": 0.5}}
        ],
        "lifecycle": "deadline_aware"
    }"#;

    #[test]
    fn timeline_shows_timeout_abandon_resume_for_a_stalled_body() {
        let sc = Scenario::from_json(SERVER_FAULTED).unwrap();
        let (_, report, _, _) = explain_run(&sc, &ExplainOptions::default()).unwrap();
        assert!(
            report.lifecycle.abandoned >= 1,
            "the frozen body must force an abandonment: {:?}",
            report.lifecycle
        );
        let text = explain_scenario(&sc, &ExplainOptions::default()).unwrap();
        assert!(text.contains("request timeout (stall)"), "{text}");
        assert!(text.contains("abandoned mid-body"), "{text}");
        assert!(text.contains("byte-range resume from byte"), "{text}");
        assert!(text.contains("server fault stalled_body active"), "{text}");
        assert!(text.contains("lifecycle: "), "{text}");
    }

    /// The primary origin blackholes mid-run; the pool's breakers and
    /// the hedge policy steer traffic to the named backup, and an edge
    /// cache fronts everything.
    const MULTI_ORIGIN: &str = r#"{
        "name": "dark-primary",
        "video": {"custom": {"levels_mbps": [0.58, 1.01, 1.47, 2.41, 3.94], "chunk_secs": 4, "n_chunks": 25}},
        "wifi": {"constant": 4.5},
        "cell": {"constant": 4.0},
        "abr": "festive",
        "buffer_secs": 10,
        "modes": ["mpdash_rate"],
        "lifecycle": "deadline_aware",
        "origins": {
            "hedge_quantile": 0.5,
            "pool": [
                {"id": "primary", "faults": [{"blackhole": {"at_s": 20, "secs": 60}}]},
                {"id": "backup", "rtt_penalty_ms": 20}
            ]
        },
        "cache": {"capacity_mb": 64}
    }"#;

    #[test]
    fn timeline_attributes_origin_routing_hedges_and_cache() {
        let sc = Scenario::from_json(MULTI_ORIGIN).unwrap();
        let (_, report, chunks, _) = explain_run(&sc, &ExplainOptions::default()).unwrap();
        assert!(
            report.origin.breaker_opens >= 1,
            "the blackhole must trip the primary's breaker: {:?}",
            report.origin
        );
        let text = explain_scenario(&sc, &ExplainOptions::default()).unwrap();
        // Every chunk names the origin that served it, by pool id.
        assert!(
            text.contains("routed to origin primary (initial)"),
            "{text}"
        );
        assert!(text.contains("breaker -> open"), "{text}");
        assert!(text.contains("routed to origin backup"), "{text}");
        // A cold cache misses, then completed chunks populate it.
        assert!(text.contains("cache miss: level"), "{text}");
        assert!(text.contains("cache insert: level"), "{text}");
        // The header rolls up the pool counters.
        assert!(text.contains("origins: "), "{text}");
        assert!(text.contains("breaker opens"), "{text}");
        // Hedge-loser waste is attributed per chunk whenever a resolved
        // race left duplicated bytes behind.
        let wasted: u64 = chunks.iter().map(|c| c.hedge_wasted).sum();
        if wasted > 0 {
            assert!(text.contains("hedge losers wasted"), "{text}");
            let attributed = chunks
                .iter()
                .find(|c| c.hedge_wasted > 0)
                .expect("nonzero total implies a nonzero chunk");
            assert!(
                text.contains(&format!("chunk {}:", attributed.index)),
                "{text}"
            );
        } else {
            assert!(!text.contains("hedge losers wasted"), "{text}");
        }
    }

    /// The primary stalls briefly mid-body: hedges launch, and whichever
    /// side loses has already delivered duplicate bytes — the waste the
    /// origins summary must attribute chunk by chunk.
    const HEDGED: &str = r#"{
        "name": "hedged-primary",
        "video": {"custom": {"levels_mbps": [0.58, 1.01, 1.47, 2.41, 3.94], "chunk_secs": 4, "n_chunks": 25}},
        "wifi": {"constant": 4.5},
        "cell": {"constant": 4.0},
        "abr": "festive",
        "buffer_secs": 10,
        "modes": ["mpdash_rate"],
        "lifecycle": "wait_forever",
        "origins": {
            "hedge_quantile": 0.5,
            "pool": [
                {"id": "primary", "faults": [{"stalled_body": {"at_s": 15, "secs": 40, "stall_s": 3, "after_fraction": 0.5}}]},
                {"id": "backup", "rtt_penalty_ms": 20}
            ]
        }
    }"#;

    #[test]
    fn attributes_hedge_loser_waste_per_chunk() {
        let sc = Scenario::from_json(HEDGED).unwrap();
        let (_, report, chunks, _) = explain_run(&sc, &ExplainOptions::default()).unwrap();
        assert!(report.origin.hedges >= 1, "{:?}", report.origin);
        let wasted: u64 = chunks.iter().map(|c| c.hedge_wasted).sum();
        assert!(
            wasted > 0,
            "a resolved race with a recovering loser must leave duplicate bytes"
        );
        assert!(
            wasted <= report.lifecycle.wasted_bytes,
            "per-chunk attribution cannot exceed the session's waste ledger \
             ({wasted} > {})",
            report.lifecycle.wasted_bytes
        );
        let text = explain_scenario(&sc, &ExplainOptions::default()).unwrap();
        assert!(text.contains("hedge losers wasted"), "{text}");
        let attributed = chunks.iter().find(|c| c.hedge_wasted > 0).unwrap();
        assert!(
            text.contains(&format!(
                "chunk {}: {:.1} KB",
                attributed.index,
                attributed.hedge_wasted as f64 / 1e3
            )),
            "{text}"
        );
    }

    #[test]
    fn defaults_to_the_first_mpdash_mode() {
        let sc = Scenario::from_json(FAULTED).unwrap();
        let configs = sc.build();
        let (label, cfg) = pick_mode(configs, None).unwrap();
        assert_eq!(label, "Rate");
        assert!(cfg.mode.is_mpdash());
        let err = pick_mode(sc.build(), Some("Duration")).unwrap_err();
        assert!(err.contains("no mode labelled"), "{err}");
    }

    #[test]
    fn attributes_a_forced_deadline_miss_to_the_fault_window() {
        let sc = Scenario::from_json(FAULTED).unwrap();
        let (label, report, chunks, _) = explain_run(&sc, &ExplainOptions::default()).unwrap();
        assert_eq!(label, "Rate");
        assert!(
            report.scheduler_stats.missed_deadlines > 0,
            "the outage must force at least one deadline miss"
        );
        let miss = chunks
            .iter()
            .find(|c| matches!(c.deadline, DeadlineOutcome::Missed { .. }))
            .expect("a missed chunk appears in the timeline");
        assert!(
            miss.faults
                .iter()
                .any(|f| f.path == "wifi" && f.kind == "disassociation" && f.overlap_s > 0.0),
            "the missed chunk's fetch window names the injected fault: {:?}",
            miss.faults
        );
        // Chunks fetched entirely before the fault carry no overlap.
        let clean = chunks
            .iter()
            .find(|c| c.completed_s < 14.0)
            .expect("an early chunk");
        assert!(clean.faults.is_empty());
    }

    /// A fetch window is closed at both ends: an event at the instant one
    /// chunk completes and the next starts belongs to both, and one a
    /// nanosecond past a window that nothing follows belongs to none.
    #[test]
    fn an_event_at_a_shared_chunk_boundary_lands_in_both_chunks() {
        let sc = Scenario::from_json(FAULTED).unwrap();
        let (_, report, ..) = explain_run(&sc, &ExplainOptions::default()).unwrap();
        let pairs = || report.chunks.windows(2);
        let shared = pairs()
            .find(|w| w[0].completed == w[1].started)
            .expect("back-to-back fetches share an instant");
        let gap = pairs()
            .find(|w| w[0].completed + SimDuration::from_nanos(1) < w[1].started)
            .expect("a full buffer leaves a gap between fetches");
        let mut events = vec![
            (shared[0].completed, TraceEvent::SubflowFailed { path: 0 }),
            (
                gap[0].completed + SimDuration::from_nanos(1),
                TraceEvent::SubflowRevived { path: 0 },
            ),
        ];
        events.sort_by_key(|(t, _)| *t);
        let chunks = explain_chunks(&sc, &report, &events);
        let seen: Vec<(usize, &str)> = chunks
            .iter()
            .flat_map(|c| c.transport.iter().map(|(_, line)| (c.index, line.as_str())))
            .collect();
        assert_eq!(
            seen,
            [
                (shared[0].index, "subflow 0 declared failed"),
                (shared[1].index, "subflow 0 declared failed"),
            ]
        );
    }

    #[test]
    fn rendered_timeline_names_paths_margin_and_fault() {
        let sc = Scenario::from_json(FAULTED).unwrap();
        let text = explain_scenario(&sc, &ExplainOptions::default()).unwrap();
        assert!(text.contains("paths: wifi"), "{text}");
        assert!(text.contains("deadline: window"), "{text}");
        assert!(text.contains("MISSED by"), "{text}");
        assert!(text.contains("wifi disassociation active"), "{text}");
        // Private links: pick attribution shows SRTT but no queue signal.
        assert!(text.contains("sched pick: wifi"), "{text}");
        assert!(text.contains("no shared queue"), "{text}");
        // --chunk filters to one chunk block.
        let one = explain_scenario(
            &sc,
            &ExplainOptions {
                chunk: Some(3),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(one.matches("chunk ").count(), 1, "{one}");
        let err = explain_scenario(
            &sc,
            &ExplainOptions {
                chunk: Some(9999),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("not in this session"), "{err}");
    }

    /// Four clients on a deliberately scarce shared AP: the replayed
    /// client's timeline must surface the time its packets spent queued
    /// behind the other three.
    const FLEET: &str = r#"{
        "name": "fleet-explain",
        "video": {"custom": {"levels_mbps": [0.58, 1.01, 1.47], "chunk_secs": 4, "n_chunks": 8}},
        "wifi": {"constant": 50.0},
        "cell": {"constant": 30.0},
        "abr": "festive",
        "buffer_secs": 20,
        "modes": ["vanilla", "mpdash_rate"],
        "fleet": {
            "clients": 4,
            "stagger_s": 0.5,
            "shared": [
                {"rate_mbps": 3.0, "discipline": "fq", "paths": ["wifi"]},
                {"rate_mbps": 2.0, "discipline": "fifo", "paths": ["cell"]}
            ]
        }
    }"#;

    #[test]
    fn fleet_replay_explains_one_client_with_shared_queue_waits() {
        let sc = Scenario::from_json(FLEET).unwrap();
        let (label, report, chunks, _) = explain_run(
            &sc,
            &ExplainOptions {
                client: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(label, "Rate (client 2/4)");
        assert_eq!(chunks.len(), 8, "every chunk of client 2 is explained");
        assert_eq!(report.chunks.len(), 8);
        assert!(
            chunks.iter().any(|c| !c.queue.is_empty()),
            "a contended fleet must show shared-queue waiting"
        );
        let text = explain_scenario(
            &sc,
            &ExplainOptions {
                client: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(text.contains("client 2/4"), "{text}");
        assert!(text.contains("shared queue: "), "{text}");
        assert!(text.contains("packets waited"), "{text}");
        // Each bottleneck's losses are attributed by reason.
        assert!(text.contains("bottleneck 0 (fq):"), "{text}");
        assert!(text.contains("overflow"), "{text}");
        assert!(text.contains("aqm-early"), "{text}");
        // On a shared AP the pick attribution carries the queue-depth
        // input the scheduler saw.
        let picked = chunks.iter().flat_map(|c| c.picks.iter());
        assert!(
            picked.clone().any(|p| p.mean_queue_bytes.is_some()),
            "shared-bottleneck paths expose queue depth at pick time"
        );
        assert!(picked.clone().any(|p| p.mean_srtt_ms.is_some()));
        assert!(text.contains("sched pick: "), "{text}");

        // A fleet scenario with no --client defaults to client 0.
        let (label, _, _, _) = explain_run(&sc, &ExplainOptions::default()).unwrap();
        assert_eq!(label, "Rate (client 0/4)");

        // Out-of-range clients and non-fleet documents are named errors.
        let err = explain_run(
            &sc,
            &ExplainOptions {
                client: Some(99),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let plain = Scenario::from_json(FAULTED).unwrap();
        let err = explain_run(
            &plain,
            &ExplainOptions {
                client: Some(0),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("requires a 'fleet' key"), "{err}");
    }
}
