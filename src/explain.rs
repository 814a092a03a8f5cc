//! `mpdash explain` — replay one scenario mode with tracing enabled and
//! render a per-chunk timeline: the fetch window, the per-path byte
//! split, the deadline margin, and any injected fault overlapping the
//! fetch.
//!
//! The replay is an ordinary deterministic session run — the attached
//! ring sink only observes, so every number printed here is exactly the
//! number an untraced run produces. Each chunk's block is written
//! straight from its record and the slice of the ring inside its fetch.

use crate::scenario::Scenario;
use mpdash_fleet::BottleneckSummary;
use mpdash_session::{
    ChunkRecord, OriginSpec, RingSink, SessionConfig, SessionReport, StreamingSession, TraceEvent,
    Tracer,
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

/// One fault window the replayed config injects.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct InjectedFault {
    /// Where it strikes: `wifi`, `cell`, or an origin by its pool id
    /// (`origin` for the single implicit one).
    pub source: String,
    /// Fault family name (`rate_collapse`, `blackhole`, ...).
    pub kind: &'static str,
    /// When the fault begins, seconds.
    pub start_s: f64,
    /// When it stops affecting its source (reassociation included).
    pub end_s: f64,
    /// The pool origin's dense index; `None` for a link or the implicit
    /// origin, which every request reaches.
    pub pool_origin: Option<usize>,
}

/// One explained replay: what [`render`] reads.
#[derive(Debug)]
pub(crate) struct Replay {
    /// The mode label (with the client, for a fleet).
    pub label: String,
    /// The replayed session's full report; one block per chunk record.
    pub report: SessionReport,
    /// Each shared bottleneck's summary (none for a solo replay).
    pub bottlenecks: Vec<BottleneckSummary>,
    /// Every fault window the replayed config injects.
    pub faults: Vec<InjectedFault>,
    /// The trace ring's events, time-ordered.
    pub events: Vec<(SimTime, TraceEvent)>,
}

/// Replay the scenario's chosen mode with a ring sink attached.
///
/// A fleet scenario co-simulates the whole fleet with the ring
/// forwarded to exactly one client (`--client`, default 0) and explains
/// that client's timeline, shared-queue waits and fault domains
/// included: all N clients run — contention is the point — but only
/// client `K`'s events, config and report are kept.
pub(crate) fn explain_run(scenario: &Scenario, opts: &ExplainOptions) -> Result<Replay, String> {
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
    let (label, report, bottlenecks, faults) = match client {
        None => {
            let faults = injected_faults(&cfg);
            (label, StreamingSession::run(cfg), Vec::new(), faults)
        }
        Some(k) => {
            let fc = scenario
                .fleet_config(cfg)
                .expect("a fleet scenario")
                .with_trace_client(k);
            let faults = injected_faults(&fc.client_config(k).expect("k is in range"));
            let mut fleet_report = mpdash_fleet::run(&fc);
            (
                format!("{label} (client {k}/{})", fc.clients),
                fleet_report.sessions.swap_remove(k),
                fleet_report.bottlenecks,
                faults,
            )
        }
    };
    Ok(Replay {
        label,
        report,
        bottlenecks,
        faults,
        events: ring.events(),
    })
}

/// Replay and render the timeline as text — the `mpdash explain`
/// subcommand body.
pub fn explain_scenario(scenario: &Scenario, opts: &ExplainOptions) -> Result<String, String> {
    let replay = explain_run(scenario, opts)?;
    if let Some(want) = opts.chunk {
        let chunks = &replay.report.chunks;
        if !chunks.iter().any(|c| c.index == want) {
            return Err(format!(
                "chunk {want} not in this session (chunks 0..{})",
                chunks.len()
            ));
        }
    }
    Ok(render(scenario, &replay, opts.chunk))
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

/// Every fault window `cfg` injects: its two links' scripts, then each
/// origin's — the pool's, by id, or the single implicit origin's, as the
/// session serves them.
fn injected_faults(cfg: &SessionConfig) -> Vec<InjectedFault> {
    let fault = |source: &str, pool_origin, kind, at: SimTime, end: SimTime| InjectedFault {
        source: source.to_string(),
        kind,
        start_s: at.as_secs_f64(),
        end_s: end.as_secs_f64(),
        pool_origin,
    };
    let links = [("wifi", &cfg.wifi.faults), ("cell", &cfg.cell.faults)];
    let mut faults: Vec<_> = (links.iter())
        .flat_map(|(path, script)| script.windows().iter().map(|w| (*path, w)))
        .map(|(path, w)| fault(path, None, w.kind.name(), w.at, w.end()))
        .collect();
    let implicit = [OriginSpec::new("origin").with_faults(cfg.server_faults.clone())];
    let origins = cfg
        .origins
        .as_ref()
        .map_or(&implicit[..], |pool| &pool.origins);
    for (index, origin) in origins.iter().enumerate() {
        let pool_origin = cfg.origins.is_some().then_some(index);
        for w in origin.faults.windows() {
            faults.push(fault(&origin.id, pool_origin, w.kind.name(), w.at, w.end()));
        }
    }
    faults
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
        TraceEvent::ServerFaultActivated { fault, until_s } => {
            format!("server fault {fault} active until {until_s:.1}s")
        }
        TraceEvent::ServerFaultCleared { fault } => format!("server fault {fault} cleared"),
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

/// Hedge-loser waste by chunk index, whenever it was settled: resolved
/// races carry the hedge-win overlap; a primary win's loser settles
/// separately when its cancelled body finishes draining.
fn hedge_wasted(report: &SessionReport, events: &[(SimTime, TraceEvent)]) -> Vec<u64> {
    let mut wasted = vec![0u64; report.chunks.iter().map(|c| c.index + 1).max().unwrap_or(0)];
    for (_, e) in events {
        if let TraceEvent::Hedge {
            chunk,
            winner: Some(_),
            wasted: w,
            ..
        }
        | TraceEvent::HedgeLoserSettled { chunk, wasted: w } = e
        {
            if let Some(sum) = wasted.get_mut(*chunk) {
                *sum += w;
            }
        }
    }
    wasted
}

/// Chunk `c`'s block: fetch, path split and deadline from its record,
/// then what the ring saw inside its fetch window — the overlapping
/// faults, the per-path scheduler picks and shared-queue waits rolled
/// up, and the transport and lifecycle lines in time order.
fn write_chunk(
    out: &mut String,
    scenario: &Scenario,
    injected: &[InjectedFault],
    c: &ChunkRecord,
    events: &[(SimTime, TraceEvent)],
) {
    const PATHS: [&str; 2] = ["wifi", "cell"];
    let (started_s, completed_s) = (c.started.as_secs_f64(), c.completed.as_secs_f64());
    let fetch_s = completed_s - started_s;
    let [wifi, cell] = c.overlap_bytes;
    let total = (wifi + cell).max(1) as f64;
    let _ = writeln!(
        out,
        "chunk {:>3}: level {}, {:.2} MB, fetched {started_s:.2}s -> {completed_s:.2}s ({fetch_s:.2}s)",
        c.index,
        c.level,
        c.size as f64 / 1e6,
    );
    let _ = writeln!(
        out,
        "    paths: wifi {:.2} MB ({:.0}%), cell {:.2} MB ({:.0}%)",
        wifi as f64 / 1e6,
        wifi as f64 * 100.0 / total,
        cell as f64 / 1e6,
        cell as f64 * 100.0 / total,
    );
    let _ = match c.deadline.map(|w| w.as_secs_f64()) {
        None => writeln!(out, "    deadline: bypassed (no window granted)"),
        Some(window_s) if fetch_s <= window_s => writeln!(
            out,
            "    deadline: window {window_s:.2}s, margin +{:.2}s (hit)",
            window_s - fetch_s
        ),
        Some(window_s) => writeln!(
            out,
            "    deadline: window {window_s:.2}s, MISSED by {:.2}s",
            fetch_s - window_s
        ),
    };
    // The fetch window, both ends inclusive: an event at an instant two
    // chunks share belongs to both.
    let window = &events[events.partition_point(|(t, _)| *t < c.started)
        ..events.partition_point(|(t, _)| *t <= c.completed)];
    // A pool origin's fault strikes a chunk only if one of the chunk's
    // requests was routed there.
    let reaches = |f: &&InjectedFault| {
        f.pool_origin.is_none_or(|pool_origin| {
            window.iter().any(|(_, e)| {
                matches!(e, TraceEvent::OriginRouted { chunk, origin, .. }
                    if *chunk == c.index && *origin == pool_origin)
            })
        })
    };
    for f in injected.iter().filter(reaches) {
        let overlap_s = completed_s.min(f.end_s) - started_s.max(f.start_s);
        if overlap_s > 0.0 {
            let _ = writeln!(
                out,
                "    fault: {} {} active {:.1}s-{:.1}s, overlaps fetch for {overlap_s:.2}s",
                f.source, f.kind, f.start_s, f.end_s,
            );
        }
    }
    // Per-packet scheduler decisions and shared-queue waits, rolled up
    // per path (the raw events would flood the timeline): (picks, bytes,
    // srtt sum/count, queue-depth sum/count) and (waits, sum, max).
    let mut picks: [(u64, u64, f64, u64, f64, u64); 2] = Default::default();
    let mut waits: [(u64, f64, f64); 2] = [(0, 0.0, 0.0); 2];
    for (_, e) in window {
        match e {
            TraceEvent::SchedulerPick {
                path,
                len,
                srtt_ms,
                queue_bytes,
            } if *path < picks.len() => {
                let (n, bytes, srtt_sum, srtt_n, q_sum, q_n) = &mut picks[*path];
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
            TraceEvent::SharedQueueWait { path, waited_s, .. } if *path < waits.len() => {
                let (n, sum, max) = &mut waits[*path];
                *n += 1;
                *sum += waited_s * 1e3;
                *max = max.max(waited_s * 1e3);
            }
            _ => {}
        }
    }
    for (path, &(n, bytes, srtt_sum, srtt_n, q_sum, q_n)) in picks.iter().enumerate() {
        if n == 0 {
            continue;
        }
        // SRTT is unsampled until the path's first RTT sample; a private
        // link exposes no queue depth.
        let srtt = match srtt_n {
            0 => "srtt unsampled".to_string(),
            k => format!("srtt {:.1} ms", srtt_sum / k as f64),
        };
        let queue = match q_n {
            0 => "no shared queue".to_string(),
            k => format!("shared queue {:.1} KB", q_sum / k as f64 / 1e3),
        };
        let _ = writeln!(
            out,
            "    sched pick: {} {n} segs ({:.2} MB), mean inputs: {srtt}, {queue}",
            PATHS[path],
            bytes as f64 / 1e6,
        );
    }
    for (path, &(n, sum, max)) in waits.iter().enumerate() {
        if n > 0 {
            let _ = writeln!(
                out,
                "    shared queue: {} {n} packets waited, mean {:.1} ms, max {max:.1} ms",
                PATHS[path],
                sum / n as f64,
            );
        }
    }
    for (t, e) in window {
        if let Some(line) = transport_line(scenario, c.index, e) {
            let _ = writeln!(out, "    @{:.2}s {line}", t.as_secs_f64());
        }
    }
}

/// The whole report: the run's header, then one block per chunk (only
/// chunk `only`'s when set).
fn render(scenario: &Scenario, replay: &Replay, only: Option<usize>) -> String {
    let Replay {
        label,
        report,
        bottlenecks,
        faults,
        events,
    } = replay;
    debug_assert!(
        events.windows(2).all(|w| w[0].0 <= w[1].0),
        "the trace ring is time-ordered"
    );
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
    let wasted = hedge_wasted(report, events);
    let wasted: Vec<_> = (report.chunks.iter())
        .map(|c| (c.index, wasted[c.index]))
        .filter(|&(_, w)| w > 0)
        .collect();
    if !wasted.is_empty() {
        let per_chunk: Vec<String> = (wasted.iter())
            .map(|(i, w)| format!("chunk {i}: {:.1} KB", *w as f64 / 1e3))
            .collect();
        let _ = writeln!(
            out,
            "origins: hedge losers wasted {:.1} KB ({})",
            wasted.iter().map(|(_, w)| w).sum::<u64>() as f64 / 1e3,
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
    let _ = writeln!(out, "injected faults: {}", faults.len());
    for c in &report.chunks {
        if only.is_none_or(|i| i == c.index) {
            write_chunk(&mut out, scenario, faults, c, events);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::SimDuration;

    /// Each chunk record beside its rendered block: the chunk's header
    /// line and the indented lines under it.
    fn chunk_blocks<'a>(
        report: &'a SessionReport,
        text: &'a str,
    ) -> Vec<(&'a ChunkRecord, &'a str)> {
        let mut starts: Vec<usize> = text.match_indices("\nchunk ").map(|(i, _)| i + 1).collect();
        starts.push(text.len());
        assert_eq!(starts.len(), report.chunks.len() + 1, "{text}");
        let blocks = starts.windows(2).map(|w| &text[w[0]..w[1]]);
        let pairs: Vec<_> = report.chunks.iter().zip(blocks).collect();
        for (c, block) in &pairs {
            assert!(
                block.starts_with(&format!("chunk {:>3}:", c.index)),
                "{block}"
            );
        }
        pairs
    }

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
        let replay = explain_run(&sc, &ExplainOptions::default()).unwrap();
        let lifecycle = replay.report.lifecycle;
        assert!(
            lifecycle.abandoned >= 1,
            "the frozen body must force an abandonment: {lifecycle:?}"
        );
        let text = render(&sc, &replay, None);
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
        let replay = explain_run(&sc, &ExplainOptions::default()).unwrap();
        let report = &replay.report;
        assert!(
            report.origin.breaker_opens >= 1,
            "the blackhole must trip the primary's breaker: {:?}",
            report.origin
        );
        let text = render(&sc, &replay, None);
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
        // The pool primary's blackhole is an injected fault, named by its
        // pool id on the chunks fetched under it.
        assert!(text.contains("injected faults: 1\n"), "{text}");
        assert!(
            text.contains("fault: primary blackhole active 20.0s-80.0s"),
            "{text}"
        );
        // ...but only on chunks with a request routed to the primary: a
        // chunk only the backup served fetched clear of the blackhole.
        let routed = |block: &str, id: &str| {
            let line = format!("routed to origin {id} (");
            (block.lines())
                .filter_map(|l| l.strip_prefix("    @")?.split_once("s "))
                .any(|(_, l)| l.starts_with(&line))
        };
        let struck = |block: &str| block.contains("\n    fault: primary ");
        let in_blackhole =
            |c: &ChunkRecord| c.started.as_secs_f64() < 80.0 && c.completed.as_secs_f64() > 20.0;
        let (to_primary, backup_only): (Vec<_>, Vec<_>) = (chunk_blocks(report, &text).into_iter())
            .filter(|(c, _)| in_blackhole(c))
            .filter(|(_, b)| routed(b, "primary") || routed(b, "backup"))
            .partition(|(_, b)| routed(b, "primary"));
        assert!(!to_primary.is_empty() && !backup_only.is_empty(), "{text}");
        assert!(to_primary.iter().all(|(_, b)| struck(b)), "{text}");
        assert!(backup_only.iter().all(|(_, b)| !struck(b)), "{text}");
        // Hedge-loser waste is attributed per chunk whenever a resolved
        // race left duplicated bytes behind.
        let by_chunk = hedge_wasted(report, &replay.events);
        let wasted: u64 = report.chunks.iter().map(|c| by_chunk[c.index]).sum();
        if wasted > 0 {
            assert!(text.contains("hedge losers wasted"), "{text}");
            let attributed = (report.chunks.iter())
                .find(|c| by_chunk[c.index] > 0)
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
        let replay = explain_run(&sc, &ExplainOptions::default()).unwrap();
        let report = &replay.report;
        assert!(report.origin.hedges >= 1, "{:?}", report.origin);
        let by_chunk = hedge_wasted(report, &replay.events);
        let wasted: u64 = report.chunks.iter().map(|c| by_chunk[c.index]).sum();
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
        let text = render(&sc, &replay, None);
        assert!(text.contains("hedge losers wasted"), "{text}");
        let attributed = report
            .chunks
            .iter()
            .find(|c| by_chunk[c.index] > 0)
            .unwrap();
        assert!(
            text.contains(&format!(
                "chunk {}: {:.1} KB",
                attributed.index,
                by_chunk[attributed.index] as f64 / 1e3
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
        let replay = explain_run(&sc, &ExplainOptions::default()).unwrap();
        assert_eq!(replay.label, "Rate");
        assert!(
            replay.report.scheduler_stats.missed_deadlines > 0,
            "the outage must force at least one deadline miss"
        );
        let text = render(&sc, &replay, None);
        let blocks = chunk_blocks(&replay.report, &text);
        let (_, miss) = (blocks.iter())
            .find(|(_, b)| b.contains("\n    deadline: window ") && b.contains(", MISSED by "))
            .expect("a missed chunk appears in the timeline");
        let overlap_s = |l: &str| -> f64 {
            let (_, s) = l.split_once("overlaps fetch for ").expect("an overlap");
            s.trim_end_matches('s').parse().expect("seconds")
        };
        assert!(
            (miss.lines())
                .filter_map(|l| l.strip_prefix("    fault: wifi disassociation active "))
                .any(|l| overlap_s(l) > 0.0),
            "the missed chunk's fetch window names the injected fault: {miss}"
        );
        // Chunks fetched entirely before the fault carry no overlap.
        let (_, clean) = (blocks.iter())
            .find(|(c, _)| c.completed.as_secs_f64() < 14.0)
            .expect("an early chunk");
        assert!(!clean.contains("\n    fault: "), "{clean}");
    }

    /// A fetch window is closed at both ends: an event at the instant one
    /// chunk completes and the next starts belongs to both, and one a
    /// nanosecond past a window that nothing follows belongs to none.
    #[test]
    fn an_event_at_a_shared_chunk_boundary_lands_in_both_chunks() {
        let sc = Scenario::from_json(FAULTED).unwrap();
        let replay = explain_run(&sc, &ExplainOptions::default()).unwrap();
        let pairs = || replay.report.chunks.windows(2);
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
        let sharing = [shared[0].index, shared[1].index];
        let synthetic = Replay {
            faults: Vec::new(),
            events,
            ..replay
        };
        let text = render(&sc, &synthetic, None);
        let seen: Vec<(usize, &str)> = (chunk_blocks(&synthetic.report, &text).into_iter())
            .flat_map(|(c, b)| {
                (b.lines())
                    .filter_map(|l| l.strip_prefix("    @")?.split_once("s "))
                    .map(move |(_, line)| (c.index, line))
            })
            .collect();
        assert_eq!(
            seen,
            [
                (sharing[0], "subflow 0 declared failed"),
                (sharing[1], "subflow 0 declared failed"),
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
        let replay = explain_run(
            &sc,
            &ExplainOptions {
                client: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(replay.label, "Rate (client 2/4)");
        assert_eq!(replay.report.chunks.len(), 8);
        let text = render(&sc, &replay, None);
        let blocks = chunk_blocks(&replay.report, &text);
        assert_eq!(blocks.len(), 8, "every chunk of client 2 is explained");
        assert!(
            blocks
                .iter()
                .any(|(_, b)| b.contains("\n    shared queue: ")),
            "a contended fleet must show shared-queue waiting"
        );
        assert!(text.contains("client 2/4"), "{text}");
        assert!(text.contains("shared queue: "), "{text}");
        assert!(text.contains("packets waited"), "{text}");
        // Each bottleneck's losses are attributed by reason.
        assert!(text.contains("bottleneck 0 (fq):"), "{text}");
        assert!(text.contains("overflow"), "{text}");
        assert!(text.contains("aqm-early"), "{text}");
        // On a shared AP the pick attribution carries the queue-depth
        // input the scheduler saw.
        let picked = || (text.lines()).filter_map(|l| l.strip_prefix("    sched pick: "));
        assert!(
            picked().any(|p| p.contains(", shared queue ") && p.ends_with(" KB")),
            "shared-bottleneck paths expose queue depth at pick time"
        );
        assert!(picked().any(|p| p.contains("mean inputs: srtt ") && !p.contains("srtt unsampled")));
        assert!(text.contains("sched pick: "), "{text}");

        // A fleet scenario with no --client defaults to client 0.
        let Replay { label, .. } = explain_run(&sc, &ExplainOptions::default()).unwrap();
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
