//! `exp origin` — multi-origin serving under an origin outage (beyond
//! the paper).
//!
//! One of three origins goes dark three times mid-run and the grid
//! crosses the serving strategies the multi-origin layer offers:
//!
//! * **single/wait** — one implicit origin, wait-forever lifecycle: the
//!   pre-pool baseline that rides out the full outage;
//! * **single/resume** — one origin, the deadline-aware lifecycle:
//!   abandons and resumes, but every resume lands on the same dark
//!   origin;
//! * **pool/failover** — three origins with circuit breakers: the
//!   blackholed primary trips Open after consecutive failures and
//!   routing falls over to a backup replica;
//! * **pool/hedged** — wait-forever lifecycle plus the hedged fetch:
//!   the pool races a second origin when a deadline-granted request
//!   stalls past the hedge quantile, so even a policy that never times
//!   out escapes the blackhole.
//!
//! The fold asserts the acceptance invariants of the multi-origin PR:
//!
//! 1. circuit-breaking failover misses **strictly fewer** chunk
//!    deadlines than the single-origin deadline-aware policy, and never
//!    more than wait-forever;
//! 2. every hedged request resolves to **exactly one winner** (the
//!    primary or the hedge, never both, never neither) and the loser's
//!    delivered bytes are charged to `wasted_bytes`;
//! 3. a shared fleet cache's hit ratio is **monotone nondecreasing in
//!    fleet size** on a shared manifest, and zero for a lone client.
//!
//! Strategy sessions and cache fleets are batch jobs alike (a fleet
//! reduced on its worker to its cache counters), so the whole grid
//! shards over `MPDASH_WORKERS` with bit-identical artifacts at any
//! worker count.

use crate::grid::Grid;
use crate::shapes::{bbb_clip, log_deadline_misses};
use crate::Table;
use mpdash_dash::abr::AbrKind;
use mpdash_fleet::{FleetCacheSpec, FleetConfig};
use mpdash_http::{LifecyclePolicy, OriginPoolConfig, OriginSpec, ServerFaultScript};
use mpdash_results::{ExperimentResult, ScalarGroup};
use mpdash_session::{SessionConfig, SessionReport, TransportMode};
use mpdash_sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// The outage under test: the primary goes completely dark three times
/// for 25 s each — longer than any deadline the player grants (the
/// 20 s buffer bounds them), so a strategy that waits out an outage
/// misses that chunk's deadline every single time, while one that
/// escapes to a healthy replica within a few seconds does not.
fn outage() -> ServerFaultScript {
    ServerFaultScript::new()
        .blackhole(secs(20), SimDuration::from_secs(25))
        .blackhole(secs(55), SimDuration::from_secs(25))
        .blackhole(secs(90), SimDuration::from_secs(25))
}

/// Three replicas: the blackholed primary plus two healthy backups at
/// increasing distance.
fn pool(hedge_quantile: Option<f64>) -> OriginPoolConfig {
    let cfg = OriginPoolConfig::new(vec![
        OriginSpec::new("primary").with_faults(outage()),
        OriginSpec::new("backup-east").with_rtt_penalty(SimDuration::from_millis(20)),
        OriginSpec::new("backup-west").with_rtt_penalty(SimDuration::from_millis(40)),
    ]);
    match hedge_quantile {
        Some(q) => cfg.with_hedge_quantile(q),
        None => cfg,
    }
}

/// Same ladder and chunk length as `exp lifecycle`; quick trims the
/// post-outage tail, not the outage itself.
fn base_cfg(quick: bool) -> SessionConfig {
    SessionConfig::controlled_mbps(
        4.5,
        4.0,
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    )
    .with_video(bbb_clip("BBB-origin", if quick { 25 } else { 35 }))
    .with_buffer_capacity(SimDuration::from_secs(20))
}

/// The serving-strategy axis: the two single-origin baselines, then the
/// two pool strategies the fold compares against them.
fn strategies(quick: bool) -> Vec<(&'static str, SessionConfig)> {
    vec![
        (
            "single/wait",
            base_cfg(quick)
                .with_server_faults(outage())
                .with_lifecycle(LifecyclePolicy::wait_forever()),
        ),
        (
            "single/resume",
            base_cfg(quick)
                .with_server_faults(outage())
                .with_lifecycle(LifecyclePolicy::deadline_aware()),
        ),
        (
            "pool/failover",
            base_cfg(quick)
                .with_origins(pool(None))
                .with_lifecycle(LifecyclePolicy::deadline_aware()),
        ),
        (
            "pool/hedged",
            base_cfg(quick)
                .with_origins(pool(Some(0.5)))
                .with_lifecycle(LifecyclePolicy::wait_forever()),
        ),
    ]
}

/// Quick stops at 4 clients; the full grid doubles once more.
fn fleet_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// A cache-fronted fleet on private links and a shared manifest: every
/// client streams the same 10-chunk clip, so all but the first fetch of
/// a hot segment can be served from the edge.
fn cache_fleet_cfg(clients: usize) -> FleetConfig {
    let base = SessionConfig::controlled_mbps(
        20.0,
        8.0,
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    )
    .with_video(bbb_clip("BBB-edge", 10));
    FleetConfig::new(base, clients).with_cache(FleetCacheSpec::new(256 * 1024 * 1024))
}

fn miss_rate(r: &SessionReport) -> f64 {
    let granted = r.chunks.iter().filter(|c| c.deadline.is_some()).count();
    if granted == 0 {
        0.0
    } else {
        log_deadline_misses(r) as f64 / granted as f64
    }
}

/// Compute the multi-origin grid: the serving strategies, then the
/// cache-fronted fleets.
pub fn result(quick: bool, workers: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "origin",
        "Multi-origin serving — breakers, hedged failover, and the edge cache under an outage",
    )
    .with_quick(quick);
    res.text(concat!(
        "\nThe primary origin is blackholed three times for 25 s mid-run.\n",
        "Invariants:\n",
        "circuit-breaking failover misses strictly fewer deadlines than\n",
        "the single-origin deadline-aware policy and never more than\n",
        "wait-forever; every hedge race resolves to exactly one winner\n",
        "with the loser's bytes charged as waste; and the shared fleet\n",
        "cache's hit ratio is monotone nondecreasing in fleet size.",
    ));

    let mut t = Table::new(&[
        "strategy",
        "misses",
        "miss rate",
        "stall s",
        "failovers",
        "opens",
        "hedges",
        "winP",
        "winH",
        "wasted KB",
        "dur s",
    ]);
    let grid = Grid::sessions(workers, strategies(quick));
    let wait_misses = log_deadline_misses(&grid["single/wait"]);
    let resume_misses = log_deadline_misses(&grid["single/resume"]);
    let mut total_hedges = 0u64;
    let mut total_wasted = 0u64;
    for (&name, r) in grid.iter() {
        let misses = log_deadline_misses(r);
        let o = &r.origin;
        t.row(&[
            name.into(),
            format!("{misses}"),
            format!("{:.3}", miss_rate(r)),
            format!("{:.2}", r.qoe_all.stall_time.as_secs_f64()),
            format!("{}", o.failovers),
            format!("{}", o.breaker_opens),
            format!("{}", o.hedges),
            format!("{}", o.hedge_wins_primary),
            format!("{}", o.hedge_wins_hedge),
            format!("{:.1}", r.lifecycle.wasted_bytes as f64 / 1e3),
            format!("{:.1}", r.duration.as_secs_f64()),
        ]);
        // Invariant 2 (one half): a hedge race never has zero or two
        // winners — on every strategy, hedged or not.
        assert_eq!(
            o.hedges,
            o.hedge_wins_primary + o.hedge_wins_hedge,
            "{name}: {} hedges but {}+{} winners",
            o.hedges,
            o.hedge_wins_primary,
            o.hedge_wins_hedge
        );
        total_hedges += o.hedges;
        total_wasted += r.lifecycle.wasted_bytes;
        match name {
            "single/wait" => {
                assert_eq!(o.failovers, 0, "a single origin has nowhere to fail over");
            }
            "single/resume" => {}
            "pool/failover" => {
                // Invariant 1: the breaker must trip during the outage
                // and failover must strictly beat retrying the dark
                // origin, while never losing to blind patience.
                assert!(o.breaker_opens >= 1, "the outage never tripped a breaker");
                assert!(o.failovers >= 1, "routing never left the dark primary");
                assert!(
                    misses < resume_misses,
                    "failover missed {misses} deadlines vs single-origin resume {resume_misses}"
                );
                assert!(
                    misses <= wait_misses,
                    "failover missed {misses} deadlines vs wait-forever {wait_misses}"
                );
            }
            "pool/hedged" => {
                // Invariant 2 (other half): the stalled request actually
                // hedges, the hedge side wins at least once (the primary
                // is dark), and wait-forever never abandons on its own.
                assert!(o.hedges >= 1, "the blackhole never triggered a hedge");
                assert!(o.hedge_wins_hedge >= 1, "no hedge beat the dark primary");
                assert_eq!(r.lifecycle.abandoned, 0, "wait-forever must never cancel");
                assert!(
                    misses <= wait_misses,
                    "hedging missed {misses} deadlines vs wait-forever {wait_misses}"
                );
            }
            _ => unreachable!("unknown strategy {name}"),
        }
    }
    res.table(t);

    let cells = fleet_sizes(quick)
        .into_iter()
        .map(|clients| (clients, cache_fleet_cfg(clients)))
        .collect();
    let fleets = Grid::run(workers, cells, |cfg| {
        let cache = mpdash_fleet::run(cfg).cache;
        cache.expect("a cache-fronted fleet reports its cache")
    });
    let mut ct = Table::new(&["clients", "hits", "misses", "insertions", "hit ratio"]);
    let mut prev_ratio = -1.0f64;
    let mut last_ratio = 0.0f64;
    for (&clients, cache) in fleets.iter() {
        let ratio = cache.hit_ratio();
        ct.row(&[
            format!("{clients}"),
            format!("{}", cache.hits),
            format!("{}", cache.misses),
            format!("{}", cache.insertions),
            format!("{ratio:.3}"),
        ]);
        // Invariant 3: the shared cache only gets more useful as the
        // fleet grows, and a lone client never hits its own cold cache.
        if clients == 1 {
            assert_eq!(ratio, 0.0, "a lone client hit its own cold cache");
        }
        assert!(
            ratio + 1e-12 >= prev_ratio,
            "hit ratio fell from {prev_ratio:.3} to {ratio:.3} at {clients} clients"
        );
        prev_ratio = ratio;
        last_ratio = ratio;
    }
    assert!(
        last_ratio > 0.0,
        "the largest fleet never reused a cached segment"
    );
    res.table(ct);
    res.scalars(
        ScalarGroup::new("origin invariants")
            .with("failover_miss_rate", miss_rate(&grid["pool/failover"]))
            .with("single_resume_miss_rate", miss_rate(&grid["single/resume"]))
            .with("total_hedges", total_hedges as f64)
            .with("total_wasted_bytes", total_wasted as f64)
            .with("max_fleet_cache_hit_ratio", last_ratio),
    );
    res
}
