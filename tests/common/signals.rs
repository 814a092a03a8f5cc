//! Every signal name the observing layers write — a session, the fleet
//! loop and a shared bottleneck — for the pins that prove no write went
//! missing. `crates/fleet`'s churn-mix test and
//! `tests/scenario_pipeline.rs` include this file by `#[path]`: between
//! them every name is nonzero in some pinned run, so a write that is
//! dropped, zeroed or renamed moves a digest one of them pins.

use mpdash_obs::{EpochSeries, MetricsSnapshot};
use std::collections::BTreeSet;

/// The epoch-series names: a session's 18, the fleet loop's 6 and a
/// shared bottleneck's 8.
pub const EPOCH_NAMES: [&str; 32] = [
    "chunks",
    "deadline_hits",
    "deadline_misses",
    "departures",
    "cache_hits",
    "cache_misses",
    "breaker_opens",
    "hedges",
    "retries",
    "timeouts",
    "resumes",
    "wasted_bytes",
    "wifi_bytes",
    "cell_bytes",
    "stall_ms",
    "buffer_ms",
    "chunk_bitrate_kbps",
    "switches",
    "loop_steps",
    "loop_departures",
    "loop_aqm_drops",
    "fleet_arrivals",
    "fleet_departures",
    "fleet_shed",
    "queue_depth_bytes",
    "queue_wait_ms",
    "aqm_drop_prob_ppm",
    "shared_offered_bytes",
    "shared_delivered_bytes",
    "shared_dropped_bytes",
    "aqm_dropped_packets",
    "aqm_marked_packets",
];

/// The registry names: a session's 33 and a shared bottleneck's 4.
pub const REGISTRY_NAMES: [&str; 37] = [
    "deadline_granted",
    "deadline_bypassed",
    "scheduler_toggles",
    "chunks_fetched",
    "deadline_hits",
    "deadline_misses",
    "departed",
    "shed",
    "cache_hits",
    "cache_misses",
    "cache_insertions",
    "origin_routed",
    "origin_failovers",
    "breaker_opens",
    "hedges",
    "hedge_wins_primary",
    "hedge_wins_hedge",
    "request_errors",
    "requests_retried",
    "request_timeouts",
    "requests_abandoned",
    "requests_resumed",
    "wasted_bytes",
    "chunk_fetch_ms",
    "chunk_bytes",
    "scheduler_toggle_total",
    "subflow_failures",
    "subflow_revivals",
    "stalls",
    "lifecycle_timeouts",
    "lifecycle_abandoned",
    "lifecycle_resumed",
    "lifecycle_retried",
    "queue_depth_bytes",
    "queue_wait_ms",
    "aqm_dropped_packets",
    "aqm_marked_packets",
];

/// The names `crates/fleet`'s churn mix leaves at zero: the runs
/// `tests/scenario_pipeline.rs` adds write all but the last. No pinned
/// run makes a primary win its hedge race: its cancel has to be stale.
pub const CHURN_MIX_ZEROS: [&str; 8] = [
    "epoch:aqm_drop_prob_ppm",
    "epoch:aqm_marked_packets",
    "epoch:retries",
    "registry:aqm_marked_packets",
    "registry:lifecycle_retried",
    "registry:request_errors",
    "registry:requests_retried",
    "registry:hedge_wins_primary",
];

/// Each name of the lists that none of `epochs` and `metrics` holds
/// nonzero, as `epoch:<name>` or `registry:<name>`, sorted.
pub fn zeros(epochs: &[&EpochSeries], metrics: &[&MetricsSnapshot]) -> Vec<String> {
    let mut zeros = BTreeSet::new();
    for name in EPOCH_NAMES {
        let written = |s: &&EpochSeries| {
            s.cells()
                .any(|(_, c)| c.counter(name) > 0 || c.histogram(name).is_some_and(|h| h.sum() > 0))
        };
        if !epochs.iter().any(written) {
            zeros.insert(format!("epoch:{name}"));
        }
    }
    for name in REGISTRY_NAMES {
        let written = |m: &&MetricsSnapshot| {
            m.counters.iter().any(|(k, n)| k == name && *n > 0)
                || m.histograms.iter().any(|(k, h)| k == name && h.sum > 0)
        };
        if !metrics.iter().any(written) {
            zeros.insert(format!("registry:{name}"));
        }
    }
    zeros.into_iter().collect()
}
