//! `mpdash_http`: segment-cache lookups and inserts, origin routing,
//! and one lifecycle poll.

use super::Probes;
use mpdash_http::lifecycle::RequestTracker;
use mpdash_http::{LifecyclePolicy, OriginPool, OriginPoolConfig, OriginSpec, SharedSegmentCache};
use mpdash_sim::{SimDuration, SimTime};
use std::hint::black_box;

pub fn probes(p: &mut Probes) {
    // 100 resident segments (a 20-chunk, 5-level manifest), all hits.
    let cache = SharedSegmentCache::new(64 * 1024 * 1024);
    for chunk in 0..20 {
        for level in 0..5 {
            cache.insert((chunk, level), 500_000);
        }
    }
    let mut i = 0usize;
    p.ns("http.cache_hit_ns", || {
        i += 1;
        black_box(cache.lookup((i % 20, i % 5)));
    });

    // Writes beside reads: 16 segments fit, so every insert of a new
    // key evicts the least recently used one, and each is read back.
    let cache = SharedSegmentCache::new(16 * 1024 * 1024);
    let mut chunk = 0usize;
    p.ns("http.cache_insert_evict_ns", || {
        chunk += 1;
        cache.insert((chunk, 0), 1024 * 1024);
        black_box(cache.lookup((chunk, 0)));
    });

    let mut pool = OriginPool::new(OriginPoolConfig::new(vec![
        OriginSpec::new("primary"),
        OriginSpec::new("backup-east").with_rtt_penalty(SimDuration::from_millis(20)),
        OriginSpec::new("backup-west").with_rtt_penalty(SimDuration::from_millis(40)),
    ]));
    let mut now = SimTime::ZERO;
    p.ns("http.origin_route_ns", || {
        now += SimDuration::from_millis(1);
        let (origin, transitions) = pool.route(now);
        black_box(transitions);
        black_box(pool.on_success(origin));
    });

    // A request that keeps making progress inside a week-long window:
    // every poll takes the no-action path a healthy fetch takes.
    let mut tracker = RequestTracker::new(
        LifecyclePolicy::deadline_aware(),
        0,
        SimTime::ZERO,
        u64::MAX,
        Some(SimDuration::from_secs(7 * 86_400)),
    );
    let (mut now, mut got) = (SimTime::ZERO, 0u64);
    p.ns("http.lifecycle_poll_ns", || {
        now += SimDuration::from_micros(10);
        got += 1460;
        tracker.on_progress(now, got);
        black_box(tracker.poll(now, false));
    });
}
