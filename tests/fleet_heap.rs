//! A contended fleet's peak live heap is flat in session length: no
//! client keeps anything per packet unless it is traced, so a longer
//! video costs a few bytes a chunk, not 16 a packet. And it is small per
//! client: a client's per-packet buffers (sender segments, event-queue
//! slab, shared-queue bookkeeping, outage split, deadline signal) give
//! back what a swollen window left, so 32 clients behind one deep AP
//! peak at under 72 KB a client (34,665 B; 116 KB when every buffer kept
//! its high-water capacity).
//!
//! A churning fleet, where most viewers have not arrived yet or have
//! left, peaks at under 14 KB a client over 64 clients with telemetry
//! on (8,388 B): a client that is done and owns no queued packet is
//! only its report, its epoch series keeps no pending slot, and an epoch
//! cell keeps static names, no room to grow once its epoch closes, and
//! no cells before the client's first write. Finished clients that kept their sessions, with cells keyed by
//! `String`s and dense from epoch 0, peaked at 18 KB.
//!
//! The heap is read off a counting global allocator. It counts every
//! thread of the process, so this binary holds exactly one test.

use mpdash::dash::abr::AbrKind;
use mpdash::dash::video::Video;
use mpdash::fleet::{ChurnSpec, FleetConfig, OverloadPolicy, SharedLinkSpec};
use mpdash::link::SharedBottleneckConfig;
use mpdash::mptcp::SchedulerSpec;
use mpdash::obs::TelemetrySpec;
use mpdash::session::{SessionConfig, TransportMode};
use mpdash::sim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

// Statistics only: neither value publishes other data, hence Relaxed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same block, layout and size the caller vouched for.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// `perf`'s contended topology: QAware MP-DASH, 1 s stagger, 10 ms RTT
/// skew, a FIFO AP at 1.5 Mbps a client behind 64 KiB a client and a
/// FIFO sector at 2 Mbps a client. The video has one rung, so a longer
/// one differs only in length: on the full ladder FESTIVE is still
/// ramping at chunk 10, and the longer run's bigger chunks would grow
/// every in-flight buffer with them.
fn contended(clients: usize, chunks: usize) -> FleetConfig {
    let video = Video::new("BBB-heap", &[1.01], SimDuration::from_secs(4), chunks);
    let base = SessionConfig::controlled_mbps(
        50.0,
        30.0,
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    )
    .with_video(video)
    .with_scheduler(SchedulerSpec::QAware);
    FleetConfig::new(base, clients)
        .with_stagger(SimDuration::from_secs(1))
        .with_rtt_skew(SimDuration::from_millis(10))
        .with_seed(11)
        .with_shared(SharedLinkSpec::wifi_ap(
            SharedBottleneckConfig::fifo_mbps(1.5 * clients as f64)
                .with_capacity(64 * 1024 * clients as u64),
        ))
        .with_shared(SharedLinkSpec::cell_sector(
            SharedBottleneckConfig::fifo_mbps(2.0 * clients as f64),
        ))
}

/// Viewers arriving 1 s apart on average and watching 40 s of a 20-chunk
/// ladder with a 10 s buffer, at most 8 at once, behind a FIFO AP at
/// 9.6 Mbps and a FIFO sector at 6.4 Mbps, with 2 s telemetry epochs.
fn churning(clients: usize) -> FleetConfig {
    let video = Video::new(
        "BBB-churn",
        &[0.58, 1.01, 1.47, 2.41, 3.94],
        SimDuration::from_secs(4),
        20,
    );
    let base = SessionConfig::controlled_mbps(
        50.0,
        30.0,
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    )
    .with_video(video)
    .with_buffer_capacity(SimDuration::from_secs(10));
    FleetConfig::new(base, clients)
        .with_seed(23)
        .with_churn(ChurnSpec::new(
            SimDuration::from_secs(1),
            SimDuration::from_secs(40),
        ))
        .with_overload(OverloadPolicy::max_active(8))
        .with_telemetry(TelemetrySpec::seconds(2.0))
        .with_shared(SharedLinkSpec::wifi_ap(SharedBottleneckConfig::fifo_mbps(
            9.6,
        )))
        .with_shared(SharedLinkSpec::cell_sector(
            SharedBottleneckConfig::fifo_mbps(6.4),
        ))
}

/// Peak live heap bytes over one run of the fleet, the finished report
/// included, above what was live before it; and the report.
fn peak_live_heap_of(cfg: &FleetConfig) -> (usize, mpdash::fleet::FleetReport) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let report = mpdash::fleet::run(cfg);
    let peak = PEAK.load(Relaxed) - before;
    for s in &report.sessions {
        assert!(s.records.is_empty(), "an untraced client kept its log");
    }
    (peak, report)
}

/// [`peak_live_heap_of`] the contended fleet; and the packets it moved.
fn peak_live_heap(clients: usize, chunks: usize) -> (usize, u64) {
    let (peak, report) = peak_live_heap_of(&contended(clients, chunks));
    for s in &report.sessions {
        assert_eq!(s.qoe_all.chunks, chunks, "every client streams the video");
    }
    let packets = report.sessions.iter().map(|s| s.sim_profile.by_kind.data);
    (peak, packets.sum())
}

#[test]
fn a_contended_fleets_peak_heap_is_flat_in_session_length() {
    let (short, short_packets) = peak_live_heap(8, 10);
    let (long, long_packets) = peak_live_heap(8, 20);
    // Twice the video is (nearly) twice the packets: 16 bytes of log a
    // packet would add that many bytes again.
    assert!(long_packets * 10 > short_packets * 18);
    assert!(
        long * 10 <= short * 11,
        "peak live heap {long} B at 20 chunks vs {short} B at 10 \
         ({long_packets} vs {short_packets} packets)"
    );
    // Four times the clients: a client's per-packet buffers hold what
    // is in flight, not the most its window ever held.
    let (wide, _) = peak_live_heap(32, 10);
    assert!(
        wide <= 32 * 72_000,
        "peak live heap {wide} B for 32 clients, {} B a client",
        wide / 32
    );
    // A churning fleet: a client that has left or was shed holds its
    // report, not its session.
    let (churn, report) = peak_live_heap_of(&churning(64));
    assert!(report.shed_sessions > 0 && report.departed_sessions > report.shed_sessions);
    assert!(report.epochs.is_some(), "telemetry on");
    assert!(
        churn <= 64 * 14_000,
        "peak live heap {churn} B for 64 churning clients, {} B a client",
        churn / 64
    );
}
