//! A progress check allocates nothing. Algorithm 1 decides on a
//! `PathMask`, one word, whether the enabled set holds, toggles, is
//! forced on past a missed deadline, or reverts to every path when the
//! transfer completes.
//!
//! The count is read off a counting global allocator. It counts every
//! thread of the process, so this binary holds exactly one test.

use mpdash::core::{MpDashControl, PredictorKind, SchedulerParams, SchedulerStats};
use mpdash::sim::{PathId, PathMask, Rate, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

// Statistics only: the value publishes no other data, hence Relaxed.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: same block, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// 5 MB due in 10 s, checked every 50 ms with both paths busy. WiFi runs
/// at 2 Mbps, too slow alone, so the cell comes on and carries 3 Mbps;
/// from 2 s WiFi runs at 8 Mbps and the cell goes off; from 4 s both
/// paths are dark, so the cell comes back on, the deadline passes at
/// 10 s with every path already on, and the last byte lands at 11 s.
#[test]
fn a_progress_check_allocates_nothing() {
    const SIZE: u64 = 5_000_000;
    let tick = SimDuration::from_millis(50);
    let mut control = MpDashControl::new(
        vec![0.0, 1.0],
        vec![Rate::from_mbps(4), Rate::from_mbps(3)],
        SchedulerParams::default().with_debounce(2),
        tick,
        PredictorKind::control_default(),
    );
    let mut enabled = control.mp_dash_enable(SimTime::ZERO, SIZE, SimDuration::from_secs(10));
    let both = PathMask::first(2);
    let (mut now, mut sent) = (SimTime::ZERO, 0);

    let before = ALLOCS.load(Relaxed);
    while control.is_active() {
        now += tick;
        let (wifi, cell) = if now <= SimTime::from_secs(2) {
            (12_500, 18_750)
        } else if now <= SimTime::from_secs(4) {
            (50_000, 18_750)
        } else {
            (0, 0)
        };
        control.on_bytes(0, now, wifi);
        sent += wifi;
        if enabled.contains(PathId::CELLULAR) {
            control.on_bytes(1, now, cell);
            sent += cell;
        }
        if now == SimTime::from_secs(11) {
            sent = SIZE;
        }
        if let Some(change) = control.on_progress(now, sent, both) {
            enabled = change;
        }
    }
    let allocs = ALLOCS.load(Relaxed) - before;

    assert_eq!(now, SimTime::from_secs(11));
    assert_eq!(enabled, both, "completion reverts to every path");
    assert_eq!(
        control.stats(),
        SchedulerStats {
            toggles: 3,
            missed_deadlines: 1,
            completed_transfers: 1,
        }
    );
    assert_eq!(allocs, 0, "progress checks allocated {allocs} times");
}
