//! A counting global allocator (std only). Off, it costs one relaxed
//! load per allocation; the traced run turns it on for the `*allocs*`
//! rows. Single-threaded harness, so a plain counter pair suffices.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: neither value publishes other data, hence Relaxed.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        // SAFETY: same block, layout and size the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting; returns the mark to pass to [`counted_since`].
pub fn count_from_here() -> u64 {
    ON.store(true, Relaxed);
    ALLOCS.load(Relaxed)
}

/// Stop counting; allocations (and reallocations) since `mark`.
pub fn counted_since(mark: u64) -> u64 {
    ON.store(false, Relaxed);
    ALLOCS.load(Relaxed) - mark
}
