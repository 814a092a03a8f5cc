//! `mpdash_sim::EventQueue` at held depth.

use super::Probes;
use mpdash_sim::{EventQueue, SimDuration, SimTime};
use std::hint::black_box;

/// A queue holding `depth` events spread over one simulated second.
fn held(depth: u64) -> EventQueue<u64> {
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.schedule(SimTime::from_micros(i * 1_000_000 / depth), i);
    }
    q
}

pub fn probes(p: &mut Probes) {
    for (name, depth) in [
        ("sim.queue_sched_pop_d64_ns", 64),
        ("sim.queue_sched_pop_d4096_ns", 4096),
    ] {
        // Pop the earliest and reschedule it one second on: depth holds.
        let mut q = held(depth);
        p.ns(name, || {
            let (t, e) = q.pop().expect("held depth");
            q.schedule(t + SimDuration::from_secs(1), black_box(e));
        });
    }
    for (name, depth) in [
        ("sim.queue_peek_d64_ns", 64),
        ("sim.queue_peek_d1024_ns", 1024),
    ] {
        let q = held(depth);
        p.ns(name, || {
            black_box(black_box(&q).peek_time());
        });
    }
    // Schedule an event due first, cancel it, and let the pop that
    // follows discard it: depth holds and no cancelled entry lingers.
    let mut q = held(64);
    p.ns("sim.queue_cancel_d64_ns", || {
        let id = q.schedule(q.now(), 0);
        black_box(q.cancel(id));
        let (t, e) = q.pop().expect("held depth");
        q.schedule(t + SimDuration::from_secs(1), e);
    });
}
