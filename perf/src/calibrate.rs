//! The host-speed reference.
//!
//! This sandbox shares its host: for minutes at a time everything runs
//! 1.3–2x slower (the same 16-client fleet run took 0.72 s and 1.26 s
//! within one minute, and whole 25 s runs came out 1.7x slow), which no
//! statistic over one run's passes can see. So the harness times a fixed
//! piece of work of its own — a small discrete-event loop shaped like
//! the simulator's: a binary heap of timed events, per-flow queues and
//! floating-point state, a packet log, an allocation per event, now and
//! then a scan over every flow — before and after every timed unit, and
//! reports the unit's wall time scaled to the speed the reference ran at:
//! `wall × NOMINAL_NS ÷ reference`. What slows the host slows both, if
//! not by the same factor: in a slow phase the reference ran 1.5x slower
//! where a fleet run took 1.7x as long, so a 70% error becomes 13%.
//! Bursts shorter than a unit fall between two samples and are left to
//! the median over passes. The probes' ns/op rows are scaled the same
//! way, one pair of samples around each probe.
//!
//! The reference is harness code, not the program under test, so a
//! commit cannot move it; it only ever divides out the host.

use crate::stats::median;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// What one reference run takes on this sandbox's host when it is quiet
/// (measured 0.72–0.80 ms). It fixes the unit of the scaled times —
/// "seconds at nominal host speed" — and nothing else: any constant
/// would compare two commits alike.
pub const NOMINAL_NS: f64 = 760_000.0;

const FLOWS: usize = 64;
const EVENTS: u64 = 12_000;

struct Flow {
    queue: VecDeque<u64>,
    srtt: f64,
    cwnd: f64,
    bytes: u64,
}

/// One run of the reference work: always the same events in the same
/// order, starting from fresh state.
fn reference() -> u64 {
    let mut heap = BinaryHeap::with_capacity(2 * FLOWS);
    let mut flows: Vec<Flow> = (0..FLOWS)
        .map(|_| Flow {
            queue: VecDeque::new(),
            srtt: 50.0,
            cwnd: 10.0,
            bytes: 0,
        })
        .collect();
    let mut log: Vec<(u64, u32, u64)> = Vec::new();
    for flow in 0..FLOWS as u64 {
        heap.push(Reverse((flow * 37 % 101, flow, flow as u32)));
    }
    let (mut seq, mut rng, mut sum) = (FLOWS as u64, 0x9E37_79B9_7F4A_7C15u64, 0u64);
    for _ in 0..EVENTS {
        let Reverse((t, _, flow)) = heap.pop().expect("every event schedules its successor");
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let f = &mut flows[flow as usize];
        f.queue.push_back(t);
        if f.queue.len() > 24 {
            f.queue.pop_front();
        }
        f.srtt = 0.875 * f.srtt + 0.125 * (rng % 97) as f64;
        f.cwnd += 1.0 / f.cwnd;
        f.bytes += 1460;
        log.push((t, flow, f.bytes));
        let packet = Box::new([t, rng, f.bytes, seq]);
        sum ^= black_box(&packet)[(rng % 4) as usize];
        seq += 1;
        heap.push(Reverse((t + 1 + rng % 1000, seq, flow)));
        if rng % 8 == 0 {
            // The fleet loop's habit: look at every flow for the earliest.
            let earliest = flows.iter().filter_map(|f| f.queue.front()).min();
            sum ^= earliest.copied().unwrap_or(0);
        }
    }
    sum ^ log.len() as u64
        ^ flows
            .iter()
            .map(|f| f.cwnd as u64 + f.srtt as u64)
            .sum::<u64>()
}

/// Reference runs per sample: ~7 ms of host time.
const RUNS: usize = 9;

/// Nanoseconds the reference takes right now: the median of [`RUNS`]
/// runs. The median and not the minimum, because the work being scaled
/// also runs at the host's typical speed, interrupts included.
pub fn sample_ns() -> f64 {
    let runs: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(reference());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&runs)
}

/// A host time (in any unit) as it would have been at nominal host
/// speed, given what the reference took around it.
pub fn at_nominal_speed(time: f64, reference_ns: f64) -> f64 {
    time * NOMINAL_NS / reference_ns
}

/// Do `work` between two samples of the reference; returns its result
/// and the samples' mean.
pub fn around<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = sample_ns();
    let out = work();
    (out, (before + sample_ns()) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_the_same_work_every_time() {
        assert_eq!(reference(), reference());
    }

    #[test]
    fn scaling_divides_out_the_host() {
        // Twice as slow a host, twice the wall: the same scaled time.
        let quiet = at_nominal_speed(3.0, NOMINAL_NS);
        let noisy = at_nominal_speed(6.0, 2.0 * NOMINAL_NS);
        assert_eq!(quiet, 3.0);
        assert_eq!(noisy, quiet);
    }
}
