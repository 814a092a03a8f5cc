//! Per-layer probes: each module times calls into one layer's public
//! functions from outside, at steady state, and reports ns per call.
//! The module is named for its layer, so an API reshaping of that layer
//! swaps exactly one file here.

pub mod core;
pub mod dash;
pub mod http;
pub mod link;
pub mod mptcp;
pub mod obs;
pub mod results;
pub mod session;
pub mod sim;

use crate::calibrate::{self, at_nominal_speed};
use crate::stats::median;
use std::time::{Duration, Instant};

/// Trials per probe; the row is their median.
const TRIALS: usize = 7;

/// Collects probe rows. `slice` is the host time one trial should fill.
pub struct Probes {
    slice: Duration,
    pub rows: Vec<(&'static str, f64)>,
}

impl Probes {
    pub fn new(slice: Duration) -> Self {
        Probes {
            slice,
            rows: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        self.rows.push((name, value));
    }

    /// Time `op` and record its median nanoseconds per call.
    pub fn ns(&mut self, name: &'static str, op: impl FnMut()) {
        let v = self.ns_per_call(op);
        self.put(name, v);
    }

    /// Median over [`TRIALS`] trials of nanoseconds per call of `op`, at
    /// nominal host speed. The loop that sizes a trial doubles as the
    /// warm-up.
    pub fn ns_per_call(&self, op: impl FnMut()) -> f64 {
        let (ns, reference_ns) = calibrate::around(|| self.median_ns_per_call(op));
        at_nominal_speed(ns, reference_ns)
    }

    fn median_ns_per_call(&self, mut op: impl FnMut()) -> f64 {
        let mut calls = 1u64;
        loop {
            let took = time_calls(calls, &mut op);
            if took * 4 >= self.slice {
                let fill = self.slice.as_secs_f64() / took.as_secs_f64();
                calls = ((calls as f64 * fill).ceil() as u64).max(1);
                break;
            }
            calls *= 4;
        }
        let trials: Vec<f64> = (0..TRIALS)
            .map(|_| time_calls(calls, &mut op).as_nanos() as f64 / calls as f64)
            .collect();
        median(&trials)
    }

    /// Every layer's probes, in catalogue order. `seed` only shapes the
    /// solo-session configs the `session` probes drive.
    pub fn run_all(&mut self, seed: u64) {
        sim::probes(self);
        link::probes(self);
        mptcp::probes(self);
        core::probes(self);
        http::probes(self);
        dash::probes(self);
        session::probes(self, seed);
        obs::probes(self, seed);
        results::probes(self);
    }
}

fn time_calls(calls: u64, op: &mut impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..calls {
        op();
    }
    start.elapsed()
}

/// Best-of-`trials` host seconds of each closure, interleaved so drift
/// hits every side alike; a descheduled trial can only lose.
pub fn best_of<const N: usize>(trials: usize, mut sides: [&mut dyn FnMut(); N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..trials {
        for (side, best) in sides.iter_mut().zip(&mut best) {
            let start = Instant::now();
            side();
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    best
}

/// `on` over `off`, as percent overhead.
pub fn overhead_pct(on: f64, off: f64) -> f64 {
    (on / off - 1.0) * 100.0
}
