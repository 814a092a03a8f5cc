//! `mpdash_session` and `mpdash_energy`: the solo grid's first cell,
//! vanilla and MP-DASH, driven call by call from here — `start`, every
//! `step_once`, `into_report` — and the energy replay on its records.
//! Over the whole 10-minute video, not the grid's 5 minutes: the timer
//! events an MP-DASH session pops per packet grow with its length.

use super::Probes;
use crate::alloc;
use crate::calibrate::{self, at_nominal_speed};
use crate::stats::median;
use crate::workloads::{replay_energy, solo_pair};
use mpdash_dash::video::Video;
use mpdash_session::{SessionConfig, StreamingSession};
use std::hint::black_box;
use std::time::Instant;

/// Sessions driven per mode; every row is the median over them.
const RUNS: usize = 3;

#[derive(Default)]
struct Driven {
    start_us: Vec<f64>,
    step_ns: Vec<f64>,
    into_report_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    events_per_pkt: f64,
    allocs_per_event: f64,
}

fn drive(cfg: &SessionConfig) -> Driven {
    let mut d = Driven::default();
    for _ in 0..RUNS {
        let reference_before = calibrate::sample_ns();
        let t = Instant::now();
        let mut session = StreamingSession::start(cfg.clone());
        d.start_us.push(t.elapsed().as_secs_f64() * 1e6);

        let mark = alloc::count_from_here();
        let t = Instant::now();
        let mut steps = 0u64;
        while !session.finished() && session.step_once() {
            steps += 1;
        }
        let stepping = t.elapsed();
        let allocs = alloc::counted_since(mark);
        d.step_ns.push(stepping.as_nanos() as f64 / steps as f64);

        let t = Instant::now();
        let report = session.into_report();
        d.into_report_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        black_box(replay_energy(cfg, &report));
        d.replay_ms.push(t.elapsed().as_secs_f64() * 1e3);

        // Counts: the same on every run.
        let events = report.sim_profile.events_popped as f64;
        d.events_per_pkt = events / report.records.len() as f64;
        d.allocs_per_event = allocs as f64 / events;

        // This run's four timings, at nominal host speed.
        let reference_ns = (reference_before + calibrate::sample_ns()) / 2.0;
        for times in [
            &mut d.start_us,
            &mut d.step_ns,
            &mut d.into_report_ms,
            &mut d.replay_ms,
        ] {
            let last = times.last_mut().expect("pushed above");
            *last = at_nominal_speed(*last, reference_ns);
        }
    }
    d
}

pub fn probes(p: &mut Probes, seed: u64) {
    let (vanilla, mpdash) = solo_pair(seed);
    let v = drive(&vanilla.with_video(Video::big_buck_bunny()));
    let m = drive(&mpdash.with_video(Video::big_buck_bunny()));
    p.put("session.start_us", median(&m.start_us));
    p.put("session.step_vanilla_ns", median(&v.step_ns));
    p.put("session.step_mpdash_ns", median(&m.step_ns));
    p.put("session.events_per_pkt_vanilla", v.events_per_pkt);
    p.put("session.events_per_pkt_mpdash", m.events_per_pkt);
    p.put("session.into_report_ms", median(&m.into_report_ms));
    p.put("session.allocs_per_event", m.allocs_per_event);
    p.put("energy.session_replay_ms", median(&m.replay_ms));
}
