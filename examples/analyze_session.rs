//! Drive the §6 multipath video analysis tool over a live session:
//! stream with MP-DASH, whose chunk log attributes each chunk's bytes to
//! paths as they arrive, then render the Figure 8-style visualization,
//! replay the packet trace through the throughput and energy views, and
//! read the rebuffering report off the player's buffer transitions,
//! which a trace sink collects while the session runs.
//!
//! ```sh
//! cargo run --release --example analyze_session
//! ```

use mpdash::analysis::{
    analyze, buffer_trajectory, render_chunk_bars, replay_energy, stall_intervals,
    throughput_timeline, to_json,
};
use mpdash::dash::abr::AbrKind;
use mpdash::energy::DeviceProfile;
use mpdash::obs::{TraceEvent, TraceSink, Tracer};
use mpdash::session::{SessionConfig, StreamingSession, TransportMode};
use mpdash::sim::{SimDuration, SimTime};
use mpdash::trace::table1;
use std::sync::{Arc, Mutex};

/// The player's buffer transitions, `(time, state, buffer seconds)`:
/// the §6 tool's second input, beside the packet trace.
#[derive(Default)]
struct BufferTransitions(Mutex<Vec<(SimTime, &'static str, f64)>>);

impl TraceSink for BufferTransitions {
    fn record(&self, t: SimTime, event: &TraceEvent) {
        if let TraceEvent::BufferTransition { state, buffer_s } = *event {
            self.0.lock().unwrap().push((t, state, buffer_s));
        }
    }
}

fn main() {
    let transitions = Arc::new(BufferTransitions::default());
    let cfg = SessionConfig::controlled(
        table1::synthetic_profile_pair(3.8, 3.0, 0.10, 42),
        AbrKind::Festive,
        TransportMode::mpdash_rate_based(),
    )
    .with_tracer(Tracer::new(transitions.clone()));
    let report = StreamingSession::run(cfg);
    let transitions = transitions.0.lock().unwrap();

    let chunks = &report.chunks;
    let a = analyze(chunks, report.idle_gaps, 5);

    println!("chunk bars (first 20 chunks):\n");
    println!("{}", render_chunk_bars(&chunks[..20], 30));

    println!("throughput, first 60 s:");
    println!(
        "{}",
        throughput_timeline(
            &report.records,
            SimDuration::from_secs(1),
            SimDuration::from_secs(60)
        )
    );

    println!("session summary:");
    println!("  chunks           : {}", chunks.len());
    println!("  quality switches : {}", a.switches);
    println!("  level histogram  : {:?}", a.level_histogram);
    println!(
        "  mean download    : {:.2} s",
        a.mean_download.as_secs_f64()
    );
    println!(
        "  cellular share   : {:.1}% of body bytes",
        a.cell_body_bytes as f64 / (a.cell_body_bytes + a.wifi_body_bytes).max(1) as f64 * 100.0
    );
    println!("  idle gaps >0.5 s : {}", a.idle_gaps);
    let stats = report.scheduler_stats;
    println!(
        "  scheduler        : {} toggles, {} missed deadlines, {} scheduled chunks",
        stats.toggles, stats.missed_deadlines, stats.completed_transfers
    );

    // Rebuffering report from the buffer transitions (§6's second input).
    let stalls = stall_intervals(&transitions);
    println!("  rebuffer events  : {}", stalls.len());
    for (at, dur) in &stalls {
        println!("    stall at {at} for {dur}");
    }
    let traj = buffer_trajectory(&transitions);
    let peak = traj.iter().map(|&(_, b)| b).fold(0.0f64, f64::max);
    println!("  peak buffer      : {peak:.1} s of {:.0} s capacity", 40.0);

    // Energy replay through both device models (§7.1's cross-check).
    for device in [DeviceProfile::galaxy_note(), DeviceProfile::galaxy_s3()] {
        let e = replay_energy(&report.records, &device, report.duration);
        println!(
            "  energy ({:<20}): {:6.1} J  (wifi {:5.1}, lte {:5.1})",
            device.name,
            e.total_j(),
            e.wifi.total_j(),
            e.lte.total_j()
        );
    }

    // Machine-readable export for plotting pipelines.
    let json = to_json(chunks, &a);
    let path = std::env::temp_dir().join("mpdash-session.json");
    std::fs::write(&path, &json).expect("write export");
    println!(
        "  JSON export      : {} ({} bytes)",
        path.display(),
        json.len()
    );
}
