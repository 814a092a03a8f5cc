//! The §7.3.4 mobility scenario as a runnable demo: walk a loop around
//! the WiFi AP while streaming, and watch MP-DASH lean on cellular only
//! while WiFi fades.
//!
//! ```sh
//! cargo run --release --example mobility
//! ```

use mpdash::analysis::throughput_timeline;
use mpdash::core::predict::PredictorKind;
use mpdash::dash::abr::AbrKind;
use mpdash::dash::video::Video;
use mpdash::energy::DeviceProfile;
use mpdash::mptcp::{CcKind, SchedulerSpec};
use mpdash::session::{SessionConfig, StreamingSession, TransportMode};
use mpdash::sim::{Rate, SimDuration};
use mpdash::trace::mobility::MobilityWalk;

fn config(mode: TransportMode) -> SessionConfig {
    let walk = MobilityWalk::default();
    let (wifi, cell) = walk.links();
    SessionConfig {
        video: Video::big_buck_bunny(),
        wifi,
        cell,
        abr: AbrKind::Festive,
        mode,
        buffer_capacity: SimDuration::from_secs(40),
        scheduler: SchedulerSpec::MinRtt,
        cc: CcKind::Reno,
        device: DeviceProfile::galaxy_note(),
        priors: (Rate::from_mbps_f64(3.0), Rate::from_mbps_f64(5.0)),
        predictor: PredictorKind::control_default(),
        enable_debounce: 4,
        sample_slot: SimDuration::from_millis(250),
        adapter: Default::default(),
        preference: Default::default(),
        tracer: Default::default(),
        server_faults: Default::default(),
        lifecycle: Default::default(),
        origins: None,
        cache: None,
        telemetry: None,
        start_offset: SimDuration::ZERO,
        max_watch: None,
    }
}

fn main() {
    println!("walking a loop around the AP while streaming (FESTIVE)...\n");
    let base = StreamingSession::run(config(TransportMode::Vanilla));
    let mp = StreamingSession::run(config(TransportMode::mpdash_rate_based()));

    for (name, r) in [("vanilla MPTCP", &base), ("MP-DASH", &mp)] {
        println!(
            "{name:>14}: bitrate {:.2} Mbps | stalls {} | LTE {:>6.1} MB | energy {:>5.0} J",
            r.qoe.mean_bitrate_mbps,
            r.qoe.stalls,
            r.cell_bytes as f64 / 1e6,
            r.energy.total_j(),
        );
    }
    println!(
        "\nsavings: {:.0}% cellular, {:.0}% energy — at full playback quality.\n",
        mp.cell_saving_vs(&base) * 100.0,
        mp.energy_saving_vs(&base) * 100.0
    );
    println!("MP-DASH traffic over two laps (cellular bursts track the WiFi fades):");
    println!(
        "{}",
        throughput_timeline(
            &mp.records,
            SimDuration::from_secs(2),
            SimDuration::from_secs(120)
        )
    );
}
