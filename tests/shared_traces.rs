//! A recorded bandwidth trace exists once however many configs carry it:
//! cloning a [`SessionConfig`] bumps a reference on each path's rates, and
//! so does everything built from clones — a scenario's modes, a fleet's
//! clients, a batch's jobs — and what exists once is 8 bytes a slot: a
//! sampled trace stores no timestamp. (From the benchmark, a deep copy on
//! one of these routes is `solo_grid` peaking far above its ~10.5 MB — it
//! was 43 MB against 17 when a slot cost 16 bytes — and ~17 MB is what
//! timestamps coming back looks like.)

use mpdash::dash::abr::AbrKind;
use mpdash::dash::video::Video;
use mpdash::fleet::{self, FleetConfig};
use mpdash::link::BandwidthProfile;
use mpdash::obs::{TraceEvent, TraceSink};
use mpdash::scenario::Scenario;
use mpdash::session::{run_batch, Job, SessionConfig, Tracer, TransportMode};
use mpdash::sim::{Rate, SimDuration, SimTime};
use mpdash::trace::table1;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type Rates = Arc<[Rate]>;

fn rates(profile: &BandwidthProfile) -> &Rates {
    match profile {
        BandwidthProfile::Sampled { rates, .. } => rates,
        other => panic!("a synthetic profile is a sampled trace, not {other:?}"),
    }
}

/// A short session on two synthetic (13 k-step) traces.
fn traced_pair() -> SessionConfig {
    SessionConfig::controlled(
        table1::synthetic_profile_pair(3.8, 3.0, 0.10, 42),
        AbrKind::Gpac,
        TransportMode::mpdash_rate_based(),
    )
    .with_video(Video::new(
        "tiny",
        &[0.5, 1.0],
        SimDuration::from_secs(2),
        3,
    ))
}

/// A sink that notes how many references the WiFi trace has each time a
/// running session emits an event: the only window onto configs that
/// exist inside `fleet::run` or a batch worker.
struct PeakRefs {
    rates: Rates,
    peak: AtomicUsize,
}

impl PeakRefs {
    fn on(cfg: &SessionConfig) -> Arc<Self> {
        Arc::new(PeakRefs {
            rates: rates(&cfg.wifi.profile).clone(),
            peak: AtomicUsize::new(0),
        })
    }
}

impl TraceSink for PeakRefs {
    fn record(&self, _: SimTime, _: &TraceEvent) {
        let refs = Arc::strong_count(&self.rates);
        self.peak.fetch_max(refs, Ordering::Relaxed);
    }
}

#[test]
fn a_cloned_session_config_shares_both_traces() {
    let cfg = traced_pair();
    let copy = cfg.clone();
    assert!(Arc::ptr_eq(
        rates(&cfg.wifi.profile),
        rates(&copy.wifi.profile)
    ));
    assert!(Arc::ptr_eq(
        rates(&cfg.cell.profile),
        rates(&copy.cell.profile)
    ));
    assert!(!Arc::ptr_eq(
        rates(&cfg.wifi.profile),
        rates(&cfg.cell.profile)
    ));
}

/// The byte budget as a step function: a slot costs its rate and nothing
/// else. A stored timestamp doubles it.
#[test]
fn a_sampled_trace_owns_eight_bytes_a_slot() {
    let (wifi, cell) = table1::synthetic_profile_pair(3.8, 3.0, 0.10, 42);
    for profile in [&wifi, &cell] {
        let slots = rates(profile).len();
        assert_eq!(slots, 13_200, "660 s in 50 ms slots");
        assert!(
            profile.heap_bytes() <= 8 * slots + 64,
            "{} B for {slots} slots",
            profile.heap_bytes()
        );
    }
    assert_eq!(BandwidthProfile::constant_mbps(3.8).heap_bytes(), 0);
}

#[test]
fn a_scenarios_modes_share_its_trace() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/example.json");
    let scenario = Scenario::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let configs = scenario.build();
    assert_eq!(configs.len(), 5);
    let first = rates(&configs[0].1.wifi.profile);
    for (label, cfg) in &configs {
        assert!(
            Arc::ptr_eq(first, rates(&cfg.wifi.profile)),
            "{label} copied the WiFi trace"
        );
    }
}

#[test]
fn a_fleets_clients_share_the_base_configs_trace() {
    const CLIENTS: usize = 3;
    let base = traced_pair();
    let sink = PeakRefs::on(&base);
    let cfg = FleetConfig::new(base.with_tracer(Tracer::new(sink.clone())), CLIENTS)
        .with_trace_client(0)
        .with_watchdog(false);
    fleet::run(&cfg);
    // The sink and the base config hold one reference each; every client
    // holds one in its config and one in its WiFi link.
    let peak = sink.peak.load(Ordering::Relaxed);
    assert!(
        peak >= 2 + 2 * CLIENTS,
        "{peak} references: a client built its own copy"
    );
}

#[test]
fn a_batchs_jobs_share_the_configs_trace() {
    const JOBS: usize = 4;
    let cfg = traced_pair();
    let sink = PeakRefs::on(&cfg);
    let cfg = cfg.with_tracer(Tracer::new(sink.clone()));
    let jobs = (0..JOBS).map(|i| Job::session(format!("job{i}"), cfg.clone()));
    let results = run_batch(jobs.collect(), 2);
    assert!(results.iter().all(|r| r.report.is_ok()));
    // The sink, `cfg` and each queued job hold one reference; a running
    // job adds its session's config and WiFi link.
    let peak = sink.peak.load(Ordering::Relaxed);
    assert!(
        peak >= 2 + JOBS + 2,
        "{peak} references: a job ran on its own copy"
    );
}
