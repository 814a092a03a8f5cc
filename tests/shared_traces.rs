//! A recorded bandwidth trace exists once however many configs carry it:
//! cloning a [`SessionConfig`] bumps a reference on each path's rates, and
//! so does everything built from clones — a scenario's modes, a fleet's
//! clients, a batch's jobs — and what exists once is 4 bytes a slot: a
//! sampled trace stores no timestamp, and each slot is the `u32` bits per
//! second it holds. (From the benchmark, a deep copy on one of these
//! routes is `solo_grid` peaking far above its ~7.0 MB — it was 43 MB
//! against 17 when a slot cost 16 bytes — ~10.5 MB is what 8-byte slots
//! coming back looks like, and ~17 MB timestamps.) A rate too fast for a
//! slot makes the trace a stored step function instead, so a valid
//! scenario never loses a bit.

use mpdash::dash::abr::AbrKind;
use mpdash::dash::video::Video;
use mpdash::fleet::{self, FleetConfig};
use mpdash::link::BandwidthProfile;
use mpdash::obs::{TraceEvent, TraceSink};
use mpdash::scenario::Scenario;
use mpdash::session::{run_batch, Job, SessionConfig, StreamingSession, Tracer, TransportMode};
use mpdash::sim::{SimDuration, SimTime};
use mpdash::trace::{table1, SynthSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A sampled trace's slots, as stored: bits per second.
type Rates = Arc<[u32]>;

fn rates(profile: &BandwidthProfile) -> &Rates {
    match profile {
        BandwidthProfile::Sampled { rates, .. } => rates.bps(),
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

/// The byte budget as a step function: a slot costs its `u32` bits per
/// second and nothing else, plus the `Arc`'s two counts. An 8-byte `Rate`
/// a slot doubles it, and a stored timestamp quadruples it.
#[test]
fn a_sampled_trace_owns_four_bytes_a_slot() {
    let (wifi, cell) = table1::synthetic_profile_pair(3.8, 3.0, 0.10, 42);
    for profile in [&wifi, &cell] {
        let slots = rates(profile).len();
        assert_eq!(slots, 13_200, "660 s in 50 ms slots");
        assert!(
            profile.heap_bytes() <= 4 * slots + 16,
            "{} B for {slots} slots",
            profile.heap_bytes()
        );
    }
    assert_eq!(BandwidthProfile::constant_mbps(3.8).heap_bytes(), 0);
}

/// The decoder bounds `mean_mbps` only from below, so a 6 Gbps synthetic
/// trace is a valid scenario. Most of its slots do not fit a `u32` bits
/// per second: it is built as the explicit-timestamp step function, the
/// same function of time over two passes as its samples say, and a session
/// on it streams every chunk.
#[test]
fn a_trace_too_fast_for_a_slot_is_a_step_function_and_streams() {
    let doc = r#"{
        "name": "six_gbps",
        "video": {"custom": {"levels_mbps": [0.5, 1.0], "chunk_secs": 2, "n_chunks": 3}},
        "wifi": {"synthetic": {"mean_mbps": 6000, "sigma": 0.1, "seed": 7}},
        "cell": {"constant": 3.0},
        "abr": "gpac",
        "modes": ["mpdash_rate"]
    }"#;
    let [(_, cfg)] = &Scenario::from_json(doc).unwrap().build()[..] else {
        panic!("one mode, one config")
    };
    let spec = SynthSpec::new(6000.0, 0.1, 7);
    let samples = spec.samples();
    assert!(samples.iter().any(|r| r.as_bps() > u64::from(u32::MAX)));
    let BandwidthProfile::Steps { steps, period } = &cfg.wifi.profile else {
        panic!("a 6 Gbps trace is not a grid: {:?}", cfg.wifi.profile)
    };
    assert_eq!(steps.len(), samples.len());
    assert_eq!(*period, Some(spec.slot * samples.len() as u64));
    let reference = |t: SimTime| {
        let (i, n) = (t.as_nanos() / spec.slot.as_nanos(), samples.len() as u64);
        (
            samples[(i % n) as usize],
            SimTime::ZERO + spec.slot * (i + 1),
        )
    };
    for k in 0..2 * samples.len() as u64 {
        let edge = spec.slot.as_nanos() * k;
        for t in [edge.saturating_sub(1), edge, edge + 1].map(SimTime::from_nanos) {
            assert_eq!(cfg.wifi.profile.step_at(t), reference(t), "step_at({t:?})");
        }
    }
    let report = StreamingSession::run(cfg.clone());
    assert_eq!(report.chunks.len(), 3, "every chunk streamed");
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
