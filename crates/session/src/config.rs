//! Session configuration: which network, which player, which transport
//! policy.

use mpdash_core::predict::PredictorKind;
use mpdash_dash::abr::AbrKind;
use mpdash_dash::adapter::{AdapterConfig, DeadlineMode};
use mpdash_dash::video::Video;
use mpdash_energy::DeviceProfile;
use mpdash_http::{LifecyclePolicy, OriginPoolConfig, ServerFaultScript, SharedSegmentCache};
use mpdash_link::{BandwidthProfile, FaultScript, LinkConfig, PathId, TokenBucket};
use mpdash_mptcp::{CcKind, MptcpConfig, MptcpSim, PathMask, SchedulerSpec};
use mpdash_obs::{TelemetrySpec, Tracer};
use mpdash_sim::{Rate, SimDuration};
use mpdash_trace::field::Location;

/// The control plane's Holt-Winters sampling slot (DESIGN §4.5): the
/// default [`SessionConfig::sample_slot`], and the slot every deadline
/// transfer samples on.
pub(crate) const SAMPLE_SLOT: SimDuration = SimDuration::from_millis(250);

/// Which interface the user prefers (§3.2: "Our current prototype
/// supports two policies … preferring WiFi over cellular, and preferring
/// cellular over WiFi"; the latter suits users in motion). The two are
/// symmetric: the preferred path runs at full rate and the other is
/// deadline-gated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PathPreference {
    /// Prefer WiFi; gate cellular (the paper's primary policy).
    #[default]
    WifiFirst,
    /// Prefer cellular; gate WiFi (e.g. while driving past APs).
    CellularFirst,
}

impl PathPreference {
    /// Per-path unit costs `(wifi, cell)` for the scheduler.
    pub(crate) fn costs(self) -> [f64; 2] {
        match self {
            PathPreference::WifiFirst => [0.0, 1.0],
            PathPreference::CellularFirst => [1.0, 0.0],
        }
    }
}

/// The transport policy under test — the paper's comparison axes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TransportMode {
    /// Vanilla MPTCP: every subflow always on (the paper's baseline).
    Vanilla,
    /// Single-path WiFi (the Figure 11 bottom row).
    WifiOnly,
    /// Vanilla MPTCP with the cellular path throttled by a token bucket —
    /// the §7.3.1 alternative MP-DASH is compared against.
    Throttled {
        /// Token-bucket rate in kbps (the paper tries 200/700/1000).
        kbps: u64,
    },
    /// MP-DASH: the deadline-aware scheduler plus the video adapter.
    MpDash {
        /// How chunk deadlines are derived (§5.1).
        deadline: DeadlineMode,
        /// Algorithm 1's α.
        alpha: f64,
    },
}

impl TransportMode {
    /// MP-DASH with rate-based deadlines, α = 1 (the paper's default).
    pub fn mpdash_rate_based() -> Self {
        TransportMode::MpDash {
            deadline: DeadlineMode::Rate,
            alpha: 1.0,
        }
    }

    /// MP-DASH with duration-based deadlines, α = 1.
    pub fn mpdash_duration_based() -> Self {
        TransportMode::MpDash {
            deadline: DeadlineMode::Duration,
            alpha: 1.0,
        }
    }

    /// Short label for result tables.
    pub fn label(&self) -> String {
        match self {
            TransportMode::Vanilla => "Baseline".into(),
            TransportMode::WifiOnly => "WiFi-only".into(),
            TransportMode::Throttled { kbps } => format!("Throttle{kbps}k"),
            TransportMode::MpDash { deadline, .. } => deadline.name().into(),
        }
    }

    /// Whether this mode runs the MP-DASH scheduler.
    pub fn is_mpdash(&self) -> bool {
        matches!(self, TransportMode::MpDash { .. })
    }

    /// The mode's link-level effect: `cell` as configured, behind a
    /// token bucket when the mode throttles the cellular path.
    pub(crate) fn cell_link(&self, cell: LinkConfig) -> LinkConfig {
        match *self {
            TransportMode::Throttled { kbps } => {
                cell.with_throttle(TokenBucket::new(Rate::from_kbps(kbps), 3000))
            }
            _ => cell,
        }
    }

    /// The two-path connection this mode runs on, traced by `tracer`: a
    /// throttled mode's cellular link behind its bucket, a WiFi-only
    /// mode's cellular subflow off from the start.
    pub(crate) fn connect(
        &self,
        (wifi, cell): (LinkConfig, LinkConfig),
        scheduler: SchedulerSpec,
        cc: CcKind,
        tracer: Tracer,
    ) -> MptcpSim {
        let mut two_path = MptcpConfig::two_path(wifi, self.cell_link(cell));
        (two_path.scheduler, two_path.cc) = (scheduler, cc);
        let mut sim = MptcpSim::new(two_path);
        sim.set_tracer(tracer);
        if *self == TransportMode::WifiOnly {
            sim.set_initial_mask(PathMask::only(PathId::WIFI));
        }
        sim
    }
}

/// Full configuration of one streaming session.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// The video to stream.
    pub video: Video,
    /// WiFi data link.
    pub wifi: LinkConfig,
    /// Cellular data link.
    pub cell: LinkConfig,
    /// Rate-adaptation algorithm.
    pub abr: AbrKind,
    /// Transport policy.
    pub mode: TransportMode,
    /// Player buffer capacity.
    pub buffer_capacity: SimDuration,
    /// MPTCP packet scheduler.
    pub scheduler: SchedulerSpec,
    /// Per-subflow congestion control.
    pub cc: CcKind,
    /// Device for energy replay.
    pub device: DeviceProfile,
    /// Pre-play throughput priors `(wifi, cell)` seeding the estimators
    /// (the paper probes before playback, §7.3.3).
    pub priors: (Rate, Rate),
    /// Throughput predictor driving Algorithm 1 (ablation knob; the
    /// paper's choice is Holt-Winters, §6).
    pub predictor: PredictorKind,
    /// Enable-side debounce of the deadline scheduler in progress checks
    /// (see `SchedulerParams::enable_debounce`).
    pub enable_debounce: u32,
    /// Holt-Winters sampling-slot width (ablation knob).
    pub sample_slot: SimDuration,
    /// The video adapter's Φ/Ω tunables (ablation knob; the default is
    /// the paper's).
    pub adapter: AdapterConfig,
    /// Which interface the user prefers (§3.2).
    pub preference: PathPreference,
    /// Scripted misbehaviour of the single implicit origin (5xx bursts,
    /// stalled bodies, slow first byte). Empty by default — a healthy
    /// server. Ignored when `origins` is set.
    pub server_faults: ServerFaultScript,
    /// Request-lifecycle policy: stall/deadline timeouts, abandonment
    /// with byte-range resume, seeded retries. Defaults to the
    /// wait-forever baseline (the pre-lifecycle behaviour).
    pub lifecycle: LifecyclePolicy,
    /// Multi-origin serving pool: per-origin fault scripts, RTT
    /// penalties, circuit breakers, and the hedging policy. `None`
    /// (default) is the paper's single server: one origin, never
    /// breaker-tracked, misbehaving per `server_faults`. With a pool set,
    /// `server_faults` is not consulted — each origin carries its own
    /// script.
    pub origins: Option<OriginPoolConfig>,
    /// Shared segment cache in front of the origins; hits are served as
    /// cheap edge fetches. `None` (default) disables the cache tier.
    /// Fleet runs pass one handle to every client.
    pub cache: Option<SharedSegmentCache>,
    /// Structured-trace sink for the run; disabled (untraced) by default.
    /// Strictly observe-only: the same config with any tracer produces
    /// byte-identical reports.
    pub tracer: Tracer,
    /// Epoch telemetry: roll session signals into fixed virtual-time
    /// epochs (see `mpdash_obs::EpochSeries`); `None` (default) is off.
    /// Strictly observe-only: the same config with telemetry on or off
    /// produces byte-identical reports and artifacts.
    pub telemetry: Option<TelemetrySpec>,
    /// Virtual time at which the session issues its first request
    /// (staggered fleet starts). Zero for the standalone experiments.
    /// QoE clocks (startup delay, session duration) measure from this
    /// origin, not from the simulation epoch.
    pub start_offset: SimDuration,
    /// Viewing-duration cap: once this much virtual time has elapsed
    /// since the session's origin, no further chunks are requested —
    /// the viewer closes the tab and the session finalizes a clean
    /// partial report (churning fleets draw this per client). `None`
    /// (default) watches the whole video.
    pub max_watch: Option<SimDuration>,
}

impl SessionConfig {
    /// The controlled-experiment setup of §7.1/§7.3.2: testbed RTTs
    /// (50 ms WiFi, 55 ms LTE), Big Buck Bunny, 40 s player buffer.
    pub fn controlled(
        profiles: (BandwidthProfile, BandwidthProfile),
        abr: AbrKind,
        mode: TransportMode,
    ) -> Self {
        let horizon = SimDuration::from_secs(120);
        let priors = (profiles.0.mean_rate(horizon), profiles.1.mean_rate(horizon));
        let (wifi, cell) = mpdash_trace::table1::testbed_links(profiles.0, profiles.1);
        SessionConfig {
            video: Video::big_buck_bunny(),
            wifi,
            cell,
            abr,
            mode,
            buffer_capacity: SimDuration::from_secs(40),
            scheduler: SchedulerSpec::MinRtt,
            cc: CcKind::Reno,
            device: DeviceProfile::galaxy_note(),
            priors,
            predictor: PredictorKind::control_default(),
            enable_debounce: 4,
            sample_slot: SAMPLE_SLOT,
            adapter: AdapterConfig::default(),
            preference: PathPreference::WifiFirst,
            server_faults: ServerFaultScript::new(),
            lifecycle: LifecyclePolicy::wait_forever(),
            origins: None,
            cache: None,
            tracer: Tracer::disabled(),
            telemetry: None,
            start_offset: SimDuration::ZERO,
            max_watch: None,
        }
    }

    /// [`SessionConfig::controlled`] with flat constant-rate paths — the
    /// shortest way to a valid config for tests and batch-runner demos.
    pub fn controlled_mbps(
        wifi_mbps: f64,
        cell_mbps: f64,
        abr: AbrKind,
        mode: TransportMode,
    ) -> Self {
        SessionConfig::controlled(
            (
                BandwidthProfile::constant_mbps(wifi_mbps),
                BandwidthProfile::constant_mbps(cell_mbps),
            ),
            abr,
            mode,
        )
    }

    /// A field-study session at one of the 33 corpus locations: the
    /// controlled setup on that location's links, with its measured mean
    /// rates as the estimator priors.
    pub fn at_location(loc: &Location, abr: AbrKind, mode: TransportMode) -> Self {
        let (wifi, cell) = loc.links();
        SessionConfig {
            wifi,
            cell,
            priors: (
                Rate::from_mbps_f64(loc.wifi_mbps),
                Rate::from_mbps_f64(loc.lte_mbps),
            ),
            ..SessionConfig::controlled_mbps(loc.wifi_mbps, loc.lte_mbps, abr, mode)
        }
    }

    /// Same config with a different video.
    pub fn with_video(mut self, video: Video) -> Self {
        self.video = video;
        self
    }

    /// Same config with a different player buffer capacity.
    pub fn with_buffer_capacity(mut self, capacity: SimDuration) -> Self {
        self.buffer_capacity = capacity;
        self
    }

    /// Same config with a different MPTCP packet scheduler.
    pub fn with_scheduler(mut self, s: SchedulerSpec) -> Self {
        self.scheduler = s;
        self
    }

    /// Same config with a different congestion controller.
    pub fn with_cc(mut self, cc: CcKind) -> Self {
        self.cc = cc;
        self
    }

    /// Same config with a different energy device.
    pub fn with_device(mut self, d: DeviceProfile) -> Self {
        self.device = d;
        self
    }

    /// Same config with a different throughput predictor (ablation).
    pub fn with_predictor(mut self, p: PredictorKind) -> Self {
        self.predictor = p;
        self
    }

    /// Same config with a different enable-side debounce (ablation).
    pub fn with_debounce(mut self, checks: u32) -> Self {
        self.enable_debounce = checks.max(1);
        self
    }

    /// Same config with a different sampling-slot width (ablation).
    pub fn with_sample_slot(mut self, slot: SimDuration) -> Self {
        self.sample_slot = slot;
        self
    }

    /// Same config with explicit adapter Φ/Ω tunables (ablation).
    pub fn with_adapter(mut self, cfg: AdapterConfig) -> Self {
        self.adapter = cfg;
        self
    }

    /// Same config with the opposite interface preference (§3.2).
    pub fn with_preference(mut self, p: PathPreference) -> Self {
        self.preference = p;
        self
    }

    /// Same config with a fault script injected on the WiFi link
    /// (robustness runs: burst loss, RTT storms, rate collapse,
    /// disassociation).
    pub fn with_wifi_faults(mut self, faults: FaultScript) -> Self {
        self.wifi = self.wifi.with_faults(faults);
        self
    }

    /// Same config with a server-side fault script (robustness runs:
    /// 5xx bursts, stalled response bodies, slow first byte).
    pub fn with_server_faults(mut self, faults: ServerFaultScript) -> Self {
        self.server_faults = faults;
        self
    }

    /// Same config with a request-lifecycle policy.
    pub fn with_lifecycle(mut self, policy: LifecyclePolicy) -> Self {
        self.lifecycle = policy;
        self
    }

    /// Same config with a multi-origin pool (robustness runs: origin
    /// blackholes, circuit-breaking failover, hedged fetches).
    pub fn with_origins(mut self, pool: OriginPoolConfig) -> Self {
        self.origins = Some(pool);
        self
    }

    /// Same config with a structured-trace sink attached (observe-only;
    /// see the `tracer` field).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Same config with a bounded viewing duration: the session departs
    /// (stops requesting chunks) once it has watched this long, even if
    /// the video has chapters left. Fleet churn draws these per client.
    pub fn with_max_watch(mut self, limit: SimDuration) -> Self {
        self.max_watch = Some(limit);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_trace::table1;

    #[test]
    fn labels() {
        assert_eq!(TransportMode::Vanilla.label(), "Baseline");
        assert_eq!(
            TransportMode::Throttled { kbps: 700 }.label(),
            "Throttle700k"
        );
        assert_eq!(TransportMode::mpdash_rate_based().label(), "Rate");
        assert_eq!(TransportMode::mpdash_duration_based().label(), "Duration");
        assert!(TransportMode::mpdash_rate_based().is_mpdash());
        assert!(!TransportMode::WifiOnly.is_mpdash());
    }

    #[test]
    fn controlled_setup_uses_testbed_rtts_and_priors() {
        let cfg = SessionConfig::controlled(
            table1::synthetic_profile_pair(3.8, 3.0, 0.1, 1),
            AbrKind::Festive,
            TransportMode::Vanilla,
        );
        assert_eq!(cfg.wifi.delay * 2, SimDuration::from_millis(50));
        let (pw, pc) = cfg.priors;
        assert!((pw.as_mbps_f64() - 3.8).abs() < 0.4);
        assert!((pc.as_mbps_f64() - 3.0).abs() < 0.4);
    }

    #[test]
    fn throttle_mode_installs_bucket() {
        let mut cfg = SessionConfig::controlled(
            table1::synthetic_profile_pair(3.8, 3.0, 0.1, 1),
            AbrKind::Gpac,
            TransportMode::Throttled { kbps: 700 },
        );
        assert!(cfg.mode.cell_link(cfg.cell.clone()).throttle.is_some());
        cfg.mode = TransportMode::Vanilla;
        assert!(cfg.mode.cell_link(cfg.cell).throttle.is_none());
    }
}
