//! [`FileTransfer`]: the §7.2 single-file deadline download.
//!
//! The paper evaluates the MP-DASH scheduler in isolation before adding
//! video: a client fetches one blob (5 MB in the motivating setup) with a
//! hard deadline over WiFi + LTE, and the metrics are download time,
//! cellular bytes, and radio energy (Figure 4). This driver reproduces
//! that: one `send_app` worth of bytes, Algorithm 1 toggling the cellular
//! subflow from a 50 ms progress tick, radio energy metered per packet.
//!
//! It is also the general-purpose face of MP-DASH the paper's §8 points
//! at (music prefetch, map tiles, deferred offload): any delay-tolerant
//! transfer with a deadline.

use crate::accounting::EnergyMeter;
use crate::config::{TransportMode, SAMPLE_SLOT};
use crate::signal::DeadlineSignal;
use mpdash_core::deadline::SchedulerParams;
use mpdash_core::predict::PredictorKind;
use mpdash_core::MpDashControl;
use mpdash_energy::{DeviceProfile, SessionEnergy};
use mpdash_link::{LinkConfig, PathId};
use mpdash_mptcp::{CcKind, SchedulerSpec, StepOutcome};
use mpdash_sim::{Rate, SimDuration, SimTime};

const TICK: SimDuration = SimDuration::from_millis(50);

const TICK_ID: u64 = u64::MAX - 11;

/// Configuration of one deadline transfer.
#[derive(Clone, Debug)]
pub struct FileTransferConfig {
    /// WiFi link.
    pub wifi: LinkConfig,
    /// Cellular link.
    pub cell: LinkConfig,
    /// Transfer size in bytes.
    pub size: u64,
    /// Delivery deadline (window from t = 0).
    pub deadline: SimDuration,
    /// Transport policy (MP-DASH α lives inside
    /// [`TransportMode::MpDash`]; its deadline mode is ignored here —
    /// file transfers have an explicit window).
    pub mode: TransportMode,
    /// MPTCP packet scheduler.
    pub scheduler: SchedulerSpec,
    /// Subflow congestion control.
    pub cc: CcKind,
    /// Device whose radios are metered.
    pub device: DeviceProfile,
    /// Estimator priors `(wifi, cell)`.
    pub priors: (Rate, Rate),
    /// Structured-trace sink; disabled by default. Strictly observe-only.
    pub tracer: mpdash_obs::Tracer,
}

impl FileTransferConfig {
    /// The §7.2 testbed: WiFi/LTE at the given Mbps (50/55 ms RTT),
    /// 5 MB default size.
    pub fn testbed(wifi_mbps: f64, cell_mbps: f64, mode: TransportMode) -> Self {
        FileTransferConfig {
            wifi: LinkConfig::constant(wifi_mbps, SimDuration::from_millis(25)),
            cell: LinkConfig::constant(cell_mbps, SimDuration::from_micros(27_500)),
            size: 5_000_000,
            deadline: SimDuration::from_secs(10),
            mode,
            scheduler: SchedulerSpec::MinRtt,
            cc: CcKind::Reno,
            device: DeviceProfile::galaxy_note(),
            priors: (
                Rate::from_mbps_f64(wifi_mbps),
                Rate::from_mbps_f64(cell_mbps),
            ),
            tracer: mpdash_obs::Tracer::disabled(),
        }
    }

    /// Same config with another deadline.
    pub fn with_deadline(mut self, d: SimDuration) -> Self {
        self.deadline = d;
        self
    }

    /// Same config with another size.
    pub fn with_size(mut self, bytes: u64) -> Self {
        self.size = bytes;
        self
    }

    /// Same config with another packet scheduler.
    pub fn with_scheduler(mut self, s: SchedulerSpec) -> Self {
        self.scheduler = s;
        self
    }
}

/// Results of one deadline transfer.
#[derive(Clone, Debug)]
pub struct FileTransferReport {
    /// Completion time.
    pub duration: SimDuration,
    /// Bytes over WiFi (retransmissions included).
    pub wifi_bytes: u64,
    /// Bytes over cellular.
    pub cell_bytes: u64,
    /// Whether the deadline was missed.
    pub missed_deadline: bool,
    /// Radio energy (horizon = completion + one LTE tail, so tail costs
    /// are comparable across modes).
    pub energy: SessionEnergy,
    /// Cellular on/off transitions by the scheduler.
    pub toggles: u64,
    /// Simulator profile (events popped / peak queue depth); deterministic,
    /// never serialized into artifacts.
    pub sim_profile: crate::report::SimProfile,
}

/// The deadline-transfer driver. See module docs.
pub struct FileTransfer;

impl FileTransfer {
    /// Run one transfer to completion.
    pub fn run(cfg: FileTransferConfig) -> FileTransferReport {
        let mut sim = cfg
            .mode
            .connect((cfg.wifi, cfg.cell), cfg.scheduler, cfg.cc, cfg.tracer);
        // The report carries no capture, so the transfer keeps none.
        sim.set_logging(false);
        let mut signal = match cfg.mode {
            TransportMode::MpDash { alpha, .. } => {
                let mut c = MpDashControl::new(
                    vec![0.0, 1.0],
                    vec![cfg.priors.0, cfg.priors.1],
                    SchedulerParams::with_alpha(alpha).with_debounce(4),
                    SAMPLE_SLOT,
                    PredictorKind::control_default(),
                );
                sim.set_initial_mask(c.mp_dash_enable(SimTime::ZERO, cfg.size, cfg.deadline));
                Some(DeadlineSignal::new(c))
            }
            _ => None,
        };

        sim.send_app(cfg.size);
        if signal.is_some() {
            sim.schedule_app_tick(SimTime::ZERO + TICK, TICK_ID);
        }

        let mut energy = EnergyMeter::new(&cfg.device, SimTime::ZERO);
        let mut done_at = SimTime::ZERO;
        while sim.delivered() < cfg.size {
            let Some((t, outcome)) = sim.step() else {
                panic!("transfer stalled at {}/{} bytes", sim.delivered(), cfg.size);
            };
            done_at = t;
            if let Some(r) = sim.arrival() {
                energy.on_arrival(r);
                if let Some(signal) = signal.as_mut() {
                    signal.on_arrival(r);
                }
            }
            if let Some(signal) = signal.as_mut() {
                if let Some(enabled) = signal.on_progress(&sim, t, sim.delivered()) {
                    sim.set_desired_mask(enabled);
                }
                if matches!(outcome, StepOutcome::AppTimer { id: TICK_ID }) {
                    sim.schedule_app_tick(t + TICK, TICK_ID);
                }
            }
        }

        let duration = done_at.saturating_since(SimTime::ZERO);
        let horizon = duration + SimDuration::from_secs(15);
        FileTransferReport {
            duration,
            wifi_bytes: sim.path_bytes(PathId::WIFI),
            cell_bytes: sim.path_bytes(PathId::CELLULAR),
            missed_deadline: duration > cfg.deadline,
            energy: energy.finish(horizon),
            toggles: signal.map_or(0, |s| s.control.stats().toggles),
            sim_profile: crate::report::SimProfile::of(&sim),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's motivating numbers: 5 MB, WiFi 3.8 / LTE 3.0.
    fn base(mode: TransportMode) -> FileTransferConfig {
        FileTransferConfig::testbed(3.8, 3.0, mode)
    }

    #[test]
    fn vanilla_finishes_in_about_six_seconds() {
        let r = FileTransfer::run(base(TransportMode::Vanilla));
        let secs = r.duration.as_secs_f64();
        assert!(secs > 5.0 && secs < 7.5, "took {secs:.2} s (paper: ~6 s)");
        // Roughly proportional split: LTE carries ~40%.
        let cell_share = r.cell_bytes as f64 / (r.wifi_bytes + r.cell_bytes) as f64;
        assert!(cell_share > 0.3, "cell share {cell_share:.2}");
    }

    #[test]
    fn wifi_only_takes_about_ten_and_a_half_seconds() {
        let r = FileTransfer::run(base(TransportMode::WifiOnly));
        let secs = r.duration.as_secs_f64();
        assert!(
            secs > 10.0 && secs < 12.5,
            "took {secs:.2} s (paper: ~10.5 s)"
        );
        assert_eq!(r.cell_bytes, 0);
    }

    #[test]
    fn mpdash_meets_deadlines_with_deadline_scaled_savings() {
        let base_report = FileTransfer::run(base(TransportMode::Vanilla));
        let mut cells = Vec::new();
        for d in [8u64, 9, 10] {
            let r = FileTransfer::run(
                base(TransportMode::mpdash_rate_based()).with_deadline(SimDuration::from_secs(d)),
            );
            assert!(
                !r.missed_deadline,
                "deadline {d} s missed at {:.2} s",
                r.duration.as_secs_f64()
            );
            assert!(
                r.cell_bytes < base_report.cell_bytes,
                "deadline {d}: {} vs baseline {}",
                r.cell_bytes,
                base_report.cell_bytes
            );
            cells.push(r.cell_bytes);
        }
        // Figure 4: the longer the deadline, the larger the saving.
        assert!(cells[0] > cells[1] && cells[1] > cells[2], "{cells:?}");
        // 10 s deadline: paper reports 68% cellular saving; require >50%.
        let saving = 1.0 - cells[2] as f64 / base_report.cell_bytes as f64;
        assert!(saving > 0.5, "10 s saving {saving:.2}");
    }

    #[test]
    fn round_robin_scheduler_also_benefits() {
        let b = FileTransfer::run(
            base(TransportMode::Vanilla).with_scheduler(SchedulerSpec::RoundRobin),
        );
        let m = FileTransfer::run(
            base(TransportMode::mpdash_rate_based()).with_scheduler(SchedulerSpec::RoundRobin),
        );
        assert!(!m.missed_deadline);
        assert!(m.cell_bytes < b.cell_bytes / 2);
    }

    #[test]
    fn smaller_alpha_uses_more_cellular_but_finishes_earlier() {
        let tight = FileTransfer::run(FileTransferConfig::testbed(
            3.8,
            3.0,
            TransportMode::MpDash {
                deadline: mpdash_dash::adapter::DeadlineMode::Rate,
                alpha: 0.8,
            },
        ));
        let relaxed = FileTransfer::run(base(TransportMode::mpdash_rate_based()));
        assert!(!tight.missed_deadline);
        assert!(
            tight.cell_bytes > relaxed.cell_bytes,
            "α=0.8 {} vs α=1 {}",
            tight.cell_bytes,
            relaxed.cell_bytes
        );
        assert!(tight.duration <= relaxed.duration + SimDuration::from_secs(1));
    }

    #[test]
    fn infeasible_deadline_is_missed_and_reported() {
        let r = FileTransfer::run(
            base(TransportMode::mpdash_rate_based()).with_deadline(SimDuration::from_secs(2)),
        );
        assert!(r.missed_deadline, "5 MB over 6.8 Mbps cannot make 2 s");
        // It still completes (both paths on after the miss).
        assert!(r.wifi_bytes + r.cell_bytes >= 5_000_000);
    }

    #[test]
    fn mpdash_saves_energy_too() {
        let b = FileTransfer::run(base(TransportMode::Vanilla));
        let m = FileTransfer::run(
            base(TransportMode::mpdash_rate_based()).with_deadline(SimDuration::from_secs(10)),
        );
        assert!(
            m.energy.total_j() < b.energy.total_j(),
            "mp {:.1} J vs base {:.1} J",
            m.energy.total_j(),
            b.energy.total_j()
        );
    }
}
