//! Shapes several experiments share: the shortened Big Buck Bunny clip,
//! the two-way transport-mode axis, the contended AP + sector fleet, and
//! the "saving versus baseline" table cell.

use mpdash_dash::abr::AbrKind;
use mpdash_dash::video::Video;
use mpdash_fleet::{FleetConfig, SharedLinkSpec};
use mpdash_link::SharedBottleneckConfig;
use mpdash_results::pct;
use mpdash_session::{SessionConfig, SessionReport, TransportMode};
use mpdash_sim::SimDuration;
use mpdash_trace::table1;

/// Big Buck Bunny's five-rung ladder in 4 s chunks, cut to `n_chunks` so
/// a sweep of many sessions stays quick. The name seeds the VBR chunk
/// sizes, so every experiment keeps its own.
pub(crate) fn bbb_clip(name: &str, n_chunks: usize) -> Video {
    Video::new(
        name,
        &[0.58, 1.01, 1.47, 2.41, 3.94],
        SimDuration::from_secs(4),
        n_chunks,
    )
}

/// The paper's three controlled network conditions (§7.3.2): name, WiFi
/// Mbps, LTE Mbps.
pub(crate) const CONDITIONS: [(&str, f64, f64); 3] = [
    ("W3.8/L3.0", 3.8, 3.0),
    ("W2.8/L3.0", 2.8, 3.0),
    ("W2.2/L1.2", 2.2, 1.2),
];

/// A session in the paper's controlled testbed (§7.3.2): synthetic
/// WiFi/LTE profiles around the given means with 10% noise, one seed for
/// every experiment so their baselines coincide.
pub(crate) fn controlled(
    wifi_mbps: f64,
    lte_mbps: f64,
    abr: AbrKind,
    mode: TransportMode,
) -> SessionConfig {
    let profiles = table1::synthetic_profile_pair(wifi_mbps, lte_mbps, 0.10, 42);
    SessionConfig::controlled(profiles, abr, mode)
}

/// The mode axis of the grids beyond the paper, with its table names:
/// vanilla MPTCP first (folds baseline against it), then MP-DASH with
/// rate-based deadlines.
pub(crate) fn vanilla_and_mpdash() -> [(&'static str, TransportMode); 2] {
    [
        ("vanilla", TransportMode::Vanilla),
        ("mpdash", TransportMode::mpdash_rate_based()),
    ]
}

/// One client of a shared-bottleneck fleet: FESTIVE over private access
/// links fast enough (50 / 30 Mbps) that the shared links are the only
/// bottleneck, streaming a 20-chunk clip — shorter videos are dominated
/// by the ABR ramp transient rather than the steady state.
pub(crate) fn fleet_client(video_name: &str, mode: TransportMode) -> SessionConfig {
    SessionConfig::controlled_mbps(50.0, 30.0, AbrKind::Festive, mode)
        .with_video(bbb_clip(video_name, 20))
}

/// `clients` copies of `base` behind one WiFi AP and one cellular
/// sector, started 1 s apart. Heterogeneous RTTs (client k: +10k ms
/// one-way) are what let a FIFO queue's RTT bias show.
pub(crate) fn contended_fleet(
    base: SessionConfig,
    clients: usize,
    ap: SharedBottleneckConfig,
    sector: SharedBottleneckConfig,
) -> FleetConfig {
    FleetConfig::new(base, clients)
        .with_stagger(SimDuration::from_secs(1))
        .with_rtt_skew(SimDuration::from_millis(10))
        .with_seed(11)
        .with_shared(SharedLinkSpec::wifi_ap(ap))
        .with_shared(SharedLinkSpec::cell_sector(sector))
}

/// Chunk-log deadline misses: chunks the scheduler granted a window
/// that took longer than the window to arrive. Policy-independent
/// (unlike the in-scheduler counter, it sees resumed chunks complete),
/// so it is the fair basis for comparing lifecycle policies and serving
/// strategies.
pub(crate) fn log_deadline_misses(r: &SessionReport) -> u64 {
    r.chunks
        .iter()
        .filter(|c| match c.deadline {
            Some(d) => c.completed.saturating_since(c.started) > d,
            None => false,
        })
        .count() as u64
}

/// A "saving versus baseline" table cell: `saving(variant, baseline)` as
/// a percentage, or `-` on the baseline's own row (`r` *is* `base`, the
/// same grid cell).
pub(crate) fn vs_base<T>(r: &T, base: &T, saving: impl Fn(&T, &T) -> f64) -> String {
    if std::ptr::eq(r, base) {
        "-".into()
    } else {
        pct(saving(r, base))
    }
}
