//! Radio energy models: LTE RRC/DRX and WiFi PSM.
//!
//! The paper computes radio energy by replaying captured network traces
//! through "the most comprehensive and up-to-date multipath radio energy
//! model" (Nika et al., WWW '15, with the LTE state machine of Huang et
//! al., MobiSys '12) under two device parameter sets — Samsung Galaxy Note
//! and Galaxy S III (§7.1). This crate is that replay engine:
//!
//! * A [`RadioModel`] is the classic burst model: an idle radio pays a
//!   **promotion** cost when traffic arrives, holds a high-power
//!   **active** state while packets flow, lingers at full power through
//!   the RRC **inactivity window** after the last packet (the waste the
//!   paper's Figure 6 "dribbling" analysis hinges on), then drops into
//!   cheap **connected DRX** for the rest of the ~11.6 s LTE tail before
//!   demoting to a near-free idle.
//! * Throughput-dependent transfer energy is charged per megabit on top
//!   of the active-state power.
//! * A [`RadioMeter`] steps the model once per packet as packets arrive,
//!   so a session knows its radios' cost without keeping a capture;
//!   replaying a trace ([`radio_energy`], [`radio_energy_of`]) pushes it
//!   through the same meter.
//! * [`DeviceProfile`] carries one LTE and one WiFi model; both handsets
//!   from the paper are provided. Absolute milliwatt values follow the
//!   published Huang et al. measurements where available and are
//!   documented per field; the *relationships* that drive every result in
//!   the paper (LTE ≫ WiFi, long LTE tail, near-free DRX idle) hold by
//!   construction.
//!
//! Determinism note: given the same packet trace the energy is a pure
//! function — exactly the paper's "replay the trace under different power
//! models" methodology.
//!
//! ```
//! use mpdash_energy::{radio_energy, DeviceProfile};
//! use mpdash_sim::{SimDuration, SimTime};
//!
//! let device = DeviceProfile::galaxy_note();
//! // One 1 MB burst at t = 5 s, accounted over a minute.
//! let trace = [(SimTime::from_secs(5), 1_000_000u64)];
//! let e = radio_energy(&device.lte, &trace, SimDuration::from_secs(60));
//! // Promotion + 1 s inactivity window + DRX + per-bit cost, all > 0.
//! assert!(e.promotion_j > 0.0 && e.active_j > 0.0 && e.drx_j > 0.0);
//! // The same burst on WiFi costs far less (no promotion, short tail).
//! let w = radio_energy(&device.wifi, &trace, SimDuration::from_secs(60));
//! assert!(w.total_j() < e.total_j());
//! ```

use mpdash_sim::{SimDuration, SimTime};

/// Power/timing parameters of one radio.
///
/// The tail is two-stage, following the DRX-aware refinement of Nika et
/// al. that the paper's methodology cites: after the last packet the
/// radio holds **full active power** for the RRC inactivity window
/// (`tail_active`), then drops into **connected DRX** (`drx_time` at
/// `drx_power_mw` — the "only periodical DRX spikes" regime of the
/// paper's §6), and only then demotes to idle. Re-activating from
/// connected DRX is free; only an idle radio pays the promotion.
#[derive(Clone, Copy, Debug)]
pub struct RadioModel {
    /// Power during the idle→active promotion, in milliwatts.
    pub promo_power_mw: f64,
    /// Duration of the promotion.
    pub promo_time: SimDuration,
    /// Power while the radio is actively transferring (and through the
    /// inactivity window), in milliwatts.
    pub active_power_mw: f64,
    /// Extra energy per transferred megabit, in millijoules (the
    /// throughput-dependent term of the Huang et al. regression).
    pub per_mbit_mj: f64,
    /// Full-power dwell after the last packet (RRC inactivity timer;
    /// WiFi: PSM timeout).
    pub tail_active: SimDuration,
    /// Connected-DRX dwell after the inactivity window, before demoting
    /// to idle. Zero for WiFi (PSM sleeps immediately).
    pub drx_time: SimDuration,
    /// Average power during connected DRX, in milliwatts.
    pub drx_power_mw: f64,
    /// Average idle power including periodic paging spikes, in
    /// milliwatts.
    pub idle_power_mw: f64,
}

impl RadioModel {
    /// LTE parameters measured on the Samsung Galaxy Note by Huang et
    /// al. (MobiSys '12): 1210.7 mW × 260.1 ms promotion, ~1060 mW
    /// connected power, an 11.576 s tail (split here per the DRX-aware
    /// refinement into a 1 s full-power inactivity window plus 10.576 s
    /// of connected DRX at ~150 mW average), ≈52 mJ/Mbit downlink
    /// increment, and a ~11 mW average idle (paging spikes included).
    pub fn lte_galaxy_note() -> Self {
        RadioModel {
            promo_power_mw: 1210.7,
            promo_time: SimDuration::from_micros(260_100),
            active_power_mw: 1060.0,
            per_mbit_mj: 52.0,
            tail_active: SimDuration::from_secs(1),
            drx_time: SimDuration::from_micros(10_576_000),
            drx_power_mw: 150.0,
            idle_power_mw: 11.4,
        }
    }

    /// WiFi parameters for the same handset: no promotion to speak of
    /// (association is kept), ~250 mW receive-listen power (the Huang et
    /// al. regression base plus PSM overhead), ≈30 mJ/Mbit (an 802.11n
    /// radio draws well under 1 W even at tens of Mbps — the per-bit term
    /// is an order of magnitude below LTE's, which is the paper's whole
    /// premise for preferring WiFi), a 220 ms PSM-adaptive tail, and
    /// ~10 mW PSM idle.
    pub fn wifi_galaxy_note() -> Self {
        RadioModel {
            promo_power_mw: 0.0,
            promo_time: SimDuration::ZERO,
            active_power_mw: 250.0,
            per_mbit_mj: 30.0,
            tail_active: SimDuration::from_millis(220),
            drx_time: SimDuration::ZERO,
            drx_power_mw: 0.0,
            idle_power_mw: 10.0,
        }
    }

    /// LTE parameters for the Samsung Galaxy S III (same model family,
    /// slightly different constants; the paper reports both devices
    /// "yielding similar results").
    pub fn lte_galaxy_s3() -> Self {
        RadioModel {
            promo_power_mw: 1345.0,
            promo_time: SimDuration::from_micros(250_000),
            active_power_mw: 1120.0,
            per_mbit_mj: 55.0,
            tail_active: SimDuration::from_millis(900),
            drx_time: SimDuration::from_micros(9_300_000),
            drx_power_mw: 165.0,
            idle_power_mw: 12.0,
        }
    }

    /// WiFi parameters for the Galaxy S III.
    pub fn wifi_galaxy_s3() -> Self {
        RadioModel {
            promo_power_mw: 0.0,
            promo_time: SimDuration::ZERO,
            active_power_mw: 270.0,
            per_mbit_mj: 33.0,
            tail_active: SimDuration::from_millis(220),
            drx_time: SimDuration::ZERO,
            drx_power_mw: 0.0,
            idle_power_mw: 10.5,
        }
    }
}

/// One device's radios.
#[derive(Clone, Copy, Debug)]
pub struct DeviceProfile {
    /// Device display name.
    pub name: &'static str,
    /// The cellular radio.
    pub lte: RadioModel,
    /// The WiFi radio.
    pub wifi: RadioModel,
}

impl DeviceProfile {
    /// The paper's primary reporting device (§7.1).
    pub fn galaxy_note() -> Self {
        DeviceProfile {
            name: "Samsung Galaxy Note",
            lte: RadioModel::lte_galaxy_note(),
            wifi: RadioModel::wifi_galaxy_note(),
        }
    }

    /// The paper's cross-check device.
    pub fn galaxy_s3() -> Self {
        DeviceProfile {
            name: "Samsung Galaxy S III",
            lte: RadioModel::lte_galaxy_s3(),
            wifi: RadioModel::wifi_galaxy_s3(),
        }
    }
}

/// Energy breakdown of one radio over one trace, in joules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Promotion transitions.
    pub promotion_j: f64,
    /// Active-state dwell (bursts + full-power inactivity windows).
    pub active_j: f64,
    /// Connected-DRX dwell between bursts.
    pub drx_j: f64,
    /// Throughput-dependent transfer energy.
    pub transfer_j: f64,
    /// Idle (paging/PSM) floor.
    pub idle_j: f64,
}

impl EnergyBreakdown {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.promotion_j + self.active_j + self.drx_j + self.transfer_j + self.idle_j
    }
}

/// Replay a packet trace through a radio model.
///
/// `packets` are `(arrival time, payload bytes)` pairs in non-decreasing
/// time order; `horizon` is the accounting window `[0, horizon]` (idle
/// power is charged for all time not spent promoting or active).
///
/// Burst structure: packets closer together than `tail_active` share one
/// full-power active period ending `tail_active` after the period's last
/// packet (clipped to the horizon). Between active periods the radio sits
/// in connected DRX for up to `drx_time`; a new burst within that window
/// re-activates for free, while a longer gap demotes the radio to idle
/// and the next burst pays a promotion.
pub fn radio_energy(
    model: &RadioModel,
    packets: &[(SimTime, u64)],
    horizon: SimDuration,
) -> EnergyBreakdown {
    radio_energy_of(model, packets.iter().copied(), horizon)
}

/// [`radio_energy`] over any time-ordered source of `(arrival, bytes)`
/// pairs: every packet pushed through a [`RadioMeter`], which is the one
/// implementation of the model.
pub fn radio_energy_of(
    model: &RadioModel,
    packets: impl Iterator<Item = (SimTime, u64)>,
    horizon: SimDuration,
) -> EnergyBreakdown {
    let mut meter = RadioMeter::new(*model);
    for (t, bytes) in packets {
        meter.push(t, bytes);
    }
    meter.finish(horizon)
}

/// One radio's energy, metered as its packets arrive: the RRC machine of
/// [`radio_energy`] stepped once per packet, so a session needs no
/// packet capture to know what its radios cost.
///
/// What it keeps is what the horizon, known only at the end, still
/// clips: one `(first, last)` arrival pair per active period (a burst
/// of packets closer together than the inactivity window) and the byte
/// total. A burst is a chunk's download, so this is a few pairs a chunk,
/// never a record a packet. The total is an integer converted once,
/// which equals summing each packet's `bytes × 8` as floats because
/// every partial sum stays below 2^53 bits.
#[derive(Clone, Debug)]
pub struct RadioMeter {
    model: RadioModel,
    /// `(first, last)` arrival of each active period, in time order.
    bursts: Vec<(SimTime, SimTime)>,
    bytes: u64,
}

impl RadioMeter {
    /// A radio that has seen no packet (it starts idle).
    pub fn new(model: RadioModel) -> Self {
        RadioMeter {
            model,
            bursts: Vec::new(),
            bytes: 0,
        }
    }

    /// One packet of `bytes` at `t`, no earlier than the packet before:
    /// it extends the current active period when it lands within the
    /// full-power inactivity window, and opens the next one otherwise.
    pub fn push(&mut self, t: SimTime, bytes: u64) {
        match self.bursts.last_mut() {
            Some((_, last)) if t.saturating_since(*last) <= self.model.tail_active => {
                debug_assert!(*last <= t, "packet trace must be time-ordered");
                *last = t;
            }
            _ => self.bursts.push((t, t)),
        }
        self.bytes += bytes;
    }

    /// The breakdown over the accounting window `[0, horizon]`; the
    /// meter is unchanged, so it can be read at any horizon.
    pub fn finish(&self, horizon: SimDuration) -> EnergyBreakdown {
        let model = &self.model;
        let horizon_end = SimTime::ZERO + horizon;
        let mut active_time = SimDuration::ZERO;
        let mut drx_time = SimDuration::ZERO;
        let mut promotions = 0u64;
        // The connected-DRX dwell after an active period ending at
        // `drx_start`, clipped to the horizon.
        let drx_window = |drx_start: SimTime| {
            (drx_start + model.drx_time)
                .min(horizon_end)
                .saturating_since(drx_start)
        };

        // End of the previous active period (exclusive), i.e. where its
        // connected-DRX window starts. `None` before the first burst (the
        // radio starts idle).
        let mut prev_active_end: Option<SimTime> = None;
        for &(burst_start, burst_last) in &self.bursts {
            let active_end = (burst_last + model.tail_active).min(horizon_end);
            if active_end > burst_start {
                active_time += active_end - burst_start;
            }
            // Was the radio still in connected DRX when this burst started?
            match prev_active_end {
                Some(drx_start) if burst_start <= drx_start + model.drx_time => {
                    // Re-activated from DRX: charge the DRX dwell, no promo.
                    drx_time += burst_start.saturating_since(drx_start);
                }
                _ => {
                    // Came from idle: charge the previous burst's full DRX
                    // window (if any) and pay the promotion.
                    drx_time += prev_active_end.map_or(SimDuration::ZERO, drx_window);
                    promotions += 1;
                }
            }
            prev_active_end = Some(active_end);
        }
        // Trailing DRX window of the final burst.
        drx_time += prev_active_end.map_or(SimDuration::ZERO, drx_window);

        let total_bits = (self.bytes * 8) as f64;
        let promo_time = model.promo_time.mul_f64(promotions as f64);
        let idle = horizon
            .saturating_sub(active_time)
            .saturating_sub(drx_time)
            .saturating_sub(promo_time);
        EnergyBreakdown {
            promotion_j: promotions as f64 * model.promo_power_mw * model.promo_time.as_secs_f64()
                / 1_000.0,
            active_j: model.active_power_mw * active_time.as_secs_f64() / 1_000.0,
            drx_j: model.drx_power_mw * drx_time.as_secs_f64() / 1_000.0,
            transfer_j: total_bits / 1e6 * model.per_mbit_mj / 1_000.0,
            idle_j: model.idle_power_mw * idle.as_secs_f64() / 1_000.0,
        }
    }
}

/// Combined WiFi + LTE radio energy of one streaming session.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SessionEnergy {
    /// WiFi radio breakdown.
    pub wifi: EnergyBreakdown,
    /// LTE radio breakdown.
    pub lte: EnergyBreakdown,
}

impl SessionEnergy {
    /// Total joules across both radios.
    pub fn total_j(&self) -> f64 {
        self.wifi.total_j() + self.lte.total_j()
    }
}

/// Replay both radios of `device` over per-path traces.
pub fn session_energy(
    device: &DeviceProfile,
    wifi_packets: &[(SimTime, u64)],
    lte_packets: &[(SimTime, u64)],
    horizon: SimDuration,
) -> SessionEnergy {
    SessionEnergy {
        wifi: radio_energy(&device.wifi, wifi_packets, horizon),
        lte: radio_energy(&device.lte, lte_packets, horizon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn idle_trace_costs_only_idle_power() {
        let m = RadioModel::lte_galaxy_note();
        let e = radio_energy(&m, &[], SimDuration::from_secs(100));
        assert_eq!(e.promotion_j, 0.0);
        assert_eq!(e.active_j, 0.0);
        assert_eq!(e.transfer_j, 0.0);
        assert!((e.idle_j - 11.4 * 100.0 / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn single_packet_pays_promotion_inactivity_and_drx() {
        let m = RadioModel::lte_galaxy_note();
        let e = radio_energy(&m, &[(t(10.0), 1460)], SimDuration::from_secs(60));
        assert!(e.promotion_j > 0.0);
        // Full power through the 1 s inactivity window...
        assert!((e.active_j - 1.060 * 1.0).abs() < 1e-6, "{:?}", e);
        // ...then 10.576 s of connected DRX at 150 mW.
        assert!((e.drx_j - 0.150 * 10.576).abs() < 1e-6, "{:?}", e);
        assert!(e.transfer_j > 0.0);
    }

    #[test]
    fn drx_reactivation_needs_no_promotion() {
        let m = RadioModel::lte_galaxy_note();
        // Packets every 2 s for 20 s: each gap exceeds the 1 s inactivity
        // window but sits well inside connected DRX -> one promotion, 11
        // short active periods, DRX between them.
        let pkts: Vec<_> = (0..11).map(|i| (t(i as f64 * 2.0), 1000u64)).collect();
        let e = radio_energy(&m, &pkts, SimDuration::from_secs(60));
        assert!(
            (e.promotion_j - 1.2107 * 0.2601).abs() < 1e-6,
            "exactly one promotion: {:?}",
            e
        );
        // 11 active periods of 1 s (packet + inactivity window) each.
        assert!((e.active_j - 1.060 * 11.0).abs() < 0.05, "{:?}", e);
        // DRX: 10 gaps of 1 s between periods + the trailing full window.
        assert!((e.drx_j - 0.150 * (10.0 + 10.576)).abs() < 0.05, "{:?}", e);
    }

    #[test]
    fn distant_bursts_pay_two_promotions() {
        let m = RadioModel::lte_galaxy_note();
        // 40 s apart: beyond inactivity (1 s) + DRX (10.576 s) -> idle
        // demotion between bursts, so the second burst pays a promotion.
        let pkts = [(t(0.0), 1000u64), (t(40.0), 1000u64)];
        let e = radio_energy(&m, &pkts, SimDuration::from_secs(60));
        assert!((e.promotion_j - 2.0 * 1.2107 * 0.2601).abs() < 1e-6);
    }

    #[test]
    fn transfer_energy_scales_with_bytes() {
        let m = RadioModel::lte_galaxy_note();
        let small = radio_energy(&m, &[(t(0.0), 1_000_000)], SimDuration::from_secs(30));
        let large = radio_energy(&m, &[(t(0.0), 10_000_000)], SimDuration::from_secs(30));
        assert!((large.transfer_j / small.transfer_j - 10.0).abs() < 1e-9);
        // 1 MB = 8 Mbit at 52 mJ/Mbit = 0.416 J.
        assert!((small.transfer_j - 0.416).abs() < 1e-9);
    }

    #[test]
    fn tail_clipped_at_horizon() {
        let m = RadioModel::lte_galaxy_note();
        let e = radio_energy(&m, &[(t(59.5), 1000)], SimDuration::from_secs(60));
        // Only 0.5 s of the inactivity window fits before the horizon,
        // and no DRX at all.
        assert!((e.active_j - 1.060 * 0.5).abs() < 1e-6, "{:?}", e);
        assert_eq!(e.drx_j, 0.0);
        assert!(e.idle_j > 0.0);
    }

    #[test]
    fn dribbling_costs_more_than_bursting() {
        // The Figure 6 effect: the same bytes trickled slowly keep the
        // radio's tail alive continuously; sent fast, the radio sleeps.
        let m = RadioModel::lte_galaxy_note();
        let horizon = SimDuration::from_secs(120);
        // Dribble: 1 packet every 5 s for 100 s (gaps < tail → always on).
        let dribble: Vec<_> = (0..21).map(|i| (t(i as f64 * 5.0), 50_000u64)).collect();
        // Burst: all ~1 MB at t=0.
        let burst: Vec<_> = (0..21).map(|_| (t(0.5), 50_000u64)).collect();
        let e_dribble = radio_energy(&m, &dribble, horizon);
        let e_burst = radio_energy(&m, &burst, horizon);
        assert!(
            e_dribble.total_j() > 2.0 * e_burst.total_j(),
            "dribble {:.1} J vs burst {:.1} J",
            e_dribble.total_j(),
            e_burst.total_j()
        );
    }

    #[test]
    fn lte_costs_more_than_wifi_for_the_same_trace() {
        let d = DeviceProfile::galaxy_note();
        // Continuous 10 s transfer: LTE's higher active power wins but the
        // gap is modest (per-bit costs are comparable during bulk flow).
        let pkts: Vec<_> = (0..100).map(|i| (t(i as f64 * 0.1), 100_000u64)).collect();
        let horizon = SimDuration::from_secs(60);
        let lte = radio_energy(&d.lte, &pkts, horizon);
        let wifi = radio_energy(&d.wifi, &pkts, horizon);
        assert!(lte.total_j() > wifi.total_j());
    }

    #[test]
    fn bursty_traffic_makes_lte_disproportionately_expensive() {
        // The paper's core energy argument: sparse chunk fetches keep the
        // LTE radio tail alive (11.6 s per burst) while WiFi drops back to
        // PSM within 220 ms. Same bytes, very different bills.
        let d = DeviceProfile::galaxy_note();
        let pkts: Vec<_> = (0..8).map(|i| (t(i as f64 * 15.0), 500_000u64)).collect();
        let horizon = SimDuration::from_secs(120);
        let lte = radio_energy(&d.lte, &pkts, horizon);
        let wifi = radio_energy(&d.wifi, &pkts, horizon);
        assert!(
            lte.total_j() > 3.0 * wifi.total_j(),
            "lte {:.1} J vs wifi {:.1} J",
            lte.total_j(),
            wifi.total_j()
        );
    }

    #[test]
    fn devices_yield_similar_but_not_identical_results() {
        let pkts: Vec<_> = (0..50).map(|i| (t(i as f64), 500_000u64)).collect();
        let horizon = SimDuration::from_secs(120);
        let note = session_energy(&DeviceProfile::galaxy_note(), &pkts, &pkts, horizon);
        let s3 = session_energy(&DeviceProfile::galaxy_s3(), &pkts, &pkts, horizon);
        let ratio = note.total_j() / s3.total_j();
        assert!(ratio > 0.8 && ratio < 1.2, "ratio {ratio}");
        assert_ne!(note.total_j(), s3.total_j());
    }

    #[test]
    fn session_energy_sums_radios() {
        let d = DeviceProfile::galaxy_note();
        let wifi = [(t(1.0), 1_000_000u64)];
        let lte = [(t(2.0), 2_000_000u64)];
        let s = session_energy(&d, &wifi, &lte, SimDuration::from_secs(30));
        assert!((s.total_j() - s.wifi.total_j() - s.lte.total_j()).abs() < 1e-12);
        assert!(s.lte.total_j() > s.wifi.total_j());
    }
}
