//! Per-subflow congestion control: Reno and CUBIC.
//!
//! The paper runs *decoupled* congestion control — each subflow manages its
//! own window independently, the standard configuration for mobile
//! multipath where WiFi and cellular do not share a bottleneck (§2.1).
//! Reno is the default used by every experiment; CUBIC (the Linux default)
//! is provided for the ablation benches.
//!
//! Windows are tracked in fractional bytes so congestion-avoidance growth
//! (`MSS²/cwnd` per ACK) accumulates exactly.

use crate::packet::MSS;
use mpdash_sim::{SimDuration, SimTime};

/// Initial congestion window: 10 segments (RFC 6928).
pub(crate) const INIT_CWND: f64 = (10 * MSS) as f64;
/// Lower bound on the window after any loss response.
pub(crate) const MIN_CWND: f64 = (2 * MSS) as f64;

/// Which congestion-control algorithm a subflow runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CcKind {
    /// TCP NewReno-style AIMD: the paper's evaluation configuration.
    Reno,
    /// CUBIC window growth (RFC 8312), the Linux default; provided for
    /// ablation experiments.
    Cubic,
}

/// Congestion-control state for one subflow.
#[derive(Clone, Debug)]
pub(crate) struct CongestionControl {
    kind: CcKind,
    /// Congestion window in bytes.
    cwnd: f64,
    /// Slow-start threshold in bytes.
    ssthresh: f64,
    // --- CUBIC state (unused for Reno) ---
    /// Window size just before the last reduction, in bytes.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<SimTime>,
    /// Time (seconds) for the cubic to return to `w_max`.
    k: f64,
}

/// CUBIC scaling constant (RFC 8312), in MSS/s³.
const CUBIC_C: f64 = 0.4;
/// CUBIC multiplicative decrease factor.
const CUBIC_BETA: f64 = 0.7;
/// Reno multiplicative decrease factor.
const RENO_BETA: f64 = 0.5;

impl CongestionControl {
    /// Fresh state: initial window, unbounded slow-start threshold.
    pub(crate) fn new(kind: CcKind) -> Self {
        CongestionControl {
            kind,
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
        }
    }

    /// Current congestion window in whole bytes.
    pub(crate) fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// True while in slow start.
    pub(crate) fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Window growth on a cumulative ACK of `acked` new bytes.
    ///
    /// `in_recovery` freezes growth (we model NewReno recovery without
    /// window inflation: the window was already set to `ssthresh` at the
    /// loss and stays there until recovery exits). `srtt` feeds CUBIC's
    /// target computation; Reno ignores it.
    pub(crate) fn on_ack(
        &mut self,
        now: SimTime,
        acked: u64,
        in_recovery: bool,
        srtt: SimDuration,
    ) {
        if in_recovery {
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: one byte per byte acked (doubles per RTT),
            // clamped so a huge stretch-ACK cannot overshoot ssthresh by
            // more than the acked amount.
            self.cwnd = (self.cwnd + acked as f64).min(self.ssthresh.max(self.cwnd));
            self.epoch_start = None;
            return;
        }
        match self.kind {
            CcKind::Reno => {
                // Congestion avoidance: MSS per window per RTT,
                // byte-counted: MSS * acked / cwnd.
                self.cwnd += MSS as f64 * acked as f64 / self.cwnd;
            }
            CcKind::Cubic => {
                let mss = MSS as f64;
                let t0 = *self.epoch_start.get_or_insert_with(|| {
                    // New epoch: compute K from the distance to w_max.
                    let wmax_mss = (self.w_max.max(self.cwnd)) / mss;
                    let cwnd_mss = self.cwnd / mss;
                    self.k = ((wmax_mss - cwnd_mss).max(0.0) / CUBIC_C).cbrt();
                    now
                });
                let t = now.saturating_since(t0).as_secs_f64() + srtt.as_secs_f64();
                let wmax_mss = self.w_max.max(self.cwnd) / mss;
                let target_mss = CUBIC_C * (t - self.k).powi(3) + wmax_mss;
                let target = (target_mss * mss).max(self.cwnd);
                // Approach the cubic target at most one MSS per cwnd of
                // acked data, like the kernel's per-ACK increment.
                let incr = ((target - self.cwnd) / self.cwnd) * acked as f64;
                self.cwnd += incr.clamp(0.0, mss * acked as f64 / self.cwnd);
            }
        }
    }

    /// Multiplicative decrease on fast retransmit (triple duplicate ACK).
    /// Returns the new window.
    pub(crate) fn on_fast_retransmit(&mut self, in_flight: u64) -> u64 {
        let beta = match self.kind {
            CcKind::Reno => RENO_BETA,
            CcKind::Cubic => CUBIC_BETA,
        };
        self.w_max = self.cwnd;
        self.ssthresh = (in_flight as f64 * beta).max(MIN_CWND);
        self.cwnd = self.ssthresh;
        self.epoch_start = None;
        self.cwnd as u64
    }

    /// Collapse on retransmission timeout.
    pub(crate) fn on_rto(&mut self, in_flight: u64) {
        let beta = match self.kind {
            CcKind::Reno => RENO_BETA,
            CcKind::Cubic => CUBIC_BETA,
        };
        self.w_max = self.cwnd;
        self.ssthresh = (in_flight as f64 * beta).max(MIN_CWND);
        self.cwnd = MSS as f64;
        self.epoch_start = None;
    }

    /// Leave slow start without a loss (HyStart-style delay signal): the
    /// subflow observed RTT inflation, meaning the bottleneck queue is
    /// filling. Sets `ssthresh` to the current window so growth continues
    /// linearly. Without this, slow start overshoots the drop-tail queue
    /// by up to a full window and NewReno spends one RTT per lost segment
    /// recovering — a pathology modern kernels avoid the same way.
    pub(crate) fn exit_slow_start(&mut self) {
        if self.in_slow_start() {
            self.ssthresh = self.cwnd;
            self.epoch_start = None;
        }
    }

    /// Window validation after an application-idle period (RFC 2861
    /// spirit): restart from the initial window rather than blasting a
    /// stale window into the queue. DASH traffic is exactly the ON/OFF
    /// pattern this matters for (Figure 1's idle gaps).
    pub(crate) fn on_idle_restart(&mut self) {
        self.cwnd = self.cwnd.min(INIT_CWND);
        self.epoch_start = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rtt() -> SimDuration {
        SimDuration::from_millis(50)
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut cc = CongestionControl::new(CcKind::Reno);
        let w0 = cc.cwnd();
        // Ack a full window: cwnd doubles.
        cc.on_ack(SimTime::ZERO, w0, false, rtt());
        assert_eq!(cc.cwnd(), 2 * w0);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn recovery_freezes_growth() {
        let mut cc = CongestionControl::new(CcKind::Reno);
        let w0 = cc.cwnd();
        cc.on_ack(SimTime::ZERO, w0, true, rtt());
        assert_eq!(cc.cwnd(), w0);
    }

    #[test]
    fn fast_retransmit_halves_reno() {
        let mut cc = CongestionControl::new(CcKind::Reno);
        // Grow a bit first.
        cc.on_ack(SimTime::ZERO, 100_000, false, rtt());
        let in_flight = cc.cwnd();
        let new = cc.on_fast_retransmit(in_flight);
        assert_eq!(new, (in_flight as f64 * 0.5) as u64);
        assert!(!cc.in_slow_start());
    }

    #[test]
    fn cubic_reduces_by_thirty_percent() {
        let mut cc = CongestionControl::new(CcKind::Cubic);
        cc.on_ack(SimTime::ZERO, 200_000, false, rtt());
        let in_flight = cc.cwnd();
        let new = cc.on_fast_retransmit(in_flight);
        assert_eq!(new, (in_flight as f64 * 0.7) as u64);
    }

    #[test]
    fn rto_collapses_to_one_mss() {
        let mut cc = CongestionControl::new(CcKind::Reno);
        cc.on_ack(SimTime::ZERO, 100_000, false, rtt());
        cc.on_rto(cc.cwnd());
        assert_eq!(cc.cwnd(), MSS);
        assert!(cc.in_slow_start(), "RTO re-enters slow start");
        assert!(cc.ssthresh >= MIN_CWND);
    }

    #[test]
    fn floor_is_two_mss() {
        let mut cc = CongestionControl::new(CcKind::Reno);
        cc.on_fast_retransmit(100); // tiny in-flight
        assert_eq!(cc.cwnd(), 2 * MSS);
    }

    #[test]
    fn congestion_avoidance_is_linear_per_rtt() {
        let mut cc = CongestionControl::new(CcKind::Reno);
        // Force CA by taking a loss.
        cc.on_fast_retransmit(cc.cwnd());
        let w = cc.cwnd();
        // Ack one full window worth: growth ≈ 1 MSS.
        let mut acked = 0;
        let mut t = SimTime::ZERO;
        while acked < w {
            cc.on_ack(t, MSS, false, rtt());
            acked += MSS;
            t += SimDuration::from_millis(1);
        }
        let grown = cc.cwnd() - w;
        // Growth per window-acked is ~1 MSS; slightly under because the
        // divisor (cwnd) grows as the window inflates during the pass.
        assert!(
            (MSS * 9 / 10..=MSS + 200).contains(&grown),
            "CA grew {grown} bytes per window"
        );
    }

    #[test]
    fn cubic_grows_toward_wmax_then_beyond() {
        let mut cc = CongestionControl::new(CcKind::Cubic);
        // Build a moderate window (4 doublings from 10 MSS ≈ 160 MSS),
        // then take a loss.
        for _ in 0..4 {
            cc.on_ack(SimTime::ZERO, cc.cwnd(), false, rtt());
        }
        let before_loss = cc.cwnd();
        cc.on_fast_retransmit(before_loss);
        let floor = cc.cwnd();
        assert_eq!(floor, (before_loss as f64 * 0.7) as u64);
        // Ack one MSS every 10 ms for 60 simulated seconds; the cubic
        // recovers toward (and past) w_max.
        let mut t = SimTime::ZERO;
        for _ in 0..6000 {
            t += SimDuration::from_millis(10);
            cc.on_ack(t, MSS, false, rtt());
        }
        assert!(
            cc.cwnd() > floor + 4 * MSS,
            "CUBIC should grow after reduction: {} vs floor {}",
            cc.cwnd(),
            floor
        );
    }

    #[test]
    fn idle_restart_caps_at_initial_window() {
        let mut cc = CongestionControl::new(CcKind::Reno);
        for _ in 0..10 {
            cc.on_ack(SimTime::ZERO, cc.cwnd(), false, rtt());
        }
        assert!(cc.cwnd() as f64 > INIT_CWND);
        cc.on_idle_restart();
        assert_eq!(cc.cwnd() as f64, INIT_CWND);
        // A small window is not *raised* by idle restart.
        cc.on_rto(cc.cwnd());
        cc.on_idle_restart();
        assert_eq!(cc.cwnd(), MSS);
    }
}
