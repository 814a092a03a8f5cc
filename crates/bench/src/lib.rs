//! Shared machinery for the `exp` binary, which regenerates every table
//! and figure of the paper's evaluation (§7) by name — `exp fig7`,
//! `exp tab2 fig4 --quick`, `exp all`:
//!
//! | `exp <name>` | reproduces |
//! |---|---|
//! | `fig1`  | Figure 1 — vanilla MPTCP throughput while streaming |
//! | `fig3`  | Figure 3 — BBA bitrate oscillation |
//! | `fig4`  | Figure 4 — scheduler-only savings vs deadline (+ §7.2.1 α study) |
//! | `fig5`  | Figure 5 — bandwidth traces and Holt-Winters predictions |
//! | `tab2`  | Tables 1 & 2 — online vs optimal cellular usage |
//! | `tab4`  | Table 4 & Figure 6 — throttling vs MP-DASH |
//! | `fig7`  | Figure 7(a–c) — FESTIVE/BBA/BBA-C under three network conditions |
//! | `fig8`  | Figure 8 — analysis-tool chunk visualization |
//! | `field` | Figures 9 & 10, Table 5 — the 33-location field study |
//! | `fig11` | Figure 11 — the mobility scenario |
//! | `tab6`  | Table 6 — HD video |
//! | `faults` | resilience matrix — fault injection on the preferred path (beyond the paper) |
//! | `lifecycle` | request-lifecycle matrix — server faults x timeout/abandon/resume policy (beyond the paper) |
//! | `motivation` | §2.2 — can WiFi alone sustain the top bitrate, per corpus location |
//! | `ablation` | design-choice ablations, incl. the Φ/Ω study §5.2.2 defers |
//! | `mpc`   | §5.2.3's sketch — MPC rate adaptation under MP-DASH |
//! | `fleet` | multi-client contention at a shared AP and sector (beyond the paper) |
//! | `sched` | packet-scheduler grid — minRTT / round-robin / QAware, solo and contended |
//! | `origin` | multi-origin serving — breakers, hedged failover, edge cache under an outage |
//! | `churn` | fleet churn x correlated fault domain x overload shedding, watchdog armed |
//! | `aqm`   | FIFO / PIE / FQ-PIE / CoDel on the shared AP (Naik et al.'s comparison) |
//! | `all`   | everything above, in sequence |
//!
//! The table the binary reads is [`experiments::ALL`]; adding an
//! experiment is one module, one `ALL` row, and one golden line (see
//! [`experiments`]). Grids are enumerated once through [`grid::Grid`].
//!
//! Wall-clock measurement lives in `perf/` (one ledger, `BENCHMARK.json`);
//! nothing in this crate times itself.
//!
//! The library half hosts the trace-driven simulator behind Table 2 (the
//! paper's §7.2.2 methodology: discrete bandwidth slots of one RTT, the
//! online Algorithm 1 with Holt-Winters prediction versus the
//! perfect-knowledge optimum) plus small table-formatting helpers.

use mpdash_core::deadline::{CellDecision, DeadlineScheduler, SchedulerParams};
use mpdash_core::optimal::optimal_cellular_bytes;
use mpdash_core::predict::{HoltWinters, Predictor};
use mpdash_link::BandwidthProfile;
use mpdash_sim::{SimDuration, SimTime};

/// Result of one trace-driven scheduler simulation (one Table 2 cell).
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    /// Cellular fraction of all transferred bytes under the online
    /// algorithm.
    pub online_cell_frac: f64,
    /// Cellular fraction under the perfect-knowledge optimum.
    pub optimal_cell_frac: f64,
    /// Whether the online algorithm missed the deadline.
    pub missed: bool,
    /// Online completion time.
    pub finish: SimDuration,
}

impl Table2Row {
    /// The "Diff." column: online minus optimal cellular fraction.
    pub fn diff(&self) -> f64 {
        self.online_cell_frac - self.optimal_cell_frac
    }
}

/// Trace-driven simulation of Algorithm 1 (the paper's §7.2.2 set-up):
/// time advances in `slot`-wide steps; per-slot bandwidths come straight
/// from the profiles; WiFi is always used at its full slot capacity;
/// cellular contributes its slot capacity while the scheduler has it
/// enabled. The WiFi estimate driving the decision is a Holt-Winters
/// forecast over the *observed* WiFi slot rates, exactly as the kernel
/// implementation estimates (§6).
pub fn simulate_online(
    wifi: &BandwidthProfile,
    cell: &BandwidthProfile,
    size: u64,
    deadline: SimDuration,
    slot: SimDuration,
    alpha: f64,
) -> Table2Row {
    let mut sched = DeadlineScheduler::new(SchedulerParams::with_alpha(alpha));
    sched.enable(SimTime::ZERO, size, deadline);
    // The textbook-aggressive parameters are right here: the trace-driven
    // simulation feeds clean per-slot bandwidths (no TCP ramp-up
    // artifacts), so fast tracking minimizes conservatism — matching the
    // paper's kernel estimator setting.
    let mut hw = HoltWinters::default();

    let mut sent: u64 = 0;
    let mut cell_bytes: u64 = 0;
    let mut cell_on = false;
    let mut t = SimTime::ZERO;
    // Hard stop far beyond any sane deadline, to keep the loop total even
    // on malformed inputs.
    let hard_stop = SimTime::ZERO + deadline * 10 + SimDuration::from_secs(60);

    while sent < size && t < hard_stop {
        let wifi_rate = wifi.rate_at(t);
        let cell_rate = cell.rate_at(t);
        // Decision first (Algorithm 1 runs ahead of each transmission),
        // using the forecast — the prior for the very first slot is the
        // profile's first observation, like the paper's pre-measurement.
        let estimate = hw.forecast().unwrap_or(wifi_rate);
        match sched.on_progress(t, sent, estimate) {
            CellDecision::Enable => cell_on = true,
            CellDecision::Disable => cell_on = false,
            CellDecision::NoChange => {}
        }

        // Transfer one slot.
        let wifi_slot_bytes = wifi_rate.bytes_in(slot).min(size - sent);
        sent += wifi_slot_bytes;
        if cell_on && sent < size {
            let cell_slot_bytes = cell_rate.bytes_in(slot).min(size - sent);
            sent += cell_slot_bytes;
            cell_bytes += cell_slot_bytes;
        }
        // Observe the WiFi slot.
        hw.observe(wifi_rate);
        t += slot;
    }

    let finish = t.saturating_since(SimTime::ZERO);
    let n_slots = (deadline.as_nanos() / slot.as_nanos()) as usize;
    let wifi_slots: Vec<u64> = wifi
        .sample_slots(SimTime::ZERO, slot, n_slots)
        .iter()
        .map(|r| r.bytes_in(slot))
        .collect();
    let cell_slots: Vec<u64> = cell
        .sample_slots(SimTime::ZERO, slot, n_slots)
        .iter()
        .map(|r| r.bytes_in(slot))
        .collect();
    let optimal_cell = optimal_cellular_bytes(&wifi_slots, &cell_slots, size);

    Table2Row {
        online_cell_frac: cell_bytes as f64 / size as f64,
        optimal_cell_frac: optimal_cell
            .map(|c| c as f64 / size as f64)
            .unwrap_or(f64::NAN),
        missed: finish > deadline,
        finish,
    }
}

// The table/formatting helpers moved to `mpdash-results` when experiments
// split into compute → persist → render; the old names stay as aliases so
// experiment code reads unchanged.
pub use mpdash_results::TableData as Table;
pub use mpdash_results::{mb, pct};

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_trace::synth::SynthSpec;

    #[test]
    fn online_never_beats_optimal() {
        // Property over the Table 1 synthetic profile family.
        for seed in 0..5 {
            let wifi = SynthSpec::new(3.8, 0.3, seed).profile();
            let cell = SynthSpec::new(3.0, 0.3, seed + 100).profile();
            let row = simulate_online(
                &wifi,
                &cell,
                5_000_000,
                SimDuration::from_secs(10),
                SimDuration::from_millis(50),
                1.0,
            );
            assert!(
                row.online_cell_frac + 1e-9 >= row.optimal_cell_frac,
                "seed {seed}: online {} < optimal {}",
                row.online_cell_frac,
                row.optimal_cell_frac
            );
            // Paper: the online gap is consistently small (<10% of the
            // transfer). Our σ=30% synthetic noise is AR(1)-correlated
            // (multi-second excursions the clairvoyant optimum can
            // exploit), which is more adversarial than white noise, so
            // the bound carries slack.
            assert!(row.diff() < 0.20, "seed {seed}: diff {}", row.diff());
        }
    }

    #[test]
    fn longer_deadlines_use_less_cellular() {
        let wifi = SynthSpec::new(3.8, 0.1, 1).profile();
        let cell = SynthSpec::new(3.0, 0.1, 2).profile();
        let mut prev = f64::INFINITY;
        for d in [8u64, 9, 10] {
            let row = simulate_online(
                &wifi,
                &cell,
                5_000_000,
                SimDuration::from_secs(d),
                SimDuration::from_millis(50),
                1.0,
            );
            assert!(!row.missed, "deadline {d} missed");
            assert!(
                row.online_cell_frac <= prev,
                "deadline {d}: {} vs prev {}",
                row.online_cell_frac,
                prev
            );
            prev = row.online_cell_frac;
        }
    }

    #[test]
    fn ample_wifi_needs_no_cellular() {
        let wifi = SynthSpec::new(28.4, 0.08, 3).profile();
        let cell = SynthSpec::new(19.1, 0.1, 4).profile();
        // Office row, 18 s deadline: paper reports 0.00% for both.
        let row = simulate_online(
            &wifi,
            &cell,
            50_000_000,
            SimDuration::from_secs(18),
            SimDuration::from_millis(50),
            1.0,
        );
        assert_eq!(row.optimal_cell_frac, 0.0);
        assert!(
            row.online_cell_frac < 0.02,
            "online {}",
            row.online_cell_frac
        );
        assert!(!row.missed);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| a | bbbb |"));
        assert!(s.contains("| 1 |    2 |"));
    }
}
pub mod cli;
pub mod experiments;
pub mod grid;
mod shapes;
