//! The catalogue: every metric the harness emits, with unit, direction
//! and (end to end) regression bound. `BENCHMARK.json` is this module's
//! `benchmark_json()` written to a file (`perf catalogue` prints it); a
//! unit test keeps the two equal.

use crate::workloads::WORKLOADS;
use mpdash_results::Json;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Simulated: repeats exactly for a given seed.
    pub exact: bool,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count (or a ratio of counts): repeats exactly for a given seed.
    pub exact: bool,
}

use Better::{Higher, Lower};

/// Measured with tracing off. The first four are host time and memory;
/// the last four are simulated and repeat exactly for a given seed.
///
/// A bound is a share of the parent's median and has to clear the
/// spread between runs on *different* seeds three times over (see the
/// README's baseline): this host's timing noise and the churn mix's
/// seed-to-seed differences are why most sit at the contract's cap.
pub const END_TO_END: [EndToEnd; 8] = [
    host("wall_s", "s", Lower, 0.25),
    host("sim_s_per_wall_s", "x", Higher, 0.25),
    host("peak_rss_mb", "MB", Lower, 0.25),
    host("setup_s", "s", Lower, 0.25),
    simulated("cell_byte_share", "fraction", Lower, 0.25),
    simulated("deadline_hit_rate", "fraction", Higher, 0.02),
    simulated("playing_ratio", "fraction", Higher, 0.01),
    simulated("mean_bitrate_mbps", "Mbps", Higher, 0.2),
];

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn simulated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        exact: true,
        ..host(name, unit, better, bound)
    }
}

/// A host-time row.
const fn row(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

/// A row that repeats exactly.
const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        exact: true,
        ..row(name, unit, better)
    }
}

/// Measured in the traced run. Rows marked `w` come from the workload's
/// own passes and read 0 on a workload they do not apply to; all others
/// are probes, the same on every workload.
pub const PER_LAYER: [PerLayer; 75] = [
    // sim
    row("sim.queue_sched_pop_d64_ns", "ns", Lower),
    row("sim.queue_sched_pop_d4096_ns", "ns", Lower),
    row("sim.queue_peek_d64_ns", "ns", Lower),
    row("sim.queue_peek_d1024_ns", "ns", Lower),
    row("sim.queue_cancel_d64_ns", "ns", Lower),
    row("sim.events_per_s", "1/s", Higher), // w
    // link
    row("link.send_const_ns", "ns", Lower),
    row("link.send_profiled_ns", "ns", Lower),
    row("link.send_faulted_ns", "ns", Lower),
    row("link.shared_cycle_fifo_ns", "ns", Lower),
    row("link.shared_cycle_fq_ns", "ns", Lower),
    row("link.shared_cycle_pie_ns", "ns", Lower),
    row("link.shared_cycle_fq_pie_ns", "ns", Lower),
    row("link.shared_cycle_codel_ns", "ns", Lower),
    row("link.shared_cycle_fq_f64_ns", "ns", Lower),
    row("link.shared_next_departure_ns", "ns", Lower),
    row("link.aqm_quiescent_overhead_pct", "%", Lower),
    count("link.shared_drop_share", "fraction", Lower), // w
    count("link.shared_mark_share", "fraction", Lower), // w
    count("link.ap_queue_wait_p95_ms", "ms", Lower),    // w
    // mptcp
    row("mptcp.sched_pick_minrtt_ns", "ns", Lower),
    row("mptcp.sched_pick_rr_ns", "ns", Lower),
    row("mptcp.sched_pick_qaware_ns", "ns", Lower),
    row("mptcp.sender_cycle_ns", "ns", Lower),
    row("mptcp.receiver_on_data_ns", "ns", Lower),
    row("mptcp.receiver_on_data_reorder_ns", "ns", Lower),
    row("mptcp.transfer_ns_per_pkt", "ns", Lower),
    count("mptcp.transfer_events_per_pkt", "count", Lower),
    count("mptcp.transfer_allocs_per_pkt", "count", Lower),
    // core
    row("core.deadline_on_progress_ns", "ns", Lower),
    row("core.holt_winters_ns", "ns", Lower),
    row("core.optimal_dp_800_us", "us", Lower),
    // http
    row("http.cache_hit_ns", "ns", Lower),
    row("http.cache_insert_evict_ns", "ns", Lower),
    row("http.origin_route_ns", "ns", Lower),
    row("http.lifecycle_poll_ns", "ns", Lower),
    count("http.cache_hit_share", "fraction", Higher), // w
    count("http.origin_failovers", "count", Lower),    // w
    // dash
    row("dash.abr_select_gpac_ns", "ns", Lower),
    row("dash.abr_select_festive_ns", "ns", Lower),
    row("dash.abr_select_bba_ns", "ns", Lower),
    row("dash.abr_select_mpc_ns", "ns", Lower),
    // session
    row("session.start_us", "us", Lower),
    row("session.step_vanilla_ns", "ns", Lower),
    row("session.step_mpdash_ns", "ns", Lower),
    count("session.events_per_pkt_vanilla", "count", Lower),
    count("session.events_per_pkt_mpdash", "count", Lower),
    row("session.into_report_ms", "ms", Lower),
    count("session.allocs_per_event", "count", Lower),
    row("session.run_wall_p50_ms", "ms", Lower),   // w
    row("session.run_wall_p90_ms", "ms", Lower),   // w
    count("session.cell_saving_pct", "%", Higher), // w
    // energy
    row("energy.session_replay_ms", "ms", Lower),
    // fleet, all w
    count("fleet.loop_iterations", "count", Lower),
    count("fleet.session_steps", "count", Lower),
    count("fleet.departures_popped", "count", Lower),
    row("fleet.ns_per_iter", "ns", Lower),
    row("fleet.peek_share", "fraction", Lower),
    row("fleet.pop_share", "fraction", Lower),
    row("fleet.step_share", "fraction", Higher),
    count("fleet.allocs_per_iter", "count", Lower),
    row("fleet.scale_ratio_64_over_16", "x", Lower),
    count("fleet.shed_sessions", "count", Lower),
    count("fleet.departed_sessions", "count", Lower),
    // obs
    row("obs.epoch_add_ns", "ns", Lower),
    row("obs.epoch_merge_us", "us", Lower),
    row("obs.metrics_inc_ns", "ns", Lower),
    row("obs.watchdog_check_ns", "ns", Lower),
    row("obs.watchdog_overhead_pct", "%", Lower),
    row("obs.telemetry_overhead_pct", "%", Lower),
    row("obs.ring_tracer_overhead_pct", "%", Lower),
    // results, trace
    row("results.json_render_us", "us", Lower),
    row("results.json_parse_us", "us", Lower),
    row("trace.synth_profile_ms", "ms", Lower),
    // harness
    row("bench.trace_overhead_pct", "%", Lower), // w
];

/// How the driver starts the benchmark, from the root of a checkout.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// Host seconds one run measures; also the default of `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::from(name)),
            ("unit", Json::from(unit)),
            ("better", Json::from(better.as_str())),
        ]
    };
    Json::obj([
        ("command", Json::arr(COMMAND.map(Json::from))),
        ("paths", Json::arr([Json::from("perf")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))])),
            ),
        ),
        (
            "end_to_end",
            Json::arr(END_TO_END.iter().map(|m| {
                let mut row = named(m.name, m.unit, m.better);
                row.push(("bound", Json::Float(m.bound)));
                Json::obj(row)
            })),
        ),
        (
            "per_layer",
            Json::arr(
                PER_LAYER
                    .iter()
                    .map(|m| Json::obj(named(m.name, m.unit, m.better))),
            ),
        ),
    ])
}

/// Whether the named metric repeats exactly for a given seed.
pub fn repeats_exactly(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name && m.exact)
        || PER_LAYER.iter().any(|m| m.name == name && m.exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` is the catalogue, key for key.
    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let file = Json::parse(&file).expect("BENCHMARK.json parses");
        assert_eq!(
            file,
            benchmark_json(),
            "regenerate it with `perf catalogue > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_counts_respect_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "{} is used twice", w.name);
        }
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(names.insert(name), "{name} is used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().to_pretty().len() <= 64 * 1024);
    }
}
