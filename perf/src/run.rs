//! One workload, one process: set-up, the timed passes (or the traced
//! pass and the probes), the checks, and the figures that come out.

use crate::calibrate::{at_nominal_speed, NOMINAL_NS};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::Probes;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workloads::{self, run_pass, Tally, Unit, Workload};
use mpdash_results::Json;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes every run makes at least: the second proves determinism.
const MIN_PASSES: usize = 2;

pub struct Options {
    pub seed: u64,
    /// Host seconds the timed passes should fill.
    pub seconds: f64,
    pub trace: bool,
}

/// What one run reports.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Vacuity guards that did not hold.
    pub unmet: Vec<String>,
    pub digest: u64,
    pub passes: usize,
    /// Every end-to-end metric (untraced) or per-layer metric (traced),
    /// in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Host figures printed beside the metrics but not part of them.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.unmet.is_empty()
    }

    /// The result line. `full` adds what the ledger needs to tell runs
    /// apart; without it the object has exactly the four contract keys.
    pub fn to_json(&self, full: bool) -> Json {
        let metrics = self.metrics.iter().map(|&(name, unit, value)| {
            (
                name,
                Json::obj([("value", Json::Float(value)), ("unit", Json::from(unit))]),
            )
        });
        let mut members = vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ];
        if full {
            members.push(("workload", Json::from(self.workload)));
            members.push(("seed", Json::from(self.seed)));
            members.push(("trace", Json::Bool(self.trace)));
            members.push(("digest", Json::from(format!("{:016x}", self.digest))));
            members.push(("passes", Json::from(self.passes)));
        }
        Json::obj(members)
    }
}

/// Pass accounting: operations attempted and failed, the first pass's
/// tally (the simulated figures come from it), and every host timing.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub first: Option<Tally>,
    /// Per pass: host seconds as measured.
    pub pass_wall_s: Vec<f64>,
    /// Per pass, per unit: host seconds at nominal host speed.
    unit_scaled_s: Vec<Vec<f64>>,
    /// Every sample of the host-speed reference, in nanoseconds.
    reference_ns: Vec<f64>,
}

impl Ledger {
    /// Book one pass. A pass whose digest differs from the first one's
    /// is not deterministic: every session in it counts as failed.
    pub fn record(&mut self, tally: Tally) {
        self.attempted += tally.attempted;
        let same = self.first.as_ref().is_none_or(|f| f.digest == tally.digest);
        if !same {
            eprintln!(
                "pass {}: digest {:016x} differs from the first pass's",
                self.pass_wall_s.len() + 1,
                tally.digest
            );
        }
        self.failed += if same { tally.failed } else { tally.attempted };
        self.pass_wall_s.push(tally.wall_s());
        self.unit_scaled_s.push(tally.unit_scaled_s().collect());
        self.reference_ns.extend(&tally.unit_reference_ns);
        self.first.get_or_insert(tally);
    }

    /// Seconds of one pass at nominal host speed: per unit the median
    /// over the passes, summed over the pass's units. A burst of host
    /// noise then spoils the units it hits and not the whole pass it
    /// falls into; a slow phase of the host is scaled out unit by unit.
    pub fn wall_s(&self) -> f64 {
        let units = self.unit_scaled_s.first().map_or(0, Vec::len);
        (0..units)
            .map(|u| {
                median(
                    &self
                        .unit_scaled_s
                        .iter()
                        .map(|pass| pass[u])
                        .collect::<Vec<_>>(),
                )
            })
            .sum()
    }
}

/// Run `workload` as `opts` says and report.
pub fn run(workload: &'static Workload, opts: &Options) -> Outcome {
    let mut ledger = Ledger::default();
    let mut notes = Vec::new();

    // Set-up: seed → configs, then the fixed warm-up slice, so lazy
    // initialisation and cold caches are paid before anything is timed.
    let mut setups = Vec::new();
    let mut plan = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        plan = (workload.plan)(opts.seed);
        let warm_up = (workload.warm_up)();
        let planning_s = start.elapsed().as_secs_f64();
        let warm = run_pass(&warm_up, mpdash_fleet::run_checked, None);
        let reference_ns = warm.unit_reference_ns.iter().sum::<f64>() / warm_up.len() as f64;
        setups.push(at_nominal_speed(planning_s + warm.wall_s(), reference_ns));
        ledger.attempted += warm.attempted;
        ledger.failed += warm.failed;
    }
    let setup_s = median(&setups);
    notes.push(format!(
        "setup_s first {:.4} s, median of {SETUPS}",
        setups[0]
    ));

    let metrics = if opts.trace {
        traced(workload, opts, &plan, &mut ledger, &mut notes)
    } else {
        let budget = Duration::from_secs_f64(opts.seconds);
        let start = Instant::now();
        loop {
            let tally = run_pass(&plan, mpdash_fleet::run_checked, None);
            let wall_s = tally.wall_s();
            ledger.record(tally);
            let next_ends = start.elapsed() + Duration::from_secs_f64(wall_s / 2.0);
            if ledger.pass_wall_s.len() >= MIN_PASSES && next_ends > budget {
                break;
            }
        }
        let walls = &ledger.pass_wall_s;
        notes.push(format!(
            "pass wall as measured: min {:.4} median {:.4} max {:.4} s over {} passes",
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            median(walls),
            walls.iter().copied().fold(0.0, f64::max),
            walls.len()
        ));
        let first = ledger.first.as_ref().expect("at least one pass");
        let wall_s = ledger.wall_s();
        let values = [
            wall_s,
            first.sim_s / wall_s,
            peak_rss_mb(),
            setup_s,
            first.cell_byte_share(),
            first.deadline_hit_rate(),
            first.playing_ratio(),
            first.mean_bitrate_mbps(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect()
    };

    notes.push(format!(
        "host-speed reference: median {:.0} ns, nominal {NOMINAL_NS:.0} ns",
        median(&ledger.reference_ns)
    ));
    let first = ledger.first.as_ref().expect("at least one pass");
    notes.push(format!(
        "one pass: {} events popped, {} packets, {:.0} simulated s",
        first.events_popped, first.packets, first.sim_s
    ));
    Outcome {
        workload: workload.name,
        seed: opts.seed,
        trace: opts.trace,
        attempted: ledger.attempted,
        failed: ledger.failed,
        unmet: (workload.guards)(&plan, first),
        digest: first.digest,
        passes: ledger.pass_wall_s.len(),
        metrics,
        notes,
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The traced run: one untraced and one traced pass (their difference
/// is the tracing overhead), the workload's per-layer rows from the
/// traced pass, then every probe.
fn traced(
    workload: &Workload,
    opts: &Options,
    plan: &[Unit],
    ledger: &mut Ledger,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, &'static str, f64)> {
    let plain = run_pass(plan, mpdash_fleet::run_checked, None);
    let mut spans = Spans::new();
    let tally = run_pass(plan, mpdash_fleet::run_checked, Some(&mut spans));
    // Host times of the per-layer rows are at nominal host speed too.
    let plain_wall_s: f64 = plain.unit_scaled_s().sum();
    let traced_wall_s: f64 = tally.unit_scaled_s().sum();
    let session_ms: Vec<f64> = plan
        .iter()
        .zip(plain.unit_scaled_s())
        .filter(|(unit, _)| matches!(unit, Unit::Session { .. }))
        .map(|(_, s)| s * 1e3)
        .collect();

    let f = &tally.fleet;
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
    let loop_ns = f.peek_ns + f.pop_ns + f.step_ns;
    let ns_per_iter = share(loop_ns, f.loop_iterations) * traced_wall_s / tally.wall_s();
    let scale_ratio = workload.quarter_size.map_or(0.0, |quarter| {
        let small = [Unit::Fleet(quarter())];
        let small = run_pass(&small, mpdash_fleet::run_checked, Some(&mut Spans::new()));
        let s = &small.fleet;
        let at_nominal = small.unit_scaled_s().sum::<f64>() / small.wall_s();
        ns_per_iter / (share(s.peek_ns + s.pop_ns + s.step_ns, s.loop_iterations) * at_nominal)
    });
    let mut rows = vec![
        (
            "sim.events_per_s",
            plain.events_popped as f64 / plain_wall_s,
        ),
        (
            "link.shared_drop_share",
            share(f.dropped_packets, f.offered_packets),
        ),
        (
            "link.shared_mark_share",
            share(f.marked_packets, f.offered_packets),
        ),
        ("link.ap_queue_wait_p95_ms", f.ap_queue_wait_p95_ms),
        ("http.cache_hit_share", share(f.cache_hits, f.cache_lookups)),
        ("http.origin_failovers", f.failovers as f64),
        ("session.run_wall_p50_ms", percentile(&session_ms, 50.0)),
        ("session.run_wall_p90_ms", percentile(&session_ms, 90.0)),
        (
            "session.cell_saving_pct",
            workloads::cell_saving_pct(plan, &tally),
        ),
        ("fleet.loop_iterations", f.loop_iterations as f64),
        ("fleet.session_steps", f.session_steps as f64),
        ("fleet.departures_popped", f.departures_popped as f64),
        ("fleet.ns_per_iter", ns_per_iter),
        ("fleet.peek_share", share(f.peek_ns, loop_ns)),
        ("fleet.pop_share", share(f.pop_ns, loop_ns)),
        ("fleet.step_share", share(f.step_ns, loop_ns)),
        ("fleet.allocs_per_iter", share(f.allocs, f.loop_iterations)),
        ("fleet.scale_ratio_64_over_16", scale_ratio),
        ("fleet.shed_sessions", f.shed_sessions as f64),
        ("fleet.departed_sessions", f.departed_sessions as f64),
        (
            "bench.trace_overhead_pct",
            (traced_wall_s / plain_wall_s - 1.0) * 100.0,
        ),
    ];
    notes.push(format!(
        "untraced pass {plain_wall_s:.4} s, traced pass {traced_wall_s:.4} s, {} spans, {} session samples",
        spans.spans.len(),
        session_ms.len()
    ));
    for (name, (n, ops, total_ns, self_ns)) in spans.by_name() {
        notes.push(format!(
            "span {name:<20} x{n:<5} {ops:>9} ops  total {:>9.1} ms  self {:>9.1} ms",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
    ledger.record(plain);
    ledger.record(tally);

    // A trial slice of a thousandth of the run: 20 ms at 20 s.
    let mut probes = Probes::new(Duration::from_secs_f64(opts.seconds / 1e3));
    probes.run_all(opts.seed);
    rows.extend(probes.rows);

    match write_trace(workload.name, spans.to_json(workload.name, opts.seed)) {
        Ok(path) => notes.push(format!("spans written to {path}")),
        Err(e) => eprintln!("cannot write the span file: {e}"),
    }
    in_catalogue_order(&rows)
}

/// The per-layer rows as the catalogue orders them. What is emitted and
/// what is catalogued must be the same set of names.
fn in_catalogue_order(rows: &[(&'static str, f64)]) -> Vec<(&'static str, &'static str, f64)> {
    for (name, _) in rows {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is emitted but not in the catalogue"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| {
            let row = rows.iter().find(|(name, _)| *name == m.name);
            let value = row.unwrap_or_else(|| panic!("nothing emits {}", m.name)).1;
            (m.name, m.unit, value)
        })
        .collect()
}

const TRACE_PATH: &str = "results/PERF_trace.json";

/// Put this workload's spans into the span file, beside those other
/// workloads' traced runs left there.
fn write_trace(workload: &str, trace: Json) -> std::io::Result<&'static str> {
    let mut workloads: Vec<(String, Json)> = std::fs::read_to_string(TRACE_PATH)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|j| j.get("workloads").and_then(Json::as_obj).map(<[_]>::to_vec))
        .unwrap_or_default();
    workloads.retain(|(name, _)| name != workload);
    workloads.push((workload.to_string(), trace));
    let file = Json::obj([
        ("schema", Json::from("mpdash-perf-trace/1")),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::create_dir_all("results")?;
    std::fs::write(TRACE_PATH, file.to_compact())?;
    Ok(TRACE_PATH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{contended, FleetRunner, FleetTally};
    use mpdash_fleet::FleetConfig;
    use mpdash_mptcp::SchedulerSpec;
    use mpdash_obs::InvariantViolation;

    /// Two clients, three chunks: the real path in a fraction of a second.
    fn smoke_fleet() -> Vec<Unit> {
        vec![Unit::Fleet(contended(2, SchedulerSpec::MinRtt, 1, 3))]
    }

    static SMOKE: Workload = Workload {
        name: "smoke",
        why: "test only",
        plan: |_| smoke_fleet(),
        warm_up: smoke_fleet,
        guards: |_, _| Vec::new(),
        quarter_size: None,
    };

    #[test]
    fn a_clean_pass_fails_nothing_and_repeats() {
        let mut ledger = Ledger::default();
        for _ in 0..2 {
            ledger.record(run_pass(&smoke_fleet(), mpdash_fleet::run_checked, None));
        }
        assert_eq!((ledger.attempted, ledger.failed), (4, 0));
        assert!(ledger.wall_s() > 0.0);
    }

    #[test]
    fn an_injected_digest_mismatch_fails_the_whole_pass() {
        let mut ledger = Ledger::default();
        let tally = run_pass(&smoke_fleet(), mpdash_fleet::run_checked, None);
        let mut tampered = tally.clone();
        tampered.digest ^= 1;
        ledger.record(tally);
        ledger.record(tampered);
        assert_eq!((ledger.attempted, ledger.failed), (4, 2));
    }

    #[test]
    fn an_invariant_violation_or_a_panic_fails_the_fleet() {
        fn violating(_: &FleetConfig) -> Result<mpdash_fleet::FleetReport, InvariantViolation> {
            Err(InvariantViolation::TimeRegression {
                prev_s: 2.0,
                next_s: 1.0,
            })
        }
        fn panicking(_: &FleetConfig) -> Result<mpdash_fleet::FleetReport, InvariantViolation> {
            panic!("fleet deadlocked (injected)")
        }
        for runner in [violating as FleetRunner, panicking] {
            let tally = run_pass(&smoke_fleet(), runner, None);
            assert_eq!((tally.attempted, tally.failed), (2, 2));
            // The traced path books failures the same way.
            let tally = run_pass(&smoke_fleet(), runner, Some(&mut Spans::new()));
            assert_eq!((tally.attempted, tally.failed), (2, 2));
        }
    }

    #[test]
    fn untraced_and_traced_runs_emit_exactly_the_catalogue() {
        let opts = |trace| Options {
            seed: 3,
            seconds: 0.002,
            trace,
        };
        let plain = run(&SMOKE, &opts(false));
        assert!(plain.correct(), "{:?}", plain.unmet);
        let names: Vec<_> = plain.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        assert!(
            plain.metrics.iter().all(|m| m.2 != 0.0),
            "{:?}",
            plain.metrics
        );

        // `in_catalogue_order` panics on a name emitted but not
        // catalogued, or catalogued but not emitted.
        let traced = run(&SMOKE, &opts(true));
        assert!(traced.correct());
        assert_eq!(
            traced.digest, plain.digest,
            "tracing must not change results"
        );
        let names: Vec<_> = traced.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.name));
        let json = traced.to_json(false);
        let keys: Vec<_> = json
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn every_vacuity_guard_trips_on_a_pass_that_did_nothing() {
        let idle = Tally::default();
        for w in &workloads::WORKLOADS {
            let unmet = (w.guards)(&(w.plan)(1), &idle);
            assert!(!unmet.is_empty(), "{} guards nothing", w.name);
        }
        let churn = workloads::find("fleet192_churn_mix").expect("workload");
        assert_eq!((churn.guards)(&[], &idle).len(), 7);
        let busy = Tally {
            fleet: FleetTally {
                shed_sessions: 1,
                departed_sessions: 2,
                sector_aqm_drops: 1,
                ap_marks: 1,
                cache_hits: 1,
                hedges: 1,
                watchdog_checks: 1,
                ..FleetTally::default()
            },
            ..Tally::default()
        };
        assert_eq!((churn.guards)(&[], &busy), Vec::<String>::new());
    }
}
