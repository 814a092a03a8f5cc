//! `exp lifecycle` — the request-lifecycle resilience matrix (beyond
//! the paper).
//!
//! Every server-side fault family of [`mpdash_http::ServerFaultScript`]
//! is injected at the origin mid-session and crossed with three request
//! lifecycle policies:
//!
//! * **wait** — wait-forever: never times out, naive immediate
//!   re-request on a 5xx (the pre-PR-4 behaviour);
//! * **retry** — seeded exponential backoff + jitter on 5xx, but no
//!   mid-download abandonment;
//! * **resume** — the full deadline-aware machinery: stall/deadline
//!   timeouts, mid-chunk abandonment, byte-range resume.
//!
//! The fold asserts the robustness invariants the lifecycle work
//! promises, per fault script:
//!
//! 1. **resume** never misses more chunk deadlines than **wait**;
//! 2. **resume** never stalls playback longer than **wait**;
//! 3. on at least one script the improvement is strict (the stalled-body
//!    fault, where wait-forever rides out a 30 s freeze that resume
//!    cancels within its stall window);
//! 4. every abandonment is followed by exactly one byte-range resume and
//!    no chunk is lost to a cancel.
//!
//! All sessions run MP-DASH rate-based deadlines over the controlled
//! W4.5/C4.0 pair with a deliberately small (10 s) player buffer so a
//! frozen response body actually reaches the screen as a stall. Like
//! every experiment, the artifact is bit-identical at any
//! `MPDASH_WORKERS` setting.

use crate::grid::Grid;
use crate::shapes::{bbb_clip, log_deadline_misses};
use crate::Table;
use mpdash_dash::abr::AbrKind;
use mpdash_http::{LifecyclePolicy, ServerFaultScript};
use mpdash_results::{ExperimentResult, ScalarGroup};
use mpdash_session::{SessionConfig, TransportMode};
use mpdash_sim::{SimDuration, SimTime};

/// The server-fault axis: a 5xx burst, a mid-body freeze far longer
/// than any sane timeout, a slow-first-byte window, and a combination.
fn fault_scripts() -> Vec<(&'static str, ServerFaultScript)> {
    vec![
        (
            "err-burst",
            ServerFaultScript::new().error_burst(SimTime::from_secs(10), SimDuration::from_secs(3)),
        ),
        // The fault window spans 6 s — wider than the steady-state
        // request cadence (one 4 s chunk at a time) — so at least one
        // response is guaranteed to freeze mid-body for 30 s.
        (
            "stalled-body",
            ServerFaultScript::new().stalled_body(
                SimTime::from_secs(8),
                SimDuration::from_secs(6),
                SimDuration::from_secs(30),
                0.5,
            ),
        ),
        // The first-byte delay sits just *below* the deadline-aware
        // stall window (1.5 s): the row checks the policy does not
        // spuriously cancel a request that is merely slow to start —
        // abandoning here would re-pay the delay on every resume.
        (
            "slow-first-byte",
            ServerFaultScript::new().slow_first_byte(
                SimTime::from_secs(12),
                SimDuration::from_secs(6),
                SimDuration::from_secs(1),
            ),
        ),
        (
            "combined",
            ServerFaultScript::new()
                .error_burst(SimTime::from_secs(5), SimDuration::from_secs(2))
                .stalled_body(
                    SimTime::from_secs(20),
                    SimDuration::from_secs(6),
                    SimDuration::from_secs(30),
                    0.4,
                ),
        ),
    ]
}

/// The policy axis, from wait-forever to the full deadline-aware
/// machinery; the fold baselines **resume** against **wait**.
fn policies() -> [(&'static str, LifecyclePolicy); 3] {
    [
        ("wait", LifecyclePolicy::wait_forever()),
        ("retry", LifecyclePolicy::retry_only()),
        ("resume", LifecyclePolicy::deadline_aware()),
    ]
}

/// Compute the lifecycle matrix: fault scripts × policies as one batch.
pub(crate) fn result(quick: bool, env: &mpdash_obs::RunEnv) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "lifecycle",
        "Request-lifecycle matrix — server-side faults x timeout/abandon/resume policy",
    )
    .with_quick(quick);
    res.text(concat!(
        "\nEvery fault is injected at the origin server; the invariants\n",
        "checked: abandonment+resume never misses more deadlines and never\n",
        "stalls longer than wait-forever under any fault script, with a\n",
        "strict improvement on at least one, and every abandonment is\n",
        "followed by exactly one byte-range resume.",
    ));

    let mut t = Table::new(&[
        "fault",
        "policy",
        "stalls",
        "stall s",
        "misses",
        "timeouts",
        "abandoned",
        "resumed",
        "retried",
        "wasted KB",
        "dur s",
    ]);
    let mut cells = Vec::new();
    for (fault_name, script) in fault_scripts() {
        for (policy_name, policy) in policies() {
            let cfg = SessionConfig::controlled_mbps(
                4.5,
                4.0,
                AbrKind::Festive,
                TransportMode::mpdash_rate_based(),
            )
            .with_video(bbb_clip("BBB-lifecycle", if quick { 20 } else { 30 }))
            .with_buffer_capacity(SimDuration::from_secs(10))
            .with_server_faults(script.clone())
            .with_lifecycle(policy);
            cells.push(((fault_name, policy_name), cfg));
        }
    }
    let grid = Grid::sessions(env, cells);

    let mut strict_improvements = 0u64;
    let mut worst_excess_misses: i64 = i64::MIN;
    let mut total_wasted = 0u64;
    for (&(fault_name, policy_name), r) in grid.iter() {
        let misses = log_deadline_misses(r);
        let lc = r.lifecycle;
        t.row(&[
            fault_name.into(),
            policy_name.into(),
            format!("{}", r.qoe_all.stalls),
            format!("{:.2}", r.qoe_all.stall_time.as_secs_f64()),
            format!("{misses}"),
            format!("{}", lc.timeouts),
            format!("{}", lc.abandoned),
            format!("{}", lc.resumed),
            format!("{}", lc.retried),
            format!("{:.1}", lc.wasted_bytes as f64 / 1e3),
            format!("{:.1}", r.duration.as_secs_f64()),
        ]);
        // Invariant 4: cancellation never loses a chunk, and every
        // abandonment resumes exactly once.
        assert_eq!(
            lc.resumed, lc.abandoned,
            "{fault_name}/{policy_name}: {} abandons but {} resumes",
            lc.abandoned, lc.resumed
        );
        total_wasted += lc.wasted_bytes;
        match policy_name {
            "wait" => assert_eq!(lc.abandoned, 0, "wait-forever must never cancel"),
            "resume" => {
                let wait = &grid[(fault_name, "wait")];
                let (wait_misses, wait_stall) =
                    (log_deadline_misses(wait), wait.qoe_all.stall_time);
                // No false positives: a first-byte delay below the
                // stall window must never trigger an abandonment.
                if fault_name == "slow-first-byte" {
                    assert_eq!(
                        lc.abandoned, 0,
                        "slow-first-byte below the stall window spuriously cancelled"
                    );
                }
                // Invariants 1 + 2: abandonment+resume dominates
                // wait-forever on every script.
                assert!(
                    misses <= wait_misses,
                    "{fault_name}: resume missed {misses} vs wait {wait_misses}"
                );
                assert!(
                    r.qoe_all.stall_time <= wait_stall,
                    "{fault_name}: resume stalled {:.2}s vs wait {:.2}s",
                    r.qoe_all.stall_time.as_secs_f64(),
                    wait_stall.as_secs_f64()
                );
                if misses < wait_misses || r.qoe_all.stall_time < wait_stall {
                    strict_improvements += 1;
                }
                worst_excess_misses = worst_excess_misses.max(misses as i64 - wait_misses as i64);
            }
            _ => {}
        }
    }
    // Invariant 3: the machinery must actually pay off somewhere.
    assert!(
        strict_improvements >= 1,
        "abandonment+resume strictly improved on no fault script:\n{}",
        t.render()
    );
    res.table(t);
    res.scalars(
        ScalarGroup::new("lifecycle invariants")
            .with("strict_improvements", strict_improvements as f64)
            .with("worst_excess_misses_vs_wait", worst_excess_misses as f64)
            .with("total_wasted_bytes", total_wasted as f64),
    );
    res
}
