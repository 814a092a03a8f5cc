//! Property tests on the request lifecycle: random cancellation/resume
//! points under random server-fault scripts never corrupt the
//! connection-level reassembly.
//!
//! The invariants, per chunk:
//!
//! * every chunk eventually completes — the cancel/resume/retry loop
//!   can neither wedge the connection nor lose the tail;
//! * the body is delivered **exactly once**: each byte-range resume
//!   starts exactly where the aborted request stopped, and the final
//!   `Complete` carries precisely the missing tail;
//! * response body ranges never overlap and ascend in the
//!   connection-level sequence space (DSS bytes are never reused);
//! * virtual time is monotone across the whole schedule.
//!
//! And on the tracker alone: a 5xx that lands on a cancelling request is
//! that request's drained abort — the chunk resumes, it does not go dark.

use mpdash_http::{
    AbortAccounting, HttpEvent, HttpLayer, LifecycleAction, LifecyclePolicy, OriginSpec,
    RequestTracker, Route, ServerFaultScript,
};
use mpdash_link::LinkConfig;
use mpdash_mptcp::{MptcpConfig, MptcpSim, StepOutcome};
use mpdash_sim::{Prng, SimDuration, SimTime};
use proptest::prelude::*;

fn sim() -> MptcpSim {
    let wifi = LinkConfig::constant(3.8, SimDuration::from_millis(25));
    let cell = LinkConfig::constant(3.0, SimDuration::from_millis(30));
    MptcpSim::new(MptcpConfig::two_path(wifi, cell))
}

/// Derive a random server-fault script (0–3 events mixing all three
/// families) from one seed — the vendored proptest only generates
/// scalars and vectors, so structured inputs come from the repo's own
/// deterministic [`Prng`].
fn build_script(seed: u64) -> ServerFaultScript {
    let mut rng = Prng::new(seed);
    let n = rng.next_below(4);
    let mut script = ServerFaultScript::new();
    for _ in 0..n {
        let at = SimTime::from_secs(rng.next_below(25));
        let dur = SimDuration::from_secs(1 + rng.next_below(7));
        script = match rng.next_below(3) {
            0 => script.error_burst(at, dur),
            1 => script.stalled_body(
                at,
                dur,
                SimDuration::from_secs(1 + rng.next_below(10)),
                rng.next_below(100) as f64 / 100.0,
            ),
            _ => script.slow_first_byte(
                at,
                dur,
                SimDuration::from_millis(100 * (1 + rng.next_below(20))),
            ),
        };
    }
    script
}

/// Fetch `chunks` sequentially over one connection, cancelling each
/// chunk's request whenever its delivered bytes cross the next
/// threshold and resuming from the abort point. Returns the number of
/// cancel/resume cycles actually exercised.
fn run_chunks(script: ServerFaultScript, chunks: &[(u64, Vec<u64>)]) -> Result<u64, TestCaseError> {
    let mut s = sim();
    let mut http = HttpLayer::new().with_origins(&[OriginSpec::new("origin").with_faults(script)]);
    let mut cycles = 0u64;
    let mut last_dss_end = 0u64;
    let mut prev_t = SimTime::ZERO;

    for &(size, ref cancel_points) in chunks {
        let mut pending = cancel_points.clone();
        pending.sort_unstable();
        pending.dedup();
        pending.reverse(); // pop() yields the smallest threshold first
        let mut base = 0u64; // bytes banked across requests of this chunk
        let mut req = http.get(&mut s, Route::Origin(0), size, 0);
        let mut cancelling = false;
        let mut done = false;
        let mut guard = 0u64;

        while !done {
            let Some((t, outcome)) = s.step() else {
                return Err(TestCaseError::fail(format!(
                    "queue drained at {base}/{size} of a chunk"
                )));
            };
            prop_assert!(t >= prev_t, "virtual time went backwards: {t} < {prev_t}");
            prev_t = t;
            guard += 1;
            prop_assert!(guard < 5_000_000, "runaway chunk schedule");

            let events = match outcome {
                StepOutcome::ServerMsg { id } => http.on_server_msg(&mut s, id),
                StepOutcome::AppTimer { id } => {
                    http.on_app_timer(&mut s, id);
                    Vec::new()
                }
                StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                    let mut events = Vec::new();
                    http.on_delivered(newly_delivered, &mut events);
                    events
                }
                StepOutcome::Transport { .. } => Vec::new(),
            };
            for ev in events {
                match ev {
                    HttpEvent::BodyProgress {
                        id,
                        received,
                        total,
                    } if id == req => {
                        if cancelling {
                            continue;
                        }
                        let chunk_received = base + received;
                        // Cross the next cancellation threshold while the
                        // request is still incomplete: abandon mid-body.
                        if let Some(&th) = pending.last() {
                            if chunk_received >= th && received < total {
                                pending.pop();
                                http.cancel(&mut s, req);
                                cancelling = true;
                            }
                        }
                    }
                    HttpEvent::Complete { id, body_dss } if id == req => {
                        // Exactly-once delivery: the final request holds
                        // precisely the missing tail.
                        prop_assert_eq!(body_dss.len(), size - base);
                        prop_assert!(
                            body_dss.start >= last_dss_end,
                            "body DSS overlaps an earlier response"
                        );
                        last_dss_end = body_dss.end.max(last_dss_end);
                        done = true;
                    }
                    HttpEvent::Error { id } if id == req => {
                        // 5xx during a burst: naive immediate re-request
                        // of the same missing range.
                        req = http.get(&mut s, Route::Origin(0), size, base);
                        cancelling = false;
                    }
                    HttpEvent::Aborted {
                        id,
                        received,
                        body_dss,
                    } if id == req => {
                        prop_assert!(
                            body_dss.start >= last_dss_end || body_dss.is_empty(),
                            "aborted DSS overlaps an earlier response"
                        );
                        prop_assert_eq!(body_dss.len(), received);
                        last_dss_end = body_dss.end.max(last_dss_end);
                        // Byte-range resume from exactly the abort point
                        // (a too-late cancel degenerates to a zero-byte
                        // tail request, which must also complete).
                        base += received;
                        prop_assert!(base <= size);
                        req = http.get(&mut s, Route::Origin(0), size, base);
                        cancelling = false;
                        cycles += 1;
                    }
                    _ => {}
                }
            }
        }
        prop_assert_eq!(http.inflight(), 0, "requests linger after a chunk");
    }
    Ok(cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mid-body cancellation points under random server-fault
    /// scripts: reassembly stays exact, nothing wedges, time is monotone.
    #[test]
    fn random_cancel_resume_never_corrupts_reassembly(
        script_seed in 0u64..1_000_000,
        chunk_seed in 0u64..1_000_000,
        n_chunks in 1usize..5,
    ) {
        let mut rng = Prng::new(chunk_seed);
        let chunks: Vec<(u64, Vec<u64>)> = (0..n_chunks)
            .map(|_| {
                let size = 10_000 + rng.next_below(390_000);
                let points = (0..rng.next_below(3))
                    .map(|_| rng.next_below(100) * size / 100)
                    .collect();
                (size, points)
            })
            .collect();
        run_chunks(build_script(script_seed), &chunks)?;
    }

    /// With no faults and an early cancel point on every large chunk,
    /// the run exercises at least one full abandon+resume cycle — the
    /// property above cannot pass vacuously. Chunks must be much larger
    /// than the bandwidth-delay product: a cancel that arrives after the
    /// whole response is already assigned to subflows has nothing left
    /// to flush and legitimately degenerates to a normal Complete.
    #[test]
    fn interior_cancel_points_actually_cycle(
        sizes in prop::collection::vec(200_000u64..400_000, 1..4),
        pct in 5u64..30,
    ) {
        let chunks: Vec<(u64, Vec<u64>)> = sizes
            .iter()
            .map(|&s| (s, vec![s * pct / 100]))
            .collect();
        let cycles = run_chunks(ServerFaultScript::new(), &chunks)?;
        prop_assert!(cycles >= 1, "no cancel cycle over {} chunks", chunks.len());
    }

    /// A 5xx for a request whose cancel is in flight carries no body, so
    /// the driver hands it to the tracker as the drained abort: nothing
    /// is wasted, the resume starts at the banked offset, and afterwards
    /// progress counts and stall detection fires again.
    #[test]
    fn error_while_cancelling_is_a_drained_abort(
        banked in 0u64..900_000,
        stall_ms in 1_500u64..10_000,
        chunk in 0usize..64,
    ) {
        let stall = SimDuration::from_millis(stall_ms);
        let mut tr = RequestTracker::new(
            LifecyclePolicy::deadline_aware(),
            chunk,
            SimTime::ZERO,
            1_000_000,
            None,
        );
        let t0 = SimTime::from_millis(10);
        tr.on_progress(t0, banked);
        let abandon = tr.poll(t0 + stall, false);
        prop_assert_eq!(abandon, LifecycleAction::Abandon { cause: "stall", received: banked });
        prop_assert!(tr.cancelling() && !tr.on_wire());

        let acct = tr.on_aborted(banked);
        prop_assert_eq!(acct, AbortAccounting { resume_from: banked, wasted: 0 });
        let resumed = t0 + stall + SimDuration::from_millis(40);
        tr.on_reissued(resumed);
        prop_assert!(tr.on_wire());

        tr.on_progress(resumed + SimDuration::from_millis(10), banked + 1);
        prop_assert_eq!(tr.received(), banked + 1);
        let again = tr.poll(resumed + SimDuration::from_millis(10) + stall, false);
        prop_assert_eq!(again, LifecycleAction::Abandon { cause: "stall", received: banked + 1 });
    }
}
