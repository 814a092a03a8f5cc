//! Property tests on the multi-origin serving layer: the shared segment
//! cache and the hedged-fetch cancellation protocol.
//!
//! The invariants:
//!
//! * a cache hit is **byte-identical** to the origin fetch it replaces:
//!   under random per-origin fault scripts and LRU eviction pressure, a
//!   lookup either misses or returns exactly the byte count the origin
//!   delivered, and serving that hit through the edge path delivers
//!   exactly those bytes;
//! * the hedge race (cancel the primary, race the missing tail on a
//!   second origin over the same FIFO connection) always resolves to
//!   **exactly one winner**, covers the chunk exactly once — the
//!   winner's tail starts where the committed prefix ends — and the
//!   loser's cancellation never corrupts connection-level DSS
//!   reassembly or wedges the connection for later chunks.

use mpdash_http::{HttpEvent, HttpLayer, OriginSpec, Route, ServerFaultScript, SharedSegmentCache};
use mpdash_link::LinkConfig;
use mpdash_mptcp::{MptcpConfig, MptcpSim, StepOutcome};
use mpdash_sim::{Prng, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

fn sim() -> MptcpSim {
    let wifi = LinkConfig::constant(3.8, SimDuration::from_millis(25));
    let cell = LinkConfig::constant(3.0, SimDuration::from_millis(30));
    MptcpSim::new(MptcpConfig::two_path(wifi, cell))
}

/// Derive a random server-fault script (0–3 events mixing all four
/// families, the blackhole included) from one seed — structured inputs
/// come from the repo's own deterministic [`Prng`].
fn build_script(seed: u64) -> ServerFaultScript {
    let mut rng = Prng::new(seed);
    let n = rng.next_below(4);
    let mut script = ServerFaultScript::new();
    for _ in 0..n {
        let at = SimTime::from_secs(rng.next_below(25));
        let dur = SimDuration::from_secs(1 + rng.next_below(6));
        script = match rng.next_below(4) {
            0 => script.error_burst(at, dur),
            1 => script.stalled_body(
                at,
                dur,
                SimDuration::from_secs(1 + rng.next_below(8)),
                rng.next_below(100) as f64 / 100.0,
            ),
            2 => script.slow_first_byte(
                at,
                dur,
                SimDuration::from_millis(100 * (1 + rng.next_below(20))),
            ),
            _ => script.blackhole(at, dur),
        };
    }
    script
}

/// One connection to a two-origin pool, pumped event by event with the
/// monotone-time and runaway guards every property shares.
struct Pump {
    s: MptcpSim,
    http: HttpLayer,
    prev_t: SimTime,
    guard: u64,
}

impl Pump {
    fn new(origins: &[OriginSpec]) -> Self {
        Pump {
            s: sim(),
            http: HttpLayer::new().with_origins(origins),
            prev_t: SimTime::ZERO,
            guard: 0,
        }
    }

    fn step(&mut self) -> Result<Vec<HttpEvent>, TestCaseError> {
        let Some((t, outcome)) = self.s.step() else {
            return Err(TestCaseError::fail("event queue drained mid-exchange"));
        };
        prop_assert!(
            t >= self.prev_t,
            "virtual time went backwards: {} < {}",
            t,
            self.prev_t
        );
        self.prev_t = t;
        self.guard += 1;
        prop_assert!(self.guard < 5_000_000, "runaway schedule");
        Ok(match outcome {
            StepOutcome::ServerMsg { id } => self.http.on_server_msg(&mut self.s, id),
            StepOutcome::AppTimer { id } => {
                self.http.on_app_timer(&mut self.s, id);
                Vec::new()
            }
            StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                let mut events = Vec::new();
                self.http.on_delivered(newly_delivered, &mut events);
                events
            }
            StepOutcome::Transport { .. } => Vec::new(),
        })
    }

    /// Complete a whole resource from `origin`, naively re-requesting
    /// the missing range on a 5xx. Returns the delivered byte total.
    fn fetch_origin(&mut self, size: u64, origin: usize) -> Result<u64, TestCaseError> {
        let base = 0u64; // a 5xx delivers no body, so nothing ever banks
        let mut req = self.http.get(&mut self.s, Route::Origin(origin), size, 0);
        loop {
            for ev in self.step()? {
                match ev {
                    HttpEvent::Complete { id, body_dss } if id == req => {
                        prop_assert_eq!(body_dss.len(), size - base);
                        return Ok(base + body_dss.len());
                    }
                    HttpEvent::Error { id } if id == req => {
                        req = self
                            .http
                            .get(&mut self.s, Route::Origin(origin), size, base);
                    }
                    HttpEvent::Aborted { id, .. } if id == req => {
                        return Err(TestCaseError::fail("uncancelled request aborted"));
                    }
                    _ => {}
                }
            }
        }
    }

    /// Serve a cache hit through the edge path; faults never apply.
    fn fetch_edge(&mut self, size: u64) -> Result<u64, TestCaseError> {
        let req = self.http.get(
            &mut self.s,
            Route::Edge(SimDuration::from_millis(5)),
            size,
            0,
        );
        loop {
            for ev in self.step()? {
                match ev {
                    HttpEvent::Complete { id, body_dss } if id == req => {
                        return Ok(body_dss.len());
                    }
                    HttpEvent::Error { id } | HttpEvent::Aborted { id, .. } if id == req => {
                        return Err(TestCaseError::fail("edge fetch must be clean"));
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Outcome tallies of [`run_hedged_chunks`], for vacuity proofs.
#[derive(Default)]
struct HedgeTally {
    primary_wins: u64,
    hedge_wins: u64,
    wasted: u64,
}

/// Fetch `chunks` sequentially, hedging each one when its delivered
/// bytes cross `threshold(size)` before completion: cancel the primary
/// and race the missing tail on origin 1, first terminal wins, the
/// loser is cancelled (primary-wins case) and its bytes counted as
/// waste. Asserts exactly-one-winner, exact chunk coverage, and
/// ascending DSS ranges throughout.
fn run_hedged_chunks(
    pump: &mut Pump,
    chunks: &[(u64, u64)], // (size, hedge threshold in bytes)
) -> Result<HedgeTally, TestCaseError> {
    let mut tally = HedgeTally::default();
    let mut last_dss_end = 0u64;
    for &(size, threshold) in chunks {
        let base = 0u64; // a pre-race 5xx re-requests the whole body
        let mut primary = pump.http.get(&mut pump.s, Route::Origin(0), size, 0);
        let mut hedge: Option<(u64, u64)> = None; // (req id, range start)
        let mut loser: Option<u64> = None; // cancelled hedge awaiting terminal
        let mut done = false;
        while !done || loser.is_some() {
            for ev in pump.step()? {
                match ev {
                    HttpEvent::BodyProgress {
                        id,
                        received,
                        total,
                    } if id == primary && hedge.is_none() && !done => {
                        let committed = base + received;
                        if committed >= threshold && received < total {
                            // The hedge protocol: cancel first, then the
                            // range request — FIFO guarantees the server
                            // sees them in that order.
                            pump.http.cancel(&mut pump.s, primary);
                            let h = pump
                                .http
                                .get(&mut pump.s, Route::Origin(1), size, committed);
                            hedge = Some((h, committed));
                        }
                    }
                    HttpEvent::Complete { id, body_dss } if id == primary && !done => {
                        // Primary won (a too-late cancel has nothing left
                        // to flush); the hedge is now the loser.
                        prop_assert_eq!(body_dss.len(), size - base);
                        prop_assert!(body_dss.start >= last_dss_end);
                        last_dss_end = body_dss.end.max(last_dss_end);
                        if let Some((h, _)) = hedge.take() {
                            pump.http.cancel(&mut pump.s, h);
                            loser = Some(h);
                            tally.primary_wins += 1;
                        }
                        done = true;
                    }
                    HttpEvent::Error { id } if id == primary && !done => {
                        match hedge {
                            // Mid-race a 5xx on the cancelled primary just
                            // hands the race to the hedge.
                            Some(_) => {}
                            None => {
                                primary = pump.http.get(&mut pump.s, Route::Origin(0), size, base);
                            }
                        }
                    }
                    HttpEvent::Aborted {
                        id,
                        received,
                        body_dss,
                    } if id == primary && !done => {
                        // The cancel landed: the hedge inherits the chunk.
                        let (_, from) = hedge.expect("abort without a cancel");
                        prop_assert!(body_dss.len() == received);
                        prop_assert!(body_dss.start >= last_dss_end || body_dss.is_empty());
                        last_dss_end = body_dss.end.max(last_dss_end);
                        let committed = base + received;
                        prop_assert!(
                            committed >= from,
                            "committed bytes shrank across the cancel"
                        );
                        // Bytes past the hedge's range start arrive twice:
                        // that is the waste the session layer charges.
                        tally.wasted += committed - from;
                    }
                    ev => {
                        let (hedge_req, from) = match hedge {
                            Some(pair) => pair,
                            None => match (&ev, loser) {
                                // The cancelled loser drains with whatever
                                // terminal it was owed; any outcome is
                                // legal, none may wedge the connection.
                                (HttpEvent::Aborted { id, received, .. }, Some(l)) if *id == l => {
                                    tally.wasted += received;
                                    loser = None;
                                    continue;
                                }
                                (HttpEvent::Complete { id, body_dss }, Some(l)) if *id == l => {
                                    prop_assert!(body_dss.start >= last_dss_end);
                                    last_dss_end = body_dss.end.max(last_dss_end);
                                    tally.wasted += body_dss.len();
                                    loser = None;
                                    continue;
                                }
                                (HttpEvent::Error { id }, Some(l)) if *id == l => {
                                    loser = None;
                                    continue;
                                }
                                _ => continue,
                            },
                        };
                        match ev {
                            HttpEvent::Complete { id, body_dss } if id == hedge_req => {
                                // Hedge won: its body is exactly the tail
                                // the primary never delivered.
                                prop_assert_eq!(body_dss.len(), size - from);
                                prop_assert!(body_dss.start >= last_dss_end);
                                last_dss_end = body_dss.end.max(last_dss_end);
                                hedge = None;
                                tally.hedge_wins += 1;
                                done = true;
                            }
                            HttpEvent::Error { id } if id == hedge_req => {
                                // 5xx on the hedge origin: naive re-request
                                // of the same tail keeps the race alive.
                                let h = pump.http.get(&mut pump.s, Route::Origin(1), size, from);
                                hedge = Some((h, from));
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        prop_assert_eq!(pump.http.inflight(), 0, "requests linger after a chunk");
    }
    Ok(tally)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fault scripts + a cache far smaller than the working set:
    /// every origin fetch delivers exactly the requested bytes, every
    /// hit returns exactly what the origin served, and serving the hit
    /// through the edge path delivers exactly those bytes.
    #[test]
    fn cache_hits_are_byte_identical_to_origin_fetches(
        script_seed in 0u64..1_000_000,
        access_seed in 0u64..1_000_000,
        n_ops in 4usize..10,
    ) {
        let origins = [
            OriginSpec::new("faulty").with_faults(build_script(script_seed)),
            OriginSpec::new("unused"),
        ];
        let mut pump = Pump::new(&origins);
        // Holds ~2 of the larger segments: eviction pressure is the rule,
        // not the exception.
        let cache = SharedSegmentCache::new(260_000);
        let mut served: HashMap<(usize, usize), u64> = HashMap::new();
        let mut rng = Prng::new(access_seed);
        for _ in 0..n_ops {
            let chunk = rng.next_below(4) as usize;
            let level = rng.next_below(2) as usize;
            // Size is a pure function of the key, as a segment URL's is.
            let size = 40_000 + (chunk as u64 * 2 + level as u64) * 23_000;
            match cache.lookup((chunk, level)) {
                Some(cached) => {
                    let origin_bytes = served[&(chunk, level)];
                    prop_assert_eq!(cached, origin_bytes, "hit diverged from origin");
                    let delivered = pump.fetch_edge(cached)?;
                    prop_assert_eq!(delivered, origin_bytes, "edge bytes diverged");
                }
                None => {
                    let delivered = pump.fetch_origin(size, 0)?;
                    prop_assert_eq!(delivered, size, "origin fetch lost bytes");
                    served.insert((chunk, level), delivered);
                    cache.insert((chunk, level), delivered);
                }
            }
        }
        let stats = cache.stats();
        prop_assert!(stats.resident_bytes <= cache.capacity_bytes());
    }

    /// Random fault scripts on both origins, random hedge points:
    /// every race has exactly one winner, coverage is exact, DSS ranges
    /// ascend, and the loser's cancellation never wedges later chunks.
    #[test]
    fn hedge_races_never_corrupt_reassembly(
        primary_seed in 0u64..1_000_000,
        hedge_seed in 0u64..1_000_000,
        chunk_seed in 0u64..1_000_000,
        n_chunks in 1usize..5,
    ) {
        let origins = [
            OriginSpec::new("primary").with_faults(build_script(primary_seed)),
            OriginSpec::new("backup")
                .with_rtt_penalty(SimDuration::from_millis(20))
                .with_faults(build_script(hedge_seed)),
        ];
        let mut rng = Prng::new(chunk_seed);
        let chunks: Vec<(u64, u64)> = (0..n_chunks)
            .map(|_| {
                let size = 30_000 + rng.next_below(370_000);
                // Sometimes past the end: those chunks never hedge.
                let threshold = rng.next_below(120) * size / 100;
                (size, threshold)
            })
            .collect();
        let mut pump = Pump::new(&origins);
        run_hedged_chunks(&mut pump, &chunks)?;
    }

}

/// Vacuity proof for the race properties above: sweeping the hedge
/// point across a fault-free chunk reaches **both** outcomes — an early
/// hedge aborts the primary mid-flight and the hedge serves the tail; a
/// hedge launched inside the final in-flight window degenerates the
/// cancel, the primary completes, and the loser is cancelled. Without
/// this, `hedge_races_never_corrupt_reassembly` could pass while one
/// whole branch of the protocol never ran.
#[test]
fn both_race_outcomes_are_reachable() {
    let origins = [OriginSpec::new("primary"), OriginSpec::new("backup")];
    let size = 320_000u64;
    let mut primary_wins = 0u64;
    let mut hedge_wins = 0u64;
    for pct in (5..=95).step_by(5).chain([96, 97, 98, 99]) {
        let mut pump = Pump::new(&origins);
        let tally = run_hedged_chunks(&mut pump, &[(size, size * pct / 100)])
            .unwrap_or_else(|e| panic!("hedge at {pct}%: {e}"));
        assert!(
            tally.primary_wins + tally.hedge_wins <= 1,
            "one chunk raced more than once at {pct}%"
        );
        primary_wins += tally.primary_wins;
        hedge_wins += tally.hedge_wins;
    }
    assert!(hedge_wins >= 1, "no hedge point ever beat the primary");
    assert!(
        primary_wins >= 1,
        "no hedge point ever degenerated to a primary win"
    );
}
