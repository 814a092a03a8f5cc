//! Property tests on shared-bottleneck co-simulation: K independent
//! MPTCP connections pushing random chunk schedules through one shared
//! queue never violate conservation, and per-flow DSS reassembly never
//! corrupts under cross-session interleaving.
//!
//! The invariants:
//!
//! * **conservation** — at quiescence every offered byte is accounted
//!   for: `delivered + dropped + queued == offered`, with nothing left
//!   queued;
//! * **reassembly** — each session's chunk bodies complete with exactly
//!   the requested length, and body DSS ranges ascend without overlap
//!   in that connection's sequence space, no matter how the bottleneck
//!   interleaves the sessions' packets;
//! * **monotonicity** — the global fleet clock never goes backwards.

use mpdash_http::{HttpEvent, HttpLayer, Route};
use mpdash_link::{
    AqmConfig, LinkConfig, PathId, QueueDiscipline, SharedBottleneck, SharedBottleneckConfig,
};
use mpdash_mptcp::{MptcpConfig, MptcpSim, StepOutcome};
use mpdash_sim::{Prng, SimDuration, SimTime};
use proptest::prelude::*;

/// One client: a two-path connection (WiFi rides the shared bottleneck,
/// cellular stays private) fetching `sizes` chunk bodies sequentially.
struct Client {
    sim: MptcpSim,
    http: HttpLayer,
    sizes: Vec<u64>,
    next_chunk: usize,
    req: Option<u64>,
    last_dss_end: u64,
}

impl Client {
    fn new(seed: u64, sizes: Vec<u64>) -> Self {
        // The private WiFi link is fast so the shared queue is the only
        // WiFi constraint; odd delays desynchronise the clients.
        let wifi = LinkConfig::constant(1000.0, SimDuration::from_millis(5 + seed % 23));
        let cell = LinkConfig::constant(3.0, SimDuration::from_millis(30 + seed % 17));
        Client {
            sim: MptcpSim::new(MptcpConfig::two_path(wifi, cell)),
            http: HttpLayer::new(),
            sizes,
            next_chunk: 0,
            req: None,
            last_dss_end: 0,
        }
    }

    fn done(&self) -> bool {
        self.next_chunk >= self.sizes.len() && self.req.is_none()
    }

    /// Issue the next chunk request if idle; then report completion.
    fn pump(&mut self) {
        if self.req.is_none() && self.next_chunk < self.sizes.len() {
            let size = self.sizes[self.next_chunk];
            self.req = Some(self.http.get(&mut self.sim, Route::Origin(0), size, 0));
        }
    }

    fn on_events(&mut self, events: Vec<HttpEvent>) -> Result<(), TestCaseError> {
        for ev in events {
            if let HttpEvent::Complete { id, body_dss } = ev {
                prop_assert_eq!(Some(id), self.req, "completion for a foreign request");
                let size = self.sizes[self.next_chunk];
                // Exactly the requested body, in fresh sequence space.
                prop_assert_eq!(body_dss.len(), size, "chunk length corrupted");
                prop_assert!(
                    body_dss.start >= self.last_dss_end,
                    "body DSS overlaps an earlier chunk: {} < {}",
                    body_dss.start,
                    self.last_dss_end
                );
                self.last_dss_end = body_dss.end;
                self.req = None;
                self.next_chunk += 1;
            }
        }
        Ok(())
    }
}

/// Interleave all clients on one virtual clock with the fleet loop's
/// tie-break (bottleneck departures first, then client index) until
/// every schedule drains.
fn run_fleet(
    discipline: QueueDiscipline,
    rate_mbps: f64,
    schedules: Vec<Vec<u64>>,
) -> Result<(), TestCaseError> {
    let bn = SharedBottleneck::new(
        SharedBottleneckConfig::fifo_mbps(rate_mbps).with_discipline(discipline),
    );
    let mut clients: Vec<Client> = schedules
        .into_iter()
        .enumerate()
        .map(|(k, sizes)| Client::new(k as u64, sizes))
        .collect();
    // Client-major subscription: flow id == client index (one shared
    // path per client).
    for (k, c) in clients.iter_mut().enumerate() {
        let flow = c.sim.attach_shared(PathId::WIFI, &bn);
        prop_assert_eq!(flow, k, "flows subscribe densely in client order");
        c.pump();
    }

    let mut now = SimTime::ZERO;
    let mut guard = 0u64;
    loop {
        guard += 1;
        prop_assert!(guard < 5_000_000, "runaway fleet schedule");
        // Globally earliest event; bottleneck wins ties so departures at
        // `t` precede any new offers at `t`.
        let mut best: Option<(SimTime, usize, usize)> = bn.next_departure().map(|t| (t, 0, 0));
        for (k, c) in clients.iter().enumerate() {
            if let Some(t) = c.sim.peek_time() {
                let key = (t, 1, k);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let Some((t, kind, k)) = best else { break };
        prop_assert!(t >= now, "fleet clock went backwards: {t} < {now}");
        now = t;
        if kind == 0 {
            let dep = bn.pop_departure().expect("a departure is due");
            clients[dep.flow]
                .sim
                .on_shared_departure(PathId::WIFI, dep.ticket, dep.at, dep.marked);
            for drop in bn.take_aqm_drops() {
                clients[drop.flow]
                    .sim
                    .on_shared_drop(PathId::WIFI, drop.ticket, drop.at);
            }
            continue;
        }
        let c = &mut clients[k];
        let Some((_, outcome)) = c.sim.step() else {
            continue;
        };
        let events = match outcome {
            StepOutcome::ServerMsg { id } => c.http.on_server_msg(&mut c.sim, id),
            StepOutcome::AppTimer { id } => {
                c.http.on_app_timer(&mut c.sim, id);
                Vec::new()
            }
            StepOutcome::Transport { newly_delivered } if newly_delivered > 0 => {
                let mut events = Vec::new();
                c.http.on_delivered(newly_delivered, &mut events);
                events
            }
            StepOutcome::Transport { .. } => Vec::new(),
        };
        c.on_events(events)?;
        c.pump();
    }

    for (k, c) in clients.iter().enumerate() {
        prop_assert!(
            c.done(),
            "client {k} wedged at chunk {}/{}",
            c.next_chunk,
            c.sizes.len()
        );
        prop_assert_eq!(c.http.inflight(), 0, "requests linger after the fleet");
    }
    let stats = bn.stats();
    prop_assert!(stats.conserved(), "conservation violated: {stats:?}");
    prop_assert_eq!(stats.queued_bytes, 0, "bytes stranded in the shared queue");
    prop_assert!(
        stats.delivered_bytes > 0,
        "the bottleneck never carried data"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random fleets (2–5 clients, random chunk schedules) over a FIFO
    /// bottleneck: conservation + exact per-flow reassembly.
    #[test]
    fn fifo_interleaving_conserves_and_never_corrupts(
        seed in 0u64..1_000_000,
        n_clients in 2usize..6,
        rate_tenths in 20u64..120,
    ) {
        let mut rng = Prng::new(seed);
        let schedules = (0..n_clients)
            .map(|_| {
                (0..1 + rng.next_below(3))
                    .map(|_| 5_000 + rng.next_below(200_000))
                    .collect()
            })
            .collect();
        run_fleet(
            QueueDiscipline::Fifo,
            rate_tenths as f64 / 10.0,
            schedules,
        )?;
    }

    /// Same property under per-flow DRR, whose round-robin interleaving
    /// reorders packets *across* flows (never within one).
    #[test]
    fn drr_interleaving_conserves_and_never_corrupts(
        seed in 0u64..1_000_000,
        n_clients in 2usize..6,
        quantum in 600u64..4000,
    ) {
        let mut rng = Prng::new(seed);
        let schedules = (0..n_clients)
            .map(|_| {
                (0..1 + rng.next_below(3))
                    .map(|_| 5_000 + rng.next_below(200_000))
                    .collect()
            })
            .collect();
        run_fleet(QueueDiscipline::FlowQueue { quantum }, 6.0, schedules)?;
    }

    /// DRR composed with per-flow PIE (FQ-PIE): byte conservation and
    /// reassembly must survive the AQM's admission drops across the
    /// whole quantum sweep. AQM drops land in `dropped_bytes`, so the
    /// `conserved()` check in `run_fleet` covers them.
    #[test]
    fn fq_pie_quantum_sweep_conserves_and_never_corrupts(
        seed in 0u64..1_000_000,
        n_clients in 2usize..6,
        quantum in 600u64..4000,
        target_ms in 2u64..40,
    ) {
        let mut rng = Prng::new(seed);
        let schedules = (0..n_clients)
            .map(|_| {
                (0..1 + rng.next_below(3))
                    .map(|_| 5_000 + rng.next_below(200_000))
                    .collect()
            })
            .collect();
        let aqm = AqmConfig::pie().with_target_ms(target_ms as f64);
        run_fleet(QueueDiscipline::FqPie { quantum, aqm }, 6.0, schedules)?;
    }

    /// CoDel's dequeue-time drops route back through `take_aqm_drops`;
    /// the per-flow ticket FIFO must stay aligned and every byte must
    /// still be accounted for.
    #[test]
    fn codel_dequeue_drops_conserve_and_never_corrupt(
        seed in 0u64..1_000_000,
        n_clients in 2usize..6,
        target_ms in 1u64..20,
    ) {
        let mut rng = Prng::new(seed);
        let schedules = (0..n_clients)
            .map(|_| {
                (0..1 + rng.next_below(3))
                    .map(|_| 5_000 + rng.next_below(200_000))
                    .collect()
            })
            .collect();
        let aqm = AqmConfig::codel().with_target_ms(target_ms as f64);
        run_fleet(QueueDiscipline::Codel(aqm), 6.0, schedules)?;
    }
}
