//! [`StreamingSession`]: one full DASH playback over the simulated
//! multipath testbed.
//!
//! The driver is the paper's client (Figure 2): four steps per chunk and
//! one signal while the chunk is in flight.
//!
//! 1. **Estimate throughput** — under MP-DASH the ABR sees the control
//!    plane's aggregate estimate in place of its own app-level one
//!    (§5.2.1).
//! 2. **Pick a level** — the ABR chooses; the video adapter then decides
//!    whether MP-DASH is active for the chunk and grants its (possibly
//!    extended) deadline window (§5). Both happen in `request_next`.
//! 3. **Fetch the chunk** — handed to `ChunkFetch` (`fetch.rs`), which
//!    owns how the bytes arrive (origins, cache, retries, resumes,
//!    hedges) and reports back once, with the finished chunk.
//! 4. **The deadline signal** — on fresh bytes and on a 50 ms tick,
//!    `progress_check` feeds delivery samples into the Holt-Winters
//!    estimators and re-runs Algorithm 1, which toggles the cellular
//!    subflow through the MPTCP path mask (the DSS-bit signaling path).
//!
//! `finish_chunk` closes the loop: completion feeds the player's buffer
//! and the next request is paced by buffer space (the idle gaps of
//! Figure 1 emerge from this, not from any explicit modelling).

use crate::accounting::{EnergyMeter, OutageSplit};
use crate::config::{SessionConfig, TransportMode};
use crate::fetch::{ChunkFetch, Inflight};
use crate::record::{Outcome, Recorder};
use crate::report::{ChunkLogEntry, DegradationMetrics, SessionReport, SimProfile};
use crate::signal::DeadlineSignal;
use mpdash_core::deadline::SchedulerParams;
use mpdash_core::MpDashControl;
use mpdash_dash::abr::{Abr, AbrInput};
use mpdash_dash::adapter::{DeadlineDecision, VideoAdapter};
use mpdash_dash::player::Player;
use mpdash_dash::qoe::{QoeScore, QoeSummary};
use mpdash_http::HttpEvent;
use mpdash_link::PathId;
use mpdash_mptcp::{MptcpConfig, MptcpSim, PathConfig, PathMask, StepOutcome};
use mpdash_obs::{telemetry_from_env, TraceEvent};
use mpdash_sim::{Rate, SimDuration, SimTime};

/// Progress-tick period while a chunk is in flight (one Holt-Winters slot,
/// ~one testbed RTT — §7.2.2).
const TICK: SimDuration = SimDuration::from_millis(50);

const TICK_ID: u64 = u64::MAX - 1;
const WAKE_ID: u64 = u64::MAX - 2;

/// A chunk in flight that delivers nothing for this long is wedged —
/// every run in the repository simulates less than this in total — and
/// the session panics rather than tick forever.
const WEDGED_AFTER: SimDuration = SimDuration::from_secs(3600);

/// The streaming-session driver. See module docs.
pub struct StreamingSession {
    cfg: SessionConfig,
    sim: MptcpSim,
    player: Player,
    abr: Box<dyn Abr>,
    /// MP-DASH only: the video adapter (§5) and the deadline signal
    /// (Algorithm 1 plus its throughput estimators).
    mpdash: Option<(VideoAdapter, DeadlineSignal)>,
    fetch: ChunkFetch,
    /// Radio energy and the outage split, fed each arrival as it lands
    /// (the receiver's packet log is for the analysis tool only).
    energy: EnergyMeter,
    outage: OutageSplit,
    /// Scratch for one delivery's HTTP events (a packet must not allocate).
    http_events: Vec<HttpEvent>,
    chunks: Vec<ChunkLogEntry>,
    last_chunk_throughput: Option<Rate>,
    /// When the connection last delivered a byte, or the chunk in flight
    /// was requested if later (see [`WEDGED_AFTER`]).
    last_byte_at: SimTime,
    /// Trace, metrics, telemetry and the report's counters.
    rec: Recorder,
    /// The viewer left (churn `max_watch` elapsed, or the fleet shed the
    /// session on admission): no further chunks are requested and the
    /// report accounts only the content actually fetched.
    departed: bool,
}

impl StreamingSession {
    /// Run a session to completion and report.
    pub fn run(cfg: SessionConfig) -> SessionReport {
        let mut s = Self::start(cfg);
        s.drive();
        s.into_report()
    }

    /// Build the session and arm its first request (immediately, or via
    /// a wake timer at `start_offset` for staggered fleet clients). The
    /// caller then owns the event loop: either [`StreamingSession::drive`]
    /// to completion, or externally via [`StreamingSession::step_once`]
    /// interleaved with other sessions.
    pub fn start(cfg: SessionConfig) -> Self {
        let mut s = Self::new(cfg);
        if s.cfg.start_offset == SimDuration::ZERO {
            s.request_next(SimTime::ZERO);
        } else {
            let at = SimTime::ZERO + s.cfg.start_offset;
            s.sim.schedule_app_timer(at, WAKE_ID);
        }
        s
    }

    fn new(cfg: SessionConfig) -> Self {
        let mptcp_cfg = MptcpConfig {
            paths: vec![
                PathConfig::symmetric(cfg.wifi.clone()),
                PathConfig::symmetric(cfg.mode.cell_link(&cfg.cell)),
            ],
            scheduler: cfg.scheduler,
            cc: cfg.cc,
        };
        let rec = Recorder::new(
            cfg.tracer.or_env(),
            cfg.telemetry.or_else(telemetry_from_env),
        );
        let mut sim = MptcpSim::new(mptcp_cfg);
        sim.set_tracer(rec.tracer.clone());
        if cfg.mode == TransportMode::WifiOnly {
            sim.set_initial_mask(PathMask::only(PathId::WIFI));
        }
        let mpdash = match cfg.mode {
            TransportMode::MpDash { deadline, alpha } => {
                let adapter = match cfg.adapter_config {
                    Some(mut ac) => {
                        ac.mode = deadline;
                        VideoAdapter::with_config(cfg.abr.category(), ac)
                    }
                    None => VideoAdapter::new(cfg.abr.category(), deadline),
                };
                let control = MpDashControl::with_predictor(
                    cfg.preference.costs().to_vec(),
                    vec![cfg.priors.0, cfg.priors.1],
                    SchedulerParams::with_alpha(alpha).with_debounce(cfg.enable_debounce),
                    cfg.sample_slot,
                    cfg.predictor,
                );
                Some((adapter, DeadlineSignal::new(control)))
            }
            _ => None,
        };
        let origin = SimTime::ZERO + cfg.start_offset;
        let mut player = Player::new(&cfg.video, cfg.buffer_capacity);
        player.set_tracer(rec.tracer.clone());
        player.set_origin(origin);
        let costs = cfg.preference.costs();
        let preferred = if costs[0] <= costs[1] {
            PathId::WIFI
        } else {
            PathId::CELLULAR
        };
        StreamingSession {
            sim,
            player,
            abr: cfg.abr.build(&cfg.video),
            mpdash,
            fetch: ChunkFetch::new(&cfg, &rec),
            energy: EnergyMeter::new(&cfg.device, origin),
            outage: OutageSplit::new(preferred),
            http_events: Vec::new(),
            chunks: Vec::new(),
            last_chunk_throughput: None,
            last_byte_at: SimTime::ZERO,
            rec,
            departed: false,
            cfg,
        }
    }

    /// Steps 1 and 2, then hand the chunk to the fetch: estimate, pick a
    /// level, let the adapter grant or bypass the deadline.
    fn request_next(&mut self, now: SimTime) {
        if self.departed {
            return;
        }
        // Churn: the viewer closes the player once their drawn viewing
        // duration elapses, even with chapters left. Checked before each
        // request so the first chunk is always fetched (a positive limit
        // cannot have elapsed at the session origin) and in-flight bytes
        // drain normally.
        if let Some(limit) = self.cfg.max_watch {
            if now.saturating_since(self.player.origin()) >= limit
                && self.player.chunks_downloaded() > 0
            {
                self.depart(now);
                return;
            }
        }
        let Some(index) = self.player.next_chunk_index() else {
            return;
        };
        self.player.advance_to(now);
        let input = AbrInput {
            buffer: self.player.buffer(),
            buffer_capacity: self.player.capacity(),
            last_level: self.player.history().last().map(|r| r.level),
            last_chunk_throughput: self.last_chunk_throughput,
            override_throughput: self.aggregate_estimate(),
        };
        let level = self.abr.select(&self.cfg.video, &input);
        let size = self.cfg.video.chunk_size(index, level);
        self.rec.tracer.emit_with(now, || TraceEvent::AbrChoice {
            chunk: index,
            level,
            estimate_mbps: input
                .override_throughput
                .or(input.last_chunk_throughput)
                .map(|r| r.as_mbps_f64())
                .unwrap_or(0.0),
        });

        let mut deadline = None;
        if let Some((adapter, signal)) = self.mpdash.as_mut() {
            let decision = adapter.decide(
                &self.cfg.video,
                self.abr.as_ref(),
                level,
                size,
                self.player.buffer(),
                self.player.capacity(),
                signal.control.aggregate_throughput(),
            );
            let enabled = match decision {
                DeadlineDecision::Schedule(window) => {
                    deadline = Some(window);
                    signal.control.mp_dash_enable(now, size, window)
                }
                DeadlineDecision::Bypass => signal.control.mp_dash_disable(),
            };
            self.sim.set_desired_mask(enabled);
            match deadline {
                Some(window) => {
                    self.rec.event(now, Outcome::DeadlineGranted, || {
                        TraceEvent::DeadlineGranted {
                            chunk: index,
                            size,
                            window_s: window.as_secs_f64(),
                        }
                    });
                }
                None => {
                    self.rec.event(now, Outcome::DeadlineBypassed, || {
                        TraceEvent::DeadlineBypassed { chunk: index }
                    });
                }
            }
        }

        self.fetch
            .begin(&mut self.sim, &mut self.rec, index, level, size, deadline);
        self.last_byte_at = now;
        self.sim.schedule_app_tick(now + TICK, TICK_ID);
    }

    /// Panic if `cur` has been in flight for [`WEDGED_AFTER`] without a
    /// byte: nothing left in the queue can move it, only ticks are alive.
    fn assert_not_wedged(&self, t: SimTime, cur: &Inflight) {
        if t.saturating_since(self.last_byte_at) <= WEDGED_AFTER {
            return;
        }
        let path = |p: PathId| {
            format!(
                "{} B in flight, {} failures / {} revivals",
                self.sim.path_in_flight(p),
                self.sim.subflow_failures(p),
                self.sim.subflow_revivals(p)
            )
        };
        panic!(
            "session wedged at {t}: chunk {} holds {} of {} B and no byte arrived since {} \
             (wifi: {}; cell: {})",
            cur.index,
            cur.received(),
            cur.size(),
            self.last_byte_at,
            path(PathId::WIFI),
            path(PathId::CELLULAR)
        );
    }

    /// The §3.2 aggregate-throughput query (MP-DASH modes only).
    fn aggregate_estimate(&self) -> Option<Rate> {
        let (_, signal) = self.mpdash.as_ref()?;
        Some(signal.control.aggregate_throughput())
    }

    /// The deadline signal (Algorithm 1): feed newly received packets
    /// into the estimators, re-run the scheduling decision on the bytes
    /// the chunk has banked, and signal a changed path mask.
    fn progress_check(&mut self, now: SimTime) {
        let (Some((_, signal)), Some(cur)) = (self.mpdash.as_mut(), self.fetch.current()) else {
            return;
        };
        let received = cur.received();
        let Some(enabled) = signal.on_progress(&self.sim, now, received) else {
            return;
        };
        // Trace the toggle with the feasibility inputs Algorithm 1 used:
        // the preferred-path estimate versus bytes left in the window.
        self.rec.event(now, Outcome::SchedulerToggle, || {
            TraceEvent::SchedulerToggle {
                cell_enabled: enabled.contains(PathId::CELLULAR),
                wifi_estimate_mbps: signal.control.estimate(0).as_mbps_f64(),
                received,
                size: cur.size(),
                window_s: cur.deadline.map(|d| d.as_secs_f64()).unwrap_or(0.0),
                elapsed_s: now.saturating_since(cur.started).as_secs_f64(),
            }
        });
        self.sim.set_desired_mask(enabled);
    }

    /// The chunk arrived: score it, feed the player, and pace the next
    /// request on buffer space.
    fn finish_chunk(&mut self, now: SimTime, done: ChunkLogEntry) {
        let fetch = now.saturating_since(done.started);
        let dl = fetch.as_secs_f64();
        if dl > 0.0 {
            self.last_chunk_throughput =
                Some(Rate::from_mbps_f64(done.size as f64 * 8.0 / dl / 1e6));
        }
        self.rec.count(now, Outcome::ChunkFetched, 1);
        self.rec
            .metrics
            .observe("chunk_fetch_ms", fetch.as_millis_f64() as u64);
        self.rec.metrics.observe("chunk_bytes", done.size);
        self.rec.epoch_add(
            now,
            "chunk_bitrate_kbps",
            self.cfg.video.bitrate(done.level).as_bps() / 1000,
        );
        if self.chunks.last().is_some_and(|p| p.level != done.level) {
            self.rec.epoch_add(now, "switches", 1);
        }
        self.rec.tracer.emit_with(now, || TraceEvent::ChunkFetched {
            chunk: done.index,
            level: done.level,
            size: done.size,
            started_s: done.started.as_secs_f64(),
        });
        if let Some(window) = done.deadline {
            let margin = window.as_secs_f64() - dl;
            let chunk = done.index;
            if margin >= 0.0 {
                self.rec
                    .event(now, Outcome::DeadlineHit, || TraceEvent::DeadlineHit {
                        chunk,
                        margin_s: margin,
                    });
            } else {
                self.rec
                    .event(now, Outcome::DeadlineMiss, || TraceEvent::DeadlineMissed {
                        chunk,
                        overrun_s: -margin,
                    });
            }
        }
        if let Some((_, signal)) = self.mpdash.as_mut() {
            // Final progress report completes the transfer (reverts the
            // transport to vanilla until the next chunk's decision).
            if let Some(enabled) = signal.control.on_progress(now, done.size, PathMask::NONE) {
                self.sim.set_desired_mask(enabled);
            }
        }
        self.player
            .on_chunk_complete(now, done.level, done.size, done.started);
        self.outage.on_chunk(&done);
        self.chunks.push(done);
        if self.player.has_space() {
            self.request_next(now);
        } else {
            let wait = self.player.time_until_space(now);
            self.sim.schedule_app_timer(now + wait, WAKE_ID);
        }
    }

    /// Hand client-side HTTP events (from a delivery or from a cancel
    /// processed at the server) to the fetch; a completed chunk closes
    /// the loop at once, so the next request is issued before the rest
    /// of the batch is looked at.
    fn on_http_events(&mut self, t: SimTime, events: &[HttpEvent]) {
        for &ev in events {
            if let Some(done) = self.fetch.on_http_event(&mut self.sim, &mut self.rec, ev) {
                self.finish_chunk(t, done);
            }
        }
    }

    /// Time of this session's next pending event, if any (fleet
    /// interleaving).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.sim.peek_time()
    }

    /// True once every chunk is downloaded (or the viewer departed) and
    /// the transport has drained. A finished session schedules no
    /// further shared-bottleneck packets.
    pub fn finished(&self) -> bool {
        (self.player.download_complete() || self.departed) && self.sim.quiescent()
    }

    /// True while a packet of this session waits in a shared bottleneck
    /// (see [`MptcpSim::owns_queued_packets`]): a finished session can
    /// still be handed its departure.
    pub fn owns_queued_packets(&self) -> bool {
        self.sim.owns_queued_packets()
    }

    /// True when this session emits trace events (its config's tracer,
    /// or `MPDASH_TRACE`'s): [`Self::into_report`] then traces the
    /// player's last transitions.
    pub fn traces(&self) -> bool {
        self.rec.tracer.enabled()
    }

    /// Viewer departure: stop requesting chunks, let in-flight transport
    /// drain, and finalize a partial report.
    fn depart(&mut self, now: SimTime) {
        self.departed = true;
        self.player.depart();
        let watched = now.saturating_since(self.player.origin());
        let chunks = self.player.chunks_downloaded() as u64;
        self.rec
            .event(now, Outcome::Departed, || TraceEvent::SessionDeparted {
                watched_s: watched.as_secs_f64(),
                chunks,
            });
    }

    /// Admission-control shedding (fleet overload policy): the session
    /// is turned away before its first request. It finalizes an empty
    /// report — zero chunks, zero bytes — without ever being stepped.
    pub fn mark_shed(&mut self) {
        self.departed = true;
        self.player.depart();
        self.rec.count(self.sim.now(), Outcome::Shed, 1);
    }

    /// Hedge accounting counters for the runtime watchdog:
    /// `(hedges, wins_primary, wins_hedge)`.
    pub fn hedge_accounting(&self) -> (u64, u64, u64) {
        let o = &self.rec.origin;
        (o.hedges, o.hedge_wins_primary, o.hedge_wins_hedge)
    }

    /// Breaker-state sanity probe for the runtime watchdog (`Ok(())`
    /// for poolless sessions).
    pub fn breaker_sanity(&self) -> Result<(), &'static str> {
        self.fetch.breaker_sanity()
    }

    /// Keep the packet log (the default) or not, from the next packet
    /// on. Only [`SessionReport::records`] depends on it: every other
    /// figure of the report is accounted per arrival either way.
    pub fn set_logging(&mut self, on: bool) {
        self.sim.set_logging(on);
    }

    /// Route one of this session's paths through a shared bottleneck.
    /// Must be called before the first request is transmitted (i.e.
    /// right after [`StreamingSession::start`], before any stepping).
    pub fn attach_shared(
        &mut self,
        path: PathId,
        bottleneck: &mpdash_link::SharedBottleneck,
    ) -> mpdash_link::FlowId {
        self.sim.attach_shared(path, bottleneck)
    }

    /// Feed back a shared-bottleneck departure for one of this session's
    /// packets (see [`MptcpSim::on_shared_departure`]). `marked` carries
    /// an AQM ECN mark through to the transport.
    pub fn on_shared_departure(
        &mut self,
        path: PathId,
        ticket: mpdash_link::Ticket,
        depart_at: SimTime,
        marked: bool,
    ) {
        self.sim
            .on_shared_departure(path, ticket, depart_at, marked);
    }

    /// Feed back a shared-bottleneck AQM dequeue drop for one of this
    /// session's packets (see [`MptcpSim::on_shared_drop`]).
    pub fn on_shared_drop(&mut self, path: PathId, ticket: mpdash_link::Ticket, at: SimTime) {
        self.sim.on_shared_drop(path, ticket, at);
    }

    /// Process one event from this session's queue; `false` when the
    /// queue is empty.
    pub fn step_once(&mut self) -> bool {
        let Some((t, outcome)) = self.sim.step() else {
            return false;
        };
        if let Some(r) = self.sim.arrival() {
            self.energy.on_arrival(r);
            self.outage.on_arrival(r);
            if let Some((_, signal)) = self.mpdash.as_mut() {
                signal.on_arrival(r);
            }
        }
        match outcome {
            StepOutcome::Transport { newly_delivered } => {
                if newly_delivered > 0 {
                    self.last_byte_at = t;
                    let mut events = std::mem::take(&mut self.http_events);
                    events.clear();
                    self.fetch.on_delivered(newly_delivered, &mut events);
                    self.on_http_events(t, &events);
                    self.http_events = events;
                    // Mid-download decision on fresh bytes.
                    self.progress_check(t);
                }
            }
            StepOutcome::AppTimer { id: TICK_ID } => {
                if let Some(cur) = self.fetch.current() {
                    self.assert_not_wedged(t, cur);
                    self.player.advance_to(t);
                    self.progress_check(t);
                    let control = self.mpdash.as_ref().map(|(_, signal)| &signal.control);
                    self.fetch.tick(&mut self.sim, &mut self.rec, control);
                    self.rec.sample(t, &self.sim, &self.player);
                    self.sim.schedule_app_tick(t + TICK, TICK_ID);
                }
            }
            StepOutcome::AppTimer { id: WAKE_ID } => {
                self.request_next(t);
            }
            StepOutcome::AppTimer { id } => {
                self.fetch.on_timer(&mut self.sim, &mut self.rec, id);
            }
            StepOutcome::ServerMsg { id } => {
                let events = self.fetch.on_server_msg(&mut self.sim, id);
                self.on_http_events(t, &events);
            }
        }
        true
    }

    fn drive(&mut self) {
        while !self.finished() && self.step_once() {}
        assert!(
            self.player.download_complete() || self.departed,
            "session ended with {}/{} chunks",
            self.player.chunks_downloaded(),
            self.cfg.video.n_chunks()
        );
    }

    /// Final QoE/energy/report accounting. Callers outside
    /// [`StreamingSession::run`] (the fleet loop) must only call this
    /// once [`StreamingSession::finished`] holds.
    pub fn into_report(mut self) -> SessionReport {
        // Let the remaining buffer play out for final QoE accounting.
        // All session clocks measure from the player's origin (zero for
        // standalone runs, the stagger offset for fleet clients).
        let origin = self.player.origin();
        let startup = self.player.startup_delay().unwrap_or(SimDuration::ZERO);
        // Departed viewers only play out the content they fetched; full
        // sessions play out the whole video.
        let content = if self.departed {
            self.cfg
                .video
                .chunk_duration()
                .mul_f64(self.player.chunks_downloaded() as f64)
        } else {
            self.cfg.video.total_duration()
        };
        let playout_end = origin + startup + content + self.player.stall_time();
        let end = playout_end.max(self.sim.now());
        self.player.advance_to(end);
        let duration = end.saturating_since(origin);
        // Final telemetry sample: flush the remaining per-path byte and
        // stall deltas so epoch totals match the report's exactly.
        self.rec.sample(end, &self.sim, &self.player);

        let scheduler_stats = self
            .mpdash
            .as_ref()
            .map(|(_, signal)| signal.control.stats())
            .unwrap_or_default();
        let degradation = DegradationMetrics {
            deadline_misses: scheduler_stats.missed_deadlines,
            outage_bridged_chunks: self.outage.bridged(),
            subflow_failures: self.sim.subflow_failures(PathId::WIFI)
                + self.sim.subflow_failures(PathId::CELLULAR),
            subflow_revivals: self.sim.subflow_revivals(PathId::WIFI)
                + self.sim.subflow_revivals(PathId::CELLULAR),
        };

        // Fold the end-of-run aggregates into the registry so the
        // snapshot is self-contained (counters registered during the run
        // keep their earlier positions).
        let Recorder {
            metrics, lifecycle, ..
        } = &mut self.rec;
        metrics.add("scheduler_toggle_total", scheduler_stats.toggles);
        metrics.add("subflow_failures", degradation.subflow_failures);
        metrics.add("subflow_revivals", degradation.subflow_revivals);
        metrics.add("stalls", self.player.stalls());
        metrics.add("lifecycle_timeouts", lifecycle.timeouts);
        metrics.add("lifecycle_abandoned", lifecycle.abandoned);
        metrics.add("lifecycle_resumed", lifecycle.resumed);
        metrics.add("lifecycle_retried", lifecycle.retried);
        self.rec.tracer.flush();

        let qoe = QoeSummary::from_player(&self.cfg.video, &self.player, 0.2);
        let top_rung_mbps = self
            .cfg
            .video
            .bitrate(self.cfg.video.n_levels() - 1)
            .as_mbps_f64();
        let qoe_score = QoeScore::compute(&qoe, duration, top_rung_mbps);
        SessionReport {
            qoe,
            qoe_all: QoeSummary::from_player(&self.cfg.video, &self.player, 0.0),
            qoe_score,
            epochs: self.rec.take_epochs(),
            wifi_bytes: self.sim.path_bytes(PathId::WIFI),
            cell_bytes: self.sim.path_bytes(PathId::CELLULAR),
            energy: self.energy.finish(duration),
            duration,
            chunks: self.chunks,
            records: self.sim.take_records(),
            scheduler_stats,
            player_events: self.player.events().to_vec(),
            degradation,
            lifecycle: self.rec.lifecycle,
            origin: self.rec.origin,
            departed: self.departed,
            metrics: self.rec.metrics.snapshot(),
            sim_profile: SimProfile::of(&self.sim),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_dash::abr::AbrKind;
    use mpdash_dash::video::Video;
    use mpdash_trace::table1;

    /// A shortened Big Buck Bunny so debug-mode tests stay fast.
    fn short_video() -> Video {
        Video::new(
            "Big Buck Bunny (short)",
            &[0.58, 1.01, 1.47, 2.41, 3.94],
            SimDuration::from_secs(4),
            40,
        )
    }

    fn controlled(abr: AbrKind, mode: TransportMode) -> SessionConfig {
        SessionConfig::controlled(
            table1::synthetic_profile_pair(3.8, 3.0, 0.10, 42),
            abr,
            mode,
        )
        .with_video(short_video())
    }

    #[test]
    fn vanilla_festive_reaches_top_rate_with_heavy_cellular() {
        let report = StreamingSession::run(controlled(AbrKind::Festive, TransportMode::Vanilla));
        assert_eq!(report.qoe.stalls, 0);
        // Aggregate 6.8 Mbps sustains 3.94 Mbps: steady state at the top.
        assert!(
            report.qoe.mean_bitrate_mbps > 3.5,
            "mean bitrate {:.2}",
            report.qoe.mean_bitrate_mbps
        );
        // The §2.3 problem: a large share of bytes ride LTE for no reason.
        assert!(
            report.cell_fraction() > 0.25,
            "vanilla cellular share {:.2}",
            report.cell_fraction()
        );
    }

    #[test]
    fn mpdash_slashes_cellular_without_hurting_qoe() {
        let base = StreamingSession::run(controlled(AbrKind::Festive, TransportMode::Vanilla));
        let mp = StreamingSession::run(controlled(
            AbrKind::Festive,
            TransportMode::mpdash_rate_based(),
        ));
        assert_eq!(mp.qoe.stalls, 0, "MP-DASH must not stall");
        let saving = mp.cell_saving_vs(&base);
        assert!(
            saving > 0.4,
            "cellular saving {:.2} (mp {} vs base {})",
            saving,
            mp.cell_bytes,
            base.cell_bytes
        );
        // Negligible bitrate impact (paper: no reduction in the common
        // case).
        let reduction = mp.qoe.bitrate_reduction_vs(&base.qoe);
        assert!(
            reduction < 0.1,
            "bitrate reduction {:.3} too large",
            reduction
        );
        // Energy: W3.8/L3.0 is the paper's *hardest* energy case — WiFi
        // goodput sits just under the top bitrate, so cellular slivers
        // into most chunks and the LTE radio rarely sleeps (Table 5's
        // scenario-1 rows show only 7–12% energy savings at similar
        // headroom). Require "not materially worse"; the strong energy
        // wins appear in the high-WiFi-headroom tests and benches.
        assert!(
            mp.energy_saving_vs(&base) > -0.08,
            "energy {:.1} J vs {:.1} J",
            mp.energy.total_j(),
            base.energy.total_j()
        );
    }

    #[test]
    fn high_wifi_headroom_gives_large_energy_savings() {
        // The Library-like case (§7.3.3, Table 5 scenario 3): WiFi 17.8
        // Mbps dwarfs the 3.94 Mbps top bitrate, so MP-DASH keeps the
        // cellular subflow silent and the LTE radio asleep — the paper
        // reports 78–85% energy and 97%+ cellular savings there.
        let mk = |mode| {
            SessionConfig::controlled(
                table1::synthetic_profile_pair(17.8, 5.18, 0.12, 1),
                AbrKind::Festive,
                mode,
            )
            .with_video(short_video())
        };
        let base = StreamingSession::run(mk(TransportMode::Vanilla));
        let mp = StreamingSession::run(mk(TransportMode::mpdash_rate_based()));
        assert_eq!(mp.qoe.stalls, 0);
        assert!(
            mp.cell_saving_vs(&base) > 0.9,
            "cellular saving {:.2}",
            mp.cell_saving_vs(&base)
        );
        assert!(
            mp.energy_saving_vs(&base) > 0.3,
            "energy saving {:.2} (mp {:.1} J vs base {:.1} J)",
            mp.energy_saving_vs(&base),
            mp.energy.total_j(),
            base.energy.total_j()
        );
        // No bitrate penalty.
        assert!(mp.qoe.bitrate_reduction_vs(&base.qoe) < 0.05);
    }

    #[test]
    fn wifi_only_cannot_sustain_top_rate_at_2mbps() {
        let cfg = SessionConfig::controlled(
            table1::synthetic_profile_pair(2.0, 3.0, 0.10, 7),
            AbrKind::Festive,
            TransportMode::WifiOnly,
        )
        .with_video(short_video());
        let report = StreamingSession::run(cfg);
        assert_eq!(report.cell_bytes, 0, "wifi-only must not touch LTE");
        assert!(
            report.qoe.mean_bitrate_mbps < 2.0,
            "bitrate {:.2} should be limited by wifi",
            report.qoe.mean_bitrate_mbps
        );
    }

    #[test]
    fn telemetry_is_observe_only_and_epoch_totals_match_the_report() {
        use mpdash_obs::TelemetrySpec;
        let mk = || {
            controlled(AbrKind::Festive, TransportMode::mpdash_rate_based())
                .with_video(short_video())
        };
        let off = StreamingSession::run(mk());
        let on = StreamingSession::run(mk().with_telemetry(TelemetrySpec::seconds(2.0)));
        // The PR 3 invariant, extended: telemetry on vs off changes
        // zero artifact bytes.
        assert_eq!(
            off.summary_json().to_pretty(),
            on.summary_json().to_pretty(),
            "telemetry perturbed the artifact"
        );
        assert!(off.epochs.is_none());
        let series = on.epochs.expect("telemetry was enabled");
        // Per-epoch deltas sum exactly to the whole-session totals.
        assert_eq!(series.counter_total("wifi_bytes"), on.wifi_bytes);
        assert_eq!(series.counter_total("cell_bytes"), on.cell_bytes);
        assert_eq!(series.counter_total("chunks"), on.qoe_all.chunks as u64);
        assert!(series.n_epochs() > 1, "a session spans several epochs");
        // The composite QoE score is telemetry-independent.
        assert_eq!(off.qoe_score, on.qoe_score);
        assert!(on.qoe_score.composite > 0.0);
    }

    #[test]
    fn deterministic_given_same_config() {
        let a = StreamingSession::run(controlled(
            AbrKind::Festive,
            TransportMode::mpdash_rate_based(),
        ));
        let b = StreamingSession::run(controlled(
            AbrKind::Festive,
            TransportMode::mpdash_rate_based(),
        ));
        assert_eq!(a.cell_bytes, b.cell_bytes);
        assert_eq!(a.wifi_bytes, b.wifi_bytes);
        assert_eq!(a.qoe, b.qoe);
    }

    #[test]
    fn chunk_log_is_complete_and_ordered() {
        let report = StreamingSession::run(controlled(AbrKind::Gpac, TransportMode::Vanilla));
        assert_eq!(report.chunks.len(), 40);
        for (i, c) in report.chunks.iter().enumerate() {
            assert_eq!(c.index, i);
            assert!(c.completed > c.started);
            assert_eq!(c.body_dss.len(), c.size);
        }
        // Bodies are disjoint and ascending in the stream.
        for w in report.chunks.windows(2) {
            assert!(w[1].body_dss.start >= w[0].body_dss.end);
        }
    }

    #[test]
    fn server_error_burst_is_retried_and_recovered() {
        use mpdash_http::{LifecyclePolicy, ServerFaultScript};
        let faults =
            ServerFaultScript::new().error_burst(SimTime::from_secs(5), SimDuration::from_secs(2));
        let cfg = controlled(AbrKind::Festive, TransportMode::mpdash_rate_based())
            .with_server_faults(faults)
            .with_lifecycle(LifecyclePolicy::retry_only());
        let report = StreamingSession::run(cfg);
        assert_eq!(report.chunks.len(), 40, "every chunk must still arrive");
        assert!(
            report.lifecycle.retried > 0,
            "a 2s error burst must force at least one retry"
        );
        assert!(
            report.chunks.iter().any(|c| c.requests > 1),
            "retried chunks must log extra requests"
        );
        assert_eq!(report.lifecycle.abandoned, 0, "retry-only never cancels");
    }

    #[test]
    fn error_burst_on_a_cancelling_request_still_resumes() {
        use mpdash_http::{LifecyclePolicy, ServerFaultScript};
        // A 5xx that lands on a request whose cancel is in flight is that
        // request's drained abort: every abandonment is followed by its
        // byte-range resume and no chunk goes dark, whenever the burst
        // starts and however long it lasts.
        for start in [5, 9, 13, 17, 21, 30] {
            for secs in [4, 8, 12] {
                let faults = ServerFaultScript::new()
                    .error_burst(SimTime::from_secs(start), SimDuration::from_secs(secs));
                let cfg = controlled(AbrKind::Festive, TransportMode::mpdash_rate_based())
                    .with_server_faults(faults)
                    .with_lifecycle(LifecyclePolicy::deadline_aware());
                let report = StreamingSession::run(cfg);
                assert_eq!(
                    report.lifecycle.resumed, report.lifecycle.abandoned,
                    "burst at {start}s for {secs}s stranded a chunk"
                );
                assert_eq!(report.chunks.len(), 40, "burst at {start}s for {secs}s");
            }
        }
    }

    #[test]
    fn stalled_body_abandon_resume_beats_wait_forever() {
        use mpdash_http::{LifecyclePolicy, ServerFaultScript};
        // A response body that freezes for 30s mid-chunk: wait-forever
        // rides the whole stall out, the deadline-aware policy cancels
        // the doomed request and range-fetches the missing tail.
        let faults = || {
            ServerFaultScript::new().stalled_body(
                SimTime::from_secs(8),
                SimDuration::from_secs(1),
                SimDuration::from_secs(30),
                0.5,
            )
        };
        let mk = |policy| {
            controlled(AbrKind::Festive, TransportMode::mpdash_rate_based())
                .with_server_faults(faults())
                .with_lifecycle(policy)
        };
        let wait = StreamingSession::run(mk(LifecyclePolicy::wait_forever()));
        let resume = StreamingSession::run(mk(LifecyclePolicy::deadline_aware()));
        assert_eq!(wait.lifecycle.abandoned, 0);
        assert!(
            resume.lifecycle.abandoned >= 1,
            "the stalled body must trigger an abandonment"
        );
        assert_eq!(
            resume.lifecycle.resumed, resume.lifecycle.abandoned,
            "every abandonment must be followed by a byte-range resume"
        );
        assert!(
            resume.qoe_all.stall_time <= wait.qoe_all.stall_time,
            "resume stall {:.2}s vs wait {:.2}s",
            resume.qoe_all.stall_time.as_secs_f64(),
            wait.qoe_all.stall_time.as_secs_f64()
        );
        assert!(
            resume.duration < wait.duration,
            "abandon+resume must finish earlier ({:.1}s vs {:.1}s)",
            resume.duration.as_secs_f64(),
            wait.duration.as_secs_f64()
        );
        assert_eq!(resume.chunks.len(), 40, "no chunk may be lost to a cancel");
    }

    #[test]
    fn lifecycle_runs_stay_deterministic() {
        use mpdash_http::{LifecyclePolicy, ServerFaultScript};
        let mk = || {
            controlled(AbrKind::Festive, TransportMode::mpdash_rate_based())
                .with_server_faults(
                    ServerFaultScript::new()
                        .error_burst(SimTime::from_secs(3), SimDuration::from_secs(1))
                        .stalled_body(
                            SimTime::from_secs(10),
                            SimDuration::from_secs(1),
                            SimDuration::from_secs(30),
                            0.3,
                        ),
                )
                .with_lifecycle(LifecyclePolicy::deadline_aware())
        };
        let a = StreamingSession::run(mk());
        let b = StreamingSession::run(mk());
        assert_eq!(a.lifecycle, b.lifecycle);
        assert_eq!(a.summary_json().to_string(), b.summary_json().to_string());
    }

    #[test]
    fn throughput_override_unlocks_top_level_under_mpdash() {
        // At W3.8/L3.0 with MP-DASH mostly running WiFi-only, the
        // app-level measurement alone would cap FESTIVE near 3.6 Mbps and
        // it would sit at level 3 — the aggregate override (§5.2.1) is
        // what lets it pick level 4. Verify level 4 dominates.
        let report = StreamingSession::run(controlled(
            AbrKind::Festive,
            TransportMode::mpdash_rate_based(),
        ));
        let top = report
            .chunks
            .iter()
            .skip(report.chunks.len() / 3)
            .filter(|c| c.level == 4)
            .count();
        let counted = report.chunks.len() - report.chunks.len() / 3;
        assert!(
            top * 10 >= counted * 8,
            "level 4 in only {top}/{counted} steady chunks"
        );
    }

    #[test]
    fn steady_state_requests_are_paced_by_playback() {
        // Once the buffer is full, chunk starts must be ~one chunk
        // duration apart (the Figure 1 idle-gap pacing).
        let report = StreamingSession::run(controlled(AbrKind::Festive, TransportMode::Vanilla));
        let starts: Vec<f64> = report
            .chunks
            .iter()
            .skip(report.chunks.len() / 2)
            .map(|c| c.started.as_secs_f64())
            .collect();
        let gaps: Vec<f64> = starts.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(
            (mean - 4.0).abs() < 0.5,
            "steady-state request cadence {mean:.2}s vs 4s chunks"
        );
    }

    #[test]
    fn startup_chunks_bypass_then_schedule() {
        let report = StreamingSession::run(controlled(
            AbrKind::Festive,
            TransportMode::mpdash_rate_based(),
        ));
        // The first scheduled chunk appears only after some bypassed ones,
        // and once scheduling starts it persists (no flapping back to
        // long bypass runs).
        let first_scheduled = report
            .chunks
            .iter()
            .position(|c| c.deadline.is_some())
            .expect("some chunk gets scheduled");
        assert!(first_scheduled >= 1, "chunk 0 must bypass (empty buffer)");
        let tail_bypassed = report.chunks[first_scheduled..]
            .iter()
            .filter(|c| c.deadline.is_none())
            .count();
        assert!(
            tail_bypassed * 4 <= report.chunks.len() - first_scheduled,
            "bypasses after scheduling began: {tail_bypassed}"
        );
    }

    #[test]
    fn mpdash_grants_deadlines_once_buffer_builds() {
        let report = StreamingSession::run(controlled(
            AbrKind::Festive,
            TransportMode::mpdash_rate_based(),
        ));
        // Early chunks bypass (low buffer), later ones are scheduled.
        assert!(report.chunks[0].deadline.is_none(), "startup must bypass");
        let scheduled = report
            .chunks
            .iter()
            .filter(|c| c.deadline.is_some())
            .count();
        assert!(
            scheduled > report.chunks.len() / 2,
            "only {scheduled} chunks scheduled"
        );
        let stats = report.scheduler_stats;
        assert_eq!(
            stats.missed_deadlines, 0,
            "no deadline misses in the easy setting"
        );
        assert_eq!(stats.completed_transfers as usize, scheduled);
    }

    /// Three origins: the primary is cheap but blackholed mid-run, the
    /// backups carry small RTT penalties and stay healthy.
    fn dark_primary_pool() -> mpdash_http::OriginPoolConfig {
        use mpdash_http::{OriginPoolConfig, OriginSpec, ServerFaultScript};
        OriginPoolConfig::new(vec![
            OriginSpec::new("primary").with_faults(
                ServerFaultScript::new()
                    .blackhole(SimTime::from_secs(20), SimDuration::from_secs(80)),
            ),
            OriginSpec::new("backup-a").with_rtt_penalty(SimDuration::from_millis(20)),
            OriginSpec::new("backup-b").with_rtt_penalty(SimDuration::from_millis(40)),
        ])
    }

    #[test]
    fn healthy_pool_routes_everything_without_intervening() {
        use mpdash_http::{OriginPoolConfig, OriginSpec};
        let pool = OriginPoolConfig::new(vec![
            OriginSpec::new("a"),
            OriginSpec::new("b").with_rtt_penalty(SimDuration::from_millis(25)),
        ]);
        let cfg =
            controlled(AbrKind::Festive, TransportMode::mpdash_rate_based()).with_origins(pool);
        let report = StreamingSession::run(cfg);
        assert_eq!(report.chunks.len(), 40);
        assert_eq!(report.origin.routed, 40, "one routed request per chunk");
        assert_eq!(report.origin.failovers, 0);
        assert_eq!(report.origin.breaker_opens, 0);
        assert_eq!(report.origin.hedges, 0);
        assert_eq!(report.qoe.stalls, 0);
    }

    #[test]
    fn blackholed_primary_trips_breaker_and_fails_over() {
        use mpdash_http::LifecyclePolicy;
        let cfg = controlled(AbrKind::Festive, TransportMode::mpdash_rate_based())
            .with_origins(dark_primary_pool())
            .with_lifecycle(LifecyclePolicy::deadline_aware());
        let report = StreamingSession::run(cfg);
        assert_eq!(report.chunks.len(), 40, "failover must deliver every chunk");
        assert!(
            report.origin.breaker_opens >= 1,
            "repeated stalls on the dark origin must open its breaker"
        );
        assert!(
            report.origin.failovers >= 1,
            "at least one resume must land on a backup origin"
        );
        assert!(
            report.lifecycle.abandoned >= 1,
            "the blackhole must trigger abandonment"
        );
        // The backups keep the session moving: the 80s outage must not
        // translate into 80s of wall time.
        assert!(
            report.duration < SimDuration::from_secs(60 + 40 * 4),
            "failover session took {:.1}s",
            report.duration.as_secs_f64()
        );
    }

    #[test]
    fn hedged_fetch_escapes_the_blackhole_with_one_winner_per_race() {
        use mpdash_http::LifecyclePolicy;
        // Wait-forever lifecycle isolates the hedge: hedging is the only
        // escape hatch from the dark origin.
        let cfg = controlled(AbrKind::Festive, TransportMode::mpdash_rate_based())
            .with_origins(dark_primary_pool().with_hedge_quantile(0.5))
            .with_lifecycle(LifecyclePolicy::wait_forever());
        let report = StreamingSession::run(cfg);
        assert_eq!(report.chunks.len(), 40, "hedging must deliver every chunk");
        assert!(
            report.origin.hedges >= 1,
            "the blackholed primary must trigger a hedge race"
        );
        assert_eq!(
            report.origin.hedges,
            report.origin.hedge_wins_primary + report.origin.hedge_wins_hedge,
            "every hedge race must resolve to exactly one winner"
        );
        assert!(
            report.origin.hedge_wins_hedge >= 1,
            "a blackholed primary cannot win its race"
        );
        assert_eq!(
            report.lifecycle.abandoned, 0,
            "wait-forever never abandons; the hedge path must not count as one"
        );
    }

    #[test]
    fn shared_cache_serves_the_second_session_from_the_edge() {
        use mpdash_http::SharedSegmentCache;
        let cache = SharedSegmentCache::new(256 * 1024 * 1024);
        let mk = || {
            controlled(AbrKind::Festive, TransportMode::mpdash_rate_based())
                .with_cache(cache.clone())
        };
        let first = StreamingSession::run(mk());
        assert_eq!(first.origin.cache_hits, 0, "a cold cache cannot hit");
        assert!(
            first.origin.cache_insertions > 0,
            "completed chunks must populate the cache"
        );
        let second = StreamingSession::run(mk());
        assert!(
            second.origin.cache_hits > 0,
            "the warmed cache must serve repeat chunks ({} misses)",
            second.origin.cache_misses
        );
        assert_eq!(
            second.origin.cache_hits + second.origin.cache_misses,
            second.chunks.len() as u64,
            "every chunk request consults the cache exactly once"
        );
        assert_eq!(second.chunks.len(), 40);
        assert_eq!(second.qoe.stalls, 0);
        // Cached bytes are byte-identical to origin bytes: sizes in the
        // chunk log always match the manifest.
        let video = short_video();
        for c in &second.chunks {
            assert_eq!(c.size, video.chunk_size(c.index, c.level));
        }
    }

    #[test]
    fn pool_and_cache_runs_stay_deterministic() {
        use mpdash_http::{LifecyclePolicy, SharedSegmentCache};
        let mk = || {
            controlled(AbrKind::Festive, TransportMode::mpdash_rate_based())
                .with_origins(dark_primary_pool().with_hedge_quantile(0.6))
                .with_lifecycle(LifecyclePolicy::deadline_aware())
                .with_cache(SharedSegmentCache::new(64 * 1024 * 1024))
        };
        let a = StreamingSession::run(mk());
        let b = StreamingSession::run(mk());
        assert_eq!(a.origin, b.origin);
        assert_eq!(a.lifecycle, b.lifecycle);
        assert_eq!(a.summary_json().to_string(), b.summary_json().to_string());
    }
}
