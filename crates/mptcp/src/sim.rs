//! [`MptcpSim`]: one MPTCP connection, its links, and the event loop.
//!
//! This is the self-contained "testbed in a struct" the application layers
//! drive: a data **sender** (the video server), a data **receiver** (the
//! client), and one simulated [`Link`] per path for the data direction. An
//! ACK returns after the same link's one-way delay (ACKs are ~40-byte
//! packets on links whose reverse direction is never the bottleneck in any
//! of the paper's scenarios, so they get delay but no queueing — a
//! documented simplification).
//!
//! The application interacts through four verbs:
//!
//! * [`MptcpSim::send_app`] — the server queues response bytes.
//! * [`MptcpSim::send_request`] — the client sends a small upstream
//!   message (an HTTP request); it arrives at the server as
//!   [`StepOutcome::ServerMsg`] after the primary path's one-way delay and
//!   carries the current desired path mask (MP-DASH piggybacks its
//!   decision on outgoing traffic).
//! * [`MptcpSim::set_desired_mask`] — the client-side MP-DASH decision
//!   function flips subflows on or off; the change is signaled to the
//!   sender on the next ACK (and a pure control ACK is emitted if the
//!   connection is quiescent).
//! * [`MptcpSim::schedule_app_timer`] — applications (the DASH player, the
//!   MP-DASH scheduler's progress checks) get wakeups in the same virtual
//!   time domain.
//!
//! Call [`MptcpSim::step`] in a loop; each call processes one event and
//! reports what happened.

use crate::cc::CcKind;
use crate::packet::{PacketLog, PktRecord, MSS};
use crate::receiver::Receiver;
use crate::scheduler::SchedulerSpec;
use crate::sender::{Sender, Transmit};
use mpdash_link::{
    DropReason, Link, LinkConfig, PathId, SendOutcome, SharedBottleneck, SharedOutcome, Ticket,
};
use mpdash_obs::{TraceEvent, Tracer};
use mpdash_sim::queue::SHARED_LANE;
use mpdash_sim::{EventQueue, GiveBackSlack, PathMask, Rate, SimDuration, SimTime};
use std::collections::VecDeque;

/// TCP/IP header bytes charged to the link per data packet.
pub(crate) const HEADER_BYTES: u64 = 40;

/// Configuration of the whole connection.
#[derive(Clone, Debug)]
pub struct MptcpConfig {
    /// Each path's data-direction link (server → client); index is the
    /// [`PathId`]. ACKs return after the same link's one-way delay.
    pub paths: Vec<LinkConfig>,
    /// Which packet scheduler distributes segments (see [`crate::scheduler`]).
    pub scheduler: SchedulerSpec,
    /// Congestion control used by every subflow (decoupled).
    pub cc: CcKind,
}

impl MptcpConfig {
    /// The canonical two-path (WiFi + cellular) setup used by every
    /// experiment in the paper.
    pub fn two_path(wifi: LinkConfig, cellular: LinkConfig) -> Self {
        MptcpConfig {
            paths: vec![wifi, cellular],
            scheduler: SchedulerSpec::MinRtt,
            cc: CcKind::Reno,
        }
    }
}

/// What one [`MptcpSim::step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// A transport event was processed; `newly_delivered` connection bytes
    /// became readable by the client application (possibly zero).
    Transport { newly_delivered: u64 },
    /// An application timer fired.
    AppTimer { id: u64 },
    /// A client→server message arrived at the server application.
    ServerMsg { id: u64 },
}

/// A packet handed to a [`SharedBottleneck`] and awaiting its departure.
/// The fleet loop pops the bottleneck's departures and calls
/// [`MptcpSim::on_shared_departure`] to turn each back into an
/// [`Event::Data`] on this connection's queue.
struct PendingPkt {
    ticket: Ticket,
    seq: u64,
    len: u64,
    dss: u64,
    retx: bool,
    syn: bool,
    /// When the packet was offered (for queue-wait tracing).
    offered: SimTime,
}

enum Event {
    Data {
        path: PathId,
        seq: u64,
        len: u64,
        dss: u64,
        retx: bool,
        syn: bool,
        /// AQM marked this packet (ECN CE) instead of dropping it; the
        /// receiver echoes the mark on the covering ACK.
        ecn: bool,
    },
    Ack {
        path: PathId,
        ack: u64,
        mask: PathMask,
        /// ECN congestion echo: the segment this ACK covers arrived
        /// marked.
        ecn: bool,
    },
    Timer {
        path: PathId,
    },
    App {
        id: u64,
    },
    ReverseMsg {
        id: u64,
        mask: PathMask,
    },
}

/// The event queue's lanes, one per stream whose fire times ascend by
/// construction (DESIGN §4.3): data arrivals of path 0 and path 1 (a
/// link serializes in order; a shared bottleneck's departures are FIFO
/// per flow), their ACKs (`now` + a fixed delay) and the ticks (`now` +
/// one period). Everything sparser — transport timers, other application
/// timers, requests, a third path — shares [`SHARED_LANE`].
const TICK_LANE: usize = 4;

fn data_lane(path: PathId) -> usize {
    match path.index() {
        p @ 0..=1 => p,
        _ => SHARED_LANE,
    }
}

fn ack_lane(path: PathId) -> usize {
    match path.index() {
        p @ 0..=1 => 2 + p,
        _ => SHARED_LANE,
    }
}

/// [`MptcpSim::events_popped`] by event kind (the fields sum to it): a
/// timer chain that pops without doing work shows up here by name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoppedByKind {
    /// Data-packet arrivals at the receiver.
    pub data: u64,
    /// ACK arrivals at the sender (pure control ACKs included).
    pub ack: u64,
    /// Transport-timer events (RTOs), stale ones included.
    pub rto: u64,
    /// Application timers.
    pub app_timer: u64,
    /// Client→server messages arriving at the server.
    pub reverse_msg: u64,
}

/// One MPTCP connection with its links and event queue. See module docs.
pub struct MptcpSim {
    queue: EventQueue<Event>,
    popped: PoppedByKind,
    links: Vec<Link>,
    snd: Sender,
    rcv: Receiver,
    /// The data packet the last [`MptcpSim::step`] received, if it
    /// received one.
    arrival: Option<PktRecord>,
    /// Time of each path's live `Event::Timer` (lazy: at or before its
    /// deadline); a `Timer` popped at any other time was superseded.
    timer_at: Vec<Option<SimTime>>,
    /// Per-path packets currently queued inside a shared bottleneck.
    /// Departures within one flow are FIFO under both disciplines, so a
    /// `VecDeque` plus a ticket assertion is exact. A flow's share of a
    /// deep queue once filled it; departures and drops give that slack
    /// back (`mpdash_sim::slack`).
    deferred: Vec<VecDeque<PendingPkt>>,
    /// Scratch for `pump`'s per-path queue-depth sample, kept so a pump
    /// does not allocate.
    depths: Vec<Option<u64>>,
    /// Scratch for the transmissions one `pump` realizes, likewise.
    pumped: Vec<Transmit>,
    /// Observe-only trace emission (DSS signals, subflow transitions,
    /// cwnd/SRTT samples); never feeds back into transport state.
    tracer: Tracer,
    /// Per-path failure/revival counts already reported to the tracer.
    trace_failures_seen: Vec<u64>,
    trace_revivals_seen: Vec<u64>,
}

impl MptcpSim {
    /// Build the connection from its configuration.
    pub fn new(cfg: MptcpConfig) -> Self {
        let n = cfg.paths.len();
        assert!(n >= 1, "need at least one path");
        let links = cfg.paths.into_iter().map(Link::new).collect();
        MptcpSim {
            queue: EventQueue::new(),
            popped: PoppedByKind::default(),
            links,
            snd: Sender::new(n, cfg.scheduler, cfg.cc),
            rcv: Receiver::new(n),
            arrival: None,
            timer_at: vec![None; n],
            deferred: (0..n).map(|_| VecDeque::new()).collect(),
            depths: Vec::with_capacity(n),
            pumped: Vec::new(),
            tracer: Tracer::disabled(),
            trace_failures_seen: vec![0; n],
            trace_revivals_seen: vec![0; n],
        }
    }

    /// Attach a tracer to the connection and all of its links. Tracing
    /// is strictly observe-only.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (i, link) in self.links.iter_mut().enumerate() {
            link.set_tracer(tracer.clone(), i);
        }
        self.tracer = tracer;
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Time of this connection's next pending event, if any. The fleet
    /// loop uses this to interleave several connections on one clock.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Route `path`'s data direction through a [`SharedBottleneck`]: the
    /// link keeps its propagation delay and fault pipeline but its
    /// serialization/queueing moves into the shared resource. Returns
    /// the [`mpdash_link::FlowId`] this connection's path was assigned.
    ///
    /// Once attached, packets on this path do not self-schedule their
    /// delivery: the caller must watch the bottleneck's departures and
    /// feed them back via [`MptcpSim::on_shared_departure`].
    pub fn attach_shared(
        &mut self,
        path: PathId,
        bottleneck: &SharedBottleneck,
    ) -> mpdash_link::FlowId {
        let flow = bottleneck.subscribe();
        self.links[path.index()].attach_shared(bottleneck.clone(), flow);
        flow
    }

    /// Number of paths.
    pub fn n_paths(&self) -> usize {
        self.links.len()
    }

    /// Server-side: queue `bytes` of response data for transmission.
    pub fn send_app(&mut self, bytes: u64) {
        self.snd.push_app_data(bytes);
        let now = self.now();
        self.pump(now);
    }

    /// Client-side: send a small upstream message (HTTP request). It
    /// arrives at the server after the primary path's one-way delay plus a
    /// nominal serialization allowance, carrying the current desired mask.
    pub fn send_request(&mut self, id: u64, bytes: u64) {
        let now = self.now();
        // Requests ride the primary (lowest-index) path; they are a few
        // hundred bytes every few seconds, so they get delay but are not
        // run through the data link's queue model.
        let delay = self.links[0].delay() + Rate::from_mbps(1).time_to_send(bytes.min(10 * MSS));
        self.queue.schedule(
            now + delay,
            Event::ReverseMsg {
                id,
                mask: self.rcv.desired_mask(),
            },
        );
    }

    /// Client-side: the MP-DASH decision function updates which paths may
    /// carry new data. If the mask changed, a pure control ACK is emitted
    /// so a quiescent sender still learns of it (the paper piggybacks the
    /// bit on the DSS option of whatever flows next).
    pub fn set_desired_mask(&mut self, mask: PathMask) {
        if self.rcv.set_desired_mask(mask) {
            let now = self.now();
            let n = self.n_paths();
            self.tracer.emit_with(now, || TraceEvent::DssSignal {
                mask: mask.bits() & PathMask::first(n).bits(),
            });
            let primary = PathId(0);
            self.queue.schedule_in(
                ack_lane(primary),
                now + self.links[0].delay(),
                Event::Ack {
                    path: primary,
                    ack: self.rcv.current_ack(primary),
                    mask,
                    ecn: false,
                },
            );
        }
    }

    /// Configure the path mask at connection setup, before any data
    /// flows: applies to the receiver's desired state *and* the sender's
    /// enforcement immediately, with no signaling round-trip. This models
    /// setting the primary interface / initial preference when the
    /// connection is established (§3.2 "we enforce the policy by setting
    /// the preferred interface as the primary interface of MPTCP") —
    /// mid-transfer changes must go through [`MptcpSim::set_desired_mask`].
    pub fn set_initial_mask(&mut self, mask: PathMask) {
        self.rcv.set_desired_mask(mask);
        self.snd.apply_mask(mask);
    }

    /// Schedule an application timer at absolute time `at`.
    pub fn schedule_app_timer(&mut self, at: SimTime, id: u64) {
        self.queue.schedule(at, Event::App { id });
    }

    /// [`MptcpSim::schedule_app_timer`] for the application's periodic
    /// tick: timers re-armed one fixed period after `now` ascend, so they
    /// get a queue lane of their own. Any other use is as correct and
    /// only slower (the timer takes the heap).
    pub fn schedule_app_tick(&mut self, at: SimTime, id: u64) {
        self.queue.schedule_in(TICK_LANE, at, Event::App { id });
    }

    /// Connection bytes delivered in order to the client so far.
    pub fn delivered(&self) -> u64 {
        self.rcv.delivered()
    }

    /// Payload bytes received on `path` (duplicates included).
    pub fn path_bytes(&self, path: PathId) -> u64 {
        self.rcv.path_bytes(path)
    }

    /// The packet receive trace (for analysis and energy accounting).
    pub fn records(&self) -> &PacketLog {
        self.rcv.records()
    }

    /// Move the receive trace out; [`MptcpSim::records`] is empty after.
    pub fn take_records(&mut self) -> PacketLog {
        self.rcv.take_records()
    }

    /// Keep the receive trace (the default) or not, from the next
    /// packet on. What the connection does is the same either way;
    /// [`MptcpSim::arrival`] reports every packet regardless.
    pub fn set_logging(&mut self, on: bool) {
        self.rcv.set_logging(on);
    }

    /// The data packet the last [`MptcpSim::step`] delivered to the
    /// receiver, `None` when that step was any other event: how a
    /// driver reads each arrival once, without a capture.
    pub fn arrival(&self) -> Option<PktRecord> {
        self.arrival
    }

    /// Smoothed RTT of `path`, if measured.
    pub fn srtt(&self, path: PathId) -> Option<SimDuration> {
        self.snd.subflow(path).srtt()
    }

    /// Congestion window of `path` (diagnostics).
    pub(crate) fn cwnd(&self, path: PathId) -> u64 {
        self.snd.subflow(path).cwnd()
    }

    /// Bytes currently in flight (sent, unacknowledged) on `path`. The
    /// MP-DASH control plane uses this as its "busy" signal: a path that
    /// is silent *with* data in flight is blacked out, while one silent
    /// with nothing outstanding simply has nothing left to carry (the
    /// tail of a transfer whose remainder rides the other path).
    pub fn path_in_flight(&self, path: PathId) -> u64 {
        self.snd.subflow(path).in_flight()
    }

    /// Lifetime failure declarations on `path`'s subflow.
    pub fn subflow_failures(&self, path: PathId) -> u64 {
        self.snd.subflow(path).failures()
    }

    /// Lifetime revivals (full re-establishments) on `path`'s subflow.
    pub fn subflow_revivals(&self, path: PathId) -> u64 {
        self.snd.subflow(path).revivals()
    }

    /// When `path`'s failed subflow becomes revivable: the first pump
    /// after this instant re-establishes it. `None` while it is live.
    pub fn subflow_probe_after(&self, path: PathId) -> Option<SimTime> {
        self.snd.subflow(path).probe_after()
    }

    /// When `path`'s subflow next wants a wakeup (`Sender::next_deadline`).
    pub fn subflow_next_deadline(&self, path: PathId) -> Option<SimTime> {
        self.snd.next_deadline(path)
    }

    /// True when every queued byte has been sent and acknowledged.
    pub fn quiescent(&self) -> bool {
        self.snd.all_acked()
    }

    /// True while a packet of this connection waits in a shared
    /// bottleneck: its departure will still call
    /// [`MptcpSim::on_shared_departure`] (or its AQM drop
    /// [`MptcpSim::on_shared_drop`]). A quiescent connection can own one
    /// — a late copy of a packet it has since seen acknowledged.
    pub fn owns_queued_packets(&self) -> bool {
        self.deferred.iter().any(|d| !d.is_empty())
    }

    /// Server-side request cancellation: drop every queued byte not yet
    /// assigned to a subflow and return how many were flushed. Bytes
    /// already mapped to subflows stay in flight (and keep
    /// retransmitting) so the connection-level sequence space is never
    /// corrupted; the stream simply ends `flushed` bytes earlier than
    /// the application had queued.
    pub fn flush_unsent(&mut self) -> u64 {
        self.snd.flush_unsent()
    }

    /// Total application bytes queued at the sender (lifetime).
    pub fn conn_total(&self) -> u64 {
        self.snd.conn_total()
    }

    /// Events popped from the connection's queue over its lifetime
    /// (deterministic event-loop profiling).
    pub fn events_popped(&self) -> u64 {
        self.queue.popped()
    }

    /// [`MptcpSim::events_popped`] broken down by event kind.
    pub fn popped_by_kind(&self) -> PoppedByKind {
        self.popped
    }

    /// High-water mark of pending events (peak queue depth).
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak_len()
    }

    /// How the queue stored this connection's events: `schedule` calls
    /// that `(joined a FIFO lane, fell back to the heap)`.
    pub fn queue_placement(&self) -> (u64, u64) {
        (self.queue.lane_appends(), self.queue.heap_fallbacks())
    }

    /// Emit cwnd/SRTT samples (when an ACK advanced `acked_path`) and
    /// any subflow failure/revival transitions since the last event.
    /// Runs only with a tracer attached.
    fn trace_transport(&mut self, now: SimTime, acked_path: Option<PathId>) {
        if !self.tracer.enabled() {
            return;
        }
        if let Some(path) = acked_path {
            let cwnd = self.cwnd(path);
            let srtt_ms = self.srtt(path).map(|d| d.as_millis_f64());
            self.tracer.emit_with(now, || TraceEvent::PathSample {
                path: path.index(),
                cwnd,
                srtt_ms,
            });
        }
        for p in 0..self.n_paths() {
            let id = PathId(p as u8);
            let failures = self.subflow_failures(id);
            while self.trace_failures_seen[p] < failures {
                self.trace_failures_seen[p] += 1;
                self.tracer
                    .emit_with(now, || TraceEvent::SubflowFailed { path: p });
            }
            let revivals = self.subflow_revivals(id);
            while self.trace_revivals_seen[p] < revivals {
                self.trace_revivals_seen[p] += 1;
                self.tracer
                    .emit_with(now, || TraceEvent::SubflowRevived { path: p });
            }
        }
    }

    /// Process the next event. `None` when the queue is empty (no
    /// transport activity pending and no application timers set).
    // Inline: the popped `Event` then stays in registers from the slab to the `match`.
    #[inline]
    pub fn step(&mut self) -> Option<(SimTime, StepOutcome)> {
        let (now, ev) = self.queue.pop()?;
        self.arrival = None;
        let mut acked_path = None;
        match &ev {
            Event::Data { .. } => self.popped.data += 1,
            Event::Ack { path, .. } => {
                self.popped.ack += 1;
                acked_path = Some(*path);
            }
            Event::Timer { .. } => self.popped.rto += 1,
            Event::App { .. } => self.popped.app_timer += 1,
            Event::ReverseMsg { .. } => self.popped.reverse_msg += 1,
        }
        let outcome = match ev {
            Event::Data {
                path,
                seq,
                len,
                dss,
                retx,
                syn,
                ecn,
            } => {
                let res = self.rcv.on_data(now, path, seq, len, dss, retx, syn);
                self.arrival = Some(PktRecord {
                    t: now,
                    path,
                    len,
                    dss,
                    retx,
                });
                // Immediate ACK, carrying the current desired mask and
                // echoing any ECN mark back to the sender.
                self.queue.schedule_in(
                    ack_lane(path),
                    now + self.links[path.index()].delay(),
                    Event::Ack {
                        path,
                        ack: res.ack,
                        mask: self.rcv.desired_mask(),
                        ecn,
                    },
                );
                StepOutcome::Transport {
                    newly_delivered: res.newly_delivered,
                }
            }
            Event::Ack {
                path,
                ack,
                mask,
                ecn,
            } => {
                self.snd.apply_mask(mask);
                let retx = self.snd.on_ack(now, path, ack);
                for t in retx {
                    self.transmit(now, t);
                }
                if ecn {
                    // The echo lands after the cumulative ACK so a fresh
                    // hold spans exactly the still-outstanding flight.
                    self.snd.on_ecn_echo(path);
                }
                self.pump(now);
                StepOutcome::Transport { newly_delivered: 0 }
            }
            Event::Timer { path } => {
                if self.timer_at[path.index()] == Some(now) {
                    self.timer_at[path.index()] = None;
                    for t in self.snd.on_timer(now, path) {
                        self.transmit(now, t);
                    }
                    // The fired subflow and any sibling that just received
                    // reinjected data.
                    self.arm_timers();
                }
                StepOutcome::Transport { newly_delivered: 0 }
            }
            Event::App { id } => StepOutcome::AppTimer { id },
            Event::ReverseMsg { id, mask } => {
                if self.snd.apply_mask(mask) {
                    self.pump(now);
                }
                StepOutcome::ServerMsg { id }
            }
        };
        self.trace_transport(now, acked_path);
        Some((now, outcome))
    }

    fn pump(&mut self, now: SimTime) {
        // Cross-layer signal for queue-aware schedulers: sample each
        // path's shared-bottleneck occupancy once per pump and hand it to
        // the sender (which is pure state and never touches links). The
        // sample is read-only — and a bottleneck lock per path, so it is
        // taken only for a reader: such a scheduler, or the tracer.
        let mut depths = std::mem::take(&mut self.depths);
        depths.clear();
        if self.snd.scheduler_spec().reads_queue_depth() || self.tracer.enabled() {
            depths.extend(self.links.iter().map(|l| l.shared_queue_depth()));
        }
        let mut pumped = std::mem::take(&mut self.pumped);
        pumped.clear();
        self.snd.pump_with(now, &depths, &mut pumped);
        for &t in &pumped {
            if self.tracer.enabled() {
                // Every pump transmit is one scheduler decision (retx and
                // reinjections travel other code paths), so attribute it:
                // the chosen path plus the SRTT/queue-depth inputs that
                // won the pick.
                let sf = self.snd.subflow(t.path);
                let srtt_ms = sf.srtt().map(|s| s.as_secs_f64() * 1e3);
                let queue_bytes = depths.get(t.path.index()).copied().flatten();
                self.tracer.emit_with(now, || TraceEvent::SchedulerPick {
                    path: t.path.index(),
                    len: t.len,
                    srtt_ms,
                    queue_bytes,
                });
            }
            self.transmit(now, t);
        }
        self.depths = depths;
        self.pumped = pumped;
        self.arm_timers();
    }

    fn transmit(&mut self, now: SimTime, t: Transmit) {
        let link = &mut self.links[t.path.index()];
        if link.is_shared() {
            match link.offer_shared(now, t.len + HEADER_BYTES) {
                SharedOutcome::Queued { ticket } => {
                    self.deferred[t.path.index()].push_back(PendingPkt {
                        ticket,
                        seq: t.seq,
                        len: t.len,
                        dss: t.dss,
                        retx: t.retx,
                        syn: t.syn,
                        offered: now,
                    });
                }
                SharedOutcome::Dropped(reason) => {
                    // The packet vanishes; dup ACKs or the RTO recover it
                    // — except a disassociation, which fails over now.
                    self.on_drop(now, t.path, reason);
                }
            }
            return;
        }
        match link.send(now, t.len + HEADER_BYTES) {
            SendOutcome::Delivered { at } => {
                self.queue.schedule_in(
                    data_lane(t.path),
                    at,
                    Event::Data {
                        path: t.path,
                        seq: t.seq,
                        len: t.len,
                        dss: t.dss,
                        retx: t.retx,
                        syn: t.syn,
                        ecn: false,
                    },
                );
            }
            SendOutcome::Dropped(reason) => {
                // The packet vanishes; duplicate ACKs or the RTO recover
                // it — except a disassociation, which fails over now.
                self.on_drop(now, t.path, reason);
            }
        }
    }

    /// A transmit on `path` was dropped for `reason`. Queue drops and
    /// wire loss are recovered by dup ACKs / the RTO as usual, but a
    /// disassociation is an interface-down signal the sending host sees
    /// synchronously: fail the subflow over to its live siblings
    /// immediately instead of waiting out the RTO backoff chain.
    fn on_drop(&mut self, now: SimTime, path: PathId, reason: DropReason) {
        if reason != DropReason::Disassociated {
            return;
        }
        let rescues = self.snd.on_link_down(now, path);
        for r in rescues {
            self.transmit(now, r);
        }
        self.arm_timers();
    }

    /// A shared bottleneck finished serving one of this connection's
    /// packets: schedule its arrival after `path`'s propagation delay.
    /// `ticket` must match the oldest deferred packet on `path`
    /// (per-flow departures are FIFO under every discipline). `marked`
    /// carries an AQM ECN mark; the receiver will echo it on the ACK.
    pub fn on_shared_departure(
        &mut self,
        path: PathId,
        ticket: Ticket,
        depart_at: SimTime,
        marked: bool,
    ) {
        let deferred = &mut self.deferred[path.index()];
        let pkt = deferred
            .pop_front()
            .expect("departure for a path with no deferred packets");
        deferred.give_back_slack();
        assert_eq!(
            pkt.ticket, ticket,
            "shared bottleneck departures out of order within a flow"
        );
        let waited = depart_at.saturating_since(pkt.offered);
        if waited > SimDuration::ZERO {
            let size = pkt.len + HEADER_BYTES;
            self.tracer
                .emit_with(depart_at, || TraceEvent::SharedQueueWait {
                    path: path.index(),
                    waited_s: waited.as_secs_f64(),
                    size,
                });
        }
        let arrive = depart_at + self.links[path.index()].delay();
        self.queue.schedule_in(
            data_lane(path),
            arrive,
            Event::Data {
                path,
                seq: pkt.seq,
                len: pkt.len,
                dss: pkt.dss,
                retx: pkt.retx,
                syn: pkt.syn,
                ecn: marked,
            },
        );
    }

    /// A shared bottleneck's AQM dropped one of this connection's queued
    /// packets at dequeue time (CoDel). The packet simply vanishes —
    /// duplicate ACKs or the RTO recover the hole, same as an overflow
    /// drop at offer time — but the deferred bookkeeping must advance
    /// past it so later departures still line up ticket-for-ticket.
    pub fn on_shared_drop(&mut self, path: PathId, ticket: Ticket) {
        let deferred = &mut self.deferred[path.index()];
        let pkt = deferred
            .pop_front()
            .expect("AQM drop for a path with no deferred packets");
        deferred.give_back_slack();
        assert_eq!(
            pkt.ticket, ticket,
            "shared bottleneck AQM drops out of order within a flow"
        );
    }

    /// Lazy transport timers, run after every call that may move a
    /// deadline: each subflow's slot holds an event at (or before) its
    /// [`Sender::next_deadline`].
    fn arm_timers(&mut self) {
        for (p, slot) in self.timer_at.iter_mut().enumerate() {
            let path = PathId(p as u8);
            let Some(at) = self.snd.next_deadline(path) else {
                continue;
            };
            if slot.is_none_or(|t| t > at) {
                self.queue.schedule(at, Event::Timer { path });
                *slot = Some(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_path_sim(wifi_mbps: f64, cell_mbps: f64) -> MptcpSim {
        let wifi = LinkConfig::constant(wifi_mbps, SimDuration::from_millis(25));
        let cell = LinkConfig::constant(cell_mbps, SimDuration::from_millis(30));
        MptcpSim::new(MptcpConfig::two_path(wifi, cell))
    }

    /// Drive until `bytes` are delivered or the queue drains; returns the
    /// completion time.
    fn download(sim: &mut MptcpSim, bytes: u64) -> SimTime {
        sim.send_app(bytes);
        let mut done = SimTime::ZERO;
        while sim.delivered() < bytes {
            let Some((t, _)) = sim.step() else {
                panic!(
                    "queue drained with only {} of {} bytes delivered",
                    sim.delivered(),
                    bytes
                );
            };
            done = t;
        }
        done
    }

    #[test]
    fn delivers_exactly_the_bytes_sent() {
        let mut sim = two_path_sim(3.8, 3.0);
        let total = 500_000;
        download(&mut sim, total);
        assert_eq!(sim.delivered(), total);
        // Conservation: bytes split across the two paths cover the stream
        // (duplicates can only add).
        let sum = sim.path_bytes(PathId::WIFI) + sim.path_bytes(PathId::CELLULAR);
        assert!(sum >= total);
    }

    #[test]
    fn aggregate_throughput_approaches_sum_of_paths() {
        let mut sim = two_path_sim(3.8, 3.0);
        let bytes = 5_000_000; // the paper's 5 MB motivating download
        let t = download(&mut sim, bytes);
        let mbps = bytes as f64 * 8.0 / t.as_secs_f64() / 1e6;
        // Paper: ~6 s for 5 MB over 3.8+3.0 Mbps MPTCP => ~6.6 Mbps goodput.
        assert!(mbps > 5.8, "aggregate goodput {mbps:.2} Mbps too low");
        assert!(
            mbps < 6.8,
            "aggregate goodput {mbps:.2} Mbps impossibly high"
        );
        // Both paths carried substantial data.
        assert!(sim.path_bytes(PathId::WIFI) > bytes / 3);
        assert!(sim.path_bytes(PathId::CELLULAR) > bytes / 4);
    }

    #[test]
    fn wifi_only_mask_uses_no_cellular() {
        let mut sim = two_path_sim(3.8, 3.0);
        sim.set_desired_mask(PathMask::only(PathId::WIFI));
        // Drain the control ack so the sender learns the mask first.
        sim.step();
        let bytes = 1_000_000;
        let t = download(&mut sim, bytes);
        assert_eq!(sim.path_bytes(PathId::CELLULAR), 0);
        let mbps = bytes as f64 * 8.0 / t.as_secs_f64() / 1e6;
        assert!(mbps > 3.0 && mbps < 3.8, "wifi-only goodput {mbps:.2}");
    }

    #[test]
    fn reenabling_cellular_mid_transfer_takes_effect() {
        let mut sim = two_path_sim(2.0, 2.0);
        sim.set_desired_mask(PathMask::only(PathId::WIFI));
        sim.step();
        sim.send_app(4_000_000);
        // Let ~1 s of wifi-only flow pass.
        while sim.now() < SimTime::from_secs(1) {
            sim.step().unwrap();
        }
        assert_eq!(sim.path_bytes(PathId::CELLULAR), 0);
        sim.set_desired_mask(PathMask::ALL);
        while sim.delivered() < 4_000_000 {
            sim.step().unwrap();
        }
        assert!(
            sim.path_bytes(PathId::CELLULAR) > 200_000,
            "cellular re-engaged after enable: {} bytes",
            sim.path_bytes(PathId::CELLULAR)
        );
    }

    #[test]
    fn survives_random_loss() {
        let wifi = LinkConfig::constant(4.0, SimDuration::from_millis(25)).with_loss(0.02, 11);
        let cell = LinkConfig::constant(3.0, SimDuration::from_millis(30)).with_loss(0.02, 13);
        let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
        let bytes = 2_000_000;
        download(&mut sim, bytes);
        assert_eq!(sim.delivered(), bytes);
    }

    #[test]
    fn queue_overflow_triggers_recovery_not_stall() {
        // Tiny queue forces drops as cwnd grows.
        let wifi =
            LinkConfig::constant(2.0, SimDuration::from_millis(25)).with_queue_capacity(8 * MSS);
        let cell =
            LinkConfig::constant(1.0, SimDuration::from_millis(30)).with_queue_capacity(8 * MSS);
        let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
        let bytes = 3_000_000;
        let t = download(&mut sim, bytes);
        let mbps = bytes as f64 * 8.0 / t.as_secs_f64() / 1e6;
        // Loss-limited but must still achieve a healthy share of 3 Mbps.
        assert!(mbps > 1.8, "loss-limited goodput {mbps:.2} Mbps");
    }

    #[test]
    fn srtt_converges_to_path_rtt() {
        let mut sim = two_path_sim(3.8, 3.0);
        download(&mut sim, 1_000_000);
        let wifi_srtt = sim.srtt(PathId::WIFI).unwrap().as_millis_f64();
        // Base RTT 50 ms plus queueing at a saturated 3.8 Mbps link with a
        // 64 KiB drop-tail buffer (~138 ms when full): the estimate must be
        // at least the propagation RTT and bounded by base + full queue.
        assert!(wifi_srtt >= 50.0, "wifi srtt {wifi_srtt:.1} ms");
        assert!(wifi_srtt < 250.0, "wifi srtt {wifi_srtt:.1} ms");
    }

    #[test]
    fn app_timers_interleave_with_transport() {
        let mut sim = two_path_sim(3.8, 3.0);
        sim.schedule_app_timer(SimTime::from_millis(10), 7);
        sim.send_app(100_000);
        let mut saw_timer = false;
        while let Some((t, o)) = sim.step() {
            if let StepOutcome::AppTimer { id } = o {
                assert_eq!(id, 7);
                assert_eq!(t, SimTime::from_millis(10));
                saw_timer = true;
            }
            if sim.quiescent() && saw_timer {
                break;
            }
        }
        assert!(saw_timer);
    }

    #[test]
    fn server_messages_arrive_with_mask() {
        let mut sim = two_path_sim(3.8, 3.0);
        sim.set_desired_mask(PathMask::only(PathId::WIFI));
        sim.send_request(42, 300);
        let mut saw = false;
        while let Some((_, o)) = sim.step() {
            if o == (StepOutcome::ServerMsg { id: 42 }) {
                saw = true;
                break;
            }
        }
        assert!(saw);
        // The request carried the mask: new data avoids cellular.
        sim.send_app(500_000);
        while sim.delivered() < 500_000 {
            sim.step().unwrap();
        }
        assert_eq!(sim.path_bytes(PathId::CELLULAR), 0);
    }

    #[test]
    fn deterministic_given_same_config() {
        let run = || {
            let mut sim = two_path_sim(3.3, 2.1);
            let t = download(&mut sim, 1_234_567);
            (
                t,
                sim.path_bytes(PathId::WIFI),
                sim.path_bytes(PathId::CELLULAR),
            )
        };
        assert_eq!(run(), run());
    }

    /// Two single-path connections share one bottleneck; a miniature
    /// fleet loop (global-min over the bottleneck's departures and both
    /// connections' queues) drives them to completion.
    #[test]
    fn two_connections_share_a_bottleneck() {
        use mpdash_link::SharedBottleneckConfig;

        let mk = || {
            // Propagation only: serialization happens in the shared queue.
            let link = LinkConfig::constant(1000.0, SimDuration::from_millis(25));
            MptcpSim::new(MptcpConfig {
                paths: vec![link],
                scheduler: SchedulerSpec::MinRtt,
                cc: CcKind::Reno,
            })
        };
        let bn = SharedBottleneck::new(SharedBottleneckConfig::fifo_mbps(8.0));
        let mut sims = [mk(), mk()];
        let mut route = Vec::new();
        for (i, sim) in sims.iter_mut().enumerate() {
            let flow = sim.attach_shared(PathId(0), &bn);
            assert_eq!(flow, i, "flows subscribe in order");
            route.push(i);
        }
        let total = 400_000;
        sims[0].send_app(total);
        sims[1].send_app(total);

        loop {
            let mut best: Option<(SimTime, usize)> = None; // kind: 0 = bottleneck, 1+i = sim i
            if let Some(t) = bn.next_departure() {
                best = Some((t, 0));
            }
            for (i, sim) in sims.iter().enumerate() {
                if let Some(t) = sim.peek_time() {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, 1 + i));
                    }
                }
            }
            match best {
                None => break,
                Some((_, 0)) => {
                    let d = bn.pop_departure().unwrap();
                    sims[route[d.flow]].on_shared_departure(PathId(0), d.ticket, d.at, d.marked);
                }
                Some((_, k)) => {
                    sims[k - 1].step();
                }
            }
        }
        for sim in &sims {
            assert_eq!(sim.delivered(), total);
        }
        let stats = bn.stats();
        assert!(stats.conserved(), "bottleneck conservation: {stats:?}");
        assert_eq!(stats.queued_bytes, 0, "drained bottleneck holds nothing");
        // The 8 Mbps bottleneck is the binding constraint: two competing
        // 400 kB transfers cannot finish faster than the shared service
        // rate allows (2 * 400 kB at 8 Mbps = 800 ms floor).
        let end = sims.iter().map(|s| s.now()).max().unwrap();
        assert!(end >= SimTime::from_millis(800), "finished at {end:?}");
    }

    /// Drive one single-path connection through a shared bottleneck to
    /// completion, feeding departures and AQM dequeue drops back in.
    /// Returns the cumulative count of marked departures observed.
    fn drain_shared(sim: &mut MptcpSim, bn: &SharedBottleneck, total: u64) -> u64 {
        let mut marks = 0;
        loop {
            let mut best: Option<(SimTime, usize)> = None;
            if let Some(t) = bn.next_departure() {
                best = Some((t, 0));
            }
            if let Some(t) = sim.peek_time() {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, 1));
                }
            }
            match best {
                None => break,
                Some((_, 0)) => {
                    let d = bn.pop_departure().unwrap();
                    marks += d.marked as u64;
                    sim.on_shared_departure(PathId(0), d.ticket, d.at, d.marked);
                    for drop in bn.take_aqm_drops() {
                        sim.on_shared_drop(PathId(0), drop.ticket);
                    }
                }
                Some(_) => {
                    sim.step();
                }
            }
        }
        assert_eq!(sim.delivered(), total, "stream must complete");
        marks
    }

    fn one_path_shared_sim() -> MptcpSim {
        // Propagation only: serialization happens in the shared queue.
        let link = LinkConfig::constant(1000.0, SimDuration::from_millis(20));
        MptcpSim::new(MptcpConfig {
            paths: vec![link],
            scheduler: SchedulerSpec::MinRtt,
            cc: CcKind::Reno,
        })
    }

    /// PIE with ECN marks instead of dropping; the sender must react to
    /// the echo with a multiplicative backoff (no retransmissions needed
    /// — nothing was lost) and keep the bottleneck's standing queue well
    /// below the drop-tail bloat level.
    #[test]
    fn ecn_marks_back_the_sender_off_without_losses() {
        use mpdash_link::{AqmConfig, QueueDiscipline, SharedBottleneckConfig};

        let run = |aqm: bool| {
            let cfg = SharedBottleneckConfig::fifo_mbps(6.0).with_capacity(256 * 1024);
            let cfg = if aqm {
                cfg.with_discipline(QueueDiscipline::Pie(AqmConfig::pie().with_ecn(true)))
            } else {
                cfg
            };
            let bn = SharedBottleneck::new(cfg);
            let mut sim = one_path_shared_sim();
            sim.attach_shared(PathId(0), &bn);
            let total = 2_000_000;
            sim.send_app(total);
            let marks = drain_shared(&mut sim, &bn, total);
            let mean_wait_ms = {
                let snap = bn.metrics_snapshot();
                let h = snap
                    .histograms
                    .iter()
                    .find(|(k, _)| k == "queue_wait_ms")
                    .map(|(_, h)| h.clone())
                    .unwrap();
                h.sum as f64 / h.count.max(1) as f64
            };
            (marks, bn.stats(), mean_wait_ms)
        };

        let (marks, pie, pie_wait) = run(true);
        let (_, _, fifo_wait) = run(false);
        assert!(marks > 0, "sustained overload must trigger ECN marks");
        assert_eq!(pie.marked_packets, marks);
        // ECN mode marks instead of dropping.
        assert_eq!(pie.dropped_aqm_packets, 0);
        // The responsive sender holds the queue far below drop-tail
        // bloat: mean sojourn under PIE must beat FIFO's by a wide margin.
        assert!(
            pie_wait < fifo_wait / 2.0,
            "pie mean wait {pie_wait:.1} ms vs fifo {fifo_wait:.1} ms"
        );
    }

    /// CoDel drops at dequeue time; the transport recovers the holes via
    /// dup-ACK / RTO and still completes, with every drop accounted for.
    #[test]
    fn codel_dequeue_drops_recover_and_conserve() {
        use mpdash_link::{AqmConfig, QueueDiscipline, SharedBottleneckConfig};

        let cfg = SharedBottleneckConfig::fifo_mbps(6.0)
            .with_capacity(256 * 1024)
            .with_discipline(QueueDiscipline::Codel(AqmConfig::codel()));
        let bn = SharedBottleneck::new(cfg);
        let mut sim = one_path_shared_sim();
        sim.attach_shared(PathId(0), &bn);
        let total = 2_000_000;
        sim.send_app(total);
        drain_shared(&mut sim, &bn, total);
        let stats = bn.stats();
        assert!(stats.conserved(), "conservation with AQM drops: {stats:?}");
        assert!(
            stats.dropped_aqm_packets > 0,
            "sustained overload must trip CoDel's drop schedule"
        );
        assert_eq!(stats.queued_bytes, 0, "drained bottleneck holds nothing");
    }

    #[test]
    fn records_cover_the_stream() {
        let mut sim = two_path_sim(3.8, 3.0);
        download(&mut sim, 300_000);
        let recs = sim.records();
        assert!(!recs.is_empty());
        // Every delivered byte appears in some record (retransmissions may
        // replace lost originals, so coverage is asserted via an interval
        // union rather than summing first transmissions).
        let mut cover = crate::reassembly::IntervalSet::new();
        for r in recs {
            cover.insert(r.dss, r.dss + r.len);
        }
        assert_eq!(cover.contiguous_from(0), 300_000);
        // Timestamps are non-decreasing.
        assert!(recs.iter().zip(recs.iter_from(1)).all(|(a, b)| a.t <= b.t));
    }

    /// Each step that receives a data packet reports it, whether or not
    /// the receiver keeps a log, and the log is exactly those reports.
    #[test]
    fn every_arrival_is_reported_whether_or_not_it_is_logged() {
        let run = |logging: bool| {
            let mut sim = two_path_sim(3.8, 3.0);
            sim.set_logging(logging);
            sim.send_app(300_000);
            let mut arrivals = Vec::new();
            while sim.delivered() < 300_000 {
                sim.step().expect("the transfer completes");
                arrivals.extend(sim.arrival());
            }
            assert_eq!(sim.popped_by_kind().data, arrivals.len() as u64);
            (arrivals, sim.take_records())
        };
        let (reported, log) = run(true);
        assert!(log.iter().eq(reported.iter().copied()));
        let (unlogged, none) = run(false);
        assert!(none.is_empty());
        assert_eq!(unlogged, reported);
    }

    /// The RTO timer keeps one live event per subflow (DESIGN §4.3). A
    /// deadline that moves earlier supersedes the pending event instead of
    /// starting a second chain beside it, so `Timer` pops stay proportional to
    /// elapsed time over the minimum RTO however often the mask flips and the
    /// RTT swings.
    #[test]
    fn rto_timer_keeps_one_live_event_per_subflow() {
        // Bandwidth square waves fill and drain the drop-tail queues, so each
        // path's RTT (and with it the RTO) swings 50 ↔ 600 ms.
        let swing = |fast: u64, slow: u64, slot_ms: u64| {
            mpdash_link::BandwidthProfile::from_samples(
                SimDuration::from_millis(slot_ms),
                &[Rate::from_mbps(fast), Rate::from_mbps(slow)],
                true,
            )
        };
        let wifi =
            LinkConfig::constant(1.0, SimDuration::from_millis(25)).with_profile(swing(8, 1, 1300));
        let cell =
            LinkConfig::constant(1.0, SimDuration::from_millis(30)).with_profile(swing(6, 1, 1700));
        let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
        // More than the links can carry in the run: no subflow idles, the
        // condition under which a second chain used to live forever.
        sim.send_app(200_000_000);

        let end = SimTime::from_secs(60);
        let mut next_flip = SimTime::ZERO;
        let mut wifi_only = false;
        while sim.now() < end {
            if sim.now() >= next_flip {
                wifi_only = !wifi_only;
                sim.set_desired_mask(if wifi_only {
                    PathMask::only(PathId::WIFI)
                } else {
                    PathMask::ALL
                });
                next_flip = sim.now() + SimDuration::from_millis(700);
            }
            sim.step().expect("the transfer outlasts the run");
            for path in [PathId::WIFI, PathId::CELLULAR] {
                let slot = sim.timer_at[path.index()];
                let pending = sim.queue.iter().filter(|&(at, ev)| {
                    matches!(ev, Event::Timer { path: p } if *p == path) && Some(at) == slot
                });
                let live = pending.count();
                let armed = sim.path_in_flight(path) > 0;
                assert!(
                    live <= 1 && (live == 1 || !armed),
                    "{live} live Timer events on {path:?} at {:?} (armed: {armed})",
                    sim.now()
                );
            }
        }
        let popped = sim.popped_by_kind();
        assert!(popped.data > 10_000, "the transfer ran: {popped:?}");
        // Per path: one live fire per minimum RTO (200 ms) of elapsed time,
        // plus the superseded events of each RTT swing (603 here; the chains
        // this replaces popped 30,489).
        let budget = 2 * (60_000 / 200 + 50);
        assert!(popped.rto <= budget, "{} Timer pops > {budget}", popped.rto);
    }
}
