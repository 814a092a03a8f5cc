//! [`SharedBottleneck`]: one queue + server shared by many subflows.
//!
//! A private [`Link`](crate::Link) computes each packet's delivery time
//! eagerly at `send` because nothing that arrives later can change the
//! service order. A *shared* bottleneck cannot: under a flow-queueing
//! discipline the packet served next depends on what other flows offer
//! between now and then. So the shared model is deferred:
//!
//! * [`SharedBottleneck::offer`] only *enqueues* (or drop-tails) the
//!   packet and hands back a ticket;
//! * the co-simulation loop watches [`SharedBottleneck::next_departure`]
//!   and calls [`SharedBottleneck::pop_departure`] when the in-service
//!   packet's serialization completes, which is when the *next* packet is
//!   chosen per the configured [`QueueDiscipline`];
//! * the owner of the departed ticket then schedules its own delivery
//!   event (departure + its path's propagation delay).
//!
//! Correctness of the lazy selection relies on one loop invariant the
//! fleet driver maintains: **offers arrive in globally non-decreasing
//! time**, and departures are popped before any offer with a later
//! timestamp is made. Under that ordering, choosing the next packet at
//! each service-start instant is exactly the behaviour of a continuously
//! running server.
//!
//! Two disciplines are provided: classic FIFO/DropTail, and a per-flow
//! deficit-round-robin (DRR) queue in the FQ-PIE spirit — each
//! subscribing subflow gets its own queue and the server round-robins
//! between them with a byte quantum, which keeps one aggressive flow from
//! starving the others.
//!
//! The handle is `Clone` (an `Rc<RefCell<_>>`) so links owned by
//! different sessions of one fleet can subscribe to the same resource. It
//! is deliberately not `Send`: a fleet replica is one thread — the batch
//! runner's parallelism is *across* replicas, each of which builds its own
//! bottlenecks inside `run_checked` — so a per-packet call pays a borrow
//! flag, not an atomic lock. All scheduling decisions are integer/byte
//! arithmetic on virtual time: bit-deterministic.
//!
//! Queue signals are the rows of one table, `SIGNALS`, written by row
//! through a [`SignalRecorder`] — to the registry always, to the epoch
//! series once [`SharedBottleneck::enable_telemetry`] has run — so no
//! per-packet path compares a signal name.

use crate::aqm::{AqmConfig, AqmVerdict, Codel, Pie};
use crate::link::DropReason;
use mpdash_obs::{EpochSeries, MetricsSnapshot, SignalRecorder, TelemetrySpec};
use mpdash_sim::{derive_seed, Rate, SimTime};
use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;
use std::rc::Rc;

/// Dense index of one subscribing subflow (assigned by
/// [`SharedBottleneck::subscribe`] in subscription order).
pub type FlowId = usize;

/// Monotone per-bottleneck packet id; departures repeat the ticket so the
/// offering transport can match them to its deferred packets.
pub type Ticket = u64;

/// The DRR byte quantum a flow-queue discipline gets when none is named:
/// one full-size Ethernet frame, so a flow sends one packet per round.
pub const DRR_QUANTUM: u64 = 1540;

/// How the shared server picks the next packet to serialize, and which
/// AQM controller (if any) polices the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// One queue, service in arrival order, drop-tail on overflow.
    Fifo,
    /// Per-flow queues served deficit-round-robin with the given byte
    /// quantum (FQ-PIE spirit; ~one MTU is the classic choice).
    FlowQueue {
        /// Bytes of credit a flow earns per round-robin visit.
        quantum: u64,
    },
    /// FIFO order policed by one whole-queue PIE controller: arriving
    /// packets are admission-dropped (or ECN-marked) with the PI
    /// controller's probability.
    Pie(AqmConfig),
    /// DRR flow queues, each policed by its own PIE instance with an
    /// independently derived RNG stream — Linux's `fq_pie` shape.
    FqPie {
        /// DRR byte quantum.
        quantum: u64,
        /// Shared knobs for every per-flow PIE instance.
        aqm: AqmConfig,
    },
    /// FIFO order policed by CoDel: sojourn-time tracked at dequeue,
    /// drops on the `interval/sqrt(count)` schedule at service time.
    Codel(AqmConfig),
}

impl QueueDiscipline {
    /// Short stable label for tables and artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            QueueDiscipline::Fifo => "fifo",
            QueueDiscipline::FlowQueue { .. } => "fq",
            QueueDiscipline::Pie(_) => "pie",
            QueueDiscipline::FqPie { .. } => "fq_pie",
            QueueDiscipline::Codel(_) => "codel",
        }
    }
}

/// Static configuration of a [`SharedBottleneck`].
#[derive(Clone, Copy, Debug)]
pub struct SharedBottleneckConfig {
    /// Constant service rate of the shared server (e.g. the AP's air
    /// time). Must be non-zero.
    pub rate: Rate,
    /// Total queue capacity in bytes, across all flows, including the
    /// packet in service (drop-tail admission).
    pub capacity: u64,
    /// Service discipline.
    pub discipline: QueueDiscipline,
}

impl SharedBottleneckConfig {
    /// A FIFO bottleneck at `mbps` with a 128 KiB queue.
    pub fn fifo_mbps(mbps: f64) -> Self {
        SharedBottleneckConfig {
            rate: Rate::from_mbps_f64(mbps),
            capacity: 128 * 1024,
            discipline: QueueDiscipline::Fifo,
        }
    }

    /// Same bottleneck with a different discipline.
    pub fn with_discipline(mut self, d: QueueDiscipline) -> Self {
        self.discipline = d;
        self
    }

    /// Same bottleneck with a different queue capacity in bytes.
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity = bytes;
        self
    }
}

/// Result of [`SharedBottleneck::offer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharedOutcome {
    /// Accepted; the caller will learn the departure time later via
    /// [`SharedBottleneck::pop_departure`] under this ticket.
    Queued {
        /// Ticket echoed by the matching departure.
        ticket: Ticket,
    },
    /// Drop-tailed on capacity ([`DropReason::QueueOverflow`]) or
    /// admission-dropped by PIE ([`DropReason::AqmEarly`]).
    Dropped(DropReason),
}

/// One packet leaving the shared server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Departure {
    /// When its last byte finished serializing.
    pub at: SimTime,
    /// The flow that offered it.
    pub flow: FlowId,
    /// The ticket [`SharedBottleneck::offer`] returned for it.
    pub ticket: Ticket,
    /// Size in bytes.
    pub size: u64,
    /// Carries an ECN-style congestion mark (AQM in `ecn` mode only).
    pub marked: bool,
}

/// One packet an AQM controller dropped at dequeue time (CoDel). The
/// fleet loop drains these with [`SharedBottleneck::take_aqm_drops`]
/// and routes each to its owning transport so the per-flow deferred
/// FIFO stays in ticket order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedDrop {
    /// The flow that offered it.
    pub flow: FlowId,
    /// The ticket [`SharedBottleneck::offer`] returned for it.
    pub ticket: Ticket,
}

/// Byte/packet conservation counters for one flow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Bytes offered by the flow.
    pub offered_bytes: u64,
    /// Bytes that departed the server.
    pub delivered_bytes: u64,
    /// Bytes drop-tailed on arrival.
    pub dropped_bytes: u64,
    /// Packets that departed.
    pub delivered_packets: u64,
    /// Packets drop-tailed.
    pub dropped_packets: u64,
}

/// Whole-bottleneck conservation snapshot. The invariant the property
/// tests pin down: `offered == delivered + dropped + queued` (bytes and
/// packets alike), where `queued` includes the packet in service.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Bytes offered across all flows.
    pub offered_bytes: u64,
    /// Bytes departed.
    pub delivered_bytes: u64,
    /// Bytes drop-tailed.
    pub dropped_bytes: u64,
    /// Bytes still in the system (queued + in service).
    pub queued_bytes: u64,
    /// Packets offered.
    pub offered_packets: u64,
    /// Packets departed.
    pub delivered_packets: u64,
    /// Packets drop-tailed.
    pub dropped_packets: u64,
    /// Packets still in the system.
    pub queued_packets: u64,
    /// Of the dropped bytes, how many were capacity drop-tails.
    pub dropped_overflow_bytes: u64,
    /// Capacity drop-tails, packets.
    pub dropped_overflow_packets: u64,
    /// Of the dropped bytes, how many were AQM early drops (PIE
    /// admission + CoDel dequeue).
    pub dropped_aqm_bytes: u64,
    /// AQM early drops, packets.
    pub dropped_aqm_packets: u64,
    /// Packets delivered carrying an ECN-style mark.
    pub marked_packets: u64,
    /// Per-flow breakdown, indexed by [`FlowId`].
    pub per_flow: Vec<FlowStats>,
}

impl SharedStats {
    /// Byte conservation: everything offered is accounted for.
    pub fn conserved(&self) -> bool {
        self.offered_bytes == self.delivered_bytes + self.dropped_bytes + self.queued_bytes
            && self.offered_packets
                == self.delivered_packets + self.dropped_packets + self.queued_packets
    }
}

#[derive(Clone, Copy, Debug)]
struct QueuedPkt {
    ticket: Ticket,
    size: u64,
    offered: SimTime,
    /// ECN mark applied at admission (PIE in `ecn` mode).
    marked: bool,
}

struct FlowState {
    queue: VecDeque<QueuedPkt>,
    /// DRR byte credit.
    deficit: u64,
    /// In the DRR active list.
    active: bool,
    /// Earns a fresh quantum the next time it reaches the head of the
    /// active list (set on activation and on every rotation).
    fresh: bool,
    stats: FlowStats,
}

impl FlowState {
    fn new() -> Self {
        FlowState {
            queue: VecDeque::new(),
            deficit: 0,
            active: false,
            fresh: true,
            stats: FlowStats::default(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct InService {
    flow: FlowId,
    ticket: Ticket,
    size: u64,
    offered: SimTime,
    depart_at: SimTime,
    marked: bool,
}

/// Live controller state matching the configured discipline.
enum AqmState {
    /// One whole-queue PIE.
    Pie(Pie),
    /// One PIE per subscribed flow (grown by `subscribe`).
    FqPie(Vec<Pie>),
    /// One whole-queue CoDel.
    Codel(Codel),
}

mpdash_obs::signal_table! {
    /// A queue signal, beside its registry and epoch names. A registry
    /// row enters the snapshot when first written, so a bottleneck that
    /// never marks a packet has no `aqm_marked_packets` row.
    enum Sig in SIGNALS {
        QueueDepthBytes   = histogram(Some("queue_depth_bytes"), Some("queue_depth_bytes")),
        QueueWaitMs       = histogram(Some("queue_wait_ms"),     Some("queue_wait_ms")),
        AqmDropProbPpm    = histogram(None,                      Some("aqm_drop_prob_ppm")),
        OfferedBytes      = counter(None,                        Some("shared_offered_bytes")),
        DeliveredBytes    = counter(None,                        Some("shared_delivered_bytes")),
        DroppedBytes      = counter(None,                        Some("shared_dropped_bytes")),
        AqmDroppedPackets = counter(Some("aqm_dropped_packets"), Some("aqm_dropped_packets")),
        AqmMarkedPackets  = counter(Some("aqm_marked_packets"),  Some("aqm_marked_packets")),
    }
}

struct Inner {
    cfg: SharedBottleneckConfig,
    flows: Vec<FlowState>,
    /// Arrival-order queue (FIFO discipline only).
    fifo: VecDeque<(FlowId, QueuedPkt)>,
    /// DRR round-robin order over flows with queued packets.
    active: VecDeque<FlowId>,
    in_service: Option<InService>,
    /// Bytes waiting (excludes the in-service packet).
    waiting_bytes: u64,
    waiting_packets: u64,
    next_ticket: Ticket,
    offered_bytes: u64,
    offered_packets: u64,
    delivered_bytes: u64,
    delivered_packets: u64,
    dropped_bytes: u64,
    dropped_packets: u64,
    /// DropReason breakdown (overflow vs AQM early) and mark count.
    dropped_overflow_bytes: u64,
    dropped_overflow_packets: u64,
    dropped_aqm_bytes: u64,
    dropped_aqm_packets: u64,
    marked_packets: u64,
    /// The configured AQM controller, if any. `None` leaves every hot
    /// path exactly as it was before AQM existed.
    aqm: Option<AqmState>,
    /// Dequeue-time AQM drops (CoDel) awaiting routing by the fleet
    /// loop. Stays empty — and never allocates — without an AQM.
    pending_drops: Vec<SharedDrop>,
    /// The queue signals: observe-only.
    signals: SignalRecorder,
}

impl Inner {
    /// Bytes in the system right now: waiting + in service. Purely
    /// event-driven (no lazy time-based purge), so unlike
    /// [`Link::backlog`](crate::Link::backlog) there is no "now" to get
    /// wrong: occupancy only changes at offer/pop events.
    fn occupancy(&self) -> u64 {
        self.waiting_bytes + self.in_service.map_or(0, |s| s.size)
    }

    fn start_service(&mut self, pkt: QueuedPkt, flow: FlowId, start: SimTime) {
        let ser = self.cfg.rate.time_to_send(pkt.size);
        self.in_service = Some(InService {
            flow,
            ticket: pkt.ticket,
            size: pkt.size,
            offered: pkt.offered,
            depart_at: start + ser,
            marked: pkt.marked,
        });
    }

    /// DRR: pick the next packet at a service-start instant. Classic
    /// deficit round robin — a flow earns `quantum` bytes of credit when
    /// it reaches the head of the active list, serves packets while the
    /// credit lasts, and rotates to the back when the head packet no
    /// longer fits.
    fn drr_next(&mut self, quantum: u64) -> Option<(FlowId, QueuedPkt)> {
        loop {
            let f = *self.active.front()?;
            if self.flows[f].queue.is_empty() {
                self.active.pop_front();
                let fl = &mut self.flows[f];
                fl.active = false;
                fl.deficit = 0;
                fl.fresh = true;
                continue;
            }
            if self.flows[f].fresh {
                self.flows[f].fresh = false;
                self.flows[f].deficit = self.flows[f].deficit.saturating_add(quantum);
            }
            let head = *self.flows[f].queue.front().expect("checked non-empty");
            if self.flows[f].deficit >= head.size {
                let fl = &mut self.flows[f];
                fl.deficit -= head.size;
                fl.queue.pop_front();
                if fl.queue.is_empty() {
                    fl.active = false;
                    fl.deficit = 0;
                    fl.fresh = true;
                    self.active.pop_front();
                }
                return Some((f, head));
            }
            // Out of credit: next flow's turn; fresh quantum on return.
            self.flows[f].fresh = true;
            self.active.pop_front();
            self.active.push_back(f);
        }
    }

    fn dequeue_next(&mut self) -> Option<(FlowId, QueuedPkt)> {
        match self.cfg.discipline {
            QueueDiscipline::Fifo | QueueDiscipline::Pie(_) | QueueDiscipline::Codel(_) => {
                self.fifo.pop_front()
            }
            QueueDiscipline::FlowQueue { quantum } | QueueDiscipline::FqPie { quantum, .. } => {
                self.drr_next(quantum)
            }
        }
    }

    /// Count one AQM early drop (PIE admission or CoDel dequeue) into
    /// the conservation ledger and telemetry.
    fn count_aqm_drop(&mut self, now: SimTime, flow: FlowId, size: u64) {
        self.dropped_bytes += size;
        self.dropped_packets += 1;
        self.dropped_aqm_bytes += size;
        self.dropped_aqm_packets += 1;
        let fl = &mut self.flows[flow].stats;
        fl.dropped_bytes += size;
        fl.dropped_packets += 1;
        self.signals.add(now, Sig::DroppedBytes as usize, size);
        self.signals.add(now, Sig::AqmDroppedPackets as usize, 1);
    }

    /// Count one ECN mark.
    fn count_mark(&mut self, now: SimTime) {
        self.marked_packets += 1;
        self.signals.add(now, Sig::AqmMarkedPackets as usize, 1);
    }
}

/// Panic early on AQM knobs that would wedge or divide by zero.
fn check_aqm(a: &AqmConfig) {
    assert!(a.target_ns > 0, "AQM target delay must be > 0");
    assert!(a.interval_ns > 0, "AQM interval must be > 0");
}

/// Clone-able handle to one shared bottleneck. See module docs.
#[derive(Clone)]
pub struct SharedBottleneck {
    inner: Rc<RefCell<Inner>>,
}

impl SharedBottleneck {
    /// Build the bottleneck.
    ///
    /// # Panics
    /// If the rate is zero (a permanently dead shared link would wedge
    /// every subscriber), a flow-queue quantum is zero, or an AQM
    /// config has a zero target or interval.
    pub fn new(cfg: SharedBottleneckConfig) -> Self {
        assert!(!cfg.rate.is_zero(), "shared bottleneck rate must be > 0");
        match cfg.discipline {
            QueueDiscipline::FlowQueue { quantum } | QueueDiscipline::FqPie { quantum, .. } => {
                assert!(quantum > 0, "flow-queue quantum must be > 0");
            }
            _ => {}
        }
        let aqm = match cfg.discipline {
            QueueDiscipline::Fifo | QueueDiscipline::FlowQueue { .. } => None,
            QueueDiscipline::Pie(a) => {
                check_aqm(&a);
                Some(AqmState::Pie(Pie::new(a)))
            }
            QueueDiscipline::FqPie { aqm, .. } => {
                check_aqm(&aqm);
                Some(AqmState::FqPie(Vec::new()))
            }
            QueueDiscipline::Codel(a) => {
                check_aqm(&a);
                Some(AqmState::Codel(Codel::new(a)))
            }
        };
        SharedBottleneck {
            inner: Rc::new(RefCell::new(Inner {
                cfg,
                flows: Vec::new(),
                fifo: VecDeque::new(),
                active: VecDeque::new(),
                in_service: None,
                waiting_bytes: 0,
                waiting_packets: 0,
                next_ticket: 0,
                offered_bytes: 0,
                offered_packets: 0,
                delivered_bytes: 0,
                delivered_packets: 0,
                dropped_bytes: 0,
                dropped_packets: 0,
                dropped_overflow_bytes: 0,
                dropped_overflow_packets: 0,
                dropped_aqm_bytes: 0,
                dropped_aqm_packets: 0,
                marked_packets: 0,
                aqm,
                pending_drops: Vec::new(),
                signals: SignalRecorder::new(SIGNALS, None),
            })),
        }
    }

    /// The state, exclusively. No method calls out while holding it, so
    /// two borrows never overlap on the one thread that can reach it.
    fn lock(&self) -> RefMut<'_, Inner> {
        self.inner.borrow_mut()
    }

    /// Register one subscribing subflow and return its dense id.
    pub fn subscribe(&self) -> FlowId {
        let mut g = self.lock();
        g.flows.push(FlowState::new());
        let id = g.flows.len() - 1;
        // FQ-PIE: one controller per flow, on an independently derived
        // RNG stream so flows' Bernoulli coins never correlate.
        let disc = g.cfg.discipline;
        if let QueueDiscipline::FqPie { aqm, .. } = disc {
            if let Some(AqmState::FqPie(pies)) = &mut g.aqm {
                pies.push(Pie::new(aqm.with_seed(derive_seed(aqm.seed, id as u64))));
            }
        }
        id
    }

    /// Bytes currently in the system (waiting plus in service) — the
    /// cross-layer occupancy signal queue-aware schedulers read on the
    /// pick hot path. One borrow, no allocation, strictly read-only.
    pub fn occupancy_bytes(&self) -> u64 {
        self.lock().occupancy()
    }

    /// Offer a packet from `flow` at `now`. Offers must arrive in
    /// non-decreasing `now` order (the co-simulation loop's invariant).
    pub fn offer(&self, now: SimTime, flow: FlowId, size: u64) -> SharedOutcome {
        debug_assert!(size > 0, "packets must be non-empty");
        let mut g = self.lock();
        let g = &mut *g;
        assert!(flow < g.flows.len(), "offer from unsubscribed flow {flow}");
        g.offered_bytes += size;
        g.offered_packets += 1;
        g.flows[flow].stats.offered_bytes += size;

        if g.occupancy() + size > g.cfg.capacity {
            g.dropped_bytes += size;
            g.dropped_packets += 1;
            g.dropped_overflow_bytes += size;
            g.dropped_overflow_packets += 1;
            let fl = &mut g.flows[flow].stats;
            fl.dropped_bytes += size;
            fl.dropped_packets += 1;
            g.signals.add(now, Sig::DroppedBytes as usize, size);
            return SharedOutcome::Dropped(DropReason::QueueOverflow);
        }

        // PIE admission decision (whole-queue or per-flow). CoDel acts
        // at dequeue, never here; without an AQM this is a no-op.
        let mut marked = false;
        if g.aqm.is_some() {
            let in_service_flow = g.in_service.map(|s| s.flow);
            let backlog_packets = g.waiting_packets + u64::from(in_service_flow.is_some());
            let flow_backlog =
                g.flows[flow].queue.len() as u64 + u64::from(in_service_flow == Some(flow));
            let verdict = match &mut g.aqm {
                Some(AqmState::Pie(pie)) => pie.admit(now, backlog_packets),
                Some(AqmState::FqPie(pies)) => pies[flow].admit(now, flow_backlog),
                Some(AqmState::Codel(_)) | None => AqmVerdict::Deliver,
            };
            match verdict {
                AqmVerdict::Deliver => {}
                AqmVerdict::Mark => {
                    marked = true;
                    g.count_mark(now);
                }
                AqmVerdict::Drop => {
                    g.count_aqm_drop(now, flow, size);
                    return SharedOutcome::Dropped(DropReason::AqmEarly);
                }
            }
        }

        let ticket = g.next_ticket;
        g.next_ticket += 1;
        let pkt = QueuedPkt {
            ticket,
            size,
            offered: now,
            marked,
        };
        if g.in_service.is_none() {
            // Idle server (offers are time-ordered, so every earlier
            // departure has been popped): serve immediately.
            debug_assert_eq!(g.waiting_packets, 0, "idle server with waiting packets");
            g.start_service(pkt, flow, now);
        } else {
            g.waiting_bytes += size;
            g.waiting_packets += 1;
            match g.cfg.discipline {
                QueueDiscipline::Fifo | QueueDiscipline::Pie(_) | QueueDiscipline::Codel(_) => {
                    g.fifo.push_back((flow, pkt))
                }
                QueueDiscipline::FlowQueue { .. } | QueueDiscipline::FqPie { .. } => {
                    g.flows[flow].queue.push_back(pkt);
                    if !g.flows[flow].active {
                        g.flows[flow].active = true;
                        g.flows[flow].fresh = true;
                        g.flows[flow].deficit = 0;
                        g.active.push_back(flow);
                    }
                }
            }
        }
        let depth = g.occupancy();
        g.signals.observe(now, Sig::QueueDepthBytes as usize, depth);
        g.signals.add(now, Sig::OfferedBytes as usize, size);
        SharedOutcome::Queued { ticket }
    }

    /// When the in-service packet finishes serializing, if any.
    pub fn next_departure(&self) -> Option<SimTime> {
        self.lock().in_service.map(|s| s.depart_at)
    }

    /// Pop the completed in-service packet and start serving the next
    /// one (chosen by the discipline *at this instant*). The caller must
    /// only pop once virtual time has reached [`Self::next_departure`].
    ///
    /// With CoDel configured, candidates the controller condemns at
    /// this service-start instant are recorded as dequeue-time drops —
    /// drain them via [`Self::take_aqm_drops`] *after* routing the
    /// returned departure, which preserves per-flow ticket order (the
    /// departing packet was always selected earlier than anything
    /// dropped here).
    pub fn pop_departure(&self) -> Option<Departure> {
        let mut g = self.lock();
        let g = &mut *g;
        let done = g.in_service.take()?;
        g.delivered_bytes += done.size;
        g.delivered_packets += 1;
        let waited = done.depart_at.saturating_since(done.offered);
        {
            let fl = &mut g.flows[done.flow].stats;
            fl.delivered_bytes += done.size;
            fl.delivered_packets += 1;
        }
        let waited_ms = waited.as_millis_f64() as u64;
        let now = done.depart_at;
        g.signals.observe(now, Sig::QueueWaitMs as usize, waited_ms);
        g.signals.add(now, Sig::DeliveredBytes as usize, done.size);
        // Feed the departure's sojourn to PIE (its queue-delay
        // estimator) and expose the updated probability to telemetry.
        if g.aqm.is_some() {
            let ppm = match &mut g.aqm {
                Some(AqmState::Pie(pie)) => {
                    pie.on_departure(done.depart_at, waited);
                    Some(pie.prob_ppm())
                }
                Some(AqmState::FqPie(pies)) => {
                    let pie = &mut pies[done.flow];
                    pie.on_departure(done.depart_at, waited);
                    Some(pie.prob_ppm())
                }
                Some(AqmState::Codel(_)) | None => None,
            };
            if let Some(ppm) = ppm {
                g.signals.observe(now, Sig::AqmDropProbPpm as usize, ppm);
            }
        }
        // The server runs on: next packet starts exactly at this
        // departure instant. CoDel vets each candidate's sojourn at
        // this service-start and may condemn several in a row.
        while let Some((flow, pkt)) = g.dequeue_next() {
            g.waiting_bytes -= pkt.size;
            g.waiting_packets -= 1;
            let is_codel = matches!(g.aqm, Some(AqmState::Codel(_)));
            if is_codel {
                let sojourn_ns = now.saturating_since(pkt.offered).as_nanos();
                let backlog = g.waiting_bytes + pkt.size;
                let verdict = match &mut g.aqm {
                    Some(AqmState::Codel(c)) => c.on_dequeue(now, sojourn_ns, backlog),
                    _ => unreachable!("checked codel above"),
                };
                match verdict {
                    AqmVerdict::Drop => {
                        g.count_aqm_drop(now, flow, pkt.size);
                        g.pending_drops.push(SharedDrop {
                            flow,
                            ticket: pkt.ticket,
                        });
                        continue;
                    }
                    AqmVerdict::Mark => {
                        let mut pkt = pkt;
                        pkt.marked = true;
                        g.count_mark(now);
                        g.start_service(pkt, flow, now);
                        break;
                    }
                    AqmVerdict::Deliver => {
                        g.start_service(pkt, flow, now);
                        break;
                    }
                }
            } else {
                g.start_service(pkt, flow, now);
                break;
            }
        }
        Some(Departure {
            at: done.depart_at,
            flow: done.flow,
            ticket: done.ticket,
            size: done.size,
            marked: done.marked,
        })
    }

    /// Drain the dequeue-time AQM drops recorded by the last
    /// [`Self::pop_departure`] (CoDel only; always empty otherwise).
    /// `mem::take` on an empty `Vec` never allocates, so probing this
    /// on every loop iteration is free for non-AQM fleets.
    pub fn take_aqm_drops(&self) -> Vec<SharedDrop> {
        std::mem::take(&mut self.lock().pending_drops)
    }

    /// Cheap whole-bottleneck conservation counters for the runtime
    /// watchdog: unlike [`SharedBottleneck::stats`] this never builds
    /// the per-flow vector — one borrow, eight copies, no allocation —
    /// so the fleet loop can probe it every iteration.
    pub fn conservation_counters(&self) -> mpdash_obs::ConservationCounters {
        let g = self.lock();
        mpdash_obs::ConservationCounters {
            offered_bytes: g.offered_bytes,
            delivered_bytes: g.delivered_bytes,
            dropped_bytes: g.dropped_bytes,
            queued_bytes: g.occupancy(),
            offered_packets: g.offered_packets,
            delivered_packets: g.delivered_packets,
            dropped_packets: g.dropped_packets,
            queued_packets: g.waiting_packets + u64::from(g.in_service.is_some()),
        }
    }

    /// Conservation counters (see [`SharedStats`]).
    pub fn stats(&self) -> SharedStats {
        let g = self.lock();
        SharedStats {
            offered_bytes: g.offered_bytes,
            delivered_bytes: g.delivered_bytes,
            dropped_bytes: g.dropped_bytes,
            queued_bytes: g.occupancy(),
            offered_packets: g.offered_packets,
            delivered_packets: g.delivered_packets,
            dropped_packets: g.dropped_packets,
            queued_packets: g.waiting_packets + u64::from(g.in_service.is_some()),
            dropped_overflow_bytes: g.dropped_overflow_bytes,
            dropped_overflow_packets: g.dropped_overflow_packets,
            dropped_aqm_bytes: g.dropped_aqm_bytes,
            dropped_aqm_packets: g.dropped_aqm_packets,
            marked_packets: g.marked_packets,
            per_flow: g.flows.iter().map(|f| f.stats).collect(),
        }
    }

    /// Snapshot of the bottleneck's metrics: the `queue_depth_bytes` and
    /// `queue_wait_ms` histograms.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.lock().signals.snapshot()
    }

    /// Start rolling queue signals (`queue_depth_bytes`, `queue_wait_ms`
    /// histograms; offered/delivered/dropped byte counters) into fixed
    /// virtual-time epochs. Observe-only: enabling telemetry changes no
    /// scheduling decision and no artifact byte.
    pub fn enable_telemetry(&self, spec: TelemetrySpec) {
        self.lock().signals.enable_telemetry(spec);
    }

    /// A copy of the epoch rollups with every write so far, if telemetry
    /// is enabled.
    pub fn epoch_series(&self) -> Option<EpochSeries> {
        self.lock().signals.epochs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdash_sim::SimDuration;

    const MSS: u64 = 1500;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn fifo_8mbps() -> SharedBottleneck {
        SharedBottleneck::new(SharedBottleneckConfig::fifo_mbps(8.0))
    }

    #[test]
    fn idle_server_serves_immediately() {
        let b = fifo_8mbps();
        let f = b.subscribe();
        let SharedOutcome::Queued { ticket } = b.offer(t(0), f, MSS) else {
            panic!("clean offer dropped")
        };
        // 1500 B at 8 Mbps = 1.5 ms.
        assert_eq!(
            b.next_departure(),
            Some(t(0) + SimDuration::from_micros(1500))
        );
        let d = b.pop_departure().unwrap();
        assert_eq!(d.ticket, ticket);
        assert_eq!(d.flow, f);
        assert_eq!(d.size, MSS);
        assert_eq!(b.next_departure(), None);
    }

    #[test]
    fn fifo_serves_in_arrival_order_across_flows() {
        let b = fifo_8mbps();
        let f0 = b.subscribe();
        let f1 = b.subscribe();
        b.offer(t(0), f0, MSS);
        b.offer(t(0), f1, MSS);
        b.offer(t(0), f0, MSS);
        let order: Vec<FlowId> = (0..3).map(|_| b.pop_departure().unwrap().flow).collect();
        assert_eq!(order, vec![f0, f1, f0]);
    }

    #[test]
    fn server_is_work_conserving_back_to_back() {
        let b = fifo_8mbps();
        let f = b.subscribe();
        b.offer(t(0), f, MSS);
        b.offer(t(0), f, MSS);
        let d1 = b.pop_departure().unwrap();
        let d2 = b.pop_departure().unwrap();
        assert_eq!(
            d2.at.saturating_since(d1.at),
            SimDuration::from_micros(1500),
            "second packet serializes right behind the first"
        );
    }

    #[test]
    fn drop_tail_on_capacity() {
        let b =
            SharedBottleneck::new(SharedBottleneckConfig::fifo_mbps(1.0).with_capacity(3 * MSS));
        let f = b.subscribe();
        let mut queued = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match b.offer(t(0), f, MSS) {
                SharedOutcome::Queued { .. } => queued += 1,
                SharedOutcome::Dropped(DropReason::QueueOverflow) => dropped += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(queued, 3);
        assert_eq!(dropped, 7);
        let s = b.stats();
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.queued_packets, 3);
    }

    #[test]
    fn drr_interleaves_a_backlogged_pair() {
        let b = SharedBottleneck::new(
            SharedBottleneckConfig::fifo_mbps(8.0)
                .with_capacity(u64::MAX)
                .with_discipline(QueueDiscipline::FlowQueue { quantum: MSS }),
        );
        let f0 = b.subscribe();
        let f1 = b.subscribe();
        // Flow 0 dumps a burst first, then flow 1 arrives: FIFO would
        // serve all of flow 0 before flow 1; DRR alternates.
        for _ in 0..4 {
            b.offer(t(0), f0, MSS);
        }
        for _ in 0..4 {
            b.offer(t(0), f1, MSS);
        }
        let order: Vec<FlowId> = (0..8).map(|_| b.pop_departure().unwrap().flow).collect();
        // First departure is the packet already in service (flow 0);
        // after that the round-robin alternates.
        assert_eq!(order[0], f0);
        let alternations = order.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            alternations >= 5,
            "DRR must interleave the flows: {order:?}"
        );
    }

    #[test]
    fn drr_quantum_bundles_small_packets() {
        let b = SharedBottleneck::new(
            SharedBottleneckConfig::fifo_mbps(8.0)
                .with_capacity(u64::MAX)
                .with_discipline(QueueDiscipline::FlowQueue { quantum: 3000 }),
        );
        let f0 = b.subscribe();
        let f1 = b.subscribe();
        b.offer(t(0), f0, MSS); // goes straight into service
        for _ in 0..4 {
            b.offer(t(0), f0, 1000);
            b.offer(t(0), f1, 1000);
        }
        let order: Vec<FlowId> = (0..9).map(|_| b.pop_departure().unwrap().flow).collect();
        // A 3000 B quantum serves small packets in bundles rather than
        // strict alternation, but both flows still progress.
        assert!(order.iter().filter(|&&f| f == f1).count() == 4);
        assert!(order.iter().filter(|&&f| f == f0).count() == 5);
    }

    #[test]
    fn conservation_holds_through_a_mixed_run() {
        let b = SharedBottleneck::new(
            SharedBottleneckConfig::fifo_mbps(4.0)
                .with_capacity(8 * MSS)
                .with_discipline(QueueDiscipline::FlowQueue { quantum: MSS }),
        );
        let flows: Vec<FlowId> = (0..3).map(|_| b.subscribe()).collect();
        let mut now = SimTime::ZERO;
        for i in 0..200u64 {
            now += SimDuration::from_micros(300 * (i % 7 + 1));
            // Pop every departure due by `now` first (the loop invariant).
            while b.next_departure().is_some_and(|d| d <= now) {
                b.pop_departure().unwrap();
            }
            b.offer(now, flows[(i % 3) as usize], 400 + (i % 5) * 350);
        }
        let s = b.stats();
        assert!(s.conserved(), "{s:?}");
        assert!(s.delivered_packets > 0);
        let per_flow_offered: u64 = s.per_flow.iter().map(|f| f.offered_bytes).sum();
        assert_eq!(per_flow_offered, s.offered_bytes);
    }

    #[test]
    fn cheap_conservation_probe_matches_the_full_stats() {
        let b =
            SharedBottleneck::new(SharedBottleneckConfig::fifo_mbps(4.0).with_capacity(4 * MSS));
        let f = b.subscribe();
        for i in 0..8u64 {
            b.offer(t(i), f, MSS);
            while b.next_departure().is_some_and(|d| d <= t(i)) {
                b.pop_departure().unwrap();
            }
        }
        let probe = b.conservation_counters();
        let full = b.stats();
        assert!(probe.conserved());
        assert_eq!(probe.offered_bytes, full.offered_bytes);
        assert_eq!(probe.delivered_bytes, full.delivered_bytes);
        assert_eq!(probe.dropped_bytes, full.dropped_bytes);
        assert_eq!(probe.queued_bytes, full.queued_bytes);
        assert_eq!(probe.queued_packets, full.queued_packets);
    }

    /// Saturate a bottleneck: offer a steady overload and pop every
    /// departure as it matures, for `secs` of virtual time.
    fn saturate(b: &SharedBottleneck, flows: &[FlowId], secs: u64) {
        let mut now = SimTime::ZERO;
        let mut i = 0u64;
        while now < SimTime::from_secs(secs) {
            now += SimDuration::from_micros(500);
            while b.next_departure().is_some_and(|d| d <= now) {
                b.pop_departure().unwrap();
                b.take_aqm_drops();
            }
            // 2 × MSS every 500 µs = 48 Mbps offered, far over service.
            b.offer(now, flows[(i % flows.len() as u64) as usize], MSS);
            b.offer(now, flows[(i % flows.len() as u64) as usize], MSS);
            i += 1;
        }
    }

    #[test]
    fn pie_admission_drops_under_sustained_overload() {
        let b = SharedBottleneck::new(
            SharedBottleneckConfig::fifo_mbps(8.0)
                .with_capacity(512 * 1024)
                .with_discipline(QueueDiscipline::Pie(crate::aqm::AqmConfig::pie())),
        );
        let f = b.subscribe();
        saturate(&b, &[f], 3);
        let s = b.stats();
        assert!(s.conserved(), "{s:?}");
        assert!(
            s.dropped_aqm_packets > 0,
            "sustained overload must trip PIE: {s:?}"
        );
        // PIE carries the overload: early drops dominate the few
        // drop-tails of the pre-convergence transient, and the
        // breakdown partitions the total exactly.
        assert!(s.dropped_aqm_packets > s.dropped_overflow_packets, "{s:?}");
        assert_eq!(
            s.dropped_packets,
            s.dropped_aqm_packets + s.dropped_overflow_packets
        );
    }

    #[test]
    fn pie_keeps_queue_delay_near_target_where_fifo_bloats() {
        let mk = |d: QueueDiscipline| {
            let b = SharedBottleneck::new(
                SharedBottleneckConfig::fifo_mbps(8.0)
                    .with_capacity(512 * 1024)
                    .with_discipline(d),
            );
            let f = b.subscribe();
            saturate(&b, &[f], 3);
            let snap = b.metrics_snapshot();
            let h = snap
                .histograms
                .iter()
                .find(|(k, _)| k == "queue_wait_ms")
                .map(|(_, h)| h.clone())
                .unwrap();
            h.sum as f64 / h.count.max(1) as f64
        };
        let fifo_wait = mk(QueueDiscipline::Fifo);
        let pie_wait = mk(QueueDiscipline::Pie(crate::aqm::AqmConfig::pie()));
        assert!(
            fifo_wait > 300.0,
            "512 KiB at 8 Mbps must bufferbloat: {fifo_wait}"
        );
        // An open-loop 6x overload is PIE's worst case (nothing backs
        // off, so the controller oscillates around its equilibrium
        // drop rate); even there it must clearly beat drop-tail. The
        // closed-loop ordering versus FIFO is asserted end-to-end by
        // `exp aqm`, where senders respond to the early drops.
        assert!(
            pie_wait < fifo_wait * 0.75,
            "PIE must hold delay below drop-tail: pie {pie_wait} vs fifo {fifo_wait}"
        );
    }

    #[test]
    fn codel_drops_at_dequeue_and_reports_them_for_routing() {
        let b = SharedBottleneck::new(
            SharedBottleneckConfig::fifo_mbps(8.0)
                .with_capacity(512 * 1024)
                .with_discipline(QueueDiscipline::Codel(crate::aqm::AqmConfig::codel())),
        );
        let f = b.subscribe();
        let mut now = SimTime::ZERO;
        let mut aqm_drops = 0u64;
        let mut last_departed_ticket = None::<Ticket>;
        for i in 0..20_000u64 {
            now += SimDuration::from_micros(500);
            while b.next_departure().is_some_and(|d| d <= now) {
                let dep = b.pop_departure().unwrap();
                // Per-flow ticket order: departures never regress, and
                // every dequeue drop carries a ticket later than the
                // departure that preceded it.
                if let Some(prev) = last_departed_ticket {
                    assert!(dep.ticket > prev);
                }
                for drop in b.take_aqm_drops() {
                    assert!(drop.ticket > dep.ticket, "drops follow the departure");
                    aqm_drops += 1;
                }
                last_departed_ticket = Some(dep.ticket);
            }
            b.offer(now, f, MSS);
            if i % 2 == 0 {
                b.offer(now, f, MSS);
            }
        }
        let s = b.stats();
        assert!(s.conserved(), "{s:?}");
        assert!(aqm_drops > 0, "standing queue must trip CoDel");
        assert_eq!(s.dropped_aqm_packets, aqm_drops);
        assert_eq!(
            s.dropped_packets,
            s.dropped_aqm_packets + s.dropped_overflow_packets
        );
    }

    #[test]
    fn ecn_mode_marks_departures_instead_of_dropping() {
        let b = SharedBottleneck::new(
            SharedBottleneckConfig::fifo_mbps(8.0)
                .with_capacity(512 * 1024)
                .with_discipline(QueueDiscipline::Pie(
                    crate::aqm::AqmConfig::pie().with_ecn(true),
                )),
        );
        let f = b.subscribe();
        let mut now = SimTime::ZERO;
        let mut marked = 0u64;
        for _ in 0..6000u64 {
            now += SimDuration::from_micros(500);
            while b.next_departure().is_some_and(|d| d <= now) {
                if b.pop_departure().unwrap().marked {
                    marked += 1;
                }
            }
            b.offer(now, f, MSS);
            b.offer(now, f, MSS);
        }
        let s = b.stats();
        assert!(s.conserved(), "{s:?}");
        assert!(marked > 0, "ECN mode must mark under overload");
        assert_eq!(s.dropped_aqm_packets, 0, "marking replaces dropping: {s:?}");
        assert!(s.marked_packets >= marked, "{s:?}");
    }

    #[test]
    fn fq_pie_polices_the_hog_and_spares_the_trickle() {
        let b = SharedBottleneck::new(
            SharedBottleneckConfig::fifo_mbps(8.0)
                .with_capacity(512 * 1024)
                .with_discipline(QueueDiscipline::FqPie {
                    quantum: MSS,
                    aqm: crate::aqm::AqmConfig::pie(),
                }),
        );
        let hog = b.subscribe();
        let mouse = b.subscribe();
        let mut now = SimTime::ZERO;
        for i in 0..8000u64 {
            now += SimDuration::from_micros(500);
            while b.next_departure().is_some_and(|d| d <= now) {
                b.pop_departure().unwrap();
            }
            b.offer(now, hog, MSS);
            b.offer(now, hog, MSS);
            if i % 20 == 0 {
                b.offer(now, mouse, 200);
            }
        }
        let s = b.stats();
        assert!(s.conserved(), "{s:?}");
        assert!(s.per_flow[hog].dropped_packets > 0, "{s:?}");
        assert_eq!(
            s.per_flow[mouse].dropped_packets, 0,
            "a sub-quantum trickle never stands in its own queue: {s:?}"
        );
    }

    #[test]
    fn aqm_labels_are_stable() {
        use crate::aqm::AqmConfig;
        assert_eq!(QueueDiscipline::Pie(AqmConfig::pie()).label(), "pie");
        assert_eq!(
            QueueDiscipline::FqPie {
                quantum: 1540,
                aqm: AqmConfig::pie()
            }
            .label(),
            "fq_pie"
        );
        assert_eq!(QueueDiscipline::Codel(AqmConfig::codel()).label(), "codel");
    }

    #[test]
    fn queue_depth_histogram_is_recorded() {
        let b = fifo_8mbps();
        let f = b.subscribe();
        for _ in 0..5 {
            b.offer(t(0), f, MSS);
        }
        let snap = b.metrics_snapshot();
        assert!(!snap.is_empty());
        let json = snap.to_json().to_string();
        assert!(json.contains("queue_depth_bytes"), "{json}");
    }
}
