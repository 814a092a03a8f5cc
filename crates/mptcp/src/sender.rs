//! The MPTCP sender: connection-level data assignment plus per-subflow
//! TCP send machinery.
//!
//! The sender owns one [`SubflowTx`] per path. Each subflow is a compact
//! TCP sender: congestion window ([`crate::cc`]), Jacobson/Karn RTT
//! estimation, duplicate-ACK fast retransmit with NewReno partial-ACK
//! retransmission, and an RTO with exponential backoff. The connection
//! stripes application bytes across subflows through the configured
//! [`Scheduler`] (built once from the config's
//! [`crate::scheduler::SchedulerSpec`]), *skipping* any subflow the
//! current [`PathMask`] disables — that skip is the entire MP-DASH
//! enforcement mechanism (§6 of the paper).
//!
//! The sender is pure state: it never touches links or the event queue.
//! Methods return [`Transmit`] actions that the simulator realizes, which
//! keeps this module synchronously testable.

use crate::cc::{CcKind, CongestionControl};
use crate::packet::MSS;
use crate::scheduler::{Candidate, SchedInput, Scheduler, SchedulerImpl, SchedulerSpec};
use mpdash_sim::{GiveBackSlack, PathId, PathMask, SimDuration, SimTime};
use std::collections::VecDeque;

/// Initial retransmission timeout before any RTT sample (RFC 6298).
const RTO_INITIAL: SimDuration = SimDuration::from_millis(1_000);
/// Lower bound on the RTO (Linux uses 200 ms).
const RTO_MIN: SimDuration = SimDuration::from_millis(200);
/// Upper bound on the RTO.
const RTO_MAX: SimDuration = SimDuration::from_secs(60);
/// RTO firings without progress before a subflow is declared failed and
/// its data reinjected on the surviving paths (Linux gives up on a TCP
/// connection after ~15 backoffs; MPTCP abandons a subflow much sooner
/// because the data has somewhere else to go).
const MAX_CONSECUTIVE_RTOS: u32 = 6;
/// How long a failed subflow rests before the sender probes it again
/// (MPTCP re-establishes subflows when paths come back; we model that as
/// a state reset after a cooldown).
const REVIVAL_COOLDOWN: SimDuration = SimDuration::from_secs(10);
/// Reconnect-probe cooldown after a *link-down* failure. The interface
/// dropped on an otherwise healthy path — reassociation is usually
/// seconds away, so probe quickly and at a fixed interval instead of
/// inheriting the RTO-exhaustion exponential backoff. A probe that dies
/// on a still-dark interface costs one segment, reinjected immediately.
const LINKDOWN_RETRY: SimDuration = SimDuration::from_secs(2);

/// A segment-transmission instruction for the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transmit {
    /// Path to send on.
    pub path: PathId,
    /// Subflow-level sequence number of the first byte.
    pub seq: u64,
    /// Payload length in bytes (≤ [`MSS`]).
    pub len: u64,
    /// Connection-level (DSS) offset of the first byte.
    pub dss: u64,
    /// Whether this is a retransmission.
    pub retx: bool,
    /// First segment of a (re-)established subflow. A revival is a fresh
    /// TCP connection, so its opening segment carries a SYN-like marker
    /// telling the receiver to resynchronize its subflow sequence state —
    /// the abandoned incarnation's unacked range is gone for good and
    /// must not hold the cumulative ACK back. Retransmissions of the
    /// opening segment re-carry the marker (a lost SYN is retried).
    pub syn: bool,
}

/// An unacknowledged segment.
#[derive(Clone, Copy, Debug)]
struct Seg {
    seq: u64,
    len: u64,
    dss: u64,
    sent_at: SimTime,
    retx: bool,
    /// Whether this segment's DSS range has been reinjected on another
    /// subflow (at most once per segment).
    reinjected: bool,
    /// Opening segment of a (re-)established subflow (see
    /// [`Transmit::syn`]).
    syn: bool,
}

/// Per-path TCP sender state.
#[derive(Clone, Debug)]
pub struct SubflowTx {
    path: PathId,
    cc: CongestionControl,
    /// Congestion-control flavor, kept so re-establishment can build a
    /// fresh controller of the same kind.
    cc_kind: CcKind,
    snd_una: u64,
    snd_nxt: u64,
    /// Unacknowledged segments, oldest first. A window that swelled
    /// into a deep queue drains here, so ACKs give the slack back.
    segs: VecDeque<Seg>,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    /// Lowest RTT ever sampled (propagation estimate for HyStart).
    min_rtt: Option<SimDuration>,
    dupacks: u32,
    /// `Some(end)` while in loss recovery; recovery exits when
    /// `snd_una >= end`.
    recovery_end: Option<u64>,
    /// `Some(end)` while reacting to an ECN congestion echo: the window
    /// was already halved once for this flight, and further echoes are
    /// ignored until `snd_una >= end` (one backoff per window, RFC 3168
    /// §6.1.2). Separate from `recovery_end` because an ECN backoff is
    /// *not* loss recovery — nothing is missing at the receiver, so
    /// NewReno partial-ACK retransmits must not fire.
    ecn_hold_end: Option<u64>,
    /// Absolute instant the retransmission timer fires, if armed.
    rto_deadline: Option<SimTime>,
    /// RTO firings since the last forward progress; at
    /// [`MAX_CONSECUTIVE_RTOS`] the subflow is declared failed.
    consecutive_rtos: u32,
    /// A persistently failing subflow is abandoned: its unacked data is
    /// reinjected elsewhere and the packet scheduler skips it (MPTCP
    /// tears such subflows down; we keep the state for accounting).
    failed: bool,
    /// Cooldown before the next revival probe; doubles on each repeated
    /// failure so a permanently dead path is probed ever more rarely.
    revival_backoff: SimDuration,
    /// Last instant this subflow sent or received anything (for idle
    /// window validation).
    last_activity: SimTime,
    /// Instant the (re-)established subflow may carry new data; the
    /// re-establishment handshake occupies `[revival, established_at)`.
    established_at: SimTime,
    /// Lifetime count of failure declarations.
    failures: u64,
    /// Lifetime count of revivals (re-establishments after failure).
    revivals: u64,
    /// The next segment handed to this subflow opens a fresh incarnation
    /// and must carry the SYN-like resync marker (see [`Transmit::syn`]).
    send_syn: bool,
    /// Lifetime bytes handed to this subflow (first transmissions only).
    pub assigned_bytes: u64,
    /// Lifetime retransmitted bytes.
    pub retx_bytes: u64,
}

impl SubflowTx {
    fn new(path: PathId, cc: CcKind) -> Self {
        SubflowTx {
            path,
            cc: CongestionControl::new(cc),
            cc_kind: cc,
            snd_una: 0,
            snd_nxt: 0,
            segs: VecDeque::new(),
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: RTO_INITIAL,
            min_rtt: None,
            dupacks: 0,
            recovery_end: None,
            ecn_hold_end: None,
            rto_deadline: None,
            consecutive_rtos: 0,
            failed: false,
            revival_backoff: REVIVAL_COOLDOWN,
            last_activity: SimTime::ZERO,
            established_at: SimTime::ZERO,
            failures: 0,
            revivals: 0,
            send_syn: false,
            assigned_bytes: 0,
            retx_bytes: 0,
        }
    }

    /// Bytes sent but not yet cumulatively acknowledged.
    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// Smoothed RTT estimate, if any sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Lifetime count of failure declarations on this subflow.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Lifetime count of revivals (full re-establishments) on this
    /// subflow.
    pub fn revivals(&self) -> u64 {
        self.revivals
    }

    /// Re-establish the subflow after a failure. MPTCP tears a failed
    /// subflow down, so a revival is a fresh three-way handshake: new
    /// congestion state, no RTT history, and the handshake itself costs
    /// roughly one RTT before new data may flow (`established_at`).
    fn reestablish(&mut self, now: SimTime) {
        self.revivals += 1;
        // SYN + SYN/ACK ≈ the last known RTT; with no history, fall back
        // to the tight probe timer below.
        let handshake = self.srtt.unwrap_or(RTO_MIN * 2);
        self.established_at = now + handshake;
        self.failed = false;
        self.consecutive_rtos = 0;
        self.cc = CongestionControl::new(self.cc_kind);
        self.srtt = None;
        self.rttvar = SimDuration::ZERO;
        self.min_rtt = None;
        self.dupacks = 0;
        self.recovery_end = None;
        self.ecn_hold_end = None;
        // A revival is a *probe*: keep the timer tight so a still-dead
        // path reinjects (and re-fails) quickly rather than stalling the
        // stream a full initial RTO.
        self.rto = RTO_MIN * 2;
        self.last_activity = now;
        // The fresh incarnation's first segment announces the resync:
        // the receiver must not wait for the dead incarnation's abandoned
        // sequence range.
        self.send_syn = true;
    }

    fn take_rtt_sample(&mut self, rtt: SimDuration) {
        // HyStart-style delay-based slow-start exit: once the RTT has
        // inflated a quarter above the propagation floor (at least 4 ms),
        // the bottleneck queue is filling — stop doubling before the
        // drop-tail queue turns the overshoot into a burst of losses.
        let min = match self.min_rtt {
            Some(m) => m.min(rtt),
            None => rtt,
        };
        self.min_rtt = Some(min);
        let threshold = min + (min / 4).max(SimDuration::from_millis(4));
        if rtt > threshold {
            self.cc.exit_slow_start();
        }
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let err = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = self.rttvar * 3 / 4 + err / 4;
                self.srtt = Some(srtt * 7 / 8 + rtt / 8);
            }
        }
        let srtt = self.srtt.unwrap();
        self.rto = (srtt + self.rttvar * 4).max(RTO_MIN).min(RTO_MAX);
    }

    /// Mark the first unacked segment for retransmission and return the
    /// corresponding action.
    fn retransmit_head(&mut self, now: SimTime) -> Option<Transmit> {
        let seg = self.segs.front_mut()?;
        seg.retx = true;
        seg.sent_at = now;
        self.retx_bytes += seg.len;
        Some(Transmit {
            path: self.path,
            seq: seg.seq,
            len: seg.len,
            dss: seg.dss,
            retx: true,
            syn: seg.syn,
        })
    }
}

/// The connection-level MPTCP sender.
pub struct Sender {
    subflows: Vec<SubflowTx>,
    scheduler: SchedulerImpl,
    /// Total application bytes requested for transmission.
    conn_total: u64,
    /// Next DSS offset to assign (bytes already mapped to subflows).
    conn_assigned: u64,
    /// Enforcement state of the MP-DASH overlay, as last signaled.
    mask: PathMask,
    /// Scratch for `pump_with`'s candidates (a pump must not allocate).
    candidates: Vec<Candidate>,
}

impl Sender {
    /// A sender with `n_paths` subflows, all enabled.
    pub fn new(n_paths: usize, scheduler: SchedulerSpec, cc: CcKind) -> Self {
        assert!(n_paths >= 1, "need at least one path");
        assert!(n_paths <= 32, "PathMask supports up to 32 paths");
        Sender {
            subflows: (0..n_paths)
                .map(|i| SubflowTx::new(PathId(i as u8), cc))
                .collect(),
            scheduler: scheduler.build(),
            conn_total: 0,
            conn_assigned: 0,
            mask: PathMask::ALL,
            candidates: Vec::with_capacity(n_paths),
        }
    }

    /// Read access to a subflow's state (diagnostics, scheduling oracles).
    pub fn subflow(&self, path: PathId) -> &SubflowTx {
        &self.subflows[path.index()]
    }

    /// Application bytes queued so far (lifetime).
    pub fn conn_total(&self) -> u64 {
        self.conn_total
    }

    /// Queue `bytes` more application bytes for transmission.
    pub fn push_app_data(&mut self, bytes: u64) {
        self.conn_total += bytes;
    }

    /// Drop every queued byte not yet assigned to a subflow (request
    /// cancellation). Returns the number of bytes flushed.
    ///
    /// The connection-level sequence space stays intact: `conn_assigned`
    /// never moves backwards, segments already mapped to subflows keep
    /// retransmitting until acknowledged, and the next
    /// [`Sender::push_app_data`] continues at the same DSS offset the
    /// stream would have reached had the flushed bytes never been queued.
    /// The receiver cannot tell a flushed tail from a tail that was never
    /// sent — which is exactly the HTTP layer's contract: the cancelled
    /// response simply ends at the flush point.
    pub fn flush_unsent(&mut self) -> u64 {
        let flushed = self.conn_total - self.conn_assigned;
        self.conn_total = self.conn_assigned;
        flushed
    }

    /// Apply a newly signaled path mask. Returns `true` if it changed
    /// (callers re-pump on enables).
    pub fn apply_mask(&mut self, mask: PathMask) -> bool {
        let changed = self.mask != mask;
        self.mask = mask;
        changed
    }

    /// The configured scheduler's spec (diagnostics, trace attribution).
    pub fn scheduler_spec(&self) -> SchedulerSpec {
        self.scheduler.spec()
    }

    /// [`Sender::pump_with`] on a connection with no shared-bottleneck
    /// attachments (every path's queue depth unknown).
    pub fn pump(&mut self, now: SimTime) -> Vec<Transmit> {
        let mut out = Vec::new();
        self.pump_with(now, &[], &mut out);
        out
    }

    /// Assign as much pending data as window space and the mask allow.
    /// Appends the transmissions to realize to `out`, in order (the
    /// caller's reused buffer: a pump per ACK must not allocate).
    ///
    /// `depths[path]` is the occupancy of the path's shared
    /// bottleneck queue, sampled by the simulator (the sender is pure
    /// state and never touches links itself); `None` — or a missing
    /// entry — means the path has no shared attachment. Queue-aware
    /// schedulers fold it into every pick; the others ignore it.
    pub fn pump_with(&mut self, now: SimTime, depths: &[Option<u64>], out: &mut Vec<Transmit>) {
        // Idle window validation first: a subflow that has been silent for
        // an RTO with nothing in flight must not blast a stale window.
        // Failed subflows are probed again after a cooldown — the path
        // may have come back (MPTCP would re-establish the subflow).
        for sf in &mut self.subflows {
            if sf.failed && now.saturating_since(sf.last_activity) > sf.revival_backoff {
                sf.reestablish(now);
            }
            if sf.in_flight() == 0
                && now.saturating_since(sf.last_activity) > sf.rto
                && sf.cwnd() as f64 > crate::cc::INIT_CWND
            {
                sf.cc.on_idle_restart();
            }
        }

        loop {
            let remaining = self.conn_total - self.conn_assigned;
            if remaining == 0 {
                break;
            }
            let len = remaining.min(MSS);
            self.candidates.clear();
            for sf in &self.subflows {
                let (cwnd, in_flight) = (sf.cwnd(), sf.in_flight());
                if !sf.failed
                    && now >= sf.established_at
                    && self.mask.contains(sf.path)
                    && in_flight + len <= cwnd
                {
                    self.candidates.push(Candidate {
                        path: sf.path,
                        srtt: sf.srtt,
                        cwnd,
                        in_flight,
                        queue_depth: depths.get(sf.path.index()).copied().flatten(),
                    });
                }
            }
            let input = SchedInput {
                candidates: &self.candidates,
                backlog: remaining,
            };
            let Some(path) = self.scheduler.pick(&input) else {
                break;
            };
            let sf = &mut self.subflows[path.index()];
            let seg = Seg {
                seq: sf.snd_nxt,
                len,
                dss: self.conn_assigned,
                sent_at: now,
                retx: false,
                reinjected: false,
                syn: std::mem::take(&mut sf.send_syn),
            };
            sf.snd_nxt += len;
            sf.assigned_bytes += len;
            sf.segs.push_back(seg);
            sf.last_activity = now;
            if sf.rto_deadline.is_none() {
                sf.rto_deadline = Some(now + sf.rto);
            }
            self.conn_assigned += len;
            out.push(Transmit {
                path,
                seq: seg.seq,
                len,
                dss: seg.dss,
                retx: false,
                syn: seg.syn,
            });
        }
    }

    /// Process a cumulative ACK for `path`. Returns retransmissions to
    /// realize (fast retransmit or NewReno partial-ACK retransmit).
    pub fn on_ack(&mut self, now: SimTime, path: PathId, ack: u64) -> Vec<Transmit> {
        let sf = &mut self.subflows[path.index()];
        // Only ACKs that relate to outstanding data count as activity.
        // Pure control ACKs (MP-DASH mask signaling on an idle subflow)
        // must not refresh the idle clock, or the RFC 2861 window
        // validation in `pump` would never fire and every chunk would
        // open with a full stale-window burst into the drop-tail queue.
        if ack > sf.snd_una || !sf.segs.is_empty() {
            sf.last_activity = now;
        }
        let mut out = Vec::new();

        if ack > sf.snd_una {
            let acked = ack - sf.snd_una;
            sf.snd_una = ack;
            sf.consecutive_rtos = 0;
            sf.revival_backoff = REVIVAL_COOLDOWN;
            // Pop fully covered segments; take the RTT sample from the
            // most recent non-retransmitted one (Karn's algorithm).
            let mut sample = None;
            while let Some(front) = sf.segs.front() {
                if front.seq + front.len <= ack {
                    if !front.retx {
                        sample = Some(now.saturating_since(front.sent_at));
                    }
                    sf.segs.pop_front();
                } else {
                    break;
                }
            }
            sf.segs.give_back_slack();
            if let Some(rtt) = sample {
                sf.take_rtt_sample(rtt);
            }

            // Growth stays frozen for the whole recovery episode,
            // including the full ACK that exits it (the window was already
            // set to ssthresh at the loss). An ECN hold freezes growth the
            // same way without the retransmit machinery.
            let was_in_recovery = sf.recovery_end.is_some() || sf.ecn_hold_end.is_some();
            let still_in_recovery = match sf.recovery_end {
                Some(end) if ack >= end => {
                    sf.recovery_end = None;
                    false
                }
                Some(_) => true,
                None => false,
            };
            if matches!(sf.ecn_hold_end, Some(end) if ack >= end) {
                sf.ecn_hold_end = None;
            }
            sf.cc
                .on_ack(now, acked, was_in_recovery, sf.srtt.unwrap_or(RTO_INITIAL));
            // NewReno: a partial ACK during recovery means the next
            // segment was also lost; retransmit it immediately.
            if still_in_recovery {
                if let Some(t) = sf.retransmit_head(now) {
                    out.push(t);
                }
            }
            sf.dupacks = 0;
            sf.rto_deadline = if sf.segs.is_empty() {
                None
            } else {
                Some(now + sf.rto)
            };
        } else if ack == sf.snd_una && !sf.segs.is_empty() {
            sf.dupacks += 1;
            if sf.dupacks == 3 && sf.recovery_end.is_none() {
                let in_flight = sf.in_flight();
                sf.cc.on_fast_retransmit(in_flight);
                sf.recovery_end = Some(sf.snd_nxt);
                if let Some(t) = sf.retransmit_head(now) {
                    out.push(t);
                }
                sf.rto_deadline = Some(now + sf.rto);
            }
        }
        out
    }

    /// React to an ECN congestion echo on `path`: one multiplicative
    /// window decrease per flight, with no retransmission (the marked
    /// packet *was* delivered). AQM marks arrive on the ACK that covers
    /// the marked segment, so the echo lands right after `on_ack` in the
    /// event loop. While already in loss recovery or an earlier ECN hold,
    /// further echoes are ignored — the window has already been cut for
    /// this flight.
    pub fn on_ecn_echo(&mut self, _now: SimTime, path: PathId) {
        let sf = &mut self.subflows[path.index()];
        if sf.failed || sf.recovery_end.is_some() || sf.ecn_hold_end.is_some() {
            return;
        }
        let in_flight = sf.in_flight();
        sf.cc.on_fast_retransmit(in_flight);
        sf.ecn_hold_end = Some(sf.snd_nxt);
    }

    /// Handle the retransmission timer for `path` firing at `now`.
    /// Returns the transmissions to realize: the same-subflow
    /// retransmission, plus (on the first RTO of a segment, and for every
    /// outstanding segment when the subflow is declared failed) a
    /// **reinjection** of the segment's DSS range on another live subflow
    /// — MPTCP's mechanism for unblocking connection-level delivery when
    /// one path stops acknowledging.
    pub fn on_rto_fire(&mut self, now: SimTime, path: PathId) -> Vec<Transmit> {
        let idx = path.index();
        let Some(deadline) = self.subflows[idx].rto_deadline else {
            return Vec::new();
        };
        if now < deadline {
            return Vec::new(); // stale timer event; simulator re-arms
        }
        if self.subflows[idx].segs.is_empty() {
            self.subflows[idx].rto_deadline = None;
            return Vec::new();
        }
        let mut out = Vec::new();

        // A subflow is only abandoned if its data has somewhere else to
        // go; the last usable path keeps retrying forever, like a
        // single-path TCP (important for WiFi-only mode riding out a
        // blackout).
        let has_rescue_target = self
            .subflows
            .iter()
            .any(|o| o.path != path && !o.failed && self.mask.contains(o.path));
        let sf = &mut self.subflows[idx];
        sf.consecutive_rtos += 1;
        if sf.consecutive_rtos >= MAX_CONSECUTIVE_RTOS && has_rescue_target {
            // Persistent failure: abandon the subflow and reinject every
            // outstanding DSS range elsewhere. It may be revived after a
            // cooldown (see `pump`); repeated failures back the probing
            // off exponentially.
            return self.fail_subflow(now, path);
        }

        let in_flight = sf.in_flight();
        sf.cc.on_rto(in_flight);
        sf.rto = (sf.rto * 2).min(RTO_MAX);
        sf.recovery_end = Some(sf.snd_nxt);
        sf.dupacks = 0;
        if let Some(t) = sf.retransmit_head(now) {
            out.push(t);
        }
        sf.rto_deadline = Some(now + sf.rto);
        sf.last_activity = now;
        // First RTO of the head segment: duplicate its DSS range onto a
        // live sibling so connection-level delivery is not hostage to
        // this path (the receiver's interval set deduplicates).
        let head = self.subflows[idx].segs.front().copied();
        if let Some(head) = head {
            if !head.reinjected {
                if let Some(t) = self.reinject(now, path, head.dss, head.len) {
                    self.subflows[idx]
                        .segs
                        .front_mut()
                        .expect("head still present")
                        .reinjected = true;
                    out.push(t);
                }
            }
        }
        out
    }

    /// Abandon `path` now: mark it failed (revivable after its backed-off
    /// cooldown), clear its outstanding segments, and reinject every
    /// cleared DSS range on the surviving paths. Callers must have
    /// verified a rescue target exists.
    fn fail_subflow(&mut self, now: SimTime, path: PathId) -> Vec<Transmit> {
        let sf = &mut self.subflows[path.index()];
        sf.failed = true;
        sf.failures += 1;
        sf.rto_deadline = None;
        sf.last_activity = now;
        sf.revival_backoff = (sf.revival_backoff * 2).min(SimDuration::from_secs(120));
        let ranges: Vec<(u64, u64)> = sf.segs.iter().map(|s| (s.dss, s.len)).collect();
        sf.segs.clear();
        sf.segs.give_back_slack();
        sf.snd_una = sf.snd_nxt;
        let mut out = Vec::new();
        for (dss, len) in ranges {
            if let Some(t) = self.reinject(now, path, dss, len) {
                out.push(t);
            }
        }
        out
    }

    /// Link-down signal for `path` (the interface reported the
    /// association gone — e.g. a WiFi disassociation swallowed a
    /// transmit). Real stacks learn this synchronously from the kernel
    /// rather than waiting out an RTO backoff chain, so model it the
    /// same way: immediately declare the subflow failed and reinject its
    /// outstanding data on the surviving paths. Single-path connections
    /// keep the plain RTO behavior — abandoning the only path would
    /// strand the data (and the revival probe is the reconnect).
    ///
    /// Unlike an RTO-exhaustion failure — where the path's health is
    /// unknown and probing backs off exponentially — a link-down names
    /// its cause: the interface dropped on an otherwise healthy path,
    /// and reassociation is typically quick. So the revival probe uses
    /// a short fixed 2 s cooldown; a probe swallowed by
    /// a still-dark interface just lands back here and costs one
    /// immediately-reinjected segment.
    pub fn on_link_down(&mut self, now: SimTime, path: PathId) -> Vec<Transmit> {
        let idx = path.index();
        if self.subflows[idx].failed {
            return Vec::new();
        }
        let has_rescue_target = self
            .subflows
            .iter()
            .any(|o| o.path != path && !o.failed && self.mask.contains(o.path));
        if !has_rescue_target {
            return Vec::new();
        }
        let out = self.fail_subflow(now, path);
        self.subflows[idx].revival_backoff = LINKDOWN_RETRY;
        out
    }

    /// Send `len` bytes of DSS range `dss` as *new* subflow data on the
    /// best live subflow other than `avoid`. Reinjections bypass the
    /// congestion-window space check (they are rescue traffic and rare)
    /// but still count toward the target subflow's in-flight bytes.
    fn reinject(&mut self, now: SimTime, avoid: PathId, dss: u64, len: u64) -> Option<Transmit> {
        // Deliberately not gated on `established_at`: the failure path
        // already verified a rescue target with this same filter, and
        // stranding the cleared DSS ranges would lose data. Rescue
        // traffic onto a mid-handshake subflow rides out the handshake
        // in the link's queue.
        let target = self
            .subflows
            .iter()
            .filter(|sf| sf.path != avoid && !sf.failed && self.mask.contains(sf.path))
            .min_by_key(|sf| (sf.srtt.unwrap_or(SimDuration::MAX), sf.path))?
            .path;
        let sf = &mut self.subflows[target.index()];
        let seg = Seg {
            seq: sf.snd_nxt,
            len,
            dss,
            sent_at: now,
            retx: false,
            reinjected: true, // never reinject a reinjection
            syn: std::mem::take(&mut sf.send_syn),
        };
        sf.snd_nxt += len;
        sf.segs.push_back(seg);
        sf.retx_bytes += len;
        sf.last_activity = now;
        if sf.rto_deadline.is_none() {
            sf.rto_deadline = Some(now + sf.rto);
        }
        Some(Transmit {
            path: target,
            seq: seg.seq,
            len,
            dss,
            retx: true,
            syn: seg.syn,
        })
    }

    /// Earliest pending retransmission-timer deadline of `path`, if armed.
    pub fn rto_deadline(&self, path: PathId) -> Option<SimTime> {
        self.subflows[path.index()].rto_deadline
    }

    /// True when every queued application byte has been acknowledged on
    /// its subflow.
    pub fn all_acked(&self) -> bool {
        self.conn_assigned == self.conn_total && self.subflows.iter().all(|sf| sf.segs.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_path_sender() -> Sender {
        Sender::new(2, SchedulerSpec::MinRtt, CcKind::Reno)
    }

    #[test]
    fn pump_respects_cwnd() {
        let mut s = two_path_sender();
        s.push_app_data(10_000_000);
        let tx = s.pump(SimTime::ZERO);
        // Two subflows, 10 MSS initial window each, MinRtt with no
        // estimates fills the primary then the secondary.
        assert_eq!(tx.len(), 20);
        let wifi_bytes: u64 = tx
            .iter()
            .filter(|t| t.path == PathId::WIFI)
            .map(|t| t.len)
            .sum();
        assert_eq!(wifi_bytes, 10 * MSS);
        // No more space, nothing further to pump.
        assert!(s.pump(SimTime::ZERO).is_empty());
    }

    #[test]
    fn dss_assignment_is_contiguous_and_unique() {
        let mut s = two_path_sender();
        s.push_app_data(100 * MSS);
        let tx = s.pump(SimTime::ZERO);
        let mut dss: Vec<u64> = tx.iter().map(|t| t.dss).collect();
        dss.sort_unstable();
        for (i, d) in dss.iter().enumerate() {
            assert_eq!(*d, i as u64 * MSS);
        }
    }

    #[test]
    fn mask_skips_disabled_subflow() {
        let mut s = two_path_sender();
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(10_000_000);
        let tx = s.pump(SimTime::ZERO);
        assert!(tx.iter().all(|t| t.path == PathId::WIFI));
        assert_eq!(tx.len(), 10);
        // Enabling cellular lets the pump continue there.
        assert!(s.apply_mask(PathMask::ALL));
        let tx2 = s.pump(SimTime::ZERO);
        assert!(tx2.iter().all(|t| t.path == PathId::CELLULAR));
    }

    #[test]
    fn ack_advances_window_and_frees_space() {
        let mut s = two_path_sender();
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(100 * MSS);
        let tx = s.pump(SimTime::ZERO);
        let sent: u64 = tx.iter().map(|t| t.len).sum();
        // Ack everything sent on wifi.
        let now = SimTime::from_millis(50);
        let retx = s.on_ack(now, PathId::WIFI, sent);
        assert!(retx.is_empty());
        assert_eq!(s.subflow(PathId::WIFI).in_flight(), 0);
        // Slow start doubled the window.
        assert!(s.subflow(PathId::WIFI).cwnd() >= 20 * MSS);
        let tx2 = s.pump(now);
        assert!(tx2.len() >= 20);
    }

    #[test]
    fn rtt_estimation_from_acks() {
        let mut s = two_path_sender();
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(MSS);
        s.pump(SimTime::ZERO);
        s.on_ack(SimTime::from_millis(50), PathId::WIFI, MSS);
        let srtt = s.subflow(PathId::WIFI).srtt().unwrap();
        assert_eq!(srtt, SimDuration::from_millis(50));
        assert_eq!(s.subflow(PathId::WIFI).rto, SimDuration::from_millis(200));
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut s = two_path_sender();
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(10 * MSS);
        let tx = s.pump(SimTime::ZERO);
        assert_eq!(tx.len(), 10);
        // First packet lost: receiver acks 0 repeatedly as later packets
        // arrive. First ack with ack=MSS? No: cumulative ack stays 0...
        // Receiver acks rcv_nxt; with seg 0 lost it stays at 0.
        let now = SimTime::from_millis(60);
        assert!(s.on_ack(now, PathId::WIFI, 0).is_empty());
        assert!(s.on_ack(now, PathId::WIFI, 0).is_empty());
        let retx = s.on_ack(now, PathId::WIFI, 0);
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].seq, 0);
        assert!(retx[0].retx);
        // Window halved from 10 MSS in flight.
        assert_eq!(s.subflow(PathId::WIFI).cwnd(), 5 * MSS);
        // Further dupacks do not re-trigger.
        assert!(s.on_ack(now, PathId::WIFI, 0).is_empty());
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut s = two_path_sender();
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(10 * MSS);
        s.pump(SimTime::ZERO);
        let now = SimTime::from_millis(60);
        // Lose segments 0 and 3: dupacks for seg 0.
        s.on_ack(now, PathId::WIFI, 0);
        s.on_ack(now, PathId::WIFI, 0);
        let r1 = s.on_ack(now, PathId::WIFI, 0);
        assert_eq!(r1[0].seq, 0);
        // Retransmit of 0 arrives; receiver now has 0..3 contiguous (3 was
        // lost), acks 3*MSS — a partial ack: NewReno retransmits seg 3.
        let r2 = s.on_ack(SimTime::from_millis(120), PathId::WIFI, 3 * MSS);
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].seq, 3 * MSS);
        // Full ack exits recovery.
        let r3 = s.on_ack(SimTime::from_millis(180), PathId::WIFI, 10 * MSS);
        assert!(r3.is_empty());
        assert!(s.all_acked());
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut s = two_path_sender();
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(4 * MSS);
        s.pump(SimTime::ZERO);
        let deadline = s.rto_deadline(PathId::WIFI).unwrap();
        assert_eq!(deadline, SimTime::ZERO + RTO_INITIAL);
        // Stale fire (before deadline) does nothing.
        assert!(s
            .on_rto_fire(SimTime::from_millis(500), PathId::WIFI)
            .is_empty());
        // Real fire retransmits the head; the sibling is masked out
        // (WiFi-only), so no reinjection happens — the mask is the user's
        // preference and rescue traffic must honour it too.
        let ts = s.on_rto_fire(deadline, PathId::WIFI);
        assert_eq!(ts.len(), 1);
        let t = ts[0];
        assert_eq!(t.seq, 0);
        assert!(t.retx);
        assert_eq!(s.subflow(PathId::WIFI).cwnd(), MSS);
        assert_eq!(s.subflow(PathId::WIFI).rto, RTO_INITIAL * 2);
        // Timer re-armed with the backed-off value.
        assert_eq!(
            s.rto_deadline(PathId::WIFI).unwrap(),
            deadline + RTO_INITIAL * 2
        );
    }

    #[test]
    fn rto_reinjects_on_a_live_sibling() {
        let mut s = two_path_sender();
        // Both paths enabled; data lands on WiFi first (primary).
        s.push_app_data(MSS);
        let tx = s.pump(SimTime::ZERO);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].path, PathId::WIFI);
        let deadline = s.rto_deadline(PathId::WIFI).unwrap();
        let ts = s.on_rto_fire(deadline, PathId::WIFI);
        assert_eq!(ts.len(), 2, "retransmit + reinjection");
        assert_eq!(ts[0].path, PathId::WIFI);
        assert_eq!(ts[1].path, PathId::CELLULAR);
        assert_eq!(ts[1].dss, ts[0].dss, "same connection-level bytes");
        assert!(ts[1].retx);
        // Second RTO: the head was already reinjected, no duplicate.
        let deadline2 = s.rto_deadline(PathId::WIFI).unwrap();
        let ts2 = s.on_rto_fire(deadline2, PathId::WIFI);
        assert_eq!(ts2.len(), 1, "no re-reinjection of the same segment");
        // An ack on cellular (the reinjection arriving) completes the
        // stream even though WiFi never recovers.
        s.on_ack(
            deadline2 + SimDuration::from_millis(30),
            PathId::CELLULAR,
            MSS,
        );
        assert_eq!(s.subflow(PathId::CELLULAR).in_flight(), 0);
    }

    #[test]
    fn persistent_rto_failure_abandons_the_subflow() {
        let mut s = two_path_sender();
        s.push_app_data(4 * MSS);
        // Force everything onto WiFi by masking, then unmask so the
        // reinjections have somewhere to go.
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.pump(SimTime::ZERO);
        s.apply_mask(PathMask::ALL);
        let mut now = SimTime::ZERO;
        let mut failed = false;
        for _ in 0..10 {
            let Some(d) = s.rto_deadline(PathId::WIFI) else {
                failed = true;
                break;
            };
            now = d;
            s.on_rto_fire(now, PathId::WIFI);
            if s.subflow(PathId::WIFI).failed {
                failed = true;
                break;
            }
        }
        assert!(failed, "subflow must eventually be declared failed");
        assert_eq!(
            s.subflow(PathId::WIFI).in_flight(),
            0,
            "failed subflow holds no data"
        );
        // All four segments' DSS ranges now live on cellular.
        assert!(s.subflow(PathId::CELLULAR).in_flight() >= 4 * MSS);
        // The scheduler no longer assigns new data to the failed path.
        s.push_app_data(MSS);
        let tx = s.pump(now);
        assert!(tx.iter().all(|t| t.path == PathId::CELLULAR));
    }

    /// Drive the WiFi subflow to a declared failure via consecutive
    /// RTOs; returns the instant of the failure declaration. Pushes one
    /// MSS of fresh data pinned to WiFi so the timer is armed.
    fn fail_wifi(s: &mut Sender, start: SimTime) -> SimTime {
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(MSS);
        assert!(!s.pump(start).is_empty(), "data must land on wifi");
        s.apply_mask(PathMask::ALL);
        for _ in 0..20 {
            let Some(d) = s.rto_deadline(PathId::WIFI) else {
                break;
            };
            s.on_rto_fire(d, PathId::WIFI);
            if s.subflow(PathId::WIFI).failed {
                return d;
            }
        }
        panic!("wifi subflow never failed");
    }

    #[test]
    fn revival_backoff_doubles_across_failures_and_resets_on_progress() {
        let mut s = two_path_sender();
        let t1 = fail_wifi(&mut s, SimTime::ZERO);
        assert_eq!(s.subflow(PathId::WIFI).failures(), 1);
        assert_eq!(
            s.subflow(PathId::WIFI).revival_backoff,
            REVIVAL_COOLDOWN * 2,
            "first failure doubles the cooldown"
        );
        // Still failed right at the cooldown boundary (strictly-greater).
        s.pump(t1 + REVIVAL_COOLDOWN * 2);
        assert!(s.subflow(PathId::WIFI).failed);
        // Past it: revived.
        let revive_at = t1 + REVIVAL_COOLDOWN * 2 + SimDuration::from_millis(1);
        s.pump(revive_at);
        assert!(!s.subflow(PathId::WIFI).failed);
        assert_eq!(s.subflow(PathId::WIFI).revivals(), 1);

        // Second failure doubles again (no ack progress in between).
        let ready1 = s.subflow(PathId::WIFI).established_at;
        let t2 = fail_wifi(&mut s, ready1);
        assert_eq!(s.subflow(PathId::WIFI).failures(), 2);
        assert_eq!(
            s.subflow(PathId::WIFI).revival_backoff,
            REVIVAL_COOLDOWN * 4
        );

        // Revive and make real forward progress: the backoff resets.
        let revive2 = t2 + REVIVAL_COOLDOWN * 4 + SimDuration::from_millis(1);
        s.pump(revive2);
        assert_eq!(s.subflow(PathId::WIFI).revivals(), 2);
        let ready = s.subflow(PathId::WIFI).established_at;
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(MSS);
        let tx = s.pump(ready);
        assert_eq!(tx.len(), 1);
        s.on_ack(
            ready + SimDuration::from_millis(20),
            PathId::WIFI,
            tx[0].seq + tx[0].len,
        );
        assert_eq!(
            s.subflow(PathId::WIFI).revival_backoff,
            REVIVAL_COOLDOWN,
            "ack progress resets the revival backoff"
        );
    }

    #[test]
    fn revival_is_a_full_reestablishment() {
        let mut s = two_path_sender();
        // Grow state first: acked data gives WiFi an RTT estimate and an
        // opened window.
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(10 * MSS);
        s.pump(SimTime::ZERO);
        s.on_ack(SimTime::from_millis(50), PathId::WIFI, 10 * MSS);
        assert!(s.subflow(PathId::WIFI).cwnd() >= 20 * MSS);
        assert_eq!(
            s.subflow(PathId::WIFI).srtt(),
            Some(SimDuration::from_millis(50))
        );

        let t_fail = fail_wifi(&mut s, SimTime::from_millis(60));
        let revive_at =
            t_fail + s.subflow(PathId::WIFI).revival_backoff + SimDuration::from_millis(1);
        s.pump(revive_at);

        let sf = s.subflow(PathId::WIFI);
        assert!(!sf.failed);
        assert_eq!(sf.revivals(), 1);
        assert!(
            sf.srtt().is_none(),
            "re-established subflow forgets its RTT"
        );
        assert_eq!(sf.cwnd(), 10 * MSS, "fresh initial congestion window");
        // Handshake cost: one (pre-reset) smoothed RTT.
        assert_eq!(sf.established_at, revive_at + SimDuration::from_millis(50));

        // New data waits for the handshake to complete.
        let ready = sf.established_at;
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(MSS);
        assert!(s.pump(revive_at).is_empty(), "no new data mid-handshake");
        let tx = s.pump(ready);
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].path, PathId::WIFI);
    }

    #[test]
    fn karns_algorithm_skips_retransmitted_samples() {
        let mut s = two_path_sender();
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(MSS);
        s.pump(SimTime::ZERO);
        let deadline = s.rto_deadline(PathId::WIFI).unwrap();
        assert!(!s.on_rto_fire(deadline, PathId::WIFI).is_empty());
        // Ack arrives long after: no RTT sample because the segment was
        // retransmitted (ambiguous).
        s.on_ack(deadline + SimDuration::from_millis(70), PathId::WIFI, MSS);
        assert!(s.subflow(PathId::WIFI).srtt().is_none());
    }

    #[test]
    fn round_robin_alternates_paths() {
        let mut s = Sender::new(2, SchedulerSpec::RoundRobin, CcKind::Reno);
        s.push_app_data(4 * MSS);
        let tx = s.pump(SimTime::ZERO);
        let paths: Vec<PathId> = tx.iter().map(|t| t.path).collect();
        assert_eq!(paths, vec![PathId(0), PathId(1), PathId(0), PathId(1)]);
    }

    #[test]
    fn tail_segment_smaller_than_mss() {
        let mut s = two_path_sender();
        s.push_app_data(MSS + 100);
        let tx = s.pump(SimTime::ZERO);
        assert_eq!(tx.len(), 2);
        assert_eq!(tx[0].len, MSS);
        assert_eq!(tx[1].len, 100);
    }

    #[test]
    fn flush_unsent_drops_only_the_unassigned_tail() {
        let mut s = two_path_sender();
        s.apply_mask(PathMask::only(PathId::WIFI));
        // 10 MSS fit the initial window; the rest stays queued.
        s.push_app_data(25 * MSS);
        let tx = s.pump(SimTime::ZERO);
        assert_eq!(tx.len(), 10);
        let flushed = s.flush_unsent();
        assert_eq!(flushed, 15 * MSS);
        assert_eq!(s.conn_total(), 10 * MSS);
        assert_eq!(s.conn_assigned, 10 * MSS);
        // Nothing more to pump; in-flight data is unaffected.
        assert!(s.pump(SimTime::ZERO).is_empty());
        assert_eq!(s.subflow(PathId::WIFI).in_flight(), 10 * MSS);
        // Acking the committed bytes completes the connection.
        s.on_ack(SimTime::from_millis(50), PathId::WIFI, 10 * MSS);
        assert!(s.all_acked());
        // New data continues at the flush point, same DSS space.
        s.push_app_data(MSS);
        let tx2 = s.pump(SimTime::from_millis(50));
        assert_eq!(tx2[0].dss, 10 * MSS, "stream continues at the cut");
    }

    #[test]
    fn flush_unsent_with_nothing_queued_is_a_noop() {
        let mut s = two_path_sender();
        assert_eq!(s.flush_unsent(), 0);
        s.push_app_data(MSS);
        s.pump(SimTime::ZERO);
        assert_eq!(s.flush_unsent(), 0, "fully assigned stream has no tail");
    }

    #[test]
    fn an_acked_window_gives_its_segment_slots_back() {
        use mpdash_link::{Link, LinkConfig, SendOutcome};
        // A fast path behind an 8 MB drop-tail queue: slow start runs
        // until the queue inflates the RTT, hundreds of segments wide.
        let mut link = Link::new(
            LinkConfig::constant(1_000.0, SimDuration::from_millis(10))
                .with_queue_capacity(8 << 20),
        );
        let ack_delay = SimDuration::from_millis(10);
        let mut s = two_path_sender();
        s.apply_mask(PathMask::only(PathId::WIFI));
        s.push_app_data(20_000 * MSS);
        // ACKs in flight, as (arrival, cumulative ack): the link is FIFO
        // and lossless, so they come back in order.
        let mut acks = VecDeque::new();
        let (mut now, mut widest) = (SimTime::ZERO, 0);
        loop {
            for t in s.pump(now) {
                let SendOutcome::Delivered { at } = link.send(now, t.len) else {
                    panic!("the deep queue dropped a segment");
                };
                acks.push_back((at + ack_delay, t.seq + t.len));
            }
            widest = widest.max(s.subflow(PathId::WIFI).segs.len());
            let Some((at, ack)) = acks.pop_front() else {
                break;
            };
            now = at;
            assert!(s.on_ack(now, PathId::WIFI, ack).is_empty());
        }
        assert!(s.all_acked());
        assert!(widest >= 256, "the window never swelled: {widest} segments");
        let slots = s.subflow(PathId::WIFI).segs.capacity();
        assert!(slots <= 16, "{slots} segment slots kept after the last ACK");
    }

    #[test]
    fn all_acked_tracks_completion() {
        let mut s = two_path_sender();
        assert!(s.all_acked(), "empty connection is trivially complete");
        s.push_app_data(MSS);
        assert!(!s.all_acked());
        s.pump(SimTime::ZERO);
        assert!(!s.all_acked());
        s.on_ack(SimTime::from_millis(10), PathId::WIFI, MSS);
        assert!(s.all_acked());
    }
}
