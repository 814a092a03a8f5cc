//! [`DeadlineSignal`]: the one signal of the paper's Figure 2 — the
//! progress check that runs while a transfer is in flight.
//!
//! Every check does the same three things, whichever driver asks: feed
//! the packets received since the last check into the per-path
//! throughput estimators, tell the control plane which paths still have
//! data outstanding, and re-run Algorithm 1 on the bytes delivered so
//! far. The answer, when it changed, is the new enabled set as a
//! [`PathMask`], which the caller hands to the transport as it is
//! ([`MptcpSim::set_desired_mask`]).
//!
//! The driver hands over each arrival as its step reports it
//! ([`MptcpSim::arrival`]), and the signal holds it until the next
//! check. Feeding the estimators at the arrival instead is not the same
//! thing: a chunk's decision (`mp_dash_enable`) re-anchors their samplers
//! between the chunk's last packet and the next check.

use mpdash_core::MpDashControl;
use mpdash_mptcp::{MptcpSim, PktRecord};
use mpdash_sim::{GiveBackSlack, PathId, PathMask, SimTime};

/// The MP-DASH control plane plus the arrivals it has not seen yet.
pub struct DeadlineSignal {
    /// `MP_DASH_ENABLE`/`DISABLE`, the per-path estimates and the
    /// scheduler statistics.
    pub control: MpDashControl,
    /// Arrivals since the last check, oldest first. A check follows an
    /// arrival only when it delivers in order (the stream moved on), and
    /// otherwise the next 50 ms tick of a chunk in flight. After a loss,
    /// every arrival past the hole waits here until the retransmission
    /// fills it or the tick comes, so this can hold most of a window;
    /// with no chunk in flight, nothing checks until the next one starts.
    /// A check drains it and gives the slack back.
    arrived: Vec<PktRecord>,
    /// Per-path revival counters as of the last check; an increase means
    /// the subflow was re-established and the path's throughput history
    /// must be reset.
    seen_revivals: Vec<u64>,
}

impl DeadlineSignal {
    /// Wrap a control plane for a connection that has delivered nothing
    /// yet.
    pub fn new(control: MpDashControl) -> Self {
        let seen_revivals = vec![0; control.n_paths()];
        DeadlineSignal {
            control,
            arrived: Vec::new(),
            seen_revivals,
        }
    }

    /// One data packet arrived; the next check feeds it to the
    /// estimators.
    pub fn on_arrival(&mut self, r: PktRecord) {
        self.arrived.push(r);
    }

    /// One progress check at `now` with `received` bytes of the transfer
    /// delivered. Returns the new enabled set if Algorithm 1 changed it.
    pub fn on_progress(&mut self, sim: &MptcpSim, now: SimTime, received: u64) -> Option<PathMask> {
        for r in self.arrived.drain(..) {
            self.control.on_bytes(r.path.index(), r.t, r.len);
        }
        self.arrived.give_back_slack();
        let mut busy = PathMask::NONE;
        for (i, seen) in self.seen_revivals.iter_mut().enumerate() {
            let path = PathId(i as u8);
            // A revived subflow came back as a *new* association: drop
            // the old association's throughput history before the next
            // decision, so Algorithm 1 starts from the prior instead of a
            // pre-fault (or blackout-dragged) estimate.
            let revivals = sim.subflow_revivals(path);
            if revivals > *seen {
                *seen = revivals;
                self.control.on_path_reset(i, now);
            }
            if sim.path_in_flight(path) > 0 {
                busy = busy.with(path);
            }
        }
        self.control.on_progress(now, received, busy)
    }
}
