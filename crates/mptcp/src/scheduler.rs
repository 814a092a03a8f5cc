//! MPTCP packet schedulers behind a pluggable [`Scheduler`] trait.
//!
//! The scheduler answers one question per packet: *which subflow carries
//! the next segment?* Candidates are subflows that (a) have
//! congestion-window space and (b) are enabled in the current MP-DASH path
//! mask — the mask filtering is exactly how the paper implements "disable
//! the cellular subflow": skip it in the scheduling function (§6).
//!
//! Configuration layers carry a [`SchedulerSpec`] — a `Copy`, comparable
//! enum that serializes into scenario JSON — and the connection builds its
//! runtime [`Scheduler`] state from it once, via [`SchedulerSpec::build`].
//! Three schedulers ship today:
//!
//! * [`MinRttScheduler`] — the MPTCP default the paper overlays (§2.1):
//!   among subflows with window space, the smallest smoothed RTT wins.
//! * [`RoundRobinScheduler`] — the paper's second stock scheduler.
//!   Rotation keys off the last-picked [`PathId`], not a position cursor,
//!   so a candidate set that shrinks and regrows (cwnd-full or masked
//!   subflows) cannot skew the rotation.
//! * [`QAwareScheduler`] — a cross-layer variant after "QAware: A
//!   Cross-Layer Approach to MPTCP Scheduling": the SRTT ranking is
//!   weighted by the occupancy of the path's shared bottleneck queue, so
//!   traffic detours around congestion *before* the RTT estimator has
//!   caught up. With no shared queue attached it degenerates to exact
//!   minRTT ordering.
//!
//! Adding a scheduler is a local change: implement [`Scheduler`] on a
//! state struct, add a [`SchedulerSpec`] variant, and wire the two
//! together in [`SchedulerSpec::build`] and [`SchedulerSpec::label`]. Every
//! config layer above (session, scenario JSON, experiment grids) picks it
//! up through the spec.

use mpdash_link::PathId;
use mpdash_sim::SimDuration;

/// Which packet scheduler the connection uses — the `Copy`, serializable
/// spec carried through every configuration layer. Runtime state lives in
/// the [`Scheduler`] implementation [`SchedulerSpec::build`] returns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedulerSpec {
    /// The MPTCP default: among subflows with window space, pick the one
    /// with the smallest smoothed RTT estimate.
    MinRtt,
    /// Round-robin across subflows with window space.
    RoundRobin,
    /// Queue-occupancy-weighted minRTT (QAware-style, cross-layer).
    QAware,
}

impl SchedulerSpec {
    /// Every scheduler, in a stable order (grids iterate this).
    pub const ALL: [SchedulerSpec; 3] = [
        SchedulerSpec::MinRtt,
        SchedulerSpec::RoundRobin,
        SchedulerSpec::QAware,
    ];

    /// Snake-case wire name, as written in scenario JSON.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerSpec::MinRtt => "min_rtt",
            SchedulerSpec::RoundRobin => "round_robin",
            SchedulerSpec::QAware => "qaware",
        }
    }

    /// Whether picks read [`Candidate::queue_depth`]. Sampling it costs a
    /// bottleneck lock per path, which the simulator skips otherwise.
    pub(crate) fn reads_queue_depth(self) -> bool {
        self == SchedulerSpec::QAware
    }

    /// Build the runtime scheduler state this spec names.
    pub fn build(self) -> SchedulerImpl {
        match self {
            SchedulerSpec::MinRtt => SchedulerImpl::MinRtt(MinRttScheduler),
            SchedulerSpec::RoundRobin => SchedulerImpl::RoundRobin(RoundRobinScheduler::new()),
            SchedulerSpec::QAware => SchedulerImpl::QAware(QAwareScheduler::new()),
        }
    }
}

/// Per-subflow facts the scheduler decides on.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The subflow's path.
    pub path: PathId,
    /// Smoothed RTT, `None` before the first sample.
    pub srtt: Option<SimDuration>,
    /// Congestion window in bytes.
    pub cwnd: u64,
    /// Unacknowledged bytes outstanding on this subflow.
    pub in_flight: u64,
    /// Bytes currently occupying the path's shared bottleneck queue,
    /// when the path is attached to one (`None` on private links).
    pub queue_depth: Option<u64>,
}

/// One scheduling decision's inputs: the eligible subflows plus the
/// connection-level send backlog (bytes queued but not yet assigned).
#[derive(Clone, Copy, Debug)]
pub struct SchedInput<'a> {
    /// Subflows with window space under the current mask, in path order.
    pub candidates: &'a [Candidate],
    /// Pending send backlog in bytes (this decision assigns its head).
    pub backlog: u64,
}

/// A connection-level packet scheduler. One instance lives on the sender
/// for the lifetime of the connection and owns whatever rotation/EWMA
/// state its policy needs; [`Scheduler::pick`] is called once per segment.
pub trait Scheduler {
    /// Pick the subflow for the next segment, or `None` if no candidate.
    fn pick(&mut self, input: &SchedInput<'_>) -> Option<PathId>;

    /// The spec this scheduler was built from (display, serialization).
    fn spec(&self) -> SchedulerSpec;
}

/// Stateless lowest-SRTT scheduler (the MPTCP default).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinRttScheduler;

/// Unmeasured subflows sort after measured ones (the kernel keeps data on
/// established low-RTT paths until others have estimates); ties break on
/// path index, which makes the primary (lowest index, WiFi by
/// convention) win at start-up.
#[inline]
fn min_rtt_pick(candidates: &[Candidate]) -> Option<PathId> {
    candidates
        .iter()
        .min_by_key(|c| (c.srtt.unwrap_or(SimDuration::MAX), c.path))
        .map(|c| c.path)
}

impl Scheduler for MinRttScheduler {
    #[inline]
    fn pick(&mut self, input: &SchedInput<'_>) -> Option<PathId> {
        min_rtt_pick(input.candidates)
    }

    fn spec(&self) -> SchedulerSpec {
        SchedulerSpec::MinRtt
    }
}

/// Round-robin keyed off the last-picked path.
///
/// The seed implementation rotated a position cursor (`cursor % len`)
/// over the candidate slice; because the slice reshuffles whenever a
/// window fills or the mask toggles, the cursor re-mapped to arbitrary
/// paths and rotation skewed (the same path could be picked twice in a
/// row with another candidate available). Keying off the last-picked
/// [`PathId`] makes rotation a property of paths, not slice positions.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobinScheduler {
    last: Option<PathId>,
}

impl RoundRobinScheduler {
    /// A fresh rotation (first pick goes to the lowest-indexed candidate).
    pub(crate) fn new() -> Self {
        RoundRobinScheduler::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    #[inline]
    fn pick(&mut self, input: &SchedInput<'_>) -> Option<PathId> {
        let c = input.candidates;
        if c.is_empty() {
            return None;
        }
        // Lowest path strictly after the last pick, wrapping around.
        let next = self
            .last
            .and_then(|last| c.iter().map(|x| x.path).filter(|&p| p > last).min())
            .unwrap_or_else(|| c.iter().map(|x| x.path).min().expect("non-empty"));
        self.last = Some(next);
        Some(next)
    }

    fn spec(&self) -> SchedulerSpec {
        SchedulerSpec::RoundRobin
    }
}

/// Reference queue depth for the QAware weighting: one 64 KiB
/// queue-capacity's worth of backlog doubles a path's effective RTT.
const QAWARE_REF_BYTES: u64 = 64 * 1024;

/// Queue-occupancy-weighted minRTT.
///
/// Each candidate is ranked by `srtt * (REF + ewma_depth) / REF`: a path
/// whose shared bottleneck holds `REF` = 64 KiB of backlog looks
/// twice as slow as its SRTT claims. The EWMA (gain ½ per decision)
/// smooths the instantaneous occupancy so a single in-service packet
/// does not flap the ranking. Paths with no shared queue contribute
/// depth 0, so without any attachment the ordering — including the
/// unmeasured-SRTT and path-index tie-breaks — is exactly
/// [`MinRttScheduler`]'s.
#[derive(Clone, Debug, Default)]
pub struct QAwareScheduler {
    /// Per-path smoothed queue depth, indexed by `PathId::index()`.
    ewma_depth: Vec<u64>,
}

impl QAwareScheduler {
    /// A fresh scheduler with all depth estimates at zero.
    pub(crate) fn new() -> Self {
        QAwareScheduler::default()
    }

    fn smoothed(&mut self, path: PathId, depth: u64) -> u64 {
        let i = path.index();
        if self.ewma_depth.len() <= i {
            self.ewma_depth.resize(i + 1, 0);
        }
        // EWMA with gain ½, rounding up so a persistent depth of 1 byte
        // cannot get stuck at zero.
        let next = (self.ewma_depth[i] + depth).div_ceil(2);
        self.ewma_depth[i] = next;
        next
    }
}

impl Scheduler for QAwareScheduler {
    #[inline]
    fn pick(&mut self, input: &SchedInput<'_>) -> Option<PathId> {
        input
            .candidates
            .iter()
            .map(|c| {
                let depth = self.smoothed(c.path, c.queue_depth.unwrap_or(0));
                let srtt = c.srtt.map(|s| s.as_nanos()).unwrap_or(u64::MAX);
                // u128 keeps `MAX * (REF + depth)` from overflowing, and
                // the unmeasured sentinel still sorts after every
                // measured path regardless of depth.
                let score = srtt as u128 * (QAWARE_REF_BYTES + depth) as u128;
                (score, c.path)
            })
            .min()
            .map(|(_, path)| path)
    }

    fn spec(&self) -> SchedulerSpec {
        SchedulerSpec::QAware
    }
}

/// Runtime scheduler state, enum-dispatched so the per-segment pick stays
/// inlineable on the hot path while every variant (and the enum itself)
/// implements [`Scheduler`].
#[derive(Clone, Debug)]
pub enum SchedulerImpl {
    /// See [`MinRttScheduler`].
    MinRtt(MinRttScheduler),
    /// See [`RoundRobinScheduler`].
    RoundRobin(RoundRobinScheduler),
    /// See [`QAwareScheduler`].
    QAware(QAwareScheduler),
}

impl Scheduler for SchedulerImpl {
    #[inline]
    fn pick(&mut self, input: &SchedInput<'_>) -> Option<PathId> {
        match self {
            SchedulerImpl::MinRtt(s) => s.pick(input),
            SchedulerImpl::RoundRobin(s) => s.pick(input),
            SchedulerImpl::QAware(s) => s.pick(input),
        }
    }

    fn spec(&self) -> SchedulerSpec {
        match self {
            SchedulerImpl::MinRtt(s) => s.spec(),
            SchedulerImpl::RoundRobin(s) => s.spec(),
            SchedulerImpl::QAware(s) => s.spec(),
        }
    }
}

/// The seed enum dispatcher, kept verbatim as the equivalence reference
/// the property tests in `tests/scheduler_equiv.rs` pin the trait port
/// against. `rr_cursor` is the seed's position-cursor rotation state
/// (including its skew bug — that is the point of a reference). Panics
/// on [`SchedulerSpec::QAware`], which postdates the seed.
#[doc(hidden)]
#[inline]
pub fn seed_pick(
    kind: SchedulerSpec,
    rr_cursor: &mut usize,
    candidates: &[Candidate],
) -> Option<PathId> {
    if candidates.is_empty() {
        return None;
    }
    match kind {
        SchedulerSpec::MinRtt => min_rtt_pick(candidates),
        SchedulerSpec::RoundRobin => {
            let idx = *rr_cursor % candidates.len();
            *rr_cursor = rr_cursor.wrapping_add(1);
            Some(candidates[idx].path)
        }
        SchedulerSpec::QAware => panic!("the seed enum had no QAware scheduler"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(path: u8, srtt_ms: Option<u64>) -> Candidate {
        cand_q(path, srtt_ms, None)
    }

    fn cand_q(path: u8, srtt_ms: Option<u64>, queue_depth: Option<u64>) -> Candidate {
        Candidate {
            path: PathId(path),
            srtt: srtt_ms.map(SimDuration::from_millis),
            cwnd: 10 * crate::packet::MSS,
            in_flight: 0,
            queue_depth,
        }
    }

    fn pick_with(sched: &mut impl Scheduler, candidates: &[Candidate]) -> Option<PathId> {
        sched.pick(&SchedInput {
            candidates,
            backlog: crate::packet::MSS,
        })
    }

    #[test]
    fn min_rtt_picks_fastest() {
        let mut s = SchedulerSpec::MinRtt.build();
        let picked = pick_with(&mut s, &[cand(0, Some(50)), cand(1, Some(30))]);
        assert_eq!(picked, Some(PathId(1)));
    }

    #[test]
    fn min_rtt_prefers_measured_over_unmeasured() {
        let mut s = SchedulerSpec::MinRtt.build();
        let picked = pick_with(&mut s, &[cand(0, None), cand(1, Some(500))]);
        assert_eq!(picked, Some(PathId(1)));
    }

    #[test]
    fn min_rtt_tie_breaks_on_primary() {
        let mut s = SchedulerSpec::MinRtt.build();
        let picked = pick_with(&mut s, &[cand(1, None), cand(0, None)]);
        assert_eq!(
            picked,
            Some(PathId(0)),
            "all-unmeasured falls to lowest index"
        );
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = SchedulerSpec::RoundRobin.build();
        let cands = [cand(0, Some(10)), cand(1, Some(10))];
        let seq: Vec<_> = (0..4).map(|_| pick_with(&mut s, &cands).unwrap()).collect();
        assert_eq!(seq, vec![PathId(0), PathId(1), PathId(0), PathId(1)]);
    }

    #[test]
    fn round_robin_adapts_to_shrinking_candidate_set() {
        let mut s = SchedulerSpec::RoundRobin.build();
        let both = [cand(0, Some(10)), cand(1, Some(10))];
        let one = [cand(1, Some(10))];
        pick_with(&mut s, &both);
        // WiFi's window filled: only cell remains; must still pick validly.
        assert_eq!(pick_with(&mut s, &one), Some(PathId(1)));
    }

    #[test]
    fn round_robin_rotation_survives_candidate_churn() {
        // The seed's position cursor picked the same path twice in a row
        // here (cursor skew); keying off the last-picked path must not.
        let mut s = SchedulerSpec::RoundRobin.build();
        let both = [cand(0, Some(10)), cand(1, Some(10))];
        let wifi_only = [cand(0, Some(10))];
        assert_eq!(pick_with(&mut s, &both), Some(PathId(0)));
        // Cell's window fills; two picks go to WiFi alone.
        assert_eq!(pick_with(&mut s, &wifi_only), Some(PathId(0)));
        assert_eq!(pick_with(&mut s, &wifi_only), Some(PathId(0)));
        // Cell drains and returns: rotation resumes *after* WiFi. (The
        // seed cursor, now at 3, would have re-picked WiFi: 3 % 2 == 1
        // maps to slice position 1 only by luck of ordering — after the
        // churn above it lands back on path 0.)
        assert_eq!(pick_with(&mut s, &both), Some(PathId(1)));
    }

    #[test]
    fn qaware_matches_min_rtt_without_queues() {
        // No shared queues anywhere: the weighting is srtt * REF for
        // every candidate, so ordering — ties included — is minRTT's.
        let grids: &[&[Candidate]] = &[
            &[cand(0, Some(50)), cand(1, Some(30))],
            &[cand(0, None), cand(1, Some(500))],
            &[cand(1, None), cand(0, None)],
            &[cand(0, Some(10)), cand(1, Some(10))],
        ];
        for cands in grids {
            let mut q = SchedulerSpec::QAware.build();
            let mut m = SchedulerSpec::MinRtt.build();
            assert_eq!(pick_with(&mut q, cands), pick_with(&mut m, cands));
        }
    }

    #[test]
    fn qaware_detours_off_a_deep_shared_queue() {
        // WiFi has the lower SRTT but its shared AP queue holds 128 KiB;
        // cell's queue is empty. Effective WiFi cost 20 ms * 3 = 60 ms
        // beats cell's 35 ms — QAware must detour to cell where minRTT
        // would keep piling onto the congested AP.
        let cands = [
            cand_q(0, Some(20), Some(2 * QAWARE_REF_BYTES)),
            cand_q(1, Some(35), Some(0)),
        ];
        let mut q = SchedulerSpec::QAware.build();
        let mut m = SchedulerSpec::MinRtt.build();
        assert_eq!(pick_with(&mut m, &cands), Some(PathId(0)));
        // First pick: EWMA has only half-charged (64 KiB → 2x), tie goes
        // to... 20*2 = 40 ms still above 35 ms: detour immediately.
        assert_eq!(pick_with(&mut q, &cands), Some(PathId(1)));
        // And the detour persists while the queue stays deep.
        assert_eq!(pick_with(&mut q, &cands), Some(PathId(1)));
    }

    #[test]
    fn qaware_returns_when_the_queue_drains() {
        let deep = [
            cand_q(0, Some(20), Some(4 * QAWARE_REF_BYTES)),
            cand_q(1, Some(35), Some(0)),
        ];
        let drained = [cand_q(0, Some(20), Some(0)), cand_q(1, Some(35), Some(0))];
        let mut q = SchedulerSpec::QAware.build();
        assert_eq!(pick_with(&mut q, &deep), Some(PathId(1)));
        // A few decisions after the queue empties, the EWMA decays and
        // the low-SRTT path wins again.
        let back = (0..8)
            .map(|_| pick_with(&mut q, &drained).unwrap())
            .collect::<Vec<_>>();
        assert_eq!(
            *back.last().unwrap(),
            PathId(0),
            "EWMA must decay: {back:?}"
        );
    }

    #[test]
    fn empty_candidates_yield_none() {
        for spec in SchedulerSpec::ALL {
            let mut s = spec.build();
            assert_eq!(pick_with(&mut s, &[]), None);
        }
        let mut rr = 0;
        assert_eq!(seed_pick(SchedulerSpec::MinRtt, &mut rr, &[]), None);
        assert_eq!(seed_pick(SchedulerSpec::RoundRobin, &mut rr, &[]), None);
    }

    #[test]
    fn spec_labels_round_trip() {
        let parse = |s: &str| SchedulerSpec::ALL.into_iter().find(|k| k.label() == s);
        for spec in SchedulerSpec::ALL {
            assert_eq!(parse(spec.label()), Some(spec));
            assert_eq!(spec.build().spec(), spec);
        }
        assert_eq!(parse("blecs"), None);
    }
}
