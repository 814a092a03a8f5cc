//! [`FaultWindow`], [`FaultTimeline`] and [`FaultEdges`]: a scripted
//! fault at any layer.
//!
//! A link (`mpdash-link`) and an origin (`mpdash-http`) script their
//! failures the same way, and only the kinds differ: a window `{at,
//! duration, kind}` on a timeline kept sorted by start, stable in
//! insertion order, so the timeline — and every RNG stream keyed by a
//! window's index — is a pure function of its construction sequence.
//! Windows may overlap; the empty timeline is a healthy link or origin.

use crate::{SimDuration, SimTime};

/// What a fault kind adds to its window past `duration`: a
/// disassociation's reassociation, say. Most kinds add nothing.
pub trait FaultTail {
    /// How long the fault keeps acting after `duration` elapses.
    fn tail(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

/// One scheduled fault: `kind` acts on `[at, end())`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultWindow<K> {
    /// When the fault begins.
    pub at: SimTime,
    /// How long the fault condition itself lasts.
    pub duration: SimDuration,
    /// What the fault does.
    pub kind: K,
}

impl<K: FaultTail> FaultWindow<K> {
    /// The instant the fault stops acting, its kind's tail included.
    pub fn end(&self) -> SimTime {
        self.at + self.duration + self.kind.tail()
    }

    /// Whether the fault acts at `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.at && t < self.end()
    }
}

/// Fault windows ordered by start, stable in insertion order.
#[derive(Clone, PartialEq, Debug)]
pub struct FaultTimeline<K> {
    windows: Vec<FaultWindow<K>>,
}

impl<K> Default for FaultTimeline<K> {
    fn default() -> Self {
        FaultTimeline {
            windows: Vec::new(),
        }
    }
}

/// Appending keeps the order: a window lands after every window that
/// starts no later than it does.
impl<K> Extend<FaultWindow<K>> for FaultTimeline<K> {
    fn extend<I: IntoIterator<Item = FaultWindow<K>>>(&mut self, windows: I) {
        self.windows.extend(windows);
        self.windows.sort_by_key(|w| w.at);
    }
}

impl<K: FaultTail> FaultTimeline<K> {
    /// The ordered windows.
    pub fn windows(&self) -> &[FaultWindow<K>] {
        &self.windows
    }

    /// Whether no fault is scripted.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The windows acting at `t`, in timeline order.
    pub fn active_at(&self, t: SimTime) -> impl Iterator<Item = &FaultWindow<K>> {
        self.windows.iter().filter(move |w| w.active_at(t))
    }
}

/// Where [`FaultEdges`] last saw a window.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Seen {
    Pending,
    Active,
    Cleared,
}

/// The one edge tracker: reports each window of a timeline activating
/// and clearing once each, as observed at the instants it is shown.
/// Observe-only: what it reports feeds no model decision.
#[derive(Clone, Debug, Default)]
pub struct FaultEdges {
    seen: Vec<Seen>,
}

impl FaultEdges {
    /// Call `edge(window, activated)` for each window of `timeline`, in
    /// timeline order, that `now` moves on: `true` the first time it is
    /// seen active, `false` the first time after that it is seen past
    /// its end. A window that opens and closes between two instants is
    /// never reported. `now` must not decrease between calls.
    pub fn observe<K: FaultTail>(
        &mut self,
        timeline: &FaultTimeline<K>,
        now: SimTime,
        mut edge: impl FnMut(&FaultWindow<K>, bool),
    ) {
        self.seen.resize(timeline.windows.len(), Seen::Pending);
        for (w, seen) in timeline.windows.iter().zip(&mut self.seen) {
            *seen = match *seen {
                Seen::Pending if w.active_at(now) => Seen::Active,
                Seen::Active if now >= w.end() => Seen::Cleared,
                _ => continue,
            };
            edge(w, *seen == Seen::Active);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Debug)]
    struct Tailed(u64);

    impl FaultTail for Tailed {
        fn tail(&self) -> SimDuration {
            SimDuration::from_secs(self.0)
        }
    }

    fn window(at: u64, secs: u64, tail: u64) -> FaultWindow<Tailed> {
        FaultWindow {
            at: SimTime::from_secs(at),
            duration: SimDuration::from_secs(secs),
            kind: Tailed(tail),
        }
    }

    #[test]
    fn a_timeline_sorts_stably_and_a_tail_extends_the_window() {
        let mut t = FaultTimeline::default();
        t.extend([window(30, 5, 2), window(10, 5, 0)]);
        t.extend([window(10, 1, 9)]);
        let tails: Vec<u64> = t.windows().iter().map(|w| w.kind.0).collect();
        assert_eq!(tails, [0, 9, 2], "ties keep insertion order");
        let active = |s| t.active_at(SimTime::from_secs(s)).count();
        assert_eq!((active(36), active(37)), (1, 0), "the tail is [35, 37)");
        assert_eq!(active(15), 1, "[10, 15) is half-open; [10, 20) is not over");
    }

    #[test]
    fn each_edge_is_reported_once_in_timeline_order() {
        let mut t = FaultTimeline::default();
        t.extend([window(10, 10, 0), window(12, 2, 0), window(50, 1, 0)]);
        let mut edges = FaultEdges::default();
        let mut seen = Vec::new();
        for s in [0, 11, 13, 13, 30, 60] {
            edges.observe(&t, SimTime::from_secs(s), |w, on| {
                seen.push((s, w.at.as_secs_f64() as u64, on))
            });
        }
        // The third window opens and closes between 30 s and 60 s.
        assert_eq!(
            seen,
            [
                (11, 10, true),
                (13, 12, true),
                (30, 10, false),
                (30, 12, false)
            ]
        );
    }
}
