//! Deterministic server-side fault injection: a scripted timeline of
//! adverse *application-layer* behaviour, mirroring the link layer's
//! [`FaultScript`](../../mpdash_link/fault/index.html) one layer up.
//!
//! PR 2's link faults exercise the transport (loss, latency, outages)
//! but a perfectly healthy pair of paths can still starve a player when
//! the *server* misbehaves: CDN edges return 5xx bursts under load,
//! origin fetches stall a response body halfway through, and overloaded
//! backends sit on a request before the first byte. A
//! [`ServerFaultScript`] layers exactly those three families over the
//! simulated HTTP server:
//!
//! * **Error burst** — every request *served* inside the window is
//!   answered with a 5xx (header-only response); the client sees
//!   [`HttpEvent::Error`](crate::HttpEvent::Error) and the request
//!   lifecycle's retry policy takes over.
//! * **Stalled body** — a response whose service starts inside the
//!   window sends its header plus `after_fraction` of the body, then
//!   nothing for `stall`; the remainder follows after the stall. This
//!   is the fault the lifecycle's stall detector and mid-download
//!   abandonment exist for.
//! * **Slow first byte** — a response whose service starts inside the
//!   window is queued only after `delay` (time-to-first-byte
//!   inflation).
//! * **Blackhole** — the origin goes completely dark: a request served
//!   inside the window gets no bytes at all until the window closes
//!   (the response is deferred to the window's end, as if the origin
//!   recovered and flushed its backlog). This is the whole-origin
//!   outage the multi-origin failover machinery exists for: a
//!   wait-forever client rides it out, a circuit-breaking client
//!   abandons and fetches the range from a healthy origin instead.
//!
//! Windows are half-open `[at, at + duration)` against the *service*
//! instant (when the request reaches the server), are kept sorted by
//! start (stable in insertion order), and contain no hidden randomness:
//! the same script and the same request arrival sequence reproduce the
//! same behaviour bit-for-bit. The seeded randomness of the lifecycle
//! layer (retry jitter) lives in
//! [`LifecyclePolicy`](crate::LifecyclePolicy) instead, on per-request
//! derived RNG streams.

use mpdash_sim::{SimDuration, SimTime};

/// One family of injected server behaviour. See the module docs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ServerFaultKind {
    /// Requests served in the window get a 5xx header-only response.
    ErrorBurst,
    /// Responses starting in the window send the header plus
    /// `after_fraction` of the body, stall for `stall`, then send the
    /// rest.
    StalledBody {
        /// How long the body hangs before the remainder is sent.
        stall: SimDuration,
        /// Fraction of the body sent before the stall, in `[0, 1)`.
        after_fraction: f64,
    },
    /// Responses starting in the window are queued only after `delay`.
    SlowFirstByte {
        /// Time-to-first-byte inflation.
        delay: SimDuration,
    },
    /// The origin answers nothing until the window closes: responses
    /// starting inside it are deferred to the window's end.
    Blackhole,
}

impl ServerFaultKind {
    /// Stable snake_case name, used by trace events and the `explain`
    /// timeline.
    pub fn name(&self) -> &'static str {
        match self {
            ServerFaultKind::ErrorBurst => "error_burst",
            ServerFaultKind::StalledBody { .. } => "stalled_body",
            ServerFaultKind::SlowFirstByte { .. } => "slow_first_byte",
            ServerFaultKind::Blackhole => "blackhole",
        }
    }
}

/// One scheduled server fault: a kind active on `[at, at + duration)`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ServerFaultEvent {
    /// When the fault window opens.
    pub at: SimTime,
    /// Window length (service instants inside it are affected).
    pub duration: SimDuration,
    /// What the fault does.
    pub kind: ServerFaultKind,
}

impl ServerFaultEvent {
    /// The instant the window closes.
    pub fn end(&self) -> SimTime {
        self.at + self.duration
    }

    /// Whether a request served at `t` falls inside the window.
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.at && t < self.end()
    }
}

/// A deterministic timeline of server-side fault events.
///
/// Events may overlap and compose: a slow first byte delays the start
/// of a response whose body then stalls. An error burst takes
/// precedence over both (the 5xx is generated before any body exists).
/// Every origin carries one ([`OriginSpec::with_faults`](crate::OriginSpec::with_faults));
/// attach the origins to a connection with
/// [`HttpLayer::with_origins`](crate::HttpLayer::with_origins).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ServerFaultScript {
    events: Vec<ServerFaultEvent>,
}

impl ServerFaultScript {
    /// An empty script (a healthy server).
    pub fn new() -> Self {
        ServerFaultScript::default()
    }

    /// Add an arbitrary event, keeping the timeline ordered (stable for
    /// simultaneous events, so the timeline is a pure function of the
    /// construction sequence).
    pub fn with_event(mut self, event: ServerFaultEvent) -> Self {
        self.events.push(event);
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Add a 5xx error-burst window.
    pub fn error_burst(self, at: SimTime, duration: SimDuration) -> Self {
        self.with_event(ServerFaultEvent {
            at,
            duration,
            kind: ServerFaultKind::ErrorBurst,
        })
    }

    /// Add a stalled-body window: responses starting inside it send the
    /// header plus `after_fraction` of the body, hang for `stall`, then
    /// send the remainder.
    ///
    /// # Panics
    /// If `after_fraction` is outside `[0, 1)` — a fraction of 1 would
    /// be a healthy response.
    pub fn stalled_body(
        self,
        at: SimTime,
        duration: SimDuration,
        stall: SimDuration,
        after_fraction: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&after_fraction),
            "after_fraction must be in [0,1)"
        );
        self.with_event(ServerFaultEvent {
            at,
            duration,
            kind: ServerFaultKind::StalledBody {
                stall,
                after_fraction,
            },
        })
    }

    /// Add a slow-first-byte window deferring response starts by
    /// `delay`.
    pub fn slow_first_byte(self, at: SimTime, duration: SimDuration, delay: SimDuration) -> Self {
        self.with_event(ServerFaultEvent {
            at,
            duration,
            kind: ServerFaultKind::SlowFirstByte { delay },
        })
    }

    /// Add a blackhole window: requests served inside it get no bytes
    /// until the window closes.
    pub fn blackhole(self, at: SimTime, duration: SimDuration) -> Self {
        self.with_event(ServerFaultEvent {
            at,
            duration,
            kind: ServerFaultKind::Blackhole,
        })
    }

    /// The ordered event timeline.
    pub fn events(&self) -> &[ServerFaultEvent] {
        &self.events
    }

    /// Whether the script has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether a request served at `t` gets a 5xx.
    pub fn error_at(&self, t: SimTime) -> bool {
        self.events
            .iter()
            .any(|e| e.kind == ServerFaultKind::ErrorBurst && e.active_at(t))
    }

    /// Total time-to-first-byte inflation for a response starting at
    /// `t`: active slow-first-byte delays sum, and an active blackhole
    /// contributes the remainder of its window (no byte leaves the
    /// origin before the outage clears).
    pub fn first_byte_delay_at(&self, t: SimTime) -> SimDuration {
        self.events
            .iter()
            .filter(|e| e.active_at(t))
            .filter_map(|e| match e.kind {
                ServerFaultKind::SlowFirstByte { delay } => Some(delay),
                ServerFaultKind::Blackhole => Some(e.end().saturating_since(t)),
                _ => None,
            })
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    }

    /// The stalled-body parameters applying to a response starting at
    /// `t` (first active window wins; overlapping stalls do not
    /// compose).
    pub fn stall_at(&self, t: SimTime) -> Option<(SimDuration, f64)> {
        self.events.iter().find_map(|e| match e.kind {
            ServerFaultKind::StalledBody {
                stall,
                after_fraction,
            } if e.active_at(t) => Some((stall, after_fraction)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_orders_events_and_reports_windows() {
        let s = ServerFaultScript::new()
            .stalled_body(
                SimTime::from_secs(30),
                SimDuration::from_secs(2),
                SimDuration::from_secs(8),
                0.5,
            )
            .error_burst(SimTime::from_secs(10), SimDuration::from_secs(5));
        assert_eq!(s.events()[0].at, SimTime::from_secs(10));
        assert_eq!(s.events()[1].at, SimTime::from_secs(30));
        assert!(s.error_at(SimTime::from_secs(12)));
        assert!(!s.error_at(SimTime::from_secs(15)), "window is half-open");
        assert_eq!(
            s.stall_at(SimTime::from_secs(31)),
            Some((SimDuration::from_secs(8), 0.5))
        );
        assert_eq!(s.stall_at(SimTime::from_secs(33)), None);
    }

    #[test]
    fn slow_first_byte_delays_sum_when_overlapping() {
        let s = ServerFaultScript::new()
            .slow_first_byte(
                SimTime::ZERO,
                SimDuration::from_secs(10),
                SimDuration::from_millis(500),
            )
            .slow_first_byte(
                SimTime::from_secs(5),
                SimDuration::from_secs(10),
                SimDuration::from_millis(250),
            );
        assert_eq!(
            s.first_byte_delay_at(SimTime::from_secs(7)),
            SimDuration::from_millis(750)
        );
        assert_eq!(
            s.first_byte_delay_at(SimTime::from_secs(12)),
            SimDuration::from_millis(250)
        );
        assert_eq!(
            s.first_byte_delay_at(SimTime::from_secs(20)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "after_fraction")]
    fn full_fraction_stall_rejected() {
        let _ = ServerFaultScript::new().stalled_body(
            SimTime::ZERO,
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            1.0,
        );
    }

    #[test]
    fn blackhole_defers_to_the_window_end() {
        let s = ServerFaultScript::new()
            .blackhole(SimTime::from_secs(10), SimDuration::from_secs(20))
            .slow_first_byte(
                SimTime::from_secs(10),
                SimDuration::from_secs(20),
                SimDuration::from_secs(1),
            );
        // Mid-window: the remainder of the outage plus the overlapping
        // slow-first-byte delay.
        assert_eq!(
            s.first_byte_delay_at(SimTime::from_secs(18)),
            SimDuration::from_secs(12 + 1)
        );
        // Outside the window the origin is healthy again.
        assert_eq!(
            s.first_byte_delay_at(SimTime::from_secs(30)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(ServerFaultKind::ErrorBurst.name(), "error_burst");
        assert_eq!(
            ServerFaultKind::StalledBody {
                stall: SimDuration::ZERO,
                after_fraction: 0.0
            }
            .name(),
            "stalled_body"
        );
        assert_eq!(
            ServerFaultKind::SlowFirstByte {
                delay: SimDuration::ZERO
            }
            .name(),
            "slow_first_byte"
        );
        assert_eq!(ServerFaultKind::Blackhole.name(), "blackhole");
    }
}
