//! Deterministic discrete-event simulation core for the MP-DASH workspace.
//!
//! Every other crate in this repository builds on three things defined here:
//!
//! * **Virtual time** — [`SimTime`] and [`SimDuration`], nanosecond-precision
//!   newtypes over `u64`. Nothing in the simulation ever consults the wall
//!   clock, which is what makes a whole streaming session bit-reproducible
//!   from a seed (the paper's energy methodology — replaying one captured
//!   trace through several device power models — depends on exactly this
//!   property, see §7.1 of the paper).
//! * **An event queue** — [`EventQueue`], a priority queue ordered by
//!   `(time, insertion sequence)` so that simultaneous events pop in a
//!   deterministic order.
//! * **Rates and series** — [`Rate`] converts between bandwidth, bytes and
//!   transmission time without floating-point drift in the hot path, and
//!   [`Series`] records `(time, value)` samples for the figures the
//!   benchmark harness regenerates.
//!
//! It also names the paths every layer talks about: [`PathId`] and the
//! enabled set [`PathMask`], from Algorithm 1's decision to the transport's
//! DSS bit, a stretch of the connection's byte stream, [`DssRange`], and
//! a scripted fault at any layer, [`FaultWindow`] on a [`FaultTimeline`].
//!
//! The design intentionally avoids an async runtime: per the smoltcp-style
//! guidance for event-driven network code, a single-threaded poll loop over
//! virtual time is simpler, faster for simulation, and fully deterministic.
//!
//! ```
//! use mpdash_sim::{EventQueue, Rate, SimDuration, SimTime};
//!
//! // A tiny deterministic event loop.
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(30), "ack");
//! q.schedule(SimTime::from_millis(10), "data");
//! assert_eq!(q.pop(), Some((SimTime::from_millis(10), "data")));
//! assert_eq!(q.now(), SimTime::from_millis(10));
//!
//! // Exact rate arithmetic: 1500 bytes at 12 Mbps serialize in 1 ms.
//! let r = Rate::from_mbps(12);
//! assert_eq!(r.time_to_send(1500), SimDuration::from_millis(1));
//! assert_eq!(r.bytes_in(SimDuration::from_secs(1)), 1_500_000);
//! ```

pub mod dss;
pub mod fault;
pub mod par;
pub mod path;
pub mod queue;
pub mod rate;
pub mod rng;
pub mod series;
pub mod slack;
pub mod time;

pub use dss::DssRange;
pub use fault::{FaultEdges, FaultTail, FaultTimeline, FaultWindow};
pub use par::par_map;
pub use path::{PathId, PathMask};
pub use queue::EventQueue;
pub use rate::Rate;
pub use rng::{derive_seed, Prng};
pub use series::Series;
pub use slack::GiveBackSlack;
pub use time::{SimDuration, SimTime};
