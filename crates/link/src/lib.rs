//! Simulated network paths for the MP-DASH testbed.
//!
//! The paper's testbed is a real 802.11n access point plus a commercial LTE
//! dongle, shaped with Dummynet (§7.1). This crate is the simulation
//! substitute: a [`Link`] models one unidirectional path with a
//! time-varying service rate (driven by a [`BandwidthProfile`]), a fixed
//! propagation delay, a finite drop-tail queue, optional random loss, and an
//! optional [`TokenBucket`] throttle (the Dummynet stand-in used by the
//! cellular-throttling comparison, Table 4 of the paper).
//!
//! Links are passive: they do not own the event loop. The transport calls
//! [`Link::send`] with the current simulation time and gets back either the
//! future delivery instant (to be scheduled on the caller's
//! [`mpdash_sim::EventQueue`]) or a drop verdict.
//!
//! ```
//! use mpdash_link::{Link, LinkConfig, SendOutcome};
//! use mpdash_sim::{SimDuration, SimTime};
//!
//! // A 12 Mbps link with 25 ms one-way delay.
//! let mut link = Link::new(LinkConfig::constant(12.0, SimDuration::from_millis(25)));
//! match link.send(SimTime::ZERO, 1500) {
//!     SendOutcome::Delivered { at } => {
//!         // 1 ms serialization + 25 ms propagation.
//!         assert_eq!(at, SimTime::from_millis(26));
//!     }
//!     SendOutcome::Dropped(reason) => panic!("clean link dropped: {reason:?}"),
//! }
//! ```

pub mod aqm;
pub mod fault;
pub mod link;
pub mod profile;
pub mod shaper;
pub mod shared;

pub use aqm::{AqmConfig, AqmVerdict, Codel, Pie};
pub use fault::{FaultEvent, FaultKind, FaultScript, GeChain, GilbertElliott};
pub use link::{DropReason, Link, LinkConfig, SendOutcome};
pub use mpdash_sim::PathId;
pub use profile::BandwidthProfile;
pub use shaper::TokenBucket;
pub use shared::{
    Departure, FlowId, FlowStats, QueueDiscipline, SharedBottleneck, SharedBottleneckConfig,
    SharedDrop, SharedOutcome, SharedStats, Ticket, DRR_QUANTUM,
};
