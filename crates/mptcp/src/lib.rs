//! A userspace MPTCP model — the transport substrate under MP-DASH.
//!
//! The paper implements MP-DASH as ~300 lines patched into the Linux-kernel
//! MPTCP v0.90 stack. No such kernel (or usable Rust binding) exists here,
//! so this crate rebuilds the pieces of MPTCP that MP-DASH's mechanism
//! actually touches, as a deterministic discrete-event simulation:
//!
//! * **Subflows** (`sender::SubflowTx`) — per-path TCP senders with slow
//!   start, congestion avoidance (Reno or CUBIC, *decoupled* across
//!   subflows exactly as the paper configures, §2.1), Jacobson RTT
//!   estimation, fast retransmit and RTO recovery.
//! * **Packet schedulers** ([`scheduler`]) — a pluggable [`Scheduler`]
//!   trait behind a `Copy` [`SchedulerSpec`]: the two stock MPTCP
//!   schedulers the paper evaluates (lowest-SRTT "default" and
//!   round-robin) plus a QAware-style queue-occupancy-weighted variant.
//!   MP-DASH overlays all of them by *skipping* masked-out subflows in the
//!   scheduling function rather than tearing subflows down (§6: no
//!   handshake overhead, radio stays attached).
//! * **Connection-level reassembly** ([`reassembly::IntervalSet`]) — data
//!   sequence (DSS) reordering across subflows, delivering an in-order byte
//!   stream to the application.
//! * **Signaling** — the receiver-side decision function communicates its
//!   desired path mask to the sender on ACKs, modelling the reserved DSS
//!   option bit the paper uses to keep the server stateless (§3.2).
//!
//! The whole connection, including its links, lives in [`sim::MptcpSim`], a
//! self-contained event loop the application layers (HTTP, DASH player)
//! drive step by step.
//!
//! ```
//! use mpdash_link::{LinkConfig, PathId};
//! use mpdash_mptcp::{MptcpConfig, MptcpSim, PathMask};
//! use mpdash_sim::SimDuration;
//!
//! // WiFi 3.8 Mbps + LTE 3.0 Mbps, WiFi-only by user preference.
//! let wifi = LinkConfig::constant(3.8, SimDuration::from_millis(25));
//! let cell = LinkConfig::constant(3.0, SimDuration::from_millis(30));
//! let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
//! sim.set_initial_mask(PathMask::only(PathId::WIFI));
//!
//! sim.send_app(100_000);
//! while sim.delivered() < 100_000 {
//!     sim.step().expect("transfer completes");
//! }
//! assert_eq!(sim.path_bytes(PathId::CELLULAR), 0);
//! ```

pub mod cc;
pub mod packet;
pub mod reassembly;
pub mod receiver;
pub mod scheduler;
pub mod sender;
pub mod sim;

pub use cc::CcKind;
pub use mpdash_sim::PathMask;
pub use packet::{PacketLog, PktRecord, MSS};
pub use scheduler::{Scheduler, SchedulerImpl, SchedulerSpec};
pub use sim::{MptcpConfig, MptcpSim, PoppedByKind, StepOutcome};
