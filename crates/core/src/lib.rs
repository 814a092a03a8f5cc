//! The MP-DASH deadline-aware multipath scheduler — the paper's primary
//! contribution (§4), plus the machinery around it.
//!
//! * [`predict`] — the non-seasonal Holt-Winters throughput predictor the
//!   kernel implementation uses (§6), whose β = 0 is the EWMA baseline of
//!   the ablation, and a windowed byte-counter that turns packet arrivals
//!   into rate samples.
//! * [`deadline`] — Algorithm 1: the online scheduler that drives the
//!   preferred path at full rate and toggles the costly path based on
//!   whether the preferred path alone can finish `S` bytes within the
//!   (α-shrunk) deadline window `D`.
//! * [`optimal`] — the offline formulation: the 0-1 min-knapsack over
//!   `(path, slot)` items solved exactly by dynamic programming, used as
//!   the "Cell % (Optimal)" reference of Table 2 and by property tests.
//! * [`multipath`] — the cost-varying generalization to N interfaces
//!   (§4 "Optimality"): sort paths by unit cost, enable the cheapest
//!   prefix whose estimated capacity meets the deadline.
//! * [`api`] — the socket-option-shaped control surface
//!   (`MP_DASH_ENABLE` / `MP_DASH_DISABLE`) and the aggregate-throughput
//!   query the video adapter reads (§3.2).
//!
//! The crate is transport-agnostic on purpose: paths are dense indices,
//! rates come in as [`mpdash_sim::Rate`] samples, and decisions come out
//! as per-path enable flags. `mpdash-session` binds those to the MPTCP
//! model's path mask — or, in a real deployment, to a kernel socket
//! option.

pub mod api;
pub mod deadline;
pub mod multipath;
pub mod optimal;
pub mod predict;

pub use api::{MpDashControl, SchedulerStats};
pub use deadline::{CellDecision, DeadlineScheduler, SchedulerParams};
pub use optimal::{optimal_cellular_bytes, optimal_min_cost, SlotPlan};
pub use predict::{HoltWinters, Predictor, PredictorKind, ThroughputSampler};
