//! Observability for the MP-DASH reproduction: a structured event trace
//! stamped with **virtual** time, a metrics registry, and the sinks that
//! collect both — without ever feeding back into simulation state.
//!
//! The paper's own methodology (§6) diagnoses scheduler behaviour from
//! exactly two inputs: the packet trace and the player event log. This
//! crate generalizes that into a first-class instrument:
//!
//! * [`TraceEvent`] — the cross-layer event taxonomy (scheduler toggles
//!   with their feasibility inputs, subflow transitions, DSS signals,
//!   ABR choices, deadline grants/hits/misses, fault windows, player
//!   buffer transitions).
//! * [`TraceSink`] / [`Tracer`] — the zero-overhead-when-disabled
//!   emission path. A disabled [`Tracer`] is a single `Option` branch;
//!   event construction is deferred behind a closure so the hot path
//!   pays nothing when tracing is off.
//! * [`RingSink`] / [`NdjsonSink`] — in-memory and NDJSON-file sinks.
//! * [`MetricsRegistry`] / [`MetricsSnapshot`] — named counters and
//!   log-scale histograms with deterministic (insertion) ordering,
//!   snapshotted into session reports and JSON artifacts.
//! * [`Signal`] / [`SignalRecorder`] — an observing layer's static table
//!   of signals, each written by row to the registry and the epochs.
//! * [`EpochSeries`] / [`TelemetrySpec`] — fixed virtual-time epoch
//!   rollups whose `merge` is associative and commutative to the bit,
//!   so shard-local series combine identically at any `MPDASH_WORKERS`.
//! * [`Watchdog`] / [`InvariantViolation`] — the always-cheap runtime
//!   invariant checker the fleet loop arms on every iteration (byte
//!   conservation, monotone virtual time, breaker sanity, one hedge
//!   winner per race), turning silent corruption into typed errors.
//! * [`RunEnv`] — the `MPDASH_*` environment, read once by a binary.
//!
//! Every timestamp is [`mpdash_sim::SimTime`] — virtual, not wall-clock
//! — so enabling any sink changes **zero bytes** of any artifact: the
//! simulation's decisions never depend on what observers saw.

pub mod env;
pub mod event;
pub mod metrics;
pub mod signal;
pub mod sink;
pub mod timeseries;
pub mod watchdog;

pub use env::RunEnv;
pub use event::TraceEvent;
pub use metrics::{HistogramSnapshot, LogHistogram, MetricsRegistry, MetricsSnapshot};
pub use signal::{Kind, Signal, SignalRecorder};
pub use sink::{NdjsonSink, RingSink, TraceSink, Tracer};
pub use timeseries::{EpochCell, EpochSeries, TelemetrySpec};
pub use watchdog::{ConservationCounters, InvariantViolation, Watchdog};
