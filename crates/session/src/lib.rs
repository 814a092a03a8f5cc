//! End-to-end experiment driver: wires the simulated links, the MPTCP
//! model, HTTP, the DASH player, the MP-DASH control plane, and the
//! energy model into runnable sessions.
//!
//! Two session types cover the paper's evaluation:
//!
//! * [`StreamingSession`] — a full DASH playback (§7.3): ABR choice per
//!   chunk, MP-DASH adapter deciding activation + deadline, the
//!   deadline-aware scheduler toggling the cellular subflow, QoE and
//!   energy accounting.
//! * [`FileTransfer`] — the single-file deadline download of §7.2
//!   (Figure 4): one blob, one deadline, scheduler on or off.
//!
//! Both produce reports carrying everything the benchmark harness needs
//! to regenerate the paper's tables and figures.

mod accounting;
pub mod batch;
pub mod config;
mod fetch;
pub mod file_transfer;
mod record;
pub mod report;
pub mod signal;
pub mod streaming;

pub use batch::{run_batch, BatchResult, Job, JobError};
pub use config::{PathPreference, SessionConfig, TransportMode};
pub use file_transfer::{FileTransfer, FileTransferConfig, FileTransferReport};
pub use mpdash_analysis::ChunkRecord;
pub use mpdash_core::SchedulerStats;
pub use mpdash_http::{
    BreakerState, CacheStats, LifecyclePolicy, OriginPool, OriginPoolConfig, OriginSpec,
    RetryPolicy, ServerFaultScript, SharedSegmentCache,
};
pub use mpdash_obs::{MetricsSnapshot, NdjsonSink, RingSink, TraceEvent, Tracer};
pub use report::{DegradationMetrics, LifecycleStats, OriginStats, SessionReport, SimProfile};
pub use signal::DeadlineSignal;
pub use streaming::StreamingSession;
