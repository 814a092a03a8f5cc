//! The DASH substrate: video model, player engine, rate-adaptation
//! algorithms, and the MP-DASH video adapter (§5 of the paper).
//!
//! * [`video`] — representations, chunk sizing (VBR), and the four-video
//!   dataset of Table 3 (Big Buck Bunny, Red Bull Playstreets, Tears of
//!   Steel, and its HD variant).
//! * [`player`] — the client buffer/playback engine: startup, steady
//!   state, stalls, quality switches, and the QoE ledger.
//! * [`abr`] — rate adaptation: GPAC (last-chunk throughput), FESTIVE
//!   (harmonic-mean + gradual/stable switching), BBA-2 (buffer-based),
//!   BBA-C (the paper's cellular-friendly cap, §5.2.2), and MPC (the
//!   hybrid the paper defers to future work, §5.2.3).
//! * [`adapter`] — the MP-DASH video adapter: deadline computation
//!   (duration- vs rate-based, §5.1), deadline extension above Φ,
//!   low-buffer disable below Ω (§5.2.1–5.2.2), and the
//!   aggregate-throughput override for throughput-based algorithms.
//! * [`qoe`] — session-level QoE summary (stalls, mean bitrate, switch
//!   count, per-level histogram).
//! * [`manifest`] — the MPD model, including the per-segment sizes the
//!   paper advocates making mandatory (§5.1), with XML round-tripping.

//!
//! ```
//! use mpdash_dash::abr::{AbrInput, AbrKind};
//! use mpdash_dash::video::Video;
//! use mpdash_sim::{Rate, SimDuration};
//!
//! let video = Video::big_buck_bunny();
//! let mut abr = AbrKind::Gpac.build(&video);
//! let level = abr.select(&video, &AbrInput {
//!     buffer: SimDuration::from_secs(20),
//!     buffer_capacity: SimDuration::from_secs(40),
//!     last_level: Some(2),
//!     last_chunk_throughput: Some(Rate::from_mbps_f64(2.0)),
//!     // The MP-DASH override: the player sees the aggregate capacity.
//!     override_throughput: Some(Rate::from_mbps_f64(6.8)),
//! });
//! assert_eq!(level, 4, "the override unlocks the top level");
//! ```

pub mod abr;
pub mod adapter;
pub mod manifest;
pub mod player;
pub mod qoe;
pub mod video;

pub use abr::{Abr, AbrCategory, AbrInput, AbrKind};
pub use adapter::{AdapterConfig, DeadlineDecision, DeadlineMode, VideoAdapter};
pub use manifest::{Manifest, Representation};
pub use player::{Player, PlayerConfig, PlayerEvent, PlayerState};
pub use qoe::{QoeScore, QoeSummary};
pub use video::Video;
