//! DASH rate-adaptation algorithms.
//!
//! The paper evaluates two categories (§5.2) plus one hybrid (§5.2.3):
//!
//! | kind | category | selection signal |
//! |---|---|---|
//! | [`AbrKind::Gpac`] | throughput | last chunk's download throughput |
//! | [`AbrKind::Festive`] | throughput | harmonic mean + gradual/stable switching |
//! | [`AbrKind::Bba`] | buffer | buffer-occupancy chunk map (BBA-2) |
//! | [`AbrKind::BbaC`] | buffer | BBA capped at measured throughput (§5.2.2) |
//! | [`AbrKind::Mpc`] | hybrid | model-predictive horizon optimization |
//!
//! [`Abr`] holds one algorithm's state, one variant per implementation,
//! and each decides from an [`AbrInput`] snapshot. The MP-DASH throughput
//! override (§5.2.1) is visible here as `AbrInput::override_throughput`:
//! when the video adapter supplies it, throughput-based algorithms use it
//! *instead of* their own application-level measurement, giving the
//! player a view of the aggregate multipath capacity even while the
//! scheduler has the cellular path disabled.

mod bba;
mod festive;
mod gpac;
mod mpc;

pub use bba::{Bba, BbaMap};
pub use festive::Festive;
pub use gpac::Gpac;
pub use mpc::Mpc;

use crate::video::Video;
use mpdash_sim::{Rate, SimDuration};

/// Which algorithm (constructor shorthand + display name).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AbrKind {
    /// GPAC's built-in last-chunk-throughput picker.
    Gpac,
    /// FESTIVE (Jiang et al., CoNEXT '12).
    Festive,
    /// Buffer-Based Adaptation, BBA-2 (Huang et al., SIGCOMM '14).
    Bba,
    /// BBA-C: the paper's cellular-friendly BBA (§5.2.2).
    BbaC,
    /// Model-predictive control (Yin et al., SIGCOMM '15) — the hybrid the
    /// paper sketches in §5.2.3; implemented here as an extension.
    Mpc,
}

impl AbrKind {
    /// Algorithm category, which decides how the MP-DASH adapter
    /// integrates (Φ/Ω policies differ per §5.2.1 vs §5.2.2).
    pub fn category(self) -> AbrCategory {
        match self {
            AbrKind::Gpac | AbrKind::Festive => AbrCategory::ThroughputBased,
            AbrKind::Bba | AbrKind::BbaC => AbrCategory::BufferBased,
            AbrKind::Mpc => AbrCategory::Hybrid,
        }
    }

    /// Instantiate the algorithm for `video`.
    pub fn build(self, video: &Video) -> Abr {
        match self {
            AbrKind::Gpac => Abr::Gpac(Gpac::new()),
            AbrKind::Festive => Abr::Festive(Festive::new()),
            AbrKind::Bba => Abr::Bba(Bba::new(video, false)),
            AbrKind::BbaC => Abr::Bba(Bba::new(video, true)),
            AbrKind::Mpc => Abr::Mpc(Mpc::new()),
        }
    }

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            AbrKind::Gpac => "GPAC",
            AbrKind::Festive => "FESTIVE",
            AbrKind::Bba => "BBA",
            AbrKind::BbaC => "BBA-C",
            AbrKind::Mpc => "MPC",
        }
    }
}

/// Category of rate adaptation, governing adapter integration (§5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbrCategory {
    /// Estimates future throughput from past chunk downloads.
    ThroughputBased,
    /// Maps buffer occupancy to quality.
    BufferBased,
    /// Uses both (MPC).
    Hybrid,
}

/// Everything an algorithm may look at when choosing the next chunk's
/// level.
#[derive(Clone, Copy, Debug)]
pub struct AbrInput {
    /// Current buffer occupancy.
    pub buffer: SimDuration,
    /// Buffer capacity.
    pub buffer_capacity: SimDuration,
    /// Level of the previously fetched chunk, if any.
    pub last_level: Option<usize>,
    /// Application-level throughput of the last chunk download
    /// (`size / download time`), if any chunk has completed.
    pub last_chunk_throughput: Option<Rate>,
    /// The MP-DASH aggregate-throughput override (§5.2.1); `None` when
    /// running without MP-DASH.
    pub override_throughput: Option<Rate>,
}

impl AbrInput {
    /// The throughput signal an algorithm should use: the MP-DASH
    /// override when present, the app-level measurement otherwise.
    pub(crate) fn throughput_signal(&self) -> Option<Rate> {
        self.override_throughput.or(self.last_chunk_throughput)
    }
}

/// A DASH rate-adaptation algorithm's state, built by [`AbrKind::build`]
/// (BBA and BBA-C share one variant).
#[derive(Clone, Debug)]
pub enum Abr {
    /// [`AbrKind::Gpac`].
    Gpac(Gpac),
    /// [`AbrKind::Festive`].
    Festive(Festive),
    /// [`AbrKind::Bba`] or [`AbrKind::BbaC`].
    Bba(Bba),
    /// [`AbrKind::Mpc`].
    Mpc(Mpc),
}

impl Abr {
    /// Choose the quality level for the next chunk.
    pub fn select(&mut self, video: &Video, input: &AbrInput) -> usize {
        match self {
            Abr::Gpac(a) => a.select(video, input),
            Abr::Festive(a) => a.select(video, input),
            Abr::Bba(a) => a.select(video, input),
            Abr::Mpc(a) => a.select(video, input),
        }
    }

    /// For buffer-based algorithms: the buffer-occupancy range
    /// `[e_l, e_h)` mapped to `level`, used by the adapter's Ω rule
    /// (§5.2.2). `None` for algorithms without a chunk map.
    pub fn level_buffer_range(&self, level: usize) -> Option<(SimDuration, SimDuration)> {
        match self {
            Abr::Bba(a) => a.level_buffer_range(level),
            Abr::Gpac(_) | Abr::Festive(_) | Abr::Mpc(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories() {
        assert_eq!(AbrKind::Gpac.category(), AbrCategory::ThroughputBased);
        assert_eq!(AbrKind::Festive.category(), AbrCategory::ThroughputBased);
        assert_eq!(AbrKind::Bba.category(), AbrCategory::BufferBased);
        assert_eq!(AbrKind::BbaC.category(), AbrCategory::BufferBased);
        assert_eq!(AbrKind::Mpc.category(), AbrCategory::Hybrid);
    }

    #[test]
    fn override_takes_precedence() {
        let input = AbrInput {
            buffer: SimDuration::from_secs(10),
            buffer_capacity: SimDuration::from_secs(40),
            last_level: Some(2),
            last_chunk_throughput: Some(Rate::from_mbps(2)),
            override_throughput: Some(Rate::from_mbps(7)),
        };
        assert_eq!(input.throughput_signal(), Some(Rate::from_mbps(7)));
    }

    #[test]
    fn builders_produce_matching_kinds() {
        let v = Video::big_buck_bunny();
        for k in [
            AbrKind::Gpac,
            AbrKind::Festive,
            AbrKind::Bba,
            AbrKind::BbaC,
            AbrKind::Mpc,
        ] {
            let built = matches!(
                (k, k.build(&v)),
                (AbrKind::Gpac, Abr::Gpac(_))
                    | (AbrKind::Festive, Abr::Festive(_))
                    | (AbrKind::Bba | AbrKind::BbaC, Abr::Bba(_))
                    | (AbrKind::Mpc, Abr::Mpc(_))
            );
            assert!(built, "{k:?}");
            assert!(!k.name().is_empty());
        }
    }
}
