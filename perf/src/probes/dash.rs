//! `mpdash_dash`: one ABR decision per algorithm. Predicted to move
//! nothing end to end (150 decisions a session); listed so that is
//! measured, not assumed.

use super::Probes;
use mpdash_dash::abr::{AbrInput, AbrKind};
use mpdash_dash::video::Video;
use mpdash_sim::{Rate, SimDuration};
use std::hint::black_box;

pub fn probes(p: &mut Probes) {
    let video = Video::big_buck_bunny();
    for (name, kind) in [
        ("dash.abr_select_gpac_ns", AbrKind::Gpac),
        ("dash.abr_select_festive_ns", AbrKind::Festive),
        ("dash.abr_select_bba_ns", AbrKind::Bba),
        ("dash.abr_select_mpc_ns", AbrKind::Mpc),
    ] {
        let mut abr = kind.build(&video);
        let mut i = 0u64;
        let mut last_level = None;
        p.ns(name, || {
            // Buffer and throughput sweep their ranges, so every rung
            // of the ladder gets chosen.
            i += 1;
            let input = AbrInput {
                buffer: SimDuration::from_millis(i * 700 % 40_000),
                buffer_capacity: SimDuration::from_secs(40),
                last_level,
                last_chunk_throughput: Some(Rate::from_kbps(500 + i * 37 % 4_000)),
                override_throughput: None,
            };
            last_level = Some(black_box(abr.select(&video, &input)));
        });
    }
}
