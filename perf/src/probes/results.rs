//! `mpdash_results` and `mpdash_trace`: what set-up and report writing
//! pay — rendering and parsing a fleet summary, generating one profile.

use super::Probes;
use crate::workloads::contended;
use mpdash_mptcp::SchedulerSpec;
use mpdash_results::Json;
use mpdash_trace::synth::SynthSpec;
use std::hint::black_box;

pub fn probes(p: &mut Probes) {
    let summary = mpdash_fleet::run(&contended(4, SchedulerSpec::MinRtt, 1, 20)).summary_json();
    let ns = p.ns_per_call(|| {
        black_box(black_box(&summary).to_pretty());
    });
    p.put("results.json_render_us", ns / 1e3);
    let text = summary.to_pretty();
    let ns = p.ns_per_call(|| {
        black_box(Json::parse(black_box(&text)).expect("round trip"));
    });
    p.put("results.json_parse_us", ns / 1e3);

    let mut seed = 0u64;
    let ns = p.ns_per_call(|| {
        seed += 1;
        black_box(SynthSpec::new(3.8, 0.3, seed).profile());
    });
    p.put("trace.synth_profile_ms", ns / 1e6);
}
