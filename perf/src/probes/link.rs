//! `mpdash_link`: a private `Link` per packet, and one
//! offer → next_departure → pop_departure cycle of a `SharedBottleneck`
//! under each discipline, over a standing queue.

use super::Probes;
use mpdash_link::{
    AqmConfig, FaultScript, GilbertElliott, Link, LinkConfig, QueueDiscipline, SharedBottleneck,
    SharedBottleneckConfig,
};
use mpdash_sim::{SimDuration, SimTime};
use mpdash_trace::synth::SynthSpec;
use std::hint::black_box;

const PKT: u64 = 1500;

/// One packet every 4.5 ms into a 3.8 Mbps link: ~70% utilisation, so
/// the queue breathes but never overflows.
fn send_probe(p: &mut Probes, name: &'static str, cfg: LinkConfig) {
    let mut link = Link::new(cfg);
    let mut now = SimTime::ZERO;
    p.ns(name, || {
        black_box(link.send(now, PKT));
        now += SimDuration::from_micros(4_500);
    });
}

fn cycle_probe(p: &mut Probes, name: &'static str, discipline: QueueDiscipline, flows: usize) {
    let bn = SharedBottleneck::new(
        SharedBottleneckConfig::fifo_mbps(100.0)
            .with_discipline(discipline)
            .with_capacity(1 << 20),
    );
    let ids: Vec<_> = (0..flows).map(|_| bn.subscribe()).collect();
    let mut now = SimTime::ZERO;
    // A standing queue of at least 32 packets, every flow backlogged.
    for &flow in ids.iter().cycle().take(flows.max(32)) {
        bn.offer(now, flow, PKT);
    }
    let mut i = 0usize;
    p.ns(name, || {
        i += 1;
        black_box(bn.offer(now, ids[i % flows], PKT));
        if let Some(at) = bn.next_departure() {
            black_box(bn.pop_departure());
            now = at;
        }
        black_box(bn.take_aqm_drops());
    });
}

pub fn probes(p: &mut Probes) {
    let delay = SimDuration::from_millis(25);
    send_probe(p, "link.send_const_ns", LinkConfig::constant(3.8, delay));
    send_probe(
        p,
        "link.send_profiled_ns",
        LinkConfig::constant(3.8, delay).with_profile(SynthSpec::new(3.8, 0.3, 7).profile()),
    );
    let always = SimDuration::from_secs(u32::MAX as u64);
    send_probe(
        p,
        "link.send_faulted_ns",
        LinkConfig::constant(3.8, delay).with_faults(
            FaultScript::new()
                .burst_loss(SimTime::ZERO, always, GilbertElliott::new(0.01, 0.3, 0.5))
                .rtt_spike(
                    SimTime::ZERO,
                    always,
                    SimDuration::from_millis(40),
                    SimDuration::from_millis(10),
                ),
        ),
    );

    let pie = AqmConfig::pie().with_ecn(true);
    for (name, discipline, flows) in [
        ("link.shared_cycle_fifo_ns", QueueDiscipline::Fifo, 8),
        (
            "link.shared_cycle_fq_ns",
            QueueDiscipline::FlowQueue { quantum: 1540 },
            8,
        ),
        ("link.shared_cycle_pie_ns", QueueDiscipline::Pie(pie), 8),
        (
            "link.shared_cycle_fq_pie_ns",
            QueueDiscipline::FqPie {
                quantum: 1540,
                aqm: pie,
            },
            8,
        ),
        (
            "link.shared_cycle_codel_ns",
            QueueDiscipline::Codel(AqmConfig::codel()),
            8,
        ),
        (
            "link.shared_cycle_fq_f64_ns",
            QueueDiscipline::FlowQueue { quantum: 1540 },
            64,
        ),
    ] {
        cycle_probe(p, name, discipline, flows);
    }

    let bn = SharedBottleneck::new(SharedBottleneckConfig::fifo_mbps(100.0));
    let flow = bn.subscribe();
    for _ in 0..32 {
        bn.offer(SimTime::ZERO, flow, PKT);
    }
    p.ns("link.shared_next_departure_ns", || {
        black_box(black_box(&bn).next_departure());
    });
}
