//! `mpdash_mptcp`: one scheduler pick, one sender
//! push → pump → ack cycle, one receiver `on_data`, and a whole 5 MB
//! two-path transfer through `MptcpSim`.

use super::Probes;
use crate::alloc;
use mpdash_link::{LinkConfig, PathId};
use mpdash_mptcp::receiver::Receiver;
use mpdash_mptcp::scheduler::{Candidate, SchedInput, Scheduler};
use mpdash_mptcp::sender::Sender;
use mpdash_mptcp::{CcKind, MptcpConfig, MptcpSim, SchedulerSpec, MSS};
use mpdash_sim::{SimDuration, SimTime};
use std::hint::black_box;

/// A realistic two-path decision: both paths measured, WiFi behind a
/// half-full shared queue (the same pair `bench_sched` timed).
fn candidates() -> [Candidate; 2] {
    [
        Candidate {
            path: PathId::WIFI,
            srtt: Some(SimDuration::from_millis(25)),
            cwnd: 10 * MSS,
            in_flight: 2 * MSS,
            queue_depth: Some(48 * 1024),
        },
        Candidate {
            path: PathId::CELLULAR,
            srtt: Some(SimDuration::from_micros(27_500)),
            cwnd: 10 * MSS,
            in_flight: MSS,
            queue_depth: Some(4 * 1024),
        },
    ]
}

/// The receiver keeps every packet record; start over before the trace
/// of a long trial grows past a session's worth.
const RECEIVER_RESET: u64 = 1 << 18;

fn receiver_probe(p: &mut Probes, name: &'static str, reorder: bool) {
    let mut rx = Receiver::new(2);
    let mut n = 0u64;
    p.ns(name, || {
        if n == RECEIVER_RESET {
            rx = Receiver::new(2);
            n = 0;
        }
        // In order, segments alternate between the paths. Reordered,
        // each pair arrives swapped on one path, so every first arrival
        // opens a gap in both sequence spaces and the second closes it.
        let (path, seg, dss) = if reorder {
            (0, n ^ 1, n ^ 1)
        } else {
            (n % 2, n / 2, n)
        };
        black_box(rx.on_data(
            SimTime::from_micros(n),
            PathId(path as u8),
            seg * MSS,
            MSS,
            dss * MSS,
            false,
            false,
        ));
        n += 1;
    });
}

fn transfer() -> MptcpSim {
    let wifi = LinkConfig::constant(3.8, SimDuration::from_millis(25));
    let cell = LinkConfig::constant(3.0, SimDuration::from_micros(27_500));
    let mut sim = MptcpSim::new(MptcpConfig::two_path(wifi, cell));
    sim.send_app(5_000_000);
    while sim.delivered() < 5_000_000 {
        sim.step().expect("transfer must complete");
    }
    sim
}

pub fn probes(p: &mut Probes) {
    for (name, spec) in [
        ("mptcp.sched_pick_minrtt_ns", SchedulerSpec::MinRtt),
        ("mptcp.sched_pick_rr_ns", SchedulerSpec::RoundRobin),
        ("mptcp.sched_pick_qaware_ns", SchedulerSpec::QAware),
    ] {
        let cands = candidates();
        let mut sched = spec.build();
        p.ns(name, || {
            let input = SchedInput {
                candidates: black_box(&cands),
                backlog: MSS,
            };
            black_box(sched.pick(&input));
        });
    }

    // One segment queued, pumped onto a path, and acknowledged an RTT on.
    let mut sender = Sender::new(2, SchedulerSpec::MinRtt, CcKind::Reno);
    let mut now = SimTime::ZERO;
    p.ns("mptcp.sender_cycle_ns", || {
        sender.push_app_data(MSS);
        now += SimDuration::from_millis(1);
        let sent = sender.pump(now);
        now += SimDuration::from_millis(25);
        for tx in &sent {
            black_box(sender.on_ack(now, tx.path, tx.seq + tx.len));
        }
    });

    receiver_probe(p, "mptcp.receiver_on_data_ns", false);
    receiver_probe(p, "mptcp.receiver_on_data_reorder_ns", true);

    let mark = alloc::count_from_here();
    let sim = transfer();
    let allocs = alloc::counted_since(mark);
    let packets = sim.records().len() as f64;
    p.put(
        "mptcp.transfer_events_per_pkt",
        sim.events_popped() as f64 / packets,
    );
    p.put("mptcp.transfer_allocs_per_pkt", allocs as f64 / packets);
    let per_transfer = p.ns_per_call(|| {
        black_box(transfer().now());
    });
    p.put("mptcp.transfer_ns_per_pkt", per_transfer / packets);
}
