//! Deficit round robin with one subscribed flow has nobody to round-robin
//! with: the flow earns quantum after quantum until its head packet fits,
//! so packets leave in arrival order, back to back — FIFO. The two
//! disciplines are held to each other departure for departure on random
//! offer schedules, packet sizes (many larger than the quantum), queue
//! capacities and quanta.

use mpdash_link::{QueueDiscipline, SharedBottleneck, SharedBottleneckConfig};
use mpdash_sim::{Rate, SimDuration, SimTime};
use proptest::prelude::*;

fn bottleneck(rate: Rate, capacity: u64, discipline: QueueDiscipline) -> SharedBottleneck {
    let b = SharedBottleneck::new(SharedBottleneckConfig {
        rate,
        capacity,
        discipline,
    });
    assert_eq!(b.subscribe(), 0);
    b
}

/// Pops every departure due by `now` from both bottlenecks, asserting the
/// two agree on when the next one is due and on each one that leaves.
fn drain_until(fifo: &SharedBottleneck, fq: &SharedBottleneck, now: SimTime) -> u64 {
    let mut popped = 0;
    loop {
        let due = fifo.next_departure();
        assert_eq!(due, fq.next_departure(), "next_departure before {now:?}");
        if due.is_none_or(|at| at > now) {
            return popped;
        }
        let (a, b) = (fifo.pop_departure(), fq.pop_departure());
        assert_eq!(a, b, "departure due at {due:?}");
        popped += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_flow_under_flow_queueing_is_fifo(
        kbps in 100u64..50_000,
        capacity in 1u64..200_000,
        quantum in 1u64..3_000,
        gaps_us in prop::collection::vec(0u64..3_000, 1..300),
        sizes in prop::collection::vec(1u64..6_000, 300..301),
    ) {
        let rate = Rate::from_kbps(kbps);
        let fifo = bottleneck(rate, capacity, QueueDiscipline::Fifo);
        let fq = bottleneck(rate, capacity, QueueDiscipline::FlowQueue { quantum });
        let mut now = SimTime::ZERO;
        let mut departed = 0;
        for (&gap, &size) in gaps_us.iter().zip(&sizes) {
            now += SimDuration::from_micros(gap);
            departed += drain_until(&fifo, &fq, now);
            prop_assert_eq!(fifo.offer(now, 0, size), fq.offer(now, 0, size), "offer at {:?}", now);
        }
        departed += drain_until(&fifo, &fq, SimTime::MAX);
        let stats = fifo.stats();
        prop_assert_eq!(&stats, &fq.stats());
        prop_assert!(stats.conserved() && stats.queued_packets == 0);
        prop_assert_eq!(stats.delivered_packets, departed);
    }
}
