//! Every [`TraceEvent`] variant's NDJSON line, pinned byte for byte.
//!
//! The shipped scenarios' pinned streams (the `origins.json` ring, the
//! fault-edge lines, the faults grid's subflow transitions) never write
//! some kinds — `deadline_missed`, `request_retried`, `shared_queue_wait`,
//! `session_departed`, `session_shed`, `hedge`, `hedge_loser_settled` —
//! so each variant's encoding is held here: one sample each, plus the
//! second state of each `Option` field, every line compared with the
//! literal the encoder wrote when the encoding was last changed on
//! purpose.

use mpdash_obs::TraceEvent;
use mpdash_sim::SimTime;
use std::collections::BTreeSet;

/// One sample per variant, in declaration order, then the other state
/// of each `Option` field, each beside its compact line at 68.25 s.
fn pins() -> Vec<(TraceEvent, &'static str)> {
    use TraceEvent::*;
    vec![
        (
            SchedulerToggle {
                cell_enabled: true,
                wifi_estimate_mbps: 3.5,
                received: 120_000,
                size: 1_970_000,
                window_s: 3.2,
                elapsed_s: 0.75,
            },
            r#"{"t_s":68.25,"kind":"scheduler_toggle","cell_enabled":true,"wifi_estimate_mbps":3.5,"received":120000,"size":1970000,"window_s":3.2,"elapsed_s":0.75}"#,
        ),
        (
            SubflowFailed { path: 0 },
            r#"{"t_s":68.25,"kind":"subflow_failed","path":0}"#,
        ),
        (
            SubflowRevived { path: 1 },
            r#"{"t_s":68.25,"kind":"subflow_revived","path":1}"#,
        ),
        (
            PathSample {
                path: 1,
                cwnd: 14_480,
                srtt_ms: None,
            },
            r#"{"t_s":68.25,"kind":"path_sample","path":1,"cwnd":14480,"srtt_ms":null}"#,
        ),
        (
            DssSignal { mask: 3 },
            r#"{"t_s":68.25,"kind":"dss_signal","mask":3}"#,
        ),
        (
            AbrChoice {
                chunk: 12,
                level: 4,
                estimate_mbps: 5.125,
            },
            r#"{"t_s":68.25,"kind":"abr_choice","chunk":12,"level":4,"estimate_mbps":5.125}"#,
        ),
        (
            DeadlineGranted {
                chunk: 12,
                size: 1_970_000,
                window_s: 3.6,
            },
            r#"{"t_s":68.25,"kind":"deadline_granted","chunk":12,"size":1970000,"window_s":3.6}"#,
        ),
        (
            DeadlineBypassed { chunk: 13 },
            r#"{"t_s":68.25,"kind":"deadline_bypassed","chunk":13}"#,
        ),
        (
            DeadlineHit {
                chunk: 12,
                margin_s: 0.5,
            },
            r#"{"t_s":68.25,"kind":"deadline_hit","chunk":12,"margin_s":0.5}"#,
        ),
        (
            DeadlineMissed {
                chunk: 17,
                overrun_s: 1.25,
            },
            r#"{"t_s":68.25,"kind":"deadline_missed","chunk":17,"overrun_s":1.25}"#,
        ),
        (
            ChunkFetched {
                chunk: 12,
                level: 4,
                size: 1_970_000,
                started_s: 64.5,
            },
            r#"{"t_s":68.25,"kind":"chunk_fetched","chunk":12,"level":4,"size":1970000,"started_s":64.5}"#,
        ),
        (
            FaultActivated {
                path: 0,
                fault: "burst_loss",
                until_s: 75.0,
            },
            r#"{"t_s":68.25,"kind":"fault_activated","path":0,"fault":"burst_loss","until_s":75.0}"#,
        ),
        (
            FaultCleared {
                path: 0,
                fault: "rtt_spike",
            },
            r#"{"t_s":68.25,"kind":"fault_cleared","path":0,"fault":"rtt_spike"}"#,
        ),
        (
            BufferTransition {
                state: "stalled",
                buffer_s: 0.0,
            },
            r#"{"t_s":68.25,"kind":"buffer_transition","state":"stalled","buffer_s":0.0}"#,
        ),
        (
            RequestTimeout {
                chunk: 9,
                cause: "infeasible",
                after_s: 2.5,
            },
            r#"{"t_s":68.25,"kind":"request_timeout","chunk":9,"cause":"infeasible","after_s":2.5}"#,
        ),
        (
            RequestAbandoned {
                chunk: 9,
                received: 400_000,
                size: 1_200_000,
            },
            r#"{"t_s":68.25,"kind":"request_abandoned","chunk":9,"received":400000,"size":1200000}"#,
        ),
        (
            RequestResumed {
                chunk: 9,
                from: 400_000,
                size: 1_200_000,
                level: 2,
            },
            r#"{"t_s":68.25,"kind":"request_resumed","chunk":9,"from":400000,"size":1200000,"level":2}"#,
        ),
        (
            RequestRetried {
                chunk: 5,
                attempt: 2,
                backoff_s: 0.4,
            },
            r#"{"t_s":68.25,"kind":"request_retried","chunk":5,"attempt":2,"backoff_s":0.4}"#,
        ),
        (
            ServerFaultActivated {
                fault: "error_burst",
                until_s: 90.0,
            },
            r#"{"t_s":68.25,"kind":"server_fault_activated","fault":"error_burst","until_s":90.0}"#,
        ),
        (
            ServerFaultCleared {
                fault: "stalled_body",
            },
            r#"{"t_s":68.25,"kind":"server_fault_cleared","fault":"stalled_body"}"#,
        ),
        (
            SharedQueueWait {
                path: 1,
                waited_s: 0.015,
                size: 1_500,
            },
            r#"{"t_s":68.25,"kind":"shared_queue_wait","path":1,"waited_s":0.015,"size":1500}"#,
        ),
        (
            OriginRouted {
                chunk: 2,
                origin: 1,
                reason: "resume",
            },
            r#"{"t_s":68.25,"kind":"origin_routed","chunk":2,"origin":1,"reason":"resume"}"#,
        ),
        (
            OriginHealth {
                origin: 0,
                state: "half_open",
                failures: 3,
            },
            r#"{"t_s":68.25,"kind":"origin_health","origin":0,"state":"half_open","failures":3}"#,
        ),
        (
            Hedge {
                chunk: 3,
                origin: 0,
                hedge_origin: 1,
                winner: None,
                wasted: 0,
            },
            r#"{"t_s":68.25,"kind":"hedge","chunk":3,"origin":0,"hedge_origin":1,"winner":null,"wasted":0}"#,
        ),
        (
            HedgeLoserSettled {
                chunk: 3,
                wasted: 2_048,
            },
            r#"{"t_s":68.25,"kind":"hedge_loser_settled","chunk":3,"wasted":2048}"#,
        ),
        (
            Cache {
                chunk: 4,
                level: 1,
                outcome: "hit",
                bytes: 800_000,
            },
            r#"{"t_s":68.25,"kind":"cache","chunk":4,"level":1,"outcome":"hit","bytes":800000}"#,
        ),
        (
            SchedulerPick {
                path: 0,
                len: 1_428,
                srtt_ms: Some(12.5),
                queue_bytes: None,
            },
            r#"{"t_s":68.25,"kind":"scheduler_pick","path":0,"len":1428,"srtt_ms":12.5,"queue_bytes":null}"#,
        ),
        (
            SessionDeparted {
                watched_s: 48.0,
                chunks: 12,
            },
            r#"{"t_s":68.25,"kind":"session_departed","watched_s":48.0,"chunks":12}"#,
        ),
        (
            SessionShed {
                client: 7,
                active: 9,
                queue_bytes: 131_072,
            },
            r#"{"t_s":68.25,"kind":"session_shed","client":7,"active":9,"queue_bytes":131072}"#,
        ),
        // The other state of each `Option` field, and a mask past `i32`.
        (
            DssSignal { mask: u32::MAX },
            r#"{"t_s":68.25,"kind":"dss_signal","mask":4294967295}"#,
        ),
        (
            PathSample {
                path: 0,
                cwnd: 28_960,
                srtt_ms: Some(20.25),
            },
            r#"{"t_s":68.25,"kind":"path_sample","path":0,"cwnd":28960,"srtt_ms":20.25}"#,
        ),
        (
            SchedulerPick {
                path: 1,
                len: 700,
                srtt_ms: None,
                queue_bytes: Some(65_536),
            },
            r#"{"t_s":68.25,"kind":"scheduler_pick","path":1,"len":700,"srtt_ms":null,"queue_bytes":65536}"#,
        ),
        (
            Hedge {
                chunk: 3,
                origin: 0,
                hedge_origin: 1,
                winner: Some("primary"),
                wasted: 4_096,
            },
            r#"{"t_s":68.25,"kind":"hedge","chunk":3,"origin":0,"hedge_origin":1,"winner":"primary","wasted":4096}"#,
        ),
    ]
}

#[test]
fn every_variant_encodes_its_pinned_line() {
    let t = SimTime::from_millis(68_250);
    let pins = pins();
    for (event, line) in &pins {
        assert_eq!(event.to_json(t).to_compact(), *line, "{event:?}");
    }
    let kinds: BTreeSet<&str> = pins.iter().map(|(e, _)| e.kind()).collect();
    assert_eq!(kinds.len(), 29, "one sample per variant: {kinds:?}");
}
