//! Deterministic parallel batch runner, generic over what a job returns.
//!
//! The paper's evaluation is batch-shaped: 33 locations × {FESTIVE, BBA}
//! × {baseline, rate, duration} for the field study alone (§7.3.3).
//! Callers build a flat list of labelled jobs up front, this runner fans
//! them over a fixed pool of scoped threads, and the results come back
//! in input order — so a parallel run is observationally identical to a
//! sequential one:
//!
//! * every job is a **pure function of what it captured** (all
//!   randomness lives in embedded seeds, the simulator never reads the
//!   wall clock);
//! * collection is **order-preserving** ([`mpdash_sim::par_map`]), so
//!   downstream aggregation sees the same sequence regardless of worker
//!   count or completion interleaving;
//! * the worker count is a plain argument (callers usually pass
//!   [`mpdash_sim::default_workers`], i.e. `MPDASH_WORKERS` or the
//!   machine) and is deliberately **absent from every result** —
//!   artifacts must not depend on it.
//!
//! A job returns whatever its caller folds: a [`SessionReport`], a file
//! transfer report, or a small struct a fleet replica was reduced to on
//! the worker, so a batch holds no more than its folds read.

use crate::config::SessionConfig;
use crate::report::SessionReport;
use crate::streaming::StreamingSession;
use mpdash_sim::par_map;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One labelled unit of work in a batch, returning an `R`.
pub struct Job<'a, R> {
    /// Label carried through to the result (caller-defined meaning,
    /// e.g. a scenario mode or a grid cell's key).
    pub label: String,
    work: Box<dyn Fn() -> R + Send + Sync + 'a>,
}

impl<'a, R> Job<'a, R> {
    /// A job running `work`. Like every job it runs isolated: if `work`
    /// panics, the batch records a [`JobError::Panicked`] at this job's
    /// index and every other job still completes.
    pub fn new(label: impl Into<String>, work: impl Fn() -> R + Send + Sync + 'a) -> Self {
        Job {
            label: label.into(),
            work: Box::new(work),
        }
    }
}

impl Job<'static, SessionReport> {
    /// A streaming-session job ([`StreamingSession::run`]).
    pub fn session(label: impl Into<String>, cfg: SessionConfig) -> Self {
        Job::new(label, move || StreamingSession::run(cfg.clone()))
    }
}

/// Why a batch job produced no result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JobError {
    /// The job panicked; the batch kept running and recorded the panic
    /// message at the job's index.
    Panicked {
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

/// One completed job: its label and result (or the error that replaced
/// it), at the same index the job occupied in the input list.
#[derive(Clone, Debug)]
pub struct BatchResult<R> {
    /// The job's label.
    pub label: String,
    /// What the job returned, or why there is nothing.
    pub report: Result<R, JobError>,
    /// Wall-clock time the job spent on its worker thread. Strictly
    /// observational: it depends on the machine and worker contention
    /// and MUST never flow into artifacts.
    pub wall: Duration,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `jobs` on exactly `workers` threads, preserving input order.
///
/// Output is independent of `workers`: each job is a pure function of
/// what it captured and results are collected by input index.
///
/// Jobs are **panic-isolated**: a panicking job becomes a
/// [`JobError::Panicked`] in its slot and every other job still runs —
/// one diverging corner of a 396-session sweep costs one cell, not the
/// fleet. (The standard panic hook still prints to stderr; set your own
/// hook to silence expected panics.)
pub fn run_batch<R: Send>(jobs: Vec<Job<'_, R>>, workers: usize) -> Vec<BatchResult<R>> {
    par_map(jobs, workers, |job| {
        // AssertUnwindSafe: the closure only reads what the job captured
        // and each run builds its state from scratch, so an unwound job
        // leaves nothing half-mutated behind.
        let start = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(&job.work)).map_err(|p| JobError::Panicked {
            message: panic_message(p.as_ref()),
        });
        BatchResult {
            label: job.label.clone(),
            report,
            wall: start.elapsed(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransportMode;
    use crate::file_transfer::{FileTransfer, FileTransferConfig};
    use mpdash_dash::abr::AbrKind;
    use mpdash_dash::video::Video;
    use mpdash_sim::SimDuration;

    fn tiny_cfg(wifi_mbps: f64) -> SessionConfig {
        SessionConfig::controlled_mbps(wifi_mbps, 2.0, AbrKind::Festive, TransportMode::Vanilla)
            .with_video(Video::new(
                "tiny",
                &[0.5, 1.0],
                SimDuration::from_secs(2),
                4,
            ))
    }

    #[test]
    fn batch_preserves_order_and_labels() {
        let jobs = (0..6)
            .map(|i| Job::session(format!("job{i}"), tiny_cfg(2.0 + i as f64)))
            .collect();
        let out = run_batch(jobs, 3);
        assert_eq!(out.len(), 6);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.label, format!("job{i}"));
            assert!(r.report.as_ref().expect("session job").qoe_all.chunks > 0);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let mk = || {
            (0..5)
                .map(|i| Job::session(format!("j{i}"), tiny_cfg(1.5 + i as f64)))
                .collect::<Vec<_>>()
        };
        let seq = run_batch(mk(), 1);
        let par = run_batch(mk(), 4);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.label, b.label);
            let (a, b) = (a.report.as_ref().unwrap(), b.report.as_ref().unwrap());
            assert_eq!(a.summary_json().to_pretty(), b.summary_json().to_pretty());
        }
    }

    #[test]
    fn a_batch_returns_whatever_its_jobs_return() {
        // Borrowing jobs: the closures read a config owned by the caller.
        let cfg = FileTransferConfig::testbed(3.8, 3.0, TransportMode::Vanilla).with_size(200_000);
        let jobs = vec![
            Job::new("bytes", || FileTransfer::run(cfg.clone()).wifi_bytes),
            Job::new("answer", || 42),
        ];
        let out = run_batch(jobs, 2);
        assert!(*out[0].report.as_ref().unwrap() > 0);
        assert_eq!(out[1].report, Ok(42));
    }

    #[test]
    fn panicking_job_is_isolated_and_order_preserved() {
        // Silence the default hook so the expected panic does not spam
        // the test output; restore it afterwards.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let jobs = vec![
            Job::session("ok0", tiny_cfg(3.0)),
            Job::new("boom", || panic!("deliberate fault-injection panic")),
            Job::session("ok1", tiny_cfg(2.5)),
        ];
        let out = run_batch(jobs, 3);
        std::panic::set_hook(prev);

        assert_eq!(out.len(), 3);
        assert_eq!(out[0].label, "ok0");
        assert_eq!(out[1].label, "boom");
        assert_eq!(out[2].label, "ok1");
        assert!(out[0].report.is_ok(), "jobs before the panic survive");
        assert!(out[2].report.is_ok(), "jobs after the panic survive");
        match &out[1].report {
            Err(e @ JobError::Panicked { message }) => {
                assert!(
                    message.contains("deliberate fault-injection panic"),
                    "payload surfaced: {message}"
                );
                assert!(e.to_string().starts_with("job panicked: "));
            }
            other => panic!("expected a Panicked error, got {:?}", other.as_ref().err()),
        }
    }

    #[test]
    fn wall_time_rides_along_outside_the_report() {
        let out = run_batch(vec![Job::session("s", tiny_cfg(3.0))], 1);
        assert!(out[0].wall > Duration::ZERO);
        // The event-loop profile is the report's own, and the per-kind
        // counts account for every pop.
        let r = out[0].report.as_ref().unwrap();
        let p = r.sim_profile;
        assert!(p.events_popped > 0, "popped {}", p.events_popped);
        assert!(p.peak_queue_depth > 0, "peak {}", p.peak_queue_depth);
        let k = p.by_kind;
        assert_eq!(
            k.data + k.ack + k.rto + k.app_timer + k.reverse_msg,
            p.events_popped
        );
        // And none of it reaches the artifact JSON.
        let json = r.summary_json().to_pretty();
        assert!(!json.contains("events_popped"), "profile leaked into JSON");
    }
}
