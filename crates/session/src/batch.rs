//! Deterministic parallel batch runner for experiment jobs.
//!
//! The paper's evaluation is batch-shaped: 33 locations × {FESTIVE, BBA}
//! × {baseline, rate, duration} for the field study alone (§7.3.3).
//! Every experiment builds a flat job list up front, this runner fans the
//! jobs over a fixed pool of scoped threads, and the results come back in
//! input order — so a parallel run is observationally identical to a
//! sequential one:
//!
//! * every job is a **pure function of its config** (all randomness lives
//!   in embedded seeds, the simulator never reads the wall clock);
//! * collection is **order-preserving** ([`mpdash_sim::par_map`]), so
//!   downstream aggregation sees the same sequence regardless of worker
//!   count or completion interleaving;
//! * worker count comes from `MPDASH_WORKERS` (or the machine) and is
//!   deliberately **absent from every report** — artifacts must not
//!   depend on it.
//!
//! [`seed_jobs`] derives independent per-job seeds from one base seed for
//! sweeps that want per-job randomness without hand-numbering streams.

use crate::config::SessionConfig;
use crate::file_transfer::{FileTransfer, FileTransferConfig, FileTransferReport};
use crate::report::{SessionReport, SimProfile};
use crate::streaming::StreamingSession;
use mpdash_sim::{default_workers, derive_seed, par_map};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Arbitrary batch work: any function producing a [`JobReport`]. Lets
/// experiments mix bespoke computations (or fault-injection probes that
/// are *expected* to panic) into an ordinary batch.
#[derive(Clone)]
pub struct CustomJob(pub Arc<dyn Fn() -> JobReport + Send + Sync>);

impl fmt::Debug for CustomJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CustomJob(..)")
    }
}

/// What one job runs: a full streaming session or a §7.2 single-file
/// deadline transfer.
#[derive(Clone, Debug)]
pub enum JobSpec {
    /// A streaming session ([`StreamingSession::run`]).
    Session(Box<SessionConfig>),
    /// A deadline file transfer ([`FileTransfer::run`]).
    Transfer(Box<FileTransferConfig>),
    /// An arbitrary computation (see [`Job::custom`]).
    Custom(CustomJob),
}

/// One labelled unit of work in a batch.
#[derive(Clone, Debug)]
pub struct Job {
    /// Label carried through to the result (experiment-defined meaning,
    /// e.g. `"loc03/festive/Rate"`).
    pub label: String,
    /// The work itself.
    pub spec: JobSpec,
}

impl Job {
    /// A streaming-session job.
    pub fn session(label: impl Into<String>, cfg: SessionConfig) -> Self {
        Job {
            label: label.into(),
            spec: JobSpec::Session(Box::new(cfg)),
        }
    }

    /// A file-transfer job.
    pub fn transfer(label: impl Into<String>, cfg: FileTransferConfig) -> Self {
        Job {
            label: label.into(),
            spec: JobSpec::Transfer(Box::new(cfg)),
        }
    }

    /// An arbitrary-computation job. Like every job it runs isolated:
    /// if `f` panics, the batch records a [`JobError::Panicked`] at this
    /// job's index and every other job still completes.
    pub fn custom(
        label: impl Into<String>,
        f: impl Fn() -> JobReport + Send + Sync + 'static,
    ) -> Self {
        Job {
            label: label.into(),
            spec: JobSpec::Custom(CustomJob(Arc::new(f))),
        }
    }

    /// Reseed the job's stochastic components (link loss processes) from
    /// one job-level seed, deriving independent per-link streams. Custom
    /// jobs own their randomness and are left untouched.
    pub fn reseed(&mut self, seed: u64) {
        match &mut self.spec {
            JobSpec::Session(cfg) => {
                cfg.wifi.seed = derive_seed(seed, 0);
                cfg.cell.seed = derive_seed(seed, 1);
            }
            JobSpec::Transfer(cfg) => {
                cfg.wifi.seed = derive_seed(seed, 0);
                cfg.cell.seed = derive_seed(seed, 1);
            }
            JobSpec::Custom(_) => {}
        }
    }
}

/// The report matching a [`JobSpec`].
#[derive(Clone, Debug)]
pub enum JobReport {
    /// From a session job.
    Session(Box<SessionReport>),
    /// From a transfer job.
    Transfer(FileTransferReport),
    /// An opaque JSON value from a custom job whose natural report type
    /// lives above this crate (e.g. a fleet replica's summary).
    Value(Box<mpdash_results::Json>),
}

impl JobReport {
    /// The report flavor, for mismatch diagnostics.
    fn kind(&self) -> &'static str {
        match self {
            JobReport::Session(_) => "session",
            JobReport::Transfer(_) => "transfer",
            JobReport::Value(_) => "value",
        }
    }

    /// The session report, or a typed mismatch error when the job
    /// produced a transfer report.
    pub fn session(&self) -> Result<&SessionReport, JobError> {
        match self {
            JobReport::Session(r) => Ok(r),
            other => Err(JobError::Mismatch {
                expected: "session",
                got: other.kind(),
            }),
        }
    }

    /// The transfer report, or a typed mismatch error when the job
    /// produced a session report.
    pub fn transfer(&self) -> Result<&FileTransferReport, JobError> {
        match self {
            JobReport::Transfer(r) => Ok(r),
            other => Err(JobError::Mismatch {
                expected: "transfer",
                got: other.kind(),
            }),
        }
    }

    /// The opaque JSON value, or a typed mismatch error when the job
    /// produced a session or transfer report.
    pub fn value(&self) -> Result<&mpdash_results::Json, JobError> {
        match self {
            JobReport::Value(v) => Ok(v),
            other => Err(JobError::Mismatch {
                expected: "value",
                got: other.kind(),
            }),
        }
    }
}

/// Why a batch job produced no usable report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JobError {
    /// The job panicked; the batch kept running and recorded the panic
    /// message at the job's index.
    Panicked {
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// The caller asked for one report flavor but the job produced the
    /// other (e.g. [`JobReport::session`] on a transfer job).
    Mismatch {
        /// The flavor the accessor wanted.
        expected: &'static str,
        /// The flavor the job actually produced.
        got: &'static str,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
            JobError::Mismatch { expected, got } => {
                write!(
                    f,
                    "expected a {expected} report, job produced a {got} report"
                )
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Wall-clock and simulator-load profile of one batch job.
///
/// Strictly observational: `wall` depends on the machine and worker
/// contention and MUST never flow into artifacts (the report JSON writers
/// don't know this type exists). The event-queue numbers are themselves
/// deterministic but ride here, out of band, for the same reason.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobProfile {
    /// Wall-clock time the job spent on its worker thread.
    pub wall: std::time::Duration,
    /// The report's event-loop profile (all zeros for opaque values).
    pub sim: SimProfile,
}

/// One completed job: its label and report (or the error that replaced
/// it), at the same index the job occupied in the input list.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// The job's label.
    pub label: String,
    /// The job's report, or why there is none.
    pub report: Result<JobReport, JobError>,
    /// Execution profile (`None` when the job panicked).
    pub profile: Option<JobProfile>,
}

impl BatchResult {
    /// The session report; errors when the job panicked or produced a
    /// transfer report.
    pub fn session(&self) -> Result<&SessionReport, JobError> {
        match &self.report {
            Ok(r) => r.session(),
            Err(e) => Err(e.clone()),
        }
    }

    /// The transfer report; errors when the job panicked or produced a
    /// session report.
    pub fn transfer(&self) -> Result<&FileTransferReport, JobError> {
        match &self.report {
            Ok(r) => r.transfer(),
            Err(e) => Err(e.clone()),
        }
    }

    /// The opaque JSON value; errors when the job panicked or produced
    /// another report flavor.
    pub fn value(&self) -> Result<&mpdash_results::Json, JobError> {
        match &self.report {
            Ok(r) => r.value(),
            Err(e) => Err(e.clone()),
        }
    }
}

/// Run `jobs` on the default worker count (`MPDASH_WORKERS` env var, else
/// available parallelism), preserving input order.
pub fn run_batch(jobs: Vec<Job>) -> Vec<BatchResult> {
    run_batch_with(jobs, default_workers())
}

fn run_spec(spec: &JobSpec) -> JobReport {
    match spec {
        JobSpec::Session(cfg) => {
            JobReport::Session(Box::new(StreamingSession::run((**cfg).clone())))
        }
        JobSpec::Transfer(cfg) => JobReport::Transfer(FileTransfer::run((**cfg).clone())),
        JobSpec::Custom(f) => (f.0)(),
    }
}

fn sim_profile(report: &JobReport) -> SimProfile {
    match report {
        JobReport::Session(r) => r.sim_profile,
        JobReport::Transfer(r) => r.sim_profile,
        // Opaque values carry no queue profile.
        JobReport::Value(_) => SimProfile::default(),
    }
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
/// Output is independent of `workers`: each job is a pure function of its
/// config and results are collected by input index.
///
/// Jobs are **panic-isolated**: a panicking job becomes a
/// [`JobError::Panicked`] in its slot and every other job still runs —
/// one diverging corner of a 396-session sweep costs one cell, not the
/// fleet. (The standard panic hook still prints to stderr; set your own
/// hook to silence expected panics.)
pub fn run_batch_with(jobs: Vec<Job>, workers: usize) -> Vec<BatchResult> {
    par_map(jobs, workers, |job| {
        // AssertUnwindSafe: the closure touches only this job's spec
        // (read-only) and each run builds its state from scratch, so a
        // unwound job leaves nothing half-mutated behind.
        let start = std::time::Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| run_spec(&job.spec))).map_err(|p| {
            JobError::Panicked {
                message: panic_message(p.as_ref()),
            }
        });
        let wall = start.elapsed();
        let profile = report.as_ref().ok().map(|r| JobProfile {
            wall,
            sim: sim_profile(r),
        });
        BatchResult {
            label: job.label.clone(),
            report,
            profile,
        }
    })
}

/// Run plain session configs (the common experiment case), preserving
/// order, on the default worker count.
pub fn run_sessions(configs: Vec<SessionConfig>) -> Vec<SessionReport> {
    par_map(configs, default_workers(), |cfg| {
        StreamingSession::run(cfg.clone())
    })
}

/// Run file-transfer configs, preserving order, on the default worker
/// count.
pub fn run_transfers(configs: Vec<FileTransferConfig>) -> Vec<FileTransferReport> {
    par_map(configs, default_workers(), |cfg| {
        FileTransfer::run(cfg.clone())
    })
}

/// Give every job an independent derived seed: job `i` gets
/// `derive_seed(base, i)`. Use when a sweep wants per-job randomness
/// without hand-numbering seed streams.
pub fn seed_jobs(base: u64, jobs: &mut [Job]) {
    for (i, job) in jobs.iter_mut().enumerate() {
        job.reseed(derive_seed(base, i as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TransportMode;
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
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::session(format!("job{i}"), tiny_cfg(2.0 + i as f64)))
            .collect();
        let out = run_batch_with(jobs, 3);
        assert_eq!(out.len(), 6);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.label, format!("job{i}"));
            assert!(r.session().expect("session job").qoe_all.chunks > 0);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let mk = || {
            (0..5)
                .map(|i| Job::session(format!("j{i}"), tiny_cfg(1.5 + i as f64)))
                .collect::<Vec<_>>()
        };
        let seq = run_batch_with(mk(), 1);
        let par = run_batch_with(mk(), 4);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.label, b.label);
            let (a, b) = (a.session().unwrap(), b.session().unwrap());
            assert_eq!(a.summary_json().to_pretty(), b.summary_json().to_pretty());
        }
    }

    #[test]
    fn mixed_batch_dispatches_by_spec() {
        let jobs = vec![
            Job::session("s", tiny_cfg(3.0)),
            Job::transfer(
                "t",
                FileTransferConfig::testbed(3.8, 3.0, TransportMode::Vanilla).with_size(200_000),
            ),
        ];
        let out = run_batch_with(jobs, 2);
        assert!(matches!(out[0].report, Ok(JobReport::Session(_))));
        assert!(matches!(out[1].report, Ok(JobReport::Transfer(_))));
        assert!(out[1].transfer().unwrap().wifi_bytes > 0);
    }

    #[test]
    fn accessor_mismatch_is_a_typed_error_not_a_panic() {
        let out = run_batch_with(vec![Job::session("s", tiny_cfg(3.0))], 1);
        let err = out[0].transfer().unwrap_err();
        assert_eq!(
            err,
            JobError::Mismatch {
                expected: "transfer",
                got: "session"
            }
        );
        assert_eq!(
            err.to_string(),
            "expected a transfer report, job produced a session report"
        );
    }

    #[test]
    fn panicking_job_is_isolated_and_order_preserved() {
        // Silence the default hook so the expected panic does not spam
        // the test output; restore it afterwards.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let jobs = vec![
            Job::session("ok0", tiny_cfg(3.0)),
            Job::custom("boom", || panic!("deliberate fault-injection panic")),
            Job::session("ok1", tiny_cfg(2.5)),
        ];
        let out = run_batch_with(jobs, 3);
        std::panic::set_hook(prev);

        assert_eq!(out.len(), 3);
        assert_eq!(out[0].label, "ok0");
        assert_eq!(out[1].label, "boom");
        assert_eq!(out[2].label, "ok1");
        assert!(out[0].session().is_ok(), "jobs before the panic survive");
        assert!(out[2].session().is_ok(), "jobs after the panic survive");
        assert!(out[1].profile.is_none(), "panicked jobs have no profile");
        match out[1].session() {
            Err(JobError::Panicked { message }) => {
                assert!(
                    message.contains("deliberate fault-injection panic"),
                    "payload surfaced: {message}"
                );
            }
            other => panic!("expected a Panicked error, got {other:?}"),
        }
    }

    #[test]
    fn profiles_ride_along_outside_the_report() {
        let out = run_batch_with(vec![Job::session("s", tiny_cfg(3.0))], 1);
        let p = out[0].profile.expect("successful job has a profile");
        assert!(p.sim.events_popped > 0, "popped {}", p.sim.events_popped);
        assert!(
            p.sim.peak_queue_depth > 0,
            "peak {}",
            p.sim.peak_queue_depth
        );
        // The queue stats are the report's own sim profile, and the
        // per-kind counts account for every pop.
        let r = out[0].session().unwrap();
        assert_eq!(p.sim, r.sim_profile);
        let k = p.sim.by_kind;
        assert_eq!(
            k.data + k.ack + k.rto + k.app_timer + k.reverse_msg,
            p.sim.events_popped
        );
        // And none of it reaches the artifact JSON.
        let json = r.summary_json().to_pretty();
        assert!(!json.contains("events_popped"), "profile leaked into JSON");
    }

    #[test]
    fn custom_job_returns_its_report() {
        let cfg = tiny_cfg(3.0);
        let jobs = vec![Job::custom("custom", move || {
            JobReport::Session(Box::new(crate::streaming::StreamingSession::run(
                cfg.clone(),
            )))
        })];
        let out = run_batch_with(jobs, 1);
        assert!(out[0].session().unwrap().qoe_all.chunks > 0);
    }

    #[test]
    fn seed_jobs_gives_distinct_seeds() {
        let mut jobs: Vec<Job> = (0..3)
            .map(|i| Job::session(format!("{i}"), tiny_cfg(2.0)))
            .collect();
        seed_jobs(99, &mut jobs);
        let seeds: Vec<u64> = jobs
            .iter()
            .map(|j| match &j.spec {
                JobSpec::Session(c) => c.wifi.seed,
                JobSpec::Transfer(c) => c.wifi.seed,
                JobSpec::Custom(_) => unreachable!("only session jobs here"),
            })
            .collect();
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds[1], seeds[2]);
        // Re-deriving is stable.
        let mut again: Vec<Job> = (0..3)
            .map(|i| Job::session(format!("{i}"), tiny_cfg(2.0)))
            .collect();
        seed_jobs(99, &mut again);
        match (&jobs[0].spec, &again[0].spec) {
            (JobSpec::Session(a), JobSpec::Session(b)) => {
                assert_eq!(a.wifi.seed, b.wifi.seed);
                assert_ne!(a.wifi.seed, a.cell.seed);
            }
            _ => unreachable!(),
        }
    }
}
