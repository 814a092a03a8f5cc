//! Trace sinks and the [`Tracer`] handle that emission sites hold.
//!
//! The sink contract is strictly **observe-only**: a sink sees each
//! event exactly once, in emission order, stamped with virtual time,
//! and has no channel back into the simulation. Sinks must be
//! `Send + Sync` because session configs (which embed a [`Tracer`])
//! cross threads in the parallel batch runner.

use crate::event::TraceEvent;
use mpdash_sim::SimTime;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Receives trace events. Implementations must not panic on `record`:
/// a broken observer must never take down a simulation.
pub trait TraceSink: Send + Sync {
    /// One event, stamped with the virtual time it was emitted at.
    fn record(&self, t: SimTime, event: &TraceEvent);
    /// Flush any buffered output (no-op by default).
    fn flush(&self) {}
}

/// A bounded in-memory sink: keeps the most recent `capacity` events.
/// This is what `mpdash explain` uses to replay a scenario and query
/// the decision record afterwards.
pub struct RingSink {
    capacity: usize,
    events: Mutex<VecDeque<(SimTime, TraceEvent)>>,
}

impl RingSink {
    /// A ring holding at most `capacity` events (oldest dropped first).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<(SimTime, TraceEvent)> {
        self.events.lock().unwrap().iter().cloned().collect()
    }

    /// Number of retained events.
    pub(crate) fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingSink {
    fn record(&self, t: SimTime, event: &TraceEvent) {
        let mut q = self.events.lock().unwrap();
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back((t, event.clone()));
    }
}

impl fmt::Debug for RingSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RingSink(cap {}, len {})", self.capacity, self.len())
    }
}

/// Appends one JSON object per event to a file — the NDJSON trace
/// format. Lines are appended atomically under a mutex, so concurrent
/// sessions sharing one sink interleave whole lines, never bytes.
///
/// Writes are batched in an internal line buffer that reaches the file
/// only when it exceeds `NdjsonSink::FLUSH_THRESHOLD`, on an explicit
/// [`flush`](TraceSink::flush), or on drop — the drop guard runs even
/// when the thread is unwinding from a panic, so a crashed run leaves a
/// trace truncated at a line boundary, not mid-buffer.
pub struct NdjsonSink {
    out: Mutex<LineBuffer>,
}

struct LineBuffer {
    file: File,
    buf: String,
}

impl LineBuffer {
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            // An observer must never panic the simulation; a full disk
            // just stops the trace.
            let _ = self.file.write_all(self.buf.as_bytes());
            self.buf.clear();
        }
    }
}

impl NdjsonSink {
    /// Buffered bytes beyond which `record` writes through to the file.
    pub(crate) const FLUSH_THRESHOLD: usize = 64 * 1024;

    /// Create (truncate) the trace file at `path`, creating parent
    /// directories as needed.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(NdjsonSink {
            out: Mutex::new(LineBuffer {
                file: File::create(path)?,
                buf: String::new(),
            }),
        })
    }
}

impl TraceSink for NdjsonSink {
    fn record(&self, t: SimTime, event: &TraceEvent) {
        let line = event.to_json(t).to_string();
        let mut out = self.out.lock().unwrap();
        out.buf.push_str(&line);
        out.buf.push('\n');
        if out.buf.len() >= Self::FLUSH_THRESHOLD {
            out.flush();
        }
    }

    fn flush(&self) {
        self.out.lock().unwrap().flush();
    }
}

impl Drop for NdjsonSink {
    fn drop(&mut self) {
        // Recover the buffer even if a panicking recorder poisoned the
        // lock: whole lines are still whole lines.
        match self.out.get_mut() {
            Ok(out) => out.flush(),
            Err(poisoned) => poisoned.into_inner().flush(),
        }
    }
}

impl fmt::Debug for NdjsonSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NdjsonSink")
    }
}

/// The cheap-to-clone handle emission sites hold. Disabled tracers
/// carry no sink: [`Tracer::emit_with`] is then a single branch and the
/// event-construction closure is never run.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<dyn TraceSink>>);

impl Tracer {
    /// A tracer that drops everything (the default in every config).
    pub const fn disabled() -> Self {
        Tracer(None)
    }

    /// A tracer feeding the given sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer(Some(sink))
    }

    /// Whether a sink is attached. Emission sites may use this to skip
    /// expensive *input gathering* (not just event construction).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emit an event, constructing it only if a sink is attached.
    #[inline]
    pub fn emit_with(&self, t: SimTime, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.0 {
            sink.record(t, &build());
        }
    }

    /// Flush the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.0 {
            sink.flush();
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => write!(f, "Tracer(on)"),
            None => write!(f, "Tracer(off)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(chunk: usize) -> TraceEvent {
        TraceEvent::DeadlineBypassed { chunk }
    }

    #[test]
    fn disabled_tracer_never_builds_the_event() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit_with(SimTime::ZERO, || panic!("built an event while disabled"));
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let ring = Arc::new(RingSink::new(3));
        let t = Tracer::new(ring.clone());
        for i in 0..5 {
            t.emit_with(SimTime::from_secs(i as u64), || ev(i));
        }
        let got = ring.events();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].1, ev(2));
        assert_eq!(got[2].1, ev(4));
        assert_eq!(got[2].0, SimTime::from_secs(4));
    }

    #[test]
    fn ndjson_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join(format!("mpdash-obs-test-{}", std::process::id()));
        let path = dir.join("trace.ndjson");
        let sink = NdjsonSink::create(&path).unwrap();
        let t = Tracer::new(Arc::new(sink));
        t.emit_with(SimTime::from_secs(1), || ev(0));
        t.emit_with(SimTime::from_secs(2), || TraceEvent::SubflowFailed {
            path: 1,
        });
        t.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"deadline_bypassed\""));
        assert!(lines[1].contains("\"subflow_failed\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ndjson_sink_flushes_buffered_lines_on_drop() {
        let dir = std::env::temp_dir().join(format!("mpdash-obs-drop-{}", std::process::id()));
        let path = dir.join("trace.ndjson");
        {
            let sink = NdjsonSink::create(&path).unwrap();
            sink.record(SimTime::from_secs(1), &ev(7));
            // Below the flush threshold: nothing on disk yet.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        } // drop guard flushes
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"deadline_bypassed\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
