//! The client playback engine: buffer dynamics and stalls.
//!
//! The player is passive with respect to time — the session drives it with
//! [`Player::advance_to`] — and passive with respect to the network: chunk
//! completions are pushed in with [`Player::on_chunk_complete`]. It owns
//! the buffer model and nothing else: the level each chunk was fetched at
//! is in the session's chunk log, and each transition below is a
//! [`TraceEvent::BufferTransition`] on the session's trace.
//!
//! * **Startup**: playback begins once the first chunk is buffered.
//! * **Steady state**: buffered content drains in real time while playing.
//! * **Stall**: the buffer hitting empty mid-stream pauses playback until
//!   one full chunk duration is re-buffered, and is counted (the paper's
//!   first QoE metric; every MP-DASH experiment reports zero).

use crate::video::Video;
use mpdash_obs::{TraceEvent, Tracer};
use mpdash_sim::{SimDuration, SimTime};

/// Player configuration.
#[derive(Clone, Copy, Debug)]
pub struct PlayerConfig {
    /// Maximum buffered content. The paper's BBA discussion works with
    /// ~40 s buffers (§5.2.2 example); default 40 s.
    pub capacity: SimDuration,
    /// Content that must be re-buffered after a stall before playback
    /// resumes (one chunk duration by default, set in `new`).
    pub resume_threshold: SimDuration,
}

/// Playback state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlayerState {
    /// Nothing played yet; waiting for the first chunk.
    Startup,
    /// Playing.
    Playing,
    /// Stalled mid-stream, waiting for `resume_threshold` of content.
    Stalled,
    /// All chunks played out.
    Finished,
}

/// The buffer/playback engine. See module docs.
pub struct Player {
    cfg: PlayerConfig,
    chunk_duration: SimDuration,
    n_chunks: usize,
    /// Buffered, not yet played content.
    buffer: SimDuration,
    /// Total content played out.
    played: SimDuration,
    state: PlayerState,
    last_advance: SimTime,
    stalls: u64,
    stall_time: SimDuration,
    startup_delay: Option<SimDuration>,
    /// When this session logically began (staggered fleet starts).
    /// Startup delay is measured from here, not from the epoch.
    origin: SimTime,
    chunks_downloaded: usize,
    /// Viewer left mid-stream: content ends at `chunks_downloaded`.
    departed: bool,
    /// Where the buffer transitions go. Observe-only.
    tracer: Tracer,
}

impl Player {
    /// A player for `video` with the given buffer capacity.
    pub fn new(video: &Video, capacity: SimDuration) -> Self {
        assert!(
            capacity >= video.chunk_duration() * 2,
            "buffer must hold at least two chunks"
        );
        Player {
            cfg: PlayerConfig {
                capacity,
                resume_threshold: video.chunk_duration(),
            },
            chunk_duration: video.chunk_duration(),
            n_chunks: video.n_chunks(),
            buffer: SimDuration::ZERO,
            played: SimDuration::ZERO,
            state: PlayerState::Startup,
            last_advance: SimTime::ZERO,
            stalls: 0,
            stall_time: SimDuration::ZERO,
            startup_delay: None,
            origin: SimTime::ZERO,
            chunks_downloaded: 0,
            departed: false,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a tracer: every buffer transition is emitted as a
    /// [`TraceEvent::BufferTransition`]. Observe-only.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Set the session's logical start time (a staggered fleet client
    /// joins mid-simulation). Startup delay is measured from here.
    pub fn set_origin(&mut self, origin: SimTime) {
        self.origin = origin;
    }

    /// The session's logical start time.
    pub fn origin(&self) -> SimTime {
        self.origin
    }

    /// Emit a state transition with the buffer level after it.
    fn trace_transition(&self, at: SimTime, state: &'static str) {
        let buffer_s = self.buffer.as_secs_f64();
        self.tracer
            .emit_with(at, || TraceEvent::BufferTransition { state, buffer_s });
    }

    /// Buffer capacity.
    pub fn capacity(&self) -> SimDuration {
        self.cfg.capacity
    }

    /// Current buffered content (after the last `advance_to`).
    pub fn buffer(&self) -> SimDuration {
        self.buffer
    }

    /// Number of mid-stream stalls so far.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Total time spent stalled (excluding initial startup wait).
    pub fn stall_time(&self) -> SimDuration {
        self.stall_time
    }

    /// Time from t=0 to first frame, once known.
    pub fn startup_delay(&self) -> Option<SimDuration> {
        self.startup_delay
    }

    /// Chunks downloaded so far.
    pub fn chunks_downloaded(&self) -> usize {
        self.chunks_downloaded
    }

    /// Index of the next chunk to request, or `None` when all are fetched.
    pub fn next_chunk_index(&self) -> Option<usize> {
        (self.chunks_downloaded < self.n_chunks).then_some(self.chunks_downloaded)
    }

    /// True when there is room to hold one more chunk (the standard DASH
    /// pacing rule: request when `buffer + chunk ≤ capacity`).
    pub fn has_space(&self) -> bool {
        self.buffer + self.chunk_duration <= self.cfg.capacity
    }

    /// How long until there is space for one more chunk (zero if there
    /// already is). Only meaningful while playing.
    pub fn time_until_space(&self) -> SimDuration {
        if self.has_space() {
            return SimDuration::ZERO;
        }
        // Excess content beyond (capacity − chunk) drains in real time.
        (self.buffer + self.chunk_duration).saturating_sub(self.cfg.capacity)
    }

    /// Advance the playback clock to `now`, draining the buffer and
    /// transitioning state (stall detection happens here).
    pub fn advance_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_advance);
        self.last_advance = self.last_advance.max(now);
        if dt.is_zero() {
            return;
        }
        match self.state {
            PlayerState::Playing => {
                if dt < self.buffer {
                    self.buffer -= dt;
                    self.played += dt;
                } else {
                    // Buffer ran dry somewhere inside [last, now].
                    let played_part = self.buffer;
                    let dry_at = now - (dt - played_part);
                    self.played += played_part;
                    self.buffer = SimDuration::ZERO;
                    if self.played >= self.total_content() {
                        self.state = PlayerState::Finished;
                        self.trace_transition(dry_at, "finished");
                    } else {
                        self.state = PlayerState::Stalled;
                        self.stalls += 1;
                        self.stall_time += dt - played_part;
                        self.trace_transition(dry_at, "stalled");
                    }
                }
            }
            PlayerState::Stalled => {
                self.stall_time += dt;
            }
            PlayerState::Startup | PlayerState::Finished => {}
        }
    }

    /// The viewer departed mid-stream: content now ends at whatever has
    /// been downloaded, so draining the remaining buffer transitions to
    /// `Finished` rather than counting a phantom stall at the tail.
    pub fn depart(&mut self) {
        self.departed = true;
    }

    fn total_content(&self) -> SimDuration {
        let chunks = if self.departed {
            self.chunks_downloaded
        } else {
            self.n_chunks
        };
        self.chunk_duration * chunks as u64
    }

    /// A chunk finished downloading at `now`: add its playout duration to
    /// the buffer.
    ///
    /// # Panics
    /// If more chunks complete than the video has.
    pub fn on_chunk_complete(&mut self, now: SimTime) {
        assert!(
            self.chunks_downloaded < self.n_chunks,
            "more chunks completed than the video has"
        );
        self.advance_to(now);
        self.chunks_downloaded += 1;
        self.buffer += self.chunk_duration;
        self.trace_transition(now, "chunk_buffered");
        match self.state {
            PlayerState::Startup => {
                self.state = PlayerState::Playing;
                self.startup_delay = Some(now.saturating_since(self.origin));
                self.trace_transition(now, "started");
            }
            PlayerState::Stalled if self.buffer >= self.cfg.resume_threshold => {
                self.state = PlayerState::Playing;
                self.trace_transition(now, "resumed");
            }
            _ => {}
        }
    }

    /// True once every chunk is downloaded (playout may still be draining).
    pub fn download_complete(&self) -> bool {
        self.chunks_downloaded == self.n_chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video::Video;
    use mpdash_obs::RingSink;
    use std::sync::Arc;

    fn player() -> Player {
        Player::new(&Video::big_buck_bunny(), SimDuration::from_secs(40))
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn startup_then_play() {
        let mut p = player();
        assert_eq!(p.state, PlayerState::Startup);
        p.advance_to(t(1.0));
        assert_eq!(p.state, PlayerState::Startup, "no drain before start");
        p.on_chunk_complete(t(1.5));
        assert_eq!(p.state, PlayerState::Playing);
        assert_eq!(p.startup_delay(), Some(SimDuration::from_millis(1500)));
        assert_eq!(p.buffer(), SimDuration::from_secs(4));
    }

    #[test]
    fn buffer_drains_in_real_time() {
        let mut p = player();
        p.on_chunk_complete(t(1.0));
        p.advance_to(t(2.5));
        assert_eq!(p.buffer(), SimDuration::from_millis(2500));
        assert_eq!(p.stalls(), 0);
    }

    #[test]
    fn stall_detection_and_resume() {
        let mut p = player();
        p.on_chunk_complete(t(0.5)); // 4 s buffered
        p.advance_to(t(6.0)); // drains dry at t=4.5
        assert_eq!(p.state, PlayerState::Stalled);
        assert_eq!(p.stalls(), 1);
        assert_eq!(p.stall_time(), SimDuration::from_millis(1500));
        // One chunk re-buffered: resumes.
        p.on_chunk_complete(t(7.0));
        assert_eq!(p.state, PlayerState::Playing);
        assert_eq!(p.stall_time(), SimDuration::from_millis(2500));
    }

    #[test]
    fn stall_counted_once_per_event() {
        let mut p = player();
        p.on_chunk_complete(t(0.0));
        p.advance_to(t(10.0));
        p.advance_to(t(11.0)); // still stalled, same event
        assert_eq!(p.stalls(), 1);
    }

    #[test]
    fn pacing_rule_has_space() {
        let mut p = player();
        // Fill to capacity: 40 s / 4 s = 10 chunks.
        for _ in 0..10 {
            p.on_chunk_complete(t(0.0));
        }
        assert_eq!(p.buffer(), SimDuration::from_secs(40));
        assert!(!p.has_space());
        assert_eq!(p.time_until_space(), SimDuration::from_secs(4));
        // 4 s of playback opens one slot.
        p.advance_to(t(4.0));
        assert!(p.has_space());
    }

    #[test]
    fn event_log_captures_lifecycle() {
        let ring = Arc::new(RingSink::new(16));
        let mut p = player();
        p.set_tracer(Tracer::new(ring.clone()));
        p.on_chunk_complete(t(0.5)); // starts playback
        p.advance_to(t(6.0)); // dry at 4.5 -> stall
        p.on_chunk_complete(t(7.0)); // resumes
        assert_eq!(p.next_chunk_index(), Some(2));
        let log: Vec<(SimTime, &str, f64)> = (ring.events().into_iter())
            .map(|(at, e)| match e {
                TraceEvent::BufferTransition { state, buffer_s } => (at, state, buffer_s),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(
            log,
            [
                (t(0.5), "chunk_buffered", 4.0),
                (t(0.5), "started", 4.0),
                (t(4.5), "stalled", 0.0),
                (t(7.0), "chunk_buffered", 4.0),
                (t(7.0), "resumed", 4.0),
            ]
        );
    }

    #[test]
    fn finishes_after_last_chunk_plays_out() {
        let v = Video::new("tiny", &[1.0], SimDuration::from_secs(4), 2);
        let mut p = Player::new(&v, SimDuration::from_secs(8));
        p.on_chunk_complete(t(0.0));
        p.on_chunk_complete(t(1.0));
        assert!(p.download_complete());
        p.advance_to(t(9.0)); // 8 s of content from t=0
        assert_eq!(p.state, PlayerState::Finished);
        assert_eq!(p.stalls(), 0, "running out at the end is not a stall");
    }
}
