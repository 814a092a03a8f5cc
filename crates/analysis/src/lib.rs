//! The Multipath Video Analysis Tool (§6 of the paper).
//!
//! The authors built a ~3,000-line C++ tool that takes a packet trace plus
//! a player event log, correlates them across protocol layers (MPTCP /
//! HTTP / DASH), and reports path utilization, rebuffering, quality
//! switches and energy, with a chunk-bar visualization (the paper's
//! Figure 8). This crate is that tool for the simulated stack:
//!
//! * correlation, online: a [`ChunkLedger`] is fed every packet as it
//!   arrives and every chunk as it finishes, and keeps one
//!   [`ChunkRecord`] per chunk with the chunk's body bytes by path under
//!   two rules (see [`ChunkRecord`]), plus the session's idle-gap count;
//! * correlation as a batch over a capture ([`chunk_path_splits`],
//!   [`idle_gaps`]): the tool's offline form, which the ledger equals;
//! * outputs: [`SessionAnalysis`] (the metrics) and
//!   [`render_chunk_bars`] / [`throughput_timeline`] (text
//!   visualizations in the spirit of Figure 8);
//! * rebuffering ([`stall_intervals`], [`buffer_trajectory`]) from the
//!   player's `buffer_transition` trace events, the tool's second input.

use mpdash_energy::{radio_energy_of, DeviceProfile, SessionEnergy};
use mpdash_link::PathId;
use mpdash_mptcp::PktRecord;
use mpdash_results::Json;
use mpdash_sim::{DssRange, SimDuration, SimTime};

mod accounting;

pub use accounting::{ChunkLedger, ChunkRecord, IDLE_GAP};

/// Session-level metrics computed by the tool.
#[derive(Clone, Debug)]
pub struct SessionAnalysis {
    /// Total body bytes on WiFi (overlap rule).
    pub wifi_body_bytes: u64,
    /// Total cellular body bytes.
    pub cell_body_bytes: u64,
    /// Level-change count between consecutive chunks.
    pub switches: u64,
    /// Chunks per level.
    pub level_histogram: Vec<usize>,
    /// Mean chunk download duration.
    pub mean_download: SimDuration,
    /// Inter-arrival gaps longer than [`IDLE_GAP`].
    pub idle_gaps: u64,
}

/// The §6 tool's overlap rule as a batch over a capture: per body, its
/// bytes by path. Equal to the [`ChunkLedger`]'s `overlap_bytes` when the
/// capture is every arrival the ledger was fed.
pub fn chunk_path_splits(
    records: impl IntoIterator<Item = PktRecord>,
    bodies: &[DssRange],
) -> Vec<[u64; 2]> {
    let mut out = vec![[0; 2]; bodies.len()];
    for r in records {
        let (lo, hi) = (r.dss, r.dss + r.len);
        // Bodies ascend: start at the first one ending past the packet's
        // first byte, stop at the first one starting past its last.
        let first = bodies.partition_point(|b| b.end <= lo);
        for (body, split) in bodies.iter().zip(&mut out).skip(first) {
            if body.start >= hi {
                break;
            }
            if let Some(bytes) = split.get_mut(r.path.index()) {
                *bytes += body.overlap(lo, hi);
            }
        }
    }
    out
}

/// Idle gaps between consecutive packets exceeding `min_gap`; at
/// [`IDLE_GAP`], the batch form of [`ChunkLedger::idle_gaps`].
pub fn idle_gaps(
    records: impl IntoIterator<Item = PktRecord>,
    min_gap: SimDuration,
) -> Vec<(SimTime, SimDuration)> {
    let mut out = Vec::new();
    let mut records = records.into_iter();
    let Some(mut prev) = records.next() else {
        return out;
    };
    for r in records {
        let gap = r.t.saturating_since(prev.t);
        if gap > min_gap {
            out.push((prev.t, gap));
        }
        prev = r;
    }
    out
}

/// Summarize a session's chunk records and its idle-gap count.
pub fn analyze(chunks: &[ChunkRecord], idle_gaps: u64, n_levels: usize) -> SessionAnalysis {
    let mut histogram = vec![0usize; n_levels];
    let mut switches = 0;
    for (i, c) in chunks.iter().enumerate() {
        if c.level < n_levels {
            histogram[c.level] += 1;
        }
        if i > 0 && chunks[i - 1].level != c.level {
            switches += 1;
        }
    }
    let mean_download = if chunks.is_empty() {
        SimDuration::ZERO
    } else {
        let total: u64 = chunks
            .iter()
            .map(|c| c.completed.saturating_since(c.started).as_nanos())
            .sum();
        SimDuration::from_nanos(total / chunks.len() as u64)
    };
    SessionAnalysis {
        wifi_body_bytes: chunks.iter().map(|c| c.overlap_bytes[0]).sum(),
        cell_body_bytes: chunks.iter().map(|c| c.overlap_bytes[1]).sum(),
        switches,
        level_histogram: histogram,
        mean_download,
        idle_gaps,
    }
}

/// Figure 8-style chunk bars, one text row per chunk:
///
/// ```text
///  12 | L4 | 2.31 MB | 1.42 s | cell  3% | ####______________
/// ```
///
/// The bar is `width` cells long; `#` cells are the cellular fraction
/// (the figure's black component), `digits` of the level color the rest.
pub fn render_chunk_bars(chunks: &[ChunkRecord], width: usize) -> String {
    let mut out = String::new();
    out.push_str("idx | lvl |    size |  dl time | cell% | path share (#=cellular)\n");
    for c in chunks {
        let dl = c.completed.saturating_since(c.started);
        let frac = c.cell_fraction();
        let cells = (frac * width as f64).round() as usize;
        let level_char = char::from_digit(c.level as u32 % 10, 10).unwrap_or('?');
        let mut bar = String::with_capacity(width);
        for i in 0..width {
            bar.push(if i < cells { '#' } else { level_char });
        }
        out.push_str(&format!(
            "{:>3} |  L{} | {:>6.2}MB | {:>7.2}s | {:>4.0}% | {}\n",
            c.index,
            c.level,
            c.size as f64 / 1e6,
            dl.as_secs_f64(),
            frac * 100.0,
            bar
        ));
    }
    out
}

/// A two-row text throughput timeline (WiFi and cellular Mbps per
/// `bucket`), using eight-level block characters — the §6 tool's
/// "visualizes the analysis" in terminal form.
pub fn throughput_timeline(
    records: impl IntoIterator<Item = PktRecord>,
    bucket: SimDuration,
    horizon: SimDuration,
) -> String {
    let n = (horizon.as_nanos() / bucket.as_nanos()).max(1) as usize;
    let mut wifi = vec![0u64; n];
    let mut cell = vec![0u64; n];
    for r in records {
        let idx = (r.t.as_nanos() / bucket.as_nanos()) as usize;
        if idx < n {
            match r.path {
                PathId::WIFI => wifi[idx] += r.len,
                PathId::CELLULAR => cell[idx] += r.len,
                _ => {}
            }
        }
    }
    let max = wifi
        .iter()
        .chain(cell.iter())
        .copied()
        .max()
        .unwrap_or(0)
        .max(1);
    let blocks = [
        ' ', '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
    ];
    let render = |v: &[u64]| -> String {
        v.iter()
            .map(|&b| {
                let lvl = (b * 7 / max) as usize;
                blocks[lvl.min(7)]
            })
            .collect()
    };
    let peak_mbps = max as f64 * 8.0 / bucket.as_secs_f64() / 1e6;
    format!(
        "wifi |{}|\ncell |{}|  (peak {:.1} Mbps / cell)\n",
        render(&wifi),
        render(&cell),
        peak_mbps
    )
}

/// Pair up the `"stalled"`/`"resumed"` transitions of a session's
/// buffer transitions into rebuffering intervals `(start, duration)` —
/// the §6 tool's rebuffering report. `transitions` are the player's
/// `buffer_transition` trace events in order, each `(time, state,
/// buffer seconds)`. A trailing unresumed stall is closed at the last
/// transition.
pub fn stall_intervals(transitions: &[(SimTime, &str, f64)]) -> Vec<(SimTime, SimDuration)> {
    let mut out = Vec::new();
    let mut open: Option<SimTime> = None;
    let mut last = SimTime::ZERO;
    for &(at, state, _) in transitions {
        last = last.max(at);
        match state {
            "stalled" => open = Some(at),
            "resumed" => {
                if let Some(start) = open.take() {
                    out.push((start, at.saturating_since(start)));
                }
            }
            _ => {}
        }
    }
    if let Some(start) = open {
        out.push((start, last.saturating_since(start)));
    }
    out
}

/// Buffer-occupancy samples from a session's buffer transitions (see
/// [`stall_intervals`]): `(time, seconds)` at every chunk completion —
/// enough to plot the buffer trajectory.
pub fn buffer_trajectory(transitions: &[(SimTime, &str, f64)]) -> Vec<(SimTime, f64)> {
    (transitions.iter())
        .filter(|&&(_, state, _)| state == "chunk_buffered")
        .map(|&(at, _, buffer_s)| (at, buffer_s))
        .collect()
}

/// Replay a packet trace through a device's radio models — the §6 tool's
/// energy report, computed from the same capture the rest of the analysis
/// uses (the paper's "replay the trace under different power models").
pub fn replay_energy(
    records: impl IntoIterator<Item = PktRecord> + Clone,
    device: &DeviceProfile,
    horizon: SimDuration,
) -> SessionEnergy {
    let on = |path: PathId| {
        let of_path = records.clone().into_iter().filter(move |r| r.path == path);
        of_path.map(|r| (r.t, r.len))
    };
    SessionEnergy {
        wifi: radio_energy_of(&device.wifi, on(PathId::WIFI), horizon),
        lte: radio_energy_of(&device.lte, on(PathId::CELLULAR), horizon),
    }
}

/// Serialize a full analysis (plus its inputs' timing) to pretty JSON:
/// the tool's machine-readable export for downstream plotting pipelines.
/// Write-only, like every artifact here — nothing in the repo reads it
/// back.
pub fn to_json(chunks: &[ChunkRecord], analysis: &SessionAnalysis) -> String {
    let rows = chunks.iter().map(|c| {
        Json::obj([
            ("index", Json::from(c.index)),
            ("level", Json::from(c.level)),
            ("size", Json::from(c.size)),
            ("started_s", Json::Float(c.started.as_secs_f64())),
            ("completed_s", Json::Float(c.completed.as_secs_f64())),
            ("cell_fraction", Json::Float(c.cell_fraction())),
        ])
    });
    let histogram = analysis.level_histogram.iter().map(|&n| Json::from(n));
    Json::obj([
        ("chunks", Json::arr(rows)),
        ("wifi_body_bytes", Json::from(analysis.wifi_body_bytes)),
        ("cell_body_bytes", Json::from(analysis.cell_body_bytes)),
        ("switches", Json::from(analysis.switches)),
        ("level_histogram", Json::arr(histogram)),
        (
            "mean_download_s",
            Json::Float(analysis.mean_download.as_secs_f64()),
        ),
        ("idle_gaps", Json::from(analysis.idle_gaps)),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn rec(ts: f64, path: PathId, dss: u64, len: u64) -> PktRecord {
        PktRecord {
            t: t(ts),
            path,
            len,
            dss,
            retx: false,
        }
    }

    fn chunk(index: usize, level: usize, dss: (u64, u64), start: f64, end: f64) -> ChunkRecord {
        ChunkRecord {
            index,
            level,
            size: dss.1 - dss.0,
            started: t(start),
            completed: t(end),
            body_dss: DssRange {
                start: dss.0,
                end: dss.1,
            },
            deadline: None,
            requests: 1,
            overlap_bytes: [0; 2],
            first_byte_bytes: [0; 2],
        }
    }

    fn bodies(chunks: &[ChunkRecord]) -> Vec<DssRange> {
        chunks.iter().map(|c| c.body_dss).collect()
    }

    #[test]
    fn attribution_by_dss_overlap() {
        let chunks = [chunk(0, 3, (100, 1100), 0.0, 1.0)];
        let records = [
            rec(0.1, PathId::WIFI, 0, 100),       // header, not body
            rec(0.2, PathId::WIFI, 100, 600),     // body
            rec(0.3, PathId::CELLULAR, 700, 400), // body
        ];
        let splits = chunk_path_splits(records, &bodies(&chunks));
        assert_eq!(splits[0], [600, 400]);
        let attributed = ChunkRecord {
            overlap_bytes: splits[0],
            ..chunks[0]
        };
        assert!((attributed.cell_fraction() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn packet_straddling_two_chunks_splits_correctly() {
        let chunks = [
            chunk(0, 1, (0, 1000), 0.0, 1.0),
            chunk(1, 2, (1200, 2200), 1.0, 2.0), // 200 B of headers between
        ];
        // One packet covers the tail of chunk 0, the header gap, and the
        // head of chunk 1.
        let records = [rec(0.9, PathId::WIFI, 900, 500)];
        let splits = chunk_path_splits(records, &bodies(&chunks));
        assert_eq!(splits, [[100, 0], [200, 0]]);
    }

    #[test]
    fn a_chunk_list_that_starts_mid_video_keeps_its_rows() {
        // Rows are positions in `chunks`; the video index is only a label.
        let chunks = [
            chunk(3, 1, (0, 1000), 0.0, 1.0),
            chunk(4, 2, (1200, 2200), 1.0, 2.0),
            chunk(5, 2, (2400, 3400), 2.0, 3.0),
        ];
        let records = [
            rec(0.5, PathId::WIFI, 0, 1000),
            rec(1.5, PathId::CELLULAR, 1200, 1000),
            rec(2.5, PathId::WIFI, 2400, 1000),
        ];
        assert_eq!(
            chunk_path_splits(records, &bodies(&chunks)),
            [[1000, 0], [0, 1000], [1000, 0]]
        );
    }

    #[test]
    fn analyze_counts_switches_and_levels() {
        let chunks = [
            chunk(0, 2, (0, 10), 0.0, 0.5),
            chunk(1, 3, (10, 20), 1.0, 1.5),
            chunk(2, 3, (20, 30), 2.0, 2.5),
            chunk(3, 2, (30, 40), 3.0, 3.5),
        ];
        let a = analyze(&chunks, 0, 5);
        assert_eq!(a.switches, 2);
        assert_eq!(a.level_histogram, vec![0, 0, 2, 2, 0]);
        assert_eq!(a.mean_download, SimDuration::from_millis(500));
    }

    #[test]
    fn idle_gap_detection() {
        let records = [
            rec(0.0, PathId::WIFI, 0, 10),
            rec(0.1, PathId::WIFI, 10, 10),
            rec(2.0, PathId::WIFI, 20, 10), // 1.9 s gap
            rec(2.1, PathId::WIFI, 30, 10),
        ];
        let gaps = idle_gaps(records, SimDuration::from_millis(500));
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].0, t(0.1));
        assert_eq!(gaps[0].1, SimDuration::from_millis(1900));
    }

    #[test]
    fn chunk_bars_render() {
        let chunks = [ChunkRecord {
            overlap_bytes: [750, 250],
            ..chunk(0, 4, (0, 1000), 0.0, 2.0)
        }];
        let s = render_chunk_bars(&chunks, 8);
        // 25% of 8 cells = 2 '#'.
        assert!(s.contains("##444444"), "bar missing in:\n{s}");
        assert!(s.contains("L4"));
        assert!(s.contains("25%"));
    }

    #[test]
    fn timeline_renders_two_rows() {
        let records = [
            rec(0.5, PathId::WIFI, 0, 100_000),
            rec(1.5, PathId::CELLULAR, 100_000, 50_000),
        ];
        let s = throughput_timeline(
            records,
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("wifi |"));
        assert!(lines[1].starts_with("cell |"));
        // WiFi bucket 0 is the max -> darkest block; cellular bucket 0 empty.
        assert!(lines[0].chars().nth(6) != Some(' '));
        assert_eq!(lines[1].chars().nth(6), Some(' '));
    }

    #[test]
    fn json_export_carries_the_analysis() {
        let chunks = [
            chunk(0, 2, (0, 1000), 0.0, 1.0),
            chunk(1, 3, (1200, 2200), 1.5, 2.5),
        ];
        let records = [
            rec(0.5, PathId::WIFI, 0, 600),
            rec(0.7, PathId::CELLULAR, 600, 400),
            rec(2.0, PathId::WIFI, 1200, 1000),
        ];
        let mut ledger = ChunkLedger::new();
        ledger.on_arrival(records[0]);
        ledger.on_arrival(records[1]);
        ledger.on_chunk(chunks[0]);
        ledger.on_arrival(records[2]);
        ledger.on_chunk(chunks[1]);
        let a = analyze(ledger.chunks(), ledger.idle_gaps(), 5);
        let doc = Json::parse(&to_json(ledger.chunks(), &a)).unwrap();
        let rows = doc.get("chunks").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        let cell = rows[0].get("cell_fraction").and_then(Json::as_f64).unwrap();
        assert!((cell - 0.4).abs() < 1e-9);
        assert_eq!(doc.get("switches").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("wifi_body_bytes").and_then(Json::as_u64),
            Some(1600)
        );
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(
            keys,
            [
                "chunks",
                "wifi_body_bytes",
                "cell_body_bytes",
                "switches",
                "level_histogram",
                "mean_download_s",
                "idle_gaps"
            ]
        );
    }

    #[test]
    fn stall_intervals_pair_up() {
        use mpdash_sim::SimTime as T;
        let ev = [
            (T::from_secs(1), "started", 4.0),
            (T::from_secs(10), "stalled", 0.0),
            (T::from_secs(12), "resumed", 4.0),
            (T::from_secs(20), "stalled", 0.0),
            (T::from_secs(23), "chunk_buffered", 2.0),
        ];
        let iv = stall_intervals(&ev);
        assert_eq!(iv.len(), 2);
        assert_eq!(iv[0], (T::from_secs(10), SimDuration::from_secs(2)));
        // Trailing stall closed at the last event.
        assert_eq!(iv[1], (T::from_secs(20), SimDuration::from_secs(3)));

        let traj = buffer_trajectory(&ev);
        assert_eq!(traj, vec![(T::from_secs(23), 2.0)]);
    }

    #[test]
    fn replay_energy_matches_direct_computation() {
        let records = [
            rec(1.0, PathId::WIFI, 0, 500_000),
            rec(2.0, PathId::CELLULAR, 500_000, 250_000),
        ];
        let device = mpdash_energy::DeviceProfile::galaxy_note();
        let horizon = SimDuration::from_secs(30);
        let via_tool = replay_energy(records, &device, horizon);
        let direct = mpdash_energy::session_energy(
            &device,
            &[(t(1.0), 500_000)],
            &[(t(2.0), 250_000)],
            horizon,
        );
        assert_eq!(via_tool.total_j(), direct.total_j());
        assert!(via_tool.lte.total_j() > via_tool.wifi.total_j());
    }

    #[test]
    fn empty_inputs_are_safe() {
        let a = analyze(&[], 0, 5);
        assert_eq!(a.switches, 0);
        assert_eq!(a.mean_download, SimDuration::ZERO);
        assert!(idle_gaps([], SimDuration::from_secs(1)).is_empty());
    }
}
