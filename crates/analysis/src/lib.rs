//! The Multipath Video Analysis Tool (§6 of the paper).
//!
//! The authors built a ~3,000-line C++ tool that takes a packet trace plus
//! a player event log, correlates them across protocol layers (MPTCP /
//! HTTP / DASH), and reports path utilization, rebuffering, quality
//! switches and energy, with a chunk-bar visualization (the paper's
//! Figure 8). This crate is that tool for the simulated stack:
//!
//! * input: the receiver's packet capture, as any pass over its
//!   [`PktRecord`]s (a `&PacketLog` is one), and the session's per-chunk
//!   log ([`ChunkInfo`], carrying each body's connection-stream range);
//! * correlation: per-chunk per-path byte attribution by intersecting
//!   packet DSS ranges with chunk body ranges;
//! * outputs: [`SessionAnalysis`] (the metrics) and
//!   [`render_chunk_bars`] / [`throughput_timeline`] (text
//!   visualizations in the spirit of Figure 8).

use mpdash_dash::player::PlayerEvent;
use mpdash_energy::{radio_energy_of, DeviceProfile, SessionEnergy};
use mpdash_link::PathId;
use mpdash_mptcp::PktRecord;
use mpdash_results::Json;
use mpdash_sim::{SimDuration, SimTime};

/// One fetched chunk, as the analysis tool needs it. (The session layer
/// converts its own log into this; the tool itself stays independent of
/// the driver.)
#[derive(Clone, Copy, Debug)]
pub struct ChunkInfo {
    /// Chunk index.
    pub index: usize,
    /// Quality level fetched (0-based, ascending).
    pub level: usize,
    /// Body bytes.
    pub size: u64,
    /// Request issue time.
    pub started: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// Connection-stream byte range `[start, end)` of the body.
    pub body_dss: (u64, u64),
}

/// Per-chunk path attribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChunkPathSplit {
    /// Chunk index.
    pub index: usize,
    /// Body bytes that arrived over WiFi.
    pub wifi_bytes: u64,
    /// Body bytes that arrived over cellular.
    pub cell_bytes: u64,
}

impl ChunkPathSplit {
    /// Fraction of the chunk's attributed bytes that used cellular.
    pub fn cell_fraction(&self) -> f64 {
        let total = self.wifi_bytes + self.cell_bytes;
        if total == 0 {
            0.0
        } else {
            self.cell_bytes as f64 / total as f64
        }
    }
}

/// Session-level metrics computed by the tool.
#[derive(Clone, Debug)]
pub struct SessionAnalysis {
    /// Per-chunk path splits, chunk order.
    pub splits: Vec<ChunkPathSplit>,
    /// Total bytes per path attributed to video bodies.
    pub wifi_body_bytes: u64,
    /// Total cellular body bytes.
    pub cell_body_bytes: u64,
    /// Level-change count between consecutive chunks.
    pub switches: u64,
    /// Chunks per level.
    pub level_histogram: Vec<usize>,
    /// Mean chunk download duration.
    pub mean_download: SimDuration,
    /// Idle gaps between packets longer than the configured threshold
    /// (start, length) — the gaps MP-DASH "eliminates" in Figure 8.
    pub idle_gaps: Vec<(SimTime, SimDuration)>,
}

/// Attribute each chunk's body bytes to paths by intersecting packet DSS
/// ranges with the chunk's body range. Retransmitted duplicates count on
/// the path they arrived on (they cost that radio's bytes), so per-chunk
/// attribution can slightly exceed the body size — exactly like counting
/// wire bytes in a real capture.
pub fn chunk_path_splits(
    records: impl IntoIterator<Item = PktRecord>,
    chunks: &[ChunkInfo],
) -> Vec<ChunkPathSplit> {
    let mut out: Vec<ChunkPathSplit> = chunks
        .iter()
        .map(|c| ChunkPathSplit {
            index: c.index,
            wifi_bytes: 0,
            cell_bytes: 0,
        })
        .collect();
    if chunks.is_empty() {
        return out;
    }
    // Chunks are stream-ordered; walk records with binary search on the
    // body ranges.
    let starts: Vec<u64> = chunks.iter().map(|c| c.body_dss.0).collect();
    for r in records {
        let (lo, hi) = (r.dss, r.dss + r.len);
        // Candidate chunk: the last one whose body start is <= lo.
        let idx = match starts.binary_search(&lo) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        // A packet can straddle a response-header/body boundary; check
        // this chunk and the next for overlap.
        for (c, split) in chunks.iter().zip(&mut out).skip(idx).take(2) {
            let (bs, be) = c.body_dss;
            let ov_lo = lo.max(bs);
            let ov_hi = hi.min(be);
            if ov_hi > ov_lo {
                match r.path {
                    PathId::WIFI => split.wifi_bytes += ov_hi - ov_lo,
                    PathId::CELLULAR => split.cell_bytes += ov_hi - ov_lo,
                    _ => {}
                }
            }
        }
    }
    out
}

/// Idle gaps between consecutive packets exceeding `min_gap`.
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

/// Run the full analysis (two passes over `records`).
pub fn analyze(
    records: impl IntoIterator<Item = PktRecord> + Clone,
    chunks: &[ChunkInfo],
    n_levels: usize,
) -> SessionAnalysis {
    let splits = chunk_path_splits(records.clone(), chunks);
    let wifi_body_bytes = splits.iter().map(|s| s.wifi_bytes).sum();
    let cell_body_bytes = splits.iter().map(|s| s.cell_bytes).sum();
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
        splits,
        wifi_body_bytes,
        cell_body_bytes,
        switches,
        level_histogram: histogram,
        mean_download,
        idle_gaps: idle_gaps(records, SimDuration::from_millis(500)),
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
pub fn render_chunk_bars(chunks: &[ChunkInfo], splits: &[ChunkPathSplit], width: usize) -> String {
    assert_eq!(chunks.len(), splits.len(), "one split per chunk");
    let mut out = String::new();
    out.push_str("idx | lvl |    size |  dl time | cell% | path share (#=cellular)\n");
    for (c, s) in chunks.iter().zip(splits) {
        let dl = c.completed.saturating_since(c.started);
        let frac = s.cell_fraction();
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

/// Pair up `Stalled`/`Resumed` entries of a player event log into
/// rebuffering intervals `(start, duration)` — the §6 tool's rebuffering
/// report. A trailing unresumed stall is closed at the log's last event.
pub fn stall_intervals(events: &[PlayerEvent]) -> Vec<(SimTime, SimDuration)> {
    let mut out = Vec::new();
    let mut open: Option<SimTime> = None;
    let mut last = SimTime::ZERO;
    for e in events {
        let at = match *e {
            PlayerEvent::Started { at }
            | PlayerEvent::Stalled { at }
            | PlayerEvent::Resumed { at }
            | PlayerEvent::Finished { at }
            | PlayerEvent::ChunkDone { at, .. } => at,
        };
        last = last.max(at);
        match *e {
            PlayerEvent::Stalled { at } => open = Some(at),
            PlayerEvent::Resumed { at } => {
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

/// Buffer-occupancy samples from a player event log: `(time, seconds)`
/// at every chunk completion — enough to plot the buffer trajectory.
pub fn buffer_trajectory(events: &[PlayerEvent]) -> Vec<(SimTime, f64)> {
    events
        .iter()
        .filter_map(|e| match *e {
            PlayerEvent::ChunkDone { at, buffer, .. } => Some((at, buffer.as_secs_f64())),
            _ => None,
        })
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
pub fn to_json(chunks: &[ChunkInfo], analysis: &SessionAnalysis) -> String {
    let rows = chunks.iter().zip(&analysis.splits).map(|(c, s)| {
        Json::obj([
            ("index", Json::from(c.index)),
            ("level", Json::from(c.level)),
            ("size", Json::from(c.size)),
            ("started_s", Json::Float(c.started.as_secs_f64())),
            ("completed_s", Json::Float(c.completed.as_secs_f64())),
            ("cell_fraction", Json::Float(s.cell_fraction())),
        ])
    });
    let histogram = analysis.level_histogram.iter().map(|&n| Json::from(n));
    let idle_gaps = analysis
        .idle_gaps
        .iter()
        .map(|&(t, d)| Json::arr([Json::Float(t.as_secs_f64()), Json::Float(d.as_secs_f64())]));
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
        ("idle_gaps", Json::arr(idle_gaps)),
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

    fn chunk(index: usize, level: usize, dss: (u64, u64), start: f64, end: f64) -> ChunkInfo {
        ChunkInfo {
            index,
            level,
            size: dss.1 - dss.0,
            started: t(start),
            completed: t(end),
            body_dss: dss,
        }
    }

    #[test]
    fn attribution_by_dss_overlap() {
        let chunks = [chunk(0, 3, (100, 1100), 0.0, 1.0)];
        let records = [
            rec(0.1, PathId::WIFI, 0, 100),       // header, not body
            rec(0.2, PathId::WIFI, 100, 600),     // body
            rec(0.3, PathId::CELLULAR, 700, 400), // body
        ];
        let splits = chunk_path_splits(records, &chunks);
        assert_eq!(splits[0].wifi_bytes, 600);
        assert_eq!(splits[0].cell_bytes, 400);
        assert!((splits[0].cell_fraction() - 0.4).abs() < 1e-9);
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
        let splits = chunk_path_splits(records, &chunks);
        assert_eq!(splits[0].wifi_bytes, 100);
        assert_eq!(splits[1].wifi_bytes, 200);
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
        let row = |index, wifi_bytes, cell_bytes| ChunkPathSplit {
            index,
            wifi_bytes,
            cell_bytes,
        };
        assert_eq!(
            chunk_path_splits(records, &chunks),
            [row(3, 1000, 0), row(4, 0, 1000), row(5, 1000, 0)]
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
        let a = analyze([], &chunks, 5);
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
        let chunks = [chunk(0, 4, (0, 1000), 0.0, 2.0)];
        let splits = [ChunkPathSplit {
            index: 0,
            wifi_bytes: 750,
            cell_bytes: 250,
        }];
        let s = render_chunk_bars(&chunks, &splits, 8);
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
        let a = analyze(records, &chunks, 5);
        let doc = Json::parse(&to_json(&chunks, &a)).unwrap();
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
            PlayerEvent::Started {
                at: T::from_secs(1),
            },
            PlayerEvent::Stalled {
                at: T::from_secs(10),
            },
            PlayerEvent::Resumed {
                at: T::from_secs(12),
            },
            PlayerEvent::Stalled {
                at: T::from_secs(20),
            },
            PlayerEvent::ChunkDone {
                at: T::from_secs(23),
                index: 5,
                level: 1,
                buffer: SimDuration::from_secs(2),
            },
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
        let a = analyze([], &[], 5);
        assert!(a.splits.is_empty());
        assert_eq!(a.switches, 0);
        assert_eq!(a.mean_download, SimDuration::ZERO);
        assert!(idle_gaps([], SimDuration::from_secs(1)).is_empty());
    }
}
