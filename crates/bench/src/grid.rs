//! One enumeration per experiment grid.
//!
//! An experiment lists its cells **once**: each cell is a key — the
//! tuple of axis values that names it, e.g. `(clients, mode, sched)` —
//! plus the config it runs. [`Grid::run`] fans the cells over the typed
//! batch runner ([`mpdash_session::run_batch`]) and hands the fold a
//! [`Grid`] of results it walks in construction order (`iter`,
//! `sections`) and cross-references by key (`grid[(abr, cond,
//! "Baseline")]`) — so no fold re-enumerates the axes, and a baseline is
//! named, not counted to.
//!
//! **Keying rule:** a key holds the axis values in the order the cells
//! were nested, every key in a grid is distinct (checked), and a lookup
//! of a key that names no cell panics with the key — never a silent
//! default.

use mpdash_session::{run_batch, Job, SessionConfig, SessionReport, StreamingSession};
use std::fmt::Debug;
use std::ops::Index;

/// The results of one experiment grid, keyed by cell, in construction
/// order.
pub struct Grid<K, R> {
    cells: Vec<(K, R)>,
}

impl<K: PartialEq + Debug, R: Send> Grid<K, R> {
    /// Run `work` on every cell's config, on `workers` threads. The
    /// result is independent of `workers` (see [`run_batch`]).
    ///
    /// # Panics
    /// On a duplicate key, and — naming the cell's key — when a cell's
    /// work panicked.
    pub fn run<C: Sync>(workers: usize, cells: Vec<(K, C)>, work: impl Fn(&C) -> R + Sync) -> Self {
        let (keys, configs): (Vec<K>, Vec<C>) = cells.into_iter().unzip();
        for (i, key) in keys.iter().enumerate() {
            assert!(!keys[..i].contains(key), "duplicate grid key {key:?}");
        }
        let work = &work;
        let jobs = keys
            .iter()
            .zip(&configs)
            .map(|(key, cfg)| Job::new(format!("{key:?}"), move || work(cfg)))
            .collect();
        let cells = keys
            .into_iter()
            .zip(run_batch(jobs, workers))
            .map(|(key, done)| match done.report {
                Ok(r) => (key, r),
                Err(e) => panic!("grid cell {}: {e}", done.label),
            })
            .collect();
        Grid { cells }
    }
}

impl<K: PartialEq + Debug> Grid<K, SessionReport> {
    /// A grid of streaming sessions, one per cell. A report's packet log
    /// (`records`, megabytes a session) is dropped on the worker that ran
    /// it, so the grid holds what a fold over byte counts, energy and QoE
    /// reads; an experiment that reads the log asks for
    /// [`Grid::sessions_with_log`].
    pub fn sessions(workers: usize, cells: Vec<(K, SessionConfig)>) -> Self {
        Grid::run(workers, cells, |cfg| SessionReport {
            records: Default::default(),
            ..StreamingSession::run(cfg.clone())
        })
    }

    /// [`Grid::sessions`], every report keeping its packet log.
    pub fn sessions_with_log(workers: usize, cells: Vec<(K, SessionConfig)>) -> Self {
        Grid::run(workers, cells, |cfg| StreamingSession::run(cfg.clone()))
    }
}

impl<K, R> Grid<K, R> {
    /// Every cell, in construction order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &R)> {
        self.cells.iter().map(|(k, r)| (k, r))
    }

    /// Consecutive runs of cells that agree on `of(key)` — the outer
    /// axes of the nest that built the grid — each with its cells in
    /// construction order: one table per ABR, one baseline per row group.
    pub fn sections<'a, S: PartialEq>(
        &'a self,
        of: impl Fn(&K) -> S + Copy + 'a,
    ) -> impl Iterator<Item = (S, &'a [(K, R)])> + 'a {
        self.cells
            .chunk_by(move |a, b| of(&a.0) == of(&b.0))
            .map(move |run| (of(&run[0].0), run))
    }
}

impl<K: PartialEq + Debug, R> Index<K> for Grid<K, R> {
    type Output = R;

    /// The cell `key` names.
    ///
    /// # Panics
    /// When no cell has that key.
    fn index(&self, key: K) -> &R {
        match self.cells.iter().find(|(k, _)| *k == key) {
            Some((_, r)) => r,
            None => panic!("no grid cell {key:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(workers: usize) -> Grid<(u32, &'static str), u32> {
        let mut cells = Vec::new();
        for n in [1u32, 2, 3] {
            for name in ["plain", "squared"] {
                cells.push(((n, name), (n, name == "squared")));
            }
        }
        Grid::run(workers, cells, |&(n, sq)| if sq { n * n } else { n })
    }

    #[test]
    fn results_come_back_by_key_and_in_construction_order() {
        let grid = squares(3);
        assert_eq!(grid[(3, "squared")], 9);
        assert_eq!(grid[(2, "plain")], 2);
        let keys: Vec<_> = grid.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys[0], (1, "plain"));
        assert_eq!(keys[5], (3, "squared"));
        let seq: Vec<_> = squares(1).iter().map(|(_, r)| *r).collect();
        assert_eq!(seq, grid.iter().map(|(_, r)| *r).collect::<Vec<_>>());
    }

    #[test]
    fn sections_group_consecutive_cells_by_their_outer_axes() {
        let grid = squares(2);
        let sections: Vec<_> = grid.sections(|k| k.0).collect();
        assert_eq!(sections.len(), 3);
        for (n, cells) in sections {
            assert_eq!(cells.len(), 2);
            assert!(cells.iter().all(|((m, _), _)| *m == n));
        }
    }

    /// What crosses the batch boundary: `sessions` keeps everything of a
    /// report but its packet log, `sessions_with_log` the log too.
    #[test]
    fn a_session_cell_keeps_its_packet_log_only_when_asked() {
        use mpdash_dash::{abr::AbrKind, video::Video};
        use mpdash_session::TransportMode;
        use mpdash_sim::SimDuration;
        let video = Video::new("tiny", &[0.5, 1.0], SimDuration::from_secs(2), 4);
        let cells: Vec<_> = [TransportMode::Vanilla, TransportMode::mpdash_rate_based()]
            .into_iter()
            .map(|mode| {
                let cfg = SessionConfig::controlled_mbps(3.8, 3.0, AbrKind::Gpac, mode);
                (mode, cfg.with_video(video.clone()))
            })
            .collect();
        let bare = Grid::sessions(2, cells.clone());
        let logged = Grid::sessions_with_log(2, cells.clone());
        for (mode, cfg) in cells {
            let direct = StreamingSession::run(cfg);
            assert!(!direct.records.is_empty());
            assert!(bare[mode].records.is_empty());
            assert!(logged[mode].records == direct.records);
            for r in [&bare[mode], &logged[mode]] {
                assert_eq!(
                    r.wifi_bytes + r.cell_bytes,
                    direct.wifi_bytes + direct.cell_bytes
                );
                assert_eq!(r.energy, direct.energy);
                assert_eq!(r.qoe, direct.qoe);
                assert_eq!(
                    r.summary_json().to_pretty(),
                    direct.summary_json().to_pretty()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "no grid cell (4, \"plain\")")]
    fn a_missing_key_is_a_loud_error() {
        let _ = squares(1)[(4, "plain")];
    }

    #[test]
    #[should_panic(expected = "duplicate grid key 7")]
    fn duplicate_keys_are_refused() {
        Grid::run(1, vec![(7, ()), (7, ())], |_| ());
    }

    #[test]
    #[should_panic(expected = "grid cell \"bad\": job panicked: cell failed")]
    fn a_panicking_cell_fails_the_grid_naming_its_key() {
        Grid::run(2, vec![("ok", false), ("bad", true)], |&fail| {
            assert!(!fail, "cell failed");
        });
    }
}
