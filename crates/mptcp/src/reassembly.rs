//! [`IntervalSet`]: connection-level (data sequence) reassembly.
//!
//! MPTCP stripes one byte stream across subflows; packets arrive out of
//! DSS order whenever paths have different delays. The receiver inserts
//! each packet's `[dss, dss+len)` interval here and delivers the contiguous
//! prefix to the application.

/// A set of disjoint half-open `u64` intervals, merged on insert.
#[derive(Clone, Debug, Default)]
pub struct IntervalSet {
    /// `(start, end)` sorted by start, disjoint and non-adjacent (adjacent
    /// runs are merged). A vector, not a tree: there are as many runs as
    /// the paths' reordering degree, a handful.
    runs: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Insert `[start, end)`, merging with any overlapping or adjacent
    /// runs. Empty intervals are ignored.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Stream order: the packet continues the last run.
        if let Some(last) = self.runs.last_mut().filter(|last| last.1 == start) {
            last.1 = end;
            return;
        }
        // The runs reaching `start` or later, and starting at `end` or
        // earlier, are the ones the new run touches.
        let lo = self.runs.partition_point(|&(_, e)| e < start);
        let hi = self.runs.partition_point(|&(s, _)| s <= end);
        if lo < hi {
            self.runs[lo] = (start.min(self.runs[lo].0), end.max(self.runs[hi - 1].1));
            self.runs.drain(lo + 1..hi);
        } else {
            self.runs.insert(lo, (start, end));
        }
    }

    /// The last run starting at or before `at`.
    fn run_at(&self, at: u64) -> Option<(u64, u64)> {
        let after = self.runs.partition_point(|&(s, _)| s <= at);
        after.checked_sub(1).map(|i| self.runs[i])
    }

    /// True if every byte of `[start, end)` is present.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        start >= end || self.run_at(start).is_some_and(|(_, e)| e >= end)
    }

    /// The end of the contiguous run containing `from`, or `from` itself
    /// if `from` is not covered. This is how the receiver computes the
    /// deliverable prefix: `contiguous_from(rcv_nxt)`.
    pub fn contiguous_from(&self, from: u64) -> u64 {
        self.run_at(from).map_or(from, |(_, e)| e.max(from))
    }

    /// Number of disjoint runs currently held (diagnostics; bounded by the
    /// reordering degree of the paths).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total bytes covered.
    pub fn total_bytes(&self) -> u64 {
        self.runs.iter().map(|&(s, e)| e - s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_inserts_stay_one_run() {
        let mut s = IntervalSet::new();
        s.insert(0, 100);
        s.insert(100, 250);
        s.insert(250, 251);
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.contiguous_from(0), 251);
        assert_eq!(s.total_bytes(), 251);
    }

    #[test]
    fn gap_then_fill() {
        let mut s = IntervalSet::new();
        s.insert(0, 100);
        s.insert(200, 300);
        assert_eq!(s.run_count(), 2);
        assert_eq!(s.contiguous_from(0), 100);
        s.insert(100, 200);
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.contiguous_from(0), 300);
    }

    #[test]
    fn overlapping_and_nested_inserts() {
        let mut s = IntervalSet::new();
        s.insert(10, 50);
        s.insert(30, 70); // overlap right
        s.insert(0, 15); // overlap left
        s.insert(20, 40); // nested
        assert_eq!(s.run_count(), 1);
        assert!(s.covers(0, 70));
        assert!(!s.covers(0, 71));
        assert_eq!(s.contiguous_from(0), 70);
        assert_eq!(s.total_bytes(), 70);
    }

    #[test]
    fn duplicate_packets_are_idempotent() {
        let mut s = IntervalSet::new();
        s.insert(0, 1460);
        s.insert(0, 1460);
        s.insert(0, 1460);
        assert_eq!(s.total_bytes(), 1460);
        assert_eq!(s.run_count(), 1);
    }

    #[test]
    fn contiguous_from_middle_and_uncovered() {
        let mut s = IntervalSet::new();
        s.insert(100, 200);
        assert_eq!(s.contiguous_from(150), 200);
        assert_eq!(s.contiguous_from(0), 0);
        assert_eq!(s.contiguous_from(200), 200, "end is exclusive");
        assert_eq!(s.contiguous_from(500), 500);
    }

    #[test]
    fn empty_interval_ignored() {
        let mut s = IntervalSet::new();
        s.insert(5, 5);
        assert_eq!(s.run_count(), 0);
        assert!(s.covers(3, 3), "empty query trivially covered");
    }

    #[test]
    fn many_disjoint_runs_merge_with_one_spanning_insert() {
        let mut s = IntervalSet::new();
        for i in 0..10u64 {
            s.insert(i * 100, i * 100 + 50);
        }
        assert_eq!(s.run_count(), 10);
        s.insert(0, 1000);
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.total_bytes(), 1000);
    }
}
