//! Harness-side spans: recorded around the calls into each layer, kept
//! in memory, written out once at exit. Single-threaded, so the open
//! spans form a stack and a child always lies inside its parent.

use mpdash_results::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(usize);

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The session or fleet this span belongs to; shared by a unit's spans.
    pub unit: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span batches (1 unless stated).
    pub count: u64,
}

pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, unit: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            count: 1,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    pub fn exit(&mut self, id: SpanId) {
        self.exit_counted(id, 1);
    }

    /// Close `id` (and any span still open inside it) as a batch of
    /// `count` operations.
    pub fn exit_counted(&mut self, id: SpanId, count: u64) {
        let end_ns = self.now_ns();
        self.spans[id.0].count = count;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id.0 {
                break;
            }
        }
    }

    /// Close whatever a panicking unit left open.
    pub fn close_all(&mut self) {
        let end_ns = self.now_ns();
        for top in self.open.drain(..) {
            self.spans[top].end_ns = end_ns;
        }
    }

    /// Add, inside the closed span `parent`, one span per phase standing
    /// for all the time the callee reports having spent in that phase,
    /// over `count` operations. The phases are laid end to end from the
    /// parent's start: their lengths are measured, their positions are
    /// not. The parent's self time becomes what no phase accounts for.
    pub fn phases(&mut self, parent: SpanId, phases: &[(&'static str, u64, u64)]) {
        let Span { unit, start_ns, .. } = self.spans[parent.0];
        let mut at = start_ns;
        for &(name, ns, count) in phases {
            self.spans.push(Span {
                name,
                unit,
                parent: Some(parent.0),
                start_ns: at,
                end_ns: at + ns,
                count,
            });
            at += ns;
        }
    }

    /// Per span: its duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Per span name: (spans, operations, total ns, self ns).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64, u64)> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let row = out.entry(s.name).or_insert((0, 0, 0, 0));
            row.0 += 1;
            row.1 += s.count;
            row.2 += s.end_ns - s.start_ns;
            row.3 += own;
        }
        out
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let own = self.self_times();
        let spans = self.spans.iter().enumerate().map(|(i, s)| {
            Json::obj([
                ("id", Json::from(i)),
                ("name", Json::from(s.name)),
                ("unit", Json::from(s.unit)),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("self_ns", Json::from(own[i])),
                ("count", Json::from(s.count)),
            ])
        });
        let by_name = self.by_name().into_iter().map(|(name, r)| {
            Json::obj([
                ("name", Json::from(name)),
                ("spans", Json::from(r.0)),
                ("count", Json::from(r.1)),
                ("total_ns", Json::from(r.2)),
                ("self_ns", Json::from(r.3)),
            ])
        });
        Json::obj([
            ("workload", Json::from(workload)),
            ("seed", Json::from(seed)),
            ("by_name", Json::arr(by_name)),
            ("spans", Json::arr(spans)),
        ])
    }
}

fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            unit: 0,
            parent,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root [0,100) > a [10,40) > b [15,25); root > c [50,90)
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(1), 15, 25),
            span(Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_parents_by_nesting_and_closes_inner_spans() {
        let mut s = Spans::new();
        let root = s.enter("root", 7);
        let a = s.enter("a", 7);
        s.exit(a);
        let b = s.enter("b", 7);
        let _leaked = s.enter("leaked", 7);
        s.exit_counted(b, 5);
        s.exit(root);
        let parents: Vec<_> = s.spans.iter().map(|x| x.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert_eq!(s.spans[2].count, 5);
        assert_eq!(s.spans[3].end_ns, s.spans[2].end_ns);
        let total: u64 = s.self_times().iter().sum();
        assert_eq!(total, s.spans[0].end_ns - s.spans[0].start_ns);
        assert_eq!(s.by_name()["b"].1, 5);
    }

    #[test]
    fn phases_take_their_time_out_of_the_parents_self_time() {
        let mut s = Spans::new();
        let run = s.enter("run", 1);
        s.exit(run);
        s.spans[0].end_ns = s.spans[0].start_ns + 1_000;
        s.phases(run, &[("peek", 600, 10), ("step", 300, 7)]);
        assert_eq!(s.self_times(), vec![100, 600, 300]);
        assert_eq!(s.spans[2].start_ns, s.spans[1].end_ns);
        assert_eq!((s.spans[2].parent, s.spans[2].unit), (Some(0), 1));
        assert_eq!(s.by_name()["step"], (1, 7, 300, 300));
    }
}
