//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end on one monotonic clock, the span that
//! caused it, and the circuit × pass it belongs to. Spans stay in memory
//! while the run measures and are written out once it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// The circuit × pass a span belongs to: spans of one circuit run share it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Unit {
    /// Index of the circuit in the workload's circuit list.
    pub circuit: usize,
    /// Pass number within the run (set-up passes first).
    pub pass: usize,
}

/// One call into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.function`, e.g. `core.maj` or `techmap.map`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while still open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Circuit × pass id.
    pub unit: Unit,
}

/// Span recorder. A disabled tracer records nothing and never reads the
/// clock, so untraced passes pay one branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    unit: Unit,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            unit: Unit::default(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Attributes the spans that follow to `unit`.
    pub fn set_unit(&mut self, unit: Unit) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when recording is off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            unit: self.unit,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span returned by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Drops the spans recorded after the first `len` (those of a circuit
    /// run that panicked, some of which never closed).
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once, and the parts
/// of children outside the parent's interval do not count.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let (lo, hi) = (s.start_ns, s.end_ns.max(s.start_ns));
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(reach, hi), b.clamp(reach, hi));
                covered += b - a;
                reach = b;
            }
            (hi - lo) - covered
        })
        .collect()
}

/// Renders the spans that `keep` selects as JSON lines, one object per
/// span, with its self time. Ids are indices into `spans`.
pub fn to_jsonl(spans: &[Span], self_ns: &[u64], keep: impl Fn(&Span) -> bool) -> String {
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(self_ns).enumerate() {
        if !keep(s) {
            continue;
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"circuit\":{},\"pass\":{}}}",
            s.name, s.start_ns, s.end_ns, s.unit.circuit, s.unit.pass
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            unit: Unit::default(),
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, 100, None),
            span(10, 20, Some(0)),
            span(50, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children cover [10, 50] and [90, 100] of the parent: 50 ns.
        let spans = [
            span(0, 100, None),
            span(20, 50, Some(0)),
            span(10, 30, Some(0)),
            span(25, 40, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn self_time_ignores_grandchildren_and_child_overhang() {
        let spans = [
            span(10, 100, None),
            span(0, 30, Some(0)), // overhangs the parent's start
            span(40, 60, Some(0)),
            span(45, 55, Some(2)), // belongs to the child, not the root
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 10, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", None, || 7), 7);
        assert_eq!(t.len(), 0);
        t.set_on(true);
        let outer = t.open("outer", None);
        t.time("inner", outer, || ());
        t.close(outer);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let jsonl = to_jsonl(t.spans(), &self_times(t.spans()), |s| s.name == "inner");
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.starts_with("{\"id\":1,\"name\":\"inner\""));
        assert!(jsonl.contains("\"parent\":0,"));
    }
}
