//! Spans and counters recorded by the benchmark around its own calls into
//! the program.
//!
//! A span is `{id, parent, trace, name, start_ns, end_ns}`; spans of one
//! stream (one pipeline run, one served session) share a `trace` number.
//! Everything stays in memory until the run ends and is then written as
//! one JSON file. A layer's self time is its span's duration minus the
//! part of it its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// `None` for a root span.
    pub parent: Option<u32>,
    pub trace: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// One thread's recorder. A disabled tracer does nothing but test a flag,
/// so the same code path serves the untraced runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    trace: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    /// `epoch` is the instant `start_ns == 0` stands for; tracers of
    /// several threads share one so their spans line up.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            trace: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// A recorder for another thread of the same run: same switch, same
    /// zero instant.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.enabled, self.epoch)
    }

    /// Spans begun from now on belong to stream `trace`.
    pub fn set_trace(&mut self, trace: u32) {
        self.trace = trace;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            trace: self.trace,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        // Close any span left open below this one: an early return in
        // measured code must not skew the parents of later spans.
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    pub fn count(&mut self, name: &'static str, by: u64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0) += by;
        }
    }

    /// Fold another thread's recording into this one, renumbering its
    /// spans after this tracer's.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        for mut span in other.spans {
            span.id += offset;
            span.parent = span.parent.map(|p| p + offset);
            self.spans.push(span);
        }
        for (name, by) in other.counters {
            *self.counters.entry(name).or_insert(0) += by;
        }
    }

    /// Per span name: how many, their total duration and their self time.
    pub fn by_name(&self) -> Vec<NameTotals> {
        let selfs = self_times(&self.spans);
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let entry = totals.entry(span.name).or_insert(NameTotals {
                name: span.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            entry.count += 1;
            entry.total_ns += span.end_ns.saturating_sub(span.start_ns);
            entry.self_ns += self_ns;
        }
        totals.into_values().collect()
    }

    /// The recording as one document. At most `max_spans` spans are
    /// written out (`spans_total` says how many there were); the totals by
    /// name always cover them all.
    pub fn to_json(&self, workload: &str, max_spans: usize) -> Json {
        let spans = self
            .spans
            .iter()
            .take(max_spans)
            .map(|s| {
                Json::obj(vec![
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("trace", Json::Num(s.trace as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let by_name = self
            .by_name()
            .into_iter()
            .map(|t| {
                Json::obj(vec![
                    ("name", Json::str(t.name)),
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, n)| (name.to_string(), Json::Num(*n as f64)))
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("by_name", Json::Arr(by_name)),
            ("counters", Json::Obj(counters)),
            ("spans_total", Json::Num(self.spans.len() as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct NameTotals {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of each span, in the order given: its duration minus the
/// durations of its direct children. Children of one parent are recorded
/// by one thread and never overlap, so their sum is the covered part.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| index.get(&p)) {
            covered[*parent] += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn nesting_follows_begin_and_end() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_trace(7);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        let sibling = t.begin("inner");
        t.end(sibling);
        t.end(outer);
        let root = t.begin("root2");
        t.end(root);
        let spans = &t.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.trace == 7 && s.end_ns >= s.start_ns));
        let totals = t.by_name();
        let inner = totals.iter().find(|n| n.name == "inner").unwrap();
        assert_eq!(inner.count, 2);
        let outer = totals.iter().find(|n| n.name == "outer").unwrap();
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let s = t.begin("x");
        t.end(s);
        t.count("c", 3);
        assert!(t.spans.is_empty());
        assert_eq!(t.to_json("w", 10).get("counters"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn absorbing_renumbers_spans_and_adds_counters() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let s = a.begin("a");
        a.end(s);
        a.count("n", 1);
        let mut b = Tracer::new(true, epoch);
        let outer = b.begin("b");
        let inner = b.begin("b.inner");
        b.end(inner);
        b.end(outer);
        b.count("n", 2);
        a.absorb(b);
        assert_eq!(a.spans[2].id, 2);
        assert_eq!(a.spans[2].parent, Some(1));
        let json = a.to_json("w", 2);
        assert_eq!(
            json.get("counters").unwrap().get("n"),
            Some(&Json::Num(3.0))
        );
        assert_eq!(json.get("spans_total"), Some(&Json::Num(3.0)));
        assert!(matches!(json.get("spans"), Some(Json::Arr(written)) if written.len() == 2));
    }
}
