//! In-memory span recorder with Chrome trace-event export.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (and, for the map/shuffle/reduce phases, derived from the durations the
//! cluster reports). They stay in memory until the run ends, then are
//! written once as trace-event JSON, which Perfetto and `chrome://tracing`
//! open.

use serde_json::Value;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `botelim.compile` or `dfs.load`.
    pub name: String,
    /// Offset of the start from the tracer's origin.
    pub start: Duration,
    /// Offset of the end from the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Job execution the span belongs to (0 for set-up and analysis).
    pub exec: u64,
    /// True when the interval was laid out from reported phase durations
    /// instead of timed around a call.
    pub derived: bool,
}

/// Span recorder for one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
    exec: u64,
}

impl Tracer {
    /// Empty recorder whose spans all carry `workload`.
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
            exec: 0,
        }
    }

    /// Attribute the spans that follow to job execution `exec`.
    pub fn set_exec(&mut self, exec: u64) {
        self.exec = exec;
    }

    /// Time `f` as a span named `name`, nested in the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, usize) {
        let id = self.push(name, Instant::now(), Instant::now(), false);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        (out, id)
    }

    /// Record a finished interval, nested in the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) -> usize {
        self.push(name, start, end, false)
    }

    /// Record a derived child of `parent` starting `offset` after it and
    /// lasting `len`.
    pub fn derived(&mut self, parent: usize, name: &str, offset: Duration, len: Duration) -> usize {
        let start = self.spans[parent].start + offset;
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start + len,
            parent: Some(parent),
            exec: self.exec,
            derived: true,
        });
        self.spans.len() - 1
    }

    fn push(&mut self, name: &str, start: Instant, end: Instant, derived: bool) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin);
        self.spans.push(Span {
            name: name.to_string(),
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            exec: self.exec,
            derived,
        });
        self.spans.len() - 1
    }

    /// All spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`'s duration minus the part of its interval that its
    /// children cover (overlapping children counted once).
    pub fn self_time(&self, id: usize) -> Duration {
        let span = &self.spans[id];
        let children = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start.max(span.start), c.end.min(span.end)));
        span.end.saturating_sub(span.start) - covered(children)
    }

    /// Chrome trace-event JSON ("complete" events, microseconds).
    pub fn to_chrome_json(&self) -> String {
        let us = |d: Duration| Value::Float(d.as_secs_f64() * 1e6);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("workload".to_string(), Value::Str(self.workload.clone())),
                    ("exec".to_string(), Value::UInt(s.exec)),
                    ("id".to_string(), Value::UInt(id as u64)),
                    ("self_us".to_string(), us(self.self_time(id))),
                    ("derived".to_string(), Value::Bool(s.derived)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Value::UInt(p as u64)));
                }
                let layer = s.name.split('.').next().unwrap_or_default();
                Value::Object(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("cat".to_string(), Value::Str(layer.to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), us(s.start)),
                    ("dur".to_string(), us(s.end.saturating_sub(s.start))),
                    ("pid".to_string(), Value::UInt(1)),
                    ("tid".to_string(), Value::UInt(1)),
                    ("args".to_string(), Value::Object(args)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ]);
        serde_json::to_string(&doc).expect("a Value tree always serializes")
    }
}

/// Length of the union of `intervals` (empty or inverted ones add nothing).
fn covered(intervals: impl Iterator<Item = (Duration, Duration)>) -> Duration {
    let mut iv: Vec<_> = intervals.filter(|(s, e)| e > s).collect();
    iv.sort();
    let mut total = Duration::ZERO;
    let mut reach = Duration::ZERO;
    for (s, e) in iv {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn tracer_with(root: (u64, u64), children: &[(u64, u64)]) -> Tracer {
        let mut t = Tracer::new("test");
        t.spans.push(Span {
            name: "root".into(),
            start: ms(root.0),
            end: ms(root.1),
            parent: None,
            exec: 0,
            derived: false,
        });
        for &(s, e) in children {
            t.derived(0, "child", ms(s - root.0), ms(e - s));
        }
        t
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = tracer_with((0, 100), &[(10, 30), (50, 60)]);
        assert_eq!(t.self_time(0), ms(70));
        assert_eq!(t.self_time(1), ms(20));
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let t = tracer_with((0, 100), &[(10, 40), (30, 50), (45, 60)]);
        assert_eq!(t.self_time(0), ms(50));
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let t = tracer_with((10, 100), &[(90, 130)]);
        assert_eq!(t.self_time(0), ms(80));
        let all = tracer_with((0, 10), &[(0, 10)]);
        assert_eq!(all.self_time(0), Duration::ZERO);
    }

    #[test]
    fn spans_nest_and_export_as_trace_events() {
        let mut t = Tracer::new("w");
        t.set_exec(3);
        let (_, outer) = t.span("outer.s", |t| {
            t.span("inner.s", |_| std::hint::black_box(1 + 1));
        });
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[1].exec, 3);
        let doc = serde_json::parse(&t.to_chrome_json()).unwrap();
        let events = match doc.field("traceEvents").unwrap() {
            Value::Array(e) => e,
            other => panic!("traceEvents is {other:?}"),
        };
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0].field("ph").unwrap(), Value::Str(p) if p == "X"));
        assert!(matches!(events[1].field("cat").unwrap(), Value::Str(c) if c == "inner"));
    }
}
