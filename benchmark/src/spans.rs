//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's side of each crate boundary — around
//! the calls into `lhr-trace`, `lhr-proto`, `lhr-obs`, … — kept in a vector
//! while the run measures, and written out once at exit. A recorder built
//! with [`Spans::disabled`] runs the same closures without recording, which
//! is how the tracing overhead itself is measured.

use lhr_util::json::{Json, ToJson};
use std::time::Instant;

/// One closed span. `iter` is the identifier every span of one pipeline
/// iteration (one "request" through the system) shares.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub iter: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    iter: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            enabled: true,
            origin: Instant::now(),
            iter: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing: `span` only calls its closure.
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::new()
        }
    }

    /// Sets the iteration identifier stamped on spans opened from now on.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Runs `f` inside a span named `name`, a child of the span currently
    /// open (if any). The span closes when `f` returns.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            iter: self.iter,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// The shortest span called `name` — the least-noisy estimate of a
    /// deterministic stage's cost. `None` when no such span was recorded.
    pub fn min_ns(&self, name: &str) -> Option<f64> {
        self.durations_ns(name).into_iter().reduce(f64::min)
    }

    /// A span's self time: its duration minus the time its direct children
    /// cover. Children of one parent never overlap here (one thread, one
    /// open span at a time), so their durations add up to that cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// One JSON object per span, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::Object(vec![
                ("id".to_string(), (s.id as u64).to_json()),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| (p as u64).to_json()),
                ),
                ("name".to_string(), s.name.to_json()),
                ("iter".to_string(), (s.iter as u64).to_json()),
                ("start_ns".to_string(), s.start_ns.to_json()),
                ("end_ns".to_string(), s.end_ns.to_json()),
                ("self_ns".to_string(), self.self_ns(s.id).to_json()),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-set times: pipeline [0, 100] ⊃ read [10, 40],
    /// replay [40, 90] ⊃ merge [50, 60].
    fn fixture() -> Spans {
        let mut spans = Spans::new();
        let mk = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            iter: 0,
            start_ns,
            end_ns,
        };
        spans.spans = vec![
            mk(0, None, "pipeline", 0, 100),
            mk(1, Some(0), "read", 10, 40),
            mk(2, Some(0), "replay", 40, 90),
            mk(3, Some(2), "merge", 50, 60),
        ];
        spans
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = fixture();
        assert_eq!(spans.self_ns(0), 100 - 30 - 50);
        assert_eq!(spans.self_ns(1), 30);
        assert_eq!(spans.self_ns(2), 50 - 10);
        assert_eq!(spans.self_ns(3), 10);
        // Self times of a tree add up to the root's duration.
        let total: u64 = (0..4).map(|id| spans.self_ns(id)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn recorded_spans_nest_and_carry_the_iteration() {
        let mut spans = Spans::new();
        spans.set_iter(7);
        let out = spans.span("outer", |s| s.span("inner", |_| 42));
        assert_eq!(out, 42);
        let all = &spans.spans;
        assert_eq!(all.len(), 2);
        assert_eq!(
            (all[0].name, all[0].parent, all[0].iter),
            ("outer", None, 7)
        );
        assert_eq!((all[1].name, all[1].parent), ("inner", Some(0)));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        assert_eq!(spans.min_ns("outer"), Some(all[0].duration_ns() as f64));
        assert_eq!(spans.min_ns("absent"), None);
    }

    #[test]
    fn disabled_recorder_runs_the_closure_and_records_nothing() {
        let mut spans = Spans::disabled();
        assert_eq!(spans.span("x", |s| s.span("y", |_| 1) + 1), 2);
        assert!(spans.spans.is_empty());
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let text = fixture().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let replay = Json::parse(lines[2]).unwrap();
        assert_eq!(replay.get("name").and_then(Json::as_str), Some("replay"));
        assert_eq!(replay.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(replay.get("self_ns").and_then(Json::as_f64), Some(40.0));
    }
}
