//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (seconds since the tracer was
//! created), the span that was open when it started, and the id of the
//! operation (table row or serve request) it belongs to. Spans stay in
//! memory and are written out once, when the run ends. A disabled tracer
//! calls straight through and records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `solver.solve_s.2obj`.
    pub name: String,
    /// Start, in seconds since the tracer's origin.
    pub start: f64,
    /// End, in seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (row or request) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Id stamped on spans started from now on.
    pub request: u64,
}

impl Tracer {
    /// A tracer; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span called `name`; spans `f` opens are its
    /// children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Records an interval measured elsewhere (a daemon request timed by
    /// the client) as a span under the currently open one.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name: name.to_owned(),
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            request: self.request,
        });
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans called `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Per-name count, total and self time, ordered by descending self time.
pub fn layer_table(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur();
                r.3 += own;
            }
            None => rows.push((s.name.clone(), 1, s.dur(), own)),
        }
    }
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

/// Renders the spans as JSON lines, one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
            crate::json::escape(&s.name),
            s.start,
            s.end,
            s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("row", 0.0, 10.0, None),
            span("solve", 1.0, 4.0, Some(0)),
            span("metrics", 5.0, 9.0, Some(0)),
            span("inner", 2.0, 3.0, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![3.0, 2.0, 4.0, 1.0]);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips() {
        let spans = vec![
            span("req", 0.0, 10.0, None),
            span("a", 2.0, 6.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            span("late", 9.0, 12.0, Some(0)),
        ];
        // Children cover [2, 8] and [9, 10] of the parent: 7 of 10.
        assert!((self_times(&spans)[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut t = Tracer::new(true);
        t.request = 7;
        let v = t.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].request, 7);
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let table = layer_table(s);
        assert_eq!(table.len(), 2);
        assert!(spans_jsonl(s).lines().count() == 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 3), 3);
        t.record("y", Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
