//! Spans recorded from the benchmark's own code around calls into each
//! layer's public functions. Nothing inside the program is traced.
//!
//! Every operation gets a root span (layer `bench`); the calls it makes
//! into the program are its children. A layer's self time is the sum
//! of its spans' durations minus the parts their children cover, so the
//! root's self time is the operation time no layer span accounts for.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called (`threads.run`, `tables.job.table2`, ...).
    pub name: String,
    /// Which layer the call enters.
    pub layer: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Layer name of operation root spans.
pub const ROOT_LAYER: &str = "bench";

/// Span recorder. A disabled tracer still times every call (the
/// benchmark needs the durations) but keeps nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` as a span named `name` in `layer`; returns its result
    /// and duration in nanoseconds.
    pub fn span<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed().as_nanos() as u64);
        }
        let idx = self.spans.len();
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = Instant::now();
        self.spans[idx].end_ns = end.duration_since(self.origin).as_nanos() as u64;
        (out, end.duration_since(start).as_nanos() as u64)
    }

    /// Record a call the layer timed itself: a finished span of
    /// `dur_ns` from `start`, a child of the innermost open span.
    pub fn record(&mut self, name: &str, layer: &'static str, start: Instant, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Run `f` as operation `op`: a root span named `name` whose
    /// children are the layer calls `f` makes.
    pub fn op<T>(&mut self, op: u64, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        self.op = op;
        self.span(name, ROOT_LAYER, f)
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another tracer's spans, re-based on this tracer's origin,
    /// span indices and operation ids (so operations stay distinct).
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.origin.duration_since(self.origin).as_nanos() as u64;
        let base = self.spans.len();
        let op_base = self.spans.iter().map(|s| s.op + 1).max().unwrap_or(0);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.op += op_base;
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Self time per layer, in nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Share of operation root time not covered by the root's child
    /// spans (0.0 without roots).
    pub fn unattributed_frac(&self) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(covered) {
            if s.parent.is_none() && s.layer == ROOT_LAYER {
                total += s.dur_ns();
                uncovered += s.dur_ns().saturating_sub(c);
            }
        }
        crate::stats::ratio(uncovered as f64, total as f64)
    }

    /// Median duration (seconds) of spans named `name`, and their count.
    pub fn median_s(&self, name: &str) -> (f64, usize) {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect();
        (crate::stats::median(&d), d.len())
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.layer, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    fn span(
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name: name.into(),
            layer,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.spans = vec![
            span("op", ROOT_LAYER, None, 0, 100),
            span("call", "layer.a", Some(0), 10, 70),
            span("inner", "layer.b", Some(1), 20, 40),
        ];
        let by = tr.self_ns_by_layer();
        assert_eq!(by[ROOT_LAYER], 40);
        assert_eq!(by["layer.a"], 40);
        assert_eq!(by["layer.b"], 20);
        assert_eq!(tr.unattributed_frac(), 0.4);
        assert_eq!(tr.median_s("call"), (60e-9, 1));
    }

    #[test]
    fn spans_nest_under_their_operation() {
        let mut tr = Tracer::new(true);
        tr.op(7, "op", |tr| tr.span("call", "layer.a", |_| spin(10_000)));
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[0].op, s[1].op), (7, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(s[1].dur_ns() >= 10_000);
        tr.op(8, "op", |tr| {
            tr.record("timed", "layer.b", Instant::now(), 50)
        });
        let timed = &tr.spans()[3];
        assert_eq!((timed.parent, timed.op, timed.dur_ns()), (Some(2), 8, 50));
        let mut other = Tracer::new(true);
        other.op(7, "op", |_| ());
        tr.absorb(other);
        assert!(tr.spans()[4].op > 8, "absorbed operations stay distinct");
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let (v, ns) = tr.span("x", "layer", |_| {
            spin(100_000);
            7
        });
        assert_eq!(v, 7);
        assert!(ns >= 100_000);
        tr.record("y", "layer", Instant::now(), 5);
        assert!(tr.spans().is_empty());
    }
}
