//! In-memory spans recorded around the benchmark's own calls into each
//! layer, written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed interval: a layer boundary crossed on behalf of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The query (or frame) the span belongs to; spans of one request
    /// share it.
    pub query_id: u32,
    /// Layer boundary, e.g. `ml.stage_one`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one, `None` for a root.
    pub parent: Option<u32>,
}

/// Collects spans for one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer with room for `capacity` spans, whose clock
    /// starts now. Room up front keeps the vector's growth (a copy of
    /// every span so far) out of whichever span happens to be open.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Opens a span and returns its index; close it with [`Tracer::end`].
    pub fn begin(&mut self, query_id: u32, name: &'static str, parent: Option<u32>) -> u32 {
        let index = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            query_id,
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        index
    }

    /// Closes span `index` and returns its duration in nanoseconds.
    pub fn end(&mut self, index: u32) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[index as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        query_id: u32,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let index = self.begin(query_id, name, parent);
        let result = f();
        (result, self.end(index))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children of one parent here never overlap
/// (each layer is called after the previous returned), so the covered
/// part is the sum of their durations, clamped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| (span.end_ns - span.start_ns).saturating_sub(covered))
        .collect()
}

/// Writes `spans` to `out` as one JSON object per line.
pub fn write_jsonl<W: Write>(mut out: W, spans: &[Span]) -> std::io::Result<()> {
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\": {index}, \"query_id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            span.query_id, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            query_id: 9,
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("query", 0, 100, None),
            span("fill", 5, 15, Some(0)),
            span("stage_two", 20, 90, Some(0)),
            span("dissimilarity", 25, 55, Some(2)),
            span("dissimilarity", 55, 85, Some(2)),
            span("handle", 100, 140, None),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 10, 30, 30, 40]);
    }

    #[test]
    fn self_time_never_goes_negative_on_clock_granularity() {
        let spans = [span("query", 10, 12, None), span("fill", 10, 13, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 3]);
    }

    #[test]
    fn tracer_nests_spans_and_writes_one_json_line_each() {
        let mut tracer = Tracer::with_capacity(2);
        let root = tracer.begin(3, "query", None);
        let (value, _) = tracer.time(3, "fill", Some(root), || 41 + 1);
        assert_eq!(value, 42);
        let total = tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        let mut text = Vec::new();
        write_jsonl(&mut text, spans).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .starts_with("{\"span\": 0, \"query_id\": 3, \"name\": \"query\", \"start_ns\": "));
        assert!(text.lines().nth(1).unwrap().ends_with("\"parent\": 0}"));
    }
}
