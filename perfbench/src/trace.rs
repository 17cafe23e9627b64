//! Spans recorded by the benchmark around its calls into the simulator.
//!
//! Every call the benchmark times goes through [`Tracer::span`], which
//! always measures the call (the end-to-end metrics are built from those
//! durations) and, when tracing is on, also keeps the span — name, start,
//! end, parent span and op id — in memory. [`Tracer::write_chrome`]
//! writes the kept spans as Chrome trace-event JSON, which Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing` open directly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `accel.sharded.run`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (0 = no op: set-up or check work).
    pub op: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Measures calls and, when enabled, records them as nested spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that keeps spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` for op `op` and returns its
    /// result with the measured duration. Spans opened inside `f` become
    /// children of this one.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let index = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: self.ns_since_epoch(start),
                end_ns: 0,
                parent: self.open.last().copied(),
                op,
            });
            self.open.push(index);
            index
        });
        let result = f(self);
        let end = Instant::now();
        if let Some(index) = index {
            self.open.pop();
            self.spans[index].end_ns = self.ns_since_epoch(end);
        }
        (result, end - start)
    }

    /// The kept spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The kept spans as Chrome trace-event JSON ("X" complete events,
    /// microsecond timestamps). The layer — the name up to its last dot —
    /// is the event category.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let _ = write!(
            s,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
             \"args\": {{\"name\": \"{process}\"}}}}"
        );
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \
                 \"op\": {}}}}}",
                span.name,
                layer_of(span.name),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.op
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// The layer a span name belongs to: everything before its last dot.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are merged first).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in ns, over the spans that lie inside
/// span `within` (the span itself included).
pub fn self_time_by_name(spans: &[Span], within: usize) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if is_inside(spans, i, within) {
            *out.entry(span.name).or_insert(0) += selfs[i];
        }
    }
    out
}

fn is_inside(spans: &[Span], mut i: usize, within: usize) -> bool {
    loop {
        if i == within {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("phase.timed", 0, 100, None),
            span("serve.handle_line", 10, 40, Some(0)),
            span("serve.handle_line", 50, 90, Some(0)),
            span("inner.a", 15, 25, Some(1)),
            // overlaps the previous child: counted once
            span("inner.b", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 15, 40, 10, 10]);
        let by_name = self_time_by_name(&spans, 1);
        assert_eq!(by_name.get("serve.handle_line"), Some(&15));
        assert_eq!(by_name.get("inner.a"), Some(&10));
        assert_eq!(by_name.get("phase.timed"), None);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("p.a", 10, 20, None), span("c.b", 5, 15, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn nested_spans_record_parents_and_chrome_json_names_layers() {
        let mut tracer = Tracer::new(true);
        let ((), _) = tracer.span("phase.timed", 0, |t| {
            let ((), _) = t.span("accel.sharded.run", 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = tracer.chrome_json("test");
        assert!(json.contains("\"cat\": \"accel.sharded\""));
        assert!(json.contains("\"parent\": 0"));
    }

    #[test]
    fn a_disabled_tracer_measures_but_keeps_nothing() {
        let mut tracer = Tracer::new(false);
        let (value, elapsed) = tracer.span("graph.build", 0, |_| 5);
        assert_eq!(value, 5);
        assert!(elapsed.as_nanos() < 1_000_000_000);
        assert!(tracer.spans().is_empty());
    }
}
