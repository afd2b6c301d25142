//! The in-memory span recorder of the traced run.
//!
//! One span per call into a layer: name, start, end, the span that caused it
//! and the cell it belongs to (spans of one cell share its id). Spans stay in
//! memory and are written once, at exit, as Chrome-trace JSON
//! (`chrome://tracing`, Perfetto). Every timed call of the benchmark goes
//! through [`Recorder::time`] whether tracing is on or not, so the traced and
//! untraced runs execute the same code and differ only in the span pushes —
//! that difference is `host.trace_overhead_pct`.

use crate::clock::{self, Stamp};
use crate::json;
use std::collections::BTreeMap;
use std::io::Write;

/// Cell id of spans that belong to no cell (set-up, whole-sweep phases).
pub const NO_CELL: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub cell: u32,
    /// Chrome-trace thread lane (0 = the driving thread).
    pub lane: u32,
}

/// Per-name aggregate of [`Recorder::self_times`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part its child spans cover.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Recorder {
    /// Spans are pushed only while enabled; timing happens regardless.
    pub enabled: bool,
    origin: Stamp,
    spans: Vec<Span>,
    /// Open spans of the driving thread, innermost last.
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, origin: clock::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Nanoseconds since the recorder was created (for hooks that stamp
    /// their own times on worker threads and [`Recorder::add`] them later).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed_ns()
    }

    /// Runs `f` as a span named `name` of cell `cell`, nested inside whatever
    /// span is open, and returns its result with the nanoseconds it took.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        cell: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, u64) {
        if !self.enabled {
            let start = clock::now();
            let out = f(self);
            return (out, start.elapsed_ns());
        }
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, cell, lane: 0 });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Adds a span whose times were stamped elsewhere (a worker thread's
    /// hook), as a child of the innermost open span.
    pub fn add(&mut self, name: &'static str, cell: u32, lane: u32, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, start_ns, end_ns, parent, cell, lane });
        }
    }

    /// Count, total and self time per span name. Self time is the span's
    /// duration minus the part of it its direct children cover; children on
    /// another lane (worker threads) run beside their parent, not inside it,
    /// so they are not subtracted.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                if self.spans[parent].lane == span.lane {
                    child_ns[parent] += span.end_ns - span.start_ns;
                }
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Writes the spans as a Chrome-trace JSON array of complete (`"X"`)
    /// events; `args` carries the cell id and the parent span's index.
    pub fn write_chrome_trace(
        &self,
        out: &mut impl Write,
        cell_names: &[String],
    ) -> std::io::Result<()> {
        writeln!(out, "[")?;
        for (index, span) in self.spans.iter().enumerate() {
            let cell = cell_names.get(span.cell as usize).map(String::as_str).unwrap_or("-");
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {index}, \"parent\": {parent}, \
                 \"cell\": {}}}}}{}",
                json::quote(span.name),
                span.lane,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                json::quote(cell),
                if index + 1 == self.spans.len() { "" } else { "," },
            )?;
        }
        writeln!(out, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(spans: &[(&'static str, u64, u64, Option<usize>, u32)]) -> Recorder {
        let mut rec = Recorder::new(true);
        for &(name, start_ns, end_ns, parent, lane) in spans {
            rec.spans.push(Span { name, start_ns, end_ns, parent, cell: NO_CELL, lane });
        }
        rec
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        // pass [0, 100): build [10, 30), run [30, 90) with a nested replay [40, 60).
        let rec = recorder_with(&[
            ("pass", 0, 100, None, 0),
            ("build", 10, 30, Some(0), 0),
            ("run", 30, 90, Some(0), 0),
            ("replay", 40, 60, Some(2), 0),
        ]);
        let times = rec.self_times();
        assert_eq!(times["pass"], SelfTime { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(times["build"], SelfTime { count: 1, total_ns: 20, self_ns: 20 });
        assert_eq!(times["run"], SelfTime { count: 1, total_ns: 60, self_ns: 40 });
        assert_eq!(times["replay"].self_ns, 20);
        // Self times partition the root span.
        assert_eq!(times.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn spans_of_one_name_accumulate_and_worker_lanes_are_not_subtracted() {
        // Two worker-lane cells overlap inside an evaluate span: they run
        // beside it, so its self time stays its whole duration.
        let rec = recorder_with(&[
            ("evaluate", 0, 100, None, 0),
            ("cell", 0, 60, Some(0), 1),
            ("cell", 0, 90, Some(0), 2),
        ]);
        let times = rec.self_times();
        assert_eq!(times["evaluate"].self_ns, 100);
        assert_eq!(times["cell"], SelfTime { count: 2, total_ns: 150, self_ns: 150 });
    }

    #[test]
    fn time_nests_spans_and_a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        let ((), outer_ns) = rec.time("outer", 3, |rec| {
            rec.time("inner", 3, |_| ());
            rec.add("stamped", 3, 1, 5, 9);
        });
        let spans = &rec.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent, spans[2].lane), ("stamped", Some(0), 1));
        assert_eq!(spans[0].end_ns - spans[0].start_ns, outer_ns);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        let (value, _) = off.time("outer", NO_CELL, |rec| rec.time("inner", NO_CELL, |_| 7).0);
        off.add("stamped", NO_CELL, 0, 0, 1);
        assert_eq!(value, 7);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let rec = recorder_with(&[("a", 0, 2_000, None, 0), ("b", 500, 1_000, Some(0), 0)]);
        let mut buf = Vec::new();
        rec.write_chrome_trace(&mut buf, &[]).unwrap();
        let doc = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let events = doc.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(json::Value::as_f64), Some(0.5));
        assert_eq!(
            events[1].get("args").unwrap().get("parent").and_then(json::Value::as_f64),
            Some(0.0)
        );
    }
}
