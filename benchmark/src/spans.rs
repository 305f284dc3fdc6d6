//! Benchmark-side spans: one record per call into a layer, kept in memory
//! and written out as JSON lines when the run ends.
//!
//! The recorder is the benchmark's only clock: a slice's wall time *is* the
//! duration of its `core.run_slice` span, so traced and untraced runs time
//! the program the same way and differ only in what the program itself
//! records (profiler, allocation counts).

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`core.run_slice`, `dnswire.encode`).
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; equals `start_ns`
    /// while the span is open.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Trial the span belongs to (kernels use the traced trial's index).
    pub trial: u32,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty log; span times count from now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str, trial: u32) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            trial,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and returns its length in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span: spans nest, and a
    /// crossed pair would corrupt every self time above it.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "span closed out of order");
        self.spans[id].end_ns = now;
        self.spans[id].duration_ns() as f64 / 1e9
    }

    /// Times `f` as one span and returns its result with the span's
    /// length in seconds.
    pub fn time<R>(&mut self, name: &'static str, trial: u32, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name, trial);
        let out = f();
        (out, self.exit(id))
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Renders the log as JSON lines, one span per line, with each span's
    /// self time.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (id, (span, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"trial\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                span.trial, span.name, span.start_ns, span.end_ns,
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Overlapping children are counted once and
/// children are clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
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
            trial: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100, child 10..40 with grandchild 20..30, child 50..70.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children 10..60 and 40..80 cover 10..80; a third sticks out
        // past the parent's end and is clipped to 90..100.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut spans = Spans::new();
        let outer = spans.enter("outer", 3);
        let ((), inner_s) = spans.time("inner", 3, || std::hint::black_box(()));
        let outer_s = spans.exit(outer);
        assert!(outer_s >= inner_s);
        assert_eq!(spans.spans[1].parent, Some(outer));
        assert_eq!(spans.spans[0].parent, None);
        let own = self_times(&spans.spans);
        assert_eq!(
            own[0],
            spans.spans[0].duration_ns() - spans.spans[1].duration_ns()
        );
        let jsonl = spans.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\": \"inner\""));
        assert!(jsonl.contains("\"trial\": 3"));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn crossed_spans_are_rejected() {
        let mut spans = Spans::new();
        let a = spans.enter("a", 0);
        let _b = spans.enter("b", 0);
        spans.exit(a);
    }
}
