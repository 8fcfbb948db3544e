//! Bench-side spans: one per call into a layer's public function.
//!
//! Spans stay in memory during a run and are written out at its end.
//! A span names the span that caused it (`parent`) and the staged
//! iteration it belongs to; a layer's self time is its duration minus
//! the duration of its direct children.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `core.output.json`.
    pub name: String,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the causing span; `None` for a root.
    pub parent: Option<usize>,
    /// Staged iteration the span belongs to.
    pub iteration: u32,
    /// How many program spans this entry aggregates; 0 for a span the
    /// benchmark itself recorded. The program's telemetry keeps totals
    /// per span path, not single intervals, so such an entry starts at
    /// its parent's start and lasts the path's inclusive total.
    pub program_count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index; [`SpanLog::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<usize>, iteration: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            iteration,
            program_count: 0,
        });
        self.spans.len() - 1
    }

    /// Ends the span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` under `parent`, in the
    /// parent's iteration; returns what `f` returned and the span's
    /// duration in milliseconds.
    pub fn time<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name, Some(parent), self.spans[parent].iteration);
        let out = f();
        self.close(span);
        (out, self.spans[span].ms())
    }

    /// Records an aggregate of the program's own spans under `parent`.
    pub fn add_program(&mut self, name: &str, parent: usize, count: u64, total_ns: u64) -> usize {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + total_ns,
            parent: Some(parent),
            iteration: self.spans[parent].iteration,
            program_count: count,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Duration of span `id` not covered by its direct children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let covered: u64 = self.children(id).map(Span::ns).sum();
        self.spans[id].ns().saturating_sub(covered)
    }

    /// Renders the log as a JSON array of span objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"iteration\":{},\"self_ns\":{},\"program_count\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.iteration,
                self.self_ns(i),
                s.program_count
            );
        }
        out.push_str("\n]\n");
        out
    }
}
