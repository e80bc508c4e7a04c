//! Spans the benchmark records around its own calls into the library.
//!
//! A span carries a name, start, end, parent and run id. Spans are kept
//! in memory and written out once the run ends. A layer's self time is a
//! span's duration minus the durations of the spans whose parent it is;
//! the children here are replays of lower-layer calls on the same
//! inputs, so they are logical children rather than nested in time.
//! Times are on-CPU nanoseconds of the thread (see `clock`).

use std::fmt::Write as _;

use crate::clock::CpuInstant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    run: usize,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Times calls; records spans only when enabled.
pub struct Tracer {
    origin: CpuInstant,
    enabled: bool,
    run: usize,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: CpuInstant) -> Self {
        Tracer {
            origin,
            enabled: false,
            run: 0,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new run id (one per measured iteration).
    pub fn begin_run(&mut self, run: usize, enabled: bool) {
        self.run = run;
        self.enabled = enabled;
    }

    /// Runs `f`, returning its result, its CPU seconds, and the span id
    /// when tracing is on.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64, Option<SpanId>) {
        let start = CpuInstant::now();
        let out = f();
        let end = CpuInstant::now();
        let secs = end.ns_since(start) as f64 / 1e9;
        if !self.enabled {
            return (out, secs, None);
        }
        self.spans.push(Span {
            name,
            parent,
            run: self.run,
            start_ns: start.ns_since(self.origin),
            end_ns: end.ns_since(self.origin),
        });
        (out, secs, Some(self.spans.len() - 1))
    }

    /// Total seconds of the spans named `name` in run `run`.
    pub fn total(&self, run: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Total self seconds of the spans named `name` in run `run`: each
    /// span minus its children.
    pub fn self_time(&self, run: usize, name: &str) -> f64 {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.run == run && s.name == name)
            .map(|(i, s)| s.secs() - child[i])
            .sum()
    }

    /// All spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
