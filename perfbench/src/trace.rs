//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the program itself carries no spans. A span has a
//! name, start and end (nanoseconds since the tracer's origin), the span
//! that caused it, and the request it belongs to. Spans stay in memory
//! and are written out once, when the run ends. Untraced runs go through
//! the same code with a tracer that is off and records nothing.

use serde::Serialize;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `pim.mvm.conv1` or `calib.plan`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The request this span serves, if any.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer::starting_at(Instant::now())
    }

    /// An empty tracer whose clock starts at `origin`.
    pub fn starting_at(origin: Instant) -> Self {
        Tracer { origin, spans: Mutex::new(Vec::new()), on: true }
    }

    /// A tracer that records nothing, for untraced runs.
    pub fn off() -> Self {
        Tracer { on: false, ..Tracer::new() }
    }

    /// A recording tracer when `on`, else one that is off.
    pub fn when(on: bool) -> Self {
        if on {
            Tracer::new()
        } else {
            Tracer::off()
        }
    }

    /// Whether this tracer records spans.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval and returns its id (`0`, recording
    /// nothing, when the tracer is off).
    pub fn record(
        &self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let span = Span {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        if !self.on {
            return;
        }
        let end = self.ns(Instant::now());
        let mut spans = self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Forgets every span recorded so far.
    pub fn clear(&self) {
        self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Writes every span, and every span's self time, as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let file = TraceFile { self_ns: self_times(&spans), spans };
        let json = serde_json::to_string(&file).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }
}

/// A trace as written to disk: span `i` (parents refer to spans by their
/// index) has self time `self_ns[i]`.
#[derive(Serialize)]
struct TraceFile {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

/// Self time (ns) of every span: its duration minus the part of that
/// interval covered by its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name: "s".into(), start_ns, end_ns, parent, request: None }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 50, Some(0)), // overlaps the first child
            span(60, 70, Some(0)),
            span(12, 20, Some(1)), // grandchild: not subtracted from the root
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 40 - 10);
        assert_eq!(own[1], 30 - 8);
        assert_eq!(own[3], 10);
    }
}
