//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions: the program under test carries no
//! instrumentation. A span has a name, a start, an end and the span
//! that was open when it began (its parent). Everything stays in memory
//! until the run ends; [`Tracer::write_json`] then writes the lot out
//! and [`Tracer::summary`] derives counts, busy time and self time.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index returned for spans opened on a disabled tracer.
const NONE: usize = usize::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `serve.sweep`.
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// When the call began.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of span durations.
    pub busy_ns: f64,
    /// Busy time minus the time covered by direct child spans.
    pub self_ns: f64,
}

/// Span recorder for one thread. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span as a child of the innermost open span. Pass the
    /// returned handle to [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return NONE;
        }
        let now = Instant::now();
        let idx = self.spans.len();
        self.spans.push(Span { name, parent: self.open.last().copied(), start: now, end: now });
        self.open.push(idx);
        idx
    }

    /// Closes the span `open` returned; spans close innermost first.
    pub fn close(&mut self, handle: usize) {
        if handle == NONE {
            return;
        }
        self.spans[handle].end = Instant::now();
        let top = self.open.pop();
        assert_eq!(top, Some(handle), "spans must close innermost first");
    }

    /// Records an already-finished call as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span { name, parent: self.open.last().copied(), start, end });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let h = self.open(name);
        let out = f();
        self.close(h);
        out
    }

    /// Appends another thread's spans (same run, same clock).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Counts, busy time and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += duration_ns(s);
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.busy_ns += duration_ns(s);
            e.self_ns += duration_ns(s) - child;
        }
        out
    }

    /// Busy time of the spans named `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.summary().get(name).map_or(0.0, |s| s.busy_ns / 1e9)
    }

    /// Writes every span as JSON: run id, index, parent, name, and start
    /// and end in nanoseconds since `origin`.
    pub fn write_json(&self, path: &std::path::Path, run_id: &str, origin: Instant) {
        let since = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                serde_json::json!({
                    "run": run_id,
                    "id": i,
                    "parent": s.parent,
                    "name": s.name,
                    "start_ns": since(s.start),
                    "end_ns": since(s.end),
                })
            })
            .collect();
        let text = crate::report::to_json(&serde_json::Value::Array(spans));
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("warning: could not write spans to {}: {}", path.display(), e);
        }
    }
}

fn duration_ns(s: &Span) -> f64 {
    s.end.saturating_duration_since(s.start).as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer");
        let t0 = Instant::now();
        t.record("inner", t0, t0 + Duration::from_millis(3));
        std::thread::sleep(Duration::from_millis(5));
        t.close(outer);
        let s = t.summary();
        assert_eq!(s["outer"].count, 1);
        assert_eq!(s["inner"].busy_ns, 3e6);
        let outer = s["outer"];
        assert!((outer.busy_ns - outer.self_ns - 3e6).abs() < 1.0);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let h = t.open("x");
        t.record("y", Instant::now(), Instant::now());
        t.close(h);
        assert_eq!(t.len(), 0);
        assert!(t.summary().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = Tracer::new(true);
        a.time("a", || ());
        let mut b = Tracer::new(true);
        let h = b.open("b");
        b.record("c", Instant::now(), Instant::now());
        b.close(h);
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
