//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Nothing here reaches inside the program: a span brackets one call to a
//! layer's public function, made from the benchmark's files. Spans are kept
//! in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub unit: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Shared clock and id source; cloned into every thread that records.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    next_id: Arc<AtomicU64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A log for one thread; a disabled log records nothing.
    pub fn log(&self, enabled: bool) -> SpanLog {
        SpanLog {
            tracer: self.clone(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Spans recorded by one thread.
pub struct SpanLog {
    tracer: Tracer,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Run `f` inside a span named `name`; `f` receives the span's id to
    /// use as the parent of nested spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        unit: u64,
        f: impl FnOnce(&mut SpanLog, Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(self, None);
        }
        // Ids only need to be unique; no other data is published through
        // the counter.
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.tracer.now_ns();
        let out = f(self, Some(id));
        let end_ns = self.tracer.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            unit,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pause (false) or resume (true) recording.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Sum of self time, in seconds, over all spans named `name`.
pub fn self_secs(spans: &[Span], selfs: &BTreeMap<u64, u64>, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + selfs[&s.id] as f64 * 1e-9)
}

/// Write every span, with its self time, as one JSON array.
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"unit\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}",
            s.id,
            s.name,
            s.unit,
            s.start_ns,
            s.end_ns,
            selfs[&s.id],
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            unit: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent [0,100); children [10,40) and [30,60) overlap, so they
        // cover 50 ns; a grandchild does not count against the parent.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(1), 12, 20),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&0], 50);
        assert_eq!(s[&1], 22);
        assert_eq!(s[&2], 30);
        assert_eq!(s[&3], 8);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let t = Tracer::new();
        let mut log = t.log(false);
        let v = log.span("a", None, 0, |log, id| {
            assert!(id.is_none());
            log.span("b", id, 0, |_, _| 7)
        });
        assert_eq!(v, 7);
        assert!(log.spans.is_empty());
        let mut on = t.log(true);
        on.span("a", None, 3, |log, id| log.span("b", id, 3, |_, _| ()));
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.spans[0].parent, Some(on.spans[1].id));
    }
}
