//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end, the span that enclosed it and the
//! id of the operation it belongs to. Spans are kept in memory and written
//! out once, when the traced run ends. A layer's *self time* is its span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records spans when enabled; every call is a cheap no-op otherwise, so
/// the traced and untraced runs execute the same benchmark code.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// ns since the tracer was created — the clock spans are stamped on.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records an already-finished span under the innermost open one, for
    /// calls whose outcome decides whether they are worth a span (a poll
    /// that found nothing is not).
    pub fn push(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let parent = self.open.last().copied();
            self.spans.push(Span { name, op, parent, start_ns, end_ns });
        }
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Closes every span still open, outermost last.
    pub fn close_open(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(SpanId(Some(id)));
        }
    }

    /// Total self time (ns) and span count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(children);
            entry.1 += 1;
        }
        by_name
    }

    /// Self time of every span called `name`, in µs per operation.
    pub fn self_us_per_op(&self, name: &str, ops: usize) -> f64 {
        let ns = self.self_times().get(name).map_or(0, |(ns, _)| *ns);
        ns as f64 / 1e3 / ops.max(1) as f64
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        let op = tr.begin("op", 1);
        let a = tr.begin("layer.a", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(a);
        tr.end(op);
        let times = tr.self_times();
        let (op_self, op_count) = times["op"];
        let (a_self, _) = times["layer.a"];
        assert_eq!(op_count, 1);
        assert!(a_self >= 2_000_000);
        assert!(op_self < a_self, "the parent's self time must not include its child");
        assert!(tr.self_us_per_op("layer.a", 2) >= 1000.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("x", 0);
        tr.end(s);
        assert!(tr.self_times().is_empty());
        assert_eq!(tr.self_us_per_op("x", 1), 0.0);
    }
}
