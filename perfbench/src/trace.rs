//! In-memory span recorder for traced runs.
//!
//! The benchmark records a span around each call it makes into a layer:
//! name, start, end, parent, and the id of the scheduled input (or fleet
//! repetition) it serves. Spans stay in memory and are written out when
//! the run ends. A layer's self time is its spans' durations minus their
//! children's. When tracing is off, `enter`/`exit` read no clock.

use crate::hooks::{HookSample, HOOKS};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.operation`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Start, ns since the trace base.
    pub start_ns: u64,
    /// End, ns since the trace base.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Scheduled input or repetition this span serves.
    pub input: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans written out per run; an open-loop run records millions, and the
/// per-layer metrics are computed from all of them in memory.
pub const MAX_WRITTEN: usize = 100_000;

/// Handle returned by [`Tracer::enter`].
#[must_use]
pub struct Token(Option<usize>);

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    base: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    input: u64,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer { base: None, spans: Vec::new(), stack: Vec::new(), input: 0 }
    }

    /// A recording tracer stamping spans relative to `base`.
    pub fn on(base: Instant) -> Self {
        Tracer { base: Some(base), ..Tracer::off() }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.base.is_some()
    }

    /// Tag the spans that follow with input id `id`.
    pub fn set_input(&mut self, id: u64) {
        self.input = id;
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Token {
        let Some(base) = self.base else { return Token(None) };
        let idx = self.spans.len();
        let start_ns = base.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            input: self.input,
        });
        self.stack.push(idx);
        Token(Some(idx))
    }

    /// Close the span `t` opened (spans close innermost first).
    pub fn exit(&mut self, t: Token) {
        let (Some(base), Some(idx)) = (self.base, t.0) else { return };
        let end_ns = base.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = end_ns;
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Total duration and count of spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }

    /// Sum of the durations of the outermost spans.
    pub fn top_level_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).sum()
    }

    /// Write the first [`MAX_WRITTEN`] spans and every sampled hook call
    /// as JSON lines to `path`. Returns the spans written.
    pub fn write_jsonl(
        &self,
        path: &std::path::Path,
        hooks: &[HookSample],
    ) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = self.spans.len().min(MAX_WRITTEN);
        for (i, s) in self.spans[..written].iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"input\": {}}}",
                s.name, s.start_ns, s.end_ns, s.input
            )?;
        }
        for h in hooks {
            writeln!(
                w,
                "{{\"name\": \"monitor.{}\", \"start_ns\": {}, \"end_ns\": {}, \"device\": {}, \
                 \"sampled\": true}}",
                HOOKS[h.hook], h.start_ns, h.end_ns, h.device
            )?;
        }
        w.flush()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on(Instant::now());
        let outer = t.enter("a.outer");
        let inner = t.enter("b.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let selfs = t.self_ns();
        let (outer_ns, _) = t.total("a.outer");
        assert_eq!(selfs["a.outer"] + selfs["b.inner"], outer_ns);
        assert!(selfs["b.inner"] >= 2_000_000);
        assert_eq!(t.top_level_ns(), outer_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let tok = t.enter("x.y");
        t.exit(tok);
        assert!(t.spans().is_empty());
    }
}
