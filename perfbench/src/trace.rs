//! In-memory spans recorded around calls into the library's public API.
//!
//! A span has a name, a start and end, the span that caused it, and the id
//! of the operation it belongs to. Spans stay in memory while the run
//! measures and are written out (one JSON object per line) when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call, e.g. `parser.parse`.
    pub name: &'static str,
    /// The operation this span belongs to (`0` for set-up).
    pub op: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time (`0` while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their self times: duration minus the durations of the spans
    /// they caused.
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean self time per call, in microseconds (`0` without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// A span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = end;
        }
    }

    /// Run `f` inside a span and return its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The total duration of each span's direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        child
    }

    /// Calls and self time per span name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let child = self.child_ns();
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += s.duration_ns().saturating_sub(c);
        }
        out
    }

    /// For the spans named in `ops`: their summed duration, and the part
    /// of it that no direct child span accounts for. Children named in
    /// `outside` ran after the operation ended and are not subtracted.
    pub fn unattributed(&self, ops: &[&str], outside: &[&str]) -> (u64, i64) {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if !outside.contains(&s.name) {
                    covered[p] += s.duration_ns();
                }
            }
        }
        let mut total = 0u64;
        let mut left = 0i64;
        for (s, c) in self.spans.iter().zip(covered) {
            if ops.contains(&s.name) {
                total += s.duration_ns();
                left += s.duration_ns() as i64 - c as i64;
            }
        }
        (total, left)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let outer = t.open("outer", 1, None);
        t.span("inner", 1, Some(outer), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let totals = t.layer_totals();
        let outer_self = totals["outer"].self_ns;
        let inner_self = totals["inner"].self_ns;
        assert!(inner_self >= 2_000_000);
        assert_eq!(
            outer_self + inner_self,
            t.spans()[outer].duration_ns(),
            "self times partition the outer span"
        );
        let (total, left) = t.unattributed(&["outer"], &[]);
        assert_eq!(total, t.spans()[outer].duration_ns());
        assert_eq!(left as u64, outer_self);
    }
}
