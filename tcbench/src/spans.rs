//! In-memory spans recorded around the public calls the traced run
//! times, written out when the run ends.
//!
//! A span has a name (`<module>.<call>`), a start and an end, the span
//! that was open when it began (its parent), and an operation id shared
//! by every span of one launch or one job. A layer's self time is its
//! span's duration minus the durations of its children; the per-layer
//! time metrics are derived from these self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<module>.<call>` name.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Launch or job this span belongs to.
    pub op: u64,
}

/// Self-time totals of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Their summed self time, in nanoseconds.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per span, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder; times are relative to now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its length
    /// in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Records `f` as one span and returns its result.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time (span minus children) summed per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Repeats `f` until at least 3 calls and 1 ms have been measured,
/// recording each call as a span named `name`.
pub fn time_calls(spans: &mut Spans, name: &'static str, op: u64, mut f: impl FnMut()) {
    let started = Instant::now();
    let mut calls = 0;
    while calls < 3 || started.elapsed().as_secs_f64() < 1e-3 {
        spans.time(name, op, &mut f);
        calls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        let root = spans.enter("sim.launch", 1);
        spans.time("mem.l1_access", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.exit(root);
        let st = spans.self_times();
        let child = st["mem.l1_access"];
        let parent = st["sim.launch"];
        assert_eq!((child.count, parent.count), (1, 1));
        assert!(child.self_ns >= 2_000_000);
        let root_span = &spans.spans[root];
        assert!(parent.self_ns + child.self_ns <= root_span.end_ns - root_span.start_ns);
        assert_eq!(spans.spans[1].parent, Some(root));
        assert_eq!(spans.spans[1].op, 1);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_exit_panics() {
        let mut spans = Spans::new();
        let a = spans.enter("a", 0);
        let _b = spans.enter("b", 0);
        spans.exit(a);
    }
}
