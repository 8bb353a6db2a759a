//! The benchmark's own span recorder for the traced mode.
//!
//! Spans are recorded from the benchmark's files around each call into a
//! layer's public function: name, start, end, parent span and operation
//! id. They stay in memory until the run ends, then go to disk as JSONL.
//! When tracing is off, [`Tracer::span`] is a plain call.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Operation the span belongs to, 0 outside any operation.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans on this thread: (span id, operation id).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Spans per chunk of the log. The log grows by whole chunks, so
/// recording a span never copies the ones before it.
const CHUNK: usize = 4096;

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let (parent, op) = OPEN.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
        self.record(name, parent, op, f)
    }

    /// Runs `f` as the root span of operation `op`.
    pub fn op<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.record(name, 0, op, f)
    }

    fn record<R>(&self, name: &'static str, parent: u64, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|s| s.borrow_mut().push((id, op)));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|s| s.borrow_mut().pop());
        let mut log = self.spans.lock().expect("span log poisoned");
        if log.last().is_none_or(|c| c.len() == CHUNK) {
            log.push(Vec::with_capacity(CHUNK));
        }
        log.last_mut().expect("chunk just ensured").push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").concat()
    }

    /// Per operation whose root span is `root`, the summed duration (ms)
    /// of its spans named `name`, in operation order.
    pub fn busy_ms_per_op(&self, root: &str, name: &str) -> Vec<f64> {
        let spans = self.spans();
        let mut per_op: BTreeMap<u64, f64> = spans
            .iter()
            .filter(|s| s.name == root && s.parent == 0)
            .map(|s| (s.op, 0.0))
            .collect();
        for s in spans.iter().filter(|s| s.name == name) {
            if let Some(total) = per_op.get_mut(&s.op) {
                *total += s.dur_ns() as f64 / 1e6;
            }
        }
        per_op.into_values().collect()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The share of each operation's wall time (rooted at `root`) that its
    /// direct child spans cover, in operation order.
    pub fn coverage(&self, root: &str) -> Vec<(u64, u64)> {
        let spans = self.spans();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
        spans
            .iter()
            .filter(|s| s.name == root && s.parent == 0)
            .map(|s| (child_ns.get(&s.id).copied().unwrap_or(0), s.dur_ns()))
            .collect()
    }

    /// Count, busy time and self time per span name.
    pub fn span_table(&self) -> String {
        let spans = self.spans();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
        let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.dur_ns();
            row.2 += s.dur_ns() - child_ns.get(&s.id).copied().unwrap_or(0).min(s.dur_ns());
        }
        let mut text = format!(
            "{:<34} {:>9} {:>12} {:>12}\n",
            "span", "count", "busy_ms", "self_ms"
        );
        for (name, (count, busy, own)) in rows {
            text.push_str(&format!(
                "{name:<34} {count:>9} {:>12.3} {:>12.3}\n",
                busy as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        text
    }

    /// Writes the span log as JSONL under `hfbench/out/` and returns its
    /// path.
    pub fn write_jsonl(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        let dir = std::path::Path::new("hfbench").join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(path.display().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_parent_and_op() {
        let t = Tracer::new(true);
        t.op("op.test", 7, || {
            t.span("a", || t.span("b", || ()));
        });
        let spans = t.spans();
        let find = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (root, a, b) = (find("op.test"), find("a"), find("b"));
        assert_eq!(root.parent, 0);
        assert_eq!(a.parent, root.id);
        assert_eq!(b.parent, a.id);
        assert!([root.op, a.op, b.op].iter().all(|&op| op == 7));
        assert_eq!(t.busy_ms_per_op("op.test", "a").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.op("op", 1, || t.span("x", || 3)), 3);
        assert!(t.spans().is_empty());
    }
}
