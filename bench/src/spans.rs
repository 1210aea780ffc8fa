//! In-memory spans recorded by the harness around calls into each layer,
//! written out as JSON lines when the run ends. Nothing inside the program
//! under test is instrumented here.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span. `parent` is 0 for a root; ids start at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans against one epoch. Disabled recorders hand out ids but
/// store nothing, so traced and untraced runs execute the same code.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves an id for a span whose end is not known yet.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved id.
    pub fn finish(&mut self, id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(&mut self, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.reserve();
        self.finish(id, parent, name, start_ns, end_ns);
        id
    }

    /// Times `f` as one span under `parent`.
    pub fn time<T>(&mut self, parent: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(parent, name, start, end);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of a span is its duration minus the part of that interval its
/// child spans cover (overlapping children are not double-counted).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0;
        if let Some(intervals) = children.get_mut(&s.id) {
            intervals.sort_unstable();
            let mut cursor = s.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let entry = totals.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration - covered.min(duration);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_interval_children_cover() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "submit", 10, 30),
            // Overlaps `submit` for 10 ns and runs past the parent's end.
            span(3, 1, "wait", 20, 120),
            span(4, 3, "inner", 40, 50),
        ];
        let totals = self_times(&spans);
        // Children cover [10, 100) of the op: 10 ns of self time remain.
        assert_eq!(totals["op"].self_ns, 10);
        assert_eq!(totals["op"].total_ns, 100);
        assert_eq!(totals["submit"].self_ns, 20);
        assert_eq!(totals["wait"].self_ns, 90);
        assert_eq!(totals["inner"].self_ns, 10);
    }

    #[test]
    fn disabled_recorder_stores_nothing_but_still_runs_the_closure() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.time(0, "x", || 7), 7);
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        let root = rec.reserve();
        rec.time(root, "child", || ());
        let end = rec.now_ns();
        rec.finish(root, 0, "root", 0, end);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[0].parent, root);
    }
}
