//! Spans the benchmark records around its own calls into the layers:
//! `{name, op_id, parent, start_ns, end_ns}` kept in memory and written
//! out once, when the traced run ends. The program is not instrumented;
//! spans inside it are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of an op's root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one query or update.
    pub op_id: u32,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A re-run of part of an opaque call on the same input: shows what
    /// the part costs, but the work was already paid for inside its
    /// sibling, so probes are left out of every sum.
    pub probe: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder. Switched off it reads no clock and stores
/// nothing, which is how the tracing overhead is measured.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    op_id: u32,
    probe_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            op_id: 0,
            probe_ns: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was made (0 when off).
    pub fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// A clock other threads can read (repair closures run on the pool).
    pub fn clock(&self) -> impl Fn() -> u64 + Sync {
        let (on, epoch) = (self.on, self.epoch);
        move || {
            if on {
                epoch.elapsed().as_nanos() as u64
            } else {
                0
            }
        }
    }

    /// Opens the root span of the next op.
    pub fn open(&mut self, name: &'static str) -> u32 {
        self.op_id += 1;
        if !self.on {
            return ROOT;
        }
        let start = self.now();
        self.push(name, ROOT, start, start, false)
    }

    pub fn close(&mut self, root: u32) {
        if self.on {
            self.spans[root as usize].end_ns = self.now();
        }
    }

    /// Records a span that started at `start_ns` (from [`Tracer::now`])
    /// and ends now.
    pub fn finish(&mut self, name: &'static str, parent: u32, start_ns: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        let end = self.now();
        self.push(name, parent, start_ns, end, false)
    }

    /// As [`Tracer::finish`], flagged as a probe.
    pub fn finish_probe(&mut self, name: &'static str, parent: u32, start_ns: u64) {
        if self.on {
            let end = self.now();
            self.push(name, parent, start_ns, end, true);
        }
    }

    /// Records a span timed elsewhere with [`Tracer::clock`].
    pub fn child(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) {
        if self.on {
            self.push(name, parent, start_ns, end_ns, false);
        }
    }

    /// Books time spent probing, so the replay can keep it out of the
    /// op's latency.
    pub fn add_probe_time(&mut self, since_ns: u64) {
        if self.on {
            self.probe_ns += self.now() - since_ns;
        }
    }

    pub fn take_probe_ns(&mut self) -> u64 {
        std::mem::take(&mut self.probe_ns)
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
        probe: bool,
    ) -> u32 {
        self.spans.push(Span {
            name,
            op_id: self.op_id,
            parent,
            start_ns,
            end_ns,
            probe,
        });
        (self.spans.len() - 1) as u32
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of it the span's children cover.
    pub self_ns: u64,
}

impl Layer {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per-name totals and self times. Probe spans are tallied under their
/// own names but never subtracted from a parent.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT && !s.probe {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let inner = children
            .get_mut(&(i as u32))
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += s.ns();
        layer.self_ns += s.ns() - inner;
    }
    out
}

/// Per `root_name` op, in order: the time its non-probe direct children
/// take — what the ledger attributes to layers. Their sum over the op's
/// real latency is a closure ratio.
pub fn attributed_ns(spans: &[Span], root_name: &str) -> Vec<u64> {
    let mut per_op = Vec::new();
    // Slot in `per_op` of the root span at each index.
    let mut slot = vec![usize::MAX; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            if s.name == root_name {
                slot[i] = per_op.len();
                per_op.push(0);
            }
        } else if !s.probe && slot[s.parent as usize] != usize::MAX {
            per_op[slot[s.parent as usize]] += s.ns();
        }
    }
    per_op
}

/// Writes the spans as one JSON document: a name table plus one row
/// `[name, op_id, parent, start_ns, end_ns, probe]` per span (`parent`
/// is a row index, -1 for an op's root).
pub fn write_json(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut rows = Vec::with_capacity(spans.len());
    for s in spans {
        let name = match names.iter().position(|n| *n == s.name) {
            Some(i) => i,
            None => {
                names.push(s.name);
                names.len() - 1
            }
        };
        let parent = if s.parent == ROOT {
            -1
        } else {
            s.parent as i64
        };
        rows.push(format!(
            "[{name},{},{parent},{},{},{}]",
            s.op_id, s.start_ns, s.end_ns, s.probe as u8
        ));
    }
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    writeln!(out, "{{\"workload\":\"{workload}\",")?;
    writeln!(out, "\"names\":[{}],", quoted.join(","))?;
    writeln!(
        out,
        "\"columns\":[\"name\",\"op_id\",\"parent\",\"start_ns\",\"end_ns\",\"probe\"],"
    )?;
    writeln!(out, "\"spans\":[")?;
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(out, "{row}{sep}")?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64, probe: bool) -> Span {
        Span {
            name,
            op_id: 1,
            parent,
            start_ns,
            end_ns,
            probe,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_but_not_probes() {
        let spans = vec![
            span("update", ROOT, 0, 100, false),
            span("apply", 0, 10, 90, false),
            // Two repairs overlapping on two pool threads: 20..60 covered.
            span("repair", 1, 20, 50, false),
            span("repair", 1, 30, 60, false),
            span("classify", 0, 90, 99, true),
        ];
        let sum = summarize(&spans);
        assert_eq!(sum["update"].self_ns, 20);
        assert_eq!(sum["apply"].self_ns, 40);
        assert_eq!(sum["repair"].total_ns, 60);
        assert_eq!(sum["classify"].count, 1);
        assert_eq!(attributed_ns(&spans, "update"), [80]);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("query");
        let s = t.now();
        t.finish("get", root, s);
        t.close(root);
        assert!(t.spans.is_empty());
        assert_eq!(t.take_probe_ns(), 0);
    }
}
