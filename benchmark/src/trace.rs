//! In-memory span recorder for the traced (decomposed-twin) runs.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer of the library; nothing inside the library is instrumented. They
//! stay in memory and are written out once, after the measured work ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Totals for every span sharing one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerTime {
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their direct children cover.
    pub self_ns: u64,
}

/// Records nested spans for one workload.
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Per-name totals and self times.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Host time covered by spans that have no parent.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes every span as JSON (`{"workload":…,"columns":[…],"spans":[[name,start,end,parent],…]}`).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let rows: Vec<_> = self
            .spans
            .iter()
            .map(|s| (s.name, s.start_ns, s.end_ns, s.parent))
            .collect();
        let doc = serde_json::json!({
            "workload": self.workload,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": rows,
        });
        let text = serde_json::to_string(&doc).map_err(std::io::Error::other)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// What recording one span costs, from a burst of empty ones.
pub fn empty_span_ns() -> f64 {
    const SPANS: u64 = 200_000;
    let mut t = Tracer::new("calibration");
    t.enter("outer");
    for _ in 0..SPANS {
        t.span("empty", || ());
    }
    t.exit();
    t.top_level_ns() as f64 / SPANS as f64
}

/// Self time = a span's duration minus the part of it its direct children
/// cover. Children are recorded strictly nested and never overlap each
/// other, so the covered part is the sum of their durations.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("step", 0, 100, None),
            span("tick", 10, 70, Some(0)),
            span("reclaim", 20, 50, Some(1)),
            span("scan", 70, 90, Some(0)),
            span("step", 100, 130, None),
        ];
        let l = layer_times(&spans);
        assert_eq!(
            l["step"],
            LayerTime {
                calls: 2,
                total_ns: 130,
                self_ns: 100 - 60 - 20 + 30
            }
        );
        assert_eq!(l["tick"].self_ns, 30);
        assert_eq!(l["reclaim"].self_ns, 30);
        assert_eq!(l["scan"].total_ns, 20);
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut t = Tracer::new("w");
        t.enter("outer");
        let v = t.span("inner", || 7);
        t.exit();
        assert_eq!(v, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.durations("inner").len(), 1);
        assert_eq!(t.top_level_ns(), t.spans[0].end_ns - t.spans[0].start_ns);
        let l = t.layers();
        assert!(l["outer"].self_ns <= l["outer"].total_ns);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        t.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"workload\":\"w\""));
        assert!(text.contains("[\"inner\","));
        assert!(text.contains(",null]") && text.ends_with(",0]]}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
