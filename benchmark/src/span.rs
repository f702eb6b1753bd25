//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only (nothing inside
//! the program is instrumented), kept in a `Vec` while the traced pass runs
//! and written out once, at the end, as `trace.json`.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer. Times are seconds since the recorder was
/// created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `linalg.generate`.
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the span that caused this one; `None` for a top-level span.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The module the span charges: the part of the name before the dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Span recorder of one traced pass.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the recorder's origin.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Record a span from two instants taken elsewhere (inside a rank
    /// closure, say) and return its index.
    pub fn push(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_s: self.at(start),
            end_s: self.at(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span under `parent`. The closure gets the recorder and
    /// the new span's index, so nested calls can record children.
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Recorder, usize) -> R,
    ) -> R {
        let start = Instant::now();
        let id = self.push(name, start, start, parent);
        let r = f(self, id);
        self.spans[id].end_s = self.at(Instant::now());
        r
    }

    /// Summed duration of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .fold(0.0, |a, b| a + b)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (two
/// ranks timed concurrently) or stick out of the parent (clock skew between
/// threads); the covered part is the union of the children clipped to the
/// parent, so neither case is counted twice or goes negative.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_s.max(spans[p].start_s), s.end_s.min(spans[p].end_s));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_s() - covered
        })
        .collect()
}

/// Self time summed per layer, in name order.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0.0) += t;
    }
    out
}

/// The `trace.json` document of one workload's traced pass.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let selfs = self_times(spans);
    let rows = spans
        .iter()
        .zip(&selfs)
        .map(|(s, &self_s)| {
            Value::Object(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("layer".into(), Value::Str(s.layer().into())),
                ("workload".into(), Value::Str(workload.into())),
                ("start_s".into(), Value::F64(s.start_s)),
                ("end_s".into(), Value::F64(s.end_s)),
                ("self_s".into(), Value::F64(self_s)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
            ])
        })
        .collect();
    let by_layer = self_time_by_layer(spans)
        .into_iter()
        .map(|(k, v)| (k, Value::F64(v)))
        .collect();
    Value::Object(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("self_s_by_layer".into(), Value::Object(by_layer)),
        ("spans".into(), Value::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_s,
            end_s,
            parent,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        let spans = [
            span("mpi.run", 0.0, 10.0, None),
            span("ime.solve", 2.0, 8.0, Some(0)),
            span("linalg.dgemm", 3.0, 5.0, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 4.0, 2.0]);
        let by = self_time_by_layer(&spans);
        assert_eq!(by["mpi"], 4.0);
        assert_eq!(by["ime"], 4.0);
        assert_eq!(by["linalg"], 2.0);
        assert_eq!(by.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = [
            span("mpi.run", 0.0, 10.0, None),
            span("monitor.begin", 1.0, 5.0, Some(0)),
            span("cg.solve", 4.0, 7.0, Some(0)),
            span("monitor.finish", 8.0, 9.0, Some(0)),
            // Entirely inside an earlier sibling: adds nothing.
            span("cg.inner", 2.0, 3.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10.0 - (6.0 + 1.0));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("mpi.run", 2.0, 6.0, None),
            span("ime.solve", 1.0, 3.0, Some(0)),
            span("ime.solve", 5.0, 9.0, Some(0)),
            span("ime.solve", 7.0, 8.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 4.0 - 2.0);
    }

    #[test]
    fn recorder_nests_and_totals() {
        let mut rec = Recorder::new();
        rec.span("harness.outer", None, |rec, outer| {
            rec.span("linalg.inner", Some(outer), |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].duration_s() >= rec.spans[1].duration_s());
        assert!(rec.total("linalg.inner") >= 0.005);
        assert_eq!(rec.total("harness.outer"), rec.spans[0].duration_s());
        assert_eq!(rec.total("no.such").to_bits(), 0.0f64.to_bits());
        let doc = to_json("w", &rec.spans);
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 2);
    }
}
