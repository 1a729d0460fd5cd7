//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing here reaches into the program:
//! spans are either timed by the benchmark itself or derived from
//! instrumentation the program already returns (engine `StageReport`s)
//! or from replays of public functions, and are attached as children of
//! the call that contains that work.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// `layer.what`, e.g. `detect.sd` or `core.persist`.
    pub name: String,
    /// Offsets from the tracer's origin, in milliseconds.
    pub start_ms: f64,
    pub end_ms: f64,
    /// Which traced pass of the run the span belongs to.
    pub run: usize,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    /// The layer a span is attributed to: the name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

pub struct Tracer {
    origin: Instant,
    run: usize,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// A tracer sharing `origin` with others (one per client thread), so
    /// their spans can be merged with [`Tracer::absorb`].
    pub fn with_origin(origin: Instant, run: usize) -> Tracer {
        Tracer {
            origin,
            run,
            spans: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// The current traced pass.
    pub fn run(&self) -> usize {
        self.run
    }

    /// Append another tracer's spans, renumbering their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    pub fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Start a new traced pass; later spans carry its id.
    pub fn next_run(&mut self) -> usize {
        self.run += 1;
        self.run
    }

    /// Open a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start = self.now_ms();
        self.record(name, parent, start, start)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ms = self.now_ms();
    }

    /// Record a span with explicit bounds (derived or replayed work).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_ms: f64,
        end_ms: f64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ms,
            end_ms,
            run: self.run,
        });
        id
    }

    /// Attach a child of `parent` of the given duration, starting
    /// `offset_ms` after the parent starts and clipped to the parent.
    pub fn child(&mut self, parent: usize, name: &str, offset_ms: f64, dur_ms: f64) -> usize {
        let p = &self.spans[parent];
        let start = (p.start_ms + offset_ms).min(p.end_ms);
        let end = (start + dur_ms.max(0.0)).min(p.end_ms);
        self.record(name, Some(parent), start, end)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children count
    /// once).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ms, s.end_ms));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.dur_ms() - covered(s.start_ms, s.end_ms, kids)).max(0.0))
            .collect()
    }

    /// Self time per layer over the spans of the given runs.
    pub fn layer_self_ms(&self, runs: &[usize]) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, self_ms) in self.spans.iter().zip(self.self_times()) {
            if runs.contains(&s.run) {
                *out.entry(s.layer().to_string()).or_insert(0.0) += self_ms;
            }
        }
        out
    }

    /// Durations of every span with this exact name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ms\":{:.4},\"end_ms\":{:.4},\"run\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ms,
                s.end_ms,
                s.run
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&str, Option<usize>, f64, f64)]) -> Tracer {
        let mut t = Tracer::default();
        t.next_run();
        for &(name, parent, s, e) in spans {
            t.record(name, parent, s, e);
        }
        t
    }

    #[test]
    fn self_time_subtracts_children_once_even_when_they_overlap() {
        let t = tracer_with(&[
            ("pass", None, 0.0, 100.0),
            ("detect.a", Some(0), 10.0, 50.0),
            ("detect.b", Some(0), 30.0, 70.0),
            ("repair.x", Some(0), 80.0, 90.0),
        ]);
        let st = t.self_times();
        // Children cover [10,70] and [80,90]: 70 ms of the pass.
        assert_eq!(st, vec![30.0, 40.0, 40.0, 10.0]);
        let layers = t.layer_self_ms(&[1]);
        assert_eq!(layers["detect"], 80.0);
        assert_eq!(layers["pass"], 30.0);
        assert!(t.layer_self_ms(&[2]).is_empty());
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut t = tracer_with(&[("core.call", None, 10.0, 20.0)]);
        let c = t.child(0, "profile.build", 2.0, 50.0);
        assert_eq!((t.spans()[c].start_ms, t.spans()[c].end_ms), (12.0, 20.0));
        assert_eq!(t.self_times()[0], 2.0);
        assert_eq!(t.spans()[c].layer(), "profile");
    }

    #[test]
    fn absorbed_spans_keep_their_tree() {
        let mut a = tracer_with(&[("pass", None, 0.0, 10.0)]);
        let mut b = Tracer::with_origin(a.origin(), 1);
        let root = b.record("pass", None, 1.0, 9.0);
        b.record("rest.submit", Some(root), 2.0, 3.0);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.layer_self_ms(&[1])["pass"], 17.0);
    }

    #[test]
    fn nested_spans_attribute_self_time_per_level() {
        let t = tracer_with(&[
            ("pass", None, 0.0, 10.0),
            ("core.call", Some(0), 1.0, 9.0),
            ("fd.tane", Some(1), 2.0, 8.0),
        ]);
        assert_eq!(t.self_times(), vec![2.0, 2.0, 6.0]);
        assert_eq!(t.durations("fd.tane"), vec![6.0]);
    }
}
