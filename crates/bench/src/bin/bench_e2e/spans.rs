//! In-memory spans recorded around the calls the benchmark makes into each
//! layer's public function: name, start, end, the enclosing span, and the
//! design point or request it belongs to. Kept in memory while timing and
//! written out as JSON lines afterwards.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serr_core::jsonio::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// The outermost enclosing span (itself for a root).
    pub root: usize,
    /// Design-point index (batch) or request index (serve).
    pub point: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// The id the next span will get — a root's id, taken before opening it.
    pub fn next_id(&self) -> usize {
        self.spans.len()
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        point: Option<usize>,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let root = parent.map_or(id, |p| self.spans[p].root);
        let start_us = self.now_us();
        self.spans.push(Span { name, start_us, end_us: start_us, parent, root, point });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    pub fn get(&self, id: usize) -> Option<&Span> {
        self.spans.get(id)
    }

    /// The most recently opened span (after it closed: its duration).
    pub fn last_ms(&self) -> f64 {
        self.spans.last().map_or(0.0, Span::ms)
    }

    fn under(&self, root: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.root == root)
    }

    /// Total duration (ms) and count of the spans named `name` under `root`.
    pub fn total(&self, root: usize, name: &str) -> (f64, usize) {
        self.under(root)
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| (ms + s.ms(), n + 1))
    }

    /// Self time per span name under `root`, in ms: each span's duration
    /// minus the part its direct children cover.
    pub fn self_ms(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ms) {
            if s.root == root {
                *out.entry(s.name).or_insert(0.0) += s.ms() - c;
            }
        }
        out
    }

    /// Appends every span to `path` as one JSON object per line.
    pub fn append_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
            let row = Json::Obj(vec![
                ("id".to_owned(), Json::Num(id as f64)),
                ("name".to_owned(), Json::Str(s.name.to_owned())),
                ("parent".to_owned(), opt(s.parent)),
                ("start_us".to_owned(), Json::Num(s.start_us)),
                ("end_us".to_owned(), Json::Num(s.end_us)),
                ("workload".to_owned(), Json::Str(workload.to_owned())),
                ("point".to_owned(), opt(s.point)),
            ]);
            text.push_str(&row.to_json());
            text.push('\n');
        }
        std::fs::OpenOptions::new().create(true).append(true).open(path)?.write_all(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_within_one_root() {
        let mut spans = Spans::new();
        let root = spans.next_id();
        spans.time("root", None, |s| {
            s.time("a", Some(0), |s| {
                s.time("b", Some(0), |_| std::thread::sleep(std::time::Duration::from_millis(4)));
            });
        });
        let other = spans.next_id();
        spans.time("b", None, |_| ());
        assert_eq!(spans.get(2).map(|s| (s.parent, s.root)), Some((Some(1), root)));
        let (b_ms, b_n) = spans.total(root, "b");
        assert_eq!(b_n, 1, "the second root's span is not counted");
        assert!(b_ms >= 4.0);
        let own = spans.self_ms(root);
        // Self times partition the root's duration exactly.
        let sum: f64 = own.values().sum();
        let root_ms = spans.get(root).map_or(0.0, Span::ms);
        assert!((sum - root_ms).abs() < 1e-6, "{sum} vs {root_ms}");
        assert!(own["a"] < b_ms);
        assert_eq!(spans.total(other, "b").1, 1);
    }
}
