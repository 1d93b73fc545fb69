//! The benchmark's own span recorder.
//!
//! Spans are taken around calls into each layer's public functions, from
//! the benchmark's side of the call: the program under test is never
//! instrumented. They are kept in memory and written out as a JSON-lines
//! file when the run ends; the per-layer table is then computed from that
//! file.
//!
//! A layer's self time is the duration of its spans minus the part their
//! children cover. One extra relation covers the serving replay:
//! `Fleet::run` waits inside a replay span while another process rebuilds
//! and reprices the iteration the run is about to price itself. The replay
//! span names the span it `replays`, and its children count as children of
//! that span too, so the run's self time leaves out both the wait and the
//! work the replay stands for.

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    pub id: usize,
    pub name: String,
    pub layer: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The span whose work this span re-executes (the serving replay).
    pub replays: Option<usize>,
    /// Workload, repetition and iteration the span belongs to.
    pub tag: String,
}

impl SpanRecord {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store. Spans nest: `enter` makes the new span the parent
/// of every span entered before its `exit`.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
    tag: RefCell<String>,
    replays: Cell<Option<usize>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            tag: RefCell::new(String::new()),
            replays: Cell::new(None),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// The tag stamped on spans entered now.
    pub fn tag(&self) -> String {
        self.tag.borrow().clone()
    }

    /// Sets the tag stamped on spans entered from now on.
    pub fn set_tag(&self, tag: String) {
        *self.tag.borrow_mut() = tag;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&self, name: &str, layer: &str) -> usize {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.open.borrow().last().copied();
        spans.push(SpanRecord {
            id,
            name: name.to_owned(),
            layer: layer.to_owned(),
            start_ns: 0,
            end_ns: 0,
            parent,
            replays: self.replays.take(),
            tag: self.tag.borrow().clone(),
        });
        self.open.borrow_mut().push(id);
        // Read the clock last, so the bookkeeping above stays outside the
        // span.
        spans[id].start_ns = self.now_ns();
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&self, id: usize) {
        let end = self.now_ns();
        let popped = self.open.borrow_mut().pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans.borrow_mut()[id].end_ns = end;
    }

    /// Adds a closed span with the given times as a child of the innermost
    /// open span: work timed elsewhere, such as in the replay process.
    pub fn record(&self, name: &str, layer: &str, start_ns: u64, end_ns: u64) {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(SpanRecord {
            id,
            name: name.to_owned(),
            layer: layer.to_owned(),
            start_ns,
            end_ns,
            parent: self.open.borrow().last().copied(),
            replays: None,
            tag: self.tag.borrow().clone(),
        });
    }

    /// Marks the next entered span as a replay of span `of`.
    pub fn next_replays(&self, of: usize) {
        self.replays.set(Some(of));
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        assert!(self.open.borrow().is_empty(), "every span must be closed");
        self.spans.borrow().clone()
    }
}

/// Times `f` as a span when a recorder is attached; runs it bare otherwise,
/// so untraced runs make plain public calls.
pub fn span<T>(rec: Option<&Recorder>, name: &str, layer: &str, f: impl FnOnce() -> T) -> T {
    match rec {
        None => f(),
        Some(r) => {
            let id = r.enter(name, layer);
            let out = f();
            r.exit(id);
            out
        }
    }
}

/// Self time per span: its duration minus the durations of its children,
/// where a replay span's children also count as children of the span it
/// replays.
pub fn self_times(spans: &[SpanRecord]) -> Vec<f64> {
    let mut child_s = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.duration_s();
            if let Some(r) = spans[p].replays {
                child_s[r] += s.duration_s();
            }
        }
    }
    spans
        .iter()
        .zip(&child_s)
        .map(|(s, c)| s.duration_s() - c)
        .collect()
}

/// Sums self time per `(group, layer)`, where the group is the span tag up
/// to its first `/` (the repetition).
pub fn layer_self_times(spans: &[SpanRecord]) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut out: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        let group = s.tag.split('/').next().unwrap_or_default().to_owned();
        *out.entry(group)
            .or_default()
            .entry(s.layer.clone())
            .or_default() += self_s;
    }
    out
}

/// Writes the spans as JSON lines, one span per line.
pub fn write(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    for s in spans {
        out.push_str(&serde_json::to_string(s).map_err(std::io::Error::other)?);
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// Reads a file written by [`write`].
pub fn read(path: &std::path::Path) -> std::io::Result<Vec<SpanRecord>> {
    std::fs::read_to_string(path)?
        .lines()
        .map(|l| serde_json::from_str(l).map_err(std::io::Error::other))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, layer: &str, start: u64, end: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            id,
            name: format!("s{id}"),
            layer: layer.to_owned(),
            start_ns: start,
            end_ns: end,
            parent,
            replays: None,
            tag: "rep0/x".to_owned(),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_replayed_children() {
        let mut spans = vec![
            rec(0, "bench", 0, 100, None),
            rec(1, "serve", 0, 100, Some(0)),
            rec(2, "ctrl", 5, 10, Some(1)),
            rec(3, "bench", 20, 50, Some(1)),
            rec(4, "model", 22, 32, Some(3)),
            rec(5, "gpusim", 32, 48, Some(3)),
        ];
        spans[3].replays = Some(1);
        let s = self_times(&spans);
        let ns = |x: f64| (x * 1e9).round() as i64;
        assert_eq!(ns(s[0]), 0);
        // The run less the decision, the wait, and the replayed build and
        // pricing the wait contains.
        assert_eq!(ns(s[1]), 100 - 5 - 30 - 10 - 16);
        assert_eq!(ns(s[3]), 30 - 10 - 16);
        let layers = layer_self_times(&spans);
        let total: f64 = layers["rep0"].values().sum();
        // Replayed time is attributed twice by design: once to the replay
        // and once subtracted from the span it replays.
        assert_eq!(ns(total), 100 - 26);
    }

    #[test]
    fn trace_file_round_trips() {
        let r = Recorder::new();
        r.set_tag("rep0/setup".to_owned());
        let outer = r.enter("outer", "bench");
        span(Some(&r), "inner", "model", || ());
        r.exit(outer);
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}.trace.jsonl", std::process::id()));
        write(&path, &spans).expect("trace writes");
        let back = read(&path).expect("trace reads");
        std::fs::remove_file(&path).expect("trace removed");
        assert_eq!(back, spans);
    }
}
