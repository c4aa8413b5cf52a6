//! Span recorder for traced runs.
//!
//! Spans are recorded in the benchmark's own code around calls into each
//! layer's public functions, kept in memory, and written once at exit.
//! A span's self time is its duration minus the union of its children's
//! intervals, so overlapping children are not subtracted twice.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Spans kept per run; later spans are counted as dropped. Bounds the
/// trace file at a few tens of MiB.
const MAX_SPANS: usize = 250_000;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `serve.parse`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request the span belongs to; spans of one request share it.
    pub request: Option<u64>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span store. A disabled recorder records nothing and costs
/// one branch per call, which is how the untraced replay runs.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Nanoseconds between the recorder's origin and `t` (0 before it).
    pub fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an interval measured elsewhere (client request logs).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Runs `f` inside a span named `name`; `f` receives the recorder and
    /// the new span's id so it can open children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce(&mut Recorder, Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, None);
        }
        let start = Instant::now();
        let id = self.push(name, parent, request, start, start);
        let out = f(self, id);
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.offset_ns(Instant::now());
        }
        out
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes `trace-<workload>-<seed>.json` under `dir` and returns its
    /// path. Each span carries its self time.
    pub fn write(&self, dir: &Path, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{workload}-{seed}.json"));
        let self_ns = self_times(&self.spans);
        let mut out = String::with_capacity(128 * self.spans.len() + 256);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_dropped\":{},\"spans\":[",
            self.dropped
        );
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or("null".to_string(), |SpanId(p)| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"parent\":{parent},\"request\":{request},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(SpanId(p)) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.clamp(s.start_ns, s.end_ns), b.clamp(s.start_ns, s.end_ns));
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent: parent.map(SpanId),
            request: Some(1),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 40),  // overlaps the next child on [30, 40)
            span(Some(0), 30, 60),  //
            span(Some(0), 80, 120), // runs past the root's end: clipped
            span(Some(1), 15, 20),  // grandchild: only its parent pays
        ];
        let own = self_times(&spans);
        // Root: 100 − |[10,60) ∪ [80,100)| = 100 − 70.
        assert_eq!(own[0], 30);
        assert_eq!(own[1], 25);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 40);
        assert_eq!(own[4], 5);
    }

    #[test]
    fn nested_spans_record_parents_and_write_json() {
        let mut rec = Recorder::new(true);
        rec.span("outer", None, Some(7), |rec, id| {
            rec.span("inner", id, Some(7), |_, _| ());
            rec.span("inner", id, Some(7), |_, _| ());
        });
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].parent, Some(SpanId(0)));
        assert_eq!(rec.durations_ns("inner").len(), 2);
        let own = self_times(&rec.spans);
        let outer = rec.spans[0].end_ns - rec.spans[0].start_ns;
        assert!(own[0] <= outer);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("x", None, None, |_, id| id), None);
        assert!(off.spans.is_empty());

        let dir = std::env::temp_dir().join(format!("pinocchio-trace-test-{}", std::process::id()));
        let path = rec.write(&dir, "unit", 3).expect("trace written");
        let text = std::fs::read_to_string(&path).expect("trace readable");
        let v = serde_json::from_str(&text).expect("trace is JSON");
        let spans = v.get("spans").and_then(|s| s.as_array()).expect("spans");
        assert_eq!(spans.len(), 3);
        assert!(spans[1].get("self_ns").and_then(|x| x.as_u64()).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
