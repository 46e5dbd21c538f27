//! Spans around calls into a layer, recorded from the benchmark's side
//! of the public API.
//!
//! A span is named `<layer>.<call>`; the layer is the prefix before
//! the first dot. Spans live in memory until the run ends, then
//! [`write_chrome_trace`] writes them in the Chrome trace-event format
//! (open with `chrome://tracing` or Perfetto). A layer's *self time*
//! is each of its spans' duration minus the part of that interval its
//! child spans cover ([`self_times`]).
//!
//! [`Tracer::time`] is also how the harness measures: it always
//! returns the call's duration and only *keeps* the span when tracing
//! is on, so the untraced and the traced run execute the same code up
//! to one branch and one vector push per call.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a span in its tracer; `None` while tracing is off.
pub type SpanId = Option<usize>;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// The repetition the span belongs to (the identifier its spans
    /// share).
    pub repetition: u32,
    /// Small per-thread number, for the trace viewer's rows.
    pub thread: u32,
}

impl Span {
    /// The layer a span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// A tracer that keeps spans (`on`) or only measures (`!on`).
    pub fn new(on: bool) -> Self {
        Tracer { epoch: Instant::now(), spans: on.then(|| Mutex::new(Vec::new())) }
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Vec<Span>>> {
        self.spans.as_ref().map(|m| m.lock().expect("a tracing thread panicked"))
    }

    fn now_ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` as the span `name` under `parent`, handing `f` the new
    /// span's id for its own children. Returns `f`'s result and the
    /// wall time it took.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        repetition: u32,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        // Reserve the slot first so children get a parent id; the end
        // is patched in afterwards.
        let id = self.lock().map(|mut spans| {
            let start_ns = self.now_ns(start);
            let thread = THREAD.with(|t| *t);
            spans.push(Span { name, start_ns, end_ns: start_ns, parent, repetition, thread });
            spans.len() - 1
        });
        let result = f(id);
        let end = Instant::now();
        if let (Some(id), Some(mut spans)) = (id, self.lock()) {
            spans[id].end_ns = self.now_ns(end);
        }
        (result, end - start)
    }

    /// Ends tracing and hands the spans over.
    pub fn finish(self) -> Vec<Span> {
        self.spans.map(|m| m.into_inner().expect("a tracing thread panicked")).unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. The union matters:
/// children on different threads may overlap in time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (lo, hi) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if lo < hi {
                children[parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Writes `spans` as a Chrome trace-event file: one complete (`"X"`)
/// event per span, `cat` = layer, `args` = parent, repetition,
/// workload and self time.
pub fn write_chrome_trace(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    let selfs = self_times(spans);
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [")?;
    for (i, (span, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \
             \"repetition\": {}, \"workload\": \"{workload}\", \"self_ns\": {self_ns}}}}}{comma}",
            span.name,
            span.layer(),
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            span.thread,
            span.repetition,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span { name, start_ns, end_ns, parent, repetition: 0, thread: 0 }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let spans = [
            span("harness.repetition", 0, 100, None),
            span("backend.observe", 10, 60, Some(0)),
            span("engine.check", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn sibling_spans_add_up() {
        let spans = [
            span("harness.repetition", 0, 100, None),
            span("backend.observe", 10, 30, Some(0)),
            span("backend.checkpoint_window", 40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two threads: an application span and a checker span that
        // overlaps it and outlives the parent.
        let spans = [
            span("rt.ops", 0, 100, None),
            span("rt.checkpoint_now", 20, 50, Some(0)),
            span("rt.checkpoint_now", 40, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn layer_is_the_prefix() {
        assert_eq!(span("storage.replay_dir", 0, 1, None).layer(), "storage");
        assert_eq!(span("harness", 0, 1, None).layer(), "harness");
    }

    #[test]
    fn tracer_measures_when_off_and_keeps_spans_when_on() {
        let off = Tracer::new(false);
        let ((), took) = off.time("rt.ops", None, 0, |id| assert_eq!(id, None));
        assert!(took > Duration::ZERO);
        assert!(off.finish().is_empty());

        let on = Tracer::new(true);
        on.time("harness.repetition", None, 3, |root| {
            on.time("rt.ops", root, 3, |_| ());
        });
        let spans = on.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].repetition, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let dir = crate::scratch_dir("span-test");
        let path = dir.join("trace.json");
        let spans = [span("harness.repetition", 0, 2000, None), span("rt.ops", 500, 1500, Some(0))];
        write_chrome_trace(&path, "app_overhead", &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = crate::json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("rt"));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[0].get("args").unwrap().get("self_ns").unwrap().as_f64(), Some(1000.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
