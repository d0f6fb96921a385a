//! In-memory spans recorded around the benchmark's calls into the
//! program, and the per-layer self time derived from them.
//!
//! A disabled [`Tracer`] records nothing and only runs the closure, so
//! the untraced passes that give the end-to-end metrics pay no tracing
//! cost beyond one branch per call.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (its index in [`Tracer::spans`]).
pub type SpanId = usize;

/// One timed call: which layer was entered, through which operation,
/// for which key (benchmark, configuration or pass), and the span that
/// caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// This span's identifier.
    pub id: SpanId,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The program layer called (`engine`, `runner`, `sim`, ...), or
    /// `bench` for the benchmark's own grouping spans.
    pub layer: &'static str,
    /// The public function or phase.
    pub op: &'static str,
    /// What the call worked on, e.g. `gzip.fixed` or `repeat`.
    pub key: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans from any thread; shared by reference.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: None,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span; `f` receives the span's id so nested
    /// calls can name it as their parent.  The span is reserved before
    /// `f` runs, so a parent's id is smaller than its children's.
    pub fn span<R>(
        &self,
        layer: &'static str,
        op: &'static str,
        key: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let start_ns = self.now_ns();
        let id = {
            let mut spans = spans.lock().expect("span list poisoned");
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                layer,
                op,
                key: key.to_string(),
                start_ns,
                end_ns: start_ns,
            });
            id
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        spans.lock().expect("span list poisoned")[id].end_ns = end_ns;
        out
    }

    /// The spans recorded so far, in creation order.
    pub fn spans(&self) -> Vec<Span> {
        match &self.spans {
            Some(spans) => spans.lock().expect("span list poisoned").clone(),
            None => Vec::new(),
        }
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`
/// (each clipped to the window first).  Children of one span may run
/// in parallel, so their durations cannot simply be summed.
pub fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_ns(span: &Span, spans: &[Span]) -> u64 {
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns, c.end_ns))
        .collect();
    span.ns() - covered_ns(span.start_ns, span.end_ns, &children)
}

/// Self time summed per layer, in nanoseconds.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_insert(0) += self_ns(s, spans);
    }
    by_layer
}

/// Total nanoseconds of the spans matching `layer`/`op` and, when given,
/// `key`, with the number of spans matched.
pub fn total_ns(spans: &[Span], layer: &str, op: &str, key: Option<&str>) -> (u64, usize) {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.op == op && key.is_none_or(|k| s.key == k))
        .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
}

/// The spans as JSON (one object per span plus the per-layer self
/// times), for the file the traced run writes at exit.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"op\": \"{}\", \"key\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.layer,
                s.op,
                s.key,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    let self_times: Vec<String> = self_ns_by_layer(spans)
        .iter()
        .map(|(layer, ns)| format!("\"{layer}\": {ns}"))
        .collect();
    format!(
        "{{\"self_ns_by_layer\": {{{}}},\n\"spans\": [\n{}\n]}}\n",
        self_times.join(", "),
        rows.join(",\n")
    )
}
