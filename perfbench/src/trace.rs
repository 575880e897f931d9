//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span holds its layer, name, start, end, parent span, and a group id
//! shared by every span of one pass or one job. Spans stay in memory
//! until the run ends; [`Tracer::chrome_json`] then renders them as
//! Chrome trace-event JSON (opens offline in Perfetto or
//! `chrome://tracing`), and [`Tracer::self_times`] gives each layer's
//! self time: its spans' durations minus the time their child spans
//! cover. A disabled tracer records nothing and costs one branch per
//! call.

use crate::stats::json_str;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (module) the call enters, e.g. `"scale"`.
    pub layer: &'static str,
    /// Public function called, e.g. `"cc_labels"`.
    pub name: &'static str,
    /// Pass or job id shared by the spans of one unit of work.
    pub group: u64,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (spans already recorded are kept).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, group: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            group,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, returning its duration in milliseconds (0 when the
    /// tracer is off).
    pub fn end(&mut self, open: Open) -> f64 {
        let Some(idx) = open.0 else {
            return 0.0;
        };
        let now = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = now;
        self.spans[idx].dur_ns() as f64 / 1e6
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        group: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(layer, name, group);
        let r = f();
        let _ = self.end(open);
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `layer`/`name`.
    pub fn durations_ms(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Per `(layer, name)`: span count, total milliseconds, and self
    /// milliseconds (total minus the time covered by child spans).
    pub fn self_times(&self) -> BTreeMap<(&'static str, &'static str), (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<(&'static str, &'static str), (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry((s.layer, s.name)).or_default();
            e.0 += 1;
            e.1 += s.dur_ns() as f64 / 1e6;
            e.2 += s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, on one track per group, plus `metadata` as top-level
    /// `otherData`.
    pub fn chrome_json(&self, metadata: &[(String, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| json_str(&self.span_label(p)));
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"group\":{},\"span\":{},\"parent\":{}}}}}{}\n",
                json_str(&format!("{}.{}", s.layer, s.name)),
                json_str(s.layer),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.group,
                s.group,
                i,
                parent,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        let fields: Vec<String> = metadata
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        out.push_str(&fields.join(","));
        out.push_str("}}\n");
        out
    }

    fn span_label(&self, idx: usize) -> String {
        let s = &self.spans[idx];
        format!("{}.{}#{}", s.layer, s.name, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("pass", "p", 1);
        let inner = tr.begin("scale", "k", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let _ = tr.end(inner);
        let _ = tr.end(outer);
        let st = tr.self_times();
        let (n, total, own) = st[&("pass", "p")];
        let (_, inner_total, _) = st[&("scale", "k")];
        assert_eq!(n, 1);
        assert!((total - own - inner_total).abs() < 1e-9);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(tr.chrome_json(&[]).starts_with("{\"traceEvents\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let o = tr.begin("scale", "k", 0);
        assert_eq!(tr.end(o), 0.0);
        assert!(tr.spans().is_empty());
    }
}
