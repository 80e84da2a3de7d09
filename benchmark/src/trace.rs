//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every rank thread owns one [`Tracer`]; spans stay in memory and are
//! merged and written as Chrome-trace JSON when the run ends. An
//! untraced run holds a disabled tracer, which records nothing.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json;

/// One timed interval on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    pub rank: usize,
    pub step: usize,
}

/// Handle of an open span; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended has no duration"]
pub struct Open(Option<usize>);

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    rank: usize,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run, so lanes line up.
    pub fn new(epoch: Instant, rank: usize, enabled: bool) -> Tracer {
        Tracer { epoch, rank, enabled, spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str, step: usize) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            rank: self.rank,
            step,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "span left open");
        self.spans
    }
}

/// Concatenate per-rank span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Total self time per span name, milliseconds: each span's duration
/// minus the part its children cover.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Render spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
/// complete events, one lane (`tid`) per rank, microsecond timestamps.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str("{\"ph\": \"X\", \"pid\": 0, \"tid\": ");
        json::write_num(&mut out, s.rank as f64);
        out.push_str(", \"name\": ");
        json::write_str(&mut out, &s.name);
        out.push_str(", \"ts\": ");
        json::write_num(&mut out, s.start_ns as f64 / 1e3);
        out.push_str(", \"dur\": ");
        json::write_num(&mut out, (s.end_ns - s.start_ns) as f64 / 1e3);
        out.push_str(", \"args\": {\"step\": ");
        json::write_num(&mut out, s.step as f64);
        out.push_str(", \"start_ns\": ");
        json::write_num(&mut out, s.start_ns as f64);
        out.push_str(", \"end_ns\": ");
        json::write_num(&mut out, s.end_ns as f64);
        out.push_str(", \"parent\": ");
        match s.parent {
            Some(p) => json::write_num(&mut out, p as f64),
            None => out.push_str("null"),
        }
        out.push_str("}}");
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// Write the trace artifact, creating its directory.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_json(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns: start, end_ns: end, parent, rank: 0, step: 0 }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 0, false);
        let a = t.begin("step", 0);
        let b = t.begin("forward", 0);
        t.end(b);
        t.end(a);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_merge_rebases_them() {
        let epoch = Instant::now();
        let mut lists = Vec::new();
        for rank in 0..2 {
            let mut t = Tracer::new(epoch, rank, true);
            let a = t.begin("step", 7);
            let b = t.begin("forward", 7);
            t.end(b);
            let c = t.begin("backward", 7);
            t.end(c);
            t.end(a);
            lists.push(t.into_spans());
        }
        let all = merge(lists);
        let parents: Vec<_> = all.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None, Some(3), Some(3)]);
        assert!(all.iter().all(|s| s.step == 7 && s.end_ns >= s.start_ns));
        assert_eq!(all[4].rank, 1);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("step", 0, 10_000_000, None),
            span("forward", 1_000_000, 3_000_000, Some(0)),
            span("backward", 3_000_000, 9_000_000, Some(0)),
            span("step", 10_000_000, 12_000_000, None),
        ];
        let own = self_time_ms(&spans);
        assert_eq!(own["step"], 2.0 + 2.0);
        assert_eq!(own["forward"], 2.0);
        assert_eq!(own["backward"], 6.0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_lane_per_rank() {
        let mut spans = vec![span("a \"quoted\" name", 5, 2005, None)];
        spans.push(Span { rank: 1, parent: Some(0), ..span("b", 10, 20, None) });
        let doc = json::parse(&chrome_json(&spans)).expect("chrome trace parses");
        let events = doc.get("traceEvents").and_then(json::Json::as_arr).expect("event list");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").and_then(json::Json::as_f64), Some(2.0));
        assert_eq!(events[1].get("tid").and_then(json::Json::as_f64), Some(1.0));
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(json::Json::as_f64), Some(0.0));
        assert_eq!(args.get("end_ns").and_then(json::Json::as_f64), Some(20.0));
    }
}
