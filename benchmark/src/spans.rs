//! In-memory spans recorded by the benchmark around its own calls into
//! the program, written out as Chrome `trace_event` JSON (open it in
//! Perfetto or `chrome://tracing`) when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span, usable as a parent.
pub type SpanId = usize;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the span covers.
    pub name: &'static str,
    /// Start, in µs since the recorder's origin.
    pub start_us: f64,
    /// End, in µs since the origin (`None` while open).
    pub end_us: Option<f64>,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Lane: 0 for the benchmark's main thread, the connection number
    /// for a load-generator request.
    pub lane: u32,
    /// Request id, for spans of one request.
    pub request: Option<u64>,
}

/// Span recorder; one per thread, merged with [`Spans::absorb`].
#[derive(Debug, Clone)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder measuring from `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant spans are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Open a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_us = self.us(Instant::now());
        self.spans.push(Span {
            name,
            start_us,
            end_us: None,
            parent,
            lane: 0,
            request: None,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now and return its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end = self.us(Instant::now());
        let span = &mut self.spans[id];
        span.end_us = Some(end);
        (end - span.start_us) / 1e6
    }

    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's duration in seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Record an already measured interval of one request.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        lane: u32,
        request: u64,
    ) {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            name,
            start_us,
            end_us: Some(end_us),
            parent: None,
            lane,
            request: Some(request),
        });
    }

    /// Move every span of `other` (same origin) into this recorder.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Chrome `trace_event` JSON: one complete (`"ph":"X"`) event per
    /// closed span, lane as thread id, parent and request as args.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate() {
            let Some(end) = s.end_us else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id}",
                s.name,
                s.lane,
                s.start_us,
                (end - s.start_us).max(0.0)
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_export_with_parents() {
        let mut spans = Spans::new(Instant::now());
        let outer = spans.open("outer", None);
        let ((), inner_s) = spans.time("inner", Some(outer), || {});
        let outer_s = spans.close(outer);
        assert!(inner_s <= outer_s);
        let mut other = Spans::new(Instant::now());
        let now = Instant::now();
        other.record("submit", now, now, 2, 17);
        spans.absorb(other);
        let json = spans.to_chrome_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let Some(serde_json::Value::Array(events)) = v.get("traceEvents") else {
            panic!("no traceEvents in {json}");
        };
        assert_eq!(events.len(), 3);
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"request\":17"));
    }
}
