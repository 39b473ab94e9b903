//! In-memory spans for the traced run.
//!
//! A span names a call into one layer, with its start, end, the span
//! that caused it, and the step or request it belongs to. Spans stay in
//! a preallocated vector while the workload runs and are written out
//! once, after measuring, so recording costs two clock reads and a push.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span, usable as a parent.
pub type SpanId = usize;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `radio.advance`.
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// The span this one ran inside of.
    pub parent: Option<SpanId>,
    /// Step number or request id shared by the spans of one unit of work.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; a disabled trace records nothing.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Trace {
            epoch: Instant::now(),
            enabled,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
        }
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span between two instants; returns its id (or `None`
    /// when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        id: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, id };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// seconds (timed whether or not the trace is enabled).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, id);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Per-name totals: count, summed duration, and self time (duration
    /// minus the part covered by child spans), all in milliseconds.
    pub fn layer_table(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut table: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_ms += s.duration_ns() as f64 / 1e6;
            row.self_ms += s.duration_ns().saturating_sub(children) as f64 / 1e6;
        }
        table
    }

    /// [`Self::layer_table`] as JSON: span name → count, total and self
    /// milliseconds.
    pub fn layer_json(&self) -> Value {
        Value::Object(
            self.layer_table()
                .into_iter()
                .map(|(name, t)| {
                    let row =
                        json!({ "count": t.count, "total_ms": t.total_ms, "self_ms": t.self_ms });
                    (name.to_string(), row)
                })
                .collect(),
        )
    }

    /// The spans as JSON: one object per span.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                        "id": s.id,
                    })
                })
                .collect(),
        )
    }
}

/// Aggregates of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ms: f64,
    /// Summed duration not covered by child spans.
    pub self_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::new(true, 4);
        let base = Instant::now();
        let parent = t.record("outer", base, base + Duration::from_millis(10), None, 1);
        t.record("inner", base, base + Duration::from_millis(4), parent, 1);
        let table = t.layer_table();
        assert!((table["outer"].self_ms - 6.0).abs() < 1e-6);
        assert!((table["inner"].self_ms - 4.0).abs() < 1e-6);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false, 4);
        let ((), secs) = t.time("x", None, 0, || ());
        assert!(secs >= 0.0);
        assert_eq!(t.to_json(), Value::Array(Vec::new()));
    }
}
