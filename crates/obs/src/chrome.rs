//! Chrome-trace-event export: renders [`QueryTrace`]s as the JSON
//! object format (`{"traceEvents": [...]}`) that Perfetto and
//! `chrome://tracing` load directly.
//!
//! Every span becomes a complete (`"ph": "X"`) event with microsecond
//! `ts`/`dur` on the trace clock's timeline. Phase spans carry
//! `"cat": "phase"`, operator spans `"cat": "operator"`; each query
//! renders on its own track via `tid = trace_id`, so a multi-query
//! export shows concurrent queries stacked per track.

use std::sync::Arc;

use sgq_common::json::JsonValue;

use crate::span::{OpSpan, QueryTrace, Span, TagValue};

/// Process id used for all exported events (one logical process).
const PID: u64 = 1;

fn tag_value(v: &TagValue) -> JsonValue {
    match v {
        TagValue::Bool(b) => JsonValue::Bool(*b),
        TagValue::Int(n) => JsonValue::Int(*n),
        TagValue::Num(f) => JsonValue::Num(*f),
        TagValue::Str(s) => JsonValue::str(s.clone()),
    }
}

fn phase_event(trace: &QueryTrace, span: &Span) -> JsonValue {
    let mut args: Vec<(String, JsonValue)> = span
        .tags
        .iter()
        .map(|(k, v)| ((*k).to_string(), tag_value(v)))
        .collect();
    if span.parent == 0 {
        args.push(("query".to_string(), JsonValue::str(trace.query.clone())));
    }
    JsonValue::obj([
        ("name", JsonValue::str(span.name)),
        ("cat", JsonValue::str("phase")),
        ("ph", JsonValue::str("X")),
        ("ts", JsonValue::Int(span.start_us)),
        ("dur", JsonValue::Int(span.dur_us)),
        ("pid", JsonValue::Int(PID)),
        ("tid", JsonValue::Int(trace.trace_id)),
        ("args", JsonValue::Obj(args)),
    ])
}

fn op_event(trace: &QueryTrace, op: &OpSpan) -> JsonValue {
    JsonValue::obj([
        ("name", JsonValue::str(op.kind)),
        ("cat", JsonValue::str("operator")),
        ("ph", JsonValue::str("X")),
        ("ts", JsonValue::Int(op.start_us)),
        ("dur", JsonValue::Int(op.dur_us)),
        ("pid", JsonValue::Int(PID)),
        ("tid", JsonValue::Int(trace.trace_id)),
        (
            "args",
            JsonValue::obj([
                ("node", JsonValue::Int(op.node as u64)),
                ("rows", JsonValue::Int(op.rows as u64)),
                ("est_rows", JsonValue::Num(op.est_rows)),
                ("self_us", JsonValue::Int(op.self_us)),
            ]),
        ),
    ])
}

/// Renders one trace as a Chrome-trace JSON document tree.
pub fn chrome_trace(trace: &QueryTrace) -> JsonValue {
    chrome_traces(std::slice::from_ref(trace))
}

/// Renders several traces into one document; each query occupies its
/// own `tid` track.
pub fn chrome_traces<T: std::borrow::Borrow<QueryTrace>>(traces: &[T]) -> JsonValue {
    let mut events = Vec::new();
    for t in traces {
        let t = t.borrow();
        for span in &t.phases {
            events.push(phase_event(t, span));
        }
        for op in &t.ops {
            events.push(op_event(t, op));
        }
    }
    JsonValue::obj([
        ("traceEvents", JsonValue::Arr(events)),
        ("displayTimeUnit", JsonValue::str("ms")),
    ])
}

/// Renders a batch of shared traces to the final JSON string.
pub fn chrome_traces_json(traces: &[Arc<QueryTrace>]) -> String {
    chrome_traces(traces).render()
}

impl QueryTrace {
    /// This trace as a Chrome-trace JSON string (Perfetto-loadable).
    pub fn to_chrome_json(&self) -> String {
        chrome_trace(self).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::QueryTraceBuilder;
    use sgq_common::json::parse;

    #[test]
    fn export_parses_and_carries_both_categories() {
        let mut tb = QueryTraceBuilder::standalone("select *");
        let root = tb.begin("query");
        let exec = tb.begin("execute");
        tb.end_tagged(exec, vec![("rows", 3usize.into())]);
        tb.end(root);
        tb.set_ops(vec![OpSpan {
            node: 2,
            kind: "HashJoin",
            start_us: 1,
            dur_us: 5,
            self_us: 4,
            est_rows: 2.5,
            rows: 3,
        }]);
        let trace = tb.finish();
        let doc = parse(&trace.to_chrome_json()).expect("chrome export parses");
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        for e in events {
            assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
            assert!(e.get("ts").and_then(JsonValue::as_u64).is_some());
            assert!(e.get("dur").and_then(JsonValue::as_u64).is_some());
            assert_eq!(e.get("tid").and_then(JsonValue::as_u64), Some(1));
        }
        let root_event = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("query"))
            .unwrap();
        let args = root_event.get("args").unwrap();
        assert_eq!(
            args.get("query").and_then(JsonValue::as_str),
            Some("select *")
        );
        let op = events
            .iter()
            .find(|e| e.get("cat").and_then(JsonValue::as_str) == Some("operator"))
            .unwrap();
        assert_eq!(op.get("name").and_then(JsonValue::as_str), Some("HashJoin"));
        assert_eq!(
            op.get("args")
                .unwrap()
                .get("rows")
                .and_then(JsonValue::as_u64),
            Some(3)
        );
    }

    #[test]
    fn multi_trace_export_keeps_tracks_separate() {
        let tracer = crate::Tracer::new(8);
        let mk = |q: &str| {
            let mut tb = tracer.builder(q);
            let s = tb.begin("query");
            tb.end(s);
            Arc::new(tb.finish())
        };
        let json = chrome_traces_json(&[mk("a"), mk("b")]);
        let doc = parse(&json).unwrap();
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let tids: Vec<u64> = events
            .iter()
            .filter_map(|e| e.get("tid").and_then(JsonValue::as_u64))
            .collect();
        assert_ne!(tids[0], tids[1], "each query renders on its own track");
    }
}
