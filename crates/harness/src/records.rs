//! Serialisable raw measurements.
//!
//! Every experiment run can be dumped as JSON (`--out results.json`) so
//! the numbers in the experiment reports are auditable and regenerable;
//! rendering is the workspace JSON writer's ([`sgq_common::json`]).

use sgq_common::json::JsonValue;

/// One (query, scale factor, approach, backend) measurement.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Query label (e.g. `IC13`).
    pub query: String,
    /// Recursive (`RQ`) or non-recursive (`NQ`).
    pub kind: String,
    /// Dataset scale factor (`None` for YAGO).
    pub scale_factor: Option<f64>,
    /// `B` (baseline) or `S` (schema).
    pub approach: String,
    /// Executing backend.
    pub backend: String,
    /// Mean runtime in milliseconds; `None` when infeasible.
    pub ms: Option<f64>,
    /// Result cardinality; `None` when infeasible.
    pub rows: Option<usize>,
    /// Whether the rewrite reverted (§5.2) — only set for `S` runs.
    pub reverted: Option<bool>,
}

impl RunRecord {
    /// Whether this run finished within the budget.
    pub fn feasible(&self) -> bool {
        self.ms.is_some()
    }
}

/// Serialises records as a JSON array (one object per record).
pub fn to_json(records: &[RunRecord]) -> String {
    let opt = |v: Option<JsonValue>| v.unwrap_or(JsonValue::Null);
    let record = |r: &RunRecord| {
        JsonValue::obj([
            ("query", JsonValue::str(r.query.clone())),
            ("kind", JsonValue::str(r.kind.clone())),
            ("scale_factor", opt(r.scale_factor.map(JsonValue::Num))),
            ("approach", JsonValue::str(r.approach.clone())),
            ("backend", JsonValue::str(r.backend.clone())),
            ("ms", opt(r.ms.map(JsonValue::Num))),
            ("rows", opt(r.rows.map(|n| JsonValue::Int(n as u64)))),
            ("reverted", opt(r.reverted.map(JsonValue::Bool))),
        ])
    };
    JsonValue::Arr(records.iter().map(record).collect()).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(query: &str, measured: Option<(f64, usize)>, reverted: Option<bool>) -> RunRecord {
        RunRecord {
            query: query.to_string(),
            kind: "RQ".to_string(),
            scale_factor: None,
            approach: "S".to_string(),
            backend: "relational".to_string(),
            ms: measured.map(|(ms, _)| ms),
            rows: measured.map(|(_, rows)| rows),
            reverted,
        }
    }

    #[test]
    fn record_roundtrip() {
        let r = record("IC13", Some((12.5, 42)), Some(true));
        assert!(r.feasible());
        let json = to_json(&[r]);
        assert!(json.contains("\"IC13\""));
        assert!(json.contains("12.5"));
        assert!(json.contains("\"reverted\": true"));
    }

    #[test]
    fn infeasible_record() {
        let r = record("Y1", None, None);
        assert!(!r.feasible());
        assert!(r.ms.is_none());
        let json = to_json(&[r]);
        assert!(json.contains("\"ms\": null"), "{json}");
    }
}
