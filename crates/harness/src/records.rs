//! Serialisable raw measurements.
//!
//! Every experiment run can be dumped as JSON (`--out results.json`) so
//! the numbers in the experiment reports are auditable and regenerable;
//! rendering is the workspace JSON writer's ([`sgq_common::json`]).

use sgq_common::json::JsonValue;

use crate::runner::{Approach, Backend, Measurement};

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
    /// Builds a record from a measurement.
    pub fn new(
        query: &str,
        kind: &str,
        scale_factor: Option<f64>,
        approach: Approach,
        backend: Backend,
        measurement: Measurement,
        reverted: Option<bool>,
    ) -> Self {
        let (ms, rows) = match measurement {
            Measurement::Feasible { ms, rows } => (Some(ms), Some(rows)),
            Measurement::Infeasible => (None, None),
        };
        RunRecord {
            query: query.to_string(),
            kind: kind.to_string(),
            scale_factor,
            approach: approach.to_string(),
            backend: backend.to_string(),
            ms,
            rows,
            reverted,
        }
    }

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

    #[test]
    fn record_roundtrip() {
        let r = RunRecord::new(
            "IC13",
            "RQ",
            Some(1.0),
            Approach::Schema,
            Backend::Relational,
            Measurement::Feasible { ms: 12.5, rows: 42 },
            Some(true),
        );
        assert!(r.feasible());
        let json = to_json(&[r]);
        assert!(json.contains("\"IC13\""));
        assert!(json.contains("12.5"));
        assert!(json.contains("\"reverted\": true"));
    }

    #[test]
    fn infeasible_record() {
        let r = RunRecord::new(
            "Y1",
            "RQ",
            None,
            Approach::Baseline,
            Backend::Graph,
            Measurement::Infeasible,
            None,
        );
        assert!(!r.feasible());
        assert!(r.ms.is_none());
        let json = to_json(&[r]);
        assert!(json.contains("\"ms\": null"), "{json}");
    }
}
