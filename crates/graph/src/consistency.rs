//! Schema–database consistency: Definition 3 of the paper.
//!
//! A database `D` is consistent with a schema `S` when the mapping `SD`
//! exists: every node's label appears in the schema, every edge's
//! `(source label, edge label, target label)` triple is a basic schema
//! triple, and every node property is declared (with the right type) on the
//! corresponding schema node.
//!
//! The checker reports *all* violations rather than failing fast, which is
//! what a real loader needs.

use sgq_common::{NodeId, SgqError};

use crate::database::GraphDatabase;
use crate::schema::GraphSchema;

/// One consistency violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A node's label has no schema node.
    UnknownNodeLabel {
        /// Offending node.
        node: NodeId,
        /// Its label name.
        label: String,
    },
    /// An edge's triple is not in `Tb(S)`.
    UnknownEdgeTriple {
        /// Source node.
        src: NodeId,
        /// Target node.
        tgt: NodeId,
        /// `(source label, edge label, target label)` as names.
        triple: (String, String, String),
    },
    /// A node property is undeclared or has the wrong type.
    BadProperty {
        /// Offending node.
        node: NodeId,
        /// Property key name.
        key: String,
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::UnknownNodeLabel { node, label } => {
                write!(f, "node {node} has label {label} absent from the schema")
            }
            Violation::UnknownEdgeTriple { src, tgt, triple } => write!(
                f,
                "edge ({src}, {tgt}) forms triple ({}, {}, {}) absent from the schema",
                triple.0, triple.1, triple.2
            ),
            Violation::BadProperty { node, key, reason } => {
                write!(f, "node {node} property {key}: {reason}")
            }
        }
    }
}

/// Result of a consistency check.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyReport {
    /// All violations found (empty = consistent).
    pub violations: Vec<Violation>,
}

impl ConsistencyReport {
    /// Whether the database conforms to the schema.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// Converts the report to a `Result`, erroring on the first violation.
    pub fn into_result(self) -> sgq_common::Result<()> {
        match self.violations.first() {
            None => Ok(()),
            Some(v) => Err(SgqError::Consistency(v.to_string())),
        }
    }
}

/// Checks Definition 3: does `db` conform to `schema`?
///
/// Labels are matched by name, so the database does not need to share the
/// schema's id space (it may have been built standalone, or be checked
/// against an inferred schema).
pub fn check_consistency(schema: &GraphSchema, db: &GraphDatabase) -> ConsistencyReport {
    let mut report = ConsistencyReport::default();
    // Labels are matched by *name*: the database need not share the
    // schema's id space (e.g. when checking against an inferred schema).
    let resolve = |l: sgq_common::NodeLabelId| schema.node_label(db.node_label_name(l));

    // Nodes: label must exist in the schema; properties must be declared.
    for n in db.node_ids() {
        let db_label = db.node_label(n);
        let Some(label) = resolve(db_label) else {
            report.violations.push(Violation::UnknownNodeLabel {
                node: n,
                label: db.node_label_name(db_label).to_string(),
            });
            continue;
        };
        for (key, value) in db.node_properties(n) {
            let key_name = db.key_name(*key);
            match schema.key(key_name) {
                None => report.violations.push(Violation::BadProperty {
                    node: n,
                    key: key_name.to_string(),
                    reason: "key not declared anywhere in the schema".into(),
                }),
                Some(k) => match schema.property_type(label, k) {
                    None => report.violations.push(Violation::BadProperty {
                        node: n,
                        key: key_name.to_string(),
                        reason: format!("not declared on label {}", schema.node_label_name(label)),
                    }),
                    Some(ty) if ty != value.data_type() => {
                        report.violations.push(Violation::BadProperty {
                            node: n,
                            key: key_name.to_string(),
                            reason: format!(
                                "declared {ty} but value has type {}",
                                value.data_type()
                            ),
                        })
                    }
                    Some(_) => {}
                },
            }
        }
    }

    // Edges: (src label, edge label, tgt label) must be a basic triple.
    for le_idx in 0..db.edge_label_count() {
        let le = sgq_common::EdgeLabelId::new(le_idx as u32);
        let le_name = db.edge_label_name(le);
        let schema_le = schema.edge_label(le_name);
        for &(s, t) in db.edges(le) {
            let sl = db.node_label(s);
            let tl = db.node_label(t);
            let ok = schema_le.is_some_and(|sle| {
                matches!(
                    (resolve(sl), resolve(tl)),
                    (Some(ssl), Some(stl))
                        if schema
                            .triples_for_edge_label(sle)
                            .binary_search(&(ssl, stl))
                            .is_ok()
                )
            });
            if !ok {
                report.violations.push(Violation::UnknownEdgeTriple {
                    src: s,
                    tgt: t,
                    triple: (
                        db.node_label_name(sl).to_string(),
                        le_name.to_string(),
                        db.node_label_name(tl).to_string(),
                    ),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{fig2_yago_database, GraphDatabase};
    use crate::schema::fig1_yago_schema;
    use crate::value::Value;

    #[test]
    fn fig2_is_consistent_with_fig1() {
        // Example 3 of the paper.
        let schema = fig1_yago_schema();
        let db = fig2_yago_database();
        let report = check_consistency(&schema, &db);
        assert!(report.is_consistent(), "{:?}", report.violations);
        assert!(report.into_result().is_ok());
    }

    #[test]
    fn detects_unknown_node_label() {
        let schema = fig1_yago_schema();
        let mut b = GraphDatabase::builder(&schema);
        b.node("ALIEN", &[]);
        let db = b.build().unwrap();
        let report = check_consistency(&schema, &db);
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0],
            Violation::UnknownNodeLabel { .. }
        ));
        assert!(report.into_result().is_err());
    }

    #[test]
    fn detects_bad_edge_triple() {
        let schema = fig1_yago_schema();
        let mut b = GraphDatabase::builder(&schema);
        let a = b.node("CITY", &[]);
        let c = b.node("PERSON", &[]);
        // CITY --owns--> PERSON is not in the schema.
        b.edge(a, "owns", c);
        let db = b.build().unwrap();
        let report = check_consistency(&schema, &db);
        assert!(matches!(
            report.violations[0],
            Violation::UnknownEdgeTriple { .. }
        ));
    }

    #[test]
    fn detects_unknown_edge_label() {
        let schema = fig1_yago_schema();
        let mut b = GraphDatabase::builder(&schema);
        let a = b.node("PERSON", &[]);
        let c = b.node("PERSON", &[]);
        b.edge(a, "fliesTo", c);
        let db = b.build().unwrap();
        assert!(!check_consistency(&schema, &db).is_consistent());
    }

    #[test]
    fn detects_wrong_property_type() {
        let schema = fig1_yago_schema();
        let mut b = GraphDatabase::builder(&schema);
        b.node("PERSON", &[("age", Value::str("twenty"))]);
        let db = b.build().unwrap();
        let report = check_consistency(&schema, &db);
        assert!(matches!(
            report.violations[0],
            Violation::BadProperty { .. }
        ));
    }

    #[test]
    fn detects_undeclared_property() {
        let schema = fig1_yago_schema();
        let mut b = GraphDatabase::builder(&schema);
        b.node("CITY", &[("age", Value::Int(3))]);
        let db = b.build().unwrap();
        assert!(!check_consistency(&schema, &db).is_consistent());
    }
}
