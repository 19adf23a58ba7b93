//! Aggregation over UCQT results — the extension the paper's §7 names as
//! future work ("extend the approach by considering queries with
//! aggregations").
//!
//! Because the schema-based rewrite preserves *set* semantics exactly
//! (Theorem 1), any aggregate computed over the result set — `COUNT`,
//! `COUNT DISTINCT` per group, `MIN`/`MAX` over node ids — is preserved
//! by the rewrite too. This module provides those aggregates over the
//! engine's result rows, plus a grouped form (`GROUP BY` one head
//! variable), so enriched queries can answer the paper's analytical
//! workloads end to end.

use sgq_common::{FxHashMap, NodeId, Result};
use sgq_query::cqt::Ucqt;

use crate::backend::{GraphEngine, Rows};

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Number of (distinct) result rows.
    Count,
    /// Smallest node id in the aggregated column.
    Min,
    /// Largest node id in the aggregated column.
    Max,
}

/// Result of a grouped aggregation: sorted `(group value, aggregate)`.
pub type GroupedCounts = Vec<(NodeId, u64)>;

/// Computes an ungrouped aggregate over the rows of `query`.
pub fn aggregate(
    engine: &GraphEngine<'_>,
    query: &Ucqt,
    agg: Aggregate,
    column: usize,
) -> Result<Option<u64>> {
    let rows = engine.run_ucqt(query)?;
    Ok(aggregate_rows(&rows, agg, column))
}

/// Aggregates already-materialised rows.
pub fn aggregate_rows(rows: &Rows, agg: Aggregate, column: usize) -> Option<u64> {
    match agg {
        Aggregate::Count => Some(rows.len() as u64),
        Aggregate::Min => rows.iter().map(|r| r[column].raw() as u64).min(),
        Aggregate::Max => rows.iter().map(|r| r[column].raw() as u64).max(),
    }
}

/// `SELECT group, COUNT(*) ... GROUP BY group`: counts result rows per
/// value of the head column `group_column`.
pub fn grouped_count(
    engine: &GraphEngine<'_>,
    query: &Ucqt,
    group_column: usize,
) -> Result<GroupedCounts> {
    let rows = engine.run_ucqt(query)?;
    Ok(grouped_count_rows(&rows, group_column))
}

/// Grouped count over already-materialised rows.
pub fn grouped_count_rows(rows: &Rows, group_column: usize) -> GroupedCounts {
    if group_column == 0 {
        // Rows are sorted by their first column: each group is one run.
        let mut out = GroupedCounts::new();
        for row in rows {
            match out.last_mut() {
                Some((group, count)) if *group == row[0] => *count += 1,
                _ => out.push((row[0], 1)),
            }
        }
        return out;
    }
    let mut counts: FxHashMap<NodeId, u64> = FxHashMap::default();
    for row in rows {
        *counts.entry(row[group_column]).or_insert(0) += 1;
    }
    let mut out: GroupedCounts = counts.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::database::fig2_yago_database;

    #[test]
    fn count_matches_result_cardinality() {
        let db = fig2_yago_database();
        let engine = GraphEngine::new(&db);
        let q = Ucqt::path_query(parse_path("isLocatedIn+", &db).unwrap());
        let n = aggregate(&engine, &q, Aggregate::Count, 0).unwrap();
        assert_eq!(n, Some(8));
    }

    #[test]
    fn min_max_over_column() {
        let db = fig2_yago_database();
        let engine = GraphEngine::new(&db);
        let q = Ucqt::path_query(parse_path("isMarriedTo", &db).unwrap());
        assert_eq!(aggregate(&engine, &q, Aggregate::Min, 0).unwrap(), Some(1));
        assert_eq!(aggregate(&engine, &q, Aggregate::Max, 1).unwrap(), Some(2));
    }

    #[test]
    fn empty_result_aggregates() {
        let db = fig2_yago_database();
        let engine = GraphEngine::new(&db);
        let q = Ucqt::path_query(parse_path("dealsWith", &db).unwrap());
        assert_eq!(
            aggregate(&engine, &q, Aggregate::Count, 0).unwrap(),
            Some(0)
        );
        assert_eq!(aggregate(&engine, &q, Aggregate::Min, 0).unwrap(), None);
    }

    #[test]
    fn grouped_count_by_source() {
        let db = fig2_yago_database();
        let engine = GraphEngine::new(&db);
        // isLocatedIn+ grouped by source: n1 reaches 3 places, n4 2, ...
        let q = Ucqt::path_query(parse_path("isLocatedIn+", &db).unwrap());
        let groups = grouped_count(&engine, &q, 0).unwrap();
        assert_eq!(
            groups,
            vec![
                (NodeId::new(0), 3),
                (NodeId::new(3), 2),
                (NodeId::new(4), 1),
                (NodeId::new(5), 2),
            ]
        );
    }

    #[test]
    fn grouped_count_by_target() {
        let db = fig2_yago_database();
        let engine = GraphEngine::new(&db);
        let q = Ucqt::path_query(parse_path("isLocatedIn+", &db).unwrap());
        let groups = grouped_count(&engine, &q, 1).unwrap();
        assert_eq!(groups.iter().map(|g| g.1).sum::<u64>(), 8);
        assert!(groups.windows(2).all(|w| w[0].0 < w[1].0));
        // France (n6) is reached from the property, both cities and the
        // region.
        assert!(groups.contains(&(NodeId::new(6), 4)));
    }

    #[test]
    fn aggregates_are_preserved_by_the_rewrite() {
        // Theorem 1 lifts to aggregates: COUNT over the enriched query
        // equals COUNT over the baseline.
        use sgq_core::pipeline::{rewrite_path, RewriteOptions, RewriteOutcome};
        let schema = sgq_graph::schema::fig1_yago_schema();
        let db = fig2_yago_database();
        let engine = GraphEngine::new(&db);
        for text in ["isLocatedIn+", "livesIn/isLocatedIn+", "owns/isLocatedIn"] {
            let expr = parse_path(text, &schema).unwrap();
            let baseline = Ucqt::path_query(expr.clone());
            let base_count = aggregate(&engine, &baseline, Aggregate::Count, 0).unwrap();
            let r = rewrite_path(&schema, &expr, RewriteOptions::default());
            let enriched_count = match &r.outcome {
                RewriteOutcome::Empty => Some(0),
                RewriteOutcome::Enriched(q) | RewriteOutcome::Reverted(q) => {
                    aggregate(&engine, q, Aggregate::Count, 0).unwrap()
                }
            };
            assert_eq!(base_count, enriched_count, "COUNT diverged for {text}");
            let base_groups = grouped_count(&engine, &baseline, 0).unwrap();
            if let RewriteOutcome::Enriched(q) = &r.outcome {
                assert_eq!(
                    base_groups,
                    grouped_count(&engine, q, 0).unwrap(),
                    "grouped COUNT diverged for {text}"
                );
            }
        }
    }
}
