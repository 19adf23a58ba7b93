//! The [`GraphEngine`] facade: the property-graph backend of the paper's
//! architecture (Fig. 10), standing in for Neo4j.

use sgq_algebra::ast::PathExpr;
use sgq_algebra::eval::PairSet;
use sgq_common::{Limits, Result};
use sgq_graph::GraphDatabase;
use sgq_query::cqt::Ucqt;

use crate::conjunctive::run_cqt;
use crate::patheval::{eval_seeded, EvalCounters, Seeds};
pub use crate::rows::Rows;

/// A query engine bound to one graph database, evaluating under one
/// [`Limits`].
pub struct GraphEngine<'a> {
    pub(crate) db: &'a GraphDatabase,
    pub(crate) counters: EvalCounters,
    pub(crate) limits: Limits,
}

impl<'a> GraphEngine<'a> {
    /// Creates an engine over `db` with no deadline and no budget.
    pub fn new(db: &'a GraphDatabase) -> Self {
        GraphEngine::with_limits(db, Limits::default())
    }

    /// Creates an engine whose evaluations poll, record into and visit
    /// the fault sites of `limits`.
    pub fn with_limits(db: &'a GraphDatabase, limits: Limits) -> Self {
        GraphEngine {
            db,
            counters: EvalCounters::default(),
            limits,
        }
    }

    /// Aborts evaluation once `max_pairs` pairs have been materialised
    /// (0 = unlimited); a binding table is held to the same number of
    /// rows.
    pub fn set_max_pairs(&mut self, max_pairs: usize) {
        self.limits.max_rows = max_pairs;
    }

    /// The underlying database.
    pub fn database(&self) -> &'a GraphDatabase {
        self.db
    }

    /// Evaluates a bare path expression (baseline evaluation).
    pub fn eval_path(&self, expr: &PathExpr) -> Result<PairSet> {
        eval_seeded(self, expr, Seeds::none())
    }

    /// Runs a UCQT query, returning sorted deduplicated head rows.
    ///
    /// Disjuncts of one query tend to repeat sub-expressions under the
    /// same seeds (the rewrite distributes unions over concatenation), so
    /// a query with several disjuncts evaluates them against a shared
    /// memo that lives exactly as long as this call.
    pub fn run_ucqt(&self, query: &Ucqt) -> Result<Rows> {
        query.validate()?;
        if let [cqt] = query.disjuncts.as_slice() {
            return run_cqt(self, cqt);
        }
        let _memo = self.counters.arm_memo();
        let parts = query
            .disjuncts
            .iter()
            .map(|cqt| run_cqt(self, cqt))
            .collect::<Result<Vec<Rows>>>()?;
        Ok(Rows::union(query.head.len(), parts))
    }

    /// Total pairs materialised since construction (work counter).
    pub fn pairs_materialized(&self) -> usize {
        self.counters.pairs.get()
    }

    /// Transitive-closure rounds run since construction.
    pub fn tc_rounds(&self) -> usize {
        self.counters.tc_rounds.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_common::SgqError;
    use sgq_graph::database::fig2_yago_database;
    use sgq_query::cqt::{Cqt, Relation};

    #[test]
    fn engine_matches_reference_on_paths() {
        let db = fig2_yago_database();
        let engine = GraphEngine::new(&db);
        for s in ["owns/isLocatedIn", "livesIn/isLocatedIn+", "isMarriedTo+"] {
            let e = parse_path(s, &db).unwrap();
            assert_eq!(
                engine.eval_path(&e).unwrap(),
                sgq_algebra::eval::eval_path(&db, &e)
            );
        }
    }

    #[test]
    fn ucqt_union_dedups() {
        let db = fig2_yago_database();
        let engine = GraphEngine::new(&db);
        let e = parse_path("owns | owns", &db).unwrap();
        let q = sgq_query::cqt::Ucqt::path_query(e);
        let rows = engine.run_ucqt(&q).unwrap();
        assert_eq!(rows.len(), 1);
    }

    /// Two disjuncts over a common first relation, each followed by
    /// `tail`: `(x, livesIn/isLocatedIn, z) ∧ (z, tail, y)`.
    fn shared_prefix_query(db: &GraphDatabase, tails: [&str; 2]) -> Ucqt {
        let [x, y, z] = [0, 1, 2].map(sgq_common::VarId::new);
        let disjunct = |tail: &str| Cqt {
            head: vec![x, y],
            atoms: vec![],
            relations: vec![
                Relation::plain(x, parse_path("livesIn/isLocatedIn", db).unwrap(), z),
                Relation::plain(z, parse_path(tail, db).unwrap(), y),
            ],
        };
        Ucqt {
            head: vec![x, y],
            disjuncts: tails.map(disjunct).to_vec(),
        }
    }

    #[test]
    fn memo_shares_work_without_changing_rows_and_never_outlives_the_call() {
        let db = fig2_yago_database();
        let query = shared_prefix_query(&db, ["isLocatedIn", "isLocatedIn/isLocatedIn"]);

        // Memo off: every disjunct on its own.
        let plain = GraphEngine::new(&db);
        let parts = query
            .disjuncts
            .iter()
            .map(|c| run_cqt(&plain, c).unwrap())
            .collect();
        let unshared = Rows::union(2, parts);
        assert!(!unshared.is_empty());

        let engine = GraphEngine::new(&db);
        assert_eq!(engine.run_ucqt(&query).unwrap(), unshared);
        assert!(
            engine.pairs_materialized() < plain.pairs_materialized(),
            "the second disjunct reuses livesIn/isLocatedIn"
        );
        assert!(!engine.counters.memo_armed(), "dropped after Ok");

        let mut starved = GraphEngine::new(&db);
        starved.set_max_pairs(1);
        assert!(starved.run_ucqt(&query).unwrap_err().is_row_budget());
        assert!(!starved.counters.memo_armed(), "dropped after Err");
    }

    /// `(a, isLocatedIn, b) ∧ (c, isLocatedIn, d)`: no shared variable, so
    /// the second join is a cartesian product of 4 × 4 rows built from
    /// only 8 materialised pairs.
    fn cartesian_query(db: &GraphDatabase) -> Ucqt {
        let [a, b, c, d] = [0, 1, 2, 3].map(sgq_common::VarId::new);
        let located = || parse_path("isLocatedIn", db).unwrap();
        Ucqt::single(Cqt {
            head: vec![a, b, c, d],
            atoms: vec![],
            relations: vec![
                Relation::plain(a, located(), b),
                Relation::plain(c, located(), d),
            ],
        })
    }

    #[test]
    fn binding_table_rows_are_held_to_the_pair_budget() {
        let db = fig2_yago_database();
        let query = cartesian_query(&db);
        let unlimited = GraphEngine::new(&db);
        assert_eq!(unlimited.run_ucqt(&query).unwrap().len(), 16);
        assert_eq!(unlimited.pairs_materialized(), 8);

        let mut engine = GraphEngine::new(&db);
        engine.set_max_pairs(10);
        match engine.run_ucqt(&query) {
            Err(SgqError::RowBudget { rows, budget }) => assert_eq!((rows, budget), (16, 10)),
            other => panic!("expected a row-budget error, got {other:?}"),
        }
        assert_eq!(
            engine.pairs_materialized(),
            8,
            "table rows are not counted as materialised pairs"
        );
    }

    #[test]
    fn expired_deadline_cancels_a_conjunctive_query() {
        let db = fig2_yago_database();
        let limits = Limits {
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        };
        let engine = GraphEngine::with_limits(&db, limits);
        assert!(engine
            .run_ucqt(&cartesian_query(&db))
            .unwrap_err()
            .is_timeout());
    }

    #[test]
    fn counters_accumulate() {
        let db = fig2_yago_database();
        let engine = GraphEngine::new(&db);
        let e = parse_path("isLocatedIn+", &db).unwrap();
        let _ = engine.eval_path(&e).unwrap();
        assert!(engine.pairs_materialized() > 0);
        assert!(engine.tc_rounds() > 0);
    }
}
