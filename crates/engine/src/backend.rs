//! The [`GraphEngine`] facade: the property-graph backend of the paper's
//! architecture (Fig. 10), standing in for Neo4j.

use std::cell::RefCell;

use sgq_algebra::ast::PathExpr;
use sgq_algebra::eval::PairSet;
use sgq_common::{Limits, Result};
use sgq_graph::{closure::Scratch, GraphDatabase};
use sgq_query::cqt::Ucqt;

use crate::expand;
use crate::patheval::{eval_seeded, EvalCounters, Seeds};
pub use crate::rows::Rows;

/// A query engine bound to one graph database, evaluating under one
/// [`Limits`].
pub struct GraphEngine<'a> {
    pub(crate) db: &'a GraphDatabase,
    pub(crate) counters: EvalCounters,
    pub(crate) limits: Limits,
    /// The closure kernel's node marks, reused by every closure and every
    /// expand hop of this engine.
    pub(crate) scratch: RefCell<Scratch>,
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
            scratch: RefCell::new(Scratch::new(db.node_count())),
        }
    }

    /// Aborts evaluation once `max_pairs` pairs have been materialised
    /// (0 = unlimited); a binding-table row counts as one pair.
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

    /// Runs a UCQT query, returning sorted deduplicated head rows: every
    /// disjunct a pattern of steps over a binding table, the union's
    /// patterns one trie.
    pub fn run_ucqt(&self, query: &Ucqt) -> Result<Rows> {
        query.validate()?;
        expand::run(self, query)
    }

    /// Total pairs materialised since construction (work counter): every
    /// path evaluation's pairs, and the rows each step of a pattern
    /// writes.
    pub fn pairs_materialized(&self) -> usize {
        self.counters.pairs.get()
    }

    /// Frontier rounds of the closure kernel's component walks since
    /// construction.
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
    use std::sync::Arc;

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
    fn trie_shares_a_prefix_without_changing_rows() {
        let db = fig2_yago_database();
        let query = shared_prefix_query(&db, ["isLocatedIn", "isLocatedIn/isLocatedIn"]);
        let (_, trie) = expand::trie(&db, &query);
        assert_eq!(
            expand::trie_size(&trie),
            4,
            "livesIn/isLocatedIn/isLocatedIn, then one hop"
        );

        // Every disjunct on its own, and against the reference semantics
        // of its whole path.
        let alone = GraphEngine::new(&db);
        let parts = query
            .disjuncts
            .iter()
            .map(|c| Ok((alone.run_ucqt(&Ucqt::single(c.clone()))?, &[0, 1][..])));
        let unshared = Rows::union(2, parts.collect::<Result<_>>().unwrap());
        let mut want = Vec::new();
        for tail in ["isLocatedIn", "isLocatedIn/isLocatedIn"] {
            let path = parse_path(&format!("livesIn/isLocatedIn/{tail}"), &db).unwrap();
            want = sgq_common::sorted::union(&want, &sgq_algebra::eval::eval_path(&db, &path));
        }
        assert!(unshared.iter().eq(want.iter().map(|&(s, t)| [s, t])));
        assert!(!unshared.is_empty());

        let engine = GraphEngine::new(&db);
        assert_eq!(engine.run_ucqt(&query).unwrap(), unshared);
        assert!(
            engine.pairs_materialized() < alone.pairs_materialized(),
            "the second disjunct reuses livesIn/isLocatedIn"
        );

        let mut starved = GraphEngine::new(&db);
        starved.set_max_pairs(1);
        assert!(starved.run_ucqt(&query).unwrap_err().is_row_budget());
    }

    /// `r/s` through a hub: 300 sources reach it by `r`, and it reaches
    /// 300 targets by `s`, so the second hop emits 90 000 pairs.
    fn hub_database() -> GraphDatabase {
        let mut b = GraphDatabase::standalone_builder();
        let hub = b.node("N", &[]);
        for _ in 0..300 {
            let (src, tgt) = (b.node("N", &[]), b.node("N", &[]));
            b.edge(src, "r", hub);
            b.edge(hub, "s", tgt);
        }
        b.build().unwrap()
    }

    #[test]
    fn a_pair_budget_stops_the_kernel_in_the_middle_of_a_hop() {
        let db = hub_database();
        let query = Ucqt::path_query(parse_path("r/s", &db).unwrap());
        assert_eq!(
            GraphEngine::new(&db).run_ucqt(&query).unwrap().len(),
            90_000
        );

        let mut engine = GraphEngine::new(&db);
        engine.set_max_pairs(50_000);
        match engine.run_ucqt(&query) {
            // The first hop's 300 pairs (as evaluated, then as the
            // frontier), then the second hop's first batch: far short of
            // its 90 000.
            Err(SgqError::RowBudget { rows, budget }) => {
                assert_eq!((rows, budget), (2 * 300 + (1 << 16), 50_000))
            }
            other => panic!("expected a row-budget error, got {other:?}"),
        }
    }

    #[test]
    fn every_hop_visits_the_expand_fault_site() {
        use sgq_common::fault::{FaultConfig, FaultKind, FaultPlan};
        let db = fig2_yago_database();
        let query = Ucqt::path_query(parse_path("livesIn/isLocatedIn+", &db).unwrap());
        let armed = |kind| {
            let faults = FaultPlan::new(FaultConfig {
                seed: 1,
                probability: 1.0,
                site: Some("engine.expand"),
                kind,
            });
            let limits = Limits {
                faults: Some(Arc::clone(&faults)),
                ..Default::default()
            };
            (faults, limits)
        };
        let (faults, limits) = armed(FaultKind::Error);
        let err = GraphEngine::with_limits(&db, limits)
            .run_ucqt(&query)
            .unwrap_err();
        assert!(
            err.is_transient() && err.to_string().contains("engine.expand"),
            "{err}"
        );
        assert_eq!(
            faults.fired()["engine.expand"],
            1,
            "the first hop stops the walk"
        );

        let (_, limits) = armed(FaultKind::Expire);
        let err = GraphEngine::with_limits(&db, limits)
            .run_ucqt(&query)
            .unwrap_err();
        assert!(err.is_timeout(), "{err}");

        let (_, limits) = armed(FaultKind::Panic);
        let engine = GraphEngine::with_limits(&db, limits);
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run_ucqt(&query)));
        assert!(panicked.is_err());
    }

    /// `(a, isLocatedIn, b) ∧ (c, isLocatedIn, d)`: no shared variable, so
    /// the second step is a cartesian extension of 4 rows by 4 pairs.
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
        // The first step evaluates the 4 `isLocatedIn` pairs and writes
        // them as 4 rows; the second looks the same pairs up and writes
        // 4 × 4 rows: 4 + 4 + 16.
        let unlimited = GraphEngine::new(&db);
        assert_eq!(unlimited.run_ucqt(&query).unwrap().len(), 16);
        assert_eq!(unlimited.pairs_materialized(), 24);

        // 8 recorded rows pass a budget of 10; the cartesian step's 16
        // cross it.
        let mut engine = GraphEngine::new(&db);
        engine.set_max_pairs(10);
        match engine.run_ucqt(&query) {
            Err(SgqError::RowBudget { rows, budget }) => assert_eq!((rows, budget), (24, 10)),
            other => panic!("expected a row-budget error, got {other:?}"),
        }
        assert_eq!(engine.pairs_materialized(), 24);
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

    /// An `r` cycle through nodes `0..cycle`, and a tail of `tail` nodes
    /// after it, each pointing at the next and the last at node 0.
    fn cycle_and_tail(cycle: usize, tail: usize) -> GraphDatabase {
        let mut b = GraphDatabase::standalone_builder();
        let nodes: Vec<_> = (0..cycle + tail).map(|_| b.node("N", &[])).collect();
        for i in 0..cycle {
            b.edge(nodes[i], "r", nodes[(i + 1) % cycle]);
        }
        for i in cycle..cycle + tail {
            b.edge(
                nodes[i],
                "r",
                nodes[if i + 1 == cycle + tail { 0 } else { i + 1 }],
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn a_cycle_is_walked_once_for_all_its_starts() {
        let db = cycle_and_tail(300, 300);
        let engine = GraphEngine::new(&db);
        let pairs = engine.eval_path(&parse_path("r+", &db).unwrap()).unwrap();
        // Each cycle node reaches the cycle; tail node i reaches the
        // 299 - i tail nodes after it and the cycle.
        let tail: usize = (0..300).map(|i| 299 - i + 300).sum();
        assert_eq!(pairs.len(), 300 * 300 + tail);
        // One walk of the cycle, 301 rounds (the last finds nothing new),
        // then 299 copies; tail node i walks alone, 600 - i rounds.
        // Walking the cycle once per start would add 299 × 301.
        let walks: usize = (0..300).map(|i| 600 - i).sum();
        assert_eq!(engine.tc_rounds(), 301 + walks);
        // The step's 600 edges, the kernel's pairs, the result's.
        assert_eq!(engine.pairs_materialized(), 600 + 2 * pairs.len());
    }

    #[test]
    fn a_pair_budget_stops_a_closure_among_its_copies() {
        let db = cycle_and_tail(300, 300);
        let mut engine = GraphEngine::new(&db);
        engine.set_max_pairs(50_000);
        match engine.eval_path(&parse_path("r+", &db).unwrap()) {
            // The step's 600 edges, then the first batch of the cycle's
            // runs: one walk and 218 copies, short of its 90 000 pairs.
            Err(SgqError::RowBudget { rows, budget }) => {
                assert_eq!((rows, budget), (600 + (1 << 16), 50_000))
            }
            other => panic!("expected a row-budget error, got {other:?}"),
        }
    }

    #[test]
    fn an_expire_fault_inside_the_component_pass_is_a_timeout() {
        use sgq_common::fault::{FaultConfig, FaultKind, FaultPlan};
        // Two starts on a 70 000-node cycle: the pass takes 70 000 steps
        // before any walk, and visits `engine.closure` at step 65 536.
        let db = cycle_and_tail(70_000, 0);
        let faults = FaultPlan::new(FaultConfig {
            seed: 1,
            probability: 1.0,
            site: Some("engine.closure"),
            kind: FaultKind::Expire,
        });
        let limits = Limits {
            faults: Some(Arc::clone(&faults)),
            ..Default::default()
        };
        let engine = GraphEngine::with_limits(&db, limits);
        let starts = [0, 1].map(sgq_common::NodeId::new);
        let expr = parse_path("r+", &db).unwrap();
        let err = eval_seeded(&engine, &expr, Seeds::from_sources(&starts)).unwrap_err();
        assert!(err.is_timeout(), "{err}");
        assert_eq!(faults.visited()["engine.closure"], 1);
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
