//! The property-graph query engine (the paper's GDBMS backend substitute).
//!
//! Evaluates UCQT queries directly over a [`sgq_graph::GraphDatabase`]:
//!
//! * [`patheval`] — seeded pair-set evaluation of path expressions over
//!   CSR adjacency, every `l+` through `sgq_graph::closure`,
//! * `expand` — the one CQT executor: every disjunct a pattern of steps
//!   walked from one end of the head over a binding table of its live
//!   variables — Expand-All over CSR or a seeded evaluation, Expand-Into
//!   for a cycle or a self-loop, a cartesian extension for another
//!   component — the union's patterns merged into a prefix trie, in the
//!   direction with the smaller first frontier,
//! * [`rows`] — the flat row-major table that is both that binding table
//!   and the engine's result type,
//! * [`backend`] — the public [`GraphEngine`] facade used by the harness.

#![warn(missing_docs)]

pub mod backend;
mod expand;
pub mod patheval;
pub mod rows;

pub use backend::{GraphEngine, Rows};
pub use patheval::{eval_seeded, EvalCounters, Seeds};

/// Conjunctive patterns that are not chains — a triangle, a star with a
/// unary head, a self-loop, label atoms, variables projected away — each
/// run through [`GraphEngine::run_ucqt`].
#[cfg(test)]
mod conjunctive {
    pub(crate) mod tests {
        use crate::expand::widths;
        use crate::GraphEngine;
        use sgq_algebra::parser::parse_path;
        use sgq_common::{NodeId, VarId};
        use sgq_graph::database::fig2_yago_database;
        use sgq_graph::GraphDatabase;
        use sgq_query::cqt::{Cqt, LabelAtom, Relation, Ucqt};

        fn n(i: u32) -> NodeId {
            NodeId::new(i)
        }

        fn rows(db: &GraphDatabase, cqt: &Cqt) -> Vec<Vec<NodeId>> {
            let rows = GraphEngine::new(db).run_ucqt(&Ucqt::single(cqt.clone()));
            rows.unwrap().iter().map(<[NodeId]>::to_vec).collect()
        }

        fn step(db: &GraphDatabase, src: VarId, path: &str, tgt: VarId) -> Relation {
            Relation::plain(src, parse_path(path, db).unwrap(), tgt)
        }

        /// `(x, livesIn, c) ∧ (c, isLocatedIn, r) ∧ (r, isLocatedIn, k)`
        /// with head `(k, x)`.
        fn chain(db: &GraphDatabase) -> Cqt {
            let [x, c, r, k] = [0, 1, 2, 3].map(VarId::new);
            Cqt {
                head: vec![k, x],
                atoms: vec![],
                relations: vec![
                    step(db, x, "livesIn", c),
                    step(db, c, "isLocatedIn", r),
                    step(db, r, "isLocatedIn", k),
                ],
            }
        }

        /// `{x | (x, owns, y) ∧ (x, livesIn, z) ∧ (y, isLocatedIn, z)}`.
        fn triangle(db: &GraphDatabase) -> Cqt {
            let [x, y, z] = [0, 1, 2].map(VarId::new);
            Cqt {
                head: vec![x],
                atoms: vec![],
                relations: vec![
                    step(db, x, "owns", y),
                    step(db, x, "livesIn", z),
                    step(db, y, "isLocatedIn", z),
                ],
            }
        }

        /// Paper Example 5's C1 = `{Y | (Y, livesIn/isLocatedIn+, M) ∧
        /// (Y, owns, Z)}`.
        fn example5(db: &GraphDatabase) -> Cqt {
            let [y, z, m] = [0, 1, 2].map(VarId::new);
            Cqt {
                head: vec![y],
                atoms: vec![],
                relations: vec![
                    step(db, y, "livesIn/isLocatedIn+", m),
                    step(db, y, "owns", z),
                ],
            }
        }

        /// `{x | (x, isMarriedTo+, x)}`.
        fn self_loop(db: &GraphDatabase) -> Cqt {
            let x = VarId::new(0);
            Cqt {
                head: vec![x],
                atoms: vec![],
                relations: vec![step(db, x, "isMarriedTo+", x)],
            }
        }

        /// The shapes above, named, for the executor's census.
        pub(crate) fn shapes(db: &GraphDatabase) -> Vec<(&'static str, Cqt)> {
            vec![
                ("chain", chain(db)),
                ("triangle", triangle(db)),
                ("example 5", example5(db)),
                ("self-loop", self_loop(db)),
            ]
        }

        #[test]
        fn early_projection_keeps_exactly_the_live_variables() {
            let db = fig2_yago_database();
            // c and r die as soon as their second relation is walked, from
            // either end of the head.
            let cqt = chain(&db);
            assert_eq!(widths(&cqt, cqt.head[0]), [2, 2, 2]);
            assert_eq!(widths(&cqt, cqt.head[1]), [2, 2, 2]);
            // (x, y), then (x, z): y is dead once z is bound; the
            // Expand-Into step that closes the triangle leaves the head.
            let cqt = triangle(&db);
            assert_eq!(widths(&cqt, cqt.head[0]), [2, 2, 1]);
            // A four-cycle: z outlives the step that binds it because a
            // later relation reads it, and no table is wider than two.
            let [x, y, z, w] = [0, 1, 2, 3].map(VarId::new);
            let cycle = Cqt {
                head: vec![x],
                atoms: vec![],
                relations: vec![
                    step(&db, x, "livesIn", y),
                    step(&db, y, "isLocatedIn", z),
                    step(&db, x, "owns", w),
                    step(&db, w, "isLocatedIn", z),
                ],
            };
            assert_eq!(widths(&cycle, x), [2, 2, 2, 1]);
            // Example 5's `M` is dead where it would be bound: the star is
            // one step whose table holds `Y` alone.
            assert_eq!(widths(&example5(&db), VarId::new(0)), [1]);
        }

        #[test]
        fn dropped_variables_do_not_change_the_answer() {
            // The head comes back in head order: (k, x).
            let db = fig2_yago_database();
            let e = parse_path("livesIn/isLocatedIn/isLocatedIn", &db).unwrap();
            let mut want: Vec<Vec<NodeId>> = sgq_algebra::eval::eval_path(&db, &e)
                .into_iter()
                .map(|(s, t)| vec![t, s])
                .collect();
            want.sort_unstable();
            assert!(!want.is_empty());
            assert_eq!(rows(&db, &chain(&db)), want);
        }

        #[test]
        fn single_relation_matches_path_eval() {
            let db = fig2_yago_database();
            let e = parse_path("livesIn/isLocatedIn+", &db).unwrap();
            let q = Ucqt::path_query(e.clone());
            let pairs: Vec<(NodeId, NodeId)> = rows(&db, &q.disjuncts[0])
                .iter()
                .map(|r| (r[0], r[1]))
                .collect();
            assert_eq!(pairs, sgq_algebra::eval::eval_path(&db, &e));
        }

        #[test]
        fn example5_c1() {
            // Only John (n2 = id 1) owns a property.
            let db = fig2_yago_database();
            assert_eq!(rows(&db, &example5(&db)), [[n(1)]]);
        }

        #[test]
        fn label_atoms_filter() {
            let db = fig2_yago_database();
            let [a, b] = [0, 1].map(VarId::new);
            let region = db.node_label_id("REGION").unwrap();
            // (a, isLocatedIn, b) with η(b) ∈ {REGION}: only CITY->REGION
            // edges.
            let c = Cqt {
                head: vec![a, b],
                atoms: vec![LabelAtom {
                    var: b,
                    labels: vec![region],
                }],
                relations: vec![step(&db, a, "isLocatedIn", b)],
            };
            assert_eq!(rows(&db, &c), [[n(3), n(4)], [n(5), n(4)]]);
        }

        #[test]
        fn unsatisfiable_atom_returns_empty() {
            let db = fig2_yago_database();
            let [a, b] = [0, 1].map(VarId::new);
            let atom = |label| LabelAtom {
                var: b,
                labels: vec![db.node_label_id(label).unwrap()],
            };
            let c = Cqt {
                head: vec![a, b],
                atoms: vec![atom("PERSON"), atom("CITY")],
                relations: vec![step(&db, a, "livesIn", b)],
            };
            assert!(rows(&db, &c).is_empty());
        }

        #[test]
        fn self_loop_variable() {
            // Both John and Shradha reach themselves.
            let db = fig2_yago_database();
            assert_eq!(rows(&db, &self_loop(&db)), [[n(1)], [n(2)]]);
        }

        #[test]
        fn a_loop_walked_first_keeps_only_the_nodes_that_reach_themselves() {
            // `r` edges 0 → 1 and 2 → 2: `{x | (x, r, x)}` is node 2 alone.
            let mut b = GraphDatabase::standalone_builder();
            let nodes: Vec<_> = (0..3).map(|_| b.node("N", &[])).collect();
            b.edge(nodes[0], "r", nodes[1]);
            b.edge(nodes[2], "r", nodes[2]);
            let db = b.build().unwrap();
            let x = VarId::new(0);
            let cqt = Cqt {
                head: vec![x],
                atoms: vec![],
                relations: vec![step(&db, x, "r", x)],
            };
            assert_eq!(widths(&cqt, x), [1]);
            assert_eq!(rows(&db, &cqt), [[n(2)]]);
        }

        #[test]
        fn triangle_pattern() {
            // John owns n1 located in Montbonnot, but John lives in
            // Elerslie — no match.
            let db = fig2_yago_database();
            assert!(rows(&db, &triangle(&db)).is_empty());
        }
    }
}
