//! µ-RA-style logical optimisation.
//!
//! Three rewritings, applied to a fixpoint:
//!
//! 1. **Semi-join pushdown through joins** — a semi-join filter migrates
//!    to every join input that exposes all of its key columns, so label
//!    filters land directly on the scans (the paper's Fig. 15/17 plan
//!    shape, where `isLocatedIn ⋉ Organisation` happens *before* the join
//!    with `workAt`).
//! 2. **Semi-join pushdown into fixpoints** — a filter on a fixpoint's
//!    *stable* columns restricts the base case, so the closure is only
//!    computed from relevant seeds (Jachiet et al.'s µ-RA rewriting).
//! 3. **Greedy join reordering** — n-ary join chains are rebuilt
//!    smallest-estimate-first, preferring connected (column-sharing)
//!    joins.
//!
//! **One DAG, one memo.** `optimize` interns its input once into a
//! per-call term DAG ([`crate::term`]) and rewrites ids. A pass's result
//! is memoised per (node, recursion binding) for the whole call, so a
//! sub-term repeated in k disjuncts is rewritten once per call, and the
//! pass that confirms convergence — the `next == current` id comparison,
//! O(1) like every column lookup — re-derives nothing it already has.
//! The estimator memoises the same way: every distinct sub-term is
//! summarised once, and a greedy candidate `acc ⋈ p` is scored once per
//! pair of operand summaries, so a join chain whose operands were already
//! ordered is not re-scored. The tree is extracted once, at the end (the
//! input itself when no pass changed it).

use sgq_common::ColId;

use crate::cost::Estimator;
use crate::storage::RelStore;
use crate::term::{Dag, Id, NodeMemo, Op, RaTerm};

/// Applies all rewritings until a fixed point is reached (at most eight
/// passes).
pub fn optimize(term: &RaTerm, store: &RelStore) -> RaTerm {
    let (dag, root) = Dag::of(term, false);
    let mut opt = Optimizer {
        est: Estimator::new(store, 0),
        passed: NodeMemo::new(dag.len().0),
        dag,
    };
    let mut current = root;
    for _ in 0..8 {
        let next = opt.pass(current);
        if next == current {
            break;
        }
        current = next;
    }
    if current == root {
        term.clone()
    } else {
        opt.dag.term(current)
    }
}

struct Optimizer<'a> {
    dag: Dag,
    est: Estimator<'a>,
    /// A pass's result per (node, binding): the same for every pass.
    passed: NodeMemo,
}

impl Optimizer<'_> {
    fn pass(&mut self, id: Id) -> Id {
        let key = self.est.key(&self.dag, id);
        if let Some(out) = self.passed.get(key) {
            return out;
        }
        // Bottom-up. A fixpoint's step is rewritten with the recursion
        // variable bound to the base's estimate, so join reordering inside
        // the step sees the recursive input at its real cardinality.
        let mut kids = [id; 2];
        let mut changed = false;
        if let Op::Fixpoint(var, base, step, _) = *self.dag.node(id) {
            kids[0] = self.pass(base);
            let rows = self.est.summary(&self.dag, kids[0]);
            let saved = self.est.bind(var, self.est[rows].rows());
            kids[1] = self.pass(step);
            self.est.unbind(var, saved);
            changed = (kids[0], kids[1]) != (base, step);
        } else {
            for (i, k) in self.dag.node(id).kids().enumerate() {
                kids[i] = self.pass(k);
                changed |= kids[i] != k;
            }
        }
        let out = if changed {
            self.dag.add(self.dag.node(id).with_kids(&kids))
        } else {
            id
        };
        let out = self.push_semijoin(out);
        let out = self.reorder_joins(out);
        self.passed.insert(key, out);
        out
    }

    /// Whether node `id` exposes every column of `filter`.
    fn covers(&self, id: Id, filter: Id) -> bool {
        covered(self.dag.cols(filter), self.dag.cols(id))
    }

    /// Rules 1 and 2: semi-join pushdown.
    fn push_semijoin(&mut self, id: Id) -> Id {
        let Op::Semijoin(left, filter) = *self.dag.node(id) else {
            return id;
        };
        let onto = |o: &mut Self, x: Id| {
            let s = o.dag.add(Op::Semijoin(x, filter));
            o.push_semijoin(s)
        };
        let fcols = self.dag.cols(filter);
        match *self.dag.node(left) {
            // Push through a join onto every side exposing the key.
            Op::Join(a, b) => {
                let (a_has, b_has) = (self.covers(a, filter), self.covers(b, filter));
                if !(a_has || b_has) {
                    return id;
                }
                let a = if a_has { onto(self, a) } else { a };
                let b = if b_has { onto(self, b) } else { b };
                self.dag.add(Op::Join(a, b))
            }
            // Push through projections that keep the key columns.
            Op::Project(input, ref cols) if covered(fcols, cols) => {
                let cols = cols.clone();
                let input = onto(self, input);
                self.dag.add(Op::Project(input, cols))
            }
            // Push into a fixpoint when the key is stable.
            Op::Fixpoint(var, base, step, ref stable) if covered(fcols, stable) => {
                let stable = stable.clone();
                let base = onto(self, base);
                self.dag.add(Op::Fixpoint(var, base, step, stable))
            }
            _ => id,
        }
    }

    /// Rule 3: flatten join chains and rebuild greedily. Each operand's
    /// summary is memoised; a candidate `acc ⋈ p` is scored by one join
    /// step over the two summaries, and the winner's summary becomes the
    /// summary of the `acc` node it builds.
    fn reorder_joins(&mut self, id: Id) -> Id {
        if !matches!(self.dag.node(id), Op::Join(..)) {
            return id;
        }
        let mut remaining = Vec::new();
        flatten_joins(&self.dag, id, &mut remaining);
        if remaining.len() <= 2 {
            return id;
        }
        // Start from the smallest estimate; then repeatedly pick the
        // connected part minimising the joined estimate.
        let mut best_idx = 0;
        let mut best_rows = f64::INFINITY;
        for (i, &p) in remaining.iter().enumerate() {
            let s = self.est.summary(&self.dag, p);
            if self.est[s].rows() < best_rows {
                best_rows = self.est[s].rows();
                best_idx = i;
            }
        }
        let mut acc = remaining.swap_remove(best_idx);
        while !remaining.is_empty() {
            let mut joined: Vec<u32> = (remaining.iter())
                .map(|&p| self.est.join(&self.dag, acc, p))
                .collect();
            let mut pick = 0;
            let mut pick_score = (false, f64::INFINITY);
            for (i, &p) in remaining.iter().enumerate() {
                let acc_cols = self.dag.cols(acc);
                let connected = self.dag.cols(p).iter().any(|c| acc_cols.contains(c));
                let score = (!connected, self.est[joined[i]].rows());
                if score < pick_score {
                    pick_score = score;
                    pick = i;
                }
            }
            let next = remaining.swap_remove(pick);
            acc = self.dag.add(Op::Join(acc, next));
            let key = self.est.key(&self.dag, acc);
            self.est.assign(key, joined.swap_remove(pick));
        }
        acc
    }
}

/// Whether `cols` holds every column of `filter`.
fn covered(filter: &[ColId], cols: &[ColId]) -> bool {
    filter.iter().all(|c| cols.contains(c))
}

fn flatten_joins(dag: &Dag, id: Id, out: &mut Vec<Id>) {
    match *dag.node(id) {
        Op::Join(a, b) => {
            flatten_joins(dag, a, out);
            flatten_joins(dag, b, out);
        }
        _ => out.push(id),
    }
}

/// Collects the columns of every semi-join filter remaining at the top of
/// scans — used by tests to assert pushdown happened.
pub fn semijoin_positions(term: &RaTerm, out: &mut Vec<(&'static str, Vec<ColId>)>) {
    match term {
        RaTerm::Semijoin(left, filter) => {
            let kind = match **left {
                RaTerm::EdgeScan { .. } => "scan",
                RaTerm::Fixpoint { .. } => "fixpoint",
                _ => "other",
            };
            out.push((kind, filter.cols()));
            semijoin_positions(left, out);
            semijoin_positions(filter, out);
        }
        RaTerm::Join(a, b) | RaTerm::Union(a, b) => {
            semijoin_positions(a, out);
            semijoin_positions(b, out);
        }
        RaTerm::Project { input, .. }
        | RaTerm::Rename { input, .. }
        | RaTerm::Select { input, .. } => semijoin_positions(input, out),
        RaTerm::Fixpoint { base, step, .. } => {
            semijoin_positions(base, out);
            semijoin_positions(step, out);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecContext};
    use crate::storage::RelStore;
    use crate::term::closure_fixpoint;
    use sgq_graph::database::fig2_yago_database;

    fn scan(
        db: &sgq_graph::GraphDatabase,
        store: &RelStore,
        label: &str,
        src: &str,
        tgt: &str,
    ) -> RaTerm {
        RaTerm::EdgeScan {
            label: db.edge_label_id(label).unwrap(),
            src: store.symbols.col(src),
            tgt: store.symbols.col(tgt),
        }
    }

    fn node(db: &sgq_graph::GraphDatabase, store: &RelStore, label: &str, col: &str) -> RaTerm {
        RaTerm::NodeScan {
            labels: vec![db.node_label_id(label).unwrap()],
            col: store.symbols.col(col),
        }
    }

    #[test]
    fn semijoin_pushes_through_join() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        // (owns(x,y) ⋈ isLocatedIn(y,z)) ⋉ PROPERTY(y)
        let t = RaTerm::semijoin(
            RaTerm::join(
                scan(&db, &store, "owns", "x", "y"),
                scan(&db, &store, "isLocatedIn", "y", "z"),
            ),
            node(&db, &store, "PROPERTY", "y"),
        );
        let opt = optimize(&t, &store);
        let mut positions = Vec::new();
        semijoin_positions(&opt, &mut positions);
        assert!(
            positions.iter().any(|&(kind, _)| kind == "scan"),
            "filter should sit on a scan: {opt:?}"
        );
        // Equivalence.
        let mut ctx = ExecContext::new();
        let before = execute(&t, &store, &mut ctx).unwrap();
        let after = execute(&opt, &store, &mut ctx).unwrap();
        // Join reordering may reorder columns; compare on x,z.
        let xz = [store.symbols.col("x"), store.symbols.col("z")];
        assert_eq!(before.project(&xz), after.project(&xz));
    }

    #[test]
    fn semijoin_pushes_into_fixpoint_base() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isLocatedIn", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        let t = RaTerm::semijoin(f.clone(), node(&db, &store, "REGION", "x"));
        let opt = optimize(&t, &store);
        match &opt {
            RaTerm::Fixpoint { base, .. } => {
                assert!(
                    matches!(**base, RaTerm::Semijoin(..)),
                    "base should be filtered: {base:?}"
                );
            }
            other => panic!("expected bare fixpoint after pushdown, got {other:?}"),
        }
        // Equivalence.
        let mut ctx = ExecContext::new();
        let before = execute(&t, &store, &mut ctx).unwrap();
        let after = execute(&opt, &store, &mut ctx).unwrap();
        assert_eq!(before, after);
        // Grenoble -> France only.
        assert_eq!(before.len(), 1);
    }

    #[test]
    fn filter_on_unstable_col_stays_outside() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isLocatedIn", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        // filter on the target column must NOT be pushed into the base
        let t = RaTerm::semijoin(f, node(&db, &store, "COUNTRY", "y"));
        let opt = optimize(&t, &store);
        assert!(
            matches!(opt, RaTerm::Semijoin(..)),
            "target filter must stay outside: {opt:?}"
        );
        let mut ctx = ExecContext::new();
        let r = execute(&opt, &store, &mut ctx).unwrap();
        // pairs reaching France: n1, n6, n4, n5 (ids 0, 5, 3, 4)
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn optimising_takes_one_estimator_step_per_distinct_sub_term() {
        use crate::cost::{JOIN_STEPS, STEPS};
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        // One translation of a path: a 16-hop chain, a closure after it,
        // and a label filter on its source — what the schema rewrite's
        // disjuncts repeat.
        let hop = |i: usize| {
            scan(
                &db,
                &store,
                "isLocatedIn",
                &format!("c{i}"),
                &format!("c{}", i + 1),
            )
        };
        let chain = (1..16).fold(hop(0), |acc, i| RaTerm::join(acc, hop(i)));
        let (c16, z) = (s.col("c16"), s.col("z"));
        let closure = closure_fixpoint(s.recvar("X"), hop(16), c16, z, s.col("m"));
        let one = RaTerm::project(
            RaTerm::semijoin(
                RaTerm::join(chain, closure),
                node(&db, &store, "CITY", "c0"),
            ),
            vec![s.col("c0"), z],
        );
        // (all steps, greedy join scores) of one `optimize` call.
        let steps = |t: &RaTerm| {
            STEPS.with(|n| n.set(0));
            JOIN_STEPS.with(|n| n.set(0));
            optimize(t, &store);
            (STEPS.with(|n| n.get()), JOIN_STEPS.with(|n| n.get()))
        };
        // Re-optimising an optimised term folds each distinct sub-term at
        // most once, however often a chain level re-flattens it.
        let opt = optimize(&one, &store);
        let (all, joins) = steps(&opt);
        let folds = all - joins;
        assert!(
            folds <= opt.distinct(),
            "{folds} folds, {} distinct",
            opt.distinct()
        );
        // k copies of one translation cost one translation plus O(k).
        let (once, _) = steps(&one);
        for k in [2, 8] {
            let copies = (1..k).fold(one.clone(), |acc, _| RaTerm::union(acc, one.clone()));
            let (all, _) = steps(&copies);
            assert!(all <= once + k, "{k} copies: {all} steps, one: {once}");
        }
    }

    #[test]
    fn join_reordering_preserves_results() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let t = RaTerm::join(
            RaTerm::join(
                scan(&db, &store, "isMarriedTo", "x", "w"),
                scan(&db, &store, "livesIn", "x", "y"),
            ),
            scan(&db, &store, "isLocatedIn", "y", "z"),
        );
        let opt = optimize(&t, &store);
        let mut ctx = ExecContext::new();
        let before = execute(&t, &store, &mut ctx).unwrap();
        let after = execute(&opt, &store, &mut ctx).unwrap();
        let s = &store.symbols;
        let cols = [s.col("x"), s.col("w"), s.col("y"), s.col("z")];
        assert_eq!(before.project(&cols), after.project(&cols));
    }
}
