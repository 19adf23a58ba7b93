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
//! All schema reasoning here — "does this input expose the filter's key
//! columns?" — is `ColId` comparison; the up-to-eight `next == current`
//! convergence checks never compare a string.

use sgq_common::ColId;

use crate::cost::{Estimator, Summary};
use crate::storage::RelStore;
use crate::term::RaTerm;

/// Applies all rewritings until a fixed point is reached.
pub fn optimize(term: &RaTerm, store: &RelStore) -> RaTerm {
    let mut current = term.clone();
    for _ in 0..8 {
        let next = pass(&current, &mut Estimator::new(store));
        if next == current {
            break;
        }
        current = next;
    }
    current
}

fn pass(term: &RaTerm, est: &mut Estimator) -> RaTerm {
    // Bottom-up. A fixpoint's step is rewritten with the recursion
    // variable bound to the base's estimate, so join reordering inside
    // the step sees the recursive input at its real cardinality.
    let term = match term {
        RaTerm::EdgeScan { .. } | RaTerm::NodeScan { .. } | RaTerm::RecRef { .. } => term.clone(),
        RaTerm::Join(a, b) => RaTerm::join(pass(a, est), pass(b, est)),
        RaTerm::Semijoin(a, b) => RaTerm::semijoin(pass(a, est), pass(b, est)),
        RaTerm::Union(a, b) => RaTerm::union(pass(a, est), pass(b, est)),
        RaTerm::Project { input, cols } => RaTerm::project(pass(input, est), cols.clone()),
        RaTerm::Rename { input, from, to } => RaTerm::Rename {
            input: Box::new(pass(input, est)),
            from: *from,
            to: *to,
        },
        RaTerm::Select { input, a, b } => RaTerm::Select {
            input: Box::new(pass(input, est)),
            a: *a,
            b: *b,
        },
        RaTerm::Fixpoint {
            var,
            base,
            step,
            stable,
        } => {
            let base = pass(base, est);
            let base_rows = est.root(&base).rows();
            let step = est.within(*var, base_rows, |est| pass(step, est));
            RaTerm::Fixpoint {
                var: *var,
                base: Box::new(base),
                step: Box::new(step),
                stable: stable.clone(),
            }
        }
    };
    let term = push_semijoin(term);
    reorder_joins(term, est)
}

/// Rules 1 and 2: semi-join pushdown.
fn push_semijoin(term: RaTerm) -> RaTerm {
    match term {
        RaTerm::Semijoin(left, filter) => {
            let filter_cols = filter.cols();
            match *left {
                // Push through a join onto every side exposing the key.
                RaTerm::Join(a, b) => {
                    let a_has = filter_cols.iter().all(|c| a.cols().contains(c));
                    let b_has = filter_cols.iter().all(|c| b.cols().contains(c));
                    if a_has || b_has {
                        let a2 = if a_has {
                            push_semijoin(RaTerm::Semijoin(a, filter.clone()))
                        } else {
                            *a
                        };
                        let b2 = if b_has {
                            push_semijoin(RaTerm::Semijoin(b, filter))
                        } else {
                            *b
                        };
                        RaTerm::join(a2, b2)
                    } else {
                        RaTerm::Semijoin(Box::new(RaTerm::Join(a, b)), filter)
                    }
                }
                // Push through projections that keep the key columns.
                RaTerm::Project { input, cols } if filter_cols.iter().all(|c| cols.contains(c)) => {
                    RaTerm::project(push_semijoin(RaTerm::Semijoin(input, filter)), cols)
                }
                // Push into a fixpoint when the key is stable.
                RaTerm::Fixpoint {
                    var,
                    base,
                    step,
                    stable,
                } if filter_cols.iter().all(|c| stable.contains(c)) => RaTerm::Fixpoint {
                    var,
                    base: Box::new(push_semijoin(RaTerm::Semijoin(base, filter))),
                    step,
                    stable,
                },
                other => RaTerm::Semijoin(Box::new(other), filter),
            }
        }
        other => other,
    }
}

/// Rule 3: flatten join chains and rebuild greedily. Each operand is
/// folded once; a candidate `acc ⋈ p` is then scored by one join step
/// over the two summaries, and the winner's summary becomes `acc`'s.
fn reorder_joins(term: RaTerm, est: &mut Estimator) -> RaTerm {
    match term {
        RaTerm::Join(_, _) => {
            let mut parts: Vec<RaTerm> = Vec::new();
            flatten_joins(term, &mut parts);
            if parts.len() <= 2 {
                return rebuild(parts);
            }
            // Start from the smallest estimate; then repeatedly pick the
            // connected part minimising the joined estimate.
            let mut remaining: Vec<(RaTerm, Summary)> = Vec::with_capacity(parts.len());
            for p in parts {
                let summary = est.root(&p);
                remaining.push((p, summary));
            }
            let mut best_idx = 0;
            let mut best_rows = f64::INFINITY;
            for (i, (_, s)) in remaining.iter().enumerate() {
                if s.rows() < best_rows {
                    best_rows = s.rows();
                    best_idx = i;
                }
            }
            let (mut acc, mut acc_sum) = remaining.swap_remove(best_idx);
            while !remaining.is_empty() {
                let mut joined: Vec<Summary> = (remaining.iter())
                    .map(|(_, s)| est.join(&acc_sum, s))
                    .collect();
                let mut pick = 0;
                let mut pick_score = (false, f64::INFINITY);
                for (i, (_, s)) in remaining.iter().enumerate() {
                    let connected = s.cols.iter().any(|c| acc_sum.cols.contains(c));
                    let score = (!connected, joined[i].rows());
                    if score < pick_score {
                        pick_score = score;
                        pick = i;
                    }
                }
                let (next, _) = remaining.swap_remove(pick);
                acc = RaTerm::join(acc, next);
                acc_sum = joined.swap_remove(pick);
            }
            acc
        }
        other => other,
    }
}

fn flatten_joins(term: RaTerm, out: &mut Vec<RaTerm>) {
    match term {
        RaTerm::Join(a, b) => {
            flatten_joins(*a, out);
            flatten_joins(*b, out);
        }
        other => out.push(other),
    }
}

fn rebuild(parts: Vec<RaTerm>) -> RaTerm {
    parts
        .into_iter()
        .reduce(RaTerm::join)
        .expect("join chain is non-empty")
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
