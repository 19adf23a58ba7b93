//! µ-RA-style logical optimisation.
//!
//! Three rewritings:
//!
//! 1. **Semi-join pushdown through joins** — a semi-join filter migrates
//!    to every join input that exposes all of its key columns (through
//!    projections that keep them, and past a semi-join when it sinks
//!    further), so a label filter lands on the scans, where the term DAG
//!    makes it the scan's own label set (the paper's Fig. 15/17 plan
//!    shape: `isLocatedIn ⋉ Organisation` *before* the join with
//!    `workAt`). Translation puts most label atoms there directly.
//! 2. **Semi-join pushdown into fixpoints** — a filter on a fixpoint's
//!    *stable* columns restricts the base case, so the closure is only
//!    computed from relevant seeds (Jachiet et al.'s µ-RA rewriting). It
//!    sinks into a scan base, where it becomes the scan's label set; on
//!    any other base `S` it stays the base's own semi-join, `S ⋉ f`, over
//!    the `S` of the step, which is the shape the closure kernel walks
//!    ([`crate::plan()`]).
//! 3. **Greedy join reordering** — n-ary join chains are rebuilt
//!    smallest-estimate-first, preferring connected (column-sharing)
//!    joins; a tie goes to the operand that comes first in the input.
//!
//! **Two walks, no loop.** `optimize` interns its input once into a
//! per-call term DAG ([`crate::term`]) and rewrites ids in two walks,
//! each memoised per node for the call, so a sub-term repeated in k
//! disjuncts is rewritten once. The *push walk* applies rules 1 and 2
//! bottom-up, moving every semi-join to its lowest position; it orders
//! nothing, and a term with no semi-join skips it. The *order walk*
//! applies rule 3 once per *maximal* join chain, at its root, over the
//! chain's operands ordered first; a join whose parent is a join is not
//! ordered on its own, and a fixpoint's step is ordered with the
//! recursion variable bound to the ordered base's estimate. Neither walk
//! runs twice: the order walk builds only joins over pushed operands, so
//! it creates no semi-join that could move, and with ties kept in input
//! order an ordered chain orders to itself, so `optimize` is idempotent
//! (`tests/ra_soundness.rs` asserts it on every case).
//!
//! The estimator memoises per (node, binding): every distinct sub-term is
//! summarised once, and a greedy candidate `acc ⋈ p` is scored once per
//! pair of operand summaries. The tree is extracted once, at the end (the
//! input itself when nothing changed, interning included).

use sgq_common::ColId;

use crate::cost::Estimator;
use crate::plan::pairs_step;
use crate::storage::RelStore;
use crate::term::{Dag, Id, NodeMemo, Op, RaTerm};

/// Pushes every semi-join down, then orders every join chain once.
pub fn optimize(term: &RaTerm, store: &RelStore) -> RaTerm {
    let (dag, root) = Dag::of(term, false, Some(&store.stats));
    let nodes = dag.len().0;
    let mut opt = Optimizer {
        est: Estimator::new(store, 0),
        done: NodeMemo::new(nodes),
        dag,
    };
    // A term with no semi-join has nothing to push.
    let mut out = root;
    if (0..nodes as Id).any(|id| matches!(opt.dag.node(id), Op::Semijoin(..))) {
        out = opt.push(root);
        opt.done = NodeMemo::new(opt.dag.len().0);
    }
    let out = opt.order(out);
    // Interning may have folded label semi-joins into their scans.
    if out == root && !opt.dag.folded {
        term.clone()
    } else {
        opt.dag.term(out)
    }
}

struct Optimizer<'a> {
    dag: Dag<'a>,
    est: Estimator<'a>,
    /// The current walk's result per (node, binding).
    done: NodeMemo,
}

impl Optimizer<'_> {
    /// The push walk: children first, then rules 1 and 2 at the node.
    fn push(&mut self, id: Id) -> Id {
        if let Some(out) = self.done.get((id, 0)) {
            return out;
        }
        let out = match pairs_step(&self.dag, id) {
            Some(s) => self.push_closure(id, s),
            None => self.rebuild(id, Self::push),
        };
        let out = self.push_semijoin(out);
        self.done.insert((id, 0), out);
        out
    }

    /// The order walk: rule 3 at the root of every maximal join chain.
    fn order(&mut self, id: Id) -> Id {
        let key = self.est.key(&self.dag, id);
        if let Some(out) = self.done.get(key) {
            return out;
        }
        let out = match *self.dag.node(id) {
            Op::Join(..) => self.order_chain(id),
            Op::Fixpoint(var, base, step, _) => {
                let base = self.order(base);
                let rows = self.est.summary(&self.dag, base);
                let saved = self.est.bind(var, self.est[rows].rows());
                let step = self.order(step);
                self.est.unbind(var, saved);
                self.dag.add(self.dag.node(id).with_kids(&[base, step]))
            }
            _ => self.rebuild(id, Self::order),
        };
        self.done.insert(key, out);
        out
    }

    /// Node `id` over its children as `walk` rewrites them.
    fn rebuild(&mut self, id: Id, walk: fn(&mut Self, Id) -> Id) -> Id {
        let mut kids = [id; 2];
        let mut changed = false;
        for (i, k) in self.dag.node(id).kids().enumerate() {
            kids[i] = walk(self, k);
            changed |= kids[i] != k;
        }
        if changed {
            self.dag.add(self.dag.node(id).with_kids(&kids))
        } else {
            id
        }
    }

    /// The push walk at fixpoint `id`, whose step's `S` is `s` and walked
    /// as pairs: its base keeps its stable-column semi-joins over `S`.
    fn push_closure(&mut self, id: Id, s: Id) -> Id {
        let Op::Fixpoint(var, base, step, ref stable) = *self.dag.node(id) else {
            unreachable!("only a fixpoint has a closure step")
        };
        let stable = stable.clone();
        let (s, step) = (self.push(s), self.push(step));
        let base = (self.push_base(base, s, &stable)).unwrap_or_else(|| self.push(base));
        self.dag.add(Op::Fixpoint(var, base, step, stable))
    }

    /// Base `b` of a fixpoint whose step's `S` pushes to `s`, if it is `S`
    /// under semi-joins on the `stable` columns: pushed, with those
    /// semi-joins left on top (rule 2).
    fn push_base(&mut self, b: Id, s: Id, stable: &[ColId]) -> Option<Id> {
        // Peeled before `b` is pushed whole: sunk, a filter the statistics
        // prove vacuous vanishes, where rule 2 left it on top.
        if let Op::Semijoin(x, f) = *self.dag.node(b) {
            let x = self.push_base(x, s, stable);
            if let Some(x) = x.filter(|_| covered(self.dag.cols(f), stable)) {
                let f = self.push(f);
                return Some(self.dag.add(Op::Semijoin(x, f)));
            }
        }
        (self.push(b) == s).then_some(s)
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
            // Push into a fixpoint when the key is stable: on top of the
            // base (the step's `S`, after the push walk) when the kernel
            // walks `S`'s pairs, else as deep as it sinks.
            Op::Fixpoint(var, base, step, ref stable) if covered(fcols, stable) => {
                let stable = stable.clone();
                let base = match pairs_step(&self.dag, left) {
                    Some(_) => self.dag.add(Op::Semijoin(base, filter)),
                    None => onto(self, base),
                };
                self.dag.add(Op::Fixpoint(var, base, step, stable))
            }
            // Semi-joins commute: pass one when that lets the filter sink
            // further (a mere swap would undo itself on the next call).
            Op::Semijoin(input, other) => {
                let pushed = onto(self, input);
                if *self.dag.node(pushed) == Op::Semijoin(input, filter) {
                    return id;
                }
                self.dag.add(Op::Semijoin(pushed, other))
            }
            _ => id,
        }
    }

    /// Rule 3 on the chain rooted at join `id`: flatten it, order each
    /// operand, and rebuild greedily. Each operand's summary is memoised;
    /// a candidate `acc ⋈ p` is scored by one join step over the two
    /// summaries, and the winner's summary becomes the summary of the
    /// `acc` node it builds.
    fn order_chain(&mut self, id: Id) -> Id {
        let mut remaining = Vec::new();
        flatten_joins(&self.dag, id, &mut remaining);
        if remaining.len() == 2 {
            return self.rebuild(id, Self::order);
        }
        for p in &mut remaining {
            *p = self.order(*p);
        }
        #[cfg(test)]
        crate::cost::REORDERS.with(|n| n.set(n.get() + 1));
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
        let mut acc = remaining.remove(best_idx);
        while !remaining.is_empty() {
            // Only a connected candidate is scored: the smallest joined
            // estimate wins, and with none connected the first is taken.
            let (mut pick, mut joined) = (0, None);
            let mut pick_rows = f64::INFINITY;
            for (i, &p) in remaining.iter().enumerate() {
                let acc_cols = self.dag.cols(acc);
                if !self.dag.cols(p).iter().any(|c| acc_cols.contains(c)) {
                    continue;
                }
                let s = self.est.join(&self.dag, acc, p);
                if self.est[s].rows() < pick_rows {
                    (pick, pick_rows, joined) = (i, self.est[s].rows(), Some(s));
                }
            }
            let joined = joined.unwrap_or_else(|| self.est.join(&self.dag, acc, remaining[0]));
            let next = remaining.remove(pick);
            acc = self.dag.add(Op::Join(acc, next));
            let key = self.est.key(&self.dag, acc);
            self.est.assign(key, joined);
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
        RaTerm::edge_scan(
            db.edge_label_id(label).unwrap(),
            store.symbols.col(src),
            store.symbols.col(tgt),
        )
    }

    fn node(db: &sgq_graph::GraphDatabase, store: &RelStore, label: &str, col: &str) -> RaTerm {
        RaTerm::NodeScan {
            labels: vec![db.node_label_id(label).unwrap()],
            col: store.symbols.col(col),
        }
    }

    /// Collects the columns of every label filter — a scan's own, or a
    /// semi-join's on what it filters: where pushdown left each filter.
    fn semijoin_positions(term: &RaTerm, out: &mut Vec<(&'static str, Vec<ColId>)>) {
        match term {
            RaTerm::EdgeScan {
                src,
                tgt,
                src_labels,
                tgt_labels,
                ..
            } => {
                for (col, labels) in [(src, src_labels), (tgt, tgt_labels)] {
                    if labels.is_some() {
                        out.push(("scan", vec![*col]));
                    }
                }
            }
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
                    matches!(
                        **base,
                        RaTerm::EdgeScan {
                            src_labels: Some(_),
                            ..
                        }
                    ),
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
    fn a_stable_filter_stays_on_a_composite_base() {
        // ((isLocatedIn/isLocatedIn)+) ⋉ CITY(x): the filter enters the
        // base, but stays its own semi-join over the step's S instead of
        // sinking into the base's first scan, so the closure kernel still
        // walks S's pairs — and a second pass leaves it there.
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let (x, z) = (s.col("x"), s.col("z"));
        let two_hops = RaTerm::project(
            RaTerm::join(
                scan(&db, &store, "isLocatedIn", "x", "y"),
                scan(&db, &store, "isLocatedIn", "y", "z"),
            ),
            vec![x, z],
        );
        let f = closure_fixpoint(s.recvar("X"), two_hops.clone(), x, z, s.col("m"));
        let t = RaTerm::semijoin(f, node(&db, &store, "CITY", "x"));
        let opt = optimize(&t, &store);
        assert_eq!(optimize(&opt, &store), opt, "idempotent");
        let RaTerm::Fixpoint { base, .. } = &opt else {
            panic!("expected a bare fixpoint after pushdown, got {opt:?}")
        };
        assert!(
            matches!(&**base, RaTerm::Semijoin(s, _) if **s == two_hops),
            "{base:?}"
        );
        let p = crate::plan(&opt, &store).unwrap();
        assert_eq!(p.op.fixpoint_strategy(), Some("composite"));
        let mut ctx = ExecContext::new();
        let before = execute(&t, &store, &mut ctx).unwrap();
        let after = crate::exec::execute_plan(&p, &store, &mut ctx).unwrap();
        assert_eq!(before, after);
        // Elerslie and Montbonnot → France.
        assert_eq!(before.flat(), &[3, 6, 5, 6]);
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
    fn the_greedy_scores_only_connected_candidates() {
        // On a flat k-hop chain only the two ends of the accumulated path
        // share a column with it: at most two candidates a step are
        // scored, so the scores grow linearly in k, not quadratically.
        use crate::cost::JOIN_STEPS;
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        for k in [8, 16, 32] {
            let hop = |i: usize| {
                scan(
                    &db,
                    &store,
                    "isLocatedIn",
                    &format!("h{i}"),
                    &format!("h{}", i + 1),
                )
            };
            let chain = (1..k).fold(hop(0), |acc, i| RaTerm::join(acc, hop(i)));
            JOIN_STEPS.with(|n| n.set(0));
            let opt = optimize(&chain, &store);
            let scored = JOIN_STEPS.with(|n| n.get());
            assert!(scored <= 2 * k, "{k} hops: {scored} candidates scored");
            let mut ctx = ExecContext::new();
            let (a, b) = (
                execute(&chain, &store, &mut ctx),
                execute(&opt, &store, &mut ctx),
            );
            assert_eq!(a.unwrap().len(), b.unwrap().len());
        }
    }

    #[test]
    fn every_join_chain_is_ordered_once_per_call() {
        // A flat k-hop chain under two stacked node-label filters on
        // shared columns, the shape of a schema-rewrite disjunct: the push
        // walk moves both filters onto the hops, and the order walk orders
        // the chain once, at its root, on the first call and on the next.
        use crate::cost::REORDERS;
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        for k in [4, 8] {
            let hop = |i: usize| {
                let (src, tgt) = (format!("h{i}"), format!("h{}", i + 1));
                scan(&db, &store, "isMarriedTo", &src, &tgt)
            };
            let chain = (1..k).fold(hop(0), |acc, i| RaTerm::join(acc, hop(i)));
            let t = RaTerm::semijoin(
                RaTerm::semijoin(chain, node(&db, &store, "PERSON", "h1")),
                node(&db, &store, "PERSON", "h2"),
            );
            let reorders = |t: &RaTerm| {
                REORDERS.with(|n| n.set(0));
                let opt = optimize(t, &store);
                (opt, REORDERS.with(|n| n.get()))
            };
            let (opt, once) = reorders(&t);
            assert_eq!(once, 1, "{k} hops: {once} orderings");
            assert_eq!(reorders(&opt), (opt.clone(), 1), "{k} hops, re-optimised");
            let mut ctx = ExecContext::new();
            let cols = t.cols();
            let before = execute(&t, &store, &mut ctx).unwrap().project(&cols);
            let after = execute(&opt, &store, &mut ctx).unwrap().project(&cols);
            assert!(!before.is_empty(), "{k} hops: the chain has rows");
            assert_eq!(before, after, "{k} hops");
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

    #[test]
    fn label_filters_every_edge_passes_are_dropped() {
        // Fig. 2's one `owns` edge leaves a PERSON; `isLocatedIn` edges
        // leave nodes of three labels, so only its CITY filter stays.
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let owns = scan(&db, &store, "owns", "x", "y");
        let person = RaTerm::semijoin(owns.clone(), node(&db, &store, "PERSON", "x"));
        assert_eq!(optimize(&person, &store), owns);
        let located = scan(&db, &store, "isLocatedIn", "x", "y");
        let city = RaTerm::semijoin(located, node(&db, &store, "CITY", "x"));
        let opt = optimize(&city, &store);
        assert!(
            matches!(
                opt,
                RaTerm::EdgeScan {
                    src_labels: Some(_),
                    ..
                }
            ),
            "{opt:?}"
        );
        for (term, opt) in [(&person, optimize(&person, &store)), (&city, opt)] {
            let run = |t: &RaTerm| execute(t, &store, &mut ExecContext::new()).unwrap();
            assert_eq!(run(term), run(&opt));
        }
    }
}
