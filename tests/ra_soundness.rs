//! Soundness of the RA optimiser, the physical plan layer, and
//! canonicity of the relation algebra.
//!
//! Randomized properties over the Fig. 2 database:
//!
//! 1. `execute(t)` and `execute(optimize(t))` both equal the answer of
//!    `sgq_algebra::eval::eval_path` — an oracle that shares no code with
//!    the RA layer — for random `RaTerm`s built from random path
//!    expressions (joins, semi-joins, unions, fixpoints) plus random
//!    node-label semi-join filters, the shapes the translator and the
//!    µ-RA rewriter actually produce; a third of the cases union two
//!    translations of the path, as the schema rewrite's disjuncts do, and
//!    a third translate the path's Fig. 1 schema rewrite itself — flat
//!    n-ary joins of label-filtered scans, some under node-label
//!    semi-joins, checked against the same oracle by Theorem 1.
//!    `optimize` is idempotent on every case.
//! 2. `execute_plan(plan(optimize(t)))` equals the oracle too, and some
//!    cases plan a shared node.
//! 3. `execute_plan(index-enabled) == execute_plan(index-disabled) ==
//!    execute(t)` — planning against the store's CSR adjacency indexes
//!    never changes results.
//!    3b. `execute_plan` on the store's own plans (precomputed
//!    endpoint-label slice scans included) is bit-identical to the
//!    reference executor, serially and under morsel parallelism, and
//!    every slice is its base table filtered by the node sets; so is
//!    every label-filtered scan, in its folded and its semi-join form,
//!    self-loops and empty label intersections included.
//! 4. Every `Relation` operator returns a canonical (strictly sorted,
//!    deduplicated) result, including the operators that skip the re-sort
//!    because they provably preserve order.
//!
//! Plus directed tests pinning the physical operator selection rules
//! (index vs merge vs hash joins, label-filtered index scans, index
//! joins inside fixpoint steps, fused filtered scans, cached build
//! sides) and the zero-copy invariants (cloning or scanning a base
//! table shares the store's row buffer — Arc pointer equality).

use sgq_algebra::ast::PathExpr;
use sgq_common::{ColId, EdgeLabelId, NodeLabelId, Rng};
use sgq_core::pipeline::{rewrite_path, RewriteOptions};
use sgq_graph::database::fig2_yago_database;
use sgq_graph::schema::fig1_yago_schema;
use sgq_ra::exec::{execute, execute_plan, execute_plan_traced, ExecContext};
use sgq_ra::optimize::optimize;
use sgq_ra::term::{closure_fixpoint, RaTerm};
use sgq_ra::{plan, PhysOp, PhysPlan, RelStore, Relation};
use sgq_translate::ucqt2rra::{path_to_term, ucqt_to_term, NameGen};

/// A random path expression over the Fig. 2 database's edge labels.
fn random_expr(db: &sgq_graph::GraphDatabase, rng: &mut Rng, depth: usize) -> PathExpr {
    let le = sgq_common::EdgeLabelId::new(rng.gen_range(0..db.edge_label_count()) as u32);
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.25) {
            PathExpr::Reverse(le)
        } else {
            PathExpr::Label(le)
        };
    }
    match rng.gen_range(0..7) {
        0 | 1 => PathExpr::concat(
            random_expr(db, rng, depth - 1),
            random_expr(db, rng, depth - 1),
        ),
        2 => PathExpr::union(
            random_expr(db, rng, depth - 1),
            random_expr(db, rng, depth - 1),
        ),
        3 => PathExpr::conj(
            random_expr(db, rng, depth - 1),
            random_expr(db, rng, depth - 1),
        ),
        4 => PathExpr::branch_r(
            random_expr(db, rng, depth - 1),
            random_expr(db, rng, depth - 1),
        ),
        5 => PathExpr::branch_l(
            random_expr(db, rng, depth - 1),
            random_expr(db, rng, depth - 1),
        ),
        _ => PathExpr::plus(random_expr(db, rng, depth - 1)),
    }
}

/// Optionally wraps `term` in node-label semi-join filters on its output
/// columns — the shape the schema rewrite produces, and the trigger for
/// the optimiser's pushdown rules (including pushdown into fixpoints).
fn random_filters(
    db: &sgq_graph::GraphDatabase,
    rng: &mut Rng,
    term: RaTerm,
    cols: &[ColId],
) -> RaTerm {
    filtered(db, rng, term, cols).0
}

/// [`random_filters`], also returning each filter as (column, label).
fn filtered(
    db: &sgq_graph::GraphDatabase,
    rng: &mut Rng,
    term: RaTerm,
    cols: &[ColId],
) -> (RaTerm, Vec<(ColId, NodeLabelId)>) {
    let (mut term, mut filters) = (term, Vec::new());
    for &col in cols {
        if rng.gen_bool(0.4) {
            let label =
                sgq_common::NodeLabelId::new(rng.gen_range(0..db.node_label_count()) as u32);
            term = RaTerm::semijoin(
                term,
                RaTerm::NodeScan {
                    labels: vec![label],
                    col,
                },
            );
            filters.push((col, label));
        }
    }
    (term, filters)
}

/// A random path's translation to `(v0, v1)` under random node-label
/// filters — for a third of the seeds, the union of two translations,
/// the second under fresh `m$` names and its own filters, as the schema
/// rewrite's disjuncts repeat a sub-term — and its answer by
/// `eval_path`, with each arm's filters applied to the pairs. For
/// another third the term is the translation of the path's Fig. 1 schema
/// rewrite, whose answer is the path's by Theorem 1. Most random paths
/// are empty under the schema, so that kind redraws the path, up to eight
/// times, until the rewrite is not `∅` (each `∅` is checked empty by
/// `eval_path`); after eight it falls back to one arm.
fn random_case(
    db: &sgq_graph::GraphDatabase,
    store: &RelStore,
    rng: &mut Rng,
) -> (PathExpr, RaTerm, Vec<(u32, u32)>) {
    let (v0, v1) = (store.symbols.col("v0"), store.symbols.col("v1"));
    let mut expr = random_expr(db, rng, 3);
    let mut pairs = sgq_algebra::eval::eval_path(db, &expr);
    let mut names = NameGen::new(&store.symbols);
    let kind = rng.gen_range(0..3);
    for _ in 0..if kind == 2 { 8 } else { 0 } {
        let rewritten = rewrite_path(&fig1_yago_schema(), &expr, RewriteOptions::default());
        if let Some(query) = rewritten.outcome.query() {
            let term = ucqt_to_term(query, &mut names).expect("the rewrite translates");
            let want = pairs.iter().map(|(s, t)| (s.raw(), t.raw())).collect();
            return (expr, term, want);
        }
        assert!(pairs.is_empty(), "the schema proves {expr:?} empty");
        expr = random_expr(db, rng, 3);
        pairs = sgq_algebra::eval::eval_path(db, &expr);
    }
    let (mut term, mut want) = (None, Vec::new());
    for _ in 0..if kind == 0 { 2 } else { 1 } {
        let arm = RaTerm::project(path_to_term(&expr, v0, v1, &mut names), vec![v0, v1]);
        let (arm, filters) = filtered(db, rng, arm, &[v0, v1]);
        let keep = |&(s, t): &(sgq_common::NodeId, sgq_common::NodeId)| {
            let node = |col| if col == v0 { s } else { t };
            filters
                .iter()
                .all(|&(col, l)| db.node_label(node(col)) == l)
        };
        want.extend(
            pairs
                .iter()
                .filter(|p| keep(p))
                .map(|(s, t)| (s.raw(), t.raw())),
        );
        term = Some(term.map_or(arm.clone(), |t| RaTerm::union(t, arm)));
    }
    want.sort_unstable();
    want.dedup();
    (expr, term.expect("one arm at least"), want)
}

/// The `(v0, v1)` pairs of a relation.
fn head_pairs(rel: &Relation, store: &RelStore) -> Vec<(u32, u32)> {
    let head = [store.symbols.col("v0"), store.symbols.col("v1")];
    rel.project(&head).rows().map(|r| (r[0], r[1])).collect()
}

#[test]
fn optimize_preserves_execution_results() {
    let db = fig2_yago_database();
    let store = RelStore::load(&db);
    for seed in 0..96u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let (expr, term, want) = random_case(&db, &store, &mut rng);
        let opt = optimize(&term, &store);
        assert_eq!(optimize(&opt, &store), opt, "(seed {seed}) not idempotent");

        let mut ctx = ExecContext::new();
        let plain = execute(&term, &store, &mut ctx).expect("plain term executes");
        let mut ctx = ExecContext::new();
        let optimized = execute(&opt, &store, &mut ctx).expect("optimized term executes");
        // Join reordering may permute columns; compare on the query head.
        let what = format!("(seed {seed}) for {expr:?}");
        assert_eq!(
            head_pairs(&plain, &store),
            want,
            "term disagrees with eval_path {what}"
        );
        assert_eq!(
            head_pairs(&optimized, &store),
            want,
            "optimize changed semantics {what}"
        );
    }
}

#[test]
fn physical_plans_match_term_execution() {
    // execute_plan(plan(optimize(t))) == eval_path.
    let db = fig2_yago_database();
    let store = RelStore::load(&db);
    let mut shared = 0;
    for seed in 0..96u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0x9a7);
        let (expr, term, want) = random_case(&db, &store, &mut rng);
        let opt = optimize(&term, &store);
        assert_eq!(optimize(&opt, &store), opt, "(seed {seed}) not idempotent");
        let p = plan(&opt, &store).expect("optimized term lowers");
        shared += shares_a_node(&p) as usize;
        let mut ctx = ExecContext::new();
        let planned = execute_plan(&p, &store, &mut ctx).expect("plan executes");

        // Join reordering may permute columns; compare on the query head.
        assert_eq!(
            head_pairs(&planned, &store),
            want,
            "plan changed semantics (seed {seed}) for {expr:?}"
        );
    }
    assert!(shared > 0, "no case planned a shared node");
}

/// Whether any node of `p` is read by more than one parent.
fn shares_a_node(p: &PhysPlan) -> bool {
    p.parents() > 1 || p.children().into_iter().any(shares_a_node)
}

#[test]
fn shared_sub_plans_keep_their_column_order() {
    // π(a,b)(ϕ(a,b)) ∪ π(a,b)(ϕ(b,a)): the two arms' inputs are one
    // sub-plan up to renaming, evaluated once, but the second arm reads
    // it with its columns swapped. The answer is ⟦ϕ⟧ ∪ ⟦ϕ⟧⁻¹ by
    // `eval_path`, which shares no code with the executor.
    let db = fig2_yago_database();
    let store = RelStore::load(&db);
    let (a, b) = (store.symbols.col("a"), store.symbols.col("b"));
    let mut shared = 0;
    for seed in 0..96u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5ade);
        let expr = random_expr(&db, &mut rng, 3);
        let mut names = NameGen::new(&store.symbols);
        let mut arm =
            |src, tgt| RaTerm::project(path_to_term(&expr, src, tgt, &mut names), vec![a, b]);
        let p = plan(&RaTerm::union(arm(a, b), arm(b, a)), &store).expect("lowers");
        shared += shares_a_node(&p) as usize;
        let rel = execute_plan(&p, &store, &mut ExecContext::new()).expect("executes");
        let got: Vec<(u32, u32)> = rel.rows().map(|r| (r[0], r[1])).collect();
        let pairs = sgq_algebra::eval::eval_path(&db, &expr).into_iter();
        let mut want: Vec<(u32, u32)> = pairs
            .flat_map(|(s, t)| [(s.raw(), t.raw()), (t.raw(), s.raw())])
            .collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want, "seed {seed}: {expr:?}");
    }
    assert!(shared > 0, "no case shared a sub-plan");
}

#[test]
fn planner_selects_merge_join_for_aligned_inputs() {
    let db = fig2_yago_database();
    let mut store = RelStore::load(&db);
    // Ablate index joins: this test pins the scan-based strategies.
    store.index_joins = false;
    let s = &store.symbols;
    let scan = |label: &str, src, tgt| {
        RaTerm::edge_scan(db.edge_label_id(label).unwrap(), s.col(src), s.col(tgt))
    };
    // Shared x leads both schemas → merge join.
    let aligned = RaTerm::join(scan("isLocatedIn", "x", "y"), scan("owns", "x", "z"));
    let p = plan(&aligned, &store).unwrap();
    assert!(matches!(p.op, PhysOp::MergeJoin { .. }), "{p:?}");
    let mut ctx = ExecContext::new();
    let merged = execute_plan(&p, &store, &mut ctx).unwrap();
    // The reference is the nested-loop definition: x joins x.
    let located = store.edge_table(db.edge_label_id("isLocatedIn").unwrap());
    let owns = store.edge_table(db.edge_label_id("owns").unwrap());
    let mut nested = Vec::new();
    for l in located.rows() {
        for o in owns.rows().filter(|o| o[0] == l[0]) {
            nested.push(vec![l[0], l[1], o[1]]);
        }
    }
    let cols = vec![s.col("x"), s.col("y"), s.col("z")];
    assert_eq!(merged, Relation::from_rows(cols, nested));

    // Shared y sits mid-schema on the left → hash join with the smaller
    // (owns, 1 row) side building.
    let misaligned = RaTerm::join(scan("owns", "x", "y"), scan("isLocatedIn", "y", "z"));
    let p = plan(&misaligned, &store).unwrap();
    match &p.op {
        PhysOp::HashJoin { build_left, .. } => assert!(build_left),
        other => panic!("expected hash join, got {other:?}"),
    }
}

#[test]
fn planner_fuses_semijoin_onto_scan() {
    let db = fig2_yago_database();
    let store = RelStore::load(&db);
    let s = &store.symbols;
    // A two-label filter: no precomputed slice serves it.
    let labels = ["CITY", "REGION"].map(|l| db.node_label_id(l).unwrap());
    let t = RaTerm::semijoin(
        RaTerm::edge_scan(
            db.edge_label_id("isLocatedIn").unwrap(),
            s.col("x"),
            s.col("y"),
        ),
        RaTerm::NodeScan {
            labels: labels.to_vec(),
            col: s.col("y"),
        },
    );
    let p = plan(&t, &store).unwrap();
    match &p.op {
        PhysOp::FilteredEdgeScan {
            scan, filter: None, ..
        } => {
            assert_eq!(scan.tgt_labels.as_deref(), Some(&labels[..]))
        }
        other => panic!("expected a label-filtered scan, got {other:?}"),
    }
    let mut ctx = ExecContext::new();
    let fused = execute_plan(&p, &store, &mut ctx).unwrap();
    // The reference is the nested-loop definition: y is a CITY or a
    // REGION.
    let located = store.edge_table(db.edge_label_id("isLocatedIn").unwrap());
    let kept = located
        .rows()
        .filter(|e| labels.iter().any(|&l| store.node_set(l).contains(&e[1])));
    let reference = Relation::from_rows(vec![s.col("x"), s.col("y")], kept.map(<[u32]>::to_vec));
    assert_eq!(fused, reference);
}

#[test]
fn fixpoint_build_caching_reduces_work_with_identical_results() {
    let db = fig2_yago_database();
    let mut store = RelStore::load(&db);
    // Ablate index joins so the step actually hash-joins: with the CSR
    // the step builds nothing at all (pinned separately below).
    store.index_joins = false;
    let s = &store.symbols;
    let f = closure_fixpoint(
        s.recvar("X"),
        RaTerm::edge_scan(
            db.edge_label_id("isLocatedIn").unwrap(),
            s.col("x"),
            s.col("y"),
        ),
        s.col("x"),
        s.col("y"),
        s.col("m"),
    );
    let p = plan(&f, &store).unwrap();
    let mut ctx = ExecContext::new();
    let r = execute_plan(&p, &store, &mut ctx).unwrap();
    assert_eq!(pairs(&r), closure_pairs(&db, "isLocatedIn+"));
    assert_eq!(ctx.fixpoint_rounds, 3, "closure must iterate");
    // The step's static build side is hashed in the first round only.
    assert_eq!(ctx.hash_builds, 1);
    assert_eq!(ctx.cache_hits, 2);
    // The base's 4 rows and the cached scan's 4 once, then per round the
    // delta read, the join, its projection and the fresh rows: 4 + 4 +
    // (4 + 3 + 3 + 3) + (3 + 1 + 1 + 1) + (1 + 0 + 0 + 0).
    assert_eq!(ctx.rows_materialized(), 28);
}

/// The first two columns of `rel`'s rows.
fn pairs(rel: &Relation) -> Vec<(u32, u32)> {
    rel.rows().map(|r| (r[0], r[1])).collect()
}

/// `eval_path(path)`'s pairs, in order.
fn closure_pairs(db: &sgq_graph::GraphDatabase, path: &str) -> Vec<(u32, u32)> {
    let expr = sgq_algebra::parser::parse_path(path, db).expect("path parses");
    let pairs = sgq_algebra::eval::eval_path(db, &expr).into_iter();
    pairs.map(|(s, t)| (s.raw(), t.raw())).collect()
}

#[test]
fn index_joins_preserve_execution_results() {
    // The CSR index-join property: for random optimised terms,
    // `execute_plan(index-enabled) == execute_plan(index-disabled) ==
    // execute(term)` — planning against the adjacency indexes never
    // changes results, only how they are computed.
    let db = fig2_yago_database();
    let mut store = RelStore::load(&db);
    let (v0, v1) = (store.symbols.col("v0"), store.symbols.col("v1"));
    for seed in 0..96u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0x1d9);
        let expr = random_expr(&db, &mut rng, 3);
        let mut names = NameGen::new(&store.symbols);
        let term = path_to_term(&expr, v0, v1, &mut names);
        let term = random_filters(&db, &mut rng, term, &[v0, v1]);
        let opt = optimize(&term, &store);

        store.index_joins = true;
        let p_index = plan(&opt, &store).expect("plans with indexes");
        store.index_joins = false;
        let p_scan = plan(&opt, &store).expect("plans without indexes");

        let mut ctx = ExecContext::new();
        let reference = execute(&term, &store, &mut ctx).expect("term executes");
        let mut ctx = ExecContext::new();
        let r_index = execute_plan(&p_index, &store, &mut ctx).expect("index plan executes");
        let mut ctx = ExecContext::new();
        let r_scan = execute_plan(&p_scan, &store, &mut ctx).expect("scan plan executes");

        let head = [v0, v1];
        assert_eq!(
            reference.project(&head),
            r_index.project(&head),
            "index plan changed semantics (seed {seed}) for {expr:?}"
        );
        assert_eq!(
            r_index.project(&head),
            r_scan.project(&head),
            "index and scan plans disagree (seed {seed}) for {expr:?}"
        );
    }
    store.index_joins = true;
}

#[test]
fn label_filtered_index_join_matches_scan_strategies() {
    // Directed: a doubly label-filtered edge scan absorbed into an
    // index join filters through the sorted node-label sets. CITY→REGION
    // keeps only Grenoble→AuvergneRhôneAlpes reachable from livesIn.
    let db = fig2_yago_database();
    let mut store = RelStore::load(&db);
    let s = &store.symbols;
    let scan = |label: &str, src, tgt| {
        RaTerm::edge_scan(db.edge_label_id(label).unwrap(), s.col(src), s.col(tgt))
    };
    let node = |label: &str, col: &str| RaTerm::NodeScan {
        labels: vec![db.node_label_id(label).unwrap()],
        col: s.col(col),
    };
    let filtered = RaTerm::semijoin(
        RaTerm::semijoin(scan("isLocatedIn", "y", "z"), node("CITY", "y")),
        node("REGION", "z"),
    );
    let t = RaTerm::join(scan("livesIn", "x", "y"), filtered);
    let p = plan(&t, &store).unwrap();
    assert!(
        matches!(
            p.op,
            PhysOp::IndexJoin { ref scan, .. }
                if scan.src_labels.is_some() && scan.tgt_labels.is_some()
        ),
        "{p:?}"
    );
    let mut ctx = ExecContext::new();
    let r_index = execute_plan(&p, &store, &mut ctx).unwrap();
    store.index_joins = false;
    let p_scan = plan(&t, &store).unwrap();
    let mut ctx = ExecContext::new();
    let r_scan = execute_plan(&p_scan, &store, &mut ctx).unwrap();
    assert_eq!(r_index, r_scan);
    assert_eq!(r_index.len(), 2, "one CITY→REGION hop per resident");
}

#[test]
fn index_join_inside_fixpoint_interacts_with_the_step_cache() {
    // Directed: the closure step's join against the static renamed scan
    // probes the CSR instead of building a hash table. The answer is
    // `eval_path`'s, no hash table is built in any round, and the
    // index-disabled plan produces identical results.
    let db = fig2_yago_database();
    let mut store = RelStore::load(&db);
    let s = &store.symbols;
    let f = closure_fixpoint(
        s.recvar("X"),
        RaTerm::edge_scan(
            db.edge_label_id("isLocatedIn").unwrap(),
            s.col("x"),
            s.col("y"),
        ),
        s.col("x"),
        s.col("y"),
        s.col("m"),
    );
    let p = plan(&f, &store).unwrap();
    assert!(
        p.contains_op(&|op| matches!(op, PhysOp::IndexJoin { .. })),
        "{p:?}"
    );

    let mut cached = ExecContext::new();
    let r_cached = execute_plan(&p, &store, &mut cached).unwrap();
    assert_eq!(pairs(&r_cached), closure_pairs(&db, "isLocatedIn+"));
    assert!(cached.fixpoint_rounds >= 2, "closure iterates");
    assert_eq!(cached.hash_builds, 0, "the CSR is the build side");

    store.index_joins = false;
    let p_scan = plan(&f, &store).unwrap();
    let mut ctx = ExecContext::new();
    let r_scan = execute_plan(&p_scan, &store, &mut ctx).unwrap();
    assert_eq!(r_cached, r_scan);
    assert!(ctx.hash_builds > 0, "the ablation builds hash tables");
}

#[test]
fn cloning_a_scanned_base_table_does_not_copy_row_data() {
    // The zero-copy pin (Arc pointer equality): base-table handles,
    // their clones, positional renames and executed bare scans all share
    // the store's loaded buffer.
    let db = fig2_yago_database();
    let store = RelStore::load(&db);
    let le = db.edge_label_id("isLocatedIn").unwrap();
    let t1 = store.edge_table(le);
    let t2 = store.edge_table(le);
    assert!(t1.shares_data(&t2), "two scans share one buffer");
    assert!(t1.clone().shares_data(&t1), "clone shares");
    let renamed = t1.with_cols(vec![store.symbols.col("x"), store.symbols.col("y")]);
    assert!(renamed.shares_data(&t1), "positional rename shares");

    let term = RaTerm::edge_scan(le, store.symbols.col("x"), store.symbols.col("y"));
    let mut ctx = ExecContext::new();
    let executed = execute(&term, &store, &mut ctx).unwrap();
    assert!(
        executed.shares_data(&t1),
        "executing a bare scan returns the store's buffer"
    );
    // Out-of-range lookups share the static empty handle.
    let e1 = store.edge_table(sgq_common::EdgeLabelId::new(1000));
    let e2 = store.edge_table(sgq_common::EdgeLabelId::new(1001));
    assert!(e1.shares_data(&e2));
}

#[test]
fn estimates_are_finite_nonnegative_and_monotone() {
    // Estimator soundness over random terms: every estimate is finite and
    // non-negative, and wrapping a term in a row-reducing operator —
    // a node-label semi-join filter or an equality selection — never
    // *increases* the estimate.
    let db = fig2_yago_database();
    let store = RelStore::load(&db);
    let (v0, v1) = (store.symbols.col("v0"), store.symbols.col("v1"));
    for seed in 0..96u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0xe57);
        let expr = random_expr(&db, &mut rng, 3);
        let mut names = NameGen::new(&store.symbols);
        let term = path_to_term(&expr, v0, v1, &mut names);
        let term = random_filters(&db, &mut rng, term, &[v0, v1]);
        let e = sgq_ra::cost::estimate(&term, &store);
        assert!(
            e.rows.is_finite() && e.rows >= 0.0,
            "rows estimate unsound (seed {seed}): {e:?} for {expr:?}"
        );
        assert!(
            e.cost.is_finite() && e.cost >= 0.0,
            "cost estimate unsound (seed {seed}): {e:?} for {expr:?}"
        );
        // Semi-join filters only remove rows.
        let label = sgq_common::NodeLabelId::new(rng.gen_range(0..db.node_label_count()) as u32);
        let filtered = RaTerm::semijoin(
            term.clone(),
            RaTerm::NodeScan {
                labels: vec![label],
                col: v0,
            },
        );
        let ef = sgq_ra::cost::estimate(&filtered, &store);
        assert!(
            ef.rows <= e.rows + 1e-9,
            "semi-join estimate exceeds its input (seed {seed}): {} > {}",
            ef.rows,
            e.rows
        );
        // Equality selections only remove rows.
        let selected = RaTerm::select_eq(term.clone(), v0, v1);
        let es = sgq_ra::cost::estimate(&selected, &store);
        assert!(
            es.rows <= e.rows.max(1.0) + 1e-9,
            "selection estimate exceeds its input (seed {seed}): {} > {}",
            es.rows,
            e.rows
        );
    }
}

#[test]
fn fig2_scan_estimates_match_triple_counts_exactly() {
    // Golden q-error assertions on the Fig. 2 database: a scan annotated
    // with both endpoint labels is estimated straight off the triple
    // counts, so the estimate is exact (q-error 1.0).
    let db = fig2_yago_database();
    let store = RelStore::load(&db);
    let s = &store.symbols;
    let scan =
        |label: &str| RaTerm::edge_scan(db.edge_label_id(label).unwrap(), s.col("x"), s.col("y"));
    let node = |label: &str, col: &str| RaTerm::NodeScan {
        labels: vec![db.node_label_id(label).unwrap()],
        col: s.col(col),
    };
    let annotated = |edge: &str, src: &str, tgt: &str| {
        RaTerm::semijoin(RaTerm::semijoin(scan(edge), node(src, "x")), node(tgt, "y"))
    };
    for (edge, src, tgt, expected) in [
        // The Fig. 2 isLocatedIn triples and an impossible one.
        ("isLocatedIn", "CITY", "REGION", 2.0),
        ("isLocatedIn", "PROPERTY", "CITY", 1.0),
        ("isLocatedIn", "REGION", "COUNTRY", 1.0),
        ("isLocatedIn", "COUNTRY", "CITY", 0.0),
        ("owns", "PERSON", "PROPERTY", 1.0),
    ] {
        let t = annotated(edge, src, tgt);
        let est = sgq_ra::cost::estimate(&t, &store).rows;
        assert_eq!(
            est, expected,
            "{src} -{edge}-> {tgt} should estimate exactly {expected}"
        );
        // q-error against the executed cardinality is exactly 1.
        let mut ctx = ExecContext::new();
        let actual = execute(&t, &store, &mut ctx).unwrap().len();
        assert_eq!(sgq_ra::cost::q_error(est, actual as f64), 1.0);
    }
}

#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    // The morsel-parallel soundness property: for random optimised
    // plans, `execute_plan(DOP=N) == execute_plan(DOP=1)` bit-for-bit
    // (same columns, same row buffer contents) — i.e. every probe-side
    // kernel run per morsel and combined equals its inline whole-range
    // run. Parallelism is forced on the tiny fixture by dropping the
    // cost gate to 1 row; DOP=7 exercises more workers than morsels.
    // Morsel sizes sweep the range boundaries: 1 (every row its own
    // range), 2 (an uneven last morsel), and `len - 1` for every length
    // an operator of the plan produced, which splits a probe of that
    // length into all-but-the-last row and the last row alone. With the
    // CSR indexes on, the index join kernel runs; ablated, the hash join
    // kernel; and either way the one semi-join kernel, the hash filter,
    // fused onto scans or not — between them both combine rules
    // (concatenation and merge-dedup). The work counters must
    // match the serial run's too: a kernel's emitted rows are recorded
    // once, not once per morsel run after its dedup.
    let db = fig2_yago_database();
    let mut kinds_run_parallel = std::collections::BTreeSet::new();
    for index_joins in [true, false] {
        let mut store = RelStore::load(&db);
        store.index_joins = index_joins;
        let s = &store.symbols;
        let (v0, v1) = (s.col("v0"), s.col("v1"));
        let mut terms: Vec<(String, RaTerm)> = (0..96u64)
            .map(|seed| {
                let mut rng = Rng::seed_from_u64(seed ^ 0xd0b);
                let expr = random_expr(&db, &mut rng, 3);
                let mut names = NameGen::new(s);
                let term = path_to_term(&expr, v0, v1, &mut names);
                let term = random_filters(&db, &mut rng, term, &[v0, v1]);
                (format!("seed {seed}: {expr:?}"), optimize(&term, &store))
            })
            .collect();
        // Path expressions never semi-join against an edge table: add
        // that shape directed, a hash semi-join over a join.
        let located =
            |src, tgt| RaTerm::edge_scan(db.edge_label_id("isLocatedIn").unwrap(), src, tgt);
        let has_out_edge = RaTerm::semijoin(
            RaTerm::join(located(v0, v1), located(v1, s.col("w"))),
            located(v1, s.col("q")),
        );
        terms.push((
            "(isLocatedIn ⋈ isLocatedIn) ⋉ isLocatedIn".into(),
            has_out_edge,
        ));
        for (what, term) in &terms {
            let p = plan(term, &store).expect("optimized term lowers");
            let counters =
                |c: &ExecContext| [c.rows_materialized(), c.hash_builds, c.cache_hits, c.scans];
            let mut ctx = ExecContext::new();
            let (serial, trace) =
                execute_plan_traced(&p, &store, &mut ctx).expect("serial plan executes");
            let serial_counters = counters(&ctx);
            let mut sizes = std::collections::BTreeSet::from([1usize, 2]);
            sizes.extend(
                trace
                    .spans
                    .iter()
                    .filter(|s| s.rows > 2)
                    .map(|s| s.rows - 1),
            );
            for dop in [2usize, 7] {
                for &morsel_rows in &sizes {
                    let mut ctx = ExecContext::new();
                    ctx.dop = dop;
                    ctx.parallel_threshold = 1;
                    ctx.morsel_rows = morsel_rows;
                    let par = execute_plan(&p, &store, &mut ctx).expect("parallel plan executes");
                    assert_eq!(
                        serial, par,
                        "DOP={dop} morsel_rows={morsel_rows} index_joins={index_joins} \
                         changed results for {what}"
                    );
                    assert_eq!(
                        counters(&ctx),
                        serial_counters,
                        "DOP={dop} morsel_rows={morsel_rows} index_joins={index_joins} \
                         changed the work counters for {what}"
                    );
                    if ctx.morsels_executed > 0 {
                        kinds_run_parallel.extend(trace.spans.iter().map(|s| s.kind));
                    }
                }
            }
        }
    }
    for kind in ["IndexJoin", "FilteredEdgeScan", "HashJoin", "HashSemiJoin"] {
        assert!(
            kinds_run_parallel.contains(kind),
            "no parallel plan exercised {kind}: {kinds_run_parallel:?}"
        );
    }
}

/// "Plan and term estimates agree by construction": the plan's root
/// carries the rows the estimator's public fold gives the term.
fn assert_root_estimate_is_the_terms(p: &sgq_ra::PhysPlan, term: &RaTerm, store: &RelStore) {
    let rows = sgq_ra::cost::estimate(term, store).rows;
    assert_eq!(p.est.rows, rows, "{term:?}");
}

#[test]
fn storage_layouts_are_bit_identical_to_the_reference_executor() {
    // For random optimised terms (joins, unions, label filters and
    // fixpoints via `plus`), the store's plans — precomputed
    // endpoint-label slice scans included — produce results
    // bit-identical to the term-level reference executor, serially and
    // at DOP ∈ {2, 7}.
    let db = fig2_yago_database();
    let store = RelStore::load(&db);
    let (v0, v1) = (store.symbols.col("v0"), store.symbols.col("v1"));
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0x1a40);
        let expr = random_expr(&db, &mut rng, 3);
        let mut names = NameGen::new(&store.symbols);
        let term = path_to_term(&expr, v0, v1, &mut names);
        let term = random_filters(&db, &mut rng, term, &[v0, v1]);

        let mut ctx = ExecContext::new();
        let reference = execute(&term, &store, &mut ctx).expect("term executes");
        let head = [v0, v1];
        let reference = reference.project(&head);
        let opt = optimize(&term, &store);
        let p = plan(&opt, &store).expect("plan lowers");
        assert_root_estimate_is_the_terms(&p, &opt, &store);
        let mut ctx = ExecContext::new();
        let serial = execute_plan(&p, &store, &mut ctx).expect("plan executes");
        assert_eq!(
            reference,
            serial.project(&head),
            "plan changed semantics (seed {seed}) for {expr:?}"
        );
        for dop in [2usize, 7] {
            let mut ctx = ExecContext::new();
            ctx.dop = dop;
            ctx.parallel_threshold = 1;
            ctx.morsel_rows = 2;
            let par = execute_plan(&p, &store, &mut ctx).expect("parallel plan executes");
            assert_eq!(
                serial, par,
                "DOP={dop} changed results (seed {seed}) for {expr:?}"
            );
        }
    }
}

/// The reference an endpoint-label slice must equal: `table`'s rows
/// whose source (resp. target) is in the sorted node set.
fn filter_edges_by_sets(
    table: &Relation,
    src_set: Option<&[u32]>,
    tgt_set: Option<&[u32]>,
) -> Relation {
    let keep = |set: Option<&[u32]>, n: u32| set.is_none_or(|s| s.binary_search(&n).is_ok());
    let rows = table
        .rows()
        .filter(|r| keep(src_set, r[0]) && keep(tgt_set, r[1]));
    Relation::from_rows(table.cols().to_vec(), rows.map(<[u32]>::to_vec))
}

#[test]
fn slices_are_base_tables_filtered_by_node_sets() {
    // On the tiny LDBC and YAGO catalogs: every edge label's slice for
    // every observed two-sided and one-sided endpoint label combination
    // is its base table filtered by the sorted node sets, and an
    // unobserved in-range combination is empty.
    let tiny = [
        sgq_datasets::ldbc::generate(sgq_datasets::ldbc::LdbcConfig::at_scale(0.01)),
        sgq_datasets::yago::generate(sgq_datasets::yago::YagoConfig::tiny()),
    ];
    for (_, db) in &tiny {
        let store = RelStore::load(db);
        let node_labels = (0..db.node_label_count()).map(|l| NodeLabelId::new(l as u32));
        let sides: Vec<Option<NodeLabelId>> =
            std::iter::once(None).chain(node_labels.map(Some)).collect();
        let (mut observed, mut unobserved) = (0, 0);
        for le in (0..db.edge_label_count()).map(|i| EdgeLabelId::new(i as u32)) {
            let base = store.edge_table(le);
            for &src in &sides {
                for &tgt in &sides {
                    let slice = store.filtered_edge_table(le, src, tgt);
                    let set = |l: Option<NodeLabelId>| l.map(|l| store.node_set(l));
                    let expected = filter_edges_by_sets(&base, set(src), set(tgt));
                    assert_eq!(slice, expected, "{le:?} ({src:?}, {tgt:?})");
                    if expected.is_empty() {
                        unobserved += 1;
                    } else {
                        observed += 1;
                    }
                }
            }
        }
        assert!(observed > 0 && unobserved > 0, "{observed} / {unobserved}");
    }
}

/// One to two random node labels of `db`.
fn random_labels(db: &sgq_graph::GraphDatabase, rng: &mut Rng) -> Vec<NodeLabelId> {
    let n = db.node_label_count();
    let mut labels: Vec<NodeLabelId> = (0..rng.gen_range(1..3))
        .map(|_| NodeLabelId::new(rng.gen_range(0..n) as u32))
        .collect();
    labels.dedup();
    labels
}

#[test]
fn labelled_scans_are_their_edge_tables_filtered_by_node_tables() {
    // Random edge scans under random stacked node-label semi-joins on
    // either endpoint (up to two a side, so empty intersections occur),
    // some over a self-loop scan (`src == tgt`), in both forms: the
    // semi-join stack and the labelled scan it folds to. Each form, alone
    // and as the absorbable side of a join, is optimised (idempotently),
    // planned and run at DOP 1 and 2 against the edge table filtered
    // here by node-table membership. On a self-loop the semi-joins test
    // the scan's first column alone and do not fold.
    let catalogs = [
        fig2_yago_database(),
        sgq_datasets::ldbc::generate(sgq_datasets::ldbc::LdbcConfig::at_scale(0.01)).1,
    ];
    let (mut empty, mut loops) = (0, 0);
    for (i, db) in catalogs.iter().enumerate() {
        let store = RelStore::load(db);
        let s = &store.symbols;
        let (w, x, y) = (s.col("w"), s.col("x"), s.col("y"));
        let member = |l: NodeLabelId, v: u32| store.node_table(l).rows().any(|r| r[0] == v);
        let allows = |set: &Option<Vec<NodeLabelId>>, v| {
            set.as_ref()
                .is_none_or(|ls| ls.iter().any(|&l| member(l, v)))
        };
        for seed in 0..48u64 {
            let mut rng = Rng::seed_from_u64(seed ^ 0x1abe1 ^ i as u64);
            let label = EdgeLabelId::new(rng.gen_range(0..db.edge_label_count()) as u32);
            let self_loop = rng.gen_bool(0.2);
            let tgt = if self_loop { x } else { y };
            let (mut stacked, mut sets) = (RaTerm::edge_scan(label, x, tgt), [None, None]);
            for (end, col) in [(0, x), (1, tgt)] {
                for _ in 0..rng.gen_range(0..3) {
                    let labels = random_labels(db, &mut rng);
                    let set: &mut Option<Vec<NodeLabelId>> = &mut sets[end];
                    *set = Some(match set.take() {
                        Some(prev) => prev.into_iter().filter(|l| labels.contains(l)).collect(),
                        None => labels.clone(),
                    });
                    stacked = RaTerm::semijoin(stacked, RaTerm::NodeScan { labels, col });
                }
            }
            let [src_labels, tgt_labels] = sets.clone().map(|s| s.map(Vec::into_boxed_slice));
            let labelled = RaTerm::EdgeScan {
                label,
                src: x,
                tgt,
                src_labels,
                tgt_labels,
            };
            empty += sets.iter().flatten().any(Vec::is_empty) as usize;
            loops += self_loop as usize;
            // Each form with the column filters it means.
            let mut forms = vec![(labelled, sets.clone())];
            if self_loop {
                let both = [sets[0].clone(), sets[1].clone()].into_iter().flatten();
                let all = both.reduce(|a, b| a.into_iter().filter(|l| b.contains(l)).collect());
                forms.push((stacked, [all, None]));
            } else {
                forms.push((stacked, sets));
            }
            let edges = store.edge_table(label);
            let other = EdgeLabelId::new(rng.gen_range(0..db.edge_label_count()) as u32);
            for (form, [first, second]) in forms {
                let kept: Vec<Vec<u32>> = (edges.rows())
                    .filter(|r| allows(&first, r[0]) && allows(&second, r[1]))
                    .map(<[u32]>::to_vec)
                    .collect();
                let mut cases = vec![(form.clone(), kept.clone(), vec![x, tgt])];
                if !self_loop {
                    // w -other-> x ⋈ the scan: an index join may absorb it.
                    let joined = (store.edge_table(other).rows())
                        .flat_map(|o| {
                            kept.iter()
                                .filter(move |k| k[0] == o[1])
                                .map(move |k| vec![o[0], k[0], k[1]])
                        })
                        .collect();
                    let join = RaTerm::join(RaTerm::edge_scan(other, w, x), form);
                    cases.push((join, joined, vec![w, x, y]));
                }
                for (term, mut want, cols) in cases {
                    let what = format!("(catalog {i}, seed {seed}) {term:?}");
                    let opt = optimize(&term, &store);
                    assert_eq!(optimize(&opt, &store), opt, "not idempotent {what}");
                    let p = plan(&opt, &store).expect("lowers");
                    want.sort_unstable();
                    want.dedup();
                    for dop in [1, 2] {
                        let mut ctx = ExecContext::new();
                        (ctx.dop, ctx.parallel_threshold, ctx.morsel_rows) = (dop, 1, 2);
                        let rel = execute_plan(&p, &store, &mut ctx).expect("executes");
                        let rel = if self_loop { rel } else { rel.project(&cols) };
                        let got: Vec<Vec<u32>> = rel.rows().map(<[u32]>::to_vec).collect();
                        assert_eq!(got, want, "DOP {dop} {what}");
                    }
                }
            }
        }
    }
    assert!(
        empty > 0 && loops > 0,
        "{empty} empty intersections, {loops} self-loops"
    );
}

#[test]
fn parallel_index_join_respects_label_filters() {
    // Directed: the doubly label-filtered index join from the scan
    // strategy test, executed per morsel — the node-label set filters
    // must apply identically inside every morsel task.
    let db = fig2_yago_database();
    let store = RelStore::load(&db);
    let s = &store.symbols;
    let scan = |label: &str, src, tgt| {
        RaTerm::edge_scan(db.edge_label_id(label).unwrap(), s.col(src), s.col(tgt))
    };
    let node = |label: &str, col: &str| RaTerm::NodeScan {
        labels: vec![db.node_label_id(label).unwrap()],
        col: s.col(col),
    };
    let filtered = RaTerm::semijoin(
        RaTerm::semijoin(scan("isLocatedIn", "y", "z"), node("CITY", "y")),
        node("REGION", "z"),
    );
    let t = RaTerm::join(scan("livesIn", "x", "y"), filtered);
    let p = plan(&t, &store).unwrap();
    assert!(
        matches!(
            p.op,
            PhysOp::IndexJoin { ref scan, .. }
                if scan.src_labels.is_some() && scan.tgt_labels.is_some()
        ),
        "{p:?}"
    );
    let mut ctx = ExecContext::new();
    let serial = execute_plan(&p, &store, &mut ctx).unwrap();
    let mut ctx = ExecContext::new();
    ctx.dop = 4;
    ctx.parallel_threshold = 1;
    ctx.morsel_rows = 1;
    let parallel = execute_plan(&p, &store, &mut ctx).unwrap();
    assert_eq!(serial, parallel);
    assert!(ctx.morsels_executed >= 2, "the index join must go parallel");
    assert_eq!(parallel.len(), 2, "one CITY→REGION hop per resident");
}

#[test]
fn parallel_fixpoint_matches_serial_with_identical_builds() {
    // Directed: inside a fixpoint, each round's delta probe runs per
    // morsel against the cached static build side. Results match serial
    // execution bit-for-bit, the round count is unchanged, and the
    // build-side hash tables are constructed on the caller thread —
    // exactly as many as the serial run builds.
    let db = fig2_yago_database();
    let mut store = RelStore::load(&db);
    // Ablate index joins so the step hash-joins and builds are counted.
    store.index_joins = false;
    let s = &store.symbols;
    let f = closure_fixpoint(
        s.recvar("X"),
        RaTerm::edge_scan(
            db.edge_label_id("isLocatedIn").unwrap(),
            s.col("x"),
            s.col("y"),
        ),
        s.col("x"),
        s.col("y"),
        s.col("m"),
    );
    let p = plan(&f, &store).unwrap();
    let mut serial = ExecContext::new();
    let r_serial = execute_plan(&p, &store, &mut serial).unwrap();
    let mut par = ExecContext::new();
    par.dop = 4;
    par.parallel_threshold = 1;
    par.morsel_rows = 1;
    let r_par = execute_plan(&p, &store, &mut par).unwrap();
    assert_eq!(r_serial, r_par, "parallel fixpoint changed results");
    assert_eq!(serial.fixpoint_rounds, par.fixpoint_rounds);
    assert_eq!(
        serial.hash_builds, par.hash_builds,
        "build sides must stay on the caller thread (cached, not per morsel)"
    );
    assert!(par.morsels_executed >= 2, "delta probes must go parallel");
    assert!(serial.fixpoint_rounds >= 2, "closure iterates");

    // The CSR-backed plan parallelises too, with zero hash builds.
    store.index_joins = true;
    let p_csr = plan(&f, &store).unwrap();
    let mut csr = ExecContext::new();
    csr.dop = 4;
    csr.parallel_threshold = 1;
    csr.morsel_rows = 1;
    let r_csr = execute_plan(&p_csr, &store, &mut csr).unwrap();
    assert_eq!(r_serial, r_csr);
    assert_eq!(csr.hash_builds, 0, "the CSR is the build side");
}

#[test]
fn parallel_row_budget_stops_within_one_morsel_batch_per_worker() {
    // A budget-exceeding parallel join must stop promptly: the first
    // morsel to breach `max_rows` trips the shared cancel flag, and
    // only morsels already past their final poll can still record. The
    // overshoot is therefore bounded by one in-flight morsel's output
    // per worker: `max_rows + dop * morsel_rows * f_max`, where f_max
    // is the worst per-key fanout either join side can contribute.
    let (_, db) = sgq_datasets::yago::generate(sgq_datasets::yago::YagoConfig::scaled(0.2));
    let store = RelStore::load(&db);
    let s = &store.symbols;
    let scan = |label: &str, src, tgt| {
        RaTerm::edge_scan(db.edge_label_id(label).unwrap(), s.col(src), s.col(tgt))
    };
    // A fanout self-join (people sharing a city) whose output dwarfs its
    // inputs, so a budget above the scan sizes still trips inside the
    // parallel probe.
    let t = RaTerm::join(scan("livesIn", "x", "y"), scan("livesIn", "z", "y"));
    let p = plan(&t, &store).unwrap();

    // Full output size and worst-case per-key fanout, from the data.
    let mut ctx = ExecContext::new();
    let total = execute_plan(&p, &store, &mut ctx).unwrap().len();
    let fanout = |rel: &Relation, key: usize| {
        let mut best = 0usize;
        let mut run = 0usize;
        let mut prev = None;
        for row in rel.rows() {
            if prev == Some(row[key]) {
                run += 1;
            } else {
                run = 1;
                prev = Some(row[key]);
            }
            best = best.max(run);
        }
        best
    };
    let lives = store
        .edge_table(db.edge_label_id("livesIn").unwrap())
        .with_cols(vec![s.col("x"), s.col("y")]);
    // Both join sides are livesIn keyed on its target column.
    let f_max = fanout(&lives.project(&[s.col("y"), s.col("x")]), 0);

    let (dop, morsel_rows, max_rows) = (2usize, 4usize, 2_000usize);
    let mut ctx = ExecContext::new();
    ctx.dop = dop;
    ctx.parallel_threshold = 1;
    ctx.morsel_rows = morsel_rows;
    ctx.max_rows = max_rows;
    let err = execute_plan(&p, &store, &mut ctx).expect_err("budget must trip");
    assert!(
        err.to_string().contains("row budget"),
        "expected the row-budget error, got {err}"
    );
    let bound = max_rows + dop * morsel_rows * f_max;
    assert!(
        ctx.rows_materialized() <= bound,
        "overshoot too large: {} rows recorded, bound {bound} (total {total})",
        ctx.rows_materialized()
    );
    assert!(
        total > bound,
        "fixture too small to distinguish early stop ({total} <= {bound})"
    );
}

/// Asserts rows are strictly increasing (sorted with no duplicates).
fn assert_canonical(rel: &Relation, context: &str) {
    let rows: Vec<&[u32]> = rel.rows().collect();
    for w in rows.windows(2) {
        assert!(
            w[0] < w[1],
            "{context}: rows out of canonical order: {:?} !< {:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn every_operator_returns_canonical_relations() {
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let c: Vec<ColId> = (0..3).map(ColId::new).collect();
        let arb = |rng: &mut Rng, cols: &[ColId]| {
            let n = rng.gen_range(0..20);
            Relation::from_rows(
                cols.to_vec(),
                (0..n).map(|_| {
                    (0..cols.len())
                        .map(|_| rng.gen_range(0..8) as u32)
                        .collect()
                }),
            )
        };
        let r = arb(&mut rng, &[c[0], c[1]]);
        let s = arb(&mut rng, &[c[1], c[2]]);
        let same = arb(&mut rng, &[c[0], c[1]]);

        assert_canonical(&r, "from_rows");
        assert_canonical(&r.project(&[c[0]]), "project prefix");
        assert_canonical(&r.project(&[c[1]]), "project non-prefix");
        assert_canonical(&r.rename(c[0], ColId::new(9)), "rename");
        assert_canonical(
            &r.with_cols(vec![ColId::new(8), ColId::new(9)]),
            "with_cols",
        );
        assert_canonical(&r.select_eq_at(0, 1), "select_eq_at");
        assert_canonical(&r.join(&s), "join");
        assert_canonical(&r.semijoin(&s), "semijoin");
        assert_canonical(&r.union(&same), "union");
        assert_canonical(&r.difference(&same), "difference");
    }
}

#[test]
fn executed_plans_are_canonical() {
    let db = fig2_yago_database();
    let store = RelStore::load(&db);
    let (v0, v1) = (store.symbols.col("v0"), store.symbols.col("v1"));
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0xca11);
        let expr = random_expr(&db, &mut rng, 3);
        let mut names = NameGen::new(&store.symbols);
        let term = path_to_term(&expr, v0, v1, &mut names);
        let mut ctx = ExecContext::new();
        let rel = execute(&term, &store, &mut ctx).expect("term executes");
        assert_canonical(&rel, "executed plan");
    }
}
