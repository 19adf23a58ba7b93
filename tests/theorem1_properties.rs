//! Theorem 1 as an executable property: for a random schema, a random
//! database conforming to it, and a random path expression, the
//! schema-enriched query `RS(ϕ)` returns exactly `JϕKD` — under every
//! redundancy rule and every ablation switch.
//!
//! Randomness comes from the in-repo seeded [`Rng`]; every case prints
//! its seed on failure so it replays deterministically.
//!
//! Besides uniformly random expressions, a second generator aims at the
//! shapes the graph engine treats specially: unions under bounded
//! repetition and prefixes shared by several disjuncts (the per-query
//! memo), overloaded edge labels (label atoms that really filter), and
//! hand-built CQTs with a `src == tgt` relation whose head variables are
//! bound first and last (early projection, head ordering).

use schema_graph_query::prelude::*;
use sgq_algebra::eval::{compose, eval_path};
use sgq_common::{NodeId, Rng, VarId};
use sgq_engine::GraphEngine;
use sgq_query::cqt::Relation;

const CASES: u64 = 48;

/// Spreads consecutive case indexes across the u64 seed space.
fn spread(i: u64) -> u64 {
    Rng::seed_from_u64(i).gen_u64()
}

/// Builds a random schema from a seed: up to 5 node labels, up to 8 schema
/// edges over up to 4 edge labels (parallel triples allowed — that is what
/// exercises the inference).
fn random_schema(seed: u64) -> GraphSchema {
    random_schema_over(seed, &["r", "s", "t", "u"])
}

/// The same over the given edge labels: the fewer there are, the more
/// node-label pairs each one connects (an *overloaded* label).
fn random_schema_over(seed: u64, edge_labels: &[&str]) -> GraphSchema {
    let mut rng = Rng::seed_from_u64(seed);
    let node_labels = ["A", "B", "C", "D", "E"];
    let n_nodes = rng.gen_range(2..6);
    let n_edges = rng.gen_range(2..9);
    let mut b = GraphSchema::builder();
    for l in node_labels.iter().take(n_nodes) {
        b.node(l, &[]);
    }
    for _ in 0..n_edges {
        let src = node_labels[rng.gen_range(0..n_nodes)];
        let tgt = node_labels[rng.gen_range(0..n_nodes)];
        let le = edge_labels[rng.gen_range(0..edge_labels.len())];
        b.edge(src, le, tgt);
    }
    b.build().expect("random schema is well-formed")
}

/// Builds a random database conforming to `schema`.
fn random_database(schema: &GraphSchema, seed: u64) -> GraphDatabase {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut b = GraphDatabase::builder(schema);
    let n_nodes = rng.gen_range(6..30);
    let labels: Vec<String> = schema
        .node_labels()
        .map(|l| schema.node_label_name(l).to_string())
        .collect();
    let nodes: Vec<(NodeId, String)> = (0..n_nodes)
        .map(|_| {
            let label = labels[rng.gen_range(0..labels.len())].clone();
            (b.node(&label, &[]), label)
        })
        .collect();
    // For each schema triple, add random conforming edges.
    let triples: Vec<(String, String, String)> = schema
        .triples()
        .iter()
        .map(|t| {
            (
                schema.node_label_name(t.src).to_string(),
                schema.edge_label_name(t.label).to_string(),
                schema.node_label_name(t.tgt).to_string(),
            )
        })
        .collect();
    let n_edges = rng.gen_range(5..60);
    for _ in 0..n_edges {
        let (src_l, le, tgt_l) = &triples[rng.gen_range(0..triples.len())];
        let srcs: Vec<NodeId> = nodes
            .iter()
            .filter(|(_, l)| l == src_l)
            .map(|&(n, _)| n)
            .collect();
        let tgts: Vec<NodeId> = nodes
            .iter()
            .filter(|(_, l)| l == tgt_l)
            .map(|&(n, _)| n)
            .collect();
        if srcs.is_empty() || tgts.is_empty() {
            continue;
        }
        let s = srcs[rng.gen_range(0..srcs.len())];
        let t = tgts[rng.gen_range(0..tgts.len())];
        b.edge(s, le, t);
    }
    b.build().expect("random database is well-formed")
}

/// A seeded recursive random path expression over the schema's labels.
fn random_expr(schema: &GraphSchema, seed: u64, depth: usize) -> PathExpr {
    let labels: Vec<sgq_common::EdgeLabelId> = schema.edge_labels().collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0xdead_beef);
    build_expr(&mut rng, &labels, depth)
}

fn build_expr(rng: &mut Rng, labels: &[sgq_common::EdgeLabelId], depth: usize) -> PathExpr {
    let leaf = depth == 0 || rng.gen_bool(0.3);
    if leaf {
        let le = labels[rng.gen_range(0..labels.len())];
        if rng.gen_bool(0.25) {
            PathExpr::Reverse(le)
        } else {
            PathExpr::Label(le)
        }
    } else {
        match rng.gen_range(0..7) {
            0 | 1 => PathExpr::concat(
                build_expr(rng, labels, depth - 1),
                build_expr(rng, labels, depth - 1),
            ),
            2 => PathExpr::union(
                build_expr(rng, labels, depth - 1),
                build_expr(rng, labels, depth - 1),
            ),
            3 => PathExpr::conj(
                build_expr(rng, labels, depth - 1),
                build_expr(rng, labels, depth - 1),
            ),
            4 => PathExpr::branch_r(
                build_expr(rng, labels, depth - 1),
                build_expr(rng, labels, depth - 1),
            ),
            5 => PathExpr::branch_l(
                build_expr(rng, labels, depth - 1),
                build_expr(rng, labels, depth - 1),
            ),
            _ => PathExpr::plus(build_expr(rng, labels, depth - 1)),
        }
    }
}

/// A seeded expression of one of the shapes the rewrite distributes into
/// several disjuncts over a common part.
fn shared_work_expr(schema: &GraphSchema, seed: u64) -> PathExpr {
    let labels: Vec<sgq_common::EdgeLabelId> = schema.edge_labels().collect();
    let rng = &mut Rng::seed_from_u64(seed ^ 0x5a4e_d001);
    let mut part = |depth| build_expr(rng, &labels, depth);
    match seed % 4 {
        // (a ∪ b){1,2}: union under bounded repetition.
        0 => PathExpr::repeat(PathExpr::union(part(0), part(1)), 1, 2),
        // a{1,3}/(b ∪ c/d): the shape of LDBC IC1.
        1 => PathExpr::concat(
            PathExpr::repeat(part(0), 1, 3),
            PathExpr::union(part(0), PathExpr::concat(part(0), part(0))),
        ),
        // p/(a ∪ b ∪ c) with a composite prefix p.
        2 => PathExpr::concat(
            PathExpr::concat(part(1), part(0)),
            PathExpr::union(PathExpr::union(part(0), part(0)), part(1)),
        ),
        // a+/(b ∪ c)/d: a closure prefix shared by both branches.
        _ => PathExpr::concat(
            PathExpr::concat(PathExpr::plus(part(0)), PathExpr::union(part(0), part(0))),
            part(0),
        ),
    }
}

fn engine_pairs(db: &GraphDatabase, query: &Ucqt) -> Vec<(NodeId, NodeId)> {
    let rows = GraphEngine::new(db).run_ucqt(query).expect("engine runs");
    rows.iter().map(|r| (r[0], r[1])).collect()
}

/// Evaluates a rewrite outcome and the baseline query on the graph engine
/// and compares both against the reference semantics of the original
/// expression.
fn check_equivalence(
    schema: &GraphSchema,
    db: &GraphDatabase,
    expr: &PathExpr,
    opts: RewriteOptions,
) {
    let reference = eval_path(db, expr);
    let baseline = engine_pairs(db, &Ucqt::path_query(expr.clone()));
    assert_eq!(&reference, &baseline, "baseline diverged for ϕ = {expr:?}");
    let rewritten = sgq_core::pipeline::rewrite_path(schema, expr, opts);
    let pairs: Vec<(NodeId, NodeId)> = match &rewritten.outcome {
        RewriteOutcome::Empty => Vec::new(),
        RewriteOutcome::Enriched(q) | RewriteOutcome::Reverted(q) => engine_pairs(db, q),
    };
    assert_eq!(
        &reference, &pairs,
        "RS(ϕ) diverged (opts {opts:?}) for ϕ = {expr:?}"
    );
}

#[test]
fn theorem1_default_options() {
    for i in 0..CASES {
        let seed = spread(i);
        let expr_seed = spread(i ^ 0xe59);
        let schema = random_schema(seed);
        let db = random_database(&schema, seed);
        let expr = random_expr(&schema, expr_seed, 3);
        check_equivalence(&schema, &db, &expr, RewriteOptions::default());
    }
}

#[test]
fn theorem1_shared_work_over_overloaded_labels() {
    for i in 0..CASES {
        let seed = spread(i ^ 0x5a4);
        let schema = random_schema_over(seed, &["r", "s"]);
        let db = random_database(&schema, seed);
        let expr = shared_work_expr(&schema, seed.rotate_left(23));
        check_equivalence(&schema, &db, &expr, RewriteOptions::default());
    }
}

/// `{(x0, x1) | (x0, a, x2) ∧ (x2, b, x2) ∧ (x2, c, x1)}` against the
/// reference composition `a / (b restricted to its loops) / c`, with the
/// head in both orders: whichever relation the executor joins last binds
/// a head variable, and `x2` must survive until both neighbours joined.
#[test]
fn handmade_cqt_with_loop_variable() {
    let (x0, x1, x2) = (VarId::new(0), VarId::new(1), VarId::new(2));
    for i in 0..CASES {
        let seed = spread(i ^ 0x100b);
        let schema = random_schema_over(seed, &["r", "s"]);
        let db = random_database(&schema, seed);
        let [a, b, c] = [1, 2, 3].map(|k| random_expr(&schema, seed.rotate_left(k), 1));
        // Random expressions rarely loop on a small graph; `l/-l` loops on
        // every source of `l`.
        let b = match a.edge_labels().first() {
            Some(&l) if i % 2 == 0 => PathExpr::concat(PathExpr::Label(l), PathExpr::Reverse(l)),
            _ => b,
        };
        let loops: Vec<_> = eval_path(&db, &b)
            .into_iter()
            .filter(|(s, t)| s == t)
            .collect();
        let forward = compose(&compose(&eval_path(&db, &a), &loops), &eval_path(&db, &c));
        let mut backward: Vec<_> = forward.iter().map(|&(s, t)| (t, s)).collect();
        backward.sort_unstable();
        for (head, want) in [(vec![x0, x1], &forward), (vec![x1, x0], &backward)] {
            let query = Ucqt::single(Cqt {
                head,
                atoms: vec![],
                relations: vec![
                    Relation::plain(x0, a.clone(), x2),
                    Relation::plain(x2, b.clone(), x2),
                    Relation::plain(x2, c.clone(), x1),
                ],
            });
            assert_eq!(
                &engine_pairs(&db, &query),
                want,
                "case {i}: {a:?} / loops of {b:?} / {c:?}"
            );
        }
    }
}

#[test]
fn theorem1_all_redundancy_rules() {
    for i in 0..CASES {
        let seed = spread(i ^ 0x0dd);
        let schema = random_schema(seed);
        let db = random_database(&schema, seed);
        let expr = random_expr(&schema, seed.rotate_left(17), 3);
        for rule in [
            RedundancyRule::BothSides,
            RedundancyRule::EitherSide,
            RedundancyRule::Never,
        ] {
            let opts = RewriteOptions {
                redundancy: rule,
                ..Default::default()
            };
            check_equivalence(&schema, &db, &expr, opts);
        }
    }
}

#[test]
fn theorem1_ablations() {
    for i in 0..CASES {
        let seed = spread(i ^ 0xab1);
        let schema = random_schema(seed);
        let db = random_database(&schema, seed);
        let expr = random_expr(&schema, seed.rotate_left(31), 3);
        for (tc, ann, simp) in [
            (false, true, true),
            (true, false, true),
            (true, true, false),
            (false, false, false),
        ] {
            let opts = RewriteOptions {
                tc_elimination: tc,
                annotations: ann,
                simplify: simp,
                ..Default::default()
            };
            check_equivalence(&schema, &db, &expr, opts);
        }
    }
}

#[test]
fn simplification_preserves_semantics() {
    for i in 0..CASES {
        let seed = spread(i ^ 0x51b);
        let schema = random_schema(seed);
        let db = random_database(&schema, seed);
        let expr = random_expr(&schema, seed.rotate_left(43), 4);
        let simplified = sgq_core::simplify(&expr);
        assert_eq!(
            eval_path(&db, &expr),
            eval_path(&db, &simplified),
            "R1-R5 changed the semantics of {expr:?}"
        );
    }
}

#[test]
fn generated_databases_conform() {
    for i in 0..CASES {
        let seed = spread(i ^ 0xc0f);
        let schema = random_schema(seed);
        let db = random_database(&schema, seed);
        let report = sgq_graph::check_consistency(&schema, &db);
        assert!(report.is_consistent(), "{:?}", report.violations);
    }
}
