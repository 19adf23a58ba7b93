//! Theorem 1 as an executable property: for a random schema, a random
//! database conforming to it, and a random path expression, the
//! schema-enriched query `RS(ϕ)` returns exactly `JϕKD` — under every
//! redundancy rule, and with a zero `max_paths` budget (every closure
//! kept, the reachability fallback of `PlC`), on the graph engine and on
//! the relational executor (at DOP 1, and at DOP 2 with one-row morsels),
//! checked against `eval_path`, which shares no code with either.
//!
//! Randomness comes from the in-repo seeded [`Rng`]; every case prints
//! its seed on failure so it replays deterministically.
//!
//! Besides uniformly random expressions, a second generator aims at the
//! shapes the engines treat specially: unions under bounded repetition
//! and prefixes shared by several disjuncts (the graph engine's expand
//! trie, the relational plan's shared nodes), overloaded edge labels
//! (label atoms that really filter), and hand-built CQTs with a
//! `src == tgt` relation whose head variables are bound first and last
//! (early projection, head ordering). A matrix of hand-built chain CQTs
//! aims at the graph engine's expand kernel.

mod support;

use schema_graph_query::prelude::*;
use sgq_algebra::eval::{compose, eval_path};
use sgq_common::{EdgeLabelId, NodeId, NodeLabelId, Rng, VarId};
use sgq_engine::GraphEngine;
use sgq_query::cqt::{LabelAtom, Relation};
use sgq_translate::ucqt2rra::{ucqt_to_term, NameGen};
use support::{random_database, random_expr, random_schema, random_schema_over, shared_work_expr};

const CASES: u64 = 48;

/// Spreads consecutive case indexes across the u64 seed space.
fn spread(i: u64) -> u64 {
    Rng::seed_from_u64(i).gen_u64()
}

fn engine_pairs(db: &GraphDatabase, query: &Ucqt) -> Vec<(NodeId, NodeId)> {
    let rows = GraphEngine::new(db).run_ucqt(query).expect("engine runs");
    rows.iter().map(|r| (r[0], r[1])).collect()
}

/// The relational answer: translate → optimise → plan → `execute_plan`,
/// at DOP 1, and at DOP 2 and 7 with every probe split into one-row
/// morsels (all three must agree). Also says whether the plan shares a node.
fn relational_pairs(store: &RelStore, query: &Ucqt) -> (Vec<(NodeId, NodeId)>, bool) {
    let term = ucqt_to_term(query, &mut NameGen::new(&store.symbols)).expect("translates");
    let p = plan(&sgq_ra::optimize::optimize(&term, store), store).expect("plans");
    let head = [store.symbols.col("v0"), store.symbols.col("v1")];
    let [serial, two, seven] = [1, 2, 7].map(|dop| {
        let mut ctx = ExecContext::new();
        (ctx.dop, ctx.parallel_threshold, ctx.morsel_rows) = (dop, 1, 1);
        let rel = execute_plan(&p, store, &mut ctx).expect("executes");
        let rows = rel.project(&head);
        let pairs = rows.rows().map(|r| (NodeId::new(r[0]), NodeId::new(r[1])));
        pairs.collect::<Vec<_>>()
    });
    assert_eq!(serial, two, "DOP 2 diverged from DOP 1 on {query:?}");
    assert_eq!(serial, seven, "DOP 7 diverged from DOP 1 on {query:?}");
    (serial, support::shares_a_node(&p))
}

/// Evaluates the baseline query and the rewrite outcome on the graph
/// engine and on the relational executor, and compares every answer
/// against the reference semantics of the original expression. Returns
/// how many of the relational plans shared a node.
fn check_equivalence(
    schema: &GraphSchema,
    db: &GraphDatabase,
    expr: &PathExpr,
    opts: RewriteOptions,
) -> usize {
    let store = RelStore::load(db);
    let reference = eval_path(db, expr);
    let baseline = Ucqt::path_query(expr.clone());
    assert_eq!(
        &reference,
        &engine_pairs(db, &baseline),
        "baseline diverged for ϕ = {expr:?}"
    );
    let (pairs, mut shared) = relational_pairs(&store, &baseline);
    assert_eq!(
        &reference, &pairs,
        "relational baseline diverged for ϕ = {expr:?}"
    );
    let rewritten = sgq_core::pipeline::rewrite_path(schema, expr, opts);
    if let Some(q) = rewritten.outcome.query() {
        assert_eq!(
            &reference,
            &engine_pairs(db, q),
            "RS(ϕ) diverged (opts {opts:?}) for ϕ = {expr:?}"
        );
        let (pairs, s) = relational_pairs(&store, q);
        assert_eq!(
            &reference, &pairs,
            "relational RS(ϕ) diverged (opts {opts:?}) for ϕ = {expr:?}"
        );
        shared |= s;
    } else {
        assert!(reference.is_empty(), "RS(ϕ) claims ϕ = {expr:?} is empty");
    }
    shared as usize
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
    let mut shared = 0;
    for i in 0..CASES {
        let seed = spread(i ^ 0x5a4);
        let schema = random_schema_over(seed, &["r", "s"]);
        let db = random_database(&schema, seed);
        let expr = shared_work_expr(&schema, seed.rotate_left(23));
        shared += check_equivalence(&schema, &db, &expr, RewriteOptions::default());
    }
    // The shapes are the rewrite's shared work: some relational plan must
    // evaluate a shared node, or the property never reaches that path.
    assert!(shared > 0, "no case planned a shared node");
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

/// The one ablation the rewrite's configuration still has: a zero
/// `max_paths` budget, under which `PlC` eliminates no closure.
#[test]
fn theorem1_ablations() {
    for i in 0..CASES {
        let seed = spread(i ^ 0xab1);
        let schema = random_schema(seed);
        let db = random_database(&schema, seed);
        let expr = random_expr(&schema, seed.rotate_left(31), 3);
        let opts = RewriteOptions {
            max_paths: 0,
            ..Default::default()
        };
        check_equivalence(&schema, &db, &expr, opts);
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

/// One relation of a hand-built chain: its path, and whether it points
/// along the chain (`(x_i, ϕ, x_{i+1})`) or against it.
#[derive(Clone, Debug)]
struct Link {
    expr: PathExpr,
    along: bool,
}

/// The chain CQT over `x_0 … x_k`, `filters[i]` an atom on `x_i`, with
/// head `[x_0, x_k]` or, `swapped`, `[x_k, x_0]`. The end is variable 1
/// whatever `k`, so chains of different lengths are union-compatible.
fn chain_cqt(links: &[Link], filters: &[Option<Vec<NodeLabelId>>], swapped: bool) -> Cqt {
    let k = links.len();
    let x = |i: usize| {
        VarId::new(if i == k {
            1
        } else if i == 0 {
            0
        } else {
            i as u32 + 1
        })
    };
    let (a, b) = (x(0), x(links.len()));
    let relations = links.iter().enumerate().map(|(i, link)| match link.along {
        true => Relation::plain(x(i), link.expr.clone(), x(i + 1)),
        false => Relation::plain(x(i + 1), link.expr.clone(), x(i)),
    });
    let atoms = filters.iter().enumerate().filter_map(|(i, labels)| {
        let labels = labels.clone()?;
        Some(LabelAtom { var: x(i), labels })
    });
    Cqt {
        head: if swapped { vec![b, a] } else { vec![a, b] },
        atoms: atoms.collect(),
        relations: relations.collect(),
    }
}

/// The reference answer of [`chain_cqt`] (head `[x_0, x_k]`): every
/// relation through `eval_path`, composed along the chain with `compose`,
/// each variable filtered by its labels.
fn chain_reference(
    db: &GraphDatabase,
    links: &[Link],
    filters: &[Option<Vec<NodeLabelId>>],
) -> Vec<(NodeId, NodeId)> {
    let admits = |i: usize, n: NodeId| {
        filters[i]
            .as_ref()
            .is_none_or(|l| l.contains(&db.node_label(n)))
    };
    let mut pairs: Vec<_> = db
        .node_ids()
        .filter(|&n| admits(0, n))
        .map(|n| (n, n))
        .collect();
    for (i, link) in links.iter().enumerate() {
        pairs = compose(&pairs, &oriented(db, link));
        pairs.retain(|&(_, t)| admits(i + 1, t));
    }
    pairs
}

/// A link's pairs `(x_i, x_{i+1})` along the chain, by `eval_path`.
fn oriented(db: &GraphDatabase, link: &Link) -> Vec<(NodeId, NodeId)> {
    let mut step = eval_path(db, &link.expr);
    if !link.along {
        step = step.into_iter().map(|(s, t)| (t, s)).collect();
        step.sort_unstable();
    }
    step
}

/// Whether two paths of [`chain_cqt`] meet: some `(x_0, x_i)` pair is
/// reached through two different `x_{i-1}`, where a forward walk of the
/// expand kernel has a duplicate to drop.
fn paths_meet(db: &GraphDatabase, links: &[Link], filters: &[Option<Vec<NodeLabelId>>]) -> bool {
    let admits = |i: usize, n: NodeId| {
        filters[i]
            .as_ref()
            .is_none_or(|l| l.contains(&db.node_label(n)))
    };
    let mut pairs: Vec<_> = db
        .node_ids()
        .filter(|&n| admits(0, n))
        .map(|n| (n, n))
        .collect();
    for (i, link) in links.iter().enumerate() {
        let step = oriented(db, link);
        let mut next = Vec::new();
        for &(a, m) in &pairs {
            let reached = step.iter().filter(|&&(s, t)| s == m && admits(i + 1, t));
            next.extend(reached.map(|&(_, t)| (a, t)));
        }
        let paths = next.len();
        next.sort_unstable();
        next.dedup();
        if paths > next.len() {
            return true;
        }
        pairs = next;
    }
    false
}

/// Nodes labelled `N` and `M` in turn, each `r` and each `s` edge drawn
/// with probability 0.2: dense enough that many paths from one origin
/// meet.
fn dense_database(seed: u64) -> GraphDatabase {
    let rng = &mut Rng::seed_from_u64(seed);
    let mut b = GraphDatabase::standalone_builder();
    let nodes: Vec<_> = (0..rng.gen_range(8..20))
        .map(|i| b.node(["N", "M"][i % 2], &[]))
        .collect();
    for &x in &nodes {
        for &y in &nodes {
            for l in ["r", "s"] {
                if rng.gen_bool(0.2) {
                    b.edge(x, l, y);
                }
            }
        }
    }
    b.build().expect("dense database is well-formed")
}

/// A matrix of hand-built chain CQTs, each shape aimed at one path of
/// the graph engine's expand kernel, against [`chain_reference`], which
/// shares no code with the engine: a walk from `b` back to `a`, reversed
/// labels, closures seeded from either end, branch and conjunction hops,
/// a multi-hop relation read backward, the head `[b, a]`, paths that
/// collapse to one pair, a union whose disjuncts share a prefix and
/// then diverge, and a relation hanging off an end of the chain. Then
/// dense graphs, where the kernel drops many duplicates per origin.
#[test]
fn expand_kernel_chain_matrix() {
    let mut collapsed = 0;
    for i in 0..CASES * 3 {
        let seed = spread(i ^ 0xe4a);
        let schema = random_schema_over(seed, &["r", "s"]);
        let db = random_database(&schema, seed);
        let rng = &mut Rng::seed_from_u64(seed);
        let edges: Vec<EdgeLabelId> = schema.edge_labels().collect();
        let nodes: Vec<NodeLabelId> = schema.node_labels().collect();
        let mut label = || PathExpr::Label(edges[rng.gen_range(0..edges.len())]);
        let [l, m, n, o] = [(); 4].map(|_| label());
        let reverse = |e: &PathExpr| match e {
            PathExpr::Label(l) => PathExpr::Reverse(*l),
            _ => unreachable!("a label"),
        };
        let along = |expr: PathExpr, along: bool| Link { expr, along };
        let tail_along = rng.gen_bool(0.5);
        let mut filter = |p: f64| {
            let mut labels: Vec<NodeLabelId> = (0..rng.gen_range(1..3))
                .map(|_| nodes[rng.gen_range(0..nodes.len())])
                .collect();
            labels.sort_unstable();
            labels.dedup();
            rng.gen_bool(p).then_some(labels)
        };
        let extra = filter(0.5);
        let swapped = i % 9 == 5;
        let (links, filters): (Vec<Link>, Vec<_>) = match i % 9 {
            // A start filter on b only: the walk runs from b to a.
            0 => (
                vec![along(l, true), along(m, false), along(n, true)],
                vec![None, None, None, filter(1.0)],
            ),
            1 => (
                vec![
                    along(reverse(&l), true),
                    along(reverse(&m), false),
                    along(n, true),
                ],
                vec![filter(0.5), filter(0.5), None, filter(0.5)],
            ),
            // A closure in the middle, seeded from a or from b.
            2 | 3 => {
                let ends = [filter(1.0), None];
                let [first, last] = if i % 9 == 2 {
                    ends
                } else {
                    [ends[1].clone(), ends[0].clone()]
                };
                (
                    vec![
                        along(l, true),
                        along(PathExpr::plus(m), i % 2 == 0),
                        along(n, false),
                    ],
                    vec![first, filter(0.3), None, last],
                )
            }
            4 => (
                vec![
                    along(l, true),
                    along(PathExpr::branch_r(m, n.clone()), false),
                    along(PathExpr::conj(PathExpr::plus(n), o.clone()), true),
                ],
                vec![filter(0.5), filter(0.5), filter(0.5), filter(0.5)],
            ),
            // Head [b, a], with a two-hop relation read backward.
            5 => (
                vec![along(PathExpr::concat(l, m), false), along(n, true)],
                vec![filter(0.5), filter(0.5), filter(0.5)],
            ),
            6 => (vec![along(l, true), along(m, true)], vec![None, None, None]),
            7 => (
                vec![along(l, true), along(m, false)],
                vec![filter(0.5), filter(0.5), None],
            ),
            _ => (
                vec![along(l, tail_along), along(m, !tail_along)],
                vec![None, None, None],
            ),
        };
        let mut want = chain_reference(&db, &links, &filters);
        let mut query = Ucqt::single(chain_cqt(&links, &filters, swapped));
        if i % 9 == 6 {
            // Paths through different middles that end in the same pair.
            let middles = |(a, b): (NodeId, NodeId)| {
                let first = eval_path(&db, &links[0].expr);
                let second = eval_path(&db, &links[1].expr);
                let via = |&&(s, t): &&(NodeId, NodeId)| s == a && second.contains(&(t, b));
                first.iter().filter(via).count()
            };
            collapsed += usize::from(want.iter().any(|&p| middles(p) > 1));
        }
        if i % 9 == 7 {
            // A second disjunct: both links, then one more.
            let longer = [links.clone(), vec![along(o.clone(), tail_along)]].concat();
            let longer_filters = [filters.clone(), vec![extra]].concat();
            want =
                sgq_common::sorted::union(&want, &chain_reference(&db, &longer, &longer_filters));
            query
                .disjuncts
                .push(chain_cqt(&longer, &longer_filters, swapped));
        }
        if i % 9 == 8 {
            // A relation hanging off a or b at a variable used nowhere
            // else: a test that the end has an `o`-neighbour.
            let (end, out) = (VarId::new(i as u32 / 9 % 2), i / 18 % 2 == 0);
            let dangling = VarId::new(7);
            let o_pairs = eval_path(&db, &o);
            let has = |n: NodeId| {
                o_pairs
                    .iter()
                    .any(|&(s, t)| if out { s == n } else { t == n })
            };
            want.retain(|&(a, b)| has(if end == VarId::new(0) { a } else { b }));
            let (src, tgt) = if out {
                (end, dangling)
            } else {
                (dangling, end)
            };
            query.disjuncts[0]
                .relations
                .push(Relation::plain(src, o.clone(), tgt));
        }
        if swapped {
            want = want.into_iter().map(|(s, t)| (t, s)).collect();
            want.sort_unstable();
        }
        assert_eq!(engine_pairs(&db, &query), want, "case {i}: {query:?}");
    }
    assert!(collapsed > 0, "no case had two paths collapse to one pair");

    // Dense graphs: one-label chains of two to four hops, each link either
    // way round, `r+` as the second link in every fourth case; a landing
    // filter on every variable, on `a` alone or on `b` alone (the cheaper
    // start, so walks go both ways), or none, where the chain is also one
    // path expression checked against `eval_path` whole; and in every
    // other case a second disjunct that goes on where the first ends, a
    // trie node that is a leaf and has a child.
    let (mut met, mut whole) = (0, 0);
    for i in 0..CASES {
        let seed = spread(i ^ 0xd3e);
        let db = dense_database(seed);
        let rng = &mut Rng::seed_from_u64(seed);
        let labels = ["N", "M"].map(|l| vec![db.node_label_id(l).unwrap()]);
        let mut link = |closure: bool| {
            let l = db.edge_label_id(["r", "s"][rng.gen_range(0..2)]).unwrap();
            let (expr, inverse) = (PathExpr::Label(l), PathExpr::Reverse(l));
            let (expr, inverse) = match closure {
                true => (PathExpr::plus(expr), PathExpr::plus(inverse)),
                false => (expr, inverse),
            };
            let along = rng.gen_bool(0.5);
            let forward = if along { expr.clone() } else { inverse };
            (Link { expr, along }, forward)
        };
        let hops = 2 + (i as usize / 4) % 3;
        let (links, path): (Vec<Link>, Vec<PathExpr>) =
            (0..hops).map(|h| link(h == 1 && i % 4 == 3)).unzip();
        let (next, _) = link(false);
        let mut filter = |p: f64| rng.gen_bool(p).then(|| labels[rng.gen_range(0..2)].clone());
        let mut filters: Vec<_> = (0..=hops).map(|_| None).collect();
        match i % 4 {
            0 => filters.iter_mut().for_each(|f| *f = filter(0.7)),
            1 => filters[0] = filter(1.0),
            2 => filters[hops] = filter(1.0),
            _ => {}
        }
        let mut want = chain_reference(&db, &links, &filters);
        if filters.iter().all(Option::is_none) {
            let expr = PathExpr::concat_all(path).expect("two hops or more");
            assert_eq!(want, eval_path(&db, &expr), "dense case {i}: {expr:?}");
            whole += 1;
        }
        met += usize::from(paths_meet(&db, &links, &filters));
        let mut query = Ucqt::single(chain_cqt(&links, &filters, false));
        if i % 2 == 1 {
            let longer = [links.clone(), vec![next]].concat();
            let longer_filters = [filters.clone(), vec![filter(0.5)]].concat();
            met += usize::from(paths_meet(&db, &longer, &longer_filters));
            want =
                sgq_common::sorted::union(&want, &chain_reference(&db, &longer, &longer_filters));
            query
                .disjuncts
                .push(chain_cqt(&longer, &longer_filters, false));
        }
        assert_eq!(engine_pairs(&db, &query), want, "dense case {i}: {query:?}");
    }
    assert!(
        met > CASES as usize / 2,
        "paths met in only {met} dense cases"
    );
    assert!(whole > 0, "no dense case was checked whole");
}
