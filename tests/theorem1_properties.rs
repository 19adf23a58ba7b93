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
//! aims at the graph engine's expand kernel, and a matrix of random CQTs
//! (cycles, loops, dangling relations, two components, unary and ternary
//! heads) is checked against a brute-force assignment oracle.

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

/// Every assignment of `cqt`'s variables to `db`'s nodes, assigned one
/// variable at a time: a relation is checked by membership in its
/// `eval_path` pairs once both its ends are assigned, an atom once its
/// variable is. Returns the head tuples, sorted and distinct. Shares no
/// code with either engine.
fn brute_force(db: &GraphDatabase, cqt: &Cqt) -> Vec<Vec<NodeId>> {
    type Checks = Vec<Vec<(usize, usize, Vec<(NodeId, NodeId)>)>>;
    #[allow(clippy::too_many_arguments)]
    fn assign(
        k: usize,
        nodes: &[NodeId],
        admits: &dyn Fn(usize, NodeId) -> bool,
        checks: &Checks,
        head: &[usize],
        at: &mut Vec<NodeId>,
        rows: &mut Vec<Vec<NodeId>>,
    ) {
        if k == checks.len() {
            rows.push(head.iter().map(|&h| at[h]).collect());
            return;
        }
        for &n in nodes {
            at.push(n);
            let holds = |(s, t, pairs): &(usize, usize, Vec<_>)| pairs.contains(&(at[*s], at[*t]));
            if admits(k, n) && checks[k].iter().all(holds) {
                assign(k + 1, nodes, admits, checks, head, at, rows);
            }
            at.pop();
        }
    }
    let mut vars = Vec::new();
    for v in cqt.relations.iter().flat_map(|r| [r.src, r.tgt]) {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    let index = |v: VarId| vars.iter().position(|&w| w == v).expect("a variable");
    let mut checks: Checks = vec![Vec::new(); vars.len()];
    for r in &cqt.relations {
        let (s, t) = (index(r.src), index(r.tgt));
        checks[s.max(t)].push((s, t, eval_path(db, &r.path.strip())));
    }
    let admits = |k: usize, n: NodeId| {
        let mut atoms = cqt.atoms.iter().filter(|a| a.var == vars[k]);
        atoms.all(|a| a.labels.contains(&db.node_label(n)))
    };
    let head: Vec<usize> = cqt.head.iter().map(|&h| index(h)).collect();
    let nodes: Vec<NodeId> = db.node_ids().collect();
    let mut rows = Vec::new();
    assign(
        0,
        &nodes,
        &admits,
        &checks,
        &head,
        &mut Vec::new(),
        &mut rows,
    );
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Four to ten nodes labelled `N` or `M`, each `r` and each `s` edge
/// drawn with probability 0.25; the first two nodes carry both labels
/// and are joined by both edge labels, so that every label exists.
fn small_database(seed: u64) -> GraphDatabase {
    let rng = &mut Rng::seed_from_u64(seed);
    let mut b = GraphDatabase::standalone_builder();
    let nodes: Vec<_> = (0..rng.gen_range(4..11))
        .map(|i| b.node(["N", "M"][if i < 2 { i } else { rng.gen_range(0..2) }], &[]))
        .collect();
    b.edge(nodes[0], "r", nodes[1]);
    b.edge(nodes[1], "s", nodes[0]);
    for &x in &nodes {
        for &y in &nodes {
            for l in ["r", "s"] {
                if rng.gen_bool(0.25) {
                    b.edge(x, l, y);
                }
            }
        }
    }
    b.build().expect("small database is well-formed")
}

/// Random CQTs against [`brute_force`], over graphs small enough to
/// enumerate: a chain `x0 … xk` of two or three relations, each a label,
/// a reversed label, a two-label concatenation or a closure, either way
/// round; head arity 1–3 in any order; label atoms anywhere; and, by
/// case, a relation that closes a cycle on a head variable or on a middle
/// one, a `src == tgt` relation on the first, a middle or the last
/// variable, a dangling relation with or without an atom on its loose
/// end, a second component, or a second disjunct that shares the chain's
/// prefix. Pins the answers, whatever executes them.
#[test]
fn cqt_oracle_matrix() {
    let x = |j: usize| VarId::new(j as u32);
    let (dangling, y0, y1, via) = (x(7), x(8), x(9), x(5));
    let mut answered = [0usize; 9];
    for i in 0..CASES * 6 {
        let seed = spread(i ^ 0xc0de);
        let db = small_database(seed);
        let rng = &mut Rng::seed_from_u64(seed);
        let labels = ["N", "M"].map(|l| db.node_label_id(l).expect("a label"));
        let [r, s] = ["r", "s"].map(|l| db.edge_label_id(l).expect("a label"));
        let path = |rng: &mut Rng| {
            let l = [r, s][rng.gen_range(0..2)];
            match rng.gen_range(0..5) {
                0 | 1 => PathExpr::Label(l),
                2 => PathExpr::Reverse(l),
                3 => PathExpr::concat(
                    PathExpr::Label(l),
                    PathExpr::Label([s, r][rng.gen_range(0..2)]),
                ),
                _ => PathExpr::plus(PathExpr::Label(l)),
            }
        };
        // A relation between `a` and `b`, either way round.
        let rel = |rng: &mut Rng, a: VarId, b: VarId| match rng.gen_bool(0.5) {
            false => Relation::plain(a, path(rng), b),
            true => Relation::plain(b, path(rng), a),
        };
        let shape = (i % 9) as usize;
        let k = if shape == 2 {
            3
        } else {
            2 + rng.gen_range(0..2)
        };
        let mut relations: Vec<Relation> = (0..k).map(|j| rel(rng, x(j), x(j + 1))).collect();
        let mut head = match i / 9 % 3 {
            0 => vec![x(if rng.gen_bool(0.5) { 0 } else { k })],
            1 => vec![x(0), x(k)],
            _ => vec![x(0), x(1), x(k)],
        };
        if rng.gen_bool(0.5) {
            head.reverse();
        }
        let turn = rng.gen_range(0..head.len());
        head.rotate_left(turn);
        let mut second = None;
        match shape {
            // A cycle `&` closing on the chain's last variable.
            1 => relations.push(rel(rng, x(0), x(k))),
            // A second path between two middle variables.
            2 => relations.push(rel(rng, x(1), x(2))),
            // `src == tgt` on the first, a middle or the last variable,
            // listed first (walked first when it is on the start) or last;
            // `l/-l` loops on every source of `l`.
            3..=5 => {
                let v = x([0, 1, k][shape - 3]);
                let l = [r, s][rng.gen_range(0..2)];
                let looping = PathExpr::concat(PathExpr::Label(l), PathExpr::Reverse(l));
                let e = if rng.gen_bool(0.5) {
                    looping
                } else {
                    path(rng)
                };
                let at = [0, relations.len()][rng.gen_range(0..2)];
                relations.insert(at, Relation::plain(v, e, v));
            }
            6 => {
                let end = x(rng.gen_range(0..k + 1));
                relations.push(rel(rng, end, dangling));
            }
            7 => {
                relations.push(rel(rng, y0, y1));
                if head.len() > 1 && rng.gen_bool(0.5) {
                    *head.last_mut().expect("a head") = y0;
                }
            }
            8 => {
                // The same prefix, then two hops to the end instead of one.
                let mut tail = relations[..k - 1].to_vec();
                tail.push(rel(rng, x(k - 1), via));
                tail.push(rel(rng, via, x(k)));
                second = Some(tail);
            }
            _ => {}
        }
        let mut atoms = Vec::new();
        for v in [x(0), x(1), x(2), x(3), dangling, y0, y1, via] {
            if rng.gen_bool(if v == dangling { 0.5 } else { 0.2 }) {
                let pick = rng.gen_range(0..3);
                let labels = match pick {
                    2 => labels.to_vec(),
                    _ => vec![labels[pick]],
                };
                atoms.push(LabelAtom { var: v, labels });
            }
        }
        let cqt = |relations: Vec<Relation>| {
            let vars: Vec<VarId> = relations.iter().flat_map(|r| [r.src, r.tgt]).collect();
            let atoms = atoms.iter().filter(|a| vars.contains(&a.var));
            Cqt {
                head: head.clone(),
                atoms: atoms.cloned().collect(),
                relations,
            }
        };
        let mut query = Ucqt::single(cqt(relations));
        query.disjuncts.extend(second.map(cqt));
        let mut want: Vec<Vec<NodeId>> = query
            .disjuncts
            .iter()
            .flat_map(|c| brute_force(&db, c))
            .collect();
        want.sort_unstable();
        want.dedup();
        let got = GraphEngine::new(&db).run_ucqt(&query).expect("engine runs");
        let got: Vec<Vec<NodeId>> = got.iter().map(<[NodeId]>::to_vec).collect();
        assert_eq!(got, want, "case {i} (seed {seed:#x}): {query:?}");
        answered[shape] += usize::from(!want.is_empty());
    }
    assert!(
        answered.iter().all(|&n| n > 2),
        "too few non-empty answers per shape: {answered:?}"
    );
}
