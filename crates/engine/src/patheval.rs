//! Seeded pair-set evaluation of path expressions.
//!
//! The evaluator improves on the reference semantics (`sgq_algebra::eval`)
//! in two ways that matter for the paper's experiments:
//!
//! * **Seed pushdown** — when the conjunctive executor already knows the
//!   candidate source (or target) nodes of a relation, evaluation is
//!   restricted to them: base labels expand seeds through CSR adjacency,
//!   and transitive closures run a frontier BFS from the seeds instead of
//!   materialising the full closure. This is the graph-side analogue of
//!   µ-RA's "push joins into fixpoints".
//! * **Counters** — every materialised pair is counted, so tests and
//!   benches can demonstrate the intermediate-result reduction that the
//!   schema-based rewrite buys (the paper's Fig. 17 narrative).

use std::cell::Cell;

use sgq_algebra::ast::PathExpr;
use sgq_algebra::eval::PairSet;
use sgq_common::{sorted, FxHashMap, FxHashSet, Limits, NodeId, Result};

use crate::backend::GraphEngine;

/// Optional restriction on the endpoints of an evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Seeds<'a> {
    /// Sorted candidate source nodes (`None` = unrestricted).
    pub sources: Option<&'a [NodeId]>,
    /// Sorted candidate target nodes (`None` = unrestricted).
    pub targets: Option<&'a [NodeId]>,
}

impl<'a> Seeds<'a> {
    /// No restriction.
    pub fn none() -> Self {
        Seeds::default()
    }

    /// Restrict sources only.
    pub fn from_sources(sources: &'a [NodeId]) -> Self {
        Seeds {
            sources: Some(sources),
            targets: None,
        }
    }
}

/// The work counters of a [`GraphEngine`]. The deadline and the budgets
/// are not here: every evaluation polls and records through the engine's
/// [`Limits`].
#[derive(Debug, Default)]
pub struct EvalCounters {
    /// Pairs materialised across all operators.
    pub pairs: Cell<usize>,
    /// Semi-naive closure iterations run.
    pub tc_rounds: Cell<usize>,
}

impl EvalCounters {
    /// Counts `n` materialised pairs and records them against `limits`
    /// (row budget, memory budget).
    pub(crate) fn add_pairs(&self, n: usize, limits: &Limits) -> Result<()> {
        self.pairs.set(self.pairs.get() + n);
        limits.record(n, 2)
    }

    fn add_round(&self) {
        self.tc_rounds.set(self.tc_rounds.get() + 1);
    }
}

/// Evaluates `expr` over the engine's database, restricted to `seeds`.
///
/// The result is canonical (sorted, deduplicated) and exact: restricting by
/// `seeds` never adds pairs, it only avoids computing pairs whose endpoints
/// fall outside the restriction.
pub fn eval_seeded(eng: &GraphEngine<'_>, expr: &PathExpr, seeds: Seeds<'_>) -> Result<PairSet> {
    let (counters, limits) = (&eng.counters, &eng.limits);
    limits.poll()?;
    limits.fault("engine.eval")?;
    let out = eval_node(eng, expr, seeds)?;
    counters.add_pairs(out.len(), limits)?;
    Ok(out)
}

/// One step of [`eval_seeded`]: the operator at the root of `expr`.
fn eval_node(eng: &GraphEngine<'_>, expr: &PathExpr, seeds: Seeds<'_>) -> Result<PairSet> {
    let db = eng.db;
    Ok(match expr {
        PathExpr::Label(le) => match (seeds.sources, seeds.targets) {
            (Some(srcs), _) => {
                let mut v: Vec<(NodeId, NodeId)> = Vec::new();
                for &s in srcs {
                    for &t in db.out_neighbors(s, *le) {
                        if within(seeds.targets, t) {
                            v.push((s, t));
                        }
                    }
                }
                v
            }
            (None, Some(tgts)) => {
                let mut v: Vec<(NodeId, NodeId)> = Vec::new();
                for &t in tgts {
                    for &s in db.in_neighbors(t, *le) {
                        v.push((s, t));
                    }
                }
                sorted::normalize(&mut v);
                v
            }
            (None, None) => db.edges(*le).to_vec(),
        },
        PathExpr::Reverse(le) => {
            // J-leK = reversed pairs; sources of -le are targets of le.
            let inner = eval_seeded(
                eng,
                &PathExpr::Label(*le),
                Seeds {
                    sources: seeds.targets,
                    targets: seeds.sources,
                },
            )?;
            let mut v: Vec<(NodeId, NodeId)> = inner.iter().map(|&(s, t)| (t, s)).collect();
            sorted::normalize(&mut v);
            v
        }
        PathExpr::Concat(a, b) => {
            let left = eval_seeded(
                eng,
                a,
                Seeds {
                    sources: seeds.sources,
                    targets: None,
                },
            )?;
            let mids = sgq_algebra::eval::target_set(&left);
            let right = eval_seeded(
                eng,
                b,
                Seeds {
                    sources: Some(&mids),
                    targets: seeds.targets,
                },
            )?;
            compose(&left, &right, &eng.limits)?
        }
        PathExpr::Union(a, b) => {
            sorted::union(&eval_seeded(eng, a, seeds)?, &eval_seeded(eng, b, seeds)?)
        }
        PathExpr::Conj(a, b) => {
            let left = eval_seeded(eng, a, seeds)?;
            // evaluate the right side restricted to the left's endpoints
            let srcs = sgq_algebra::eval::source_set(&left);
            let tgts = sgq_algebra::eval::target_set(&left);
            let right = eval_seeded(
                eng,
                b,
                Seeds {
                    sources: Some(&srcs),
                    targets: Some(&tgts),
                },
            )?;
            sorted::intersect(&left, &right)
        }
        PathExpr::BranchR(a, b) => {
            let left = eval_seeded(eng, a, seeds)?;
            let tgts = sgq_algebra::eval::target_set(&left);
            let right = eval_seeded(eng, b, Seeds::from_sources(&tgts))?;
            let witnesses = sgq_algebra::eval::source_set(&right);
            left.into_iter()
                .filter(|&(_, m)| sorted::contains(&witnesses, &m))
                .collect()
        }
        PathExpr::BranchL(a, b) => {
            let right = eval_seeded(eng, b, seeds)?;
            let srcs = sgq_algebra::eval::source_set(&right);
            let left = eval_seeded(eng, a, Seeds::from_sources(&srcs))?;
            let witnesses = sgq_algebra::eval::source_set(&left);
            right
                .into_iter()
                .filter(|&(n, _)| sorted::contains(&witnesses, &n))
                .collect()
        }
        PathExpr::Plus(a) => transitive_closure_seeded(eng, a, seeds)?,
    })
}

#[inline]
fn within(filter: Option<&[NodeId]>, n: NodeId) -> bool {
    filter.is_none_or(|f| sorted::contains(f, &n))
}

/// Hash-join composition of two canonical pair sets.
fn compose(a: &PairSet, b: &PairSet, limits: &Limits) -> Result<PairSet> {
    if a.is_empty() || b.is_empty() {
        return Ok(Vec::new());
    }
    let mut by_src: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    for &(s, t) in b {
        by_src.entry(s).or_default().push(t);
    }
    let mut out = Vec::new();
    for (i, &(n, z)) in a.iter().enumerate() {
        if i % 65536 == 0 {
            limits.poll()?;
        }
        if let Some(ms) = by_src.get(&z) {
            for &m in ms {
                out.push((n, m));
            }
        }
    }
    sorted::normalize(&mut out);
    Ok(out)
}

/// Transitive closure with seed pushdown.
///
/// * With source seeds: frontier BFS — only reachability *from the seeds*
///   is computed.
/// * With target seeds only: the same, on the reversed step relation.
/// * Unrestricted: classic semi-naive iteration.
fn transitive_closure_seeded(
    eng: &GraphEngine<'_>,
    inner: &PathExpr,
    seeds: Seeds<'_>,
) -> Result<PairSet> {
    let (counters, limits) = (&eng.counters, &eng.limits);
    match (seeds.sources, seeds.targets) {
        (Some(srcs), _) => {
            let out = bfs_closure(eng, inner, srcs, Direction::Forward)?;
            Ok(match seeds.targets {
                None => out,
                Some(tgts) => out
                    .into_iter()
                    .filter(|&(_, t)| sorted::contains(tgts, &t))
                    .collect(),
            })
        }
        (None, Some(tgts)) => {
            let rev = bfs_closure(eng, inner, tgts, Direction::Backward)?;
            let mut out: Vec<(NodeId, NodeId)> = rev.iter().map(|&(t, s)| (s, t)).collect();
            sorted::normalize(&mut out);
            Ok(out)
        }
        (None, None) => {
            let base = eval_seeded(eng, inner, Seeds::none())?;
            let mut acc = base.clone();
            let mut delta = base.clone();
            while !delta.is_empty() {
                counters.add_round();
                limits.poll()?;
                let step = compose(&delta, &base, limits)?;
                counters.add_pairs(step.len(), limits)?;
                let fresh = sorted::difference(&step, &acc);
                acc = sorted::union(&acc, &fresh);
                delta = fresh;
            }
            Ok(acc)
        }
    }
}

enum Direction {
    Forward,
    Backward,
}

/// Frontier BFS from `starts`: pairs `(start, reached)` for every node
/// reachable through one or more `inner`-steps.
///
/// For single-label steps the CSR is walked directly; otherwise the step
/// relation is materialised once and indexed.
fn bfs_closure(
    eng: &GraphEngine<'_>,
    inner: &PathExpr,
    starts: &[NodeId],
    dir: Direction,
) -> Result<PairSet> {
    let (db, counters, limits) = (eng.db, &eng.counters, &eng.limits);
    // Fast path: inner is a single (possibly reversed) label.
    let step_index: Option<FxHashMap<NodeId, Vec<NodeId>>> = match inner {
        PathExpr::Label(_) | PathExpr::Reverse(_) => None,
        _ => {
            let base = eval_seeded(eng, inner, Seeds::none())?;
            let mut map: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
            for &(s, t) in &base {
                match dir {
                    Direction::Forward => map.entry(s).or_default().push(t),
                    Direction::Backward => map.entry(t).or_default().push(s),
                }
            }
            Some(map)
        }
    };
    let step = |n: NodeId, out: &mut Vec<NodeId>| match (&step_index, inner) {
        (Some(map), _) => {
            if let Some(ts) = map.get(&n) {
                out.extend_from_slice(ts);
            }
        }
        (None, PathExpr::Label(le)) => match dir {
            Direction::Forward => out.extend_from_slice(db.out_neighbors(n, *le)),
            Direction::Backward => out.extend_from_slice(db.in_neighbors(n, *le)),
        },
        (None, PathExpr::Reverse(le)) => match dir {
            Direction::Forward => out.extend_from_slice(db.in_neighbors(n, *le)),
            Direction::Backward => out.extend_from_slice(db.out_neighbors(n, *le)),
        },
        _ => unreachable!("step_index covers composite expressions"),
    };

    let mut out: PairSet = Vec::new();
    let mut frontier: Vec<NodeId> = Vec::new();
    let mut next: Vec<NodeId> = Vec::new();
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    for &s in starts {
        seen.clear();
        frontier.clear();
        frontier.push(s);
        while !frontier.is_empty() {
            counters.add_round();
            limits.poll()?;
            next.clear();
            for &n in &frontier {
                step(n, &mut next);
            }
            frontier.clear();
            for &t in &next {
                if seen.insert(t) {
                    out.push((s, t));
                    frontier.push(t);
                }
            }
            counters.add_pairs(frontier.len(), limits)?;
        }
    }
    sorted::normalize(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::eval::eval_path;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::database::fig2_yago_database;
    use sgq_graph::GraphDatabase;

    fn check(db: &GraphDatabase, s: &str) {
        let e = parse_path(s, db).unwrap();
        let engine = GraphEngine::new(db);
        let got = eval_seeded(&engine, &e, Seeds::none()).unwrap();
        let want = eval_path(db, &e);
        assert_eq!(got, want, "mismatch for {s}");
        assert!(engine.pairs_materialized() >= want.len());
    }

    #[test]
    fn matches_reference_semantics() {
        let db = fig2_yago_database();
        for s in [
            "owns",
            "-owns",
            "owns/isLocatedIn",
            "livesIn/isLocatedIn+",
            "isLocatedIn+",
            "isMarriedTo+",
            "[owns]([isMarriedTo]livesIn)",
            "livesIn[isLocatedIn]",
            "owns | livesIn",
            "isMarriedTo & isMarriedTo",
            "(livesIn/isLocatedIn)+",
            "-isLocatedIn/-livesIn",
        ] {
            check(&db, s);
        }
    }

    #[test]
    fn source_seeds_restrict() {
        let db = fig2_yago_database();
        let e = parse_path("isLocatedIn+", &db).unwrap();
        let engine = GraphEngine::new(&db);
        let full = eval_seeded(&engine, &e, Seeds::none()).unwrap();
        let n0 = NodeId::new(0);
        let seeded = eval_seeded(&engine, &e, Seeds::from_sources(&[n0])).unwrap();
        let expect: PairSet = full.iter().copied().filter(|&(s, _)| s == n0).collect();
        assert_eq!(seeded, expect);
    }

    #[test]
    fn target_seeds_restrict() {
        let db = fig2_yago_database();
        let e = parse_path("isLocatedIn+", &db).unwrap();
        let engine = GraphEngine::new(&db);
        let full = eval_seeded(&engine, &e, Seeds::none()).unwrap();
        let france = NodeId::new(6);
        let seeded = eval_seeded(
            &engine,
            &e,
            Seeds {
                sources: None,
                targets: Some(&[france]),
            },
        )
        .unwrap();
        let expect: PairSet = full.iter().copied().filter(|&(_, t)| t == france).collect();
        assert_eq!(seeded, expect);
    }

    #[test]
    fn seeded_closure_does_less_work() {
        let db = fig2_yago_database();
        let e = parse_path("isLocatedIn+", &db).unwrap();
        let full_engine = GraphEngine::new(&db);
        let _ = eval_seeded(&full_engine, &e, Seeds::none()).unwrap();
        let seeded_engine = GraphEngine::new(&db);
        let n3 = NodeId::new(3);
        let _ = eval_seeded(&seeded_engine, &e, Seeds::from_sources(&[n3])).unwrap();
        assert!(
            seeded_engine.pairs_materialized() < full_engine.pairs_materialized(),
            "seeding should reduce materialised pairs ({} vs {})",
            seeded_engine.pairs_materialized(),
            full_engine.pairs_materialized()
        );
    }

    #[test]
    fn both_seeds_combine() {
        let db = fig2_yago_database();
        let e = parse_path("isLocatedIn", &db).unwrap();
        let engine = GraphEngine::new(&db);
        let r = eval_seeded(
            &engine,
            &e,
            Seeds {
                sources: Some(&[NodeId::new(5)]),
                targets: Some(&[NodeId::new(4)]),
            },
        )
        .unwrap();
        assert_eq!(r, vec![(NodeId::new(5), NodeId::new(4))]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use sgq_algebra::ast::PathExpr;
    use sgq_common::{EdgeLabelId, Rng};
    use sgq_graph::GraphDatabase;

    /// Random multi-label graph (schema-free) from a seed.
    fn random_db(seed: u64) -> GraphDatabase {
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = GraphDatabase::standalone_builder();
        let n = rng.gen_range(4..20);
        let nodes: Vec<_> = (0..n).map(|_| b.node("N", &[])).collect();
        for le in ["r", "s"] {
            let m = rng.gen_range(0..40);
            for _ in 0..m {
                let a = nodes[rng.gen_range(0..n)];
                let c = nodes[rng.gen_range(0..n)];
                b.edge(a, le, c);
            }
        }
        b.build().unwrap()
    }

    fn random_expr(seed: u64, depth: usize) -> PathExpr {
        let mut rng = Rng::seed_from_u64(seed ^ 0xabcd);
        build(&mut rng, depth)
    }

    fn build(rng: &mut Rng, depth: usize) -> PathExpr {
        let le = EdgeLabelId::new(rng.gen_range(0..2) as u32);
        if depth == 0 || rng.gen_bool(0.35) {
            if rng.gen_bool(0.3) {
                PathExpr::Reverse(le)
            } else {
                PathExpr::Label(le)
            }
        } else {
            match rng.gen_range(0..6) {
                0 => PathExpr::concat(build(rng, depth - 1), build(rng, depth - 1)),
                1 => PathExpr::union(build(rng, depth - 1), build(rng, depth - 1)),
                2 => PathExpr::conj(build(rng, depth - 1), build(rng, depth - 1)),
                3 => PathExpr::branch_r(build(rng, depth - 1), build(rng, depth - 1)),
                4 => PathExpr::branch_l(build(rng, depth - 1), build(rng, depth - 1)),
                _ => PathExpr::plus(build(rng, depth - 1)),
            }
        }
    }

    /// Unseeded evaluation matches the reference semantics.
    #[test]
    fn eval_matches_reference() {
        for seed in 0..96u64 {
            let db = random_db(seed);
            let expr = random_expr(seed, 3);
            let engine = GraphEngine::new(&db);
            let got = eval_seeded(&engine, &expr, Seeds::none()).unwrap();
            assert_eq!(got, sgq_algebra::eval::eval_path(&db, &expr), "seed {seed}");
        }
    }

    /// Seeding by arbitrary source/target subsets is exactly a filter
    /// of the unseeded result.
    #[test]
    fn seeding_is_a_filter() {
        for seed in 0..96u64 {
            let mask = Rng::seed_from_u64(seed ^ 0x5eed).gen_u32();
            let db = random_db(seed);
            let expr = random_expr(seed, 3);
            let engine = GraphEngine::new(&db);
            let full = eval_seeded(&engine, &expr, Seeds::none()).unwrap();
            let subset: Vec<NodeId> = db
                .node_ids()
                .filter(|n| (mask >> (n.raw() % 32)) & 1 == 1)
                .collect();
            let seeded_src = eval_seeded(&engine, &expr, Seeds::from_sources(&subset)).unwrap();
            let expect_src: PairSet = full
                .iter()
                .copied()
                .filter(|&(s, _)| sorted::contains(&subset, &s))
                .collect();
            assert_eq!(seeded_src, expect_src, "seed {seed}");
            let seeded_tgt = eval_seeded(
                &engine,
                &expr,
                Seeds {
                    sources: None,
                    targets: Some(&subset),
                },
            )
            .unwrap();
            let expect_tgt: PairSet = full
                .iter()
                .copied()
                .filter(|&(_, t)| sorted::contains(&subset, &t))
                .collect();
            assert_eq!(seeded_tgt, expect_tgt, "seed {seed}");
        }
    }
}
