//! Seeded pair-set evaluation of path expressions.
//!
//! The evaluator improves on the reference semantics (`sgq_algebra::eval`)
//! in two ways that matter for the paper's experiments:
//!
//! * **Seed pushdown** — when the caller already knows the candidate
//!   source (or target) nodes of a relation, evaluation is restricted to
//!   them: base labels expand seeds through CSR adjacency, and `l+` runs
//!   `sgq_graph`'s closure kernel from the seeds (target seeds walk the
//!   reversed step) instead of materialising the full closure — the
//!   graph-side analogue of µ-RA's "push joins into fixpoints". Unseeded,
//!   the kernel starts from the step's distinct sources. Either way one
//!   cyclic component's starts share one walk.
//! * **Counters** — every materialised pair is counted, so tests and
//!   benches can demonstrate the intermediate-result reduction that the
//!   schema-based rewrite buys (the paper's Fig. 17 narrative).

use std::cell::Cell;

use sgq_algebra::ast::PathExpr;
use sgq_algebra::eval::PairSet;
use sgq_common::{sorted, FxHashMap, Limits, NodeId, Result};
use sgq_graph::closure::{self, Closure, Runs};

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
    /// Frontier rounds of the component walks run (`sgq_graph::closure`).
    pub tc_rounds: Cell<usize>,
}

impl EvalCounters {
    /// Counts `n` materialised pairs and records them against `limits`
    /// (row budget, memory budget).
    pub(crate) fn add_pairs(&self, n: usize, limits: &Limits) -> Result<()> {
        self.pairs.set(self.pairs.get() + n);
        limits.record(n, 2)
    }

    /// Counts a closure's pairs and rounds; the kernel recorded the
    /// pairs itself.
    fn add_closure(&self, pairs: usize, rounds: usize) {
        self.pairs.set(self.pairs.get() + pairs);
        self.tc_rounds.set(self.tc_rounds.get() + rounds);
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
            let mut pairs = eval_seeded(
                eng,
                &PathExpr::Label(*le),
                Seeds {
                    sources: seeds.targets,
                    targets: seeds.sources,
                },
            )?;
            flip(&mut pairs);
            pairs
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
        PathExpr::Plus(a) => closure(eng, a, seeds)?,
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

/// Reverses every pair of a canonical set, keeping it canonical.
pub(crate) fn flip(pairs: &mut PairSet) {
    pairs.iter_mut().for_each(|p| *p = (p.1, p.0));
    pairs.sort_unstable();
}

/// `step+` through the closure kernel of `sgq_graph`: from the source
/// seeds (then filtered by the target seeds), from the target seeds over
/// the reversed step, or unseeded from the step's distinct sources. A
/// one-label step walks its CSR; any other step walks its own pair set,
/// a node's row being the targets of its binary-searched run.
fn closure(eng: &GraphEngine<'_>, step: &PathExpr, seeds: Seeds<'_>) -> Result<PairSet> {
    let backward = seeds.sources.is_none() && seeds.targets.is_some();
    let csr = match (step, backward) {
        (PathExpr::Label(l), false) | (PathExpr::Reverse(l), true) => {
            Some(&*eng.db.relation(*l).fwd)
        }
        (PathExpr::Label(l), true) | (PathExpr::Reverse(l), false) => {
            Some(&*eng.db.relation(*l).rev)
        }
        _ => None,
    };
    // The step's pairs keyed by the walk's side: the rows of a composite
    // step, the starts of an unseeded closure.
    let runs = match (csr, seeds.sources.or(seeds.targets)) {
        (Some(_), Some(_)) => Runs::default(),
        _ => {
            let mut pairs = eval_seeded(eng, step, Seeds::none())?;
            if backward {
                flip(&mut pairs);
            }
            Runs::of_sorted(pairs)
        }
    };
    let row = |n: NodeId| match csr {
        Some(csr) => csr.neighbors(n),
        None => runs.row(n),
    };
    let mut unseeded = Vec::new();
    let starts = seeds.sources.or(seeds.targets).unwrap_or_else(|| {
        unseeded = runs.starts();
        &unseeded
    });
    let scratch = &mut eng.scratch.borrow_mut();
    let Closure {
        mut pairs, rounds, ..
    } = closure::closure(row, starts, &eng.limits, "engine.closure", scratch)?;
    eng.counters.add_closure(pairs.len(), rounds);
    if backward {
        flip(&mut pairs);
    } else if let (Some(_), Some(targets)) = (seeds.sources, seeds.targets) {
        pairs.retain(|(_, t)| sorted::contains(targets, t));
    }
    Ok(pairs)
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

    /// A graph for the closure matrix over labels `a` and `b`: a cycle
    /// of both labels through several nodes, a chain of `a` edges into
    /// it, self-loops and a few random edges, node ids shuffled so that
    /// starts meet the cycle in any order.
    fn closure_db(seed: u64) -> GraphDatabase {
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = GraphDatabase::standalone_builder();
        let n = rng.gen_range(8..24);
        let mut ids: Vec<NodeId> = (0..n).map(|_| b.node("N", &[])).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.gen_range(0..i + 1));
        }
        let cycle = rng.gen_range(2..n / 2);
        for i in 0..cycle {
            let (from, to) = (ids[i], ids[(i + 1) % cycle]);
            b.edge(from, "a", to);
            b.edge(from, "b", to);
        }
        // The chain ids[n - 1] → … → ids[cycle] → ids[0].
        for i in cycle..n {
            b.edge(ids[i], "a", ids[if i == cycle { 0 } else { i - 1 }]);
        }
        for _ in 0..rng.gen_range(0..3) {
            let node = ids[rng.gen_range(0..n)];
            b.edge(node, ["a", "b"][rng.gen_range(0..2)], node);
        }
        for _ in 0..rng.gen_range(0..4) {
            let (from, to) = (ids[rng.gen_range(0..n)], ids[rng.gen_range(0..n)]);
            b.edge(from, ["a", "b"][rng.gen_range(0..2)], to);
        }
        b.build().unwrap()
    }

    /// `a+`, `-a+`, `(a/b)+` and `(a|b)+`, unseeded, source-, target- and
    /// both-seeded, against the reference semantics; the kernel's census
    /// over the same starts shows both of its paths: a start copying the
    /// run of an earlier start in its cyclic component, and several starts
    /// that each walk alone.
    #[test]
    fn closure_matrix_matches_reference() {
        use sgq_graph::closure::{closure, Scratch};
        let (a, b) = (EdgeLabelId::new(0), EdgeLabelId::new(1));
        let steps = [
            PathExpr::Label(a),
            PathExpr::Reverse(a),
            PathExpr::concat(PathExpr::Label(a), PathExpr::Label(b)),
            PathExpr::union(PathExpr::Label(a), PathExpr::Label(b)),
        ];
        let (mut copied, mut alone) = (0, 0);
        for seed in 0..64u64 {
            let db = closure_db(seed);
            let mask = Rng::seed_from_u64(seed ^ 0xc105).gen_u32();
            let subset: Vec<NodeId> = db
                .node_ids()
                .filter(|n| (mask >> (n.raw() % 32)) & 1 == 1)
                .collect();
            let within = |n: &NodeId| sorted::contains(&subset, n);
            for step in &steps {
                let expr = PathExpr::plus(step.clone());
                let full = sgq_algebra::eval::eval_path(&db, &expr);
                let engine = GraphEngine::new(&db);
                for (sources, targets) in
                    [(false, false), (true, false), (false, true), (true, true)]
                {
                    let seeds = Seeds {
                        sources: sources.then_some(&subset[..]),
                        targets: targets.then_some(&subset[..]),
                    };
                    let want: PairSet = full
                        .iter()
                        .copied()
                        .filter(|(s, t)| (!sources || within(s)) && (!targets || within(t)))
                        .collect();
                    let got = eval_seeded(&engine, &expr, seeds).unwrap();
                    assert_eq!(got, want, "seed {seed}, {expr:?}, {seeds:?}");
                }
                let mut rows = vec![Vec::new(); db.node_count()];
                for (s, t) in sgq_algebra::eval::eval_path(&db, step) {
                    rows[s.index()].push(t);
                }
                let mut scratch = Scratch::new(db.node_count());
                for starts in [db.node_ids().collect(), subset.clone()] {
                    let run = closure(
                        |n: NodeId| &rows[n.index()][..],
                        &starts,
                        &Limits::default(),
                        "engine.closure",
                        &mut scratch,
                    )
                    .unwrap();
                    copied += starts.len() - run.walks;
                    alone += usize::from(run.walks == starts.len() && starts.len() > 1);
                }
            }
        }
        assert!(copied > 0, "no start shared a cyclic component's walk");
        assert!(alone > 0, "no closure walked every start alone");
    }
}
