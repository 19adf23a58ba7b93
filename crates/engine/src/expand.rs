//! The expand kernel: every chain CQT of a UCQT as one seeded walk of
//! `(origin, current)` pairs over CSR adjacency, the union's chains
//! merged into a prefix trie. DESIGN.md ("Graph engine") has the chain
//! rule, the direction rule, the trie, the frontier's per-origin dedup
//! and the limits.

use sgq_algebra::{ast::PathExpr, eval::PairSet};
use sgq_common::{sorted, EdgeLabelId, NodeId, Result, VarId};
use sgq_graph::GraphDatabase;
use sgq_query::{annotated::LabelSet, cqt::Cqt};

use crate::backend::GraphEngine;
use crate::conjunctive::{candidates, estimate};
use crate::patheval::{eval_seeded, Seeds};
use crate::rows::Rows;

/// Pairs a hop emits between two polls; each batch is recorded.
const POLL_PAIRS: usize = 1 << 16;

/// A path expression walked forward (source to target) or backward.
#[derive(Clone, PartialEq)]
pub(crate) struct Hop {
    expr: PathExpr,
    forward: bool,
}

/// A label filter on a node (`None`: any), a hop, the filter where it lands.
type Step = (Option<LabelSet>, Hop, Option<LabelSet>);

/// A chain walked from its first head variable: `filters[i]` is the
/// filter on the node reached after `hops[..i]`.
#[derive(Clone)]
pub(crate) struct Chain {
    filters: Vec<Option<LabelSet>>,
    hops: Vec<Hop>,
}

impl Chain {
    /// `cqt` as a chain from `head[0]` to `head[1]`, if it is one. A
    /// relation hanging off the path at a variable used nowhere else is
    /// a test, folded into the hop at that end of the path as a branch.
    pub(crate) fn of(cqt: &Cqt) -> Option<Chain> {
        let (&[a, b], rels) = (cqt.head.as_slice(), &cqt.relations) else {
            return None;
        };
        if a == b || rels.iter().any(|r| r.src == r.tgt) {
            return None;
        }
        let filter = |v: VarId| {
            let mut sets = cqt.atoms.iter().filter(|atom| atom.var == v);
            let first = sets.next()?.labels.clone();
            Some(sets.fold(first, |acc, atom| sorted::intersect(&acc, &atom.labels)))
        };
        let degree = |v: VarId| rels.iter().filter(|r| r.src == v || r.tgt == v).count();
        let dangling = |w: VarId| w != a && w != b && degree(w) == 1 && filter(w).is_none();
        let mut open = vec![true; rels.len()];
        let mut tests = Vec::new();
        for (i, r) in rels.iter().enumerate() {
            tests.push(match r.path.strip() {
                _ if dangling(r.src) == dangling(r.tgt) => continue,
                e if dangling(r.tgt) => (r.src, e),
                PathExpr::Label(l) => (r.tgt, PathExpr::Reverse(l)),
                PathExpr::Reverse(l) => (r.tgt, PathExpr::Label(l)),
                _ => continue,
            });
            open[i] = false;
        }
        let mut chain = Chain {
            filters: vec![filter(a)],
            hops: Vec::new(),
        };
        // The path's variables, and the hop at each: the first hop at `a`,
        // then the hop landing on it.
        let (mut path, mut at_hop) = (vec![a], vec![0]);
        while let Some(&at) = path.last().filter(|&&v| v != b) {
            let touches = |i: &usize| open[*i] && (rels[*i].src == at || rels[*i].tgt == at);
            let mut touching = (0..rels.len()).filter(touches);
            let (Some(i), None) = (touching.next(), touching.next()) else {
                return None;
            };
            open[i] = false;
            let (r, mut spine) = (&rels[i], Vec::new());
            let forward = r.src == at;
            let next = if forward { r.tgt } else { r.src };
            flatten(r.path.strip(), &mut spine);
            if !forward {
                spine.reverse();
            }
            for expr in spine {
                chain.hops.push(Hop { expr, forward });
                chain.filters.push(None);
            }
            *chain.filters.last_mut()? = filter(next);
            path.push(next);
            at_hop.push(chain.hops.len() - 1);
        }
        for (v, test) in tests {
            let pos = path.iter().position(|&p| p == v)?;
            let hop = &mut chain.hops[at_hop[pos]];
            let expr = hop.expr.clone();
            hop.expr = match (pos > 0) == hop.forward {
                true => PathExpr::branch_r(expr, test),
                false => PathExpr::branch_l(test, expr),
            };
        }
        let distinct = (1..path.len()).all(|i| !path[..i].contains(&path[i]));
        let covered = cqt.atoms.iter().all(|atom| path.contains(&atom.var));
        (distinct && covered && !open.contains(&true)).then_some(chain)
    }

    /// The same chain walked from its end to its start.
    fn reversed(mut self) -> Chain {
        self.filters.reverse();
        self.hops.reverse();
        for hop in &mut self.hops {
            hop.forward = !hop.forward;
        }
        self
    }
}

impl Hop {
    /// The edge label of a one-label hop, and whether the walk follows
    /// its edges forward.
    fn label(&self) -> Option<(EdgeLabelId, bool)> {
        match self.expr {
            PathExpr::Label(l) => Some((l, self.forward)),
            PathExpr::Reverse(l) => Some((l, !self.forward)),
            _ => None,
        }
    }
}

/// Splits `expr` along its `Concat` spine.
fn flatten(expr: PathExpr, out: &mut Vec<PathExpr>) {
    match expr {
        PathExpr::Concat(a, b) => {
            flatten(*a, out);
            flatten(*b, out);
        }
        e => out.push(e),
    }
}

/// A trie node: a step, whether a chain ends here, the steps after it.
pub(crate) struct Node {
    step: Step,
    leaf: bool,
    children: Vec<Node>,
}

/// The trie of `chains`, walked from `head[0]` (`true`) or from
/// `head[1]`: whichever direction's distinct roots have the smaller
/// estimated first frontier.
pub(crate) fn trie(db: &GraphDatabase, chains: Vec<Chain>) -> (bool, Vec<Node>) {
    let reversed = chains.iter().cloned().map(Chain::reversed).collect();
    let [forward, backward] = [chains, reversed].map(|chains: Vec<Chain>| {
        let mut roots: Vec<Node> = Vec::new();
        for chain in &chains {
            let mut level = &mut roots;
            for (i, hop) in chain.hops.iter().enumerate() {
                let step = (
                    chain.filters[i].clone(),
                    hop.clone(),
                    chain.filters[i + 1].clone(),
                );
                let pos = level.iter().position(|n| n.step == step);
                let pos = pos.unwrap_or_else(|| {
                    let children = Vec::new();
                    level.push(Node {
                        step,
                        leaf: false,
                        children,
                    });
                    level.len() - 1
                });
                level[pos].leaf |= i + 1 == chain.hops.len();
                level = &mut level[pos].children;
            }
        }
        roots
    });
    let cost = |roots: &[Node]| {
        roots
            .iter()
            .map(|n| first_frontier(db, &n.step))
            .sum::<usize>()
    };
    match cost(&forward) <= cost(&backward) {
        true => (true, forward),
        false => (false, backward),
    }
}

/// A root's estimated first frontier: for a one-label hop the exact
/// degree sum over the start label's nodes (`|E(l)|` without a start
/// filter), `conjunctive::estimate` otherwise.
fn first_frontier(db: &GraphDatabase, (start, hop, _): &Step) -> usize {
    match (hop.label(), start) {
        (Some((l, out)), Some(labels)) => labels
            .iter()
            .flat_map(|&nl| db.nodes_with_label(nl))
            .map(|&n| neighbors(db, n, l, out).len())
            .sum(),
        (Some((l, _)), None) => db.edges(l).len(),
        (None, _) => estimate(db, &hop.expr),
    }
}

fn neighbors(db: &GraphDatabase, n: NodeId, l: EdgeLabelId, out: bool) -> &[NodeId] {
    match out {
        true => db.out_neighbors(n, l),
        false => db.in_neighbors(n, l),
    }
}

/// Runs `chains` as one trie: the head rows of their union.
pub(crate) fn run(eng: &GraphEngine<'_>, chains: Vec<Chain>) -> Result<Rows> {
    let (forward, roots) = trie(eng.db, chains);
    let (mut out, mut evaluated) = (Vec::new(), Vec::new());
    for root in &roots {
        let frontier = expand(eng, None, root, &mut evaluated)?;
        walk(eng, root, frontier, &mut evaluated, &mut out)?;
    }
    if !forward {
        out.iter_mut().for_each(|p| *p = p.rotate_left(32));
        out.sort_unstable();
    } else if !sorted::is_normalized(&out) {
        out.sort(); // merges the leaves' canonical frontiers
    }
    out.dedup();
    let data = out.iter().flat_map(|&p| [unpack(p).0, unpack(p).1]);
    Ok(Rows::from_flat(2, out.len(), data.collect()))
}

fn pack(origin: NodeId, current: NodeId) -> u64 {
    (u64::from(origin.raw()) << 32) | u64::from(current.raw())
}

fn unpack(p: u64) -> (NodeId, NodeId) {
    (NodeId::new((p >> 32) as u32), NodeId::new(p as u32))
}

/// The hops one run has evaluated from a seed set, by hop and seeds:
/// chains that part at the start can meet again (a backward walk from
/// several start labels into one closure), and then the hop is looked up.
type Evaluated<'t> = Vec<(&'t Hop, Option<Vec<NodeId>>, PairSet)>;

/// Emits the frontier at a leaf and expands it into every child.
fn walk<'t>(
    eng: &GraphEngine<'_>,
    node: &'t Node,
    mut frontier: Vec<u64>,
    evaluated: &mut Evaluated<'t>,
    out: &mut Vec<u64>,
) -> Result<()> {
    if node.leaf {
        out.extend_from_slice(&frontier);
    }
    for (i, child) in node.children.iter().enumerate() {
        if frontier.is_empty() {
            break;
        }
        let next = expand(eng, Some(&frontier), child, evaluated)?;
        if i + 1 == node.children.len() {
            frontier = Vec::new();
        }
        walk(eng, child, next, evaluated, out)?;
    }
    Ok(())
}

/// One step from a canonical frontier or, at a root (`None`), from the
/// start filter's nodes: the canonical frontier it reaches. A frontier
/// holds each origin's pairs as one run, so each run is deduplicated by
/// the engine's node marks, a fresh epoch per origin, and sorted alone.
fn expand<'t>(
    eng: &GraphEngine<'_>,
    frontier: Option<&[u64]>,
    node: &'t Node,
    evaluated: &mut Evaluated<'t>,
) -> Result<Vec<u64>> {
    let (db, counters, limits) = (eng.db, &eng.counters, &eng.limits);
    limits.poll()?;
    limits.fault("engine.expand")?;
    let (start, hop, land) = &node.step;
    let label = hop.label().filter(|_| frontier.is_some());
    let mut keyed: &[(NodeId, NodeId)] = &[];
    if label.is_none() {
        // Seeded on the walk side by the frontier's current nodes or the
        // start's nodes, and keyed by that side.
        let seeds = match frontier {
            Some(frontier) => Some(frontier.iter().map(|&p| unpack(p).1).collect::<Vec<_>>()),
            None => start.as_ref().map(|l| candidates(db, l)),
        }
        .map(|mut nodes| {
            sorted::normalize(&mut nodes);
            nodes
        });
        let pos = evaluated
            .iter()
            .position(|(h, s, _)| *h == hop && *s == seeds);
        let pos = match pos {
            Some(pos) => pos,
            None => {
                let (walk_side, other) = (seeds.as_deref(), None);
                let (sources, targets) = if hop.forward {
                    (walk_side, other)
                } else {
                    (other, walk_side)
                };
                let mut keyed = eval_seeded(eng, &hop.expr, Seeds { sources, targets })?;
                if !hop.forward {
                    keyed.iter_mut().for_each(|p| *p = (p.1, p.0));
                    keyed.sort_unstable();
                }
                evaluated.push((hop, seeds, keyed));
                evaluated.len() - 1
            }
        };
        keyed = &evaluated[pos].2;
    }
    let lands = |n: NodeId| {
        land.as_ref()
            .is_none_or(|l| sorted::contains(l, &db.node_label(n)))
    };
    let (mut next, mut recorded) = (Vec::new(), 0);
    // Records the pairs kept since the last batch, a batch at a time.
    let mut batch = |next: &Vec<u64>| -> Result<()> {
        while next.len() - recorded >= POLL_PAIRS {
            recorded += POLL_PAIRS;
            counters.add_pairs(POLL_PAIRS, limits)?;
            limits.poll()?;
        }
        Ok(())
    };
    if frontier.is_none() {
        // The evaluated pairs are canonical already.
        let landed = keyed.iter().filter(|p| lands(p.1));
        next.extend(landed.map(|&(origin, n)| pack(origin, n)));
        batch(&next)?;
    }
    let scratch = &mut eng.scratch.borrow_mut();
    let same_origin = |a: &u64, b: &u64| a >> 32 == b >> 32;
    for run in frontier.unwrap_or_default().chunk_by(same_origin) {
        // One current node's row is canonical already.
        let (origin, from, single) = (unpack(run[0]).0, next.len(), run.len() == 1);
        if !single {
            scratch.next_epoch();
        }
        for current in run.iter().map(|&p| unpack(p).1) {
            let (csr, rows) = match label {
                Some((l, out)) => (neighbors(db, current, l, out), &[][..]),
                None => (&[][..], &keyed[keyed.partition_point(|p| p.0 < current)..]),
            };
            let rows = rows.iter().take_while(|p| p.0 == current).map(|p| p.1);
            csr.iter()
                .copied()
                .chain(rows)
                .filter(|&n| lands(n) && (single || scratch.mark(n)))
                .for_each(|n| next.push(pack(origin, n)));
            batch(&next)?;
        }
        if !single {
            next[from..].sort_unstable();
        }
    }
    counters.add_pairs(next.len() - recorded, limits)?;
    Ok(next)
}

/// The nodes of a trie: the hops one run expands.
#[cfg(test)]
pub(crate) fn trie_size(nodes: &[Node]) -> usize {
    nodes.iter().map(|n| 1 + trie_size(&n.children)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::{eval::eval_path, parser::parse_path};
    use sgq_common::Rng;
    use sgq_core::pipeline::{rewrite_path, RewriteOptions};
    use sgq_datasets::{ldbc, yago};
    use sgq_query::cqt::{LabelAtom, Relation};

    /// Both catalogs at the benchmark's sizes, baseline and rewrite: every
    /// disjunct but two cycles is a chain, the walks go both ways, and the
    /// unions that repeat a prefix share it. A disjunct that silently
    /// falls back to the binding table fails here.
    #[test]
    fn catalog_census() {
        let (ls, ldb) = ldbc::generate(ldbc::LdbcConfig::at_scale(0.3));
        let (ys, ydb) = yago::generate(yago::YagoConfig::scaled(0.1));
        let (mut fallbacks, mut shared) = (Vec::new(), Vec::new());
        let mut directions = [false; 2];
        for (catalog, schema, db, queries) in [
            ("LDBC", &ls, &ldb, ldbc::queries(&ls).unwrap()),
            ("YAGO", &ys, &ydb, yago::queries(&ys).unwrap()),
        ] {
            for q in &queries {
                let rewritten = rewrite_path(schema, &q.expr, RewriteOptions::default());
                let sides = [
                    ("B", Some(q.ucqt())),
                    ("S", rewritten.outcome.query().cloned()),
                ];
                for (side, query) in sides {
                    let Some(query) = query else { continue };
                    let name = format!("{catalog} {} {side}", q.name);
                    let mut chains = Vec::new();
                    for (i, cqt) in query.disjuncts.iter().enumerate() {
                        match Chain::of(cqt) {
                            Some(chain) => chains.push(chain),
                            None => fallbacks.push(format!("{name} #{i}")),
                        }
                    }
                    let hops = chains.iter().map(|c| c.hops.len()).sum();
                    let (forward, roots) = trie(db, chains);
                    directions[usize::from(forward)] |= !roots.is_empty();
                    if trie_size(&roots) < hops {
                        shared.push(name);
                    }
                }
            }
        }
        assert_eq!(fallbacks, ["LDBC IS7 S #1", "YAGO Y17 S #0"]);
        assert_eq!(directions, [true, true], "walks go both ways");
        for name in ["YAGO Y4 S", "YAGO Y9 S", "LDBC IC1 S"] {
            assert!(
                shared.iter().any(|s| s == name),
                "{name} shares no prefix: {shared:?}"
            );
        }
    }

    /// `n` nodes labelled `N` and `M` in turn, each `r` and each `s` edge
    /// drawn with probability `p`: dense enough that many paths from one
    /// origin meet.
    fn dense(seed: u64, n: usize, p: f64) -> GraphDatabase {
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = GraphDatabase::standalone_builder();
        let nodes: Vec<_> = (0..n).map(|i| b.node(["N", "M"][i % 2], &[])).collect();
        for &x in &nodes {
            for &y in &nodes {
                for l in ["r", "s"] {
                    if rng.gen_bool(p) {
                        b.edge(x, l, y);
                    }
                }
            }
        }
        b.build().unwrap()
    }

    /// Expands `node` from `frontier`, then every child from what it
    /// reached: each hop's frontier is the canonical set a brute-force step
    /// over `eval_path` gives, and a one-label hop from a frontier counts
    /// exactly its distinct pairs. Returns the hops that reached a pair by
    /// two paths or more.
    fn check_hops<'t>(
        eng: &GraphEngine<'_>,
        frontier: Option<&[u64]>,
        node: &'t Node,
        evaluated: &mut Evaluated<'t>,
    ) -> usize {
        let db = eng.db;
        let before = eng.pairs_materialized();
        let next = expand(eng, frontier, node, evaluated).unwrap();
        let (start, hop, land) = &node.step;
        let admits = |labels: &Option<LabelSet>, n: NodeId| {
            labels
                .as_ref()
                .is_none_or(|l| l.contains(&db.node_label(n)))
        };
        let mut step = eval_path(db, &hop.expr);
        if !hop.forward {
            step.iter_mut().for_each(|p| *p = (p.1, p.0));
        }
        let from: Vec<(NodeId, NodeId)> = match frontier {
            Some(frontier) => frontier.iter().map(|&p| unpack(p)).collect(),
            None => db
                .node_ids()
                .filter(|&n| admits(start, n))
                .map(|n| (n, n))
                .collect(),
        };
        let mut want = Vec::new();
        for &(origin, current) in &from {
            let reached = step
                .iter()
                .filter(|&&(m, n)| m == current && admits(land, n));
            want.extend(reached.map(|&(_, n)| pack(origin, n)));
        }
        let paths = want.len();
        sorted::normalize(&mut want);
        assert!(sorted::is_normalized(&next), "{:?}", hop.expr);
        assert_eq!(next, want, "{:?}", hop.expr);
        if frontier.is_some() && hop.label().is_some() {
            let counted = eng.pairs_materialized() - before;
            assert_eq!(counted, next.len(), "{:?} counts distinct pairs", hop.expr);
        }
        let children = node.children.iter();
        usize::from(paths > next.len())
            + children
                .map(|child| check_hops(eng, Some(&next), child, evaluated))
                .sum::<usize>()
    }

    /// Whether a trie node ends a chain and also has a child.
    fn leaf_with_child(nodes: &[Node]) -> bool {
        nodes
            .iter()
            .any(|n| (n.leaf && !n.children.is_empty()) || leaf_with_child(&n.children))
    }

    /// On dense random graphs, hop by hop: one-label hops both ways, a
    /// closure hop, landing filters, a union whose shorter chain ends where
    /// the longer one goes on, walked from either end.
    #[test]
    fn every_hop_is_canonical_and_counts_its_distinct_pairs() {
        let (mut converged, mut directions, mut shared) = (0, [false; 2], false);
        for seed in 0..24 {
            let db = dense(seed, 10 + seed as usize % 9, 0.2);
            let rel = |a: u32, path: &str, b: u32| {
                let path = parse_path(path, &db).unwrap();
                Relation::plain(VarId::new(a), path, VarId::new(b))
            };
            let atom = |var: u32, label: &str| LabelAtom {
                var: VarId::new(var),
                labels: vec![db.node_label_id(label).unwrap()],
            };
            let cqt = |relations, atoms| Cqt {
                head: vec![VarId::new(0), VarId::new(1)],
                atoms,
                relations,
            };
            let queries = [
                vec![
                    cqt(vec![rel(0, "r/-s/r", 1)], vec![atom(1, "N")]),
                    cqt(
                        vec![rel(0, "r/-s/r", 2), rel(2, "s", 1)],
                        vec![atom(2, "N")],
                    ),
                ],
                vec![cqt(vec![rel(0, "r/r+/-s", 1)], vec![atom(0, "M")])],
                vec![cqt(
                    vec![rel(0, "-r/s", 2), rel(2, "r", 1)],
                    vec![atom(2, "M"), atom(1, "N")],
                )],
            ];
            for disjuncts in queries {
                let chains = disjuncts.iter().map(|c| Chain::of(c).unwrap()).collect();
                let (forward, roots) = trie(&db, chains);
                directions[usize::from(forward)] = true;
                shared |= leaf_with_child(&roots);
                let (eng, mut evaluated) = (GraphEngine::new(&db), Vec::new());
                for root in &roots {
                    converged += check_hops(&eng, None, root, &mut evaluated);
                }
            }
        }
        assert_eq!(directions, [true, true], "walks go both ways");
        assert!(shared, "no chain ended where another went on");
        assert!(converged > 0, "no hop reached a pair by two paths");
    }
}
