//! The engine's one CQT executor: every disjunct of a UCQT as a pattern
//! of steps over a canonical binding table, walked from one end of the
//! head with Expand-All, Expand-Into and cartesian steps, the union's
//! patterns merged into a prefix trie. DESIGN.md ("Graph engine") has
//! the pattern rule, the direction rule, the trie, the table's dedup
//! rules and the limits.

use sgq_algebra::{ast::PathExpr, eval::PairSet};
use sgq_common::{sorted, EdgeLabelId, NodeId, Result, VarId};
use sgq_graph::{closure::Scratch, GraphDatabase};
use sgq_query::annotated::LabelSet;
use sgq_query::cqt::{Cqt, Ucqt};

use crate::backend::GraphEngine;
use crate::patheval::{eval_seeded, flip, Seeds};
use crate::rows::Rows;

/// Rows a step writes between two polls; each batch is recorded.
const POLL_ROWS: usize = 1 << 16;

/// A path expression walked forward (source to target) or backward.
#[derive(Clone, PartialEq)]
pub(crate) struct Hop {
    expr: PathExpr,
    forward: bool,
}

/// One step: `hop` walked from a node `p` to a node `q` that carries
/// `land`. `p` is column `from` of the table (`start` was applied where
/// it was bound), or, without `from`, ranges over the hop's pairs from
/// the nodes carrying `start` and is appended: a cartesian extension (the
/// first step extends the table's one empty row). `q` is appended, or
/// must equal column `into` (Expand-Into). `keep` lists the output
/// columns as positions in the row so extended.
#[derive(Clone, PartialEq)]
pub(crate) struct Step {
    start: Option<LabelSet>,
    hop: Hop,
    land: Option<LabelSet>,
    from: Option<usize>,
    into: Option<usize>,
    keep: Vec<usize>,
}

impl Step {
    /// Whether the step walks a chain on: from the second of two columns,
    /// which it drops for what it reaches. Rows that share their first
    /// column (the origin) form one group, deduplicated by node marks.
    fn grouped(&self, width: usize) -> bool {
        width == 2 && self.from == Some(1) && self.into.is_none() && self.keep == [0, 2]
    }

    /// Whether the step keeps every column of the extended row: a
    /// canonical table then extends into a canonical table.
    fn keeps_all(&self, width: usize) -> bool {
        let extended = width + usize::from(self.from.is_none()) + usize::from(self.into.is_none());
        self.keep.iter().copied().eq(0..extended)
    }
}

/// A CQT walked from one start variable: its steps, and the column of
/// each head variable in the last table.
pub(crate) struct Pattern {
    steps: Vec<Step>,
    head: Vec<usize>,
}

impl Pattern {
    /// `cqt` walked from `start`. A relation hanging off the pattern at a
    /// variable used nowhere else is a test on its other end, folded as a
    /// branch into the relation that reaches that end first from
    /// `head[0]`. Then relations are walked one at a time, each split
    /// along its `Concat` spine: one with both ends bound first, then one
    /// at the last column, then one at any bound column, then one at
    /// `start` or, in another component, the next. A column stays while
    /// it is a head variable or a later step reads it.
    pub(crate) fn of(cqt: &Cqt, start: VarId) -> Pattern {
        let (rels, head) = (&cqt.relations, &cqt.head);
        let filter = |v: VarId| {
            let mut sets = cqt.atoms.iter().filter(|atom| atom.var == v);
            let first = sets.next()?.labels.clone();
            Some(sets.fold(first, |acc, atom| sorted::intersect(&acc, &atom.labels)))
        };
        let ends = |i: usize| [rels[i].src, rels[i].tgt];
        let degree = |v: VarId| (0..rels.len()).filter(|&i| ends(i).contains(&v)).count();
        let atom = |w: VarId| cqt.atoms.iter().any(|atom| atom.var == w);
        let dangling = |w: VarId| !head.contains(&w) && degree(w) == 1 && !atom(w);
        let mut open = vec![true; rels.len()];
        let mut tests = Vec::new();
        for (i, r) in rels.iter().enumerate() {
            if dangling(r.src) == dangling(r.tgt) {
                continue;
            }
            let (at, test) = match r.path.strip() {
                e if dangling(r.tgt) => (r.src, e),
                PathExpr::Label(l) => (r.tgt, PathExpr::Reverse(l)),
                PathExpr::Reverse(l) => (r.tgt, PathExpr::Label(l)),
                _ => continue,
            };
            if (0..rels.len()).any(|j| j != i && open[j] && ends(j).contains(&at)) {
                open[i] = false;
                tests.push((at, test));
            }
        }
        let touching = |v: VarId| (0..rels.len()).find(|&i| open[i] && ends(i).contains(&v));
        // The relation each variable is first reached by from `head[0]`.
        let (mut order, mut via) = (vec![head[0]], vec![touching(head[0])]);
        let mut k = 0;
        while let Some(&v) = order.get(k) {
            for i in (0..rels.len()).filter(|&i| open[i] && ends(i).contains(&v)) {
                let [a, b] = ends(i);
                let w = if a == v { b } else { a };
                if !order.contains(&w) {
                    order.push(w);
                    via.push(Some(i));
                }
            }
            k += 1;
        }
        let mut spines: Vec<Vec<PathExpr>> = rels.iter().map(|r| spine(r.path.strip())).collect();
        for (at, test) in tests {
            let first = order.iter().position(|&v| v == at).and_then(|k| via[k]);
            let i = first
                .or_else(|| touching(at))
                .expect("a test's end is bound");
            let spine = &mut spines[i];
            if rels[i].src == at {
                spine[0] = PathExpr::branch_l(test, spine[0].clone());
            } else {
                let last = spine.last_mut().expect("a spine is not empty");
                *last = PathExpr::branch_r(last.clone(), test);
            }
        }

        let mut todo: Vec<usize> = (0..rels.len()).filter(|&i| open[i]).collect();
        let (mut cols, mut row, mut steps) = (Vec::new(), Vec::new(), Vec::new());
        while !todo.is_empty() {
            let bound = |v: VarId| cols.contains(&Some(v));
            let last = cols.last().copied().flatten();
            let pick = |p: &dyn Fn(VarId) -> bool, all: bool| {
                todo.iter().position(|&i| match all {
                    true => ends(i).into_iter().all(p),
                    false => ends(i).into_iter().any(p),
                })
            };
            let pos = pick(&bound, true)
                .or_else(|| pick(&|v| Some(v) == last, false))
                .or_else(|| pick(&bound, false))
                .or_else(|| pick(&|v| v == start, false))
                .unwrap_or(0);
            let i = todo.remove(pos);
            let r = &rels[i];
            let forward = bound(r.src) || (!bound(r.tgt) && r.tgt != start);
            let [p, q] = if forward { ends(i) } else { [r.tgt, r.src] };
            let mut spine = std::mem::take(&mut spines[i]);
            if !forward {
                spine.reverse();
            }
            let hops = spine.len();
            for (j, expr) in spine.into_iter().enumerate() {
                let (at, to) = (
                    Some(p).filter(|_| j == 0),
                    Some(q).filter(|_| j + 1 == hops),
                );
                let from = cols.iter().position(|&c| c == at);
                row.clone_from(&cols);
                if from.is_none() {
                    row.push(at);
                }
                let into = to.and_then(|_| row.iter().position(|&c| c == to));
                if into.is_none() {
                    row.push(to);
                }
                let reads = |v: VarId| todo.iter().any(|&t| ends(t).contains(&v));
                let live = |(c, var): &(usize, &Option<VarId>)| match var {
                    Some(v) => head.contains(v) || reads(*v) || (j + 1 < hops && *v == q),
                    None => *c + 1 == row.len() && to.is_none(),
                };
                let keep: Vec<usize> = row
                    .iter()
                    .enumerate()
                    .filter(live)
                    .map(|(c, _)| c)
                    .collect();
                cols.clear();
                cols.extend(keep.iter().map(|&c| row[c]));
                steps.push(Step {
                    start: at.and_then(filter),
                    hop: Hop { expr, forward },
                    land: to.and_then(filter),
                    from,
                    into,
                    keep,
                });
            }
        }
        let column = |h: &VarId| cols.iter().position(|&c| c == Some(*h));
        let head = head.iter().map(column).collect::<Option<_>>();
        Pattern {
            steps,
            head: head.expect("every head variable is bound"),
        }
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

/// `expr` split along its `Concat` spine.
fn spine(expr: PathExpr) -> Vec<PathExpr> {
    match expr {
        PathExpr::Concat(a, b) => [spine(*a), spine(*b)].concat(),
        e => vec![e],
    }
}

/// A trie node: a step, where the head's columns are if a pattern ends
/// here, the steps after it.
pub(crate) struct Node {
    step: Step,
    leaf: Option<Vec<usize>>,
    children: Vec<Node>,
}

/// The trie of `query`'s patterns, walked from `head[0]` (`true`) or
/// from the head's last variable: whichever direction's distinct roots
/// have the smaller estimated first frontier.
pub(crate) fn trie(db: &GraphDatabase, query: &Ucqt) -> (bool, Vec<Node>) {
    let ends = [query.head[0], query.head[query.head.len() - 1]];
    let [forward, backward] = ends.map(|start| {
        let mut roots: Vec<Node> = Vec::new();
        for cqt in &query.disjuncts {
            let Pattern { steps, head } = Pattern::of(cqt, start);
            let (mut level, last) = (&mut roots, steps.len() - 1);
            for (i, step) in steps.into_iter().enumerate() {
                let ends_here = |n: &Node| i < last || n.leaf.as_ref().is_none_or(|h| *h == head);
                let pos = level.iter().position(|n| n.step == step && ends_here(n));
                let pos = pos.unwrap_or_else(|| {
                    let (leaf, children) = (None, Vec::new());
                    level.push(Node {
                        step,
                        leaf,
                        children,
                    });
                    level.len() - 1
                });
                if i == last {
                    level[pos].leaf = Some(head.clone());
                }
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
/// filter), [`estimate`] otherwise.
fn first_frontier(db: &GraphDatabase, step: &Step) -> usize {
    match (step.hop.label(), &step.start) {
        (Some((l, out)), Some(labels)) => labels
            .iter()
            .flat_map(|&nl| db.nodes_with_label(nl))
            .map(|&n| neighbors(db, n, l, out).len())
            .sum(),
        (Some((l, _)), None) => db.edges(l).len(),
        (None, _) => estimate(db, &step.hop.expr),
    }
}

/// A crude cardinality estimate: the smallest edge-label relation the
/// expression mentions, inflated for closures.
fn estimate(db: &GraphDatabase, expr: &PathExpr) -> usize {
    let labels = expr.edge_labels();
    let base = labels.iter().map(|&l| db.edges(l).len()).min();
    let base = base.unwrap_or(0);
    match expr.is_recursive() {
        true => base.saturating_mul(4),
        false => base,
    }
}

/// The sorted nodes carrying one of `labels`.
fn candidates(db: &GraphDatabase, labels: &LabelSet) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = labels
        .iter()
        .flat_map(|&l| db.nodes_with_label(l).iter().copied())
        .collect();
    sorted::normalize(&mut nodes);
    nodes
}

fn neighbors(db: &GraphDatabase, n: NodeId, l: EdgeLabelId, out: bool) -> &[NodeId] {
    match out {
        true => db.out_neighbors(n, l),
        false => db.in_neighbors(n, l),
    }
}

/// Runs `query` as one trie: the union of its leaves' tables, read in
/// head order.
pub(crate) fn run(eng: &GraphEngine<'_>, query: &Ucqt) -> Result<Rows> {
    let (_, roots) = trie(eng.db, query);
    let (mut evaluated, mut leaves) = (Vec::new(), Vec::new());
    walk(eng, Rows::unit(), None, &roots, &mut evaluated, &mut leaves)?;
    Ok(Rows::union(query.head.len(), leaves))
}

/// The hops one run has evaluated from a seed set, by hop and seeds:
/// patterns that part at the start can meet again (a backward walk from
/// several start labels into one closure), and then the hop is looked up.
type Evaluated<'t> = Vec<(&'t Hop, Option<Vec<NodeId>>, PairSet)>;

/// Expands `table` into every node of `nodes` and walks on from each;
/// `table` itself is a leaf's answer where `head` says so.
fn walk<'t>(
    eng: &GraphEngine<'_>,
    table: Rows,
    head: Option<&'t [usize]>,
    nodes: &'t [Node],
    evaluated: &mut Evaluated<'t>,
    out: &mut Vec<(Rows, &'t [usize])>,
) -> Result<()> {
    let mut table = Some(table);
    for (i, node) in nodes.iter().enumerate() {
        let from = table.as_ref().expect("taken after the last node");
        if from.is_empty() {
            break;
        }
        let next = expand(eng, from, &node.step, evaluated)?;
        if i + 1 == nodes.len() {
            out.extend(head.zip(table.take()).map(|(h, t)| (t, h)));
        }
        let leaf = node.leaf.as_deref();
        walk(eng, next, leaf, &node.children, evaluated, out)?;
    }
    let table = table.filter(|t| !t.is_empty());
    out.extend(head.zip(table).map(|(h, t)| (t, h)));
    Ok(())
}

/// One step from a canonical table: the canonical table it leads to. A
/// grouped step runs [`grouped`]; a chain's first step (no Expand-Into)
/// takes its landed pairs as its table; any other step writes row by row
/// and, unless it keeps every column of a canonical table, normalises
/// once.
fn expand<'t>(
    eng: &GraphEngine<'_>,
    table: &Rows,
    step: &'t Step,
    evaluated: &mut Evaluated<'t>,
) -> Result<Rows> {
    let db = eng.db;
    eng.limits.poll()?;
    eng.limits.fault("engine.expand")?;
    let Step {
        start,
        hop,
        land,
        from,
        into,
        keep,
    } = step;
    let label = hop.label().filter(|_| from.is_some());
    let mut keyed: &[(NodeId, NodeId)] = &[];
    if label.is_none() {
        // Seeded on the walk side by the column walked from or the
        // start's nodes, and keyed by that side.
        let seeds = match *from {
            Some(f) => Some(table.column(f).collect::<Vec<_>>()),
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
                    flip(&mut keyed);
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
    // The nodes the hop reaches from `p` that carry `land`, ascending.
    let reach = |p: NodeId| {
        let (csr, run) = match label {
            Some((l, out)) => (neighbors(db, p, l, out), &[][..]),
            None => (&[][..], &keyed[keyed.partition_point(|x| x.0 < p)..]),
        };
        let run = run.iter().take_while(move |x| x.0 == p).map(|x| x.1);
        csr.iter().copied().chain(run).filter(move |&q| lands(q))
    };
    let (width, data) = (table.arity(), table.data());
    let mut record = Record { eng, recorded: 0 };
    if step.grouped(width) {
        let scratch = &mut eng.scratch.borrow_mut();
        let next = grouped(data, reach, scratch, &mut record)?;
        return Ok(Rows::canonical(2, next));
    }
    if width == 0 && into.is_none() && step.keeps_all(0) {
        // A chain's first step: its landed pairs are its table.
        let landed = keyed.iter().filter(|p| lands(p.1));
        let next: Vec<[NodeId; 2]> = landed.map(|&(p, q)| [p, q]).collect();
        record.batch(next.len())?;
        record.finish(next.len())?;
        return Ok(Rows::canonical(2, next.into_flattened()));
    }
    let reaches = |p: NodeId, q: NodeId| match label {
        Some((l, out)) => neighbors(db, p, l, out).binary_search(&q).is_ok(),
        None => keyed.binary_search(&(p, q)).is_ok(),
    };
    let (mut next, mut rows) = (Vec::new(), 0);
    for row in table.iter() {
        // Column `c` of the row extended by `p` and `q`.
        let at = |c: usize, p: NodeId, q: NodeId| match c.checked_sub(row.len()) {
            None => row[c],
            Some(0) if from.is_none() => p,
            Some(_) => q,
        };
        let mut emit = |p: NodeId, q: NodeId| {
            next.extend(keep.iter().map(|&k| at(k, p, q)));
            rows += 1;
        };
        match (*from, *into) {
            (Some(f), Some(c)) if lands(row[c]) && reaches(row[f], row[c]) => emit(row[f], row[c]),
            (Some(_), Some(_)) => {}
            (Some(f), None) => reach(row[f]).for_each(|q| emit(row[f], q)),
            (None, into) => keyed
                .iter()
                .filter(|&&(p, q)| lands(q) && into.is_none_or(|c| at(c, p, q) == q))
                .for_each(|&(p, q)| emit(p, q)),
        }
        record.batch(rows)?;
    }
    record.finish(rows)?;
    Ok(match step.keeps_all(width) {
        true => Rows::canonical(keep.len(), next),
        false => Rows::from_flat(keep.len(), rows, next),
    })
}

/// A grouped step over `(origin, current)` rows: every node `reach`
/// gives for a row's current node replaces it. The rows of one origin
/// form a group; its nodes are deduplicated by the engine's node marks, a
/// fresh epoch per group, and its rows sorted alone. One row's reach is
/// canonical already.
fn grouped<I: Iterator<Item = NodeId>>(
    data: &[NodeId],
    reach: impl Fn(NodeId) -> I,
    scratch: &mut Scratch,
    record: &mut Record<'_, '_>,
) -> Result<Vec<NodeId>> {
    let mut next: Vec<[NodeId; 2]> = Vec::new();
    for group in data.as_chunks::<2>().0.chunk_by(|a, b| a[0] == b[0]) {
        let (at, single) = (next.len(), group.len() == 1);
        if !single {
            scratch.next_epoch();
        }
        for &[origin, current] in group {
            let kept = reach(current).filter(|&q| single || scratch.mark(q));
            kept.for_each(|q| next.push([origin, q]));
            record.batch(next.len())?;
        }
        if !single {
            next[at..].sort_unstable_by_key(|row| row[1]);
        }
    }
    record.finish(next.len())?;
    Ok(next.into_flattened())
}

/// Records the rows a step writes as materialised pairs, one row one unit
/// of the budget, a batch of [`POLL_ROWS`] at a time between polls.
struct Record<'e, 'g> {
    eng: &'e GraphEngine<'g>,
    recorded: usize,
}

impl Record<'_, '_> {
    /// Records whole batches of the `rows` written so far.
    fn batch(&mut self, rows: usize) -> Result<()> {
        let (counters, limits) = (&self.eng.counters, &self.eng.limits);
        while rows - self.recorded >= POLL_ROWS {
            self.recorded += POLL_ROWS;
            counters.add_pairs(POLL_ROWS, limits)?;
            limits.poll()?;
        }
        Ok(())
    }

    /// Records the rest of the step's `rows`.
    fn finish(&mut self, rows: usize) -> Result<()> {
        let (counters, limits) = (&self.eng.counters, &self.eng.limits);
        counters.add_pairs(rows - std::mem::replace(&mut self.recorded, rows), limits)
    }
}

/// The nodes of a trie: the steps one run takes.
#[cfg(test)]
pub(crate) fn trie_size(nodes: &[Node]) -> usize {
    nodes.iter().map(|n| 1 + trie_size(&n.children)).sum()
}

/// The table width after each step of `cqt` walked from `start`.
#[cfg(test)]
pub(crate) fn widths(cqt: &Cqt, start: VarId) -> Vec<usize> {
    let steps = Pattern::of(cqt, start).steps;
    steps.iter().map(|s| s.keep.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::{eval::eval_path, parser::parse_path};
    use sgq_common::Rng;
    use sgq_core::pipeline::{rewrite_path, RewriteOptions};
    use sgq_datasets::{ldbc, yago};
    use sgq_graph::database::fig2_yago_database;
    use sgq_query::cqt::{LabelAtom, Relation};

    /// What the patterns of some queries walk, each in its query's
    /// direction.
    #[derive(Default)]
    struct Census {
        /// `<query> #<disjunct>` of every disjunct with an Expand-Into step.
        into: Vec<String>,
        unary_heads: usize,
        /// Steps that neither group nor keep every column.
        normalising: usize,
        directions: [bool; 2],
        /// Queries whose trie shares a step between two disjuncts.
        shared: Vec<String>,
    }

    impl Census {
        fn add(&mut self, name: &str, db: &GraphDatabase, query: &Ucqt) {
            let (forward, roots) = trie(db, query);
            self.directions[usize::from(forward)] = true;
            self.unary_heads += usize::from(query.head.len() == 1);
            let start = if forward {
                query.head[0]
            } else {
                query.head[query.head.len() - 1]
            };
            let mut steps = 0;
            for (i, cqt) in query.disjuncts.iter().enumerate() {
                let (pattern, mut width) = (Pattern::of(cqt, start), 0);
                steps += pattern.steps.len();
                if pattern.steps.iter().any(|s| s.into.is_some()) {
                    self.into.push(format!("{name} #{i}"));
                }
                for step in &pattern.steps {
                    let normalises = !step.grouped(width) && !step.keeps_all(width);
                    self.normalising += usize::from(normalises);
                    width = step.keep.len();
                }
            }
            if trie_size(&roots) < steps {
                self.shared.push(name.to_string());
            }
        }
    }

    /// Both catalogs at the benchmark's sizes, baseline and rewrite: every
    /// Expand-All step after the first groups, only two disjuncts (both
    /// cycles) close with an Expand-Into step, no head is unary, the walks
    /// go both ways and the unions that repeat a prefix share it. The
    /// engine's test shapes reach what the catalogs do not: unary heads
    /// and steps that normalise.
    #[test]
    fn catalog_census() {
        let (ls, ldb) = ldbc::generate(ldbc::LdbcConfig::at_scale(0.3));
        let (ys, ydb) = yago::generate(yago::YagoConfig::scaled(0.1));
        let mut census = Census::default();
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
                    census.add(&format!("{catalog} {} {side}", q.name), db, &query);
                }
            }
        }
        assert_eq!(census.into, ["LDBC IS7 S #1", "YAGO Y17 S #0"]);
        assert_eq!((census.unary_heads, census.normalising), (0, 0));
        assert_eq!(census.directions, [true, true], "walks go both ways");
        for name in ["YAGO Y4 S", "YAGO Y9 S", "LDBC IC1 S", "LDBC IS7 S"] {
            assert!(
                census.shared.iter().any(|s| s == name),
                "{name} shares no prefix: {:?}",
                census.shared
            );
        }

        let db = fig2_yago_database();
        let mut tests = Census::default();
        for (name, cqt) in crate::conjunctive::tests::shapes(&db) {
            tests.add(name, &db, &Ucqt::single(cqt));
        }
        assert!(tests.into.iter().any(|s| s.starts_with("triangle")));
        assert!(tests.into.iter().any(|s| s.starts_with("self-loop")));
        assert!(tests.unary_heads >= 3, "{}", tests.unary_heads);
        assert!(tests.normalising > 0);
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

    /// Expands `table` into `node`, then every child from what it
    /// reached: each step's table is the canonical set a brute-force step
    /// over `eval_path` gives, and a one-label step from a table counts
    /// exactly its distinct rows. Returns the steps that reached a row by
    /// two paths or more.
    fn check_steps<'t>(
        eng: &GraphEngine<'_>,
        table: &Rows,
        node: &'t Node,
        evaluated: &mut Evaluated<'t>,
    ) -> usize {
        let db = eng.db;
        let before = eng.pairs_materialized();
        let next = expand(eng, table, &node.step, evaluated).unwrap();
        let Step {
            start, hop, land, ..
        } = &node.step;
        let admits = |labels: &Option<LabelSet>, n: NodeId| {
            labels
                .as_ref()
                .is_none_or(|l| l.contains(&db.node_label(n)))
        };
        let mut pairs = eval_path(db, &hop.expr);
        if !hop.forward {
            pairs.iter_mut().for_each(|p| *p = (p.1, p.0));
        }
        // Chains: `(origin, current)` rows, or the start's nodes.
        let from: Vec<(NodeId, NodeId)> = match table.arity() {
            0 => db
                .node_ids()
                .filter(|&n| admits(start, n))
                .map(|n| (n, n))
                .collect(),
            _ => table.iter().map(|r| (r[0], r[1])).collect(),
        };
        let mut want = Vec::new();
        for &(origin, current) in &from {
            let reached = pairs
                .iter()
                .filter(|&&(m, n)| m == current && admits(land, n));
            want.extend(reached.map(|&(_, n)| [origin, n]));
        }
        let paths = want.len();
        want.sort_unstable();
        want.dedup();
        let rows: Vec<&[NodeId]> = next.iter().collect();
        assert!(rows.is_sorted_by(|a, b| a < b), "{:?}", hop.expr);
        assert!(rows.iter().eq(want.iter()), "{:?}", hop.expr);
        if table.arity() > 0 && hop.label().is_some() {
            let counted = eng.pairs_materialized() - before;
            assert_eq!(counted, next.len(), "{:?} counts distinct rows", hop.expr);
        }
        let children = node.children.iter();
        usize::from(paths > next.len())
            + children
                .map(|child| check_steps(eng, &next, child, evaluated))
                .sum::<usize>()
    }

    /// Whether a trie node ends a pattern and also has a child.
    fn leaf_with_child(nodes: &[Node]) -> bool {
        nodes
            .iter()
            .any(|n| (n.leaf.is_some() && !n.children.is_empty()) || leaf_with_child(&n.children))
    }

    /// On dense random graphs, step by step: one-label hops both ways, a
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
                let query = Ucqt {
                    head: disjuncts[0].head.clone(),
                    disjuncts,
                };
                let (forward, roots) = trie(&db, &query);
                directions[usize::from(forward)] = true;
                shared |= leaf_with_child(&roots);
                let (eng, mut evaluated) = (GraphEngine::new(&db), Vec::new());
                for root in &roots {
                    converged += check_steps(&eng, &Rows::unit(), root, &mut evaluated);
                }
            }
        }
        assert_eq!(directions, [true, true], "walks go both ways");
        assert!(shared, "no chain ended where another went on");
        assert!(converged > 0, "no step reached a row by two paths");
    }
}
