//! Cardinality estimation over [`sgq_graph::GraphStats`]: one step per
//! distinct operator node.
//!
//! **The step.** Everything the front end derives for a term node is
//! one `Summary`: the `Card` (estimated rows and a distinct-value
//! estimate per column), the cost split into a recursion-independent part
//! (paid once per fixpoint) and a recursion-dependent part (paid every
//! round), and the deepest closure bound of the edge labels underneath.
//! `Estimator::step` computes a node's summary from the node's own fields
//! and its children's columns and summaries — it never descends. The formulas, all off measured
//! statistics:
//!
//! * a label-filtered scan is estimated straight from the per-triple
//!   counts of its **label pedigree** — for a fully annotated scan the
//!   estimate is *exact* — and costed as the semi-join stack it stands
//!   for, so join ordering and the index-join race see either form alike;
//! * join selectivity is `1 / max(V(L,c), V(R,c))` over the tracked
//!   distinct counts (falling back to `min(|rel|, |V(G)|)` only when a
//!   column's provenance is unknown), an equality selection
//!   `1 / max(V(a), V(b))`, a generic semi-join the containment
//!   assumption;
//! * a fixpoint grows its base by half the deepest measured closure
//!   depth ([`sgq_graph::GraphStats::closure_depth`]) among the labels it
//!   iterates over, and multiplies only the recursion-dependent part of
//!   its step cost by that factor — the static part is computed (and, in
//!   the executor, cached) once;
//! * a recursive reference is estimated at the base case of the fixpoint
//!   that binds it, made by `Estimator::bind`.
//!
//! **Who folds.** An `Estimator` belongs to one `optimize` or `plan` call
//! and its term DAG ([`crate::term`]). `Estimator::summary` memoises each
//! node's summary per (node, binding frame): a static node under frame 0,
//! a node with free recursion variables under the frame of the enclosing
//! fixpoints' bindings. [`estimate`] is the root entry;
//! [`crate::plan::plan`] lowers its DAG reading the summaries — an operand
//! absorbed into an index join or a slice scan is summarised and
//! never lowered; [`mod@crate::optimize`] summarises every operand of a
//! join chain once and scores a greedy candidate once per pair of operand
//! summaries (`Estimator::join`). No caller re-enters the estimator for a
//! node it already has a summary of.
//!
//! **Pure.** A summary reads the term and the store's statistics and
//! nothing else — no observed cardinality, no state another execution
//! changes — so a statement plans the same way cold, warm and on every
//! worker (DESIGN.md, "Adaptive re-optimisation: the verdict").

use sgq_common::{ColId, EdgeLabelId, FxHashMap, NodeLabelId, RecVarId};

use crate::storage::RelStore;
use crate::term::{Dag, Id, NodeMemo, Op, RaTerm, ScanLabels};

/// An estimate for one term: output rows and cumulative cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cumulative cost (abstract units ≈ rows touched).
    pub cost: f64,
}

/// Fixpoint growth multiplier used when a fixpoint iterates over no
/// scannable edge label (no closure depth to measure).
const DEFAULT_FIXPOINT_GROWTH: f64 = 4.0;

/// Probe sides below this many rows stay serial at any degree of
/// parallelism. Dispatching a morsel costs tens of microseconds
/// (enqueue, wake, output merge) while probing costs tens of
/// nanoseconds per row, so a probe needs a few tens of thousands of
/// rows before splitting pays for itself; under the threshold the
/// executor never touches the scheduler. The same bound gates the
/// `parallel ×N` annotation in `EXPLAIN`, driven by the *estimated*
/// probe rows (a filtered scan's: its whole edge table).
pub const PARALLEL_ROW_THRESHOLD: usize = 16_384;

/// The q-error of an estimate against the observed cardinality:
/// `max(est, actual) / min(est, actual)` with both floored at one row, so
/// a perfect estimate scores 1.0 and the metric is symmetric between
/// over- and under-estimation.
pub fn q_error(est: f64, actual: f64) -> f64 {
    let e = est.max(1.0);
    let a = actual.max(1.0);
    (e / a).max(a / e)
}

/// Estimates `term` against the statistics in `store`, outside any
/// fixpoint (recursive references fall back to 1 row).
pub fn estimate(term: &RaTerm, store: &RelStore) -> Estimate {
    root(term, store).estimate()
}

/// The summary of `term`'s root, outside any fixpoint.
fn root(term: &RaTerm, store: &RelStore) -> Summary {
    let (dag, id) = Dag::of(term, false);
    let mut est = Estimator::new(store, dag.len().0);
    let s = est.summary(&dag, id);
    est.sums.swap_remove(s as usize)
}

/// Growth multiplier of a fixpoint whose subtree's deepest measured
/// closure bound is `depth`: half of it (a chain of depth `d` produces
/// about `d/2` times its base in closure pairs), clamped to `[1, 256]`;
/// [`DEFAULT_FIXPOINT_GROWTH`] when no edge label with edges is in scope.
fn fixpoint_growth(depth: usize) -> f64 {
    if depth == 0 {
        DEFAULT_FIXPOINT_GROWTH
    } else {
        (depth as f64 * 0.5).clamp(1.0, 256.0)
    }
}

/// Average number of CSR neighbours one index-join probe expands,
/// measured from the statistics: `|E(le)| / distinct sources` for a
/// forward probe (targets per source) or `/ distinct targets` for a
/// reverse probe; 0 for empty labels.
pub(crate) fn index_degree(store: &RelStore, label: EdgeLabelId, forward: bool) -> f64 {
    let st = &store.stats;
    let edges = st.edge_cardinality(label) as f64;
    let distinct = if forward {
        st.distinct_sources(label)
    } else {
        st.distinct_targets(label)
    } as f64;
    if distinct <= 0.0 {
        0.0
    } else {
        edges / distinct
    }
}

/// Cost of an index join: the probe side's own cost, one CSR lookup plus
/// its expansion per probe row (`1 + avg degree`), and the output. The
/// base-table scan and the hash build that a hash join pays
/// (`Σ cost + Σ rows + out`) are exactly what probing the CSR saves.
pub(crate) fn index_join_cost(probe: &Estimate, degree: f64, out_rows: f64) -> f64 {
    probe.cost + probe.rows * (1.0 + degree) + out_rows
}

/// Label pedigree of an edge scan: the columns its endpoints are named
/// after renames, and which node labels they are known (via semi-join
/// filters) to carry (a node passes when its label is in the list;
/// `None` = unrestricted). Also the scan a CSR index join absorbs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScanInfo {
    /// Edge label.
    pub label: EdgeLabelId,
    /// Source endpoint column.
    pub src: ColId,
    /// Target endpoint column.
    pub tgt: ColId,
    /// Node labels of the source endpoint.
    pub src_labels: Option<Box<[NodeLabelId]>>,
    /// Node labels of the target endpoint.
    pub tgt_labels: Option<Box<[NodeLabelId]>>,
}

impl ScanInfo {
    /// The pedigree of a scan node's fields.
    pub(crate) fn of(label: EdgeLabelId, src: ColId, tgt: ColId, ls: &ScanLabels) -> Self {
        let [src_labels, tgt_labels] = ls.as_deref().cloned().unwrap_or_default();
        ScanInfo {
            label,
            src,
            tgt,
            src_labels,
            tgt_labels,
        }
    }

    pub(crate) fn rename(&mut self, from: ColId, to: ColId) {
        if self.src == from {
            self.src = to;
        }
        if self.tgt == from {
            self.tgt = to;
        }
    }

    /// The endpoint a CSR in direction `forward` is keyed by (the source
    /// for the forward CSR), then the other: each column with its filter.
    pub fn endpoints(&self, forward: bool) -> [(ColId, Option<&[NodeLabelId]>); 2] {
        let src = (self.src, self.src_labels.as_deref());
        let tgt = (self.tgt, self.tgt_labels.as_deref());
        if forward {
            [src, tgt]
        } else {
            [tgt, src]
        }
    }
}

/// Cardinality description of one intermediate: estimated rows and
/// estimated distinct values per column.
#[derive(Debug, Clone, Default)]
struct Card {
    rows: f64,
    /// Per-column distinct-value estimates.
    distinct: Vec<(ColId, f64)>,
}

impl Card {
    fn plain(rows: f64) -> Card {
        Card {
            rows,
            ..Default::default()
        }
    }

    /// The distinct-value estimate for `c`, falling back to
    /// `min(rows, |V(G)|)` when the column's provenance is unknown.
    fn dv(&self, c: ColId, store: &RelStore) -> f64 {
        self.distinct
            .iter()
            .find(|(k, _)| *k == c)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| self.rows.min(nodes_f(store)))
    }

    fn cap_distinct(mut self) -> Card {
        for (_, v) in &mut self.distinct {
            *v = v.min(self.rows);
        }
        self
    }

    fn rename(&mut self, from: ColId, to: ColId) {
        for (c, _) in &mut self.distinct {
            if *c == from {
                *c = to;
            }
        }
    }
}

fn nodes_f(store: &RelStore) -> f64 {
    store.stats.node_count.max(1) as f64
}

/// The cardinality of a (possibly label-restricted) edge scan, straight
/// from the statistics: unrestricted scans read the per-label counts,
/// single-endpoint restrictions the per-`(src, le)` / `(le, tgt)`
/// aggregates, and doubly restricted scans the exact triple counts.
fn scan_card(
    le: EdgeLabelId,
    cols: [ColId; 2],
    labels: [Option<&[NodeLabelId]>; 2],
    store: &RelStore,
) -> Card {
    let st = &store.stats;
    let (rows, dsrc, dtgt) = match labels {
        [None, None] => (
            st.edge_cardinality(le) as f64,
            st.distinct_sources(le) as f64,
            st.distinct_targets(le) as f64,
        ),
        [Some(srcs), None] => {
            let (mut c, mut ds) = (0.0, 0.0);
            for &s in srcs {
                let g = st.source_group(s, le);
                c += g.count as f64;
                ds += g.distinct as f64;
            }
            (c, ds, (st.distinct_targets(le) as f64).min(c))
        }
        [None, Some(tgts)] => {
            let (mut c, mut dt) = (0.0, 0.0);
            for &t in tgts {
                let g = st.target_group(le, t);
                c += g.count as f64;
                dt += g.distinct as f64;
            }
            (c, (st.distinct_sources(le) as f64).min(c), dt)
        }
        [Some(srcs), Some(tgts)] => {
            let (mut c, mut ds, mut dt) = (0.0, 0.0, 0.0);
            for &s in srcs {
                for &t in tgts {
                    let ts = st.triple_stats(s, le, t);
                    c += ts.count as f64;
                    ds += ts.distinct_sources as f64;
                    dt += ts.distinct_targets as f64;
                }
            }
            (c, ds, dt)
        }
    };
    let [src, tgt] = cols;
    Card {
        rows,
        distinct: vec![(src, dsrc.min(rows)), (tgt, dtgt.min(rows))],
    }
}

/// Join output cardinality: `|L|·|R| / Π_c max(V(L,c), V(R,c))` over the
/// shared columns, with distinct-value counts from the tracked statistics.
fn join_card(a: &Card, b: &Card, shared: &[ColId], store: &RelStore) -> Card {
    let (la, lb) = (a.rows, b.rows);
    let mut rows = la * lb;
    for &c in shared {
        rows /= a.dv(c, store).max(b.dv(c, store)).max(1.0);
    }
    let mut distinct: Vec<(ColId, f64)> = Vec::new();
    for &(c, va) in &a.distinct {
        let v = if shared.contains(&c) {
            va.min(b.dv(c, store))
        } else {
            va
        };
        distinct.push((c, v));
    }
    for &(c, vb) in &b.distinct {
        if !distinct.iter().any(|(k, _)| *k == c) {
            distinct.push((c, vb));
        }
    }
    Card { rows, distinct }.cap_distinct()
}

/// Semi-join output cardinality by the containment assumption
/// `Π_c min(V(L,c), V(R,c)) / V(L,c)`. (A node-label filter on an edge
/// scan's endpoint is no semi-join: it is the scan's own label set, read
/// by `scan_card`.)
fn semijoin_card(a: &Card, b: &Card, shared: &[ColId], store: &RelStore) -> Card {
    let (la, lb) = (a.rows, b.rows);
    let mut frac = if shared.is_empty() {
        if lb > 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0
    };
    for &c in shared {
        let va = a.dv(c, store).max(1.0);
        let vb = b.dv(c, store);
        frac *= (vb.min(va) / va).min(1.0);
    }
    let mut out = a.clone();
    out.rows = la * frac;
    out.cap_distinct()
}

/// Everything estimation derives for one term node, computed by one
/// [`Estimator::step`] from the summaries of the node's children.
#[derive(Debug, Clone, Default)]
pub(crate) struct Summary {
    card: Card,
    /// Whether the subtree depends on an enclosing fixpoint's recursive
    /// reference (then its cost is paid every round).
    dep: bool,
    /// Cost of the recursion-independent part, paid once per fixpoint.
    st: f64,
    /// Cost of the recursion-dependent part, paid every round.
    dy: f64,
    /// Deepest measured closure bound among the subtree's edge labels.
    depth: usize,
}

impl Summary {
    /// A node over `kids` with `local` cost of its own: the node is
    /// dynamic as soon as any input depends on a recursive reference,
    /// and only then does its local cost join the per-round bucket.
    fn over(kids: &[&Summary], local: f64, card: Card) -> Summary {
        let dep = kids.iter().any(|k| k.dep);
        let st: f64 = kids.iter().map(|k| k.st).sum();
        let dy: f64 = kids.iter().map(|k| k.dy).sum();
        Summary {
            card,
            dep,
            st: if dep { st } else { st + local },
            dy: if dep { dy + local } else { dy },
            depth: kids.iter().map(|k| k.depth).max().unwrap_or(0),
        }
    }

    /// Estimated output rows.
    pub(crate) fn rows(&self) -> f64 {
        self.card.rows
    }

    /// Rows and cumulative cost of the subtree.
    pub(crate) fn estimate(&self) -> Estimate {
        Estimate {
            rows: self.card.rows,
            cost: self.st + self.dy,
        }
    }

    /// Growth multiplier of a fixpoint iterating over this subtree.
    pub(crate) fn growth(&self) -> f64 {
        fixpoint_growth(self.depth)
    }
}

#[cfg(test)]
thread_local! {
    /// Estimator steps taken on this thread, how many of them scored a
    /// greedy join candidate, and how many join chains the greedy ordered
    /// — what the one-step-per-node and order-once tests count.
    pub(crate) static STEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    pub(crate) static JOIN_STEPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    pub(crate) static REORDERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A binding made by [`Estimator::bind`], undone by [`Estimator::unbind`].
pub(crate) type Binding = (u32, Option<f64>);

/// The estimator of one `optimize` or `plan` call: the statistics of
/// `store`, the enclosing fixpoints' bindings, and every summary computed
/// so far, memoised per (node, binding).
pub(crate) struct Estimator<'a> {
    store: &'a RelStore,
    /// Per bound recursion variable: its base case's estimated rows, what
    /// a recursive reference is estimated at.
    bound: FxHashMap<RecVarId, f64>,
    /// The current binding frame (0: none), interned from the enclosing
    /// frame, the variable and its rows: the same bindings, the same frame.
    frame: u32,
    frames: FxHashMap<(u32, RecVarId, u64), u32>,
    /// Summaries, keyed by (node, frame) and, for a greedy join
    /// candidate, by its operands' summaries.
    sums: Vec<Summary>,
    memo: NodeMemo,
    joins: FxHashMap<(u32, u32), u32>,
}

impl std::ops::Index<u32> for Estimator<'_> {
    type Output = Summary;
    fn index(&self, s: u32) -> &Summary {
        &self.sums[s as usize]
    }
}

impl<'a> Estimator<'a> {
    /// An estimator outside any fixpoint, sized for a DAG of `nodes`.
    pub(crate) fn new(store: &'a RelStore, nodes: usize) -> Self {
        Estimator {
            store,
            bound: FxHashMap::default(),
            frame: 0,
            frames: FxHashMap::default(),
            sums: Vec::with_capacity(nodes),
            memo: NodeMemo::new(nodes),
            joins: FxHashMap::default(),
        }
    }

    /// Binds `var` to a base case of `base_rows` rows — how a fixpoint's
    /// step is estimated — until the matching [`Estimator::unbind`].
    pub(crate) fn bind(&mut self, var: RecVarId, base_rows: f64) -> Binding {
        let fresh = self.frames.len() as u32 + 1;
        let key = (self.frame, var, base_rows.to_bits());
        let frame = *self.frames.entry(key).or_insert(fresh);
        let shadowed = self.bound.insert(var, base_rows);
        (std::mem::replace(&mut self.frame, frame), shadowed)
    }

    /// Undoes [`Estimator::bind`], restoring any shadowed binding of the
    /// same variable.
    pub(crate) fn unbind(&mut self, var: RecVarId, (frame, shadowed): Binding) {
        self.frame = frame;
        match shadowed {
            Some(outer) => self.bound.insert(var, outer),
            None => self.bound.remove(&var),
        };
    }

    /// The memo key of node `id` under the current bindings.
    pub(crate) fn key(&self, dag: &Dag, id: Id) -> (Id, u32) {
        let frame = if dag.free(id).is_empty() {
            0
        } else {
            self.frame
        };
        (id, frame)
    }

    /// The summary of node `id` (an index into this estimator): one step
    /// per distinct (node, binding), children first.
    pub(crate) fn summary(&mut self, dag: &Dag, id: Id) -> u32 {
        let key = self.key(dag, id);
        if let Some(s) = self.memo.get(key) {
            return s;
        }
        let node = dag.node(id);
        let mut kids = [0; 2];
        if let Op::Fixpoint(var, base, step, _) = *node {
            kids[0] = self.summary(dag, base);
            let saved = self.bind(var, self[kids[0]].rows());
            kids[1] = self.summary(dag, step);
            self.unbind(var, saved);
        } else {
            for (i, k) in node.kids().enumerate() {
                kids[i] = self.summary(dag, k);
            }
        }
        let s = self.step(dag, id, kids);
        self.sums.push(s);
        let s = self.sums.len() as u32 - 1;
        self.memo.insert(key, s);
        s
    }

    /// Records summary `s` as node `key`'s, unless it has one: the score
    /// of the join candidate the optimiser built.
    pub(crate) fn assign(&mut self, key: (Id, u32), s: u32) {
        self.memo.insert(key, s);
    }

    /// The one estimation step: the summary of node `id` from its own
    /// fields, its children's columns and their summaries `kids`. Never
    /// descends into the children.
    fn step(&self, dag: &Dag, id: Id, kids: [u32; 2]) -> Summary {
        #[cfg(test)]
        STEPS.with(|n| n.set(n.get() + 1));
        let store = self.store;
        let mut cols = dag.node(id).kids().map(|k| dag.cols(k));
        let (ca, cb) = (
            cols.next().unwrap_or_default(),
            cols.next().unwrap_or_default(),
        );
        match dag.node(id) {
            Op::EdgeScan(label, src, tgt, ls) => {
                // Priced as the semi-join stack it stands for, the
                // target's filter innermost as the rewrite's atoms, listed
                // by variable, stack: a filter pays its node scan and both
                // inputs' rows.
                let [s, t] = ls
                    .as_deref()
                    .map_or([None, None], |[s, t]| [s.as_deref(), t.as_deref()]);
                let mut card = scan_card(*label, [*src, *tgt], [None, None], store);
                let mut cost = card.rows;
                for (labels, ends) in [(t, [None, t]), (s, [s, t])] {
                    let Some(labels) = labels else { continue };
                    cost += card.rows + 2.0 * node_rows(labels, store);
                    let rows = card.rows;
                    card = scan_card(*label, [*src, *tgt], ends, store);
                    card.rows = card.rows.min(rows);
                    card = card.cap_distinct();
                }
                Summary {
                    depth: store.stats.closure_depth(*label),
                    ..Summary::over(&[], cost, card)
                }
            }
            Op::NodeScan(labels, col) => {
                let rows = node_rows(labels, store);
                let distinct = vec![(*col, rows)];
                Summary::over(&[], rows, Card { rows, distinct })
            }
            Op::Join(..) => self.join_formula((ca, &self[kids[0]]), (cb, &self[kids[1]])),
            Op::Semijoin(..) => {
                let (a, b) = (&self[kids[0]], &self[kids[1]]);
                let shared = shared_cols(ca, cb);
                let card = semijoin_card(&a.card, &b.card, &shared, store);
                let local = a.card.rows + b.card.rows;
                Summary::over(&[a, b], local, card)
            }
            Op::Union(..) => {
                let (a, b) = (&self[kids[0]], &self[kids[1]]);
                let rows = a.card.rows + b.card.rows;
                let distinct = (a.card.distinct.iter())
                    .map(|&(c, va)| (c, va + b.card.dv(c, store)))
                    .collect();
                let card = Card { rows, distinct }.cap_distinct();
                Summary::over(&[a, b], rows, card)
            }
            Op::Project(_, cols) => {
                let p = &self[kids[0]];
                // Set semantics: the projection cannot produce more rows
                // than the product of its columns' distinct values.
                let prod: f64 = cols.iter().map(|&c| p.card.dv(c, store).max(1.0)).product();
                let distinct = (p.card.distinct.iter())
                    .filter(|(c, _)| cols.contains(c))
                    .copied()
                    .collect();
                let rows = p.card.rows.min(prod);
                let card = Card { rows, distinct }.cap_distinct();
                Summary::over(&[p], p.card.rows, card)
            }
            Op::Rename(_, from, to) => {
                // A positional no-op: rows and cost are the input's.
                let mut s = self[kids[0]].clone();
                s.card.rename(*from, *to);
                s
            }
            Op::Select(_, a, b) => {
                let p = &self[kids[0]];
                let v = p.card.dv(*a, store).max(p.card.dv(*b, store)).max(1.0);
                let mut card = p.card.clone();
                card.rows = p.card.rows / v;
                Summary::over(&[p], p.card.rows, card.cap_distinct())
            }
            Op::Fixpoint(_, _, _, stable) => {
                let (base, step) = (&self[kids[0]], &self[kids[1]]);
                let depth = base.depth.max(step.depth);
                let growth = fixpoint_growth(depth);
                let rows = base.card.rows * growth;
                // Stable columns keep the base's distinct values (every
                // round copies them unchanged); the others may range over
                // anything reachable.
                let nodes = nodes_f(store);
                let distinct = (base.card.distinct.iter())
                    .map(|&(c, v)| {
                        (
                            c,
                            if stable.contains(&c) {
                                v
                            } else {
                                rows.min(nodes)
                            },
                        )
                    })
                    .collect();
                let card = Card { rows, distinct }.cap_distinct();
                // The static step cost is paid once (the physical executor
                // caches those intermediates across rounds); only the
                // delta-dependent part multiplies with the iteration
                // count. The whole closure is as dynamic as its base.
                let total = base.st + base.dy + step.st + step.dy * growth + rows;
                Summary {
                    card,
                    dep: base.dep,
                    st: if base.dep { 0.0 } else { total },
                    dy: if base.dep { total } else { 0.0 },
                    depth,
                }
            }
            Op::RecRef(var, _) => Summary {
                // Estimated at the binding fixpoint's base case (1 row
                // when unbound: a step summarised in isolation).
                card: Card::plain(self.bound.get(var).copied().unwrap_or(1.0)),
                dep: true,
                ..Summary::default()
            },
        }
    }

    /// The summary of `a ⋈ b` from the operand nodes' summaries alone,
    /// once per pair of summaries — how greedy join ordering scores a
    /// candidate it has not built.
    pub(crate) fn join(&mut self, dag: &Dag, a: Id, b: Id) -> u32 {
        let (sa, sb) = (self.summary(dag, a), self.summary(dag, b));
        if let Some(&s) = self.joins.get(&(sa, sb)) {
            return s;
        }
        #[cfg(test)]
        for n in [&STEPS, &JOIN_STEPS] {
            n.with(|n| n.set(n.get() + 1));
        }
        let joined = self.join_formula((dag.cols(a), &self[sa]), (dag.cols(b), &self[sb]));
        self.sums.push(joined);
        let s = self.sums.len() as u32 - 1;
        self.joins.insert((sa, sb), s);
        s
    }

    /// The join formula over two operands' columns and summaries.
    fn join_formula(
        &self,
        (ca, a): (&[ColId], &Summary),
        (cb, b): (&[ColId], &Summary),
    ) -> Summary {
        let shared = shared_cols(ca, cb);
        let card = join_card(&a.card, &b.card, &shared, self.store);
        let local = a.card.rows + b.card.rows + card.rows;
        Summary::over(&[a, b], local, card)
    }
}

/// Rows of the union of the node tables of `labels`.
fn node_rows(labels: &[NodeLabelId], store: &RelStore) -> f64 {
    let rows = labels.iter().map(|&l| store.stats.label_cardinality(l));
    rows.sum::<usize>() as f64
}

/// Shared columns in left-schema order.
pub(crate) fn shared_cols(left: &[ColId], right: &[ColId]) -> Vec<ColId> {
    left.iter().filter(|c| right.contains(c)).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The summary of `term` with `var` bound to a base case of `rows`.
    fn bound(store: &RelStore, var: RecVarId, rows: f64, term: &RaTerm) -> Summary {
        let (dag, id) = Dag::of(term, false);
        let mut est = Estimator::new(store, dag.len().0);
        est.bind(var, rows);
        let s = est.summary(&dag, id);
        est.sums.swap_remove(s as usize)
    }

    #[test]
    fn scan_estimates_match_stats() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let e = estimate(&scan(&db, &store, "isLocatedIn", "x", "y"), &store);
        assert_eq!(e.rows, 4.0);
    }

    #[test]
    fn semijoin_reduces_estimate() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let base = scan(&db, &store, "isLocatedIn", "x", "y");
        let filtered = RaTerm::semijoin(base.clone(), node(&db, &store, "REGION", "x"));
        let e_base = estimate(&base, &store);
        let e_filtered = estimate(&filtered, &store);
        assert!(e_filtered.rows < e_base.rows);
        // Label-aware: exactly one isLocatedIn edge starts at a REGION.
        assert_eq!(e_filtered.rows, 1.0);
    }

    #[test]
    fn label_pedigree_estimates_triples_exactly() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        // isLocatedIn ⋉ CITY(x) ⋉ REGION(y) — the CITY→REGION triple.
        let t = RaTerm::semijoin(
            RaTerm::semijoin(
                scan(&db, &store, "isLocatedIn", "x", "y"),
                node(&db, &store, "CITY", "x"),
            ),
            node(&db, &store, "REGION", "y"),
        );
        assert_eq!(estimate(&t, &store).rows, 2.0);
        // An impossible triple estimates to zero rows.
        let t = RaTerm::semijoin(
            RaTerm::semijoin(
                scan(&db, &store, "isLocatedIn", "x", "y"),
                node(&db, &store, "COUNTRY", "x"),
            ),
            node(&db, &store, "CITY", "y"),
        );
        assert_eq!(estimate(&t, &store).rows, 0.0);
    }

    #[test]
    fn fixpoint_grows_estimate() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let inner = scan(&db, &store, "isLocatedIn", "x", "y");
        let e_inner = estimate(&inner, &store);
        let f = closure_fixpoint(s.recvar("X"), inner, s.col("x"), s.col("y"), s.col("m"));
        let e_fix = estimate(&f, &store);
        assert!(e_fix.rows > e_inner.rows);
        assert!(e_fix.cost > e_inner.cost);
    }

    #[test]
    fn fixpoint_growth_uses_measured_depth() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        // isLocatedIn: 4-node hierarchy → growth 2; actual closure is 8
        // rows from a 4-row base.
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isLocatedIn", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        assert_eq!(root(&f, &store).growth(), 2.0);
        assert_eq!(estimate(&f, &store).rows, 8.0);
        // owns: a single 2-node edge cannot compose — the closure is its
        // base, and the estimate says so.
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "owns", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        assert_eq!(root(&f, &store).growth(), 1.0);
        assert_eq!(estimate(&f, &store).rows, 1.0);
    }

    #[test]
    fn join_estimate_bounded_by_cartesian() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let j = RaTerm::join(
            scan(&db, &store, "isLocatedIn", "x", "y"),
            scan(&db, &store, "isLocatedIn", "y", "z"),
        );
        let e = estimate(&j, &store);
        assert!(e.rows <= 16.0);
        assert!(e.rows > 0.0);
    }

    #[test]
    fn join_uses_measured_distinct_counts() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        // isLocatedIn(x,y) ⋈ isLocatedIn(y,z): V(L,y) = 3 distinct
        // targets, V(R,y) = 4 distinct sources → 16 / 4 = 4.
        let j = RaTerm::join(
            scan(&db, &store, "isLocatedIn", "x", "y"),
            scan(&db, &store, "isLocatedIn", "y", "z"),
        );
        assert_eq!(estimate(&j, &store).rows, 4.0);
    }

    #[test]
    fn recref_inherits_enclosing_base_estimate() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let var = s.recvar("X");
        let recref = RaTerm::RecRef {
            var,
            cols: vec![s.col("x"), s.col("m")],
        };
        // Unbound: the old 1-row fallback.
        assert_eq!(estimate(&recref, &store).rows, 1.0);
        // Bound: the enclosing fixpoint's base estimate.
        assert_eq!(bound(&store, var, 4.0, &recref).rows(), 4.0);
        // Inside the canonical closure, the recursive join therefore sees
        // a 4-row left input instead of a 1-row one.
        let f = closure_fixpoint(
            var,
            scan(&db, &store, "isLocatedIn", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        let RaTerm::Fixpoint { step, .. } = &f else {
            panic!()
        };
        let e_step = bound(&store, var, 4.0, step).estimate();
        assert!(
            e_step.rows >= 4.0,
            "step estimate should reflect the recursive input: {e_step:?}"
        );
    }

    #[test]
    fn fixpoint_growth_skips_static_step_cost() {
        // The step of the canonical closure is π(X ⋈ ρ(scan)); the
        // renamed scan is recursion-independent, so its cost must be
        // paid once, not `growth` times.
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let var = s.recvar("X");
        let inner = scan(&db, &store, "isLocatedIn", "x", "y");
        let f = closure_fixpoint(var, inner, s.col("x"), s.col("y"), s.col("m"));
        let (RaTerm::Fixpoint { base, step, .. },) = (&f,) else {
            panic!()
        };
        let growth = root(&f, &store).growth();
        let eb = estimate(base, &store);
        let es = bound(&store, var, eb.rows, step).estimate();
        let e_fix = estimate(&f, &store);
        let naive = eb.cost + es.cost * growth + eb.rows * growth;
        assert!(
            e_fix.cost < naive,
            "static scan cost must not be multiplied: {} !< {naive}",
            e_fix.cost
        );
    }
}
