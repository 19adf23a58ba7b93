//! The recursive relational algebra term language.
//!
//! Terms follow µ-RA: scans, projection `π`, renaming `ρ`, natural join
//! `⋈`, semi-join `⋉`, union `∪` and the fixpoint `µX. base ∪ step(X)`.
//! The fixpoint node records which of its columns are *stable* — produced
//! unchanged from the recursive reference in every iteration — which is
//! what licenses pushing joins/semi-joins into the fixpoint
//! (Jachiet et al.'s key rewriting, used by [`crate::optimize`]).
//!
//! All column and recursion-variable names are interned ids (see
//! [`crate::symbols::SymbolTable`]), so comparing or hashing a term never
//! touches a string.
//!
//! **The term DAG.** [`crate::optimize::optimize`] and [`crate::plan()`]
//! each intern their input once into a per-call `Dag`: every distinct
//! node is stored once, under one id, with its output columns, its free
//! recursion variables and a rename-invariant *class*, all computed when
//! the node is added. Equal sub-terms are equal ids, so every column
//! lookup is O(1), a memo keyed by id (the estimator's summaries, the
//! optimiser's walks) visits each distinct sub-term once, and adding a
//! node-label semi-join on a scan endpoint adds the labelled scan: one
//! form whoever builds it. Two nodes share a class when they compute the
//! same rows up to a positional renaming of their columns: the same
//! operator and parameters over children of equal classes, with the
//! columns of the node, of its parameters and of each child, and its
//! recursion variables, numbered by first appearance. The schema
//! rewrite's disjuncts repeat sub-terms under fresh `m$` names; the
//! planner evaluates such a class once (DESIGN.md, "Shared sub-plans").
//! Nothing of a `Dag` outlives the call that built it: no interner is
//! process-global.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use sgq_common::hash::map_with_capacity;
use sgq_common::{ColId, EdgeLabelId, FxHashMap, FxHasher, NodeLabelId, RecVarId};
use sgq_graph::GraphStats;

/// A recursive relational algebra term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaTerm {
    /// Scan of the edge table for `label`, columns named `src`/`tgt`, of
    /// the edges whose endpoints carry one of the given node labels —
    /// the semi-joins [`RaTerm::as_semijoins`] (`None`: any; `[]`: none).
    EdgeScan {
        /// Edge label.
        label: EdgeLabelId,
        /// Output id of the `Sr` column.
        src: ColId,
        /// Output id of the `Tr` column.
        tgt: ColId,
        /// Node labels the source must carry.
        src_labels: Option<Box<[NodeLabelId]>>,
        /// Node labels the target must carry.
        tgt_labels: Option<Box<[NodeLabelId]>>,
    },
    /// Scan of the union of node tables for `labels`, column named `col`.
    NodeScan {
        /// Node labels (unioned).
        labels: Vec<NodeLabelId>,
        /// Output column id.
        col: ColId,
    },
    /// Natural join on shared column ids.
    Join(Box<RaTerm>, Box<RaTerm>),
    /// Semi-join: left rows with a match in right (on shared columns).
    Semijoin(Box<RaTerm>, Box<RaTerm>),
    /// Union (schemas must agree).
    Union(Box<RaTerm>, Box<RaTerm>),
    /// Projection with set semantics.
    Project {
        /// Input term.
        input: Box<RaTerm>,
        /// Retained columns.
        cols: Vec<ColId>,
    },
    /// Equality selection `σ_{a = b}` (keeps rows where the two columns
    /// coincide).
    Select {
        /// Input term.
        input: Box<RaTerm>,
        /// First column.
        a: ColId,
        /// Second column.
        b: ColId,
    },
    /// Column renaming `ρ_{from → to}`.
    Rename {
        /// Input term.
        input: Box<RaTerm>,
        /// Old column id.
        from: ColId,
        /// New column id.
        to: ColId,
    },
    /// Fixpoint `µ var. base ∪ step(var)` (step must be linear in `var`).
    Fixpoint {
        /// Recursion variable.
        var: RecVarId,
        /// Base case.
        base: Box<RaTerm>,
        /// Inductive step; refers to the previous iteration via
        /// [`RaTerm::RecRef`].
        step: Box<RaTerm>,
        /// Columns that every iteration copies unchanged from the
        /// recursive reference (e.g. the source column of a transitive
        /// closure). Joins on these columns may be pushed into `base`.
        stable: Vec<ColId>,
    },
    /// Reference to the enclosing fixpoint's current iteration, with its
    /// columns positionally renamed to `cols`.
    RecRef {
        /// Recursion variable.
        var: RecVarId,
        /// Positional column renaming.
        cols: Vec<ColId>,
    },
}

impl RaTerm {
    /// Convenience constructor: an `EdgeScan` with no label filter.
    pub fn edge_scan(label: EdgeLabelId, src: ColId, tgt: ColId) -> RaTerm {
        RaTerm::EdgeScan {
            label,
            src,
            tgt,
            src_labels: None,
            tgt_labels: None,
        }
    }

    /// The semi-join stack a label-filtered edge scan stands for: the
    /// bare scan under one `⋉ NodeScan` per filtered endpoint, the
    /// target's innermost (the order the estimator prices); `None` for
    /// any other term.
    pub fn as_semijoins(&self) -> Option<RaTerm> {
        let RaTerm::EdgeScan {
            label,
            src,
            tgt,
            src_labels,
            tgt_labels,
        } = self
        else {
            return None;
        };
        let mut term = RaTerm::edge_scan(*label, *src, *tgt);
        for (&col, labels) in [(tgt, tgt_labels), (src, src_labels)] {
            if let Some(labels) = labels {
                let labels = labels.to_vec();
                term = RaTerm::semijoin(term, RaTerm::NodeScan { labels, col });
            }
        }
        (src_labels.is_some() || tgt_labels.is_some()).then_some(term)
    }

    /// Restricts the endpoint named `col` of this scan, or of the scan
    /// under this projection, to `labels` (intersecting); a scan whose
    /// endpoints are one column, and any other term, are left as they are.
    pub fn restrict_endpoint(&mut self, col: ColId, labels: &[NodeLabelId]) {
        match self {
            RaTerm::Project { input, .. } => input.restrict_endpoint(col, labels),
            RaTerm::EdgeScan {
                src,
                tgt,
                src_labels,
                tgt_labels,
                ..
            } if src != tgt => match col {
                c if c == *src => restrict(src_labels, labels),
                c if c == *tgt => restrict(tgt_labels, labels),
                _ => {}
            },
            _ => {}
        }
    }

    /// Convenience constructor: `Join`.
    pub fn join(a: RaTerm, b: RaTerm) -> RaTerm {
        RaTerm::Join(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: `Semijoin`.
    pub fn semijoin(a: RaTerm, b: RaTerm) -> RaTerm {
        RaTerm::Semijoin(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: `Union`.
    pub fn union(a: RaTerm, b: RaTerm) -> RaTerm {
        RaTerm::Union(Box::new(a), Box::new(b))
    }

    /// Convenience constructor: `Project`.
    pub fn project(input: RaTerm, cols: Vec<ColId>) -> RaTerm {
        RaTerm::Project {
            input: Box::new(input),
            cols,
        }
    }

    /// Convenience constructor: `Select` (equality).
    pub fn select_eq(input: RaTerm, a: ColId, b: ColId) -> RaTerm {
        RaTerm::Select {
            input: Box::new(input),
            a,
            b,
        }
    }

    /// The output columns of the term. Recursive references resolve to
    /// their declared positional columns.
    pub fn cols(&self) -> Vec<ColId> {
        match self {
            RaTerm::EdgeScan { src, tgt, .. } => vec![*src, *tgt],
            RaTerm::NodeScan { col, .. } => vec![*col],
            RaTerm::Join(a, b) => {
                let mut out = a.cols();
                for c in b.cols() {
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
                out
            }
            RaTerm::Semijoin(a, _) => a.cols(),
            RaTerm::Union(a, _) => a.cols(),
            RaTerm::Project { cols, .. } => cols.clone(),
            RaTerm::Select { input, .. } => input.cols(),
            RaTerm::Rename { input, from, to } => input
                .cols()
                .into_iter()
                .map(|c| if c == *from { *to } else { c })
                .collect(),
            RaTerm::Fixpoint { base, .. } => base.cols(),
            RaTerm::RecRef { cols, .. } => cols.clone(),
        }
    }

    /// Whether the term contains a fixpoint (recursive query).
    pub fn is_recursive(&self) -> bool {
        match self {
            RaTerm::EdgeScan { .. } | RaTerm::NodeScan { .. } | RaTerm::RecRef { .. } => false,
            RaTerm::Fixpoint { .. } => true,
            RaTerm::Join(a, b) | RaTerm::Semijoin(a, b) | RaTerm::Union(a, b) => {
                a.is_recursive() || b.is_recursive()
            }
            RaTerm::Project { input, .. }
            | RaTerm::Rename { input, .. }
            | RaTerm::Select { input, .. } => input.is_recursive(),
        }
    }

    /// Number of operator nodes.
    pub fn size(&self) -> usize {
        match self {
            RaTerm::EdgeScan { .. } | RaTerm::NodeScan { .. } | RaTerm::RecRef { .. } => 1,
            RaTerm::Join(a, b) | RaTerm::Semijoin(a, b) | RaTerm::Union(a, b) => {
                1 + a.size() + b.size()
            }
            RaTerm::Project { input, .. }
            | RaTerm::Rename { input, .. }
            | RaTerm::Select { input, .. } => 1 + input.size(),
            RaTerm::Fixpoint { base, step, .. } => 1 + base.size() + step.size(),
        }
    }

    /// Number of distinct operator nodes: what [`RaTerm::size`] counts
    /// once the term is interned, so a repeated sub-term counts once.
    pub fn distinct(&self) -> usize {
        Dag::of(self, false, None).0.len().0
    }
}

/// Index of a node in a [`Dag`].
pub(crate) type Id = u32;

/// An edge scan endpoint's label filter (`None`: unrestricted), and the
/// source's and target's, boxed so that a scan — `None` when it has
/// neither — is no larger than the other operators.
pub(crate) type Labels = Option<Box<[NodeLabelId]>>;
pub(crate) type ScanLabels = Option<Box<[Labels; 2]>>;

/// One interned operator: a [`RaTerm`] node whose children are ids, its
/// fields in the [`RaTerm`] variant's order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    EdgeScan(EdgeLabelId, ColId, ColId, ScanLabels),
    NodeScan(Vec<NodeLabelId>, ColId),
    Join(Id, Id),
    Semijoin(Id, Id),
    Union(Id, Id),
    Project(Id, Vec<ColId>),
    Select(Id, ColId, ColId),
    Rename(Id, ColId, ColId),
    Fixpoint(RecVarId, Id, Id, Vec<ColId>),
    RecRef(RecVarId, Vec<ColId>),
}

impl Op {
    /// The children, in order (a fixpoint's base, then its step).
    pub(crate) fn kids(&self) -> impl Iterator<Item = Id> {
        let pair = match *self {
            Op::EdgeScan(..) | Op::NodeScan(..) | Op::RecRef(..) => [None, None],
            Op::Project(i, _) | Op::Select(i, ..) | Op::Rename(i, ..) => [Some(i), None],
            Op::Join(a, b) | Op::Semijoin(a, b) | Op::Union(a, b) | Op::Fixpoint(_, a, b, _) => {
                [Some(a), Some(b)]
            }
        };
        pair.into_iter().flatten()
    }

    /// The same operator over the children `kids`, in [`Op::kids`] order.
    pub(crate) fn with_kids(&self, kids: &[Id]) -> Op {
        let mut op = self.clone();
        match &mut op {
            Op::EdgeScan(..) | Op::NodeScan(..) | Op::RecRef(..) => {}
            Op::Project(i, _) | Op::Select(i, ..) | Op::Rename(i, ..) => *i = kids[0],
            Op::Join(a, b) | Op::Semijoin(a, b) | Op::Union(a, b) | Op::Fixpoint(_, a, b, _) => {
                (*a, *b) = (kids[0], kids[1])
            }
        }
        op
    }
}

/// A hash-consed term: each distinct node once, with its output columns,
/// free recursion variables and rename-invariant class. Columns,
/// variables and class keys live back to back in flat pools, and the two
/// indexes map a hash to an id (a collision probes the next hash), so a
/// node's metadata costs no allocation of its own.
#[derive(Default)]
pub(crate) struct Dag<'s> {
    /// The statistics that prove an endpoint label filter vacuous
    /// ([`Dag::of`]), if the DAG drops such filters.
    stats: Option<&'s GraphStats>,
    nodes: Vec<Op>,
    /// Per node: its columns' and free variables' spans of the pools, and
    /// its class.
    meta: Vec<(Span, Span, u32)>,
    cols: Vec<ColId>,
    vars: Vec<RecVarId>,
    index: FxHashMap<u64, Id>,
    /// Whether interning folded a semi-join: the root's tree is new.
    pub(crate) folded: bool,
    /// Whether nodes get classes; the class keys back to back (class
    /// `c`'s ends at `key_ends[c]`), and scratch for the next key.
    classify: bool,
    keys: Vec<u32>,
    key_ends: Vec<u32>,
    classes: FxHashMap<u64, u32>,
    key: Vec<u32>,
}

impl<'s> Dag<'s> {
    /// A DAG holding `term`, and the root's id. Only a DAG made with
    /// `classes` gives its nodes classes: the planner shares sub-plans by
    /// them, the optimiser never asks. One made with `stats` drops every
    /// endpoint label filter that every edge of its label passes
    /// ([`GraphStats::covers`]): the same rows, and sub-terms that differed
    /// only by it become one node.
    pub(crate) fn of(term: &RaTerm, classes: bool, stats: Option<&'s GraphStats>) -> (Self, Id) {
        let n = term.size();
        let k = if classes { n } else { 0 };
        let mut dag = Dag {
            stats,
            nodes: Vec::with_capacity(n),
            meta: Vec::with_capacity(n),
            cols: Vec::with_capacity(2 * n),
            index: map_with_capacity(n),
            classify: classes,
            keys: Vec::with_capacity(8 * k),
            key_ends: Vec::with_capacity(k),
            classes: map_with_capacity(k),
            ..Dag::default()
        };
        let root = dag.intern(term);
        (dag, root)
    }

    /// Interns `term` bottom-up; returns its root's id. A label filter on
    /// a scan endpoint folds on the tree, before either side is interned,
    /// so the DAG holds no node the fold leaves unreachable.
    fn intern(&mut self, term: &RaTerm) -> Id {
        let op = match term {
            RaTerm::EdgeScan { .. } => scan_op(term).expect("an edge scan"),
            RaTerm::NodeScan { labels, col } => Op::NodeScan(labels.clone(), *col),
            RaTerm::Join(a, b) => Op::Join(self.intern(a), self.intern(b)),
            RaTerm::Semijoin(a, b) => match scan_op(term) {
                Some(scan) => {
                    self.folded = true;
                    scan
                }
                None => Op::Semijoin(self.intern(a), self.intern(b)),
            },
            RaTerm::Union(a, b) => Op::Union(self.intern(a), self.intern(b)),
            RaTerm::Project { input, cols } => Op::Project(self.intern(input), cols.clone()),
            RaTerm::Select { input, a, b } => Op::Select(self.intern(input), *a, *b),
            RaTerm::Rename { input, from, to } => Op::Rename(self.intern(input), *from, *to),
            RaTerm::Fixpoint {
                var,
                base,
                step,
                stable,
            } => Op::Fixpoint(*var, self.intern(base), self.intern(step), stable.clone()),
            RaTerm::RecRef { var, cols } => Op::RecRef(*var, cols.clone()),
        };
        self.add(op)
    }

    /// The id of `op`, adding it if it is new — the labelled scan for a
    /// node-label semi-join on a scan endpoint ([`Dag::labelled_scan`]).
    pub(crate) fn add(&mut self, op: Op) -> Id {
        if let Some(scan) = self.labelled_scan(&op).or_else(|| self.pruned_scan(&op)) {
            self.folded = true;
            return self.add(scan);
        }
        let id = self.nodes.len() as Id;
        let mut h = hash(&op);
        loop {
            match self.index.entry(h) {
                Entry::Occupied(e) if self.nodes[*e.get() as usize] == op => return *e.get(),
                Entry::Occupied(_) => h = h.wrapping_add(1),
                Entry::Vacant(e) => {
                    e.insert(id);
                    break;
                }
            }
        }
        let c0 = self.cols.len();
        match &op {
            Op::EdgeScan(_, src, tgt, ..) => self.cols.extend([*src, *tgt]),
            Op::NodeScan(_, col) => self.cols.push(*col),
            Op::Project(_, cols) | Op::RecRef(_, cols) => self.cols.extend_from_slice(cols),
            &Op::Rename(input, from, to) => {
                for i in span(self.meta[input as usize].0) {
                    let c = self.cols[i];
                    self.cols.push(if c == from { to } else { c });
                }
            }
            op => {
                let first = op.kids().next().expect("has an input");
                let left = span(self.meta[first as usize].0);
                self.cols.extend_from_within(left.clone());
                // A join appends the right side's new columns.
                if let Op::Join(_, b) = *op {
                    for i in span(self.meta[b as usize].0) {
                        let c = self.cols[i];
                        if !self.cols[left.clone()].contains(&c) {
                            self.cols.push(c);
                        }
                    }
                }
            }
        }
        let v0 = self.vars.len();
        for k in op.kids() {
            for i in span(self.meta[k as usize].1) {
                let v = self.vars[i];
                if !self.vars[v0..].contains(&v) {
                    self.vars.push(v);
                }
            }
        }
        match op {
            Op::Fixpoint(var, ..) => {
                if let Some(p) = self.vars[v0..].iter().position(|&v| v == var) {
                    self.vars.remove(v0 + p);
                }
            }
            Op::RecRef(var, _) => self.vars.push(var),
            _ => {}
        }
        let span_of = |start: usize, end: usize| (start as u32, end as u32);
        let spans = (span_of(c0, self.cols.len()), span_of(v0, self.vars.len()));
        self.meta.push((spans.0, spans.1, 0));
        self.nodes.push(op);
        if self.classify {
            self.meta[id as usize].2 = self.class_of(id);
        }
        id
    }

    /// The labelled scan `op` is, if it is `scan ⋉ NodeScan` on one
    /// endpoint of a scan whose endpoints are distinct columns.
    fn labelled_scan(&self, op: &Op) -> Option<Op> {
        let &Op::Semijoin(a, b) = op else {
            return None;
        };
        let Op::NodeScan(labels, col) = self.node(b) else {
            return None;
        };
        restrict_scan(self.node(a), labels, *col)
    }

    /// The labelled scan `op` without the endpoint filters the DAG's
    /// statistics prove vacuous, if it has any.
    fn pruned_scan(&self, op: &Op) -> Option<Op> {
        let (stats, Op::EdgeScan(label, src, tgt, Some(ls))) = (self.stats?, op) else {
            return None;
        };
        let vacuous = |end: usize| {
            ls[end]
                .as_deref()
                .is_some_and(|l| stats.covers(*label, end == 1, l))
        };
        let ends = [0, 1].map(|end| ls[end].clone().filter(|_| !vacuous(end)));
        let kept = ends.iter().any(Option::is_some).then(|| Box::new(ends));
        (kept.as_ref() != Some(ls)).then_some(Op::EdgeScan(*label, *src, *tgt, kept))
    }

    /// The class of node `id`, whose children have theirs. Its key is the
    /// operator, its labels and its children's classes, plus where each
    /// column the node names — its own, its parameters', a later child's —
    /// and each later child's free recursion variable sits among the first
    /// child's (`u32::MAX`: a new one). Equal keys therefore mean equal
    /// rows up to a positional renaming.
    fn class_of(&mut self, id: Id) -> u32 {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        let class = |k: Id| self.class(k);
        match *self.node(id) {
            Op::EdgeScan(label, src, tgt, ref ls) => {
                key.extend([0, label.raw(), (src == tgt) as u32]);
                for labels in ls.iter().flat_map(|ends| ends.iter()) {
                    // `u32::MAX`: unrestricted, else the list's length.
                    key.push(labels.as_ref().map_or(u32::MAX, |v| v.len() as u32));
                    key.extend(labels.iter().flatten().map(|l| l.raw()));
                }
            }
            Op::NodeScan(ref labels, _) => {
                key.extend([1, labels.len() as u32]);
                key.extend(labels.iter().map(|l| l.raw()));
            }
            Op::Join(a, b) | Op::Semijoin(a, b) | Op::Union(a, b) => {
                let tag = match self.node(id) {
                    Op::Join(..) => 2,
                    Op::Semijoin(..) => 3,
                    _ => 4,
                };
                key.extend([tag, class(a), class(b)]);
                positions(&mut key, self.cols(b), self.cols(a));
                positions(&mut key, self.free(b), self.free(a));
            }
            Op::Project(input, ref cols) => {
                key.extend([5, class(input)]);
                positions(&mut key, cols, self.cols(input));
            }
            Op::Select(input, a, b) | Op::Rename(input, a, b) => {
                let tag = if matches!(self.node(id), Op::Select(..)) {
                    6
                } else {
                    7
                };
                key.extend([tag, class(input)]);
                positions(&mut key, &[a, b], self.cols(input));
            }
            Op::Fixpoint(var, base, step, ref stable) => {
                key.extend([8, class(base), class(step)]);
                positions(&mut key, stable, self.cols(base));
                positions(&mut key, self.cols(step), self.cols(base));
                positions(&mut key, self.free(step), self.free(base));
                positions(&mut key, &[var], self.free(step));
            }
            Op::RecRef(_, ref cols) => {
                key.push(9);
                positions(&mut key, cols, cols);
            }
        }
        let mut h = hash(&key);
        let class = loop {
            let fresh = self.key_ends.len() as u32;
            match self.classes.entry(h) {
                Entry::Occupied(e) => {
                    let c = *e.get();
                    let start = c.checked_sub(1).map_or(0, |p| self.key_ends[p as usize]);
                    if self.keys[span((start, self.key_ends[c as usize]))] == key {
                        break c;
                    }
                    h = h.wrapping_add(1);
                }
                Entry::Vacant(e) => {
                    e.insert(fresh);
                    self.keys.extend_from_slice(&key);
                    self.key_ends.push(self.keys.len() as u32);
                    break fresh;
                }
            }
        };
        self.key = key;
        class
    }

    /// The node `id`.
    pub(crate) fn node(&self, id: Id) -> &Op {
        &self.nodes[id as usize]
    }

    /// Output columns of `id`, in order.
    pub(crate) fn cols(&self, id: Id) -> &[ColId] {
        &self.cols[span(self.meta[id as usize].0)]
    }

    /// Free recursion variables of `id`, in order of first appearance
    /// (empty: the sub-term is static).
    pub(crate) fn free(&self, id: Id) -> &[RecVarId] {
        &self.vars[span(self.meta[id as usize].1)]
    }

    /// The rename-invariant class of `id`.
    pub(crate) fn class(&self, id: Id) -> u32 {
        self.meta[id as usize].2
    }

    /// How many distinct nodes the DAG holds, and how many classes.
    pub(crate) fn len(&self) -> (usize, usize) {
        (self.nodes.len(), self.key_ends.len())
    }

    /// The tree `id` denotes.
    pub(crate) fn term(&self, id: Id) -> RaTerm {
        let t = |k: Id| self.term(k);
        match self.node(id).clone() {
            Op::EdgeScan(label, src, tgt, ls) => {
                let [src_labels, tgt_labels] = ls.map_or_else(Default::default, |ends| *ends);
                RaTerm::EdgeScan {
                    label,
                    src,
                    tgt,
                    src_labels,
                    tgt_labels,
                }
            }
            Op::NodeScan(labels, col) => RaTerm::NodeScan { labels, col },
            Op::Join(a, b) => RaTerm::join(t(a), t(b)),
            Op::Semijoin(a, b) => RaTerm::semijoin(t(a), t(b)),
            Op::Union(a, b) => RaTerm::union(t(a), t(b)),
            Op::Project(i, cols) => RaTerm::project(t(i), cols),
            Op::Select(i, a, b) => RaTerm::select_eq(t(i), a, b),
            Op::Rename(i, from, to) => rename(t(i), from, to),
            Op::Fixpoint(var, base, step, stable) => RaTerm::Fixpoint {
                var,
                base: Box::new(t(base)),
                step: Box::new(t(step)),
                stable,
            },
            Op::RecRef(var, cols) => RaTerm::RecRef { var, cols },
        }
    }
}

/// A memo over a DAG's nodes under recursion-binding frames, keyed as
/// `Estimator::key` makes the keys: a vector for frame 0 — every static
/// node's — and a hash map for the rest.
pub(crate) struct NodeMemo {
    fixed: Vec<u32>,
    bound: FxHashMap<(Id, u32), u32>,
}

impl NodeMemo {
    /// An empty memo sized for `nodes` static keys.
    pub(crate) fn new(nodes: usize) -> Self {
        NodeMemo {
            fixed: vec![u32::MAX; nodes],
            bound: FxHashMap::default(),
        }
    }

    pub(crate) fn get(&self, (id, frame): (Id, u32)) -> Option<u32> {
        match frame {
            0 => self
                .fixed
                .get(id as usize)
                .copied()
                .filter(|&v| v != u32::MAX),
            _ => self.bound.get(&(id, frame)).copied(),
        }
    }

    /// Sets `key`'s value unless it has one.
    pub(crate) fn insert(&mut self, key: (Id, u32), v: u32) {
        let (id, frame) = (key.0 as usize, key.1);
        if frame != 0 {
            self.bound.entry(key).or_insert(v);
        } else if self.fixed.get(id).is_none_or(|&old| old == u32::MAX) {
            if self.fixed.len() <= id {
                self.fixed.resize(id + 1, u32::MAX);
            }
            self.fixed[id] = v;
        }
    }
}

/// Restricts an endpoint's label set to `labels`: the intersection, in
/// the order of the earlier restriction (`None`: none yet).
pub(crate) fn restrict(slot: &mut Labels, labels: &[NodeLabelId]) {
    let keep = |l: &&NodeLabelId| labels.contains(l);
    *slot = Some(match slot.take() {
        Some(prev) => prev.iter().filter(keep).copied().collect(),
        None => labels.into(),
    });
}

/// The scan operator `term` interns to, if it is an edge scan or a stack
/// of label filters that [`Dag::labelled_scan`] folds into one.
fn scan_op(term: &RaTerm) -> Option<Op> {
    match term {
        RaTerm::EdgeScan {
            label,
            src,
            tgt,
            src_labels,
            tgt_labels,
        } => {
            let both = src_labels.is_some() || tgt_labels.is_some();
            let ls = both.then(|| Box::new([src_labels.clone(), tgt_labels.clone()]));
            Some(Op::EdgeScan(*label, *src, *tgt, ls))
        }
        RaTerm::Semijoin(a, b) => {
            let RaTerm::NodeScan { labels, col } = &**b else {
                return None;
            };
            restrict_scan(&scan_op(a)?, labels, *col)
        }
        _ => None,
    }
}

/// Scan `op` with its endpoint `col` restricted to `labels`; `None`
/// unless `op` is a scan whose endpoints are distinct columns, one of
/// them `col`.
fn restrict_scan(op: &Op, labels: &[NodeLabelId], col: ColId) -> Option<Op> {
    let Op::EdgeScan(label, src, tgt, ls) = op else {
        return None;
    };
    if src == tgt || (col != *src && col != *tgt) {
        return None;
    }
    let mut sets = ls.clone().unwrap_or_default();
    restrict(&mut sets[(col == *tgt) as usize], labels);
    Some(Op::EdgeScan(*label, *src, *tgt, Some(sets)))
}

/// A `start..end` range of one of a [`Dag`]'s pools.
type Span = (u32, u32);

fn span((start, end): Span) -> std::ops::Range<usize> {
    start as usize..end as usize
}

fn hash<T: Hash>(x: &T) -> u64 {
    let mut h = FxHasher::default();
    x.hash(&mut h);
    h.finish()
}

/// Appends `ids`' length and where each sits in `within` (`u32::MAX`:
/// absent).
fn positions<T: PartialEq>(key: &mut Vec<u32>, ids: &[T], within: &[T]) {
    key.push(ids.len() as u32);
    for id in ids {
        let at = within.iter().position(|w| w == id);
        key.push(at.map_or(u32::MAX, |p| p as u32));
    }
}

/// Builds the canonical transitive-closure fixpoint for a binary term
/// `inner(src, tgt)`:
///
/// ```text
/// µX(src,tgt). inner ∪ π_{src,tgt}( X(src,m) ⋈ inner(m,tgt) )
/// ```
///
/// `src` is stable (every iteration keeps the original source), so
/// joins/semi-joins on `src` may later be pushed into the base.
pub fn closure_fixpoint(
    var: RecVarId,
    inner: RaTerm,
    src: ColId,
    tgt: ColId,
    mid: ColId,
) -> RaTerm {
    let step_inner = rename_binary(inner.clone(), src, tgt, mid, tgt);
    let step = RaTerm::project(
        RaTerm::join(
            RaTerm::RecRef {
                var,
                cols: vec![src, mid],
            },
            step_inner,
        ),
        vec![src, tgt],
    );
    RaTerm::Fixpoint {
        var,
        base: Box::new(inner),
        step: Box::new(step),
        stable: vec![src],
    }
}

/// Renames the two columns of a binary term.
pub fn rename_binary(
    term: RaTerm,
    old_src: ColId,
    old_tgt: ColId,
    src: ColId,
    tgt: ColId,
) -> RaTerm {
    let mut t = term;
    if old_src != src {
        t = rename(t, old_src, src);
    }
    if old_tgt != tgt {
        t = rename(t, old_tgt, tgt);
    }
    t
}

fn rename(input: RaTerm, from: ColId, to: ColId) -> RaTerm {
    let input = Box::new(input);
    RaTerm::Rename { input, from, to }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SymbolTable;

    fn scan(s: &SymbolTable, src: &str, tgt: &str) -> RaTerm {
        RaTerm::edge_scan(EdgeLabelId::new(0), s.col(src), s.col(tgt))
    }

    #[test]
    fn cols_propagate() {
        let s = SymbolTable::new();
        let (x, y, z) = (s.col("x"), s.col("y"), s.col("z"));
        let j = RaTerm::join(scan(&s, "x", "y"), scan(&s, "y", "z"));
        assert_eq!(j.cols(), vec![x, y, z]);
        let p = RaTerm::project(j, vec![x, z]);
        assert_eq!(p.cols(), vec![x, z]);
    }

    #[test]
    fn closure_shape() {
        let s = SymbolTable::new();
        let (x, y, m) = (s.col("x"), s.col("y"), s.col("m"));
        let f = closure_fixpoint(s.recvar("X"), scan(&s, "x", "y"), x, y, m);
        assert!(f.is_recursive());
        assert_eq!(f.cols(), vec![x, y]);
        match &f {
            RaTerm::Fixpoint { stable, .. } => assert_eq!(stable, &[x]),
            _ => panic!(),
        }
    }

    #[test]
    fn rename_cols() {
        let s = SymbolTable::new();
        let x = s.col("x");
        let r = RaTerm::Rename {
            input: Box::new(scan(&s, "Sr", "Tr")),
            from: SymbolTable::SR,
            to: x,
        };
        assert_eq!(r.cols(), vec![x, SymbolTable::TR]);
    }

    /// `term`'s root once interned, and the DAG's tree of it.
    fn interned(term: &RaTerm) -> (Op, RaTerm) {
        let (dag, root) = Dag::of(term, true, None);
        (dag.node(root).clone(), dag.term(root))
    }

    fn node(labels: &[u32], col: ColId) -> RaTerm {
        let labels = labels.iter().map(|&l| NodeLabelId::new(l)).collect();
        RaTerm::NodeScan { labels, col }
    }

    fn labelled(s: &SymbolTable, src: Option<&[u32]>, tgt: Option<&[u32]>) -> RaTerm {
        let ids =
            |ls: Option<&[u32]>| ls.map(|ls| ls.iter().map(|&l| NodeLabelId::new(l)).collect());
        RaTerm::EdgeScan {
            label: EdgeLabelId::new(0),
            src: s.col("x"),
            tgt: s.col("y"),
            src_labels: ids(src),
            tgt_labels: ids(tgt),
        }
    }

    #[test]
    fn a_node_label_semijoin_on_an_endpoint_interns_as_the_labelled_scan() {
        let s = SymbolTable::new();
        let (x, y) = (s.col("x"), s.col("y"));
        for (col, want) in [
            (x, labelled(&s, Some(&[1, 2]), None)),
            (y, labelled(&s, None, Some(&[1, 2]))),
        ] {
            let t = RaTerm::semijoin(scan(&s, "x", "y"), node(&[1, 2], col));
            let (op, term) = interned(&t);
            assert!(matches!(op, Op::EdgeScan(..)), "{op:?}");
            assert_eq!(term, want);
            assert_eq!(t.distinct(), 1, "the fold alone");
            assert_eq!(want.as_semijoins(), Some(t));
        }
    }

    #[test]
    fn stacked_label_filters_intersect() {
        let s = SymbolTable::new();
        let (x, y) = (s.col("x"), s.col("y"));
        let t = RaTerm::semijoin(
            RaTerm::semijoin(
                RaTerm::semijoin(scan(&s, "x", "y"), node(&[3, 1, 2], x)),
                node(&[2, 3], y),
            ),
            node(&[2, 3, 4], x),
        );
        assert_eq!(interned(&t).1, labelled(&s, Some(&[3, 2]), Some(&[2, 3])));
        // A scan that is labelled already intersects the same way, and an
        // empty intersection is a scan of nothing, not no filter.
        let t = RaTerm::semijoin(labelled(&s, Some(&[1]), None), node(&[2], x));
        assert_eq!(interned(&t).1, labelled(&s, Some(&[]), None));
    }

    #[test]
    fn filters_off_a_scan_endpoint_do_not_fold() {
        let s = SymbolTable::new();
        let (x, z) = (s.col("x"), s.col("z"));
        // A column the scan does not have, a self-loop scan (`src == tgt`,
        // whose one column is both endpoints), a filter that is no node
        // scan, and a node scan filtering a join: each stays a semi-join.
        for t in [
            RaTerm::semijoin(scan(&s, "x", "y"), node(&[1], z)),
            RaTerm::semijoin(scan(&s, "x", "x"), node(&[1], x)),
            RaTerm::semijoin(
                scan(&s, "x", "y"),
                RaTerm::project(scan(&s, "x", "z"), vec![x]),
            ),
            RaTerm::semijoin(
                RaTerm::join(scan(&s, "x", "y"), scan(&s, "y", "z")),
                node(&[1], x),
            ),
        ] {
            let (op, term) = interned(&t);
            assert!(matches!(op, Op::Semijoin(..)), "{op:?}");
            assert_eq!(term, t);
        }
    }

    #[test]
    fn label_sets_enter_the_class() {
        // Two scans differing only in a label set compute different rows.
        let s = SymbolTable::new();
        let (dag, root) = Dag::of(
            &RaTerm::union(
                labelled(&s, Some(&[1]), None),
                labelled(&s, None, Some(&[1])),
            ),
            true,
            None,
        );
        let Op::Union(a, b) = *dag.node(root) else {
            panic!()
        };
        assert_ne!(dag.class(a), dag.class(b));
    }

    #[test]
    fn size_counts_nodes() {
        let s = SymbolTable::new();
        let j = RaTerm::join(scan(&s, "x", "y"), scan(&s, "y", "z"));
        assert_eq!(j.size(), 3);
    }
}
