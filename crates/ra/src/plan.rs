//! Lowering optimised [`RaTerm`]s into a physical plan.
//!
//! The logical optimiser ([`crate::optimize`]) decides *what* to
//! compute; this module decides *how*. Operator selection exploits
//! three properties the logical layer cannot see:
//!
//! * **Order.** Every [`crate::table::Relation`] is canonical — rows
//!   sorted lexicographically in column order — so whenever a join's
//!   shared columns form the leading prefix of *both* inputs' schemas,
//!   the join runs as a linear merge with no hash table at all. A
//!   semi-join does not: every one that is not a precomputed slice
//!   filters through a hashed key set, one kernel under the range
//!   runner ([`PhysOp::HashSemiJoin`], or fused onto an edge scan).
//! * **Cost.** For the remaining hash joins the build side is fixed at
//!   plan time instead of being rediscovered at run time: the side with
//!   the smaller estimated cardinality.
//! * **Indexes.** The store carries per-edge-label forward/reverse CSR
//!   adjacency indexes. When one side of a join is a (possibly renamed
//!   and/or label-filtered) base edge scan sharing exactly one
//!   endpoint column with the other side, the planner may replace the
//!   scan with direct CSR probes ([`PhysOp::IndexJoin`]): the edge table
//!   is never materialised and no hash table is built. The choice
//!   between merge, hash and index is by estimated cost alone — probe
//!   rows × (1 + measured average degree) against scanning + building;
//!   a join with no base-scan side (say, one under a projection) is
//!   always merge or hash.
//!
//! Two further physical rewrites:
//!
//! * a label-filtered edge scan (one term node: the term DAG folds every
//!   node-label semi-join on a scan endpoint into it) is a
//!   [`PhysOp::DenormEdgeScan`] of the store's precomputed slice when
//!   each filtered endpoint has one label, else a
//!   [`PhysOp::FilteredEdgeScan`] testing node-table membership; any
//!   other semi-join on a bare edge scan fuses into a `FilteredEdgeScan`
//!   too, so the unfiltered table is never an operator output;
//! * every fixpoint is a [`PhysOp::Closure`], one run of `sgq_graph`'s
//!   closure kernel: the translation's `µX. S ∪ π(X ⋈ ρ(S))`, its base
//!   `S` filtered on the stable column at most, walks `S+` from the
//!   base's distinct stable values ([`Step`]). Any other fixpoint, and a
//!   recursive reference outside one, fails to plan
//!   ([`NOT_CLOSURE_SHAPED`]); `translate` and `optimize` produce none.
//!   An [`PhysOp::IndexJoin`] against the store's CSR builds nothing:
//!   the "build side" is the index built once at load time.
//!
//! Every node carries its output columns and an [`Estimate`], which is
//! what the physical `EXPLAIN` ([`crate::explain`]) renders. `plan`
//! interns its term once into a term DAG ([`crate::term`]); the rows are
//! the estimator's summaries ([`mod@crate::cost`]), one per distinct
//! (node, binding), and every strategy decision reads the summaries of
//! the node and its operands.
//!
//! **Shared sub-plans.** Sub-terms equal up to column and recursion
//! variable names — the schema rewrite's union expansion repeats them —
//! share a term class, computed when the DAG is built. The plan nodes of
//! one class carry one set of ids, and a combining one read by several
//! parents ([`PhysPlan::parents`]) is evaluated once per
//! execution (DESIGN.md, "Shared sub-plans").

use sgq_common::{ColId, EdgeLabelId, NodeLabelId, RecVarId, Result, SgqError};

use crate::cost::{self, shared_cols, Estimate, Estimator, ScanInfo, Summary};
use crate::storage::RelStore;
use crate::term::{Dag, Id, Labels, Op, RaTerm};

/// A physical plan node: operator, output schema and estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysPlan {
    /// Dense node id (post-order of lowering), used to key the
    /// executor's node cache and `EXPLAIN ANALYZE` row counters; every
    /// occurrence of a shared sub-plan carries the same ids.
    pub id: u32,
    /// How many parents read the node (above 1: shared), and whether it
    /// is a later occurrence in pre-order (`EXPLAIN` omits its subtree).
    pub(crate) parents: u32,
    pub(crate) later: bool,
    /// Output column ids, in order.
    pub cols: Vec<ColId>,
    /// Estimated output rows and cumulative cost.
    pub est: Estimate,
    /// The physical operator.
    pub op: PhysOp,
}

/// Physical operators. Join and semi-join strategies are fixed at plan
/// time; the executor ([`crate::exec`]) only interprets.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysOp {
    /// Sequential scan of an edge table (columns renamed positionally to
    /// the node's `cols`).
    EdgeScan {
        /// Edge label.
        label: EdgeLabelId,
    },
    /// An edge scan filtered as it is read — by its endpoints' node
    /// labels, checked against the store's node tables, and by a fused
    /// semi-join's key set: only the surviving rows are ever
    /// materialised.
    FilteredEdgeScan {
        /// The scan: its edge label and endpoint label filters.
        scan: ScanInfo,
        /// The fused semi-join's filter input (its right side), if any.
        filter: Option<Box<PhysPlan>>,
        /// Columns shared with `filter`, in scan-schema order.
        key: Vec<ColId>,
    },
    /// Scan of a denormalised endpoint-label slice: an edge table
    /// restricted to rows whose endpoints carry the given node labels,
    /// materialised at load ([`RelStore::filtered_edge_table`]) so the
    /// label semi-join is free at scan time.
    DenormEdgeScan {
        /// Edge label.
        label: EdgeLabelId,
        /// Required source node label (`None` = unrestricted).
        src_label: Option<NodeLabelId>,
        /// Required target node label (`None` = unrestricted).
        tgt_label: Option<NodeLabelId>,
    },
    /// Scan of the union of node tables.
    NodeScan {
        /// Node labels (unioned with a single normalisation pass).
        labels: Vec<NodeLabelId>,
    },
    /// Merge join: both inputs are canonically sorted on the shared
    /// `key` prefix, so no hash table is built and the output needs no
    /// re-sort.
    MergeJoin {
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
        /// Shared key columns (the common schema prefix).
        key: Vec<ColId>,
    },
    /// Hash join with the build side fixed by the cost model.
    HashJoin {
        /// Left input (its columns lead the output schema).
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
        /// Shared key columns (empty = cartesian product).
        key: Vec<ColId>,
        /// Whether the left input is the build side.
        build_left: bool,
    },
    /// Hash semi-join: the right side's keys are hashed, the left side
    /// is filtered in order.
    HashSemiJoin {
        /// Left (filtered) input.
        left: Box<PhysPlan>,
        /// Right (filter) input.
        right: Box<PhysPlan>,
        /// Shared key columns (empty = keep all iff right is non-empty).
        key: Vec<ColId>,
    },
    /// CSR index nested-loop join: one join side was a base edge scan
    /// (possibly renamed and node-label-filtered); instead of
    /// materialising and hashing it, each probe row's key value expands
    /// directly into the store's per-label CSR neighbour list.
    IndexJoin {
        /// The evaluated (probe) input — the non-scan side.
        probe: Box<PhysPlan>,
        /// The absorbed scan. Its keyed endpoint ([`ScanInfo::endpoints`])
        /// is the column shared with the probe, whose value in each probe
        /// row is the node whose neighbour list is read; the other
        /// endpoint is the column produced from the neighbour list.
        scan: ScanInfo,
        /// `true`: the key is the edge source (forward CSR, neighbours are
        /// targets); `false`: the target (reverse CSR).
        forward: bool,
    },
    /// Merge union of two canonical inputs.
    Union {
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
    },
    /// Projection onto the node's `cols` (set semantics).
    Project {
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// Equality selection on two column positions.
    Select {
        /// Input plan.
        input: Box<PhysPlan>,
        /// First column (display).
        a: ColId,
        /// Second column (display).
        b: ColId,
        /// Position of `a` in the input schema.
        ia: usize,
        /// Position of `b` in the input schema.
        ib: usize,
    },
    /// Positional column renaming — zero-copy at execution time.
    Rename {
        /// Input plan.
        input: Box<PhysPlan>,
    },
    /// A fixpoint (kind `"Fixpoint"`) `µX. S ∪ π(X ⋈ ρ(S))`: `S+` from the
    /// base's distinct stable values, one run of `sgq_graph`'s closure
    /// kernel over the rows of `step`.
    Closure {
        /// Recursion variable.
        var: RecVarId,
        /// Base-case plan: `S`'s rows, filtered on the stable column only.
        base: Box<PhysPlan>,
        /// Where the walk reads `S`'s rows.
        step: Step,
    },
}

/// The rows a [`PhysOp::Closure`] walks: `S`, one row of successors per
/// node.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `S` is one edge label `l`: its load-time CSR.
    Csr {
        /// The edge label `l`.
        label: EdgeLabelId,
        /// Whether the walk follows `l`'s forward CSR, else its reverse.
        forward: bool,
        /// Whether some `l` path has two hops: if not, `l+` is the base.
        two_hop: bool,
    },
    /// Any other `S`: this static plan of `ρ(S)`, columns `(m, t)`,
    /// evaluated once and walked as binary-searched runs of its sorted
    /// pairs.
    Pairs(Box<PhysPlan>),
}

/// What [`plan`] fails with on a fixpoint that is not closure-shaped, or
/// on a recursive reference outside one.
pub const NOT_CLOSURE_SHAPED: &str = "not a closure-shaped fixpoint µX. S ∪ π(X ⋈ ρ(S))";

/// The children of a plan node's operator, by shared or by mutable
/// reference, in two slots: the one match behind `kids` and `kids_mut`.
macro_rules! children {
    ($op:expr) => {
        match $op {
            PhysOp::EdgeScan { .. }
            | PhysOp::FilteredEdgeScan { filter: None, .. }
            | PhysOp::DenormEdgeScan { .. }
            | PhysOp::NodeScan { .. } => [None, None],
            PhysOp::FilteredEdgeScan {
                filter: Some(c), ..
            }
            | PhysOp::IndexJoin { probe: c, .. }
            | PhysOp::Closure {
                base: c,
                step: Step::Csr { .. },
                ..
            }
            | PhysOp::Project { input: c }
            | PhysOp::Select { input: c, .. }
            | PhysOp::Rename { input: c } => [Some(c), None],
            PhysOp::MergeJoin { left, right, .. }
            | PhysOp::HashJoin { left, right, .. }
            | PhysOp::HashSemiJoin { left, right, .. }
            | PhysOp::Union { left, right }
            | PhysOp::Closure {
                base: left,
                step: Step::Pairs(right),
                ..
            } => [Some(left), Some(right)],
        }
    };
}

impl PhysOp {
    /// The operator kind as a static string — the key the observability
    /// layer profiles by (`sgq_obs::OpKindProfile`) and the name an
    /// exported operator span carries.
    pub fn kind(&self) -> &'static str {
        match self {
            PhysOp::EdgeScan { .. } => "EdgeScan",
            PhysOp::FilteredEdgeScan { .. } => "FilteredEdgeScan",
            PhysOp::DenormEdgeScan { .. } => "DenormEdgeScan",
            PhysOp::NodeScan { .. } => "NodeScan",
            PhysOp::MergeJoin { .. } => "MergeJoin",
            PhysOp::HashJoin { .. } => "HashJoin",
            PhysOp::HashSemiJoin { .. } => "HashSemiJoin",
            PhysOp::IndexJoin { .. } => "IndexJoin",
            PhysOp::Union { .. } => "Union",
            PhysOp::Project { .. } => "Project",
            PhysOp::Select { .. } => "Select",
            PhysOp::Rename { .. } => "Rename",
            PhysOp::Closure { .. } => "Fixpoint",
        }
    }

    /// Whether the operator combines inputs: two of them, or one and the
    /// store (anything but a scan, a projection, a selection or a rename).
    fn combines(&self) -> bool {
        let [_, second] = children!(self);
        second.is_some()
            || matches!(
                self,
                PhysOp::FilteredEdgeScan { .. } | PhysOp::IndexJoin { .. } | PhysOp::Closure { .. }
            )
    }

    /// How a fixpoint runs (`None` for any other operator): the closure
    /// kernel on a CSR `"forward"`, `"reverse"` or from a `"stable-end
    /// filtered"` base, the `"no two-hop base"`, or on the pairs of a
    /// `"composite"` step.
    pub fn fixpoint_strategy(&self) -> Option<&'static str> {
        let filters = |op: &PhysOp| {
            !matches!(
                op,
                PhysOp::EdgeScan { .. } | PhysOp::Project { .. } | PhysOp::Rename { .. }
            )
        };
        let PhysOp::Closure { base, step, .. } = self else {
            return None;
        };
        Some(match step {
            Step::Pairs(_) => "composite",
            Step::Csr { two_hop: false, .. } => "no two-hop base",
            _ if base.contains_op(&filters) => "stable-end filtered",
            Step::Csr { forward: true, .. } => "forward",
            Step::Csr { .. } => "reverse",
        })
    }
}

impl PhysPlan {
    /// Child plans, for rendering and cost splitting.
    pub fn children(&self) -> Vec<&PhysPlan> {
        self.kids().collect()
    }

    fn kids(&self) -> impl Iterator<Item = &PhysPlan> {
        children!(&self.op).into_iter().flatten().map(|c| &**c)
    }

    fn kids_mut(&mut self) -> impl Iterator<Item = &mut PhysPlan> {
        children!(&mut self.op)
            .into_iter()
            .flatten()
            .map(|c| &mut **c)
    }

    /// How many parents read this node's result (1 unless shared).
    pub fn parents(&self) -> u32 {
        self.parents
    }

    /// Number of nodes (ids are dense, so this is `max id + 1`).
    pub fn node_count(&self) -> usize {
        let below = self.kids().map(PhysPlan::node_count).max();
        below.unwrap_or(0).max(self.id as usize + 1)
    }

    /// Whether any node of the subtree satisfies `pred` — how tests and
    /// the harness assert a plan contains a strategy.
    pub fn contains_op(&self, pred: &dyn Fn(&PhysOp) -> bool) -> bool {
        pred(&self.op) || self.kids().any(|c| c.contains_op(pred))
    }
}

/// Lowers an (ideally [`crate::optimize`]d) term into a physical plan.
///
/// Each distinct term node is summarised once, so every plan node's
/// rows are the term-level ones.
///
/// Fails when the term is malformed — a selection or projection names a
/// column its input does not produce — or holds a fixpoint that is not
/// closure-shaped ([`NOT_CLOSURE_SHAPED`]).
pub fn plan(term: &RaTerm, store: &RelStore) -> Result<PhysPlan> {
    let (dag, root) = Dag::of(term, true, None);
    let mut planner = Planner::new(store, &dag);
    let root = planner.lower(root)?;
    Ok(planner.share(root))
}

/// Lowers one term DAG. A term node is lowered once per occurrence, each
/// estimator summary is computed once per (node, binding), and a plan
/// node's id is, until [`Planner::renumber`], its post-order position.
struct Planner<'a> {
    store: &'a RelStore,
    dag: &'a Dag<'a>,
    est: Estimator<'a>,
    /// Per plan node: the class of the term node it computes, its
    /// subtree's node count, and whether the subtree combines inputs.
    class: Vec<u32>,
    size: Vec<u32>,
    combines: Vec<bool>,
    /// Per term class: its first occurrence's plan id, and if that is
    /// combining (worth evaluating once) its readers — one per
    /// parent class and child slot, as every occurrence of a class has
    /// the same children and below a later occurrence nothing runs.
    first: Vec<u32>,
    readers: Vec<u32>,
}

impl<'a> Planner<'a> {
    fn new(store: &'a RelStore, dag: &'a Dag<'a>) -> Self {
        let (nodes, classes) = dag.len();
        Planner {
            store,
            dag,
            est: Estimator::new(store, nodes),
            class: Vec::with_capacity(nodes),
            size: Vec::with_capacity(nodes),
            combines: Vec::with_capacity(nodes),
            first: vec![u32::MAX; classes],
            readers: vec![0; classes],
        }
    }

    /// The lowered plan `root` with its final ids: shared sub-plans take
    /// their first occurrence's.
    fn share(&self, mut root: PhysPlan) -> PhysPlan {
        if self.readers.iter().any(|&r| r > 1) && self.copies_match() {
            let mut new = vec![0; self.class.len()];
            self.renumber(&mut root, None, &mut new, &mut 0);
        }
        root
    }

    /// The summary of term node `id` under the current bindings.
    fn sum(&mut self, id: Id) -> &Summary {
        let s = self.est.summary(self.dag, id);
        &self.est[s]
    }

    /// The plan node computing term node `at`: columns and rows are the
    /// term's; `cost` is the chosen strategy's.
    fn node(&mut self, at: Id, cost: f64, op: PhysOp) -> PhysPlan {
        let rows = self.sum(at).rows();
        let p = PhysPlan {
            id: self.class.len() as u32,
            parents: 1,
            later: false,
            cols: self.dag.cols(at).to_vec(),
            est: Estimate { rows, cost },
            op,
        };
        let class = self.dag.class(at);
        let combines = p.op.combines() || p.kids().any(|k| self.combines[k.id as usize]);
        let size = 1 + p.kids().map(|k| self.size[k.id as usize]).sum::<u32>();
        self.class.push(class);
        self.size.push(size);
        self.combines.push(combines);
        if self.first[class as usize] == u32::MAX {
            self.first[class as usize] = p.id;
            for k in p.kids() {
                let worth = self.combines[k.id as usize];
                self.readers[self.class[k.id as usize] as usize] += u32::from(worth);
            }
        }
        p
    }

    /// Whether every later occurrence of a shared class lowered to its
    /// first occurrence's shape: node by node in post-order, the same
    /// class and the same subtree size (which fixes the tree). Both lower
    /// the same term class from the same statistics, so they should; the
    /// check is what makes [`Planner::renumber`]'s mapping of one onto
    /// the other by offset safe, and a plan where it fails is not shared
    /// at all.
    fn copies_match(&self) -> bool {
        (0..self.class.len()).all(|later| {
            let c = self.class[later] as usize;
            let first = self.first[c] as usize;
            let n = self.size[later] as usize;
            let same = |i: usize| {
                let (a, b) = (first - i, later - i);
                (self.class[a], self.size[a]) == (self.class[b], self.size[b])
            };
            self.readers[c] <= 1 || first == later || (0..n).all(same)
        })
    }

    /// Gives every node its final id, in post-order, and its parent
    /// count. A later occurrence of a shared class (`copy` = the first
    /// occurrence's root and its own) takes the first occurrence's ids,
    /// offset by offset: post-order lowering made each subtree's ids
    /// contiguous, and assigned the first occurrence's already.
    fn renumber(
        &self,
        p: &mut PhysPlan,
        copy: Option<(u32, u32)>,
        new: &mut [u32],
        next: &mut u32,
    ) {
        let (old, c) = (p.id, self.class[p.id as usize] as usize);
        p.parents = self.readers[c].max(1);
        p.later = p.parents > 1 && self.first[c] != old;
        let copy = copy.or(p.later.then_some((self.first[c], old)));
        for child in p.kids_mut() {
            self.renumber(child, copy, new, next);
        }
        p.id = match copy {
            Some((first, root)) => new[(old - (root - first)) as usize],
            None => {
                *next += 1;
                *next - 1
            }
        };
        new[old as usize] = p.id;
    }

    fn lower(&mut self, at: Id) -> Result<PhysPlan> {
        let (dag, rows) = (self.dag, self.sum(at).rows());
        match dag.node(at) {
            Op::EdgeScan(label, _, _, None) => {
                Ok(self.node(at, rows, PhysOp::EdgeScan { label: *label }))
            }
            Op::EdgeScan(label, src, tgt, ls) => {
                let scan = ScanInfo::of(*label, *src, *tgt, ls);
                Ok(self.lower_labelled_scan(at, scan))
            }
            Op::NodeScan(labels, _) => {
                let op = PhysOp::NodeScan {
                    labels: labels.clone(),
                };
                Ok(self.node(at, rows, op))
            }
            &Op::Join(a, b) => {
                if let Some(p) = self.try_index_join(a, b, at)? {
                    return Ok(p);
                }
                let left = self.lower(a)?;
                let right = self.lower(b)?;
                Ok(self.lower_join(left, right, at))
            }
            &Op::Semijoin(a, b) => self.lower_semijoin(a, b, at),
            &Op::Union(a, b) => {
                let left = self.lower(a)?;
                let right = self.lower(b)?;
                let cost = left.est.cost + right.est.cost + rows;
                let op = PhysOp::Union {
                    left: Box::new(left),
                    right: Box::new(right),
                };
                Ok(self.node(at, cost, op))
            }
            Op::Project(input, cols) => {
                let child = self.lower(*input)?;
                for c in cols {
                    if !child.cols.contains(c) {
                        return Err(SgqError::Execution(format!(
                            "projection column {c} missing from input schema"
                        )));
                    }
                }
                let cost = child.est.cost + child.est.rows;
                let op = PhysOp::Project {
                    input: Box::new(child),
                };
                Ok(self.node(at, cost, op))
            }
            &Op::Select(input, a, b) => {
                let child = self.lower(input)?;
                let position = |col: ColId| {
                    (child.cols.iter().position(|&c| c == col))
                        .ok_or_else(|| SgqError::Execution(format!("unknown column {col}")))
                };
                let (ia, ib) = (position(a)?, position(b)?);
                let cost = child.est.cost + child.est.rows;
                let op = PhysOp::Select {
                    input: Box::new(child),
                    a,
                    b,
                    ia,
                    ib,
                };
                Ok(self.node(at, cost, op))
            }
            &Op::Rename(input, from, _) => {
                let child = self.lower(input)?;
                if !child.cols.contains(&from) {
                    return Err(SgqError::Execution(format!("unknown column {from}")));
                }
                // Zero-copy at execution: the rename adds no cost (and its
                // summary is the child's).
                let cost = child.est.cost;
                let op = PhysOp::Rename {
                    input: Box::new(child),
                };
                Ok(self.node(at, cost, op))
            }
            &Op::Fixpoint(var, base, ..) => {
                let walk = closure_step(dag, at).ok_or_else(not_closure_shaped)?;
                let base = Box::new(self.lower(base)?);
                let (step, cost) = match walk {
                    Walk::Csr(label, forward) => {
                        let two_hop = self.store.stats.has_two_hop(label);
                        let step = Step::Csr {
                            label,
                            forward,
                            two_hop,
                        };
                        (step, base.est.cost + rows)
                    }
                    Walk::Pairs(pairs) => {
                        let pairs = self.lower(pairs)?;
                        let cost = base.est.cost + pairs.est.cost + rows;
                        (Step::Pairs(Box::new(pairs)), cost)
                    }
                };
                Ok(self.node(at, cost, PhysOp::Closure { var, base, step }))
            }
            Op::RecRef(..) => Err(not_closure_shaped()),
        }
    }

    /// Join strategy selection for term node `at`: merge when the shared
    /// columns lead both schemas, otherwise hash with the cost-chosen
    /// build side.
    fn lower_join(&mut self, left: PhysPlan, right: PhysPlan, at: Id) -> PhysPlan {
        let rows = self.sum(at).rows();
        let key = shared_cols(&left.cols, &right.cols);
        if !key.is_empty() && is_prefix(&key, &left.cols) && is_prefix(&key, &right.cols) {
            // Both inputs arrive sorted on the key: skip hashing entirely.
            // Kept, unlike the merge semi-join: planned as hash instead,
            // five catalog statements ran 11–36 % slower and `serve-mixed`
            // lost 14–18 % of its throughput (2-core x86 VM).
            let cost = left.est.cost + right.est.cost + rows;
            let op = PhysOp::MergeJoin {
                left: Box::new(left),
                right: Box::new(right),
                key,
            };
            return self.node(at, cost, op);
        }
        let cost = left.est.cost + right.est.cost + left.est.rows + right.est.rows + rows;
        // Build the estimated-smaller side, the left one on a tie.
        let build_left = left.est.rows <= right.est.rows;
        let op = PhysOp::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            key,
            build_left,
        };
        self.node(at, cost, op)
    }

    /// Attempts to lower the join `a ⋈ b` at term node `at` as a CSR
    /// index join. One side must be an indexable base-edge scan
    /// ([`indexable_scan`]) sharing exactly one column — one of its
    /// endpoints — with the other side, and the cost model must prefer
    /// probing the CSR (probe rows × (1 + avg degree)) over the best
    /// scan-based strategy (merge or hash) for the same term. When both
    /// sides qualify, the cheaper probe orientation competes. The
    /// absorbed scan side is never lowered: the estimator already
    /// summarised it. The output keeps the join's term columns (left's,
    /// then the right side's new ones), so sibling plans — e.g. the two
    /// arms of a union — agree on column order whichever strategy each
    /// picked.
    fn try_index_join(&mut self, a: Id, b: Id, at: Id) -> Result<Option<PhysPlan>> {
        let (dag, rows) = (self.dag, self.sum(at).rows());
        let (ea, eb) = (self.sum(a).estimate(), self.sum(b).estimate());
        // The cheapest indexable orientation: (scan, scan-on-the-left,
        // forward, cost).
        let mut best: Option<(ScanInfo, bool, bool, f64)> = None;
        for (scan_term, probe, scan_left) in [(a, b, true), (b, a, false)] {
            let Some(s) = indexable_scan(dag, scan_term, false) else {
                continue;
            };
            let probe_cols = dag.cols(probe);
            let forward = match (probe_cols.contains(&s.src), probe_cols.contains(&s.tgt)) {
                (true, false) => true,
                (false, true) => false,
                // No shared endpoint, or both shared (a two-column key):
                // not an index-join shape.
                _ => continue,
            };
            let deg = cost::index_degree(self.store, s.label, forward);
            let c = cost::index_join_cost(if scan_left { &eb } else { &ea }, deg, rows);
            if best.as_ref().is_none_or(|&(_, _, _, bc)| c < bc) {
                best = Some((s, scan_left, forward, c));
            }
        }
        let Some((s, scan_left, forward, index_cost)) = best else {
            return Ok(None);
        };
        // The scan-based alternative this term would otherwise lower to.
        let (a_cols, b_cols) = (dag.cols(a), dag.cols(b));
        let key_cols = shared_cols(a_cols, b_cols);
        let merge_ok =
            !key_cols.is_empty() && is_prefix(&key_cols, a_cols) && is_prefix(&key_cols, b_cols);
        let scan_based = if merge_ok {
            ea.cost + eb.cost + rows
        } else {
            ea.cost + eb.cost + ea.rows + eb.rows + rows
        };
        if index_cost >= scan_based {
            return Ok(None);
        }
        let probe = self.lower(if scan_left { b } else { a })?;
        let op = PhysOp::IndexJoin {
            probe: Box::new(probe),
            scan: s,
            forward,
        };
        Ok(Some(self.node(at, index_cost, op)))
    }

    /// Semi-join strategy selection for `a ⋉ b` at term node `at`: one
    /// hash filter — fused onto an edge scan with no label filter, or
    /// over the lowered left side.
    fn lower_semijoin(&mut self, a: Id, b: Id, at: Id) -> Result<PhysPlan> {
        let dag = self.dag;
        if let Op::EdgeScan(label, src, tgt, None) = *dag.node(a) {
            let filter = self.lower(b)?;
            let key = shared_cols(dag.cols(a), &filter.cols);
            let scan_rows = self.store.stats.edge_cardinality(label) as f64;
            let cost = scan_rows + filter.est.cost + filter.est.rows;
            let op = PhysOp::FilteredEdgeScan {
                scan: ScanInfo::of(label, src, tgt, &None),
                filter: Some(Box::new(filter)),
                key,
            };
            return Ok(self.node(at, cost, op));
        }
        let left = self.lower(a)?;
        let right = self.lower(b)?;
        let key = shared_cols(&left.cols, &right.cols);
        let cost = left.est.cost + right.est.cost + left.est.rows + right.est.rows;
        let op = PhysOp::HashSemiJoin {
            left: Box::new(left),
            right: Box::new(right),
            key,
        };
        Ok(self.node(at, cost, op))
    }

    /// Lowers the label-filtered scan `scan` (term node `at`): to the
    /// store's precomputed slice when each filtered endpoint has one label
    /// (the filter is free), else to a membership test over the table,
    /// costed as the table and, per label, the node scan it replaces.
    fn lower_labelled_scan(&mut self, at: Id, scan: ScanInfo) -> PhysPlan {
        let stats = &self.store.stats;
        let one = |ls: &Labels| match ls.as_deref() {
            None => Some(None),
            Some(&[l]) => Some(Some(l)),
            Some(_) => None,
        };
        if let (Some(src_label), Some(tgt_label)) = (one(&scan.src_labels), one(&scan.tgt_labels)) {
            let slice_rows = match (src_label, tgt_label) {
                (Some(a), Some(b)) => stats.triple_cardinality(a, scan.label, b),
                (Some(a), None) => stats.source_group(a, scan.label).count,
                (None, Some(b)) => stats.target_group(scan.label, b).count,
                (None, None) => unreachable!("a labelled scan filters an endpoint"),
            };
            let label = scan.label;
            let op = PhysOp::DenormEdgeScan {
                label,
                src_label,
                tgt_label,
            };
            return self.node(at, slice_rows as f64, op);
        }
        let labels = [&scan.src_labels, &scan.tgt_labels].into_iter().flatten();
        let nodes: usize = labels.flatten().map(|&l| stats.label_cardinality(l)).sum();
        let cost = (stats.edge_cardinality(scan.label) + 2 * nodes) as f64;
        let op = PhysOp::FilteredEdgeScan {
            scan,
            filter: None,
            key: Vec::new(),
        };
        self.node(at, cost, op)
    }
}

/// Recognises a join side the planner can replace with CSR index probes
/// — and, with `swaps`, the edge of a closure walked on its CSR: a base
/// edge scan, label-filtered or not, optionally renamed (with `swaps`,
/// also under column swaps, how a reversed label translates; a projection
/// onto its input's own columns hides the scan from both, which is how a
/// test keeps a join hashed or a closure on its step's pairs). Renames of
/// columns the scan does not expose and degenerate scans (`src == tgt`)
/// return `None` so the term falls back to the scan-based strategies.
fn indexable_scan(dag: &Dag, id: Id, swaps: bool) -> Option<ScanInfo> {
    match *dag.node(id) {
        Op::EdgeScan(label, src, tgt, ref ls) if src != tgt => {
            Some(ScanInfo::of(label, src, tgt, ls))
        }
        Op::Rename(input, from, to) => {
            let mut s = indexable_scan(dag, input, swaps)?;
            let exposed = [s.src, s.tgt].contains(&from);
            s.rename(from, to);
            (exposed && s.src != s.tgt).then_some(s)
        }
        Op::Project(input, ref cols) if swaps && cols.iter().rev().eq(dag.cols(input)) => {
            indexable_scan(dag, input, swaps)
        }
        _ => None,
    }
}

/// How the closure kernel walks a fixpoint.
enum Walk {
    /// One edge label's CSR, forward or not.
    Csr(EdgeLabelId, bool),
    /// The pairs of this term node, `S` renamed to `(m, t)`.
    Pairs(Id),
}

/// The parts of fixpoint `at` when its step is linear,
/// `µX(s,t). B ∪ π_{s,t}(X(s,m) ⋈ S')` with `s` stable (the join's sides
/// in either order): the columns `[s, t, m]`, the base `B` and `S'`.
fn linear_step(dag: &Dag, at: Id) -> Option<([ColId; 3], Id, Id)> {
    let Op::Fixpoint(var, base, step, ref stable) = *dag.node(at) else {
        return None;
    };
    let (&[s, t], Op::Project(join, out)) = (dag.cols(at), dag.node(step)) else {
        return None;
    };
    let (rec, side) = match *dag.node(*join) {
        Op::Join(a, b) if matches!(dag.node(b), Op::RecRef(..)) => (b, a),
        Op::Join(a, b) => (a, b),
        _ => return None,
    };
    let Op::RecRef(v, rec) = dag.node(rec) else {
        return None;
    };
    let &[rs, m] = rec.as_slice() else {
        return None;
    };
    let shape = *v == var && stable == &[s] && out == &[s, t] && rs == s && ![s, t].contains(&m);
    shape.then_some(([s, t, m], base, side))
}

/// `S` of fixpoint `at` when the kernel walks it as pairs — its step is
/// linear and `S'` is no edge scan: `S'` under its renames, the node over
/// which `optimize` keeps the base's stable-column semi-joins.
pub(crate) fn pairs_step(dag: &Dag, at: Id) -> Option<Id> {
    let (_, _, side) = linear_step(dag, at)?;
    indexable_scan(dag, side, true)
        .is_none()
        .then(|| unrenamed(dag, side))
}

/// `id` under its renames.
fn unrenamed(dag: &Dag, mut id: Id) -> Id {
    while let Op::Rename(input, ..) = *dag.node(id) {
        id = input;
    }
    id
}

/// How the closure kernel walks fixpoint `at`, if it is closure-shaped: a
/// linear step ([`linear_step`]) whose `S'` is `S` renamed to `(m, t)`,
/// over a base `B` that is `S` under semi-joins on `s` only. A one-label
/// `S` walks its CSR, and its base may also be that scan label-filtered on
/// `s`, or semi-joined on `s` under the projection that reverses it; any
/// other `S` walks the pairs of `S'`.
fn closure_step(dag: &Dag, at: Id) -> Option<Walk> {
    let ([s, t, m], base, side) = linear_step(dag, at)?;
    // `B` under one of its semi-joins on `s` (or, with `swaps`, a
    // projection that swaps its columns).
    let unfiltered = |b: Id, swaps: bool| match *dag.node(b) {
        Op::Semijoin(x, f)
            if shared_cols(dag.cols(x), dag.cols(f))
                .iter()
                .all(|&c| c == s) =>
        {
            Some(x)
        }
        Op::Project(x, ref cols) if swaps && cols.iter().rev().eq(dag.cols(x)) => Some(x),
        _ => None,
    };
    let csr = indexable_scan(dag, side, true).and_then(|e| {
        let forward = (e.src, e.tgt) == (m, t);
        let scan = std::iter::successors(Some(base), |&b| unfiltered(b, true)).last()?;
        let b = indexable_scan(dag, scan, true)?;
        let (from, to, to_labels) = match forward {
            true => (b.src, b.tgt, &b.tgt_labels),
            false => (b.tgt, b.src, &b.src_labels),
        };
        let step = (forward || (e.src, e.tgt) == (t, m)) && e.src_labels.is_none();
        let base = b.label == e.label && (from, to) == (s, t) && to_labels.is_none();
        (step && e.tgt_labels.is_none() && base).then_some(Walk::Csr(e.label, forward))
    });
    let class = dag.class(unrenamed(dag, side));
    let mut bases = std::iter::successors(Some(base), |&b| unfiltered(b, false));
    let pairs = dag.cols(side) == [m, t] && bases.any(|b| dag.class(b) == class);
    csr.or(pairs.then_some(Walk::Pairs(side)))
}

/// The error [`plan`] returns for a term holding a fixpoint that is not
/// closure-shaped, or a recursive reference outside one.
fn not_closure_shaped() -> SgqError {
    SgqError::Execution(NOT_CLOSURE_SHAPED.to_string())
}

/// Whether `key` is the leading prefix of `cols`.
fn is_prefix(key: &[ColId], cols: &[ColId]) -> bool {
    cols.len() >= key.len() && &cols[..key.len()] == key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::RelStore;
    use crate::symbols::SymbolTable;
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

    /// `t` under a projection onto its own columns: the same rows, but no
    /// longer a base scan a CSR probe could replace.
    fn projected(t: RaTerm) -> RaTerm {
        let cols = t.cols();
        RaTerm::project(t, cols)
    }

    #[test]
    fn prefix_aligned_join_lowers_to_merge() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        // Both sides lead with x: canonical order matches the key.
        let t = RaTerm::join(
            projected(scan(&db, &store, "isLocatedIn", "x", "y")),
            projected(scan(&db, &store, "owns", "x", "z")),
        );
        let p = plan(&t, &store).unwrap();
        assert!(
            matches!(p.op, PhysOp::MergeJoin { .. }),
            "expected merge join: {p:?}"
        );
    }

    #[test]
    fn misaligned_join_lowers_to_hash_with_cost_chosen_build() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        // π(owns(x,y)) ⋈ π(isLocatedIn(y,z)): y is not a prefix of the left.
        let t = RaTerm::join(
            projected(scan(&db, &store, "owns", "x", "y")),
            projected(scan(&db, &store, "isLocatedIn", "y", "z")),
        );
        let p = plan(&t, &store).unwrap();
        match &p.op {
            PhysOp::HashJoin { build_left, .. } => {
                // owns (1 row) is estimated smaller than isLocatedIn (4).
                assert!(*build_left, "smaller side must build: {p:?}");
            }
            other => panic!("expected hash join, got {other:?}"),
        }
    }

    #[test]
    fn selective_probe_lowers_to_index_join() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        // owns(x,y) ⋈ isLocatedIn(y,z): the 1-row owns side probes the
        // isLocatedIn forward CSR on y instead of hashing the 4-row scan.
        let t = RaTerm::join(
            scan(&db, &store, "owns", "x", "y"),
            scan(&db, &store, "isLocatedIn", "y", "z"),
        );
        let p = plan(&t, &store).unwrap();
        match &p.op {
            PhysOp::IndexJoin {
                probe,
                scan,
                forward,
            } => {
                assert!(*forward, "y is isLocatedIn's source: forward CSR");
                let [(key, _), (out, _)] = scan.endpoints(*forward);
                assert_eq!(key, store.symbols.col("y"));
                assert_eq!(out, store.symbols.col("z"));
                assert!(
                    matches!(probe.op, PhysOp::EdgeScan { .. }),
                    "owns is the probe: {probe:?}"
                );
            }
            other => panic!("expected index join, got {other:?}"),
        }
        // Output schema keeps the standard join layout.
        let s = &store.symbols;
        assert_eq!(p.cols, vec![s.col("x"), s.col("y"), s.col("z")]);
    }

    #[test]
    fn label_filtered_scan_side_absorbs_into_index_join() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        // owns(x,y) ⋈ (isLocatedIn(y,z) ⋉ CITY(y) ⋉ REGION(z)): the
        // node-label filters become membership checks on the CSR probe.
        let filtered = RaTerm::semijoin(
            RaTerm::semijoin(
                scan(&db, &store, "isLocatedIn", "y", "z"),
                RaTerm::NodeScan {
                    labels: vec![db.node_label_id("CITY").unwrap()],
                    col: store.symbols.col("y"),
                },
            ),
            RaTerm::NodeScan {
                labels: vec![db.node_label_id("REGION").unwrap()],
                col: store.symbols.col("z"),
            },
        );
        let t = RaTerm::join(scan(&db, &store, "owns", "x", "y"), filtered);
        let p = plan(&t, &store).unwrap();
        match &p.op {
            PhysOp::IndexJoin { scan, .. } => {
                assert_eq!(
                    scan.src_labels.as_deref(),
                    Some(&[db.node_label_id("CITY").unwrap()][..])
                );
                assert_eq!(
                    scan.tgt_labels.as_deref(),
                    Some(&[db.node_label_id("REGION").unwrap()][..])
                );
            }
            other => panic!("expected label-filtered index join, got {other:?}"),
        }
    }

    #[test]
    fn semijoin_on_scan_fuses() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        // A two-label filter: no precomputed slice serves it.
        let labels = ["CITY", "REGION"].map(|l| db.node_label_id(l).unwrap());
        let t = RaTerm::semijoin(
            scan(&db, &store, "isLocatedIn", "x", "y"),
            RaTerm::NodeScan {
                labels: labels.to_vec(),
                col: store.symbols.col("x"),
            },
        );
        let p = plan(&t, &store).unwrap();
        match &p.op {
            PhysOp::FilteredEdgeScan {
                scan, filter: None, ..
            } => {
                assert_eq!(scan.src_labels.as_deref(), Some(&labels[..]), "{p:?}");
                assert_eq!(scan.tgt_labels, None);
            }
            other => panic!("expected a label-filtered scan, got {other:?}"),
        }
    }

    #[test]
    fn both_forms_of_a_labelled_scan_plan_alike() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let l = |names: &[&str]| Some(names.iter().map(|n| db.node_label_id(n).unwrap()).collect());
        let located = |src_labels, tgt_labels| RaTerm::EdgeScan {
            label: db.edge_label_id("isLocatedIn").unwrap(),
            src: s.col("y"),
            tgt: s.col("z"),
            src_labels,
            tgt_labels,
        };
        let owns = scan(&db, &store, "owns", "x", "y");
        // A slice, a label filter, and an index join's absorbed scan.
        for labelled in [
            located(l(&["CITY"]), l(&["REGION"])),
            located(None, l(&["CITY", "REGION"])),
            RaTerm::join(owns.clone(), located(l(&["CITY"]), None)),
            RaTerm::join(owns, located(l(&["CITY", "REGION"]), l(&["COUNTRY"]))),
        ] {
            let stacked = match &labelled {
                RaTerm::Join(a, b) => RaTerm::join((**a).clone(), b.as_semijoins().unwrap()),
                scan => scan.as_semijoins().unwrap(),
            };
            assert_ne!(stacked, labelled);
            assert_eq!(plan(&stacked, &store), plan(&labelled, &store));
        }
    }

    #[test]
    fn an_empty_label_intersection_scans_nothing() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let node = |label: &str| RaTerm::NodeScan {
            labels: vec![db.node_label_id(label).unwrap()],
            col: store.symbols.col("x"),
        };
        let t = RaTerm::semijoin(
            RaTerm::semijoin(scan(&db, &store, "isLocatedIn", "x", "y"), node("CITY")),
            node("REGION"),
        );
        let p = plan(&t, &store).unwrap();
        assert!(
            matches!(&p.op, PhysOp::FilteredEdgeScan { scan, .. } if scan.src_labels.as_deref() == Some(&[])),
            "{p:?}"
        );
        assert_eq!(p.est.rows, 0.0);
        let mut ctx = crate::exec::ExecContext::new();
        assert!(crate::exec::execute_plan(&p, &store, &mut ctx)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn malformed_terms_fail_at_plan_time() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let t = RaTerm::select_eq(
            scan(&db, &store, "owns", "x", "y"),
            s.col("x"),
            s.col("nope"),
        );
        assert!(plan(&t, &store).is_err());
    }

    #[test]
    fn lowering_takes_one_estimator_step_per_term_node() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        // A left-deep chain of 64 joins, where re-estimating each join's
        // subtree from its root would be quadratic …
        let hop = |i: usize| {
            let (src, tgt) = (format!("c{i}"), format!("c{}", i + 1));
            scan(&db, &store, "isLocatedIn", &src, &tgt)
        };
        let chain = (1..=64).fold(hop(0), |acc, i| RaTerm::join(acc, hop(i)));
        // … and a closure nested in a join, whose step is folded under
        // the binding of its base.
        let closure = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isLocatedIn", "y", "z"),
            s.col("y"),
            s.col("z"),
            s.col("m"),
        );
        let nested = RaTerm::join(scan(&db, &store, "owns", "x", "y"), closure);
        for term in [chain, nested] {
            cost::STEPS.with(|n| n.set(0));
            plan(&term, &store).unwrap();
            let steps = cost::STEPS.with(|n| n.get());
            assert!(
                steps <= 2 * term.size(),
                "{steps} estimator steps for {} term nodes",
                term.size()
            );
        }
    }

    #[test]
    fn node_ids_are_dense() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let t = RaTerm::project(
            RaTerm::join(
                scan(&db, &store, "owns", "x", "y"),
                scan(&db, &store, "isLocatedIn", "y", "z"),
            ),
            vec![store.symbols.col("x"), store.symbols.col("z")],
        );
        // Project + IndexJoin + probe scan: the absorbed isLocatedIn scan
        // never allocates an id, so ids stay dense.
        let p = plan(&t, &store).unwrap();
        assert!(matches!(
            p.op,
            PhysOp::Project { ref input } if matches!(input.op, PhysOp::IndexJoin { .. })
        ));
        assert_eq!(p.node_count(), 3);
    }

    #[test]
    fn rename_equivalent_subtrees_share_one_id() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let (x, z) = (s.col("x"), s.col("z"));
        // π_head(owns(x,mid) ⋈ isLocatedIn(mid,z)).
        let hop = |mid: &str, head: Vec<ColId>| {
            let j = RaTerm::join(
                scan(&db, &store, "owns", "x", mid),
                scan(&db, &store, "isLocatedIn", mid, "z"),
            );
            RaTerm::project(j, head)
        };
        let arms = |p: &PhysPlan| match &p.op {
            PhysOp::Union { left, right } => (left.clone(), right.clone()),
            other => panic!("expected a union, got {other:?}"),
        };
        // The arms differ only in the join column's name: one node (and
        // one subtree of ids) read by both, so the ids stay dense.
        let p = plan(
            &RaTerm::union(hop("y", vec![x, z]), hop("m", vec![x, z])),
            &store,
        )
        .unwrap();
        let (l, r) = arms(&p);
        assert_eq!((l.id, l.parents(), r.parents()), (r.id, 2, 2));
        assert_eq!(l.children()[0].id, r.children()[0].id);
        assert_ne!(l.children()[0].cols, r.children()[0].cols);
        assert_eq!(p.node_count(), 4, "union, project, index join, scan");
        assert!(!l.later && r.later, "only the first renders its subtree");
        // Column order is part of the shape: π(x,z) ≠ π(z,x), though the
        // join under both is still one node.
        let p = plan(
            &RaTerm::union(hop("y", vec![x, z]), hop("m", vec![z, x])),
            &store,
        )
        .unwrap();
        let (l, r) = arms(&p);
        assert_ne!(l.id, r.id);
        assert_eq!((l.parents(), l.children()[0].parents()), (1, 2));
        assert_eq!(l.children()[0].id, r.children()[0].id);
        // A repeated bare scan is not worth a cache entry.
        let owns = |mid: &str| scan(&db, &store, "owns", "x", mid);
        let p = plan(&RaTerm::union(owns("y"), owns("m")), &store).unwrap();
        let (l, r) = arms(&p);
        assert_ne!(l.id, r.id);
        assert_eq!((l.parents(), r.parents()), (1, 1));
    }

    #[test]
    fn copies_of_one_class_share_only_in_one_shape() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let (x, z) = (s.col("x"), s.col("z"));
        let hop = |mid: &str| {
            let j = RaTerm::join(
                scan(&db, &store, "owns", "x", mid),
                scan(&db, &store, "isLocatedIn", mid, "z"),
            );
            RaTerm::project(j, vec![x, z])
        };
        let term = RaTerm::union(hop("y"), hop("m"));
        let (dag, root) = Dag::of(&term, true, None);
        // Both copies lower to one shape and share it.
        let mut planner = Planner::new(&store, &dag);
        let lowered = planner.lower(root).unwrap();
        let p = planner.share(lowered.clone());
        assert_eq!(p.node_count(), 4, "union, project, index join, scan");
        // A later copy of another shape than the first is not shared: the
        // plan keeps its post-order ids.
        planner.class[3] = planner.class[6];
        let p = planner.share(lowered);
        assert_eq!(p.node_count(), 7);
        assert!(
            !p.contains_op(&|op| matches!(op, PhysOp::Union { left, .. } if left.parents() > 1))
        );
    }

    #[test]
    fn label_filtered_scan_lowers_to_denorm_slice() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let (city, x) = (db.node_label_id("CITY").unwrap(), store.symbols.col("x"));
        let t = RaTerm::semijoin(
            scan(&db, &store, "isLocatedIn", "x", "y"),
            RaTerm::NodeScan {
                labels: vec![city],
                col: x,
            },
        );
        let p = plan(&t, &store).unwrap();
        match &p.op {
            PhysOp::DenormEdgeScan {
                src_label,
                tgt_label,
                ..
            } => {
                assert_eq!(*src_label, Some(city));
                assert_eq!(*tgt_label, None);
            }
            other => panic!("expected denorm scan, got {other:?}"),
        }
        // The slice is the semi-join of the base relations.
        let out = crate::exec::execute_plan(&p, &store, &mut crate::exec::ExecContext::new());
        let base = store.edge_table(db.edge_label_id("isLocatedIn").unwrap());
        let cities = store.node_table(city).with_cols(vec![SymbolTable::SR]);
        let expected = base.semijoin(&cities).into_cols(p.cols.clone());
        assert_eq!(out.unwrap(), expected);
        assert_eq!(expected.len(), 2, "two isLocatedIn edges start from a CITY");
    }

    #[test]
    fn double_filtered_scan_lowers_to_triple_slice() {
        let db = fig2_yago_database();
        let city = db.node_label_id("CITY").unwrap();
        let region = db.node_label_id("REGION").unwrap();
        let den = RelStore::load(&db);
        let s = &den.symbols;
        // ((isLocatedIn ⋉ CITY on x) ⋉ REGION on y): both endpoint
        // filters collapse into one slice scan.
        let t = RaTerm::semijoin(
            RaTerm::semijoin(
                scan(&db, &den, "isLocatedIn", "x", "y"),
                RaTerm::NodeScan {
                    labels: vec![city],
                    col: s.col("x"),
                },
            ),
            RaTerm::NodeScan {
                labels: vec![region],
                col: s.col("y"),
            },
        );
        let p = plan(&t, &den).unwrap();
        match &p.op {
            PhysOp::DenormEdgeScan {
                src_label,
                tgt_label,
                ..
            } => {
                assert_eq!(*src_label, Some(city));
                assert_eq!(*tgt_label, Some(region));
            }
            other => panic!("expected denorm scan, got {other:?}"),
        }
        let out =
            crate::exec::execute_plan(&p, &den, &mut crate::exec::ExecContext::new()).unwrap();
        assert_eq!(out.len(), 2, "Fig. 2 has two CITY→REGION edges");
    }
}
