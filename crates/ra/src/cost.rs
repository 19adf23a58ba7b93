//! Cardinality estimation over [`sgq_graph::GraphStats`].
//!
//! The estimator drives (a) the greedy join ordering in the optimiser,
//! (b) the build-side selection of the physical planner
//! ([`mod@crate::plan`]) and (c) the costs printed by `EXPLAIN` (Fig. 17).
//!
//! **Statistics v2.** Estimation tracks, per intermediate, the estimated
//! row count *and* a per-column distinct-value estimate (the internal
//! `Card`), seeded from the measured statistics instead of textbook
//! guesses:
//!
//! * an edge scan knows its measured distinct source/target counts;
//! * a scan filtered by node-label semi-joins keeps a **label pedigree**
//!   (the internal `ScanInfo`) and is estimated straight from the
//!   per-triple counts — for a fully label-annotated scan the estimate
//!   is *exact*;
//! * join selectivity is `1 / max(V(L,c), V(R,c))` with `V` taken from the
//!   tracked distinct counts (falling back to `min(|rel|, |V(G)|)` only
//!   when a column's provenance is unknown);
//! * an equality selection uses `1 / max(V(a), V(b))` instead of the flat
//!   10% guess;
//! * a fixpoint's growth factor is derived from the measured closure depth
//!   bound of the edge labels it iterates over
//!   ([`sgq_graph::GraphStats::closure_depth`]) instead of a constant.
//!
//! Estimation is *environment-threaded*: inside a fixpoint `µX. b ∪ s`,
//! a recursive reference `X` is estimated at the base case's
//! cardinality (bound in an [`EstEnv`]) rather than a constant, and
//! the per-iteration growth factor applies only to the part of the
//! step that actually depends on `X` — the static part is computed
//! (and, in the physical executor, cached) once.
//!
//! **Runtime feedback.** Alongside its estimate, every subterm gets a
//! structural **fingerprint** ([`fingerprint`]): a bottom-up hash over
//! operator kinds, edge labels, node-label filters and join-key
//! *positions* in the children's output schemas. Column names never
//! enter the hash, so the fingerprint is invariant under renaming; and
//! because it is computed from the logical term, physical strategies
//! (hash vs merge vs index join) of the same logical subtree share it.
//! Before returning a recursion-independent estimate, the formulas ask
//! the store's [`crate::feedback::FeedbackMemo`] whether this exact
//! subtree has been executed before — if so, the *observed* cardinality
//! replaces the estimated one, so re-prepared queries get measured row
//! counts where it matters (join ordering, build sides, index-vs-hash).

use std::hash::{Hash, Hasher};

use sgq_common::{ColId, EdgeLabelId, FxHashMap, FxHasher, NodeLabelId, RecVarId};

use crate::storage::RelStore;
use crate::term::RaTerm;

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
pub(crate) const DEFAULT_FIXPOINT_GROWTH: f64 = 4.0;

/// Probe sides below this many rows stay serial at any degree of
/// parallelism. Dispatching a morsel costs tens of microseconds
/// (enqueue, wake, output merge) while probing costs tens of
/// nanoseconds per row, so a probe needs a few tens of thousands of
/// rows before splitting pays for itself; under the threshold the
/// executor never touches the scheduler. The same bound gates the
/// `parallel ×N` annotation in `EXPLAIN`, driven by the *estimated*
/// probe rows ([`crate::plan::PhysPlan::parallel_probe_rows`]).
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

/// Estimation environment: the base-case cardinality of every enclosing
/// fixpoint, keyed by recursion variable. A [`RaTerm::RecRef`] is
/// estimated at its binding (falling back to 1 row when unbound).
#[derive(Debug, Default)]
pub struct EstEnv {
    rows: FxHashMap<RecVarId, f64>,
    /// Fingerprint tokens per bound recursion variable: the de-Bruijn
    /// style nesting depth at bind time, so a recursive reference hashes
    /// by *which enclosing fixpoint* it refers to rather than by the
    /// variable's interned name (rename-invariance).
    fp_tokens: FxHashMap<RecVarId, u64>,
    fp_depth: u64,
}

impl EstEnv {
    /// An empty environment (no enclosing fixpoints).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `var` the fingerprint token for the next nesting level,
    /// returning the previous token for [`EstEnv::restore_fp`].
    fn bind_fp(&mut self, var: RecVarId) -> Option<u64> {
        self.fp_depth += 1;
        self.fp_tokens.insert(var, self.fp_depth)
    }

    /// Restores the token saved by [`EstEnv::bind_fp`].
    fn restore_fp(&mut self, var: RecVarId, prev: Option<u64>) {
        self.fp_depth -= 1;
        match prev {
            Some(t) => {
                self.fp_tokens.insert(var, t);
            }
            None => {
                self.fp_tokens.remove(&var);
            }
        }
    }

    /// The fingerprint token for `var`: the de-Bruijn index (distance
    /// from the current nesting depth to the binder), so a fixpoint
    /// fingerprints identically whether estimated at its own root or
    /// nested inside another fixpoint. Unbound references (estimating a
    /// step subterm in isolation) fall back to the variable's id — still
    /// deterministic, and such subtrees are recursion-dependent anyway,
    /// so the memo never stores them.
    fn fp_token(&self, var: RecVarId) -> u64 {
        self.fp_tokens
            .get(&var)
            .map(|&bound_at| self.fp_depth - bound_at)
            .unwrap_or(0x5eed_0000_0000_0000 | var.raw() as u64)
    }

    /// Binds `var` to an estimated cardinality, returning the previous
    /// binding so nested fixpoints over the same variable can restore it.
    pub fn bind(&mut self, var: RecVarId, rows: f64) -> Option<f64> {
        self.rows.insert(var, rows)
    }

    /// Restores the binding saved by [`EstEnv::bind`].
    pub fn restore(&mut self, var: RecVarId, prev: Option<f64>) {
        match prev {
            Some(r) => {
                self.rows.insert(var, r);
            }
            None => {
                self.rows.remove(&var);
            }
        }
    }

    /// The bound cardinality for `var`, if any.
    pub fn rows(&self, var: RecVarId) -> Option<f64> {
        self.rows.get(&var).copied()
    }
}

/// Estimates `term` against the statistics in `store`, outside any
/// fixpoint (recursive references fall back to 1 row).
pub fn estimate(term: &RaTerm, store: &RelStore) -> Estimate {
    estimate_with_env(term, store, &mut EstEnv::new())
}

/// Estimates `term` with recursive references resolved through `env`.
pub fn estimate_with_env(term: &RaTerm, store: &RelStore, env: &mut EstEnv) -> Estimate {
    let p = parts(term, store, env);
    Estimate {
        rows: p.card.rows,
        cost: p.st + p.dy,
    }
}

/// A planner-facing per-node estimate: the rows, the subtree's
/// structural fingerprint, and whether the rows came from the runtime
/// feedback memo rather than the formulas.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeEst {
    /// Estimated (or observed) output rows.
    pub(crate) rows: f64,
    /// Structural fingerprint of the logical subtree.
    pub(crate) fp: u64,
    /// Whether `rows` is a memoised observation.
    pub(crate) memo: bool,
}

/// Estimates `term` and returns rows + fingerprint + memo provenance —
/// what the planner stamps onto each lowered node.
pub(crate) fn node_est(term: &RaTerm, store: &RelStore, env: &mut EstEnv) -> NodeEst {
    let p = parts(term, store, env);
    NodeEst {
        rows: p.card.rows,
        fp: p.fp,
        memo: p.memo,
    }
}

/// The structural fingerprint of `term`: a bottom-up hash over operator
/// kinds, edge labels, node-label filters and join-key positions.
/// Invariant under column renaming (columns enter as positions in their
/// child's output schema) and under join operand order.
pub fn fingerprint(term: &RaTerm, store: &RelStore) -> u64 {
    parts(term, store, &mut EstEnv::new()).fp
}

// Fingerprint hashing. Tags keep distinct operators from colliding;
// positions (not names) make the hash rename-invariant.
const FP_EDGE: u64 = 1;
const FP_NODE: u64 = 2;
const FP_JOIN: u64 = 3;
const FP_SEMI: u64 = 4;
const FP_UNION: u64 = 5;
const FP_PROJECT: u64 = 6;
const FP_SELECT: u64 = 7;
const FP_FIX: u64 = 8;
const FP_RECREF: u64 = 9;
const FP_POS: u64 = 10;

fn fp_hash(tag: u64, vals: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    tag.hash(&mut h);
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

/// Hash of `keys` as positions within `cols`, in the order given.
fn fp_positions(cols: &[ColId], keys: &[ColId]) -> u64 {
    let pos: Vec<u64> = keys
        .iter()
        .map(|k| {
            cols.iter()
                .position(|c| c == k)
                .map_or(u64::MAX, |p| p as u64)
        })
        .collect();
    fp_hash(FP_POS, &pos)
}

/// Hash of `keys` as a *set* of positions within `cols` (sorted).
fn fp_position_set(cols: &[ColId], keys: &[ColId]) -> u64 {
    let mut pos: Vec<u64> = keys
        .iter()
        .map(|k| {
            cols.iter()
                .position(|c| c == k)
                .map_or(u64::MAX, |p| p as u64)
        })
        .collect();
    pos.sort_unstable();
    fp_hash(FP_POS, &pos)
}

/// Operand-order-invariant fingerprint of a binary node over `shared`
/// key columns: the direct hash (keys enumerated in left-schema order)
/// and the mirrored hash (right-schema order) are combined by `min`, so
/// `a ⋈ b` and `b ⋈ a` fingerprint identically.
fn fp_commutative(tag: u64, fa: u64, ca: &[ColId], fb: u64, cb: &[ColId], shared: &[ColId]) -> u64 {
    let mut by_b: Vec<ColId> = shared.to_vec();
    by_b.sort_unstable_by_key(|k| cb.iter().position(|c| c == k).unwrap_or(usize::MAX));
    let direct = fp_hash(
        tag,
        &[fa, fp_positions(ca, shared), fb, fp_positions(cb, shared)],
    );
    let mirror = fp_hash(
        tag,
        &[fb, fp_positions(cb, &by_b), fa, fp_positions(ca, &by_b)],
    );
    direct.min(mirror)
}

/// Growth multiplier for a fixpoint term: half the measured closure depth
/// bound of the deepest edge label the fixpoint iterates over (a chain of
/// depth `d` produces about `d/2` times its base in closure pairs),
/// clamped to `[1, 256]`. Falls back to [`DEFAULT_FIXPOINT_GROWTH`] when
/// no edge label is in scope.
pub(crate) fn fixpoint_growth(term: &RaTerm, store: &RelStore) -> f64 {
    let mut labels = Vec::new();
    collect_edge_labels(term, &mut labels);
    let depth = labels
        .iter()
        .map(|&le| store.stats.closure_depth(le))
        .max()
        .unwrap_or(0);
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

/// Cost of an index semi-join: the left side pays one CSR degree lookup
/// (plus a bounded neighbour check when the far endpoint is
/// label-filtered) per row; the edge table is never scanned.
pub(crate) fn index_semijoin_cost(left: &Estimate) -> f64 {
    left.cost + left.rows * 2.0
}

/// Cost of a masked multi-label scan over the polymorphic layout's
/// single edge table: one pass over all `poly_rows` distinct `(s, t)`
/// pairs (a bitmask test per row) plus the emitted output.
pub(crate) fn multi_scan_cost(poly_rows: usize, out_rows: f64) -> f64 {
    poly_rows as f64 + out_rows
}

/// Cost of the union-all of per-label scans the masked pass competes
/// with: each label's table is scanned and the collected rows are
/// normalised once (`Relation::union_many` sorts + dedups), so every
/// input row is touched roughly twice.
pub(crate) fn union_all_cost(label_rows: f64) -> f64 {
    2.0 * label_rows
}

/// Cost of a denormalised filtered scan: the endpoint-label slice was
/// materialised at load, so the scan pays exactly the slice's rows —
/// the semi-join filter is free.
pub(crate) fn denorm_scan_cost(slice_rows: f64) -> f64 {
    slice_rows
}

fn collect_edge_labels(term: &RaTerm, out: &mut Vec<EdgeLabelId>) {
    match term {
        RaTerm::EdgeScan { label, .. } => {
            if !out.contains(label) {
                out.push(*label);
            }
        }
        RaTerm::NodeScan { .. } | RaTerm::RecRef { .. } => {}
        RaTerm::Join(a, b) | RaTerm::Semijoin(a, b) | RaTerm::Union(a, b) => {
            collect_edge_labels(a, out);
            collect_edge_labels(b, out);
        }
        RaTerm::Project { input, .. }
        | RaTerm::Rename { input, .. }
        | RaTerm::Select { input, .. } => collect_edge_labels(input, out),
        RaTerm::Fixpoint { base, step, .. } => {
            collect_edge_labels(base, out);
            collect_edge_labels(step, out);
        }
    }
}

/// Label pedigree of an edge scan: which node labels its endpoints are
/// known (via semi-join filters) to carry. `None` = unrestricted.
#[derive(Debug, Clone)]
struct ScanInfo {
    label: EdgeLabelId,
    src: ColId,
    tgt: ColId,
    src_labels: Option<Vec<NodeLabelId>>,
    tgt_labels: Option<Vec<NodeLabelId>>,
}

impl ScanInfo {
    fn bare(label: EdgeLabelId, src: ColId, tgt: ColId) -> Self {
        ScanInfo {
            label,
            src,
            tgt,
            src_labels: None,
            tgt_labels: None,
        }
    }

    /// Restricts the endpoint exposed as `col` to `labels` (intersecting
    /// with any previous restriction).
    fn refine(&self, col: ColId, labels: &[NodeLabelId]) -> ScanInfo {
        let mut out = self.clone();
        let slot = if col == self.src {
            &mut out.src_labels
        } else {
            &mut out.tgt_labels
        };
        *slot = Some(match slot.take() {
            Some(prev) => prev.into_iter().filter(|l| labels.contains(l)).collect(),
            None => labels.to_vec(),
        });
        out
    }

    fn rename(&mut self, from: ColId, to: ColId) {
        if self.src == from {
            self.src = to;
        }
        if self.tgt == from {
            self.tgt = to;
        }
    }
}

/// Cardinality description of one intermediate: estimated rows, estimated
/// distinct values per column, and (when the intermediate is a — possibly
/// label-filtered — edge or node scan) its provenance for triple-count
/// lookups.
#[derive(Debug, Clone, Default)]
pub(crate) struct Card {
    pub(crate) rows: f64,
    /// Per-column distinct-value estimates.
    distinct: Vec<(ColId, f64)>,
    /// Edge-scan pedigree, when the rows are exactly a label-restricted
    /// edge table.
    scan: Option<ScanInfo>,
    /// Node-scan pedigree: the column and the node labels it ranges over.
    node_labels: Option<(ColId, Vec<NodeLabelId>)>,
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
        if let Some(info) = &mut self.scan {
            info.rename(from, to);
        }
        if let Some((c, _)) = &mut self.node_labels {
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
fn scan_card(info: ScanInfo, store: &RelStore) -> Card {
    let st = &store.stats;
    let le = info.label;
    let (rows, dsrc, dtgt) = match (&info.src_labels, &info.tgt_labels) {
        (None, None) => (
            st.edge_cardinality(le) as f64,
            st.distinct_sources(le) as f64,
            st.distinct_targets(le) as f64,
        ),
        (Some(srcs), None) => {
            let (mut c, mut ds) = (0.0, 0.0);
            for &s in srcs {
                let g = st.source_group(s, le);
                c += g.count as f64;
                ds += g.distinct as f64;
            }
            (c, ds, (st.distinct_targets(le) as f64).min(c))
        }
        (None, Some(tgts)) => {
            let (mut c, mut dt) = (0.0, 0.0);
            for &t in tgts {
                let g = st.target_group(le, t);
                c += g.count as f64;
                dt += g.distinct as f64;
            }
            (c, (st.distinct_sources(le) as f64).min(c), dt)
        }
        (Some(srcs), Some(tgts)) => {
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
    let (src, tgt) = (info.src, info.tgt);
    Card {
        rows,
        distinct: vec![(src, dsrc.min(rows)), (tgt, dtgt.min(rows))],
        scan: Some(info),
        node_labels: None,
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
    Card {
        rows,
        distinct,
        scan: None,
        node_labels: None,
    }
    .cap_distinct()
}

/// Semi-join output cardinality. A node-label filter on an edge
/// scan refines the scan's label pedigree and re-reads the aggregate /
/// triple counts — the estimate for a fully annotated scan is exact;
/// everything else uses the containment assumption
/// `Π_c min(V(L,c), V(R,c)) / V(L,c)`.
fn semijoin_card(a: &Card, b: &Card, shared: &[ColId], store: &RelStore) -> Card {
    let (la, lb) = (a.rows, b.rows);
    // Label-aware fast paths: the filter is a node scan on one of the
    // left side's pedigree endpoints.
    if let (Some(info), Some((col, labels))) = (&a.scan, &b.node_labels) {
        if shared == [*col] && (*col == info.src || *col == info.tgt) {
            let refined = info.refine(*col, labels);
            let mut out = scan_card(refined, store);
            out.rows = out.rows.min(la);
            return out.cap_distinct();
        }
    }
    if let (Some((ca, als)), Some((cb, bls))) = (&a.node_labels, &b.node_labels) {
        if ca == cb && shared == [*ca] {
            let inter: Vec<NodeLabelId> = als.iter().copied().filter(|l| bls.contains(l)).collect();
            let rows = (inter
                .iter()
                .map(|&l| store.stats.label_cardinality(l) as f64)
                .sum::<f64>())
            .min(la);
            let col = *ca;
            return Card {
                rows,
                distinct: vec![(col, rows)],
                scan: None,
                node_labels: Some((col, inter)),
            };
        }
    }
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
    // The surviving rows are no longer exactly a label-restricted table.
    out.scan = None;
    out.node_labels = None;
    out.cap_distinct()
}

/// One term's estimate split into the cost of its recursion-independent
/// part (`st`, computed once per fixpoint) and its recursion-dependent
/// part (`dy`, recomputed every iteration), plus the subtree's
/// structural fingerprint and memo provenance.
struct Parts {
    card: Card,
    st: f64,
    dy: f64,
    dep: bool,
    /// Structural fingerprint of this subtree.
    fp: u64,
    /// Whether `card.rows` was overridden by a memoised observation.
    memo: bool,
}

/// Folds child parts with this node's local cost: a node is dynamic as
/// soon as any input depends on a recursive reference, and only then
/// does its local cost join the per-iteration bucket.
fn fold(children: &[&Parts], local: f64, card: Card, fp: u64) -> Parts {
    let dep = children.iter().any(|c| c.dep);
    let st: f64 = children.iter().map(|c| c.st).sum();
    let dy: f64 = children.iter().map(|c| c.dy).sum();
    if dep {
        Parts {
            card,
            st,
            dy: dy + local,
            dep,
            fp,
            memo: false,
        }
    } else {
        Parts {
            card,
            st: st + local,
            dy,
            dep,
            fp,
            memo: false,
        }
    }
}

/// Estimates one node, then lets the runtime feedback memo override the
/// formula estimate: a recursion-independent subtree that has executed
/// before reports its *observed* cardinality instead. Recursion-dependent
/// subtrees are skipped (per-round deltas would poison the memo — they
/// are never recorded either).
fn parts(term: &RaTerm, store: &RelStore, env: &mut EstEnv) -> Parts {
    let mut p = parts_raw(term, store, env);
    if !p.dep {
        if let Some(obs) = store.feedback.lookup(p.fp) {
            p.card.rows = obs.rows;
            p.card = p.card.cap_distinct();
            p.memo = true;
        }
    }
    p
}

fn parts_raw(term: &RaTerm, store: &RelStore, env: &mut EstEnv) -> Parts {
    match term {
        RaTerm::EdgeScan { label, src, tgt } => {
            let card = scan_card(ScanInfo::bare(*label, *src, *tgt), store);
            let rows = card.rows;
            let fp = fp_hash(FP_EDGE, &[label.raw() as u64, (src == tgt) as u64]);
            fold(&[], rows, card, fp)
        }
        RaTerm::NodeScan { labels, col } => {
            let rows: f64 = labels
                .iter()
                .map(|&l| store.stats.label_cardinality(l) as f64)
                .sum();
            let card = Card {
                rows,
                distinct: vec![(*col, rows)],
                scan: None,
                node_labels: Some((*col, labels.clone())),
            };
            let mut ls: Vec<u64> = labels.iter().map(|l| l.raw() as u64).collect();
            ls.sort_unstable();
            let fp = fp_hash(FP_NODE, &ls);
            fold(&[], rows, card, fp)
        }
        RaTerm::Join(a, b) => {
            let pa = parts(a, store, env);
            let pb = parts(b, store, env);
            let (ca, cb) = (a.cols(), b.cols());
            let shared: Vec<ColId> = ca.iter().copied().filter(|c| cb.contains(c)).collect();
            let card = join_card(&pa.card, &pb.card, &shared, store);
            let fp = fp_commutative(FP_JOIN, pa.fp, &ca, pb.fp, &cb, &shared);
            let local = pa.card.rows + pb.card.rows + card.rows;
            fold(&[&pa, &pb], local, card, fp)
        }
        RaTerm::Semijoin(a, b) => {
            let pa = parts(a, store, env);
            let pb = parts(b, store, env);
            let (ca, cb) = (a.cols(), b.cols());
            let shared: Vec<ColId> = ca.iter().copied().filter(|c| cb.contains(c)).collect();
            let card = semijoin_card(&pa.card, &pb.card, &shared, store);
            // A semi-join is directional: sides do not commute.
            let fp = fp_hash(
                FP_SEMI,
                &[
                    pa.fp,
                    fp_positions(&ca, &shared),
                    pb.fp,
                    fp_positions(&cb, &shared),
                ],
            );
            let local = pa.card.rows + pb.card.rows;
            fold(&[&pa, &pb], local, card, fp)
        }
        RaTerm::Union(a, b) => {
            let pa = parts(a, store, env);
            let pb = parts(b, store, env);
            let (ca, cb) = (a.cols(), b.cols());
            let fp = fp_commutative(FP_UNION, pa.fp, &ca, pb.fp, &cb, &ca);
            let rows = pa.card.rows + pb.card.rows;
            let card = {
                let distinct = pa
                    .card
                    .distinct
                    .iter()
                    .map(|&(c, va)| (c, va + pb.card.dv(c, store)))
                    .collect();
                let node_labels = match (&pa.card.node_labels, &pb.card.node_labels) {
                    (Some((ca, als)), Some((cb, bls))) if ca == cb => {
                        let mut ls = als.clone();
                        for l in bls {
                            if !ls.contains(l) {
                                ls.push(*l);
                            }
                        }
                        Some((*ca, ls))
                    }
                    _ => None,
                };
                Card {
                    rows,
                    distinct,
                    scan: None,
                    node_labels,
                }
                .cap_distinct()
            };
            fold(&[&pa, &pb], rows, card, fp)
        }
        RaTerm::Project { input, cols } => {
            let p = parts(input, store, env);
            let fp = fp_hash(FP_PROJECT, &[p.fp, fp_position_set(&input.cols(), cols)]);
            let local = p.card.rows;
            let card = {
                // Set semantics: the projection cannot produce more rows
                // than the product of its columns' distinct values.
                let prod: f64 = cols.iter().map(|&c| p.card.dv(c, store).max(1.0)).product();
                let rows = p.card.rows.min(prod);
                let distinct = p
                    .card
                    .distinct
                    .iter()
                    .filter(|(c, _)| cols.contains(c))
                    .copied()
                    .collect();
                let scan = p
                    .card
                    .scan
                    .clone()
                    .filter(|info| cols.contains(&info.src) && cols.contains(&info.tgt));
                let node_labels = p.card.node_labels.clone().filter(|(c, _)| cols.contains(c));
                Card {
                    rows,
                    distinct,
                    scan,
                    node_labels,
                }
                .cap_distinct()
            };
            fold(&[&p], local, card, fp)
        }
        RaTerm::Rename { input, from, to } => {
            // Renames are positional no-ops: the fingerprint passes
            // through unchanged (rename-invariance by construction).
            let mut p = parts(input, store, env);
            p.card.rename(*from, *to);
            p
        }
        RaTerm::Select { input, a, b } => {
            let p = parts(input, store, env);
            let ci = input.cols();
            let (pa, pb) = (
                ci.iter()
                    .position(|c| c == a)
                    .map_or(u64::MAX, |x| x as u64),
                ci.iter()
                    .position(|c| c == b)
                    .map_or(u64::MAX, |x| x as u64),
            );
            let fp = fp_hash(FP_SELECT, &[p.fp, pa.min(pb), pa.max(pb)]);
            let local = p.card.rows;
            let card = {
                let v = p.card.dv(*a, store).max(p.card.dv(*b, store)).max(1.0);
                let mut out = p.card.clone();
                out.rows = p.card.rows / v;
                out.scan = None;
                out.node_labels = None;
                out.cap_distinct()
            };
            fold(&[&p], local, card, fp)
        }
        RaTerm::Fixpoint {
            var,
            base,
            step,
            stable,
        } => {
            let pb = parts(base, store, env);
            let prev = env.bind(*var, pb.card.rows);
            let prev_fp = env.bind_fp(*var);
            let ps = parts(step, store, env);
            env.restore_fp(*var, prev_fp);
            env.restore(*var, prev);
            let fp = fp_hash(
                FP_FIX,
                &[pb.fp, ps.fp, fp_position_set(&base.cols(), stable)],
            );
            let growth = fixpoint_growth(term, store);
            let rows = pb.card.rows * growth;
            let card = {
                // Stable columns keep the base's distinct values (every
                // round copies them unchanged); the others may range over
                // anything reachable.
                let nodes = nodes_f(store);
                let distinct = pb
                    .card
                    .distinct
                    .iter()
                    .map(|&(c, v)| {
                        if stable.contains(&c) {
                            (c, v)
                        } else {
                            (c, rows.min(nodes))
                        }
                    })
                    .collect();
                Card {
                    rows,
                    distinct,
                    scan: None,
                    node_labels: None,
                }
                .cap_distinct()
            };
            // The static step cost is paid once (the physical executor
            // caches those intermediates across rounds); only the
            // delta-dependent part multiplies with the iteration count.
            let total = pb.st + pb.dy + ps.st + ps.dy * growth + rows;
            if pb.dep {
                Parts {
                    card,
                    st: 0.0,
                    dy: total,
                    dep: true,
                    fp,
                    memo: false,
                }
            } else {
                Parts {
                    card,
                    st: total,
                    dy: 0.0,
                    dep: false,
                    fp,
                    memo: false,
                }
            }
        }
        RaTerm::RecRef { var, cols } => Parts {
            card: Card::plain(env.rows(*var).unwrap_or(1.0)),
            st: 0.0,
            dy: 0.0,
            dep: true,
            fp: fp_hash(FP_RECREF, &[env.fp_token(*var), cols.len() as u64]),
            memo: false,
        },
    }
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
        RaTerm::EdgeScan {
            label: db.edge_label_id(label).unwrap(),
            src: store.symbols.col(src),
            tgt: store.symbols.col(tgt),
        }
    }

    fn node(db: &sgq_graph::GraphDatabase, store: &RelStore, label: &str, col: &str) -> RaTerm {
        RaTerm::NodeScan {
            labels: vec![db.node_label_id(label).unwrap()],
            col: store.symbols.col(col),
        }
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
        assert_eq!(fixpoint_growth(&f, &store), 2.0);
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
        assert_eq!(fixpoint_growth(&f, &store), 1.0);
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
        let mut env = EstEnv::new();
        env.bind(var, 4.0);
        assert_eq!(estimate_with_env(&recref, &store, &mut env).rows, 4.0);
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
        let mut env = EstEnv::new();
        env.bind(var, 4.0);
        let e_step = estimate_with_env(step, &store, &mut env);
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
        let growth = fixpoint_growth(&f, &store);
        let eb = estimate(base, &store);
        let mut env = EstEnv::new();
        env.bind(var, eb.rows);
        let es = estimate_with_env(step, &store, &mut env);
        let e_fix = estimate(&f, &store);
        let naive = eb.cost + es.cost * growth + eb.rows * growth;
        assert!(
            e_fix.cost < naive,
            "static scan cost must not be multiplied: {} !< {naive}",
            e_fix.cost
        );
    }

    #[test]
    fn fingerprint_is_rename_invariant() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        // The same logical join under different column namings.
        let j1 = RaTerm::join(
            scan(&db, &store, "livesIn", "x", "y"),
            scan(&db, &store, "isLocatedIn", "y", "z"),
        );
        let j2 = RaTerm::join(
            scan(&db, &store, "livesIn", "a", "b"),
            scan(&db, &store, "isLocatedIn", "b", "c"),
        );
        assert_eq!(fingerprint(&j1, &store), fingerprint(&j2, &store));
        // An explicit rename on top is transparent.
        let renamed = RaTerm::Rename {
            input: Box::new(j1.clone()),
            from: store.symbols.col("z"),
            to: store.symbols.col("w"),
        };
        assert_eq!(fingerprint(&renamed, &store), fingerprint(&j1, &store));
        // Joining on different key positions is a different fingerprint.
        let j3 = RaTerm::join(
            scan(&db, &store, "livesIn", "x", "y"),
            scan(&db, &store, "isLocatedIn", "x", "z"),
        );
        assert_ne!(fingerprint(&j1, &store), fingerprint(&j3, &store));
        // So is a different edge label.
        let j4 = RaTerm::join(
            scan(&db, &store, "owns", "x", "y"),
            scan(&db, &store, "isLocatedIn", "y", "z"),
        );
        assert_ne!(fingerprint(&j1, &store), fingerprint(&j4, &store));
    }

    #[test]
    fn fingerprint_join_operands_commute() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let a = scan(&db, &store, "livesIn", "x", "y");
        let b = scan(&db, &store, "isLocatedIn", "y", "z");
        assert_eq!(
            fingerprint(&RaTerm::join(a.clone(), b.clone()), &store),
            fingerprint(&RaTerm::join(b.clone(), a.clone()), &store),
        );
        // Semi-joins are directional and must NOT commute.
        let n = node(&db, &store, "CITY", "y");
        assert_ne!(
            fingerprint(&RaTerm::semijoin(a.clone(), n.clone()), &store),
            fingerprint(&RaTerm::semijoin(n, a), &store),
        );
    }

    #[test]
    fn memo_overrides_formula_estimate() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let s = &store.symbols;
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isLocatedIn", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        assert_eq!(estimate(&f, &store).rows, 8.0, "formula baseline");
        store.feedback.observe(fingerprint(&f, &store), 100);
        assert_eq!(estimate(&f, &store).rows, 100.0, "observed rows win");
        // A renamed variant of the same subtree shares the observation.
        let renamed = RaTerm::Rename {
            input: Box::new(f.clone()),
            from: s.col("y"),
            to: s.col("t"),
        };
        assert_eq!(estimate(&renamed, &store).rows, 100.0);
    }
}
