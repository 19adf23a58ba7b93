//! Execution: an interpreter over physical plans ([`mod@crate::plan`]).
//!
//! [`execute`] keeps the original term-level entry point (lower, then
//! interpret); [`execute_plan`] runs a pre-lowered plan, which is what
//! the harness uses to plan a query once and execute it per repetition.
//!
//! The interpreter keeps the two execution-protocol invariants of the
//! old term evaluator:
//!
//! * joins, semi-joins and index builds poll the cooperative deadline
//!   every few thousand rows, so timeouts fire *mid-operator*;
//! * `rows_materialized` counts every materialised row exactly once —
//!   which includes *not* counting what is never materialised: renames
//!   are zero-copy, fused filtered scans materialise only the surviving
//!   rows, a cached node counts (and is charged, traced and fed back)
//!   where it is computed, not where it is reused, and a join fused into
//!   its projection counts its emit buffer — the projected columns of
//!   every match, before dedup — as the join's rows.
//!
//! **One node cache per execution**, keyed by plan-node id, serves both
//! kinds of reuse. A shared node ([`PhysPlan::parents`] above 1) is
//! computed once and dropped after its last parent read it. Fixpoints
//! run semi-naively against the pre-planned step; every maximal static
//! subtree of a step is computed in the first round and dropped when the
//! fixpoint finishes, and a static hash build side is kept as its *built*
//! [`KeyMap`] (row ids, or `()` for a semi-join's key set), so later
//! rounds only probe with the delta. Index joins probe the store's
//! load-time CSR lists directly: nothing to build, in any round.
//!
//! **One kernel per probe-side operator.** The probe side of a hash or
//! index join is one *kernel*, and so is every filter that is not a
//! precomputed slice — a hash semi-join, a key set or label test on an
//! edge scan, all one row filter: a function from a row range of the
//! probe to the rows it emits for that range, owning `Arc`-shared
//! handles on its inputs. A join kernel emits through a layout: its own
//! columns, or — when a projection is the join's only reader — the
//! projected ones, so the wide join output is never built and the one
//! sort left runs on the narrow run. The range runner
//! (`Interp::run_ranges`) is the only thing that invokes a kernel,
//! records its emitted rows and normalises its run: once, inline, over
//! the whole probe — or, with
//! [`ExecContext::dop`] above 1 and a probe that clears
//! [`ExecContext::parallel_threshold`], once per morsel (see
//! [`mod@crate::parallel`]) on the scheduler, combining the runs by the
//! operator's `Combine` rule, so a parallel run is bit-identical to
//! the inline one. Inside a fixpoint this means each round's delta probe
//! parallelises against the round-cached static build sides for free.
//! Every poll, every record and every fault site goes through the
//! execution's [`Limits`] — the same contract the graph engine runs
//! under: the deadline, the row and memory budgets as shared atomics, and
//! a cancel flag the first morsel to breach trips for its siblings,
//! bounding overshoot to about one in-flight morsel per worker.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sgq_common::limits::{is_cancelled, Limits};
use sgq_common::{ColId, FaultPlan, FxHashMap, NodeId, QueryBudget, RecVarId, Result, SgqError};
use sgq_graph::Csr;
use sgq_obs::{OpSpan, OpTraceBuilder, TraceClock};

use crate::parallel::{self, TaskScheduler};
use crate::plan::{plan, PhysOp, PhysPlan};
use crate::table::{normalize_flat, KeyMap, Relation, POLL_MASK};
use crate::term::RaTerm;

/// Execution context: the fixpoint environment, a cooperative deadline,
/// work counters, and the degree-of-parallelism knob.
#[derive(Debug)]
pub struct ExecContext {
    /// Fixpoint environment, keyed by interned recursion variable.
    env: FxHashMap<RecVarId, Relation>,
    /// Cooperative deadline (the paper's 30-minute protocol, scaled).
    pub deadline: Option<Instant>,
    /// Reported timeout budget in milliseconds.
    pub limit_ms: u64,
    /// Total rows materialised by all operators, shared with parallel
    /// morsel workers (each materialised row is counted exactly once;
    /// cached fixpoint intermediates count in the round that computes
    /// them). Read it through [`ExecContext::rows_materialized`].
    rows: Arc<AtomicUsize>,
    /// Fixpoint iterations run.
    pub fixpoint_rounds: usize,
    /// Abort once this many rows have been materialised (0 = unlimited).
    pub max_rows: usize,
    /// Hash tables and semi-join key sets built.
    pub hash_builds: usize,
    /// Node-cache hits (a shared node, or a fixpoint's static input or build side, reused).
    pub cache_hits: usize,
    /// Degree of parallelism: how many morsels of one operator may run
    /// concurrently. 1 (the default) keeps execution fully serial with
    /// zero scheduler overhead.
    pub dop: usize,
    /// Morsel size cap in probe rows (default
    /// [`parallel::MORSEL_ROWS`]). Tests shrink it to force multi-morsel
    /// execution on small inputs.
    pub morsel_rows: usize,
    /// Probe sides below this many rows stay serial even at `dop > 1`
    /// (default [`crate::cost::PARALLEL_ROW_THRESHOLD`]).
    pub parallel_threshold: usize,
    /// Morsel tasks executed by parallel sections.
    pub morsels_executed: usize,
    /// Base-table scan operators evaluated (edge, node, filtered and
    /// denormalised scans alike) — the service's `scans` counter.
    pub scans: usize,
    /// Always 0: nothing increments it since the mid-flight build-side
    /// flip was retired (ROADMAP 8(b)). Retained only because the
    /// benchmark's binding surface reads it; ROADMAP item 5(d) removes it.
    pub replans: usize,
    /// The scheduler parallel sections run on: lent through
    /// [`ExecContext::set_scheduler`], or spawned (`dop` workers) by the
    /// first parallel section of a context that was lent none and joined
    /// when the context drops.
    scheduler: Option<Arc<TaskScheduler>>,
    /// Memory budget charged at every materialisation point (rows ×
    /// arity × 4 bytes), shared with morsel workers. `None` (the
    /// default) skips memory accounting entirely.
    pub budget: Option<Arc<QueryBudget>>,
    /// The fault plan this execution's fault sites consult.
    /// `None` (the default) makes every site structurally inert.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext {
            env: FxHashMap::default(),
            deadline: None,
            limit_ms: 0,
            rows: Arc::new(AtomicUsize::new(0)),
            fixpoint_rounds: 0,
            max_rows: 0,
            hash_builds: 0,
            cache_hits: 0,
            dop: 1,
            morsel_rows: parallel::MORSEL_ROWS,
            parallel_threshold: crate::cost::PARALLEL_ROW_THRESHOLD,
            morsels_executed: 0,
            scans: 0,
            replans: 0,
            scheduler: None,
            budget: None,
            faults: None,
        }
    }
}

impl ExecContext {
    /// A context with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context aborting with [`SgqError::Timeout`] after `limit_ms`.
    pub fn with_timeout(limit_ms: u64) -> Self {
        ExecContext {
            deadline: Some(Instant::now() + std::time::Duration::from_millis(limit_ms)),
            limit_ms,
            ..Default::default()
        }
    }

    /// Total rows materialised so far (shared with any morsel workers).
    pub fn rows_materialized(&self) -> usize {
        self.rows.load(Ordering::Relaxed)
    }

    /// Lends the scheduler parallel sections run on (the service lends
    /// its shared one); without this, the first parallel section spawns
    /// one this context owns.
    pub fn set_scheduler(&mut self, scheduler: Arc<TaskScheduler>) {
        self.scheduler = Some(scheduler);
    }

    /// The limits of one execution under this context, with a fresh
    /// cancel flag: what the executing backend — the interpreter and its
    /// morsel tasks, or the graph engine — polls and records into.
    pub fn limits(&self) -> Limits {
        Limits {
            deadline: self.deadline,
            limit_ms: self.limit_ms,
            max_rows: self.max_rows,
            budget: self.budget.clone(),
            faults: self.faults.clone(),
            rows: Arc::clone(&self.rows),
            cancelled: Arc::default(),
        }
    }

    /// Opens a parallel section over a `probe_rows`-row probe side — the
    /// scheduler to run on and the morsel size — or `None` when the
    /// operator should run inline: `dop` is 1, the probe is under the
    /// cost threshold, or it fits a single morsel. The inline path never
    /// touches a scheduler at all.
    fn parallel_section(&mut self, probe_rows: usize) -> Option<(Arc<TaskScheduler>, usize)> {
        if self.dop <= 1 || probe_rows < self.parallel_threshold {
            return None;
        }
        let morsel = parallel::morsel_size(probe_rows, self.dop, self.morsel_rows);
        if morsel >= probe_rows {
            return None;
        }
        let dop = self.dop;
        let sched = self
            .scheduler
            .get_or_insert_with(|| Arc::new(TaskScheduler::new(dop)));
        Some((Arc::clone(sched), morsel))
    }
}

/// How the per-morsel runs of one operator combine into its canonical
/// output (the inline whole-range run needs no combining).
#[derive(Clone, Copy, Debug)]
enum Combine {
    /// Every run is canonical and the runs ascend with their ranges
    /// (the order-preserving hash filter, probe-leading CSR expansion):
    /// concatenation is canonical.
    Concat,
    /// The runner normalises every run (sort + dedup) where it was
    /// emitted: a merge-dedup of the runs equals normalising their
    /// concatenation.
    Merge,
}

/// Evaluates `term` against `store`: lowers it to a physical plan
/// ([`plan`]) and interprets the plan.
pub fn execute(
    term: &RaTerm,
    store: &crate::storage::RelStore,
    ctx: &mut ExecContext,
) -> Result<Relation> {
    let p = plan(term, store)?;
    execute_plan(&p, store, ctx)
}

/// Interprets a pre-lowered physical plan.
pub fn execute_plan(
    p: &PhysPlan,
    store: &crate::storage::RelStore,
    ctx: &mut ExecContext,
) -> Result<Relation> {
    Interp {
        store,
        limits: ctx.limits(),
        ctx,
        ops: None,
        cache: FxHashMap::default(),
        scope: None,
    }
    .eval(p)
}

/// Per-node execution trace, indexed by [`PhysPlan::id`] — the "actual"
/// columns of `EXPLAIN ANALYZE` plus the operator spans the same
/// recording produced. `actuals[id]` always equals the sum of
/// `spans[..].rows` over that node's spans (spans past
/// [`sgq_obs::OP_SPAN_CAP`] stop being stored but keep counting), so the
/// explain path and the tracer can never disagree.
#[derive(Debug, Clone)]
pub struct ExecTrace {
    /// Total rows each operator produced (summed over fixpoint rounds).
    pub actuals: Vec<usize>,
    /// One span per operator evaluation: kind, est vs actual rows,
    /// inclusive and self time (a fixpoint's `RecRef` gets one span per
    /// round, carrying that round's delta).
    pub spans: Vec<OpSpan>,
}

/// [`execute_plan`] with per-node tracing: returns the result and an
/// [`ExecTrace`] of per-operator spans and actual rows.
pub fn execute_plan_traced(
    p: &PhysPlan,
    store: &crate::storage::RelStore,
    ctx: &mut ExecContext,
) -> Result<(Relation, ExecTrace)> {
    execute_plan_traced_at(p, store, ctx, TraceClock::new())
}

/// [`execute_plan_traced`] with an explicit trace clock, so the service
/// can stamp operator spans on the same timeline as its phase spans.
pub fn execute_plan_traced_at(
    p: &PhysPlan,
    store: &crate::storage::RelStore,
    ctx: &mut ExecContext,
    clock: TraceClock,
) -> Result<(Relation, ExecTrace)> {
    let mut interp = Interp {
        store,
        limits: ctx.limits(),
        ctx,
        ops: Some(OpTraceBuilder::new(p.node_count(), clock)),
        cache: FxHashMap::default(),
        scope: None,
    };
    let rel = interp.eval(p)?;
    let (actuals, spans) = interp.ops.take().expect("tracing was enabled").finish();
    Ok((rel, ExecTrace { actuals, spans }))
}

/// A node result held in the execution's node cache. Clones are
/// reference bumps.
#[derive(Clone)]
enum Cached {
    /// A static subtree's full result.
    Rel(Relation),
    /// A static hash-join build side: the relation and its hash table
    /// (`Arc`-shared so parallel morsel workers probe it read-only).
    Build {
        rel: Relation,
        index: Arc<KeyMap<Vec<u32>>>,
    },
    /// A static semi-join filter's key set, shared the same way.
    Keys(Arc<KeyMap<()>>),
}

struct Interp<'a> {
    store: &'a crate::storage::RelStore,
    ctx: &'a mut ExecContext,
    /// This execution's limits: every poll and record goes through it.
    limits: Limits,
    /// Per-operator span recorder; `None` on the untraced path, where
    /// the only cost left is this `Option` check per operator.
    ops: Option<OpTraceBuilder>,
    /// The one node cache of this execution, keyed by plan-node id:
    /// shared nodes, and the static inputs and build sides of fixpoint
    /// steps. Each entry holds the reads a shared node still awaits (the
    /// last drops it) and the fixpoint, by node id, it lives until — the
    /// one whose step created it or took its last counted read.
    cache: FxHashMap<u32, (Cached, u32, Option<u32>)>,
    /// The fixpoint whose step is being evaluated — `None` outside steps
    /// and below a node being cached (its inputs are read once).
    scope: Option<u32>,
}

impl Interp<'_> {
    /// Reads node `id`'s cache entry, counting the hit. The last counted
    /// read of a shared node's entry drops it — or, inside a fixpoint
    /// step, hands it to that fixpoint, since every round reads it again.
    fn hit(&mut self, id: u32) -> Option<Cached> {
        let (value, reads_left, scope) = self.cache.get_mut(&id)?;
        self.ctx.cache_hits += 1;
        if scope.is_none() {
            *reads_left -= 1;
            if *reads_left == 0 {
                if self.scope.is_none() {
                    return self.cache.remove(&id).map(|e| e.0);
                }
                *scope = self.scope;
            }
        }
        Some(value.clone())
    }

    /// Caches node `p`'s result: for its other parents when shared, for
    /// the enclosing fixpoint's later rounds inside a step.
    fn keep(&mut self, p: &PhysPlan, value: Cached) {
        self.cache
            .insert(p.id, (value, p.parents() - 1, self.scope));
    }

    /// Evaluates operator `p` through `op`, which returns `p`'s own rows
    /// and the output — the output's rows, except for a join fused into
    /// its projection, whose own rows are those it emitted. Records a span
    /// (timing + rows) around it when tracing: two `Vec` pushes and an
    /// `Instant` read in the single-threaded interpreter — no locks or
    /// atomics.
    fn run_op(
        &mut self,
        p: &PhysPlan,
        op: impl FnOnce(&mut Self) -> Result<(usize, Relation)>,
    ) -> Result<Relation> {
        let start = self.ops.as_mut().map(OpTraceBuilder::enter);
        let result = op(self);
        if let Some((start, ops)) = start.zip(self.ops.as_mut()) {
            match &result {
                Ok((rows, _)) => ops.exit(p.id, p.op.kind(), p.est.rows, *rows, start),
                Err(_) => ops.exit_err(start),
            }
        }
        result.map(|(_, out)| out)
    }

    fn eval(&mut self, p: &PhysPlan) -> Result<Relation> {
        self.limits.poll()?;
        // A shared node, and a maximal static subtree inside a fixpoint
        // step, is computed once — with step caching off below it, as its
        // inputs are read once — and then read from the cache. (Dynamic
        // hash joins and semi-joins additionally cache their static build
        // sides below.)
        let cached = p.is_static() && (p.parents() > 1 || self.scope.is_some());
        if let Some(Cached::Rel(r)) = cached.then(|| self.hit(p.id)).flatten() {
            // Not re-traced or re-recorded: "actual" rows
            // count the evaluation that computed the result. A shared
            // node's other occurrences name their columns differently,
            // and the rename is positional and zero-copy.
            return Ok(r.into_cols(p.cols.clone()));
        }
        let scope = self.scope;
        self.scope = scope.filter(|_| !cached);
        let out = self.run_op(p, |s| s.eval_op(p).map(|out| (out.len(), out)));
        self.scope = scope;
        let out = out?;
        if cached {
            self.keep(p, Cached::Rel(out.clone()));
        }
        Ok(out)
    }

    fn eval_op(&mut self, p: &PhysPlan) -> Result<Relation> {
        let out = match &p.op {
            PhysOp::EdgeScan { label } => {
                self.ctx.scans += 1;
                self.limits.fault("exec.scan")?;
                self.store.edge_table(*label).into_cols(p.cols.clone())
            }
            PhysOp::DenormEdgeScan {
                label,
                src_label,
                tgt_label,
            } => {
                self.ctx.scans += 1;
                self.limits.fault("exec.scan")?;
                // The endpoint-label slice precomputed at load.
                (self.store)
                    .filtered_edge_table(*label, *src_label, *tgt_label)
                    .into_cols(p.cols.clone())
            }
            PhysOp::NodeScan { labels } => {
                self.ctx.scans += 1;
                self.limits.fault("exec.scan")?;
                if labels.is_empty() {
                    Relation::empty(p.cols.clone())
                } else {
                    // One normalisation pass over all label tables instead
                    // of k successive pairwise merges.
                    let tables: Vec<Relation> = labels
                        .iter()
                        .map(|&l| self.store.node_table(l).into_cols(p.cols.clone()))
                        .collect();
                    Relation::union_many(tables)
                }
            }
            PhysOp::FilteredEdgeScan { scan, filter, key } => {
                self.ctx.scans += 1;
                self.limits.fault("exec.scan")?;
                let mut edges = self.store.edge_table(scan.label).into_cols(p.cols.clone());
                if scan.src_labels.is_some() || scan.tgt_labels.is_some() {
                    // The index join's membership check, per endpoint.
                    let sets = scan
                        .endpoints(true)
                        .map(|(_, ls)| self.label_set_tables(ls));
                    let pass =
                        move |row: &[u32]| sets.iter().zip(row).all(|(s, &v)| tables_contain(s, v));
                    edges = self.filter_rows(p, edges, pass)?;
                }
                return match filter {
                    Some(filter) => self.hash_semi_filter(p, edges, filter, key),
                    None => Ok(edges),
                };
            }
            PhysOp::MergeJoin { left, right, key } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                l.merge_join_checked(&r, key.len(), &self.limits)?
            }
            PhysOp::HashJoin { .. } | PhysOp::IndexJoin { .. } => {
                return self.join(p, &p.cols).map(|(_, out)| out);
            }
            PhysOp::HashSemiJoin { left, right, key } => {
                let l = self.eval(left)?;
                return self.hash_semi_filter(p, l, right, key);
            }
            PhysOp::Union { left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                l.union(&r)
            }
            // A projection that is a hash or index join's only reader:
            // the join runs as itself (polled, traced, recorded)
            // with its kernel emitting the projected columns, so the wide
            // join output is never built. Such a join is never cached on
            // its own: it is static only when its projection is, and the
            // projection is what a shared node or a step caches.
            PhysOp::Project { input } if fuses_its_join(p) => {
                self.limits.poll()?;
                self.run_op(input, |s| s.join(input, &p.cols))?
            }
            PhysOp::Project { input } => self.eval(input)?.project(&p.cols),
            PhysOp::Select { input, ia, ib, .. } => self.eval(input)?.select_eq_at(*ia, *ib),
            PhysOp::Rename { input } => {
                // Zero-copy: positional renaming of an owned relation
                // materialises nothing, so it is not recorded.
                let rel = self.eval(input)?;
                return Ok(rel.into_cols(p.cols.clone()));
            }
            PhysOp::Fixpoint { var, base, step } => {
                // Semi-naive: the step is linear in the recursion
                // variable, so each round only extends from the newly
                // discovered delta.
                let base_rel = self.eval(base)?;
                let cols = base_rel.cols().to_vec();
                let mut acc = base_rel.clone();
                let mut delta = base_rel;
                let (outer, scope) = (self.scope, Some(p.id));
                while !delta.is_empty() {
                    self.limits.poll()?;
                    self.limits.fault("exec.fixpoint_round")?;
                    self.ctx.fixpoint_rounds += 1;
                    self.ctx.env.insert(*var, delta);
                    self.scope = scope;
                    let stepped = self.eval(step);
                    self.scope = outer;
                    let stepped = stepped?;
                    self.ctx.env.remove(var);
                    // Align schema positionally (projections inside the
                    // step produce the fixpoint's columns).
                    let stepped = if stepped.cols() == cols.as_slice() {
                        stepped
                    } else {
                        stepped.into_cols(cols.clone())
                    };
                    let fresh = stepped.difference(&acc);
                    self.limits.record(fresh.len(), fresh.arity())?;
                    acc = acc.union(&fresh);
                    delta = fresh;
                }
                self.cache.retain(|_, e| e.2 != Some(p.id));
                // Accumulated rows were recorded delta by delta; skip the
                // generic record below to count each row exactly once.
                return Ok(acc);
            }
            PhysOp::RecRef { var } => {
                let rel = self.ctx.env.get(var).ok_or_else(|| {
                    SgqError::Execution(format!("unbound recursion variable {var}"))
                })?;
                rel.with_cols(p.cols.clone())
            }
        };
        self.limits.record(out.len(), out.arity())?;
        Ok(out)
    }

    /// Shared node-table handles for a label filter (their flat data is
    /// the sorted id set), so a kernel owns its membership sets.
    fn label_set_tables(
        &self,
        labels: Option<&[sgq_common::NodeLabelId]>,
    ) -> Option<Vec<Relation>> {
        labels.map(|ls| ls.iter().map(|&l| self.store.node_table(l)).collect())
    }

    /// Shared handle on `label`'s load-time CSR in the probed direction
    /// (`None` for a label out of the store's range).
    fn csr(&self, label: sgq_common::EdgeLabelId, forward: bool) -> Option<Arc<Csr>> {
        if forward {
            self.store.forward_csr_shared(label)
        } else {
            self.store.reverse_csr_shared(label)
        }
    }

    /// The range runner — the only place an operator kernel is invoked
    /// and the only place a parallel section opens. `kernel` maps a row
    /// range of its `len`-row probe to the rows it emits for that range,
    /// flat in the columns `cols` (polling `limits` as it goes). The
    /// runner records every run's emitted rows at that width and, under
    /// [`Combine::Merge`], normalises the run. With no section open the
    /// kernel runs once, inline, over `0..len`; otherwise once per morsel
    /// on the scheduler — where the `exec.morsel` fault site sits, and
    /// where each run is normalised — and the runs combine by `combine`
    /// into exactly the relation the inline run produces. Returns the
    /// rows emitted, the same at every DOP, and that relation.
    fn run_ranges<K>(
        &mut self,
        cols: &[ColId],
        len: usize,
        combine: Combine,
        kernel: K,
    ) -> Result<(usize, Relation)>
    where
        K: Fn(Range<usize>, &Limits) -> Result<Vec<u32>> + Send + Sync + 'static,
    {
        let arity = cols.len();
        let finish = move |mut run: Vec<u32>, limits: &Limits| -> Result<(usize, Vec<u32>)> {
            let rows = run.len() / arity;
            limits.record(rows, arity)?;
            if let Combine::Merge = combine {
                normalize_flat(arity, &mut run);
            }
            Ok((rows, run))
        };
        let Some((sched, morsel)) = self.ctx.parallel_section(len) else {
            let (rows, run) = finish(kernel(0..len, &self.limits)?, &self.limits)?;
            return Ok((rows, Relation::from_flat_sorted(cols.to_vec(), run)));
        };
        let shared = Arc::new((kernel, self.limits.clone()));
        let tasks: Vec<_> = parallel::morsel_ranges(len, morsel)
            .into_iter()
            .map(|(start, end)| {
                let shared = Arc::clone(&shared);
                move || {
                    let (kernel, limits) = &*shared;
                    // Poll up front: a morsel queued behind a
                    // cancellation exits before doing any work, bounding
                    // budget overshoot to the morsels already in flight.
                    limits.poll()?;
                    let run = kernel(start..end, limits)?;
                    limits.fault("exec.morsel")?;
                    finish(run, limits)
                }
            })
            .collect();
        // Cancellation sentinels are dropped in favour of the first real
        // error (the one from the morsel that actually breached).
        let (mut rows, mut runs) = (0, Vec::with_capacity(tasks.len()));
        let mut cancel_err = None;
        for result in sched.run(self.ctx.dop, tasks) {
            match result {
                Ok((n, run)) => {
                    rows += n;
                    runs.push(run);
                }
                Err(e) if is_cancelled(&e) => cancel_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        if let Some(e) = cancel_err {
            return Err(e);
        }
        self.ctx.morsels_executed += runs.len();
        let rel = match combine {
            Combine::Concat => Relation::from_flat_sorted(cols.to_vec(), runs.concat()),
            Combine::Merge => Relation::merge_sorted_runs(cols.to_vec(), runs),
        };
        Ok((rows, rel))
    }

    /// Hash or index join `j`, its kernel emitting the columns `emit`:
    /// `j`'s own, or those of the projection that is its only reader —
    /// which then never sees the wide join output. Returns the rows the
    /// kernel emitted, `j`'s own output size either way (a join of two
    /// duplicate-free inputs that keeps every column emits no duplicate),
    /// and the emitted relation.
    fn join(&mut self, j: &PhysPlan, emit: &[ColId]) -> Result<(usize, Relation)> {
        match &j.op {
            PhysOp::HashJoin {
                left,
                right,
                key,
                build_left,
            } => {
                let (build_plan, probe_plan) = if *build_left {
                    (left, right)
                } else {
                    (right, left)
                };
                let probe = self.eval(probe_plan)?;
                let key_pos = positions(&probe_plan.cols, key);
                let build_key_pos = positions(&build_plan.cols, key);
                let layout = emit_layout(emit, &probe_plan.cols, &build_plan.cols);
                let built = self.build_side(j, build_plan, |rel, limits| {
                    let index = Arc::new(KeyMap::build(&rel, &build_key_pos, limits)?);
                    Ok(Cached::Build { rel, index })
                })?;
                let Cached::Build { rel: build, index } = built else {
                    unreachable!("a hash join's cache slot holds its build side")
                };
                let len = probe.len();
                let kernel = move |range: Range<usize>, limits: &Limits| {
                    let mut data: Vec<u32> = Vec::new();
                    for (i, prow) in probe.rows_range(range.start, range.end).enumerate() {
                        if i & POLL_MASK == 0 {
                            limits.poll()?;
                        }
                        for &bi in index.get(prow, &key_pos).into_iter().flatten() {
                            emit_row(&layout, prow, build.row(bi as usize), &mut data);
                        }
                    }
                    Ok(data)
                };
                self.run_ranges(emit, len, Combine::Merge, kernel)
            }
            PhysOp::IndexJoin {
                probe,
                scan,
                forward,
            } => {
                let prel = self.eval(probe)?;
                self.limits.fault("exec.csr_probe")?;
                let Some(csr) = self.csr(scan.label, *forward) else {
                    return Ok((0, Relation::empty(emit.to_vec())));
                };
                let [(key, key_filter), (out, emit_filter)] = scan.endpoints(*forward);
                let key_pos = prel
                    .col_index(key)
                    .expect("index-join key is a probe column (ensured at plan time)");
                let layout = emit_layout(emit, prel.cols(), &[out]);
                // Probe rows ascend and CSR neighbour lists are strictly
                // sorted (set semantics), so a probe-leading layout emits
                // in canonical order and skips the re-sort: its morsels
                // emit disjoint ascending runs.
                let probe_leading = emit.len() == prel.arity() + 1
                    && emit[..prel.arity()] == *prel.cols()
                    && emit.last() == Some(&out);
                let key_sets = self.label_set_tables(key_filter);
                let emit_sets = self.label_set_tables(emit_filter);
                let len = prel.len();
                let kernel = move |range: Range<usize>, limits: &Limits| {
                    let mut data: Vec<u32> = Vec::new();
                    let mut steps = 0usize;
                    for prow in prel.rows_range(range.start, range.end) {
                        steps += 1;
                        if steps & POLL_MASK == 0 {
                            limits.poll()?;
                        }
                        let v = prow[key_pos];
                        if !tables_contain(&key_sets, v) {
                            continue;
                        }
                        for n in csr.neighbors(NodeId::new(v)) {
                            steps += 1;
                            if steps & POLL_MASK == 0 {
                                limits.poll()?;
                            }
                            let nv = n.raw();
                            if !tables_contain(&emit_sets, nv) {
                                continue;
                            }
                            emit_row(&layout, prow, &[nv], &mut data);
                        }
                    }
                    Ok(data)
                };
                let combine = if probe_leading {
                    Combine::Concat
                } else {
                    Combine::Merge
                };
                self.run_ranges(emit, len, combine, kernel)
            }
            _ => unreachable!("only hash and index joins emit through a layout"),
        }
    }

    /// The build half of hash (semi-)join `p`: evaluates `side` and keys
    /// it with `build` — or, for a static side inside a fixpoint, hands
    /// back what the first round built, so every later round only probes.
    fn build_side(
        &mut self,
        p: &PhysPlan,
        side: &PhysPlan,
        build: impl FnOnce(Relation, &Limits) -> Result<Cached>,
    ) -> Result<Cached> {
        let cached = self.scope.is_some() && side.is_static();
        if let Some(hit) = cached.then(|| self.hit(p.id)).flatten() {
            return Ok(hit);
        }
        let scope = self.scope;
        self.scope = scope.filter(|_| !cached);
        let rel = self.eval(side);
        self.scope = scope;
        let rel = rel?;
        self.limits.fault("exec.hash_build")?;
        let built = build(rel, &self.limits)?;
        self.ctx.hash_builds += 1;
        if cached {
            self.keep(p, built.clone());
        }
        Ok(built)
    }

    /// Filters `left` (whose schema is `p`'s) by a (possibly cached) key
    /// set collected from `filter` on the `key` columns.
    fn hash_semi_filter(
        &mut self,
        p: &PhysPlan,
        left: Relation,
        filter: &PhysPlan,
        key: &[ColId],
    ) -> Result<Relation> {
        let key_pos = positions(left.cols(), key);
        let filter_key_pos = positions(&filter.cols, key);
        let built = self.build_side(p, filter, |rel, limits| {
            let keys = KeyMap::build(&rel, &filter_key_pos, limits)?;
            Ok(Cached::Keys(Arc::new(keys)))
        })?;
        let Cached::Keys(keys) = built else {
            unreachable!("a hash semi-join's cache slot holds its key set")
        };
        self.filter_rows(p, left, move |row| keys.get(row, &key_pos).is_some())
    }

    /// The rows of `left` (whose schema is `p`'s) that `pass`. Filtering
    /// preserves canonical order, so morsel runs concatenate.
    fn filter_rows(
        &mut self,
        p: &PhysPlan,
        left: Relation,
        pass: impl Fn(&[u32]) -> bool + Send + Sync + 'static,
    ) -> Result<Relation> {
        let len = left.len();
        let kernel = move |range: Range<usize>, limits: &Limits| {
            let mut data: Vec<u32> = Vec::new();
            for (i, row) in left.rows_range(range.start, range.end).enumerate() {
                if i & POLL_MASK == 0 {
                    limits.poll()?;
                }
                if pass(row) {
                    data.extend_from_slice(row);
                }
            }
            Ok(data)
        };
        self.run_ranges(&p.cols, len, Combine::Concat, kernel)
            .map(|(_, out)| out)
    }
}

/// Whether `p` is a projection that is the only reader of a hash or
/// index join, which then emits the projected columns: the one rule for
/// which joins fuse.
pub fn fuses_its_join(p: &PhysPlan) -> bool {
    matches!(&p.op, PhysOp::Project { input } if input.parents() == 1
        && matches!(input.op, PhysOp::HashJoin { .. } | PhysOp::IndexJoin { .. }))
}

/// Whether `v` passes a label filter: there is none, or `v` is in one of
/// its node tables' sorted id sets (an empty list — an impossible filter
/// intersection — matches nothing).
fn tables_contain(sets: &Option<Vec<Relation>>, v: u32) -> bool {
    let hit = |s: &Relation| s.flat().binary_search(&v).is_ok();
    sets.as_ref().is_none_or(|sets| sets.iter().any(hit))
}

/// The emit layout of a join kernel: where each `emit` column sits in a
/// probe row followed by its match (a build row, or an index join's
/// neighbour).
fn emit_layout(emit: &[ColId], probe: &[ColId], matched: &[ColId]) -> Vec<usize> {
    let joined: Vec<ColId> = probe.iter().chain(matched).copied().collect();
    positions(&joined, emit)
}

/// Appends one joined row in emit `layout` (see [`emit_layout`]).
#[inline]
fn emit_row(layout: &[usize], probe: &[u32], matched: &[u32], data: &mut Vec<u32>) {
    let at = |i: usize| {
        if i < probe.len() {
            probe[i]
        } else {
            matched[i - probe.len()]
        }
    };
    data.extend(layout.iter().map(|&i| at(i)));
}

/// Positions of `key` (or emitted) columns within `cols`.
fn positions(cols: &[ColId], key: &[ColId]) -> Vec<usize> {
    key.iter()
        .map(|k| {
            cols.iter()
                .position(|c| c == k)
                .expect("column present in schema (ensured at plan time)")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::RelStore;
    use crate::term::closure_fixpoint;
    use sgq_graph::database::fig2_yago_database;

    fn store() -> (sgq_graph::GraphDatabase, RelStore) {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        (db, store)
    }

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

    #[test]
    fn edge_scan() {
        let (db, store) = store();
        let mut ctx = ExecContext::new();
        let r = execute(&scan(&db, &store, "owns", "x", "y"), &store, &mut ctx).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), &[1, 0]);
    }

    #[test]
    fn join_composes_paths() {
        // owns(x,y) ⋈ isLocatedIn(y,z): John's property is in Montbonnot
        let (db, store) = store();
        let (x, z) = (store.symbols.col("x"), store.symbols.col("z"));
        let t = RaTerm::project(
            RaTerm::join(
                scan(&db, &store, "owns", "x", "y"),
                scan(&db, &store, "isLocatedIn", "y", "z"),
            ),
            vec![x, z],
        );
        let mut ctx = ExecContext::new();
        let r = execute(&t, &store, &mut ctx).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), &[1, 5]);
    }

    #[test]
    fn merge_join_composes_paths() {
        // isLocatedIn(x,y) ⋈ owns(x,z): both lead with x, so (with index
        // joins ablated) the planner selects a merge join; results must
        // match the hash path.
        let (db, mut store) = store();
        store.index_joins = false;
        let t = RaTerm::join(
            scan(&db, &store, "isLocatedIn", "x", "y"),
            scan(&db, &store, "owns", "x", "z"),
        );
        let p = plan(&t, &store).unwrap();
        assert!(matches!(p.op, crate::plan::PhysOp::MergeJoin { .. }));
        let mut ctx = ExecContext::new();
        let r = execute_plan(&p, &store, &mut ctx).unwrap();
        // owns: (1, 0); isLocatedIn from node 1: none. Via x=1: isLocatedIn
        // has no (1, _) row? n2=1 owns n1=0; isLocatedIn(1,_) is empty, so
        // the join is empty — cross-check against the nested-loop result.
        let edges_a = store.edge_table(db.edge_label_id("isLocatedIn").unwrap());
        let edges_b = store.edge_table(db.edge_label_id("owns").unwrap());
        let expect: usize = edges_a
            .rows()
            .flat_map(|a| edges_b.rows().filter(move |b| b[0] == a[0]))
            .count();
        assert_eq!(r.len(), expect);
    }

    #[test]
    fn fixpoint_transitive_closure() {
        let (db, store) = store();
        let s = &store.symbols;
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isLocatedIn", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        let mut ctx = ExecContext::new();
        let r = execute(&f, &store, &mut ctx).unwrap();
        // must match the reference semantics of isLocatedIn+
        let expect = sgq_algebra::eval::eval_path(
            &db,
            &sgq_algebra::parser::parse_path("isLocatedIn+", &db).unwrap(),
        );
        let got: Vec<(u32, u32)> = r.rows().map(|row| (row[0], row[1])).collect();
        let want: Vec<(u32, u32)> = expect.iter().map(|&(s, t)| (s.raw(), t.raw())).collect();
        assert_eq!(got, want);
        assert!(ctx.fixpoint_rounds >= 2);
    }

    #[test]
    fn fixpoint_on_cycle_terminates() {
        let (db, store) = store();
        let s = &store.symbols;
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isMarriedTo", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        let mut ctx = ExecContext::new();
        let r = execute(&f, &store, &mut ctx).unwrap();
        assert_eq!(r.len(), 4); // {1,2}² as in the reference evaluator
    }

    #[test]
    fn fixpoint_rows_are_counted_once() {
        // Regression test for rows_materialized accounting: every
        // materialised row counts exactly once, and zero-copy renames
        // count nothing.
        //
        // `owns` has a single edge (n2 → n1) that composes with nothing,
        // so the closure equals its base and one semi-naive round runs.
        // With index joins ablated (the hash path under test here):
        // base scan (1 row) + per-round RecRef (1) + inner scan (1) +
        // rename (0: zero-copy) + empty join/project/delta (0) = 3.
        let (db, mut store) = store();
        store.index_joins = false;
        let s = &store.symbols;
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "owns", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        let mut ctx = ExecContext::new();
        let r = execute(&f, &store, &mut ctx).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(ctx.rows_materialized(), 3);
    }

    /// The `(src, tgt)` pairs of `eval_path(path)` on the Fig. 2
    /// database — an oracle sharing no code with this crate.
    fn oracle(db: &sgq_graph::GraphDatabase, path: &str) -> Vec<(u32, u32)> {
        let expr = sgq_algebra::parser::parse_path(path, db).unwrap();
        let pairs = sgq_algebra::eval::eval_path(db, &expr).into_iter();
        pairs.map(|(s, t)| (s.raw(), t.raw())).collect()
    }

    #[test]
    fn fixpoint_caches_static_build_sides() {
        // The closure's step joins the delta against the static renamed
        // scan: its hash table is built once, in the first of the three
        // rounds, and read from the cache in the other two. (Index joins
        // ablated — with them on, no hash table is built at all; see
        // `index_join_inside_fixpoint_builds_nothing`.)
        let (db, mut store) = store();
        store.index_joins = false;
        let s = &store.symbols;
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isLocatedIn", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        let p = plan(&f, &store).unwrap();
        let mut ctx = ExecContext::new();
        let r = execute_plan(&p, &store, &mut ctx).unwrap();
        let got: Vec<(u32, u32)> = r.rows().map(|row| (row[0], row[1])).collect();
        assert_eq!(got, oracle(&db, "isLocatedIn+"));
        assert_eq!(ctx.fixpoint_rounds, 3);
        assert_eq!(ctx.hash_builds, 1, "built once, not once per round");
        assert_eq!(ctx.cache_hits, 2);
    }

    #[test]
    fn index_join_matches_hash_join() {
        // owns(x,y) ⋈ isLocatedIn(y,z) plans as an index join by
        // default; the result must equal the hash plan's bit for bit.
        let (db, mut store) = store();
        let t = RaTerm::join(
            scan(&db, &store, "owns", "x", "y"),
            scan(&db, &store, "isLocatedIn", "y", "z"),
        );
        let p_index = plan(&t, &store).unwrap();
        assert!(
            matches!(p_index.op, PhysOp::IndexJoin { .. }),
            "{p_index:?}"
        );
        store.index_joins = false;
        let p_hash = plan(&t, &store).unwrap();
        assert!(matches!(p_hash.op, PhysOp::HashJoin { .. }));
        let mut ctx = ExecContext::new();
        let r_index = execute_plan(&p_index, &store, &mut ctx).unwrap();
        assert_eq!(ctx.hash_builds, 0, "the CSR replaces the hash build");
        let mut ctx = ExecContext::new();
        let r_hash = execute_plan(&p_hash, &store, &mut ctx).unwrap();
        assert_eq!(r_index, r_hash);
        assert_eq!(r_index.len(), 1);
        assert_eq!(r_index.row(0), &[1, 0, 5]); // John owns n1, located in Montbonnot
    }

    #[test]
    fn label_filtered_index_join_matches_reference() {
        // owns(x,y) ⋈ (isLocatedIn(y,z) ⋉ CITY(y)): the label filter is
        // a membership check against the sorted CITY node set. n1 (a
        // PROPERTY) sources the only matching isLocatedIn edge for owns,
        // so the CITY restriction must empty the result.
        let (db, mut store) = store();
        let filtered = RaTerm::semijoin(
            scan(&db, &store, "isLocatedIn", "y", "z"),
            RaTerm::NodeScan {
                labels: vec![db.node_label_id("CITY").unwrap()],
                col: store.symbols.col("y"),
            },
        );
        let t = RaTerm::join(scan(&db, &store, "owns", "x", "y"), filtered);
        let p = plan(&t, &store).unwrap();
        assert!(
            matches!(p.op, PhysOp::IndexJoin { ref scan, .. } if scan.src_labels.is_some()),
            "{p:?}"
        );
        let mut ctx = ExecContext::new();
        let r_index = execute_plan(&p, &store, &mut ctx).unwrap();
        store.index_joins = false;
        let p_ref = plan(&t, &store).unwrap();
        let mut ctx = ExecContext::new();
        let r_ref = execute_plan(&p_ref, &store, &mut ctx).unwrap();
        assert_eq!(r_index, r_ref);
        assert!(r_index.is_empty(), "n1 is a PROPERTY, not a CITY");
    }

    #[test]
    fn index_join_inside_fixpoint_builds_nothing() {
        // The closure's step joins each round's delta against the static
        // isLocatedIn scan. With index joins the "build side" is the CSR
        // computed at load time: no hash table is ever built, in any
        // round, and results match the hash + build-cache path exactly.
        let (db, mut store) = store();
        let s = &store.symbols;
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isLocatedIn", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        let p_index = plan(&f, &store).unwrap();
        assert!(
            p_index.contains_op(&|op| matches!(op, PhysOp::IndexJoin { .. })),
            "step probes the CSR: {p_index:?}"
        );
        let mut ctx_index = ExecContext::new();
        let r_index = execute_plan(&p_index, &store, &mut ctx_index).unwrap();
        assert_eq!(ctx_index.hash_builds, 0, "no per-query build at all");
        assert!(ctx_index.fixpoint_rounds >= 2, "closure iterates");

        store.index_joins = false;
        let p_hash = plan(&f, &store).unwrap();
        let mut ctx_hash = ExecContext::new();
        let r_hash = execute_plan(&p_hash, &store, &mut ctx_hash).unwrap();
        assert_eq!(r_index, r_hash, "index joins must not change results");
        assert_eq!(ctx_index.fixpoint_rounds, ctx_hash.fixpoint_rounds);
        assert!(ctx_hash.hash_builds > 0, "the ablation still builds");
    }

    #[test]
    fn executed_scan_shares_the_base_table_buffer() {
        // The zero-copy pin, end to end: executing a bare edge scan hands
        // back the store's own buffer — no row was copied anywhere
        // between the load and the query result.
        let (db, store) = store();
        let le = db.edge_label_id("isLocatedIn").unwrap();
        let mut ctx = ExecContext::new();
        let r = execute(
            &scan(&db, &store, "isLocatedIn", "x", "y"),
            &store,
            &mut ctx,
        )
        .unwrap();
        assert!(r.shares_data(&store.edge_table(le)));
    }

    #[test]
    fn node_scan_union() {
        let (db, store) = store();
        let t = RaTerm::NodeScan {
            labels: vec![
                db.node_label_id("CITY").unwrap(),
                db.node_label_id("REGION").unwrap(),
            ],
            col: store.symbols.col("n"),
        };
        let mut ctx = ExecContext::new();
        let r = execute(&t, &store, &mut ctx).unwrap();
        assert_eq!(r.len(), 3); // two cities + one region
    }

    #[test]
    fn semijoin_with_node_table() {
        // isLocatedIn(x,y) ⋉ REGION(x): only region-sourced edges remain
        // (fused into a filtered scan by the planner)
        let (db, store) = store();
        let t = RaTerm::semijoin(
            scan(&db, &store, "isLocatedIn", "x", "y"),
            RaTerm::NodeScan {
                labels: vec![db.node_label_id("REGION").unwrap()],
                col: store.symbols.col("x"),
            },
        );
        let mut ctx = ExecContext::new();
        let r = execute(&t, &store, &mut ctx).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0), &[4, 6]); // Grenoble -> France
    }

    #[test]
    fn row_budget_enforced_at_materialisation_time() {
        // A cartesian product at the plan *root*: 4 × 4 = 16 output rows
        // from two 4-row scans. With the budget checked only at the next
        // operator poll (the old behaviour), the root's oversized output
        // would never be noticed — there is no later poll. Enforcing at
        // record time, the error fires on the batch that crosses the
        // budget, overshooting by at most that one batch.
        let (db, store) = store();
        let t = RaTerm::join(
            scan(&db, &store, "isLocatedIn", "x", "y"),
            scan(&db, &store, "isLocatedIn", "z", "w"),
        );
        let budget = 5usize;
        let mut ctx = ExecContext::new();
        ctx.max_rows = budget;
        let err = execute(&t, &store, &mut ctx).unwrap_err();
        assert!(
            matches!(err, SgqError::RowBudget { budget: 5, .. }),
            "{err}"
        );
        // One batch here is an input scan (4 rows) or the join output
        // (16): the second scan (cumulative 8 > 5) must already trip it.
        assert!(
            ctx.rows_materialized() <= budget + 4,
            "budget {budget} overshot by more than one batch: {} rows",
            ctx.rows_materialized()
        );

        // A budget large enough for the inputs but not the join output
        // still fails on the join's own batch, within one batch of slack.
        let mut ctx = ExecContext::new();
        ctx.max_rows = 10;
        let err = execute(&t, &store, &mut ctx).unwrap_err();
        assert!(err.is_row_budget());
        assert!(ctx.rows_materialized() <= 10 + 16);

        // And a sufficient budget still succeeds, counting exactly the
        // materialised rows.
        let mut ctx = ExecContext::new();
        ctx.max_rows = 24;
        let r = execute(&t, &store, &mut ctx).unwrap();
        assert_eq!(r.len(), 16);
        assert_eq!(ctx.rows_materialized(), 24);
    }

    #[test]
    fn traced_spans_agree_with_actuals_bit_for_bit() {
        // The explain path and the tracer share one recording: summing
        // span rows per node reproduces `actuals` exactly, fixpoint
        // rounds and shared nodes included, and every span names a real
        // operator kind.
        let (db, store) = store();
        let s = &store.symbols;
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isLocatedIn", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        for t in [f, shared_union(&db, &store)] {
            let p = plan(&t, &store).unwrap();
            let mut ctx = ExecContext::new();
            let (r, trace) = execute_plan_traced(&p, &store, &mut ctx).unwrap();
            assert!(!r.is_empty());
            assert!(
                ctx.fixpoint_rounds >= 2 || ctx.cache_hits == 1,
                "iterates or shares"
            );
            assert_eq!(trace.actuals.len(), p.node_count());
            assert!(!trace.spans.is_empty());
            let mut per_node = vec![0usize; p.node_count()];
            for span in &trace.spans {
                per_node[span.node as usize] += span.rows;
                assert!(!span.kind.is_empty());
                assert!(span.self_us <= span.dur_us);
            }
            assert_eq!(per_node, trace.actuals);
            // A reused occurrence emits no span: one per shared node.
            for shared in shared(&p) {
                let spans = trace.spans.iter().filter(|sp| sp.node == shared.id);
                assert_eq!(spans.count(), 1, "{p:?}");
            }
            // The root span's inclusive time bounds every other span.
            let root = trace
                .spans
                .iter()
                .find(|sp| sp.node == p.id)
                .expect("root evaluated");
            for span in &trace.spans {
                assert!(root.start_us <= span.start_us && span.end_us() <= root.end_us());
            }
            // Untraced execution of the same plan is bit-identical.
            let mut ctx2 = ExecContext::new();
            assert_eq!(execute_plan(&p, &store, &mut ctx2).unwrap(), r);
        }
    }

    /// Every occurrence of a shared node in `p`.
    fn shared(p: &PhysPlan) -> Vec<&PhysPlan> {
        let mut out: Vec<&PhysPlan> = p.children().into_iter().flat_map(shared).collect();
        if p.parents() > 1 {
            out.push(p);
        }
        out
    }

    /// `π(x,z)(owns(x,y) ⋈ isLocatedIn(y,z)) ∪ π(x,z)(owns(x,m) ⋈
    /// isLocatedIn(m,z))`: one sub-plan twice, under different column
    /// names.
    fn shared_union(db: &sgq_graph::GraphDatabase, store: &RelStore) -> RaTerm {
        let s = &store.symbols;
        let hop = |mid: &str| {
            RaTerm::project(
                RaTerm::join(
                    scan(db, store, "owns", "x", mid),
                    scan(db, store, "isLocatedIn", mid, "z"),
                ),
                vec![s.col("x"), s.col("z")],
            )
        };
        RaTerm::union(hop("y"), hop("m"))
    }

    #[test]
    fn a_shared_node_is_evaluated_recorded_and_counted_once() {
        let (db, store) = store();
        let p = plan(&shared_union(&db, &store), &store).unwrap();
        let shared = shared(&p);
        assert_eq!(shared.len(), 2, "both occurrences: {p:?}");
        assert_eq!((shared[0].id, shared[0].parents()), (shared[1].id, 2));
        let PhysOp::Union { left, .. } = &p.op else {
            panic!("{p:?}")
        };
        let mut alone = ExecContext::new();
        let half = execute_plan(left, &store, &mut alone).unwrap();
        let mut ctx = ExecContext::new();
        let r = execute_plan(&p, &store, &mut ctx).unwrap();
        assert_eq!(r, half, "the union of two equal arms");
        // One arm's rows plus the union's own output; the second arm
        // is a cache hit that scans and materialises nothing.
        assert_eq!(ctx.rows_materialized(), alone.rows_materialized() + r.len());
        assert_eq!((ctx.cache_hits, ctx.scans), (1, alone.scans));
    }

    #[test]
    fn a_closure_reads_its_shared_base_in_its_step() {
        // The step of `(isLocatedIn/isLocatedIn)+` repeats the base under
        // a rename: computed once, before the first round, and read by
        // the step's cached build side.
        let (db, mut store) = store();
        store.index_joins = false;
        let s = &store.symbols;
        let two_hops = RaTerm::project(
            RaTerm::join(
                scan(&db, &store, "isLocatedIn", "x", "y"),
                scan(&db, &store, "isLocatedIn", "y", "z"),
            ),
            vec![s.col("x"), s.col("z")],
        );
        let f = closure_fixpoint(s.recvar("X"), two_hops, s.col("x"), s.col("z"), s.col("m"));
        let p = plan(&f, &store).unwrap();
        assert!(!shared(&p).is_empty(), "{p:?}");
        let mut ctx = ExecContext::new();
        let r = execute_plan(&p, &store, &mut ctx).unwrap();
        let got: Vec<(u32, u32)> = r.rows().map(|row| (row[0], row[1])).collect();
        assert_eq!(got, oracle(&db, "(isLocatedIn/isLocatedIn)+"));
        assert!(ctx.cache_hits >= 1);
    }

    #[test]
    fn one_plan_with_a_shared_node_runs_on_two_threads_at_once() {
        // The plan cache hands one plan to concurrent sessions: the node
        // cache lives in each execution, never on the plan.
        let (db, store) = store();
        let p = plan(&shared_union(&db, &store), &store).unwrap();
        assert!(!shared(&p).is_empty());
        let start = std::sync::Barrier::new(2);
        let run = || {
            start.wait();
            (0..200)
                .map(|_| {
                    let mut ctx = ExecContext::new();
                    let r = execute_plan(&p, &store, &mut ctx).unwrap();
                    let c = &ctx;
                    let counters = [c.rows_materialized(), c.hash_builds, c.cache_hits, c.scans];
                    (r, counters)
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = std::thread::scope(|s| {
            let (a, b) = (s.spawn(run), s.spawn(run));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] == w[1]));
    }

    /// Runs `p` traced at dop 1, then at dop 4 with 1-row morsels:
    /// results and counters must be identical, and the second run must
    /// have gone parallel. Returns the serial result, trace and context.
    fn serial_then_parallel(p: &PhysPlan, store: &RelStore) -> (Relation, ExecTrace, ExecContext) {
        let mut serial = ExecContext::new();
        let (r, trace) = execute_plan_traced(p, store, &mut serial).unwrap();
        let mut par = ExecContext::new();
        (par.dop, par.parallel_threshold, par.morsel_rows) = (4, 1, 1);
        assert_eq!(execute_plan(p, store, &mut par).unwrap(), r, "{p:?}");
        let counters = |c: &ExecContext| {
            let rounds = c.fixpoint_rounds;
            [
                c.rows_materialized(),
                c.hash_builds,
                c.cache_hits,
                c.scans,
                rounds,
            ]
        };
        assert_eq!(counters(&par), counters(&serial), "{p:?}");
        assert!(par.morsels_executed > 0, "{p:?}");
        (r, trace, serial)
    }

    /// Plans `left ⋉ filter` and asserts it runs as the one semi-join
    /// kernel — `kind`, a hash semi-join or a hash-filtered edge scan —
    /// under the range runner: `Relation::semijoin`'s answer, the same
    /// serially and in 1-row morsels. Returns the result.
    fn one_semijoin_kernel(left: RaTerm, filter: RaTerm, store: &RelStore, kind: &str) -> Relation {
        let p = plan(&RaTerm::semijoin(left.clone(), filter.clone()), store).unwrap();
        assert_eq!(p.op.kind(), kind, "{p:?}");
        let (r, _, _) = serial_then_parallel(&p, store);
        let run = |t: &RaTerm| execute(t, store, &mut ExecContext::new()).unwrap();
        assert_eq!(r, run(&left).semijoin(&run(&filter)));
        r
    }

    #[test]
    fn a_semijoin_whose_key_leads_both_sides_is_a_hash_semijoin() {
        // π(x,z)(isLocatedIn(x,y) ⋈ isLocatedIn(y,z)) ⋉ CITY(x): both
        // sides arrive sorted on x, so a merge walk could filter — the
        // hash filter runs anyway, in morsels at dop > 1.
        let (db, store) = store();
        let s = &store.symbols;
        let two_hops = RaTerm::project(
            RaTerm::join(
                scan(&db, &store, "isLocatedIn", "x", "y"),
                scan(&db, &store, "isLocatedIn", "y", "z"),
            ),
            vec![s.col("x"), s.col("z")],
        );
        let city = RaTerm::NodeScan {
            labels: vec![db.node_label_id("CITY").unwrap()],
            col: s.col("x"),
        };
        let r = one_semijoin_kernel(two_hops, city, &store, "HashSemiJoin");
        // Elerslie and Montbonnot → Grenoble → France.
        assert_eq!(r.flat(), &[3, 6, 5, 6]);
    }

    #[test]
    fn a_semijoin_on_a_scan_whose_key_leads_both_sides_is_a_hash_filter() {
        // isLocatedIn(x,y) ⋉ π(x)(livesIn(w,x)): x leads the scan and the
        // filter, so a merge walk could filter — the hash filter runs.
        let (db, store) = store();
        let x = store.symbols.col("x");
        let homes = RaTerm::project(scan(&db, &store, "livesIn", "w", "x"), vec![x]);
        let located = scan(&db, &store, "isLocatedIn", "x", "y");
        let r = one_semijoin_kernel(located, homes, &store, "FilteredEdgeScan");
        // Elerslie and Montbonnot are in Grenoble.
        assert_eq!(r.flat(), &[3, 4, 5, 4]);
    }

    /// Asserts that `p`, a projection over join node `j`, ran `j` fused:
    /// the result is `want`, and `j` counted and traced the reference
    /// join's rows as its own — after `inputs` rows for the join's inputs,
    /// and before the projected rows.
    fn assert_fused(
        p: &PhysPlan,
        store: &RelStore,
        join: &Relation,
        want: &Relation,
        inputs: usize,
    ) {
        let PhysOp::Project { input: j } = &p.op else {
            panic!("{p:?}")
        };
        assert!(fuses_its_join(p), "{p:?}");
        let (r, trace, ctx) = serial_then_parallel(p, store);
        assert_eq!(&r, want);
        assert_eq!(ctx.rows_materialized(), inputs + join.len() + r.len());
        assert_eq!(trace.actuals[j.id as usize], join.len());
        assert_eq!(trace.actuals[p.id as usize], r.len());
    }

    #[test]
    fn a_projection_fuses_into_its_hash_join_on_either_build_side() {
        // π(z)(livesIn(x,y) ⋈ isLocatedIn(y,z)): both people live in a
        // city of the same region — the fused kernel sorts and dedups the
        // narrow run — in either join order, so the planner builds on
        // either side (the smaller, livesIn).
        let (db, mut store) = store();
        store.index_joins = false;
        let z = store.symbols.col("z");
        let (xy, yz) = (
            scan(&db, &store, "livesIn", "x", "y"),
            scan(&db, &store, "isLocatedIn", "y", "z"),
        );
        let mut build_sides = std::collections::BTreeSet::new();
        for (l, r) in [(&xy, &yz), (&yz, &xy)] {
            let t = RaTerm::project(RaTerm::join(l.clone(), r.clone()), vec![z]);
            let p = plan(&t, &store).unwrap();
            let PhysOp::Project { input: j } = &p.op else {
                panic!("{p:?}")
            };
            let PhysOp::HashJoin { build_left, .. } = j.op else {
                panic!("{p:?}")
            };
            build_sides.insert(build_left);
            let (l, r) = (execute(l, &store, &mut ExecContext::new()).unwrap(), {
                execute(r, &store, &mut ExecContext::new()).unwrap()
            });
            let join = l.join(&r);
            let want = join.project(&[z]);
            assert!(want.len() < join.len(), "the projection dedups");
            assert_fused(&p, &store, &join, &want, l.len() + r.len());
        }
        assert_eq!(build_sides.len(), 2, "built on both sides");
    }

    #[test]
    fn a_projection_fuses_into_its_label_filtered_index_join() {
        // π(z)(isLocatedIn(x,y) ⋈ (isLocatedIn(y,z) ⋉ REGION(y))): the
        // projection drops the probe key, so the kernel's emit layout is
        // not probe-leading and its run is sorted and deduplicated.
        let (db, store) = store();
        let (y, z) = (store.symbols.col("y"), store.symbols.col("z"));
        let region = RaTerm::NodeScan {
            labels: vec![db.node_label_id("REGION").unwrap()],
            col: y,
        };
        let probe = scan(&db, &store, "isLocatedIn", "x", "y");
        let filtered = RaTerm::semijoin(scan(&db, &store, "isLocatedIn", "y", "z"), region);
        let t = RaTerm::project(RaTerm::join(probe.clone(), filtered.clone()), vec![z]);
        let p = plan(&t, &store).unwrap();
        let PhysOp::Project { input: j } = &p.op else {
            panic!("{p:?}")
        };
        assert!(
            matches!(&j.op, PhysOp::IndexJoin { scan, .. } if scan.src_labels.is_some()),
            "{p:?}"
        );
        let run = |t: &RaTerm| execute(t, &store, &mut ExecContext::new()).unwrap();
        let join = run(&probe).join(&run(&filtered));
        let want = join.project(&[z]);
        assert!(want.len() < join.len(), "the projection dedups");
        assert_fused(&p, &store, &join, &want, run(&probe).len());
    }

    #[test]
    fn a_shared_join_is_not_fused_and_runs_once() {
        // π(x,y)(J) ⋈ π(y,z)(J) with J = isLocatedIn(x,y) ⋈ isLocatedIn(y,z):
        // two projections read J, so neither fuses; J is computed, traced
        // and counted once, and the second projection reads the cache.
        let (db, store) = store();
        let s = &store.symbols;
        let (x, y, z) = (s.col("x"), s.col("y"), s.col("z"));
        let j = RaTerm::join(
            scan(&db, &store, "isLocatedIn", "x", "y"),
            scan(&db, &store, "isLocatedIn", "y", "z"),
        );
        let t = RaTerm::join(
            RaTerm::project(j.clone(), vec![x, y]),
            RaTerm::project(j.clone(), vec![y, z]),
        );
        let p = plan(&t, &store).unwrap();
        let shared = shared(&p);
        assert!(
            !shared.is_empty() && shared.iter().all(|n| n.parents() == 2),
            "{p:?}"
        );
        let projections = p.children();
        assert!(projections.iter().all(|c| !fuses_its_join(c)), "{p:?}");
        let join = execute(&j, &store, &mut ExecContext::new()).unwrap();
        let want = join.project(&[x, y]).join(&join.project(&[y, z]));
        let (r, trace, ctx) = serial_then_parallel(&p, &store);
        assert_eq!(r, want);
        assert_eq!(ctx.cache_hits, 1);
        let spans = trace.spans.iter().filter(|sp| sp.node == shared[0].id);
        assert_eq!(spans.map(|sp| sp.rows).collect::<Vec<_>>(), [join.len()]);
    }

    #[test]
    fn a_fused_join_in_a_fixpoint_step_builds_its_static_side_once() {
        // The closure's step π(x,y)(X(x,m) ⋈ isLocatedIn(m,y)) fuses the
        // projection into its hash join; the static scan's hash table is
        // still cached under the join's id, so it is built in round one
        // and only probed after.
        let (store, p) = hash_closure_plan();
        let PhysOp::Fixpoint { step, .. } = &p.op else {
            panic!("{p:?}")
        };
        assert!(
            fuses_its_join(step)
                && matches!(&step.op, PhysOp::Project { input }
                    if matches!(input.op, PhysOp::HashJoin { .. })),
            "{p:?}"
        );
        let (r, _, ctx) = serial_then_parallel(&p, &store);
        assert!(ctx.fixpoint_rounds >= 2, "closure iterates");
        assert_eq!(ctx.hash_builds, 1);
        let db = fig2_yago_database();
        let expect = sgq_algebra::eval::eval_path(
            &db,
            &sgq_algebra::parser::parse_path("isLocatedIn+", &db).unwrap(),
        );
        let want: Vec<(u32, u32)> = expect.iter().map(|&(s, t)| (s.raw(), t.raw())).collect();
        let got: Vec<(u32, u32)> = r.rows().map(|row| (row[0], row[1])).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn timeout_aborts() {
        let (db, store) = store();
        let s = &store.symbols;
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isLocatedIn", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        let mut ctx = ExecContext::with_timeout(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = execute(&f, &store, &mut ctx).unwrap_err();
        assert!(err.is_timeout());
    }

    /// The closure of `isLocatedIn` with index joins ablated, so the
    /// step hash-joins each round's delta — per morsel at `dop > 1`.
    fn hash_closure_plan() -> (RelStore, PhysPlan) {
        let (db, mut store) = store();
        store.index_joins = false;
        let s = &store.symbols;
        let f = closure_fixpoint(
            s.recvar("X"),
            scan(&db, &store, "isLocatedIn", "x", "y"),
            s.col("x"),
            s.col("y"),
            s.col("m"),
        );
        let p = plan(&f, &store).unwrap();
        (store, p)
    }

    #[test]
    fn fault_plan_fires_on_the_caller_and_inside_morsels() {
        use sgq_common::fault::{FaultConfig, FaultKind};
        // On its own thread under a watchdog: a morsel panic that is not
        // carried back to the caller shows as a hang, not a failure.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let body = std::thread::spawn(move || {
            let (store, p) = hash_closure_plan();
            for (site, kind) in [
                ("exec.scan", FaultKind::Error),
                ("exec.morsel", FaultKind::Error),
                ("exec.morsel", FaultKind::Panic),
                ("exec.fixpoint_round", FaultKind::Expire),
                ("exec.morsel", FaultKind::Expire),
            ] {
                let faults = FaultPlan::new(FaultConfig {
                    seed: 1,
                    probability: 1.0,
                    site: Some(site),
                    kind,
                });
                let mut ctx = ExecContext::new();
                ctx.dop = 4;
                ctx.parallel_threshold = 1;
                ctx.morsel_rows = 1;
                ctx.faults = Some(Arc::clone(&faults));
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    execute_plan(&p, &store, &mut ctx).unwrap_err()
                }));
                match kind {
                    FaultKind::Error => assert_eq!(outcome.unwrap(), SgqError::Transient { site }),
                    // Reads as the context's own deadline passing.
                    FaultKind::Expire => {
                        assert_eq!(outcome.unwrap(), SgqError::Timeout { limit_ms: 0 })
                    }
                    // The worker caught it; the caller's thread re-raises it.
                    FaultKind::Panic => assert_eq!(
                        outcome.unwrap_err().downcast_ref::<String>().unwrap(),
                        "injected fault at exec.morsel"
                    ),
                }
                assert!(faults.fired()[site] >= 1);
                // A context without the handle runs the same plan untouched.
                let mut clean = ExecContext::new();
                execute_plan(&p, &store, &mut clean).unwrap();
            }
            done_tx.send(()).unwrap();
        });
        let done = done_rx.recv_timeout(std::time::Duration::from_secs(10));
        assert!(
            done != Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "a faulted morsel hung its query"
        );
        body.join().unwrap();
    }

    #[test]
    fn context_without_a_lent_scheduler_owns_one_until_it_drops() {
        let (store, p) = hash_closure_plan();
        let run = |lend: Option<Arc<TaskScheduler>>| {
            let mut ctx = ExecContext::new();
            ctx.dop = 2;
            ctx.parallel_threshold = 1;
            ctx.morsel_rows = 1;
            if let Some(sched) = lend {
                ctx.set_scheduler(sched);
            }
            (execute_plan(&p, &store, &mut ctx).unwrap(), ctx)
        };
        let lent = Arc::new(TaskScheduler::new(2));
        let (r_lent, ctx_lent) = run(Some(Arc::clone(&lent)));
        let (r_own, ctx_own) = run(None);
        assert_eq!(r_lent, r_own);
        assert!(ctx_own.morsels_executed >= 2, "delta probes go parallel");
        assert_eq!(ctx_lent.morsels_executed, ctx_own.morsels_executed);
        // A lent scheduler outlives the context it was lent to.
        drop(ctx_lent);
        assert_eq!(lent.run(1, vec![|| 1]), vec![1]);
        // The owned one has `dop` workers and is joined by the drop: a
        // task still queued when the context goes has run, and released
        // what it held, by the time `drop` returns.
        let owned = ctx_own.scheduler.as_ref().expect("spawned on demand");
        assert_eq!(owned.workers(), 2);
        let sentinel = Arc::new(());
        let held = Arc::clone(&sentinel);
        owned.try_submit(move || drop(held)).unwrap();
        drop(ctx_own);
        assert_eq!(Arc::strong_count(&sentinel), 1);
    }

    #[test]
    fn unbound_recref_errors() {
        let (_, store) = store();
        let s = &store.symbols;
        let t = RaTerm::RecRef {
            var: s.recvar("X"),
            cols: vec![s.col("a"), s.col("b")],
        };
        let mut ctx = ExecContext::new();
        assert!(execute(&t, &store, &mut ctx).is_err());
    }
}
