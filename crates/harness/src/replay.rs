//! The one replay driver behind every experiment.
//!
//! The paper's protocol (§5.1.5) is a single loop — every catalog query,
//! same database, timeout, repeat, compare — and this is its only
//! implementation:
//!
//! * [`Catalog`] / [`Catalogs`] — a generated dataset, its parsed query
//!   catalog and its relational store, built **once per process** (the
//!   only `generate` call sites),
//! * [`Variant`] — one way of executing a catalog: backend × approach
//!   (baseline or schema-rewritten) × morsel sizing × traced × fault
//!   plan × direct [`PreparedQuery::execute`] or through a [`Service`];
//!   the front end is always the library's own [`prepare`],
//! * [`replay`] — a named reference variant and a list of variants over
//!   a catalog, every answer compared **bit for bit**,
//! * [`Table`] and [`Replay::to_json`] — the one table renderer and the
//!   one JSON emitter (per-pass [`Summary`] of the timings).
//!
//! An experiment is a variant list plus a gate predicate over the
//! returned [`Replay`] (see [`crate::gates`]), or — the paper suite of
//! [`crate::experiments`] — plus the records read off its passes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use sgq_common::fault::{FaultConfig, FaultPlan, FireReport};
use sgq_common::json::JsonValue;
use sgq_common::{Approach, Backend, Result, SgqError};
use sgq_core::pipeline::RewriteOptions;
use sgq_datasets::ldbc::{self, LdbcConfig};
use sgq_datasets::yago::{self, YagoConfig};
use sgq_datasets::CatalogQuery;
use sgq_graph::{GraphDatabase, GraphSchema};
use sgq_obs::QueryTrace;
use sgq_ra::exec::ExecContext;
use sgq_ra::{RelStore, TaskScheduler};
use sgq_service::prepared::{prepare, PreparedQuery};
use sgq_service::{
    retry_with_backoff, Answer, MetricsSnapshot, QueryOptions, QueryResponse, RetryPolicy, Service,
    ServiceConfig, Session,
};

use crate::summary::Summary;

/// Row-materialisation budget of every replayed execution (the service
/// default).
const MAX_ROWS: usize = 20_000_000;

/// Whether `e` makes a run an infeasible cell (over the timeout or the
/// row budget) rather than a bug. A planner or executor error — a
/// malformed term, an unbound recursion variable — is not a measurement.
fn infeasible(e: &SgqError) -> bool {
    e.is_timeout() || e.is_row_budget()
}

/// Dataset sizes and the per-query timeout shared by every experiment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// LDBC scale factor.
    pub sf: f64,
    /// Scaling of the YAGO dataset relative to its default size.
    pub yago_scale: f64,
    /// Per-query timeout (ms).
    pub timeout_ms: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            sf: 0.3,
            yago_scale: 0.3,
            timeout_ms: 10_000,
        }
    }
}

impl Scale {
    /// The small scale every CI gate runs at (`--smoke`).
    pub fn smoke() -> Self {
        Scale {
            sf: 0.1,
            yago_scale: 0.05,
            timeout_ms: 10_000,
        }
    }
}

/// One generated dataset with its parsed query catalog and its lazily
/// loaded relational store.
pub struct Catalog {
    /// `YAGO` / `LDBC` (or a caller-chosen name for ad-hoc databases).
    pub name: &'static str,
    /// LDBC scale factor (`None` for the other datasets).
    pub sf: Option<f64>,
    /// The schema the database conforms to.
    pub schema: Arc<GraphSchema>,
    /// The database (graph backend).
    pub db: Arc<GraphDatabase>,
    /// The parsed query catalog.
    pub queries: Vec<CatalogQuery>,
    store: OnceLock<Arc<RelStore>>,
}

impl Catalog {
    /// A catalog over an existing database.
    pub fn new(
        name: &'static str,
        schema: GraphSchema,
        db: GraphDatabase,
        queries: Vec<CatalogQuery>,
    ) -> Self {
        Catalog {
            name,
            sf: None,
            schema: Arc::new(schema),
            db: Arc::new(db),
            queries,
            store: OnceLock::new(),
        }
    }

    /// The LDBC-SNB-like dataset at scale factor `sf` with the 30 Tab. 4
    /// queries.
    pub fn ldbc(sf: f64) -> Self {
        let (schema, db) = ldbc::generate(LdbcConfig::at_scale(sf));
        let queries = ldbc::queries(&schema).expect("catalog parses");
        Catalog {
            sf: Some(sf),
            ..Catalog::new("LDBC", schema, db, queries)
        }
    }

    /// The YAGO-like dataset at `scale` with the 18 recursive queries.
    pub fn yago(scale: f64) -> Self {
        let (schema, db) = yago::generate(YagoConfig::scaled(scale));
        let queries = yago::queries(&schema).expect("catalog parses");
        Catalog::new("YAGO", schema, db, queries)
    }

    /// The relational load of the database — what [`Service::new`]
    /// serves. Loaded on first use, then shared.
    pub fn store(&self) -> Arc<RelStore> {
        Arc::clone(
            self.store
                .get_or_init(|| Arc::new(RelStore::load(&self.db))),
        )
    }
}

/// Both bundled catalogs at one [`Scale`].
pub struct Catalogs {
    /// The scale the catalogs were generated at.
    pub scale: Scale,
    /// The YAGO catalog.
    pub yago: Catalog,
    /// The LDBC catalog.
    pub ldbc: Catalog,
}

impl Catalogs {
    /// Generates both catalogs at `scale` (their stores load on first
    /// use).
    pub fn new(scale: Scale) -> Self {
        Catalogs {
            scale,
            yago: Catalog::yago(scale.yago_scale),
            ldbc: Catalog::ldbc(scale.sf),
        }
    }

    /// Both catalogs, YAGO first.
    pub fn both(&self) -> [&Catalog; 2] {
        [&self.yago, &self.ldbc]
    }
}

/// Morsel sizing of a parallel variant.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Degree of parallelism.
    pub dop: usize,
    /// Probe-row threshold below which operators stay serial.
    pub threshold: usize,
    /// Morsel size cap (rows).
    pub morsel_rows: usize,
}

/// A seeded error-injection plan armed for one variant, with the
/// per-query retry budget its client spends before giving up.
#[derive(Debug, Clone, Copy)]
pub struct Faults {
    /// Seed of the fault plan (and of the client's backoff jitter).
    pub seed: u64,
    /// Per-visit fire probability.
    pub probability: f64,
    /// Attempts per query including the first; a query still failing
    /// after this many must fail with a retryable error.
    pub max_attempts: usize,
}

/// How a variant reaches the executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Via {
    /// `prepare` + `PreparedQuery::execute` on the calling thread.
    #[default]
    Direct,
    /// Through a [`Service`] built over the variant's store.
    Service {
        /// Worker threads.
        workers: usize,
        /// Closed-loop client threads; 1 replays sequentially.
        clients: usize,
        /// Passes over the catalog per client.
        passes: usize,
        /// Serve from a pre-warmed plan cache (`false` re-prepares
        /// every call).
        cached: bool,
    },
}

/// One way of executing a catalog. The default is what is served, run
/// plainly: relational backend, schema-rewritten with the default
/// options, serial, untraced, no faults, direct, one execution.
#[derive(Debug, Clone, Default)]
pub struct Variant {
    /// Name used in reports and divergence panics.
    pub name: String,
    /// The backend the statements are prepared for.
    pub backend: Backend,
    /// Baseline or schema-rewritten statements.
    pub approach: Approach,
    /// Options of the schema rewrite.
    pub rewrite: RewriteOptions,
    /// Morsel parallelism (direct variants); `None` = serial.
    pub sizing: Option<Sizing>,
    /// Trace every execution and return its structured `EXPLAIN
    /// ANALYZE` (service variants).
    pub traced: bool,
    /// Fault plan armed while the variant runs.
    pub faults: Option<Faults>,
    /// Direct execution or through a service.
    pub via: Via,
    /// Timed executions per query (direct only, 0 = 1), averaged.
    pub repeats: usize,
}

impl Variant {
    /// The default variant under `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Variant {
            name: name.into(),
            ..Default::default()
        }
    }
}

/// One completed (query, variant) execution.
#[derive(Debug, Clone)]
pub struct Run {
    /// Result rows.
    pub rows: usize,
    /// Execution time (ms): mean of the repeats when direct, the
    /// service's end-to-end latency otherwise.
    pub ms: f64,
    /// Morsel tasks dispatched (direct only).
    pub morsels: usize,
    /// The prepared statement that ran (direct only).
    pub prepared: Option<Arc<PreparedQuery>>,
    /// The query-lifecycle trace (traced service variants).
    pub trace: Option<Arc<QueryTrace>>,
    /// Structured `EXPLAIN ANALYZE` (traced service variants).
    pub analyze_json: Option<String>,
}

impl Run {
    /// Root `(estimated rows, estimated cost)` of the plan that ran.
    pub fn estimate(&self) -> Option<(f64, f64)> {
        let plan = self.prepared.as_ref()?.plan()?;
        Some((plan.est.rows, plan.est.cost))
    }
}

/// One variant's pass over a catalog.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// The variant that ran.
    pub variant: Variant,
    /// Per catalog query, in catalog order: `None` when infeasible or
    /// failed retryable under faults. Concurrent passes compare inside
    /// their client threads and keep no per-query runs.
    pub runs: Vec<Option<Run>>,
    /// Queries that spent their retry budget and failed retryable.
    pub retryable_failures: usize,
    /// Executions completed across all clients.
    pub completed: u64,
    /// Retries spent across all clients.
    pub retries: u64,
    /// Wall clock of the measured loop (s).
    pub elapsed_s: f64,
    /// Faults fired per site.
    pub fired: FireReport,
    /// Service metrics at the end of the pass (service variants).
    pub metrics: Option<MetricsSnapshot>,
    /// Traces the floored slow-query log captured (traced service
    /// variants).
    pub slow_queries: usize,
}

impl Pass {
    fn sequential(&self) -> bool {
        !matches!(self.variant.via, Via::Service { clients: 2.., .. })
    }

    /// Completed executions per second of measured wall clock.
    pub fn qps(&self) -> f64 {
        self.completed as f64 / self.elapsed_s.max(1e-9)
    }

    /// Machine-readable form: the pass counters and the [`Summary`] of
    /// the per-query timings.
    pub fn to_json(&self) -> JsonValue {
        let ms: Vec<f64> = self.runs.iter().flatten().map(|r| r.ms).collect();
        let fires = self.fired.iter().map(|(&s, &n)| (s, JsonValue::Int(n)));
        JsonValue::obj([
            ("variant", JsonValue::str(self.variant.name.clone())),
            ("completed", JsonValue::Int(self.completed)),
            ("retries", JsonValue::Int(self.retries)),
            ("retryable", JsonValue::Int(self.retryable_failures as u64)),
            ("qps", JsonValue::Num(self.qps())),
            ("fires", JsonValue::obj(fires)),
            (
                "ms",
                Summary::compute(&ms).map_or(JsonValue::Null, |s| s.to_json()),
            ),
        ])
    }
}

/// The outcome of [`replay`]: the reference pass and every variant's.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Catalog name.
    pub catalog: &'static str,
    /// Query names, in catalog order (the index space of
    /// [`Pass::runs`]).
    pub queries: Vec<&'static str>,
    /// The reference pass.
    pub reference: Pass,
    /// The variants' passes, in request order.
    pub variants: Vec<Pass>,
}

impl Replay {
    /// The queries every sequential pass completed — what the tables
    /// list and the gates reason over: name, the reference run and the
    /// sequential variants' runs in request order.
    pub fn compared(&self) -> Vec<(&'static str, &Run, Vec<&Run>)> {
        let sequential: Vec<&Pass> = self.variants.iter().filter(|p| p.sequential()).collect();
        (0..self.queries.len())
            .filter_map(|i| {
                let reference = self.reference.runs[i].as_ref()?;
                let runs = sequential.iter().filter_map(|p| p.runs[i].as_ref());
                let variants: Vec<&Run> = runs.collect();
                (variants.len() == sequential.len()).then_some((
                    self.queries[i],
                    reference,
                    variants,
                ))
            })
            .collect()
    }

    /// The reference pass, then the variants'.
    pub fn passes(&self) -> impl Iterator<Item = &Pass> {
        std::iter::once(&self.reference).chain(&self.variants)
    }

    /// Machine-readable form: one [`Pass::to_json`] per pass.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("catalog", JsonValue::str(self.catalog)),
            (
                "reference",
                JsonValue::str(self.reference.variant.name.clone()),
            ),
            (
                "passes",
                JsonValue::Arr(self.passes().map(Pass::to_json).collect()),
            ),
        ])
    }
}

/// Replays `cat` under `reference` and then under each of `variants`:
/// every pass runs every query, and every variant answer to a query the
/// reference answered must be bit-identical to the reference's.
///
/// A run over `timeout_ms` or the row budget is an infeasible cell
/// (`None`) for that pass only — a schema variant may finish where its
/// baseline reference did not (Tab. 5); under a fault plan a query may
/// instead fail *retryable* once its retry budget is spent. Anything
/// else — a different answer, any other error — panics naming catalog,
/// query and variant. Service variants additionally assert a balanced
/// memory governor and zero worker panics, and a fault variant is
/// followed by a disarmed replay on the same service that must again
/// match.
pub fn replay(cat: &Catalog, timeout_ms: u64, reference: &Variant, variants: &[Variant]) -> Replay {
    let (reference, answers) = run_pass(cat, timeout_ms, reference, None);
    let variants = variants
        .iter()
        .map(|v| run_pass(cat, timeout_ms, v, Some(&answers)).0)
        .collect();
    Replay {
        catalog: cat.name,
        queries: cat.queries.iter().map(|q| q.name).collect(),
        reference,
        variants,
    }
}

/// Everything one pass shares across its queries.
struct PassCtx<'a> {
    cat: &'a Catalog,
    variant: &'a Variant,
    store: Arc<RelStore>,
    timeout_ms: u64,
    faults: Option<Arc<FaultPlan>>,
    /// The scheduler a parallel variant's direct executions are lent, so
    /// the pass spawns its workers once rather than once per context.
    scheduler: Option<Arc<TaskScheduler>>,
    /// The reference answers to compare against (`None` while running
    /// the reference itself).
    expected: Option<&'a [Option<Answer>]>,
}

impl PassCtx<'_> {
    fn label(&self, i: usize) -> String {
        let (cat, query) = (self.cat.name, self.cat.queries[i].name);
        format!("{cat}/{query}: variant `{}`", self.variant.name)
    }

    /// The comparator: every answer of every variant passes through
    /// here.
    fn check(&self, i: usize, got: &Answer, stage: &str) {
        if let Some(want) = self.expected.and_then(|e| e[i].as_ref()) {
            assert!(
                got == want,
                "{}{stage} diverged from the reference: {} rows vs {}",
                self.label(i),
                got.rows().len(),
                want.rows().len(),
            );
        }
    }

    /// Classifies a failed query: infeasible when it did not fit the
    /// protocol's budget, or — under faults — failed retryable (returns
    /// `true`); a panic otherwise.
    fn give_up(&self, i: usize, e: &SgqError) -> bool {
        let retryable = self.faults.is_some() && e.retryable();
        assert!(retryable || infeasible(e), "{} failed: {e}", self.label(i));
        retryable
    }

    fn exec_context(&self) -> ExecContext {
        let mut ctx = ExecContext::with_timeout(self.timeout_ms);
        ctx.max_rows = MAX_ROWS;
        ctx.faults = self.faults.clone();
        if let Some(s) = self.variant.sizing {
            ctx.dop = s.dop;
            ctx.parallel_threshold = s.threshold;
            ctx.morsel_rows = s.morsel_rows.max(1);
        }
        if let Some(scheduler) = &self.scheduler {
            ctx.set_scheduler(Arc::clone(scheduler));
        }
        ctx
    }

    fn prepare(&self, q: &CatalogQuery) -> Result<PreparedQuery> {
        let (schema, v) = (&self.cat.schema, self.variant);
        prepare(
            schema,
            &self.store,
            &q.expr,
            v.backend,
            v.approach,
            v.rewrite,
        )
    }

    /// One direct attempt: prepare, then the mean of `repeats` timed
    /// executions (§5.1.5).
    fn run_direct(&self, q: &CatalogQuery) -> Result<(Run, Answer)> {
        let prepared = Arc::new(self.prepare(q)?);
        let mut run = Run {
            rows: 0,
            ms: 0.0, // stays 0 when the schema proves the query empty
            morsels: 0,
            prepared: Some(Arc::clone(&prepared)),
            trace: None,
            analyze_json: None,
        };
        let mut answer = Answer {
            arity: prepared.columns().len(),
            flat: Vec::new(),
        };
        if !prepared.is_provably_empty() {
            let repeats = self.variant.repeats.max(1);
            for _ in 0..repeats {
                let mut ctx = self.exec_context();
                let start = Instant::now();
                (answer, _) = prepared.execute(&self.cat.db, &self.store, &mut ctx, None)?;
                run.ms += start.elapsed().as_secs_f64() * 1e3 / repeats as f64;
                run.morsels = ctx.morsels_executed;
                run.rows = answer.rows().len();
            }
        }
        Ok((run, answer))
    }
}

/// The service a `Via::Service` pass runs through.
struct Served<'a> {
    ctx: &'a PassCtx<'a>,
    service: Service,
    session: Session,
    opts: QueryOptions,
}

impl<'a> Served<'a> {
    /// Builds the service over the pass's store, warms its plan cache
    /// when `cached`, then arms the pass's fault plan.
    fn start(ctx: &'a PassCtx<'a>, workers: usize, clients: usize, cached: bool) -> Self {
        let (cat, variant) = (ctx.cat, ctx.variant);
        let config = ServiceConfig {
            queue_capacity: (clients * 2).max(8),
            default_timeout_ms: ctx.timeout_ms,
            default_max_rows: MAX_ROWS,
            tracing: variant.traced,
            rewrite: variant.rewrite,
            ..ServiceConfig::with_workers(workers)
        };
        let (schema, db) = (Arc::clone(&cat.schema), Arc::clone(&cat.db));
        let service = Service::with_store(schema, db, Arc::clone(&ctx.store), config);
        if variant.traced {
            // Floor the threshold: every query is "slow", exercising the log.
            service.slow_query_log().set_threshold_us(1);
        }
        let opts = QueryOptions {
            backend: variant.backend,
            approach: variant.approach,
            use_cache: cached,
            analyze: variant.traced,
            ..Default::default()
        };
        let session = service.session();
        if cached {
            // Warm the plan cache so the loop measures execution, not
            // first-touch prepares (`prepare` runs inline and leaves
            // the latency registry alone).
            for (i, q) in cat.queries.iter().enumerate() {
                let warmed = session.prepare(q.text, &opts);
                warmed.unwrap_or_else(|e| panic!("{} warm-up: {e}", ctx.label(i)));
            }
        }
        service.set_fault_plan(ctx.faults.clone());
        Served {
            ctx,
            service,
            session,
            opts,
        }
    }

    fn answer(resp: &QueryResponse) -> Answer {
        Answer {
            arity: resp.columns.len(),
            flat: resp.rows.concat(),
        }
    }

    /// One sequential attempt through the service.
    fn run(&self, i: usize) -> Result<(Run, Answer)> {
        let session = &self.session;
        let resp = session.execute_expr(&self.ctx.cat.queries[i].expr, &self.opts)?;
        let answer = Served::answer(&resp);
        let traced = self.ctx.variant.traced;
        let run = Run {
            rows: resp.rows.len(),
            ms: resp.stats.total_micros as f64 / 1e3,
            morsels: 0,
            prepared: None,
            trace: traced.then(|| session.recent_traces().pop()).flatten(),
            analyze_json: resp.analyze_json,
        };
        Ok((run, answer))
    }

    fn assert_balanced(&self, i: usize) {
        let g = self.service.governor();
        let balanced = g.used() == 0 && g.active_queries() == 0;
        assert!(
            balanced,
            "{}: memory governor unbalanced",
            self.ctx.label(i)
        );
    }

    /// Disarms, replays the catalog once more when the pass was armed,
    /// asserts the service survived intact and shuts it down.
    fn finish(self, pass: &mut Pass) {
        self.service.set_fault_plan(None);
        let (session, queries) = (&self.session, &self.ctx.cat.queries);
        if self.ctx.faults.is_some() {
            // The storm is over: the same service must still answer every
            // query the reference answered, exactly — no state was
            // corrupted, no worker lost. Only a query the reference could
            // not answer either may be infeasible again.
            for (i, q) in queries.iter().enumerate() {
                match session.execute_expr(&q.expr, &self.opts) {
                    Ok(resp) => {
                        self.ctx
                            .check(i, &Served::answer(&resp), " (disarmed, post-fault)")
                    }
                    Err(e) => {
                        let skipped = self.ctx.expected.is_some_and(|want| want[i].is_none());
                        assert!(
                            skipped && infeasible(&e),
                            "{} post-fault: {e}",
                            self.ctx.label(i)
                        );
                    }
                }
            }
        }
        if let Some(last) = queries.len().checked_sub(1) {
            self.assert_balanced(last);
        }
        let metrics = self.service.metrics();
        assert!(
            metrics.worker_panics == 0 && self.service.pool_panic_count() == 0,
            "{}: variant `{}`: a worker panicked: {metrics}",
            self.ctx.cat.name,
            self.ctx.variant.name
        );
        pass.slow_queries = session.drain_slow_queries().len();
        pass.metrics = Some(metrics);
        self.service.shutdown();
    }
}

fn run_pass(
    cat: &Catalog,
    timeout_ms: u64,
    variant: &Variant,
    expected: Option<&[Option<Answer>]>,
) -> (Pass, Vec<Option<Answer>>) {
    let faults = variant
        .faults
        .map(|f| FaultConfig::errors(f.seed, f.probability));
    let ctx = PassCtx {
        cat,
        variant,
        store: cat.store(),
        timeout_ms,
        faults: faults.map(FaultPlan::new),
        scheduler: (variant.sizing)
            .filter(|s| s.dop > 1)
            .map(|s| Arc::new(TaskScheduler::new(s.dop))),
        expected,
    };
    let mut pass = Pass {
        variant: variant.clone(),
        runs: vec![None; cat.queries.len()],
        ..Default::default()
    };
    let mut answers: Vec<Option<Answer>> = cat.queries.iter().map(|_| None).collect();
    let (served, clients, passes) = match variant.via {
        Via::Direct => (None, 1, 1),
        Via::Service {
            workers,
            clients,
            passes,
            cached,
        } => {
            let served = Served::start(&ctx, workers, clients, cached);
            (Some(served), clients, passes)
        }
    };
    let policy = match variant.faults {
        Some(f) => RetryPolicy {
            max_attempts: f.max_attempts,
            ..RetryPolicy::new(f.seed)
        },
        None => RetryPolicy::unbounded(0x9e37_79b9),
    };
    let start = Instant::now();
    match &served {
        Some(served) if clients > 1 => {
            let exprs: Vec<_> = cat.queries.iter().map(|q| &q.expr).collect();
            let failed = AtomicUsize::new(0);
            let seen = |i: usize, r: &Result<QueryResponse>| match r {
                Ok(resp) => ctx.check(i, &Served::answer(resp), ""),
                Err(e) => {
                    failed.fetch_add(ctx.give_up(i, e) as usize, Ordering::Relaxed);
                }
            };
            (pass.completed, pass.retries) = run_clients(
                &served.service,
                &exprs,
                clients,
                passes,
                &served.opts,
                policy,
                seen,
            );
            pass.retryable_failures = failed.into_inner();
        }
        _ => {
            for (i, q) in cat.queries.iter().enumerate() {
                let (result, retries) = retry_with_backoff(policy, || match &served {
                    Some(served) => served.run(i),
                    None => ctx.run_direct(q),
                });
                pass.retries += retries;
                match result {
                    Ok((run, answer)) => {
                        ctx.check(i, &answer, "");
                        pass.completed += 1;
                        pass.runs[i] = Some(run);
                        answers[i] = Some(answer);
                    }
                    Err(e) if ctx.give_up(i, &e) => pass.retryable_failures += 1,
                    Err(_) => {}
                }
                if let Some(served) = &served {
                    served.assert_balanced(i);
                }
            }
        }
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    if let Some(served) = served {
        served.finish(&mut pass);
    }
    if let Some(plan) = &ctx.faults {
        pass.fired = plan.fired();
    }
    (pass, answers)
}

/// Drives `clients` closed-loop client threads over a service: each
/// keeps one query in flight for `passes` passes over `queries` (offset
/// per client so the loop does not hit the same statement in
/// lock-step), retrying retryable errors (`Busy`, injected transients)
/// with `policy`'s jittered backoff instead of a hot spin. `seen` is
/// handed every final outcome with the query's index. Returns
/// `(completed, retries)`; errors are also counted in the service
/// metrics.
pub fn run_clients(
    service: &Service,
    queries: &[&sgq_algebra::ast::PathExpr],
    clients: usize,
    passes: usize,
    opts: &QueryOptions,
    policy: RetryPolicy,
    seen: impl Fn(usize, &Result<QueryResponse>) + Sync,
) -> (u64, u64) {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (session, seen) = (service.session(), &seen);
                s.spawn(move || {
                    let (mut ok, mut retries) = (0u64, 0u64);
                    // The jitter is seeded per client so colliding
                    // clients decorrelate.
                    let policy = RetryPolicy {
                        seed: policy.seed ^ client as u64,
                        ..policy
                    };
                    for pass in 0..passes {
                        for i in 0..queries.len() {
                            let k = (i + client + pass) % queries.len();
                            let attempt = || session.execute_expr(queries[k], opts);
                            let (result, spent) = retry_with_backoff(policy, attempt);
                            retries += spent;
                            ok += result.is_ok() as u64;
                            seen(k, &result);
                        }
                    }
                    (ok, retries)
                })
            })
            .collect();
        // A client that panicked (a diverging answer) re-raises here
        // with its own message.
        let joined = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        joined.fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
    })
}

/// A text table whose columns size themselves to their widest cell.
pub struct Table {
    /// `(header, left-aligned)` per column.
    head: Vec<(String, bool)>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table from a column spec: headers separated by `|`, a leading
    /// `<` left-aligns the column (text), the default is right-aligned
    /// (numbers) — e.g. `"<query|rows|serial ms"`.
    pub fn new(spec: &str) -> Self {
        let col = |h: &str| (h.trim_start_matches('<').to_string(), h.starts_with('<'));
        Table {
            head: spec.split('|').map(col).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row: the cells separated by `|`, one per column.
    pub fn row(&mut self, cells: String) {
        let cells: Vec<String> = cells.split('|').map(str::to_string).collect();
        assert_eq!(cells.len(), self.head.len(), "one cell per column");
        self.rows.push(cells);
    }

    /// Renders header and rows, one line each.
    pub fn render(&self) -> String {
        let header: Vec<String> = self.head.iter().map(|(h, _)| h.clone()).collect();
        let lines = || std::iter::once(&header).chain(&self.rows);
        let widths: Vec<usize> = (0..header.len())
            .map(|j| lines().map(|l| l[j].chars().count()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for line in lines() {
            let cells: Vec<String> = (line.iter().enumerate())
                .map(|(j, cell)| match (self.head[j].1, widths[j]) {
                    (true, w) => format!("{cell:<w$}"),
                    (false, w) => format!("{cell:>w$}"),
                })
                .collect();
            out.push_str(cells.join(" ").trim_end());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Catalog {
        Catalog::yago(0.02)
    }

    /// `db` minus its first `label` edge, rebuilt node for node.
    fn without_one_edge(schema: &GraphSchema, db: &GraphDatabase, label: &str) -> GraphDatabase {
        let mut b = GraphDatabase::builder(schema);
        for n in db.node_ids() {
            b.node_with_label_id(db.node_label(n), db.node_properties(n).to_vec());
        }
        let victim = db.edge_label_id(label).expect("label exists");
        for le in (0..db.edge_label_count()).map(|i| sgq_common::EdgeLabelId::new(i as u32)) {
            let skip = (le == victim) as usize;
            for &(s, t) in db.edges(le).iter().skip(skip) {
                b.edge_with_label_id(s, le, t);
            }
        }
        b.build().expect("the copy is well-formed")
    }

    #[test]
    fn identical_variants_replay_clean_and_stores_load_once() {
        let cat = tiny();
        let again = Variant::new("again");
        let served = Variant {
            via: Via::Service {
                workers: 2,
                clients: 2,
                passes: 1,
                cached: true,
            },
            ..Variant::new("served")
        };
        let rep = replay(&cat, 10_000, &Variant::new("direct"), &[again, served]);
        assert_eq!(rep.compared().len(), cat.queries.len());
        assert!(rep.compared().iter().all(|(_, _, v)| v.len() == 1));
        assert_eq!(rep.variants[1].completed, 2 * cat.queries.len() as u64);
        assert!(Arc::ptr_eq(&cat.store(), &cat.store()));
        let json = rep.to_json().render();
        assert!(json.contains("\"variant\": \"again\""), "{json}");
        assert!(json.contains("\"median\""), "{json}");
    }

    #[test]
    fn a_one_row_perturbation_panics_naming_query_and_variant() {
        let cat = tiny();
        // The catalog's one store, loaded from a database missing one
        // edge: a relational variant now answers one row short of the
        // graph backend, which reads the intact `cat.db`.
        let perturbed = without_one_edge(&cat.schema, &cat.db, "isLocatedIn");
        let planted = cat.store.set(Arc::new(RelStore::load(&perturbed)));
        assert!(planted.is_ok(), "the store was not loaded yet");
        let graph = Variant {
            backend: Backend::Graph,
            ..Variant::new("graph")
        };
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replay(&cat, 10_000, &graph, &[Variant::new("one-row-short")])
        }))
        .expect_err("a diverging variant must panic");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("variant `one-row-short`"), "{msg}");
        assert!(msg.contains("YAGO/Y"), "names catalog and query: {msg}");
        assert!(msg.contains("diverged from the reference"), "{msg}");
    }

    #[test]
    fn a_reference_timeout_is_a_skip_not_a_failure() {
        let cat = tiny();
        let rep = replay(&cat, 0, &Variant::new("direct"), &[Variant::new("again")]);
        // Timeout 0 expires (nearly) every query that executes at all:
        // an infeasible cell for the pass that hit it, left out of the
        // comparison, nothing panics — and every pass still ran every
        // query, whatever the reference managed.
        assert!(rep.compared().len() < cat.queries.len());
        for pass in rep.passes() {
            let skipped = pass.runs.iter().filter(|r| r.is_none()).count();
            assert!(skipped > 0, "{}", pass.variant.name);
            let ran = pass.completed as usize + skipped;
            assert_eq!(ran, cat.queries.len(), "{}", pass.variant.name);
        }
    }

    #[test]
    fn after_the_faults_every_query_the_reference_answered_is_answered_again() {
        let cat = tiny();
        let armed = Variant {
            via: Via::Service {
                workers: 1,
                clients: 1,
                passes: 1,
                cached: true,
            },
            faults: Some(Faults {
                seed: 7,
                probability: 0.0,
                max_attempts: 1,
            }),
            ..Variant::new("armed")
        };
        // Timeout 0 on both sides: what the reference skipped the armed
        // pass may skip, during and after the faults.
        let (_, skipped) = run_pass(&cat, 0, &Variant::new("reference"), None);
        run_pass(&cat, 0, &armed, Some(&skipped));
        // A reference that answered: the disarmed replay timing out on
        // the same queries is a service that did not survive.
        let (_, answered) = run_pass(&cat, 10_000, &Variant::new("reference"), None);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pass(&cat, 0, &armed, Some(&answered))
        }))
        .expect_err("an unanswered post-fault query must panic");
        let msg = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("variant `armed` post-fault"), "{msg}");
    }

    #[test]
    fn a_schema_query_may_finish_where_its_baseline_timed_out() {
        // Tab. 5's point: the schema proves dealsWith/owns empty (see
        // `prepared.rs`), so it needs no execution; the baseline
        // executes and times out.
        let schema = sgq_graph::schema::fig1_yago_schema();
        let text = "dealsWith/owns";
        let origin = sgq_datasets::QueryOrigin::YagoStyle;
        let q = CatalogQuery::parse(text, origin, text, &schema).expect("parses");
        let db = sgq_graph::database::fig2_yago_database();
        let cat = Catalog::new("FIG2", schema, db, vec![q]);
        let baseline = Variant {
            approach: Approach::Baseline,
            ..Variant::new("baseline")
        };
        let rep = replay(&cat, 0, &baseline, &[Variant::new("schema")]);
        assert!(rep.reference.runs[0].is_none(), "the baseline timed out");
        let rescued = rep.variants[0].runs[0]
            .as_ref()
            .expect("the schema finishes");
        assert_eq!(rescued.rows, 0);
    }

    #[test]
    fn malformed_term_is_a_bug_not_an_infeasible_cell() {
        let cat = tiny();
        let store = cat.store();
        // σ over a column the scan does not produce: `plan()` rejects it.
        let owns = cat.db.edge_label_id("owns").expect("YAGO has owns");
        let (x, y) = (store.symbols.col("x"), store.symbols.col("y"));
        let scan = sgq_ra::RaTerm::edge_scan(owns, x, y);
        let malformed = sgq_ra::RaTerm::select_eq(scan, x, store.symbols.col("nope"));
        let e = sgq_ra::plan(&malformed, &store).expect_err("unknown column");
        assert!(matches!(e, SgqError::Execution(_)), "{e}");
        assert!(!infeasible(&e), "{e}");
        assert!(infeasible(&SgqError::Timeout { limit_ms: 1 }));
        assert!(infeasible(&SgqError::RowBudget { rows: 2, budget: 1 }));
    }

    #[test]
    fn table_aligns_columns_to_their_widest_cell() {
        let mut t = Table::new("<query|rows");
        t.row(format!("Y1|{}", 12345));
        t.row("Y12|7".to_string());
        assert_eq!(t.render(), "query  rows\nY1    12345\nY12       7\n");
    }
}
