//! The concurrent query service: [`Service`] owns the shared state
//! (database, relational store, plan cache, worker pool, metrics);
//! [`Session`]s are cheap cloneable handles that submit queries.
//!
//! A query's life: the session parses the text (cheap), computes the
//! statement's cache key and submits a job to the bounded worker pool —
//! a full queue rejects with [`SgqError::Busy`] *at admission*. On a
//! worker, the statement is served from the sharded plan cache or
//! prepared once ([`crate::prepared::prepare`]), then executed with a
//! per-query deadline that started ticking at submission (queue wait
//! counts against the timeout, reusing the engines' cooperative
//! deadline polling). Results carry execution stats; the registry
//! aggregates QPS, latency percentiles and the cache hit rate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sgq_algebra::ast::PathExpr;
use sgq_algebra::parser::parse_path;
use sgq_common::{faultpoint, FaultPlan, ResourceGovernor, Result, SgqError};
use sgq_core::pipeline::RewriteOptions;
use sgq_graph::{GraphDatabase, GraphSchema};
use sgq_obs::{QueryTrace, SlowQueryLog, TagValue, Tracer};
use sgq_ra::exec::ExecContext;
use sgq_ra::{RelStore, TaskScheduler};

use crate::cache::{schema_fingerprint, CacheKey, CacheOutcome, PlanCache};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::prepared::{prepare, Approach, Backend, PreparedQuery};

/// Independently locked plan-cache shards.
const PLAN_CACHE_SHARDS: usize = 8;

/// Traces retained by the tracer's ring buffer.
const TRACE_RING_CAPACITY: usize = 64;

/// Traces retained by the slow-query log's ring buffer.
const SLOW_QUERY_CAPACITY: usize = 32;

/// Fraction of `global_memory_limit` at which graceful degradation
/// kicks in: the service halves the effective admission queue (see the
/// governor's [`ResourceGovernor::under_pressure`]).
const MEMORY_PRESSURE_FACTOR: f64 = 0.75;

/// Construction-time configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing queries (>= 1).
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue rejects with
    /// [`SgqError::Busy`] (>= 1).
    pub queue_capacity: usize,
    /// Total prepared statements held by the plan cache.
    pub plan_cache_capacity: usize,
    /// Deadline applied when a call does not set its own (ms).
    pub default_timeout_ms: u64,
    /// Row-materialisation budget per query (0 = unlimited).
    pub default_max_rows: usize,
    /// Intra-query degree of parallelism applied when a call does not
    /// set its own (1 = serial morsel-free execution).
    pub default_dop: usize,
    /// Ceiling on per-query DOP; also sizes the shared morsel
    /// scheduler, bounding the service's intra-query threads.
    pub max_dop: usize,
    /// Probe-row count below which operators stay serial even at
    /// `dop > 1` (the executor's per-morsel overhead gate). Lower it
    /// only to force parallelism on small fixtures (tests, benches).
    pub parallel_row_threshold: usize,
    /// Morsel size cap in rows for parallel sections.
    pub morsel_rows: usize,
    /// Rewrite switches used by [`Approach::Schema`] statements.
    pub rewrite: RewriteOptions,
    /// Start with query tracing enabled (flip at runtime via
    /// [`Service::set_tracing`]). Disabled tracing costs one relaxed
    /// atomic load per query.
    pub tracing: bool,
    /// Trace 1 in N queries when tracing is enabled (1 = every query).
    pub trace_sample_every: u64,
    /// Slow-query threshold in milliseconds: a query slower than this
    /// lands in the slow-query log regardless of sampling (0 disables).
    pub slow_query_ms: u64,
    /// Global ceiling on bytes of materialised intermediate state across
    /// every in-flight query; the query whose charge crosses it aborts
    /// with [`SgqError::BudgetExceeded`] (0 = unlimited).
    pub global_memory_limit: usize,
    /// Per-query memory ceiling applied when a call does not set
    /// [`QueryOptions::max_memory`] (0 = unlimited).
    pub query_memory_limit: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServiceConfig {
            workers,
            queue_capacity: workers * 8,
            plan_cache_capacity: 256,
            default_timeout_ms: 30_000,
            default_max_rows: 20_000_000,
            default_dop: 1,
            max_dop: workers,
            parallel_row_threshold: sgq_ra::cost::PARALLEL_ROW_THRESHOLD,
            morsel_rows: sgq_ra::parallel::MORSEL_ROWS,
            rewrite: RewriteOptions::default(),
            tracing: false,
            trace_sample_every: 1,
            slow_query_ms: 0,
            global_memory_limit: 0,
            query_memory_limit: 0,
        }
    }
}

impl ServiceConfig {
    /// A config with `workers` worker threads (queue scaled along).
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers: workers.max(1),
            queue_capacity: workers.max(1) * 8,
            ..Default::default()
        }
    }
}

/// Per-call execution options.
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// Executing backend.
    pub backend: Backend,
    /// Baseline or schema-rewritten statement.
    pub approach: Approach,
    /// Per-query deadline override (ms).
    pub timeout_ms: Option<u64>,
    /// Row-budget override (0 = unlimited).
    pub max_rows: Option<usize>,
    /// Intra-query DOP override, clamped to
    /// [`ServiceConfig::max_dop`] (relational backend only).
    pub dop: Option<usize>,
    /// Consult/populate the plan cache (`false` re-prepares every call).
    pub use_cache: bool,
    /// Trace this query's execution and return the structured
    /// `EXPLAIN ANALYZE` node array ([`QueryResponse::analyze_json`]) —
    /// rendered from the *production* execution, not a re-run.
    /// Relational backend only (the graph backend has no plan nodes).
    pub analyze: bool,
    /// Per-query memory-budget override in bytes
    /// (`None` = [`ServiceConfig::query_memory_limit`]; `Some(0)` =
    /// unlimited for this call).
    pub max_memory: Option<usize>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            backend: Backend::Relational,
            approach: Approach::Schema,
            timeout_ms: None,
            max_rows: None,
            dop: None,
            use_cache: true,
            analyze: false,
            max_memory: None,
        }
    }
}

/// Per-query execution statistics returned with the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// How the prepared statement was obtained.
    pub cache: CacheOutcome,
    /// Time spent queued before a worker picked the job up (µs).
    pub queue_micros: u64,
    /// Front-end time spent by *this* call (0 on a cache hit) (µs).
    pub prepare_micros: u64,
    /// Execution time on the backend (µs).
    pub exec_micros: u64,
    /// End-to-end latency from submission (µs).
    pub total_micros: u64,
    /// Rows materialised by the relational interpreter, or pairs by the
    /// graph engine's path evaluation.
    pub rows_materialized: usize,
}

/// A completed query: rows, column names and stats.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Result rows (raw node ids), sorted and deduplicated.
    pub rows: Vec<Vec<u32>>,
    /// Output column names, in row order.
    pub columns: Vec<String>,
    /// Execution statistics.
    pub stats: QueryStats,
    /// With [`QueryOptions::analyze`]: the structured `EXPLAIN ANALYZE`
    /// JSON array (one object per plan node, pre-order), rendered from
    /// this very execution's trace. `None` otherwise.
    pub analyze_json: Option<String>,
}

/// Shared immutable service state (everything a worker job needs).
///
/// Deliberately does *not* contain the job pool: queued jobs hold an
/// `Arc<Core>`, and a job holding the pool would keep the pool's own
/// queue alive in a cycle.
struct Core {
    schema: Arc<GraphSchema>,
    db: Arc<GraphDatabase>,
    store: Arc<RelStore>,
    cache: PlanCache,
    metrics: MetricsRegistry,
    schema_fp: u64,
    schema_version: AtomicU64,
    config: ServiceConfig,
    /// Query-lifecycle tracer (phase + operator spans, ring buffer).
    tracer: Tracer,
    /// Ring of traces for queries over the latency threshold.
    slow_log: SlowQueryLog,
    /// Morsel scheduler shared by every parallel query (lazily spawned
    /// on the first `dop > 1` call, sized to `max_dop` so intra-query
    /// threads stay bounded regardless of concurrent queries). A second
    /// instance of the job pool's type, never the job pool itself: a
    /// job blocking on morsels queued behind other jobs in the same
    /// FIFO would deadlock.
    exec_scheduler: OnceLock<Arc<TaskScheduler>>,
    /// Memory governor every query charges its materialised state into
    /// (per-query + global ceilings, pressure signal).
    governor: Arc<ResourceGovernor>,
    /// The fault plan this service's fault points consult; `None`
    /// (always, outside robustness tests) makes them inert.
    faults: Mutex<Option<Arc<FaultPlan>>>,
}

impl Core {
    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults
            .lock()
            .expect("the fault-plan slot is only ever swapped")
            .clone()
    }

    fn scheduler(&self) -> Arc<TaskScheduler> {
        Arc::clone(
            self.exec_scheduler
                .get_or_init(|| Arc::new(TaskScheduler::new(self.config.max_dop.max(1)))),
        )
    }
}

/// The concurrent query service.
pub struct Service {
    core: Arc<Core>,
    /// The bounded-admission pool the query jobs run on.
    pool: Arc<TaskScheduler>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("jobs", &self.pool)
            .field("morsels", &self.core.exec_scheduler.get())
            .field("cache", &self.core.cache)
            .finish()
    }
}

impl Service {
    /// Builds a service over an already-shared schema and database,
    /// loading the relational store once.
    pub fn new(schema: Arc<GraphSchema>, db: Arc<GraphDatabase>, config: ServiceConfig) -> Self {
        let store = Arc::new(RelStore::load(&db));
        Self::with_store(schema, db, store, config)
    }

    /// Builds a service over a pre-loaded relational store. `store` must
    /// have been loaded from `db` — use this when several services share
    /// one database (worker sweeps, benches) to avoid paying
    /// [`RelStore::load`] per service.
    pub fn with_store(
        schema: Arc<GraphSchema>,
        db: Arc<GraphDatabase>,
        store: Arc<RelStore>,
        config: ServiceConfig,
    ) -> Self {
        let schema_fp = schema_fingerprint(&schema);
        let pool = Arc::new(TaskScheduler::bounded(
            config.workers,
            config.queue_capacity,
        ));
        let tracer = Tracer::new(TRACE_RING_CAPACITY);
        tracer.set_enabled(config.tracing);
        tracer.set_sample_every(config.trace_sample_every);
        let slow_log = SlowQueryLog::new(
            config.slow_query_ms.saturating_mul(1_000),
            SLOW_QUERY_CAPACITY,
        );
        let governor = ResourceGovernor::new(config.global_memory_limit, MEMORY_PRESSURE_FACTOR);
        let core = Arc::new(Core {
            schema,
            db,
            store,
            cache: PlanCache::new(config.plan_cache_capacity, PLAN_CACHE_SHARDS),
            metrics: MetricsRegistry::new(),
            schema_fp,
            schema_version: AtomicU64::new(0),
            config,
            tracer,
            slow_log,
            exec_scheduler: OnceLock::new(),
            governor,
            faults: Mutex::new(None),
        });
        Service { core, pool }
    }

    /// Convenience constructor taking owned schema/database.
    pub fn build(schema: GraphSchema, db: GraphDatabase, config: ServiceConfig) -> Self {
        Service::new(Arc::new(schema), Arc::new(db), config)
    }

    /// Opens a session: a cheap handle submitting queries to this
    /// service's worker pool.
    pub fn session(&self) -> Session {
        Session {
            core: Arc::clone(&self.core),
            pool: Arc::clone(&self.pool),
        }
    }

    /// The schema queries are parsed and rewritten against.
    pub fn schema(&self) -> &Arc<GraphSchema> {
        &self.core.schema
    }

    /// The shared database.
    pub fn database(&self) -> &Arc<GraphDatabase> {
        &self.core.db
    }

    /// Current metrics snapshot (including plan-cache counters).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.metrics.snapshot(self.core.cache.stats())
    }

    /// The current schema version (bumped by
    /// [`Service::bump_schema_version`]).
    pub fn schema_version(&self) -> u64 {
        self.core.schema_version.load(Ordering::SeqCst)
    }

    /// Signals a schema change: bumps the version (future cache keys
    /// differ) and drops every cached statement.
    pub fn bump_schema_version(&self) -> u64 {
        let v = self.core.schema_version.fetch_add(1, Ordering::SeqCst) + 1;
        self.core.cache.invalidate_all();
        v
    }

    /// The query-lifecycle tracer: toggle, sampling knob and the ring of
    /// recent traces.
    pub fn tracer(&self) -> &Tracer {
        &self.core.tracer
    }

    /// Enables or disables query tracing at runtime (next query onward).
    pub fn set_tracing(&self, on: bool) {
        self.core.tracer.set_enabled(on);
    }

    /// Reconfigures the slow-query threshold in milliseconds (0
    /// disables the log).
    pub fn set_slow_query_ms(&self, ms: u64) {
        self.core
            .slow_log
            .set_threshold_us(ms.saturating_mul(1_000));
    }

    /// The slow-query log (µs-precision threshold control, drained via
    /// [`Session::drain_slow_queries`]).
    pub fn slow_query_log(&self) -> &SlowQueryLog {
        &self.core.slow_log
    }

    /// The memory governor: live/peak bytes of materialised state,
    /// pressure signal, active query count.
    pub fn governor(&self) -> &Arc<ResourceGovernor> {
        &self.core.governor
    }

    /// Arms (`Some`) or disarms (`None`) fault injection for this service
    /// only: queries dispatched from now on visit their fault points
    /// against `plan`, which also rides on their execution contexts.
    /// Other services in the process are unaffected.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self
            .core
            .faults
            .lock()
            .expect("the fault-plan slot is only ever swapped") = plan;
    }

    /// Panics contained by the worker pool's backstop handler (the
    /// service-level containment in [`Session::submit_expr`] normally
    /// converts panics to [`SgqError::Internal`] before they reach it,
    /// so this staying zero means containment worked at the right
    /// layer).
    pub fn pool_panic_count(&self) -> u64 {
        self.pool.panic_count()
    }

    /// Graceful shutdown: drains queued queries, joins the workers —
    /// the jobs' first, then the morsel scheduler's, which by then has
    /// nothing in flight. Subsequent submissions fail. Idempotent.
    pub fn shutdown(&self) {
        self.pool.shutdown();
        if let Some(morsels) = self.core.exec_scheduler.get() {
            morsels.shutdown();
        }
    }
}

/// A client handle on a [`Service`]. Clone freely; sessions are
/// independent submitters over the same shared state.
#[derive(Clone)]
pub struct Session {
    core: Arc<Core>,
    pool: Arc<TaskScheduler>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").finish_non_exhaustive()
    }
}

/// An in-flight query submitted with [`Session::submit`].
#[derive(Debug)]
pub struct PendingQuery {
    rx: mpsc::Receiver<Result<QueryResponse>>,
}

impl PendingQuery {
    /// Blocks until the worker finishes the query.
    pub fn wait(self) -> Result<QueryResponse> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(SgqError::Execution("worker dropped the query".into())))
    }
}

impl Session {
    /// Parses and executes a path-query string, blocking for the result.
    pub fn execute(&self, text: &str, opts: &QueryOptions) -> Result<QueryResponse> {
        let expr = parse_path(text, self.core.schema.as_ref())?;
        self.execute_expr(&expr, opts)
    }

    /// Executes an already-parsed path expression, blocking.
    pub fn execute_expr(&self, expr: &PathExpr, opts: &QueryOptions) -> Result<QueryResponse> {
        self.submit_expr(expr, opts)?.wait()
    }

    /// Submits a query without waiting (parse errors and admission
    /// rejections surface immediately).
    pub fn submit(&self, text: &str, opts: &QueryOptions) -> Result<PendingQuery> {
        let expr = parse_path(text, self.core.schema.as_ref())?;
        self.submit_expr(&expr, opts)
    }

    /// Submits an already-parsed expression without waiting.
    pub fn submit_expr(&self, expr: &PathExpr, opts: &QueryOptions) -> Result<PendingQuery> {
        let core = Arc::clone(&self.core);
        let expr = expr.clone();
        let opts = *opts;
        let submitted = Instant::now();
        let timeout_ms = opts.timeout_ms.unwrap_or(core.config.default_timeout_ms);
        let deadline = submitted + Duration::from_millis(timeout_ms);
        let (tx, rx) = mpsc::channel();
        // Graceful degradation: under memory pressure the service admits
        // into a halved effective queue, shedding load before the global
        // ceiling starts aborting queries outright.
        let cap = if self.core.governor.under_pressure() {
            self.core.metrics.record_degraded_admission();
            (self.core.config.queue_capacity / 2).max(1)
        } else {
            self.core.config.queue_capacity
        };
        let submit_result = self.pool.try_submit_capped(cap, move || {
            // Panic containment: a panicking query must reach its caller
            // as a structured error — never a hung channel or a dead
            // worker — and must leave the worker healthy for the next
            // job.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_query(&core, &expr, &opts, submitted, deadline, timeout_ms)
            }))
            .unwrap_or_else(|payload| {
                core.metrics.record_worker_panic();
                Err(SgqError::Internal(format!(
                    "worker panicked: {}",
                    panic_message(payload.as_ref())
                )))
            });
            match &result {
                Ok(resp) => core.metrics.record_success(resp.stats.total_micros),
                Err(e) => core.metrics.record_error(e),
            }
            // The client may have given up (e.g. channel dropped); the
            // metrics above still count the work.
            let _ = tx.send(result);
        });
        if let Err(e) = submit_result {
            if e.is_busy() {
                self.core.metrics.record_rejected();
            }
            return Err(e);
        }
        Ok(PendingQuery { rx })
    }

    /// Prepares (or fetches from the cache) the statement for `text`
    /// without executing it — runs inline on the calling thread.
    pub fn prepare(
        &self,
        text: &str,
        opts: &QueryOptions,
    ) -> Result<(Arc<PreparedQuery>, CacheOutcome)> {
        let expr = parse_path(text, self.core.schema.as_ref())?;
        prepare_via_cache(&self.core, &expr, opts, &self.core.fault_plan())
    }

    /// Current metrics snapshot (shared with [`Service::metrics`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.metrics.snapshot(self.core.cache.stats())
    }

    /// The traces retained by the tracer's ring buffer, oldest first
    /// (populated when tracing is enabled or a query ran with
    /// [`QueryOptions::analyze`]).
    pub fn recent_traces(&self) -> Vec<Arc<QueryTrace>> {
        self.core.tracer.recent()
    }

    /// Drains the slow-query log: traces of queries whose total latency
    /// crossed [`ServiceConfig::slow_query_ms`], oldest first.
    pub fn drain_slow_queries(&self) -> Vec<Arc<QueryTrace>> {
        self.core.slow_log.drain()
    }
}

/// Serves the statement from the plan cache or runs the front-end once.
/// A plan depends only on the statement and the store's statistics, so a
/// cached one stays what a fresh prepare would build.
fn prepare_via_cache(
    core: &Core,
    expr: &PathExpr,
    opts: &QueryOptions,
    faults: &Option<Arc<FaultPlan>>,
) -> Result<(Arc<PreparedQuery>, CacheOutcome)> {
    faultpoint!(faults, "service.plan_cache");
    let do_prepare = || {
        prepare(
            &core.schema,
            &core.store,
            expr,
            opts.backend,
            opts.approach,
            core.config.rewrite,
        )
    };
    if !opts.use_cache {
        return Ok((Arc::new(do_prepare()?), CacheOutcome::Bypass));
    }
    let canonical = crate::prepared::canonical_text(expr, &core.schema);
    let key = CacheKey::new(
        &canonical,
        core.schema_fp,
        core.schema_version.load(Ordering::SeqCst),
        opts.backend,
        opts.approach,
        &core.config.rewrite,
    );
    core.cache.get_or_prepare(key, do_prepare)
}

/// Renders a caught panic payload (the common `&str` / `String` cases;
/// anything else gets a stable placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn outcome_str(o: CacheOutcome) -> &'static str {
    match o {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Miss => "miss",
        CacheOutcome::Bypass => "bypass",
    }
}

/// The worker-side execution of one query.
///
/// The phase timings are always measured (they feed [`QueryStats`]); a
/// [`QueryTrace`] is only assembled when the tracer sampled this query,
/// the caller asked for [`QueryOptions::analyze`], or the query turned
/// out slower than the slow-query threshold. Errors and timeouts on the
/// execution path are traced too — those are exactly the queries worth
/// inspecting.
fn run_query(
    core: &Core,
    expr: &PathExpr,
    opts: &QueryOptions,
    submitted: Instant,
    deadline: Instant,
    timeout_ms: u64,
) -> Result<QueryResponse> {
    let faults = core.fault_plan();
    faultpoint!(faults, "service.dispatch");
    let queue_micros = submitted.elapsed().as_micros() as u64;
    let traced = opts.analyze || core.tracer.should_trace();
    let cache_start = Instant::now();
    let (prepared, cache) = prepare_via_cache(core, expr, opts, &faults)?;
    let cache_micros = cache_start.elapsed().as_micros() as u64;
    let prepare_micros = match cache {
        CacheOutcome::Hit => 0,
        CacheOutcome::Miss | CacheOutcome::Bypass => prepared.prepare_micros(),
    };
    let exec_start = Instant::now();
    let mut ctx = ExecContext::new();
    ctx.deadline = Some(deadline);
    ctx.limit_ms = timeout_ms;
    ctx.max_rows = opts.max_rows.unwrap_or(core.config.default_max_rows);
    // Every query, on either backend, charges its materialised bytes
    // into the shared governor.
    let query_limit = opts.max_memory.unwrap_or(core.config.query_memory_limit);
    ctx.budget = Some(core.governor.begin(query_limit));
    ctx.faults = faults.clone();
    let dop = opts
        .dop
        .unwrap_or(core.config.default_dop)
        .clamp(1, core.config.max_dop.max(1));
    if dop > 1 {
        ctx.dop = dop;
        ctx.parallel_threshold = core.config.parallel_row_threshold;
        ctx.morsel_rows = core.config.morsel_rows.max(1);
        ctx.set_scheduler(core.scheduler());
    }
    let clock = traced.then(|| core.tracer.clock());
    let ran = prepared.execute(&core.db, &core.store, &mut ctx, clock);
    // The budget handle releases the balance here — success, error or
    // deadline alike; a panic drops the context — so the governor reads
    // zero between queries.
    ctx.budget = None;
    let exec_micros = exec_start.elapsed().as_micros() as u64;
    core.metrics.record_parallel(ctx.morsels_executed);
    core.metrics.record_scans(ctx.scans);
    let (exec_result, mut exec_trace) = match ran {
        Ok((answer, trace)) => (Ok(answer), trace),
        Err(e) => (Err(e), None),
    };
    let total_micros = submitted.elapsed().as_micros() as u64;
    let analyze_json = match (&exec_result, exec_trace.as_ref(), prepared.plan()) {
        (Ok(_), Some(trace), Some(plan)) if opts.analyze => Some(
            sgq_ra::explain::analyze_json(plan, &core.store, core.schema.as_ref(), trace).render(),
        ),
        _ => None,
    };
    if traced || core.slow_log.is_slow(total_micros) {
        let mut tb = core.tracer.builder(prepared.canonical());
        let clock = core.tracer.clock();
        let t_submit = clock.us_of(submitted);
        let mut root_tags: Vec<(&'static str, TagValue)> = vec![
            ("backend", format!("{:?}", prepared.backend()).into()),
            ("cache", outcome_str(cache).into()),
        ];
        if let Err(e) = &exec_result {
            root_tags.push(("error", e.to_string().into()));
        }
        let root = tb.add_span("query", 0, t_submit, total_micros, root_tags);
        tb.add_span("queue", root, t_submit, queue_micros, Vec::new());
        let t_pickup = t_submit + queue_micros;
        let cache_span = tb.add_span(
            "cache",
            root,
            t_pickup,
            cache_micros,
            vec![("outcome", outcome_str(cache).into())],
        );
        if prepare_micros > 0 {
            // Preparation ran inside the cache-lookup window; truncation
            // to whole µs can leave it a hair wider, so clamp for clean
            // nesting.
            let dur = prepare_micros.min(cache_micros);
            let start = t_pickup + cache_micros - dur;
            tb.add_span("prepare", cache_span, start, dur, Vec::new());
        }
        let exec_tags: Vec<(&'static str, TagValue)> = vec![
            ("rows_materialized", ctx.rows_materialized().into()),
            ("morsels", ctx.morsels_executed.into()),
            ("hash_builds", ctx.hash_builds.into()),
            ("step_cache_hits", ctx.cache_hits.into()),
            ("fixpoint_rounds", ctx.fixpoint_rounds.into()),
        ];
        tb.add_span(
            "execute",
            root,
            clock.us_of(exec_start),
            exec_micros,
            exec_tags,
        );
        if let Some(trace) = exec_trace.take() {
            tb.set_ops(trace.spans);
        }
        let trace = Arc::new(tb.finish());
        core.metrics.record_ops(&trace.ops);
        if traced {
            core.tracer.record(Arc::clone(&trace));
        }
        core.slow_log.offer(total_micros, || trace);
    }
    let answer = exec_result?;
    Ok(QueryResponse {
        rows: answer.rows().map(<[u32]>::to_vec).collect(),
        columns: prepared.columns().to_vec(),
        stats: QueryStats {
            cache,
            queue_micros,
            prepare_micros,
            exec_micros,
            total_micros,
            rows_materialized: ctx.rows_materialized(),
        },
        analyze_json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_graph::database::fig2_yago_database;
    use sgq_graph::schema::fig1_yago_schema;

    fn small_service(workers: usize) -> Service {
        Service::build(
            fig1_yago_schema(),
            fig2_yago_database(),
            ServiceConfig::with_workers(workers),
        )
    }

    #[test]
    fn execute_returns_rows_and_stats() {
        let service = small_service(2);
        let session = service.session();
        let resp = session
            .execute("livesIn/isLocatedIn+", &QueryOptions::default())
            .unwrap();
        assert!(!resp.rows.is_empty());
        assert_eq!(resp.columns, vec!["v0", "v1"]);
        assert_eq!(resp.stats.cache, CacheOutcome::Miss);
        assert!(resp.stats.total_micros >= resp.stats.exec_micros);
        service.shutdown();
    }

    #[test]
    fn graph_and_relational_agree() {
        let service = small_service(2);
        let session = service.session();
        for text in ["owns/isLocatedIn+", "isMarriedTo+", "livesIn"] {
            let mut rows = Vec::new();
            for backend in [
                Backend::Graph,
                Backend::Relational,
                Backend::RelationalUnoptimized,
            ] {
                for approach in [Approach::Baseline, Approach::Schema] {
                    let opts = QueryOptions {
                        backend,
                        approach,
                        ..Default::default()
                    };
                    rows.push(session.execute(text, &opts).unwrap().rows);
                }
            }
            assert!(
                rows.windows(2).all(|w| w[0] == w[1]),
                "backends disagree on {text}"
            );
        }
        service.shutdown();
    }

    #[test]
    fn parse_errors_surface_before_submission() {
        let service = small_service(1);
        let session = service.session();
        let err = session
            .execute("noSuchLabel///", &QueryOptions::default())
            .unwrap_err();
        assert!(matches!(err, SgqError::Parse { .. }), "got {err}");
        service.shutdown();
    }

    #[test]
    fn provably_empty_queries_return_no_rows() {
        let service = small_service(1);
        let session = service.session();
        let resp = session
            .execute("dealsWith/owns", &QueryOptions::default())
            .unwrap();
        assert!(resp.rows.is_empty());
        service.shutdown();
    }

    #[test]
    fn zero_timeout_classifies_as_timeout() {
        let service = small_service(1);
        let session = service.session();
        let opts = QueryOptions {
            timeout_ms: Some(0),
            ..Default::default()
        };
        let err = session.execute("isLocatedIn+", &opts).unwrap_err();
        assert!(err.is_timeout(), "got {err}");
        assert_eq!(service.metrics().timeouts, 1);
        service.shutdown();
    }

    #[test]
    fn schema_version_bump_invalidates() {
        let service = small_service(1);
        let session = service.session();
        let opts = QueryOptions::default();
        let (first, o1) = session.prepare("owns", &opts).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        let (second, o2) = session.prepare("owns", &opts).unwrap();
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(service.bump_schema_version(), 1);
        let (third, o3) = session.prepare("owns", &opts).unwrap();
        assert_eq!(o3, CacheOutcome::Miss, "version bump must re-prepare");
        assert!(!Arc::ptr_eq(&first, &third));
        service.shutdown();
    }

    #[test]
    fn schema_version_bump_clears_the_plan_cache() {
        let service = small_service(1);
        let session = service.session();
        for text in ["owns", "owns/isLocatedIn+"] {
            session.prepare(text, &QueryOptions::default()).unwrap();
        }
        assert_eq!(service.metrics().cache.entries, 2);
        service.bump_schema_version();
        let cache = service.metrics().cache;
        assert_eq!((cache.entries, cache.invalidations), (0, 2), "{cache:?}");
        service.shutdown();
    }

    #[test]
    fn parallel_dop_matches_serial_and_moves_counters() {
        // Force parallel sections on the tiny fixture: threshold 1 and
        // a 2-row morsel cap make every join probe split into morsels.
        // Baseline statements: the schema rewrite's label filters become
        // precomputed slices, replacing the one probe large enough to
        // split here.
        let config = ServiceConfig {
            max_dop: 4,
            parallel_row_threshold: 1,
            morsel_rows: 2,
            ..ServiceConfig::with_workers(2)
        };
        let service = Service::build(fig1_yago_schema(), fig2_yago_database(), config);
        let session = service.session();
        let serial = QueryOptions {
            approach: Approach::Baseline,
            ..Default::default()
        };
        for text in ["owns/isLocatedIn+", "isMarriedTo+", "livesIn/isLocatedIn+"] {
            let serial = session.execute(text, &serial).unwrap();
            let opts = QueryOptions {
                dop: Some(4),
                approach: Approach::Baseline,
                ..Default::default()
            };
            let parallel = session.execute(text, &opts).unwrap();
            assert_eq!(serial.rows, parallel.rows, "DOP=4 diverged on {text}");
        }
        let m = service.metrics();
        assert!(m.parallel_queries >= 1, "no query went parallel: {m}");
        assert!(m.morsels_executed >= 2 * m.parallel_queries, "{m}");
        service.shutdown();
    }

    #[test]
    fn sub_threshold_queries_stay_serial_despite_dop() {
        // Default threshold (16K probe rows) dwarfs the fixture: a
        // dop > 1 request must not dispatch a single morsel.
        let service = small_service(2);
        let session = service.session();
        let opts = QueryOptions {
            dop: Some(4),
            ..Default::default()
        };
        let resp = session.execute("owns/isLocatedIn+", &opts).unwrap();
        assert!(!resp.rows.is_empty());
        let m = service.metrics();
        assert_eq!(m.parallel_queries, 0, "{m}");
        assert_eq!(m.morsels_executed, 0, "{m}");
        service.shutdown();
    }

    #[test]
    fn requested_dop_is_clamped_to_max_dop() {
        let config = ServiceConfig {
            max_dop: 2,
            parallel_row_threshold: 1,
            morsel_rows: 2,
            ..ServiceConfig::with_workers(2)
        };
        let service = Service::build(fig1_yago_schema(), fig2_yago_database(), config);
        let session = service.session();
        let opts = QueryOptions {
            dop: Some(64), // clamped to max_dop = 2
            ..Default::default()
        };
        let serial = session
            .execute("owns/isLocatedIn+", &QueryOptions::default())
            .unwrap();
        let clamped = session.execute("owns/isLocatedIn+", &opts).unwrap();
        assert_eq!(serial.rows, clamped.rows);
        service.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_queries() {
        let service = small_service(1);
        let session = service.session();
        service.shutdown();
        let err = session
            .execute("owns", &QueryOptions::default())
            .unwrap_err();
        assert!(matches!(err, SgqError::Execution(_)), "got {err}");
    }

    #[test]
    fn analyze_option_renders_the_production_execution() {
        let service = small_service(1);
        let session = service.session();
        let opts = QueryOptions {
            analyze: true,
            ..Default::default()
        };
        let resp = session.execute("livesIn/isLocatedIn+", &opts).unwrap();
        let json = resp.analyze_json.as_deref().expect("analyze json");
        let parsed = sgq_common::json::parse(json).unwrap();
        let nodes = parsed.as_arr().expect("node array");
        assert!(!nodes.is_empty());
        for node in nodes {
            assert!(node.get("op").and_then(|v| v.as_str()).is_some());
            assert!(node.get("actual_rows").and_then(|v| v.as_u64()).is_some());
        }
        // The analyze run is also traced: its per-operator spans must
        // agree with the analyze output row for row.
        let traces = session.recent_traces();
        let trace = traces.last().expect("analyze query traced");
        for op in &trace.ops {
            let actual = nodes
                .iter()
                .find(|n| n.get("id").and_then(|v| v.as_u64()) == Some(op.node as u64))
                .and_then(|n| n.get("actual_rows"))
                .and_then(|v| v.as_u64())
                .expect("span node present in analyze output");
            assert_eq!(op.rows as u64, actual, "node {} disagrees", op.node);
        }
        // Without the option the field stays empty.
        let plain = session
            .execute("livesIn/isLocatedIn+", &QueryOptions::default())
            .unwrap();
        assert_eq!(plain.analyze_json, None);
        // The graph backend has no plan nodes to analyze.
        let graph = session
            .execute(
                "livesIn/isLocatedIn+",
                &QueryOptions {
                    backend: Backend::Graph,
                    analyze: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(graph.analyze_json, None);
        service.shutdown();
    }

    #[test]
    fn traced_query_records_all_lifecycle_phases() {
        let config = ServiceConfig {
            tracing: true,
            ..ServiceConfig::with_workers(1)
        };
        let service = Service::build(fig1_yago_schema(), fig2_yago_database(), config);
        let session = service.session();
        let resp = session
            .execute("owns/isLocatedIn+", &QueryOptions::default())
            .unwrap();
        let traces = session.recent_traces();
        assert_eq!(traces.len(), 1);
        let trace = &traces[0];
        let phase = |name: &str| {
            trace
                .phases
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name} span in {trace:?}"))
        };
        let root = phase("query");
        assert_eq!(root.parent, 0);
        for name in ["queue", "cache", "execute"] {
            assert_eq!(phase(name).parent, root.id, "{name} not under root");
        }
        // Cache miss: preparation ran, nested inside the cache lookup.
        assert_eq!(phase("prepare").parent, phase("cache").id);
        assert!(!trace.ops.is_empty(), "operator spans missing");
        // Op spans are recorded on exit, so the root operator closes
        // last; its output is the response row set and its span
        // encloses every other op span.
        let root_op = trace.ops.last().unwrap();
        assert_eq!(root_op.rows, resp.rows.len());
        let root_end = root_op.start_us + root_op.dur_us;
        assert!(trace.ops.iter().all(|o| o.start_us + o.dur_us <= root_end));
        assert!(trace.ops.iter().all(|o| o.start_us >= root_op.start_us));
        // Traced operators feed the always-on per-kind profile registry.
        let m = service.metrics();
        assert!(!m.op_profiles.is_empty(), "{m}");
        let profiled: u64 = m.op_profiles.iter().map(|p| p.evals).sum();
        assert_eq!(profiled, trace.ops.len() as u64, "{m}");
        service.shutdown();
    }

    #[test]
    fn slow_query_log_captures_over_threshold_queries() {
        let service = small_service(1);
        let session = service.session();
        // Threshold of 1µs: everything is slow — even with tracing off
        // the lifecycle spans are still captured for the log.
        service.slow_query_log().set_threshold_us(1);
        assert!(!service.tracer().is_enabled());
        session
            .execute("owns/isLocatedIn+", &QueryOptions::default())
            .unwrap();
        let slow = session.drain_slow_queries();
        assert_eq!(slow.len(), 1);
        assert!(slow[0].phases.iter().any(|s| s.name == "execute"));
        assert!(session.drain_slow_queries().is_empty());
        assert!(session.recent_traces().is_empty(), "sampling stayed off");
        // Raising the threshold stops capture.
        service.slow_query_log().set_threshold_us(u64::MAX);
        session
            .execute("owns/isLocatedIn+", &QueryOptions::default())
            .unwrap();
        assert!(session.drain_slow_queries().is_empty());
        service.shutdown();
    }

    #[test]
    fn sampling_traces_a_subset_of_queries() {
        let config = ServiceConfig {
            tracing: true,
            trace_sample_every: 3,
            ..ServiceConfig::with_workers(1)
        };
        let service = Service::build(fig1_yago_schema(), fig2_yago_database(), config);
        let session = service.session();
        for _ in 0..9 {
            session.execute("owns", &QueryOptions::default()).unwrap();
        }
        assert_eq!(session.recent_traces().len(), 3);
        service.set_tracing(false);
        session.execute("owns", &QueryOptions::default()).unwrap();
        assert_eq!(session.recent_traces().len(), 3);
        service.shutdown();
    }
}
