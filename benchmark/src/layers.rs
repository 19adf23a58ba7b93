//! The binding surface: the ONLY file of the benchmark that names a
//! symbol of the program under test. Every layer is one thin function
//! here, so a refactor of the program breaks (and is fixed in) one
//! place. An API move that touches this file needs a `benchmark` issue
//! of its own — it may not ride along with a change that claims a gain.
//!
//! The benchmark deliberately does not go through `sgq_harness`.

use std::sync::Arc;

use schema_graph_query::algebra::eval::eval_path;
use schema_graph_query::common::Rng;
use schema_graph_query::datasets::{ldbc, yago};
use schema_graph_query::engine::Rows;
use schema_graph_query::obs::OpSpan;
use schema_graph_query::prelude::{
    execute_plan, parse_path, plan, rewrite_path, ExecContext, GraphEngine, QueryOptions,
    RewriteOptions, RewriteOutcome, Service, ServiceConfig, Session,
};
use schema_graph_query::ra::exec::execute_plan_traced;
use schema_graph_query::ra::optimize::optimize;
use schema_graph_query::ra::{RaTerm, Relation, TaskScheduler};
use schema_graph_query::service::{Approach as SvcApproach, CacheOutcome};
use schema_graph_query::translate::ucqt2rra::{ucqt_to_term, NameGen};

pub use schema_graph_query::common::json::{parse as parse_json, JsonValue};
pub use schema_graph_query::prelude::{
    GraphDatabase, GraphSchema, PathExpr, PhysPlan, RelStore, Ucqt,
};

/// Row/pair materialisation budget of every op (the harness default).
pub const MAX_ROWS: usize = 20_000_000;

/// One result row set, reduced to what verification needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

impl Digest {
    /// Order-independent: the wrapping sum of a per-row mix, so any
    /// permutation of the same set of `(src, tgt)` rows hashes equal.
    pub fn of_pairs(pairs: impl Iterator<Item = (u32, u32)>) -> Digest {
        let mut rows = 0u64;
        let mut hash = 0u64;
        for (s, t) in pairs {
            rows += 1;
            hash = hash.wrapping_add(mix(((s as u64) << 32) | t as u64));
        }
        Digest { rows, hash }
    }
}

/// splitmix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded uniform draw in `[0, 1)` — the program's own generator, so
/// the op draw needs no second RNG implementation.
pub struct Draw(Rng);

impl Draw {
    pub fn new(seed: u64) -> Self {
        Draw(Rng::seed_from_u64(seed))
    }
    pub fn unit(&mut self) -> f64 {
        self.0.gen_f64()
    }
}

// ---------------------------------------------------------------- datasets

/// Which generator and at what size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DatasetSpec {
    Ldbc {
        sf: f64,
    },
    Yago {
        factor: f64,
    },
    /// `YagoConfig::tiny()` — the `--smoke` size.
    YagoTiny,
}

impl DatasetSpec {
    /// File stem of the expected-results file for this dataset.
    pub fn tag(&self) -> String {
        match self {
            DatasetSpec::Ldbc { sf } => format!("ldbc-sf{sf}"),
            DatasetSpec::Yago { factor } => format!("yago-x{factor}"),
            DatasetSpec::YagoTiny => "yago-tiny".to_string(),
        }
    }
}

/// A generated database with its parsed query catalog.
pub struct Dataset {
    pub spec: DatasetSpec,
    pub schema: Arc<GraphSchema>,
    pub db: Arc<GraphDatabase>,
    /// `(name, text)` per catalog query, catalog order.
    pub queries: Vec<(&'static str, &'static str)>,
}

impl Dataset {
    pub fn nodes(&self) -> usize {
        self.db.node_count()
    }
    pub fn edges(&self) -> usize {
        self.db.edge_count()
    }
}

/// `datasets` layer: generation is deterministic per `(spec, seed)`.
pub fn generate(spec: DatasetSpec, seed: u64) -> Dataset {
    let (schema, db, catalog) = match spec {
        DatasetSpec::Ldbc { sf } => {
            let mut config = ldbc::LdbcConfig::at_scale(sf);
            config.seed = seed;
            let (schema, db) = ldbc::generate(config);
            let catalog = ldbc::queries(&schema).expect("LDBC catalog parses");
            (schema, db, catalog)
        }
        DatasetSpec::Yago { .. } | DatasetSpec::YagoTiny => {
            let mut config = match spec {
                DatasetSpec::Yago { factor } => yago::YagoConfig::scaled(factor),
                _ => yago::YagoConfig::tiny(),
            };
            config.seed = seed;
            let (schema, db) = yago::generate(config);
            let catalog = yago::queries(&schema).expect("YAGO catalog parses");
            (schema, db, catalog)
        }
    };
    Dataset {
        spec,
        schema: Arc::new(schema),
        db: Arc::new(db),
        queries: catalog.iter().map(|q| (q.name, q.text)).collect(),
    }
}

/// `ra::storage` layer: the relational load under the advised layout.
pub fn load_store(ds: &Dataset) -> RelStore {
    RelStore::load_advised(&ds.db, &ds.schema)
}

// --------------------------------------------------------------- front end

/// `algebra` layer.
pub fn parse(text: &str, schema: &GraphSchema) -> PathExpr {
    parse_path(text, schema).expect("catalog query parses")
}

/// What `core` (the paper's rewrite) did to one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteCounts {
    pub closures_eliminated: u64,
    pub reverted: u64,
    pub empty: u64,
    pub disjuncts_out: u64,
    pub atoms_out: u64,
}

/// `core` layer for the schema approach; `None` = provably empty.
pub fn rewrite(schema: &GraphSchema, expr: &PathExpr) -> (Option<Ucqt>, RewriteCounts) {
    let rewritten = rewrite_path(schema, expr, RewriteOptions::default());
    let report = &rewritten.report;
    let mut counts = RewriteCounts {
        closures_eliminated: report.closure_eliminated() as u64,
        disjuncts_out: report.disjuncts as u64,
        atoms_out: report.atoms as u64,
        ..Default::default()
    };
    let query = match rewritten.outcome {
        RewriteOutcome::Enriched(q) => Some(q),
        RewriteOutcome::Reverted(q) => {
            counts.reverted = 1;
            Some(q)
        }
        RewriteOutcome::Empty => {
            counts.empty = 1;
            None
        }
    };
    (query, counts)
}

/// The baseline approach's query: the path expression as a UCQT.
pub fn baseline_query(expr: &PathExpr) -> Ucqt {
    Ucqt::path_query(expr.clone())
}

/// `translate` layer: UCQT → µ-RA term.
pub fn translate(query: &Ucqt, store: &RelStore) -> RaTerm {
    let mut names = NameGen::new(&store.symbols);
    ucqt_to_term(query, &mut names).expect("catalog query translates")
}

/// `ra::optimize` layer (which calls `ra::cost`).
pub fn optimize_term(term: &RaTerm, store: &RelStore) -> RaTerm {
    optimize(term, store)
}

/// `ra::plan` layer.
pub fn plan_term(term: &RaTerm, store: &RelStore) -> PhysPlan {
    plan(term, store).expect("catalog query plans")
}

pub fn plan_nodes(p: &PhysPlan) -> u64 {
    p.node_count() as u64
}

// --------------------------------------------------------------- execution

/// Work counters of one relational execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCounts {
    pub rows_materialized: u64,
    pub hash_builds: u64,
    pub fixpoint_rounds: u64,
    pub fixpoint_cache_hits: u64,
    pub scans: u64,
    pub replans: u64,
    pub morsels_executed: u64,
}

/// One operator evaluation of a traced execution.
pub struct OpSample {
    pub kind: &'static str,
    pub self_us: u64,
    pub rows: u64,
}

/// The result of one relational execution.
pub struct ExecOutput {
    pub rel: Relation,
    pub counts: ExecCounts,
    /// q-error of the plan root's row estimate against this run.
    pub root_qerror: f64,
    /// Operator spans (`ExecTrace.spans`); empty unless traced.
    pub ops: Vec<OpSample>,
}

impl ExecOutput {
    pub fn digest(&self) -> Digest {
        Digest::of_pairs(self.rel.rows().map(|r| (r[0], r[1])))
    }
}

/// The pool `dop > 1` executions run their morsels on.
pub struct MorselPool(Arc<TaskScheduler>);

impl MorselPool {
    pub fn new(workers: usize) -> Self {
        MorselPool(Arc::new(TaskScheduler::new(workers)))
    }
    /// Stops and joins the pool's threads.
    pub fn shutdown(&self) {
        self.0.shutdown();
    }
}

/// How one relational execution runs.
#[derive(Clone, Copy)]
pub struct ExecMode<'a> {
    /// `None` = serial (`dop = 1`, the scheduler is never touched).
    pub pool: Option<(&'a MorselPool, usize)>,
    /// `execute_plan_traced` instead of `execute_plan`.
    pub traced: bool,
}

impl ExecMode<'_> {
    pub const SERIAL: ExecMode<'static> = ExecMode {
        pool: None,
        traced: false,
    };
}

/// `ra::exec` layer. `Err` carries the engine's message (timeout, row
/// budget): the op then counts as failed.
pub fn execute(p: &PhysPlan, store: &RelStore, mode: ExecMode<'_>) -> Result<ExecOutput, String> {
    let mut ctx = ExecContext::new();
    ctx.max_rows = MAX_ROWS;
    if let Some((pool, dop)) = mode.pool {
        ctx.dop = dop;
        ctx.set_scheduler(Arc::clone(&pool.0));
    }
    let (rel, spans): (Relation, Vec<OpSpan>) = if mode.traced {
        let (rel, trace) = execute_plan_traced(p, store, &mut ctx).map_err(|e| e.to_string())?;
        (rel, trace.spans)
    } else {
        let rel = execute_plan(p, store, &mut ctx).map_err(|e| e.to_string())?;
        (rel, Vec::new())
    };
    let counts = ExecCounts {
        rows_materialized: ctx.rows_materialized() as u64,
        hash_builds: ctx.hash_builds as u64,
        fixpoint_rounds: ctx.fixpoint_rounds as u64,
        fixpoint_cache_hits: ctx.cache_hits as u64,
        scans: ctx.scans as u64,
        replans: ctx.replans as u64,
        morsels_executed: ctx.morsels_executed as u64,
    };
    let (est, actual) = (p.est.rows.max(1.0), (rel.len() as f64).max(1.0));
    Ok(ExecOutput {
        root_qerror: (est / actual).max(actual / est),
        ops: spans
            .iter()
            .map(|s| OpSample {
                kind: s.kind,
                self_us: s.self_us,
                rows: s.rows as u64,
            })
            .collect(),
        rel,
        counts,
    })
}

/// The 17 `PhysOp::kind()` names, in declaration order.
pub const OP_KINDS: [&str; 17] = [
    "EdgeScan",
    "FilteredEdgeScan",
    "MultiEdgeScan",
    "DenormEdgeScan",
    "NodeScan",
    "MergeJoin",
    "HashJoin",
    "MergeSemiJoin",
    "HashSemiJoin",
    "IndexJoin",
    "IndexSemiJoin",
    "Union",
    "Project",
    "Select",
    "Rename",
    "Fixpoint",
    "RecRef",
];

/// The result of one graph-engine run.
pub struct GraphOutput {
    pub rows: Rows,
    pub pairs_materialized: u64,
    pub tc_rounds: u64,
}

impl GraphOutput {
    pub fn digest(&self) -> Digest {
        Digest::of_pairs(self.rows.iter().map(|r| (r[0].raw(), r[1].raw())))
    }
}

/// `engine` layer: one UCQT on the property-graph backend.
pub fn graph_run(db: &GraphDatabase, query: &Ucqt) -> Result<GraphOutput, String> {
    let mut engine = GraphEngine::new(db);
    engine.set_max_pairs(MAX_ROWS);
    let rows = engine.run_ucqt(query).map_err(|e| e.to_string())?;
    Ok(GraphOutput {
        rows,
        pairs_materialized: engine.pairs_materialized() as u64,
        tc_rounds: engine.tc_rounds() as u64,
    })
}

/// The oracle: the reference semantics `⟦ϕ⟧D` of `sgq_algebra::eval`,
/// which shares no code with either engine's evaluator.
pub fn oracle(db: &GraphDatabase, expr: &PathExpr) -> Digest {
    Digest::of_pairs(
        eval_path(db, expr)
            .into_iter()
            .map(|(s, t)| (s.raw(), t.raw())),
    )
}

// ----------------------------------------------------------------- service

/// Baseline or schema-rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    Baseline,
    Schema,
}

impl Approach {
    pub const BOTH: [Approach; 2] = [Approach::Baseline, Approach::Schema];
    pub fn tag(self) -> &'static str {
        match self {
            Approach::Baseline => "B",
            Approach::Schema => "S",
        }
    }
}

/// Service-side counters (cumulative since the service started).
pub struct ServiceCounts {
    pub evictions: u64,
    pub invalidations: u64,
    pub rejected: u64,
    pub feedback_replans: u64,
}

/// `service` layer: a [`Service`] configured the way `serve-mixed` runs it.
pub struct ServiceHandle(Service);

impl ServiceHandle {
    pub fn new(ds: &Dataset, workers: usize, plan_cache_capacity: usize) -> Self {
        let config = ServiceConfig {
            plan_cache_capacity,
            default_dop: 1,
            ..ServiceConfig::with_workers(workers)
        };
        ServiceHandle(Service::new(
            Arc::clone(&ds.schema),
            Arc::clone(&ds.db),
            config,
        ))
    }

    pub fn session(&self) -> SessionHandle {
        SessionHandle(self.0.session())
    }

    /// The program's own query-lifecycle tracer, on or off.
    pub fn set_tracing(&self, on: bool) {
        self.0.set_tracing(on);
    }

    pub fn bump_schema_version(&self) {
        self.0.bump_schema_version();
    }

    pub fn counts(&self) -> ServiceCounts {
        let m = self.0.metrics();
        ServiceCounts {
            evictions: m.cache.evictions,
            invalidations: m.cache.invalidations,
            rejected: m.rejected,
            feedback_replans: m.replans,
        }
    }

    /// Drains the queue and joins the worker threads.
    pub fn shutdown(&self) {
        self.0.shutdown();
    }
}

pub struct SessionHandle(Session);

impl SessionHandle {
    /// One statement from text to rows, relational backend, `dop = 1`,
    /// through the plan cache.
    pub fn execute(&self, text: &str, approach: Approach) -> Result<Reply, String> {
        let opts = QueryOptions {
            approach: match approach {
                Approach::Baseline => SvcApproach::Baseline,
                Approach::Schema => SvcApproach::Schema,
            },
            ..QueryOptions::default()
        };
        let resp = self.0.execute(text, &opts).map_err(|e| e.to_string())?;
        Ok(Reply {
            queue_us: resp.stats.queue_micros,
            prepare_us: resp.stats.prepare_micros,
            exec_us: resp.stats.exec_micros,
            cache_hit: resp.stats.cache == CacheOutcome::Hit,
            rows: resp.rows,
        })
    }
}

/// What the client learns from one reply (timings from `QueryStats`).
pub struct Reply {
    pub rows: Vec<Vec<u32>>,
    pub queue_us: u64,
    pub prepare_us: u64,
    pub exec_us: u64,
    pub cache_hit: bool,
}

impl Reply {
    pub fn digest(&self) -> Digest {
        Digest::of_pairs(self.rows.iter().map(|r| (r[0], r[1])))
    }
}
