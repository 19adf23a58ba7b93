//! The replay-driven experiments: each is a variant list handed to
//! [`replay`] plus a gate predicate over the result.
//!
//! | experiment  | reference            | variants                          | gate                                   |
//! |-------------|----------------------|-----------------------------------|----------------------------------------|
//! | `parallel`  | serial               | DOP = N morsel execution          | ≥ 1 morsel dispatched                  |
//! | `estimates` | statistics           | —                                 | median root q-error ≤ 2                |
//! | `observe`   | direct               | traced service                    | trace == `EXPLAIN ANALYZE`, overhead   |
//! | `serve`     | sequential, uncached | workers × cache, concurrent       | 0 errors, warm cache always hit        |
//! | `chaos`     | fault-free service   | one armed service per seed × backend, 2 clients | `exec.*` and `engine.*` sites fired |
//!
//! Bit-identity of every variant to its reference (and, for services,
//! a balanced governor and zero worker panics) is asserted by the
//! driver in both modes; `gate = true` (`--smoke` in CI) arms the
//! experiment-specific predicate on top.

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use sgq_common::fault::FireReport;
use sgq_common::json::{self, JsonValue};
use sgq_common::{Backend, FxHashSet, FxHasher};
use sgq_core::pipeline::{rewrite_path, RewriteOptions, RewriteOutcome};
use sgq_obs::{chrome_traces_json, QueryTrace, Tracer};
use sgq_query::cqt::ucqt_to_string;
use sgq_ra::cost::q_error;
use sgq_ra::exec::{execute_plan, execute_plan_traced, fuses_its_join, ExecContext};
use sgq_ra::{PhysOp, PhysPlan, RaTerm, RelStore};
use sgq_translate::ucqt2rra::{ucqt_to_term, NameGen};

use crate::experiments;
use crate::replay::{replay, Catalog, Catalogs, Faults, Pass, Replay, Sizing, Table, Variant, Via};
use crate::summary::Summary;

/// The experiment-specific knobs (dataset sizes and the timeout live in
/// [`Scale`](crate::replay::Scale)).
#[derive(Debug, Clone)]
pub struct GateParams {
    /// `parallel`: morsel sizing of the DOP = N variant.
    pub sizing: Sizing,
    /// `serve`: worker-pool sizes to sweep.
    pub worker_counts: Vec<usize>,
    /// `serve`: closed-loop client threads.
    pub clients: usize,
    /// `serve`: passes over the catalog per client.
    pub passes: usize,
    /// `chaos`: fault-plan seeds, one armed service per backend each.
    pub seeds: Vec<u64>,
    /// `chaos`: per-visit fire probability.
    pub probability: f64,
}

impl Default for GateParams {
    fn default() -> Self {
        GateParams {
            sizing: Sizing {
                dop: 4,
                threshold: 1_024,
                morsel_rows: sgq_ra::parallel::MORSEL_ROWS,
            },
            worker_counts: vec![1, 2, 4],
            clients: 8,
            passes: 3,
            seeds: vec![1, 2, 3],
            probability: 0.02,
        }
    }
}

impl GateParams {
    /// The CI configuration (`--smoke`): the cost gate forced open so
    /// even tiny probes split into morsels, one fault seed at a fire
    /// probability high enough that faults demonstrably fire.
    pub fn smoke() -> Self {
        GateParams {
            sizing: Sizing {
                dop: 2,
                threshold: 1,
                morsel_rows: 256,
            },
            worker_counts: vec![1, 2],
            clients: 4,
            passes: 1,
            seeds: vec![7],
            probability: 0.05,
        }
    }
}

/// Every experiment [`run`] knows, in CI order.
pub const GATES: [&str; 7] = [
    "smoke",
    "plans",
    "estimates",
    "serve",
    "parallel",
    "observe",
    "chaos",
];

/// Runs the experiment called `name` over `cats`; `None` for an unknown
/// name. With `gate` the experiment's CI predicate is asserted.
pub fn run(name: &str, cats: &Catalogs, p: &GateParams, gate: bool) -> Option<String> {
    Some(match name {
        "smoke" => experiments::smoke(),
        "plans" => experiments::physical_plans(&cats.ldbc),
        "estimates" => estimates(cats, gate),
        "serve" => serve(cats, p, gate),
        "parallel" => parallel(cats, p, gate),
        "observe" => observe(cats, gate),
        "chaos" => chaos(cats, p),
        _ => return None,
    })
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    Summary::compute(&values.collect::<Vec<_>>()).map_or(0.0, |s| s.median)
}

/// Replays both catalogs under the same reference and variants.
fn replay_both<'c>(
    cats: &'c Catalogs,
    reference: &Variant,
    variants: &[Variant],
) -> Vec<(&'c Catalog, Replay)> {
    let run = |cat| (cat, replay(cat, cats.scale.timeout_ms, reference, variants));
    cats.both().map(run).into()
}

/// Appends the table, the experiment's closing lines and the replays'
/// machine-readable form.
fn finish<'r>(
    mut out: String,
    table: &Table,
    closing: &str,
    reps: impl IntoIterator<Item = &'r Replay>,
) -> String {
    out.push_str(&table.render());
    out.push_str(closing);
    let json = JsonValue::Arr(reps.into_iter().map(Replay::to_json).collect());
    let _ = writeln!(out, "\nruns as JSON: {}", json.render());
    out
}

fn scales(cats: &Catalogs) -> String {
    format!("YAGO x{}, LDBC SF {}", cats.scale.yago_scale, cats.scale.sf)
}

/// `parallel`: morsel-driven intra-query parallelism — every catalog
/// query at DOP = N against serial execution.
fn parallel(cats: &Catalogs, p: &GateParams, gate: bool) -> String {
    let dop = Variant {
        sizing: Some(p.sizing),
        ..Variant::new(format!("dop={}", p.sizing.dop))
    };
    let mut t = Table::new("<dataset|<query|rows|serial ms|parallel ms|morsels|speedup");
    let (mut queries, mut parallelised, mut serial_ms, mut parallel_ms) = (0, 0, 0.0, 0.0);
    let reps = replay_both(cats, &Variant::new("serial"), &[dop]);
    for (cat, rep) in &reps {
        for (query, s, v) in rep.compared() {
            queries += 1;
            if v[0].morsels > 0 {
                parallelised += 1;
                serial_ms += s.ms;
                parallel_ms += v[0].ms;
            }
            let (name, rows, par) = (cat.name, s.rows, v[0]);
            let speedup = s.ms / par.ms.max(1e-9);
            t.row(format!(
                "{name}|{query}|{rows}|{:.2}|{:.2}|{}|{speedup:.2}x",
                s.ms, par.ms, par.morsels
            ));
        }
    }
    let mut closing = format!(
        "{parallelised} of {queries} queries ran parallel sections; \
         sample speedup over them: {:.2}x\n",
        serial_ms / f64::max(parallel_ms, 1e-9)
    );
    if gate {
        assert!(queries > 0, "parallel: no comparable queries");
        assert!(
            parallelised > 0,
            "parallel: never dispatched a morsel — the forced gate is broken"
        );
        closing.push_str("parallel gate: PASS (all queries bit-identical to serial)\n");
    }
    let head = format!(
        "parallel execution: DOP={} vs serial ({}, {} hardware threads)\n",
        p.sizing.dop,
        scales(cats),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    finish(head, &t, &closing, reps.iter().map(|(_, r)| r))
}

/// One line that is equal at two commits iff `cat`'s plans
/// are: statements planned, the nodes of their optimised terms and of
/// their plans, and a digest of every plan's `EXPLAIN` text — so "plans
/// unchanged" is a one-line diff of this experiment's output. A second
/// line counts the nodes of the translated and the optimised terms, and
/// how many are distinct: the repeated sub-terms the front end's term
/// DAG handles once; and the semi-joins and node scans left in the
/// optimised terms: the label filters that did not fold into a scan.
fn plans_line(cat: &Catalog, store: &RelStore, cold: &Pass) -> String {
    let (mut planned, mut term_nodes, mut plan_nodes) = (0, 0, 0);
    let mut sizes = [[0; 2]; 2];
    let mut filters = [0; 2];
    let mut digest = FxHasher::default();
    for (q, run) in cat.queries.iter().zip(&cold.runs) {
        let prepared = run.as_ref().and_then(|r| r.prepared.as_deref());
        let Some(plan) = prepared.and_then(|p| p.plan()) else {
            continue;
        };
        // The term `prepare` lowered, rebuilt: it keeps only the plan.
        let rewritten = rewrite_path(&cat.schema, &q.expr, RewriteOptions::default()).outcome;
        let (RewriteOutcome::Enriched(query) | RewriteOutcome::Reverted(query)) = rewritten else {
            unreachable!("{}/{}: a planned statement has a query", cat.name, q.name);
        };
        let term = ucqt_to_term(&query, &mut NameGen::new(&store.symbols)).expect("planned once");
        planned += 1;
        let optimised = sgq_ra::optimize::optimize(&term, store);
        term_nodes += optimised.size();
        count_filters(&optimised, &mut filters);
        for (n, t) in sizes.iter_mut().zip([&term, &optimised]) {
            (n[0], n[1]) = (n[0] + t.size(), n[1] + t.distinct());
        }
        plan_nodes += plan.node_count();
        sgq_ra::explain::explain_plan(plan, store, &*cat.db).hash(&mut digest);
    }
    let [[tn, td], [on, od]] = sizes;
    let [semijoins, node_scans] = filters;
    format!(
        "{}: {planned} statements planned, {term_nodes} optimised term nodes, \
         {plan_nodes} plan nodes, plans digest {:016x}\n\
         {}: translated terms {tn} term nodes, {td} distinct; \
         optimised terms {on} term nodes, {od} distinct, \
         {semijoins} semi-joins, {node_scans} node scans\n",
        cat.name,
        digest.finish(),
        cat.name,
    )
}

/// Adds `term`'s `Semijoin` and `NodeScan` nodes to `counts`.
fn count_filters(term: &RaTerm, counts: &mut [usize; 2]) {
    let kids: Vec<&RaTerm> = match term {
        RaTerm::Semijoin(a, b) => {
            counts[0] += 1;
            vec![a, b]
        }
        RaTerm::NodeScan { .. } => {
            counts[1] += 1;
            vec![]
        }
        RaTerm::Join(a, b) | RaTerm::Union(a, b) => vec![a, b],
        RaTerm::Fixpoint { base, step, .. } => vec![base, step],
        RaTerm::Project { input, .. }
        | RaTerm::Select { input, .. }
        | RaTerm::Rename { input, .. } => {
            vec![input]
        }
        RaTerm::EdgeScan { .. } | RaTerm::RecRef { .. } => vec![],
    };
    for k in kids {
        count_filters(k, counts);
    }
}

/// One line that is equal at two commits iff the schema rewrite of every
/// statement of `cat` is, as the pass rewrites it: a digest of each
/// outcome's kind and its UCQT text.
fn rewrite_line(cat: &Catalog) -> String {
    let mut digest = FxHasher::default();
    for q in &cat.queries {
        let outcome = rewrite_path(&cat.schema, &q.expr, RewriteOptions::default()).outcome;
        let kind = match outcome {
            RewriteOutcome::Enriched(_) => "enriched",
            RewriteOutcome::Reverted(_) => "reverted",
            RewriteOutcome::Empty => "empty",
        };
        let text = outcome.query().map(|u| ucqt_to_string(u, &cat.schema));
        (kind, text).hash(&mut digest);
    }
    format!("{}: rewrite digest {:016x}\n", cat.name, digest.finish())
}

/// How many of `cat`'s plans share a node, and one line saying
/// so with the rows the reuse did not recompute — (parents − 1) × output
/// rows per shared node, from one traced execution of each such plan.
fn shared_line(cat: &Catalog, store: &RelStore, cold: &Pass) -> (usize, String) {
    let (mut statements, mut saved) = (0, 0);
    for run in cold.runs.iter().flatten() {
        let Some(plan) = run.prepared.as_ref().and_then(|p| p.plan()) else {
            continue;
        };
        let (mut shared, mut stack) = (Vec::new(), vec![plan]);
        while let Some(n) = stack.pop() {
            if n.parents() > 1 {
                shared.push(n);
            }
            stack.extend(n.children());
        }
        if shared.is_empty() {
            continue;
        }
        shared.sort_by_key(|n| n.id);
        shared.dedup_by_key(|n| n.id);
        statements += 1;
        let traced = execute_plan_traced(plan, store, &mut ExecContext::new());
        let actuals = traced.expect("it ran in the pass").1.actuals;
        let rows = |n: &PhysPlan| (n.parents() as usize - 1) * actuals[n.id as usize];
        saved += shared.into_iter().map(rows).sum::<usize>();
    }
    let line = format!(
        "{}: {statements} statements plan a shared node; reuse saved {saved} rows\n",
        cat.name
    );
    (statements, line)
}

/// One line counting the hash and index joins of `cat`'s plans,
/// and how many of them emit through their projection
/// ([`fuses_its_join`]); and the strategy census, one count per operator
/// kind ([`PhysOp::kind`]) in name order, a shared node once.
fn strategy_lines(cat: &Catalog, cold: &Pass) -> String {
    let (mut fused, mut joins) = (0, 0);
    let mut kinds = std::collections::BTreeMap::<&str, usize>::new();
    for run in cold.runs.iter().flatten() {
        let Some(plan) = run.prepared.as_ref().and_then(|p| p.plan()) else {
            continue;
        };
        let (mut seen, mut stack) = (FxHashSet::default(), vec![plan]);
        while let Some(n) = stack.pop() {
            if !seen.insert(n.id) {
                continue;
            }
            joins += matches!(n.op, PhysOp::HashJoin { .. } | PhysOp::IndexJoin { .. }) as usize;
            fused += fuses_its_join(n) as usize;
            *kinds.entry(n.op.kind()).or_default() += 1;
            stack.extend(n.children());
        }
    }
    let census: Vec<String> = kinds.iter().map(|(k, n)| format!("{k} {n}")).collect();
    format!(
        "{name}: {fused} of {joins} joins emit through their projection\n\
         {name}: strategies {}\n",
        census.join(", "),
        name = cat.name,
    )
}

/// `estimates`: cardinality-estimation quality. Every statement is
/// planned from the statistics and executed once, and each root
/// estimate's q-error is taken against the executed row count.
fn estimates(cats: &Catalogs, gate: bool) -> String {
    let mut t = Table::new("<data|<query|est|actual|q");
    let mut closing = String::new();
    let reps = replay_both(cats, &Variant::new("statistics"), &[]);
    for (cat, rep) in &reps {
        let store = cat.store();
        let mut q = Vec::new();
        for (query, run, _) in rep.compared() {
            // A rewrite that proves the query empty has no plan to
            // estimate.
            let Some((est, _)) = run.estimate() else {
                continue;
            };
            q.push(q_error(est, run.rows as f64));
            t.row(format!(
                "{}|{query}|{est:.1}|{}|{:.2}",
                cat.name,
                run.rows,
                q[q.len() - 1]
            ));
        }
        let (n, name) = (q.len(), cat.name);
        let mq = median(q.into_iter());
        let _ = writeln!(
            closing,
            "{name}: median root q-error over {n} feasible queries: {mq:.2}"
        );
        closing.push_str(&plans_line(cat, &store, &rep.reference));
        closing.push_str(&rewrite_line(cat));
        let (sharing, line) = shared_line(cat, &store, &rep.reference);
        closing.push_str(&line);
        closing.push_str(&strategy_lines(cat, &rep.reference));
        if gate {
            // IC1's schema plan repeats `knows ⋈ knows` under fresh names.
            assert!(
                sharing > 0 || name != "LDBC",
                "estimates: no LDBC plan shares a node — sub-plan sharing is broken"
            );
            assert!(n > 0, "estimates: no feasible {name} queries");
            assert!(
                mq <= 2.0,
                "estimates: median root q-error regressed on {name}: {mq:.3} > 2.0"
            );
        }
    }
    if gate {
        closing.push_str("estimates gate: PASS\n");
    }
    let head = format!(
        "Cardinality estimation quality: statistics-driven root estimates ({})\n\n",
        scales(cats)
    );
    finish(head, &t, &closing, reps.iter().map(|(_, r)| r))
}

/// One row per variant pass — what the service-level experiments
/// (whose unit is the pass, not the query) report.
fn pass_table(rep: &Replay) -> Table {
    let mut t = Table::new(
        "<variant|completed|retryable|retries|qps|p50 ms|p95 ms|p99 ms|cache hits|fires|<fired sites",
    );
    for pass in &rep.variants {
        let m = pass
            .metrics
            .as_ref()
            .expect("service passes report metrics");
        let sites: Vec<String> = pass.fired.iter().map(|(s, n)| format!("{s}:{n}")).collect();
        t.row(format!(
            "{}|{}|{}|{}|{:.1}|{:.3}|{:.3}|{:.3}|{}|{}|{}",
            pass.variant.name,
            pass.completed,
            pass.retryable_failures,
            pass.retries,
            pass.qps(),
            m.p50_ms,
            m.p95_ms,
            m.p99_ms,
            m.cache.hits,
            pass.fired.values().sum::<u64>(),
            sites.join(" ")
        ));
    }
    t
}

/// `serve`: closed-loop serving — concurrent clients over a worker
/// sweep with the plan cache off and on (pre-warmed), every response
/// compared against sequential uncached execution.
fn serve(cats: &Catalogs, p: &GateParams, gate: bool) -> String {
    let service = |name: String, workers, clients, cached| Variant {
        via: Via::Service {
            workers,
            clients,
            passes: p.passes,
            cached,
        },
        ..Variant::new(name)
    };
    let sweep: Vec<Variant> = (p.worker_counts.iter())
        .flat_map(|&w| [false, true].map(|cached| (w, cached)))
        .map(|(w, cached)| {
            let cache = if cached { "on" } else { "off" };
            service(format!("{w} workers, cache {cache}"), w, p.clients, cached)
        })
        .collect();
    let sequential = service("sequential, uncached".into(), 1, 1, false);
    let rep = replay(&cats.ldbc, cats.scale.timeout_ms, &sequential, &sweep);
    if gate {
        for pass in &rep.variants {
            let (name, m) = (&pass.variant.name, pass.metrics.as_ref().expect("metrics"));
            assert!(
                m.errors == 0 && m.timeouts == 0,
                "serve: `{name}` saw errors: {m}"
            );
            // Warm-up prepares are a cached service's only misses.
            let cached = matches!(pass.variant.via, Via::Service { cached: true, .. });
            assert!(
                !cached || m.cache.hits >= pass.completed,
                "serve: `{name}`: every concurrent execution must hit the warm cache: {m}"
            );
        }
    }
    let closing = if gate {
        "serve gate: PASS (concurrent responses match sequential uncached execution)\n"
    } else {
        ""
    };
    let head = format!(
        "Service closed-loop throughput (LDBC SF{}, {} queries, {} clients x {} passes)\n\n",
        cats.scale.sf,
        rep.compared().len(),
        p.clients,
        p.passes
    );
    finish(head, &pass_table(&rep), closing, [&rep])
}

/// `chaos`: attempts per query before a retryable failure stands.
const CHAOS_MAX_ATTEMPTS: usize = 16;

/// `chaos`: seeded fault injection — per seed and backend, a service
/// armed with a seeded error plan at every fault site serves the catalog
/// to two concurrent clients, so two executions of one cached plan
/// overlap under faults. Every answer must match the fault-free
/// relational reference bit for bit or fail retryable once its retry
/// budget is spent, and the same service must answer the whole catalog
/// exactly once disarmed (all asserted by the driver).
fn chaos(cats: &Catalogs, p: &GateParams) -> String {
    let service = |clients| Via::Service {
        workers: 2,
        clients,
        passes: 1,
        cached: true,
    };
    let armed: Vec<Variant> = (p.seeds.iter())
        .flat_map(|&seed| [Backend::Relational, Backend::Graph].map(|backend| (seed, backend)))
        .map(|(seed, backend)| Variant {
            backend,
            via: service(2),
            faults: Some(Faults {
                seed,
                probability: p.probability,
                max_attempts: CHAOS_MAX_ATTEMPTS,
            }),
            ..Variant::new(format!("seed {seed}, {backend}"))
        })
        .collect();
    let fault_free = Variant {
        via: service(1),
        ..Variant::new("fault-free")
    };
    let rep = replay(&cats.ldbc, cats.scale.timeout_ms, &fault_free, &armed);
    // A chaos run where a backend's sites never fired proves nothing
    // about that backend.
    let mut fired = FireReport::new();
    for (&site, &n) in rep.variants.iter().flat_map(|p| &p.fired) {
        *fired.entry(site).or_insert(0) += n;
    }
    let family = |prefix: &str| -> String {
        let sites = fired.iter().filter(|(s, _)| s.starts_with(prefix));
        let sites: Vec<String> = sites.map(|(s, n)| format!("{s}:{n}")).collect();
        assert!(
            !sites.is_empty(),
            "chaos: no {prefix}* fault fired across {} seeds — raise the probability",
            p.seeds.len()
        );
        sites.join(" ")
    };
    let head = format!(
        "Chaos: LDBC SF{} x {} queries, p = {} per fault-point visit\n\n",
        cats.scale.sf,
        cats.ldbc.queries.len(),
        p.probability
    );
    let closing = format!(
        "\nevery query bit-identical or classified-retryable; post-fault replay \
         identical; 0 worker panics; governor balanced\n\
         relational fires: {}\ngraph fires: {}\n",
        family("exec."),
        family("engine.")
    );
    finish(head, &pass_table(&rep), &closing, [&rep])
}

/// Tolerance (µs) for span-boundary comparisons: phase spans are
/// back-filled from separately truncated microsecond measurements, so
/// adjacent edges can disagree by a couple of microseconds.
const EDGE_SLACK_US: u64 = 3;

/// Maximum disabled-tracer overhead vs the untraced executor loop.
const MAX_DISABLED_OVERHEAD: f64 = 0.05;

/// Executions timed per overhead loop. Each loop's *fastest single
/// execution* is compared: scheduler noise only ever adds time, so the
/// minimum over many short samples is the undisturbed cost even while
/// other threads compete for the cores.
const OVERHEAD_SAMPLES: usize = 450;

/// Absolute slack (µs per execution) added to the overhead gate so
/// timer granularity on a tiny smoke fixture cannot fail a check whose
/// true cost is one relaxed atomic load per query.
const OVERHEAD_SLACK_US: f64 = 3.0;

/// Asserts one trace covers the lifecycle with correctly nested spans.
fn check_trace(trace: &QueryTrace, label: &str) {
    let span = |name: &str| {
        let found = trace.phase(name);
        found.unwrap_or_else(|| panic!("{label}: no {name} span"))
    };
    let inside = |start: u64, end: u64, outer: &sgq_obs::Span| {
        start + EDGE_SLACK_US >= outer.start_us && end <= outer.end_us() + EDGE_SLACK_US
    };
    let (root, queue, cache, exec) = (span("query"), span("queue"), span("cache"), span("execute"));
    assert_eq!(root.parent, 0, "{label}: root has a parent");
    for s in [queue, cache, exec] {
        assert_eq!(s.parent, root.id, "{label}: {} not under root", s.name);
        let nested = inside(s.start_us, s.end_us(), root);
        assert!(nested, "{label}: {} escapes the root window", s.name);
    }
    let ordered = queue.end_us() <= cache.start_us + EDGE_SLACK_US;
    assert!(ordered, "{label}: queue overlaps cache lookup");
    let ordered = cache.end_us() <= exec.start_us + EDGE_SLACK_US;
    assert!(ordered, "{label}: cache lookup overlaps execution");
    if let Some(prep) = trace.phase("prepare") {
        assert_eq!(prep.parent, cache.id, "{label}: prepare not under cache");
        let nested =
            prep.start_us >= cache.start_us && prep.end_us() <= cache.end_us() + EDGE_SLACK_US;
        assert!(nested, "{label}: prepare escapes the cache window");
    }
    for op in &trace.ops {
        let nested = inside(op.start_us, op.end_us(), exec);
        assert!(
            nested,
            "{label}: operator span (node {}) escapes the execute window",
            op.node
        );
    }
}

/// Asserts the trace's operator spans agree with the structured
/// `EXPLAIN ANALYZE` of the same execution, row for row.
fn check_against_analyze(trace: &QueryTrace, analyze: &str, label: &str) {
    let doc = json::parse(analyze).unwrap_or_else(|e| panic!("{label}: analyze json: {e}"));
    let nodes = doc
        .as_arr()
        .unwrap_or_else(|| panic!("{label}: analyze json is not an array"));
    assert!(!trace.ops.is_empty(), "{label}: no operator spans");
    for op in &trace.ops {
        // A node evaluated several times (fixpoint rounds) has one span
        // per evaluation; `actual_rows` is their sum.
        let actual = nodes
            .iter()
            .find(|n| n.get("id").and_then(JsonValue::as_u64) == Some(op.node as u64))
            .and_then(|n| n.get("actual_rows"))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("{label}: node {} missing from analyze", op.node));
        assert_eq!(
            trace.op_rows(op.node) as u64,
            actual,
            "{label}: node {} span rows diverge from analyze",
            op.node
        );
    }
}

/// Asserts the Chrome export parses and covers every lifecycle phase of
/// every trace; returns its size in bytes.
fn check_chrome_export(traces: &[Arc<QueryTrace>]) -> usize {
    let rendered = chrome_traces_json(traces);
    let doc = json::parse(&rendered).expect("chrome export must parse");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    for e in events {
        assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert!(e.get("ts").and_then(JsonValue::as_u64).is_some());
        assert!(e.get("dur").and_then(JsonValue::as_u64).is_some());
    }
    for t in traces {
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("tid").and_then(JsonValue::as_u64) == Some(t.trace_id))
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .collect();
        for phase in ["query", "queue", "cache", "execute"] {
            assert!(
                names.contains(&phase),
                "trace {} export misses the {phase} phase",
                t.trace_id
            );
        }
    }
    rendered.len()
}

/// Fastest single execution (µs) of the plan by the untraced executor,
/// by the same call behind a *disabled* tracer's `should_trace` check,
/// and by the fully traced executor (informational) — interleaved, so
/// the three see the same machine state.
fn measure_overhead(store: &RelStore, plan: &PhysPlan, timeout_ms: u64) -> [f64; 3] {
    let tracer = Tracer::new(4); // stays disabled
    let bodies: [&dyn Fn(&mut ExecContext); 3] = [
        &|ctx| drop(execute_plan(plan, store, ctx)),
        &|ctx| {
            // The exact per-query cost the service pays with tracing
            // off: one relaxed atomic load.
            assert!(!tracer.should_trace());
            drop(execute_plan(plan, store, ctx));
        },
        &|ctx| drop(execute_plan_traced(plan, store, ctx)),
    ];
    let mut best = [f64::MAX; 3];
    for _ in 0..OVERHEAD_SAMPLES {
        for (best, body) in best.iter_mut().zip(bodies) {
            let mut ctx = ExecContext::with_timeout(timeout_ms);
            let start = Instant::now();
            body(&mut ctx);
            *best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    best
}

/// `observe`: the query-lifecycle tracing stack end to end — the YAGO
/// catalog through a traced service against plain direct execution.
fn observe(cats: &Catalogs, gate: bool) -> String {
    let cat = &cats.yago;
    let traced_service = Variant {
        traced: true,
        // Uncached, so every execution carries a `prepare` span too.
        via: Via::Service {
            workers: 1,
            clients: 1,
            passes: 1,
            cached: false,
        },
        ..Variant::new("traced service")
    };
    let timeout_ms = cats.scale.timeout_ms;
    let rep = replay(cat, timeout_ms, &Variant::new("direct"), &[traced_service]);
    let mut t = Table::new("<query|rows|queue µs|prep µs|exec µs|ops");
    let mut traces = Vec::new();
    for (query, _, v) in rep.compared() {
        let trace = v[0].trace.as_ref().expect("traced executions are traced");
        if gate {
            check_trace(trace, query);
            // The schema proves some queries empty: no plan, no operators.
            if let Some(analyze) = v[0].analyze_json.as_deref() {
                check_against_analyze(trace, analyze, query);
            }
        }
        let us = |name: &str| trace.phase(name).map_or(0, |s| s.dur_us);
        t.row(format!(
            "{query}|{}|{}|{}|{}|{}",
            v[0].rows,
            us("queue"),
            us("prepare"),
            us("execute"),
            trace.ops.len()
        ));
        traces.push(Arc::clone(trace));
    }
    assert!(!traces.is_empty(), "observe: no catalog query completed");
    let service_pass = &rep.variants[0];
    let metrics = service_pass.metrics.as_ref().expect("service metrics");
    let mut closing = format!(
        "chrome export: {} traces, {} bytes, parses with all phases covered\n\
         slow-query log captured {} queries\noperator profiles: {}\n",
        traces.len(),
        check_chrome_export(&traces),
        service_pass.slow_queries,
        (metrics.op_profiles.iter())
            .map(|p| format!("{} x{}", p.kind, p.evals))
            .collect::<Vec<_>>()
            .join(", ")
    );
    // Overhead gate on the raw executor hot loop, away from the
    // service's queueing noise.
    let (query, prepared) = rep
        .compared()
        .into_iter()
        .filter_map(|(q, r, _)| Some((q, Arc::clone(r.prepared.as_ref()?))))
        .find(|(_, prepared)| prepared.plan().is_some())
        .expect("at least one catalog query plans");
    let plan = prepared.plan().expect("found by having a plan");
    let [base, disabled, traced_us] = measure_overhead(&cat.store(), plan, timeout_ms);
    let pct = |us: f64| (us - base) / base.max(1.0) * 100.0;
    let _ = writeln!(
        closing,
        "overhead ({query}, fastest of {OVERHEAD_SAMPLES} executions): untraced {base:.1} µs, \
         disabled tracer {disabled:.1} µs ({:+.2}%), traced {traced_us:.1} µs ({:+.2}%)",
        pct(disabled),
        pct(traced_us),
    );
    if gate {
        assert_eq!(
            service_pass.slow_queries, service_pass.completed as usize,
            "observe: the floored threshold must capture every completed query"
        );
        assert!(
            !metrics.op_profiles.is_empty(),
            "observe: operator profiles missing"
        );
        assert!(
            disabled <= base * (1.0 + MAX_DISABLED_OVERHEAD) + OVERHEAD_SLACK_US,
            "observe: disabled tracer overhead {:.2}% exceeds {}%",
            pct(disabled),
            MAX_DISABLED_OVERHEAD * 100.0
        );
        closing.push_str("observe gate: PASS\n");
    }
    let head = format!(
        "observe: YAGO x{} catalog through a traced service ({} queries)\n",
        cats.scale.yago_scale,
        cat.queries.len()
    );
    finish(head, &t, &closing, [&rep])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Scale;

    /// Every CI gate, armed, over one set of catalogs: the datasets are
    /// generated once and chaos runs in-process next to the others.
    #[test]
    fn smoke_scale_drives_every_gate_over_one_catalogs() {
        let cats = Catalogs::new(Scale::smoke());
        let params = GateParams::smoke();
        for name in GATES {
            let report = run(name, &cats, &params, true).expect("known gate");
            match name {
                "smoke" => &["isMarriedTo+", "owns/isLocatedIn+"][..],
                "plans" => &[
                    "Index Join on isLocatedIn",
                    "Merge Join (key = x)",
                    "Hash Join (build = left, key = y)",
                    "Recursive Fixpoint",
                    "0 hash builds with the CSR index",
                    "planning a CSR Index Join",
                ],
                "chaos" => &["0 worker panics", "fired sites", "exec.", "engine.eval:"],
                _ => &["gate: PASS"],
            }
            .iter()
            .for_each(|needle| assert!(report.contains(needle), "{name}: {needle}\n{report}"));
            if !matches!(name, "smoke" | "plans") {
                assert!(report.contains("runs as JSON: [{"), "{report}");
            }
        }
        assert!(run("nonsense", &cats, &params, true).is_none());
    }

    /// Both disjuncts of IS7's schema rewrite join `hasCreator ⋉ Comment`
    /// with `replyOf ⋉ Comment ⋈ hasCreator`. The optimiser orders the
    /// two chains alike (ties go to translation order), so the planner
    /// runs the whole hash join once, not just the projection under it.
    #[test]
    fn is7_schema_plan_shares_its_hash_join() {
        fn shared_hash_join(p: &PhysPlan) -> bool {
            (p.op.kind() == "HashJoin" && p.parents() == 2)
                || p.children().into_iter().any(shared_hash_join)
        }
        let cat = Catalog::ldbc(Scale::smoke().sf);
        let is7 = cat.queries.iter().find(|q| q.name == "IS7").expect("IS7");
        let prepared = sgq_service::prepared::prepare(
            &cat.schema,
            &cat.store(),
            &is7.expr,
            Backend::Relational,
            sgq_common::Approach::Schema,
            RewriteOptions::default(),
        )
        .expect("IS7 prepares");
        let plan = prepared.plan().expect("IS7 is planned");
        let store = cat.store();
        let text = sgq_ra::explain::explain_plan(plan, &store, &*cat.db);
        assert!(shared_hash_join(plan), "{text}");
    }
}
