//! One function per table/figure of the paper's evaluation (§5).
//!
//! Every function returns a printable report; suite functions also return
//! the raw [`RunRecord`]s so the binary can dump them as JSON.

use std::fmt::Write as _;

use sgq_common::{Approach, Backend};
use sgq_core::pipeline::{rewrite_path, RewriteOptions, RewriteOutcome};
use sgq_datasets::stats::{dataset_stats, DatasetStats};
use sgq_datasets::{ldbc, yago, CatalogQuery, QueryOrigin};
use sgq_graph::GraphSchema;
use sgq_query::cqt::Ucqt;
use sgq_ra::exec::ExecContext;
use sgq_service::prepared::prepare;
use sgq_translate::ucqt2rra::{ucqt_to_term, NameGen};

use crate::records::RunRecord;
use crate::replay::{replay, Catalog, Replay, Table, Variant};
use crate::summary::Summary;

/// Configuration shared by the experiment suite.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Per-query timeout in milliseconds (the paper used 30 minutes;
    /// the harness scales this down).
    pub timeout_ms: u64,
    /// LDBC scale factors to evaluate (subset of the paper's six).
    pub ldbc_sfs: Vec<f64>,
    /// Scaling of the YAGO dataset relative to the default size.
    pub yago_scale: f64,
    /// Timed executions averaged per query (the paper used 5).
    pub repeats: usize,
    /// Options of the schema rewrite.
    pub rewrite: RewriteOptions,
    /// The backend for the single-backend experiments (the paper's main
    /// backend is PostgreSQL → our relational engine).
    pub backend: Backend,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            timeout_ms: 2_000,
            ldbc_sfs: ldbc::SCALE_FACTORS.to_vec(),
            yago_scale: 1.0,
            repeats: 3,
            rewrite: RewriteOptions::default(),
            backend: Backend::Relational,
        }
    }
}

/// The default variant on `backend` under `approach` with `cfg`'s
/// repeats and rewrite options, named after backend and approach.
fn on(cfg: &ExperimentConfig, backend: Backend, approach: Approach) -> Variant {
    Variant {
        backend,
        approach,
        rewrite: cfg.rewrite,
        repeats: cfg.repeats,
        ..Variant::new(format!("{backend}/{approach}"))
    }
}

/// {relational, graph} × {B, S}: the paper's main backend's baseline
/// first, the reference of a replay over all four.
fn both_backends(cfg: &ExperimentConfig) -> [Variant; 4] {
    let (r, g) = (Backend::Relational, Backend::Graph);
    let (b, s) = (Approach::Baseline, Approach::Schema);
    [(r, b), (r, s), (g, b), (g, s)].map(|(backend, approach)| on(cfg, backend, approach))
}

/// The records of a replay, read off its passes: per catalog query, one
/// per pass in pass order; schema runs note whether the rewrite
/// reverted (§5.2).
fn records(cat: &Catalog, rep: &Replay) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for (i, q) in cat.queries.iter().enumerate() {
        for pass in rep.passes() {
            let (v, run) = (&pass.variant, pass.runs[i].as_ref());
            let outcome = || rewrite_path(&cat.schema, &q.expr, v.rewrite).outcome;
            records.push(RunRecord {
                query: q.name.to_string(),
                kind: q.kind().to_string(),
                scale_factor: cat.sf,
                approach: v.approach.to_string(),
                backend: v.backend.to_string(),
                ms: run.map(|r| r.ms),
                rows: run.map(|r| r.rows),
                reverted: (v.approach == Approach::Schema).then(|| outcome().is_reverted()),
            });
        }
    }
    records
}

/// Tab. 3: dataset characteristics.
pub fn table3(cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3: Summary of dataset characteristics");
    let _ = writeln!(out, "{}", DatasetStats::header());
    let yago = Catalog::yago(cfg.yago_scale);
    let _ = writeln!(out, "{}", dataset_stats("YAGO", None, &yago.db).row());
    for &sf in &cfg.ldbc_sfs {
        let db = Catalog::ldbc(sf).db;
        let _ = writeln!(out, "{}", dataset_stats("LDBC-SNB", Some(sf), &db).row());
    }
    out
}

/// Runs the full LDBC suite: 30 queries × scale factors × {B, S}.
pub fn ldbc_suite(cfg: &ExperimentConfig) -> Vec<RunRecord> {
    (cfg.ldbc_sfs.iter())
        .flat_map(|&sf| suite(&Catalog::ldbc(sf), cfg))
        .collect()
}

/// Runs the YAGO suite: 18 queries × {B, S} (Fig. 12's data).
pub fn yago_suite(cfg: &ExperimentConfig) -> Vec<RunRecord> {
    suite(&Catalog::yago(cfg.yago_scale), cfg)
}

/// Every catalog query × {B, S} on the configured backend: one replay,
/// the baseline pass the reference every schema answer is compared to.
fn suite(cat: &Catalog, cfg: &ExperimentConfig) -> Vec<RunRecord> {
    let [b, s] = [Approach::Baseline, Approach::Schema].map(|a| on(cfg, cfg.backend, a));
    records(cat, &replay(cat, cfg.timeout_ms, &b, &[s]))
}

/// Runtimes (ms) of the records matching `pred`. With `timeout_ms`,
/// infeasible runs count at the timeout (as in the paper's Max =
/// 1800 s); without, they are left out.
fn series(
    records: &[RunRecord],
    timeout_ms: Option<u64>,
    pred: impl Fn(&RunRecord) -> bool,
) -> Vec<f64> {
    let infeasible = timeout_ms.map(|t| t as f64);
    (records.iter().filter(|r| pred(r)))
        .filter_map(|r| r.ms.or(infeasible))
        .collect()
}

/// Appends the box-plot row of `values` (nothing for an empty series).
fn summary_row(table: &mut Table, label: &str, values: &[f64]) {
    if let Some(s) = Summary::compute(values) {
        table.row(s.row_seconds(label));
    }
}

/// Tab. 5: feasibility counts per scale factor, split RQ/NQ and B/S.
pub fn table5(records: &[RunRecord], cfg: &ExperimentConfig) -> String {
    let mut t = Table::new("SF|RQ-B count|%|RQ-S count|%|NQ-B count|%|NQ-S count|%");
    for &sf in &cfg.ldbc_sfs {
        let cell = |kind: &str, approach: &str| {
            let of = |r: &&RunRecord| {
                r.scale_factor == Some(sf) && r.kind == kind && r.approach == approach
            };
            let total = records.iter().filter(of).count();
            let ok = records.iter().filter(of).filter(|r| r.feasible()).count();
            format!("{ok}|{:.1}%", 100.0 * ok as f64 / total.max(1) as f64)
        };
        let (rqb, rqs, nqb, nqs) = (
            cell("RQ", "B"),
            cell("RQ", "S"),
            cell("NQ", "B"),
            cell("NQ", "S"),
        );
        t.row(format!("{sf}|{rqb}|{rqs}|{nqb}|{nqs}"));
    }
    format!(
        "Table 5: LDBC query feasibility across scale factors\n{}",
        t.render()
    )
}

/// Tab. 6: statistics on the fixed-length paths generated for the YAGO
/// queries (computed from the rewriter, no execution involved).
pub fn table6(cfg: &ExperimentConfig) -> String {
    let schema = yago::schema();
    let queries = yago::queries(&schema).expect("catalog parses");
    let mut t = Table::new("<Query|#Paths|Min|Avg|Max|<outcome");
    let mut eliminated = 0usize;
    for q in &queries {
        let r = rewrite_path(&schema, &q.expr, cfg.rewrite);
        let stats = &r.report.plus_stats;
        let outcome = if r.outcome.is_reverted() {
            "reverted"
        } else if stats.path_lengths.is_empty() {
            "no elimination"
        } else {
            eliminated += 1;
            if r.report.still_recursive {
                "partial elimination"
            } else {
                "closure eliminated"
            }
        };
        let lengths = match (stats.min(), stats.avg(), stats.max()) {
            (Some(min), Some(avg), Some(max)) => format!("{min}|{avg:.1}|{max}"),
            _ => "-|-|-".to_string(),
        };
        t.row(format!("{}|{}|{lengths}|{outcome}", q.name, stats.count()));
    }
    format!(
        "Table 6: Statistics on generated fixed-length paths (YAGO)\n{}\
         Transitive closure replaced by fixed-length paths in {eliminated} of {} queries.\n",
        t.render(),
        queries.len()
    )
}

/// Tab. 7: runtime summary, recursive vs non-recursive, B vs S.
pub fn table7(records: &[RunRecord], timeout_ms: u64) -> String {
    let mut t = Table::new(Summary::COLUMNS);
    let of = |kind: &str, approach: &str| {
        series(records, Some(timeout_ms), |r| {
            r.kind == kind && r.approach == approach
        })
    };
    let kinds = [("RQ", "Recursive"), ("NQ", "Non-recursive")];
    for (kind, name) in kinds {
        summary_row(&mut t, &format!("{name} baseline"), &of(kind, "B"));
        summary_row(&mut t, &format!("{name} schema"), &of(kind, "S"));
    }
    let mut out = format!(
        "Table 7: Query runtime summary statistics (seconds; infeasible runs counted \
         at the timeout, as in the paper's Max = 1800s)\n{}",
        t.render()
    );
    for (kind, name) in kinds {
        let mean = |approach| Summary::compute(&of(kind, approach)).map(|s| s.mean);
        if let (Some(b), Some(s)) = (mean("B"), mean("S")) {
            let ratio = b / s.max(1e-9);
            let _ = writeln!(out, "{name}: schema is {ratio:.2}x faster on average");
        }
    }
    out
}

/// Tab. 8: overall runtime analysis.
pub fn table8(records: &[RunRecord], timeout_ms: u64) -> String {
    let mut t = Table::new(Summary::COLUMNS);
    for (approach, label) in [("B", "Baseline"), ("S", "Schema")] {
        let values = series(records, Some(timeout_ms), |r| r.approach == approach);
        summary_row(&mut t, label, &values);
    }
    format!(
        "Table 8: Overall analysis of query runtime (seconds)\n{}",
        t.render()
    )
}

/// Fig. 12: per-query YAGO runtimes, baseline vs schema.
pub fn fig12(records: &[RunRecord], timeout_ms: u64) -> String {
    let mut t = Table::new("<Query|Baseline|Schema|Speedup");
    let mut speedups: Vec<f64> = Vec::new();
    let mut names: Vec<&str> = records.iter().map(|r| r.query.as_str()).collect();
    names.dedup();
    for name in names {
        let ms = |approach: &str| {
            let run = (records.iter()).find(|r| r.query == name && r.approach == approach);
            run.and_then(|r| r.ms).unwrap_or(timeout_ms as f64)
        };
        let (b, s) = (ms("B"), ms("S"));
        speedups.push(b / s.max(1e-9));
        t.row(format!("{name}|{b:.3}|{s:.3}|{:.2}x", b / s.max(1e-9)));
    }
    let n = speedups.len().max(1) as f64;
    let geo = (speedups.iter().map(|s| s.ln()).sum::<f64>() / n).exp();
    let arith = speedups.iter().sum::<f64>() / n;
    format!(
        "Figure 12: Query runtime for the YAGO dataset (ms)\n{}Average speedup: {arith:.2}x \
         (arithmetic), {geo:.2}x (geometric); paper reports 6.1x\n",
        t.render()
    )
}

/// Fig. 13: per-scale-factor box-plot statistics (B vs S).
pub fn fig13(records: &[RunRecord], cfg: &ExperimentConfig) -> String {
    let mut t = Table::new(Summary::COLUMNS);
    for &sf in &cfg.ldbc_sfs {
        for approach in ["B", "S"] {
            let values = series(records, None, |r| {
                r.scale_factor == Some(sf) && r.approach == approach
            });
            summary_row(&mut t, &format!("SF{sf} {approach}"), &values);
        }
    }
    format!(
        "Figure 13: Box plot of LDBC query runtime per scale factor (seconds, feasible \
         runs only)\n{}",
        t.render()
    )
}

/// Fig. 14: graph vs relational backends on the Cypher-expressible
/// chain-shaped queries (§5.5).
pub fn fig14(cfg: &ExperimentConfig) -> (Vec<RunRecord>, String) {
    let sfs: Vec<f64> = (cfg.ldbc_sfs.iter().copied())
        .filter(|&sf| sf <= 3.0)
        .collect();
    let backends = [(Backend::Graph, "G"), (Backend::Relational, "P")];
    let mut all = Vec::new();
    let mut chain_count = 0;
    for &sf in &sfs {
        let mut cat = Catalog::ldbc(sf);
        cat.queries
            .retain(|q| sgq_translate::cypher_expressible(&q.ucqt()));
        chain_count = cat.queries.len();
        let [rb, rs, gb, gs] = both_backends(cfg);
        let rep = replay(&cat, cfg.timeout_ms, &rb, &[rs, gb, gs]);
        all.extend(records(&cat, &rep));
    }
    let mut t = Table::new(Summary::COLUMNS);
    for &sf in &sfs {
        for (backend, tag) in backends {
            for approach in ["B", "S"] {
                let values = series(&all, None, |r| {
                    r.scale_factor == Some(sf)
                        && r.backend == backend.to_string()
                        && r.approach == approach
                });
                summary_row(&mut t, &format!("SF{sf} {tag}{approach}"), &values);
            }
        }
    }
    let out = format!(
        "Figure 14: Query runtimes on the graph (G, Neo4j stand-in) and relational (P, \
         PostgreSQL stand-in) backends\n({chain_count} of 30 Tab. 4 queries are chain-shaped \
         / Cypher-expressible)\n{}",
        t.render()
    );
    (all, out)
}

/// The paper's Q1 (`knows/workAt/isLocatedIn`, baseline) and Q2 (its
/// schema-enriched rewrite).
fn q1_q2(schema: &GraphSchema) -> (Ucqt, Ucqt) {
    let expr =
        sgq_algebra::parser::parse_path("knows/workAt/isLocatedIn", schema).expect("Q1 parses");
    match rewrite_path(schema, &expr, RewriteOptions::default()).outcome {
        RewriteOutcome::Enriched(q) => (Ucqt::path_query(expr), q),
        other => panic!("Q1 must enrich, got {other:?}"),
    }
}

/// Figs. 15 & 16: the SQL and Cypher translations of Q1 (baseline) and Q2
/// (schema-enriched) — `knows/workAt/isLocatedIn`.
pub fn fig15_16() -> String {
    let schema = ldbc::schema();
    let (baseline, enriched) = q1_q2(&schema);
    // No store is involved: the SQL text is the product, so a standalone
    // symbol table provides the column-id space.
    let symbols = sgq_ra::SymbolTable::new();
    let mut names = NameGen::new(&symbols);
    let t_base = ucqt_to_term(&baseline, &mut names).expect("translates");
    let t_schema = ucqt_to_term(&enriched, &mut names).expect("translates");
    let mut out = String::new();
    out.push_str("Figure 15 — SQL translations\n\n-- BASELINE (Q1)\n");
    out.push_str(&sgq_translate::to_sql(&t_base, &schema, &symbols));
    out.push_str("\n\n-- SCHEMA-ENRICHED (Q2)\n");
    out.push_str(&sgq_translate::to_sql(&t_schema, &schema, &symbols));
    out.push_str("\n\nFigure 16 — Cypher translations\n\n// BASELINE (Q1)\n");
    out.push_str(&sgq_translate::to_cypher(&baseline, &schema).expect("chain"));
    out.push_str("\n\n// SCHEMA-ENRICHED (Q2)\n");
    out.push_str(&sgq_translate::to_cypher(&enriched, &schema).expect("chain"));
    out.push('\n');
    out
}

/// Fig. 17: execution plans with estimated cost/rows and actual rows for
/// Q1 and Q2 on an LDBC instance.
pub fn fig17(sf: f64) -> String {
    let cat = Catalog::ldbc(sf);
    let (schema, db): (&GraphSchema, &sgq_graph::GraphDatabase) = (&cat.schema, &cat.db);
    let store = &*cat.store();
    let (baseline, enriched) = q1_q2(schema);
    let mut names = NameGen::new(&store.symbols);
    let mut out = format!("Figure 17 — execution plans (LDBC SF {sf})\n");
    let mut materialised = Vec::new();
    for (title, query) in [
        ("BASELINE QUERY EXECUTION PLAN (Q1)", &baseline),
        ("SCHEMA-ENRICHED QUERY EXECUTION PLAN (Q2)", &enriched),
    ] {
        let term = ucqt_to_term(query, &mut names).expect("translates");
        let term = sgq_ra::optimize::optimize(&term, store);
        let (rel, plan) = sgq_ra::explain::explain_analyze(&term, store, db).expect("executes");
        let _ = write!(out, "\n// {title} — {} rows\n{plan}", rel.len());
        let mut ctx = ExecContext::new();
        let _ = sgq_ra::execute(&term, store, &mut ctx);
        materialised.push(ctx.rows_materialized());
    }
    // The paper's headline number (isLocatedIn: 11,118,487 rows -> 7,955
    // after the Organisation semi-join): the same reduction on our store.
    let isl = schema.edge_label("isLocatedIn").expect("label exists");
    let company = schema.node_label("Company").expect("label exists");
    let isl_table = store.edge_table(isl);
    let companies = store.node_table(company);
    let filtered = isl_table.semijoin(&companies.with_cols(vec![sgq_ra::SymbolTable::SR]));
    let _ = write!(
        out,
        "\nIntermediate rows materialised: baseline = {}, schema-enriched = {}\n\
         isLocatedIn relation: {} rows, reduced to {} by the Company semi-join\n",
        materialised[0],
        materialised[1],
        isl_table.len(),
        filtered.len()
    );
    out
}

/// §5.2: the revert lists for both catalogs.
pub fn reverts(cfg: &ExperimentConfig) -> String {
    let mut out = String::new();
    let mut list = |name: &str, schema: GraphSchema, queries: Vec<CatalogQuery>| {
        let reverted: Vec<&str> = (queries.iter())
            .filter(|q| {
                rewrite_path(&schema, &q.expr, cfg.rewrite)
                    .outcome
                    .is_reverted()
            })
            .map(|q| q.name)
            .collect();
        let _ = writeln!(
            out,
            "{name} queries reverting to their initial form ({} of {}): {}",
            reverted.len(),
            queries.len(),
            reverted.join(", ")
        );
    };
    let schema = ldbc::schema();
    let queries = ldbc::queries(&schema).expect("catalog parses");
    list("LDBC", schema, queries);
    let schema = yago::schema();
    let queries = yago::queries(&schema).expect("catalog parses");
    list("YAGO", schema, queries);
    let _ = writeln!(
        out,
        "(paper §5.2: 10 of 30 LDBC queries and 1 of 18 YAGO queries revert)"
    );
    out
}

/// Physical plan showcase on the Fig. 2 database: join strategy
/// selection (CSR index vs merge vs hash, cost-chosen build sides),
/// precomputed slice scans, and the work counters of a closure walked on
/// the adjacency index next to one walked on its step's pairs.
/// Ends with the LDBC smoke assertion: at least one query of the `ldbc`
/// catalog must plan a CSR `IndexJoin`.
pub fn physical_plans(ldbc: &Catalog) -> String {
    use sgq_ra::exec::{execute_plan, ExecContext};
    use sgq_ra::explain::{explain, explain_plan};
    use sgq_ra::term::{closure_fixpoint, RaTerm};

    let db = sgq_graph::database::fig2_yago_database();
    let store = sgq_ra::RelStore::load(&db);
    let s = &store.symbols;
    let scan = |label: &str, src: &str, tgt: &str| {
        RaTerm::edge_scan(
            db.edge_label_id(label).expect("label exists"),
            s.col(src),
            s.col(tgt),
        )
    };
    let mut out = String::from("Physical execution plans (Fig. 2 database)\n");
    let mut section = |title: &str, plan: String| {
        let _ = write!(out, "\n-- {title}\n{plan}");
    };

    // 1. A selective probe against a base scan: the cost model replaces
    //    the scan with direct CSR neighbour probes — no materialisation,
    //    no hash table.
    let selective = RaTerm::join(scan("owns", "x", "y"), scan("isLocatedIn", "y", "z"));
    section(
        "owns(x,y) ⋈ isLocatedIn(y,z): the 1-row owns side probes the CSR",
        explain(&selective, &store, &db),
    );

    // 2. The scan-based strategies, on joins neither side of which is a
    //    base scan: merge when the shared column leads both sorted inputs
    //    (two paths out of x), hash with the cost-chosen build side
    //    otherwise (a path continued at its end).
    let (x, y, m) = (s.col("x"), s.col("y"), s.col("m"));
    let hops = |a: &str, b: &str, src: &str, tgt: &str| {
        let j = RaTerm::join(scan(a, src, "n"), scan(b, "n", tgt));
        RaTerm::project(j, vec![s.col(src), s.col(tgt)])
    };
    let aligned = RaTerm::join(
        hops("livesIn", "isLocatedIn", "x", "y"),
        hops("owns", "isLocatedIn", "x", "z"),
    );
    section(
        "π(x,y)(livesIn/isLocatedIn) ⋈ π(x,z)(owns/isLocatedIn): sorted on x on both sides",
        explain(&aligned, &store, &db),
    );
    let misaligned = RaTerm::join(
        hops("owns", "isLocatedIn", "x", "y"),
        hops("isLocatedIn", "isLocatedIn", "y", "z"),
    );
    section(
        "π(x,y)(owns/isLocatedIn) ⋈ π(y,z)(isLocatedIn/isLocatedIn): y does not lead the left side",
        explain(&misaligned, &store, &db),
    );

    // 3. Closures, each one run of the closure kernel. A single-label
    //    closure walks the load-time CSR — zero per-query hash builds; a
    //    union's walks the sorted pairs of its step, evaluated once, and
    //    shared with the base.
    let closure = closure_fixpoint(s.recvar("X"), scan("isLocatedIn", "x", "y"), x, y, m);
    let plan_index = sgq_ra::plan(&closure, &store).expect("closure plans");
    section(
        "µX. isLocatedIn ∪ π(X ⋈ isLocatedIn)",
        explain_plan(&plan_index, &store, &db),
    );
    let either = RaTerm::union(scan("owns", "x", "y"), scan("isLocatedIn", "x", "y"));
    let composite = closure_fixpoint(s.recvar("X"), either, x, y, m);
    let plan_pairs = sgq_ra::plan(&composite, &store).expect("closure plans");
    section(
        "µX. (owns ∪ isLocatedIn) ∪ π(X ⋈ ρ(owns ∪ isLocatedIn))",
        explain_plan(&plan_pairs, &store, &db),
    );
    let run = |plan| {
        let mut ctx = ExecContext::new();
        execute_plan(plan, &store, &mut ctx).expect("executes");
        ctx
    };
    let (ctx_index, ctx_pairs) = (run(&plan_index), run(&plan_pairs));
    section(
        "work counters",
        format!(
            "isLocatedIn+ in the closure kernel, {} round: {} hash builds with the CSR \
             index, {} rows materialised; (owns|isLocatedIn)+ on the sorted pairs of its \
             step, {} round: {} hash builds, {} shared step read, {} rows materialised\n",
            ctx_index.fixpoint_rounds,
            ctx_index.hash_builds,
            ctx_index.rows_materialized(),
            ctx_pairs.fixpoint_rounds,
            ctx_pairs.hash_builds,
            ctx_pairs.cache_hits,
            ctx_pairs.rows_materialized(),
        ),
    );

    // 4. The µ-RA pushdown composed with the physical layer: the label
    //    filter migrates into the fixpoint base, which then scans the
    //    store's precomputed slice (or becomes an index-join endpoint
    //    filter).
    let city = RaTerm::NodeScan {
        labels: vec![db.node_label_id("CITY").expect("label exists")],
        col: x,
    };
    let optimized = sgq_ra::optimize::optimize(&RaTerm::semijoin(closure, city), &store);
    section(
        "(µX. isLocatedIn ∪ π(X ⋈ isLocatedIn)) ⋉ CITY, optimised",
        explain(&optimized, &store, &db),
    );

    // 5. CI gate for the index layer: on the served LDBC store the cost
    //    model must choose a CSR index join for at least one catalog
    //    query (baseline, optimised), from measured statistics alone.
    let served = ldbc.store();
    let indexed: Vec<(&str, String)> = (ldbc.queries.iter())
        .filter_map(|q| {
            let (backend, approach) = (Backend::Relational, Approach::Baseline);
            let rewrite = RewriteOptions::default();
            let p = prepare(&ldbc.schema, &served, &q.expr, backend, approach, rewrite).ok()?;
            let plan = p.plan()?;
            let index_join = |op: &sgq_ra::PhysOp| matches!(op, sgq_ra::PhysOp::IndexJoin { .. });
            (plan.contains_op(&index_join))
                .then(|| (q.name, explain_plan(plan, &served, &*ldbc.db)))
        })
        .collect();
    assert!(
        !indexed.is_empty(),
        "no LDBC catalog query planned an IndexJoin"
    );
    let names: Vec<&str> = indexed.iter().map(|(name, _)| *name).collect();
    let _ = write!(
        out,
        "\nLDBC catalog queries planning a CSR Index Join (SF {}): {} of {}: {}\n\n\
         -- {}, optimised physical plan\n{}",
        ldbc.sf.unwrap_or(0.0),
        names.len(),
        ldbc.queries.len(),
        names.join(", "),
        indexed[0].0,
        indexed[0].1
    );
    out
}

/// CI smoke run on the tiny Fig. 2 database: a handful of recursive
/// and non-recursive paths replayed on both backends under both
/// approaches. Panics on any disagreement or infeasible run so a broken
/// harness path fails the build.
pub fn smoke() -> String {
    let schema = sgq_graph::schema::fig1_yago_schema();
    let texts = "isLocatedIn isLocatedIn+ owns/isLocatedIn+ livesIn/isLocatedIn isMarriedTo+";
    let parse = |text| CatalogQuery::parse(text, QueryOrigin::YagoStyle, text, &schema);
    let queries: sgq_common::Result<_> = texts.split(' ').map(parse).collect();
    let db = sgq_graph::database::fig2_yago_database();
    let cat = Catalog::new("FIG2", schema, db, queries.expect("smoke queries parse"));
    let [rb, rs, gb, gs] = both_backends(&ExperimentConfig::default());
    let rep = replay(&cat, 10_000, &rb, &[rs, gb, gs]);
    let compared = rep.compared();
    assert_eq!(
        compared.len(),
        cat.queries.len(),
        "a smoke query was infeasible"
    );
    let mut t = Table::new("<query|R/B|R/S|G/B|G/S");
    for (query, rb, v) in compared {
        let [rs, gb, gs] = [0, 1, 2].map(|k| v[k].rows);
        t.row(format!("{query}|{}|{rs}|{gb}|{gs}", rb.rows));
    }
    format!(
        "Smoke run (Fig. 2 database, graph vs relational)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            timeout_ms: 4_000,
            ldbc_sfs: vec![0.1],
            yago_scale: 0.02,
            repeats: 1,
            backend: Backend::Graph,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn table3_renders() {
        let s = table3(&tiny_cfg());
        assert!(s.contains("YAGO"));
        assert!(s.contains("LDBC-SNB"));
        assert!(s.contains("#NR"));
    }

    #[test]
    fn table6_matches_paper_count() {
        let s = table6(&tiny_cfg());
        assert!(s.contains("16 of 18"), "{s}");
        assert!(s.contains("Y7"), "{s}");
    }

    #[test]
    fn suite_and_tables_render() {
        let cfg = tiny_cfg();
        let records = ldbc_suite(&cfg);
        assert_eq!(records.len(), 30 * 2);
        let t5 = table5(&records, &cfg);
        assert!(t5.contains("SF"), "{t5}");
        let t7 = table7(&records, cfg.timeout_ms);
        assert!(t7.contains("Recursive baseline"), "{t7}");
        let t8 = table8(&records, cfg.timeout_ms);
        assert!(t8.contains("Baseline"), "{t8}");
        let f13 = fig13(&records, &cfg);
        assert!(f13.contains("SF0.1"), "{f13}");
    }

    #[test]
    fn yago_fig12_renders() {
        let cfg = tiny_cfg();
        let records = yago_suite(&cfg);
        assert_eq!(records.len(), 18 * 2);
        let s = fig12(&records, cfg.timeout_ms);
        assert!(s.contains("Average speedup"), "{s}");
        assert!(s.contains("Y1"), "{s}");
    }

    #[test]
    fn fig14_runs_both_backends_under_both_approaches_per_chain_query() {
        let (records, report) = fig14(&tiny_cfg());
        let mut names: Vec<&str> = records.iter().map(|r| r.query.as_str()).collect();
        names.dedup();
        assert!(names.len() >= 15, "the paper's 15 chain queries: {names:?}");
        assert!(
            report.contains(&format!("({} of 30", names.len())),
            "{report}"
        );
        for name in names {
            let mut cells: Vec<(&str, &str)> = (records.iter())
                .filter(|r| r.query == name)
                .map(|r| (r.backend.as_str(), r.approach.as_str()))
                .collect();
            cells.sort_unstable();
            let want = [
                ("graph", "B"),
                ("graph", "S"),
                ("relational", "B"),
                ("relational", "S"),
            ];
            assert_eq!(cells, want, "{name}");
        }
        assert!(report.contains("SF0.1 GB"), "{report}");
    }

    #[test]
    fn reverts_listing() {
        let s = reverts(&tiny_cfg());
        assert!(s.contains("IC13"), "{s}");
        assert!(s.contains("Y7"), "{s}");
    }
}
