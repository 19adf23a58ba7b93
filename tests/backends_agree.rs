//! Cross-backend integration: for every catalog query (the 30 LDBC
//! queries of Tab. 4 and the 18 YAGO queries) on small instances, the
//! graph engine, the relational engine (optimised and unoptimised) and
//! the reference semantics must all agree — for both the baseline and the
//! schema-rewritten query.

use schema_graph_query::prelude::*;
use sgq_algebra::eval::eval_path;
use sgq_datasets::ldbc::{self, LdbcConfig};
use sgq_datasets::yago::{self, YagoConfig};
use sgq_ra::RelStore;
use sgq_translate::ucqt2rra::{ucqt_to_term, NameGen};

fn pairs_from_rows(rows: sgq_engine::Rows) -> Vec<(u32, u32)> {
    rows.iter().map(|r| (r[0].raw(), r[1].raw())).collect()
}

fn relational_pairs(store: &RelStore, query: &Ucqt, optimize: bool) -> Vec<(u32, u32)> {
    let mut names = NameGen::new(&store.symbols);
    let term = ucqt_to_term(query, &mut names).expect("translates");
    let term = if optimize {
        sgq_ra::optimize::optimize(&term, store)
    } else {
        term
    };
    let mut ctx = ExecContext::new();
    let rel = sgq_ra::execute(&term, store, &mut ctx).expect("executes");
    let (c0, c1) = (store.symbols.col("v0"), store.symbols.col("v1"));
    let rel = rel.project(&[c0, c1]);
    rel.rows().map(|r| (r[0], r[1])).collect()
}

fn check_catalog(schema: &GraphSchema, db: &GraphDatabase, queries: &[sgq_datasets::CatalogQuery]) {
    let engine = GraphEngine::new(db);
    let store = RelStore::load(db);
    for q in queries {
        let reference: Vec<(u32, u32)> = eval_path(db, &q.expr)
            .into_iter()
            .map(|(a, b)| (a.raw(), b.raw()))
            .collect();

        // Baseline on all three engines.
        let baseline = Ucqt::path_query(q.expr.clone());
        let graph = pairs_from_rows(engine.run_ucqt(&baseline).expect("graph runs"));
        assert_eq!(
            graph, reference,
            "{}: graph backend diverged (baseline)",
            q.name
        );
        let rel = relational_pairs(&store, &baseline, true);
        assert_eq!(
            rel, reference,
            "{}: relational backend diverged (baseline)",
            q.name
        );
        let rel_unopt = relational_pairs(&store, &baseline, false);
        assert_eq!(
            rel_unopt, reference,
            "{}: unoptimised relational diverged",
            q.name
        );

        // Schema-rewritten on both engines.
        let rewritten = rewrite_path(schema, &q.expr, RewriteOptions::default());
        match &rewritten.outcome {
            RewriteOutcome::Empty => {
                assert!(reference.is_empty(), "{}: rewrite claims empty", q.name)
            }
            RewriteOutcome::Enriched(query) | RewriteOutcome::Reverted(query) => {
                let graph = pairs_from_rows(engine.run_ucqt(query).expect("graph runs"));
                assert_eq!(
                    graph, reference,
                    "{}: graph backend diverged (schema)",
                    q.name
                );
                let rel = relational_pairs(&store, query, true);
                assert_eq!(
                    rel, reference,
                    "{}: relational backend diverged (schema)",
                    q.name
                );
            }
        }
    }
}

#[test]
fn ldbc_catalog_agrees_across_backends() {
    let (schema, db) = ldbc::generate(LdbcConfig {
        scale_factor: 0.06,
        seed: 7,
        persons_per_sf: 500,
    });
    let queries = ldbc::queries(&schema).expect("catalog parses");
    check_catalog(&schema, &db, &queries);
}

#[test]
fn yago_catalog_agrees_across_backends() {
    let (schema, db) = yago::generate(YagoConfig::tiny());
    let queries = yago::queries(&schema).expect("catalog parses");
    check_catalog(&schema, &db, &queries);
}

#[test]
fn rewrites_agree_under_every_redundancy_rule() {
    let (schema, db) = yago::generate(YagoConfig::tiny());
    let engine = GraphEngine::new(&db);
    let queries = yago::queries(&schema).expect("catalog parses");
    for q in &queries {
        let reference = eval_path(&db, &q.expr);
        for rule in [
            RedundancyRule::BothSides,
            RedundancyRule::EitherSide,
            RedundancyRule::Never,
        ] {
            let opts = RewriteOptions {
                redundancy: rule,
                ..Default::default()
            };
            let rewritten = rewrite_path(&schema, &q.expr, opts);
            if let Some(query) = rewritten.outcome.query() {
                let rows = engine.run_ucqt(query).expect("engine runs");
                let pairs: Vec<_> = rows.iter().map(|r| (r[0], r[1])).collect();
                assert_eq!(pairs, reference, "{} diverged under {rule:?}", q.name);
            }
        }
    }
}
