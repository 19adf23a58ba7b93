//! Directed round-trip tests for the translation egress edges (Fig. 10):
//! `RRA2SQL` and `GP2Cypher` output must be *stable* (deterministic
//! across independent translations — prepared statements and the plan
//! cache rely on this) and *well-formed* (balanced, fully-declared,
//! terminator-carrying statements) for the paper's example queries.

use sgq_algebra::ast::PathExpr;
use sgq_algebra::parser::parse_path;
use sgq_core::pipeline::{rewrite_path, RewriteOptions, RewriteOutcome};
use sgq_core::RedundancyRule;
use sgq_graph::schema::fig1_yago_schema;
use sgq_graph::GraphSchema;
use sgq_query::cqt::Ucqt;
use sgq_ra::{RaTerm, SymbolTable};
use sgq_translate::gp2cypher::{cypher_expressible, to_cypher};
use sgq_translate::rra2sql::to_sql;
use sgq_translate::ucqt2rra::{path_to_term, NameGen};

/// The paper's running examples (§2, Example 10/13, Tab. 2 shapes).
const PAPER_QUERIES: [&str; 10] = [
    "livesIn/isLocatedIn+/dealsWith+", // ϕ4 (Example 10)
    "owns/isLocatedIn+",
    "isLocatedIn+",
    "isMarriedTo+",
    "owns/isLocatedIn",
    "livesIn[isLocatedIn]",
    "[owns]livesIn",
    "owns | livesIn",
    "isMarriedTo & isMarriedTo",
    "(livesIn/isLocatedIn)+",
];

fn sql_for(text: &str, schema: &GraphSchema) -> String {
    let e = parse_path(text, schema).unwrap();
    let symbols = SymbolTable::new();
    let (src, tgt) = (symbols.col("v0"), symbols.col("v1"));
    let mut names = NameGen::new(&symbols);
    let t = path_to_term(&e, src, tgt, &mut names);
    to_sql(&t, schema, &symbols)
}

fn balanced_parens(s: &str) -> bool {
    let mut depth = 0i64;
    for c in s.chars() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            _ => {}
        }
        if depth < 0 {
            return false;
        }
    }
    depth == 0
}

#[test]
fn sql_snapshots_are_stable() {
    let schema = fig1_yago_schema();
    // Non-recursive: plain nested selects, no CTE.
    assert_eq!(
        sql_for("owns/isLocatedIn", &schema),
        "SELECT DISTINCT v0, v1 FROM (SELECT DISTINCT v0, v1 FROM \
         (SELECT a1.v0 AS v0, a1.m$0 AS m$0, b1.v1 AS v1 FROM \
         (SELECT Sr AS v0, Tr AS m$0 FROM owns) AS a1 JOIN \
         (SELECT Sr AS m$0, Tr AS v1 FROM isLocatedIn) AS b1 \
         ON a1.m$0 = b1.m$0) AS p0) AS q;"
    );
    // Recursive: one WITH RECURSIVE CTE with declared positional columns.
    assert_eq!(
        sql_for("isLocatedIn+", &schema),
        "WITH RECURSIVE fp_x0(c0, c1) AS (SELECT Sr AS v0, Tr AS v1 FROM isLocatedIn \
         UNION SELECT DISTINCT v0, v1 FROM (SELECT a2.v0 AS v0, a2.m$1 AS m$1, b2.v1 AS v1 \
         FROM (SELECT c0 AS v0, c1 AS m$1 FROM fp_x0) AS a2 JOIN \
         (SELECT v0 AS m$1, v1 FROM (SELECT Sr AS v0, Tr AS v1 FROM isLocatedIn) AS r3) AS b2 \
         ON a2.m$1 = b2.m$1) AS p1)\n\
         SELECT DISTINCT v0, v1 FROM (SELECT c0 AS v0, c1 AS v1 FROM fp_x0) AS q;"
    );
}

#[test]
fn sql_is_well_formed_for_every_paper_query() {
    let schema = fig1_yago_schema();
    for text in PAPER_QUERIES {
        let sql = sql_for(text, &schema);
        assert!(balanced_parens(&sql), "unbalanced parens for {text}: {sql}");
        assert!(sql.ends_with(';'), "missing terminator for {text}: {sql}");
        assert!(
            sql.contains("SELECT DISTINCT v0, v1"),
            "head projection missing for {text}: {sql}"
        );
        let expr = parse_path(text, &schema).unwrap();
        assert_eq!(
            sql.starts_with("WITH RECURSIVE"),
            expr.is_recursive(),
            "CTE presence must track recursiveness for {text}: {sql}"
        );
        // Every referenced fixpoint CTE is declared with its columns.
        for (at, _) in sql.match_indices("FROM fp_") {
            let name: String = sql[at + 5..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            assert!(
                sql.contains(&format!("{name}(c0, c1) AS (")),
                "undeclared CTE {name} for {text}: {sql}"
            );
        }
    }
}

#[test]
fn sql_translation_is_deterministic() {
    let schema = fig1_yago_schema();
    for text in PAPER_QUERIES {
        // Two completely independent translations (fresh symbol tables,
        // fresh name generators) must render identically — the plan
        // cache keys on canonical text and relies on this.
        assert_eq!(
            sql_for(text, &schema),
            sql_for(text, &schema),
            "SQL rendering diverged for {text}"
        );
    }
}

#[test]
fn cypher_snapshots_are_stable() {
    let schema = fig1_yago_schema();
    let phi4 = parse_path("livesIn/isLocatedIn+/dealsWith+", &schema).unwrap();
    let q = Ucqt::path_query(phi4);
    assert!(cypher_expressible(&q));
    assert_eq!(
        to_cypher(&q, &schema).unwrap(),
        "MATCH (v0)-[:livesIn]->()-[:isLocatedIn*]->()-[:dealsWith*]->(v1)\n\
         RETURN DISTINCT v0, v1;"
    );
    let closure = parse_path("isLocatedIn+", &schema).unwrap();
    assert_eq!(
        to_cypher(&Ucqt::path_query(closure), &schema).unwrap(),
        "MATCH (v0)-[:isLocatedIn*]->(v1)\nRETURN DISTINCT v0, v1;"
    );
}

#[test]
fn cypher_is_deterministic_and_classified_for_every_paper_query() {
    let schema = fig1_yago_schema();
    for text in PAPER_QUERIES {
        let q = Ucqt::path_query(parse_path(text, &schema).unwrap());
        let first = to_cypher(&q, &schema);
        let second = to_cypher(&q, &schema);
        match (first, second) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "Cypher rendering diverged for {text}");
                assert!(cypher_expressible(&q), "{text}");
                assert!(a.ends_with(';'), "missing terminator for {text}: {a}");
                assert!(a.starts_with("MATCH "), "unexpected shape for {text}: {a}");
                assert!(
                    a.contains("RETURN DISTINCT v0, v1;"),
                    "head missing for {text}: {a}"
                );
            }
            (Err(a), Err(b)) => {
                // Branching/conjunction fall outside Cypher's UC2RPQ
                // fragment (§4) — consistently on both calls.
                assert_eq!(a, b, "error classification diverged for {text}");
                assert!(!cypher_expressible(&q), "{text}");
            }
            other => panic!("nondeterministic expressibility for {text}: {other:?}"),
        }
    }
}

#[test]
fn rewritten_phi4_round_trips_with_labels() {
    // Example 13: the schema-enriched ϕ4 eliminates the isLocatedIn
    // closure and carries node-label annotations into both egress
    // languages.
    let schema = fig1_yago_schema();
    let phi4 = parse_path("livesIn/isLocatedIn+/dealsWith+", &schema).unwrap();
    let opts = RewriteOptions {
        redundancy: RedundancyRule::EitherSide,
        ..Default::default()
    };
    let RewriteOutcome::Enriched(q) = rewrite_path(&schema, &phi4, opts).outcome else {
        panic!("ϕ4 is enrichable");
    };
    let cypher = to_cypher(&q, &schema).unwrap();
    assert!(
        !cypher.contains("isLocatedIn*"),
        "rewrite eliminates the isLocatedIn closure: {cypher}"
    );
    assert!(
        cypher.contains("dealsWith*"),
        "the cyclic dealsWith closure survives: {cypher}"
    );
    assert!(
        cypher.contains(":REGION"),
        "label annotations render as Cypher labels: {cypher}"
    );

    // The same rewritten UCQT renders to well-formed SQL deterministically.
    let render_sql = |q: &Ucqt| {
        let symbols = SymbolTable::new();
        let mut names = NameGen::new(&symbols);
        let term = sgq_translate::ucqt2rra::ucqt_to_term(q, &mut names).unwrap();
        to_sql(&term, &schema, &symbols)
    };
    let sql = render_sql(&q);
    assert_eq!(sql, render_sql(&q), "rewritten SQL diverged");
    assert!(balanced_parens(&sql), "{sql}");
    assert!(sql.contains("FROM dealsWith"), "{sql}");
    assert!(
        !sql.contains("fp_") || sql.starts_with("WITH RECURSIVE"),
        "{sql}"
    );
}

#[test]
fn a_labelled_scan_prints_as_the_semijoins_it_replaces() {
    // A node-label filter on a scan endpoint is the scan's own label set
    // in the RA; SQL still reads it as `WHERE EXISTS` on the node table,
    // the same text as the semi-join form, at the root or nested.
    let schema = fig1_yago_schema();
    let symbols = SymbolTable::new();
    let (x, y) = (symbols.col("v0"), symbols.col("v1"));
    let node = |name| schema.node_label(name).unwrap();
    let located = schema.edge_label("isLocatedIn").unwrap();
    let labelled = RaTerm::EdgeScan {
        label: located,
        src: x,
        tgt: y,
        src_labels: Some([node("CITY")].into()),
        tgt_labels: Some([node("REGION"), node("COUNTRY")].into()),
    };
    let stacked = RaTerm::semijoin(
        RaTerm::semijoin(
            RaTerm::edge_scan(located, x, y),
            RaTerm::NodeScan {
                labels: vec![node("REGION"), node("COUNTRY")],
                col: y,
            },
        ),
        RaTerm::NodeScan {
            labels: vec![node("CITY")],
            col: x,
        },
    );
    let sql = |t: &RaTerm| to_sql(t, &schema, &symbols);
    assert_eq!(sql(&labelled), sql(&stacked));
    let nested = |t: &RaTerm| RaTerm::project(t.clone(), vec![x]);
    assert_eq!(sql(&nested(&labelled)), sql(&nested(&stacked)));
    let text = sql(&labelled);
    assert_eq!(text.matches("WHERE EXISTS").count(), 2, "{text}");
    for table in ["FROM CITY", "FROM REGION", "FROM COUNTRY"] {
        assert!(text.contains(table), "{table}: {text}");
    }
}

/// `PathExpr::is_recursive` drives the CTE check above; pin the helper's
/// meaning for the example set.
#[test]
fn recursiveness_classification_matches_syntax() {
    let schema = fig1_yago_schema();
    let recursive = |t: &str| {
        parse_path(t, &schema)
            .map(|e: PathExpr| e.is_recursive())
            .unwrap()
    };
    assert!(recursive("isLocatedIn+"));
    assert!(recursive("(livesIn/isLocatedIn)+"));
    assert!(!recursive("owns/isLocatedIn"));
    assert!(!recursive("owns | livesIn"));
}
