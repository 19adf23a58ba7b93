//! End-to-end checks of the paper's worked examples, exercised through
//! the public facade (the per-crate unit tests check the same facts at a
//! lower level).

use schema_graph_query::prelude::*;
use sgq_core::infer::infer_triples;
use sgq_core::RedundancyRule;
use sgq_graph::database::fig2_yago_database;
use sgq_graph::schema::fig1_yago_schema;

#[test]
fn example_3_consistency() {
    let schema = fig1_yago_schema();
    let db = fig2_yago_database();
    assert!(sgq_graph::check_consistency(&schema, &db).is_consistent());
}

#[test]
fn example_6_branch_query() {
    // ϕ1 = [owns]([isMarriedTo]livesIn) returns {(n2, n4)}.
    let schema = fig1_yago_schema();
    let db = fig2_yago_database();
    let phi = parse_path("[owns]([isMarriedTo]livesIn)", &schema).unwrap();
    let engine = GraphEngine::new(&db);
    let result = engine.eval_path(&phi).unwrap();
    assert_eq!(result.len(), 1);
    // n2 is the second inserted node (id 1), n4 the fourth (id 3)
    assert_eq!(result[0].0.raw(), 1);
    assert_eq!(result[0].1.raw(), 3);
}

#[test]
fn example_9_basic_triples() {
    let schema = fig1_yago_schema();
    assert_eq!(schema.triples().len(), 7, "seven basic triples");
}

#[test]
fn table_1_inference_counts() {
    let schema = fig1_yago_schema();
    let count = |s: &str| {
        let e = parse_path(s, &schema).unwrap();
        infer_triples(&schema, &e, RewriteOptions::default())
            .unwrap()
            .len()
    };
    assert_eq!(count("livesIn"), 1);
    assert_eq!(count("isLocatedIn+"), 6);
    assert_eq!(count("dealsWith+"), 1);
    assert_eq!(count("livesIn/isLocatedIn+"), 2);
    assert_eq!(count("livesIn/isLocatedIn+/dealsWith+"), 1);
}

#[test]
fn example_13_full_pipeline() {
    // RS(ϕ4): two relations sharing γ with η(γ) ∈ {REGION}, and the
    // isLocatedIn closure gone.
    let schema = fig1_yago_schema();
    let phi = parse_path("livesIn/isLocatedIn+/dealsWith+", &schema).unwrap();
    let opts = RewriteOptions {
        redundancy: RedundancyRule::EitherSide,
        ..Default::default()
    };
    let r = rewrite_path(&schema, &phi, opts);
    let q = match &r.outcome {
        RewriteOutcome::Enriched(q) => q,
        other => panic!("expected enrichment, got {other:?}"),
    };
    assert_eq!(q.disjuncts.len(), 1);
    let c = &q.disjuncts[0];
    assert_eq!(c.relations.len(), 2);
    assert_eq!(c.atoms.len(), 1);
    assert_eq!(
        c.atoms[0].labels,
        vec![schema.node_label("REGION").unwrap()]
    );
    assert_eq!(
        c.relations[0].path.strip(),
        parse_path("livesIn/isLocatedIn", &schema).unwrap()
    );
    assert_eq!(
        c.relations[1].path.strip(),
        parse_path("isLocatedIn/dealsWith+", &schema).unwrap()
    );
}

#[test]
fn figure_7_simplification() {
    let schema = fig1_yago_schema();
    let phi_red = parse_path(
        "(((owns[isMarriedTo+/livesIn/dealsWith+])/(isLocatedIn+)+)+)+",
        &schema,
    )
    .unwrap();
    let simplified = sgq_core::simplify(&phi_red);
    // Our sound ϕopt (the paper's Fig. 7 additionally drops the
    // isMarriedTo+ base closure; see DESIGN.md):
    let expected = parse_path(
        "(owns[isMarriedTo+[livesIn[dealsWith]]]/isLocatedIn+)+",
        &schema,
    )
    .unwrap();
    assert_eq!(simplified, expected);
}

#[test]
fn figures_15_16_translations() {
    // Q1/Q2 on the LDBC schema: the enriched SQL pre-filters isLocatedIn
    // and the enriched Cypher carries the node label.
    let report = schema_graph_query::harness::experiments::fig15_16();
    assert!(
        report.contains("WHERE EXISTS"),
        "semi-join in the SQL:\n{report}"
    );
    assert!(
        report.contains(":Company)"),
        "label in the Cypher:\n{report}"
    );
    assert!(report.contains("-[:knows]->"), "{report}");
    for table in ["FROM knows", "FROM workAt", "FROM isLocatedIn"] {
        assert!(report.contains(table), "{table}:\n{report}");
    }
}

#[test]
fn figure_17_plan_costs() {
    let report = schema_graph_query::harness::experiments::fig17(0.1);
    assert!(report.contains("cost ="), "{report}");
    assert!(report.contains("actual ="), "{report}");
    // The schema-enrichment narrative survives the index-join planner:
    // the Organisation-side restriction now shows up either as a semi-
    // join operator or as an endpoint filter on a CSR index join.
    assert!(
        report.contains("Semi Join") || report.contains("∈ Company"),
        "{report}"
    );
    // The Fig. 17 narrative: the semi-join collapses the isLocatedIn
    // input by an order of magnitude before the join.
    let number_after = |prefix: &str| -> usize {
        let at = report.find(prefix).expect("marker present") + prefix.len();
        let digits: String = report[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        digits.parse().expect("number")
    };
    let (full, filtered) = (
        number_after("isLocatedIn relation: "),
        number_after("reduced to "),
    );
    assert!(
        filtered * 5 <= full,
        "semi-join should cut isLocatedIn by >=5x ({filtered} of {full})\n{report}"
    );
}

#[test]
fn query_c1_example_5() {
    // C1 = {Y | ∃(Z,M) (Y, livesIn/isLocatedIn+, M) ∧ (Y, owns, Z)}
    // finds John only on the Fig. 2 database.
    use sgq_common::VarId;
    use sgq_query::cqt::{Cqt, Relation};
    let schema = fig1_yago_schema();
    let db = fig2_yago_database();
    let (y, z, m) = (VarId::new(0), VarId::new(1), VarId::new(2));
    let c1 = Cqt {
        head: vec![y],
        atoms: vec![],
        relations: vec![
            Relation::plain(y, parse_path("livesIn/isLocatedIn+", &schema).unwrap(), m),
            Relation::plain(y, parse_path("owns", &schema).unwrap(), z),
        ],
    };
    let engine = GraphEngine::new(&db);
    let rows = engine.run_ucqt(&Ucqt::single(c1)).unwrap();
    assert_eq!(rows.len(), 1);
    let john = rows.iter().next().expect("one row");
    assert_eq!(john[0].raw(), 1, "John is node n2 (id 1)");
}
