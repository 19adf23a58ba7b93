//! UCQT → graph patterns → Cypher (the `UCQT2GP` and `GP2Cypher`
//! components of Fig. 10).
//!
//! Cypher only supports a restricted form of UC2RPQ (§4, §5.5): chains of
//! (possibly reversed) edge labels, variable-length repetition of a single
//! label, node-label restrictions, and top-level union. Conjunction and
//! branching are not expressible — [`cypher_expressible`] reports this,
//! mirroring the paper's "15 of the 30 LDBC queries are expressible"
//! observation.

use sgq_algebra::ast::PathExpr;
use sgq_common::{EdgeLabelId, Result, SgqError, VarId};
use sgq_graph::GraphSchema;
use sgq_query::annotated::{AnnotatedPath, LabelSet};
use sgq_query::cqt::{Cqt, Relation, Ucqt};

/// One hop of a Cypher pattern: `-[:label]->`, `<-[:label]-` when
/// `reversed`, and `-[:label*]->` (one-or-more repetition) when `star`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hop {
    label: EdgeLabelId,
    reversed: bool,
    star: bool,
}

/// Checks whether a UCQT falls into the Cypher-expressible UC2RPQ chain
/// fragment (after union normalisation).
pub fn cypher_expressible(query: &Ucqt) -> bool {
    let query = normalize_unions(query);
    query
        .disjuncts
        .iter()
        .all(|c| c.relations.iter().all(|r| chain_hops(&r.path).is_ok()))
}

/// Distributes unions inside relation paths into additional disjuncts:
/// `knows{1,2}/-hasC` (= `(knows ∪ knows/knows)/-hasC`) becomes two
/// Cypher `MATCH ... UNION MATCH ...` branches. Bounded by a safety cap,
/// checked while distributing; beyond it the query is returned unchanged.
pub fn normalize_unions(query: &Ucqt) -> Ucqt {
    const CAP: usize = 64;
    let mut disjuncts = Vec::new();
    for cqt in &query.disjuncts {
        // components per relation
        let per_rel: Option<Vec<Vec<PathExpr>>> = (cqt.relations.iter())
            .map(|r| r.path.strip().union_normal_form(CAP))
            .collect();
        let Some(per_rel) = per_rel else {
            return query.clone();
        };
        let combos: usize = per_rel.iter().map(Vec::len).product();
        if combos > CAP || disjuncts.len() + combos > 4 * CAP {
            return query.clone();
        }
        let mut indices = vec![0usize; per_rel.len()];
        loop {
            let relations = cqt
                .relations
                .iter()
                .enumerate()
                .map(|(i, r)| Relation::plain(r.src, per_rel[i][indices[i]].clone(), r.tgt))
                .collect();
            disjuncts.push(Cqt {
                head: cqt.head.clone(),
                atoms: cqt.atoms.clone(),
                relations,
            });
            // advance mixed-radix counter
            let mut done = true;
            for i in (0..indices.len()).rev() {
                indices[i] += 1;
                if indices[i] < per_rel[i].len() {
                    done = false;
                    break;
                }
                indices[i] = 0;
            }
            if done {
                break;
            }
        }
    }
    Ucqt {
        head: query.head.clone(),
        disjuncts,
    }
}

/// Translates a UCQT to Cypher. Errors with
/// [`SgqError::NotExpressible`] outside the supported fragment.
pub fn to_cypher(query: &Ucqt, schema: &GraphSchema) -> Result<String> {
    query.validate()?;
    let query = normalize_unions(query);
    let parts: Vec<String> = query
        .disjuncts
        .iter()
        .map(|c| cqt_to_cypher(c, schema))
        .collect::<Result<_>>()?;
    Ok(parts.join("\nUNION\n"))
}

fn cqt_to_cypher(cqt: &Cqt, schema: &GraphSchema) -> Result<String> {
    let mut label_of: std::collections::BTreeMap<VarId, LabelSet> = Default::default();
    for atom in &cqt.atoms {
        let entry = label_of
            .entry(atom.var)
            .or_insert_with(|| atom.labels.clone());
        *entry = sgq_common::sorted::intersect(entry, &atom.labels);
    }
    let mut patterns: Vec<String> = Vec::new();
    let mut where_clauses: Vec<String> = Vec::new();
    for rel in &cqt.relations {
        let hops = chain_hops(&rel.path).map_err(SgqError::NotExpressible)?;
        let mut s = node_pattern(rel.src, &label_of, schema, &mut where_clauses);
        for (i, hop) in hops.iter().enumerate() {
            let label = schema.edge_label_name(hop.label);
            let star = if hop.star { "*" } else { "" };
            if hop.reversed {
                s.push_str(&format!("<-[:{label}{star}]-"));
            } else {
                s.push_str(&format!("-[:{label}{star}]->"));
            }
            if i + 1 == hops.len() {
                s.push_str(&node_pattern(
                    rel.tgt,
                    &label_of,
                    schema,
                    &mut where_clauses,
                ));
            } else {
                s.push_str("()");
            }
        }
        patterns.push(s);
    }
    let head: Vec<String> = cqt.head.iter().map(|v| var_name(*v)).collect();
    let mut out = format!("MATCH {}", patterns.join(", "));
    if !where_clauses.is_empty() {
        out.push_str(&format!("\nWHERE {}", where_clauses.join(" AND ")));
    }
    out.push_str(&format!("\nRETURN DISTINCT {};", head.join(", ")));
    Ok(out)
}

fn var_name(v: VarId) -> String {
    format!("v{}", v.raw())
}

/// Renders a node pattern, inlining a single label and deferring label
/// sets to WHERE.
fn node_pattern(
    v: VarId,
    label_of: &std::collections::BTreeMap<VarId, LabelSet>,
    schema: &GraphSchema,
    where_clauses: &mut Vec<String>,
) -> String {
    let name = var_name(v);
    match label_of.get(&v) {
        None => format!("({name})"),
        Some(labels) if labels.len() == 1 => {
            format!("({name}:{})", schema.node_label_name(labels[0]))
        }
        Some(labels) => {
            let alts: Vec<String> = labels
                .iter()
                .map(|&l| format!("{name}:{}", schema.node_label_name(l)))
                .collect();
            where_clauses.push(format!("({})", alts.join(" OR ")));
            format!("({name})")
        }
    }
}

/// Decomposes an annotated path into Cypher hops.
fn chain_hops(path: &AnnotatedPath) -> std::result::Result<Vec<Hop>, String> {
    match path {
        AnnotatedPath::Plain(e) => plain_hops(e),
        AnnotatedPath::Concat(a, _ann, b) => {
            // annotations on rewritten queries appear as label atoms after
            // Q-translation; a raw annotated concat is still a chain
            let mut hops = chain_hops(a)?;
            hops.extend(chain_hops(b)?);
            Ok(hops)
        }
        AnnotatedPath::BranchR(..) | AnnotatedPath::BranchL(..) => {
            Err("branching is not expressible in Cypher".into())
        }
        AnnotatedPath::Conj(..) => Err("conjunction is not expressible in Cypher".into()),
    }
}

fn plain_hops(e: &PathExpr) -> std::result::Result<Vec<Hop>, String> {
    let hop = |label, reversed, star| {
        Ok(vec![Hop {
            label,
            reversed,
            star,
        }])
    };
    match e {
        PathExpr::Label(le) => hop(*le, false, false),
        PathExpr::Reverse(le) => hop(*le, true, false),
        PathExpr::Concat(a, b) => {
            let mut hops = plain_hops(a)?;
            hops.extend(plain_hops(b)?);
            Ok(hops)
        }
        PathExpr::Plus(inner) => match inner.as_ref() {
            PathExpr::Label(le) => hop(*le, false, true),
            PathExpr::Reverse(le) => hop(*le, true, true),
            _ => Err("closure of a composite path is not expressible in Cypher".into()),
        },
        PathExpr::Union(..) => Err("nested union is not expressible as one Cypher chain".into()),
        PathExpr::Conj(..) => Err("conjunction is not expressible in Cypher".into()),
        PathExpr::BranchR(..) | PathExpr::BranchL(..) => {
            Err("branching is not expressible in Cypher".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::schema::fig1_yago_schema;
    use sgq_query::cqt::{LabelAtom, Relation};

    #[test]
    fn chain_query_renders() {
        let schema = fig1_yago_schema();
        let e = parse_path("owns/isLocatedIn", &schema).unwrap();
        let q = Ucqt::path_query(e);
        assert!(cypher_expressible(&q));
        let c = to_cypher(&q, &schema).unwrap();
        assert_eq!(
            c,
            "MATCH (v0)-[:owns]->()-[:isLocatedIn]->(v1)\nRETURN DISTINCT v0, v1;"
        );
    }

    #[test]
    fn star_and_reverse() {
        let schema = fig1_yago_schema();
        let e = parse_path("-owns/isLocatedIn+", &schema).unwrap();
        let q = Ucqt::path_query(e);
        let c = to_cypher(&q, &schema).unwrap();
        assert!(c.contains("<-[:owns]-"), "{c}");
        assert!(c.contains("-[:isLocatedIn*]->"), "{c}");
    }

    #[test]
    fn label_atom_inlines() {
        let schema = fig1_yago_schema();
        let e = parse_path("isLocatedIn", &schema).unwrap();
        let mut q = Ucqt::path_query(e);
        let region = schema.node_label("REGION").unwrap();
        q.disjuncts[0].atoms.push(LabelAtom {
            var: q.head[1],
            labels: vec![region],
        });
        let c = to_cypher(&q, &schema).unwrap();
        assert!(c.contains("(v1:REGION)"), "{c}");
    }

    #[test]
    fn multi_label_atom_goes_to_where() {
        let schema = fig1_yago_schema();
        let e = parse_path("isLocatedIn", &schema).unwrap();
        let mut q = Ucqt::path_query(e);
        let region = schema.node_label("REGION").unwrap();
        let country = schema.node_label("COUNTRY").unwrap();
        q.disjuncts[0].atoms.push(LabelAtom {
            var: q.head[1],
            labels: vec![region, country],
        });
        let c = to_cypher(&q, &schema).unwrap();
        assert!(c.contains("WHERE (v1:REGION OR v1:COUNTRY)"), "{c}");
    }

    #[test]
    fn branching_is_rejected() {
        let schema = fig1_yago_schema();
        let e = parse_path("owns[isMarriedTo]", &schema).unwrap();
        let q = Ucqt::path_query(e);
        assert!(!cypher_expressible(&q));
        assert!(matches!(
            to_cypher(&q, &schema),
            Err(SgqError::NotExpressible(_))
        ));
    }

    #[test]
    fn conjunction_is_rejected() {
        let schema = fig1_yago_schema();
        let e = parse_path("isMarriedTo & isMarriedTo", &schema).unwrap();
        let q = Ucqt::path_query(e);
        assert!(!cypher_expressible(&q));
    }

    #[test]
    fn union_renders_as_cypher_union() {
        let schema = fig1_yago_schema();
        let e = parse_path("owns | livesIn", &schema).unwrap();
        // split the union across disjuncts like the rewriter does
        let a = sgq_common::VarId::new(0);
        let b = sgq_common::VarId::new(1);
        let q = Ucqt {
            head: vec![a, b],
            disjuncts: e
                .union_components()
                .into_iter()
                .map(|part| Cqt {
                    head: vec![a, b],
                    atoms: vec![],
                    relations: vec![Relation::plain(a, part.clone(), b)],
                })
                .collect(),
        };
        let c = to_cypher(&q, &schema).unwrap();
        assert!(c.contains("UNION"), "{c}");
        assert!(c.contains("-[:owns]->"), "{c}");
        assert!(c.contains("-[:livesIn]->"), "{c}");
    }

    #[test]
    fn multi_relation_pattern_uses_commas() {
        let schema = fig1_yago_schema();
        let y = sgq_common::VarId::new(0);
        let z = sgq_common::VarId::new(1);
        let m = sgq_common::VarId::new(2);
        let c1 = Cqt {
            head: vec![y],
            atoms: vec![],
            relations: vec![
                Relation::plain(y, parse_path("livesIn", &schema).unwrap(), m),
                Relation::plain(y, parse_path("owns", &schema).unwrap(), z),
            ],
        };
        let q = Ucqt::single(c1);
        let c = to_cypher(&q, &schema).unwrap();
        assert!(c.contains(", "), "{c}");
        assert!(c.contains("RETURN DISTINCT v0;"), "{c}");
    }
}

#[cfg(test)]
mod union_tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::schema::fig1_yago_schema;

    #[test]
    fn bounded_repetition_becomes_union_of_matches() {
        let schema = fig1_yago_schema();
        let e = parse_path("isMarriedTo{1,2}/livesIn", &schema).unwrap();
        let q = Ucqt::path_query(e);
        assert!(cypher_expressible(&q));
        let c = to_cypher(&q, &schema).unwrap();
        assert!(c.contains("UNION"), "{c}");
        assert!(
            c.contains("-[:isMarriedTo]->()-[:isMarriedTo]->()-[:livesIn]->"),
            "{c}"
        );
    }

    #[test]
    fn nested_path_union_distributes() {
        // IC1-style: a/(b | c/d)
        let schema = fig1_yago_schema();
        let e = parse_path("isMarriedTo/(livesIn | owns/isLocatedIn)", &schema).unwrap();
        let q = Ucqt::path_query(e);
        assert!(cypher_expressible(&q));
        let c = to_cypher(&q, &schema).unwrap();
        assert_eq!(c.matches("MATCH").count(), 2, "{c}");
    }

    #[test]
    fn distribution_keeps_branching_inexpressible() {
        let schema = fig1_yago_schema();
        let e = parse_path("owns[isMarriedTo] | livesIn", &schema).unwrap();
        let q = Ucqt::path_query(e);
        assert!(!cypher_expressible(&q));
    }

    #[test]
    fn normalize_is_semantics_preserving() {
        use sgq_graph::database::fig2_yago_database;
        let db = fig2_yago_database();
        let schema = fig1_yago_schema();
        for text in [
            "isMarriedTo{1,2}/livesIn",
            "isMarriedTo/(livesIn | owns/isLocatedIn)",
            "(owns | livesIn)/isLocatedIn+",
        ] {
            let e = parse_path(text, &schema).unwrap();
            let q = Ucqt::path_query(e.clone());
            let normalized = normalize_unions(&q);
            // every disjunct is a single-relation path query again
            let parts: Vec<PathExpr> = normalized
                .disjuncts
                .iter()
                .map(|c| c.relations[0].path.strip())
                .collect();
            let mut union_eval: Vec<(sgq_common::NodeId, sgq_common::NodeId)> = Vec::new();
            for p in &parts {
                union_eval =
                    sgq_common::sorted::union(&union_eval, &sgq_algebra::eval::eval_path(&db, p));
            }
            assert_eq!(
                union_eval,
                sgq_algebra::eval::eval_path(&db, &e),
                "normalisation changed semantics for {text}"
            );
        }
    }

    #[test]
    fn ldbc_expressible_count_covers_paper_chain_set() {
        // §5.5: the paper runs 15 chain-shaped queries on Neo4j. With
        // union distribution our expressible set is a superset of that.
        let schema = sgq_datasets_schema();
        let mut expressible = 0;
        for q in LDBC_QUERIES {
            let e = sgq_algebra::parser::parse_path(q, &schema).unwrap();
            if cypher_expressible(&Ucqt::path_query(e)) {
                expressible += 1;
            }
        }
        assert!(
            expressible >= 15,
            "at least the paper's 15 chain queries must be expressible, got {expressible}"
        );
    }

    /// A local copy of the LDBC schema shape (avoids a dev-dependency
    /// cycle with sgq-datasets).
    fn sgq_datasets_schema() -> GraphSchema {
        let mut b = GraphSchema::builder();
        b.edge("Person", "knows", "Person");
        b.edge("Person", "likes", "Post");
        b.edge("Person", "likes", "Comment");
        b.edge("Post", "hasCreator", "Person");
        b.edge("Comment", "hasCreator", "Person");
        b.edge("Comment", "replyOf", "Post");
        b.edge("Comment", "replyOf", "Comment");
        b.edge("Forum", "containerOf", "Post");
        b.edge("Forum", "hasMember", "Person");
        b.edge("Forum", "hasModerator", "Person");
        b.edge("Post", "hasTag", "Tag");
        b.edge("Comment", "hasTag", "Tag");
        b.edge("Forum", "hasTag", "Tag");
        b.edge("Person", "hasInterest", "Tag");
        b.edge("Tag", "hasType", "TagClass");
        b.edge("TagClass", "isSubclassOf", "TagClass");
        b.edge("Person", "isLocatedIn", "City");
        b.edge("Company", "isLocatedIn", "Country");
        b.edge("University", "isLocatedIn", "City");
        b.edge("Post", "isLocatedIn", "Country");
        b.edge("Comment", "isLocatedIn", "Country");
        b.edge("City", "isPartOf", "Country");
        b.edge("Country", "isPartOf", "Continent");
        b.edge("Person", "workAt", "Company");
        b.edge("Person", "studyAt", "University");
        b.build().unwrap()
    }

    const LDBC_QUERIES: [&str; 30] = [
        "knows{1,3}/(isLocatedIn | (workAt|studyAt)/isLocatedIn)",
        "knows/-hasCreator",
        "knows{1,2}/(-hasCreator[hasTag])[hasTag]",
        "(-hasCreator/-likes) | ((-hasCreator/-likes) & knows)",
        "-hasCreator/-replyOf/hasCreator",
        "knows{1,2}/-hasCreator",
        "knows{1,2}/workAt/isLocatedIn",
        "knows/-hasCreator/replyOf/hasTag/hasType/isSubclassOf+",
        "knows+",
        "(knows & (-hasCreator/replyOf/hasCreator))+",
        "knows+/studyAt/isLocatedIn+/isPartOf+",
        "likes/hasCreator/knows+/isLocatedIn+",
        "likes/replyOf+/isLocatedIn+/isPartOf+",
        "hasMember/(studyAt|workAt)/isLocatedIn+/isPartOf+",
        "-hasMember/([containerOf]hasTag)/hasType/isSubclassOf+",
        "replyOf+/isLocatedIn+/isPartOf+",
        "hasModerator/hasInterest/hasType/isSubclassOf+",
        "([containerOf/hasCreator]hasMember)/isLocatedIn/isPartOf+",
        "-hasCreator/replyOf+/hasCreator",
        "replyOf+/-containerOf/hasMember",
        "(-hasCreator/replyOf/hasCreator) | ((-hasCreator/replyOf/hasCreator) & knows)",
        "(([isLocatedIn/isPartOf]knows)[isLocatedIn/isPartOf]) & (knows/([isLocatedIn/isPartOf]knows))",
        "(knows+[isLocatedIn/isPartOf])/(-hasCreator[hasTag])/hasTag/hasType",
        "-isPartOf/-isLocatedIn/-hasModerator/containerOf/-replyOf+/hasTag/hasType",
        "replyOf+/hasCreator",
        "(knows & (studyAt/-studyAt))+",
        "-isPartOf/-isLocatedIn/-hasMember/containerOf/-replyOf+/hasTag/hasType",
        "((likes[hasTag])[-replyOf])/hasCreator",
        "-hasTag/-replyOf/hasTag",
        "knows/knows/hasInterest",
    ];
}
