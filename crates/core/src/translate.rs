//! From merged triples back to CQTs: the function `Q(α, β, ψ)` of Fig. 9,
//! the last step of the rewrite and where its results leave the arena —
//! each relation's plain expression is built as a tree here, once per
//! disjunct that uses it.

use sgq_common::VarId;
use sgq_query::cqt::Relation;
use sgq_query::vars::VarGen;

use crate::arena::{Arena, Id, Node, SetId};

/// The recursive translation `Q(α, β, ψ)` of Fig. 9. Appends the produced
/// relations, and the label atoms as `(variable, label set)`, to
/// `relations` / `atoms`, allocating fresh variables from `vars`.
pub(crate) fn q_translate(
    arena: &Arena,
    psi: Id,
    (alpha, beta): (VarId, VarId),
    vars: &mut VarGen,
    relations: &mut Vec<Relation>,
    atoms: &mut Vec<(VarId, SetId)>,
) {
    let mut q =
        |psi, ends, vars: &mut VarGen| q_translate(arena, psi, ends, vars, relations, atoms);
    match arena.node(psi) {
        // Q(α, β, ϕ) = (∅, ∅, {(α, ϕ, β)})
        Node::Plain(e) => relations.push(Relation::plain(alpha, arena.path_expr(e), beta)),
        // Q(α, β, ψ1 /L ψ2): fresh γ, η(γ) ∈ L
        Node::Concat(a, ann, b) => {
            let gamma = vars.fresh();
            q(a, (alpha, gamma), vars);
            q(b, (gamma, beta), vars);
            atoms.extend(ann.map(|labels| (gamma, labels)));
        }
        // Q(α, β, ψ1[ψ2]): fresh γ, test hangs off β
        Node::BranchR(a, b) => {
            let gamma = vars.fresh();
            q(a, (alpha, beta), vars);
            q(b, (beta, gamma), vars);
        }
        // Q(α, β, [ψ1]ψ2): fresh γ, test hangs off α
        Node::BranchL(a, b) => {
            let gamma = vars.fresh();
            q(a, (alpha, gamma), vars);
            q(b, (alpha, beta), vars);
        }
        // Q(α, β, ψ1 ∩ ψ2): both sides share the endpoints
        Node::Conj(a, b) => {
            q(a, (alpha, beta), vars);
            q(b, (alpha, beta), vars);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::tests::intern_tree;
    use crate::pipeline::{rewrite_path, RewriteOptions, RewriteOutcome};
    use crate::redundant::RedundancyRule;
    use sgq_algebra::ast::PathExpr;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::schema::fig1_yago_schema;
    use sgq_query::annotated::AnnotatedPath;
    use sgq_query::cqt::{ucqt_to_string, Ucqt};

    /// `RS(ϕ)` (Def. 11) as the paper's Example 13 removes annotations:
    /// `None` when the schema proves `ϕ` empty.
    fn schema_enriched_query(phi: &PathExpr) -> Option<Ucqt> {
        let opts = RewriteOptions {
            redundancy: RedundancyRule::EitherSide,
            ..Default::default()
        };
        match rewrite_path(&fig1_yago_schema(), phi, opts).outcome {
            RewriteOutcome::Enriched(q) => Some(q),
            RewriteOutcome::Empty => None,
            other => panic!("expected enrichment, got {other:?}"),
        }
    }

    /// [`q_translate`] of a hand-built tree from `(?x0, ?x1)`.
    fn translate(psi: &AnnotatedPath) -> (Vec<Relation>, Vec<(VarId, SetId)>) {
        let schema = fig1_yago_schema();
        let mut arena = Arena::new(&schema);
        let psi = intern_tree(&mut arena, psi);
        let ends = (VarId::new(0), VarId::new(1));
        let mut vars = VarGen::above([ends.0, ends.1]);
        let (mut relations, mut atoms) = (Vec::new(), Vec::new());
        q_translate(&arena, psi, ends, &mut vars, &mut relations, &mut atoms);
        (relations, atoms)
    }

    #[test]
    fn example13_rewritten_query() {
        // RS(ϕ4) = {α, β | ∃γ (α, lvIn/isL, γ) ∧ (γ, isL/dw+, β) ∧ η(γ) ∈ {REG}}
        let schema = fig1_yago_schema();
        let phi = parse_path("livesIn/isLocatedIn+/dealsWith+", &schema).unwrap();
        let q = schema_enriched_query(&phi).expect("satisfiable");
        assert_eq!(q.disjuncts.len(), 1);
        let c = &q.disjuncts[0];
        assert_eq!(c.relations.len(), 2);
        assert_eq!(c.atoms.len(), 1);
        let gamma = c.atoms[0].var;
        assert_eq!(
            c.atoms[0].labels,
            vec![schema.node_label("REGION").unwrap()]
        );
        // (α, livesIn/isLocatedIn, γ)
        assert_eq!(c.relations[0].src, VarId::new(0));
        assert_eq!(c.relations[0].tgt, gamma);
        assert_eq!(
            c.relations[0].path.strip(),
            parse_path("livesIn/isLocatedIn", &schema).unwrap()
        );
        // (γ, isLocatedIn/dealsWith+, β)
        assert_eq!(c.relations[1].src, gamma);
        assert_eq!(c.relations[1].tgt, VarId::new(1));
        assert_eq!(
            c.relations[1].path.strip(),
            parse_path("isLocatedIn/dealsWith+", &schema).unwrap()
        );
        // No closure of isLocatedIn survives anywhere.
        assert!(!c.relations[0].path.is_recursive());
        assert!(c.relations[1].path.is_recursive(), "dealsWith+ remains");
    }

    #[test]
    fn unsatisfiable_query_is_detected() {
        // livesIn/owns can never match under the Fig. 1 schema
        let schema = fig1_yago_schema();
        let phi = parse_path("livesIn/owns", &schema).unwrap();
        assert!(schema_enriched_query(&phi).is_none());
    }

    #[test]
    fn plus_expansion_becomes_union() {
        let schema = fig1_yago_schema();
        let phi = parse_path("isLocatedIn+", &schema).unwrap();
        let q = schema_enriched_query(&phi).unwrap();
        // lengths 1, 2, 3 -> three disjuncts, none recursive
        assert_eq!(q.disjuncts.len(), 3);
        assert!(q
            .disjuncts
            .iter()
            .all(|c| c.relations.iter().all(|r| !r.path.is_recursive())));
        let s = ucqt_to_string(&q, &schema);
        assert!(s.contains("∪"), "{s}");
    }

    #[test]
    fn branch_translation_creates_dangling_test_var() {
        let schema = fig1_yago_schema();
        let person = schema.node_label("PERSON").unwrap();
        // ψ = owns[isMarriedTo] with an annotation forcing the split
        let psi = AnnotatedPath::branch_r(
            AnnotatedPath::concat(
                AnnotatedPath::plain(parse_path("owns", &schema).unwrap()),
                Some(vec![person]),
                AnnotatedPath::plain(parse_path("-owns", &schema).unwrap()),
            ),
            AnnotatedPath::plain(parse_path("isMarriedTo", &schema).unwrap()),
        );
        let (relations, atoms) = translate(&psi);
        // owns -> γ2, -owns γ2 -> β, isMarriedTo β -> γ1
        assert_eq!(relations.len(), 3);
        assert_eq!(atoms.len(), 1);
        // the test relation starts at β
        assert_eq!(relations[2].src, VarId::new(1));
    }

    #[test]
    fn conj_translation_shares_endpoints() {
        let schema = fig1_yago_schema();
        let psi = AnnotatedPath::conj(
            AnnotatedPath::plain(parse_path("isMarriedTo", &schema).unwrap()),
            AnnotatedPath::plain(parse_path("isMarriedTo/isMarriedTo", &schema).unwrap()),
        );
        let (relations, _) = translate(&psi);
        assert_eq!(relations.len(), 2);
        assert!(relations
            .iter()
            .all(|r| r.src == VarId::new(0) && r.tgt == VarId::new(1)));
    }
}
