//! The type-inference system `⊢S ϕ : t` of Fig. 8.
//!
//! [`infer_triples`] computes `TS(ϕ) = {t | ⊢S ϕ : t}` — the set of all
//! graph schema triples compatible with `ϕ` — by structural induction,
//! delegating transitive closures to [`crate::plc`]. It runs on the ids of
//! one arena (`crate::arena`); `infer_triples` extracts the result as trees.
//!
//! The inference rules:
//!
//! ```text
//! TBASIC    (ln, le, l'n) ∈ Tb(S)            ⟹ ⊢ le : (ln, le, l'n)
//! TMINUS    ⊢ ϕ : (ln, ψ, l'n)               ⟹ ⊢ -ϕ : (l'n, -ψ, ln)
//! TCONCAT   ⊢ ϕ1:(ln,ψ1,l'n), ⊢ ϕ2:(l'n,ψ2,l''n)
//!                                            ⟹ ⊢ ϕ1/ϕ2 : (ln, ψ1/l'n ψ2, l''n)
//! TUNION    ⊢ ϕi : t                         ⟹ ⊢ ϕ1 ∪ ϕ2 : t
//! TCONJ     ⊢ ϕ1:(ln,ψ1,l'n), ⊢ ϕ2:(ln,ψ2,l'n)
//!                                            ⟹ ⊢ ϕ1 ∩ ϕ2 : (ln, ψ1∩ψ2, l'n)
//! TBRANCHR  ⊢ ϕ1:(ln,ψ1,l'n), ⊢ ϕ2:(l'n,ψ2,l''n)
//!                                            ⟹ ⊢ ϕ1[ϕ2] : (ln, ψ1[ψ2], l'n)
//! TBRANCHL  ⊢ ϕ1:(ln,ψ1,l'n), ⊢ ϕ2:(ln,ψ2,l''n)
//!                                            ⟹ ⊢ [ϕ1]ϕ2 : (ln, [ψ1]ψ2, l''n)
//! TPLUS     t ∈ PlC(ϕ, TS(ϕ))               ⟹ ⊢ ϕ+ : t
//! ```

use sgq_algebra::ast::PathExpr;
use sgq_common::{EdgeLabelId, NodeLabelId, Result, SgqError};
use sgq_graph::GraphSchema;

use crate::arena::{Arena, IdTriple, Node, Path, PathId, EMPTY};
use crate::pipeline::RewriteOptions;
use crate::plc::plc;
use crate::triple::Triple;

/// Computes `TS(ϕ)` under `schema`, sorted and deduplicated.
pub fn infer_triples(
    schema: &GraphSchema,
    expr: &PathExpr,
    opts: RewriteOptions,
) -> Result<Vec<Triple>> {
    let mut arena = Arena::new(schema);
    let phi = arena.intern_path(expr);
    let triples = infer(&mut arena, phi, &opts)?;
    let tree = |t: &IdTriple| {
        let lens = arena.lens_of(t.lens).to_vec();
        Triple::with_paths(t.src, arena.tree(t.psi), t.tgt, lens)
    };
    Ok(triples.iter().map(tree).collect())
}

/// Every intermediate `TS(ϕ)` is at most `max_triples` large; past it
/// the rewrite aborts, and the pipeline reverts to the baseline query.
fn check_budget(set: &[IdTriple], opts: &RewriteOptions) -> Result<()> {
    if set.len() > opts.max_triples {
        return Err(SgqError::Execution(format!(
            "type inference exceeded the triple budget ({} > {})",
            set.len(),
            opts.max_triples
        )));
    }
    Ok(())
}

/// `TS(ϕ)` of the interned `phi`, in the structural order of
/// `(src, ψ, tgt, plus_paths)` and deduplicated; the budget is checked on
/// every sub-expression's set.
pub(crate) fn infer(
    arena: &mut Arena,
    phi: PathId,
    opts: &RewriteOptions,
) -> Result<Vec<IdTriple>> {
    let mut out: Vec<IdTriple> = match arena.path_node(phi) {
        // TBASIC
        Path::Label(le) => basic(arena, phi, le, false),
        // TMINUS (reverse flips endpoints)
        Path::Reverse(le) => basic(arena, phi, le, true),
        // TCONCAT
        Path::Concat(a, b) => join(arena, a, b, opts, |arena, t1, t2| {
            let mid = |arena: &mut Arena| Some(arena.set(&[t1.tgt]));
            (t1.tgt == t2.src).then(|| (t1.src, Node::Concat(t1.psi, mid(arena), t2.psi), t2.tgt))
        })?,
        // TUNION (left and right)
        Path::Union(a, b) => {
            let mut out = infer(arena, a, opts)?;
            out.extend(infer(arena, b, opts)?);
            out
        }
        // TCONJ: both endpoints must agree
        Path::Conj(a, b) => join(arena, a, b, opts, |_, t1, t2| {
            let agree = t1.src == t2.src && t1.tgt == t2.tgt;
            agree.then_some((t1.src, Node::Conj(t1.psi, t2.psi), t1.tgt))
        })?,
        // TBRANCHR: result endpoints come from ϕ1
        Path::BranchR(a, b) => join(arena, a, b, opts, |_, t1, t2| {
            (t1.tgt == t2.src).then_some((t1.src, Node::BranchR(t1.psi, t2.psi), t1.tgt))
        })?,
        // TBRANCHL: result endpoints are (sc(ϕ2) = sc(ϕ1), tr(ϕ2))
        Path::BranchL(a, b) => join(arena, a, b, opts, |_, t1, t2| {
            (t1.src == t2.src).then_some((t2.src, Node::BranchL(t1.psi, t2.psi), t2.tgt))
        })?,
        // TPLUS
        Path::Plus(a) => {
            let ta = infer(arena, a, opts)?;
            plc(arena, a, &ta, opts.max_paths)
        }
    };
    out.sort_unstable_by(|x, y| arena.cmp_triple(x, y));
    out.dedup();
    check_budget(&out, opts)?;
    Ok(out)
}

/// `TS(l)`, or `TS(-l)` when `reverse`: one triple per schema edge of
/// `l`, in the schema's order, `phi` being `l` or `-l`.
pub(crate) fn basic(
    arena: &mut Arena,
    phi: PathId,
    le: EdgeLabelId,
    reverse: bool,
) -> Vec<IdTriple> {
    let psi = arena.plain(phi);
    let flip = |&(s, t)| if reverse { (t, s) } else { (s, t) };
    let pairs = arena.schema().triples_for_edge_label(le).iter().map(flip);
    pairs
        .map(|(s, t)| IdTriple::new(s, psi, t, EMPTY))
        .collect()
}

/// The binary rules: every pair of `TS(a) × TS(b)` that `rule` accepts,
/// their plus-path lengths joined.
fn join(
    arena: &mut Arena,
    a: PathId,
    b: PathId,
    opts: &RewriteOptions,
    rule: impl Fn(&mut Arena, &IdTriple, &IdTriple) -> Option<(NodeLabelId, Node, NodeLabelId)>,
) -> Result<Vec<IdTriple>> {
    let ta = infer(arena, a, opts)?;
    let tb = infer(arena, b, opts)?;
    let mut out = Vec::new();
    for t1 in &ta {
        for t2 in &tb {
            if let Some((src, node, tgt)) = rule(arena, t1, t2) {
                let lens = arena.join_lens(t1.lens, t2.lens);
                out.push(IdTriple::new(src, arena.add(node), tgt, lens));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::schema::fig1_yago_schema;
    use sgq_query::cqt::annotated_to_string;

    fn infer(s: &str) -> Vec<Triple> {
        let schema = fig1_yago_schema();
        let e = parse_path(s, &schema).unwrap();
        infer_triples(&schema, &e, RewriteOptions::default()).unwrap()
    }

    fn rendered(s: &str) -> Vec<String> {
        let schema = fig1_yago_schema();
        infer(s).iter().map(|t| t.display(&schema)).collect()
    }

    #[test]
    fn tbasic_single_label() {
        let r = rendered("owns");
        assert_eq!(r, vec!["(PERSON, owns, PROPERTY)"]);
    }

    #[test]
    fn tbasic_overloaded_label() {
        let r = rendered("isLocatedIn");
        assert_eq!(r.len(), 3);
        assert!(r.contains(&"(PROPERTY, isLocatedIn, CITY)".to_string()));
        assert!(r.contains(&"(CITY, isLocatedIn, REGION)".to_string()));
        assert!(r.contains(&"(REGION, isLocatedIn, COUNTRY)".to_string()));
    }

    #[test]
    fn tminus_flips() {
        let r = rendered("-owns");
        assert_eq!(r, vec!["(PROPERTY, -owns, PERSON)"]);
    }

    #[test]
    fn tconcat_joins_on_middle_label() {
        // owns/isLocatedIn: only PROPERTY matches the middle
        let r = rendered("owns/isLocatedIn");
        assert_eq!(r, vec!["(PERSON, owns/{PROPERTY}isLocatedIn, CITY)"]);
    }

    #[test]
    fn tconcat_empty_when_incompatible() {
        // livesIn ends at CITY; owns starts at PERSON — no chain
        assert!(infer("livesIn/owns").is_empty());
    }

    #[test]
    fn tunion_unions() {
        let r = infer("owns | livesIn");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn tconj_requires_both_endpoints() {
        let r = rendered("isMarriedTo & isMarriedTo");
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("PERSON"));
        assert!(infer("owns & livesIn").is_empty());
    }

    #[test]
    fn tbranch_r_keeps_phi1_endpoints() {
        // livesIn[isLocatedIn]: CITY has an outgoing isLocatedIn
        let r = rendered("livesIn[isLocatedIn]");
        assert_eq!(r, vec!["(PERSON, livesIn[isLocatedIn], CITY)"]);
    }

    #[test]
    fn tbranch_l_takes_phi2_endpoints() {
        let r = rendered("[owns]livesIn");
        assert_eq!(r, vec!["(PERSON, [owns]livesIn, CITY)"]);
    }

    #[test]
    fn table1_isl_plus() {
        // Table 1 row 2: TS(isL+) has 6 triples
        let schema = fig1_yago_schema();
        let r = infer("isLocatedIn+");
        assert_eq!(r.len(), 6);
        let rendered: Vec<String> = r.iter().map(|t| t.display(&schema)).collect();
        for expected in [
            "(PROPERTY, isLocatedIn, CITY)",
            "(CITY, isLocatedIn, REGION)",
            "(REGION, isLocatedIn, COUNTRY)",
            "(PROPERTY, isLocatedIn/{CITY}isLocatedIn, REGION)",
            "(CITY, isLocatedIn/{REGION}isLocatedIn, COUNTRY)",
            "(PROPERTY, isLocatedIn/{CITY}isLocatedIn/{REGION}isLocatedIn, COUNTRY)",
        ] {
            assert!(
                rendered.contains(&expected.to_string()),
                "missing {expected} in {rendered:?}"
            );
        }
    }

    #[test]
    fn table1_dw_plus() {
        let r = rendered("dealsWith+");
        assert_eq!(r, vec!["(COUNTRY, dealsWith+, COUNTRY)"]);
    }

    #[test]
    fn table1_lvin_isl_plus() {
        // Table 1 row 4: two triples
        let r = rendered("livesIn/isLocatedIn+");
        assert_eq!(r.len(), 2);
        assert!(r.contains(&"(PERSON, livesIn/{CITY}isLocatedIn, REGION)".to_string()));
        assert!(r.contains(
            &"(PERSON, livesIn/{CITY}isLocatedIn/{REGION}isLocatedIn, COUNTRY)".to_string()
        ));
    }

    #[test]
    fn table1_full_phi4() {
        // Table 1 row 5: exactly one triple
        let schema = fig1_yago_schema();
        let r = infer("livesIn/isLocatedIn+/dealsWith+");
        assert_eq!(r.len(), 1);
        let s = r[0].display(&schema);
        assert_eq!(
            s,
            "(PERSON, livesIn/{CITY}isLocatedIn/{REGION}isLocatedIn/{COUNTRY}dealsWith+, COUNTRY)"
        );
        // The closure of isLocatedIn was replaced by one fixed path of length 2.
        assert_eq!(r[0].plus_paths, vec![2]);
    }

    #[test]
    fn unknown_label_gives_empty() {
        // a label with no schema edge yields the empty triple set
        let mut b = sgq_graph::GraphSchema::builder();
        b.node("X", &[]);
        b.edge("X", "r", "X");
        let schema = b.build().unwrap();
        let mut interner = sgq_common::Interner::new();
        interner.intern("r");
        interner.intern("ghost");
        let e = parse_path("ghost", &interner).unwrap();
        let r = infer_triples(&schema, &e, RewriteOptions::default()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn budget_is_enforced() {
        let schema = fig1_yago_schema();
        let e = parse_path("isLocatedIn+", &schema).unwrap();
        let opts = RewriteOptions {
            max_triples: 2,
            ..Default::default()
        };
        assert!(infer_triples(&schema, &e, opts).is_err());
    }

    fn rendered_with(s: &str, max_paths: usize) -> Vec<String> {
        let schema = fig1_yago_schema();
        let e = parse_path(s, &schema).unwrap();
        let opts = RewriteOptions {
            max_paths,
            ..Default::default()
        };
        let r = infer_triples(&schema, &e, opts).unwrap();
        r.iter().map(|t| t.display(&schema)).collect()
    }

    const ISL_REACH: [&str; 6] = [
        "(CITY, isLocatedIn+, REGION)",
        "(CITY, isLocatedIn+, COUNTRY)",
        "(PROPERTY, isLocatedIn+, CITY)",
        "(PROPERTY, isLocatedIn+, REGION)",
        "(PROPERTY, isLocatedIn+, COUNTRY)",
        "(REGION, isLocatedIn+, COUNTRY)",
    ];

    #[test]
    fn a_zero_path_budget_gives_the_reachability_closure() {
        assert_eq!(rendered_with("isLocatedIn+", 0), ISL_REACH);
        assert_eq!(
            rendered_with("-isLocatedIn+", 0),
            [
                "(CITY, -isLocatedIn+, PROPERTY)",
                "(REGION, -isLocatedIn+, CITY)",
                "(REGION, -isLocatedIn+, PROPERTY)",
                "(COUNTRY, -isLocatedIn+, CITY)",
                "(COUNTRY, -isLocatedIn+, PROPERTY)",
                "(COUNTRY, -isLocatedIn+, REGION)",
            ]
        );
    }

    #[test]
    fn max_paths_below_the_enumeration_falls_back_to_reachability() {
        // isLocatedIn's label graph has exactly six simple paths.
        assert_eq!(rendered_with("isLocatedIn+", 5), ISL_REACH);
        assert_eq!(
            rendered_with("isLocatedIn+", 6),
            [
                "(CITY, isLocatedIn, REGION)",
                "(CITY, isLocatedIn/{REGION}isLocatedIn, COUNTRY)",
                "(PROPERTY, isLocatedIn, CITY)",
                "(PROPERTY, isLocatedIn/{CITY}isLocatedIn, REGION)",
                "(PROPERTY, isLocatedIn/{CITY}isLocatedIn/{REGION}isLocatedIn, COUNTRY)",
                "(REGION, isLocatedIn, COUNTRY)",
            ]
        );
        assert_eq!(rendered_with("-isLocatedIn+", 5).len(), 6);
        assert!(rendered_with("-isLocatedIn+", 5)
            .iter()
            .all(|t| t.contains("-isLocatedIn+")));
        assert_eq!(
            rendered_with("-isLocatedIn+", 6)[..2],
            [
                "(CITY, -isLocatedIn, PROPERTY)",
                "(REGION, -isLocatedIn, CITY)",
            ]
        );
    }

    #[test]
    fn annotated_display_sanity() {
        let schema = fig1_yago_schema();
        let r = infer("owns/isLocatedIn");
        assert_eq!(
            annotated_to_string(&r[0].psi, &schema),
            "owns/{PROPERTY}isLocatedIn"
        );
    }
}
