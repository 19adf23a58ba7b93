//! Redundant-annotation removal (§3.2.2) and canonicalisation.
//!
//! An annotation is *redundant* when the schema already guarantees it: if
//! every label that can occur at an annotated position (in any database
//! conforming to the schema) is contained in the annotation's label set,
//! the filter can never remove anything and would only cost an extra
//! semi-join. We remove such annotations, then *canonicalise* the
//! expression: annotation-free regions collapse back into plain path
//! expressions and concatenation spines are re-segmented at the surviving
//! annotations — which is how Example 13's
//! `(∅, lvIn/isL/{REG}isL/dw+, ∅)` turns into the two-relation CQT
//! `(α, lvIn/isL, γ) ∧ (γ, isL/dw+, β) ∧ η(γ) ∈ {REG}`.
//!
//! Label-set computations here are *over-approximations* of the labels
//! that can occur, which makes removal sound: we only drop a filter when
//! even the over-approximation is covered.

use crate::arena::{Arena, Id, IdMerged, Node, Path, SetId};

/// When is an annotation *redundant* (§3.2.2)?
///
/// The paper is ambiguous: Example 13 removes an annotation as soon as one
/// adjacent side implies it (`EitherSide`), while the plans of Fig. 15–17
/// and the §5.2 revert counts only make sense if annotations survive as
/// long as they can pre-filter *some* join side (`BothSides`). We default
/// to `BothSides` — it reproduces the paper's measured system behaviour —
/// and keep `EitherSide` for Example 13 fidelity (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RedundancyRule {
    /// Remove when *both* adjacent sides already imply the label set: the
    /// filter can prune neither join side, so it is pure overhead.
    #[default]
    BothSides,
    /// Remove when either adjacent side implies the label set
    /// (Example 13's behaviour).
    EitherSide,
    /// Never remove: every annotation inference produced survives.
    Never,
}

/// Removes redundant annotations from `psi` (§3.2.2) under `rule`. The
/// labels an annotation's sides imply are their strips' endpoints, which
/// removal leaves alone: each is read off the arena, not re-derived.
fn remove_in_expr(arena: &mut Arena, psi: Id, rule: RedundancyRule) -> Id {
    let node = arena.node(psi);
    let node = match (node, node.map_kids(|k| remove_in_expr(arena, k, rule))) {
        (Node::Plain(_), _) => return psi,
        (Node::Concat(a, Some(labels), b), Node::Concat(a2, _, b2)) => {
            let implied_left = arena.subset(arena.ends(arena.strip(a)).1, labels);
            let implied_right = arena.subset(arena.ends(arena.strip(b)).0, labels);
            let redundant = match rule {
                RedundancyRule::EitherSide => implied_left || implied_right,
                RedundancyRule::BothSides => implied_left && implied_right,
                RedundancyRule::Never => false,
            };
            Node::Concat(a2, (!redundant).then_some(labels), b2)
        }
        (_, removed) => removed,
    };
    arena.add(node)
}

/// Removes redundant annotations (internal positions and endpoints) and
/// canonicalises the expression under `rule`.
pub(crate) fn remove_redundant(
    arena: &mut Arena,
    triple: IdMerged,
    rule: RedundancyRule,
) -> IdMerged {
    let psi = remove_in_expr(arena, triple.psi, rule);
    // Endpoint constraints never pre-filter another join side within the
    // triple itself, so the schema-implied check applies under every rule
    // except `Never`.
    let (src_possible, tgt_possible) = arena.ends(arena.strip(psi));
    let arena_ref = &*arena;
    let keep = |possible| {
        move |labels: &SetId| rule == RedundancyRule::Never || !arena_ref.subset(possible, *labels)
    };
    IdMerged {
        src: triple.src.filter(keep(src_possible)),
        tgt: triple.tgt.filter(keep(tgt_possible)),
        psi: canonicalize(arena, psi),
        lens: triple.lens,
    }
}

/// Canonicalises an annotated expression:
///
/// * subtrees with no annotations collapse into one plain expression,
/// * concatenation spines are flattened and re-segmented so that maximal
///   annotation-free runs become single plain expressions.
pub(crate) fn canonicalize(arena: &mut Arena, psi: Id) -> Id {
    if !arena.annotated(psi) {
        return arena.plain(arena.strip(psi));
    }
    let node = match arena.node(psi) {
        Node::Plain(_) => return psi,
        Node::Concat(..) => {
            let mut spine = None;
            resegment(arena, psi, None, &mut spine);
            let (prefix, last) = spine.expect("a spine has parts");
            return prefix.map_or(last, |(acc, ann)| arena.add(Node::Concat(acc, ann, last)));
        }
        other => other.map_kids(|k| canonicalize(arena, k)),
    };
    arena.add(node)
}

/// A concatenation spine re-segmented so far: the left-associated
/// prefix with the annotation that joins it to the last part, and the
/// last part, which the next part may still coalesce with.
type Spine = Option<(Option<(Id, Option<SetId>)>, Id)>;

/// Walks `psi`'s spine left to right, canonicalising each part and
/// coalescing adjacent plain parts joined by `None`; `ann` joins `psi`'s
/// first part to the spine so far.
fn resegment(arena: &mut Arena, psi: Id, ann: Option<SetId>, spine: &mut Spine) {
    if let Node::Concat(a, inner, b) = arena.node(psi) {
        resegment(arena, a, ann, spine);
        return resegment(arena, b, inner, spine);
    }
    let part = canonicalize(arena, psi);
    *spine = Some(match spine.take() {
        None => (None, part),
        Some((prefix, last)) => match (ann, arena.node(last), arena.node(part)) {
            (None, Node::Plain(l), Node::Plain(r)) => {
                let joined = arena.path(Path::Concat(l, r));
                (prefix, arena.plain(joined))
            }
            _ => {
                let acc = prefix.map_or(last, |(acc, a)| arena.add(Node::Concat(acc, a, last)));
                (Some((acc, ann)), part)
            }
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::tests::intern_tree;
    use crate::arena::tests::MergedTriple;
    use crate::infer::infer;
    use crate::merge::{alternatives, merge_triples};
    use crate::pipeline::RewriteOptions;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::schema::fig1_yago_schema;
    use sgq_query::annotated::AnnotatedPath;

    fn pipeline(s: &str, rule: RedundancyRule) -> Vec<MergedTriple> {
        let schema = fig1_yago_schema();
        let mut arena = Arena::new(&schema);
        let phi = arena.intern_path(&parse_path(s, &schema).unwrap());
        let opts = RewriteOptions {
            redundancy: rule,
            ..Default::default()
        };
        let m = alternatives(&mut arena, phi, &opts).unwrap();
        m.iter().map(|m| arena.merged(m)).collect()
    }

    #[test]
    fn endpoints_of_plain_exprs() {
        let schema = fig1_yago_schema();
        let mut arena = Arena::new(&schema);
        let e = arena.intern_path(&parse_path("livesIn", &schema).unwrap());
        let (src, tgt) = arena.ends(e);
        assert_eq!(arena.labels(src), [schema.node_label("PERSON").unwrap()]);
        assert_eq!(arena.labels(tgt), [schema.node_label("CITY").unwrap()]);
        let e = arena.intern_path(&parse_path("isLocatedIn+", &schema).unwrap());
        let (src, tgt) = arena.ends(e);
        assert_eq!(arena.labels(src).len(), 3);
        assert_eq!(arena.labels(tgt).len(), 3);
    }

    #[test]
    fn example13_final_triple() {
        // ϕ4 = livesIn/isLocatedIn+/dealsWith+ reduces to
        // (∅, lvIn/isL/{REG}isL/dw+, ∅)
        let schema = fig1_yago_schema();
        let m = pipeline(
            "livesIn/isLocatedIn+/dealsWith+",
            RedundancyRule::EitherSide,
        );
        assert_eq!(m.len(), 1);
        let t = &m[0];
        assert_eq!(t.src_labels, None, "PERSON endpoint is schema-implied");
        assert_eq!(t.tgt_labels, None, "COUNTRY endpoint is schema-implied");
        assert_eq!(
            t.display(&schema),
            "(∅, livesIn/isLocatedIn/{REGION}isLocatedIn/dealsWith+, ∅)"
        );
    }

    #[test]
    fn fully_redundant_reverts_to_plain() {
        // owns/isLocatedIn: the PROPERTY annotation is implied by the schema
        let schema = fig1_yago_schema();
        let m = pipeline("owns/isLocatedIn", RedundancyRule::EitherSide);
        assert_eq!(m.len(), 1);
        let t = &m[0];
        assert_eq!(t.src_labels, None);
        // target CITY is implied by owns/isLocatedIn? targets(isLocatedIn)
        // = {CITY,REGION,COUNTRY}, constraint {CITY} excludes -> kept
        assert!(t.tgt_labels.is_some());
        assert_eq!(
            t.psi,
            AnnotatedPath::Plain(parse_path("owns/isLocatedIn", &schema).unwrap())
        );
    }

    #[test]
    fn canonicalize_collapses_plain_runs() {
        let schema = fig1_yago_schema();
        let a = AnnotatedPath::plain(parse_path("livesIn", &schema).unwrap());
        let b = AnnotatedPath::plain(parse_path("isLocatedIn", &schema).unwrap());
        let c = AnnotatedPath::plain(parse_path("isLocatedIn", &schema).unwrap());
        let d = AnnotatedPath::plain(parse_path("dealsWith+", &schema).unwrap());
        let region = schema.node_label("REGION").unwrap();
        // ((a/None b)/{REG} c)/None d  →  Plain(a/b) /{REG} Plain(c/d)
        let spine = AnnotatedPath::concat(
            AnnotatedPath::concat(AnnotatedPath::concat(a, None, b), Some(vec![region]), c),
            None,
            d,
        );
        let mut arena = Arena::new(&schema);
        let spine = intern_tree(&mut arena, &spine);
        let canon = canonicalize(&mut arena, spine);
        let canon = arena.tree(canon);
        match &canon {
            AnnotatedPath::Concat(left, ann, right) => {
                assert_eq!(ann.as_deref(), Some(&[region][..]));
                assert_eq!(
                    left.as_ref(),
                    &AnnotatedPath::Plain(parse_path("livesIn/isLocatedIn", &schema).unwrap())
                );
                assert_eq!(
                    right.as_ref(),
                    &AnnotatedPath::Plain(parse_path("isLocatedIn/dealsWith+", &schema).unwrap())
                );
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn canonicalize_is_semantics_preserving() {
        use sgq_graph::database::fig2_yago_database;
        use sgq_query::annotated::eval_annotated;
        let schema = fig1_yago_schema();
        let db = fig2_yago_database();
        for s in [
            "livesIn/isLocatedIn+/dealsWith+",
            "owns/isLocatedIn",
            "isLocatedIn+",
        ] {
            let mut arena = Arena::new(&schema);
            let phi = arena.intern_path(&parse_path(s, &schema).unwrap());
            let triples = infer(&mut arena, phi, &RewriteOptions::default()).unwrap();
            for m in merge_triples(&mut arena, &triples) {
                for rule in [
                    RedundancyRule::BothSides,
                    RedundancyRule::EitherSide,
                    RedundancyRule::Never,
                ] {
                    let removed = remove_redundant(&mut arena, m, rule);
                    assert_eq!(
                        eval_annotated(&db, &arena.tree(m.psi)),
                        eval_annotated(&db, &arena.tree(removed.psi)),
                        "redundancy removal ({rule:?}) changed semantics for {s}"
                    );
                }
            }
        }
    }
}
