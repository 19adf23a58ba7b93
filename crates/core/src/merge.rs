//! Triple merging: Definition 9.
//!
//! Triples of `TS(ϕ)` sharing the same *underlying* path expression differ
//! only in their annotations; evaluating them separately and unioning
//! afterwards would duplicate work. `merge_triples` partitions `TS(ϕ)` by
//! underlying expression (and annotation *shape*) and merges each group
//! into a single merged triple whose annotations are label sets.

use sgq_common::{sorted, Result};
use sgq_query::annotated::LabelSet;

use crate::arena::{Arena, Id, IdMerged, IdTriple, Node, PathId};
use crate::infer::infer;
use crate::pipeline::RewriteOptions;
use crate::redundant::remove_redundant;

/// `TS(ϕ)` inferred, merged (Def. 9), pruned of redundant annotations
/// and canonicalised (§3.2.2): one relation's alternatives.
pub(crate) fn alternatives(
    arena: &mut Arena,
    phi: PathId,
    opts: &RewriteOptions,
) -> Result<Vec<IdMerged>> {
    let triples = infer(arena, phi, opts)?;
    let merged = merge_triples(arena, &triples);
    Ok(merged
        .into_iter()
        .map(|m| remove_redundant(arena, m, opts.redundancy))
        .collect())
}

/// Computes `MS(ϕ)`: partitions `triples` by underlying expression and
/// annotation shape, and merges each group (Definition 9). Groups come in
/// the structural order of (strip, shape); a group's triples in input
/// order.
pub(crate) fn merge_triples(arena: &mut Arena, triples: &[IdTriple]) -> Vec<IdMerged> {
    let key = |t: &IdTriple| (arena.strip(t.psi), arena.shape(t.psi));
    let mut keyed: Vec<_> = triples.iter().map(|t| (key(t), *t)).collect();
    keyed.sort_by(|((sx, hx), _), ((sy, hy), _)| {
        arena.cmp_path(*sx, *sy).then_with(|| arena.cmp(*hx, *hy))
    });
    let mut out = Vec::new();
    for group in keyed.chunk_by(|x, y| x.0 == y.0) {
        let mut src: LabelSet = group.iter().map(|(_, t)| t.src).collect();
        let mut tgt: LabelSet = group.iter().map(|(_, t)| t.tgt).collect();
        sorted::normalize(&mut src);
        sorted::normalize(&mut tgt);
        let mut psi = group[0].1.psi;
        for (_, t) in &group[1..] {
            psi = merge_with(arena, psi, t.psi)
                .expect("triples in a merge group share their annotation shape");
        }
        out.push(IdMerged {
            src: Some(arena.set(&src)),
            psi,
            tgt: Some(arena.set(&tgt)),
            lens: group[0].1.lens,
        });
    }
    out
}

/// Structurally merges two expressions of one strip, unioning
/// annotations position-wise; `None` when their structures differ. An
/// un-annotated position absorbs an annotated one: the merged triple
/// accepts everything either input accepts.
pub(crate) fn merge_with(arena: &mut Arena, a: Id, b: Id) -> Option<Id> {
    if a == b {
        return Some(a);
    }
    let (x, y) = (arena.node(a), arena.node(b));
    let mut two = |a1, a2, b1, b2| Some((merge_with(arena, a1, a2)?, merge_with(arena, b1, b2)?));
    let node = match (x, y) {
        (Node::Concat(a1, n1, b1), Node::Concat(a2, n2, b2)) => {
            let (a, b) = two(a1, a2, b1, b2)?;
            let ann = match (n1, n2) {
                (Some(l1), Some(l2)) => Some(arena.set_op(sorted::union, l1, l2)),
                _ => None,
            };
            Node::Concat(a, ann, b)
        }
        (Node::BranchR(a1, b1), Node::BranchR(a2, b2)) => {
            let (a, b) = two(a1, a2, b1, b2)?;
            Node::BranchR(a, b)
        }
        (Node::BranchL(a1, b1), Node::BranchL(a2, b2)) => {
            let (a, b) = two(a1, a2, b1, b2)?;
            Node::BranchL(a, b)
        }
        (Node::Conj(a1, b1), Node::Conj(a2, b2)) => {
            let (a, b) = two(a1, a2, b1, b2)?;
            Node::Conj(a, b)
        }
        _ => return None,
    };
    Some(arena.add(node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::tests::{intern_tree, intern_triple, MergedTriple};
    use crate::triple::Triple;
    use sgq_algebra::parser::parse_path;
    use sgq_common::NodeLabelId;
    use sgq_graph::schema::fig1_yago_schema;
    use sgq_query::annotated::AnnotatedPath;

    fn merged(s: &str) -> Vec<MergedTriple> {
        let schema = fig1_yago_schema();
        let mut arena = Arena::new(&schema);
        let phi = arena.intern_path(&parse_path(s, &schema).unwrap());
        let t = infer(&mut arena, phi, &RewriteOptions::default()).unwrap();
        let m = merge_triples(&mut arena, &t);
        m.iter().map(|m| arena.merged(m)).collect()
    }

    /// [`merge_triples`] over hand-built trees.
    fn merge_trees(triples: &[Triple]) -> Vec<MergedTriple> {
        let schema = fig1_yago_schema();
        let mut arena = Arena::new(&schema);
        let t: Vec<IdTriple> = triples
            .iter()
            .map(|t| intern_triple(&mut arena, t))
            .collect();
        let m = merge_triples(&mut arena, &t);
        m.iter().map(|m| arena.merged(m)).collect()
    }

    /// [`merge_with`] over two hand-built trees.
    fn merge_two(a: &AnnotatedPath, b: &AnnotatedPath) -> Option<AnnotatedPath> {
        let schema = fig1_yago_schema();
        let mut arena = Arena::new(&schema);
        let (a, b) = (intern_tree(&mut arena, a), intern_tree(&mut arena, b));
        merge_with(&mut arena, a, b).map(|m| arena.tree(m))
    }

    fn plain(s: &str) -> AnnotatedPath {
        AnnotatedPath::plain(parse_path(s, &fig1_yago_schema()).unwrap())
    }

    #[test]
    fn merge_unions_annotations() {
        // Example 11: (m, a+/nb/ld, p) + (m, a+/qb/rd, l)
        // merged inner annotations {n,q} and {l,r}.
        let [n, q, l, r] = [10, 11, 12, 13].map(NodeLabelId::new);
        let (a_plus, b, d) = (plain("isMarriedTo+"), plain("owns"), plain("livesIn"));
        let t = |x, y| {
            let inner = AnnotatedPath::concat(a_plus.clone(), Some(vec![x]), b.clone());
            AnnotatedPath::concat(inner, Some(vec![y]), d.clone())
        };
        let merged = merge_two(&t(n, l), &t(q, r)).unwrap();
        assert_eq!(merged, {
            let inner = AnnotatedPath::concat(a_plus.clone(), Some(vec![n, q]), b.clone());
            AnnotatedPath::concat(inner, Some(vec![l, r]), d.clone())
        });
    }

    #[test]
    fn merge_requires_same_structure() {
        assert!(merge_two(&plain("owns"), &plain("livesIn")).is_none());
        let c = AnnotatedPath::concat(plain("owns"), None, plain("livesIn"));
        assert!(merge_two(&c, &plain("owns")).is_none());
    }

    #[test]
    fn merge_none_absorbs() {
        let property = fig1_yago_schema().node_label("PROPERTY").unwrap();
        let some = AnnotatedPath::concat(plain("owns"), Some(vec![property]), plain("isLocatedIn"));
        let none = AnnotatedPath::concat(plain("owns"), None, plain("isLocatedIn"));
        assert_eq!(merge_two(&some, &none), Some(none));
    }

    #[test]
    fn single_triple_groups_alone() {
        let schema = fig1_yago_schema();
        let m = merged("owns");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].display(&schema), "({PERSON}, owns, {PROPERTY})");
    }

    #[test]
    fn overloaded_label_merges_into_one() {
        // isLocatedIn: 3 triples, same underlying expression -> 1 merged
        let schema = fig1_yago_schema();
        let m = merged("isLocatedIn");
        assert_eq!(m.len(), 1);
        assert_eq!(
            m[0].display(&schema),
            "({CITY,PROPERTY,REGION}, isLocatedIn, {CITY,REGION,COUNTRY})"
        );
    }

    #[test]
    fn plus_expansion_groups_by_length() {
        // TS(isLocatedIn+) has 6 triples over 3 underlying expressions
        // (lengths 1, 2 and 3) -> 3 merged triples.
        let m = merged("isLocatedIn+");
        assert_eq!(m.len(), 3);
        let mut lens: Vec<usize> = m.iter().map(|t| t.plus_paths[0] as usize).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn example11_merge() {
        // Two hand-built triples with the same underlying a+/b/d
        let schema = fig1_yago_schema();
        let a_plus = AnnotatedPath::plain(parse_path("isMarriedTo+", &schema).unwrap());
        let b = AnnotatedPath::plain(parse_path("owns", &schema).unwrap());
        let d = AnnotatedPath::plain(parse_path("livesIn", &schema).unwrap());
        let mk = |ann1: u32, ann2: u32, src: u32, tgt: u32| {
            Triple::new(
                NodeLabelId::new(src),
                AnnotatedPath::concat(
                    AnnotatedPath::concat(
                        a_plus.clone(),
                        Some(vec![NodeLabelId::new(ann1)]),
                        b.clone(),
                    ),
                    Some(vec![NodeLabelId::new(ann2)]),
                    d.clone(),
                ),
                NodeLabelId::new(tgt),
            )
        };
        let t1 = mk(10, 12, 0, 3);
        let t2 = mk(11, 13, 0, 4);
        let m = merge_trees(&[t1, t2]);
        assert_eq!(m.len(), 1);
        let mt = &m[0];
        assert_eq!(mt.src_labels.as_deref(), Some(&[NodeLabelId::new(0)][..]));
        assert_eq!(
            mt.tgt_labels.as_deref(),
            Some(&[NodeLabelId::new(3), NodeLabelId::new(4)][..])
        );
        match &mt.psi {
            AnnotatedPath::Concat(inner, ann2, _) => {
                assert_eq!(
                    ann2.as_deref(),
                    Some(&[NodeLabelId::new(12), NodeLabelId::new(13)][..])
                );
                match inner.as_ref() {
                    AnnotatedPath::Concat(_, ann1, _) => assert_eq!(
                        ann1.as_deref(),
                        Some(&[NodeLabelId::new(10), NodeLabelId::new(11)][..])
                    ),
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn union_splits_groups() {
        let m = merged("owns | livesIn");
        assert_eq!(m.len(), 2);
    }
}
