//! Annotated path expressions (§3.1.1) and their semantics.
//!
//! An annotated path expression `ψ` follows the grammar of Fig. 3 except
//! that a concatenation may carry a node-label annotation: `ψ1 /ln ψ2`
//! matches paths that follow `ψ1`, arrive at a node labeled `ln`, and
//! continue through `ψ2`. After merging (Def. 9) annotations become label
//! *sets*, and after redundant-annotation removal (§3.2.2) they may
//! disappear (`None`).
//!
//! Per the syntactic observations of §3.2.3, expressions produced by the
//! inference system are either plain, a concatenation, a branching or a
//! conjunction — unions and transitive closures only occur inside the
//! [`AnnotatedPath::Plain`] leaf, never with annotations beneath them.

use sgq_algebra::ast::PathExpr;
use sgq_algebra::eval::{self, PairSet};
use sgq_common::{sorted, FxHashMap, NodeId, NodeLabelId};
use sgq_graph::GraphDatabase;

/// A sorted, deduplicated set of node labels.
pub type LabelSet = Vec<NodeLabelId>;

/// An annotated path expression `ψ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnnotatedPath {
    /// A plain sub-expression with no annotations inside.
    Plain(PathExpr),
    /// `ψ1 /L ψ2` — `None` means un-annotated, `Some(L)` restricts the
    /// intermediate node's label to `L`.
    Concat(Box<AnnotatedPath>, Option<LabelSet>, Box<AnnotatedPath>),
    /// `ψ1[ψ2]`.
    BranchR(Box<AnnotatedPath>, Box<AnnotatedPath>),
    /// `[ψ1]ψ2`.
    BranchL(Box<AnnotatedPath>, Box<AnnotatedPath>),
    /// `ψ1 ∩ ψ2`.
    Conj(Box<AnnotatedPath>, Box<AnnotatedPath>),
}

impl AnnotatedPath {
    /// Wraps a plain expression.
    pub fn plain(e: PathExpr) -> Self {
        AnnotatedPath::Plain(e)
    }

    /// `a /L b`.
    pub fn concat(a: AnnotatedPath, ann: Option<LabelSet>, b: AnnotatedPath) -> Self {
        AnnotatedPath::Concat(Box::new(a), ann, Box::new(b))
    }

    /// `a[b]`.
    pub fn branch_r(a: AnnotatedPath, b: AnnotatedPath) -> Self {
        AnnotatedPath::BranchR(Box::new(a), Box::new(b))
    }

    /// `[a]b`.
    pub fn branch_l(a: AnnotatedPath, b: AnnotatedPath) -> Self {
        AnnotatedPath::BranchL(Box::new(a), Box::new(b))
    }

    /// `a ∩ b`.
    pub fn conj(a: AnnotatedPath, b: AnnotatedPath) -> Self {
        AnnotatedPath::Conj(Box::new(a), Box::new(b))
    }

    /// The *underlying* plain path expression: `ψ` with every annotation
    /// dropped. Merging (Def. 9) groups triples by this value.
    pub fn strip(&self) -> PathExpr {
        match self {
            AnnotatedPath::Plain(e) => e.clone(),
            AnnotatedPath::Concat(a, _, b) => PathExpr::concat(a.strip(), b.strip()),
            AnnotatedPath::BranchR(a, b) => PathExpr::branch_r(a.strip(), b.strip()),
            AnnotatedPath::BranchL(a, b) => PathExpr::branch_l(a.strip(), b.strip()),
            AnnotatedPath::Conj(a, b) => PathExpr::conj(a.strip(), b.strip()),
        }
    }

    /// Whether any annotation survives in the expression.
    pub fn has_annotations(&self) -> bool {
        match self {
            AnnotatedPath::Plain(_) => false,
            AnnotatedPath::Concat(a, ann, b) => {
                ann.is_some() || a.has_annotations() || b.has_annotations()
            }
            AnnotatedPath::BranchR(a, b)
            | AnnotatedPath::BranchL(a, b)
            | AnnotatedPath::Conj(a, b) => a.has_annotations() || b.has_annotations(),
        }
    }

    /// Whether the underlying expression contains transitive closure.
    pub fn is_recursive(&self) -> bool {
        match self {
            AnnotatedPath::Plain(e) => e.is_recursive(),
            AnnotatedPath::Concat(a, _, b)
            | AnnotatedPath::BranchR(a, b)
            | AnnotatedPath::BranchL(a, b)
            | AnnotatedPath::Conj(a, b) => a.is_recursive() || b.is_recursive(),
        }
    }
}

impl From<PathExpr> for AnnotatedPath {
    fn from(e: PathExpr) -> Self {
        AnnotatedPath::Plain(e)
    }
}

/// Evaluates `JψKD` — the annotated semantics of §3.1.1 — as a reference
/// implementation (sorted pair sets).
pub fn eval_annotated(db: &GraphDatabase, psi: &AnnotatedPath) -> PairSet {
    match psi {
        AnnotatedPath::Plain(e) => eval::eval_path(db, e),
        AnnotatedPath::Concat(a, ann, b) => {
            let a = eval_annotated(db, a);
            let b = eval_annotated(db, b);
            compose_filtered(db, &a, ann.as_deref(), &b)
        }
        AnnotatedPath::BranchR(a, b) => {
            let a = eval_annotated(db, a);
            let b = eval_annotated(db, b);
            let sources = eval::source_set(&b);
            a.into_iter()
                .filter(|&(_, m)| sorted::contains(&sources, &m))
                .collect()
        }
        AnnotatedPath::BranchL(a, b) => {
            let a = eval_annotated(db, a);
            let b = eval_annotated(db, b);
            let sources = eval::source_set(&a);
            b.into_iter()
                .filter(|&(n, _)| sorted::contains(&sources, &n))
                .collect()
        }
        AnnotatedPath::Conj(a, b) => {
            sorted::intersect(&eval_annotated(db, a), &eval_annotated(db, b))
        }
    }
}

/// `{(n,m) | ∃z (n,z) ∈ a ∧ (z,m) ∈ b ∧ ηD(z) ∈ ann}` — the annotated
/// composition of §3.1.1 (`ann = None` means no restriction).
fn compose_filtered(
    db: &GraphDatabase,
    a: &PairSet,
    ann: Option<&[NodeLabelId]>,
    b: &PairSet,
) -> PairSet {
    let mut by_src: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    for &(s, t) in b {
        if let Some(labels) = ann {
            if !sorted::contains(labels, &db.node_label(s)) {
                continue;
            }
        }
        by_src.entry(s).or_default().push(t);
    }
    let mut out = Vec::new();
    for &(n, z) in a {
        if let Some(labels) = ann {
            if !sorted::contains(labels, &db.node_label(z)) {
                continue;
            }
        }
        if let Some(ms) = by_src.get(&z) {
            for &m in ms {
                out.push((n, m));
            }
        }
    }
    sorted::normalize(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::database::fig2_yago_database;
    use sgq_graph::schema::fig1_yago_schema;

    fn plain(s: &str) -> AnnotatedPath {
        AnnotatedPath::plain(parse_path(s, &fig1_yago_schema()).unwrap())
    }

    fn label(name: &str) -> NodeLabelId {
        fig1_yago_schema().node_label(name).unwrap()
    }

    #[test]
    fn strip_removes_annotations() {
        let psi = AnnotatedPath::concat(
            plain("owns"),
            Some(vec![label("PROPERTY")]),
            plain("isLocatedIn"),
        );
        let schema = fig1_yago_schema();
        assert_eq!(
            psi.strip(),
            parse_path("owns/isLocatedIn", &schema).unwrap()
        );
        assert!(psi.has_annotations());
        assert!(!AnnotatedPath::plain(psi.strip()).has_annotations());
    }

    #[test]
    fn annotated_concat_filters_midpoint() {
        let db = fig2_yago_database();
        // livesIn /CITY isLocatedIn keeps everything (all livesIn targets are cities)
        let all = eval_annotated(
            &db,
            &AnnotatedPath::concat(
                plain("livesIn"),
                Some(vec![label("CITY")]),
                plain("isLocatedIn"),
            ),
        );
        let un = eval_annotated(
            &db,
            &AnnotatedPath::concat(plain("livesIn"), None, plain("isLocatedIn")),
        );
        assert_eq!(all, un);
        // livesIn /REGION isLocatedIn keeps nothing
        let none = eval_annotated(
            &db,
            &AnnotatedPath::concat(
                plain("livesIn"),
                Some(vec![label("REGION")]),
                plain("isLocatedIn"),
            ),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn unannotated_matches_plain_semantics() {
        let db = fig2_yago_database();
        let schema = fig1_yago_schema();
        for s in [
            "owns/isLocatedIn",
            "livesIn/isLocatedIn+",
            "isMarriedTo/livesIn",
        ] {
            let e = parse_path(s, &schema).unwrap();
            let (a, b) = match &e {
                PathExpr::Concat(a, b) => (a.as_ref().clone(), b.as_ref().clone()),
                _ => unreachable!(),
            };
            let annotated = AnnotatedPath::concat(a.into(), None, b.into());
            assert_eq!(
                eval_annotated(&db, &annotated),
                sgq_algebra::eval::eval_path(&db, &e),
                "mismatch for {s}"
            );
        }
    }
}
