//! Conjunctive queries with Tarski's algebra (Definition 4) and their
//! unions (UCQT).
//!
//! A [`Cqt`] is `{H | ∃B  r1 ∧ ... ∧ rl ∧ a1 ∧ ... ∧ ak}` where the `ri`
//! are relations `(x, ψ, y)` over (annotated) path expressions and the `ai`
//! are node-label atoms `ηA(v) ∈ L`. A [`Ucqt`] is a union of
//! union-compatible CQTs (same head).

use sgq_algebra::ast::PathExpr;
use sgq_common::{FxHashSet, NodeLabelId, Result, SgqError, VarId};
use sgq_graph::GraphSchema;

use crate::annotated::{AnnotatedPath, LabelSet};

/// A relation `(src, ψ, tgt)`: a directed edge/path constraint between two
/// node variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    /// Source variable.
    pub src: VarId,
    /// The (possibly annotated) path expression.
    pub path: AnnotatedPath,
    /// Target variable.
    pub tgt: VarId,
}

impl Relation {
    /// A relation over a plain path expression.
    pub fn plain(src: VarId, path: PathExpr, tgt: VarId) -> Self {
        Relation {
            src,
            path: AnnotatedPath::Plain(path),
            tgt,
        }
    }
}

/// A node-label atom `ηA(var) ∈ labels`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LabelAtom {
    /// The constrained variable.
    pub var: VarId,
    /// Allowed labels (sorted). An empty set is unsatisfiable.
    pub labels: LabelSet,
}

/// A conjunctive query with Tarski's algebra (Definition 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cqt {
    /// Head (answer) variables `H`.
    pub head: Vec<VarId>,
    /// Node-label atoms `A`.
    pub atoms: Vec<LabelAtom>,
    /// Relations `Rel`.
    pub relations: Vec<Relation>,
}

/// Recursive / non-recursive classification (§2.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Contains a transitive closure (RQ).
    Recursive,
    /// Transitive-closure free (NQ).
    NonRecursive,
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryKind::Recursive => write!(f, "RQ"),
            QueryKind::NonRecursive => write!(f, "NQ"),
        }
    }
}

impl Cqt {
    /// All variables appearing in relations or atoms (sorted, deduped).
    pub fn vars(&self) -> Vec<VarId> {
        let mut v: Vec<VarId> = self
            .relations
            .iter()
            .flat_map(|r| [r.src, r.tgt])
            .chain(self.atoms.iter().map(|a| a.var))
            .collect();
        sgq_common::sorted::normalize(&mut v);
        v
    }

    /// Whether any relation is recursive.
    pub fn kind(&self) -> QueryKind {
        if self.relations.iter().any(|r| r.path.is_recursive()) {
            QueryKind::Recursive
        } else {
            QueryKind::NonRecursive
        }
    }

    /// Whether any schema annotation (label atom or path annotation)
    /// survives in the query.
    pub fn has_schema_info(&self) -> bool {
        !self.atoms.is_empty() || self.relations.iter().any(|r| r.path.has_annotations())
    }

    /// Checks well-formedness: non-empty head, head variables used in some
    /// relation, at least one relation.
    pub fn validate(&self) -> Result<()> {
        if self.head.is_empty() {
            return Err(SgqError::Query("CQT has an empty head".into()));
        }
        if self.relations.is_empty() {
            return Err(SgqError::Query("CQT has no relations".into()));
        }
        let vars: FxHashSet<VarId> = self.relations.iter().flat_map(|r| [r.src, r.tgt]).collect();
        for h in &self.head {
            if !vars.contains(h) {
                return Err(SgqError::Query(format!(
                    "head variable {h} does not occur in any relation"
                )));
            }
        }
        let mut seen = FxHashSet::default();
        for h in &self.head {
            if !seen.insert(*h) {
                return Err(SgqError::Query(format!("duplicate head variable {h}")));
            }
        }
        Ok(())
    }
}

/// A union of conjunctive queries with Tarski's algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ucqt {
    /// Shared head of all disjuncts.
    pub head: Vec<VarId>,
    /// The union's disjuncts `C1 ∪ ... ∪ Cn`.
    pub disjuncts: Vec<Cqt>,
}

impl Ucqt {
    /// The standard binary path query `{(α, β) | (α, ϕ, β)}` used by the
    /// paper's experiments (Tab. 4): head variables 0 and 1.
    pub fn path_query(expr: PathExpr) -> Self {
        let alpha = VarId::new(0);
        let beta = VarId::new(1);
        Ucqt {
            head: vec![alpha, beta],
            disjuncts: vec![Cqt {
                head: vec![alpha, beta],
                atoms: Vec::new(),
                relations: vec![Relation::plain(alpha, expr, beta)],
            }],
        }
    }

    /// A single-disjunct UCQT.
    pub fn single(cqt: Cqt) -> Self {
        Ucqt {
            head: cqt.head.clone(),
            disjuncts: vec![cqt],
        }
    }

    /// Recursive iff any disjunct is recursive.
    pub fn kind(&self) -> QueryKind {
        if self
            .disjuncts
            .iter()
            .any(|c| c.kind() == QueryKind::Recursive)
        {
            QueryKind::Recursive
        } else {
            QueryKind::NonRecursive
        }
    }

    /// Whether any schema annotation survives anywhere in the union.
    pub fn has_schema_info(&self) -> bool {
        self.disjuncts.iter().any(Cqt::has_schema_info)
    }

    /// Checks well-formedness plus union compatibility (§2.4.1).
    pub fn validate(&self) -> Result<()> {
        if self.disjuncts.is_empty() {
            return Err(SgqError::Query("UCQT has no disjuncts".into()));
        }
        for c in &self.disjuncts {
            c.validate()?;
            if c.head != self.head {
                return Err(SgqError::Query(
                    "disjuncts are not union-compatible (different heads)".into(),
                ));
            }
        }
        Ok(())
    }

    /// If this UCQT is exactly a binary path query (every disjunct a single
    /// relation between the two head variables with no atoms), returns the
    /// union of the disjunct expressions.
    pub fn as_single_path(&self) -> Option<PathExpr> {
        if self.head.len() != 2 {
            return None;
        }
        let mut parts = Vec::with_capacity(self.disjuncts.len());
        for c in &self.disjuncts {
            if !c.atoms.is_empty() || c.relations.len() != 1 {
                return None;
            }
            let r = &c.relations[0];
            if r.src != self.head[0] || r.tgt != self.head[1] || r.path.has_annotations() {
                return None;
            }
            parts.push(r.path.strip());
        }
        PathExpr::union_all(parts)
    }
}

/// Renders an annotated path expression, e.g. `owns/{PROPERTY}isLocatedIn`.
pub fn annotated_to_string(psi: &AnnotatedPath, schema: &GraphSchema) -> String {
    fn labels(ls: &[NodeLabelId], schema: &GraphSchema) -> String {
        let names: Vec<&str> = ls.iter().map(|&l| schema.node_label_name(l)).collect();
        format!("{{{}}}", names.join(","))
    }
    match psi {
        AnnotatedPath::Plain(e) => {
            let s = sgq_algebra::display::path_to_string(e, schema);
            // Only unions/conjunctions are ambiguous next to the rendered
            // annotation slashes; everything else reads unparenthesised.
            if matches!(e, PathExpr::Union(..) | PathExpr::Conj(..)) {
                format!("({s})")
            } else {
                s
            }
        }
        AnnotatedPath::Concat(a, ann, b) => {
            let a = annotated_to_string(a, schema);
            let b = annotated_to_string(b, schema);
            match ann {
                None => format!("{a}/{b}"),
                Some(ls) => format!("{a}/{}{b}", labels(ls, schema)),
            }
        }
        AnnotatedPath::BranchR(a, b) => format!(
            "{}[{}]",
            annotated_to_string(a, schema),
            annotated_to_string(b, schema)
        ),
        AnnotatedPath::BranchL(a, b) => format!(
            "[{}]{}",
            annotated_to_string(a, schema),
            annotated_to_string(b, schema)
        ),
        AnnotatedPath::Conj(a, b) => format!(
            "({} & {})",
            annotated_to_string(a, schema),
            annotated_to_string(b, schema)
        ),
    }
}

/// Renders a CQT in the paper's notation.
pub fn cqt_to_string(cqt: &Cqt, schema: &GraphSchema) -> String {
    let head: Vec<String> = cqt.head.iter().map(|v| v.to_string()).collect();
    let mut parts: Vec<String> = cqt
        .relations
        .iter()
        .map(|r| {
            format!(
                "({}, {}, {})",
                r.src,
                annotated_to_string(&r.path, schema),
                r.tgt
            )
        })
        .collect();
    for a in &cqt.atoms {
        let names: Vec<&str> = a
            .labels
            .iter()
            .map(|&l| schema.node_label_name(l))
            .collect();
        parts.push(format!("η({}) ∈ {{{}}}", a.var, names.join(",")));
    }
    format!("{{({}) | {}}}", head.join(", "), parts.join(" ∧ "))
}

/// Renders a UCQT in the paper's notation.
pub fn ucqt_to_string(q: &Ucqt, schema: &GraphSchema) -> String {
    let parts: Vec<String> = q
        .disjuncts
        .iter()
        .map(|c| cqt_to_string(c, schema))
        .collect();
    parts.join(" ∪ ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::schema::fig1_yago_schema;

    fn pe(s: &str) -> PathExpr {
        parse_path(s, &fig1_yago_schema()).unwrap()
    }

    #[test]
    fn path_query_shape() {
        let q = Ucqt::path_query(pe("livesIn/isLocatedIn+"));
        assert!(q.validate().is_ok());
        assert_eq!(q.kind(), QueryKind::Recursive);
        assert_eq!(q.head.len(), 2);
        assert_eq!(q.as_single_path(), Some(pe("livesIn/isLocatedIn+")));
    }

    #[test]
    fn union_splits_into_path() {
        let a = VarId::new(0);
        let b = VarId::new(1);
        let q = Ucqt {
            head: vec![a, b],
            disjuncts: vec![
                Cqt {
                    head: vec![a, b],
                    atoms: vec![],
                    relations: vec![Relation::plain(a, pe("owns"), b)],
                },
                Cqt {
                    head: vec![a, b],
                    atoms: vec![],
                    relations: vec![Relation::plain(a, pe("livesIn"), b)],
                },
            ],
        };
        assert_eq!(q.as_single_path(), Some(pe("owns | livesIn")));
    }

    #[test]
    fn example5_c1_query() {
        // C1 = {Y | ∃(Z,M) (Y, livesIn/isLocatedIn+, M) ∧ (Y, owns, Z)}
        let y = VarId::new(0);
        let z = VarId::new(1);
        let m = VarId::new(2);
        let c1 = Cqt {
            head: vec![y],
            atoms: vec![],
            relations: vec![
                Relation::plain(y, pe("livesIn/isLocatedIn+"), m),
                Relation::plain(y, pe("owns"), z),
            ],
        };
        assert!(c1.validate().is_ok());
        assert_eq!(c1.kind(), QueryKind::Recursive);
        let q = Ucqt::single(c1);
        assert!(q.validate().is_ok());
        assert!(q.as_single_path().is_none(), "C1 is not a bare path query");
    }

    #[test]
    fn validation_errors() {
        let a = VarId::new(0);
        let bad_head = Cqt {
            head: vec![VarId::new(9)],
            atoms: vec![],
            relations: vec![Relation::plain(a, pe("owns"), VarId::new(1))],
        };
        assert!(bad_head.validate().is_err());
        let empty = Cqt {
            head: vec![],
            atoms: vec![],
            relations: vec![],
        };
        assert!(empty.validate().is_err());
        let dup = Cqt {
            head: vec![a, a],
            atoms: vec![],
            relations: vec![Relation::plain(a, pe("owns"), a)],
        };
        assert!(dup.validate().is_err());
    }

    #[test]
    fn union_compatibility_enforced() {
        let a = VarId::new(0);
        let b = VarId::new(1);
        let q = Ucqt {
            head: vec![a, b],
            disjuncts: vec![Cqt {
                head: vec![b, a],
                atoms: vec![],
                relations: vec![Relation::plain(a, pe("owns"), b)],
            }],
        };
        assert!(q.validate().is_err());
    }

    #[test]
    fn display_forms() {
        let schema = fig1_yago_schema();
        let q = Ucqt::path_query(pe("owns/isLocatedIn"));
        let s = ucqt_to_string(&q, &schema);
        assert!(s.contains("owns/isLocatedIn"), "{s}");
        let property = schema.node_label("PROPERTY").unwrap();
        let annotated = AnnotatedPath::concat(
            AnnotatedPath::plain(pe("owns")),
            Some(vec![property]),
            AnnotatedPath::plain(pe("isLocatedIn")),
        );
        assert_eq!(
            annotated_to_string(&annotated, &schema),
            "owns/{PROPERTY}isLocatedIn"
        );
    }

    #[test]
    fn schema_info_detection() {
        let q = Ucqt::path_query(pe("owns"));
        assert!(!q.has_schema_info());
        let mut q2 = q.clone();
        q2.disjuncts[0].atoms.push(LabelAtom {
            var: VarId::new(0),
            labels: vec![NodeLabelId::new(0)],
        });
        assert!(q2.has_schema_info());
    }
}
