//! The path-expression AST: the grammar of Fig. 3.
//!
//! ```text
//! ϕ ::= le            single edge label
//!     | ϕ1/ϕ2         concatenation
//!     | ϕ1 ∪ ϕ2       union
//!     | ϕ1 ∩ ϕ2       conjunction
//!     | ϕ1[ϕ2]        branch (right)
//!     | [ϕ1]ϕ2        branch (left)
//!     | -le           reverse (single labels only, per the adaptation)
//!     | ϕ+            transitive closure
//! ```

use sgq_common::EdgeLabelId;

/// A Tarski's algebra path expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathExpr {
    /// A single edge label `le`.
    Label(EdgeLabelId),
    /// The reverse of a single edge label, `-le`.
    Reverse(EdgeLabelId),
    /// Concatenation `ϕ1/ϕ2`.
    Concat(Box<PathExpr>, Box<PathExpr>),
    /// Union `ϕ1 ∪ ϕ2`.
    Union(Box<PathExpr>, Box<PathExpr>),
    /// Conjunction `ϕ1 ∩ ϕ2`.
    Conj(Box<PathExpr>, Box<PathExpr>),
    /// Right branch `ϕ1[ϕ2]`: follow `ϕ1`, require an outgoing `ϕ2` path
    /// from the end point (existential test).
    BranchR(Box<PathExpr>, Box<PathExpr>),
    /// Left branch `[ϕ1]ϕ2`: require an outgoing `ϕ1` path from the start
    /// point, then follow `ϕ2`.
    BranchL(Box<PathExpr>, Box<PathExpr>),
    /// Transitive closure `ϕ+`.
    Plus(Box<PathExpr>),
}

impl PathExpr {
    /// `le`.
    pub fn label(le: impl Into<EdgeLabelId>) -> Self {
        PathExpr::Label(le.into())
    }

    /// `-le`.
    pub fn reverse(le: impl Into<EdgeLabelId>) -> Self {
        PathExpr::Reverse(le.into())
    }

    /// `a/b`.
    pub fn concat(a: PathExpr, b: PathExpr) -> Self {
        PathExpr::Concat(Box::new(a), Box::new(b))
    }

    /// `a ∪ b`.
    pub fn union(a: PathExpr, b: PathExpr) -> Self {
        PathExpr::Union(Box::new(a), Box::new(b))
    }

    /// `a ∩ b`.
    pub fn conj(a: PathExpr, b: PathExpr) -> Self {
        PathExpr::Conj(Box::new(a), Box::new(b))
    }

    /// `a[b]`.
    pub fn branch_r(a: PathExpr, b: PathExpr) -> Self {
        PathExpr::BranchR(Box::new(a), Box::new(b))
    }

    /// `[a]b`.
    pub fn branch_l(a: PathExpr, b: PathExpr) -> Self {
        PathExpr::BranchL(Box::new(a), Box::new(b))
    }

    /// `a+`.
    pub fn plus(a: PathExpr) -> Self {
        PathExpr::Plus(Box::new(a))
    }

    /// Concatenates a non-empty sequence of expressions left-associatively.
    pub fn concat_all(parts: impl IntoIterator<Item = PathExpr>) -> Option<Self> {
        parts.into_iter().reduce(PathExpr::concat)
    }

    /// Unions a non-empty sequence of expressions left-associatively.
    pub fn union_all(parts: impl IntoIterator<Item = PathExpr>) -> Option<Self> {
        parts.into_iter().reduce(PathExpr::union)
    }

    /// Bounded repetition `ϕ{lo, hi}` (e.g. the paper's `knows1..3`),
    /// expanded as `ϕ^lo ∪ ... ∪ ϕ^hi`. Requires `1 <= lo <= hi`.
    pub fn repeat(expr: PathExpr, lo: usize, hi: usize) -> Self {
        assert!(
            1 <= lo && lo <= hi,
            "repeat bounds must satisfy 1 <= lo <= hi"
        );
        let power =
            |k: usize| PathExpr::concat_all(std::iter::repeat_n(expr.clone(), k)).expect("k >= 1");
        PathExpr::union_all((lo..=hi).map(power)).expect("hi >= lo")
    }

    /// Whether the expression contains a transitive closure — the paper's
    /// recursive (RQ) vs non-recursive (NQ) query classification (§2.4.2).
    pub fn is_recursive(&self) -> bool {
        match self {
            PathExpr::Label(_) | PathExpr::Reverse(_) => false,
            PathExpr::Plus(_) => true,
            PathExpr::Concat(a, b)
            | PathExpr::Union(a, b)
            | PathExpr::Conj(a, b)
            | PathExpr::BranchR(a, b)
            | PathExpr::BranchL(a, b) => a.is_recursive() || b.is_recursive(),
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            PathExpr::Label(_) | PathExpr::Reverse(_) => 1,
            PathExpr::Plus(a) => 1 + a.size(),
            PathExpr::Concat(a, b)
            | PathExpr::Union(a, b)
            | PathExpr::Conj(a, b)
            | PathExpr::BranchR(a, b)
            | PathExpr::BranchL(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Collects every edge label used in the expression (sorted, deduped).
    pub fn edge_labels(&self) -> Vec<EdgeLabelId> {
        fn walk(e: &PathExpr, out: &mut Vec<EdgeLabelId>) {
            match e {
                PathExpr::Label(l) | PathExpr::Reverse(l) => out.push(*l),
                PathExpr::Plus(a) => walk(a, out),
                PathExpr::Concat(a, b)
                | PathExpr::Union(a, b)
                | PathExpr::Conj(a, b)
                | PathExpr::BranchR(a, b)
                | PathExpr::BranchL(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
            }
        }
        let mut v = Vec::new();
        walk(self, &mut v);
        sgq_common::sorted::normalize(&mut v);
        v
    }

    /// Flattens the top-level unions: `a ∪ (b ∪ c)` → `[a, b, c]`.
    pub fn union_components(&self) -> Vec<&PathExpr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a PathExpr, out: &mut Vec<&'a PathExpr>) {
            match e {
                PathExpr::Union(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Union-normal form: `∪` distributed through concatenation,
    /// conjunction and branching (not through `+`), as the union-free
    /// components in order. `None` as soon as a union or cross product
    /// would exceed `cap` components.
    pub fn union_normal_form(&self, cap: usize) -> Option<Vec<PathExpr>> {
        let (a, b, f): (_, _, fn(PathExpr, PathExpr) -> PathExpr) = match self {
            PathExpr::Label(_) | PathExpr::Reverse(_) | PathExpr::Plus(_) => {
                return Some(vec![self.clone()])
            }
            PathExpr::Union(a, b) => {
                let mut out = a.union_normal_form(cap)?;
                out.extend(b.union_normal_form(cap)?);
                return (out.len() <= cap).then_some(out);
            }
            PathExpr::Concat(a, b) => (a, b, PathExpr::concat),
            PathExpr::Conj(a, b) => (a, b, PathExpr::conj),
            PathExpr::BranchR(a, b) => (a, b, PathExpr::branch_r),
            PathExpr::BranchL(a, b) => (a, b, PathExpr::branch_l),
        };
        let (xs, ys) = (a.union_normal_form(cap)?, b.union_normal_form(cap)?);
        if xs.len().saturating_mul(ys.len()) > cap {
            return None;
        }
        let pairs = xs.iter().flat_map(|x| ys.iter().map(move |y| (x, y)));
        Some(pairs.map(|(x, y)| f(x.clone(), y.clone())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(i: u32) -> PathExpr {
        PathExpr::label(EdgeLabelId::new(i))
    }

    #[test]
    fn recursive_classification() {
        assert!(!le(0).is_recursive());
        assert!(PathExpr::plus(le(0)).is_recursive());
        assert!(PathExpr::concat(le(0), PathExpr::plus(le(1))).is_recursive());
        assert!(!PathExpr::branch_r(le(0), le(1)).is_recursive());
    }

    #[test]
    fn repeat_expansion() {
        // knows{1,3} = knows ∪ knows/knows ∪ knows/knows/knows
        let r = PathExpr::repeat(le(0), 1, 3);
        let comps = r.union_components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], &le(0));
        assert_eq!(comps[1], &PathExpr::concat(le(0), le(0)));
        assert_eq!(comps[2].size(), 5);
    }

    #[test]
    #[should_panic]
    fn repeat_rejects_zero() {
        let _ = PathExpr::repeat(le(0), 0, 2);
    }

    #[test]
    fn size_and_labels() {
        let e = PathExpr::concat(
            le(2),
            PathExpr::plus(PathExpr::reverse(EdgeLabelId::new(1))),
        );
        assert_eq!(e.size(), 4);
        assert_eq!(
            e.edge_labels(),
            vec![EdgeLabelId::new(1), EdgeLabelId::new(2)]
        );
    }

    #[test]
    fn union_components_flatten() {
        let e = PathExpr::union(PathExpr::union(le(0), le(1)), le(2));
        assert_eq!(e.union_components().len(), 3);
        assert_eq!(le(5).union_components().len(), 1);
    }

    #[test]
    fn union_normal_form_distributes_in_order() {
        // (a|b)/(c|d) = a/c ∪ a/d ∪ b/c ∪ b/d
        let e = PathExpr::concat(PathExpr::union(le(0), le(1)), PathExpr::union(le(2), le(3)));
        let pairs = [(0, 2), (0, 3), (1, 2), (1, 3)];
        let want: Vec<PathExpr> = (pairs.iter())
            .map(|&(x, y)| PathExpr::concat(le(x), le(y)))
            .collect();
        assert_eq!(e.union_normal_form(64), Some(want));
        // Unions under `+` stay put.
        let closure = PathExpr::plus(PathExpr::union(le(0), le(1)));
        assert_eq!(closure.union_normal_form(1), Some(vec![closure.clone()]));
    }

    #[test]
    fn union_normal_form_gives_up_at_the_cap_not_after_the_blowup() {
        // 24 concatenated (a|b): 2^24 components uncapped.
        let ab = PathExpr::union(le(0), le(1));
        let e = PathExpr::concat_all(std::iter::repeat_n(ab, 24)).unwrap();
        assert_eq!(e.union_normal_form(64), None);
        assert_eq!(e.union_normal_form(256), None);
    }
}
