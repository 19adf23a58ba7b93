//! Preliminary path simplification: the rewrite rules of Fig. 6.
//!
//! ```text
//! R1:  (ϕ+)+        → ϕ+
//! R2:  ϕ1[ϕ2+]      → ϕ1[ϕ2]         (closure in a right-branch test)
//! R3:  ϕ1[ϕ2/ϕ3]    → ϕ1[ϕ2[ϕ3]]
//! R4:  [ϕ2+]ϕ1      → [ϕ2]ϕ1         (closure in a left-branch test)
//! R5:  [ϕ2/ϕ3]ϕ1    → [ϕ2[ϕ3]]ϕ1
//! ```
//!
//! R2/R4 are implemented in their general sound form: the *outermost*
//! transitive closure of a branch *test* can always be dropped, because the
//! branch has existential semantics and the sources of `JϕKD` and `Jϕ+KD`
//! coincide (the paper states the rules with a `ϕ1+` context; the general
//! form is what its Fig. 7 example actually uses). Note that the paper's
//! Fig. 7 additionally drops the closure of `isMarriedTo+` — a *base*, not
//! a test — which is not semantics-preserving for chains; we keep base
//! closures intact (see DESIGN.md).
//!
//! R3/R5 first right-associate the test's concatenation spine so that a
//! left-associated parse `a/b/c` decomposes into the paper's
//! `ϕ1[a[b[c]]]` shape.

use sgq_algebra::ast::PathExpr;

/// Applies R1–R5 bottom-up to a fixpoint: a pass changes the expression
/// exactly when some rule applies somewhere in it.
pub fn simplify(expr: &PathExpr) -> PathExpr {
    let mut e = expr.clone();
    simplify_in_place(&mut e);
    e
}

/// [`simplify`] without the copy.
pub(crate) fn simplify_in_place(e: &mut PathExpr) {
    while has_redex(e) {
        *e = pass(e);
    }
}

/// Whether a rule applies at some node of `e`.
fn has_redex(e: &PathExpr) -> bool {
    let test = |t: &PathExpr| matches!(t, PathExpr::Plus(_) | PathExpr::Concat(..));
    match e {
        PathExpr::Label(_) | PathExpr::Reverse(_) => false,
        PathExpr::Plus(a) => matches!(**a, PathExpr::Plus(_)) || has_redex(a),
        PathExpr::BranchR(_, t) | PathExpr::BranchL(t, _) if test(t) => true,
        PathExpr::Concat(a, b)
        | PathExpr::Union(a, b)
        | PathExpr::Conj(a, b)
        | PathExpr::BranchR(a, b)
        | PathExpr::BranchL(a, b) => has_redex(a) || has_redex(b),
    }
}

/// One bottom-up pass.
fn pass(e: &PathExpr) -> PathExpr {
    let e = match e {
        PathExpr::Label(_) | PathExpr::Reverse(_) => e.clone(),
        PathExpr::Concat(a, b) => PathExpr::concat(pass(a), pass(b)),
        PathExpr::Union(a, b) => PathExpr::union(pass(a), pass(b)),
        PathExpr::Conj(a, b) => PathExpr::conj(pass(a), pass(b)),
        PathExpr::BranchR(a, b) => PathExpr::branch_r(pass(a), pass(b)),
        PathExpr::BranchL(a, b) => PathExpr::branch_l(pass(a), pass(b)),
        PathExpr::Plus(a) => PathExpr::plus(pass(a)),
    };
    apply_rules(e)
}

/// Applies the rules at the root of `e`.
fn apply_rules(e: PathExpr) -> PathExpr {
    match e {
        // R1: (ϕ+)+ → ϕ+
        PathExpr::Plus(inner) if matches!(*inner, PathExpr::Plus(_)) => *inner,
        // R2 (test plus) and R3 (test concat)
        PathExpr::BranchR(base, test) => {
            let test = simplify_test(*test);
            PathExpr::BranchR(base, Box::new(test))
        }
        // R4 (test plus) and R5 (test concat)
        PathExpr::BranchL(test, rest) => {
            let test = simplify_test(*test);
            PathExpr::BranchL(Box::new(test), rest)
        }
        other => other,
    }
}

/// Simplifies an expression appearing in *test position* (the bracketed
/// part of a branch): drops its outermost closure (R2/R4) and turns its
/// top-level concatenation into nested right branches (R3/R5).
fn simplify_test(test: PathExpr) -> PathExpr {
    match test {
        // R2/R4: [ϕ+] ≡ [ϕ]
        PathExpr::Plus(inner) => simplify_test(*inner),
        // R3/R5: [ϕ2/ϕ3] ≡ [ϕ2[ϕ3]]; flatten the spine first so that a
        // left-associated (a/b)/c becomes a[b[c]].
        PathExpr::Concat(_, _) => {
            let mut parts = Vec::new();
            flatten_concat(test, &mut parts);
            // Build a[b[c[...]]] right-to-left: the innermost test is the
            // last segment (itself test-simplified).
            let mut iter = parts.into_iter().rev();
            let last = simplify_test(iter.next().expect("concat has parts"));
            let mut acc = last;
            for part in iter {
                acc = PathExpr::branch_r(part, acc);
            }
            acc
        }
        other => other,
    }
}

/// Flattens a concatenation spine into its sequential parts.
fn flatten_concat(e: PathExpr, out: &mut Vec<PathExpr>) {
    match e {
        PathExpr::Concat(a, b) => {
            flatten_concat(*a, out);
            flatten_concat(*b, out);
        }
        other => out.push(other),
    }
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
    fn r1_collapses_nested_plus() {
        assert_eq!(simplify(&pe("isLocatedIn++")), pe("isLocatedIn+"));
        assert_eq!(simplify(&pe("((isLocatedIn+)+)+")), pe("isLocatedIn+"));
    }

    #[test]
    fn r2_drops_plus_in_right_test() {
        assert_eq!(simplify(&pe("owns[isMarriedTo+]")), pe("owns[isMarriedTo]"));
        // paper's context form ϕ1+[ϕ2+] → ϕ1+[ϕ2]
        assert_eq!(
            simplify(&pe("isLocatedIn+[dealsWith+]")),
            pe("isLocatedIn+[dealsWith]")
        );
    }

    #[test]
    fn r4_drops_plus_in_left_test() {
        assert_eq!(
            simplify(&pe("[isMarriedTo+]livesIn")),
            pe("[isMarriedTo]livesIn")
        );
    }

    #[test]
    fn r3_concat_to_branch() {
        assert_eq!(
            simplify(&pe("owns[isMarriedTo/livesIn]")),
            pe("owns[isMarriedTo[livesIn]]")
        );
        // three-way chains nest fully regardless of association
        assert_eq!(
            simplify(&pe("owns[(isMarriedTo/livesIn)/isLocatedIn]")),
            pe("owns[isMarriedTo[livesIn[isLocatedIn]]]")
        );
        assert_eq!(
            simplify(&pe("owns[isMarriedTo/(livesIn/isLocatedIn)]")),
            pe("owns[isMarriedTo[livesIn[isLocatedIn]]]")
        );
    }

    #[test]
    fn r5_concat_to_branch_left() {
        assert_eq!(
            simplify(&pe("[isMarriedTo/livesIn]owns")),
            pe("[isMarriedTo[livesIn]]owns")
        );
    }

    #[test]
    fn fig7_example() {
        // ϕred = (((owns[isMarriedTo+/livesIn/dealsWith+])/(isLocatedIn+)+)+)+
        let phi_red = pe("(((owns[isMarriedTo+/livesIn/dealsWith+])/(isLocatedIn+)+)+)+");
        // Our sound ϕopt keeps the base closure isMarriedTo+ (the paper's
        // Fig. 7 drops it, which over-simplifies; see module docs):
        let phi_opt = pe("(owns[isMarriedTo+[livesIn[dealsWith]]]/isLocatedIn+)+");
        assert_eq!(simplify(&phi_red), phi_opt);
    }

    #[test]
    fn simplification_preserves_semantics() {
        use sgq_algebra::eval::eval_path;
        use sgq_graph::database::fig2_yago_database;
        let db = fig2_yago_database();
        for s in [
            "(((owns[isMarriedTo+/livesIn/dealsWith+])/(isLocatedIn+)+)+)+",
            "owns[isMarriedTo+]",
            "[isMarriedTo/livesIn]owns",
            "livesIn/isLocatedIn++",
            "owns[isMarriedTo/livesIn/isLocatedIn]",
            "[owns[isMarriedTo+]]livesIn",
            "(livesIn | owns/isLocatedIn)[isLocatedIn+]",
        ] {
            let e = pe(s);
            let simplified = simplify(&e);
            assert_eq!(
                eval_path(&db, &e),
                eval_path(&db, &simplified),
                "R1-R5 changed the semantics of {s}"
            );
        }
    }

    #[test]
    fn fixpoint_is_idempotent() {
        for s in [
            "owns",
            "(((owns[isMarriedTo+/livesIn/dealsWith+])/(isLocatedIn+)+)+)+",
            "owns[isMarriedTo/livesIn]",
        ] {
            let once = simplify(&pe(s));
            assert_eq!(simplify(&once), once);
        }
    }

    #[test]
    fn non_test_plus_kept() {
        // closures outside branch tests must be preserved
        assert_eq!(simplify(&pe("isLocatedIn+")), pe("isLocatedIn+"));
        assert_eq!(
            simplify(&pe("livesIn/isLocatedIn+")),
            pe("livesIn/isLocatedIn+")
        );
    }
}
