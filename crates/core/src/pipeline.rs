//! The end-to-end rewriter (the paper's Fig. 10 "Rewriter" module):
//! PPS → SQ-Rewriter → SQ-Merge, with revert detection (§5.2).

use sgq_algebra::ast::PathExpr;
use sgq_common::{sorted, FxHashMap, Result, VarId};
use sgq_graph::GraphSchema;
use sgq_query::annotated::AnnotatedPath;
use sgq_query::cqt::{Cqt, LabelAtom, QueryKind, Relation, Ucqt};
use sgq_query::vars::VarGen;

use crate::arena::{Arena, IdMerged, SetId, EMPTY};
use crate::merge::alternatives;
use crate::plc::PlusStats;
use crate::redundant::RedundancyRule;
use crate::simplify::simplify_in_place;
use crate::translate::q_translate;

/// The rewrite's one configuration: the redundancy rule (§3.2.2; Example
/// 13 shows its `EitherSide` variant) and three budgets. R1–R5 always
/// run, label atoms are always kept, and `PlC` always eliminates what
/// `max_paths` allows.
#[derive(Debug, Clone, Copy)]
pub struct RewriteOptions {
    /// Which redundant annotations to remove (§3.2.2).
    pub redundancy: RedundancyRule,
    /// Budget: maximum `|TS(ϕ)|` before reverting.
    pub max_triples: usize,
    /// Budget: maximum simple paths `PlC` replaces a closure with. Past
    /// it the closure stays, as `(A, ϕ+, B)` for every reachable pair:
    /// `0` keeps every closure.
    pub max_paths: usize,
    /// Budget: maximum disjuncts in the rewritten union before reverting.
    pub max_disjuncts: usize,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            redundancy: RedundancyRule::default(),
            max_triples: 4096,
            max_paths: 4096,
            max_disjuncts: 128,
        }
    }
}

/// What the rewriter produced.
#[derive(Debug, Clone, PartialEq)]
pub enum RewriteOutcome {
    /// A genuinely schema-enriched query.
    Enriched(Ucqt),
    /// The rewrite reverted to the (simplified) original query — the
    /// schema offered nothing (§5.2); engines run the baseline plan.
    Reverted(Ucqt),
    /// The schema proves the query returns no results on any conforming
    /// database.
    Empty,
}

impl RewriteOutcome {
    /// The query to execute, if any.
    pub fn query(&self) -> Option<&Ucqt> {
        match self {
            RewriteOutcome::Enriched(q) | RewriteOutcome::Reverted(q) => Some(q),
            RewriteOutcome::Empty => None,
        }
    }

    /// Whether the rewrite reverted.
    pub fn is_reverted(&self) -> bool {
        matches!(self, RewriteOutcome::Reverted(_))
    }
}

/// Diagnostics produced alongside the rewrite (Tab. 6 statistics, §5.2
/// revert accounting).
#[derive(Debug, Clone, Default)]
pub struct RewriteReport {
    /// Aggregated fixed-length-path statistics over the final query.
    pub plus_stats: PlusStats,
    /// Whether the original query was recursive.
    pub was_recursive: bool,
    /// Whether the final query still contains a transitive closure.
    pub still_recursive: bool,
    /// Number of disjuncts in the final query.
    pub disjuncts: usize,
    /// Number of label atoms in the final query.
    pub atoms: usize,
    /// Why the rewrite reverted, when it did.
    pub revert_reason: Option<String>,
}

impl RewriteReport {
    /// Transitive closure fully eliminated (Tab. 6 accounting).
    pub fn closure_eliminated(&self) -> bool {
        self.was_recursive && !self.still_recursive
    }
}

/// Result of [`rewrite_ucqt`] / [`rewrite_path`].
#[derive(Debug, Clone)]
pub struct Rewritten {
    /// The produced query (or revert/empty marker).
    pub outcome: RewriteOutcome,
    /// Diagnostics.
    pub report: RewriteReport,
}

/// Rewrites a bare path query `{(α, β) | (α, ϕ, β)}`.
pub fn rewrite_path(schema: &GraphSchema, phi: &PathExpr, opts: RewriteOptions) -> Rewritten {
    rewrite(schema, Ucqt::path_query(phi.clone()), opts)
}

/// Rewrites an arbitrary UCQT: every relation of every disjunct is
/// simplified, type-inferred, merged and re-translated; the per-relation
/// alternatives are distributed into a union of CQTs.
pub fn rewrite_ucqt(schema: &GraphSchema, query: &Ucqt, opts: RewriteOptions) -> Rewritten {
    rewrite(schema, query.clone(), opts)
}

fn rewrite(schema: &GraphSchema, mut baseline: Ucqt, opts: RewriteOptions) -> Rewritten {
    let was_recursive = baseline.kind() == QueryKind::Recursive;
    simplify_query(&mut baseline);
    let (outcome, plus_stats, revert_reason) = match try_rewrite(schema, &baseline, opts) {
        Ok(Some((q, stats))) if q.disjuncts.is_empty() => (RewriteOutcome::Empty, stats, None),
        Ok(Some((q, stats))) if is_trivial_rewrite(&q, &baseline) => {
            let reason = "no exploitable schema information";
            (RewriteOutcome::Reverted(baseline), stats, Some(reason))
        }
        Ok(Some((q, stats))) => (RewriteOutcome::Enriched(q), stats, None),
        // Budget exceeded (or inference failed): revert, never degrade.
        Ok(None) | Err(_) => {
            let reason = "rewrite budget exceeded";
            (
                RewriteOutcome::Reverted(baseline),
                PlusStats::default(),
                Some(reason),
            )
        }
    };
    // The report describes the query served: on a revert, the baseline.
    let served = outcome.query();
    let report = RewriteReport {
        plus_stats,
        was_recursive,
        still_recursive: served.is_some_and(|q| q.kind() == QueryKind::Recursive),
        disjuncts: served.map_or(0, |q| q.disjuncts.len()),
        atoms: served.map_or(0, |q| q.disjuncts.iter().map(|c| c.atoms.len()).sum()),
        revert_reason: revert_reason.map(String::from),
    };
    Rewritten { outcome, report }
}

/// Simplifies every relation of the query with R1–R5.
fn simplify_query(query: &mut Ucqt) {
    for r in query.disjuncts.iter_mut().flat_map(|c| &mut c.relations) {
        if !matches!(r.path, AnnotatedPath::Plain(_)) {
            r.path = AnnotatedPath::Plain(r.path.strip());
        }
        if let AnnotatedPath::Plain(e) = &mut r.path {
            simplify_in_place(e);
        }
    }
}

/// Core rewrite: returns `Ok(None)` when a budget was exceeded. One
/// arena serves every relation of every disjunct.
fn try_rewrite(
    schema: &GraphSchema,
    baseline: &Ucqt,
    opts: RewriteOptions,
) -> Result<Option<(Ucqt, PlusStats)>> {
    let mut disjuncts_out: Vec<Cqt> = Vec::new();
    let mut stats = PlusStats::default();
    let mut arena = Arena::new(schema);

    for cqt in &baseline.disjuncts {
        // Per-relation merged alternatives.
        let mut per_relation: Vec<Vec<IdMerged>> = Vec::with_capacity(cqt.relations.len());
        for rel in &cqt.relations {
            let phi = match &rel.path {
                AnnotatedPath::Plain(e) => arena.intern_path(e),
                annotated => arena.intern_path(&annotated.strip()),
            };
            let merged = alternatives(&mut arena, phi, &opts)?;
            for m in &merged {
                stats.path_lengths.extend_from_slice(arena.lens_of(m.lens));
                stats.closure_kept |= arena.recursive(arena.strip(m.psi));
            }
            per_relation.push(merged);
        }

        // Distribute: cartesian product of per-relation alternatives.
        if per_relation.iter().any(Vec::is_empty) {
            // Some relation is unsatisfiable: the whole disjunct is empty.
            continue;
        }
        let combos: usize = per_relation.iter().map(Vec::len).product();
        if combos + disjuncts_out.len() > opts.max_disjuncts {
            return Ok(None);
        }
        let mut indices = vec![0usize; per_relation.len()];
        let vars = VarGen::above(cqt.vars());
        loop {
            let chosen = per_relation.iter().zip(&indices).map(|(alts, &i)| &alts[i]);
            if let Some(new_cqt) = build_combo(&mut arena, cqt, chosen, vars.clone()) {
                disjuncts_out.push(new_cqt);
            }
            if !advance(&mut indices, &per_relation) {
                break;
            }
        }
    }
    stats.path_lengths.sort_unstable();

    let enriched = Ucqt {
        head: baseline.head.clone(),
        disjuncts: disjuncts_out,
    };
    Ok(Some((enriched, stats)))
}

/// Advances a mixed-radix counter over the per-relation alternatives;
/// returns `false` once all combinations have been visited.
fn advance(indices: &mut [usize], radix: &[Vec<IdMerged>]) -> bool {
    for i in (0..indices.len()).rev() {
        indices[i] += 1;
        if indices[i] < radix[i].len() {
            return true;
        }
        indices[i] = 0;
    }
    false
}

/// Builds one distributed disjunct: translates each relation's chosen
/// merged triple, merges label atoms per variable (intersections), and
/// drops the combination when some variable's label set becomes empty.
fn build_combo<'a>(
    arena: &mut Arena,
    original: &Cqt,
    chosen: impl Iterator<Item = &'a IdMerged>,
    mut vars: VarGen,
) -> Option<Cqt> {
    let mut relations: Vec<Relation> = Vec::new();
    let mut constraints: FxHashMap<VarId, SetId> = FxHashMap::default();
    let mut add_constraint = |arena: &mut Arena, var: VarId, labels: SetId| {
        let merged = match constraints.get(&var) {
            Some(&old) => arena.set_op(sorted::intersect, old, labels),
            None => labels,
        };
        constraints.insert(var, merged);
    };

    // Original atoms first.
    for atom in &original.atoms {
        let labels = arena.set(&atom.labels);
        add_constraint(arena, atom.var, labels);
    }

    let mut atoms = Vec::new();
    for (rel, triple) in original.relations.iter().zip(chosen) {
        let ends = (rel.src, rel.tgt);
        q_translate(
            arena,
            triple.psi,
            ends,
            &mut vars,
            &mut relations,
            &mut atoms,
        );
        let endpoints = [(rel.src, triple.src), (rel.tgt, triple.tgt)];
        let endpoints = endpoints.into_iter().filter_map(|(v, l)| Some((v, l?)));
        for (var, labels) in atoms.drain(..).chain(endpoints) {
            add_constraint(arena, var, labels);
        }
    }

    // Unsatisfiable label constraint: drop this combination.
    if constraints.values().any(|&l| l == EMPTY) {
        return None;
    }
    let mut atoms: Vec<LabelAtom> = constraints
        .into_iter()
        .map(|(var, labels)| LabelAtom {
            var,
            labels: arena.labels(labels).to_vec(),
        })
        .collect();
    atoms.sort_unstable_by_key(|a| a.var);
    Some(Cqt {
        head: original.head.clone(),
        atoms,
        relations,
    })
}

/// Revert detection (§5.2): the rewrite is trivial when no schema
/// information survives and the relations are (modulo union splitting and
/// distribution — the paper's "query factorization") those of the
/// baseline.
fn is_trivial_rewrite(enriched: &Ucqt, baseline: &Ucqt) -> bool {
    if enriched.has_schema_info() {
        return false;
    }
    if enriched == baseline {
        return true;
    }
    match (enriched.as_single_path(), baseline.as_single_path()) {
        (Some(e), Some(b)) => {
            let (Some(mut ec), Some(mut bc)) = (e.union_normal_form(256), b.union_normal_form(256))
            else {
                return false;
            };
            ec.sort_unstable();
            bc.sort_unstable();
            ec == bc
        }
        _ => false,
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
    fn phi4_is_enriched_and_closure_partially_eliminated() {
        let schema = fig1_yago_schema();
        // Example 13 uses the either-side redundancy rule: exactly one
        // surviving atom, η(γ) ∈ {REGION}.
        let opts = RewriteOptions {
            redundancy: RedundancyRule::EitherSide,
            ..Default::default()
        };
        let r = rewrite_path(&schema, &pe("livesIn/isLocatedIn+/dealsWith+"), opts);
        match &r.outcome {
            RewriteOutcome::Enriched(q) => {
                assert_eq!(q.disjuncts.len(), 1);
                assert_eq!(r.report.atoms, 1);
            }
            other => panic!("expected enrichment, got {other:?}"),
        }
        assert!(r.report.was_recursive);
        assert!(r.report.still_recursive, "dealsWith+ survives");
        assert_eq!(r.report.plus_stats.path_lengths, vec![2]);
        // The default (both-sides) rule keeps the pre-filtering
        // annotations as well — more atoms, same semantics.
        let r2 = rewrite_path(
            &schema,
            &pe("livesIn/isLocatedIn+/dealsWith+"),
            RewriteOptions::default(),
        );
        match &r2.outcome {
            RewriteOutcome::Enriched(q) => {
                assert_eq!(q.disjuncts.len(), 1);
                assert!(r2.report.atoms >= 1);
            }
            other => panic!("expected enrichment, got {other:?}"),
        }
    }

    #[test]
    fn isolated_closure_is_fully_eliminated() {
        let schema = fig1_yago_schema();
        let r = rewrite_path(&schema, &pe("isLocatedIn+"), RewriteOptions::default());
        match &r.outcome {
            RewriteOutcome::Enriched(q) => assert_eq!(q.disjuncts.len(), 3),
            other => panic!("expected enrichment, got {other:?}"),
        }
        assert!(r.report.closure_eliminated());
    }

    #[test]
    fn dealswith_plus_reverts() {
        // dealsWith+ has a cyclic label graph and single-label endpoints:
        // the schema offers nothing.
        let schema = fig1_yago_schema();
        let r = rewrite_path(&schema, &pe("dealsWith+"), RewriteOptions::default());
        assert!(r.outcome.is_reverted(), "{:?}", r.outcome);
    }

    #[test]
    fn single_label_reverts() {
        let schema = fig1_yago_schema();
        let r = rewrite_path(&schema, &pe("owns"), RewriteOptions::default());
        assert!(r.outcome.is_reverted());
        assert!(r.report.revert_reason.is_some());
    }

    #[test]
    fn unsatisfiable_is_empty() {
        let schema = fig1_yago_schema();
        let r = rewrite_path(&schema, &pe("livesIn/owns"), RewriteOptions::default());
        assert_eq!(r.outcome, RewriteOutcome::Empty);
    }

    #[test]
    fn budget_exhaustion_reverts() {
        let schema = fig1_yago_schema();
        let opts = RewriteOptions {
            max_triples: 1,
            ..Default::default()
        };
        let r = rewrite_path(&schema, &pe("isLocatedIn+"), opts);
        assert!(r.outcome.is_reverted());
        assert_eq!(
            r.report.revert_reason.as_deref(),
            Some("rewrite budget exceeded")
        );
    }

    #[test]
    fn max_triples_overrun_reverts_at_the_same_point() {
        // TS(isLocatedIn+) has six triples: a budget of five reverts, six
        // does not.
        let schema = fig1_yago_schema();
        let rewrite = |max_triples| {
            let opts = RewriteOptions {
                max_triples,
                ..Default::default()
            };
            rewrite_path(&schema, &pe("isLocatedIn+"), opts)
        };
        let r = rewrite(5);
        assert_eq!(
            r.outcome,
            RewriteOutcome::Reverted(Ucqt::path_query(pe("isLocatedIn+")))
        );
        assert_eq!(
            r.report.revert_reason.as_deref(),
            Some("rewrite budget exceeded")
        );
        let r = rewrite(6);
        let Some(q) = r.outcome.query().filter(|_| !r.outcome.is_reverted()) else {
            panic!("expected enrichment, got {:?}", r.outcome);
        };
        assert_eq!(
            sgq_query::cqt::ucqt_to_string(q, &schema),
            "{(?x0, ?x1) | (?x0, isLocatedIn, ?x1)} ∪ \
             {(?x0, ?x1) | (?x0, isLocatedIn, ?x2) ∧ (?x2, isLocatedIn, ?x1) ∧ \
             η(?x0) ∈ {CITY,PROPERTY} ∧ η(?x1) ∈ {REGION,COUNTRY} ∧ η(?x2) ∈ {CITY,REGION}} ∪ \
             {(?x0, ?x1) | (?x0, isLocatedIn, ?x3) ∧ (?x3, isLocatedIn, ?x2) ∧ \
             (?x2, isLocatedIn, ?x1) ∧ η(?x0) ∈ {PROPERTY} ∧ η(?x1) ∈ {COUNTRY} ∧ \
             η(?x2) ∈ {REGION} ∧ η(?x3) ∈ {CITY}}"
        );
    }

    #[test]
    fn a_zero_path_budget_keeps_the_closure() {
        let schema = fig1_yago_schema();
        let opts = RewriteOptions {
            max_paths: 0,
            ..Default::default()
        };
        // isLocatedIn+ alone reverts (the closure covers everything), but
        // livesIn/isLocatedIn+ keeps an informative target-label atom.
        let r = rewrite_path(&schema, &pe("isLocatedIn+"), opts);
        assert!(r.outcome.is_reverted(), "{:?}", r.outcome);
        let r = rewrite_path(&schema, &pe("livesIn/isLocatedIn+"), opts);
        match &r.outcome {
            RewriteOutcome::Enriched(q) => {
                assert!(q.kind() == sgq_query::cqt::QueryKind::Recursive);
                assert!(q.has_schema_info());
            }
            other => panic!("expected enrichment, got {other:?}"),
        }
    }

    #[test]
    fn multi_relation_cqt_rewrites() {
        // C1 = {Y | (Y, livesIn/isLocatedIn+, M) ∧ (Y, owns, Z)}
        let schema = fig1_yago_schema();
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
        let q = Ucqt::single(c1);
        let r = rewrite_ucqt(&schema, &q, RewriteOptions::default());
        match &r.outcome {
            RewriteOutcome::Enriched(out) => {
                // livesIn/isLocatedIn+ has 2 merged triples; owns has 1
                assert_eq!(out.disjuncts.len(), 2);
                for d in &out.disjuncts {
                    assert_eq!(d.head, vec![y]);
                    d.validate().unwrap();
                }
            }
            other => panic!("expected enrichment, got {other:?}"),
        }
    }

    #[test]
    fn bounded_repetition_reverts() {
        // isMarriedTo{1,2} offers nothing (single-label endpoints), and the
        // union split alone must not count as enrichment (§5.2: IC9-style).
        let schema = fig1_yago_schema();
        let r = rewrite_path(&schema, &pe("isMarriedTo{1,2}"), RewriteOptions::default());
        assert!(r.outcome.is_reverted(), "{:?}", r.outcome);
    }

    #[test]
    fn a_revert_reports_the_served_query() {
        // isMarriedTo{1,2} splits into two disjuncts, finds nothing to
        // exploit and serves the one-disjunct baseline: the report counts
        // what is served, as a budget revert's does.
        let schema = fig1_yago_schema();
        let r = rewrite_path(&schema, &pe("isMarriedTo{1,2}"), RewriteOptions::default());
        assert_eq!(
            r.report.revert_reason.as_deref(),
            Some("no exploitable schema information")
        );
        assert_eq!((r.report.disjuncts, r.report.atoms), (1, 0));
        let opts = RewriteOptions {
            max_triples: 1,
            ..Default::default()
        };
        let r = rewrite_path(&schema, &pe("isLocatedIn[dealsWith+]"), opts);
        assert_eq!(
            r.report.revert_reason.as_deref(),
            Some("rewrite budget exceeded")
        );
        assert_eq!((r.report.disjuncts, r.report.atoms), (1, 0));
        assert!(
            !r.report.still_recursive,
            "R2 dropped the closure: the served query has none"
        );
    }

    #[test]
    fn rewrite_preserves_semantics_on_fig2() {
        use sgq_graph::database::fig2_yago_database;
        let schema = fig1_yago_schema();
        let db = fig2_yago_database();
        for s in [
            "livesIn/isLocatedIn+/dealsWith+",
            "isLocatedIn+",
            "owns/isLocatedIn",
            "livesIn/isLocatedIn+",
            "[owns]([isMarriedTo]livesIn)",
            "owns | livesIn",
            "isMarriedTo+",
            "-isLocatedIn/-livesIn",
        ] {
            let phi = pe(s);
            let baseline = sgq_algebra::eval::eval_path(&db, &phi);
            let r = rewrite_path(&schema, &phi, RewriteOptions::default());
            let rewritten_pairs = match &r.outcome {
                RewriteOutcome::Empty => Vec::new(),
                RewriteOutcome::Reverted(q) | RewriteOutcome::Enriched(q) => {
                    eval_ucqt_reference(&db, q)
                }
            };
            assert_eq!(baseline, rewritten_pairs, "semantics changed for {s}");
        }
    }

    /// Tiny reference UCQT evaluator (binary head) used only by tests:
    /// joins relations nested-loop style over the reference path semantics.
    type MaterializedRel = (VarId, Vec<(sgq_common::NodeId, sgq_common::NodeId)>, VarId);

    fn eval_ucqt_reference(
        db: &sgq_graph::GraphDatabase,
        q: &Ucqt,
    ) -> Vec<(sgq_common::NodeId, sgq_common::NodeId)> {
        use sgq_common::NodeId;
        let mut out: Vec<(NodeId, NodeId)> = Vec::new();
        for c in &q.disjuncts {
            // materialise each relation
            let rels: Vec<MaterializedRel> = c
                .relations
                .iter()
                .map(|r| {
                    (
                        r.src,
                        sgq_query::annotated::eval_annotated(db, &r.path),
                        r.tgt,
                    )
                })
                .collect();
            // brute-force join via recursive assignment
            let mut bindings: FxHashMap<VarId, NodeId> = FxHashMap::default();
            join(db, c, &rels, 0, &mut bindings, &mut out);
        }
        sgq_common::sorted::normalize(&mut out);
        out
    }

    fn join(
        db: &sgq_graph::GraphDatabase,
        c: &Cqt,
        rels: &[MaterializedRel],
        i: usize,
        bindings: &mut FxHashMap<VarId, sgq_common::NodeId>,
        out: &mut Vec<(sgq_common::NodeId, sgq_common::NodeId)>,
    ) {
        if i == rels.len() {
            for atom in &c.atoms {
                if let Some(n) = bindings.get(&atom.var) {
                    if !atom.labels.contains(&db.node_label(*n)) {
                        return;
                    }
                }
            }
            out.push((bindings[&c.head[0]], bindings[&c.head[1]]));
            return;
        }
        let (src, pairs, tgt) = &rels[i];
        for &(s, t) in pairs {
            if src == tgt && s != t {
                continue;
            }
            let s_ok = bindings.get(src).is_none_or(|&b| b == s);
            let t_ok = bindings.get(tgt).is_none_or(|&b| b == t);
            if s_ok && t_ok {
                let s_new = !bindings.contains_key(src);
                let t_new = !bindings.contains_key(tgt);
                bindings.insert(*src, s);
                bindings.insert(*tgt, t);
                join(db, c, rels, i + 1, bindings, out);
                if s_new {
                    bindings.remove(src);
                }
                if t_new {
                    bindings.remove(tgt);
                }
            }
        }
    }
}
