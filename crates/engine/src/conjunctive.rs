//! A binding-table executor for the CQTs that are not chains.
//!
//! `GraphEngine::run_ucqt` sends every chain disjunct through the expand
//! kernel; what reaches this module is a cycle (LDBC `IS7`'s second
//! disjunct, YAGO `Y17`), a branching pattern, a `src == tgt` relation or
//! a head of another arity. Relations are evaluated one at a time into
//! pair sets (with seed pushdown from already-bound variables and
//! node-label atoms) and joined into a growing binding table. Join order
//! is greedy: among the relations sharing a bound variable, the one with
//! the smallest cardinality estimate goes first — a deliberately simple
//! version of what Neo4j's planner does with graph patterns.
//!
//! The binding table is a flat [`Rows`]. Every join writes its output
//! rows straight into one buffer and keeps only the *live* variables —
//! those in the head or used by a relation still to come — and the table
//! left by the last join is the answer.

use sgq_algebra::ast::PathExpr;
use sgq_common::{sorted, FxHashMap, Limits, NodeId, Result, VarId};
use sgq_graph::GraphDatabase;
use sgq_query::annotated::LabelSet;
use sgq_query::cqt::Cqt;

use crate::backend::GraphEngine;
use crate::patheval::{eval_seeded, Seeds};
use crate::rows::Rows;

/// How many emitted rows a join writes between two polls of the deadline
/// and the row budget.
const POLL_ROWS: usize = 1 << 16;

/// Executes one CQT against the engine's database, under its limits.
pub fn run_cqt(eng: &GraphEngine<'_>, cqt: &Cqt) -> Result<Rows> {
    let db = eng.db;
    cqt.validate()?;
    // Per-variable label constraints (intersected).
    let mut constraints: FxHashMap<VarId, LabelSet> = FxHashMap::default();
    for atom in &cqt.atoms {
        constraints
            .entry(atom.var)
            .and_modify(|labels| *labels = sorted::intersect(labels, &atom.labels))
            .or_insert_with(|| atom.labels.clone());
    }
    if constraints.values().any(|l| l.is_empty()) {
        return Ok(Rows::empty(cqt.head.len()));
    }

    let exprs: Vec<PathExpr> = cqt.relations.iter().map(|r| r.path.strip()).collect();
    let estimates: Vec<usize> = exprs.iter().map(|e| estimate(db, e)).collect();
    let mut remaining: Vec<usize> = (0..cqt.relations.len()).collect();
    let mut vars: Vec<VarId> = Vec::new();
    let mut rows = Rows::unit();

    while !remaining.is_empty() {
        // Greedy pick: prefer relations sharing a bound variable.
        let pick_pos = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &idx)| {
                let r = &cqt.relations[idx];
                let shares = vars.contains(&r.src) || vars.contains(&r.tgt) || vars.is_empty();
                (!shares, estimates[idx])
            })
            .map(|(pos, _)| pos)
            .expect("remaining is non-empty");
        let idx = remaining.swap_remove(pick_pos);
        let rel = &cqt.relations[idx];

        // Seeds: bound column values take precedence over atom candidates.
        // Seeding is exact, so the pairs already satisfy the label atoms
        // of both endpoints and join with every bound value they mention.
        let seed = |var: VarId| match vars.iter().position(|&v| v == var) {
            Some(pos) => {
                let mut values: Vec<NodeId> = rows.column(pos).collect();
                sorted::normalize(&mut values);
                Some(values)
            }
            None => constraints.get(&var).map(|labels| candidates(db, labels)),
        };
        let (src_seed, tgt_seed) = (seed(rel.src), seed(rel.tgt));
        let seeds = Seeds {
            sources: src_seed.as_deref(),
            targets: tgt_seed.as_deref(),
        };
        let mut pairs = eval_seeded(eng, &exprs[idx], seeds)?;
        if rel.src == rel.tgt {
            pairs.retain(|&(s, t)| s == t);
        }
        let admits = |var: VarId, n: NodeId| {
            let labels = constraints.get(&var);
            labels.is_none_or(|l| sorted::contains(l, &db.node_label(n)))
        };
        debug_assert!(
            pairs
                .iter()
                .all(|&(s, t)| admits(rel.src, s) && admits(rel.tgt, t)),
            "seeding is exact"
        );

        let needed: Vec<VarId> = remaining
            .iter()
            .flat_map(|&i| [cqt.relations[i].src, cqt.relations[i].tgt])
            .collect();
        let live = live_vars(&vars, rel.src, rel.tgt, &cqt.head, &needed);
        rows = join(&vars, &rows, rel.src, rel.tgt, &pairs, &live, &eng.limits)?;
        vars = live;
        if rows.is_empty() {
            return Ok(Rows::empty(cqt.head.len()));
        }
    }
    debug_assert_eq!(vars, cqt.head, "validated: every head variable is bound");
    Ok(rows)
}

/// The sorted nodes carrying one of `labels`.
pub(crate) fn candidates(db: &GraphDatabase, labels: &LabelSet) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = labels
        .iter()
        .flat_map(|&l| db.nodes_with_label(l).iter().copied())
        .collect();
    sorted::normalize(&mut nodes);
    nodes
}

/// Early projection: the columns to keep once the relation `(src, tgt)`
/// has been joined into a table over `vars`. A variable stays while it is
/// in the head or `needed` by a relation not joined yet; everything else
/// can no longer influence the answer. Head variables come first, in head
/// order, so the table left by the last join *is* the head projection.
fn live_vars(
    vars: &[VarId],
    src: VarId,
    tgt: VarId,
    head: &[VarId],
    needed: &[VarId],
) -> Vec<VarId> {
    let bound = |v: &VarId| vars.contains(v) || *v == src || *v == tgt;
    let mut live: Vec<VarId> = head.iter().copied().filter(bound).collect();
    for &v in vars.iter().chain([&src, &tgt]) {
        if needed.contains(&v) && !live.contains(&v) {
            live.push(v);
        }
    }
    live
}

/// The output side of a join: projects each matched *wide row* (the
/// table row followed by the relation's source and target) onto the live
/// columns, straight into one flat buffer.
struct Emitter<'a> {
    wide: Vec<NodeId>,
    /// Position in the wide row of each output column.
    columns: Vec<usize>,
    data: Vec<NodeId>,
    emitted: usize,
    limits: &'a Limits,
}

impl Emitter<'_> {
    /// Emits the current wide row.
    #[inline]
    fn push(&mut self) -> Result<()> {
        self.data.extend(self.columns.iter().map(|&p| self.wide[p]));
        self.emitted += 1;
        if self.emitted.is_multiple_of(POLL_ROWS) {
            self.limits.check_rows(self.emitted)?;
        }
        Ok(())
    }
}

/// Joins the binding table `rows` over `vars` with the canonical `pairs`
/// of a relation `(src, tgt)` on whichever of the two are already bound,
/// keeping the columns `live`.
fn join(
    vars: &[VarId],
    rows: &Rows,
    src: VarId,
    tgt: VarId,
    pairs: &[(NodeId, NodeId)],
    live: &[VarId],
    limits: &Limits,
) -> Result<Rows> {
    limits.fault("engine.join")?;
    let arity = vars.len();
    let position = |var: VarId| vars.iter().position(|&v| v == var);
    let (src_slot, tgt_slot) = (arity, arity + 1);
    let mut out = Emitter {
        wide: vec![NodeId::new(0); arity + 2],
        columns: live
            .iter()
            .map(|&v| position(v).unwrap_or(if v == src { src_slot } else { tgt_slot }))
            .collect(),
        data: Vec::new(),
        emitted: 0,
        limits,
    };
    match (position(src), position(tgt)) {
        (None, None) => {
            // Cartesian extension (first relation, or disconnected pattern).
            for row in rows {
                out.wide[..arity].copy_from_slice(row);
                for &(s, t) in pairs {
                    out.wide[src_slot] = s;
                    out.wide[tgt_slot] = t;
                    out.push()?;
                }
            }
        }
        (Some(key_pos), None) => extend(rows, key_pos, pairs, tgt_slot, &mut out)?,
        (None, Some(key_pos)) => {
            let mut flipped: Vec<(NodeId, NodeId)> = pairs.iter().map(|&(s, t)| (t, s)).collect();
            flipped.sort_unstable();
            extend(rows, key_pos, &flipped, src_slot, &mut out)?;
        }
        (Some(src_pos), Some(tgt_pos)) => {
            for row in rows {
                if sorted::contains(pairs, &(row[src_pos], row[tgt_pos])) {
                    out.wide[..arity].copy_from_slice(row);
                    out.push()?;
                }
            }
        }
    }
    limits.check_rows(out.emitted)?;
    Ok(Rows::from_flat(live.len(), out.emitted, out.data))
}

/// Extends every row by the partners of its `key_pos` value in `keyed`
/// (`(key, partner)` pairs sorted by key, so the partners of one key are
/// one contiguous run), with each partner in slot `slot` of the wide row.
fn extend(
    rows: &Rows,
    key_pos: usize,
    keyed: &[(NodeId, NodeId)],
    slot: usize,
    out: &mut Emitter<'_>,
) -> Result<()> {
    let mut runs: FxHashMap<NodeId, (usize, usize)> = FxHashMap::default();
    let mut start = 0;
    for run in keyed.chunk_by(|a, b| a.0 == b.0) {
        runs.insert(run[0].0, (start, start + run.len()));
        start += run.len();
    }
    for row in rows {
        if let Some(&(lo, hi)) = runs.get(&row[key_pos]) {
            out.wide[..row.len()].copy_from_slice(row);
            for &(_, partner) in &keyed[lo..hi] {
                out.wide[slot] = partner;
                out.push()?;
            }
        }
    }
    Ok(())
}

/// A crude cardinality estimate used only for join ordering: the smallest
/// edge-label relation mentioned in the expression, inflated for closures.
pub(crate) fn estimate(db: &GraphDatabase, expr: &PathExpr) -> usize {
    let labels = expr.edge_labels();
    let base = labels
        .iter()
        .map(|&le| db.edges(le).len())
        .min()
        .unwrap_or(0);
    if expr.is_recursive() {
        base.saturating_mul(4)
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::database::fig2_yago_database;
    use sgq_query::cqt::{LabelAtom, Relation, Ucqt};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn early_projection_keeps_exactly_the_live_variables() {
        let [a, b, c, d, e] = [0, 1, 2, 3, 4].map(VarId::new);
        // Table over (a, b, c); joining (c, _, d); head (d, a); a later
        // relation still needs b and d.
        let live = live_vars(&[a, b, c], c, d, &[d, a], &[b, d, e]);
        assert_eq!(live, [d, a, b], "head first in head order, c dropped");
        // A head variable not bound yet is not invented ...
        assert_eq!(live_vars(&[a], a, b, &[e, a], &[]), [a]);
        // ... one needed later survives although it is not in the head ...
        assert_eq!(live_vars(&[a], a, b, &[a], &[b]), [a, b]);
        // ... and with nothing left to join only the head remains.
        assert_eq!(live_vars(&[a, b, c], c, d, &[d, a], &[]), [d, a]);
    }

    #[test]
    fn dropped_variables_do_not_change_the_answer() {
        // (x, livesIn, c) ∧ (c, isLocatedIn, r) ∧ (r, isLocatedIn, k) with
        // head (k, x): c and r die as soon as their second relation is
        // joined, and the head comes back in head order.
        let db = fig2_yago_database();
        let [x, c, r, k] = [0, 1, 2, 3].map(VarId::new);
        let step = |s, label, t| Relation::plain(s, parse_path(label, &db).unwrap(), t);
        let q = Cqt {
            head: vec![k, x],
            atoms: vec![],
            relations: vec![
                step(x, "livesIn", c),
                step(c, "isLocatedIn", r),
                step(r, "isLocatedIn", k),
            ],
        };
        let rows = run_cqt(&GraphEngine::new(&db), &q).unwrap();
        let e = parse_path("livesIn/isLocatedIn/isLocatedIn", &db).unwrap();
        let mut want: Vec<[NodeId; 2]> = sgq_algebra::eval::eval_path(&db, &e)
            .into_iter()
            .map(|(s, t)| [t, s])
            .collect();
        want.sort_unstable();
        assert!(!want.is_empty());
        assert_eq!(rows.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn single_relation_matches_path_eval() {
        let db = fig2_yago_database();
        let e = parse_path("livesIn/isLocatedIn+", &db).unwrap();
        let q = Ucqt::path_query(e.clone());
        let rows = run_cqt(&GraphEngine::new(&db), &q.disjuncts[0]).unwrap();
        let pairs: Vec<(NodeId, NodeId)> = rows.iter().map(|r| (r[0], r[1])).collect();
        assert_eq!(pairs, sgq_algebra::eval::eval_path(&db, &e));
    }

    #[test]
    fn example5_c1() {
        // C1 = {Y | (Y, livesIn/isLocatedIn+, M) ∧ (Y, owns, Z)}: only
        // John (n2 = id 1) owns a property.
        let db = fig2_yago_database();
        let y = VarId::new(0);
        let z = VarId::new(1);
        let m = VarId::new(2);
        let c1 = Cqt {
            head: vec![y],
            atoms: vec![],
            relations: vec![
                Relation::plain(y, parse_path("livesIn/isLocatedIn+", &db).unwrap(), m),
                Relation::plain(y, parse_path("owns", &db).unwrap(), z),
            ],
        };
        let rows = run_cqt(&GraphEngine::new(&db), &c1).unwrap();
        assert_eq!(rows.iter().collect::<Vec<_>>(), [[n(1)]]);
    }

    #[test]
    fn label_atoms_filter() {
        let db = fig2_yago_database();
        let a = VarId::new(0);
        let b = VarId::new(1);
        let region = db.node_label_id("REGION").unwrap();
        // (a, isLocatedIn, b) with η(b) ∈ {REGION}: only CITY->REGION edges
        let c = Cqt {
            head: vec![a, b],
            atoms: vec![LabelAtom {
                var: b,
                labels: vec![region],
            }],
            relations: vec![Relation::plain(
                a,
                parse_path("isLocatedIn", &db).unwrap(),
                b,
            )],
        };
        let rows = run_cqt(&GraphEngine::new(&db), &c).unwrap();
        assert_eq!(
            rows.iter().collect::<Vec<_>>(),
            [[n(3), n(4)], [n(5), n(4)]]
        );
    }

    #[test]
    fn unsatisfiable_atom_returns_empty() {
        let db = fig2_yago_database();
        let a = VarId::new(0);
        let b = VarId::new(1);
        let person = db.node_label_id("PERSON").unwrap();
        let city = db.node_label_id("CITY").unwrap();
        let c = Cqt {
            head: vec![a, b],
            atoms: vec![
                LabelAtom {
                    var: b,
                    labels: vec![person],
                },
                LabelAtom {
                    var: b,
                    labels: vec![city],
                },
            ],
            relations: vec![Relation::plain(a, parse_path("livesIn", &db).unwrap(), b)],
        };
        assert!(run_cqt(&GraphEngine::new(&db), &c).unwrap().is_empty());
    }

    #[test]
    fn self_loop_variable() {
        // (x, isMarriedTo+, x): both John and Shradha reach themselves.
        let db = fig2_yago_database();
        let x = VarId::new(0);
        let c = Cqt {
            head: vec![x],
            atoms: vec![],
            relations: vec![Relation::plain(
                x,
                parse_path("isMarriedTo+", &db).unwrap(),
                x,
            )],
        };
        let rows = run_cqt(&GraphEngine::new(&db), &c).unwrap();
        assert_eq!(rows.iter().collect::<Vec<_>>(), [[n(1)], [n(2)]]);
    }

    #[test]
    fn triangle_pattern() {
        // (x, owns, y) ∧ (x, livesIn, z) ∧ (y, isLocatedIn, z):
        // John owns n1 located in Montbonnot, but John lives in Elerslie —
        // no match.
        let db = fig2_yago_database();
        let x = VarId::new(0);
        let y = VarId::new(1);
        let z = VarId::new(2);
        let c = Cqt {
            head: vec![x],
            atoms: vec![],
            relations: vec![
                Relation::plain(x, parse_path("owns", &db).unwrap(), y),
                Relation::plain(x, parse_path("livesIn", &db).unwrap(), z),
                Relation::plain(y, parse_path("isLocatedIn", &db).unwrap(), z),
            ],
        };
        assert!(run_cqt(&GraphEngine::new(&db), &c).unwrap().is_empty());
    }
}
