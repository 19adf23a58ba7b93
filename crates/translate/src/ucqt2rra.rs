//! UCQT → recursive relational algebra.
//!
//! Path expressions translate structurally; the conjunction and branching
//! cases implement Tab. 2:
//!
//! ```text
//! Lϕ1 ∩ ϕ2M  = natural join of both translations on (Sr, Tr)
//! Lϕ1[ϕ2]M   = Lϕ1M ⋉ π_Sr(Lϕ2M)   (semi-join on the shared endpoint)
//! L[ϕ1]ϕ2M   = Lϕ2M ⋉ π_Sr(Lϕ1M)
//! ```
//!
//! Transitive closure becomes the µ fixpoint of
//! [`sgq_ra::term::closure_fixpoint`]; a CQT is the natural join of its
//! relations projected onto the head. A label atom `x : L` is the label set
//! of `x`'s endpoint on each plain relation (`l` or `-l`, `x` ≠ the other
//! end), and a semi-join with `L`'s node tables only if `x` is on another.
//!
//! This is the RA stack's *ingestion edge*: every column and recursion
//! variable is interned once here, through the [`SymbolTable`] borrowed
//! by [`NameGen`] (normally `store.symbols`), and everything downstream
//! of translation works with dense ids.

use sgq_algebra::ast::PathExpr;
use sgq_common::{ColId, RecVarId, Result, SgqError, VarId};
use sgq_query::annotated::AnnotatedPath::Plain;
use sgq_query::cqt::{Cqt, Relation, Ucqt};
use sgq_ra::symbols::SymbolTable;
use sgq_ra::term::{closure_fixpoint, RaTerm};

/// Interns the column for a query variable (`v0`, `v1`, ...).
pub fn var_col(v: VarId, symbols: &SymbolTable) -> ColId {
    symbols.col(&format!("v{}", v.raw()))
}

/// Fresh-name generator for intermediate columns and fixpoint variables,
/// interning through the symbol table of the store the term will run on.
#[derive(Debug)]
pub struct NameGen<'a> {
    symbols: &'a SymbolTable,
    next: u32,
}

impl<'a> NameGen<'a> {
    /// A generator interning into `symbols`.
    pub fn new(symbols: &'a SymbolTable) -> Self {
        NameGen { symbols, next: 0 }
    }

    /// The symbol table this generator interns into.
    pub fn symbols(&self) -> &'a SymbolTable {
        self.symbols
    }

    fn mid(&mut self) -> ColId {
        let n = self.next;
        self.next += 1;
        self.symbols.col(&format!("m${n}"))
    }

    fn fix(&mut self) -> RecVarId {
        let n = self.next;
        self.next += 1;
        self.symbols.recvar(&format!("X{n}"))
    }
}

/// Translates a path expression into a binary RA term with columns
/// `(src, tgt)`.
pub fn path_to_term(expr: &PathExpr, src: ColId, tgt: ColId, names: &mut NameGen<'_>) -> RaTerm {
    match expr {
        PathExpr::Label(le) => RaTerm::edge_scan(*le, src, tgt),
        // ρ swaps the roles of Sr and Tr; re-project so every translation
        // exposes its columns in (src, tgt) order (unions require it).
        PathExpr::Reverse(le) => RaTerm::project(RaTerm::edge_scan(*le, tgt, src), vec![src, tgt]),
        PathExpr::Concat(a, b) => {
            let m = names.mid();
            let left = path_to_term(a, src, m, names);
            let right = path_to_term(b, m, tgt, names);
            RaTerm::project(RaTerm::join(left, right), vec![src, tgt])
        }
        PathExpr::Union(a, b) => RaTerm::union(
            path_to_term(a, src, tgt, names),
            path_to_term(b, src, tgt, names),
        ),
        // Tab. 2: conjunction = natural join on both endpoints.
        PathExpr::Conj(a, b) => RaTerm::join(
            path_to_term(a, src, tgt, names),
            path_to_term(b, src, tgt, names),
        ),
        // Tab. 2: ϕ1[ϕ2] = Lϕ1M ⋉ π_tgt(Lϕ2M with Sr renamed to tgt).
        PathExpr::BranchR(a, b) => {
            let m = names.mid();
            let test = path_to_term(b, tgt, m, names);
            RaTerm::semijoin(
                path_to_term(a, src, tgt, names),
                RaTerm::project(test, vec![tgt]),
            )
        }
        // Tab. 2: [ϕ1]ϕ2 = Lϕ2M ⋉ π_src(Lϕ1M).
        PathExpr::BranchL(a, b) => {
            let m = names.mid();
            let test = path_to_term(a, src, m, names);
            RaTerm::semijoin(
                path_to_term(b, src, tgt, names),
                RaTerm::project(test, vec![src]),
            )
        }
        PathExpr::Plus(a) => {
            let inner = path_to_term(a, src, tgt, names);
            let var = names.fix();
            let mid = names.mid();
            closure_fixpoint(var, inner, src, tgt, mid)
        }
    }
}

/// Translates one CQT: relations joined naturally under their label
/// atoms, projected onto the head.
pub fn cqt_to_term(cqt: &Cqt, names: &mut NameGen<'_>) -> Result<RaTerm> {
    cqt.validate()?;
    let symbols = names.symbols();
    // Whether a relation is one plain-label scan between two variables.
    let plain = |r: &Relation| {
        r.src != r.tgt && matches!(r.path, Plain(PathExpr::Label(_) | PathExpr::Reverse(_)))
    };
    let mut acc: Option<RaTerm> = None;
    for rel in &cqt.relations {
        let expr = rel.path.strip();
        let term = if rel.src == rel.tgt {
            // (x, ϕ, x): translate with a fresh target, select equality and
            // keep a single column.
            let m = names.mid();
            let src = var_col(rel.src, symbols);
            let t = path_to_term(&expr, src, m, names);
            RaTerm::project(RaTerm::select_eq(t, src, m), vec![src])
        } else {
            let (src, tgt) = (var_col(rel.src, symbols), var_col(rel.tgt, symbols));
            let mut term = path_to_term(&expr, src, tgt, names);
            for atom in cqt.atoms.iter().filter(|_| plain(rel)) {
                for (var, col) in [(rel.src, src), (rel.tgt, tgt)] {
                    if atom.var == var {
                        term.restrict_endpoint(col, &atom.labels);
                    }
                }
            }
            term
        };
        acc = Some(match acc {
            None => term,
            Some(a) => RaTerm::join(a, term),
        });
    }
    let mut term = acc.ok_or_else(|| SgqError::Query("CQT has no relations".into()))?;
    for atom in &cqt.atoms {
        let mut at = (cqt.relations.iter()).filter(|r| r.src == atom.var || r.tgt == atom.var);
        if at.clone().next().is_some() && at.all(plain) {
            continue;
        }
        term = RaTerm::semijoin(
            term,
            RaTerm::NodeScan {
                labels: atom.labels.clone(),
                col: var_col(atom.var, symbols),
            },
        );
    }
    let head: Vec<ColId> = cqt.head.iter().map(|&v| var_col(v, symbols)).collect();
    Ok(RaTerm::project(term, head))
}

/// Translates a whole UCQT: the union of its disjunct translations.
pub fn ucqt_to_term(query: &Ucqt, names: &mut NameGen<'_>) -> Result<RaTerm> {
    query.validate()?;
    let head: Vec<ColId> = query
        .head
        .iter()
        .map(|&v| var_col(v, names.symbols()))
        .collect();
    let mut acc: Option<RaTerm> = None;
    for cqt in &query.disjuncts {
        let t = cqt_to_term(cqt, names)?;
        let t = RaTerm::project(t, head.clone());
        acc = Some(match acc {
            None => t,
            Some(a) => RaTerm::union(a, t),
        });
    }
    acc.ok_or_else(|| SgqError::Query("UCQT has no disjuncts".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::database::fig2_yago_database;
    use sgq_ra::exec::{execute, ExecContext};
    use sgq_ra::storage::RelStore;

    type Pairs = Vec<(u32, u32)>;

    fn eval_expr(s: &str) -> (Pairs, Pairs) {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let e = parse_path(s, &db).unwrap();
        let (v0, v1) = (store.symbols.col("v0"), store.symbols.col("v1"));
        let mut names = NameGen::new(&store.symbols);
        let t = path_to_term(&e, v0, v1, &mut names);
        let mut ctx = ExecContext::new();
        let rel = execute(&t, &store, &mut ctx).unwrap();
        let rel = rel.project(&[v0, v1]);
        let got: Vec<(u32, u32)> = rel.rows().map(|r| (r[0], r[1])).collect();
        let want: Vec<(u32, u32)> = sgq_algebra::eval::eval_path(&db, &e)
            .iter()
            .map(|&(a, b)| (a.raw(), b.raw()))
            .collect();
        (got, want)
    }

    #[test]
    fn path_translation_matches_reference() {
        for s in [
            "owns",
            "-owns",
            "owns/isLocatedIn",
            "livesIn/isLocatedIn+",
            "isLocatedIn+",
            "isMarriedTo+",
            "owns | livesIn",
            "isMarriedTo & isMarriedTo",
            "livesIn[isLocatedIn]",
            "[owns]livesIn",
            "[owns]([isMarriedTo]livesIn)",
            "(livesIn/isLocatedIn)+",
        ] {
            let (got, want) = eval_expr(s);
            assert_eq!(got, want, "RA translation diverged for {s}");
        }
    }

    #[test]
    fn cqt_translation_with_atoms() {
        use sgq_common::VarId;
        use sgq_query::cqt::{Cqt, LabelAtom, Relation as QRel};
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let a = VarId::new(0);
        let b = VarId::new(1);
        let region = db.node_label_id("REGION").unwrap();
        let cqt = Cqt {
            head: vec![a, b],
            atoms: vec![LabelAtom {
                var: b,
                labels: vec![region],
            }],
            relations: vec![QRel::plain(a, parse_path("isLocatedIn", &db).unwrap(), b)],
        };
        let mut names = NameGen::new(&store.symbols);
        let t = cqt_to_term(&cqt, &mut names).unwrap();
        let mut ctx = ExecContext::new();
        let rel = execute(&t, &store, &mut ctx).unwrap();
        // CITY(n4,id3)->REGION and CITY(n6,id5)->REGION
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn self_loop_relation() {
        use sgq_common::VarId;
        use sgq_query::cqt::{Cqt, Relation as QRel};
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let x = VarId::new(0);
        let cqt = Cqt {
            head: vec![x],
            atoms: vec![],
            relations: vec![QRel::plain(x, parse_path("isMarriedTo+", &db).unwrap(), x)],
        };
        let mut names = NameGen::new(&store.symbols);
        let t = cqt_to_term(&cqt, &mut names).unwrap();
        let mut ctx = ExecContext::new();
        let rel = execute(&t, &store, &mut ctx).unwrap();
        assert_eq!(rel.len(), 2); // John and Shradha reach themselves
    }

    #[test]
    fn ucqt_union_translation() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let e = parse_path("owns | livesIn", &db).unwrap();
        let q = sgq_query::cqt::Ucqt::path_query(e.clone());
        let mut names = NameGen::new(&store.symbols);
        let t = ucqt_to_term(&q, &mut names).unwrap();
        let mut ctx = ExecContext::new();
        let rel = execute(&t, &store, &mut ctx).unwrap();
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn optimized_translation_is_equivalent() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        for s in ["livesIn/isLocatedIn+", "owns/isLocatedIn", "[owns]livesIn"] {
            let e = parse_path(s, &db).unwrap();
            let q = sgq_query::cqt::Ucqt::path_query(e);
            let mut names = NameGen::new(&store.symbols);
            let t = ucqt_to_term(&q, &mut names).unwrap();
            let opt = sgq_ra::optimize::optimize(&t, &store);
            let mut ctx = ExecContext::new();
            let plain = execute(&t, &store, &mut ctx).unwrap();
            let optimized = execute(&opt, &store, &mut ctx).unwrap();
            assert_eq!(plain, optimized, "optimiser changed semantics for {s}");
        }
    }
}
