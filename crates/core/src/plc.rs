//! The `PlC` (plus-compatibility) algorithm: Definition 8.
//!
//! Given the compatible-triple set `T = TS(ϕ)`, `PlC(ϕ, T)` decides, per
//! endpoint pair, whether the transitive closure `ϕ+` can be replaced by a
//! finite set of fixed-length annotated concatenations:
//!
//! 1. build the directed multigraph `G` whose vertices are node labels and
//!    whose edges are the triples of `T`;
//! 2. compute `K`, the vertices lying on a cycle;
//! 3. for every simple path `p` from `A` to `B` in `G` (plus the trivial
//!    path at every `A ∈ K`): if `p` touches `K`, emit `(A, ϕ+, B)`;
//!    otherwise emit the concatenation of `p`'s triples, annotated with the
//!    intermediate labels.
//!
//! When the label graph is acyclic this *eliminates the transitive closure
//! entirely* — the paper's headline optimisation (16 of 18 YAGO queries,
//! Tab. 6).

use sgq_common::NodeLabelId;
use sgq_graph::schema::LABEL_PATH_CAP;
use sgq_graph::LabelPaths;

use crate::arena::{Arena, Id, IdTriple, Node, Path, PathId, EMPTY};
use crate::infer::basic;

/// Statistics about the fixed-length paths generated while eliminating a
/// transitive closure (feeds the paper's Table 6).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlusStats {
    /// Lengths (in schema-triple steps) of each generated fixed-length path.
    pub path_lengths: Vec<u16>,
    /// Whether some `(A, ϕ+, B)` triple had to be kept (closure survives).
    pub closure_kept: bool,
}

impl PlusStats {
    /// Number of generated fixed-length paths (`#Paths` in Tab. 6).
    pub fn count(&self) -> usize {
        self.path_lengths.len()
    }

    /// Minimum path length.
    pub fn min(&self) -> Option<u16> {
        self.path_lengths.iter().copied().min()
    }

    /// Maximum path length.
    pub fn max(&self) -> Option<u16> {
        self.path_lengths.iter().copied().max()
    }

    /// Average path length.
    pub fn avg(&self) -> Option<f64> {
        if self.path_lengths.is_empty() {
            None
        } else {
            Some(self.path_lengths.iter().map(|&l| l as f64).sum::<f64>() / self.count() as f64)
        }
    }
}

/// Computes `PlC(ϕ, T)` (Definition 8) for `T = triples`, the inferred
/// `TS(ϕ)`, in no particular order.
///
/// The closure of a single label `l+` or `-l+` reads `G`'s simple paths
/// off the schema ([`GraphSchema::label_paths`](sgq_graph::GraphSchema::label_paths)):
/// `T` holds one triple per schema edge of `l`, so `G` is `l`'s subgraph,
/// or that subgraph reversed, whose simple paths are its paths reversed.
/// Anything else enumerates `G` here. Either way, more simple paths than
/// `max_paths` (the rewrite's budget, a guard against dense label graphs)
/// give the reachability-only result.
pub(crate) fn plc(
    arena: &mut Arena,
    phi: PathId,
    triples: &[IdTriple],
    max_paths: usize,
) -> Vec<IdTriple> {
    let plus = arena.path(Path::Plus(phi));
    let plus = arena.plain(plus);
    let table = match arena.path_node(phi) {
        Path::Label(le) => Some((le, false)),
        Path::Reverse(le) => Some((le, true)),
        _ => None,
    }
    .and_then(|(le, reverse)| Some((le, reverse, arena.schema().label_paths(le)?)))
    .filter(|(_, _, paths)| paths.complete || max_paths <= LABEL_PATH_CAP);
    let owned;
    let (steps, paths, reverse): (Vec<IdTriple>, &LabelPaths, bool) = match table {
        Some((le, reverse, paths)) => (basic(arena, phi, le, reverse), paths, reverse),
        None => {
            #[cfg(test)]
            LIVE_ENUMERATIONS.with(|n| n.set(n.get() + 1));
            let edges: Vec<_> = triples.iter().map(|t| (t.src, t.tgt)).collect();
            owned = LabelPaths::enumerate(&edges, max_paths);
            (triples.to_vec(), &owned, false)
        }
    };
    let flip = |(a, b)| if reverse { (b, a) } else { (a, b) };
    if !(paths.complete && paths.len() <= max_paths) {
        // Over budget: the sound, complete, non-eliminating
        // result — `(A, ϕ+, B)` for every pair joined by a path in `G`.
        let pairs = paths.reach.iter().map(|&p| flip(p));
        return pairs
            .map(|(a, b)| IdTriple::new(a, plus, b, EMPTY))
            .collect();
    }
    // Trivial paths: every vertex on a cycle yields (A, ϕ+, A).
    let mut out: Vec<IdTriple> = paths
        .cyclic
        .iter()
        .map(|&a| IdTriple::new(a, plus, a, EMPTY))
        .collect();
    let (mut path, mut lens) = (Vec::new(), Vec::new());
    for p in paths.paths() {
        path.clear();
        match reverse {
            true => path.extend(p.iter().rev().map(|&e| steps[e as usize])),
            false => path.extend(p.iter().map(|&e| steps[e as usize])),
        }
        out.push(emit_path(arena, &paths.cyclic, &path, plus, &mut lens));
    }
    out
}

#[cfg(test)]
thread_local! {
    /// Label graphs `plc` enumerated itself on this thread.
    static LIVE_ENUMERATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The triple for one simple path of `G`, given as its edges' triples:
/// `(A, ϕ+, B)` if it touches a cyclic label, otherwise the concatenation
/// of its expressions, each junction annotated with its label
/// (left-associated).
fn emit_path(
    arena: &mut Arena,
    cyclic: &[NodeLabelId],
    path: &[IdTriple],
    plus: Id,
    lens: &mut Vec<u16>,
) -> IdTriple {
    let (first, last) = (path[0], path[path.len() - 1]);
    let on_cycle = |l: &NodeLabelId| cyclic.binary_search(l).is_ok();
    if on_cycle(&first.src) || path.iter().any(|t| on_cycle(&t.tgt)) {
        return IdTriple::new(first.src, plus, last.tgt, EMPTY);
    }
    let mut psi = first.psi;
    lens.clear();
    lens.extend_from_slice(arena.lens_of(first.lens));
    for w in path.windows(2) {
        let junction = Some(arena.set(&[w[0].tgt]));
        psi = arena.add(Node::Concat(psi, junction, w[1].psi));
        lens.extend_from_slice(arena.lens_of(w[1].lens));
    }
    lens.push(path.len() as u16);
    IdTriple::new(first.src, psi, last.tgt, arena.lens(lens))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::tests::intern_triple;
    use crate::triple::Triple;
    use sgq_algebra::ast::PathExpr;
    use sgq_algebra::parser::parse_path;
    use sgq_graph::schema::fig1_yago_schema;
    use sgq_graph::GraphSchema;
    use sgq_query::annotated::AnnotatedPath;

    /// The default `max_paths`.
    fn budget() -> usize {
        crate::pipeline::RewriteOptions::default().max_paths
    }

    /// [`super::plc`] over hand-built trees, sorted as inference sorts.
    fn plc(
        schema: &GraphSchema,
        phi: &PathExpr,
        triples: &[Triple],
        max_paths: usize,
    ) -> Vec<Triple> {
        let mut arena = Arena::new(schema);
        let p = arena.intern_path(phi);
        let t: Vec<IdTriple> = triples
            .iter()
            .map(|t| intern_triple(&mut arena, t))
            .collect();
        let mut r = super::plc(&mut arena, p, &t, max_paths);
        r.sort_unstable_by(|x, y| arena.cmp_triple(x, y));
        let tree = |t: &IdTriple| {
            let lens = arena.lens_of(t.lens).to_vec();
            Triple::with_paths(t.src, arena.tree(t.psi), t.tgt, lens)
        };
        r.iter().map(tree).collect()
    }

    /// The Table 6 statistics of a `PlC` result.
    fn plus_stats(result: &[Triple], phi: &PathExpr) -> PlusStats {
        let plus_form = AnnotatedPath::plain(PathExpr::plus(phi.clone()));
        let mut stats = PlusStats::default();
        for t in result {
            if t.psi == plus_form {
                stats.closure_kept = true;
            } else {
                stats.path_lengths.push(*t.plus_paths.last().unwrap_or(&1));
            }
        }
        stats.path_lengths.sort_unstable();
        stats
    }

    fn basic_triples(schema: &GraphSchema, label: &str) -> Vec<Triple> {
        let le = schema.edge_label(label).unwrap();
        schema
            .triples_for_edge_label(le)
            .iter()
            .map(|&(s, t)| Triple::new(s, AnnotatedPath::plain(PathExpr::Label(le)), t))
            .collect()
    }

    #[test]
    fn dealswith_keeps_closure() {
        // Example 10: TS(dealsWith+) = {(COUNTRY, dealsWith+, COUNTRY)}
        let schema = fig1_yago_schema();
        let phi = parse_path("dealsWith", &schema).unwrap();
        let t = basic_triples(&schema, "dealsWith");
        let r = plc(&schema, &phi, &t, budget());
        assert_eq!(r.len(), 1);
        let country = schema.node_label("COUNTRY").unwrap();
        assert_eq!(r[0].src, country);
        assert_eq!(r[0].tgt, country);
        assert_eq!(r[0].psi, AnnotatedPath::plain(PathExpr::plus(phi.clone())));
        let stats = plus_stats(&r, &phi);
        assert!(stats.closure_kept);
        assert_eq!(stats.count(), 0);
    }

    #[test]
    fn islocatedin_eliminates_closure_with_six_paths() {
        // Example 10: TS(isLocatedIn+) contains 6 triples (6 non-empty
        // paths of the acyclic 4-vertex chain).
        let schema = fig1_yago_schema();
        let phi = parse_path("isLocatedIn", &schema).unwrap();
        let t = basic_triples(&schema, "isLocatedIn");
        let r = plc(&schema, &phi, &t, budget());
        assert_eq!(r.len(), 6);
        let stats = plus_stats(&r, &phi);
        assert!(!stats.closure_kept);
        assert_eq!(stats.count(), 6);
        assert_eq!(stats.min(), Some(1));
        assert_eq!(stats.max(), Some(3));
        // lengths: 1,1,1,2,2,3
        assert_eq!(stats.path_lengths, vec![1, 1, 1, 2, 2, 3]);
    }

    #[test]
    fn ablation_reachability_only() {
        let schema = fig1_yago_schema();
        let phi = parse_path("isLocatedIn", &schema).unwrap();
        let t = basic_triples(&schema, "isLocatedIn");
        // A zero budget keeps every closure: 6 reachable pairs, all ϕ+.
        let r = plc(&schema, &phi, &t, 0);
        assert_eq!(r.len(), 6);
        let plus_form = AnnotatedPath::plain(PathExpr::plus(phi.clone()));
        assert!(r.iter().all(|t| t.psi == plus_form));
    }

    #[test]
    fn budget_falls_back_to_reachability() {
        let schema = fig1_yago_schema();
        let phi = parse_path("isLocatedIn", &schema).unwrap();
        let t = basic_triples(&schema, "isLocatedIn");
        let r = plc(&schema, &phi, &t, 2);
        let plus_form = AnnotatedPath::plain(PathExpr::plus(phi.clone()));
        assert!(r.iter().all(|t| t.psi == plus_form));
    }

    #[test]
    fn mixed_cycle_and_chain() {
        // Graph: A -> B -> C and B -> B (self-loop). Paths through B keep
        // the closure; nothing avoids B here except... nothing: every edge
        // touches B. All results keep ϕ+.
        let mut b = GraphSchema::builder();
        b.edge("A", "r", "B");
        b.edge("B", "r", "B");
        b.edge("B", "r", "C");
        let schema = b.build().unwrap();
        let phi = parse_path("r", &schema).unwrap();
        let t = basic_triples(&schema, "r");
        let r = plc(&schema, &phi, &t, budget());
        let plus_form = AnnotatedPath::plain(PathExpr::plus(phi.clone()));
        assert!(r.iter().all(|t| t.psi == plus_form), "{r:?}");
        // pairs: (A,B),(A,C),(B,B),(B,C) — and A->B->B->C etc. collapse
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn parallel_edges_give_distinct_paths() {
        // Two distinct schema edges A -r-> B and A -s-> B; PlC over the
        // union's triples yields two length-1 paths.
        let mut b = GraphSchema::builder();
        b.edge("A", "r", "B");
        b.edge("A", "s", "B");
        let schema = b.build().unwrap();
        let r_le = schema.edge_label("r").unwrap();
        let s_le = schema.edge_label("s").unwrap();
        let a = schema.node_label("A").unwrap();
        let bb = schema.node_label("B").unwrap();
        let phi = PathExpr::union(PathExpr::Label(r_le), PathExpr::Label(s_le));
        let triples = vec![
            Triple::new(a, AnnotatedPath::plain(PathExpr::Label(r_le)), bb),
            Triple::new(a, AnnotatedPath::plain(PathExpr::Label(s_le)), bb),
        ];
        let r = plc(&schema, &phi, &triples, budget());
        assert_eq!(r.len(), 2);
        let stats = plus_stats(&r, &phi);
        assert_eq!(stats.path_lengths, vec![1, 1]);
    }

    #[test]
    fn single_label_closures_read_the_schema_table() {
        // `l+` and `-l+` enumerate nothing per statement: two rewrites of
        // isLocatedIn+ read the paths the schema enumerated at build.
        use crate::pipeline::{rewrite_path, RewriteOptions};
        let schema = fig1_yago_schema();
        let before = LIVE_ENUMERATIONS.with(|n| n.get());
        let table = schema.label_paths(schema.edge_label("isLocatedIn").unwrap());
        for s in ["isLocatedIn+", "isLocatedIn+", "-isLocatedIn+"] {
            let phi = parse_path(s, &schema).unwrap();
            assert!(rewrite_path(&schema, &phi, RewriteOptions::default())
                .report
                .closure_eliminated());
        }
        assert_eq!(LIVE_ENUMERATIONS.with(|n| n.get()), before);
        let again = schema.label_paths(schema.edge_label("isLocatedIn").unwrap());
        assert!(std::ptr::eq(table.unwrap(), again.unwrap()));
        // A compound closure has no table.
        let phi = parse_path("(isLocatedIn|owns)+", &schema).unwrap();
        rewrite_path(&schema, &phi, RewriteOptions::default());
        assert_eq!(LIVE_ENUMERATIONS.with(|n| n.get()), before + 1);
    }

    #[test]
    fn a_label_past_the_table_cap_is_enumerated_when_the_budget_allows() {
        // r over a 13-label transitive tournament has 2^13 - 14 simple
        // paths, more than the schema keeps: a larger budget eliminates
        // the closure anyway, a smaller one falls back to reachability.
        let mut b = GraphSchema::builder();
        let names: Vec<String> = (0..13).map(|i| format!("N{i:02}")).collect();
        for i in 0..13 {
            for j in i + 1..13 {
                b.edge(&names[i], "r", &names[j]);
            }
        }
        let schema = b.build().unwrap();
        let le = schema.edge_label("r").unwrap();
        assert!(!schema.label_paths(le).unwrap().complete);
        let phi = parse_path("r", &schema).unwrap();
        let t: Vec<Triple> = (schema.triples_for_edge_label(le).iter())
            .map(|&(s, t)| Triple::new(s, AnnotatedPath::plain(phi.clone()), t))
            .collect();
        let run = |max_paths| plus_stats(&plc(&schema, &phi, &t, max_paths), &phi);
        let eliminated = run(8178);
        assert!(!eliminated.closure_kept);
        assert_eq!(eliminated.count(), 8178);
        let kept = run(8177);
        assert!(kept.closure_kept && kept.count() == 0);
    }
}
