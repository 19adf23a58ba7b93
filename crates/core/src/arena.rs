//! One hash-consed arena of annotated path expressions per rewrite call.
//!
//! Inference (Fig. 8), `PlC` (Def. 8), SQ-Merge (Def. 9), redundancy
//! removal, canonicalisation (§3.2.2) and the translation `Q` (Fig. 9) all
//! work on ids into one [`Arena`]. A distinct expression is added once,
//! and what those steps ask of it is computed then: its strip (the plain
//! expression, annotations dropped), its merge shape, whether it is
//! annotated, and the over-approximated endpoint labels of its strip.
//! Equal ids are equal expressions, so deduplication and grouping compare
//! ids. *Order* stays structural — [`Arena::cmp`] is the derived `Ord` of
//! the trees — because the order of disjuncts and atoms feeds the
//! translation, and so the plans.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::hash::Hash;
use std::rc::Rc;

use sgq_algebra::ast::PathExpr;
use sgq_common::{sorted, EdgeLabelId, FxHashMap, NodeLabelId};
use sgq_graph::GraphSchema;
use sgq_query::annotated::AnnotatedPath;

/// Ids of an annotated expression, a plain one, a label set and a sorted
/// list of plus-path lengths.
pub(crate) type Id = u32;
pub(crate) type PathId = u32;
pub(crate) type SetId = u32;
pub(crate) type LensId = u32;

/// The empty label set and the empty length list.
pub(crate) const EMPTY: u32 = 0;

/// [`PathExpr`] with ids for children. The variants keep the tree's order,
/// so the derived `Ord` ranks two variants as the tree's does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum Path {
    Label(EdgeLabelId),
    Reverse(EdgeLabelId),
    Concat(PathId, PathId),
    Union(PathId, PathId),
    Conj(PathId, PathId),
    BranchR(PathId, PathId),
    BranchL(PathId, PathId),
    Plus(PathId),
}

/// [`AnnotatedPath`] with ids for children, variants in the tree's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum Node {
    Plain(PathId),
    Concat(Id, Option<SetId>, Id),
    BranchR(Id, Id),
    BranchL(Id, Id),
    Conj(Id, Id),
}

impl Node {
    /// The node with `f` applied to each child, left to right.
    pub fn map_kids(self, mut f: impl FnMut(Id) -> Id) -> Node {
        match self {
            Node::Plain(_) => self,
            Node::Concat(a, ann, b) => Node::Concat(f(a), ann, f(b)),
            Node::BranchR(a, b) => Node::BranchR(f(a), f(b)),
            Node::BranchL(a, b) => Node::BranchL(f(a), f(b)),
            Node::Conj(a, b) => Node::Conj(f(a), f(b)),
        }
    }
}

/// A schema triple `(ln, ψ, l'n)` (Def. 6) over the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct IdTriple {
    pub src: NodeLabelId,
    pub psi: Id,
    pub tgt: NodeLabelId,
    pub lens: LensId,
}

impl IdTriple {
    pub fn new(src: NodeLabelId, psi: Id, tgt: NodeLabelId, lens: LensId) -> Self {
        IdTriple {
            src,
            psi,
            tgt,
            lens,
        }
    }
}

/// A merged triple `(L1, Ψ, L2)` (Def. 9) over the arena; `None` is an
/// endpoint proven redundant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdMerged {
    pub src: Option<SetId>,
    pub psi: Id,
    pub tgt: Option<SetId>,
    pub lens: LensId,
}

/// Distinct values numbered in insertion order, each with its facts.
struct Pool<K, F = ()> {
    items: Vec<(K, F)>,
    ids: FxHashMap<K, u32>,
}

impl<K: Hash + Eq + Clone, F: Copy> Pool<K, F> {
    fn new(capacity: usize) -> Self {
        let items = Vec::with_capacity(capacity);
        let ids = sgq_common::hash::map_with_capacity(capacity);
        Pool { items, ids }
    }

    fn find<Q: Hash + Eq + ?Sized>(&self, k: &Q) -> Option<u32>
    where
        K: Borrow<Q>,
    {
        self.ids.get(k).copied()
    }

    fn push(&mut self, k: K, facts: F) -> u32 {
        let id = self.items.len() as u32;
        self.ids.insert(k.clone(), id);
        self.items.push((k, facts));
        id
    }

    fn key(&self, id: u32) -> &K {
        &self.items[id as usize].0
    }

    fn facts(&self, id: u32) -> F {
        self.items[id as usize].1
    }
}

/// A plain expression's over-approximated source and target labels, and
/// whether it has a closure.
#[derive(Clone, Copy)]
struct PathFacts {
    src: SetId,
    tgt: SetId,
    recursive: bool,
}

/// An annotated expression's strip, merge shape and annotation flag.
#[derive(Clone, Copy)]
struct NodeFacts {
    strip: PathId,
    shape: Id,
    annotated: bool,
}

/// The arena of one rewrite call over `schema`.
pub(crate) struct Arena<'s> {
    schema: &'s GraphSchema,
    paths: Pool<Path, PathFacts>,
    nodes: Pool<Node, NodeFacts>,
    sets: Pool<Rc<[NodeLabelId]>>,
    lens: Pool<Rc<[u16]>>,
}

impl<'s> Arena<'s> {
    pub fn new(schema: &'s GraphSchema) -> Self {
        let (paths, nodes) = (Pool::new(16), Pool::new(16));
        let (mut sets, mut lens) = (Pool::new(16), Pool::new(4));
        sets.push(Rc::from([]), ());
        lens.push(Rc::from([]), ());
        Arena {
            schema,
            paths,
            nodes,
            sets,
            lens,
        }
    }

    pub fn schema(&self) -> &'s GraphSchema {
        self.schema
    }

    /// The label set holding `labels` (sorted, deduplicated).
    pub fn set(&mut self, labels: &[NodeLabelId]) -> SetId {
        (self.sets.find(labels)).unwrap_or_else(|| self.sets.push(labels.into(), ()))
    }

    pub fn labels(&self, s: SetId) -> &[NodeLabelId] {
        self.sets.key(s)
    }

    /// `op` (a [`sorted`] set operation) of two label sets.
    pub fn set_op(&mut self, op: SetOp, a: SetId, b: SetId) -> SetId {
        if a == b {
            return a;
        }
        let out = op(self.labels(a), self.labels(b));
        self.set(&out)
    }

    /// Whether `a ⊆ b`.
    pub fn subset(&self, a: SetId, b: SetId) -> bool {
        let b = self.labels(b);
        self.labels(a).iter().all(|l| sorted::contains(b, l))
    }

    /// The length list holding `lens`, sorted.
    pub fn lens(&mut self, lens: &mut [u16]) -> LensId {
        lens.sort_unstable();
        let lens = &*lens;
        (self.lens.find(lens)).unwrap_or_else(|| self.lens.push(lens.into(), ()))
    }

    pub fn lens_of(&self, l: LensId) -> &[u16] {
        self.lens.key(l)
    }

    /// Both lists' lengths, sorted.
    pub fn join_lens(&mut self, a: LensId, b: LensId) -> LensId {
        match (a, b) {
            (EMPTY, l) | (l, EMPTY) => l,
            _ => self.lens(&mut [self.lens_of(a), self.lens_of(b)].concat()),
        }
    }

    /// Adds a plain expression, computing its endpoint labels.
    pub fn path(&mut self, p: Path) -> PathId {
        if let Some(id) = self.paths.find(&p) {
            return id;
        }
        let (union, inter): (SetOp, SetOp) = (sorted::union, sorted::intersect);
        let facts = match p {
            Path::Label(le) | Path::Reverse(le) => {
                let s = self.set(self.schema.source_labels(le));
                let t = self.set(self.schema.target_labels(le));
                let (src, tgt) = if matches!(p, Path::Label(_)) {
                    (s, t)
                } else {
                    (t, s)
                };
                PathFacts {
                    src,
                    tgt,
                    recursive: false,
                }
            }
            Path::Plus(a) => PathFacts {
                recursive: true,
                ..self.paths.facts(a)
            },
            Path::Concat(a, b)
            | Path::Union(a, b)
            | Path::Conj(a, b)
            | Path::BranchR(a, b)
            | Path::BranchL(a, b) => {
                let (a, b) = (self.paths.facts(a), self.paths.facts(b));
                let (src, tgt) = match p {
                    Path::Concat(..) => (a.src, b.tgt),
                    Path::Union(..) => (
                        self.set_op(union, a.src, b.src),
                        self.set_op(union, a.tgt, b.tgt),
                    ),
                    Path::Conj(..) => (
                        self.set_op(inter, a.src, b.src),
                        self.set_op(inter, a.tgt, b.tgt),
                    ),
                    Path::BranchR(..) => (a.src, self.set_op(inter, a.tgt, b.src)),
                    _ => (self.set_op(inter, a.src, b.src), b.tgt),
                };
                let recursive = a.recursive || b.recursive;
                PathFacts {
                    src,
                    tgt,
                    recursive,
                }
            }
        };
        self.paths.push(p, facts)
    }

    pub fn path_node(&self, p: PathId) -> Path {
        *self.paths.key(p)
    }

    /// Over-approximated `(source labels, target labels)` of `p`.
    pub fn ends(&self, p: PathId) -> (SetId, SetId) {
        let f = self.paths.facts(p);
        (f.src, f.tgt)
    }

    pub fn recursive(&self, p: PathId) -> bool {
        self.paths.facts(p).recursive
    }

    pub fn intern_path(&mut self, e: &PathExpr) -> PathId {
        let mut two = |a, b, f: fn(PathId, PathId) -> Path| {
            let (a, b) = (self.intern_path(a), self.intern_path(b));
            f(a, b)
        };
        let p = match e {
            PathExpr::Label(le) => Path::Label(*le),
            PathExpr::Reverse(le) => Path::Reverse(*le),
            PathExpr::Concat(a, b) => two(a, b, Path::Concat),
            PathExpr::Union(a, b) => two(a, b, Path::Union),
            PathExpr::Conj(a, b) => two(a, b, Path::Conj),
            PathExpr::BranchR(a, b) => two(a, b, Path::BranchR),
            PathExpr::BranchL(a, b) => two(a, b, Path::BranchL),
            PathExpr::Plus(a) => Path::Plus(self.intern_path(a)),
        };
        self.path(p)
    }

    pub fn path_expr(&self, p: PathId) -> PathExpr {
        let e = |q| self.path_expr(q);
        match self.path_node(p) {
            Path::Label(le) => PathExpr::Label(le),
            Path::Reverse(le) => PathExpr::Reverse(le),
            Path::Concat(a, b) => PathExpr::concat(e(a), e(b)),
            Path::Union(a, b) => PathExpr::union(e(a), e(b)),
            Path::Conj(a, b) => PathExpr::conj(e(a), e(b)),
            Path::BranchR(a, b) => PathExpr::branch_r(e(a), e(b)),
            Path::BranchL(a, b) => PathExpr::branch_l(e(a), e(b)),
            Path::Plus(a) => PathExpr::plus(e(a)),
        }
    }

    /// The derived `Ord` of [`PathExpr`], on ids.
    pub fn cmp_path(&self, a: PathId, b: PathId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let (x, y) = (self.path_node(a), self.path_node(b));
        match (x, y) {
            (Path::Concat(a1, b1), Path::Concat(a2, b2))
            | (Path::Union(a1, b1), Path::Union(a2, b2))
            | (Path::Conj(a1, b1), Path::Conj(a2, b2))
            | (Path::BranchR(a1, b1), Path::BranchR(a2, b2))
            | (Path::BranchL(a1, b1), Path::BranchL(a2, b2)) => {
                self.cmp_path(a1, a2).then_with(|| self.cmp_path(b1, b2))
            }
            (Path::Plus(a), Path::Plus(b)) => self.cmp_path(a, b),
            // Two variants, or two labels: their own order.
            _ => x.cmp(&y),
        }
    }

    /// Adds an annotated expression, computing its strip, merge shape and
    /// annotation flag. The shape replaces every annotation by the empty
    /// set and every child by its shape: only where annotations sit
    /// distinguishes two shapes.
    pub fn add(&mut self, n: Node) -> Id {
        if let Some(id) = self.nodes.find(&n) {
            return id;
        }
        let facts = |k: Id| self.nodes.facts(k);
        let mut annotated = matches!(n, Node::Concat(_, Some(_), _));
        let shaped = n.map_kids(|k| {
            annotated |= facts(k).annotated;
            facts(k).shape
        });
        let shaped = match shaped {
            Node::Concat(a, ann, b) => Node::Concat(a, ann.map(|_| EMPTY), b),
            shaped => shaped,
        };
        // `n` over its children's strips, as a plain expression.
        let strip = match n.map_kids(|k| facts(k).strip) {
            Node::Plain(p) => p,
            Node::Concat(a, _, b) => self.path(Path::Concat(a, b)),
            Node::BranchR(a, b) => self.path(Path::BranchR(a, b)),
            Node::BranchL(a, b) => self.path(Path::BranchL(a, b)),
            Node::Conj(a, b) => self.path(Path::Conj(a, b)),
        };
        let facts = NodeFacts {
            strip,
            shape: 0,
            annotated,
        };
        let id = self.nodes.push(n, facts);
        let shape = if shaped == n { id } else { self.add(shaped) };
        self.nodes.items[id as usize].1.shape = shape;
        id
    }

    pub fn plain(&mut self, p: PathId) -> Id {
        self.add(Node::Plain(p))
    }

    pub fn node(&self, id: Id) -> Node {
        *self.nodes.key(id)
    }

    /// `ψ` with every annotation dropped.
    pub fn strip(&self, id: Id) -> PathId {
        self.nodes.facts(id).strip
    }

    /// What SQ-Merge groups by besides the strip.
    pub fn shape(&self, id: Id) -> Id {
        self.nodes.facts(id).shape
    }

    /// Whether any annotation survives in `id`.
    pub fn annotated(&self, id: Id) -> bool {
        self.nodes.facts(id).annotated
    }

    /// The derived `Ord` of [`AnnotatedPath`], on ids.
    pub fn cmp(&self, a: Id, b: Id) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let (x, y) = (self.node(a), self.node(b));
        match (x, y) {
            (Node::Plain(p), Node::Plain(q)) => self.cmp_path(p, q),
            (Node::Concat(a1, n1, b1), Node::Concat(a2, n2, b2)) => self
                .cmp(a1, a2)
                .then_with(|| n1.map(|s| self.labels(s)).cmp(&n2.map(|s| self.labels(s))))
                .then_with(|| self.cmp(b1, b2)),
            (Node::BranchR(a1, b1), Node::BranchR(a2, b2))
            | (Node::BranchL(a1, b1), Node::BranchL(a2, b2))
            | (Node::Conj(a1, b1), Node::Conj(a2, b2)) => {
                self.cmp(a1, a2).then_with(|| self.cmp(b1, b2))
            }
            _ => x.cmp(&y),
        }
    }

    /// The derived `Ord` of a triple's `(src, ψ, tgt, plus_paths)`.
    pub fn cmp_triple(&self, x: &IdTriple, y: &IdTriple) -> Ordering {
        (x.src.cmp(&y.src))
            .then_with(|| self.cmp(x.psi, y.psi))
            .then(x.tgt.cmp(&y.tgt))
            .then_with(|| self.lens_of(x.lens).cmp(self.lens_of(y.lens)))
    }

    /// The tree of `id`.
    pub fn tree(&self, id: Id) -> AnnotatedPath {
        let t = |k| Box::new(self.tree(k));
        match self.node(id) {
            Node::Plain(p) => AnnotatedPath::Plain(self.path_expr(p)),
            Node::Concat(a, ann, b) => {
                AnnotatedPath::Concat(t(a), ann.map(|s| self.labels(s).to_vec()), t(b))
            }
            Node::BranchR(a, b) => AnnotatedPath::BranchR(t(a), t(b)),
            Node::BranchL(a, b) => AnnotatedPath::BranchL(t(a), t(b)),
            Node::Conj(a, b) => AnnotatedPath::Conj(t(a), t(b)),
        }
    }
}

/// A set operation of [`sorted`].
pub(crate) type SetOp = fn(&[NodeLabelId], &[NodeLabelId]) -> Vec<NodeLabelId>;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::triple::Triple;
    use sgq_query::annotated::LabelSet;
    use sgq_query::cqt::annotated_to_string;

    /// The merged triple `M(T) = (L1, Ψ, L2)` of Definition 9.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct MergedTriple {
        /// Allowed source labels (`None` once proven redundant, §3.2.2).
        pub src_labels: Option<LabelSet>,
        /// The merged annotated path expression.
        pub psi: AnnotatedPath,
        /// Allowed target labels (`None` once proven redundant).
        pub tgt_labels: Option<LabelSet>,
        /// Fixed-length plus-expansion lengths carried through from the group
        /// (Table 6 statistics).
        pub plus_paths: Vec<u16>,
    }

    impl MergedTriple {
        /// Renders in the paper's `(L1, Ψ, L2)` notation.
        pub(crate) fn display(&self, schema: &GraphSchema) -> String {
            let side = |ls: &Option<LabelSet>| match ls {
                None => "∅".to_string(),
                Some(ls) => {
                    let names: Vec<&str> = ls.iter().map(|&l| schema.node_label_name(l)).collect();
                    format!("{{{}}}", names.join(","))
                }
            };
            format!(
                "({}, {}, {})",
                side(&self.src_labels),
                annotated_to_string(&self.psi, schema),
                side(&self.tgt_labels)
            )
        }
    }

    impl Arena<'_> {
        pub(crate) fn merged(&self, m: &IdMerged) -> MergedTriple {
            let labels = |s: Option<SetId>| s.map(|s| self.labels(s).to_vec());
            MergedTriple {
                src_labels: labels(m.src),
                psi: self.tree(m.psi),
                tgt_labels: labels(m.tgt),
                plus_paths: self.lens_of(m.lens).to_vec(),
            }
        }
    }

    /// Interns a tree: what tests that build expressions by hand use.
    pub(crate) fn intern_tree(arena: &mut Arena, t: &AnnotatedPath) -> Id {
        let node = match t {
            AnnotatedPath::Plain(e) => Node::Plain(arena.intern_path(e)),
            AnnotatedPath::Concat(a, ann, b) => {
                let ann = ann.as_ref().map(|l| arena.set(l));
                Node::Concat(intern_tree(arena, a), ann, intern_tree(arena, b))
            }
            AnnotatedPath::BranchR(a, b) => {
                Node::BranchR(intern_tree(arena, a), intern_tree(arena, b))
            }
            AnnotatedPath::BranchL(a, b) => {
                Node::BranchL(intern_tree(arena, a), intern_tree(arena, b))
            }
            AnnotatedPath::Conj(a, b) => Node::Conj(intern_tree(arena, a), intern_tree(arena, b)),
        };
        arena.add(node)
    }

    pub(crate) fn intern_triple(arena: &mut Arena, t: &Triple) -> IdTriple {
        let psi = intern_tree(arena, &t.psi);
        let lens = arena.lens(&mut t.plus_paths.clone());
        IdTriple {
            src: t.src,
            psi,
            tgt: t.tgt,
            lens,
        }
    }

    fn parse(s: &str) -> PathExpr {
        sgq_algebra::parser::parse_path(s, &sgq_graph::schema::fig1_yago_schema()).unwrap()
    }

    #[test]
    fn ids_are_structures_and_order_is_the_trees() {
        let schema = sgq_graph::schema::fig1_yago_schema();
        let mut arena = Arena::new(&schema);
        let exprs: Vec<PathExpr> = [
            "owns",
            "-owns",
            "owns/livesIn",
            "owns|livesIn",
            "owns&livesIn",
            "owns[livesIn]",
            "[owns]livesIn",
            "owns+",
            "livesIn/owns",
            "isLocatedIn+/dealsWith",
        ]
        .iter()
        .map(|s| parse(s))
        .collect();
        let ids: Vec<PathId> = exprs.iter().map(|e| arena.intern_path(e)).collect();
        for (i, e) in exprs.iter().enumerate() {
            assert_eq!(arena.intern_path(e), ids[i], "hash-consed");
            assert_eq!(&arena.path_expr(ids[i]), e, "extracted as interned");
            for (j, f) in exprs.iter().enumerate() {
                assert_eq!(arena.cmp_path(ids[i], ids[j]), e.cmp(f), "{e:?} vs {f:?}");
            }
        }
        let region = arena.set(&[schema.node_label("REGION").unwrap()]);
        let (p, q) = (arena.plain(ids[0]), arena.plain(ids[1]));
        let trees = [
            Node::Plain(ids[2]),
            Node::Concat(p, None, q),
            Node::Concat(p, Some(region), q),
            Node::Concat(p, Some(EMPTY), q),
            Node::BranchR(p, q),
            Node::BranchL(q, p),
            Node::Conj(p, p),
        ]
        .map(|n| arena.add(n));
        for &a in &trees {
            let tree = arena.tree(a);
            assert_eq!(intern_tree(&mut arena, &tree), a);
            for &b in &trees {
                assert_eq!(arena.cmp(a, b), arena.tree(a).cmp(&arena.tree(b)));
            }
        }
    }

    #[test]
    fn facts_are_those_of_the_tree() {
        let schema = sgq_graph::schema::fig1_yago_schema();
        let mut arena = Arena::new(&schema);
        let region = Some(vec![schema.node_label("REGION").unwrap()]);
        let tree = AnnotatedPath::concat(
            AnnotatedPath::plain(parse("livesIn/isLocatedIn")),
            region.clone(),
            AnnotatedPath::plain(parse("isLocatedIn+")),
        );
        let id = intern_tree(&mut arena, &tree);
        assert_eq!(arena.path_expr(arena.strip(id)), tree.strip());
        assert!(arena.annotated(id));
        assert!(arena.recursive(arena.strip(id)));
        let shape = arena.tree(arena.shape(id));
        let other = AnnotatedPath::concat(
            AnnotatedPath::plain(parse("livesIn/isLocatedIn")),
            Some(vec![schema.node_label("CITY").unwrap()]),
            AnnotatedPath::plain(parse("isLocatedIn+")),
        );
        let other = intern_tree(&mut arena, &other);
        assert_eq!(arena.shape(other), arena.shape(id), "labels are not shape");
        assert!(matches!(shape, AnnotatedPath::Concat(_, Some(ref l), _) if l.is_empty()));
        let (src, tgt) = arena.ends(arena.strip(id));
        assert_eq!(arena.labels(src), [schema.node_label("PERSON").unwrap()]);
        assert_eq!(arena.labels(tgt).len(), 3, "isLocatedIn's targets");
    }
}
