//! Seeded generators shared by the property tests: random schemas,
//! databases conforming to them, and random path expressions — uniform
//! ones and ones shaped like the rewrite's shared work.

use schema_graph_query::prelude::*;
use sgq_common::{EdgeLabelId, NodeId, Rng};

/// Builds a random schema from a seed: up to 5 node labels, up to 8 schema
/// edges over up to 4 edge labels (parallel triples allowed — that is what
/// exercises the inference).
pub fn random_schema(seed: u64) -> GraphSchema {
    random_schema_over(seed, &["r", "s", "t", "u"])
}

/// The same over the given edge labels: the fewer there are, the more
/// node-label pairs each one connects (an *overloaded* label).
pub fn random_schema_over(seed: u64, edge_labels: &[&str]) -> GraphSchema {
    let mut rng = Rng::seed_from_u64(seed);
    let node_labels = ["A", "B", "C", "D", "E"];
    let n_nodes = rng.gen_range(2..6);
    let n_edges = rng.gen_range(2..9);
    let mut b = GraphSchema::builder();
    for l in node_labels.iter().take(n_nodes) {
        b.node(l, &[]);
    }
    for _ in 0..n_edges {
        let src = node_labels[rng.gen_range(0..n_nodes)];
        let tgt = node_labels[rng.gen_range(0..n_nodes)];
        let le = edge_labels[rng.gen_range(0..edge_labels.len())];
        b.edge(src, le, tgt);
    }
    b.build().expect("random schema is well-formed")
}

/// Builds a random database conforming to `schema`.
pub fn random_database(schema: &GraphSchema, seed: u64) -> GraphDatabase {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut b = GraphDatabase::builder(schema);
    let n_nodes = rng.gen_range(6..30);
    let labels: Vec<String> = schema
        .node_labels()
        .map(|l| schema.node_label_name(l).to_string())
        .collect();
    let nodes: Vec<(NodeId, String)> = (0..n_nodes)
        .map(|_| {
            let label = labels[rng.gen_range(0..labels.len())].clone();
            (b.node(&label, &[]), label)
        })
        .collect();
    // For each schema triple, add random conforming edges.
    let triples: Vec<(String, String, String)> = schema
        .triples()
        .iter()
        .map(|t| {
            (
                schema.node_label_name(t.src).to_string(),
                schema.edge_label_name(t.label).to_string(),
                schema.node_label_name(t.tgt).to_string(),
            )
        })
        .collect();
    let n_edges = rng.gen_range(5..60);
    for _ in 0..n_edges {
        let (src_l, le, tgt_l) = &triples[rng.gen_range(0..triples.len())];
        let srcs: Vec<NodeId> = nodes
            .iter()
            .filter(|(_, l)| l == src_l)
            .map(|&(n, _)| n)
            .collect();
        let tgts: Vec<NodeId> = nodes
            .iter()
            .filter(|(_, l)| l == tgt_l)
            .map(|&(n, _)| n)
            .collect();
        if srcs.is_empty() || tgts.is_empty() {
            continue;
        }
        let s = srcs[rng.gen_range(0..srcs.len())];
        let t = tgts[rng.gen_range(0..tgts.len())];
        b.edge(s, le, t);
    }
    b.build().expect("random database is well-formed")
}

/// Whether any node of `p` is shared (read by more than one parent).
pub fn shares_a_node(p: &PhysPlan) -> bool {
    p.parents() > 1 || p.children().into_iter().any(shares_a_node)
}

/// A seeded recursive random path expression over the schema's labels.
pub fn random_expr(schema: &GraphSchema, seed: u64, depth: usize) -> PathExpr {
    let labels: Vec<EdgeLabelId> = schema.edge_labels().collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0xdead_beef);
    build_expr(&mut rng, &labels, depth)
}

fn build_expr(rng: &mut Rng, labels: &[EdgeLabelId], depth: usize) -> PathExpr {
    let leaf = depth == 0 || rng.gen_bool(0.3);
    if leaf {
        let le = labels[rng.gen_range(0..labels.len())];
        if rng.gen_bool(0.25) {
            PathExpr::Reverse(le)
        } else {
            PathExpr::Label(le)
        }
    } else {
        match rng.gen_range(0..7) {
            0 | 1 => PathExpr::concat(
                build_expr(rng, labels, depth - 1),
                build_expr(rng, labels, depth - 1),
            ),
            2 => PathExpr::union(
                build_expr(rng, labels, depth - 1),
                build_expr(rng, labels, depth - 1),
            ),
            3 => PathExpr::conj(
                build_expr(rng, labels, depth - 1),
                build_expr(rng, labels, depth - 1),
            ),
            4 => PathExpr::branch_r(
                build_expr(rng, labels, depth - 1),
                build_expr(rng, labels, depth - 1),
            ),
            5 => PathExpr::branch_l(
                build_expr(rng, labels, depth - 1),
                build_expr(rng, labels, depth - 1),
            ),
            _ => PathExpr::plus(build_expr(rng, labels, depth - 1)),
        }
    }
}

/// A seeded expression of one of the shapes the rewrite distributes into
/// several disjuncts over a common part.
pub fn shared_work_expr(schema: &GraphSchema, seed: u64) -> PathExpr {
    let labels: Vec<EdgeLabelId> = schema.edge_labels().collect();
    let rng = &mut Rng::seed_from_u64(seed ^ 0x5a4e_d001);
    let mut part = |depth| build_expr(rng, &labels, depth);
    match seed % 4 {
        // (a ∪ b){1,2}: union under bounded repetition.
        0 => PathExpr::repeat(PathExpr::union(part(0), part(1)), 1, 2),
        // a{1,3}/(b ∪ c/d): the shape of LDBC IC1.
        1 => PathExpr::concat(
            PathExpr::repeat(part(0), 1, 3),
            PathExpr::union(part(0), PathExpr::concat(part(0), part(0))),
        ),
        // p/(a ∪ b ∪ c) with a composite prefix p.
        2 => PathExpr::concat(
            PathExpr::concat(part(1), part(0)),
            PathExpr::union(PathExpr::union(part(0), part(0)), part(1)),
        ),
        // a+/(b ∪ c)/d: a closure prefix shared by both branches.
        _ => PathExpr::concat(
            PathExpr::concat(PathExpr::plus(part(0)), PathExpr::union(part(0), part(0))),
            part(0),
        ),
    }
}
