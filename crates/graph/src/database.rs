//! Graph databases: Definition 2 of the paper.
//!
//! A [`GraphDatabase`] stores labeled nodes with optional properties and
//! labeled directed edges (no edge properties, per the restrictions of
//! §2.3). After construction it carries per-edge-label forward/reverse CSR
//! adjacency, a per-node-label index, and sorted pair relations — the
//! physical structures both query engines run on.

use std::sync::Arc;

use sgq_common::{EdgeLabelId, Interner, KeyId, NodeId, NodeLabelId, Result, SgqError};

use crate::csr::Csr;
use crate::schema::GraphSchema;
use crate::value::Value;

/// One stored node.
#[derive(Debug, Clone)]
pub struct Node {
    /// The node's label (`ηD`).
    pub label: NodeLabelId,
    /// Properties (`∆D`), sorted by key.
    pub properties: Vec<(KeyId, Value)>,
}

/// Per-edge-label physical storage.
#[derive(Debug, Clone, Default)]
pub struct EdgeRelation {
    /// `(src, tgt)` pairs sorted by `(src, tgt)`.
    pub by_src: Vec<(NodeId, NodeId)>,
    /// `(tgt, src)` pairs sorted by `(tgt, src)` — the reversed relation.
    pub by_tgt: Vec<(NodeId, NodeId)>,
    /// Forward adjacency (set semantics: `by_src` is deduplicated), shared
    /// with the relational store's index joins.
    pub fwd: Arc<Csr>,
    /// Reverse adjacency, shared the same way.
    pub rev: Arc<Csr>,
}

/// A graph database instance (Definition 2).
#[derive(Debug, Clone)]
pub struct GraphDatabase {
    node_labels: Interner,
    edge_labels: Interner,
    keys: Interner,
    nodes: Vec<Node>,
    relations: Vec<EdgeRelation>,
    /// Sorted node ids per node label.
    nodes_by_label: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl GraphDatabase {
    /// Starts building a database that shares `schema`'s label id space.
    pub fn builder(schema: &GraphSchema) -> DatabaseBuilder {
        let (node_labels, edge_labels, keys) = schema.interners();
        DatabaseBuilder {
            node_labels,
            edge_labels,
            keys,
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Starts building a schema-less database (labels interned on the fly).
    pub fn standalone_builder() -> DatabaseBuilder {
        DatabaseBuilder {
            node_labels: Interner::new(),
            edge_labels: Interner::new(),
            keys: Interner::new(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The label of node `n` (`ηD`).
    #[inline]
    pub fn node_label(&self, n: NodeId) -> NodeLabelId {
        self.nodes[n.index()].label
    }

    /// The properties of node `n` (`∆D`), sorted by key.
    pub fn node_properties(&self, n: NodeId) -> &[(KeyId, Value)] {
        &self.nodes[n.index()].properties
    }

    /// The value of property `key` on node `n`, if present.
    pub fn property(&self, n: NodeId, key: KeyId) -> Option<&Value> {
        let props = self.node_properties(n);
        props
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &props[i].1)
    }

    /// Sorted node ids labeled `label`.
    pub fn nodes_with_label(&self, label: NodeLabelId) -> &[NodeId] {
        self.nodes_by_label
            .get(label.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The physical relation for edge label `le` (empty if unused).
    pub fn relation(&self, le: EdgeLabelId) -> &EdgeRelation {
        static EMPTY: std::sync::OnceLock<EdgeRelation> = std::sync::OnceLock::new();
        self.relations
            .get(le.index())
            .unwrap_or_else(|| EMPTY.get_or_init(EdgeRelation::default))
    }

    /// `(src, tgt)` pairs of edge label `le`, sorted by `(src, tgt)`.
    pub fn edges(&self, le: EdgeLabelId) -> &[(NodeId, NodeId)] {
        &self.relation(le).by_src
    }

    /// Forward neighbours of `n` via `le`.
    #[inline]
    pub fn out_neighbors(&self, n: NodeId, le: EdgeLabelId) -> &[NodeId] {
        self.relation(le).fwd.neighbors(n)
    }

    /// Reverse neighbours of `n` via `le`.
    #[inline]
    pub fn in_neighbors(&self, n: NodeId, le: EdgeLabelId) -> &[NodeId] {
        self.relation(le).rev.neighbors(n)
    }

    /// Resolves a node label id to its name.
    pub fn node_label_name(&self, l: NodeLabelId) -> &str {
        self.node_labels.resolve(l.raw())
    }

    /// Resolves an edge label id to its name.
    pub fn edge_label_name(&self, l: EdgeLabelId) -> &str {
        self.edge_labels.resolve(l.raw())
    }

    /// Resolves a key id to its name.
    pub fn key_name(&self, k: KeyId) -> &str {
        self.keys.resolve(k.raw())
    }

    /// Looks up a node label by name.
    pub fn node_label_id(&self, name: &str) -> Option<NodeLabelId> {
        self.node_labels.get(name).map(NodeLabelId::new)
    }

    /// Looks up an edge label by name.
    pub fn edge_label_id(&self, name: &str) -> Option<EdgeLabelId> {
        self.edge_labels.get(name).map(EdgeLabelId::new)
    }

    /// Looks up a key by name.
    pub fn key_id(&self, name: &str) -> Option<KeyId> {
        self.keys.get(name).map(KeyId::new)
    }

    /// Number of distinct node labels known to this database's vocabulary.
    pub fn node_label_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of distinct edge labels known to this database's vocabulary.
    pub fn edge_label_count(&self) -> usize {
        self.edge_labels.len()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from)
    }
}

/// Incremental construction of a [`GraphDatabase`].
#[derive(Debug)]
pub struct DatabaseBuilder {
    node_labels: Interner,
    edge_labels: Interner,
    keys: Interner,
    nodes: Vec<Node>,
    edges: Vec<(EdgeLabelId, NodeId, NodeId)>,
}

impl DatabaseBuilder {
    /// Adds a node with `label` and `properties`, returning its id.
    pub fn node(&mut self, label: &str, properties: &[(&str, Value)]) -> NodeId {
        let label = NodeLabelId::new(self.node_labels.intern(label));
        let mut props: Vec<(KeyId, Value)> = properties
            .iter()
            .map(|(k, v)| (KeyId::new(self.keys.intern(k)), v.clone()))
            .collect();
        props.sort_unstable_by_key(|&(k, _)| k);
        let id = NodeId::from(self.nodes.len());
        self.nodes.push(Node {
            label,
            properties: props,
        });
        id
    }

    /// Adds a node by pre-interned label id (fast path for generators).
    pub fn node_with_label_id(
        &mut self,
        label: NodeLabelId,
        properties: Vec<(KeyId, Value)>,
    ) -> NodeId {
        debug_assert!((label.index()) < self.node_labels.len());
        let mut props = properties;
        props.sort_unstable_by_key(|&(k, _)| k);
        let id = NodeId::from(self.nodes.len());
        self.nodes.push(Node {
            label,
            properties: props,
        });
        id
    }

    /// Adds a directed edge `src --label--> tgt`.
    pub fn edge(&mut self, src: NodeId, label: &str, tgt: NodeId) {
        let label = EdgeLabelId::new(self.edge_labels.intern(label));
        self.edges.push((label, src, tgt));
    }

    /// Adds an edge by pre-interned label id (fast path for generators).
    #[inline]
    pub fn edge_with_label_id(&mut self, src: NodeId, label: EdgeLabelId, tgt: NodeId) {
        debug_assert!((label.index()) < self.edge_labels.len());
        self.edges.push((label, src, tgt));
    }

    /// Interns (or resolves) an edge label name ahead of bulk loading.
    pub fn intern_edge_label(&mut self, name: &str) -> EdgeLabelId {
        EdgeLabelId::new(self.edge_labels.intern(name))
    }

    /// Interns (or resolves) a node label name ahead of bulk loading.
    pub fn intern_node_label(&mut self, name: &str) -> NodeLabelId {
        NodeLabelId::new(self.node_labels.intern(name))
    }

    /// Interns (or resolves) a property key ahead of bulk loading.
    pub fn intern_key(&mut self, name: &str) -> KeyId {
        KeyId::new(self.keys.intern(name))
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finalises the database, building all indexes.
    pub fn build(self) -> Result<GraphDatabase> {
        let node_count = self.nodes.len();
        for &(_, s, t) in &self.edges {
            if s.index() >= node_count || t.index() >= node_count {
                return Err(SgqError::Schema(format!(
                    "edge ({s}, {t}) references a node that does not exist"
                )));
            }
        }
        let label_count = self.edge_labels.len();
        let mut per_label: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); label_count];
        for &(l, s, t) in &self.edges {
            per_label[l.index()].push((s, t));
        }
        let mut relations = Vec::with_capacity(label_count);
        for pairs in per_label {
            let mut by_src = pairs;
            by_src.sort_unstable();
            by_src.dedup();
            let mut by_tgt: Vec<(NodeId, NodeId)> = by_src.iter().map(|&(s, t)| (t, s)).collect();
            by_tgt.sort_unstable();
            let fwd = Arc::new(Csr::from_pairs(node_count, &by_src));
            let rev = Arc::new(Csr::from_pairs(node_count, &by_tgt));
            relations.push(EdgeRelation {
                by_src,
                by_tgt,
                fwd,
                rev,
            });
        }
        let mut nodes_by_label: Vec<Vec<NodeId>> = vec![Vec::new(); self.node_labels.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            nodes_by_label[node.label.index()].push(NodeId::from(i));
        }
        let edge_count = relations.iter().map(|r| r.by_src.len()).sum();
        Ok(GraphDatabase {
            node_labels: self.node_labels,
            edge_labels: self.edge_labels,
            keys: self.keys,
            nodes: self.nodes,
            relations,
            nodes_by_label,
            edge_count,
        })
    }
}

/// Builds the 7-node, 9-edge YAGO example database of the paper's Fig. 2.
pub fn fig2_yago_database() -> GraphDatabase {
    let schema = crate::schema::fig1_yago_schema();
    let mut b = GraphDatabase::builder(&schema);
    let n1 = b.node("PROPERTY", &[("address", Value::str("7 Queen Street"))]);
    let n2 = b.node(
        "PERSON",
        &[("name", Value::str("John")), ("age", Value::Int(28))],
    );
    let n3 = b.node(
        "PERSON",
        &[("name", Value::str("Shradha")), ("age", Value::Int(25))],
    );
    let n4 = b.node("CITY", &[("name", Value::str("Elerslie"))]);
    let n5 = b.node("REGION", &[("name", Value::str("Grenoble"))]);
    let n6 = b.node("CITY", &[("name", Value::str("Montbonnot"))]);
    let n7 = b.node("COUNTRY", &[("name", Value::str("France"))]);
    b.edge(n2, "isMarriedTo", n3);
    b.edge(n3, "isMarriedTo", n2);
    b.edge(n2, "livesIn", n4);
    b.edge(n3, "livesIn", n6);
    b.edge(n2, "owns", n1);
    b.edge(n1, "isLocatedIn", n6);
    b.edge(n6, "isLocatedIn", n5);
    b.edge(n4, "isLocatedIn", n5);
    b.edge(n5, "isLocatedIn", n7);
    b.build().expect("Fig. 2 database is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shape() {
        let db = fig2_yago_database();
        assert_eq!(db.node_count(), 7, "seven nodes (Example 2)");
        assert_eq!(db.edge_count(), 9, "nine edges (Example 2)");
    }

    #[test]
    fn labels_and_properties() {
        let db = fig2_yago_database();
        let n2 = NodeId::new(1); // second inserted node = John
        assert_eq!(db.node_label_name(db.node_label(n2)), "PERSON");
        let name = db.key_id("name").unwrap();
        assert_eq!(db.property(n2, name), Some(&Value::str("John")));
        let age = db.key_id("age").unwrap();
        assert_eq!(db.property(n2, age), Some(&Value::Int(28)));
    }

    #[test]
    fn adjacency() {
        let db = fig2_yago_database();
        let owns = db.edge_label_id("owns").unwrap();
        let n1 = NodeId::new(0);
        let n2 = NodeId::new(1);
        assert_eq!(db.out_neighbors(n2, owns), &[n1]);
        assert_eq!(db.in_neighbors(n1, owns), &[n2]);
        assert_eq!(db.edges(owns), &[(n2, n1)]);
    }

    #[test]
    fn nodes_by_label_index() {
        let db = fig2_yago_database();
        let person = db.node_label_id("PERSON").unwrap();
        assert_eq!(
            db.nodes_with_label(person),
            &[NodeId::new(1), NodeId::new(2)]
        );
        let country = db.node_label_id("COUNTRY").unwrap();
        assert_eq!(db.nodes_with_label(country), &[NodeId::new(6)]);
    }

    #[test]
    fn dangling_edge_rejected() {
        let schema = crate::schema::fig1_yago_schema();
        let mut b = GraphDatabase::builder(&schema);
        let n = b.node("PERSON", &[]);
        b.edge(n, "livesIn", NodeId::new(99));
        assert!(b.build().is_err());
    }

    #[test]
    fn duplicate_edges_are_set_semantics() {
        let schema = crate::schema::fig1_yago_schema();
        let mut b = GraphDatabase::builder(&schema);
        let a = b.node("PERSON", &[]);
        let c = b.node("CITY", &[]);
        b.edge(a, "livesIn", c);
        b.edge(a, "livesIn", c);
        let db = b.build().unwrap();
        assert_eq!(db.edge_count(), 1);
        // The CSRs the relational store shares collapse the parallel edge.
        let lives = db.edge_label_id("livesIn").unwrap();
        assert_eq!(db.out_neighbors(a, lives), &[c]);
        assert_eq!(db.in_neighbors(c, lives), &[a]);
    }

    #[test]
    fn standalone_builder_works() {
        let mut b = GraphDatabase::standalone_builder();
        let a = b.node("X", &[]);
        let c = b.node("Y", &[]);
        b.edge(a, "r", c);
        let db = b.build().unwrap();
        assert_eq!(db.node_count(), 2);
        assert_eq!(db.edge_count(), 1);
        assert!(db.edge_label_id("r").is_some());
    }
}
