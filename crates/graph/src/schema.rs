//! Graph schemas: Definition 1 of the paper.
//!
//! A graph schema is a directed pseudo multigraph whose nodes carry unique
//! node labels and property declarations (key–type pairs), and whose edges
//! carry edge labels. The same edge label may appear on several schema edges
//! with different endpoints (e.g. `isLocatedIn` in the YAGO schema of
//! Fig. 1), which is exactly what makes the paper's type inference useful.
//!
//! We additionally enforce the *strict schema* conditions of §2.3 needed for
//! the schema–database mapping `SD` to be a function:
//!
//! * node labels are unique across schema nodes, and
//! * no two schema edges share the same `(source label, edge label,
//!   target label)` triple.
//!
//! What the rewrite asks of an edge label alone — its source and target
//! label sets, and the simple paths of its own subgraph that closure
//! elimination enumerates ([`GraphSchema::label_paths`]) — is derived
//! once, when the schema is built: it depends on the schema and nothing
//! else, and every statement over the schema reads the same tables.

use sgq_common::{EdgeLabelId, KeyId, NodeLabelId};
use sgq_common::{FxHashSet, Interner, Result, SgqError};

use crate::paths::LabelPaths;
use crate::value::DataType;

/// At most this many simple paths of one edge label's subgraph are kept
/// ([`GraphSchema::label_paths`]); `PlC`'s default budget.
pub const LABEL_PATH_CAP: usize = 4096;

/// A basic graph schema triple `(ln, le, l'n)` (Definition 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemaTriple {
    /// Source node label.
    pub src: NodeLabelId,
    /// Edge label.
    pub label: EdgeLabelId,
    /// Target node label.
    pub tgt: NodeLabelId,
}

/// One schema node: a label plus its declared properties.
#[derive(Debug, Clone)]
pub struct SchemaNode {
    /// The node label (unique within the schema).
    pub label: NodeLabelId,
    /// Declared properties `∆S`: allowed key–type pairs, sorted by key.
    pub properties: Vec<(KeyId, DataType)>,
}

/// A graph schema (Definition 1).
#[derive(Debug, Clone)]
pub struct GraphSchema {
    node_labels: Interner,
    edge_labels: Interner,
    keys: Interner,
    nodes: Vec<SchemaNode>,
    /// All basic schema triples `Tb(S)`, sorted.
    triples: Vec<SchemaTriple>,
    /// What the rewrite asks of each edge label, indexed by label.
    edge_label_facts: Vec<EdgeLabelFacts>,
}

/// The schema-derived facts of one edge label, built once with the schema.
#[derive(Debug, Clone)]
struct EdgeLabelFacts {
    /// Its `(source label, target label)` pairs, sorted.
    pairs: Vec<(NodeLabelId, NodeLabelId)>,
    /// Its source and target labels, sorted and deduplicated.
    sources: Vec<NodeLabelId>,
    targets: Vec<NodeLabelId>,
    /// The simple paths of its own subgraph: what `PlC` enumerates for
    /// its closure.
    paths: LabelPaths,
}

impl EdgeLabelFacts {
    fn new(pairs: Vec<(NodeLabelId, NodeLabelId)>) -> Self {
        let mut sources: Vec<_> = pairs.iter().map(|&(s, _)| s).collect();
        let mut targets: Vec<_> = pairs.iter().map(|&(_, t)| t).collect();
        sgq_common::sorted::normalize(&mut sources);
        sgq_common::sorted::normalize(&mut targets);
        #[cfg(test)]
        ENUMERATIONS.with(|n| n.set(n.get() + 1));
        EdgeLabelFacts {
            paths: LabelPaths::enumerate(&pairs, LABEL_PATH_CAP),
            pairs,
            sources,
            targets,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Edge-label subgraphs enumerated on this thread.
    static ENUMERATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl GraphSchema {
    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// Number of schema nodes (= number of node labels).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of schema edges (= number of basic triples).
    pub fn edge_count(&self) -> usize {
        self.triples.len()
    }

    /// Number of distinct edge labels.
    pub fn edge_label_count(&self) -> usize {
        self.edge_labels.len()
    }

    /// The set `Tb(S)` of basic graph schema triples (Definition 5), sorted.
    pub fn triples(&self) -> &[SchemaTriple] {
        &self.triples
    }

    /// The `(source label, target label)` pairs allowed for `le`.
    pub fn triples_for_edge_label(&self, le: EdgeLabelId) -> &[(NodeLabelId, NodeLabelId)] {
        self.edge_label_facts(le).map_or(&[], |f| &f.pairs)
    }

    /// All source labels the schema allows for edge label `le` (sorted, deduped).
    pub fn source_labels(&self, le: EdgeLabelId) -> &[NodeLabelId] {
        self.edge_label_facts(le).map_or(&[], |f| &f.sources)
    }

    /// All target labels the schema allows for edge label `le` (sorted, deduped).
    pub fn target_labels(&self, le: EdgeLabelId) -> &[NodeLabelId] {
        self.edge_label_facts(le).map_or(&[], |f| &f.targets)
    }

    /// The simple paths of `le`'s subgraph, over the edges of
    /// [`GraphSchema::triples_for_edge_label`] and with at most
    /// [`LABEL_PATH_CAP`] of them kept; `None` for a label the schema
    /// does not know.
    pub fn label_paths(&self, le: EdgeLabelId) -> Option<&LabelPaths> {
        self.edge_label_facts(le).map(|f| &f.paths)
    }

    fn edge_label_facts(&self, le: EdgeLabelId) -> Option<&EdgeLabelFacts> {
        self.edge_label_facts.get(le.index())
    }

    /// Resolves a node label id to its name.
    pub fn node_label_name(&self, l: NodeLabelId) -> &str {
        self.node_labels.resolve(l.raw())
    }

    /// Resolves an edge label id to its name.
    pub fn edge_label_name(&self, l: EdgeLabelId) -> &str {
        self.edge_labels.resolve(l.raw())
    }

    /// Resolves a property key id to its name.
    pub fn key_name(&self, k: KeyId) -> &str {
        self.keys.resolve(k.raw())
    }

    /// Looks up a node label by name.
    pub fn node_label(&self, name: &str) -> Option<NodeLabelId> {
        self.node_labels.get(name).map(NodeLabelId::new)
    }

    /// Looks up an edge label by name.
    pub fn edge_label(&self, name: &str) -> Option<EdgeLabelId> {
        self.edge_labels.get(name).map(EdgeLabelId::new)
    }

    /// Looks up a property key by name.
    pub fn key(&self, name: &str) -> Option<KeyId> {
        self.keys.get(name).map(KeyId::new)
    }

    /// Iterates over all node labels in id order.
    pub fn node_labels(&self) -> impl Iterator<Item = NodeLabelId> + '_ {
        (0..self.nodes.len() as u32).map(NodeLabelId::new)
    }

    /// Iterates over all edge labels in id order.
    pub fn edge_labels(&self) -> impl Iterator<Item = EdgeLabelId> + '_ {
        (0..self.edge_labels.len() as u32).map(EdgeLabelId::new)
    }

    /// The schema node carrying `label`.
    pub fn node(&self, label: NodeLabelId) -> &SchemaNode {
        &self.nodes[label.index()]
    }

    /// The declared type of property `key` on nodes labeled `label`, if any.
    pub fn property_type(&self, label: NodeLabelId, key: KeyId) -> Option<DataType> {
        let props = &self.node(label).properties;
        props
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| props[i].1)
    }

    /// Internal access for database builders: clones the interners so a
    /// database shares this schema's label id space.
    pub(crate) fn interners(&self) -> (Interner, Interner, Interner) {
        (
            self.node_labels.clone(),
            self.edge_labels.clone(),
            self.keys.clone(),
        )
    }
}

/// Incremental construction of a [`GraphSchema`].
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    node_labels: Interner,
    edge_labels: Interner,
    keys: Interner,
    nodes: Vec<SchemaNode>,
    triples: Vec<SchemaTriple>,
    seen_triples: FxHashSet<SchemaTriple>,
}

impl SchemaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a node label with its allowed properties.
    ///
    /// Re-declaring a label merges the property lists.
    pub fn node(&mut self, label: &str, properties: &[(&str, DataType)]) -> NodeLabelId {
        let id = NodeLabelId::new(self.node_labels.intern(label));
        if id.index() == self.nodes.len() {
            self.nodes.push(SchemaNode {
                label: id,
                properties: Vec::new(),
            });
        }
        let node = &mut self.nodes[id.index()];
        for &(key, ty) in properties {
            let k = KeyId::new(self.keys.intern(key));
            if !node.properties.iter().any(|&(pk, _)| pk == k) {
                node.properties.push((k, ty));
            }
        }
        node.properties.sort_unstable_by_key(|&(k, _)| k);
        id
    }

    /// Declares a schema edge `src --label--> tgt`.
    ///
    /// Unknown node labels are declared implicitly (with no properties).
    /// Duplicate `(src, label, tgt)` triples are ignored, which keeps the
    /// schema strict.
    pub fn edge(&mut self, src: &str, label: &str, tgt: &str) -> SchemaTriple {
        let s = self.node(src, &[]);
        let t = self.node(tgt, &[]);
        let l = EdgeLabelId::new(self.edge_labels.intern(label));
        let triple = SchemaTriple {
            src: s,
            label: l,
            tgt: t,
        };
        if self.seen_triples.insert(triple) {
            self.triples.push(triple);
        }
        triple
    }

    /// Finalises the schema.
    pub fn build(mut self) -> Result<GraphSchema> {
        if self.nodes.is_empty() {
            return Err(SgqError::Schema("schema has no node labels".into()));
        }
        self.triples.sort_unstable();
        let mut by_edge_label: Vec<Vec<(NodeLabelId, NodeLabelId)>> =
            vec![Vec::new(); self.edge_labels.len()];
        for t in &self.triples {
            by_edge_label[t.label.index()].push((t.src, t.tgt));
        }
        for v in &mut by_edge_label {
            v.sort_unstable();
        }
        let edge_label_facts = by_edge_label.into_iter().map(EdgeLabelFacts::new).collect();
        Ok(GraphSchema {
            node_labels: self.node_labels,
            edge_labels: self.edge_labels,
            keys: self.keys,
            nodes: self.nodes,
            triples: self.triples,
            edge_label_facts,
        })
    }
}

/// Builds the 5-node, 7-edge YAGO schema of the paper's Fig. 1.
pub fn fig1_yago_schema() -> GraphSchema {
    let mut b = GraphSchema::builder();
    b.node(
        "PERSON",
        &[("name", DataType::String), ("age", DataType::Int)],
    );
    b.node("CITY", &[("name", DataType::String)]);
    b.node("PROPERTY", &[("address", DataType::String)]);
    b.node("REGION", &[("name", DataType::String)]);
    b.node("COUNTRY", &[("name", DataType::String)]);
    b.edge("PERSON", "isMarriedTo", "PERSON");
    b.edge("PERSON", "livesIn", "CITY");
    b.edge("PERSON", "owns", "PROPERTY");
    b.edge("PROPERTY", "isLocatedIn", "CITY");
    b.edge("CITY", "isLocatedIn", "REGION");
    b.edge("REGION", "isLocatedIn", "COUNTRY");
    b.edge("COUNTRY", "dealsWith", "COUNTRY");
    b.build().expect("Fig. 1 schema is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_schema_shape() {
        let s = fig1_yago_schema();
        assert_eq!(s.node_count(), 5, "five nodes (Example 1)");
        assert_eq!(s.edge_count(), 7, "seven edges (Example 1)");
        assert_eq!(s.edge_label_count(), 5);
    }

    #[test]
    fn triples_definition5() {
        let s = fig1_yago_schema();
        let isl = s.edge_label("isLocatedIn").unwrap();
        // isLocatedIn has three triples: PROPERTY->CITY, CITY->REGION, REGION->COUNTRY
        assert_eq!(s.triples_for_edge_label(isl).len(), 3);
        let owns = s.edge_label("owns").unwrap();
        let t = s.triples_for_edge_label(owns);
        assert_eq!(t.len(), 1);
        assert_eq!(s.node_label_name(t[0].0), "PERSON");
        assert_eq!(s.node_label_name(t[0].1), "PROPERTY");
    }

    #[test]
    fn source_and_target_labels() {
        let s = fig1_yago_schema();
        let isl = s.edge_label("isLocatedIn").unwrap();
        let srcs: Vec<_> = s
            .source_labels(isl)
            .iter()
            .map(|&l| s.node_label_name(l).to_string())
            .collect();
        assert_eq!(srcs, vec!["CITY", "PROPERTY", "REGION"]);
        // Sorted by label id, i.e. declaration order in Fig. 1.
        let tgts: Vec<_> = s
            .target_labels(isl)
            .iter()
            .map(|&l| s.node_label_name(l).to_string())
            .collect();
        assert_eq!(tgts, vec!["CITY", "REGION", "COUNTRY"]);
    }

    #[test]
    fn label_paths_are_enumerated_once_per_schema() {
        // Building a schema enumerates each edge label's subgraph once;
        // reading the table does not enumerate again, and a second schema
        // builds its own.
        let before = ENUMERATIONS.with(|n| n.get());
        let s = fig1_yago_schema();
        assert_eq!(
            ENUMERATIONS.with(|n| n.get()) - before,
            s.edge_label_count()
        );
        let isl = s.edge_label("isLocatedIn").unwrap();
        let first = s.label_paths(isl).unwrap();
        assert!(first.complete && first.cyclic.is_empty());
        assert_eq!(first.len(), 6, "PROPERTY → CITY → REGION → COUNTRY");
        assert!(std::ptr::eq(first, s.label_paths(isl).unwrap()));
        assert_eq!(
            ENUMERATIONS.with(|n| n.get()) - before,
            s.edge_label_count()
        );
        let other = fig1_yago_schema();
        assert!(!std::ptr::eq(first, other.label_paths(isl).unwrap()));
        assert_eq!(
            ENUMERATIONS.with(|n| n.get()) - before,
            2 * s.edge_label_count()
        );
        let dw = s.edge_label("dealsWith").unwrap();
        assert_eq!(
            s.label_paths(dw).unwrap().cyclic,
            [s.node_label("COUNTRY").unwrap()]
        );
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut b = GraphSchema::builder();
        b.edge("A", "r", "B");
        b.edge("A", "r", "B");
        let s = b.build().unwrap();
        assert_eq!(s.edge_count(), 1);
    }

    #[test]
    fn property_declarations() {
        let s = fig1_yago_schema();
        let person = s.node_label("PERSON").unwrap();
        let name = s.key("name").unwrap();
        let age = s.key("age").unwrap();
        assert_eq!(s.property_type(person, name), Some(DataType::String));
        assert_eq!(s.property_type(person, age), Some(DataType::Int));
        let city = s.node_label("CITY").unwrap();
        assert_eq!(s.property_type(city, age), None);
    }

    #[test]
    fn empty_schema_is_rejected() {
        assert!(GraphSchema::builder().build().is_err());
    }

    #[test]
    fn redeclaring_node_merges_properties() {
        let mut b = GraphSchema::builder();
        b.node("A", &[("x", DataType::Int)]);
        b.node("A", &[("y", DataType::String), ("x", DataType::Int)]);
        let s = b.build().unwrap();
        let a = s.node_label("A").unwrap();
        assert_eq!(s.node(a).properties.len(), 2);
    }
}
