//! The relational representation of a property graph (the paper's
//! Fig. 11): a thin façade over a pluggable physical layout
//! ([`crate::layout::StorageLayout`]).
//!
//! **Zero-copy scans.** Tables hold their rows behind shared buffers
//! ([`Relation`]'s `Arc`-backed data), so [`RelStore::edge_table`] /
//! [`RelStore::node_table`] hand out O(1) handles — a scan never copies
//! the graph. Out-of-range labels return a handle onto the process-wide
//! shared empty buffer instead of allocating.
//!
//! **Pluggable layouts.** [`RelStore::load`] keeps the classic
//! per-label layout (one `(Sr, Tr)` table per edge label);
//! [`RelStore::load_with_layout`] selects any [`LayoutKind`] and
//! [`RelStore::load_advised`] lets the [`crate::layout::LayoutAdvisor`]
//! pick one from the schema. The store's public surface is
//! layout-independent — plus capability probes
//! ([`RelStore::supports_multi_scan`], [`RelStore::has_filtered_table`])
//! the planner uses to decide whether the layout-specific scan
//! operators may be emitted.
//!
//! **Adjacency indexes.** Every layout builds, per edge label, a
//! forward and a reverse [`Csr`] with set semantics (parallel edges
//! deduplicated to match the relational tables), plus it exposes each
//! node table's sorted id set ([`RelStore::node_set`]). The physical
//! planner ([`mod@crate::plan`]) uses these for
//! [`crate::plan::PhysOp::IndexJoin`] / `IndexSemiJoin`: instead of
//! materialising and hashing a base edge table, the executor probes the
//! CSR neighbour lists directly.
//!
//! The store also owns the [`SymbolTable`] that defines the column-id
//! space every [`crate::term::RaTerm`] executed against it lives in:
//! translation interns through `store.symbols`, execution and the
//! optimiser compare raw ids, and `explain`/SQL rendering resolves ids
//! back to names.

use std::sync::Arc;

use sgq_common::{EdgeLabelId, NodeLabelId};
use sgq_graph::{Csr, GraphDatabase, GraphSchema, GraphStats};

use crate::feedback::FeedbackMemo;
use crate::layout::{build_layout, LayoutAdvisor, LayoutKind, StorageLayout};
use crate::symbols::SymbolTable;
use crate::table::Relation;

/// Column name used for sources / node ids (paper's `Sr`).
pub const SR: &str = "Sr";
/// Column name used for targets (paper's `Tr`).
pub const TR: &str = "Tr";

/// A column store over a graph database plus its adjacency indexes,
/// statistics and the symbol table for the terms executed against it.
/// The physical representation lives behind a [`StorageLayout`].
pub struct RelStore {
    /// The physical layout serving scans, CSRs and node sets.
    layout: Box<dyn StorageLayout>,
    /// Statistics for the cost model.
    pub stats: GraphStats,
    /// Interned column / recursion-variable names for this store's terms.
    pub symbols: SymbolTable,
    /// Whether the planner may lower joins against base edge scans into
    /// CSR index probes ([`crate::plan::PhysOp::IndexJoin`]). On by
    /// default; turned off for ablations and for tests that pin the
    /// scan-based strategies.
    pub index_joins: bool,
    /// Runtime cardinality feedback: execution records the true row
    /// counts of static plan subtrees; estimation consults them before
    /// falling back to the statistics formulas. Interior-mutable so the
    /// serving layer's shared `Arc<RelStore>` accumulates feedback from
    /// every worker; cleared on schema changes alongside the plan cache.
    pub feedback: FeedbackMemo,
}

impl RelStore {
    /// Loads a graph database into relational tables (Fig. 11) under the
    /// default per-label layout and builds the per-label CSR adjacency
    /// indexes.
    pub fn load(db: &GraphDatabase) -> Self {
        RelStore::load_with_layout(db, LayoutKind::PerLabel)
    }

    /// Loads a graph database under an explicitly chosen layout. A
    /// polymorphic request over a schema with more than
    /// [`crate::layout::POLY_MAX_LABELS`] edge labels degrades to
    /// per-label (the row bitmask cannot represent it).
    pub fn load_with_layout(db: &GraphDatabase, kind: LayoutKind) -> Self {
        RelStore {
            layout: build_layout(db, kind),
            stats: GraphStats::compute(db),
            symbols: SymbolTable::new(),
            index_joins: true,
            feedback: FeedbackMemo::new(),
        }
    }

    /// Loads a graph database under the layout the
    /// [`LayoutAdvisor`] picks for its schema.
    pub fn load_advised(db: &GraphDatabase, schema: &GraphSchema) -> Self {
        let stats = GraphStats::compute(db);
        let kind = LayoutAdvisor::choose(schema, &stats);
        RelStore {
            layout: build_layout(db, kind),
            stats,
            symbols: SymbolTable::new(),
            index_joins: true,
            feedback: FeedbackMemo::new(),
        }
    }

    /// Which physical layout this store was loaded with.
    pub fn layout_kind(&self) -> LayoutKind {
        self.layout.kind()
    }

    /// The edge table for `le`: an O(1) shared handle, never a row copy.
    /// Out-of-range labels share the static empty buffer.
    pub fn edge_table(&self, le: EdgeLabelId) -> Relation {
        self.layout.edge_table(le)
    }

    /// The node table for `l`: an O(1) shared handle, never a row copy.
    /// Out-of-range labels share the static empty buffer.
    pub fn node_table(&self, l: NodeLabelId) -> Relation {
        self.layout.node_table(l)
    }

    /// The forward CSR for `le` (targets per source), if in range.
    pub fn forward_csr(&self, le: EdgeLabelId) -> Option<&Csr> {
        self.layout.forward_csr(le)
    }

    /// The reverse CSR for `le` (sources per target), if in range.
    pub fn reverse_csr(&self, le: EdgeLabelId) -> Option<&Csr> {
        self.layout.reverse_csr(le)
    }

    /// Shared handle on the forward CSR for `le` — O(1), lets a morsel
    /// worker own the index for the duration of a parallel probe.
    pub fn forward_csr_shared(&self, le: EdgeLabelId) -> Option<Arc<Csr>> {
        self.layout.forward_csr_shared(le)
    }

    /// Shared handle on the reverse CSR for `le`.
    pub fn reverse_csr_shared(&self, le: EdgeLabelId) -> Option<Arc<Csr>> {
        self.layout.reverse_csr_shared(le)
    }

    /// The sorted set of node ids carrying label `l` (empty when out of
    /// range) — the membership side of label-filtered index joins.
    pub fn node_set(&self, l: NodeLabelId) -> &[u32] {
        self.layout.node_set(l)
    }

    /// Number of edge tables.
    pub fn edge_table_count(&self) -> usize {
        self.layout.edge_table_count()
    }

    /// Number of node tables.
    pub fn node_table_count(&self) -> usize {
        self.layout.node_table_count()
    }

    /// Total rows of the polymorphic layout's single edge table, when
    /// the store has one — the cost model's input for pricing masked
    /// multi-label scans.
    pub fn poly_rows(&self) -> Option<usize> {
        self.layout.poly_rows()
    }

    /// Whether the layout serves multi-label scans natively
    /// ([`crate::plan::PhysOp::MultiEdgeScan`]).
    pub fn supports_multi_scan(&self) -> bool {
        self.layout.supports_multi_scan()
    }

    /// One canonical `(Sr, Tr)` union of the given labels' tables from
    /// the polymorphic layout, `None` elsewhere.
    pub fn multi_edge_table(&self, labels: &[EdgeLabelId]) -> Option<Relation> {
        self.layout.multi_edge_table(labels)
    }

    /// Whether a precomputed endpoint-label slice of `le`'s table exists
    /// ([`crate::plan::PhysOp::DenormEdgeScan`] is only emitted then).
    pub fn has_filtered_table(
        &self,
        le: EdgeLabelId,
        src: Option<NodeLabelId>,
        tgt: Option<NodeLabelId>,
    ) -> bool {
        self.layout.has_filtered_table(le, src, tgt)
    }

    /// The precomputed endpoint-label slice of `le`'s table, when the
    /// layout denormalises it.
    pub fn filtered_edge_table(
        &self,
        le: EdgeLabelId,
        src: Option<NodeLabelId>,
        tgt: Option<NodeLabelId>,
    ) -> Option<Relation> {
        self.layout.filtered_edge_table(le, src, tgt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgq_common::NodeId;
    use sgq_graph::database::fig2_yago_database;

    #[test]
    fn fig11_tables() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        // owns: one row (n2, n1) = (1, 0)
        let owns = store.edge_table(db.edge_label_id("owns").unwrap());
        assert_eq!(owns.len(), 1);
        assert_eq!(owns.row(0), &[1, 0]);
        assert_eq!(owns.cols(), &[SymbolTable::SR, SymbolTable::TR]);
        // isLocatedIn: four rows
        let isl = store.edge_table(db.edge_label_id("isLocatedIn").unwrap());
        assert_eq!(isl.len(), 4);
        // PROPERTY node table: one row (n1 = id 0)
        let prop = store.node_table(db.node_label_id("PROPERTY").unwrap());
        assert_eq!(prop.len(), 1);
        assert_eq!(prop.row(0), &[0]);
        // PERSON node table: two rows
        let person = store.node_table(db.node_label_id("PERSON").unwrap());
        assert_eq!(person.len(), 2);
    }

    #[test]
    fn out_of_range_labels_are_empty() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        assert!(store.edge_table(EdgeLabelId::new(99)).is_empty());
        assert!(store.node_table(NodeLabelId::new(99)).is_empty());
        assert!(store.forward_csr(EdgeLabelId::new(99)).is_none());
        assert!(store.node_set(NodeLabelId::new(99)).is_empty());
    }

    #[test]
    fn out_of_range_lookups_share_one_empty_handle() {
        // Regression: out-of-range lookups used to allocate a fresh
        // `Relation` (fresh `Vec`s) per call. They now share the static
        // empty row buffer across calls and across edge/node tables.
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let e1 = store.edge_table(EdgeLabelId::new(98));
        let e2 = store.edge_table(EdgeLabelId::new(99));
        let n1 = store.node_table(NodeLabelId::new(99));
        assert!(e1.shares_data(&e2));
        assert!(e1.shares_data(&n1));
    }

    #[test]
    fn base_table_scans_are_zero_copy() {
        // The tentpole pin: handing out a base table shares the loaded
        // buffer — repeated scans, clones and positional renames never
        // copy row data.
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let le = db.edge_label_id("isLocatedIn").unwrap();
        let t1 = store.edge_table(le);
        let t2 = store.edge_table(le);
        assert!(t1.shares_data(&t2), "repeated scans share the buffer");
        assert!(t1.clone().shares_data(&t1));
        let renamed = t2.into_cols(vec![store.symbols.col("x"), store.symbols.col("y")]);
        assert!(renamed.shares_data(&t1), "positional rename is zero-copy");
        let l = db.node_label_id("CITY").unwrap();
        assert!(store.node_table(l).shares_data(&store.node_table(l)));
    }

    #[test]
    fn polymorphic_scans_are_zero_copy_after_first_slice() {
        // The lazy per-label slices of the polymorphic layout are cached:
        // repeated scans share one buffer just like the eager layouts.
        let db = fig2_yago_database();
        let store = RelStore::load_with_layout(&db, LayoutKind::Polymorphic);
        assert_eq!(store.layout_kind(), LayoutKind::Polymorphic);
        let le = db.edge_label_id("isLocatedIn").unwrap();
        assert!(store.edge_table(le).shares_data(&store.edge_table(le)));
    }

    #[test]
    fn csr_indexes_match_edge_tables() {
        let db = fig2_yago_database();
        for kind in LayoutKind::ALL {
            let store = RelStore::load_with_layout(&db, kind);
            for le_idx in 0..store.edge_table_count() {
                let le = EdgeLabelId::new(le_idx as u32);
                let table = store.edge_table(le);
                let fwd = store.forward_csr(le).expect("in range");
                let rev = store.reverse_csr(le).expect("in range");
                assert_eq!(fwd.edge_count(), table.len(), "set semantics ({kind})");
                assert_eq!(rev.edge_count(), table.len());
                for row in table.rows() {
                    let (s, t) = (NodeId::new(row[0]), NodeId::new(row[1]));
                    assert!(fwd.has_edge(s, t), "forward CSR has {row:?} ({kind})");
                    assert!(rev.has_edge(t, s), "reverse CSR has {row:?} ({kind})");
                }
            }
        }
    }

    #[test]
    fn shared_csr_handles_alias_the_loaded_index() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let le = db.edge_label_id("isLocatedIn").unwrap();
        let shared = store.forward_csr_shared(le).expect("in range");
        assert!(std::ptr::eq(
            Arc::as_ptr(&shared),
            store.forward_csr(le).unwrap()
        ));
        assert!(store.forward_csr_shared(EdgeLabelId::new(99)).is_none());
        assert!(store.reverse_csr_shared(le).is_some());
    }

    #[test]
    fn node_sets_are_sorted_node_ids() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let l = db.node_label_id("CITY").unwrap();
        let set = store.node_set(l);
        assert_eq!(set.len(), store.node_table(l).len());
        assert!(set.windows(2).all(|w| w[0] < w[1]), "strictly sorted");
        for &n in set {
            assert!(db.has_label(NodeId::new(n), l));
        }
    }

    #[test]
    fn store_symbols_resolve_storage_columns() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        assert_eq!(store.symbols.col(SR), SymbolTable::SR);
        assert_eq!(store.symbols.col(TR), SymbolTable::TR);
    }

    #[test]
    fn default_load_is_per_label_and_lacks_capabilities() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        assert_eq!(store.layout_kind(), LayoutKind::PerLabel);
        assert!(!store.supports_multi_scan());
        assert!(store.poly_rows().is_none());
        let le = db.edge_label_id("owns").unwrap();
        assert!(store.multi_edge_table(&[le]).is_none());
        assert!(!store.has_filtered_table(le, None, None));
    }
}
