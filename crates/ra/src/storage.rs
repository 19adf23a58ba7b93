//! The relational representation of a property graph (the paper's
//! Fig. 11), plus the indexes and precomputed slices execution reads.
//!
//! **Zero-copy scans.** Tables hold their rows behind shared buffers
//! ([`Relation`]'s `Arc`-backed data), so [`RelStore::edge_table`] /
//! [`RelStore::node_table`] hand out O(1) handles — a scan never copies
//! the graph. Out-of-range labels return a handle onto the process-wide
//! shared empty buffer instead of allocating.
//!
//! **One layout.** [`RelStore::load`] builds, from the database:
//!
//! * one canonical `(Sr, Tr)` table per edge label (Fig. 11);
//! * the endpoint-label slices: for every observed `(src label, le,
//!   tgt label)` triple and every one-sided group, the rows of `le`'s
//!   table whose endpoints carry those labels
//!   ([`RelStore::filtered_edge_table`]), so a label-filtered scan
//!   ([`crate::plan::PhysOp::DenormEdgeScan`]) costs exactly its output
//!   rows. A slice covering the whole label aliases the base
//!   table's buffer;
//! * one node table per node label, whose flat data is the sorted id set
//!   ([`RelStore::node_set`]);
//! * per edge label, the database's own forward and reverse [`Csr`]
//!   (set semantics, shared by `Arc`, never rebuilt): the physical
//!   planner ([`mod@crate::plan`]) uses them for
//!   [`crate::plan::PhysOp::IndexJoin`], probing neighbour lists instead
//!   of materialising and hashing a base table.
//!
//! The store also owns the [`SymbolTable`] that defines the column-id
//! space every [`crate::term::RaTerm`] executed against it lives in:
//! translation interns through `store.symbols`, execution and the
//! optimiser compare raw ids, and `explain`/SQL rendering resolves ids
//! back to names.

use std::sync::Arc;

use sgq_common::{EdgeLabelId, FxHashMap, NodeId, NodeLabelId};
use sgq_graph::{Csr, GraphDatabase, GraphSchema, GraphStats};

use crate::symbols::SymbolTable;
use crate::table::Relation;

/// Column name used for sources / node ids (paper's `Sr`).
pub const SR: &str = "Sr";
/// Column name used for targets (paper's `Tr`).
pub const TR: &str = "Tr";

/// An endpoint-label slice key: edge label, source label, target label
/// (`None` = unrestricted on that side).
type SliceKey = (EdgeLabelId, Option<NodeLabelId>, Option<NodeLabelId>);

/// A column store over a graph database plus its adjacency indexes,
/// endpoint-label slices, statistics and the symbol table for the terms
/// executed against it.
pub struct RelStore {
    /// One canonical `(Sr, Tr)` table per edge label.
    edge_tables: Vec<Relation>,
    /// The endpoint-label slices of every edge table, by [`SliceKey`].
    slices: FxHashMap<SliceKey, Relation>,
    /// One sorted `(Sr)` table per node label.
    node_tables: Vec<Relation>,
    /// Per edge label: the database's forward CSR (targets per source).
    edge_fwd: Vec<Arc<Csr>>,
    /// Per edge label: the database's reverse CSR (sources per target).
    edge_rev: Vec<Arc<Csr>>,
    /// Statistics for the cost model.
    pub stats: GraphStats,
    /// Interned column / recursion-variable names for this store's terms.
    pub symbols: SymbolTable,
    /// Whether the planner may lower joins against base edge scans into
    /// CSR index probes ([`crate::plan::PhysOp::IndexJoin`]). On by
    /// default; turned off for ablations and for tests that pin the
    /// scan-based strategies.
    pub index_joins: bool,
}

impl RelStore {
    /// Loads a graph database into relational tables (Fig. 11), their
    /// endpoint-label slices and node tables, sharing the database's
    /// per-label CSR adjacency indexes.
    pub fn load(db: &GraphDatabase) -> Self {
        let labels = (0..db.edge_label_count()).map(|i| EdgeLabelId::new(i as u32));
        // `db.edges(le)` is already sorted and deduplicated: canonical.
        let edge_tables: Vec<Relation> = labels
            .clone()
            .map(|le| {
                let flat = db.edges(le).iter().flat_map(|&(s, t)| [s.raw(), t.raw()]);
                Relation::from_flat_sorted(vec![SymbolTable::SR, SymbolTable::TR], flat.collect())
            })
            .collect();
        let node_tables = (0..db.node_label_count())
            .map(|l| {
                let ids = db.nodes_with_label(NodeLabelId::new(l as u32));
                let flat = ids.iter().map(|n| n.raw()).collect();
                Relation::from_flat_sorted(vec![SymbolTable::SR], flat)
            })
            .collect();
        RelStore {
            slices: slices(db, &edge_tables),
            edge_tables,
            node_tables,
            edge_fwd: labels
                .clone()
                .map(|le| Arc::clone(&db.relation(le).fwd))
                .collect(),
            edge_rev: labels.map(|le| Arc::clone(&db.relation(le).rev)).collect(),
            stats: GraphStats::compute(db),
            symbols: SymbolTable::new(),
            index_joins: true,
        }
    }

    /// [`RelStore::load`]; the schema is unused. Kept, with this
    /// signature, because the benchmark's binding surface calls it
    /// (ROADMAP item 5(f)).
    pub fn load_advised(db: &GraphDatabase, _schema: &GraphSchema) -> Self {
        RelStore::load(db)
    }

    /// The edge table for `le`: an O(1) shared handle, never a row copy.
    /// Out-of-range labels share the static empty buffer.
    pub fn edge_table(&self, le: EdgeLabelId) -> Relation {
        (self.edge_tables.get(le.index()).cloned())
            .unwrap_or_else(|| Relation::empty(vec![SymbolTable::SR, SymbolTable::TR]))
    }

    /// The node table for `l`: an O(1) shared handle, never a row copy.
    /// Out-of-range labels share the static empty buffer.
    pub fn node_table(&self, l: NodeLabelId) -> Relation {
        (self.node_tables.get(l.index()).cloned())
            .unwrap_or_else(|| Relation::empty(vec![SymbolTable::SR]))
    }

    /// The endpoint-label slice of `le`'s table: the rows whose source
    /// (resp. target) carries `src` (resp. `tgt`), `None` leaving that
    /// side unrestricted — an O(1) shared handle. An unobserved
    /// combination or an out-of-range label is the shared empty relation.
    pub fn filtered_edge_table(
        &self,
        le: EdgeLabelId,
        src: Option<NodeLabelId>,
        tgt: Option<NodeLabelId>,
    ) -> Relation {
        if src.is_none() && tgt.is_none() {
            return self.edge_table(le);
        }
        (self.slices.get(&(le, src, tgt)).cloned())
            .unwrap_or_else(|| Relation::empty(vec![SymbolTable::SR, SymbolTable::TR]))
    }

    /// The forward CSR for `le` (targets per source), if in range.
    pub fn forward_csr(&self, le: EdgeLabelId) -> Option<&Csr> {
        self.edge_fwd.get(le.index()).map(Arc::as_ref)
    }

    /// The reverse CSR for `le` (sources per target), if in range.
    pub fn reverse_csr(&self, le: EdgeLabelId) -> Option<&Csr> {
        self.edge_rev.get(le.index()).map(Arc::as_ref)
    }

    /// Shared handle on the forward CSR for `le` — O(1), lets a morsel
    /// worker own the index for the duration of a parallel probe.
    pub fn forward_csr_shared(&self, le: EdgeLabelId) -> Option<Arc<Csr>> {
        self.edge_fwd.get(le.index()).cloned()
    }

    /// Shared handle on the reverse CSR for `le`.
    pub fn reverse_csr_shared(&self, le: EdgeLabelId) -> Option<Arc<Csr>> {
        self.edge_rev.get(le.index()).cloned()
    }

    /// The sorted set of node ids carrying label `l` (empty when out of
    /// range).
    pub fn node_set(&self, l: NodeLabelId) -> &[u32] {
        self.node_tables.get(l.index()).map_or(&[], Relation::flat)
    }

    /// Number of edge tables.
    pub fn edge_table_count(&self) -> usize {
        self.edge_tables.len()
    }

    /// Number of node tables.
    pub fn node_table_count(&self) -> usize {
        self.node_tables.len()
    }
}

/// The endpoint-label slices of `edge_tables`, in one grouping pass per
/// edge label: each canonical base row lands in its triple bucket and
/// both one-sided buckets, so every bucket's flat data is itself
/// canonical. A bucket holding every row of its label is the base table,
/// shared instead of copied.
fn slices(db: &GraphDatabase, edge_tables: &[Relation]) -> FxHashMap<SliceKey, Relation> {
    let mut buckets: FxHashMap<SliceKey, Vec<u32>> = FxHashMap::default();
    for (le_idx, table) in edge_tables.iter().enumerate() {
        let le = EdgeLabelId::new(le_idx as u32);
        for row in table.rows() {
            let sl = db.node_label(NodeId::new(row[0]));
            let tl = db.node_label(NodeId::new(row[1]));
            for key in [
                (le, Some(sl), Some(tl)),
                (le, Some(sl), None),
                (le, None, Some(tl)),
            ] {
                buckets.entry(key).or_default().extend_from_slice(row);
            }
        }
    }
    (buckets.into_iter())
        .map(|(key, data)| {
            let base = &edge_tables[key.0.index()];
            let rel = if data.len() == base.flat().len() {
                base.clone()
            } else {
                Relation::from_flat_sorted(base.cols().to_vec(), data)
            };
            (key, rel)
        })
        .collect()
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
        let city = NodeLabelId::new(0);
        assert!(store
            .filtered_edge_table(EdgeLabelId::new(99), Some(city), None)
            .is_empty());
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
    fn csr_indexes_match_edge_tables() {
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        for le_idx in 0..store.edge_table_count() {
            let le = EdgeLabelId::new(le_idx as u32);
            let table = store.edge_table(le);
            let fwd = store.forward_csr(le).expect("in range");
            let rev = store.reverse_csr(le).expect("in range");
            assert_eq!(fwd.edge_count(), table.len(), "set semantics");
            assert_eq!(rev.edge_count(), table.len());
            for row in table.rows() {
                let (s, t) = (NodeId::new(row[0]), NodeId::new(row[1]));
                assert!(fwd.has_edge(s, t), "forward CSR has {row:?}");
                assert!(rev.has_edge(t, s), "reverse CSR has {row:?}");
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
    fn csr_indexes_are_the_databases_own() {
        // The store holds the database's adjacency, not a second copy.
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        for le in (0..db.edge_label_count()).map(|i| EdgeLabelId::new(i as u32)) {
            let (fwd, rev) = (&db.relation(le).fwd, &db.relation(le).rev);
            assert!(Arc::ptr_eq(&store.forward_csr_shared(le).unwrap(), fwd));
            assert!(Arc::ptr_eq(&store.reverse_csr_shared(le).unwrap(), rev));
        }
    }

    #[test]
    fn full_coverage_slices_share_the_base_buffer() {
        // Every `owns` edge is PERSON→PROPERTY, so its slices alias the
        // base table instead of copying it.
        let db = fig2_yago_database();
        let store = RelStore::load(&db);
        let owns = db.edge_label_id("owns").unwrap();
        let person = db.node_label_id("PERSON").unwrap();
        let slice = store.filtered_edge_table(owns, Some(person), None);
        assert!(slice.shares_data(&store.edge_table(owns)));
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
}
