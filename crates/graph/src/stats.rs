//! Cardinality statistics over a graph database.
//!
//! The relational cost model (Fig. 17 reproduction) and the join-ordering
//! heuristics need per-label node counts, per-edge-label edge counts, and —
//! crucially for estimating the benefit of schema annotations — per
//! `(source label, edge label, target label)` triple counts.
//!
//! Statistics v2 additionally precomputes, in the same pass:
//!
//! * per-`(source label, edge label)` and per-`(edge label, target label)`
//!   **aggregates** ([`EndpointStats`]: edge count + distinct bound
//!   endpoints), so [`GraphStats::source_selectivity`] is an O(1) lookup
//!   instead of a scan over every observed triple;
//! * per-triple **distinct source/target counts** ([`TripleStats`]), which
//!   give the average out-/in-degree of each schema triple;
//! * per-edge-label **distinct source/target counts** — the `V(rel, c)`
//!   distinct-value statistics the join selectivity formula wants, measured
//!   instead of approximated by `min(|rel|, |V|)`;
//! * a per-edge-label **transitive-closure depth bound**
//!   ([`GraphStats::closure_depth`]): the longest chain through the label
//!   subgraph's SCC condensation, counting each SCC at its node count. This
//!   bounds the length of the shortest paths a closure over that label
//!   composes and replaces the cost model's constant growth factor;
//! * per edge label, whether any node both sources and targets one of its
//!   edges ([`GraphStats::has_two_hop`]): if none does, `l∘l = ∅` and
//!   `l+ = l`.

use sgq_common::{sorted, EdgeLabelId, FxHashMap, Limits, NodeId, NodeLabelId};

use crate::closure::{components, Scratch, Steps};
use crate::csr::Csr;
use crate::database::GraphDatabase;

/// Aggregate over the edges of one label bound to one endpoint label:
/// how many edges there are and how many distinct endpoint nodes they use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// Number of edges in the group.
    pub count: usize,
    /// Distinct nodes on the grouped endpoint (sources for a
    /// `(source label, edge label)` group, targets for a
    /// `(edge label, target label)` group).
    pub distinct: usize,
}

/// Exact statistics for one observed `(src label, le, tgt label)` triple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TripleStats {
    /// Number of edges realising the triple.
    pub count: usize,
    /// Distinct source nodes among those edges.
    pub distinct_sources: usize,
    /// Distinct target nodes among those edges.
    pub distinct_targets: usize,
}

/// Aggregate statistics for a [`GraphDatabase`].
#[derive(Debug, Clone)]
pub struct GraphStats {
    /// Nodes per node label, indexed by label id.
    pub nodes_per_label: Vec<usize>,
    /// Edges per edge label, indexed by label id.
    pub edges_per_label: Vec<usize>,
    /// Statistics per observed `(src label, edge label, tgt label)` triple.
    pub triples: FxHashMap<(NodeLabelId, EdgeLabelId, NodeLabelId), TripleStats>,
    /// Total node count.
    pub node_count: usize,
    /// Total edge count.
    pub edge_count: usize,
    /// Aggregates per `(source label, edge label)` group.
    src_groups: FxHashMap<(NodeLabelId, EdgeLabelId), EndpointStats>,
    /// Aggregates per `(edge label, target label)` group.
    tgt_groups: FxHashMap<(EdgeLabelId, NodeLabelId), EndpointStats>,
    /// Distinct source nodes per edge label.
    distinct_sources: Vec<usize>,
    /// Distinct target nodes per edge label.
    distinct_targets: Vec<usize>,
    /// Semi-naive closure depth bound per edge label (0 for empty labels).
    closure_depths: Vec<usize>,
    /// Per edge label, whether some `l∘l` path exists.
    two_hop: Vec<bool>,
}

impl GraphStats {
    /// Computes statistics in a single pass over the database (plus one
    /// SCC pass per edge label for the closure depth bounds).
    pub fn compute(db: &GraphDatabase) -> Self {
        let mut nodes_per_label = vec![0usize; db.node_label_count()];
        for n in db.node_ids() {
            nodes_per_label[db.node_label(n).index()] += 1;
        }
        let label_count = db.edge_label_count();
        let mut edges_per_label = vec![0usize; label_count];
        let mut triples: FxHashMap<(NodeLabelId, EdgeLabelId, NodeLabelId), TripleStats> =
            FxHashMap::default();
        let mut src_groups: FxHashMap<(NodeLabelId, EdgeLabelId), EndpointStats> =
            FxHashMap::default();
        let mut tgt_groups: FxHashMap<(EdgeLabelId, NodeLabelId), EndpointStats> =
            FxHashMap::default();
        let mut distinct_sources = vec![0usize; label_count];
        let mut distinct_targets = vec![0usize; label_count];
        let mut closure_depths = vec![0usize; label_count];
        let mut two_hop = vec![false; label_count];
        let mut scratch = Scratch::new(db.node_count());
        for le_idx in 0..label_count {
            let le = EdgeLabelId::new(le_idx as u32);
            // Forward orientation: `edges` is sorted by (src, tgt), so all
            // edges of one source are contiguous and "is this a new
            // distinct source?" is a comparison against the last counted
            // source per group.
            let edges = db.edges(le);
            edges_per_label[le_idx] = edges.len();
            let mut last_src: Option<NodeId> = None;
            let mut last_src_by_group: FxHashMap<NodeLabelId, NodeId> = FxHashMap::default();
            let mut last_src_by_triple: FxHashMap<(NodeLabelId, NodeLabelId), NodeId> =
                FxHashMap::default();
            for &(s, t) in edges {
                let (sl, tl) = (db.node_label(s), db.node_label(t));
                let triple = triples.entry((sl, le, tl)).or_default();
                triple.count += 1;
                if last_src_by_triple.insert((sl, tl), s) != Some(s) {
                    triple.distinct_sources += 1;
                }
                let group = src_groups.entry((sl, le)).or_default();
                group.count += 1;
                if last_src_by_group.insert(sl, s) != Some(s) {
                    group.distinct += 1;
                }
                if last_src != Some(s) {
                    distinct_sources[le_idx] += 1;
                    last_src = Some(s);
                }
            }
            // Reverse orientation (sorted by (tgt, src)) for the
            // target-side distinct counts.
            let mut last_tgt: Option<NodeId> = None;
            let mut last_tgt_by_group: FxHashMap<NodeLabelId, NodeId> = FxHashMap::default();
            let mut last_tgt_by_triple: FxHashMap<(NodeLabelId, NodeLabelId), NodeId> =
                FxHashMap::default();
            for &(t, s) in &db.relation(le).by_tgt {
                let (sl, tl) = (db.node_label(s), db.node_label(t));
                let group = tgt_groups.entry((le, tl)).or_default();
                group.count += 1;
                if last_tgt_by_group.insert(tl, t) != Some(t) {
                    group.distinct += 1;
                }
                if last_tgt_by_triple.insert((sl, tl), t) != Some(t) {
                    triples.entry((sl, le, tl)).or_default().distinct_targets += 1;
                }
                if last_tgt != Some(t) {
                    distinct_targets[le_idx] += 1;
                    last_tgt = Some(t);
                }
            }
            closure_depths[le_idx] = condensation_depth(&db.relation(le).fwd, edges, &mut scratch);
            two_hop[le_idx] = edges
                .iter()
                .any(|&(_, t)| !db.out_neighbors(t, le).is_empty());
        }
        GraphStats {
            nodes_per_label,
            edges_per_label,
            node_count: db.node_count(),
            edge_count: db.edge_count(),
            triples,
            src_groups,
            tgt_groups,
            distinct_sources,
            distinct_targets,
            closure_depths,
            two_hop,
        }
    }

    /// Node count for `label`.
    pub fn label_cardinality(&self, label: NodeLabelId) -> usize {
        self.nodes_per_label
            .get(label.index())
            .copied()
            .unwrap_or(0)
    }

    /// Edge count for `le`.
    pub fn edge_cardinality(&self, le: EdgeLabelId) -> usize {
        self.edges_per_label.get(le.index()).copied().unwrap_or(0)
    }

    /// Edge count for a specific `(src label, le, tgt label)` triple.
    pub fn triple_cardinality(&self, src: NodeLabelId, le: EdgeLabelId, tgt: NodeLabelId) -> usize {
        self.triple_stats(src, le, tgt).count
    }

    /// Full statistics for a specific triple (zeroes when unobserved).
    pub fn triple_stats(&self, src: NodeLabelId, le: EdgeLabelId, tgt: NodeLabelId) -> TripleStats {
        self.triples
            .get(&(src, le, tgt))
            .copied()
            .unwrap_or_default()
    }

    /// Aggregate over the edges of `le` whose source is labeled `src`.
    pub fn source_group(&self, src: NodeLabelId, le: EdgeLabelId) -> EndpointStats {
        self.src_groups.get(&(src, le)).copied().unwrap_or_default()
    }

    /// Aggregate over the edges of `le` whose target is labeled `tgt`.
    pub fn target_group(&self, le: EdgeLabelId, tgt: NodeLabelId) -> EndpointStats {
        self.tgt_groups.get(&(le, tgt)).copied().unwrap_or_default()
    }

    /// Distinct source nodes among the edges of `le`.
    pub fn distinct_sources(&self, le: EdgeLabelId) -> usize {
        self.distinct_sources.get(le.index()).copied().unwrap_or(0)
    }

    /// Distinct target nodes among the edges of `le`.
    pub fn distinct_targets(&self, le: EdgeLabelId) -> usize {
        self.distinct_targets.get(le.index()).copied().unwrap_or(0)
    }

    /// Closure depth bound for `le`: the longest chain through the SCC
    /// condensation of the label's subgraph, counting each SCC at its node
    /// count — an upper bound on the number of edges on any shortest
    /// `le`-path, and therefore on the frontier rounds of any walk of
    /// `le+`. 0 for labels with no edges.
    pub fn closure_depth(&self, le: EdgeLabelId) -> usize {
        self.closure_depths.get(le.index()).copied().unwrap_or(0)
    }

    /// Whether some node both sources and targets an `le` edge: if not,
    /// no `le` path has two hops, and `le+ = le`.
    pub fn has_two_hop(&self, le: EdgeLabelId) -> bool {
        self.two_hop.get(le.index()).copied().unwrap_or(false)
    }

    /// Whether every `le` edge's target (`tgt`) or source carries one of
    /// `labels`: a filter on that endpoint keeps every edge.
    pub fn covers(&self, le: EdgeLabelId, tgt: bool, labels: &[NodeLabelId]) -> bool {
        let group = |(i, &l): (usize, &NodeLabelId)| match labels[..i].contains(&l) {
            true => 0,
            false if tgt => self.target_group(le, l).count,
            false => self.source_group(l, le).count,
        };
        labels.iter().enumerate().map(group).sum::<usize>() == self.edge_cardinality(le)
    }

    /// Selectivity of restricting `le` to sources labeled `src`:
    /// `|{(s,t) ∈ le : η(s) = src}| / |le|`, in `[0, 1]`. O(1) via the
    /// precomputed per-`(src, le)` aggregate.
    pub fn source_selectivity(&self, src: NodeLabelId, le: EdgeLabelId) -> f64 {
        let total = self.edge_cardinality(le);
        if total == 0 {
            return 0.0;
        }
        self.source_group(src, le).count as f64 / total as f64
    }
}

/// The longest chain through the SCC condensation of `edges` (`csr`
/// holding their rows), counting each SCC at its node count.
fn condensation_depth(csr: &Csr, edges: &[(NodeId, NodeId)], scratch: &mut Scratch) -> usize {
    let mut nodes: Vec<NodeId> = edges.iter().flat_map(|&(s, t)| [s, t]).collect();
    sorted::normalize(&mut nodes);
    let row = |n| csr.neighbors(n);
    let limits = Limits::default();
    let (comps, cyclic) = components(
        &row,
        &nodes,
        scratch,
        &mut Steps::new(&limits, "graph.stats"),
    )
    .expect("no limits to break");
    let comp = |n: NodeId| comps[nodes.binary_search(&n).expect("an endpoint")] as usize;
    let mut cross: Vec<(usize, usize)> = edges.iter().map(|&(s, t)| (comp(s), comp(t))).collect();
    cross.retain(|(a, b)| a != b);
    cross.sort_unstable();
    // Each component's size, then its longest chain: components are
    // numbered sinks first, so every successor's chain is final first.
    let mut depth = vec![0; cyclic.len()];
    comps.iter().for_each(|&c| depth[c as usize] += 1);
    for run in cross.chunk_by(|a, b| a.0 == b.0) {
        let longest = run.iter().map(|&(_, t)| depth[t]).max();
        depth[run[0].0] += longest.unwrap_or(0);
    }
    depth.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::fig2_yago_database;
    use sgq_common::Rng;

    #[test]
    fn fig2_statistics() {
        let db = fig2_yago_database();
        let stats = GraphStats::compute(&db);
        assert_eq!(stats.node_count, 7);
        assert_eq!(stats.edge_count, 9);
        let person = db.node_label_id("PERSON").unwrap();
        assert_eq!(stats.label_cardinality(person), 2);
        let isl = db.edge_label_id("isLocatedIn").unwrap();
        assert_eq!(stats.edge_cardinality(isl), 4);
    }

    #[test]
    fn triple_counts_split_overloaded_labels() {
        let db = fig2_yago_database();
        let stats = GraphStats::compute(&db);
        let isl = db.edge_label_id("isLocatedIn").unwrap();
        let city = db.node_label_id("CITY").unwrap();
        let region = db.node_label_id("REGION").unwrap();
        let property = db.node_label_id("PROPERTY").unwrap();
        let country = db.node_label_id("COUNTRY").unwrap();
        // Fig. 2: PROPERTY->CITY x1, CITY->REGION x2, REGION->COUNTRY x1
        assert_eq!(stats.triple_cardinality(property, isl, city), 1);
        assert_eq!(stats.triple_cardinality(city, isl, region), 2);
        assert_eq!(stats.triple_cardinality(region, isl, country), 1);
        assert_eq!(stats.triple_cardinality(country, isl, city), 0);
    }

    #[test]
    fn selectivity() {
        let db = fig2_yago_database();
        let stats = GraphStats::compute(&db);
        let isl = db.edge_label_id("isLocatedIn").unwrap();
        let city = db.node_label_id("CITY").unwrap();
        // 2 of the 4 isLocatedIn edges start from CITY nodes.
        assert!((stats.source_selectivity(city, isl) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distinct_endpoint_counts() {
        let db = fig2_yago_database();
        let stats = GraphStats::compute(&db);
        let isl = db.edge_label_id("isLocatedIn").unwrap();
        let city = db.node_label_id("CITY").unwrap();
        let region = db.node_label_id("REGION").unwrap();
        // Each of the 4 isLocatedIn edges has a different source; the two
        // CITY edges share one REGION target.
        assert_eq!(stats.distinct_sources(isl), 4);
        assert_eq!(stats.distinct_targets(isl), 3);
        let ts = stats.triple_stats(city, isl, region);
        assert_eq!(ts.count, 2);
        assert_eq!(ts.distinct_sources, 2);
        assert_eq!(ts.distinct_targets, 1);
        let group = stats.source_group(city, isl);
        assert_eq!(group.count, 2);
        assert_eq!(group.distinct, 2);
    }

    #[test]
    fn closure_depths_measure_hierarchy_and_cycles() {
        let db = fig2_yago_database();
        let stats = GraphStats::compute(&db);
        // isLocatedIn is the acyclic PROPERTY→CITY→REGION→COUNTRY chain:
        // the longest chain visits 4 nodes.
        let isl = db.edge_label_id("isLocatedIn").unwrap();
        assert_eq!(stats.closure_depth(isl), 4);
        // isMarriedTo is a 2-cycle: a single SCC of size 2.
        let married = db.edge_label_id("isMarriedTo").unwrap();
        assert_eq!(stats.closure_depth(married), 2);
        // owns has one edge: a 2-node chain.
        let owns = db.edge_label_id("owns").unwrap();
        assert_eq!(stats.closure_depth(owns), 2);
    }

    #[test]
    fn covers_holds_when_every_edge_passes_the_filter() {
        let db = fig2_yago_database();
        let stats = GraphStats::compute(&db);
        let (isl, l) = (db.edge_label_id("isLocatedIn").unwrap(), |n| {
            db.node_label_id(n).unwrap()
        });
        let sources = [l("PROPERTY"), l("CITY"), l("REGION")];
        assert!(stats.covers(isl, false, &sources));
        assert!(!stats.covers(isl, false, &sources[1..]));
        // A repeated label counts once.
        assert!(!stats.covers(isl, false, &[l("CITY"), l("CITY"), l("REGION")]));
        assert!(stats.covers(isl, true, &[l("CITY"), l("REGION"), l("COUNTRY")]));
    }

    #[test]
    fn two_hop_paths_are_recorded_per_label() {
        let db = fig2_yago_database();
        let stats = GraphStats::compute(&db);
        let has = |l: &str| stats.has_two_hop(db.edge_label_id(l).unwrap());
        // CITY→REGION→COUNTRY; the 2-cycle; one edge composing with none.
        assert!(has("isLocatedIn") && has("isMarriedTo"));
        assert!(!has("owns"));
        assert!(!stats.has_two_hop(EdgeLabelId::new(99)));
    }

    /// Regression test for the `source_selectivity` fast path: the O(1)
    /// per-`(src, le)` aggregate must equal the old O(|triples|) scan on a
    /// randomized database.
    #[test]
    fn source_selectivity_fast_path_equals_scan() {
        let mut b = crate::database::GraphDatabase::standalone_builder();
        let mut rng = Rng::seed_from_u64(0x57a7);
        let labels = ["A", "B", "C"];
        let nodes: Vec<_> = (0..120)
            .map(|i| b.node(labels[i % labels.len()], &[]))
            .collect();
        for _ in 0..400 {
            let s = nodes[rng.gen_range(0..nodes.len())];
            let t = nodes[rng.gen_range(0..nodes.len())];
            let le = if rng.gen_bool(0.5) { "e0" } else { "e1" };
            b.edge(s, le, t);
        }
        let db = b.build().unwrap();
        let stats = GraphStats::compute(&db);
        for le_idx in 0..db.edge_label_count() {
            let le = EdgeLabelId::new(le_idx as u32);
            for l_idx in 0..db.node_label_count() {
                let src = NodeLabelId::new(l_idx as u32);
                let scan: usize = stats
                    .triples
                    .iter()
                    .filter(|&(&(s, l, _), _)| s == src && l == le)
                    .map(|(_, t)| t.count)
                    .sum();
                let scanned = scan as f64 / stats.edge_cardinality(le).max(1) as f64;
                assert!(
                    (stats.source_selectivity(src, le) - scanned).abs() < 1e-12,
                    "fast path diverged for ({src:?}, {le:?})"
                );
                assert_eq!(stats.source_group(src, le).count, scan);
            }
        }
    }

    #[test]
    fn empty_label_statistics_are_zero() {
        let mut b = crate::database::GraphDatabase::standalone_builder();
        let n = b.node("A", &[]);
        let le = b.intern_edge_label("unused");
        let _ = (n, le);
        let db = b.build().unwrap();
        let stats = GraphStats::compute(&db);
        assert_eq!(stats.edge_cardinality(le), 0);
        assert_eq!(stats.distinct_sources(le), 0);
        assert_eq!(stats.closure_depth(le), 0);
        assert_eq!(stats.source_selectivity(NodeLabelId::new(0), le), 0.0);
    }
}
