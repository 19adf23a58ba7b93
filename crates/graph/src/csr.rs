//! Compressed sparse row adjacency.
//!
//! Each edge label gets a forward and a reverse [`Csr`]: `offsets[n]..
//! offsets[n+1]` indexes into `targets`, giving the sorted neighbour list of
//! node `n`. This is the classic layout used by graph engines for cheap
//! neighbourhood expansion without per-node allocations.

use sgq_common::NodeId;

/// Compressed sparse row structure over `node_count` nodes.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Csr {
    /// Builds a CSR from `(source, target)` pairs.
    ///
    /// Pairs need not be sorted; parallel edges are kept (pseudo multigraph).
    pub fn from_pairs(node_count: usize, pairs: &[(NodeId, NodeId)]) -> Self {
        let mut degree = vec![0u32; node_count + 1];
        for &(s, _) in pairs {
            degree[s.index() + 1] += 1;
        }
        for i in 1..degree.len() {
            degree[i] += degree[i - 1];
        }
        let offsets = degree;
        let mut cursor = offsets.clone();
        let mut targets = vec![NodeId::new(0); pairs.len()];
        for &(s, t) in pairs {
            let at = cursor[s.index()];
            targets[at as usize] = t;
            cursor[s.index()] += 1;
        }
        // Sort each neighbour list so lookups can binary-search.
        for n in 0..node_count {
            let (lo, hi) = (offsets[n] as usize, offsets[n + 1] as usize);
            targets[lo..hi].sort_unstable();
        }
        Csr { offsets, targets }
    }

    /// Neighbour list of `n` (sorted).
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        if n.index() + 1 >= self.offsets.len() {
            return &[];
        }
        let lo = self.offsets[n.index()] as usize;
        let hi = self.offsets[n.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-degree of `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }

    /// Total number of stored edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of nodes this CSR was built over.
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the edge `s -> t` exists.
    pub fn has_edge(&self, s: NodeId, t: NodeId) -> bool {
        self.neighbors(s).binary_search(&t).is_ok()
    }

    /// Iterates over all `(source, target)` pairs in source order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count()).flat_map(move |n| {
            let src = NodeId::from(n);
            self.neighbors(src).iter().map(move |&t| (src, t))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn build_and_query() {
        let pairs = vec![(n(0), n(2)), (n(0), n(1)), (n(2), n(0)), (n(1), n(2))];
        let csr = Csr::from_pairs(3, &pairs);
        assert_eq!(csr.neighbors(n(0)), &[n(1), n(2)]);
        assert_eq!(csr.neighbors(n(1)), &[n(2)]);
        assert_eq!(csr.neighbors(n(2)), &[n(0)]);
        assert_eq!(csr.degree(n(0)), 2);
        assert_eq!(csr.edge_count(), 4);
        assert!(csr.has_edge(n(0), n(2)));
        assert!(!csr.has_edge(n(2), n(1)));
    }

    #[test]
    fn empty_and_out_of_range() {
        let csr = Csr::from_pairs(2, &[]);
        assert_eq!(csr.neighbors(n(0)), &[] as &[NodeId]);
        assert_eq!(csr.neighbors(n(5)), &[] as &[NodeId]);
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn parallel_edges_kept() {
        let pairs = vec![(n(0), n(1)), (n(0), n(1))];
        let csr = Csr::from_pairs(2, &pairs);
        assert_eq!(csr.neighbors(n(0)).len(), 2);
    }

    #[test]
    fn iter_roundtrip() {
        let pairs = vec![(n(1), n(0)), (n(0), n(1)), (n(1), n(2))];
        let csr = Csr::from_pairs(3, &pairs);
        let mut got: Vec<_> = csr.iter().collect();
        got.sort_unstable();
        let mut want = pairs.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
