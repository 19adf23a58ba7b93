//! Simple paths over a graph of node labels: what the `PlC` algorithm
//! (the paper's Definition 8) enumerates to eliminate a transitive
//! closure.
//!
//! [`LabelPaths::enumerate`] takes a directed multigraph whose vertices
//! are node labels, given as a list of `(source, target)` edges, and
//! derives three facts from it: the labels lying on a cycle, the pairs
//! joined by a non-empty path, and every simple path (no label repeated)
//! as a sequence of edge indices. The rewriter calls it on the triples of
//! a compound closure; [`crate::GraphSchema`] calls it once per edge
//! label at build time, so the closure of a single label — almost every
//! closure a real catalog writes — is never enumerated per statement.

use sgq_common::{sorted, NodeLabelId};

/// The label-level facts `PlC` reads off a multigraph of node labels.
#[derive(Debug, Clone, Default)]
pub struct LabelPaths {
    /// Labels that reach themselves by a non-empty path, sorted.
    pub cyclic: Vec<NodeLabelId>,
    /// Every pair `(a, b)` joined by a non-empty path, sorted.
    pub reach: Vec<(NodeLabelId, NodeLabelId)>,
    /// Whether every simple path was enumerated: `false` once there are
    /// more than the cap, and then no path is kept.
    pub complete: bool,
    /// The edge indices of every simple path, concatenated; `ends[i]` is
    /// where the `i`-th path stops.
    steps: Vec<u32>,
    ends: Vec<u32>,
}

impl LabelPaths {
    /// Enumerates `edges` depth first from each label in id order,
    /// following each label's edges in input order. More than `cap`
    /// simple paths make the result incomplete.
    pub fn enumerate(edges: &[(NodeLabelId, NodeLabelId)], cap: usize) -> Self {
        let mut labels: Vec<NodeLabelId> = edges.iter().flat_map(|&(s, t)| [s, t]).collect();
        sorted::normalize(&mut labels);
        let n = labels.len();
        let at = |l: NodeLabelId| labels.binary_search(&l).expect("an edge endpoint");
        let mut reach = vec![false; n * n];
        let mut walk = Walk {
            out: vec![Vec::new(); n],
            tgt: edges.iter().map(|&(_, t)| at(t)).collect(),
            visited: vec![false; n],
            stack: Vec::new(),
            cap,
        };
        for (i, &(s, t)) in edges.iter().enumerate() {
            reach[at(s) * n + at(t)] = true;
            walk.out[at(s)].push(i as u32);
        }
        // Floyd–Warshall: label graphs are small.
        for k in 0..n {
            for i in 0..n {
                if reach[i * n + k] {
                    for j in 0..n {
                        reach[i * n + j] |= reach[k * n + j];
                    }
                }
            }
        }
        let mut paths = LabelPaths {
            cyclic: (0..n)
                .filter(|&i| reach[i * n + i])
                .map(|i| labels[i])
                .collect(),
            reach: (0..n * n)
                .filter(|&x| reach[x])
                .map(|x| (labels[x / n], labels[x % n]))
                .collect(),
            complete: true,
            ..Default::default()
        };
        for v in 0..n {
            walk.visited[v] = true;
            if !walk.dfs(v, &mut paths) {
                paths.complete = false;
                paths.steps.clear();
                paths.ends.clear();
                break;
            }
            walk.visited[v] = false;
        }
        paths
    }

    /// Number of simple paths (all of them when [`LabelPaths::complete`]).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there is no simple path (no edge).
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The simple paths, each as its edges' indices, in enumeration order.
    pub fn paths(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(s, &e)| &self.steps[s as usize..e as usize])
    }
}

/// The depth-first walk's state.
struct Walk {
    out: Vec<Vec<u32>>,
    tgt: Vec<usize>,
    visited: Vec<bool>,
    stack: Vec<u32>,
    cap: usize,
}

impl Walk {
    /// Records every simple path extending the stack from `v`; `false`
    /// once a path past the cap is found.
    fn dfs(&mut self, v: usize, paths: &mut LabelPaths) -> bool {
        for i in 0..self.out[v].len() {
            let edge = self.out[v][i];
            let next = self.tgt[edge as usize];
            if self.visited[next] {
                continue;
            }
            if paths.len() == self.cap {
                return false;
            }
            self.stack.push(edge);
            paths.steps.extend_from_slice(&self.stack);
            paths.ends.push(paths.steps.len() as u32);
            self.visited[next] = true;
            if !self.dfs(next, paths) {
                return false;
            }
            self.visited[next] = false;
            self.stack.pop();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> NodeLabelId {
        NodeLabelId::new(i)
    }

    #[test]
    fn chain_has_every_subpath_and_no_cycle() {
        // 0 → 1 → 2 → 3: the six non-empty paths of a 4-chain.
        let p = LabelPaths::enumerate(&[(l(0), l(1)), (l(1), l(2)), (l(2), l(3))], 100);
        assert!(p.complete);
        assert!(p.cyclic.is_empty());
        assert_eq!(p.len(), 6);
        assert_eq!(p.reach.len(), 6);
        let paths: Vec<&[u32]> = p.paths().collect();
        assert_eq!(paths[..3], [&[0][..], &[0, 1], &[0, 1, 2]]);
    }

    #[test]
    fn cycles_and_parallel_edges() {
        // 0 ⇉ 1 (two edges), 1 → 1: both parallel edges are paths; the
        // self-loop revisits 1 and is not simple.
        let p = LabelPaths::enumerate(&[(l(0), l(1)), (l(0), l(1)), (l(1), l(1))], 100);
        assert_eq!(p.cyclic, [l(1)]);
        assert_eq!(p.reach, [(l(0), l(1)), (l(1), l(1))]);
        assert_eq!(p.paths().collect::<Vec<_>>(), [&[0][..], &[1]]);
    }

    #[test]
    fn the_cap_is_exact() {
        let edges = [(l(0), l(1)), (l(1), l(2)), (l(2), l(3))];
        assert!(LabelPaths::enumerate(&edges, 6).complete);
        let over = LabelPaths::enumerate(&edges, 5);
        assert!(!over.complete);
        assert!(over.is_empty());
        assert_eq!(
            over.reach.len(),
            6,
            "reachability does not depend on the cap"
        );
    }
}
