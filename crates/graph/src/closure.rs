//! The closure kernel: `step+` from sorted starts over one sorted row
//! per node, as canonical `(start, reached)` pairs. An iterative Tarjan
//! pass over what the starts reach gives each start its strongly
//! connected component. The first start of a cyclic component walks it;
//! a later start there reaches the same nodes and copies that sorted run
//! under its own id; a start on no cycle walks alone. Walks go in start
//! order, so the output needs no global sort. Extra memory is O(reached):
//! no reach set is kept for a component without a start (a chain would
//! make that quadratic), and the node marks live in a [`Scratch`] that is
//! valid by epoch, so no call clears it. A step with no CSR of its own
//! gives its rows as [`Runs`] of its sorted pairs.

use sgq_common::{Limits, NodeId, Result};

/// Steps between two polls (a row read, an edge followed, a walk
/// round), and pairs per recorded batch.
const BATCH: usize = 1 << 16;
/// The component of a node still on Tarjan's stack.
const OPEN: u32 = u32::MAX;

/// Node marks kept from call to call, `(pass epoch, discovery number,
/// mark epoch)` per node: a mark counts while it holds the current epoch.
#[derive(Debug, Default)]
pub struct Scratch {
    nodes: usize,
    epoch: u32,
    marks: Vec<(u32, u32, u32)>,
}

impl Scratch {
    /// Marks for the nodes `0..nodes`, allocated by the first closure.
    pub fn new(nodes: usize) -> Self {
        Scratch {
            nodes,
            ..Scratch::default()
        }
    }

    /// A fresh epoch: every node [`Scratch::mark`] marked is unmarked.
    pub fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX || self.marks.len() < self.nodes {
            (self.marks, self.epoch) = (vec![(0, 0, 0); self.nodes], 0);
        }
        self.epoch += 1;
        self.epoch
    }

    /// Marks `n` (below the node count, after a [`Scratch::next_epoch`]);
    /// whether it was unmarked.
    #[inline]
    pub fn mark(&mut self, n: NodeId) -> bool {
        std::mem::replace(&mut self.marks[n.index()].2, self.epoch) != self.epoch
    }
}

/// One closure's pairs and the work behind them.
#[derive(Debug, Default)]
pub struct Closure {
    /// `(start, reached)`, sorted and distinct.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Frontier rounds of the component walks run.
    pub rounds: usize,
    /// Starts that walked; every other start copied a run.
    pub walks: usize,
}

/// The steps taken so far and where a batch of them is reported: the
/// caller's limits, under the caller's fault site.
pub(crate) struct Steps<'l> {
    limits: &'l Limits,
    site: &'static str,
    taken: usize,
}

impl<'l> Steps<'l> {
    pub(crate) fn new(limits: &'l Limits, site: &'static str) -> Self {
        Steps {
            limits,
            site,
            taken: 0,
        }
    }

    /// Adds `n` steps; at a batch, polls and visits the fault site.
    fn tick(&mut self, n: usize) -> Result<()> {
        self.taken += n;
        if self.taken >= BATCH {
            self.taken %= BATCH;
            self.limits.poll()?;
            self.limits.fault(self.site)?;
        }
        Ok(())
    }
}

/// `step+` from `starts` (sorted, distinct, below the scratch's node
/// count), `row(n)` being `n`'s sorted successors. Every batch of steps
/// polls `limits` and visits the fault site `site`; emitted pairs are
/// recorded against `limits` in batches.
pub fn closure<'a>(
    row: impl Fn(NodeId) -> &'a [NodeId],
    starts: &[NodeId],
    limits: &Limits,
    site: &'static str,
    scratch: &mut Scratch,
) -> Result<Closure> {
    let mut steps = Steps::new(limits, site);
    let (comps, cyclic) = match starts.len() {
        0 | 1 => (vec![0; starts.len()], vec![false]),
        _ => components(&row, starts, scratch, &mut steps)?,
    };
    let mut out = Closure::default();
    // The run of the first start of each cyclic component.
    let (mut runs, mut queue, mut unrecorded) = (vec![None; cyclic.len()], Vec::new(), 0);
    for (&start, &comp) in starts.iter().zip(&comps) {
        let (from, comp) = (out.pairs.len(), comp as usize);
        if let Some((at, len)) = runs[comp] {
            steps.tick(len)?;
            out.pairs.extend_from_within(at..at + len);
            out.pairs[from..].iter_mut().for_each(|p| p.0 = start);
        } else {
            scratch.next_epoch();
            queue.clear();
            queue.push(start);
            let mut lo = 0;
            while lo < queue.len() {
                out.rounds += 1;
                steps.tick(1)?;
                let hi = queue.len();
                for i in lo..hi {
                    let next = row(queue[i]);
                    steps.tick(next.len())?;
                    for &n in next {
                        if scratch.mark(n) {
                            queue.push(n);
                        }
                    }
                }
                lo = hi;
            }
            queue[1..].sort_unstable();
            out.pairs.extend(queue[1..].iter().map(|&n| (start, n)));
            out.walks += 1;
        }
        let len = out.pairs.len() - from;
        if cyclic[comp] && runs[comp].is_none() {
            runs[comp] = Some((from, len));
        }
        unrecorded += len;
        while unrecorded >= BATCH {
            unrecorded -= BATCH;
            limits.record(BATCH, 2)?;
        }
    }
    limits.record(unrecorded, 2)?;
    Ok(out)
}

/// A step's sorted, distinct `(from, to)` pairs as rows: `n`'s row is the
/// `to` of its binary-searched run — how both backends walk a step that is
/// not one edge label.
#[derive(Debug, Default)]
pub struct Runs {
    from: Vec<NodeId>,
    to: Vec<NodeId>,
}

impl Runs {
    /// The runs of `pairs`, sorted and distinct.
    pub fn of_sorted(pairs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let (from, to) = pairs.into_iter().unzip();
        Runs { from, to }
    }

    /// `n`'s successors, sorted.
    pub fn row(&self, n: NodeId) -> &[NodeId] {
        let lo = self.from.partition_point(|&k| k < n);
        &self.to[lo..lo + self.from[lo..].partition_point(|&k| k == n)]
    }

    /// The nodes with a successor, sorted: an unseeded closure's starts.
    pub fn starts(&self) -> Vec<NodeId> {
        let mut starts = self.from.clone();
        starts.dedup();
        starts
    }
}

/// Tarjan's algorithm, iterative, over what `roots` reach: the component
/// of each root, numbered sinks first (an edge between two components
/// points to the lower number), and whether each component holds a
/// cycle (two nodes or more, or a self-loop).
pub(crate) fn components<'a>(
    row: &impl Fn(NodeId) -> &'a [NodeId],
    roots: &[NodeId],
    scratch: &mut Scratch,
    steps: &mut Steps<'_>,
) -> Result<(Vec<u32>, Vec<bool>)> {
    let pass = scratch.next_epoch();
    let marks = &mut scratch.marks;
    // By discovery number, the lowest number reached and the component;
    // Tarjan's stack; the DFS frames `(node, row position)`.
    let (mut low, mut comp, mut stack, mut cyclic) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut calls: Vec<(NodeId, usize)> = Vec::new();
    for &root in roots {
        let mut found = Some(root).filter(|r| marks[r.index()].0 != pass);
        loop {
            if let Some(n) = found.take() {
                let id = low.len() as u32;
                (marks[n.index()].0, marks[n.index()].1) = (pass, id);
                low.push(id);
                comp.push(OPEN);
                stack.push(id);
                calls.push((n, 0));
            }
            let Some(&mut (v, ref mut pos)) = calls.last_mut() else {
                break;
            };
            let (vi, next) = (marks[v.index()].1 as usize, row(v));
            if let Some(&w) = next.get(*pos) {
                *pos += 1;
                steps.tick(1)?;
                match marks[w.index()] {
                    (p, wi, _) if p == pass && comp[wi as usize] == OPEN => {
                        low[vi] = low[vi].min(wi)
                    }
                    (p, ..) if p == pass => {}
                    _ => found = Some(w),
                }
                continue;
            }
            calls.pop();
            if low[vi] == vi as u32 {
                let at = stack.partition_point(|&i| i < vi as u32);
                cyclic.push(stack.len() - at > 1 || next.binary_search(&v).is_ok());
                let id = cyclic.len() as u32 - 1;
                stack.drain(at..).for_each(|i| comp[i as usize] = id);
            }
            if let Some(&(u, _)) = calls.last() {
                let ui = marks[u.index()].1 as usize;
                low[ui] = low[ui].min(low[vi]);
            }
        }
    }
    let comp_of = |s: &NodeId| comp[marks[s.index()].1 as usize];
    Ok((roots.iter().map(comp_of).collect(), cyclic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Every `(s, t)` with `t` reachable from `s` in one or more steps,
    /// by a set-at-a-time fixpoint.
    fn reference(edges: &[(NodeId, NodeId)], starts: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        let mut acc: Vec<_> = edges
            .iter()
            .copied()
            .filter(|e| starts.contains(&e.0))
            .collect();
        loop {
            let mut next = acc.clone();
            for &(s, m) in &acc {
                next.extend(edges.iter().filter(|e| e.0 == m).map(|e| (s, e.1)));
            }
            next.sort_unstable();
            next.dedup();
            if next == acc {
                return acc;
            }
            acc = next;
        }
    }

    fn run(edges: &[(NodeId, NodeId)], starts: &[NodeId], scratch: &mut Scratch) -> Closure {
        let csr = Csr::from_pairs(scratch.nodes, edges);
        let row = |n| csr.neighbors(n);
        closure(row, starts, &Limits::default(), "test.closure", scratch).unwrap()
    }

    #[test]
    fn cycles_share_one_walk_and_chains_walk_alone() {
        // 0 → 1 → 2 → 0 is a cycle reaching 3 → 4; 5 has a self-loop;
        // 6 → 0 enters the cycle from outside; 7 has no edge.
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 5), (6, 0)];
        let edges = edges.map(|(a, b)| (n(a), n(b)));
        let mut scratch = Scratch::new(8);
        let all: Vec<NodeId> = (0..8).map(n).collect();
        let got = run(&edges, &all, &mut scratch);
        assert_eq!(got.pairs, reference(&edges, &all));
        // 0 walks for the cycle, 1 and 2 copy; the other five walk.
        assert_eq!(got.walks, 6);
        for starts in [&[n(1), n(3)][..], &[n(6)], &[n(2), n(5), n(6)], &[]] {
            let got = run(&edges, starts, &mut scratch);
            assert_eq!(got.pairs, reference(&edges, starts), "{starts:?}");
        }
    }

    #[test]
    fn the_epoch_wraps_without_stale_marks() {
        let edges = [(0, 1), (1, 0), (1, 2)].map(|(a, b)| (n(a), n(b)));
        let starts = [n(0), n(1)];
        let mut scratch = Scratch::new(3);
        let want = run(&edges, &starts, &mut scratch).pairs;
        scratch.epoch = u32::MAX - 2;
        for _ in 0..4 {
            assert_eq!(run(&edges, &starts, &mut scratch).pairs, want);
        }
        assert!(scratch.epoch < 16, "wrapped");
    }

    #[test]
    fn an_expired_deadline_stops_many_tiny_walks_within_one_batch() {
        // Isolated starts: no component pass steps, one round per walk.
        let starts: Vec<NodeId> = (0..BATCH as u32 * 3 / 2).map(n).collect();
        let mut scratch = Scratch::new(starts.len());
        let reads = std::cell::Cell::new(0);
        let row = |_| {
            reads.set(reads.get() + 1);
            &[][..]
        };
        let expired = Limits {
            deadline: Some(std::time::Instant::now()),
            ..Limits::default()
        };
        let err = closure(row, &starts, &expired, "test.closure", &mut scratch).unwrap_err();
        assert!(err.is_timeout(), "{err}");
        // The component pass reads each row once, then walks start.
        let walked = reads.get() - starts.len();
        assert!(walked < BATCH, "{walked} walks");
        let done = closure(
            row,
            &starts,
            &Limits::default(),
            "test.closure",
            &mut scratch,
        );
        assert_eq!(done.unwrap().walks, starts.len());
    }
}
