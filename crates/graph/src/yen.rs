//! Yen's algorithm for k shortest loopless paths, fewest hops first.
//!
//! Flash's mice routing computes "top-m shortest paths (i.e. using Yen's
//! algorithm) on the local topology G" (§3.3), and when a cached path
//! dies it swaps in "the next top shortest path". [`KShortestHops`] is
//! Yen (1971) as a resumable iterator: the paths found so far and the
//! candidate pool live between calls, so rank m + r costs one Yen step
//! instead of a rerun from rank 1. Spur searches are BFS, and candidates
//! are ranked by `(hops, nodes)`, so the rank sequence is deterministic.

use crate::{bfs, path::Path, DiGraph, EdgeId};
use pcn_types::NodeId;

/// Resumable fewest-hops Yen enumeration of the simple paths `s → t`.
///
/// Each [`next_path`](Self::next_path) call runs exactly one Yen step
/// and returns the next rank, in non-decreasing hop order with ties
/// broken by the lexicographic node sequence. Every call must pass the
/// same graph; a caller whose topology changes starts a new iterator.
#[derive(Clone, Debug)]
pub struct KShortestHops {
    s: NodeId,
    t: NodeId,
    /// Every rank returned so far, in rank order.
    found: Vec<Path>,
    /// Spur paths not yet returned, unordered and pairwise distinct. A
    /// found path never re-enters the pool: Yen bans its edge at every
    /// spur index where it shares the root.
    candidates: Vec<Path>,
    /// Set once a step finds no candidate; no later step can find one.
    exhausted: bool,
}

impl KShortestHops {
    /// Starts the enumeration of simple paths `s → t`.
    pub fn new(s: NodeId, t: NodeId) -> Self {
        KShortestHops {
            s,
            t,
            found: Vec::new(),
            candidates: Vec::new(),
            exhausted: false,
        }
    }

    /// How many ranks [`next_path`](Self::next_path) has returned.
    pub fn returned(&self) -> usize {
        self.found.len()
    }

    /// Returns the next-ranked simple path, or `None` once every simple
    /// path `s → t` of `g` has been returned.
    pub fn next_path(&mut self, g: &DiGraph) -> Option<Path> {
        if self.exhausted {
            return None;
        }
        if self.found.is_empty() {
            self.candidates
                .extend(bfs::shortest_path(g, self.s, self.t));
        } else {
            self.push_spurs(g);
        }
        let best = self
            .candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.hops()
                    .cmp(&b.hops())
                    .then_with(|| a.nodes().cmp(b.nodes()))
            })
            .map(|(i, _)| i);
        let Some(best) = best else {
            self.exhausted = true;
            return None;
        };
        let path = self.candidates.swap_remove(best);
        self.found.push(path.clone());
        Some(path)
    }

    /// Adds the spur paths of the last found path to the candidate pool.
    fn push_spurs(&mut self, g: &DiGraph) {
        let Some(prev) = self.found.last() else {
            return;
        };
        let prev = prev.nodes();
        let mut banned_edges: Vec<EdgeId> = Vec::new();
        // Each node of the previous path except the last is a spur node.
        for i in 0..prev.len() - 1 {
            let root = &prev[..=i];
            // Edges leaving the spur node along any found path sharing
            // this root are banned.
            banned_edges.clear();
            for p in &self.found {
                let nodes = p.nodes();
                if nodes.len() > i + 1 && nodes[..=i] == *root {
                    if let Some(e) = g.edge(nodes[i], nodes[i + 1]) {
                        banned_edges.push(e);
                    }
                }
            }
            // Nodes on the root before the spur node are banned to keep
            // paths loopless.
            let banned_nodes = &prev[..i];
            let spur = bfs::shortest_path_filtered(g, prev[i], self.t, |e| {
                if banned_edges.contains(&e) {
                    return false;
                }
                let (u, v) = g.endpoints(e);
                !banned_nodes.contains(&u) && !banned_nodes.contains(&v)
            });
            let Some(spur) = spur else { continue };
            let mut nodes = banned_nodes.to_vec();
            nodes.extend_from_slice(spur.nodes());
            if !self.candidates.iter().any(|c| c.nodes() == nodes) {
                self.candidates.push(Path::from_vec_unchecked(nodes));
            }
        }
    }
}

/// The first `k` ranks of [`KShortestHops`]: up to `k` simple paths
/// `s → t` in non-decreasing hop order. Fewer paths are returned when the
/// graph does not contain `k` distinct simple paths.
pub fn k_shortest_paths_hops(g: &DiGraph, s: NodeId, t: NodeId, k: usize) -> Vec<Path> {
    let mut ranks = KShortestHops::new(s, t);
    std::iter::from_fn(|| ranks.next_path(g)).take(k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// The classic example graph from Yen's paper (adapted): multiple
    /// routes 0 → 5 with varying lengths.
    fn test_graph() -> DiGraph {
        let mut g = DiGraph::new(6);
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (3, 4),
            (3, 5),
            (4, 5),
        ] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        g
    }

    #[test]
    fn first_path_is_shortest() {
        let g = test_graph();
        let ps = k_shortest_paths_hops(&g, n(0), n(5), 3);
        assert_eq!(ps[0].hops(), 3);
    }

    #[test]
    fn paths_are_sorted_unique_and_simple() {
        let g = test_graph();
        let ps = k_shortest_paths_hops(&g, n(0), n(5), 10);
        assert!(!ps.is_empty());
        for w in ps.windows(2) {
            assert!(w[0].hops() <= w[1].hops(), "not sorted");
            assert_ne!(w[0].nodes(), w[1].nodes(), "duplicate path");
        }
        for p in &ps {
            let set: HashSet<_> = p.nodes().iter().collect();
            assert_eq!(set.len(), p.nodes().len(), "path has a loop");
            assert_eq!(p.source(), n(0));
            assert_eq!(p.target(), n(5));
        }
    }

    #[test]
    fn finds_all_simple_paths_when_k_large() {
        // Count simple paths 0→5 by brute force and check Yen finds all.
        let g = test_graph();
        fn count(g: &DiGraph, cur: NodeId, t: NodeId, seen: &mut Vec<NodeId>) -> usize {
            if cur == t {
                return 1;
            }
            let mut total = 0;
            for &(v, _) in g.out_neighbors(cur) {
                if !seen.contains(&v) {
                    seen.push(v);
                    total += count(g, v, t, seen);
                    seen.pop();
                }
            }
            total
        }
        let mut seen = vec![n(0)];
        let total = count(&g, n(0), n(5), &mut seen);
        let ps = k_shortest_paths_hops(&g, n(0), n(5), 1000);
        assert_eq!(ps.len(), total);
    }

    #[test]
    fn k_zero_and_unreachable() {
        let g = test_graph();
        assert!(k_shortest_paths_hops(&g, n(0), n(5), 0).is_empty());
        assert!(k_shortest_paths_hops(&g, n(5), n(0), 4).is_empty());
    }

    /// An exhausted iterator stays exhausted and keeps its count.
    #[test]
    fn exhausted_iterator_keeps_returning_none() {
        let g = test_graph();
        let mut ranks = KShortestHops::new(n(0), n(5));
        while ranks.next_path(&g).is_some() {}
        let total = ranks.returned();
        assert!(ranks.next_path(&g).is_none());
        assert_eq!(ranks.returned(), total);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = test_graph();
        let a = k_shortest_paths_hops(&g, n(0), n(5), 6);
        let b = k_shortest_paths_hops(&g, n(0), n(5), 6);
        assert_eq!(
            a.iter().map(|p| p.nodes().to_vec()).collect::<Vec<_>>(),
            b.iter().map(|p| p.nodes().to_vec()).collect::<Vec<_>>()
        );
    }
}
