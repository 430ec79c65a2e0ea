//! The mice routing table (§3.3 path finding).
//!
//! "Each node maintains a routing table for mice payments. It contains
//! paths for the unique receivers of this node. Upon seeing a new
//! receiver that does not exist in the routing table, the node computes
//! top-m shortest paths (i.e. using Yen's algorithm) on the local
//! topology G, and adds them to the routing table."
//!
//! Flash then swaps a dead path for "the next top shortest path". Each
//! entry therefore keeps its own resumable Yen iterator
//! ([`KShortestHops`]): the initial paths are its first m ranks, and
//! each replacement is one more Yen step.
//!
//! This implementation keys entries by `(sender, receiver)` because one
//! `FlashRouter` instance simulates every node's local state at once;
//! the per-sender view is identical to per-node tables.

use pcn_graph::{yen::KShortestHops, DiGraph, Path};
use pcn_types::NodeId;
use std::collections::HashMap;

/// One routing-table entry.
#[derive(Clone, Debug)]
struct TableEntry {
    /// The live path set: the top-m shortest paths, with dead paths
    /// swapped for later Yen ranks by [`RoutingTable::replace_path`].
    paths: Vec<Path>,
    /// The Yen enumeration behind `paths`; it has returned exactly the
    /// ranks handed out so far (initial paths + replacements).
    ranks: KShortestHops,
    /// Edge count of the graph `ranks` runs on. A replacement against a
    /// graph with another edge count rebuilds the iterator there.
    /// ([`RoutingTable::refresh`] is the real answer to topology change.)
    edges: usize,
    /// Logical timestamp of the last lookup (for TTL eviction).
    last_used: u64,
}

/// The per-(sender, receiver) mice routing table.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    m: usize,
    ttl: u64,
    entries: HashMap<(NodeId, NodeId), TableEntry>,
}

impl RoutingTable {
    /// Creates a table caching `m` paths per receiver, evicting entries
    /// unused for `ttl` lookups.
    pub fn new(m: usize, ttl: u64) -> Self {
        RoutingTable {
            m,
            ttl,
            entries: HashMap::new(),
        }
    }

    /// Number of cached (sender, receiver) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the cached paths for `(s, t)`, computing the top-m Yen
    /// shortest paths on a miss ("path finding is simplified into table
    /// lookups in most cases"). `now` stamps the entry for TTL purposes.
    pub fn lookup_or_compute(&mut self, g: &DiGraph, s: NodeId, t: NodeId, now: u64) -> Vec<Path> {
        let m = self.m;
        let entry = self.entries.entry((s, t)).or_insert_with(|| {
            let mut ranks = KShortestHops::new(s, t);
            let paths = std::iter::from_fn(|| ranks.next_path(g)).take(m).collect();
            TableEntry {
                paths,
                ranks,
                edges: g.edge_count(),
                last_used: now,
            }
        });
        entry.last_used = now;
        entry.paths.clone()
    }

    /// Replaces the path at `idx` with the next-ranked Yen shortest path
    /// ("when a payment encounters an unaccessible path with zero
    /// effective capacity or no connectivity, Flash replaces it with the
    /// next top shortest path"). If the graph has no further simple
    /// path, the dead path is simply dropped.
    pub fn replace_path(&mut self, g: &DiGraph, s: NodeId, t: NodeId, idx: usize) {
        let Some(entry) = self.entries.get_mut(&(s, t)) else {
            return;
        };
        if idx >= entry.paths.len() {
            return;
        }
        if entry.edges != g.edge_count() {
            // Resume on the new graph after the ranks already handed out.
            let handed_out = entry.ranks.returned();
            entry.ranks = KShortestHops::new(s, t);
            entry.edges = g.edge_count();
            for _ in 0..handed_out {
                if entry.ranks.next_path(g).is_none() {
                    break;
                }
            }
        }
        match entry.ranks.next_path(g) {
            Some(next) => entry.paths[idx] = next,
            // The graph has no further simple path: drop the dead one.
            None => {
                entry.paths.remove(idx);
            }
        }
    }

    /// Evicts entries unused for longer than the TTL.
    pub fn evict_stale(&mut self, now: u64) {
        let ttl = self.ttl;
        self.entries
            .retain(|_, e| now.saturating_sub(e.last_used) <= ttl);
    }

    /// Drops every entry; they will be recomputed lazily against the new
    /// topology (the periodic refresh of §3.3).
    pub fn refresh(&mut self, _g: &DiGraph) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Diamond + long detour: at least 3 simple paths 0 → 3.
    fn graph() -> DiGraph {
        let mut g = DiGraph::new(5);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 2)] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        g
    }

    #[test]
    fn miss_computes_top_m() {
        let g = graph();
        let mut t = RoutingTable::new(2, 100);
        let paths = t.lookup_or_compute(&g, n(0), n(3), 1);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].hops(), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn hit_reuses_cached_paths() {
        let g = graph();
        let mut t = RoutingTable::new(2, 100);
        let a = t.lookup_or_compute(&g, n(0), n(3), 1);
        let b = t.lookup_or_compute(&g, n(0), n(3), 2);
        assert_eq!(
            a.iter().map(|p| p.nodes().to_vec()).collect::<Vec<_>>(),
            b.iter().map(|p| p.nodes().to_vec()).collect::<Vec<_>>()
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replacement_advances_to_next_yen_path() {
        let g = graph();
        let mut t = RoutingTable::new(2, 100);
        let before = t.lookup_or_compute(&g, n(0), n(3), 1);
        t.replace_path(&g, n(0), n(3), 0);
        let after = t.lookup_or_compute(&g, n(0), n(3), 2);
        assert_eq!(after.len(), 2);
        // Slot 0 now holds the 3rd Yen path (the 3-hop detour).
        assert_eq!(after[0].hops(), 3);
        assert_ne!(before[0].nodes(), after[0].nodes());
    }

    #[test]
    fn replacement_exhaustion_drops_path() {
        let mut g = DiGraph::new(2);
        g.add_edge(n(0), n(1)).unwrap();
        let mut t = RoutingTable::new(1, 100);
        let paths = t.lookup_or_compute(&g, n(0), n(1), 1);
        assert_eq!(paths.len(), 1);
        // Only one simple path exists; replacing it leaves nothing.
        t.replace_path(&g, n(0), n(1), 0);
        let paths = t.lookup_or_compute(&g, n(0), n(1), 2);
        assert!(paths.is_empty());
    }

    /// Regression: the handed-out rank count must count paths actually
    /// returned, not `m`. An entry that cached fewer than `m` paths and
    /// counted `m` consumed ranks would, on the first replacement against
    /// a richer topology, skip the true next-best path and serve a later
    /// rank.
    #[test]
    fn cursor_tracks_returned_paths_not_m() {
        // g1 has a single simple path 0 → 3, so m = 2 caches just one.
        let mut g1 = DiGraph::new(5);
        for (u, v) in [(0, 1), (1, 3)] {
            g1.add_edge(n(u), n(v)).unwrap();
        }
        let mut t = RoutingTable::new(2, 100);
        let paths = t.lookup_or_compute(&g1, n(0), n(3), 1);
        assert_eq!(paths.len(), 1);

        // The topology grows: now ranks are 0-1-3, 0-2-3, 0-4-3.
        let mut g2 = DiGraph::new(5);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 3)] {
            g2.add_edge(n(u), n(v)).unwrap();
        }
        // One rank was handed out, so the replacement must serve rank 2
        // (0-2-3) — not rank m + 1 = 3 (0-4-3).
        t.replace_path(&g2, n(0), n(3), 0);
        let after = t.lookup_or_compute(&g2, n(0), n(3), 2);
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].nodes(), &[n(0), n(2), n(3)]);
    }

    /// Successive replacements hand out strictly increasing Yen ranks,
    /// each one a single step of the entry's iterator.
    #[test]
    fn successive_replacements_advance_through_ranks() {
        // Four simple paths 0 → 3, all distinct.
        let mut g = DiGraph::new(6);
        for (u, v) in [
            (0, 1),
            (1, 3),
            (0, 2),
            (2, 3),
            (0, 4),
            (4, 3),
            (0, 5),
            (5, 3),
        ] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        let mut t = RoutingTable::new(2, 100);
        let initial = t.lookup_or_compute(&g, n(0), n(3), 1);
        assert_eq!(initial.len(), 2);
        t.replace_path(&g, n(0), n(3), 0);
        t.replace_path(&g, n(0), n(3), 1);
        let after = t.lookup_or_compute(&g, n(0), n(3), 2);
        assert_eq!(after.len(), 2);
        let mut all: Vec<_> = initial
            .iter()
            .chain(after.iter())
            .map(|p| p.nodes().to_vec())
            .collect();
        let len_before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), len_before, "a Yen rank was handed out twice");
    }

    /// After r replacements of slot 0, the slot holds the last rank of
    /// `k_shortest_paths_hops(g, s, t, m + r)`: resuming the entry's
    /// iterator hands out exactly the ranks a fresh Yen run would.
    #[test]
    fn replacements_follow_the_yen_rank_sequence() {
        let g = pcn_graph::generators::watts_strogatz(20, 4, 0.3, 1);
        let (s, d, m) = (n(0), n(10), 3);
        let mut t = RoutingTable::new(m, 100);
        t.lookup_or_compute(&g, s, d, 1);
        for r in 1..=12 {
            t.replace_path(&g, s, d, 0);
            let ranks = pcn_graph::yen::k_shortest_paths_hops(&g, s, d, m + r);
            assert_eq!(ranks.len(), m + r, "graph has too few paths for r = {r}");
            let slot = &t.lookup_or_compute(&g, s, d, 2)[0];
            assert_eq!(slot.nodes(), ranks[m + r - 1].nodes(), "r = {r}");
        }
    }

    /// The caller's contract when several paths die in one payment:
    /// replacements must run highest index first, because an exhausted
    /// `replace_path` removes its slot and shifts everything after it.
    /// Descending order drops both dead paths; ascending would leave a
    /// dead path cached (the second index, shifted, points past the end).
    #[test]
    fn exhausted_replacements_in_descending_index_order_drop_all() {
        // Exactly two simple paths 0 → 3.
        let mut g = DiGraph::new(4);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        let mut t = RoutingTable::new(2, 100);
        assert_eq!(t.lookup_or_compute(&g, n(0), n(3), 1).len(), 2);
        // Both paths found dead; Yen has no rank 3 to hand out.
        t.replace_path(&g, n(0), n(3), 1);
        t.replace_path(&g, n(0), n(3), 0);
        assert!(
            t.lookup_or_compute(&g, n(0), n(3), 2).is_empty(),
            "both dead paths must be gone"
        );
    }

    #[test]
    fn ttl_eviction() {
        let g = graph();
        let mut t = RoutingTable::new(2, 10);
        t.lookup_or_compute(&g, n(0), n(3), 1);
        t.lookup_or_compute(&g, n(1), n(3), 5);
        t.evict_stale(12);
        // Entry stamped at 1 is stale (12 − 1 > 10); the one at 5 lives.
        assert_eq!(t.len(), 1);
        t.evict_stale(100);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn refresh_clears_everything() {
        let g = graph();
        let mut t = RoutingTable::new(2, 100);
        t.lookup_or_compute(&g, n(0), n(3), 1);
        t.lookup_or_compute(&g, n(2), n(3), 1);
        assert_eq!(t.len(), 2);
        t.refresh(&g);
        assert!(t.is_empty());
    }

    #[test]
    fn unreachable_receiver_yields_empty_entry() {
        let mut g = DiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        let mut t = RoutingTable::new(4, 100);
        let paths = t.lookup_or_compute(&g, n(0), n(2), 1);
        assert!(paths.is_empty());
    }
}
