//! Property tests over the graph substrate on random topologies —
//! invariants the routing layers silently rely on.

use flash_offchain::graph::{bfs, disjoint, generators, yen, DiGraph};
use flash_offchain::types::NodeId;
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_ws() -> impl Strategy<Value = DiGraph> {
    (6usize..20, 0u64..500).prop_map(|(n, seed)| generators::watts_strogatz(n.max(6), 4, 0.3, seed))
}

/// A random directed graph on at most 9 nodes: ordered pair `i` of the
/// 72 gets an edge when its draw is below the density.
fn arb_small_digraph() -> impl Strategy<Value = DiGraph> {
    (
        2usize..=9,
        proptest::collection::vec(0u8..100, 72),
        10u8..45,
    )
        .prop_map(|(n, draws, density)| {
            let mut g = DiGraph::new(n);
            let pairs = (0..n).flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)));
            for ((u, v), &draw) in pairs.zip(&draws) {
                if draw < density {
                    g.add_edge(NodeId(u as u32), NodeId(v as u32)).unwrap();
                }
            }
            g
        })
}

/// Every simple path `cur → t` extending `stack`, by depth-first search.
fn all_simple_paths(g: &DiGraph, t: NodeId, stack: &mut Vec<NodeId>, out: &mut Vec<Vec<NodeId>>) {
    let cur = *stack.last().unwrap();
    if cur == t {
        out.push(stack.clone());
        return;
    }
    for &(v, _) in g.out_neighbors(cur) {
        if !stack.contains(&v) {
            stack.push(v);
            all_simple_paths(g, t, stack, out);
            stack.pop();
        }
    }
}

fn node_seqs(paths: &[flash_offchain::graph::Path]) -> Vec<Vec<NodeId>> {
    paths.iter().map(|p| p.nodes().to_vec()).collect()
}

/// The first 25 ranks 0 → 10 on `watts_strogatz(20, 4, 0.3, 1)`, with
/// their equal-hop tie-break order.
const GOLDEN_RANKS: [&[u32]; 25] = [
    &[0, 18, 17, 10],
    &[0, 19, 17, 10],
    &[0, 1, 6, 8, 10],
    &[0, 1, 7, 8, 10],
    &[0, 1, 19, 17, 10],
    &[0, 14, 13, 11, 10],
    &[0, 14, 15, 17, 10],
    &[0, 18, 16, 17, 10],
    &[0, 18, 19, 17, 10],
    &[0, 19, 18, 17, 10],
    &[0, 1, 7, 9, 8, 10],
    &[0, 1, 7, 9, 11, 10],
    &[0, 1, 7, 9, 17, 10],
    &[0, 1, 19, 18, 17, 10],
    &[0, 2, 1, 6, 8, 10],
    &[0, 2, 1, 7, 8, 10],
    &[0, 2, 1, 19, 17, 10],
    &[0, 2, 4, 6, 8, 10],
    &[0, 2, 4, 12, 11, 10],
    &[0, 14, 13, 12, 11, 10],
    &[0, 14, 13, 15, 17, 10],
    &[0, 14, 15, 13, 11, 10],
    &[0, 14, 15, 16, 17, 10],
    &[0, 18, 16, 15, 17, 10],
    &[0, 18, 17, 9, 8, 10],
];

/// Any drift in Yen's equal-hop tie-break changes this sequence.
#[test]
fn yen_golden_rank_sequence() {
    let g = generators::watts_strogatz(20, 4, 0.3, 1);
    let got = node_seqs(&yen::k_shortest_paths_hops(&g, NodeId(0), NodeId(10), 25));
    let want: Vec<Vec<NodeId>> = GOLDEN_RANKS
        .iter()
        .map(|p| p.iter().map(|&i| NodeId(i)).collect())
        .collect();
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Yen's paths are simple, sorted by hops, pairwise distinct, and
    /// the first equals the BFS shortest path length.
    #[test]
    fn yen_invariants(g in arb_ws(), k in 1usize..8, s in 0u32..20, t in 0u32..20) {
        let n = g.node_count() as u32;
        let (s, t) = (NodeId(s % n), NodeId(t % n));
        prop_assume!(s != t);
        let paths = yen::k_shortest_paths_hops(&g, s, t, k);
        let bfs_path = bfs::shortest_path(&g, s, t);
        prop_assert_eq!(paths.is_empty(), bfs_path.is_none());
        if let Some(bp) = bfs_path {
            prop_assert_eq!(paths[0].hops(), bp.hops());
        }
        let mut seen = HashSet::new();
        for w in paths.windows(2) {
            prop_assert!(w[0].hops() <= w[1].hops());
        }
        for p in &paths {
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.target(), t);
            let nodes: HashSet<_> = p.nodes().iter().collect();
            prop_assert_eq!(nodes.len(), p.nodes().len(), "loop in {:?}", p);
            prop_assert!(seen.insert(p.nodes().to_vec()), "duplicate {:?}", p);
        }
    }

    /// A longer run extends a shorter one: the first k ranks never
    /// depend on how many ranks are asked for.
    #[test]
    fn yen_runs_are_prefixes(g in arb_ws(), k in 1usize..10, j in 1usize..10, s in 0u32..20, t in 0u32..20) {
        let n = g.node_count() as u32;
        let (s, t) = (NodeId(s % n), NodeId(t % n));
        prop_assume!(s != t);
        let short = node_seqs(&yen::k_shortest_paths_hops(&g, s, t, k));
        let long = node_seqs(&yen::k_shortest_paths_hops(&g, s, t, k + j));
        prop_assert_eq!(&long[..short.len()], &short[..]);
        prop_assert!(short.len() == k || long.len() == short.len());
    }

    /// Exhausting the iterator yields exactly the simple s → t paths a
    /// brute-force depth-first search finds, each once, in
    /// non-decreasing hop order.
    #[test]
    fn yen_exhausts_all_simple_paths(g in arb_small_digraph(), s in 0u32..9, t in 0u32..9) {
        let n = g.node_count() as u32;
        let (s, t) = (NodeId(s % n), NodeId(t % n));
        prop_assume!(s != t);
        let mut ranks = yen::KShortestHops::new(s, t);
        let got: Vec<_> = std::iter::from_fn(|| ranks.next_path(&g)).collect();
        for w in got.windows(2) {
            prop_assert!(w[0].hops() <= w[1].hops(), "{:?} before {:?}", w[0], w[1]);
        }
        let mut got = node_seqs(&got);
        got.sort();
        let mut want = Vec::new();
        all_simple_paths(&g, t, &mut vec![s], &mut want);
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Edge-disjoint paths never share a directed edge and their count
    /// is bounded by the sender's out-degree and receiver's in-degree.
    #[test]
    fn disjoint_invariants(g in arb_ws(), s in 0u32..20, t in 0u32..20) {
        let n = g.node_count() as u32;
        let (s, t) = (NodeId(s % n), NodeId(t % n));
        prop_assume!(s != t);
        let paths = disjoint::edge_disjoint_paths(&g, s, t, 16);
        let mut used = HashSet::new();
        for p in &paths {
            for (u, v) in p.channels() {
                prop_assert!(used.insert((u, v)), "edge reused");
            }
        }
        prop_assert!(paths.len() <= g.out_degree(s));
        prop_assert!(paths.len() <= g.in_neighbors(t).len());
    }

    /// BFS distance is a metric lower bound: every Yen path length ≥
    /// the BFS distance; BFS distances obey the triangle inequality
    /// along any found path.
    #[test]
    fn bfs_distance_consistency(g in arb_ws(), s in 0u32..20) {
        let n = g.node_count() as u32;
        let s = NodeId(s % n);
        let dist = bfs::distances_from(&g, s);
        for t in g.nodes() {
            if t == s { continue; }
            match bfs::shortest_path(&g, s, t) {
                Some(p) => prop_assert_eq!(p.hops(), dist[t.index()]),
                None => prop_assert_eq!(dist[t.index()], usize::MAX),
            }
        }
        // Edge relaxation: d(v) ≤ d(u) + 1 for every edge u→v.
        for (_, u, v) in g.edges() {
            if dist[u.index()] != usize::MAX {
                prop_assert!(dist[v.index()] <= dist[u.index()] + 1);
            }
        }
    }

    /// Generated small-world graphs are almost entirely one component
    /// (β-rewiring can, rarely, isolate a node — that matches the
    /// standard Watts–Strogatz construction) and fully bidirectional.
    #[test]
    fn ws_generator_invariants(n in 6usize..40, seed in 0u64..300) {
        let g = generators::watts_strogatz(n, 4, 0.3, seed);
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.largest_weak_component().len() >= n - 2,
            "component {} of {n}", g.largest_weak_component().len());
        for (e, _, _) in g.edges() {
            prop_assert!(g.reverse_edge(e).is_some());
        }
    }

    /// Scale-free generator hits its channel target exactly and keeps
    /// a giant component.
    #[test]
    fn scale_free_invariants(n in 20usize..80, mult in 2usize..5, seed in 0u64..200) {
        let target = n * mult;
        let g = generators::scale_free_with_channels(n, target, seed);
        prop_assert_eq!(g.edge_count(), target * 2);
        prop_assert!(g.largest_weak_component().len() >= n * 9 / 10);
    }
}
