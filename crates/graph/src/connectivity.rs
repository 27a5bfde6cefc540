//! Vertex connectivity and minimum vertex cuts.
//!
//! The paper's Corollary 1 states that a network `G` is *t-Byzantine
//! partitionable* iff its vertex connectivity `κ(G)` is at most `t`; NECTAR's
//! decision phase (Alg. 1 l. 17) therefore reduces partition detection to a
//! connectivity computation on each node's discovered graph.
//!
//! Pairwise connectivity `κ(s, t)` is computed via Menger's theorem as a
//! maximum flow on the vertex-split digraph, which a `PairScanner` builds
//! once per graph and resets per pair. Global connectivity uses Even's
//! reduction to `O(deg)` pairwise computations around a minimum-degree
//! vertex; `even_pairs` is the one enumeration of those pairs, walked in
//! ascending id order by [`min_vertex_cut`] (and so by
//! [`vertex_connectivity`]) and low-degree-first by the
//! [`ConnectivityOracle`](crate::oracle::ConnectivityOracle)'s decision scan.
//! The brute-force [`vertex_connectivity_brute`] is the reference both are
//! tested against.

use std::convert::Infallible;
use std::ops::ControlFlow;

use crate::flow::{FlowNetwork, INF};
use crate::graph::Graph;
use crate::traversal::{is_connected, is_partitioned_without};

/// Reusable vertex-split network for scanning many `s`–`t` pairs of one
/// graph: the adjacency structure is built once and capacities are reset
/// between pairs, so each pair costs an O(n + m) sweep plus the (bounded)
/// flow itself instead of a full network reconstruction.
///
/// Node `v` becomes `v_in = 2v` and `v_out = 2v + 1` joined by a capacity-1
/// arc; each undirected edge `(u, v)` becomes `u_out → v_in` and
/// `v_out → u_in` with capacity ∞. Queries take non-adjacent `s ≠ t` — every
/// Even pair is one — and lift the pair's own vertex arcs to ∞, since the
/// endpoints cannot be part of a cut.
#[derive(Debug)]
pub(crate) struct PairScanner {
    net: FlowNetwork,
}

impl PairScanner {
    /// Builds the split network of `g` with every vertex arc at capacity 1.
    pub(crate) fn new(g: &Graph) -> Self {
        let n = g.node_count();
        let mut net = FlowNetwork::new(2 * n);
        for v in 0..n {
            net.add_arc(2 * v, 2 * v + 1, 1);
        }
        for (u, v) in g.edges() {
            net.add_arc(2 * u + 1, 2 * v, INF);
            net.add_arc(2 * v + 1, 2 * u, INF);
        }
        PairScanner { net }
    }

    /// Clears the previous pair's flow and makes `s` and `t` uncuttable.
    fn prepare(&mut self, s: usize, t: usize) {
        self.net.reset();
        for endpoint in [s, t] {
            // `new` inserts each vertex arc v_in → v_out before any edge arc
            // touches v_in, so it sits at index 0.
            debug_assert_eq!(self.net.arc_head(2 * endpoint, 0), 2 * endpoint + 1);
            self.net.override_arc_capacity(2 * endpoint, 0, INF);
        }
    }

    /// `κ(s, t)` for non-adjacent `s ≠ t`, with the flow capped at `cap`:
    /// exact when the result is `< cap`, while any result `>= cap` only
    /// certifies `κ(s, t) ≥ cap`.
    pub(crate) fn bounded_pair_connectivity(&mut self, s: usize, t: usize, cap: usize) -> usize {
        self.prepare(s, t);
        let flow = self.net.max_flow_bounded(2 * s + 1, 2 * t, cap as u64);
        usize::try_from(flow).expect("vertex-disjoint path count bounded by n")
    }

    /// A minimum `s`–`t` vertex separator for non-adjacent `s ≠ t`, in
    /// ascending order: after a full flow, the vertices whose in-copy the
    /// residual graph reaches from `s` and whose out-copy it does not. The
    /// residual-reachable side is the same for every maximum flow, so the
    /// separator does not depend on which one Dinic found.
    pub(crate) fn separator(&mut self, s: usize, t: usize) -> Vec<usize> {
        self.prepare(s, t);
        self.net.max_flow(2 * s + 1, 2 * t);
        let reach = self.net.residual_reachable(2 * s + 1);
        (0..reach.len() / 2).filter(|&v| reach[2 * v] && !reach[2 * v + 1]).collect()
    }
}

/// Walks Even's candidate pairs of a connected, incomplete `g` until `visit`
/// breaks: with `v` a minimum-degree vertex, `(v, w)` for each non-neighbour
/// `w`, then each non-adjacent pair of neighbours of `v`, both ordered by
/// `key`. A minimum vertex cut either misses `v` and separates it from a
/// non-neighbour, or holds `v` and separates two of its neighbours (else it
/// would not be minimal), so the smallest `κ(s, t)` over these pairs is
/// `κ(G)`.
pub(crate) fn even_pairs<B, K: Ord>(
    g: &Graph,
    key: impl Fn(usize) -> K,
    mut visit: impl FnMut(usize, usize) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let v = g.min_degree_node().expect("a connected, incomplete graph has nodes");
    let sorted = |mut nodes: Vec<usize>| {
        nodes.sort_by_key(|&w| key(w));
        nodes
    };
    for w in sorted(g.non_neighbors(v)) {
        visit(v, w)?;
    }
    let nbrs = sorted(g.neighborhood(v));
    for (i, &x) in nbrs.iter().enumerate() {
        for &y in &nbrs[i + 1..] {
            if !g.has_edge(x, y) {
                visit(x, y)?;
            }
        }
    }
    ControlFlow::Continue(())
}

/// Global vertex connectivity `κ(G)`: the size of [`min_vertex_cut`].
///
/// Conventions: `κ` of the empty graph, a singleton, or any disconnected
/// graph is 0; `κ(K_n) = n − 1`.
pub fn vertex_connectivity(g: &Graph) -> usize {
    min_vertex_cut(g).map_or(g.node_count().saturating_sub(1), |cut| cut.len())
}

/// A minimum vertex cut of `G`, i.e. a set of `κ(G)` nodes whose removal
/// partitions the graph, in ascending order.
///
/// Returns `None` for complete graphs (no separator exists) and for graphs
/// with fewer than two nodes. For a disconnected graph the empty cut is
/// returned. This is how the experiment harness places Byzantine nodes at
/// the paper's "key positions" (§V-D).
///
/// The cut is the separator of the first of Even's candidate pairs, in
/// ascending id order, that attains the minimum; each pair's flow is capped
/// at the best `κ(s, t)` found so far.
pub fn min_vertex_cut(g: &Graph) -> Option<Vec<usize>> {
    let n = g.node_count();
    if n <= 1 || g.is_complete() {
        return None;
    }
    if !is_connected(g) {
        return Some(Vec::new());
    }
    let mut scanner = PairScanner::new(g);
    let mut best_k = g.min_degree().expect("n > 1") + 1;
    let mut best = None;
    let ControlFlow::Continue(()) = even_pairs(
        g,
        |w| w,
        |s, t| {
            let k = scanner.bounded_pair_connectivity(s, t, best_k);
            if k < best_k {
                best_k = k;
                best = Some((s, t));
            }
            ControlFlow::<Infallible>::Continue(())
        },
    );
    // An incomplete graph's minimum-degree vertex v has a non-neighbour w,
    // and κ(v, w) ≤ deg(v) is below the starting cap.
    let (s, t) = best.expect("the first pair beats deg(v) + 1");
    Some(scanner.separator(s, t))
}

/// Whether removing `cut` partitions the graph (i.e. `cut` is a vertex cut).
pub fn is_vertex_cut(g: &Graph, cut: &[usize]) -> bool {
    is_partitioned_without(g, cut)
}

/// All articulation points (cut vertices) of `g`, in ascending order: the
/// nodes whose removal increases the number of connected components.
///
/// These are exactly the size-1 vertex cuts, so on tree-like and bridged
/// topologies they are the "key positions" a Byzantine placement strategy
/// wants (a liar on an articulation point controls every path between the
/// components it separates). Computed with Tarjan's low-link DFS, run
/// iteratively so deep path-shaped graphs cannot overflow the stack;
/// `O(n + m)`, deterministic (roots and neighbors are visited in ascending
/// id order).
pub fn articulation_points(g: &Graph) -> Vec<usize> {
    let n = g.node_count();
    let adj: Vec<Vec<usize>> = (0..n).map(|v| g.neighbors(v).collect()).collect();
    let mut disc = vec![usize::MAX; n]; // discovery time, MAX = unvisited
    let mut low = vec![usize::MAX; n];
    let mut is_cut = vec![false; n];
    let mut time = 0usize;
    // Explicit DFS frames: (node, parent, index into the node's adjacency).
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        disc[root] = time;
        low[root] = time;
        time += 1;
        let mut root_children = 0usize;
        stack.push((root, usize::MAX, 0));
        while let Some(&mut (v, parent, ref mut next)) = stack.last_mut() {
            if *next < adj[v].len() {
                let w = adj[v][*next];
                *next += 1;
                if disc[w] == usize::MAX {
                    disc[w] = time;
                    low[w] = time;
                    time += 1;
                    if v == root {
                        root_children += 1;
                    }
                    stack.push((w, v, 0));
                } else if w != parent {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                stack.pop();
                if let Some(&mut (p, _, _)) = stack.last_mut() {
                    low[p] = low[p].min(low[v]);
                    if p != root && low[v] >= disc[p] {
                        is_cut[p] = true;
                    }
                }
            }
        }
        // The root is a cut vertex iff its DFS tree has several children.
        is_cut[root] = root_children >= 2;
    }
    (0..n).filter(|&v| is_cut[v]).collect()
}

/// Brute-force vertex connectivity by exhaustive cut enumeration.
///
/// Intended as a test oracle for small graphs (exponential in `n`).
///
/// # Panics
///
/// Panics if `n > 20` to guard against accidental blow-up.
pub fn vertex_connectivity_brute(g: &Graph) -> usize {
    let n = g.node_count();
    assert!(n <= 20, "brute-force connectivity is a small-graph test oracle");
    if n <= 1 {
        return 0;
    }
    if g.is_complete() {
        return n - 1;
    }
    for size in 0..n.saturating_sub(1) {
        let mut found = false;
        enumerate_subsets(n, size, &mut |subset| {
            if is_partitioned_without(g, subset) {
                found = true;
            }
        });
        if found {
            return size;
        }
    }
    n - 1
}

fn enumerate_subsets(n: usize, size: usize, visit: &mut impl FnMut(&[usize])) {
    fn rec(
        n: usize,
        size: usize,
        start: usize,
        cur: &mut Vec<usize>,
        visit: &mut impl FnMut(&[usize]),
    ) {
        if cur.len() == size {
            visit(cur);
            return;
        }
        let remaining = size - cur.len();
        for v in start..=n.saturating_sub(remaining) {
            cur.push(v);
            rec(n, size, v + 1, cur, visit);
            cur.pop();
        }
    }
    let mut cur = Vec::with_capacity(size);
    rec(n, size, 0, &mut cur, visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::oracle::{ConnectivityOracle, OracleAnswer, OracleStats};
    use crate::traversal::reachable_from;

    fn petersen() -> Graph {
        // Outer 5-cycle, inner 5-star (pentagram), spokes.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (5, 7),
            (7, 9),
            (9, 6),
            (6, 8),
            (8, 5),
            (0, 5),
            (1, 6),
            (2, 7),
            (3, 8),
            (4, 9),
        ];
        Graph::from_edges(10, edges).unwrap()
    }

    #[test]
    fn connectivity_of_classic_graphs() {
        assert_eq!(vertex_connectivity(&gen::path(5)), 1);
        assert_eq!(vertex_connectivity(&gen::cycle(5)), 2);
        assert_eq!(vertex_connectivity(&gen::star(6)), 1);
        assert_eq!(vertex_connectivity(&gen::complete(6)), 5);
        assert_eq!(vertex_connectivity(&petersen()), 3);
    }

    #[test]
    fn connectivity_degenerate_cases() {
        assert_eq!(vertex_connectivity(&Graph::empty(0)), 0);
        assert_eq!(vertex_connectivity(&Graph::empty(1)), 0);
        assert_eq!(vertex_connectivity(&Graph::empty(2)), 0);
        let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(vertex_connectivity(&disconnected), 0);
        // K2 is complete: κ = 1.
        assert_eq!(vertex_connectivity(&gen::complete(2)), 1);
    }

    #[test]
    fn local_connectivity_on_cycle() {
        let g = gen::cycle(6);
        assert_eq!(PairScanner::new(&g).bounded_pair_connectivity(0, 3, usize::MAX), 2);
    }

    #[test]
    fn local_connectivity_counts_disjoint_paths() {
        // Two node-disjoint paths 0-1-5 and 0-2-5 plus a shared-vertex pair
        // of paths through 3: κ(0,5) = 3 requires 3 disjoint interiors.
        let g =
            Graph::from_edges(6, [(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 5), (0, 4), (4, 3)])
                .unwrap();
        assert_eq!(PairScanner::new(&g).bounded_pair_connectivity(0, 5, usize::MAX), 3);
    }

    #[test]
    fn local_connectivity_bounded_is_exact_below_the_cap() {
        let g = petersen();
        let mut scanner = PairScanner::new(&g);
        for (s, t) in [(0usize, 7usize), (1, 9), (0, 2)] {
            let exact = scanner.bounded_pair_connectivity(s, t, usize::MAX);
            assert_eq!(scanner.bounded_pair_connectivity(s, t, exact + 1), exact);
            assert!(scanner.bounded_pair_connectivity(s, t, exact) >= exact);
            assert_eq!(scanner.bounded_pair_connectivity(s, t, 1), 1);
        }
    }

    /// The fewest nodes of `V ∖ {s, t}` whose removal disconnects `s` from
    /// `t`, by exhaustive search: the reference for `PairScanner`, sharing
    /// no code with it.
    fn min_separator_brute(g: &Graph, s: usize, t: usize) -> usize {
        let n = g.node_count();
        (0..n - 1)
            .find(|&size| {
                let mut found = false;
                enumerate_subsets(n, size, &mut |subset| {
                    found |= !subset.contains(&s)
                        && !subset.contains(&t)
                        && !reachable_from(&g.without_nodes(subset), s)[t];
                });
                found
            })
            .expect("non-adjacent nodes are separated by the other n - 2")
    }

    #[test]
    fn pair_scanner_matches_per_pair_networks() {
        // One scanner, many pairs: every non-adjacent pair's κ(s, t) and
        // separator must match the brute-force search, in any query order.
        for g in [petersen(), gen::harary(4, 11).unwrap(), gen::star(7)] {
            let mut scanner = PairScanner::new(&g);
            let n = g.node_count();
            for s in 0..n {
                for t in 0..n {
                    if s == t || g.has_edge(s, t) {
                        continue;
                    }
                    let expected = min_separator_brute(&g, s, t);
                    let kappa = scanner.bounded_pair_connectivity(s, t, usize::MAX);
                    assert_eq!(kappa, expected, "pair ({s}, {t})");
                    // Bounded queries interleaved with exact ones must not
                    // poison later resets (all pairs here are connected).
                    assert_eq!(scanner.bounded_pair_connectivity(s, t, 1), 1);
                    let cut = scanner.separator(s, t);
                    assert_eq!(cut.len(), expected, "pair ({s}, {t}): {cut:?}");
                    assert!(!reachable_from(&g.without_nodes(&cut), s)[t], "pair ({s}, {t})");
                }
            }
        }
    }

    #[test]
    fn local_min_cut_separates() {
        let g = gen::star(6);
        let cut = PairScanner::new(&g).separator(1, 2);
        assert_eq!(cut, vec![0]);
        assert!(is_vertex_cut(&g, &cut));
    }

    /// The graphs the golden pin watches: the classics plus seeded
    /// geometric and small-world graphs whose scans end at every kind of
    /// pair (a non-neighbour or a neighbour pair, early or late).
    fn golden_zoo() -> Vec<(String, Graph)> {
        use crate::rng::Rng;
        let mut zoo = vec![
            ("petersen".to_string(), petersen()),
            ("harary(4, 11)".to_string(), gen::harary(4, 11).unwrap()),
            ("star(7)".to_string(), gen::star(7)),
            ("cycle(9)".to_string(), gen::cycle(9)),
            ("generalized_wheel(5, 14)".to_string(), gen::generalized_wheel(5, 14).unwrap()),
            ("k_pasted_tree(3, 14)".to_string(), gen::k_pasted_tree(3, 14).unwrap()),
        ];
        for (seed, d, radius) in (0..6).map(|s| (s, 2.6, 1.8)).chain([(0, 3.0, 2.0)]) {
            let mut rng = Rng::seed_from_u64(seed);
            let g = gen::two_cluster_geometric(24, d, radius, 1.0, &mut rng).unwrap().graph;
            zoo.push((format!("two_cluster_geometric(24, {d}, {radius}, 1) seed {seed}"), g));
        }
        for seed in 0..4 {
            let g = gen::watts_strogatz(30, 6, 0.6, &mut Rng::seed_from_u64(seed)).unwrap();
            zoo.push((format!("watts_strogatz(30, 6, 0.6) seed {seed}"), g));
        }
        zoo
    }

    /// Exact κ and `min_vertex_cut` of every zoo graph, and at t ∈ {1, 2, 4}
    /// the answer and all six counters of a fresh oracle that caches
    /// nothing. The expected lines were recorded before the exact routines
    /// and the oracle shared one pair scan, when each still ran its own.
    #[test]
    fn even_scan_golden_pin() {
        let mut lines = Vec::new();
        for (name, g) in golden_zoo() {
            let (kappa, cut) = (vertex_connectivity(&g), min_vertex_cut(&g));
            lines.push(format!("{name}: κ {kappa} cut {cut:?}"));
            for t in [1, 2, 4] {
                let mut oracle = ConnectivityOracle::with_capacity(0);
                let OracleAnswer { partitionable, kappa } = oracle.answer(&g, t);
                let OracleStats {
                    queries,
                    cache_hits,
                    structure_shortcuts,
                    min_degree_shortcuts,
                    bounded_flows,
                    early_exits,
                } = *oracle.stats();
                lines.push(format!(
                    "{name}, t {t}: {partitionable} {kappa:?} q{queries} h{cache_hits} \
                     s{structure_shortcuts} d{min_degree_shortcuts} f{bounded_flows} e{early_exits}"
                ));
            }
        }
        let expected = [
            "petersen: κ 3 cut Some([1, 4, 5])",
            "petersen, t 1: false AtLeast(2) q1 h0 s0 d0 f9 e9",
            "petersen, t 2: false AtLeast(3) q1 h0 s0 d0 f9 e9",
            "petersen, t 4: true AtMost(3) q1 h0 s0 d1 f0 e0",
            "harary(4, 11): κ 4 cut Some([1, 2, 9, 10])",
            "harary(4, 11), t 1: false AtLeast(2) q1 h0 s0 d0 f9 e9",
            "harary(4, 11), t 2: false AtLeast(3) q1 h0 s0 d0 f9 e9",
            "harary(4, 11), t 4: true AtMost(4) q1 h0 s0 d1 f0 e0",
            "star(7): κ 1 cut Some([0])",
            "star(7), t 1: true AtMost(1) q1 h0 s0 d1 f0 e0",
            "star(7), t 2: true AtMost(1) q1 h0 s0 d1 f0 e0",
            "star(7), t 4: true AtMost(1) q1 h0 s0 d1 f0 e0",
            "cycle(9): κ 2 cut Some([1, 8])",
            "cycle(9), t 1: false AtLeast(2) q1 h0 s0 d0 f7 e7",
            "cycle(9), t 2: true AtMost(2) q1 h0 s0 d1 f0 e0",
            "cycle(9), t 4: true AtMost(2) q1 h0 s0 d1 f0 e0",
            "generalized_wheel(5, 14): κ 5 cut Some([0, 1, 2, 4, 13])",
            "generalized_wheel(5, 14), t 1: false AtLeast(2) q1 h0 s0 d0 f9 e9",
            "generalized_wheel(5, 14), t 2: false AtLeast(3) q1 h0 s0 d0 f9 e9",
            "generalized_wheel(5, 14), t 4: false AtLeast(5) q1 h0 s0 d0 f9 e9",
            "k_pasted_tree(3, 14): κ 3 cut Some([0, 1, 2])",
            "k_pasted_tree(3, 14), t 1: false AtLeast(2) q1 h0 s0 d0 f13 e13",
            "k_pasted_tree(3, 14), t 2: false AtLeast(3) q1 h0 s0 d0 f13 e13",
            "k_pasted_tree(3, 14), t 4: true AtMost(3) q1 h0 s0 d1 f0 e0",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 0: κ 4 cut Some([2, 8, 12, 15])",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 0, t 1: false AtLeast(2) q1 h0 s0 d0 f12 e12",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 0, t 2: false AtLeast(3) q1 h0 s0 d0 f12 e12",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 0, t 4: true AtMost(4) q1 h0 s0 d0 f1 e0",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 1: κ 1 cut Some([20])",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 1, t 1: true AtMost(1) q1 h0 s0 d0 f1 e0",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 1, t 2: true AtMost(1) q1 h0 s0 d0 f1 e0",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 1, t 4: true AtMost(1) q1 h0 s0 d0 f1 e0",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 2: κ 1 cut Some([16])",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 2, t 1: true AtMost(1) q1 h0 s0 d0 f1 e0",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 2, t 2: true AtMost(1) q1 h0 s0 d0 f1 e0",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 2, t 4: true AtMost(1) q1 h0 s0 d0 f1 e0",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 3: κ 5 cut Some([1, 2, 4, 5, 11])",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 3, t 1: false AtLeast(2) q1 h0 s0 d0 f13 e13",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 3, t 2: false AtLeast(3) q1 h0 s0 d0 f13 e13",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 3, t 4: false AtLeast(5) q1 h0 s0 d0 f13 e13",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 4: κ 1 cut Some([3])",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 4, t 1: true AtMost(1) q1 h0 s0 d0 f2 e1",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 4, t 2: true AtMost(1) q1 h0 s0 d0 f2 e1",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 4, t 4: true AtMost(1) q1 h0 s0 d0 f2 e1",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 5: κ 4 cut Some([3, 4, 5, 7])",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 5, t 1: false AtLeast(2) q1 h0 s0 d0 f14 e14",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 5, t 2: false AtLeast(3) q1 h0 s0 d0 f14 e14",
            "two_cluster_geometric(24, 2.6, 1.8, 1) seed 5, t 4: true AtMost(4) q1 h0 s0 d0 f2 e1",
            "two_cluster_geometric(24, 3, 2, 1) seed 0: κ 2 cut Some([2, 12])",
            "two_cluster_geometric(24, 3, 2, 1) seed 0, t 1: false AtLeast(2) q1 h0 s0 d0 f12 e12",
            "two_cluster_geometric(24, 3, 2, 1) seed 0, t 2: true AtMost(2) q1 h0 s0 d0 f1 e0",
            "two_cluster_geometric(24, 3, 2, 1) seed 0, t 4: true AtMost(2) q1 h0 s0 d0 f1 e0",
            "watts_strogatz(30, 6, 0.6) seed 0: κ 3 cut Some([10, 11, 18])",
            "watts_strogatz(30, 6, 0.6) seed 0, t 1: false AtLeast(2) q1 h0 s0 d0 f27 e27",
            "watts_strogatz(30, 6, 0.6) seed 0, t 2: false AtLeast(3) q1 h0 s0 d0 f27 e27",
            "watts_strogatz(30, 6, 0.6) seed 0, t 4: true AtMost(3) q1 h0 s0 d1 f0 e0",
            "watts_strogatz(30, 6, 0.6) seed 1: κ 3 cut Some([7, 8, 10])",
            "watts_strogatz(30, 6, 0.6) seed 1, t 1: false AtLeast(2) q1 h0 s0 d0 f29 e29",
            "watts_strogatz(30, 6, 0.6) seed 1, t 2: false AtLeast(3) q1 h0 s0 d0 f29 e29",
            "watts_strogatz(30, 6, 0.6) seed 1, t 4: true AtMost(3) q1 h0 s0 d1 f0 e0",
            "watts_strogatz(30, 6, 0.6) seed 2: κ 3 cut Some([6, 8, 23])",
            "watts_strogatz(30, 6, 0.6) seed 2, t 1: false AtLeast(2) q1 h0 s0 d0 f28 e28",
            "watts_strogatz(30, 6, 0.6) seed 2, t 2: false AtLeast(3) q1 h0 s0 d0 f28 e28",
            "watts_strogatz(30, 6, 0.6) seed 2, t 4: true AtMost(3) q1 h0 s0 d1 f0 e0",
            "watts_strogatz(30, 6, 0.6) seed 3: κ 2 cut Some([15, 17])",
            "watts_strogatz(30, 6, 0.6) seed 3, t 1: false AtLeast(2) q1 h0 s0 d0 f28 e28",
            "watts_strogatz(30, 6, 0.6) seed 3, t 2: true AtMost(2) q1 h0 s0 d1 f0 e0",
            "watts_strogatz(30, 6, 0.6) seed 3, t 4: true AtMost(2) q1 h0 s0 d1 f0 e0",
        ];
        assert_eq!(lines, expected);
    }

    #[test]
    fn min_cut_of_star_is_hub() {
        let cut = min_vertex_cut(&gen::star(8)).unwrap();
        assert_eq!(cut, vec![0]);
    }

    #[test]
    fn min_cut_has_connectivity_size_and_separates() {
        for g in [gen::path(7), gen::cycle(7), petersen(), gen::harary(4, 11).unwrap()] {
            let k = vertex_connectivity(&g);
            let cut = min_vertex_cut(&g).unwrap();
            assert_eq!(cut.len(), k, "cut size must equal κ");
            assert!(is_vertex_cut(&g, &cut), "min cut must separate the graph");
        }
    }

    #[test]
    fn min_cut_none_for_complete_and_empty_for_disconnected() {
        assert_eq!(min_vertex_cut(&gen::complete(5)), None);
        assert_eq!(min_vertex_cut(&Graph::empty(1)), None);
        let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(min_vertex_cut(&disconnected), Some(Vec::new()));
    }

    #[test]
    fn byzantine_partitionability_matches_figure_1() {
        // Fig. 1a: a 2-connected graph is not 1-Byzantine partitionable.
        let mut oracle = ConnectivityOracle::new();
        let ring = gen::cycle(8);
        assert!(!oracle.is_t_partitionable(&ring, 1));
        assert!(oracle.is_t_partitionable(&ring, 2));
        // Fig. 1b: the star is 1-Byzantine partitionable (hub placement).
        let star = gen::star(8);
        assert!(oracle.is_t_partitionable(&star, 1));
    }

    /// Reference articulation test: removing `v` must increase the number
    /// of connected components among the remaining nodes.
    fn is_articulation_brute(g: &Graph, v: usize) -> bool {
        use crate::traversal::connected_components;
        let (_, before) = connected_components(g);
        let (_, after) = connected_components(&g.without_nodes(&[v]));
        // `without_nodes` keeps `v` as an isolated vertex; discount it.
        after - 1 > before
    }

    #[test]
    fn articulation_points_of_classic_graphs() {
        assert_eq!(articulation_points(&gen::path(5)), vec![1, 2, 3]);
        assert_eq!(articulation_points(&gen::cycle(6)), Vec::<usize>::new());
        assert_eq!(articulation_points(&gen::star(7)), vec![0]);
        assert_eq!(articulation_points(&gen::complete(5)), Vec::<usize>::new());
        // Two triangles sharing vertex 2: the shared vertex is the cut.
        let bowtie =
            Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]).unwrap();
        assert_eq!(articulation_points(&bowtie), vec![2]);
    }

    #[test]
    fn articulation_points_cover_disconnected_graphs() {
        // Component {0,1,2} is a path (1 is a cut); {3,4} is an edge.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(articulation_points(&g), vec![1]);
        assert_eq!(articulation_points(&Graph::empty(4)), Vec::<usize>::new());
    }

    #[test]
    fn articulation_points_match_the_component_count_reference() {
        for g in [
            gen::path(8),
            gen::cycle(8),
            gen::star(8),
            petersen(),
            gen::k_pasted_tree(2, 10).unwrap(),
            Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)])
                .unwrap(),
        ] {
            let points = articulation_points(&g);
            for v in 0..g.node_count() {
                assert_eq!(points.contains(&v), is_articulation_brute(&g, v), "node {v} of {g:?}");
            }
        }
    }

    #[test]
    fn brute_force_agrees_on_small_classics() {
        for g in [
            gen::path(6),
            gen::cycle(6),
            gen::star(6),
            gen::complete(5),
            Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap(),
        ] {
            assert_eq!(vertex_connectivity(&g), vertex_connectivity_brute(&g), "graph: {g:?}");
        }
    }

    #[test]
    fn wheel_graph_connectivity_is_three() {
        // Hub 0 + 6-cycle: the standard wheel, κ = 3.
        let mut g = gen::cycle(6);
        let mut w = Graph::empty(7);
        for (u, v) in g.edges() {
            w.add_edge(u + 1, v + 1).unwrap();
        }
        for v in 1..7 {
            w.add_edge(0, v).unwrap();
        }
        g = w;
        assert_eq!(vertex_connectivity(&g), 3);
        let cut = min_vertex_cut(&g).unwrap();
        assert_eq!(cut.len(), 3);
        assert!(is_vertex_cut(&g, &cut));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::oracle::ConnectivityOracle;
    use proptest::prelude::*;

    fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
        (2..=max_n).prop_flat_map(|n| {
            let pairs: Vec<(usize, usize)> =
                (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
            proptest::collection::vec(proptest::bool::ANY, pairs.len()).prop_map(move |mask| {
                let edges = pairs.iter().zip(&mask).filter_map(|(&e, &keep)| keep.then_some(e));
                Graph::from_edges(n, edges).expect("generated edges are in range")
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flow_connectivity_matches_brute_force(g in arb_graph(8)) {
            prop_assert_eq!(vertex_connectivity(&g), vertex_connectivity_brute(&g));
        }

        #[test]
        fn min_cut_is_a_minimum_separator(g in arb_graph(8)) {
            let k = vertex_connectivity(&g);
            match min_vertex_cut(&g) {
                None => prop_assert!(g.is_complete() || g.node_count() <= 1),
                Some(cut) => {
                    prop_assert_eq!(cut.len(), k);
                    if g.node_count() - cut.len() >= 2 {
                        prop_assert!(is_vertex_cut(&g, &cut) || k == 0 && !crate::traversal::is_connected(&g));
                    }
                }
            }
        }

        #[test]
        fn connectivity_is_monotone_under_edge_addition(g in arb_graph(7)) {
            let k = vertex_connectivity(&g);
            let n = g.node_count();
            let mut h = g.clone();
            'outer: for u in 0..n {
                for v in u + 1..n {
                    if !h.has_edge(u, v) {
                        h.add_edge(u, v).expect("in range");
                        break 'outer;
                    }
                }
            }
            prop_assert!(vertex_connectivity(&h) >= k);
        }

        #[test]
        fn partitionability_threshold_is_monotone(g in arb_graph(8), t in 0usize..8) {
            let mut oracle = ConnectivityOracle::new();
            if oracle.is_t_partitionable(&g, t) {
                prop_assert!(oracle.is_t_partitionable(&g, t + 1));
            }
        }
    }
}
