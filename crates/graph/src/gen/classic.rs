//! Classic graph families: complete, path, cycle, star, Erdős–Rényi.
//!
//! These are the small motivating topologies of the paper's Fig. 1 (the
//! ring that is safe against one Byzantine node, the star whose hub is a
//! cut vertex) plus the standard families tests sweep over.

use super::{pairs, spanned};
use crate::graph::Graph;
use crate::rng::Rng;

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    spanned(n, pairs(n))
}

/// Path (chain) graph `P_n`: `0 – 1 – … – n-1`.
///
/// The chain is the paper's worst case for the number of propagation rounds
/// (§IV-B), which motivates running NECTAR for `n − 1` rounds.
pub fn path(n: usize) -> Graph {
    spanned(n, (1..n).map(|u| (u - 1, u)))
}

/// Cycle graph `C_n` (requires `n ≥ 3` to be a proper cycle; smaller values
/// degrade to a path).
pub fn cycle(n: usize) -> Graph {
    spanned(n, (1..n).map(|u| (u - 1, u)).chain((n >= 3).then(|| (n - 1, 0))))
}

/// Star graph: node 0 is the hub, nodes `1..n` are leaves (Fig. 1b's
/// 1-Byzantine-partitionable example).
pub fn star(n: usize) -> Graph {
    spanned(n, (1..n).map(|v| (0, v)))
}

/// Disjoint union of `count` cliques of `size` nodes each (`count · size`
/// nodes total): a maximally partitioned fleet of tight clusters.
///
/// Every cluster floods internally and quiesces after ~`size` rounds while
/// the system-wide round horizon stays `n − 1`, which makes this the
/// canonical workload for the event-driven runtime's `O(active events)`
/// scheduling — and, protocol-wise, a ground-truth `confirmed` partition
/// for every correct node. Used by the 10 000-node scale tests and the
/// `runtime_scaling` bench.
pub fn disjoint_cliques(count: usize, size: usize) -> Graph {
    let clique = |c: usize| pairs(size).map(move |(u, v)| (c * size + u, c * size + v));
    spanned(count * size, (0..count).flat_map(clique))
}

/// Erdős–Rényi random graph `G(n, p)`: every pair becomes an edge
/// independently with probability `p`.
///
/// # Panics
///
/// Panics if `p` is not within `[0, 1]`.
pub fn erdos_renyi(n: usize, p: f64, rng: &mut Rng) -> Graph {
    assert!((0.0..=1.0).contains(&p), "edge probability must be in [0, 1]");
    spanned(n, pairs(n).filter(|_| rng.next_f64() < p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter, is_connected};

    #[test]
    fn complete_graph_shape() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.min_degree(), Some(5));
        assert!(g.is_complete());
    }

    #[test]
    fn path_and_cycle_shape() {
        assert_eq!(path(5).edge_count(), 4);
        assert_eq!(cycle(5).edge_count(), 5);
        assert_eq!(diameter(&path(5)), Some(4));
        assert_eq!(diameter(&cycle(5)), Some(2));
        // Degenerate sizes.
        assert_eq!(cycle(2).edge_count(), 1);
        assert_eq!(cycle(0).edge_count(), 0);
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.degree(0), 6);
        assert!((1..7).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn disjoint_cliques_shape() {
        let g = disjoint_cliques(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 6);
        assert!((0..12).all(|v| g.degree(v) == 3));
        assert!(!is_connected(&g));
        // No edge crosses a cluster boundary.
        assert!(!g.has_edge(3, 4));
        assert!(g.has_edge(4, 7));
        // Degenerate sizes are fine.
        assert_eq!(disjoint_cliques(0, 5).node_count(), 0);
        assert_eq!(disjoint_cliques(2, 1).edge_count(), 0);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = Rng::seed_from_u64(42);
        assert_eq!(erdos_renyi(8, 0.0, &mut rng).edge_count(), 0);
        assert!(erdos_renyi(8, 1.0, &mut rng).is_complete());
    }

    #[test]
    fn erdos_renyi_is_seeded_deterministic() {
        let g1 = erdos_renyi(20, 0.3, &mut Rng::seed_from_u64(7));
        let g2 = erdos_renyi(20, 0.3, &mut Rng::seed_from_u64(7));
        assert_eq!(g1, g2);
    }

    #[test]
    fn dense_er_graphs_are_usually_connected() {
        let mut rng = Rng::seed_from_u64(1);
        let g = erdos_renyi(30, 0.5, &mut rng);
        assert!(is_connected(&g));
    }
}
