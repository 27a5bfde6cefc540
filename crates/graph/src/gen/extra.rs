//! Additional topology families beyond the paper's evaluation set: grids,
//! tori, Watts–Strogatz small-world and Barabási–Albert scale-free graphs.
//!
//! These are the stock topologies of the MANET/WSN literature the paper's
//! related work draws on (§VI-A); the library ships them so downstream
//! users can evaluate partition detection on their own deployment shapes.

use super::{pairs, spanned};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::rng::Rng;

/// `rows × cols` grid graph (4-neighborhood).
pub fn grid(rows: usize, cols: usize) -> Graph {
    let edges = (0..rows * cols).flat_map(|v| {
        let (r, c) = (v / cols, v % cols);
        [(c + 1 < cols).then_some((v, v + 1)), (r + 1 < rows).then_some((v, v + cols))]
    });
    spanned(rows * cols, edges.flatten())
}

/// `rows × cols` torus: the grid with wrap-around edges, 4-regular and
/// 4-connected for `rows, cols ≥ 3`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] unless `rows, cols ≥ 3`.
pub fn torus(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::InvalidParameters {
            reason: format!("torus requires rows, cols >= 3 (got {rows}x{cols})"),
        });
    }
    let edges = (0..rows * cols).flat_map(|v| {
        let (r, c) = (v / cols, v % cols);
        [(v, r * cols + (c + 1) % cols), (v, ((r + 1) % rows) * cols + c)]
    });
    Ok(spanned(rows * cols, edges))
}

/// Watts–Strogatz small-world graph: a ring lattice where each node links
/// to its `k/2` clockwise neighbors, with every edge rewired to a random
/// endpoint with probability `p`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] unless `k` is even,
/// `2 ≤ k < n`, and `p ∈ [0, 1]`.
pub fn watts_strogatz(n: usize, k: usize, p: f64, rng: &mut Rng) -> Result<Graph, GraphError> {
    if k % 2 != 0 || k < 2 || k >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!("Watts-Strogatz requires even 2 <= k < n (got k={k}, n={n})"),
        });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameters {
            reason: format!("rewiring probability must be in [0, 1] (got {p})"),
        });
    }
    let mut g = Graph::empty(n);
    for v in 0..n {
        for j in 1..=k / 2 {
            let mut target = (v + j) % n;
            if rng.next_f64() < p {
                // Rewire to a uniform non-self, non-duplicate endpoint;
                // keep the lattice edge if no legal target exists.
                for _ in 0..2 * n {
                    let candidate = rng.range(0..n);
                    if candidate != v && !g.has_edge(v, candidate) {
                        target = candidate;
                        break;
                    }
                }
            }
            if target != v && !g.has_edge(v, target) {
                g.add_edge(v, target).expect("indices in range");
            }
        }
    }
    Ok(g)
}

/// Barabási–Albert preferential-attachment graph: starts from a clique of
/// `m` nodes; every subsequent node attaches to `m` distinct existing nodes
/// sampled proportionally to their degree.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] unless `1 ≤ m < n`.
pub fn barabasi_albert(n: usize, m: usize, rng: &mut Rng) -> Result<Graph, GraphError> {
    if m == 0 || m >= n {
        return Err(GraphError::InvalidParameters {
            reason: format!("Barabasi-Albert requires 1 <= m < n (got m={m}, n={n})"),
        });
    }
    let mut edges: Vec<_> = pairs(m).collect();
    // Repeated-endpoints urn: sampling uniformly from this list is
    // sampling proportionally to degree.
    let mut urn: Vec<usize> = (0..m).flat_map(|v| std::iter::repeat_n(v, (m - 1).max(1))).collect();
    for v in m..n {
        let mut targets = std::collections::BTreeSet::new();
        let mut guard = 0;
        while targets.len() < m && guard < 100 * n {
            let pick = if urn.is_empty() { v - 1 } else { urn[rng.range(0..urn.len())] };
            targets.insert(pick);
            guard += 1;
        }
        for &t in &targets {
            edges.push((v, t));
            urn.push(t);
            urn.push(v);
        }
    }
    Ok(spanned(n, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::vertex_connectivity;
    use crate::traversal::{diameter, is_connected};

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert!(is_connected(&g));
        // Corner degree 2, interior degree 4.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(5), 4);
        assert_eq!(vertex_connectivity(&g), 2);
    }

    #[test]
    fn degenerate_grids() {
        assert_eq!(grid(1, 5).edge_count(), 4); // a path
        assert_eq!(grid(0, 5).node_count(), 0);
    }

    #[test]
    fn torus_is_four_regular_four_connected() {
        let g = torus(4, 5).unwrap();
        assert!((0..20).all(|v| g.degree(v) == 4));
        assert_eq!(vertex_connectivity(&g), 4);
        assert!(torus(2, 5).is_err());
    }

    #[test]
    fn watts_strogatz_zero_p_is_the_ring_lattice() {
        let mut rng = Rng::seed_from_u64(1);
        let g = watts_strogatz(12, 4, 0.0, &mut rng).unwrap();
        assert!((0..12).all(|v| g.degree(v) == 4));
        assert_eq!(vertex_connectivity(&g), 4);
    }

    #[test]
    fn watts_strogatz_rewiring_shrinks_the_diameter() {
        let mut rng = Rng::seed_from_u64(2);
        let lattice = watts_strogatz(40, 4, 0.0, &mut rng).unwrap();
        let small_world = watts_strogatz(40, 4, 0.3, &mut rng).unwrap();
        if is_connected(&small_world) {
            assert!(diameter(&small_world).unwrap() < diameter(&lattice).unwrap());
        }
    }

    #[test]
    fn watts_strogatz_rejects_bad_parameters() {
        let mut rng = Rng::seed_from_u64(3);
        assert!(watts_strogatz(10, 3, 0.1, &mut rng).is_err());
        assert!(watts_strogatz(10, 4, 1.5, &mut rng).is_err());
        assert!(watts_strogatz(4, 4, 0.1, &mut rng).is_err());
    }

    #[test]
    fn barabasi_albert_shape() {
        let mut rng = Rng::seed_from_u64(4);
        let g = barabasi_albert(30, 2, &mut rng).unwrap();
        assert_eq!(g.node_count(), 30);
        assert!(is_connected(&g));
        // Every latecomer attaches with m = 2 edges.
        assert!((2..30).all(|v| g.degree(v) >= 2));
        assert!(barabasi_albert(5, 0, &mut rng).is_err());
        assert!(barabasi_albert(5, 5, &mut rng).is_err());
    }

    #[test]
    fn barabasi_albert_has_hubs() {
        let mut rng = Rng::seed_from_u64(5);
        let g = barabasi_albert(60, 2, &mut rng).unwrap();
        let max_deg = g.max_degree().unwrap();
        assert!(max_deg >= 8, "preferential attachment should grow hubs (max degree {max_deg})");
    }

    #[test]
    fn generators_are_seeded_deterministic() {
        let a = watts_strogatz(20, 4, 0.2, &mut Rng::seed_from_u64(9)).unwrap();
        let b = watts_strogatz(20, 4, 0.2, &mut Rng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
        let a = barabasi_albert(20, 2, &mut Rng::seed_from_u64(9)).unwrap();
        let b = barabasi_albert(20, 2, &mut Rng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }
}
