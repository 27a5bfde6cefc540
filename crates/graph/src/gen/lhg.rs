//! Logarithmic-Harary-style graphs: `k-pasted-tree` and `k-diamond`.
//!
//! The paper evaluates NECTAR on the k-pasted-tree and k-diamond Logarithmic
//! Harary Graphs of Baldoni et al. (2009), whose defining properties are
//! (a) vertex connectivity at least `k` and (b) logarithmic diameter, making
//! them well suited to flooding protocols. The exact constructions are not
//! reproduced in the paper; we implement the cluster-based approximations
//! described below (`docs/ARCHITECTURE.md` §1 maps the §V-B families to this
//! module). They preserve exactly those two properties, which are the ones
//! the evaluation exercises (shorter signature chains and earlier quiescence
//! than k-regular graphs of the same size and connectivity).
//!
//! * **k-pasted-tree**: a balanced binary tree of `⌈n/k⌉` clusters of `k`
//!   nodes, with a complete bipartite graph between each parent/child
//!   cluster pair. Any two nodes are joined by `k` "rails" through distinct
//!   cluster positions, so `κ ≥ k`; leaf-cluster nodes have degree exactly
//!   `k`, so `κ = k` when the tree has at least two clusters.
//! * **k-diamond**: two such trees sharing their leaf clusters (the classic
//!   diamond silhouette: one tree growing down from a top root, a mirrored
//!   tree growing up from a bottom root), which doubles path diversity at
//!   the leaves while keeping the diameter logarithmic.

use super::spanned;
use crate::error::GraphError;
use crate::graph::Graph;

/// Cluster layout: splits `0..n` into `⌈n/k⌉` chunks of size `k` (the last
/// one possibly smaller).
fn clusters(k: usize, n: usize) -> Vec<Vec<usize>> {
    (0..n).step_by(k).map(|start| (start..(start + k).min(n)).collect()).collect()
}

/// Every edge of the complete bipartite graph between clusters `a` and `b`.
fn join<'a>(a: &'a [usize], b: &'a [usize]) -> impl Iterator<Item = (usize, usize)> + 'a {
    a.iter().flat_map(move |&u| b.iter().map(move |&v| (u, v)))
}

/// Builds the k-pasted-tree graph on `n` nodes (see module docs).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] unless `1 ≤ k` and `n ≥ 2k`
/// (at least two clusters; for smaller `n` use a complete graph instead).
pub fn k_pasted_tree(k: usize, n: usize) -> Result<Graph, GraphError> {
    if k == 0 || n < 2 * k {
        return Err(GraphError::InvalidParameters {
            reason: format!("k-pasted-tree requires k >= 1 and n >= 2k (got k={k}, n={n})"),
        });
    }
    let cl = clusters(k, n);
    // Heap-indexed balanced binary tree over clusters.
    Ok(spanned(n, (1..cl.len()).flat_map(|c| join(&cl[(c - 1) / 2], &cl[c]))))
}

/// Builds the k-diamond graph on `n` nodes (see module docs): a top tree and
/// a mirrored bottom tree pasted together at their leaf clusters.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] unless `1 ≤ k` and `n ≥ 3k`
/// (a top root, a bottom root, and at least one shared leaf cluster).
pub fn k_diamond(k: usize, n: usize) -> Result<Graph, GraphError> {
    if k == 0 || n < 3 * k {
        return Err(GraphError::InvalidParameters {
            reason: format!("k-diamond requires k >= 1 and n >= 3k (got k={k}, n={n})"),
        });
    }
    let cl = clusters(k, n);
    let m = cl.len();
    // Split clusters: the first `top` clusters form the top tree, the last
    // `bottom` clusters form the bottom tree, and the middle band is shared
    // as the leaves of both. We mirror by letting the bottom tree be a heap
    // over the reversed cluster list.
    let half = m.div_ceil(2);
    // Top tree over clusters [0, half) in heap order.
    let mut edges: Vec<_> = (1..half).flat_map(|c| join(&cl[c], &cl[(c - 1) / 2])).collect();
    // Bottom tree over clusters [half-1, m) reversed, so cluster m-1 is the
    // bottom root; its leaves overlap the top tree's leaves at the boundary.
    let bottom: Vec<usize> = (half.saturating_sub(1)..m).rev().collect();
    for idx in 1..bottom.len() {
        edges.extend(join(&cl[bottom[idx]], &cl[bottom[(idx - 1) / 2]]));
    }
    // Paste the deepest top-tree leaves onto the bottom tree (and vice
    // versa): connect every top leaf cluster to a bottom leaf cluster so
    // every node keeps degree >= k and the two trees share their frontier.
    let top_leaves: Vec<usize> = (0..half).filter(|&c| 2 * c + 1 >= half).collect();
    let bottom_leaf_clusters: Vec<usize> = bottom
        .iter()
        .enumerate()
        .filter(|&(idx, _)| 2 * idx + 1 >= bottom.len())
        .map(|(_, &c)| c)
        .collect();
    for (i, &tc) in top_leaves.iter().enumerate() {
        let bc = bottom_leaf_clusters[i % bottom_leaf_clusters.len()];
        if tc != bc {
            edges.extend(join(&cl[tc], &cl[bc]));
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
    fn pasted_tree_rejects_small_n() {
        assert!(k_pasted_tree(4, 7).is_err());
        assert!(k_pasted_tree(0, 10).is_err());
    }

    #[test]
    fn diamond_rejects_small_n() {
        assert!(k_diamond(4, 11).is_err());
        assert!(k_diamond(0, 10).is_err());
    }

    #[test]
    fn pasted_tree_is_k_connected() {
        for (k, n) in [(2, 12), (3, 18), (4, 40), (2, 9)] {
            let g = k_pasted_tree(k, n).unwrap();
            assert!(is_connected(&g), "({k},{n})");
            assert!(vertex_connectivity(&g) >= k, "({k},{n})");
        }
    }

    #[test]
    fn diamond_is_k_connected() {
        for (k, n) in [(2, 12), (3, 18), (4, 40)] {
            let g = k_diamond(k, n).unwrap();
            assert!(is_connected(&g), "({k},{n})");
            assert!(vertex_connectivity(&g) >= k, "({k},{n})");
        }
    }

    #[test]
    fn lhg_diameter_is_smaller_than_harary_at_scale() {
        // The property the evaluation relies on: for the same (n, k), LHGs
        // have a much smaller diameter than the k-regular Harary graph.
        let (k, n) = (4, 64);
        let lhg = k_pasted_tree(k, n).unwrap();
        let reg = crate::gen::harary(k, n).unwrap();
        let d_lhg = diameter(&lhg).unwrap();
        let d_reg = diameter(&reg).unwrap();
        assert!(d_lhg < d_reg, "LHG diameter {d_lhg} should beat Harary {d_reg}");
    }

    #[test]
    fn every_node_present_with_positive_degree() {
        for g in [k_pasted_tree(3, 30).unwrap(), k_diamond(3, 30).unwrap()] {
            assert!(g.min_degree().unwrap() >= 3);
        }
    }
}
