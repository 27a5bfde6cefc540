//! Generalized and multipartite wheel graphs.
//!
//! These are the Byzantine worst-case topologies of Bonomi, Farina and
//! Tixeuil (§V-B): the central hub set can be occupied by a Byzantine
//! clique, while correct nodes are left with only the outer cycle's few
//! paths. Both graphs have vertex connectivity `k`.

use super::{pairs, spanned};
use crate::error::GraphError;
use crate::graph::Graph;

/// Builds the generalized wheel `GW(k, n)`: a clique of `k − 2` central hub
/// nodes (indices `0..k-2`) plus an outer cycle of `n − (k − 2)` nodes, each
/// adjacent to both ring neighbors and to every hub.
///
/// The minimum vertex cut is the hub set plus the two ring neighbors of any
/// ring node, so `κ = k`. The standard wheel graph is recovered with
/// `k = 3` (one hub).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] unless `k ≥ 3` and the ring has
/// at least 4 nodes (`n ≥ k + 2`).
pub fn generalized_wheel(k: usize, n: usize) -> Result<Graph, GraphError> {
    if k < 3 || n < k + 2 {
        return Err(GraphError::InvalidParameters {
            reason: format!("generalized wheel requires k >= 3 and n >= k + 2 (got k={k}, n={n})"),
        });
    }
    let hubs = k - 2;
    Ok(spanned(n, pairs(hubs).chain(ring_and_spokes(hubs, n))))
}

/// Builds the multipartite wheel `MW(k, n, parts)`: as the generalized wheel
/// but with the `k − 2` central nodes arranged in `parts` groups forming a
/// complete multipartite graph (no edges inside a group).
///
/// Ring nodes keep degree `k`, so `κ = k`; the sparser center leaves fewer
/// correct-node paths when the hubs are Byzantine — the paper's "few
/// path(s)" worst case.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] unless `k ≥ 4`,
/// `2 ≤ parts ≤ k − 2`, and `n ≥ k + 2`.
pub fn multipartite_wheel(k: usize, n: usize, parts: usize) -> Result<Graph, GraphError> {
    if k < 4 || n < k + 2 || parts < 2 || parts > k - 2 {
        return Err(GraphError::InvalidParameters {
            reason: format!(
                "multipartite wheel requires k >= 4, 2 <= parts <= k - 2, n >= k + 2 (got k={k}, n={n}, parts={parts})"
            ),
        });
    }
    let hubs = k - 2;
    // Hubs u and v are joined iff they belong to different parts (round-robin
    // part assignment u % parts).
    let center = pairs(hubs).filter(|(u, v)| u % parts != v % parts);
    Ok(spanned(n, center.chain(ring_and_spokes(hubs, n))))
}

/// The outer ring over nodes `hubs..n`, each ring node followed by its
/// spokes to every hub.
fn ring_and_spokes(hubs: usize, n: usize) -> impl Iterator<Item = (usize, usize)> {
    let next = move |u: usize| if u + 1 == n { hubs } else { u + 1 };
    (hubs..n).flat_map(move |u| std::iter::once((u, next(u))).chain((0..hubs).map(move |h| (u, h))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::vertex_connectivity;
    use crate::traversal::{diameter, is_connected, is_partitioned_without};

    #[test]
    fn rejects_invalid_parameters() {
        assert!(generalized_wheel(2, 10).is_err());
        assert!(generalized_wheel(5, 6).is_err());
        assert!(multipartite_wheel(3, 10, 2).is_err());
        assert!(multipartite_wheel(6, 10, 1).is_err());
        assert!(multipartite_wheel(6, 10, 5).is_err());
    }

    #[test]
    fn standard_wheel_is_three_connected() {
        let g = generalized_wheel(3, 8).unwrap();
        assert_eq!(vertex_connectivity(&g), 3);
        assert_eq!(g.degree(0), 7); // single hub sees the whole ring
    }

    #[test]
    fn generalized_wheel_connectivity_is_k() {
        for (k, n) in [(4, 10), (5, 12), (6, 15)] {
            let g = generalized_wheel(k, n).unwrap();
            assert_eq!(vertex_connectivity(&g), k, "GW({k},{n})");
        }
    }

    #[test]
    fn multipartite_wheel_connectivity_is_k() {
        for (k, n, p) in [(4, 10, 2), (5, 12, 3), (6, 15, 2)] {
            let g = multipartite_wheel(k, n, p).unwrap();
            assert_eq!(vertex_connectivity(&g), k, "MW({k},{n},{p})");
        }
    }

    #[test]
    fn hub_set_plus_ring_neighbors_is_a_cut() {
        let k = 5;
        let g = generalized_wheel(k, 12).unwrap();
        // Hubs 0..3 plus ring neighbors of ring node 4 (ring = 3..11).
        let hubs: Vec<usize> = (0..k - 2).collect();
        let mut cut = hubs;
        cut.push(12 - 1); // predecessor of ring node 3 in the cycle
        cut.push(4); // successor of ring node 3
        assert!(is_partitioned_without(&g, &cut));
    }

    #[test]
    fn wheels_have_tiny_diameter() {
        let g = generalized_wheel(6, 30).unwrap();
        assert!(is_connected(&g));
        assert!(diameter(&g).unwrap() <= 3);
        let g = multipartite_wheel(6, 30, 2).unwrap();
        assert!(diameter(&g).unwrap() <= 3);
    }

    #[test]
    fn multipartite_center_has_no_intra_part_edges() {
        let g = multipartite_wheel(6, 20, 2).unwrap();
        // Hubs 0..4, parts by parity: 0-2, 1-3 are intra-part pairs.
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 3));
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
    }
}
